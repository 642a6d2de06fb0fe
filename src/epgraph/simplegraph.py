"""Undirected simple graphs with bitmask adjacency rows.

Row u is a Python int whose bit v is set iff {u, v} is an edge; degrees
are population counts and neighborhood comparisons are single integer
compares. A builder assigns ``rows`` once, before any read (those of
``epgraph.epg`` assign the rows they compute), and the graph is immutable
from then on, so any number of readers may share one. The degree list is
counted once, on the first ``degrees()`` call, and every reader shares it.
``bits`` lists a mask's vertices, ``component`` expands one component, a
whole frontier of rows at a time, within an optional vertex mask, and
``component_reps`` lists every component by its smallest vertex, setting
the degree-0 vertices of the whole graph aside at once; the analysis
deciders and the planarity certificates share all three. A graph on a
group's elements holds the group's ``orders`` tuple, not a label per
vertex: the exports derive each vertex's (element, order) from it.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional


class SimpleGraph:
    __slots__ = ("n", "rows", "orders", "name", "_degrees")

    def __init__(self, n: int, orders: Optional[tuple[int, ...]] = None, name: str = ""):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.rows: list[int] = [0] * n
        # the group's element orders when the vertices are its elements; the
        # deleted graph shares them, one vertex short (see ``_labels``)
        self.orders = orders
        self.name = name
        self._degrees: Optional[list[int]] = None

    # -- queries ---------------------------------------------------------------

    @property
    def universe(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        """Every vertex's degree, counted on first call; shared, so not to be mutated."""
        if self._degrees is None:
            self._degrees = list(map(int.bit_count, self.rows))
        return self._degrees

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)


def bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending: a row's neighbors or a set's vertices."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def component(graph: SimpleGraph, s: int, alive: Optional[int] = None) -> int:
    """Bitmask of the component of vertex s in the subgraph that the
    vertices of ``alive`` (by default all) induce.

    The frontier grows by the union of its members' rows; the expansion
    stops once the component covers ``alive``, so a connected graph costs
    no more than reaching every vertex once. The frontier's bits are taken
    inline rather than through ``bits``: this is the hot loop of every
    connectivity decision, and a generator there made it about 30% slower.
    """
    rows = graph.rows
    if alive is None:
        alive = graph.universe
    comp = frontier = 1 << s
    while frontier and comp != alive:
        grown = 0
        m = frontier
        while m:
            b = m & -m
            grown |= rows[b.bit_length() - 1]
            m ^= b
        frontier = grown & alive & ~comp
        comp |= frontier
    return comp


def component_reps(graph: SimpleGraph, alive: Optional[int] = None) -> list[int]:
    """Each component's smallest vertex, ascending, in the subgraph that the
    vertices of ``alive`` (by default all) induce: one expansion per component
    of two or more vertices.

    Over the whole graph, a vertex of degree 0 is its own component: when
    the shared degree list holds a 0, all such vertices are set aside in
    one step and only the rest are expanded.
    """
    reps: list[int] = []
    rest = graph.universe if alive is None else alive
    if alive is None and not all(graph.degrees()):  # some vertex has degree 0
        reps = [v for v, d in enumerate(graph.degrees()) if not d]
        rest ^= sum(1 << v for v in reps)
    while rest:
        reps.append((rest & -rest).bit_length() - 1)  # lowest vertex not yet reached
        rest &= ~component(graph, reps[-1], alive)
    reps.sort()  # the isolated vertices came first; two ascending runs to merge
    return reps


# -- serialization -----------------------------------------------------------


def _labels(graph: SimpleGraph) -> Optional[list[tuple[int, int]]]:
    """(element, order) for each vertex, derived from ``graph.orders`` on
    export; None when the vertices are no group's elements. A graph with
    one vertex fewer than the group is the deleted graph: its vertex v is
    element v + 1."""
    if graph.orders is None:
        return None
    first = len(graph.orders) - graph.n
    return list(enumerate(graph.orders[first:], first))


def to_edgelist_lines(graph: SimpleGraph) -> list[str]:
    """Lines 'u v' with u < v, 0-based."""
    return [f"{u} {v}" for u, v in graph.edges()]


def to_dot(graph: SimpleGraph) -> str:
    """Graphviz source: one node per element, labeled 'g<i> (o=<order>)'."""
    # backslashes doubled before quotes are escaped, so a trailing backslash
    # in the name cannot escape the closing quote
    name = (graph.name or "graph").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{name}" {{']
    labeled = _labels(graph)
    for v in range(graph.n):
        label = f"g{v}" if labeled is None else "g{} (o={})".format(*labeled[v])
        lines.append(f'  n{v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(graph: SimpleGraph) -> dict:
    labeled = _labels(graph)
    return {
        "name": graph.name,
        "vertices": graph.n,
        "labels": [list(lab) for lab in labeled] if labeled else None,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def to_json(graph: SimpleGraph) -> str:
    return json.dumps(to_json_dict(graph), indent=2) + "\n"
