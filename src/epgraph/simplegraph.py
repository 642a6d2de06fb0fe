"""Undirected simple graphs with bitmask adjacency rows.

Row u is a Python int whose bit v is set iff {u, v} is an edge; degrees
are population counts and neighborhood comparisons are single integer
compares. A builder assigns ``rows`` once, before any read (those of
``epgraph.epg`` assign the rows they compute), and the graph is immutable
from then on, so any number of readers may share one. The degree list is
counted once, on the first ``degrees()`` call, and every reader shares it.
``bits`` lists a mask's vertices, ``component`` expands one component, a
whole frontier of rows at a time, within an optional vertex mask, and
``component_reps`` lists every component by its smallest vertex; the
analysis deciders and the planarity certificates share all three.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional


class SimpleGraph:
    __slots__ = ("n", "rows", "labels", "name", "_degrees")

    def __init__(self, n: int, labels=None, name: str = ""):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.rows: list[int] = [0] * n
        # optional per-vertex (element index, element order) annotation
        self.labels: Optional[list[tuple[int, int]]] = labels
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
    vertices of ``alive`` (by default all) induce: one expansion per component."""
    reps: list[int] = []
    rest = graph.universe if alive is None else alive
    while rest:
        reps.append((rest & -rest).bit_length() - 1)  # lowest vertex not yet reached
        rest &= ~component(graph, reps[-1], alive)
    return reps


# -- serialization -----------------------------------------------------------


def _vertex_label(graph: SimpleGraph, v: int) -> str:
    if graph.labels is not None:
        element, order = graph.labels[v]
        return f"g{element} (o={order})"
    return f"g{v}"


def to_edgelist_lines(graph: SimpleGraph) -> list[str]:
    """Lines 'u v' with u < v, 0-based."""
    return [f"{u} {v}" for u, v in graph.edges()]


def to_dot(graph: SimpleGraph) -> str:
    """Graphviz source: one node per element, labeled 'g<i> (o=<order>)'."""
    # backslashes doubled before quotes are escaped, so a trailing backslash
    # in the name cannot escape the closing quote
    name = (graph.name or "graph").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{name}" {{']
    for v in range(graph.n):
        lines.append(f'  n{v} [label="{_vertex_label(graph, v)}"];')
    for u, v in graph.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(graph: SimpleGraph) -> dict:
    return {
        "name": graph.name,
        "vertices": graph.n,
        "labels": [list(lab) for lab in graph.labels] if graph.labels else None,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def to_json(graph: SimpleGraph) -> str:
    return json.dumps(to_json_dict(graph), indent=2) + "\n"
