"""Graph-property deciders and the per-graph property report.

Each decider asks only what its property needs. Connectivity is one
frontier expansion over the bitmask rows that stops as soon as the
component covers every vertex: ``is_connected`` expands from vertex 0
alone, and ``connected_components`` repeats the expansion from each
vertex not yet reached. ``find_cycle`` is the one cycle decider behind
``has_cycle``, ``is_forest``, ``is_tree`` and ``is_star``.

Conventions for degenerate graphs: the empty graph counts as connected,
a forest, Eulerian, and not a star; a single vertex counts as complete,
a tree, a star, and Eulerian. These keep the characterization checks
exception-free on the order-1 and order-2 groups.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .epg import EpgBundle
from .planarity import planarity_verdict
from .simplegraph import SimpleGraph

REPORT_FIELDS = (
    "connected",
    "components",
    "complete",
    "cycle",
    "forest",
    "tree",
    "star",
    "bipartite",
    "eulerian",
    "planar",
    "cone_vertices",
)


def _component(graph: SimpleGraph, s: int) -> int:
    """Bitmask of the component of vertex s.

    The frontier grows by the union of its members' rows; the expansion
    stops once the component covers ``graph.universe``, so a connected
    graph costs no more than reaching every vertex once.
    """
    rows, universe = graph.rows, graph.universe
    comp = frontier = 1 << s
    while frontier and comp != universe:
        grown = 0
        m = frontier
        while m:
            b = m & -m
            grown |= rows[b.bit_length() - 1]
            m ^= b
        frontier = grown & ~comp
        comp |= frontier
    return comp


def connected_components(graph: SimpleGraph) -> list[list[int]]:
    """Vertex partition into components, ordered by smallest member."""
    seen = 0
    out: list[list[int]] = []
    for s in range(graph.n):
        if seen >> s & 1:
            continue
        comp = _component(graph, s)
        seen |= comp
        members = []
        while comp:
            b = comp & -comp
            members.append(b.bit_length() - 1)
            comp ^= b
        out.append(members)
    return out


def is_connected(graph: SimpleGraph) -> bool:
    """One expansion from vertex 0; the partition is never built."""
    return graph.n == 0 or _component(graph, 0) == graph.universe


def is_complete(graph: SimpleGraph) -> bool:
    return graph.edge_count() == graph.n * (graph.n - 1) // 2


def find_missing_edge(graph: SimpleGraph) -> Optional[tuple[int, int]]:
    universe = graph.universe
    for u in range(graph.n):
        want = universe & ~(1 << u)
        missing = want & ~graph.rows[u]
        if missing:
            return (u, (missing & -missing).bit_length() - 1)
    return None


def find_cycle(graph: SimpleGraph) -> Optional[list[int]]:
    """Some cycle as a vertex list, via a DFS back/cross edge, else None.

    A popped vertex's row is split by bitmask: a neighbor reached before,
    other than its parent, closes a cycle (the lowest such one is taken);
    the rest are pushed in ascending order.
    """
    rows = graph.rows
    parent = [-1] * graph.n
    depth = [0] * graph.n
    visited = 0
    for s in range(graph.n):
        if visited >> s & 1:
            continue
        visited |= 1 << s
        stack = [s]
        while stack:
            u = stack.pop()
            back = rows[u] & visited
            if parent[u] >= 0:
                back &= ~(1 << parent[u])
            if back:
                w = (back & -back).bit_length() - 1
                return _join_tree_paths(u, w, parent, depth)
            new = rows[u] & ~visited
            visited |= new
            d = depth[u] + 1
            while new:
                b = new & -new
                w = b.bit_length() - 1
                parent[w] = u
                depth[w] = d
                stack.append(w)
                new ^= b
    return None


def _join_tree_paths(u: int, w: int, parent: list[int], depth: list[int]) -> list[int]:
    """Cycle through the edge {u, w} plus the two tree paths to their meeting point."""
    pu, pw = [u], [w]
    a, b = u, w
    while depth[a] > depth[b]:
        a = parent[a]
        pu.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pw.append(b)
    while a != b:
        a = parent[a]
        pu.append(a)
        b = parent[b]
        pw.append(b)
    return pu + pw[-2::-1]


def has_cycle(graph: SimpleGraph) -> bool:
    return find_cycle(graph) is not None


def is_forest(graph: SimpleGraph) -> bool:
    return find_cycle(graph) is None


def is_tree(graph: SimpleGraph) -> bool:
    return graph.n >= 1 and is_forest(graph) and is_connected(graph)


def is_star(graph: SimpleGraph) -> bool:
    """A tree with a vertex adjacent to all others; K1 and K2 count."""
    if not is_tree(graph):
        return False
    full = graph.n - 1
    return any(graph.degree(v) == full for v in range(graph.n))


def bipartite_coloring(graph: SimpleGraph) -> tuple[bool, Optional[list[int]]]:
    """(bipartite, odd cycle witness when not).

    Breadth-first 2-coloring with one bitmask per color: a dequeued
    vertex clashes with its lowest neighbor of its own color, and its
    uncolored neighbors take the other color in ascending order.
    """
    rows = graph.rows
    color = [-1] * graph.n
    parent = [-1] * graph.n
    depth = [0] * graph.n
    sides = [0, 0]
    for s in range(graph.n):
        if color[s] != -1:
            continue
        color[s] = 0
        sides[0] |= 1 << s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            c = color[u]
            clash = rows[u] & sides[c]
            if clash:
                w = (clash & -clash).bit_length() - 1
                return False, _join_tree_paths(u, w, parent, depth)
            new = rows[u] & ~(sides[0] | sides[1])
            sides[c ^ 1] |= new
            d = depth[u] + 1
            while new:
                b = new & -new
                w = b.bit_length() - 1
                color[w] = c ^ 1
                parent[w] = u
                depth[w] = d
                queue.append(w)
                new ^= b
    return True, None


def is_bipartite(graph: SimpleGraph) -> bool:
    return bipartite_coloring(graph)[0]


def is_eulerian(graph: SimpleGraph) -> bool:
    """Connected with every degree even; the one-vertex graph qualifies."""
    return all(d % 2 == 0 for d in graph.degrees()) and is_connected(graph)


def degree_sequence(graph: SimpleGraph) -> list[int]:
    return graph.degrees()


def is_planar(graph: SimpleGraph) -> bool:
    return planarity_verdict(graph)[0]


def cone_vertices(epg: SimpleGraph) -> list[int]:
    """Non-identity vertices adjacent to every other vertex (identity is vertex 0)."""
    universe = epg.universe
    return [v for v in range(1, epg.n) if epg.rows[v] == universe & ~(1 << v)]


@dataclass
class PropertyReport:
    """Flat property verdicts for one graph, plus best-effort witnesses."""

    connected: bool
    components: int
    complete: bool
    cycle: bool
    forest: bool
    tree: bool
    star: bool
    bipartite: bool
    eulerian: bool
    planar: bool
    cone_vertices: list[int]
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        out.update(self.witnesses)
        return out


def analyze(bundle: EpgBundle, *, deleted: bool = False) -> PropertyReport:
    """Full report for the bundle's enhanced power graph or its deleted variant.

    ``cone_vertices`` always refers to the enhanced power graph; a vertex
    is universal in the deleted graph exactly when it is a cone vertex, so
    the set is the same either way.
    """
    graph = bundle.deleted if deleted else bundle.epg
    witnesses: dict = {}

    parts = connected_components(graph)
    connected = graph.n == 0 or len(parts) == 1
    if not connected:
        witnesses["component_reps"] = [p[0] for p in parts]

    complete = is_complete(graph)
    if not complete and graph.n > 1:
        missing = find_missing_edge(graph)
        if missing is not None:
            witnesses["missing_edge"] = list(missing)

    cycle = find_cycle(graph)
    if cycle is not None:
        witnesses["cycle_witness"] = cycle

    bipartite, odd_cycle = bipartite_coloring(graph)
    if odd_cycle is not None:
        witnesses["odd_cycle"] = odd_cycle

    degrees = graph.degrees()
    eulerian = connected and all(d % 2 == 0 for d in degrees)
    if not eulerian:
        odd = next((v for v, d in enumerate(degrees) if d % 2), None)
        if odd is not None:
            witnesses["odd_degree_vertex"] = odd

    planar, reject = planarity_verdict(graph)
    if not planar:
        witnesses["planar_reject"] = reject

    forest = cycle is None
    tree = graph.n >= 1 and forest and connected
    star = tree and graph.n >= 1 and any(d == graph.n - 1 for d in degrees)

    return PropertyReport(
        connected=connected,
        components=len(parts),
        complete=complete,
        cycle=cycle is not None,
        forest=forest,
        tree=tree,
        star=star,
        bipartite=bipartite,
        eulerian=eulerian,
        planar=planar,
        cone_vertices=cone_vertices(bundle.epg),
        witnesses=witnesses,
    )
