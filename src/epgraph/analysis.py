"""Graph-property deciders and the lazy per-graph property report.

Each property has one decider, which asks only what its property needs:
``component_reps`` expands each component once and settles connectivity
and the component count, and ``find_missing_edge``, ``find_cycle``,
``bipartite_coloring`` and ``odd_degree_vertex`` stop at their first
witness; ``planarity_verdict`` and ``cone_vertices`` complete the set.
``planarity_verdict`` decides enhanced power graphs and their deleted
graphs, the only graphs a bundle holds; on another graph that its
certificates leave open it raises ValueError, and so does reading that
report's ``planar``. The two searches keep frames [remaining mask, parent,
depth], one per expanded vertex rather than one entry per neighbor, so the
identity, adjacent to every vertex of an enhanced power graph, costs one
frame and not n - 1 pushes.
``find_missing_edge``, ``odd_degree_vertex``, ``cone_vertices``, the star
verdict and planarity's edge-count reject all read the graph's one degree
list (``SimpleGraph.degrees``), so a graph's degrees are counted once, and
the deleted graph's report reads its cone vertices off the enhanced power
graph's report, so they are found once per bundle.
``PropertyReport(graph, epg_report)`` runs each decider on the first read
of a field that needs it, at most once per report, and is the one place that
defines connected, tree, star and Eulerian. A bundle holds one report per
graph (``EpgBundle.report`` and ``deleted_report``), which ``analyze``, the
CLI and every theorem check read, so a decider runs at most once per graph
whoever asks.

Conventions for degenerate graphs: the empty graph counts as connected,
a forest, Eulerian, and not a star; a single vertex counts as complete,
a tree, a star, and Eulerian. These keep the characterization checks
exception-free on the order-1 and order-2 groups.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .planarity import planarity_verdict
from .simplegraph import SimpleGraph, component_reps

if TYPE_CHECKING:
    from .epg import EpgBundle

REPORT_FIELDS = ("connected", "components", "complete", "cycle", "forest", "tree",
                 "star", "bipartite", "eulerian", "planar", "cone_vertices")


def find_missing_edge(graph: SimpleGraph) -> Optional[tuple[int, int]]:
    """The first non-adjacent pair (u, v), u < v, or None when the graph is complete.

    u is the first vertex below full degree and v its lowest missing neighbor.
    """
    full = graph.n - 1
    u = next((v for v, d in enumerate(graph.degrees()) if d < full), None)
    if u is None:
        return None
    missing = graph.universe ^ (graph.rows[u] | 1 << u)
    return (u, (missing & -missing).bit_length() - 1)


def find_cycle(graph: SimpleGraph) -> Optional[list[int]]:
    """Some cycle as a vertex list, via a DFS back/cross edge, else None.

    The stack holds frames [remaining mask, parent, depth]: a popped
    vertex's unvisited neighbors are marked at once and pushed as one
    frame, and the next vertex is the highest bit of the top frame, the
    order a stack of single vertices pushed in ascending order gives. A
    vertex's parent and depth are written when it is popped. A neighbor
    reached before, other than the parent, closes a cycle (the lowest such
    one is taken); if it is still in a frame, it takes that frame's parent
    and depth.
    """
    rows = graph.rows
    parent = [0] * graph.n
    depth = [0] * graph.n
    visited = 0
    for s in range(graph.n):
        if visited >> s & 1:
            continue
        visited |= 1 << s
        stack = [[1 << s, s, 0]]  # a root is its own parent, so no bit is masked
        while stack:
            frame = stack[-1]
            u = frame[0].bit_length() - 1
            frame[0] ^= 1 << u
            if not frame[0]:
                stack.pop()
            parent[u], depth[u] = frame[1], frame[2]
            back = rows[u] & visited & ~(1 << frame[1])
            if back:
                w = (back & -back).bit_length() - 1
                _place(w, stack, parent, depth)
                return _join_tree_paths(u, w, parent, depth)
            new = rows[u] & ~visited
            if new:
                visited |= new
                stack.append([new, u, frame[2] + 1])
    return None


def _place(w: int, frames, parent: list[int], depth: list[int]) -> None:
    """Give w the parent and depth of the frame that still holds it, if one does."""
    for mask, p, d in frames:
        if mask >> w & 1:
            parent[w], depth[w] = p, d
            return


def _join_tree_paths(u: int, w: int, parent: list[int], depth: list[int]) -> list[int]:
    """Cycle through the edge {u, w} plus the two tree paths to their meeting point.

    Each step climbs the deeper path one level, so consistent parent and
    depth lists meet within depth[u] + depth[w] steps; lists that do not
    raise RuntimeError instead of climbing forever.
    """
    pu, pw = [u], [w]
    for _ in range(depth[u] + depth[w] + 1):
        if pu[-1] == pw[-1]:
            return pu + pw[-2::-1]
        if depth[pu[-1]] >= depth[pw[-1]]:
            pu.append(parent[pu[-1]])
        else:
            pw.append(parent[pw[-1]])
    raise RuntimeError(
        f"the tree paths from {u} and {w} do not meet: parent and depth are inconsistent")


def bipartite_coloring(graph: SimpleGraph) -> tuple[bool, Optional[list[int]]]:
    """(bipartite, odd cycle witness when not).

    Breadth-first 2-coloring with one bitmask per color, which is the
    only record of a vertex's color. The queue holds frames [remaining
    mask, parent, depth]: a dequeued vertex's uncolored neighbors take the
    other color at once and join the queue as one frame, and the next
    vertex is the lowest bit of the front frame. A vertex clashes with its
    lowest neighbor of its own color; parent and depth are written on
    dequeue, and a clash witness still in a frame takes them from it.
    """
    rows = graph.rows
    parent = [-1] * graph.n
    depth = [0] * graph.n
    sides = [0, 0]
    for s in range(graph.n):
        if (sides[0] | sides[1]) >> s & 1:
            continue
        sides[0] |= 1 << s
        queue = deque([[1 << s, -1, 0]])
        while queue:
            frame = queue[0]
            b = frame[0] & -frame[0]
            u = b.bit_length() - 1
            frame[0] ^= b
            if not frame[0]:
                queue.popleft()
            parent[u], depth[u] = frame[1], frame[2]
            c = sides[1] >> u & 1
            clash = rows[u] & sides[c]
            if clash:
                w = (clash & -clash).bit_length() - 1
                _place(w, queue, parent, depth)
                return False, _join_tree_paths(u, w, parent, depth)
            new = rows[u] & ~(sides[0] | sides[1])
            if new:
                sides[c ^ 1] |= new
                queue.append([new, u, frame[2] + 1])
    return True, None


def odd_degree_vertex(graph: SimpleGraph) -> Optional[int]:
    """The lowest vertex of odd degree, or None when every degree is even."""
    return next((v for v, d in enumerate(graph.degrees()) if d & 1), None)


def cone_vertices(epg: SimpleGraph) -> list[int]:
    """Non-identity vertices adjacent to every other vertex (identity is vertex 0).

    One count of the full degrees, in C, settles two common cases without
    the scan: no such vertex, and all of them (a complete graph).
    """
    full, degrees = epg.n - 1, epg.degrees()
    count = degrees.count(full) - (degrees[:1] == [full])  # vertex 0 is no cone vertex
    if not count:
        return []
    if count == full:
        return list(range(1, epg.n))
    return [v for v in range(1, epg.n) if degrees[v] == full]


class PropertyReport:
    """Verdicts on one graph, each decided on first read, with witnesses.

    ``graph`` is the graph the verdicts are about. ``cone_vertices`` always
    refers to the enhanced power graph: ``epg_report`` is the report on it,
    or None when ``graph`` is that graph. A vertex is universal in the
    deleted graph exactly when it is a cone vertex, so the deleted graph's
    report reads the set off ``epg_report`` rather than finding it again.
    """

    def __init__(self, graph: SimpleGraph, epg_report: Optional[PropertyReport] = None):
        self.graph = graph
        self.epg_report = epg_report

    # -- the deciders, each run at most once per report -----------------------

    @cached_property
    def component_reps(self) -> list[int]:
        return component_reps(self.graph)

    @cached_property
    def missing_edge(self) -> Optional[tuple[int, int]]:
        return find_missing_edge(self.graph)

    @cached_property
    def cycle_witness(self) -> Optional[list[int]]:
        return find_cycle(self.graph)

    @cached_property
    def _coloring(self) -> tuple[bool, Optional[list[int]]]:
        return bipartite_coloring(self.graph)

    @cached_property
    def odd_degree_vertex(self) -> Optional[int]:
        return odd_degree_vertex(self.graph)

    @cached_property
    def _planarity(self) -> tuple[bool, str]:
        return planarity_verdict(self.graph)

    @cached_property
    def cone_vertices(self) -> list[int]:
        if self.epg_report is not None:
            return self.epg_report.cone_vertices
        return cone_vertices(self.graph)

    # -- verdicts and witnesses read off the deciders --------------------------

    connected = property(lambda self: len(self.component_reps) <= 1)
    components = property(lambda self: len(self.component_reps))
    complete = property(lambda self: self.missing_edge is None)
    cycle = property(lambda self: self.cycle_witness is not None)
    forest = property(lambda self: self.cycle_witness is None)
    bipartite = property(lambda self: self._coloring[0])
    odd_cycle = property(lambda self: self._coloring[1])
    planar = property(lambda self: self._planarity[0])

    @property
    def tree(self) -> bool:
        return self.graph.n >= 1 and self.forest and self.connected

    @property
    def star(self) -> bool:
        """A tree with a vertex adjacent to all others; K1 and K2 count."""
        return self.tree and (self.graph.n - 1) in self.graph.degrees()

    @property
    def eulerian(self) -> bool:
        """Connected with every degree even; the one-vertex graph qualifies."""
        return self.odd_degree_vertex is None and self.connected

    def to_dict(self) -> dict:
        """Every field in ``REPORT_FIELDS`` order, then each negative verdict's witness.

        The fields are gathered once, on the first call; each call returns
        a new dict over them.
        """
        return dict(self._fields)

    @cached_property
    def _fields(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        witnesses = {
            "component_reps": None if self.connected else self.component_reps,
            "missing_edge": None if self.complete else list(self.missing_edge),
            "cycle_witness": self.cycle_witness,
            "odd_cycle": self.odd_cycle,
            "odd_degree_vertex": self.odd_degree_vertex,
            "planar_reject": None if self.planar else self._planarity[1],
        }
        out.update((k, v) for k, v in witnesses.items() if v is not None)
        return out


def analyze(bundle: EpgBundle, *, deleted: bool = False) -> PropertyReport:
    """The bundle's report on its enhanced power graph or its deleted graph.

    Every field is decided before this returns, so the report's remaining
    cost falls inside this call; read ``bundle.report`` or
    ``bundle.deleted_report`` directly to decide only the fields read.
    """
    report = bundle.deleted_report if deleted else bundle.report
    report.to_dict()
    return report
