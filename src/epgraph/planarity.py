"""Planarity: two exact certificates first, the left-right test as fallback.

``planarity_verdict`` decides in four steps, each on the graph's rows and
its shared degree list (``SimpleGraph.degrees``):

1. the Euler-formula reject: more than 3n - 6 edges;
2. ``blocks_of_three``: every block has at most three vertices, after
   removing one vertex adjacent to all others if there is one, which
   proves the graph planar (the shape of every planar enhanced power
   graph: the identity joined to edges and triangles);
3. ``find_k5``: a greedy search for five pairwise adjacent vertices,
   which proves the graph nonplanar (every element of order >= 5 spans
   a K5 with its cyclic subgroup);
4. ``left_right_planar``, the complete test, only when neither settles it.

The left-right test runs a DFS orientation that computes lowpoints and a
nesting order, then the LR partition test, which maintains a stack of
conflict pairs of back-edge intervals and fails exactly when two back
edges are forced onto the same side of the DFS tree while being
T-opposite (Brandes, "The Left-Right Planarity Test", 2009). It yields
only the boolean verdict: it runs the paper's testing phase alone and
keeps no embedding state, only the side references that trim intervals.
No embedding or Kuratowski subdivision is extracted, and the K5 that
``find_k5`` returns is the only one found. A nonplanar verdict's reject
reason is ``edge-count`` after the Euler reject and ``left-right``
otherwise, whether the K5 search or the left-right test settled it.
"""

from __future__ import annotations

from typing import Optional

from .simplegraph import SimpleGraph, bits, component


class _Interval:
    """A maximal range of back edges, identified by its low and high edges."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def conflicting(self, edge, lowpt) -> bool:
        return not self.empty() and lowpt[self.high] > lowpt[edge]


class _ConflictPair:
    """Two intervals of back edges that must embed on opposite sides."""

    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left

    def lowest(self, lowpt) -> int:
        if self.left.empty():
            return lowpt[self.right.low]
        if self.right.empty():
            return lowpt[self.left.low]
        return min(lowpt[self.left.low], lowpt[self.right.low])


def _top(stack):
    return stack[-1] if stack else None


class _LRState:
    def __init__(self, n: int, adjs: list[list[int]]):
        self.n = n
        self.adjs = adjs
        self.height: list = [None] * n
        self.parent_edge: list = [None] * n
        self.roots: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(n)]  # oriented out-neighbors
        self.lowpt: dict = {}
        self.lowpt2: dict = {}
        self.nesting_depth: dict = {}
        self.ordered_adjs: list = [None] * n
        self.ref: dict = {}
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict = {}

    def run(self) -> bool:
        # one DFS state per phase, shared by the roots' disjoint trees: O(n), not O(n) per root
        ind, skip_init = [0] * self.n, set()
        for s in range(self.n):
            if self.height[s] is None:
                self.height[s] = 0
                self.roots.append(s)
                self._dfs_orient(s, ind, skip_init)
        for v in range(self.n):
            self.ordered_adjs[v] = sorted(
                self.out[v], key=lambda w: self.nesting_depth[(v, w)]
            )
        ind, skip_init = [0] * self.n, set()
        for s in self.roots:
            if not self._dfs_test(s, ind, skip_init):
                return False
        return True

    def _dfs_orient(self, start: int, ind: list[int], skip_init: set) -> None:
        """Iterative DFS computing lowpoints and the nesting order."""
        stack = [start]
        while stack:
            v = stack.pop()
            e = self.parent_edge[v]
            adj = self.adjs[v]
            while ind[v] < len(adj):
                w = adj[ind[v]]
                vw = (v, w)
                if vw not in skip_init:
                    if vw in self.lowpt or (w, v) in self.lowpt:
                        ind[v] += 1
                        continue  # already oriented
                    self.lowpt[vw] = self.height[v]
                    self.lowpt2[vw] = self.height[v]
                    self.out[v].append(w)
                    if self.height[w] is None:  # tree edge
                        self.parent_edge[w] = vw
                        self.height[w] = self.height[v] + 1
                        stack.append(v)  # revisit v after finishing w
                        stack.append(w)
                        skip_init.add(vw)
                        break
                    self.lowpt[vw] = self.height[w]  # back edge

                # nesting order: chords nest deeper than non-chords
                self.nesting_depth[vw] = 2 * self.lowpt[vw]
                if self.lowpt2[vw] < self.height[v]:
                    self.nesting_depth[vw] += 1

                if e is not None:
                    if self.lowpt[vw] < self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                        self.lowpt[e] = self.lowpt[vw]
                    elif self.lowpt[vw] > self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
                    else:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])
                ind[v] += 1

    def _dfs_test(self, start: int, ind: list[int], skip_init: set) -> bool:
        """Iterative LR partition test over the nesting-ordered adjacencies."""
        stack = [start]
        while stack:
            v = stack.pop()
            e = self.parent_edge[v]
            adj = self.ordered_adjs[v]
            descended = False
            while ind[v] < len(adj):
                w = adj[ind[v]]
                ei = (v, w)
                if ei not in skip_init:
                    self.stack_bottom[ei] = _top(self.S)
                    if ei == self.parent_edge[w]:  # tree edge
                        stack.append(v)
                        stack.append(w)
                        skip_init.add(ei)
                        descended = True
                        break
                    # back edge
                    self.S.append(_ConflictPair(right=_Interval(ei, ei)))

                # ei has a return edge, and is not the first out-edge of v
                if (self.lowpt[ei] < self.height[v] and w != adj[0]
                        and not self._add_constraints(ei, e)):
                    return False
                ind[v] += 1
            if not descended and e is not None:
                self._remove_back_edges(e)
        return True

    def _add_constraints(self, ei, e) -> bool:
        P = _ConflictPair()
        lowpt = self.lowpt
        # merge return edges of ei into P.right
        while True:
            Q = self.S.pop()
            if not Q.left.empty():
                Q.swap()
            if not Q.left.empty():
                return False  # not planar
            if lowpt[Q.right.low] > lowpt[e]:
                if P.right.empty():  # topmost interval; Q is dropped, so P takes it
                    P.right = Q.right
                else:
                    self.ref[P.right.low] = Q.right.high
                P.right.low = Q.right.low
            if _top(self.S) is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while True:
            top = _top(self.S)
            if top is None or not (
                top.left.conflicting(ei, lowpt) or top.right.conflicting(ei, lowpt)
            ):
                break
            Q = self.S.pop()
            if Q.right.conflicting(ei, lowpt):
                Q.swap()
            if Q.right.conflicting(ei, lowpt):
                return False  # not planar
            self.ref[P.right.low] = Q.right.high
            if Q.right.low is not None:
                P.right.low = Q.right.low
            if P.left.empty():  # topmost interval
                P.left = Q.left
            else:
                self.ref[P.left.low] = Q.left.high
            P.left.low = Q.left.low
        if not (P.left.empty() and P.right.empty()):
            self.S.append(P)
        return True

    def _remove_back_edges(self, e) -> None:
        lowpt = self.lowpt
        u = e[0]
        # drop conflict pairs whose lowest return point is u
        while self.S and _top(self.S).lowest(lowpt) == self.height[u]:
            self.S.pop()
        if self.S:
            P = self.S.pop()
            while P.left.high is not None and P.left.high[1] == u:
                P.left.high = self.ref.get(P.left.high)
            if P.left.high is None:  # the interval is empty
                P.left.low = None
            while P.right.high is not None and P.right.high[1] == u:
                P.right.high = self.ref.get(P.right.high)
            if P.right.high is None:
                P.right.low = None
            self.S.append(P)


def blocks_of_three(graph: SimpleGraph) -> bool:
    """True only of a planar graph: H, the graph less one vertex u adjacent
    to all others if there is one, else the graph itself, has every edge in
    at most one triangle and ``edges == vertices - components + triangles``.
    False says nothing.

    Proof that such a graph is planar:

    1. Edge-disjoint triangles are independent cycles: each has edges no
       other has. H's cycle space has dimension edges - vertices +
       components, so the equality makes the triangles span it.
    2. Every simple cycle of H is then a sum of triangles, that is, the
       union of edge-disjoint triangles; a cycle holds no shorter cycle,
       so it is one triangle. A block on four or more vertices is
       2-connected and holds a cycle of length >= 4, so every block of H
       is K1, K2 or K3.
    3. A graph whose blocks are K1, K2 or K3 is outerplanar: draw the
       blocks one at a time, each in the outer face at its cut vertex.
    4. A cone over an outerplanar graph is planar: u goes in the outer
       face, which every vertex of H borders. So the graph is planar.

    One pass over H's edges, a mask AND each, and one expansion per
    component.
    """
    n, rows = graph.n, graph.rows
    degrees = graph.degrees()
    alive, edges, vertices = graph.universe, graph.edge_count(), n
    if n - 1 in degrees:
        alive ^= 1 << degrees.index(n - 1)
        edges -= n - 1
        vertices -= 1
    corners = 0  # each triangle counted once per edge
    for v in bits(alive):
        row = rows[v] & alive
        for w in bits(row >> (v + 1) << (v + 1)):
            common = row & rows[w]
            if common & (common - 1):
                return False  # edge {v, w} lies in two triangles
            corners += common != 0
    components, rest = 0, alive
    while rest:
        rest &= ~component(graph, (rest & -rest).bit_length() - 1, alive)
        components += 1
    return edges == vertices - components + corners // 3


def find_k5(graph: SimpleGraph) -> Optional[tuple[int, int, int, int, int]]:
    """Five pairwise adjacent vertices, ascending, or None if the greedy
    search finds none (None does not prove the graph K5-free).

    Each edge {v, w}, v < w, is extended by the lowest common neighbour of
    the clique so far above its last vertex, until the clique holds five:
    O(m) starts of at most three steps each.
    """
    rows = graph.rows
    for v in range(graph.n):
        for w in bits(rows[v] >> (v + 1) << (v + 1)):
            clique, common, last = [v, w], rows[v] & rows[w], w
            while len(clique) < 5:
                common = common >> (last + 1) << (last + 1)
                if not common:
                    break
                last = (common & -common).bit_length() - 1
                clique.append(last)
                common &= rows[last]
            else:
                return tuple(clique)
    return None


def left_right_planar(graph: SimpleGraph) -> bool:
    """The left-right test alone: exact on every graph, with no shortcut."""
    adjs = [list(graph.neighbors(v)) for v in range(graph.n)]
    return _LRState(graph.n, adjs).run()


def planarity_verdict(graph: SimpleGraph) -> tuple[bool, str]:
    """(planar, reject reason); reason is 'edge-count', 'left-right', or ''."""
    n = graph.n
    if n > 2 and graph.edge_count() > 3 * n - 6:
        return False, "edge-count"
    if blocks_of_three(graph):
        return True, ""
    if find_k5(graph) is not None or not left_right_planar(graph):
        return False, "left-right"
    return True, ""
