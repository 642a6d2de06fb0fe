"""Planarity testing via the left-right criterion.

Three phases: an Euler-formula edge-count reject on the graph's shared
degree list (``SimpleGraph.edge_count``), a DFS orientation that
computes lowpoints and a nesting order, and the LR partition test, which
maintains a stack of conflict pairs of back-edge intervals and fails
exactly when two back edges are forced onto the same side of the DFS tree
while being T-opposite. Only the boolean verdict is produced; no embedding
or Kuratowski certificate is extracted.
"""

from __future__ import annotations

from .simplegraph import SimpleGraph


class _Interval:
    """A maximal range of back edges, identified by its low and high edges."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)

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
        self.lowpt_edge: dict = {}

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
                    self.lowpt_edge[ei] = ei
                    self.S.append(_ConflictPair(right=_Interval(ei, ei)))

                if self.lowpt[ei] < self.height[v]:  # ei has a return edge
                    if w == adj[0]:
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                    elif not self._add_constraints(ei, e):
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
                if P.right.empty():  # topmost interval
                    P.right = Q.right.copy()
                else:
                    self.ref[P.right.low] = Q.right.high
                P.right.low = Q.right.low
            else:  # align
                self.ref[Q.right.low] = self.lowpt_edge[e]
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
                P.left = Q.left.copy()
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
            if P.left.high is None and P.left.low is not None:
                self.ref[P.left.low] = P.right.low
                P.left.low = None
            while P.right.high is not None and P.right.high[1] == u:
                P.right.high = self.ref.get(P.right.high)
            if P.right.high is None and P.right.low is not None:
                self.ref[P.right.low] = P.left.low
                P.right.low = None
            self.S.append(P)


def planarity_verdict(graph: SimpleGraph) -> tuple[bool, str]:
    """(planar, reject reason); reason is 'edge-count', 'left-right', or ''."""
    n = graph.n
    if n > 2 and graph.edge_count() > 3 * n - 6:
        return False, "edge-count"
    adjs = [list(graph.neighbors(v)) for v in range(n)]
    if _LRState(n, adjs).run():
        return True, ""
    return False, "left-right"
