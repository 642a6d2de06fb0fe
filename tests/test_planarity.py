"""Left-right planarity: base cases, subdivisions, exhaustive and randomized
differentials against an independent Kuratowski-pattern oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from epgraph import (
    GroupSpec,
    SimpleGraph,
    build_bundle,
    planarity_verdict,
)

from helpers import (
    clique_edges,
    complete_bipartite,
    complete_graph,
    graph_from_edges,
    tiny_planarity_oracle,
)


def test_small_complete_graphs():
    for n in range(5):
        assert planarity_verdict(complete_graph(n))[0]
    assert not planarity_verdict(complete_graph(5))[0]
    assert not planarity_verdict(complete_graph(6))[0]


def test_k33_and_near_misses():
    assert not planarity_verdict(complete_bipartite(3, 3))[0]
    assert planarity_verdict(complete_bipartite(2, 3))[0]
    k33_minus = complete_bipartite(3, 3)
    k33_minus.rows[0] &= ~(1 << 3)
    k33_minus.rows[3] &= ~(1 << 0)
    assert planarity_verdict(k33_minus)[0]


def test_k5_minus_edge_planar():
    edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    assert planarity_verdict(graph_from_edges(5, edges))[0]


def test_verdict_reasons():
    assert planarity_verdict(complete_graph(5)) == (False, "edge-count")
    assert planarity_verdict(complete_bipartite(3, 3)) == (False, "left-right")
    assert planarity_verdict(complete_graph(4)) == (True, "")


def _subdivide_all(n, edges):
    out = []
    next_v = n
    for u, v in edges:
        out.append((u, next_v))
        out.append((next_v, v))
        next_v += 1
    return next_v, out


def test_subdivisions_stay_nonplanar():
    n, edges = _subdivide_all(5, list(itertools.combinations(range(5), 2)))
    assert not planarity_verdict(graph_from_edges(n, edges))[0]
    n, edges = _subdivide_all(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert not planarity_verdict(graph_from_edges(n, edges))[0]


def test_petersen_nonplanar():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    assert not planarity_verdict(graph_from_edges(10, edges))[0]


def test_grid_planar():
    rows, cols = 6, 7
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    assert planarity_verdict(graph_from_edges(rows * cols, edges))[0]


def test_clique_book_planar():
    # K4 pages glued along one shared edge (the shape of many power graphs)
    pages = [[0, 1, 2 + 2 * page, 3 + 2 * page] for page in range(4)]
    assert planarity_verdict(graph_from_edges(10, clique_edges(*pages)))[0]


def test_disjoint_and_shared_components():
    two_k4 = graph_from_edges(8, clique_edges(range(4), range(4, 8)))
    assert planarity_verdict(two_k4)[0]

    shared = graph_from_edges(9, clique_edges(range(5), [0, 5, 6, 7, 8]))
    assert not planarity_verdict(shared)[0]


def test_degenerate():
    assert planarity_verdict(SimpleGraph(0))[0]
    assert planarity_verdict(SimpleGraph(1))[0]
    assert planarity_verdict(SimpleGraph(7))[0]  # isolated vertices


def test_exhaustive_five_vertices():
    # the only non-planar graph on five vertices is K5 itself
    pairs = list(itertools.combinations(range(5), 2))
    full = (1 << 10) - 1
    for mask in range(1 << 10):
        g = graph_from_edges(5, [pairs[i] for i in range(10) if mask >> i & 1])
        assert planarity_verdict(g)[0] == (mask != full), f"mask {mask}"


def test_randomized_six_vertices_against_pattern_oracle():
    pairs = list(itertools.combinations(range(6), 2))
    rng = random.Random(20240809)
    masks = set(rng.sample(range(1 << 15), 4000))
    masks.update(m for m in range(1 << 15) if bin(m).count("1") >= 12)
    for mask in masks:
        g = graph_from_edges(6, [pairs[i] for i in range(15) if mask >> i & 1])
        assert planarity_verdict(g)[0] == tiny_planarity_oracle(g), f"mask {mask}"


# one component after hundreds of isolated vertices: every isolated vertex
# is a DFS root of its own, and the component's root comes last
_LAST_COMPONENTS = {
    "K5": (5, list(itertools.combinations(range(5), 2))),
    "K33": (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "octahedron": (6, [
        e for e in itertools.combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))
    ]),
}


def _after_isolated(isolated, name):
    k, edges = _LAST_COMPONENTS[name]
    shifted = [(isolated + u, isolated + v) for u, v in edges]
    return graph_from_edges(isolated + k, shifted), graph_from_edges(k, edges)


@pytest.mark.parametrize("isolated", [300, 700])
@pytest.mark.parametrize("name", sorted(_LAST_COMPONENTS))
def test_many_roots_match_pattern_oracle(name, isolated):
    graph, component = _after_isolated(isolated, name)
    assert planarity_verdict(graph)[0] == tiny_planarity_oracle(component)
    assert planarity_verdict(graph)[0] == (name == "octahedron")


@pytest.mark.parametrize("isolated", [300, 700])
@pytest.mark.parametrize("name", sorted(_LAST_COMPONENTS))
def test_many_roots_match_networkx(name, isolated):
    nx = pytest.importorskip("networkx")
    graph, _ = _after_isolated(isolated, name)
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    assert planarity_verdict(graph)[0] == nx.check_planarity(reference)[0]


def test_deleted_graph_of_elementary_abelian_is_planar():
    # Z_2^9 without its identity: 511 isolated vertices, each a DFS root
    group = GroupSpec.product([GroupSpec.cyclic(2)] * 9).realize()
    assert planarity_verdict(build_bundle(group).deleted) == (True, "")


@st.composite
def _planar_subgraph(draw):
    # edge subsets of a fixed planar triangulation stay planar
    rows, cols = 4, 5
    base = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                base.append((v, v + 1))
            if i + 1 < rows:
                base.append((v, v + cols))
            if i + 1 < rows and j + 1 < cols:
                base.append((v, v + cols + 1))
    chosen = draw(st.lists(st.sampled_from(base), unique=True, max_size=len(base)))
    return graph_from_edges(rows * cols, chosen)


@given(_planar_subgraph())
@settings(max_examples=120, deadline=None)
def test_subgraphs_of_triangulation_planar(graph):
    assert planarity_verdict(graph)[0]


@given(
    st.permutations(range(9)),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_graphs_containing_k33_nonplanar(labels, extra):
    k33 = [(u, v) for u in labels[:3] for v in labels[3:6]]
    g = graph_from_edges(9, k33 + [(u, v) for u, v in extra if u != v])
    assert not planarity_verdict(g)[0]
