"""Planarity: base cases, subdivisions, exhaustive and randomized
differentials against an independent Kuratowski-pattern oracle, for the
full verdict and the left-right test alone, and the blocks-of-three and K5
certificates against the left-right test alone and networkx."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from epgraph import (
    GroupSpec,
    SimpleGraph,
    build_bundle,
    planarity,
    planarity_verdict,
)
from epgraph.planarity import blocks_of_three, find_k5, left_right_planar
from epgraph.theorems import CHECKS_BY_ID, roster_generate

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


# the certificates settle most small graphs, so the left-right test alone
# meets the oracles too
_DECIDERS = pytest.mark.parametrize("planar", [
    lambda g: planarity_verdict(g)[0],
    left_right_planar,
], ids=["planarity_verdict", "left_right_planar"])


@_DECIDERS
def test_exhaustive_five_vertices(planar):
    # the only non-planar graph on five vertices is K5 itself
    pairs = list(itertools.combinations(range(5), 2))
    full = (1 << 10) - 1
    for mask in range(1 << 10):
        g = graph_from_edges(5, [pairs[i] for i in range(10) if mask >> i & 1])
        assert planar(g) == (mask != full), f"mask {mask}"


@_DECIDERS
def test_randomized_six_vertices_against_pattern_oracle(planar):
    pairs = list(itertools.combinations(range(6), 2))
    rng = random.Random(20240809)
    masks = set(rng.sample(range(1 << 15), 4000))
    masks.update(m for m in range(1 << 15) if bin(m).count("1") >= 12)
    for mask in masks:
        g = graph_from_edges(6, [pairs[i] for i in range(15) if mask >> i & 1])
        assert planar(g) == tiny_planarity_oracle(g), f"mask {mask}"


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


# -- the certificates --------------------------------------------------------


@st.composite
def _triangle_cactus_cone(draw):
    """A cone over a random forest of edges and triangles, optionally with one
    planted chord or 4-cycle, its vertices shuffled."""
    edges, n = [], 1  # vertex 0 is the cone's apex until the shuffle
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(0, n - 1))  # the apex starts a new component
        if draw(st.booleans()):
            edges += [(at, n), (at, n + 1), (n, n + 1)]
            n += 2
        else:
            edges.append((at, n))
            n += 1
    plant = draw(st.sampled_from(["none", "chord", "4-cycle"]))
    if plant != "none" and n >= 3:
        a, b = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        if plant == "chord":
            edges.append((a, b))
        else:  # a - n - b - n + 1 - a
            edges += [(a, n), (n, b), (b, n + 1), (n + 1, a)]
            n += 2
    if draw(st.booleans()):
        edges += [(0, v) for v in range(1, n)]
    labels = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(labels[u], labels[v]) for u, v in edges])


@st.composite
def _k5_with_tail(draw):
    """K5 on five drawn vertices, a random tree through the others, and up
    to three more edges: sparse enough to pass the edge-count reject."""
    n = draw(st.integers(6, 16))
    labels = draw(st.permutations(range(n)))
    edges = clique_edges(labels[:5])
    for i in range(5, n):
        edges.append((labels[i], labels[draw(st.integers(0, i - 1))]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=3)) if u != v]
    return graph_from_edges(n, edges)


@st.composite
def _random_graph(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])


_certificate_graphs = st.one_of(_random_graph(), _triangle_cactus_cone(), _k5_with_tail())
# 1000 examples under `--hypothesis-profile=ci`
_CERTIFICATE_SETTINGS = settings(max_examples=max(150, settings.default.max_examples),
                                 deadline=None)


def _assert_certificates_agree(graph, planar):
    """The verdict is ``planar``; a blocks-of-three pass or a K5 found never
    contradicts it, and every K5 found is five pairwise adjacent vertices."""
    assert planarity_verdict(graph)[0] == planar
    if blocks_of_three(graph):
        assert planar
    k5 = find_k5(graph)
    if k5 is not None:
        assert not planar
        assert list(k5) == sorted(set(k5)) and len(k5) == 5
        assert all(graph.rows[a] >> b & 1 for a, b in itertools.combinations(k5, 2))


@given(_certificate_graphs)
@_CERTIFICATE_SETTINGS
def test_certificates_match_left_right(graph):
    _assert_certificates_agree(graph, left_right_planar(graph))


@given(_certificate_graphs)
@_CERTIFICATE_SETTINGS
def test_certificates_match_networkx(graph):
    nx = pytest.importorskip("networkx")
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    planar = nx.check_planarity(reference)[0]
    assert left_right_planar(graph) == planar
    _assert_certificates_agree(graph, planar)


def test_certificate_cases():
    cactus = clique_edges([0, 1, 2], [0, 3, 4], [4, 5])
    assert blocks_of_three(graph_from_edges(7, cactus + [(6, v) for v in range(6)]))
    # a 4-cycle and two disjoint K4s are planar, but each has a block on four
    # vertices, so the left-right test decides them
    assert not blocks_of_three(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not blocks_of_three(graph_from_edges(8, clique_edges(range(4), range(4, 8))))
    assert blocks_of_three(complete_graph(4))  # a cone over a triangle
    # the equality fails on two triangles that share no edge but close a 4-cycle
    bowtie_ring = graph_from_edges(6, clique_edges([0, 1, 2], [3, 4, 5]) + [(0, 3), (1, 4)])
    assert not blocks_of_three(bowtie_ring)
    assert find_k5(complete_graph(5)) == (0, 1, 2, 3, 4)
    assert find_k5(complete_bipartite(3, 3)) is None
    assert find_k5(complete_graph(4)) is None


def _has_k4_component(graph) -> bool:
    """Some vertex's closed neighbourhood is four vertices, each of which has
    that same closed neighbourhood: a component that is K4, hence a K4 block."""
    for v in range(graph.n):
        closed = graph.rows[v] | 1 << v
        if closed.bit_count() == 4 and all(
            graph.rows[w] | 1 << w == closed for w in range(graph.n) if closed >> w & 1
        ):
            return True
    return False


def test_no_full_epg_reaches_the_left_right_test(monkeypatch):
    reached = {"full": [], "deleted": []}
    side = "full"

    def recording(graph):
        reached[side].append(graph)
        return left_right_planar(graph)

    monkeypatch.setattr(planarity, "left_right_planar", recording)
    specs = roster_generate(256) + CHECKS_BY_ID["T3.1"].roster(256)
    largest_order_5 = []
    for spec in specs:
        bundle = build_bundle(spec.realize())
        side = "full"
        if planarity_verdict(bundle.epg)[1] == "left-right":  # within the Euler bound
            k5 = find_k5(bundle.epg)
            assert k5 is not None
            assert all(bundle.epg.has_edge(a, b) for a, b in itertools.combinations(k5, 2))
        side = "deleted"
        planarity_verdict(bundle.deleted)
        if max(bundle.group.orders) == 5 and bundle.group.order > 5:
            largest_order_5.append(bundle.deleted.name)
    assert reached["full"] == []
    # what reaches the test is planar with a K4 block, the non-identity
    # elements of a cyclic subgroup of order 5, and no K5 to find; Z5's
    # deleted graph is that K4 alone, a cone over a triangle
    names = [graph.name for graph in reached["deleted"]]
    assert names == largest_order_5
    assert "Z5xZ5*" in names
    assert all(_has_k4_component(graph) for graph in reached["deleted"])
    assert all(left_right_planar(graph) for graph in reached["deleted"])
