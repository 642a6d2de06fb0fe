"""Planarity: base cases, graphs that no certificate settles, exhaustive
and randomized differentials against an independent Kuratowski-pattern
oracle and networkx for the verdict and each certificate, and the
certificates' completeness on every roster graph up to order 512."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from epgraph import GroupSpec, SimpleGraph, build_bundle, planarity_verdict
from epgraph.planarity import blocks_of_three, find_k5
from epgraph.theorems import CHECKS_BY_ID, roster_generate

from helpers import (
    clique_edges,
    complete_bipartite,
    complete_graph,
    graph_from_edges,
    networkx_planar,
    tiny_planarity_oracle,
    verdict_or_none,
)


def _verdict_or_none(graph):
    return verdict_or_none(graph)[0]


def _certificates_alone(graph):
    """True on a blocks-of-three pass, False on a K5 found, else None."""
    if blocks_of_three(graph):
        return True
    return False if find_k5(graph) is not None else None


def _unsettled(graph):
    """No certificate settles ``graph``, which is no enhanced power graph
    and no deleted graph, so the verdict raises."""
    with pytest.raises(ValueError, match="no planarity certificate settles"):
        planarity_verdict(graph)


def test_small_complete_graphs():
    for n in range(5):
        assert planarity_verdict(complete_graph(n))[0]
    assert not planarity_verdict(complete_graph(5))[0]
    assert not planarity_verdict(complete_graph(6))[0]


def test_k33_and_near_misses():
    # each holds a 4-cycle and no K5, so neither certificate settles it
    _unsettled(complete_bipartite(3, 3))
    _unsettled(complete_bipartite(2, 3))
    k33_minus = complete_bipartite(3, 3)
    k33_minus.rows[0] &= ~(1 << 3)
    k33_minus.rows[3] &= ~(1 << 0)
    _unsettled(k33_minus)


def test_k5_minus_edge_planar():
    # planar, but an edge in two triangles remains after removing a cone vertex
    edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    _unsettled(graph_from_edges(5, edges))


def test_verdict_reasons():
    assert planarity_verdict(complete_graph(5)) == (False, "edge-count")
    # a K5 with a tail is within the Euler bound: the K5 certificate rejects it
    k5_tail = graph_from_edges(6, clique_edges(range(5)) + [(4, 5)])
    assert planarity_verdict(k5_tail) == (False, "left-right")
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
    # nonplanar with no K5: no certificate settles a subdivision
    n, edges = _subdivide_all(5, list(itertools.combinations(range(5), 2)))
    _unsettled(graph_from_edges(n, edges))
    n, edges = _subdivide_all(6, [(u, v) for u in range(3) for v in range(3, 6)])
    _unsettled(graph_from_edges(n, edges))


def test_petersen_nonplanar():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    _unsettled(graph_from_edges(10, edges))  # nonplanar, with no triangle


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
    # planar, but its blocks and C5's have more than three vertices
    _unsettled(graph_from_edges(rows * cols, edges))
    _unsettled(graph_from_edges(5, [(v, (v + 1) % 5) for v in range(5)]))


def test_clique_book_planar():
    # K4 pages glued along one shared edge (the shape of many power graphs)
    pages = [[0, 1, 2 + 2 * page, 3 + 2 * page] for page in range(4)]
    assert planarity_verdict(graph_from_edges(10, clique_edges(*pages)))[0]


def test_disjoint_and_shared_components():
    two_k4 = graph_from_edges(8, clique_edges(range(4), range(4, 8)))
    assert planarity_verdict(two_k4) == (True, "")  # K4 components

    shared = graph_from_edges(9, clique_edges(range(5), [0, 5, 6, 7, 8]))
    assert not planarity_verdict(shared)[0]


def test_degenerate():
    assert planarity_verdict(SimpleGraph(0))[0]
    assert planarity_verdict(SimpleGraph(1))[0]
    assert planarity_verdict(SimpleGraph(7))[0]  # isolated vertices


# most small graphs are no enhanced power graph and go unsettled; every
# verdict returned, and each certificate without the Euler reject before it,
# must match the oracle
_DECIDERS = pytest.mark.parametrize("planar", [_verdict_or_none, _certificates_alone],
                                    ids=["planarity_verdict", "certificates"])


@_DECIDERS
def test_exhaustive_five_vertices(planar):
    # the only non-planar graph on five vertices is K5 itself
    pairs = list(itertools.combinations(range(5), 2))
    full = (1 << 10) - 1
    settled = 0
    for mask in range(1 << 10):
        g = graph_from_edges(5, [pairs[i] for i in range(10) if mask >> i & 1])
        verdict = planar(g)
        assert verdict in (None, mask != full), f"mask {mask}"
        settled += verdict is not None
    assert planar(graph_from_edges(5, pairs)) is False
    assert settled >= 700  # of 1024


@_DECIDERS
def test_randomized_six_vertices_against_pattern_oracle(planar):
    pairs = list(itertools.combinations(range(6), 2))
    rng = random.Random(20240809)
    masks = set(rng.sample(range(1 << 15), 4000))
    masks.update(m for m in range(1 << 15) if bin(m).count("1") >= 12)
    settled = 0
    for mask in masks:
        g = graph_from_edges(6, [pairs[i] for i in range(15) if mask >> i & 1])
        verdict = planar(g)
        assert verdict in (None, tiny_planarity_oracle(g)), f"mask {mask}"
        settled += verdict is not None
    assert settled >= 1400  # of 4507


# one component after hundreds of isolated vertices, which the certificates
# scan first; only the K5 is settled
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
    verdict = _verdict_or_none(graph)
    assert verdict in (None, tiny_planarity_oracle(component))
    assert verdict is (False if name == "K5" else None)


@pytest.mark.parametrize("isolated", [300, 700])
@pytest.mark.parametrize("name", sorted(_LAST_COMPONENTS))
def test_many_roots_match_networkx(name, isolated):
    pytest.importorskip("networkx")
    graph, _ = _after_isolated(isolated, name)
    verdict = _verdict_or_none(graph)
    assert verdict in (None, networkx_planar(graph))
    assert verdict is (False if name == "K5" else None)


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
    assert _verdict_or_none(graph) in (None, True)


@given(
    st.permutations(range(9)),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_graphs_containing_k33_nonplanar(labels, extra):
    k33 = [(u, v) for u in labels[:3] for v in labels[3:6]]
    g = graph_from_edges(9, k33 + [(u, v) for u, v in extra if u != v])
    assert _verdict_or_none(g) in (None, False)


# -- the certificates --------------------------------------------------------


@st.composite
def _triangle_cactus_cone(draw):
    """A cone over a random forest of edges and triangles, optionally with one
    planted chord or 4-cycle and up to two K4 components, its vertices
    shuffled."""
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
    for _ in range(draw(st.integers(0, 2))):
        edges += clique_edges(range(n, n + 4))
        n += 4
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
    """A verdict returned is ``planar``, a blocks-of-three pass or a K5
    found never contradicts it, and every K5 found is five ascending,
    pairwise adjacent vertices."""
    assert _verdict_or_none(graph) in (None, planar)
    if blocks_of_three(graph):
        assert planar
    k5 = find_k5(graph)
    if k5 is not None:
        assert not planar
        _assert_k5(graph, k5)


def _assert_k5(graph, k5):
    assert list(k5) == sorted(set(k5)) and len(k5) == 5
    assert all(graph.rows[a] >> b & 1 for a, b in itertools.combinations(k5, 2))


@given(_certificate_graphs)
@_CERTIFICATE_SETTINGS
def test_certificates_match_networkx(graph):
    pytest.importorskip("networkx")
    _assert_certificates_agree(graph, networkx_planar(graph))


def test_certificate_cases():
    cactus = clique_edges([0, 1, 2], [0, 3, 4], [4, 5])
    assert blocks_of_three(graph_from_edges(7, cactus + [(6, v) for v in range(6)]))
    # a 4-cycle is planar, but its block has four vertices
    assert not blocks_of_three(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    # K4 components are set aside, a cone over a triangle is one
    assert blocks_of_three(graph_from_edges(8, clique_edges(range(4), range(4, 8))))
    assert blocks_of_three(graph_from_edges(9, clique_edges(range(4), [4, 5, 6], [6, 7])))
    assert blocks_of_three(complete_graph(4))
    # but not under a cone, which would make each a K5
    assert not blocks_of_three(graph_from_edges(9, clique_edges(range(4), range(4, 8))
                                                + [(8, v) for v in range(8)]))
    # the equality fails on two triangles that share no edge but close a 4-cycle
    bowtie_ring = graph_from_edges(6, clique_edges([0, 1, 2], [3, 4, 5]) + [(0, 3), (1, 4)])
    assert not blocks_of_three(bowtie_ring)
    assert find_k5(complete_graph(5)) == (0, 1, 2, 3, 4)
    assert find_k5(complete_graph(7)) == (0, 1, 2, 3, 4)
    assert find_k5(complete_bipartite(3, 3)) is None
    assert find_k5(complete_graph(4)) is None
    # a K5 each of whose vertices has a neighbour outside it is not found:
    # None does not prove a graph K5-free
    spiky = clique_edges(range(5)) + [(v, v + 5) for v in range(5)]
    assert find_k5(graph_from_edges(10, spiky)) is None


def test_certificates_settle_every_roster_graph_to_512():
    """The certificates are complete on enhanced power graphs and deleted
    graphs: each gets a verdict, and the K5 certificate fires exactly when
    the largest element order is at least 5 (full) or 6 (deleted), that is,
    exactly on the nonplanar ones (T4.1)."""
    specs = roster_generate(512) + CHECKS_BY_ID["T3.1"].roster(512)
    for spec in {spec.serialize(): spec for spec in specs}.values():
        bundle = build_bundle(spec.realize(max_order=512))
        largest = max(bundle.group.orders)
        for graph, bound in ((bundle.epg, 5), (bundle.deleted, 6)):
            planar, _ = planarity_verdict(graph)
            k5 = find_k5(graph)
            assert planar == (k5 is None) == (largest < bound), graph.name
            if k5 is not None:
                _assert_k5(graph, k5)
