"""Graph property deciders, degenerate-graph conventions, and reports."""

import json

from hypothesis import given, settings, strategies as st

from epgraph import (
    SimpleGraph,
    analyze,
    bipartite_coloring,
    build_bundle,
    cone_vertices,
    connected_components,
    degree_sequence,
    find_cycle,
    has_cycle,
    is_bipartite,
    is_complete,
    is_connected,
    is_eulerian,
    is_forest,
    is_star,
    is_tree,
    parse_spec,
)
from epgraph.analysis import REPORT_FIELDS

from helpers import (
    brute_components,
    brute_connected,
    complete_graph,
    graph_from_edges,
    loop_bipartite_coloring,
    loop_find_cycle,
)


def bundle_for(text):
    return build_bundle(parse_spec(text).realize())


# -- components -----------------------------------------------------------------


def test_components_complete_graph():
    assert len(connected_components(complete_graph(6))) == 1


def test_components_deleted_s3():
    b = bundle_for("metacyclic:3:2:2")
    parts = connected_components(b.deleted)
    assert len(parts) == 4
    assert sorted(len(p) for p in parts) == [1, 1, 1, 2]


def test_components_deleted_q8():
    b = bundle_for("dicyclic:2")
    assert len(connected_components(b.deleted)) == 1


@st.composite
def _random_graphs(draw):
    n = draw(st.integers(0, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return graph_from_edges(n, edges)


def _traversal_cases(roster_bundles_48):
    # a path and a cycle need many expansions; roster graphs cover the EPG shapes
    path = graph_from_edges(9, [(v, v + 1) for v in range(8)])
    ring = graph_from_edges(9, [(v, (v + 1) % 9) for v in range(9)])
    return [path, ring] + [g for b in roster_bundles_48 for g in (b.epg, b.deleted)]


@settings(max_examples=150, deadline=None)
@given(_random_graphs())
def test_connectivity_matches_union_find_on_random_graphs(graph):
    assert connected_components(graph) == brute_components(graph)
    assert is_connected(graph) == brute_connected(graph)


def test_connectivity_matches_union_find_on_roster(roster_bundles_48):
    for graph in _traversal_cases(roster_bundles_48):
        assert connected_components(graph) == brute_components(graph), graph.name
        assert is_connected(graph) == brute_connected(graph), graph.name


@settings(max_examples=150, deadline=None)
@given(_random_graphs())
def test_cycle_and_coloring_match_loop_versions_on_random_graphs(graph):
    assert find_cycle(graph) == loop_find_cycle(graph)
    assert bipartite_coloring(graph) == loop_bipartite_coloring(graph)


def test_cycle_and_coloring_match_loop_versions_on_roster(roster_bundles_48):
    for graph in _traversal_cases(roster_bundles_48):
        assert find_cycle(graph) == loop_find_cycle(graph), graph.name
        assert bipartite_coloring(graph) == loop_bipartite_coloring(graph), graph.name


# -- completeness ------------------------------------------------------------------


def test_complete_examples():
    assert is_complete(bundle_for("cyclic:7").epg)
    assert not is_complete(bundle_for("metacyclic:3:2:2").epg)
    assert is_complete(SimpleGraph(1))


# -- cycles, trees, stars -------------------------------------------------------------


def test_cycle_and_witness():
    triangle = bundle_for("cyclic:3").epg
    cycle = find_cycle(triangle)
    assert cycle is not None and len(cycle) >= 3
    _assert_closed_walk(triangle, cycle)
    assert not is_bipartite(triangle)


def test_elementary_abelian_eight_is_tree_star_bipartite():
    epg = bundle_for("product:cyclic:2,cyclic:2,cyclic:2").epg
    assert is_tree(epg) and is_star(epg) and is_bipartite(epg)
    assert not has_cycle(epg)


def test_deleted_s3_forest_not_tree():
    b = bundle_for("metacyclic:3:2:2")
    assert is_forest(b.deleted)
    assert not is_tree(b.deleted)


def test_path_is_tree_not_star():
    path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert is_tree(path)
    assert not is_star(path)


def test_bipartite_odd_cycle_witness_valid():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    ok, witness = bipartite_coloring(g)
    assert not ok
    assert len(witness) % 2 == 1
    _assert_closed_walk(g, witness)


def _assert_closed_walk(graph, cycle):
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:]):
        assert graph.has_edge(a, b)
    assert graph.has_edge(cycle[-1], cycle[0])


# -- eulerian -------------------------------------------------------------------------


def test_eulerian_examples():
    assert is_eulerian(bundle_for("cyclic:9").epg)
    assert not is_eulerian(bundle_for("cyclic:2").epg)
    assert not is_eulerian(bundle_for("metacyclic:3:2:2").epg)


def test_degenerate_conventions():
    empty = SimpleGraph(0)
    assert is_connected(empty)
    assert is_forest(empty)
    assert not is_star(empty)
    assert is_eulerian(empty)
    assert not is_tree(empty)

    single = SimpleGraph(1)
    assert is_tree(single) and is_star(single)
    assert is_eulerian(single)
    assert is_complete(single)

    k2 = complete_graph(2)
    assert is_star(k2) and is_tree(k2)


# -- degrees ---------------------------------------------------------------------------


def test_degree_sequences():
    assert degree_sequence(bundle_for("cyclic:5").epg) == [4, 4, 4, 4, 4]
    assert sorted(degree_sequence(bundle_for("product:cyclic:2,cyclic:2").epg)) == [1, 1, 1, 3]


def test_odd_order_groups_have_even_degrees(roster_bundles_48):
    for b in roster_bundles_48:
        if b.group.order % 2 == 1:
            assert all(d % 2 == 0 for d in degree_sequence(b.epg))


def test_bipartite_iff_forest_on_power_graphs(roster_bundles_48):
    # graph-side equivalence per group: both collapse to the exponent-2 case
    for b in roster_bundles_48:
        assert is_bipartite(b.epg) == is_forest(b.epg)


def test_cyclic_complete_graphs_cycle_threshold():
    for n in range(1, 10):
        epg = bundle_for(f"cyclic:{n}").epg
        assert is_complete(epg)
        assert has_cycle(epg) == (n >= 3)


# -- cone vertices ------------------------------------------------------------------------


def test_cone_q8_is_unique_involution():
    b = bundle_for("dicyclic:2")
    assert cone_vertices(b.epg) == [2]
    assert b.group.orders[2] == 2


def test_cone_z2z2z3_contains_generator_of_z3():
    b = bundle_for("product:cyclic:2,cyclic:2,cyclic:3")
    cones = cone_vertices(b.epg)
    assert cones
    assert 1 in cones  # element (0, 0, 1)


def test_cone_a5_empty():
    b = bundle_for("perm:5:(0 1 2),(0 1 2 3 4)")
    assert cone_vertices(b.epg) == []


def test_cone_matches_full_degree_in_deleted(roster_bundles_48):
    for b in roster_bundles_48:
        cones = cone_vertices(b.epg)
        if b.group.order < 2:
            assert cones == []
            continue
        full = b.deleted.n - 1
        from_deleted = [v + 1 for v in range(b.deleted.n) if b.deleted.degree(v) == full]
        assert cones == from_deleted


# -- property report -----------------------------------------------------------------------


def test_report_fields_and_witnesses():
    report = analyze(bundle_for("metacyclic:3:2:2"), deleted=True)
    data = report.to_dict()
    for name in REPORT_FIELDS:
        assert name in data
    assert data["connected"] is False
    assert data["components"] == 4
    assert "component_reps" in data and len(data["component_reps"]) == 4
    assert data["cone_vertices"] == []
    json.dumps(data)  # serializable


def test_report_epg_side():
    report = analyze(bundle_for("cyclic:5"))
    data = report.to_dict()
    assert data["complete"] is True
    assert data["planar"] is False
    assert data["planar_reject"] == "edge-count"
    assert data["eulerian"] is True
    assert data["cone_vertices"] == [1, 2, 3, 4]


def test_report_negative_witnesses():
    report = analyze(bundle_for("cyclic:2"))
    data = report.to_dict()
    assert data["eulerian"] is False
    assert data["odd_degree_vertex"] in (0, 1)

    report = analyze(bundle_for("cyclic:3"))
    data = report.to_dict()
    assert data["bipartite"] is False
    assert len(data["odd_cycle"]) % 2 == 1
    assert data["cycle"] is True
    assert len(data["cycle_witness"]) >= 3

    report = analyze(bundle_for("metacyclic:3:2:2"))
    assert report.to_dict()["missing_edge"] is not None
