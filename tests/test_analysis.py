"""Graph property deciders, degenerate-graph conventions, and reports."""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from epgraph import (
    PropertyReport,
    SimpleGraph,
    analysis,
    analyze,
    bipartite_coloring,
    build_bundle,
    component_reps,
    cone_vertices,
    find_cycle,
    odd_degree_vertex,
    parse_spec,
    simplegraph,
)
from epgraph.analysis import REPORT_FIELDS
from epgraph import theorems
from epgraph.theorems import roster_generate

from helpers import (
    _reference_tree,
    brute_components,
    brute_connected,
    complete_graph,
    graph_from_edges,
    loop_bipartite_coloring,
    loop_find_cycle,
    networkx_component_reps,
    prime_subgroup_graph_components,
    table_cone_vertices,
    verdict_or_none,
)

DATA = Path(__file__).parent / "data"
REPORTS_48 = DATA / "reports_48.jsonl"
REPORTS_49_128 = DATA / "reports_49_128.jsonl"

# 150 random graphs per test in tier-1; the ci profile (conftest.py) draws more
RANDOM_GRAPHS = settings(max_examples=max(150, settings.default.max_examples), deadline=None)


def bundle_for(text):
    return build_bundle(parse_spec(text).realize())


def report(graph):
    return PropertyReport(graph)


# -- components -----------------------------------------------------------------


def test_components_complete_graph():
    assert len(component_reps(complete_graph(6))) == 1


def test_components_deleted_s3():
    b = bundle_for("metacyclic:3:2:2")
    reps = component_reps(b.deleted)
    assert len(reps) == 4
    sizes = [simplegraph.component(b.deleted, r).bit_count() for r in reps]
    assert sorted(sizes) == [1, 1, 1, 2]


def test_components_deleted_q8():
    b = bundle_for("dicyclic:2")
    assert len(component_reps(b.deleted)) == 1


@st.composite
def _random_graphs(draw, max_n=24):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return graph_from_edges(n, edges)


def _traversal_cases(roster_bundles_48):
    # a path and a cycle need many expansions; roster graphs cover the EPG shapes
    path = graph_from_edges(9, [(v, v + 1) for v in range(8)])
    ring = graph_from_edges(9, [(v, (v + 1) % 9) for v in range(9)])
    return [path, ring] + [g for b in roster_bundles_48 for g in (b.epg, b.deleted)]


@RANDOM_GRAPHS
@given(_random_graphs())
def test_connectivity_matches_union_find_on_random_graphs(graph):
    assert component_reps(graph) == [p[0] for p in brute_components(graph)]
    assert PropertyReport(graph).connected == brute_connected(graph)


def test_connectivity_matches_union_find_on_roster(roster_bundles_48):
    for graph in _traversal_cases(roster_bundles_48):
        assert component_reps(graph) == [p[0] for p in brute_components(graph)], graph.name
        assert PropertyReport(graph).connected == brute_connected(graph), graph.name


@st.composite
def _graphs_with_isolated_vertices(draw, max_n=40):
    """A random graph on the vertices left after a drawn share is set apart
    as isolated vertices, spread among the rest."""
    n = draw(st.integers(0, max_n))
    isolated = draw(st.sets(st.integers(0, n - 1))) if n else set()
    rest = [v for v in range(n) if v not in isolated]
    pairs = [(u, v) for i, u in enumerate(rest) for v in rest[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(rest))) if pairs else []
    return graph_from_edges(n, edges)


@RANDOM_GRAPHS
@given(_graphs_with_isolated_vertices(), st.data())
def test_component_reps_match_networkx_on_random_graphs(graph, data):
    # isolated vertices are set aside at once only over the whole graph; a
    # mask makes the reps those of the induced subgraph, expanded one by one
    pytest.importorskip("networkx")
    alive = data.draw(st.none() | st.integers(0, graph.universe))
    assert component_reps(graph, alive) == networkx_component_reps(graph, alive)


# every roster group up to order 48 in tier-1; the ci profile takes the
# roster to 256, building one bundle at a time
COMPONENT_ROSTER_BOUND = 256 if settings.default.max_examples >= 1000 else 48


def test_component_reps_match_networkx_on_roster():
    pytest.importorskip("networkx")
    for spec in roster_generate(COMPONENT_ROSTER_BOUND):
        bundle = build_bundle(spec.realize())
        for graph in (bundle.epg, bundle.deleted):
            assert component_reps(graph) == networkx_component_reps(graph), graph.name


@RANDOM_GRAPHS
@given(_random_graphs(max_n=80))  # masks of up to 80 bits, past one machine word
def test_cycle_and_coloring_match_loop_versions_on_random_graphs(graph):
    assert find_cycle(graph) == loop_find_cycle(graph)
    assert bipartite_coloring(graph) == loop_bipartite_coloring(graph)


def test_cycle_witness_held_in_a_frame_below_the_top():
    # 1 pushes the frame {2, 3, 4}, 4 pushes {5, 6}; popping 6 finds the back
    # edge to 2, which still sits in the lower frame with parent 1, depth 2
    g = graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (6, 2)])
    assert find_cycle(g) == loop_find_cycle(g) == [6, 4, 1, 2]


def test_odd_cycle_witness_held_in_a_frame_behind_the_front():
    # 1 queues the frame {3, 5}, then 2 queues {4}; dequeuing 3 meets 4 in its
    # own color while the front frame still holds 5
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (3, 4)])
    assert bipartite_coloring(g) == loop_bipartite_coloring(g) == (False, [3, 1, 0, 2, 4])


def test_inconsistent_tree_paths_raise_instead_of_hanging():
    # 1 and 2 are each other's parent at depth 0, a loop that never reaches 0;
    # the climb is bounded by depth[u] + depth[w] + 1 = 1 step
    with pytest.raises(RuntimeError, match="from 1 and 0 do not meet"):
        analysis._join_tree_paths(1, 0, [0, 2, 1], [0, 0, 0])


def test_cycle_and_coloring_match_loop_versions_on_roster(roster_bundles_48):
    for graph in _traversal_cases(roster_bundles_48):
        assert find_cycle(graph) == loop_find_cycle(graph), graph.name
        assert bipartite_coloring(graph) == loop_bipartite_coloring(graph), graph.name


# -- completeness ------------------------------------------------------------------


def test_complete_examples():
    assert report(bundle_for("cyclic:7").epg).complete
    assert not report(bundle_for("metacyclic:3:2:2").epg).complete
    assert report(SimpleGraph(1)).complete


# -- cycles, trees, stars -------------------------------------------------------------


def test_cycle_and_witness():
    triangle = bundle_for("cyclic:3").epg
    cycle = find_cycle(triangle)
    assert cycle is not None and len(cycle) >= 3
    _assert_closed_walk(triangle, cycle)
    assert not bipartite_coloring(triangle)[0]


def test_elementary_abelian_eight_is_tree_star_bipartite():
    r = report(bundle_for("product:cyclic:2,cyclic:2,cyclic:2").epg)
    assert r.tree and r.star and r.bipartite
    assert not r.cycle


def test_deleted_s3_forest_not_tree():
    r = report(bundle_for("metacyclic:3:2:2").deleted)
    assert r.forest
    assert not r.tree


def test_path_is_tree_not_star():
    r = report(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert r.tree
    assert not r.star


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
    assert report(bundle_for("cyclic:9").epg).eulerian
    assert not report(bundle_for("cyclic:2").epg).eulerian
    assert not report(bundle_for("metacyclic:3:2:2").epg).eulerian


def test_degenerate_conventions():
    empty = report(SimpleGraph(0))
    assert empty.connected
    assert empty.forest
    assert not empty.star
    assert empty.eulerian
    assert not empty.tree

    single = report(SimpleGraph(1))
    assert single.tree and single.star
    assert single.eulerian
    assert single.complete

    k2 = report(complete_graph(2))
    assert k2.star and k2.tree


# -- degrees ---------------------------------------------------------------------------


def test_degree_sequences():
    assert bundle_for("cyclic:5").epg.degrees() == [4, 4, 4, 4, 4]
    assert sorted(bundle_for("product:cyclic:2,cyclic:2").epg.degrees()) == [1, 1, 1, 3]


def test_degree_list_is_counted_once():
    g = graph_from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 2)])
    first = g.degrees()
    assert first == [2, 2, 3, 1] and g.degrees() is first and g.edge_count() == 4


def test_both_reports_share_the_epg_degree_list():
    b = bundle_for("dihedral:5")
    degrees = b.epg.degrees()
    assert analyze(b) is b.report
    assert analyze(b, deleted=True) is b.deleted_report
    assert b.epg.degrees() is degrees


def test_odd_order_groups_have_even_degrees(roster_bundles_48):
    for b in roster_bundles_48:
        if b.group.order % 2 == 1:
            assert all(d % 2 == 0 for d in b.epg.degrees())
            assert odd_degree_vertex(b.epg) is None


def test_bipartite_iff_forest_on_power_graphs(roster_bundles_48):
    # graph-side equivalence per group: both collapse to the exponent-2 case
    for b in roster_bundles_48:
        r = report(b.epg)
        assert r.bipartite == r.forest


def test_cyclic_complete_graphs_cycle_threshold():
    for n in range(1, 10):
        r = report(bundle_for(f"cyclic:{n}").epg)
        assert r.complete
        assert r.cycle == (n >= 3)


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


def test_cone_vertices_on_generic_graphs():
    # the count of full degrees picks none, all or a scan: a universal vertex
    # other than 0, two apart, vertex 0 alone universal, vertex 0 not universal
    star_at_3 = graph_from_edges(6, [(3, v) for v in range(6) if v != 3])
    assert cone_vertices(star_at_3) == [3]
    hubs_2_5 = graph_from_edges(7, [(h, v) for h in (2, 5) for v in range(7) if v not in (2, h)])
    assert cone_vertices(hubs_2_5) == [2, 5]
    star_at_0 = graph_from_edges(6, [(0, v) for v in range(1, 6)])
    assert cone_vertices(star_at_0) == []
    no_edge_01 = graph_from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                                      if (u, v) != (0, 1)])
    assert cone_vertices(no_edge_01) == [2, 3, 4]
    assert cone_vertices(complete_graph(4)) == [1, 2, 3]
    assert cone_vertices(SimpleGraph(0)) == cone_vertices(SimpleGraph(1)) == []


def test_cone_matches_full_degree_in_deleted(roster_bundles_48):
    for b in roster_bundles_48:
        cones = cone_vertices(b.epg)
        if b.group.order < 2:
            assert cones == []
            continue
        full = b.deleted.n - 1
        from_deleted = [v + 1 for v, d in enumerate(b.deleted.degrees()) if d == full]
        assert cones == from_deleted


# run_all's roster (the standard roster and T3.1's products) to 64 in
# tier-1; the ci profile takes it to 256, building one bundle at a time
CONE_ROSTER_BOUND = 256 if settings.default.max_examples >= 1000 else 64


def test_cone_vertices_are_the_central_elements_with_nested_p_parts():
    # T3.1-T3.4 each cover one class of groups and three of them read only
    # whether a cone vertex exists; this compares the whole set on every group
    with_cone = 0
    for spec in theorems._roster(CONE_ROSTER_BOUND):
        bundle = build_bundle(spec.realize())
        expected, exists = table_cone_vertices(bundle.group)
        cones = bundle.report.cone_vertices
        assert cones == expected, spec.serialize()
        assert bool(cones) == exists, spec.serialize()
        with_cone += exists
    assert with_cone == {64: 128, 256: 548}[CONE_ROSTER_BOUND]


# run_all's roster to 64 in tier-1; the ci profile takes it to 512
COMPONENTS_ROSTER_BOUND = 512 if settings.default.max_examples >= 1000 else 64


def test_deleted_graph_components_are_those_of_the_prime_order_subgroup_graph():
    # T5.1-T5.3 read only whether the deleted graph is connected, and only
    # on p-groups and groups with a non-trivial center; this counts its
    # components on every group against Γ's, taken from the table alone
    t51, t52, t53 = (theorems.CHECKS_BY_ID[i] for i in ("T5.1", "T5.2", "T5.3"))
    counts = []
    for spec in theorems._roster(COMPONENTS_ROSTER_BOUND):
        bundle = build_bundle(spec.realize())
        if bundle.group.order < 2:
            continue
        count = prime_subgroup_graph_components(bundle.group)
        assert bundle.deleted_report.components == count, spec.serialize()
        for check in (t51, t53):
            if check.applies(bundle):
                assert check.group_side(bundle) == (count == 1), (check.check_id, spec.serialize())
        if t52.applies(bundle):
            assert count == 1, spec.serialize()
        counts.append(count)
    disconnected = sum(count > 1 for count in counts)
    assert (len(counts), disconnected, max(counts)) == {
        64: (197, 68, 63), 512: (1518, 377, 511)}[COMPONENTS_ROSTER_BOUND]


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


# -- the report against the oracles --------------------------------------------------------


def _assert_report_matches_oracles(graph):
    data = report(graph).to_dict()
    parts = brute_components(graph)
    connected = brute_connected(graph)
    cycle = loop_find_cycle(graph)
    bipartite, odd_cycle = loop_bipartite_coloring(graph)
    degrees = graph.degrees()
    tree = _reference_tree(graph)
    planar, reject = verdict_or_none(graph)
    assert {name: data[name] for name in REPORT_FIELDS} == {
        "connected": connected,
        "components": len(parts),
        "complete": graph.edge_count() == graph.n * (graph.n - 1) // 2,
        "cycle": cycle is not None,
        "forest": cycle is None,
        "tree": tree,
        "star": tree and any(d == graph.n - 1 for d in degrees),
        "bipartite": bipartite,
        "eulerian": connected and all(d % 2 == 0 for d in degrees),
        "planar": planar,
        "cone_vertices": [v for v in range(1, graph.n) if degrees[v] == graph.n - 1],
    }, graph.name
    # each witness is present exactly when its verdict is negative, and checks out
    assert ("component_reps" in data) == (not connected)
    if not connected:
        assert data["component_reps"] == [p[0] for p in parts]
    assert ("missing_edge" in data) == (not data["complete"])
    if "missing_edge" in data:
        u, v = data["missing_edge"]
        assert u != v and not graph.has_edge(u, v)
    assert ("cycle_witness" in data) == (cycle is not None)
    if cycle is not None:
        assert len(data["cycle_witness"]) >= 3
        _assert_closed_walk(graph, data["cycle_witness"])
    assert ("odd_cycle" in data) == (not bipartite)
    if not bipartite:
        assert len(data["odd_cycle"]) % 2 == 1
        _assert_closed_walk(graph, data["odd_cycle"])
    assert ("odd_degree_vertex" in data) == any(d % 2 for d in degrees)
    if "odd_degree_vertex" in data:
        assert degrees[data["odd_degree_vertex"]] % 2 == 1
    assert data.get("planar_reject") == (None if planar else reject)


@RANDOM_GRAPHS
@given(_random_graphs())
def test_report_matches_oracles_on_random_graphs(graph):
    # most random graphs are no enhanced power graph: their report leaves
    # planarity undecided, and every other field is compared
    with mock.patch.object(analysis, "planarity_verdict", verdict_or_none):
        _assert_report_matches_oracles(graph)


def test_report_matches_oracles_on_roster(roster_bundles_48):
    for b in roster_bundles_48:
        for graph in (b.epg, b.deleted):
            assert verdict_or_none(graph)[0] is not None, graph.name
            _assert_report_matches_oracles(graph)


def test_report_json_matches_pinned_roster_48(roster_specs_48, bundle_of):
    """The full and deleted reports of every roster group up to order 48, byte for byte."""
    lines = []
    for spec in roster_specs_48:
        b = bundle_of(spec)
        row = [spec.serialize(), analyze(b).to_dict(), analyze(b, deleted=True).to_dict()]
        lines.append(json.dumps(row) + "\n")
    assert "".join(lines) == REPORTS_48.read_text(encoding="utf-8")


def test_report_json_matches_pinned_roster_49_128(bundle_of):
    """The sha256 of each roster group's [spec, full, deleted] line for orders 49 to 128."""
    lines = []
    for spec in roster_generate(128):
        b = bundle_of(spec)
        if b.group.order > 48:
            row = [spec.serialize(), analyze(b).to_dict(), analyze(b, deleted=True).to_dict()]
            digest = hashlib.sha256(json.dumps(row).encode()).hexdigest()
            lines.append(json.dumps([row[0], digest]) + "\n")
    assert "".join(lines) == REPORTS_49_128.read_text(encoding="utf-8")


# -- laziness ------------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["cyclic:6", "metacyclic:3:2:2", "dicyclic:4"])
@pytest.mark.parametrize("deleted", [False, True])
def test_full_report_runs_each_decider_once(decider_calls, text, deleted):
    # connected and components are both read off the one component_reps call
    b = bundle_for(text)
    r = PropertyReport(b.deleted, PropertyReport(b.epg)) if deleted else PropertyReport(b.epg)
    first = r.to_dict()
    again = r.to_dict()
    assert again == first and again is not first  # each call hands out its own dict
    assert decider_calls == dict.fromkeys(decider_calls, 1)


def test_connected_full_report_expands_once(monkeypatch):
    # connected is read off the component reps, which expand each component
    # once; only expansions over the whole graph count, as planarity's
    # blocks_of_three also expands, within its own vertex mask
    calls = []

    def counting(graph, s, alive=None):
        if alive is None:
            calls.append(s)
        return component(graph, s, alive)

    component = simplegraph.component
    monkeypatch.setattr(simplegraph, "component", counting)
    b = bundle_for("dicyclic:3")
    report(b.epg).to_dict()
    assert calls == [0]
    calls.clear()
    assert report(b.epg).connected and calls == [0]  # connected alone: the same one expansion
    calls.clear()
    s3 = bundle_for("metacyclic:3:2:2")
    # the three reflections (deleted vertices 2-4) are isolated, so they are
    # set aside at once and only the rotations' component is expanded
    assert report(s3.deleted).to_dict()["connected"] is False and calls == [0]


def test_fields_decide_only_what_they_need(decider_calls):
    r = report(bundle_for("cyclic:6").epg)  # even order: vertex 0 has odd degree
    assert r.eulerian is False
    assert decider_calls["odd_degree_vertex"] == 1
    assert sum(decider_calls.values()) == 1
    assert r.star is False  # a cycle rules out a tree before connectivity is asked
    assert decider_calls["find_cycle"] == 1 and decider_calls["component_reps"] == 0


def test_analyze_decides_every_field_before_returning(decider_calls):
    analyze(bundle_for("metacyclic:3:2:2"), deleted=True)
    assert decider_calls == dict.fromkeys(decider_calls, 1)


@pytest.mark.parametrize("text", ["dicyclic:3", "cyclic:6", "metacyclic:3:2:2"])
def test_both_reports_of_a_bundle_find_the_cone_vertices_once(decider_calls, text):
    # a vertex is universal in the deleted graph exactly when it is a cone vertex
    b = bundle_for(text)
    analyze(b)
    analyze(b, deleted=True)
    assert decider_calls["cone_vertices"] == 1
    assert b.deleted_report.cone_vertices == b.report.cone_vertices
