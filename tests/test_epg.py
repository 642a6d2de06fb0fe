"""Enhanced power graph construction, the adjacency oracle, deleted graphs,
and exports."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import settings

import epgraph.epg as epg_module
from epgraph import (
    GroupSpec,
    adjacent_oracle,
    analyze,
    build_bundle,
    build_deleted,
    build_epg,
    parse_spec,
    roster_generate,
    to_dot,
    to_edgelist_lines,
    to_json_dict,
)

from helpers import (
    brute_cyclic_subgroups,
    brute_lattice,
    clique_edges,
    commuting_graph_rows,
    graph_from_edges,
    has_noncyclic_commuting_pair,
    is_prime,
    lattice_epg_rows,
    networkx_clique_and_independence_numbers,
    power_graph_rows,
    power_masks,
)


def bundle_for(spec_text):
    return build_bundle(parse_spec(spec_text).realize())


def test_cyclic_groups_yield_complete_graphs():
    for n in (1, 2, 5, 8, 12):
        epg = bundle_for(f"cyclic:{n}").epg
        assert epg.edge_count() == n * (n - 1) // 2


def test_klein_four_is_star():
    epg = bundle_for("product:cyclic:2,cyclic:2").epg
    assert epg.edge_count() == 3
    assert epg.degrees() == [3, 1, 1, 1]


def test_s3_edges():
    b = bundle_for("metacyclic:3:2:2")
    # identity joined to all five, plus one edge between the two 3-cycles
    assert b.epg.edge_count() == 6
    rotations = [x for x in range(6) if b.group.orders[x] == 3]
    assert b.epg.has_edge(*rotations)


def test_oracle_identity_always_adjacent():
    g = GroupSpec.dihedral(6).realize()
    for x in range(1, g.order):
        assert adjacent_oracle(g, 0, x)
        assert adjacent_oracle(g, x, 0)


def test_oracle_transpositions_not_adjacent():
    s3 = GroupSpec.metacyclic(3, 2, 2).realize()
    reflections = [x for x in range(6) if s3.orders[x] == 2]
    for i, s in enumerate(reflections):
        for t in reflections[i + 1:]:
            assert not adjacent_oracle(s3, s, t)


def test_oracle_z4():
    z4 = GroupSpec.cyclic(4).realize()
    assert adjacent_oracle(z4, 1, 2)


def test_oracle_rejects_equal_elements():
    with pytest.raises(ValueError):
        adjacent_oracle(GroupSpec.cyclic(4).realize(), 2, 2)


@pytest.mark.parametrize(
    "spec_text",
    ["metacyclic:3:2:2", "dicyclic:2", "cyclic:12", "dihedral:4",
     "product:cyclic:2,cyclic:4", "perm:4:(0 1 2),(1 2 3)"],
)
def test_clique_union_matches_oracle(spec_text):
    b = bundle_for(spec_text)
    g = b.group
    for x in range(g.order):
        for y in range(x + 1, g.order):
            assert b.epg.has_edge(x, y) == adjacent_oracle(g, x, y)


def test_maximal_cliques_give_every_subgroup_clique(roster_bundles_48):
    # build_epg's cliques over the walks: the cliques of every cyclic
    # subgroup that a brute-force scan of the table finds
    for bundle in roster_bundles_48:
        subgroups = [sorted(members) for members in brute_cyclic_subgroups(bundle.group)]
        full = graph_from_edges(bundle.group.order, clique_edges(*subgroups))
        assert bundle.epg.rows == full.rows


def test_walk_graph_matches_lattice_cliques(bundle_of):
    # build_epg ORs in every walk; the reference adds one clique per
    # maximal subgroup that a brute-force scan of the table finds
    for spec in roster_generate(128):
        group = bundle_of(spec).group
        assert build_epg(group).rows == lattice_epg_rows(group), spec.serialize()


@pytest.mark.parametrize("spec_text", ["cyclic:512", "dihedral:256", "dicyclic:128"])
def test_bundle_and_reports_leave_row_lists_unbuilt(spec_text):
    # a Python row list of the table holds a pointer per entry, 8 n^2 bytes;
    # the int16 table, the walks, both graphs and both reports take far less
    tracemalloc.start()
    try:
        b = bundle_for(spec_text)
        analyze(b)
        analyze(b, deleted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * b.group.order ** 2


# every roster group up to order 64 in tier-1; the ci profile takes the
# roster to 256, building one bundle at a time
SANDWICH_ROSTER_BOUND = 256 if settings.default.max_examples >= 1000 else 64


def _is_prime_power(n: int) -> bool:
    return len([p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]) <= 1


def test_epg_lies_between_power_and_commuting_graphs_on_roster():
    # a second oracle for build_epg, sharing no code with the power walks:
    # the power graph (x ~ y iff one is a power of the other) and the
    # commuting graph (x ~ y iff xy = yx) come from the table alone, and
    # (1) PG <= EPG <= CG as edge sets,
    # (2) EPG = PG iff every element order is a prime power, and
    # (3) EPG = CG iff G holds no Z_p x Z_p: no two commuting elements of one
    #     prime order p generate different subgroups
    specs = roster_generate(SANDWICH_ROSTER_BOUND)
    seen = {"EPG = PG": 0, "EPG = CG": 0}
    for spec in specs:
        group = spec.realize()
        epg = build_epg(group).rows
        powers = power_masks(group)
        pg, cg = power_graph_rows(powers), commuting_graph_rows(group)
        name = spec.serialize()
        assert all(p & ~e == 0 and e & ~c == 0 for p, e, c in zip(pg, epg, cg)), name
        prime_powers = all(_is_prime_power(bin(m).count("1")) for m in powers)
        assert (epg == pg) == prime_powers, name
        assert (epg == cg) == (not has_noncyclic_commuting_pair(powers, cg)), name
        seen["EPG = PG"] += epg == pg
        seen["EPG = CG"] += epg == cg
    # both outcomes of each identity occur
    assert 0 < min(seen.values()) and max(seen.values()) < len(specs), seen


# every roster group up to order 32 in tier-1; the ci profile takes the
# roster to 64 (about 4 s)
CLIQUE_ROSTER_BOUND = 64 if settings.default.max_examples >= 1000 else 32


def test_epg_clique_and_independence_numbers_on_roster():
    # networkx's exact clique search on the enhanced power graph and on its
    # complement, against the group:
    # (4) omega(EPG) is the largest element order: a clique generates an
    #     abelian group whose Sylow subgroups are chains, so a cyclic group;
    # (5) alpha(EPG) is the number of maximal cyclic subgroups, read off the
    #     walks: their cliques cover the vertices, and one generator of each
    #     makes an independent set
    pytest.importorskip("networkx")
    for spec in roster_generate(CLIQUE_ROSTER_BOUND):
        group = spec.realize()
        subgroups = [frozenset(walk) for walk in group.walks]
        maximal = sum(not any(s < t for t in subgroups) for s in subgroups)
        assert networkx_clique_and_independence_numbers(build_epg(group)) == (
            max(group.orders), maximal), spec.serialize()


def test_deleted_graph_is_built_on_first_read(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph)
        return build_deleted(graph)

    monkeypatch.setattr(epg_module, "build_deleted", counting)
    b = bundle_for("dihedral:6")
    analyze(b)
    assert calls == []
    analyze(b, deleted=True)
    analyze(b, deleted=True)
    assert calls == [b.epg]


def test_replaced_epg_yields_its_own_deleted_graph():
    b = bundle_for("cyclic:6")
    assert b.deleted.edge_count() == 10
    other = dataclasses.replace(b, epg=bundle_for("metacyclic:3:2:2").epg)
    assert other.deleted.n == 5 and other.deleted.edge_count() == 1
    assert b.deleted.edge_count() == 10


def test_deleted_s3():
    b = bundle_for("metacyclic:3:2:2")
    assert b.deleted.n == 5
    assert b.deleted.edge_count() == 1


def test_deleted_z6_connected():
    b = bundle_for("cyclic:6")
    assert b.deleted.n == 5
    assert b.deleted_report.connected


def test_deleted_z2_isolated_vertex():
    b = bundle_for("cyclic:2")
    assert b.deleted.n == 1
    assert b.deleted.edge_count() == 0


def test_deleted_trivial_group_empty():
    b = bundle_for("cyclic:1")
    assert b.deleted.n == 0


def test_deleted_matches_epg_edge_for_edge(roster_bundles_48):
    for b in roster_bundles_48:
        expected = {(u - 1, v - 1) for u, v in b.epg.edges() if u != 0}
        assert set(b.deleted.edges()) == expected


def test_identity_universal(roster_bundles_48):
    for b in roster_bundles_48:
        if b.group.order >= 2:
            assert b.epg.degrees()[0] == b.group.order - 1


def test_gen_classes_have_identical_closed_neighborhoods(roster_bundles_48):
    for b in roster_bundles_48:
        for gens in brute_lattice(b.group)["generator_sets"]:
            closed = {b.epg.rows[x] | (1 << x) for x in gens}
            assert len(closed) == 1


def test_gen_classes_fully_joined_or_disjoint(roster_bundles_48):
    for b in roster_bundles_48:
        gens = brute_lattice(b.group)["generator_sets"]
        for i, ga in enumerate(gens):
            for gb in gens[i + 1:]:
                links = sum(b.epg.has_edge(x, y) for x in ga for y in gb)
                assert links in (0, len(ga) * len(gb))


def test_equal_order_distinct_classes_never_joined(roster_bundles_48):
    for b in roster_bundles_48:
        lattice = brute_lattice(b.group)
        subgroups, gens = lattice["subgroups"], lattice["generator_sets"]
        for i in range(len(subgroups)):
            for j in range(i + 1, len(subgroups)):
                if len(subgroups[i]) != len(subgroups[j]):
                    continue
                for x in gens[i]:
                    for y in gens[j]:
                        assert not b.epg.has_edge(x, y)


def test_dihedral_same_epg_edge_count_both_constructions():
    for m in (3, 4, 6):
        meta = build_bundle(GroupSpec.dihedral(m).realize())
        rot = tuple((i + 1) % m for i in range(m))
        ref = tuple((m - i) % m for i in range(m))
        perm = build_bundle(GroupSpec.perm(m, [rot, ref]).realize())
        assert meta.epg.edge_count() == perm.epg.edge_count()


# -- exports --------------------------------------------------------------------


def test_edgelist_export():
    b = bundle_for("cyclic:6")
    lines = to_edgelist_lines(b.epg)
    assert len(lines) == 15
    assert lines[0] == "0 1"
    for line in lines:
        u, v = map(int, line.split())
        assert u < v


def test_dot_export():
    b = bundle_for("dicyclic:2")
    dot = to_dot(b.epg)
    assert dot.startswith('graph "Q8" {')
    assert dot.count("[label=") == 8
    assert 'n0 [label="g0 (o=1)"];' in dot
    assert 'n2 [label="g2 (o=2)"];' in dot
    assert dot.rstrip().endswith("}")


def test_dot_export_deleted_keeps_element_labels():
    b = bundle_for("metacyclic:3:2:2")
    dot = to_dot(b.deleted)
    # vertex 0 of the deleted graph is element 1
    assert 'n0 [label="g1' in dot


def test_json_export_labels_are_element_and_order():
    # S3 as metacyclic:3:2:2: elements 1 and 2 are the rotations, 3-5 the
    # reflections; the deleted graph's vertex i is element i + 1
    b = bundle_for("metacyclic:3:2:2")
    assert to_json_dict(b.epg)["labels"] == [[0, 1], [1, 3], [2, 3], [3, 2], [4, 2], [5, 2]]
    data = to_json_dict(b.deleted)
    assert data["name"] == "Meta(3,2,2)*" and data["vertices"] == 5
    assert data["labels"] == [[1, 3], [2, 3], [3, 2], [4, 2], [5, 2]]
    assert data["edges"] == [[0, 1]]
    # the trivial group's deleted graph has no vertex and so no labels
    assert to_json_dict(bundle_for("cyclic:1").deleted)["labels"] is None
