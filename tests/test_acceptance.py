"""Acceptance criteria: theorem verification and oracle equivalence at desk
scale, each exact, each printing one pass/fail line with its elapsed time.

Run with  pytest -v -s tests/test_acceptance.py  to see the lines live.
"""

import time
from contextlib import contextmanager

from epgraph import (
    adjacent_oracle,
    component_reps,
    cone_vertices,
    is_simple,
    parse_spec,
    roster_generate,
    run_all,
    planarity_verdict,
)
from epgraph.theorems import CHECKS_BY_ID

from helpers import brute_lattice, totient


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed <= budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def specs_of(reports_roster):
    return {b.group.spec.serialize() for b in reports_roster}


def test_c01_oracle_equivalence(roster_bundles_48):
    with criterion("C1 clique-union vs pairwise oracle (<=48)", 60):
        for bundle in roster_bundles_48:
            group, epg = bundle.group, bundle.epg
            for x in range(group.order):
                for y in range(x + 1, group.order):
                    assert epg.has_edge(x, y) == adjacent_oracle(group, x, y), (
                        group.spec.serialize(), x, y,
                    )


def test_c02_completeness_iff_cyclic(roster_specs_64):
    with criterion("C2 T2.4 complete <=> cyclic (<=64)", 30):
        report = run_all(512, check_ids=["T2.4"], specs=roster_specs_64)[0]
        assert report.counterexamples == []
        assert report.tested == len(roster_specs_64)
        assert not report.vacuous


def test_c03_eulerian_iff_odd_order(roster_specs_64, roster_bundles_64):
    with criterion("C3 T4.2 Eulerian <=> odd order (<=64)", 30):
        report = run_all(512, check_ids=["T4.2"], specs=roster_specs_64)[0]
        assert report.counterexamples == []
        assert report.tested == len(roster_specs_64)
        for bundle in roster_bundles_64:
            if bundle.group.order % 2 == 1:
                assert all(d % 2 == 0 for d in bundle.epg.degrees())


def test_c04_planarity_iff_small_orders(bundle_of, roster_specs_64):
    with criterion("C4 T4.1 planar <=> orders within {1,2,3,4} (<=64)", 60):
        report = run_all(512, check_ids=["T4.1"], specs=roster_specs_64)[0]
        assert report.counterexamples == []
        assert report.tested == len(roster_specs_64)
        s4 = bundle_of(parse_spec("perm:4:(0 1),(0 1 2 3)"))
        assert set(s4.group.orders) == {1, 2, 3, 4}
        assert planarity_verdict(s4.epg)[0]
        z5 = bundle_of(parse_spec("cyclic:5"))
        assert not planarity_verdict(z5.epg)[0]
        names = {s.serialize() for s in roster_specs_64}
        assert "perm:4:(0 1),(0 1 2 3)" in names
        assert "cyclic:5" in names


def test_c05_bipartite_tree_star_equivalence(roster_specs_64):
    with criterion("C5 C2.3 bipartite <=> tree <=> star <=> exponent 2 (<=64)", 30):
        report = run_all(512, check_ids=["C2.3"], specs=roster_specs_64)[0]
        assert report.counterexamples == []
        assert report.tested == len(roster_specs_64)
        names = {s.serialize() for s in roster_specs_64}
        for k in range(2, 7):
            assert "product:" + ",".join(["cyclic:2"] * k) in names


def test_c06_abelian_cone_iff_cyclic_sylow(bundle_of):
    with criterion("C6 T3.2 abelian cone <=> cyclic Sylow (<=200)", 120):
        roster = [s for s in roster_generate(200) if s.family in ("cyclic", "product")]
        names = {s.serialize() for s in roster}
        assert "product:cyclic:2,cyclic:2,cyclic:3" in names
        assert "product:cyclic:2,cyclic:2,cyclic:3,cyclic:3" in names
        report = run_all(512, check_ids=["T3.2"], specs=roster)[0]
        assert report.counterexamples == []
        assert report.tested == len(roster) - 1  # all but the trivial group
        # the named cases land on the expected sides
        positive = bundle_of(parse_spec("product:cyclic:2,cyclic:2,cyclic:3"))
        negative = bundle_of(parse_spec("product:cyclic:2,cyclic:2,cyclic:3,cyclic:3"))
        assert cone_vertices(positive.epg)
        assert not cone_vertices(negative.epg)


def test_c07_nonabelian_2group_cone_iff_quaternion(bundle_of):
    with criterion("C7 T3.3 cone <=> generalized quaternion (2-groups 8..64)", 60):
        check = CHECKS_BY_ID["T3.3"]
        roster = [s for s in roster_generate(64)
                  if s.family in ("dihedral", "metacyclic", "dicyclic")]
        report = run_all(512, check_ids=["T3.3"], specs=roster)[0]
        assert report.counterexamples == []
        two_groups = {
            spec.serialize()
            for spec in roster
            if bundle_of(spec).group.is_p_group() == 2
            and not bundle_of(spec).group.is_abelian()
        }
        assert {f"dihedral:{m}" for m in (4, 8, 16, 32)} <= two_groups
        assert {"metacyclic:8:2:3", "metacyclic:16:2:7", "metacyclic:32:2:15"} <= two_groups
        assert {f"dicyclic:{m}" for m in (2, 4, 8, 16)} <= two_groups
        positives = {
            spec.serialize()
            for spec in roster
            if check.applies(bundle_of(spec))
            and check.graph_side(bundle_of(spec))
        }
        assert positives == {f"dicyclic:{m}" for m in (2, 4, 8, 16)}


def test_c08_a5_simple_without_cone(bundle_of):
    with criterion("C8 T3.4 A5 simple and cone-free", 60):
        a5 = bundle_of(parse_spec("perm:5:(0 1 2),(0 1 2 3 4)"))
        assert a5.group.order == 60
        assert is_simple(a5.group) is True  # normal-closure procedure
        assert cone_vertices(a5.epg) == []


def test_c09_pgroup_deleted_connectivity(bundle_of, roster_specs_64):
    with criterion("C9 T5.1 deleted connected <=> unique minimal (p-groups <=64)", 60):
        check = CHECKS_BY_ID["T5.1"]
        report = run_all(512, check_ids=["T5.1"], specs=roster_specs_64)[0]
        assert report.counterexamples == []
        applied = {
            spec.serialize(): bool(check.graph_side(bundle_of(spec)))
            for spec in roster_specs_64
            if check.applies(bundle_of(spec))
        }
        for positive in ("cyclic:4", "cyclic:8", "cyclic:27", "cyclic:64",
                         "dicyclic:2", "dicyclic:4", "dicyclic:8"):
            assert applied[positive] is True, positive
        for negative in ("dihedral:4", "dihedral:8",
                         "product:cyclic:2,cyclic:2", "product:cyclic:3,cyclic:3"):
            assert applied[negative] is False, negative


def test_c10_worked_examples(bundle_of):
    with criterion("C10 deleted graphs of S3 and Z6", 1):
        s3 = bundle_of(parse_spec("perm:3:(0 1),(0 1 2)"))
        assert s3.deleted.edge_count() == 1
        assert len(component_reps(s3.deleted)) == 4
        z6 = bundle_of(parse_spec("cyclic:6"))
        assert z6.deleted_report.connected


def test_c11_run_all_32(bundle_of):
    with criterion("C11 run_all(32): 14 checks, no counterexamples", 120):
        reports = run_all(32)
        assert len(reports) == 14
        for report in reports:
            assert report.counterexamples == [], report.theorem
            check = CHECKS_BY_ID[report.theorem]
            if check.direction == "iff":
                assert not report.vacuous, report.theorem
        t53 = CHECKS_BY_ID["T5.3"]
        branches = {
            bool(t53.graph_side(bundle_of(spec)))
            for spec in roster_generate(32)
            if t53.applies(bundle_of(spec))
        }
        assert branches == {True, False}


def test_c12_structural_invariants(roster_bundles_48):
    with criterion("C12 partition identity, neighborhoods, degree decomposition (<=48)", 60):
        for bundle in roster_bundles_48:
            group, epg = bundle.group, bundle.epg
            lattice = brute_lattice(group)
            subgroups, generator_sets = lattice["subgroups"], lattice["generator_sets"]
            n = group.order

            # generator-class partition identity
            assert sum(totient(len(s)) for s in subgroups) == n

            # identity universality
            if n >= 2:
                assert epg.degrees()[0] == n - 1

            # identical closed neighborhoods inside a class
            for gens in generator_sets:
                assert len({epg.rows[x] | (1 << x) for x in gens}) == 1

            # degree decomposition: phi(o(a)) - 1 plus phi over fully joined classes
            class_count = len(subgroups)
            joined = [
                [
                    a != b and all(
                        epg.has_edge(x, y)
                        for x in generator_sets[a]
                        for y in generator_sets[b]
                    )
                    for b in range(class_count)
                ]
                for a in range(class_count)
            ]
            phi = [len(gens) for gens in generator_sets]
            for x in range(n):
                c = lattice["class_of"][x]
                expected = phi[c] - 1 + sum(
                    phi[b] for b in range(class_count) if joined[c][b]
                )
                assert epg.degrees()[x] == expected, (group.spec.serialize(), x)
