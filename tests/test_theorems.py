"""Roster generation and the theorem-check harness."""

import copy
import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from epgraph import (
    CayleyValidationError,
    FiniteGroup,
    GroupError,
    GroupParameterError,
    GroupSizeError,
    SimpleGraph,
    build_bundle,
    build_deleted,
    is_simple,
    parse_spec,
    roster_generate,
    run_all,
)
import epgraph.epg as epg_module
import epgraph.groups as groups_module
from epgraph import theorems
from epgraph.theorems import CHECKS, CHECKS_BY_ID, Counterexample, TheoremReport

from helpers import (
    REFERENCE_SIDES,
    brute_lattice,
    cayley_file_text,
    column_major_run_all,
    complete_graph,
    pairwise_no_cross_edges,
    table_of,
)


def serialized(specs):
    return [s.serialize() for s in specs]


# -- roster generation ------------------------------------------------------------


def test_roster_cyclic_family():
    specs = [s for s in roster_generate(8) if s.family == "cyclic"]
    assert serialized(specs) == [f"cyclic:{n}" for n in range(1, 9)]


def test_roster_dicyclic_family():
    specs = [s for s in roster_generate(16) if s.family == "dicyclic"]
    assert serialized(specs) == ["dicyclic:2", "dicyclic:3", "dicyclic:4"]


def test_roster_deterministic():
    assert serialized(roster_generate(48)) == serialized(roster_generate(48))


def test_roster_sorted_by_order(bundle_of):
    specs = roster_generate(32)
    orders = []
    for spec in specs:
        known = spec.known_order()
        orders.append(known if known is not None else bundle_of(spec).group.order)
    assert orders == sorted(orders)


def test_roster_membership():
    names = set(serialized(roster_generate(64)))
    for expected in (
        "cyclic:64",
        "product:cyclic:2,cyclic:2",
        "product:cyclic:3,cyclic:3",
        "product:cyclic:2,cyclic:2,cyclic:2,cyclic:2,cyclic:2,cyclic:2",
        "dihedral:4",
        "dihedral:32",
        "dicyclic:16",
        "metacyclic:8:2:3",
        "metacyclic:32:2:15",
        "metacyclic:5:4:2",
        "metacyclic:7:3:2",
        "metacyclic:9:3:4",
        "perm:3:(0 1),(0 1 2)",
        "perm:5:(0 1 2),(0 1 2 3 4)",
    ):
        assert expected in names, expected


def test_roster_excludes_duplicate_shapes():
    names = serialized(roster_generate(64))
    # cyclic-shaped products (all primes distinct) stay out; Z6 covers them
    assert "product:cyclic:2,cyclic:3" not in names
    assert "dihedral:2" not in names
    assert len(names) == len(set(names))


def test_roster_rejects_bad_input():
    with pytest.raises(GroupParameterError):
        roster_generate(0)


# -- run_all over a list of specs ---------------------------------------------------


def test_run_all_over_specs_t24():
    report = run_all(512, check_ids=["T2.4"], specs=roster_generate(32))[0]
    assert report.counterexamples == []
    assert report.tested == len(roster_generate(32))
    assert report.passed == report.tested
    assert not report.vacuous


def test_run_all_over_specs_vacuous_flag():
    report = run_all(512, check_ids=["T3.2"], specs=roster_generate(1))[0]
    assert report.vacuous and report.tested == 0


def test_run_all_over_specs_ms_excludes_bundle_building(monkeypatch):
    def slow_build(group):
        time.sleep(0.05)
        return build_bundle(group)

    monkeypatch.setattr(theorems, "build_bundle", slow_build)
    roster = roster_generate(4)
    report = run_all(512, check_ids=["T2.4"], specs=roster)[0]
    assert report.tested == len(roster)
    assert report.ms < 50


def test_run_all_over_specs_ms_excludes_deleted_graph_building(monkeypatch):
    def slow_deleted(graph):
        time.sleep(0.05)
        return build_deleted(graph)

    monkeypatch.setattr(epg_module, "build_deleted", slow_deleted)
    roster = roster_generate(4)
    report = run_all(512, check_ids=["T5.4"], specs=roster)[0]
    assert report.tested == len(roster)
    assert report.ms < 50


def test_t33_positive_set_is_generalized_quaternion(bundle_of):
    check = CHECKS_BY_ID["T3.3"]
    roster = [s for s in roster_generate(32)
              if s.family in ("dihedral", "dicyclic", "metacyclic")]
    report = run_all(512, check_ids=["T3.3"], specs=roster)[0]
    assert report.counterexamples == []
    positives = {
        spec.serialize()
        for spec in roster
        if check.applies(bundle_of(spec)) and check.graph_side(bundle_of(spec))
    }
    assert positives == {"dicyclic:2", "dicyclic:4", "dicyclic:8"}


def test_t53_roster_has_both_branches(bundle_of):
    check = CHECKS_BY_ID["T5.3"]
    seen = set()
    for spec in roster_generate(32):
        bundle = bundle_of(spec)
        if check.applies(bundle):
            seen.add(bool(check.graph_side(bundle)))
    assert seen == {True, False}


def test_t31_roster_contents(bundle_of):
    check = CHECKS_BY_ID["T3.1"]
    roster = check.roster(32)
    names = serialized(roster)
    assert "product:cyclic:2,cyclic:2,cyclic:3" in names
    assert all(name.startswith("product:") for name in names)
    for spec in roster:
        assert bundle_of(spec).group.order <= 32


@pytest.mark.parametrize("text, applies", [
    ("product:dihedral:3,cyclic:5", True),
    ("product:cyclic:2,cyclic:2,cyclic:3", True),
    ("product:cyclic:3,cyclic:2", True),
    ("product:cyclic:5,dihedral:3", True),  # z = 6, (generator, identity)
    ("cyclic:6", True),
    ("cyclic:4", True),  # a generator: order 4, |G|/4 = 1
    ("product:dihedral:3,cyclic:3", False),  # Z(G) = Z_3, and gcd(3, 6) = 3
    ("product:cyclic:2,cyclic:2", False),
    ("cyclic:1", False),  # no z != 1
    ("dicyclic:2", False),  # Z(G) = Z_2, and gcd(2, 4) = 2
    ("dicyclic:3", False),
    ("dihedral:6", False),
    ("perm:4:(0 1 2),(1 2 3)", False),  # A4: a trivial center
])
def test_t31_applies_to_a_coprime_central_element(bundle_of, text, applies):
    assert CHECKS_BY_ID["T3.1"].applies(bundle_of(parse_spec(text))) is applies


def test_t31_applies_to_a_group_without_a_spec():
    table = parse_spec("product:dihedral:3,cyclic:5").realize().table
    bundle = build_bundle(FiniteGroup(table))
    assert theorems._coprime_central(bundle) == [1, 2, 3, 4]
    assert CHECKS_BY_ID["T3.1"].applies(bundle)


def test_t31_graph_side_reads_every_coprime_central_element():
    # vertex 1 stays a cone vertex, but 3, another element of order 5, is
    # struck off: the graph side must see it
    bundle = build_bundle(parse_spec("product:dihedral:3,cyclic:5").realize())
    check = CHECKS_BY_ID["T3.1"]
    assert check.graph_side(bundle)
    bundle.report.cone_vertices = [v for v in bundle.report.cone_vertices if v != 3]
    assert 1 in bundle.report.cone_vertices and not check.graph_side(bundle)


def test_t31_holds_on_a_cayley_file(tmp_path):
    # Z_5 x S3 laid out with Z_5 first: element 1 is no cone vertex, and the
    # coprime central elements, 6, 12, 18 and 24, are read off the table alone
    path = tmp_path / "z5_s3.txt"
    path.write_text(cayley_file_text(table_of(parse_spec("product:cyclic:5,dihedral:3").realize())))
    spec = parse_spec(f"file:{path}")
    bundle = build_bundle(spec.realize())
    assert theorems._coprime_central(bundle) == [6, 12, 18, 24]
    assert 1 not in bundle.report.cone_vertices
    # every check reads only the group, so the file gets all 14 in one call
    reports = run_all(512, specs=[spec])
    assert [r.theorem for r in reports] == [c.check_id for c in CHECKS]
    for report in reports:
        assert report.counterexamples == [] and report.tested == report.passed, report.theorem
    tested = {r.theorem: r.tested for r in reports}
    # non-abelian, not a p-group, with a center Z_5: T3.2-T3.4, T5.1 and T5.2 skip it
    assert [i for i, n in tested.items() if n == 0] == ["T3.2", "T3.3", "T3.4", "T5.1", "T5.2"]
    assert tested["T3.1"] == 1


def test_t31_finds_no_counterexample_on_the_standard_roster():
    # every roster group with a central z of order n coprime to |G|/n: the
    # 63 cyclic groups but Z_1, and 24 abelian products with a cyclic Sylow
    # subgroup, such as Z_2 x Z_3 x Z_3 (z of order 2); the roster's
    # non-abelian groups up to 64 have none
    check = CHECKS_BY_ID["T3.1"]
    report = run_all(64, check_ids=["T3.1"], specs=roster_generate(64))[0]
    assert report.counterexamples == [] and report.tested == report.passed == 87
    own = run_all(256, check_ids=["T3.1"], specs=check.roster(256))[0]
    assert own.counterexamples == [] and own.tested == len(check.roster(256)) == 99


def test_t34_filter_excludes_abelian_simple(bundle_of):
    check = CHECKS_BY_ID["T3.4"]
    z5 = bundle_of(parse_spec("cyclic:5"))
    assert not check.applies(z5)
    a5 = bundle_of(parse_spec("perm:5:(0 1 2),(0 1 2 3 4)"))
    assert check.applies(a5)


def test_t34_tests_simplicity_only_with_a_trivial_center(monkeypatch, bundle_of):
    asked = []
    monkeypatch.setattr(theorems, "is_simple", lambda g: asked.append(g) or is_simple(g))
    check = CHECKS_BY_ID["T3.4"]
    for spec in roster_generate(64):
        check.applies(bundle_of(spec))
    assert asked and all(len(g.center()) == 1 for g in asked)


def test_filters_mutually_exclusive(bundle_of):
    t32, t33 = CHECKS_BY_ID["T3.2"], CHECKS_BY_ID["T3.3"]
    for spec in roster_generate(32):
        bundle = bundle_of(spec)
        assert not (t32.applies(bundle) and t33.applies(bundle))


# -- run_all -------------------------------------------------------------------------


def test_run_all_structure():
    reports = run_all(24)
    assert [r.theorem for r in reports] == [c.check_id for c in CHECKS]
    assert len(reports) == 14
    for report in reports:
        assert report.tested == report.passed + len(report.counterexamples)
        data = report.to_dict()
        assert set(data) == {"theorem", "tested", "passed", "vacuous", "counterexamples", "ms"}
        json.dumps(data)


def test_report_json_with_a_counterexample():
    report = TheoremReport("T4.2", 3, 2, False, [
        Counterexample("cyclic:4", {"eulerian": True, "all_degrees_even": False}, False, [1, 2]),
    ], 1.5)
    assert json.dumps(report.to_dict()) == (
        '{"theorem": "T4.2", "tested": 3, "passed": 2, "vacuous": false, "counterexamples": '
        '[{"spec": "cyclic:4", "graph_side": {"eulerian": true, "all_degrees_even": false}, '
        '"group_side": false, "witness": [1, 2]}], "ms": 1.5}'
    )


def test_run_all_tiny_roster():
    for report in run_all(1):
        assert report.counterexamples == []
        assert report.vacuous or report.passed == report.tested


def test_run_all_deterministic_modulo_timing():
    def normalized(reports):
        out = []
        for r in reports:
            d = r.to_dict()
            d.pop("ms")
            out.append(d)
        return json.dumps(out)

    first = normalized(run_all(24))
    second = normalized(run_all(24))
    assert first == second


def test_run_all_subset():
    reports = run_all(16, check_ids=["T2.4", "T5.1"])
    assert [r.theorem for r in reports] == ["T2.4", "T5.1"]


def _zero_ms(reports):
    return [dict(r.to_dict(), ms=0.0) for r in reports]


@pytest.mark.parametrize("check_ids", [None, ["T5.1", "T3.1", "T2.4"], ["T2.4", "T2.4"]])
def test_streamed_run_all_matches_column_major_reference(check_ids):
    expected = column_major_run_all(64, check_ids)
    assert _zero_ms(run_all(64, check_ids=check_ids)) == expected


def _record_builds(monkeypatch):
    built = []

    def recording(group):
        built.append(group.spec.serialize())
        return build_bundle(group)

    monkeypatch.setattr(theorems, "build_bundle", recording)
    return built


@pytest.fixture
def one_shard(monkeypatch):
    """Runs the whole job list in this process, where a monkeypatch sees every build."""
    monkeypatch.setattr(theorems, "_shard_count", lambda jobs: 1)


def test_run_all_builds_each_spec_of_the_one_roster_once(monkeypatch, one_shard):
    # the standard roster, then the T3.1 products it lacks, whatever the
    # selection, so a check's tested count does not depend on the others
    # selected; a product that is also a standard-roster group is built once
    standard = serialized(roster_generate(48))
    products = serialized(CHECKS_BY_ID["T3.1"].roster(48))
    assert set(standard) & set(products)
    one_roster = standard + [s for s in products if s not in standard]
    built = _record_builds(monkeypatch)
    for check_ids in (None, ["T3.1"], ["T2.4", "T5.1"]):
        run_all(48, check_ids=check_ids)
        assert built == one_roster, check_ids
        built.clear()
    assert run_all(48, check_ids=[]) == [] and built == []


def test_run_all_holds_one_bundle_at_a_time(monkeypatch, one_shard):
    live = peak = 0

    def released():
        nonlocal live
        live -= 1

    def tracked(group):
        nonlocal live, peak
        bundle = build_bundle(group)
        live += 1
        peak = max(peak, live)
        weakref.finalize(bundle, released)
        return bundle

    monkeypatch.setattr(theorems, "build_bundle", tracked)
    run_all(48)
    assert peak == 1


def test_run_all_runs_each_decider_once_per_graph(one_shard, decider_graphs):
    # the checks share the bundle's two reports, so no property is decided twice
    run_all(64)
    calls = Counter((name, id(graph)) for name, graph in decider_graphs)
    twice = [(name, graph.name) for name, graph in decider_graphs if calls[name, id(graph)] > 1]
    assert calls and not twice, twice[:6]


def test_run_all_checks_a_spec_listed_twice_once(monkeypatch, one_shard):
    built = _record_builds(monkeypatch)
    cyclic4 = parse_spec("cyclic:4")
    report = run_all(512, check_ids=["T2.4"], specs=[cyclic4, cyclic4])[0]
    assert report.tested == report.passed == 1  # tested counts groups
    assert built == ["cyclic:4"]


def test_run_all_refuses_a_roster_bound_over_the_cap_before_building(monkeypatch, one_shard):
    # the roster reaches its bound, so a bound over the int16 table cap is
    # refused before any group is built; with specs it is only the order cap
    monkeypatch.setattr(groups_module, "MAX_TABLE_ORDER", 16)
    built = _record_builds(monkeypatch)
    with pytest.raises(GroupSizeError, match="roster bound 20 exceeds the cap of 16"):
        run_all(20)
    with pytest.raises(GroupSizeError, match="exceeds the cap"):
        run_all(20, check_ids=["T2.4"])
    assert built == []
    assert run_all(20, check_ids=[]) == []
    report = run_all(20, check_ids=["T2.4"], specs=[parse_spec("cyclic:16")])[0]
    assert report.tested == report.passed == 1 and built == ["cyclic:16"]


def test_run_all_over_no_specs_builds_nothing(monkeypatch, one_shard):
    built = _record_builds(monkeypatch)
    reports = run_all(64, specs=[])
    assert [r.theorem for r in reports] == [c.check_id for c in CHECKS]
    assert all(r.vacuous and r.tested == 0 for r in reports)
    assert run_all(64, check_ids=[], specs=roster_generate(8)) == []
    assert built == []


def test_every_check_over_the_standard_roster_and_t31_products():
    # the other 13 checks see T3.1's 65 non-abelian products, and T3.1 the
    # whole standard roster: 198 distinct specs at 64, each built once
    reports = run_all(64)
    assert all(r.counterexamples == [] and r.passed == r.tested for r in reports)
    tested = {r.theorem: r.tested for r in reports}
    assert tested == dict.fromkeys(tested, 198) | {
        "T3.1": 113, "T3.2": 121, "T3.3": 12, "T3.4": 1, "T5.1": 67, "T5.2": 79, "T5.3": 30,
    }


# -- shards: the job list split between the caller and forked children ------------


def _shards(monkeypatch, w):
    monkeypatch.setattr(theorems, "_shard_count", lambda jobs: w)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("check_ids", [None, ["T5.1", "T3.1", "T2.4"], ["T2.4", "T2.4"], []])
def test_two_shards_report_what_one_shard_does(monkeypatch, check_ids):
    roster = roster_generate(64)
    for specs in (None, roster[::-1], roster[::-2] + roster[::3]):
        _shards(monkeypatch, 1)
        one = _zero_ms(run_all(64, check_ids=check_ids, specs=specs))
        _shards(monkeypatch, 2)
        assert _zero_ms(run_all(64, check_ids=check_ids, specs=specs)) == one
        _no_child_left()


def test_counterexamples_follow_the_one_roster_across_shards(monkeypatch, bundle_of):
    # T2.4 planted to fail on some groups of each shard, T3.1 on every group
    # it applies to; the children inherit the planted checks through the fork
    planted = dict(CHECKS_BY_ID)
    planted["T2.4"] = dataclasses.replace(
        planted["T2.4"], group_side=lambda b: b.group.order % 3 == 0)
    planted["T3.1"] = dataclasses.replace(planted["T3.1"], graph_side=lambda b: False)
    monkeypatch.setattr(theorems, "CHECKS_BY_ID", planted)
    standard = roster_generate(64)
    products = CHECKS_BY_ID["T3.1"].roster(64)
    # the one roster (the standard roster, then T3.1's products), and a
    # caller's specs (the standard roster reversed, then the products)
    for specs in (None, list(dict.fromkeys(standard[::-1] + products))):
        reports = {}
        for w in (1, 2):
            _shards(monkeypatch, w)
            reports[w] = _zero_ms(run_all(64, check_ids=["T2.4", "T3.1"], specs=specs))
        _no_child_left()
        assert reports[2] == reports[1]
        t24, t31 = reports[1]
        order = list(dict.fromkeys(standard + products)) if specs is None else specs
        failing = [s.serialize() for s in order
                   if bundle_of(s).report.complete != (bundle_of(s).group.order % 3 == 0)]
        applying = [s.serialize() for s in order if planted["T3.1"].applies(bundle_of(s))]
        assert len(failing) >= 2 and len(applying) > len(products)
        assert [c["spec"] for c in t24["counterexamples"]] == failing
        assert [c["spec"] for c in t31["counterexamples"]] == applying


@pytest.mark.parametrize("where", ["caller", "child"])
def test_a_shard_error_reaches_the_caller(monkeypatch, where):
    # with two shards, job 0 runs in the caller and job 1 in the child; a
    # caller that raises first kills its child, asleep here, instead of waiting
    roster = roster_generate(16)
    failing, sleeping = (roster[0], roster[1]) if where == "caller" else (roster[1], None)

    def planted(group):
        if group.spec == failing:
            raise CayleyValidationError("associativity", f"planted at {failing.serialize()}")
        if group.spec == sleeping:
            time.sleep(60)
        return build_bundle(group)

    monkeypatch.setattr(theorems, "build_bundle", planted)
    _shards(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(CayleyValidationError) as raised:
        run_all(16)
    assert time.perf_counter() - start < 30
    _no_child_left()
    assert type(raised.value) is CayleyValidationError
    assert str(raised.value) == f"planted at {failing.serialize()}"
    assert raised.value.law == "associativity"


def test_a_child_that_dies_makes_run_all_raise():
    # in a process of its own, so a hang ends at the timeout, not in the test run
    script = textwrap.dedent("""
        import os, signal
        from epgraph import build_bundle, run_all, theorems

        def dying(group):
            if group.spec.serialize() == "cyclic:2":  # job 1, the child's first
                os.kill(os.getpid(), signal.SIGKILL)
            return build_bundle(group)

        theorems._shard_count = lambda jobs: 2
        theorems.build_bundle = dying
        try:
            run_all(16)
        except RuntimeError as exc:
            print("raised:", exc)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("raised: verify shard in process ")
    assert lines[0].endswith("ended without its reports (exit status -9)")
    assert lines[1:] == ["no child left"]


def test_a_shard_that_cannot_fork_runs_in_the_caller(monkeypatch):
    def no_fork():
        raise BlockingIOError("planted: no process left")

    _shards(monkeypatch, 1)
    one = _zero_ms(run_all(32))
    _shards(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _zero_ms(run_all(32)) == one


def test_shard_count_is_one_with_a_second_thread_alive():
    cpus = len(os.sched_getaffinity(0))
    assert theorems._shard_count(10**6) == cpus
    assert theorems._shard_count(1) == theorems._shard_count(0) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert theorems._shard_count(10**6) == 1
    finally:
        release.set()
        thread.join()


def _group_errors(cls=GroupError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _group_errors(sub)


@pytest.mark.parametrize("cls", list(_group_errors()), ids=lambda cls: cls.__name__)
def test_every_group_error_survives_pickle_and_copy(cls):
    # an error raised in a child reaches the caller pickled
    args = ("associativity", "planted") if cls is CayleyValidationError else ("planted",)
    error = cls(*args)
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is cls and str(twin) == "planted"
        assert getattr(twin, "law", None) == getattr(error, "law", None)


# -- predicates against their reference formulations ------------------------------


def test_predicates_match_reference_formulations(bundle_of):
    specs = roster_generate(64) + CHECKS_BY_ID["T3.1"].roster(64)
    applied = dict.fromkeys(REFERENCE_SIDES, 0)
    for spec in specs:
        bundle = bundle_of(spec)
        for check in CHECKS:
            applies, graph_side, group_side = REFERENCE_SIDES[check.check_id]
            where = (check.check_id, spec.serialize())
            assert check.applies(bundle) == applies(bundle), where
            if applies(bundle):
                applied[check.check_id] += 1
                assert check.graph_side(bundle) == graph_side(bundle), where
                assert check.group_side(bundle) == group_side(bundle), where
    assert all(applied.values()), applied


def test_applies_and_group_sides_read_only_the_group(bundle_of):
    # a bundle whose graph is complete, whatever the group, must not move
    # either: a fault in the graph cannot then move both sides of a check
    for spec in roster_generate(64) + CHECKS_BY_ID["T3.1"].roster(64):
        bundle = bundle_of(spec)
        swapped = dataclasses.replace(bundle, epg=complete_graph(bundle.group.order))
        for check in CHECKS:
            where = (check.check_id, spec.serialize())
            assert check.applies(swapped) == check.applies(bundle), where
            if check.applies(bundle):
                assert check.group_side(swapped) == check.group_side(bundle), where


def _with_edge(bundle, x, y):
    """The bundle with one extra edge {x, y} planted in a copy of its EPG."""
    epg = SimpleGraph(bundle.epg.n)
    epg.rows = list(bundle.epg.rows)
    epg.rows[x] |= 1 << y
    epg.rows[y] |= 1 << x
    return dataclasses.replace(bundle, epg=epg)


@pytest.mark.parametrize("text", [
    "product:cyclic:3,cyclic:3",
    "product:cyclic:2,cyclic:4",
    "dicyclic:3",
    "perm:4:(0 1 2),(1 2 3)",
])
def test_t21_fails_on_a_planted_cross_edge(bundle_of, text):
    bundle = bundle_of(parse_spec(text))
    lattice, t21 = brute_lattice(bundle.group), CHECKS_BY_ID["T2.1"].graph_side
    subgroups, gens = lattice["subgroups"], lattice["generator_sets"]
    assert t21(bundle) and pairwise_no_cross_edges(bundle)
    planted_across_equal_sizes = 0
    for c1, c2 in itertools.combinations(range(len(subgroups)), 2):
        equal = len(subgroups[c1]) == len(subgroups[c2])
        for x in gens[c1]:
            for y in gens[c2]:
                if bundle.epg.has_edge(x, y):
                    continue
                planted = _with_edge(bundle, x, y)
                # only an edge between classes of one subgroup size breaks T2.1
                assert t21(planted) == pairwise_no_cross_edges(planted) == (not equal)
                planted_across_equal_sizes += equal
    assert planted_across_equal_sizes
