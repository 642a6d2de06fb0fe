"""Tests of the benchmark itself: oracles, gates, contract and smoke runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from epgraph import parse_cayley_text, parse_spec, roster_generate  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_ROSTER = roster_generate(24)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("spec", SMALL_ROSTER, ids=lambda s: s.serialize())
def test_oracle_tables_are_the_roster_groups(spec):
    table = oracles.group_table(spec.family, spec.params)
    assert oracles.violated_law(table) is None
    assert table[0].tolist() == list(range(table.shape[0]))
    assert sorted(oracles.element_orders(table)) == sorted(spec.realize().orders)


@pytest.mark.parametrize("law", oracles.LAWS)
def test_corrupt_breaks_the_named_law_first(law):
    rng = random.Random(7)
    for spec in ("cyclic:12", "dihedral:6", "dicyclic:3", "product:cyclic:2,cyclic:4"):
        s = parse_spec(spec)
        table = oracles.group_table(s.family, s.params)
        assert oracles.violated_law(oracles.corrupt(table, law, rng)) == law


def test_rendered_text_parses_back_relabelled():
    table = oracles.group_table("dicyclic", (3,))
    perm = np.array([5, 0, 1, 2, 3, 4, 11, 10, 9, 8, 7, 6])
    relabelled = oracles.relabel(table, perm)
    assert oracles.violated_law(relabelled) is None
    assert oracles.identity_of(relabelled) == 5
    text = oracles.render_cayley(relabelled, "Dic3")
    assert parse_cayley_text(text) == relabelled.tolist()


def test_gates_reject_wrong_outputs():
    query = run.Query(smoke=True)
    payload = query.build(1)[0][1]
    bundle, full, deleted = query.run(payload)
    assert query.check(payload, (bundle, full, deleted), Counter()) == []
    flipped = json.loads(full)
    flipped["planar"] = not flipped["planar"]
    assert query.check(payload, (bundle, json.dumps(flipped), deleted), Counter())

    ingest = run.Ingest(smoke=True)
    items = [payload for _, payload in ingest.build(1)]
    bad = next(p for p in items if p[1][0] == "reject")
    good = next(p for p in items if p[1][0] == "accept")
    assert ingest.check(bad, ingest.run(bad), Counter()) == []
    assert ingest.check(bad, ingest.run(good), Counter())
    assert ingest.check(good, ("reject", bad[1][1], "wrong"), Counter())

    verify = run.Verify(smoke=True)
    report = {"theorem": "T2.4", "tested": 3, "passed": 2, "vacuous": False,
              "counterexamples": [{"spec": "cyclic:2"}], "ms": 1.0}
    assert verify.check([], (1, json.dumps(report)), Counter())


def test_benchmark_json_meets_its_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= DECLARED["run_seconds"] <= 60
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(name_re.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in DECLARED["workloads"]} == set(run.WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_its_gates(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.8


def test_counters_repeat_exactly_between_runs():
    def counts():
        done = bench("--workload", "ingest-256", "--seed", "5", "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts()
    assert first["cayley_io.rejects.associativity"] >= 1
    assert counts() == first


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "query-512", "--seed", "1", "--smoke", cwd=tmp_path)
    assert done.returncode == 2
    assert not done.stdout.strip().endswith("}")
