#!/usr/bin/env python3
"""epgraph benchmark: three workloads, end-to-end metrics and a layer-traced run.

    python3 bench/run.py --workload query-512 --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each exists):

  verify-256  `epgraph verify --theorem all --max-order 256` through
              epgraph.cli.main, in-process; one operation is one whole run.
  query-512   what `epgraph check --group S` and `check --deleted` do, for
              a seeded half of the roster specs of order 257-512.
  ingest-256  what `epgraph ingest` does, for every roster group of order
              33-256 relabelled by a seeded permutation, plus a seeded
              quarter of corrupted copies that must be rejected by law.

The timed phase repeats passes over the workload's inputs until --seconds
have gone by (at least one pass); a single client, one process, no
threads. Each output is checked outside the timed region against oracles
in bench/oracles.py that share no code with epgraph. With --trace 1 the
run alternates untraced and traced passes and reports per-layer figures
instead of end-to-end ones. --smoke shrinks every workload to a few
seconds with every gate still on.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
the ones BENCHMARK.json declares. Exit status: 0 when every output was
correct, 1 when a gate failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

CHECK_IDS = ("T2.1", "T2.2", "C2.3", "T2.4", "T3.1", "T3.2", "T3.3", "T3.4",
             "T4.1", "T4.2", "T5.1", "T5.2", "T5.3", "T5.4")
ONE_WAY = {"T3.1", "T3.4", "T5.2"}  # "implies" checks; the rest are "iff"
FAMILIES = ("cyclic", "product", "dihedral", "dicyclic", "metacyclic", "perm")
LAYERS = ("cli", "specs", "groups", "cayley_io", "cyclic", "epg", "analysis",
          "planarity", "theorems", "bench")
# spans reported by inclusive time, besides one per theorem check
SPANS = ("cli.main", "specs.parse_spec", "groups.realize", "groups.from_table",
         "cayley_io.parse", "cayley_io.ingest", "cyclic.build_lattice", "epg.build_epg",
         "epg.build_deleted", "analysis.analyze", "analysis.analyze_deleted",
         "planarity.verdict", "theorems.bundle")
SETUP_REPEATS = 3
MAX_REPORTED_PROBLEMS = 20

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import epgraph; "
                "print(time.perf_counter() - t)")


def load_epgraph() -> float:
    """Import epgraph from this checkout's src/; returns the seconds it took."""
    if not (SRC / "epgraph" / "__init__.py").is_file():
        cannot_run(f"no epgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import epgraph
    elapsed = time.perf_counter() - start
    if Path(epgraph.__file__).resolve().parent != (SRC / "epgraph").resolve():
        cannot_run(f"imported epgraph from {epgraph.__file__}, not {SRC}")
    return elapsed


def cannot_run(why: str):
    print(f"bench: {why}", file=sys.stderr)
    raise SystemExit(2)


def import_seconds(samples: int) -> list[tuple[float, float, float]]:
    """Fresh-interpreter import times of epgraph, one child process at a time.

    Each sample is (start, end, seconds) with the child's own figure, so it
    can be scaled by the machine speed seen around it.
    """
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append((start, time.perf_counter(), float(done.stdout.strip().splitlines()[-1])))
    return out


class Stopwatch:
    """Intervals measured while the speed probe runs, minus the probe's own time."""

    def __init__(self, probe: speed.SpeedProbe | None):
        self.probe = probe

    def time(self, fn, *args):
        spent = self.probe.spent if self.probe else 0.0
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        took = end - start - ((self.probe.spent - spent) if self.probe else 0.0)
        return result, (start, end, took)

    def scaled(self, interval: tuple[float, float, float]) -> float:
        """Seconds at the reference speed; raw seconds when the probe is off."""
        start, end, took = interval
        return took * self.probe.factor(start, end) if self.probe else took


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def order_of(spec) -> int:
    known = spec.known_order()
    return known if known is not None else oracles.group_table(spec.family, spec.params).shape[0]


# -- workloads ------------------------------------------------------------------
#
# A workload builds its inputs as a list of (request id, payload) items,
# runs one payload (the timed operation) and checks the result. ``units``
# is the work one item stands for in ops_per_s.


class Verify:
    name = "verify-256"

    def __init__(self, smoke: bool):
        from epgraph import cli, theorems
        self.cli, self.theorems = cli, theorems
        self.bound = 24 if smoke else 256
        self.units = 1

    def build(self, seed: int) -> list:
        del seed  # the roster is deterministic
        roster = self.theorems.roster_generate(self.bound)
        products = self.theorems.CHECKS_BY_ID["T3.1"].roster(self.bound)
        self.units = len({s.serialize() for s in roster + products})
        argv = ["verify", "--theorem", "all", "--max-order", str(self.bound)]
        return [(f"verify:{self.bound}", argv)]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check(self, argv, result, counters: Counter) -> list[str]:
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        seen = set()
        for line in text.splitlines():
            report = json.loads(line)
            cid = report["theorem"]
            seen.add(cid)
            counters[f"theorems.{cid}.tested"] += report["tested"]
            if report["counterexamples"] or report["passed"] != report["tested"]:
                problems.append(f"{cid}: counterexamples {report['counterexamples'][:3]}")
            if report["vacuous"] and cid not in ONE_WAY:
                problems.append(f"{cid}: vacuous iff check")
        if seen != set(CHECK_IDS):
            problems.append(f"reported checks {sorted(seen)}")
        return problems


class Query:
    name = "query-512"
    units = 1

    def __init__(self, smoke: bool):
        from epgraph import analysis, epg, specs, theorems
        self.analysis, self.epg, self.specs, self.theorems = analysis, epg, specs, theorems
        self.lo, self.hi = (13, 24) if smoke else (257, 512)

    def build(self, seed: int) -> list:
        """One spec from each neighbouring pair of the roster sorted by family and order.

        Neighbours cost about the same, so the seed changes which groups run
        but hardly the pass's cost; a plain random draw of a few hundred
        made the seed the largest source of spread.
        """
        rng = random.Random(seed)
        specs = sorted((s for s in self.theorems.roster_generate(self.hi)
                        if order_of(s) >= self.lo), key=lambda s: (s.family, order_of(s)))
        chosen = [rng.choice(specs[i:i + 2]) for i in range(0, len(specs), 2)]
        items = [(s.serialize(), (s.serialize(), order_of(s), rng.getrandbits(32)))
                 for s in chosen]
        rng.shuffle(items)
        return items

    def run(self, payload):
        spec = self.specs.parse_spec(payload[0])
        bundle = self.epg.build_bundle(spec.realize())
        full = json.dumps(self.analysis.analyze(bundle).to_dict())
        deleted = json.dumps(self.analysis.analyze(bundle, deleted=True).to_dict())
        return bundle, full, deleted

    def check(self, payload, result, counters: Counter) -> list[str]:
        from epgraph import adjacent_oracle
        text, n, pair_seed = payload
        bundle, full, deleted = result
        group = bundle.group
        if group.order != n:
            return [f"{text}: order {group.order}, expected {n}"]
        table = np.asarray(group.table)
        orders = oracles.element_orders(table)
        problems = []
        if list(group.orders) != orders:
            problems.append(f"{text}: element orders differ from the oracle")
        got, got_deleted = json.loads(full), json.loads(deleted)
        for fields, want in ((got, oracles.predicted_fields(orders)),
                             (got_deleted, oracles.predicted_deleted_fields(orders))):
            problems += [f"{text}: {k}={fields[k]}, theorems say {v}"
                         for k, v in want.items() if fields[k] != v]
        rng = random.Random(pair_seed)
        x, y = rng.sample(range(1, n), 2)
        pairs = [(x, y)]
        if int(table[x, x]) not in (0, x):
            pairs.append((x, int(table[x, x])))
        for a, b in pairs:
            if bundle.epg.has_edge(a, b) != adjacent_oracle(group, a, b):
                problems.append(f"{text}: edge {a}-{b} disagrees with adjacent_oracle")
        return problems


class Ingest:
    name = "ingest-256"
    units = 1

    def __init__(self, smoke: bool):
        from epgraph import analysis, cayley_io, epg, errors, theorems
        self.analysis, self.cayley_io, self.epg = analysis, cayley_io, epg
        self.errors, self.theorems = errors, theorems
        self.lo, self.hi = (8, 24) if smoke else (33, 256)

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        specs = [s for s in self.theorems.roster_generate(self.hi) if order_of(s) >= self.lo]
        tables = {s.serialize(): oracles.group_table(s.family, s.params) for s in specs}

        def text_for(name, table, note):
            n = table.shape[0]
            perm = list(range(n))
            while perm[0] == 0:  # keep the identity away from index 0
                rng.shuffle(perm)
            relabelled = oracles.relabel(table, np.array(perm))
            return relabelled, oracles.render_cayley(relabelled, f"{name} {note}")

        items = []
        for name, table in tables.items():
            _, text = text_for(name, table, "relabelled")
            items.append((name, (text, ("accept", sorted(oracles.element_orders(table))))))
        even = [name for name, t in tables.items() if t.shape[0] % 2 == 0]
        for i in range(max(len(oracles.LAWS), len(tables) // 4)):
            law = oracles.LAWS[i % len(oracles.LAWS)]
            name = rng.choice(even if law == "associativity" else list(tables))
            for _ in range(50):
                bad, text = text_for(name, oracles.corrupt(tables[name], law, rng), law)
                if oracles.violated_law(bad) == law:
                    break
            else:
                raise RuntimeError(f"could not corrupt {name} to break {law} alone")
            items.append((name, (text, ("reject", law))))
        rng.shuffle(items)
        return items

    def run(self, payload):
        try:
            group = self.cayley_io.ingest_cayley(payload[0])
        except self.errors.GroupError as exc:
            return "reject", getattr(exc, "law", None), str(exc)
        bundle = self.epg.build_bundle(group)
        return "accept", group, json.dumps(self.analysis.analyze(bundle).to_dict())

    def check(self, payload, result, counters: Counter) -> list[str]:
        text, (verdict, expected) = payload
        name = text.split("\n", 1)[0]
        if verdict == "reject":
            if result[0] != "reject" or result[1] != expected:
                return [f"{name}: expected a {expected} rejection, got {result[:2]}"]
            return []
        if result[0] != "accept":
            return [f"{name}: rejected a group table: {result[1]} ({result[2]})"]
        group, report = result[1], json.loads(result[2])
        if sorted(group.orders) != expected:
            return [f"{name}: element orders differ from the un-relabelled table"]
        return [f"{name}: {k}={report[k]}, theorems say {v}"
                for k, v in oracles.predicted_fields(expected).items() if report[k] != v]


WORKLOADS = {w.name: w for w in (Verify, Query, Ingest)}


# -- timed passes -----------------------------------------------------------------


class Pass:
    def __init__(self):
        self.latencies: list[float] = []  # seconds at the reference speed
        self.raw: list[float] = []  # seconds as measured
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.counters: Counter = Counter()
        self.layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(wl, items, watch: Stopwatch, tracer, problems: list[str]) -> Pass:
    """One pass over the items; only the operation itself is timed."""
    result = Pass()
    op = lambda item: wl.run(item[1])  # noqa: E731
    restore = None
    if tracer is not None:
        tracer.reset()
        restore = tracing.install(tracer)
        op = tracer.wrap("bench.op", op, rid=lambda a, k: a[0][0])
    intervals = []
    try:
        for item in items:
            result.attempted += 1
            try:
                out, interval = watch.time(op, item)
            except Exception:  # an operation that raises is a failed operation
                result.failed += 1
                problems.append(f"{item[0]}: raised\n{traceback.format_exc()}")
                continue
            intervals.append(interval)
            result.units += wl.units
            found = wl.check(item[1], out, result.counters)
            del out
            if found:
                result.failed += 1
                problems.extend(found)
    finally:
        if restore is not None:
            restore()
    result.raw = [took for _, _, took in intervals]
    result.latencies = [watch.scaled(i) for i in intervals]
    if tracer is not None:
        result.layers = tracer.summary(sum(result.raw))
        result.counters.update(tracer.counts)
        result.counters["theorems.bundles_live"] = tracer.peak_live
    return result


def layer_metrics(traced: list[Pass], untraced: list[Pass], spans: int) -> dict:
    """Per-layer figures: medians over traced passes, counters from the first."""
    def med(get):
        return statistics.median(get(p.layers) for p in traced)

    out = {}
    for name in SPANS + tuple(f"theorems.{cid}" for cid in CHECK_IDS):
        out[f"{name}_s"] = med(lambda lay: lay["total"].get(name, 0.0))
    for fam in FAMILIES:
        out[f"groups.realize_s.{fam}"] = med(lambda lay: lay["family"].get(fam, 0.0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(lambda lay: lay["self"].get(layer, 0.0))
    counts = traced[0].counters
    for key in ([f"cayley_io.rejects.{law}" for law in oracles.LAWS]
                + ["cyclic.subgroups", "epg.edges", "planarity.rejects.edge-count",
                   "planarity.rejects.left-right", "theorems.bundles_live"]
                + [f"theorems.{cid}.tested" for cid in CHECK_IDS]):
        out[key] = counts.get(key, 0)
    traced_wall = statistics.median(sum(p.raw) for p in traced)
    untraced_wall = statistics.median(sum(p.raw) for p in untraced)
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": med(lambda lay: lay["coverage"]),
        "trace.spans": spans,
    })
    return out


def end_to_end_metrics(untraced: list[Pass], setup_s: float, ok_ratio: float) -> dict:
    latencies = sorted(x for p in untraced for x in p.latencies) or [0.0]  # all failed
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in untraced),
        "ops_per_s": sum(p.units for p in untraced) / max(sum(p.wall for p in untraced), 1e-12),
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p90_ms": percentile(latencies, 0.90) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": ok_ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few seconds per workload: roster bound 24, one pass")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    probe = speed.SpeedProbe()
    probe.start()
    watch, raw_watch = Stopwatch(probe), Stopwatch(None)
    _, first_import = watch.time(load_epgraph)
    wl = WORKLOADS[args.workload](args.smoke)
    builds = []
    items = None
    for _ in range(SETUP_REPEATS):
        items = None  # let the previous inputs go before building the next
        items, interval = watch.time(wl.build, args.seed)
        builds.append(interval)
    # Set-up is too short and too entangled with child processes for the
    # probe to follow, so setup_s is raw seconds.
    imports = [first_import] + import_seconds(SETUP_REPEATS - 1)
    setup_s = (statistics.median(took for _, _, took in imports)
               + statistics.median(took for _, _, took in builds))

    # Traced passes run with the probe paused, so spans hold only epgraph's time.
    problems: list[str] = []
    tracer = tracing.Tracer() if args.trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(wl, items, watch, None, problems))
        if tracer is not None:
            probe.stop()
            traced.append(run_pass(wl, items, raw_watch, tracer, problems))
            probe.start()
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    probe.stop()
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    # Exact counters must repeat pass for pass: the inputs are the same.
    for group in (untraced, traced):
        for p in group[1:]:
            if p.counters != group[0].counters:
                failed += 1
                diff = {k for k in p.counters.keys() | group[0].counters.keys()
                        if p.counters.get(k) != group[0].counters.get(k)}
                problems.append(f"counters changed between passes: {sorted(diff)}")

    if tracer is not None:
        values = layer_metrics(traced, untraced, len(tracer.spans))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl", sum(traced[-1].raw))
        if tracer.missing:
            print(f"# not traced (absent in this epgraph): {', '.join(tracer.missing)}")
    else:
        values = end_to_end_metrics(untraced, setup_s, (attempted - failed) / max(attempted, 1))

    for line in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"bench: FAIL {line}", file=sys.stderr)
    if len(problems) > MAX_REPORTED_PROBLEMS:
        print(f"bench: ... {len(problems) - MAX_REPORTED_PROBLEMS} more", file=sys.stderr)

    samples = sum(len(p.latencies) for p in untraced)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} smoke={args.smoke}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed, {samples} latency samples, "
          f"fail_ratio={failed / max(attempted, 1):.6f}")
    print(f"# raw wall {statistics.median(sum(p.raw) for p in untraced):.4f} s per pass; "
          f"reference-speed factor {probe.mean_factor():.4f} over {len(probe.took)} probe "
          f"samples (p10/p50/p90 ms: {probe.sample_quantiles()})")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"#   {m['name']:<32} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
