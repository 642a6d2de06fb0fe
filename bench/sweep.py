#!/usr/bin/env python3
"""Run every workload over several seeds and summarize each metric.

    python3 bench/sweep.py --seeds 1-10                  # end-to-end, all workloads
    python3 bench/sweep.py --workloads query-512 --seeds 1-5 --trace 1
    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json

Each (workload, seed) runs bench/run.py in its own child process, one
after another, so peak RSS stays per workload. For every metric the
summary gives the median, the quartiles from statistics.quantiles(n=4)
and the spread (q3 - q1) / median; for an end-to-end metric the spread
is flagged when it is not below a third of the bound in BENCHMARK.json.
The exit status is 1 when any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None or done.returncode != 0 or not result["correct"]:
                all_correct = False
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            if result is not None:
                runs.append(result)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if not runs:
            continue
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"])
        summary["workloads"][workload] = {
            "seeds": seed_list(args.seeds), "metrics": metrics,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        print(f"== {workload}: {len(runs)} runs")
        for name, m in metrics.items():
            flag = ""
            if name in bounds and name != "setup_s" and m["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread not below bound/3 ({bounds[name] / 3:.4f})"
            print(f"   {name:<32} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} "
                  f"q3 {m['q3']:<14.6g} spread {m['spread']:.4f} {m['unit']}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
