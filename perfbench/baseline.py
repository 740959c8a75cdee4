"""Repeat the benchmark over seeds and summarise it, for a baseline or a comparison.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload this makes --runs untraced runs, each with another seed,
and one traced run at seed 7.  For each end-to-end metric it records the
median, the quartiles and the spread (p75 - p25) / median over the runs,
which is the quantity the benchmark's bounds are compared with; for the
traced run it records every per-layer metric.  Runs go one after another, in
separate processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, environment record) of one run.py process."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "p25": q1, "p75": q3, "n": len(values),
            "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    report = {"runs": args.runs, "seconds": args.seconds,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in report["seeds"]:
            result, env = one_run(name, seed, args.seconds, 0)
            report.setdefault("env", env)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        traced, _ = one_run(name, 7, args.seconds, 1)
        report["workloads"][name] = {
            "failed_frac": failed / attempted,
            "end_to_end": {metric: summarise(v) for metric, v in values.items()},
            "per_layer_seed7": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in report["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
