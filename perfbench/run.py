"""Benchmark of the anderson-lab CLI on four README experiment recipes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectra-2x2 --seed 7 --seconds 20 --trace 0

One process runs the workload command through `cli.main` in a closed loop
(each command starts when the previous one has finished) for --seconds, after
one warm-up command.  Every command's output must match the reference
outputs (oracle.py, and the stored references for the seeds that have them)
within gate.TOL; a run that fails the gate prints no timings and exits 1.

--trace 0 reports the end-to-end metrics: wall_s, items_per_s, setup_s (fresh
processes) and peak_rss_mb (a fresh process); command and set-up times are
scaled by speed probes that run none of the program's code (README).
--trace 1 alternates untraced and traced commands and reports the per-layer
metrics from the traced ones (tracer.py).  The last stdout line is one JSON
object; the lines before it give quartiles, sample counts and the run
environment, which is also written with the samples to .bench_work/<workload>/.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first loaded, so pin it before any
# import of numpy: one single-threaded process, on a machine with 2 cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_SEEDS = (7, 11)  # seeds with outputs stored from the defining commit
SETUP_REPEATS = 9
MIN_SAMPLES = 3  # timed commands per run, however short --seconds is
SETUP_PROBE_REFERENCE_S = 0.10  # SETUP_PROBE_CODE's time on the reference machine

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> aggregated fields reported for it
LAYER_SPANS = {
    "accelerators.run_scheme": ("calls", "time_s", "self_s"),
    "accelerators.gmres_run": ("calls", "time_s"),
    "accelerators.aa_run": ("calls", "time_s"),
    "accelerators.aa_full_window_vs_gmres_check": ("time_s",),
    "linalg.anderson_coefficients": ("calls", "time_s", "self_s"),
    "linalg.min_norm_lstsq": ("calls", "time_s"),
    "augmented.directional_derivative": ("calls", "time_s", "self_s"),
    "augmented.beta_hat": ("calls", "time_s"),
    "analysis.monte_carlo_sweep": ("time_s", "self_s"),
    "analysis.m_sweep": ("time_s",),
    "analysis.derivative_norm_samples": ("time_s", "self_s"),
    "analysis.estimate_r_factor": ("calls", "time_s"),
    "analysis.sample_inits": ("time_s",),
    "problems.q": ("calls", "time_s"),
    "problems.problem_from_id": ("time_s",),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "time_s": "s", "self_s": "s"}
DERIVED_LAYER = {
    "accelerators.steps": "count",
    "accelerators.step_us": "us",
    "linalg.degenerate_frac": "ratio",
    "linalg.rank_deficient_frac": "ratio",
    "linalg.svd_flops_computed": "flop",
    "cli.bytes_written": "bytes",
    "plots.time_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
PER_LAYER = {**{f"{span}.{f}": FIELD_UNITS[f] for span, fields in LAYER_SPANS.items()
                for f in fields}, **DERIVED_LAYER}
# per-layer metrics that must repeat exactly between runs at one seed
EXACT_LAYER = sorted([n for n, u in PER_LAYER.items() if u in ("count", "flop", "bytes")]
                     + ["linalg.degenerate_frac", "linalg.rank_deficient_frac"])

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import anderson_lab
anderson_lab.problem_from_id(sys.argv[2])
print(time.perf_counter() - t0)
"""

# the same kind of fresh-process import work, without the program
SETUP_PROBE_CODE = """
import time
t0 = time.perf_counter()
import numpy
numpy.linalg.svd(numpy.eye(3))
print(time.perf_counter() - t0)
"""

RSS_CODE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from anderson_lab import cli
rc = cli.main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)
"""


class GateFailure(Exception):
    """The program failed, or its output does not match the reference."""


def _child(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=150)
    if done.returncode != 0:
        raise GateFailure(f"child process exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


def _loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def environment(src: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": openblas,
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "git_sha": git_sha,
        "src_sha256": digest.hexdigest(), "blas_threads": BLAS_THREADS,
    }


class Runner:
    """One workload at one seed: the reference, the gate and the timed commands."""

    def __init__(self, workload, seed: int, work: Path, src: Path):
        from anderson_lab import accelerators, analysis, augmented, cli, linalg, plots
        self.modules = {"accelerators": accelerators, "analysis": analysis,
                        "augmented": augmented, "cli": cli, "linalg": linalg, "plots": plots}
        self.workload = workload
        self.seed = seed
        self.src = src
        self.out = work / "out"
        shutil.rmtree(self.out, ignore_errors=True)
        self.argv = [*workload.args, "--seed", str(seed), "--out", str(self.out)]
        self.expected = {f: gate.table_from_rows(*spec)
                         for f, spec in workload.expected(seed).items()}
        self.stored = None
        if seed in REFERENCE_SEEDS:
            self.stored = gate.load_tables(HERE / "reference" / f"{workload.name}-seed{seed}.npz")
        self.digest = None
        self.failed_items = 0

    def command(self, tracer: Tracer | None = None) -> float:
        """One closed-loop command; returns its wall time after checking its output."""
        cli = self.modules["cli"]
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            rc = cli.main(self.argv)
            wall = time.perf_counter() - t0
        else:
            saved = tracer.install(self.modules)
            try:
                t0 = time.perf_counter()
                rc = tracer.call("cli.main", cli.main, self.argv)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall(saved)
        if rc != 0:
            raise GateFailure(f"command exited {rc}: {' '.join(self.argv)}")
        self._check_output()
        return wall

    def _output_digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def _check_output(self) -> None:
        digest = self._output_digest()
        if digest == self.digest:
            return  # byte-identical to an output that passed the gate
        if self.digest is not None:
            raise GateFailure("output bytes changed between commands at one seed")
        problems = []
        tables = {f: gate.read_table(self.out / f) for f in self.expected}
        for f, table in tables.items():
            problems += gate.compare(self.expected[f], table, f"{f} vs oracle")
            if self.stored is not None:
                problems += gate.compare(self.stored[f], table, f"{f} vs stored seed {self.seed}")
        if problems:
            raise GateFailure("\n".join(problems))
        self.digest = digest
        self.failed_items = self.workload.failed(tables)

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Set-up times of SETUP_REPEATS fresh processes, and the set-up probes
        (fresh processes that only import numpy) run before, between and after them."""
        probes, times = [float(_child(SETUP_PROBE_CODE))], []
        for _ in range(SETUP_REPEATS):
            times.append(float(_child(SETUP_CODE, str(self.src), self.workload.problem)))
            probes.append(float(_child(SETUP_PROBE_CODE)))
        return times, probes

    def peak_rss_mb(self) -> float:
        out = self.out.parent / "rss_out"
        kib = _child(RSS_CODE, str(self.src), *self.argv[:-1], str(out))
        return int(kib) / 1024.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced command, except trace.overhead_frac."""
    agg = tracer.aggregate()
    metrics = {f"{span}.{f}": agg[span][f]
               for span, fields in LAYER_SPANS.items() for f in fields}
    counters = tracer.counters
    steps = counters["accelerators.steps"]
    ac_calls = agg["linalg.anderson_coefficients"]["calls"]
    main = agg["cli.main"]
    metrics.update({
        "accelerators.steps": steps,
        "accelerators.step_us": 1e6 * agg["accelerators.run_scheme"]["time_s"] / steps
        if steps else 0.0,
        "linalg.degenerate_frac": counters["linalg.degenerate"] / ac_calls if ac_calls else 0.0,
        "linalg.rank_deficient_frac":
            counters["linalg.rank_deficient"] / ac_calls if ac_calls else 0.0,
        "linalg.svd_flops_computed": counters["linalg.svd_flops"],
        "cli.bytes_written": bytes_written,
        "plots.time_s": agg["plots.line_chart"]["time_s"] + agg["plots.bar_chart"]["time_s"],
        "trace.coverage_frac": 1.0 - main["self_s"] / main["time_s"],
    })
    return metrics


def speed_probe(workload) -> float:
    """Seconds the workload's probe takes now: how fast the machine runs its kind of work.

    On a shared machine that speed drifts by up to 1.7x over seconds (both
    cores alike, CPU time equal to wall time), far more than any bound a
    benchmark could hold, so command times are scaled by the probe (README).
    """
    t0 = time.perf_counter()
    workload.probe()
    return time.perf_counter() - t0


def scaled(samples: list[float], probes: list[float], reference_s: float) -> list[float]:
    """Each sample in reference-machine seconds: sample * reference_s / probe,
    with probe the mean of the speed probes taken just before and just after it."""
    return [t * reference_s / (0.5 * (before + after))
            for t, before, after in zip(samples, probes, probes[1:])]


def measure(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Warm up, then run commands for `seconds` with a speed probe between them.

    Returns the raw wall times and the probes (one more than the walls).
    """
    runner.command()
    walls, probes = [], [speed_probe(runner.workload)]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_SAMPLES:
        walls.append(runner.command())
        probes.append(speed_probe(runner.workload))
    return walls, probes


def measure_traced(runner: Runner, seconds: float):
    """Warm up, then alternate untraced and traced commands for `seconds`.

    Alternating puts both at the same machine speed, so the ratio of their
    medians is the tracing overhead.  Returns (untraced walls, traced walls,
    per-layer metrics, the last command's tracer).
    """
    runner.command()
    walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_SAMPLES:
        walls.append(runner.command())
        tracer = Tracer()
        traced_walls.append(runner.command(tracer))
        layers.append(layer_metrics(tracer, runner.bytes_written()))
    for name in EXACT_LAYER:
        if len({m[name] for m in layers}) != 1:
            raise GateFailure(f"exact counter {name} differs between traced commands")
    metrics = {name: layers[0][name] if name in EXACT_LAYER
               else statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(walls) - 1.0)
    return walls, traced_walls, metrics, tracer


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the record whose 'summary' is the result line."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    work = Path.cwd() / ".bench_work" / workload_name
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name]
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "env": environment(src), "loadavg_start": _loadavg()}
    runner = Runner(workload, seed, work, src)
    if traced:
        walls, traced_walls, metrics, tracer = measure_traced(runner, seconds)
        tracer.write(work / f"spans-seed{seed}.csv")
        record.update(walls_raw=walls, traced_walls_raw=traced_walls)
        commands = 2 * len(walls)
        units = PER_LAYER
    else:
        setup, setup_probes = runner.setup_seconds()
        rss = runner.peak_rss_mb()
        walls, probes = measure(runner, seconds)
        record.update(setup_raw=setup, setup_probes=setup_probes,
                      setup_scaled=scaled(setup, setup_probes, SETUP_PROBE_REFERENCE_S),
                      walls_raw=walls, probes=probes,
                      walls_scaled=scaled(walls, probes, workload.probe_reference_s))
        wall_s = statistics.median(record["walls_scaled"])
        metrics = {"wall_s": wall_s, "items_per_s": workload.items / wall_s,
                   "setup_s": statistics.median(record["setup_scaled"]), "peak_rss_mb": rss}
        commands = len(walls)
        units = END_TO_END
    record["loadavg_end"] = _loadavg()
    record["summary"] = {
        "correct": True,
        "attempted": workload.items * commands,
        "failed": runner.failed_items * commands,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (work / f"result-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "anderson_lab" / "__init__.py").is_file():
        print("run from the root of an anderson-lab checkout: src/anderson_lab is missing",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        items = WORKLOADS[args.workload].items
        print(json.dumps({"correct": False, "attempted": items, "failed": items, "metrics": {}}))
        return 1
    print(f"# env {json.dumps(record['env'])}")
    print(f"# loadavg start {record['loadavg_start']} end {record['loadavg_end']}")
    for label in ("walls_scaled", "walls_raw", "probes", "setup_scaled", "setup_raw",
                  "setup_probes", "traced_walls_raw"):
        if label in record:
            q1, q2, q3 = statistics.quantiles(record[label], n=4)
            print(f"# {label} median {q2:.6f} p25 {q1:.6f} p75 {q3:.6f} n {len(record[label])}")
    summary = record["summary"]
    print(f"# failed_frac {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']} of {summary['attempted']} items)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
