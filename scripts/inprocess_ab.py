#!/usr/bin/env python3
"""Time the four benchmark commands at another git revision and here, in one process.

    python3 scripts/inprocess_ab.py REF

Extracts REF's src/ into a temporary directory (git archive), imports that
tree as the package ref_anderson_lab and this checkout's src/ as
new_anderson_lab, both in this one process with BLAS on one thread, and runs
the four benchmark commands (perfbench's workloads, written out here) through
each tree's cli.main.  The runs are paired: in each of ROUNDS rounds, every
command runs at seeds 0 .. SEEDS - 1, and each (round, seed) slot runs the
command on both trees back to back, the tree that goes first alternating from
slot to slot.  One untimed run per tree and command comes first.  A pair's
ratio (here / REF) cancels the slow periods of a shared machine that both of
its runs see, which medians taken over whole rounds do not.  Prints, for each
command, the median run time at REF and here, the median and quartiles of the
per-slot changes and the slots in which this checkout was faster.  Uses the
standard library and numpy only.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first loaded
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# the CLI arguments of perfbench's four workloads, without --seed and --out
COMMANDS = {
    "spectra-2x2": "sweep --problem linear2x2 --scheme aa --m 1 --box=-0.25,0.25 --inits 200",
    "deriv-2x2": "deriv-hist --problem linear2x2 --m 1 --samples 5000",
    "msweep-200": "msweep --problem linear200:-0.9,0.7,-0.7 --m-values 1,2,3,4,5,6 --inits 10",
    "krylov-200": "gmres-compare --problem linear200 --m 1 --k-max 10 --iters 60 --inits 50",
}
ROUNDS, SEEDS = 6, 15


def load_cli(name: str, src: Path):
    """The cli module of the package src/anderson_lab, imported as the package name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "anderson_lab" / "__init__.py",
        submodule_search_locations=[str(src / "anderson_lab")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def timed(cli, args: list[str], out: Path) -> float:
    """The wall time of one cli.main command, which must exit 0, in seconds."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        rc = cli.main([*args, "--out", str(out)])
        elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"{' '.join(args)} exited {rc}")
    return elapsed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref, "src"],
                                 check=True, capture_output=True).stdout
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive, check=True)
        trees = {"ref": load_cli("ref_anderson_lab", tmp / "ref" / "src"),
                 "new": load_cli("new_anderson_lab", ROOT / "src")}
        print(f"python {sys.version.split()[0]}, numpy {np.__version__}, BLAS on one thread; "
              f"{ROUNDS} rounds of {SEEDS} seeds, paired by slot; ref = {args.ref}", flush=True)
        times = {(side, name): [] for side in trees for name in COMMANDS}
        for name, command in COMMANDS.items():
            for side, cli in trees.items():
                timed(cli, [*command.split(), "--seed", "0"], tmp / "out")
        for r in range(ROUNDS):
            for name, command in COMMANDS.items():
                gc.collect()
                for seed in range(SEEDS):
                    first = (r * SEEDS + seed) % 2
                    for side in ("ref", "new")[first:] + ("ref", "new")[:first]:
                        times[side, name].append(timed(
                            trees[side], [*command.split(), "--seed", str(seed)], tmp / "out"))
            print(f"round {r + 1} of {ROUNDS} done", file=sys.stderr, flush=True)
    print(f"{'command':<12} {'ref ms':>8} {'new ms':>8} {'change [q1, q3]':>26} {'wins':>7}")
    for name in COMMANDS:
        ref, new = times["ref", name], times["new", name]
        changes = [(b / a - 1) * 100 for a, b in zip(ref, new)]
        q1, q2, q3 = statistics.quantiles(changes, n=4, method="inclusive")
        wins = sum(c < 0 for c in changes)
        print(f"{name:<12} {statistics.median(ref) * 1e3:8.2f} {statistics.median(new) * 1e3:8.2f}"
              f" {f'{q2:+.1f} % [{q1:+.1f}, {q3:+.1f}]':>26} {f'{wins}/{len(changes)}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
