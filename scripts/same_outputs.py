#!/usr/bin/env python3
"""Check that the CLI writes the same bytes as at another git revision.

    python3 scripts/same_outputs.py REF

Extracts REF's src/ into a temporary directory (git archive), runs every
command of COMMANDS at every seed of SEEDS against that tree and against this
checkout's src/, each in a fresh process with BLAS on one thread, and
compares the exit code, stdout, stderr and the bytes of every output file.
Prints one line per command and seed and the line count of src/ in REF and
in this checkout, and exits 1 if any command and seed differ.  Uses the
standard library only.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
# CLI arguments without --seed and --out: the four benchmark workloads, the
# full-scale m-sweep and AA-vs-GMRES recipes, the full-scale restarted
# sweep, sweeps on the nonlinear and scalar problems, three single runs
# (the last fails with exit code 3), an AA-vs-GMRES comparison at n = 2,
# where nearly every GMRES row ends in a happy breakdown, a
# derivative-norm histogram at m = n, one whose 100000 samples cross a
# chunk boundary of derivative_norm_samples (65536 samples at n = 2, m = 1),
# a sweep whose rows run to the rounding floor, where rank-deficient
# least-squares problems take the stacked solve's min_norm_lstsq path, and
# a restarted single run at n = 200, the only command whose output bytes
# hold restarted betas (its beta columns go blank after each restart)
COMMANDS = (
    "sweep --problem linear2x2 --scheme aa --m 1 --box=-0.25,0.25 --inits 200",
    "deriv-hist --problem linear2x2 --m 1 --samples 5000",
    "msweep --problem linear200:-0.9,0.7,-0.7 --m-values 1,2,3,4,5,6 --inits 10",
    "gmres-compare --problem linear200 --m 1 --k-max 10 --iters 60 --inits 50",
    "msweep --problem linear200:-0.9,0.7,-0.7 --m-values 1,2,3,4,5,6 --inits 200",
    "gmres-compare --problem linear200 --m 1 --k-max 10 --iters 60 --inits 200",
    "sweep --problem linear200:0.3,-0.3,-0.3 --scheme aa_restarted --m 1 --inits 1000 --box=-1,1",
    "sweep --problem nonlinear2x2 --scheme aa --m 2 --inits 200",
    "sweep --problem scalar --scheme aa --m 1 --box=-2,2 --inits 200",
    "run --problem linear2x2 --scheme aa --m 2 --x0=0.2,0.1",
    "run --problem linear200 --scheme gmres --box=0.1,0.1",
    "run --problem scalar --scheme fp --x0=-1",
    "gmres-compare --problem linear2x2 --m 1 --k-max 10 --iters 60 --inits 200",
    "deriv-hist --problem nonlinear2x2 --m 2 --samples 20000",
    "deriv-hist --problem linear2x2 --m 1 --samples 100000",
    "sweep --problem linear2x2 --scheme aa --m 2 --tol 1e-300 --inits 200",
    "run --problem linear200:-0.9,0.7,-0.7 --scheme aa_restarted --m 3 --box=0.1,0.1",
)


def run(src: Path, args: list[str], workdir: Path) -> dict:
    """The exit code, stdout, stderr and output files of one CLI command run on the tree src."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "anderson_lab.cli", *args, "--out", "out"],
                          cwd=workdir, env=env, capture_output=True)
    out = workdir / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {name}": data for name, data in files.items()}}


def src_lines(src: Path) -> int:
    """The newlines in the package's modules src/anderson_lab/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "anderson_lab").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        differ = 0
        for i, command in enumerate(COMMANDS):
            for seed in SEEDS:
                args = [*shlex.split(command), "--seed", str(seed)]
                ref = run(tmp / "src", args, tmp / f"ref-{i}-{seed}")
                new = run(ROOT / "src", args, tmp / f"new-{i}-{seed}")
                diff = [key for key in sorted(ref.keys() | new.keys()) if ref.get(key) != new.get(key)]
                differ += bool(diff)
                verdict = "DIFFER: " + ", ".join(diff) if diff else f"same (exit {new['exit code']})"
                print(f"{command} --seed {seed}: {verdict}", flush=True)
        ref_lines, new_lines = src_lines(tmp / "src"), src_lines(ROOT / "src")
        print(f"src/ lines: {ref_lines} at {argv[0]}, {new_lines} in this checkout")
    print(f"{differ} of {len(COMMANDS) * len(SEEDS)} command/seed pairs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
