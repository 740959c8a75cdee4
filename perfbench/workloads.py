"""The four benchmark workloads: README experiment recipes at benchmark size.

Each workload is one CLI command.  Sizes are the README desk-scale recipes
cut down so that one command takes about a second on a 2-core machine, which
gives a run of 20 s enough samples for a steady median.  The seed is the only
input that varies between runs; it reaches the program as `--seed`.

Each workload also has a speed probe: a fixed slice of its reference
computation (oracle.py, which imports nothing from the program), seed 0,
about 40 ms.  It has the command's mix of interpreter work and numpy calls,
so timing it next to each command measures how fast the machine runs that
kind of work at that moment; run.py scales timings by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str              # problem id, resolved by setup_s
    args: tuple[str, ...]     # CLI arguments without --seed and --out
    items: int                # trajectories, samples or inits per command
    expected: Callable[[int], dict]   # seed -> {file: (schema, header, rows)}
    failed: Callable[[dict], int]     # output tables -> failed items
    probe: Callable[[], object]       # fixed oracle work shaped like one command
    probe_reference_s: float          # probe's time on the reference machine


def _blank(table: dict, column: str) -> int:
    return int(np.count_nonzero(~np.isfinite(table[column].astype(float))))


SPECTRA_INITS = 200
DERIV_SAMPLES = 5000
MSWEEP_M = (1, 2, 3, 4, 5, 6)
MSWEEP_INITS = 10
KRYLOV_INITS = 50

WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectra-2x2",
        why="FP vs AA(1) sigma spectra at n = 2: per-step interpreter overhead "
            "in accelerators and linalg, never augmented",
        problem="linear2x2",
        args=("sweep", "--problem", "linear2x2", "--scheme", "aa", "--m", "1",
              "--box=-0.25,0.25", "--inits", str(SPECTRA_INITS)),
        items=2 * SPECTRA_INITS,
        expected=lambda seed: oracle.sweep_tables(
            oracle.linear2x2(), np.tile([-0.25, 0.25], (2, 1)), SPECTRA_INITS, seed, 1),
        failed=lambda t: _blank(t["sweep.csv"], "sigma_final"),
        probe=lambda: oracle.sweep_tables(
            oracle.linear2x2(), np.tile([-0.25, 0.25], (2, 1)), 16, 0, 1),
        probe_reference_s=0.044,
    ),
    Workload(
        name="deriv-2x2",
        why="derivative-norm histogram: 3 SVDs per sample in augmented and a "
            "CSV row per sample, never accelerators",
        problem="linear2x2",
        args=("deriv-hist", "--problem", "linear2x2", "--m", "1",
              "--samples", str(DERIV_SAMPLES)),
        items=DERIV_SAMPLES,
        expected=lambda seed: oracle.derivnorm_tables(oracle.linear2x2(), 1, DERIV_SAMPLES, seed),
        failed=lambda t: _blank(t["derivnorms.csv"], "norm"),
        probe=lambda: oracle.derivnorm_tables(oracle.linear2x2(), 1, 600, 0),
        probe_reference_s=0.042,
    ),
    Workload(
        name="msweep-200",
        why="m-sweep at n = 200: windowed and restarted AA with windows up to 6, "
            "dense matvecs and 200 x m SVDs",
        problem="linear200:-0.9,0.7,-0.7",
        args=("msweep", "--problem", "linear200:-0.9,0.7,-0.7",
              "--m-values", ",".join(map(str, MSWEEP_M)), "--inits", str(MSWEEP_INITS)),
        items=2 * len(MSWEEP_M) * MSWEEP_INITS,
        expected=lambda seed: oracle.msweep_tables(
            oracle.linear200(-0.9, 0.7, -0.7), MSWEEP_M, MSWEEP_INITS, seed),
        # a blank worst_sigma means every init of that (m, scheme) failed
        failed=lambda t: MSWEEP_INITS * _blank(t["msweep.csv"], "worst_sigma"),
        probe=lambda: oracle.msweep_tables(oracle.linear200(-0.9, 0.7, -0.7), (1, 4), 2, 0),
        probe_reference_s=0.040,
    ),
    Workload(
        name="krylov-200",
        why="AA(1)/AA(inf)/GMRES at n = 200: the only gmres_run caller and the "
            "only 200 x 60 least-squares solves",
        problem="linear200",
        args=("gmres-compare", "--problem", "linear200", "--m", "1", "--k-max", "10",
              "--iters", "60", "--inits", str(KRYLOV_INITS)),
        items=KRYLOV_INITS,
        expected=lambda seed: oracle.gmres_compare_tables(
            oracle.linear200(-0.3, 0.3, -0.3), 1, 10, 60, KRYLOV_INITS, seed),
        failed=lambda t: int(np.count_nonzero(
            t["gmres_compare_deviation.csv"]["stagnated"] == "True")),
        probe=lambda: oracle.gmres_compare_tables(
            oracle.linear200(-0.3, 0.3, -0.3), 1, 10, 60, 3, 0),
        probe_reference_s=0.040,
    ),
)}
