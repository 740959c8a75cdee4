"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import run
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("seed", run.REFERENCE_SEEDS)
def test_oracle_reproduces_stored_reference(name, seed):
    stored = gate.load_tables(HERE / "reference" / f"{name}-seed{seed}.npz")
    expected = WORKLOADS[name].expected(seed)
    assert sorted(stored) == sorted(expected)
    for fname, spec in expected.items():
        table = gate.table_from_rows(*spec)
        assert gate.compare(stored[fname], table, fname) == []
        for col in table["#columns"]:  # bit for bit, not merely within TOL
            np.testing.assert_array_equal(table[col], stored[fname][col])


def test_gate_rejects_small_changes():
    ref = gate.load_tables(HERE / "reference" / "spectra-2x2-seed7.npz")["sweep.csv"]
    nudged = dict(ref, sigma_final=ref["sigma_final"] * (1 + 1e-10))
    assert gate.compare(ref, nudged, "sweep.csv")
    dropped = dict(ref, sigma_final=np.where(np.arange(len(ref["init_id"])) == 3,
                                             np.nan, ref["sigma_final"]))
    assert gate.compare(ref, dropped, "sweep.csv")
    relabelled = dict(ref, converged=np.where(ref["converged"] == "True", "False", "True"))
    assert gate.compare(ref, relabelled, "sweep.csv")
    assert gate.compare(ref, dict(ref), "sweep.csv") == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counters_repeat_at_one_seed(name, tmp_path):
    counted = []
    for i in range(2):
        runner = run.Runner(WORKLOADS[name], 7, tmp_path / str(i), ROOT / "src")
        tracer = Tracer()
        runner.command(tracer)
        metrics = run.layer_metrics(tracer, runner.bytes_written())
        counted.append({k: metrics[k] for k in run.EXACT_LAYER})
    assert {"accelerators.steps", "problems.q.calls", "linalg.anderson_coefficients.calls",
            "linalg.min_norm_lstsq.calls", "accelerators.gmres_run.calls",
            "augmented.directional_derivative.calls", "cli.bytes_written"} <= set(counted[0])
    assert counted[0] == counted[1]
    assert counted[0]["cli.bytes_written"] > 0
    assert counted[0]["linalg.min_norm_lstsq.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deriv-2x2",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
