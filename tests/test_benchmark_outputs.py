"""Every benchmark workload's command writes the tables stored as its reference.

perfbench/run.py refuses a run whose output drifts from
perfbench/reference/<workload>-seed<seed>.npz by more than gate.TOL; this
test runs the same commands at the same seeds through cli.main and compares
them with the same gate, so such a drift fails here first.  The benchmark's
files are loaded read-only by file spec, as tests/test_perfbench_tracer.py
loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from anderson_lab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # a dataclass looks its module up
        spec.loader.exec_module(module)
    return module


gate = _load("gate")
with mock.patch.dict(sys.modules, {"oracle": _load("oracle")}):  # workloads imports it by name
    WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_the_stored_reference(tmp_path, name, seed):
    out = tmp_path / "out"
    assert main([*WORKLOADS[name].args, "--seed", str(seed), "--out", str(out)]) == 0
    stored = gate.load_tables(PERFBENCH / "reference" / f"{name}-seed{seed}.npz")
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(stored)
    problems = [p for f, table in stored.items()
                for p in gate.compare(table, gate.read_table(out / f), f)]
    assert not problems
