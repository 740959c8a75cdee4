"""The benchmark's tracer (perfbench/tracer.py) patches package names by getattr.

A name it patches that the package no longer binds makes `perfbench/run.py
--trace 1` raise AttributeError, so every one of them must resolve, and a
traced command of each subcommand must run and record its spans.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from anderson_lab import accelerators, analysis, augmented, cli, linalg, plots
from anderson_lab.problems import AffineSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"accelerators": accelerators, "analysis": analysis, "augmented": augmented,
           "cli": cli, "linalg": linalg, "plots": plots}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the tracer imports the standard library only
    return module


def test_every_patched_name_resolves():
    tracer = _load_tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.PATCHES
               if not hasattr(MODULES[mod], attr)]
    assert not missing


def test_install_and_uninstall_restore_every_name():
    # install also patches the names whose problems get a traced q
    tracer = _load_tracer()
    before = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in tracer.PATCHES}
    saved = tracer.Tracer().install(MODULES)
    tracer.Tracer.uninstall(saved)
    assert all(getattr(MODULES[mod], attr) is fn for (mod, attr), fn in before.items())


# one tiny command per subcommand and the span of the layer it runs
_COMMANDS = [
    (["sweep", "--problem", "linear2x2", "--scheme", "aa", "--m", "1", "--box=-0.25,0.25",
      "--inits", "4"], "analysis.monte_carlo_sweep"),
    (["deriv-hist", "--problem", "linear2x2", "--m", "1", "--samples", "50"],
     "analysis.derivative_norm_samples"),
    (["msweep", "--problem", "linear2x2", "--m-values", "1,2", "--inits", "2"],
     "analysis.m_sweep"),
    (["gmres-compare", "--problem", "linear2x2", "--m", "1", "--inits", "2", "--iters", "20"],
     "accelerators.aa_full_window_vs_gmres_check"),
    (["run", "--problem", "linear2x2", "--scheme", "aa", "--x0", "0.2,0.1"],
     "accelerators.run_scheme"),
]


@pytest.mark.parametrize("argv, layer", _COMMANDS, ids=[argv[0] for argv, _ in _COMMANDS])
def test_traced_command_runs_and_records_spans(tmp_path, argv, layer):
    # as perfbench/run.py runs a traced command
    tracer = _load_tracer().Tracer()
    saved = tracer.install(MODULES)
    try:
        rc = tracer.call("cli.main", cli.main, [*argv, "--out", str(tmp_path)])
    finally:
        tracer.uninstall(saved)
    assert rc == 0
    assert {"cli.main", "problems.problem_from_id", layer} <= {span[2] for span in tracer.spans}


def test_traced_make_affine_builds_a_problem_with_a_traced_q():
    # no package code calls accelerators.make_affine, which the tracer wraps
    # to trace the q of the problems it builds; its signature must still fit
    tracer = _load_tracer().Tracer()
    saved = tracer.install(MODULES)
    try:
        problem = accelerators.make_affine(AffineSpec(M=[[0.5]], b=[1.0]))
        assert problem.q(np.array([0.0])).tolist() == [1.0]
    finally:
        tracer.uninstall(saved)
    assert "problems.q" in {span[2] for span in tracer.spans}
