"""The benchmark's tracer (perfbench/tracer.py) patches package names by getattr.

A name it patches that the package no longer binds makes `perfbench/run.py
--trace 1` raise AttributeError, so every one of them must resolve.
"""

import importlib.util
from pathlib import Path

from anderson_lab import accelerators, analysis, augmented, cli, linalg, plots

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
