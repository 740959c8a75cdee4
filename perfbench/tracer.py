"""Outside-in tracer: spans around the package's public functions.

The package binds its functions with `from .x import y`, so a call from one
module to another goes through the name in the *consuming* module's
namespace.  The tracer replaces those names (and `problem.q` on problems the
CLI resolves) with wrappers that record one span per call, and puts them back
afterwards.  Nothing inside src/ changes.

A span is (id, parent id, name, start, end).  Spans stay in memory and are
written out once, at the end of the benchmark.  Self time is a span's
duration minus the time its child spans cover; calls in this process are
sequential, so children never overlap.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from collections import defaultdict
from pathlib import Path

# (consuming module, attribute, span name): every place a traced layer is called
PATCHES = (
    ("cli", "problem_from_id", "problems.problem_from_id"),
    ("analysis", "run_scheme", "accelerators.run_scheme"),
    ("cli", "run_scheme", "accelerators.run_scheme"),
    ("cli", "aa_run", "accelerators.aa_run"),
    ("accelerators", "aa_run", "accelerators.aa_run"),
    ("cli", "gmres_run", "accelerators.gmres_run"),
    ("accelerators", "gmres_run", "accelerators.gmres_run"),
    ("cli", "aa_full_window_vs_gmres_check", "accelerators.aa_full_window_vs_gmres_check"),
    ("accelerators", "anderson_coefficients", "linalg.anderson_coefficients"),
    ("augmented", "anderson_coefficients", "linalg.anderson_coefficients"),
    ("linalg", "min_norm_lstsq", "linalg.min_norm_lstsq"),
    ("analysis", "directional_derivative", "augmented.directional_derivative"),
    ("augmented", "beta_hat", "augmented.beta_hat"),
    ("analysis", "monte_carlo_sweep", "analysis.monte_carlo_sweep"),
    ("analysis", "m_sweep", "analysis.m_sweep"),
    ("analysis", "derivative_norm_samples", "analysis.derivative_norm_samples"),
    ("analysis", "estimate_r_factor", "analysis.estimate_r_factor"),
    ("analysis", "sample_inits", "analysis.sample_inits"),
    ("plots", "line_chart", "plots.line_chart"),
    ("plots", "bar_chart", "plots.bar_chart"),
)


def svd_flops(rows: int, cols: int) -> int:
    """Thin SVD with U, S and V of a rows x cols matrix: 6 a b^2 + 20 b^3, a >= b.

    Golub and Van Loan's R-SVD count; computed from shapes, not measured.
    """
    a, b = max(rows, cols), min(rows, cols)
    return 6 * a * b * b + 20 * b ** 3


class Tracer:
    """Span recorder for one traced CLI command."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._observers = {
            "accelerators.run_scheme": self._count_steps,
            "linalg.anderson_coefficients": self._count_ranks,
            "linalg.min_norm_lstsq": self._count_flops,
        }

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1][0] if self._stack else -1
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            if name == "accelerators.aa_run" and self._stack and \
                    self._stack[-1][1] == "accelerators.run_scheme":
                return fn(*args, **kwargs)  # run_scheme's own dispatch: no second span
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args)
            return result

        return traced

    def _count_steps(self, trace, *_):
        self.counters["accelerators.steps"] += len(trace) - 1

    def _count_ranks(self, result, R, *_):
        coeffs, info = result
        self.counters["linalg.degenerate"] += info.numerical_rank == 0
        self.counters["linalg.rank_deficient"] += 0 < info.numerical_rank < coeffs.shape[0]

    def _count_flops(self, _, R, *__):
        self.counters["linalg.svd_flops"] += svd_flops(*R.shape)

    def install(self, modules: dict) -> list:
        """Patch every name in PATCHES; returns what uninstall() needs."""
        saved = []

        def patch(mod, attr, new):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        for mod_name, attr, span_name in PATCHES:
            mod = modules[mod_name]
            patch(mod, attr, self._wrap(span_name, getattr(mod, attr)))
        # q is traced on the problems the CLI resolves and on those the GMRES
        # check builds inside accelerators
        for mod, attr in ((modules["cli"], "problem_from_id"),
                          (modules["accelerators"], "make_affine")):
            patch(mod, attr, self._with_traced_q(getattr(mod, attr)))
        return saved

    def _with_traced_q(self, build):
        def resolve(*args, **kwargs):
            problem = build(*args, **kwargs)
            return dataclasses.replace(problem, q=self._wrap("problems.q", problem.q))
        return resolve

    @staticmethod
    def uninstall(saved: list) -> None:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "time_s", "self_s"}} over all spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["time_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[sid]
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: id, parent, name, start_s, end_s (relative)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, parent, name, t0, t1 in sorted(self.spans):
                w.writerow([sid, parent, name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}"])
