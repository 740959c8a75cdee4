"""Experiment runner CLI.

Each subcommand maps to one experiment family and writes CSV files (canonical)
plus best-effort SVG plots into the output directory.  Configuration comes
from an optional JSON manifest (--config) with command-line flags taking
precedence.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, plots
from .accelerators import (AccelConfig, aa_full_window_vs_gmres_check, aa_run, gmres_run,
                           run_batch, run_scheme)
from .errors import AndersonLabError, StagnationDetected
from .problems import FixedPointProblem, problem_from_id

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCHEMES = ("fp", "aa", "aa_restarted", "gmres")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    problem_id: str = "linear2x2"
    scheme: str = "aa"
    window_m: int = 1
    max_iters: int = 100
    stop_tol: float = 1e-12
    seed: int = 0
    n_inits: int = 100
    init_box: list | None = None  # [[lo, hi], ...] per coordinate
    output_dir: str = "out"
    x0: list | None = None
    n_samples: int = 100000
    m_values: list | None = None
    bins: int = 60
    tail_window: int = 20
    k_max: int = 10

    def validate(self, problem: FixedPointProblem) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.window_m < 0:
            raise ConfigError("m must be >= 0")
        if self.max_iters < 1:
            raise ConfigError("iters must be >= 1")
        if not self.stop_tol > 0:  # NaN included
            raise ConfigError("tol must be positive")
        if self.n_inits < 1:
            raise ConfigError("inits must be >= 1")
        if self.x0 is not None and len(self.x0) != problem.dim:
            raise ConfigError(f"x0 must have {problem.dim} components")
        box = self.box_array(problem.dim)
        if np.any(box[:, 1] < box[:, 0]):
            raise ConfigError("box upper bounds must be >= lower bounds")

    def box_array(self, dim: int) -> np.ndarray:
        if self.init_box is None:
            return np.tile([-0.25, 0.25], (dim, 1))
        box = np.atleast_2d(np.asarray(self.init_box, dtype=float))
        if box.shape == (1, 2):
            box = np.tile(box, (dim, 1))
        if box.shape != (dim, 2):
            raise ConfigError(f"box must give one [lo, hi] pair or {dim} pairs")
        return box

    def accel(self) -> AccelConfig:
        restart = self.scheme == "aa_restarted"
        m = 0 if self.scheme == "fp" else max(self.window_m, int(restart))
        return AccelConfig(window_m=m, restart=restart, max_iters=self.max_iters,
                           stop_tol=self.stop_tol)


def _parse_box(text: str) -> list:
    pairs = []
    for part in text.split(";"):
        vals = [float(v) for v in part.split(",")]
        if len(vals) != 2:
            raise ConfigError(f"bad box component {part!r}; expected lo,hi")
        pairs.append(vals)
    return pairs


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **doc)
    overrides = {}
    for flag, key in (("problem", "problem_id"), ("scheme", "scheme"), ("m", "window_m"),
                      ("iters", "max_iters"), ("tol", "stop_tol"), ("seed", "seed"),
                      ("inits", "n_inits"), ("out", "output_dir"), ("samples", "n_samples"),
                      ("bins", "bins"), ("tail_window", "tail_window"), ("k_max", "k_max")):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "box", None) is not None:
        overrides["init_box"] = _parse_box(args.box)
    if getattr(args, "x0", None) is not None:
        overrides["x0"] = [float(v) for v in args.x0.split(",")]
    if getattr(args, "m_values", None) is not None:
        overrides["m_values"] = [int(v) for v in args.m_values.split(",")]
    return replace(cfg, **overrides)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v != v:  # NaN
            return ""
        return format(v, ".17g")
    return str(v)


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# schema: {schema} v1", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _trace_rows(trace, m: int):
    n_iter = len(trace.iterates)
    for k in range(n_iter):
        err = trace.error_norms[k] if trace.error_norms is not None else None
        sig = trace.sigma_k[k] if trace.sigma_k is not None else None
        rat = trace.error_ratios[k] if trace.error_ratios is not None else None
        betas = [None] * m
        if k < len(trace.betas):
            b = trace.betas[k].beta
            for i in range(min(m, b.size)):
                betas[i] = float(b[i])
        yield [k, err, trace.residual_norms[k], sig, rat, *betas]


def cmd_run(cfg: ExperimentConfig, out: Path) -> int:
    problem = problem_from_id(cfg.problem_id)
    cfg.validate(problem)
    box = cfg.box_array(problem.dim)
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
    elif np.all(box[:, 0] == box[:, 1]):
        x0 = box[:, 0].copy()
    else:
        raise ConfigError("run needs an explicit --x0 or a collapsed box")

    accel = cfg.accel()
    m = 0 if cfg.scheme == "gmres" else accel.window_m
    header = ["k", "err_norm", "resid_norm", "sigma_k", "err_ratio",
              *[f"beta_{i + 1}" for i in range(m)]]
    try:
        if cfg.scheme == "gmres":
            trace = gmres_run(problem, x0, accel)  # ValueError (exit 2) if not affine
        else:
            trace = run_scheme(problem, x0, accel)
    except AndersonLabError as exc:
        trace = getattr(exc, "trace", None)
        if trace is not None:
            _write_csv(out / "trace.csv", "trace", header, _trace_rows(trace, m))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_csv(out / "trace.csv", "trace", header, _trace_rows(trace, m))
    series = {}
    if trace.sigma_k is not None:
        series["sigma_k"] = trace.sigma_k
    if m:
        series["beta_1"] = [
            float(b.beta[0]) if b.beta.size else float("nan") for b in trace.betas
        ]
    (out / "trace.svg").write_text(
        plots.line_chart(series, title=f"{cfg.problem_id} {cfg.scheme}"))
    return EXIT_OK


def _sweep_schemes(cfg: ExperimentConfig) -> list[AccelConfig]:
    base = cfg.accel()
    if cfg.scheme == "fp":
        return [base]
    # sweeps pair the accelerated scheme with the FP baseline
    fp = AccelConfig(window_m=0, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
    return [fp, base]


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    problem = problem_from_id(cfg.problem_id)
    cfg.validate(problem)
    if cfg.scheme == "gmres":
        raise ConfigError("sweep supports fp/aa/aa_restarted schemes")
    report = analysis.monte_carlo_sweep(
        problem, _sweep_schemes(cfg), cfg.box_array(problem.dim),
        cfg.n_inits, cfg.seed, tail_window=cfg.tail_window)

    n = problem.dim
    coord_cols = [f"x0_{i}" for i in range(n)] if n <= 4 else ["init_hash"]
    rows = []
    for label, per_init in report.estimates.items():
        m = 0 if label == "fp" else int(label.split("(")[1].rstrip(")"))
        for i, est in enumerate(per_init):
            x0 = report.inits[i]
            coords = list(x0) if n <= 4 else [zlib.crc32(x0.tobytes())]
            if est is None:
                rows.append([i, *coords, label, m, None, None, False])
            else:
                rows.append([i, *coords, label, m, est.sigma_final,
                             est.sigma_tail_max, est.converged])
    _write_csv(out / "sweep.csv", "sweep",
               ["init_id", *coord_cols, "scheme", "m", "sigma_final",
                "sigma_tail_max", "converged"], rows)

    hist_rows = []
    for label, (edges, counts) in report.histograms.items():
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            hist_rows.append([label, float(lo), float(hi), int(c)])
    _write_csv(out / "histogram.csv", "histogram",
               ["scheme", "bin_lo", "bin_hi", "count"], hist_rows)
    label, (edges, counts) = next(iter(report.histograms.items()))
    (out / "histogram.svg").write_text(
        plots.bar_chart(edges, counts, title=f"sigma_final histogram ({label})"))
    return EXIT_OK


def cmd_deriv_hist(cfg: ExperimentConfig, out: Path) -> int:
    problem = problem_from_id(cfg.problem_id)
    cfg.validate(problem)
    if problem.known_fixed_point is None or problem.jacobian is None:
        raise ConfigError("deriv-hist needs a problem with known x* and jacobian")
    M = problem.jacobian(problem.known_fixed_point)
    m = max(cfg.window_m, 1)
    norms, edges, counts = analysis.derivative_norm_histogram(
        M, m, cfg.n_samples, cfg.seed, bins=cfg.bins)
    _write_csv(out / "derivnorms.csv", "derivnorms", ["sample_id", "norm"],
               ([i, float(v)] for i, v in enumerate(norms)))
    (out / "derivnorms.svg").write_text(
        plots.bar_chart(edges, counts, title="directional derivative norms"))
    return EXIT_OK


def cmd_msweep(cfg: ExperimentConfig, out: Path) -> int:
    problem = problem_from_id(cfg.problem_id)
    cfg.validate(problem)
    if problem.affine is None:
        raise ConfigError("msweep requires an affine problem")
    m_values = cfg.m_values or [1, 2, 3, 4, 5, 6]
    box = cfg.box_array(problem.dim) if cfg.init_box is not None else None
    rows = analysis.m_sweep(problem, m_values, cfg.n_inits, cfg.seed, box=box,
                            max_iters=cfg.max_iters, stop_tol=cfg.stop_tol,
                            tail_window=cfg.tail_window)
    _write_csv(out / "msweep.csv", "msweep", ["m", "scheme", "worst_sigma"],
               ([r.m, r.scheme, r.worst_sigma] for r in rows))
    return EXIT_OK


def cmd_gmres_compare(cfg: ExperimentConfig, out: Path) -> int:
    problem = problem_from_id(cfg.problem_id)
    cfg.validate(problem)
    if problem.affine is None:
        raise ConfigError("gmres-compare requires an affine problem")
    box = cfg.box_array(problem.dim)
    inits = analysis.sample_inits(box, cfg.n_inits, cfg.seed)

    trace_rows = []
    dev_rows = []
    full_window = AccelConfig(window_m=cfg.max_iters, max_iters=cfg.max_iters,
                              stop_tol=cfg.stop_tol)
    windowed = cfg.accel() if cfg.scheme in ("aa", "aa_restarted") else AccelConfig(
        window_m=max(cfg.window_m, 1), max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)
    # the AA(m) runs go as one batch.  An init whose runs do not all finish
    # writes no rows; the first such init's error is raised after the writes.
    batch = run_batch(problem, inits, windowed)
    first_failure = None
    for i, x0 in enumerate(inits):
        try:
            if batch.failures[i] is not None:
                raise batch.failures[i]
            traces = ((f"aa({windowed.window_m})", batch.trace(i)),
                      ("aa_inf", aa_run(problem, x0, full_window)),
                      ("gmres", gmres_run(problem, x0, full_window)))
            try:
                dev_row = [i, aa_full_window_vs_gmres_check(problem, x0, cfg.k_max), False]
            except StagnationDetected:
                dev_row = [i, None, True]
        except AndersonLabError as exc:
            first_failure = first_failure or exc
            continue
        for label, tr in traces:
            for k in range(len(tr)):
                sig = tr.sigma_k[k] if tr.sigma_k is not None else None
                trace_rows.append([i, label, k, sig, tr.residual_norms[k]])
        dev_rows.append(dev_row)

    _write_csv(out / "gmres_compare_traces.csv", "gmres_compare_traces",
               ["init_id", "scheme", "k", "sigma_k", "resid_norm"], trace_rows)
    _write_csv(out / "gmres_compare_deviation.csv", "gmres_compare_deviation",
               ["init_id", "deviation", "stagnated"], dev_rows)
    if first_failure is not None:
        raise first_failure
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="problem id (linear2x2, nonlinear2x2, linear200[:l2,l3,l4], scalar, affine:<file>)")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--m", type=int, help="AA window size")
    p.add_argument("--iters", type=int, help="max iterations")
    p.add_argument("--tol", type=float, help="residual stopping tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--inits", type=int, help="number of random initial conditions")
    p.add_argument("--box", help="init box 'lo,hi' or 'lo,hi;lo,hi;...'")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override it")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anderson-lab",
        description="Anderson-acceleration convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single-trajectory trace")
    p_run.add_argument("--x0", help="comma-separated initial point")
    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over random inits")
    p_sweep.add_argument("--tail-window", dest="tail_window", type=int)
    p_dh = sub.add_parser("deriv-hist", help="directional-derivative norm histogram")
    p_dh.add_argument("--samples", type=int, help="number of unit directions")
    p_dh.add_argument("--bins", type=int)
    p_ms = sub.add_parser("msweep", help="worst-case sigma vs window size")
    p_ms.add_argument("--m-values", dest="m_values", help="comma-separated window sizes")
    p_ms.add_argument("--tail-window", dest="tail_window", type=int)
    p_gc = sub.add_parser("gmres-compare", help="AA vs GMRES comparison")
    p_gc.add_argument("--k-max", dest="k_max", type=int)

    for p in (p_run, p_sweep, p_dh, p_ms, p_gc):
        _add_common(p)

    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "deriv-hist": cmd_deriv_hist,
                "msweep": cmd_msweep, "gmres-compare": cmd_gmres_compare}
    try:
        cfg = _load_config(args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](cfg, out)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AndersonLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
