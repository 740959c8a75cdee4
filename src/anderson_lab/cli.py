"""Experiment runner CLI.

Each subcommand maps to one experiment family and writes CSV files (canonical)
plus best-effort SVG plots into the output directory.  Configuration comes
from an optional JSON manifest (--config) with command-line flags taking
precedence.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, plots
# aa_run is unused here but stays bound: perfbench/tracer.py patches cli.aa_run by name
from .accelerators import (AccelConfig, aa_full_window_vs_gmres_check, aa_run,  # noqa: F401
                           gmres_batch, gmres_run, run_batch, run_scheme)
from .errors import AndersonLabError, StagnationDetected
from .problems import FixedPointProblem, problem_from_id

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCHEMES = ("fp", "aa", "aa_restarted", "gmres")
CSV_BLOCK_ROWS = 256


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
        if self.k_max < 1:
            raise ConfigError("k-max must be >= 1")
        if self.n_samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.m_values is not None and (  # bool is not an int here
                not self.m_values or any(type(m) is not int for m in self.m_values)):
            raise ConfigError(
                f"m-values must be a non-empty list of integers, got {self.m_values!r}")
        if min(self.m_values or [1]) < 1:
            raise ConfigError("m-values must be >= 1")
        if self.x0 is not None and len(self.x0) != problem.dim:
            raise ConfigError(f"x0 must have {problem.dim} components")
        box = self.box_array(problem.dim)
        if not np.all(np.isfinite(box)):
            raise ConfigError("box bounds must be finite")
        with np.errstate(over="ignore"):  # an overflowing span is Inf, rejected below
            span = box[:, 1] - box[:, 0]
        if np.any(span < 0):
            raise ConfigError("box upper bounds must be >= lower bounds")
        if not np.all(span < np.inf):
            raise ConfigError("box spans hi - lo must be finite")

    def box_array(self, dim: int, default: tuple = (-0.25, 0.25)) -> np.ndarray:
        if self.init_box is None:
            return np.tile(default, (dim, 1))
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


# the types a --config value may take, by the type of its field's default
# (bool is rejected everywhere, though Python counts it as an int)
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string"), type(None): ((list, type(None)), "a list or null")}


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's fields, then every given flag; a flag's dest is the field it sets."""
    cfg = ExperimentConfig()
    known = set(ExperimentConfig.__dataclass_fields__)
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object")
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in doc.items():
            kinds, name = _CONFIG_TYPES[type(getattr(cfg, key))]
            if isinstance(val, bool) or not isinstance(val, kinds):
                raise ConfigError(f"config key {key!r} must be {name}, got {val!r}")
        cfg = replace(cfg, **doc)
    overrides = {key: val for key, val in vars(args).items() if key in known and val is not None}
    # list-valued flags arrive as strings; a bad one is a ConfigError or ValueError (exit 2)
    for key, parse in (("init_box", _parse_box),
                       ("x0", lambda text: [float(v) for v in text.split(",")]),
                       ("m_values", lambda text: [int(v) for v in text.split(",")])):
        if key in overrides:
            overrides[key] = parse(overrides[key])
    return replace(cfg, **overrides)


def _fmt_column(values) -> list[str]:
    """CSV cells of one column: floats (np.float64 too) as .17g, blank for NaN, a missing number."""
    return [(f"{v:.17g}" if v == v else "") if isinstance(v, float) else str(v) for v in values]


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    # each block of rows is formatted one column at a time, joined row by row
    # and written, so the cells of one block are all the writer holds
    rows = iter(rows)
    with path.open("w") as f:
        f.write(f"# schema: {schema} v1\n{','.join(header)}\n")
        while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
            cells = zip(*[_fmt_column(column) for column in zip(*block)])
            f.write("\n".join(map(",".join, cells)) + "\n")


def _trace_rows(trace, m: int):
    errs, res = trace.error_norms.tolist(), trace.residual_norms.tolist()
    for k in range(len(trace.iterates)):
        beta = trace.beta[k].tolist() if k < len(trace.beta) else []
        yield [k, errs[k], res[k], trace.sigma_k[k], trace.error_ratios[k],
               *beta, *[float("nan")] * (m - len(beta))]


def cmd_run(cfg: ExperimentConfig, problem: FixedPointProblem, out: Path) -> None:
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
    solve = gmres_run if cfg.scheme == "gmres" else run_scheme
    try:
        trace = solve(problem, x0, accel)  # gmres_run: ValueError (exit 2) if not affine
    except AndersonLabError as exc:
        if exc.trace is not None:
            _write_csv(out / "trace.csv", "trace", header, _trace_rows(exc.trace, m))
        raise

    _write_csv(out / "trace.csv", "trace", header, _trace_rows(trace, m))
    series = {}
    if problem.known_fixed_point is not None:  # an all-NaN series would still draw a legend
        series["sigma_k"] = trace.sigma_k
    if m:
        series["beta_1"] = trace.beta[:, 0].tolist()
    (out / "trace.svg").write_text(
        plots.line_chart(series, title=f"{cfg.problem_id} {cfg.scheme}"))


def cmd_sweep(cfg: ExperimentConfig, problem: FixedPointProblem, out: Path) -> None:
    if cfg.scheme == "gmres":
        raise ConfigError("sweep supports fp/aa/aa_restarted schemes")
    base = cfg.accel()
    # sweeps pair the accelerated scheme with the FP baseline
    schemes = [base] if base.window_m == 0 else [replace(base, window_m=0, restart=False), base]
    inits = analysis.sample_inits(cfg.box_array(problem.dim), cfg.n_inits, cfg.seed)
    estimates = analysis.monte_carlo_sweep(problem, schemes, inits)

    n = problem.dim
    coord_cols = [f"x0_{i}" for i in range(n)] if n <= 4 else ["init_hash"]
    coords = inits.tolist() if n <= 4 else [[zlib.crc32(x0.tobytes())] for x0 in inits]
    rows, hist_rows = [], []
    for accel in schemes:
        label = analysis.scheme_label(accel)
        est = estimates[accel]
        rows += ([i, *x0, label, accel.window_m, final, tail_max, converged]
                 for i, (x0, final, tail_max, converged) in enumerate(zip(
                     coords, est.sigma_final.tolist(), est.sigma_tail_max.tolist(),
                     est.converged.tolist())))
        # a run without an estimate has NaN sigmas: a blank cell, no histogram count
        edges, counts = analysis.bin_counts(est.sigma_final[~np.isnan(est.sigma_final)],
                                            analysis.SWEEP_BINS)
        if not hist_rows:  # the plot shows the first scheme
            svg = plots.bar_chart(edges, counts, title=f"sigma_final histogram ({label})")
        hist_rows += ([label, lo, hi, c] for lo, hi, c in
                      zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    _write_csv(out / "sweep.csv", "sweep",
               ["init_id", *coord_cols, "scheme", "m", "sigma_final",
                "sigma_tail_max", "converged"], rows)
    _write_csv(out / "histogram.csv", "histogram",
               ["scheme", "bin_lo", "bin_hi", "count"], hist_rows)
    (out / "histogram.svg").write_text(svg)


def cmd_deriv_hist(cfg: ExperimentConfig, problem: FixedPointProblem, out: Path) -> None:
    if cfg.window_m < 1:
        raise ConfigError("deriv-hist needs m >= 1")
    M = problem.jacobian(problem.known_fixed_point)
    norms = analysis.derivative_norm_samples(M, cfg.window_m, cfg.n_samples, cfg.seed)
    edges, counts = analysis.bin_counts(norms, analysis.DERIV_BINS)
    _write_csv(out / "derivnorms.csv", "derivnorms", ["sample_id", "norm"],
               zip(range(len(norms)), norms.tolist()))
    (out / "derivnorms.svg").write_text(
        plots.bar_chart(edges, counts, title="directional derivative norms"))


def cmd_msweep(cfg: ExperimentConfig, problem: FixedPointProblem, out: Path) -> None:
    if problem.affine is None:
        raise ConfigError("msweep requires an affine problem")
    m_values = cfg.m_values or [1, 2, 3, 4, 5, 6]
    # msweep alone draws its inits from [-1, 1]^n by default
    inits = analysis.sample_inits(cfg.box_array(problem.dim, default=(-1.0, 1.0)),
                                  cfg.n_inits, cfg.seed)
    rows = analysis.m_sweep(problem, m_values, inits, cfg.max_iters, cfg.stop_tol)
    _write_csv(out / "msweep.csv", "msweep", ["m", "scheme", "worst_sigma"],
               ([r.m, r.scheme, r.worst_sigma] for r in rows))


def cmd_gmres_compare(cfg: ExperimentConfig, problem: FixedPointProblem, out: Path) -> None:
    if problem.affine is None:
        raise ConfigError("gmres-compare requires an affine problem")
    box = cfg.box_array(problem.dim)
    inits = analysis.sample_inits(box, cfg.n_inits, cfg.seed)

    trace_rows = []
    dev_rows = []
    full_window = AccelConfig(window_m=cfg.max_iters, max_iters=cfg.max_iters,
                              stop_tol=cfg.stop_tol)
    windowed = cfg.accel()
    windowed_label = analysis.scheme_label(windowed)
    # the GMRES, windowed and AA(inf) runs go as batches, the GMRES and
    # AA(inf) rows keeping the k_max + 1 iterates the check reads.  GMRES
    # runs first, so its work array is gone before the AA batches allocate
    # theirs, which lowers the command's peak memory.  An init whose runs do
    # not all finish writes no rows; the first such init's error is raised
    # after the writes.
    gmres_traces = gmres_batch(problem, inits, full_window, keep=cfg.k_max + 1)
    runs = zip(run_batch(problem, inits, windowed),
               run_batch(problem, inits, full_window, keep=cfg.k_max + 1), gmres_traces)
    first_failure = None
    for i, (aa_m, aa_inf, gmres) in enumerate(runs):
        failure = aa_m.failure or aa_inf.failure or gmres.failure
        if failure is not None:
            first_failure = first_failure or failure
            continue
        stagnated = False
        try:
            dev = aa_full_window_vs_gmres_check(problem, aa_inf, gmres, cfg.k_max)
        except StagnationDetected:  # no deviation when GMRES stagnated
            dev, stagnated = float("nan"), True
        for label, tr in ((windowed_label, aa_m), ("aa_inf", aa_inf), ("gmres", gmres)):
            trace_rows += ([i, label, k, sig, res] for k, (sig, res) in
                           enumerate(zip(tr.sigma_k, tr.residual_norms.tolist())))
        dev_rows.append([i, dev, stagnated])

    _write_csv(out / "gmres_compare_traces.csv", "gmres_compare_traces",
               ["init_id", "scheme", "k", "sigma_k", "resid_norm"], trace_rows)
    _write_csv(out / "gmres_compare_deviation.csv", "gmres_compare_deviation",
               ["init_id", "deviation", "stagnated"], dev_rows)
    if first_failure is not None:
        raise first_failure


def _add_common(p: argparse.ArgumentParser) -> None:
    # every dest but --config's is an ExperimentConfig field, shown as the metavar
    p.add_argument("--problem", dest="problem_id",
                   help="problem id (linear2x2, nonlinear2x2, linear200[:l2,l3,l4], scalar, affine:<file>)")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--m", dest="window_m", type=int, help="AA window size")
    p.add_argument("--iters", dest="max_iters", type=int, help="max iterations")
    p.add_argument("--tol", dest="stop_tol", type=float, help="residual stopping tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--inits", dest="n_inits", type=int, help="number of random initial conditions")
    p.add_argument("--box", dest="init_box", help="init box 'lo,hi' or 'lo,hi;lo,hi;...'")
    p.add_argument("--out", dest="output_dir", help="output directory")
    p.add_argument("--config", help="JSON config file; flags override it")


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anderson-lab",
        description="Anderson-acceleration convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single-trajectory trace")
    p_run.add_argument("--x0", help="comma-separated initial point")
    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over random inits")
    p_dh = sub.add_parser("deriv-hist", help="directional-derivative norm histogram")
    p_dh.add_argument("--samples", dest="n_samples", type=int, help="number of unit directions")
    p_ms = sub.add_parser("msweep", help="worst-case sigma vs window size")
    p_ms.add_argument("--m-values", dest="m_values", help="comma-separated window sizes")
    p_gc = sub.add_parser("gmres-compare", help="AA vs GMRES comparison")
    p_gc.add_argument("--k-max", dest="k_max", type=int)

    for p in (p_run, p_sweep, p_dh, p_ms, p_gc):
        _add_common(p)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "deriv-hist": cmd_deriv_hist,
                "msweep": cmd_msweep, "gmres-compare": cmd_gmres_compare}
    # every command is loaded, resolved, validated and failed here, and only here
    try:
        cfg = _load_config(args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        problem = problem_from_id(cfg.problem_id)
        cfg.validate(problem)
        handlers[args.command](cfg, problem, out)
        return EXIT_OK
    except (ConfigError, ValueError, OSError) as exc:  # OSError: a missing file, a bad --out
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AndersonLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
