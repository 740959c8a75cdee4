import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import anderson_lab
from anderson_lab import accelerators, cli, linalg
from anderson_lab.accelerators import (AccelConfig, aa_full_window_vs_gmres_check, aa_run,
                                       gmres_run, run_batch, run_scheme)
from anderson_lab.analysis import sample_inits
from anderson_lab.cli import ExperimentConfig, main
from anderson_lab.errors import NonFinite, StagnationDetected
from anderson_lab.problems import FixedPointProblem, problem_from_id


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestRun:
    def test_trace_schema(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--problem", "linear2x2", "--scheme", "aa", "--m", "1",
                   "--x0", "0.2,0.1", "--iters", "50", "--out", str(out)])
        assert rc == 0
        schema, header, rows = _read_csv(out / "trace.csv")
        assert schema == "# schema: trace v1"
        assert header == ["k", "err_norm", "resid_norm", "sigma_k", "err_ratio", "beta_1"]
        assert 2 <= len(rows) <= 51  # may stop early at the residual tolerance
        assert (out / "trace.svg").exists()

    def test_fp_from_fixed_point_single_row(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--problem", "linear2x2", "--scheme", "fp",
                   "--x0", "0,0", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "trace.csv")
        assert header == ["k", "err_norm", "resid_norm", "sigma_k", "err_ratio"]
        assert len(rows) == 1

    def test_scalar_beta_tends_to_zero(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--problem", "scalar", "--scheme", "aa", "--m", "1",
                   "--x0", "0.5", "--iters", "25", "--tol", "1e-13", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "trace.csv")
        ik, ie, ib = header.index("k"), header.index("err_norm"), header.index("beta_1")
        checked = 0
        for row in rows:
            if row[ie] and row[ib] and float(row[ie]) < 1e-8:
                assert abs(float(row[ib])) < 1e-3
                checked += 1
        assert checked >= 1

    def test_gmres_run(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--problem", "linear2x2", "--scheme", "gmres",
                   "--x0", "0.2,0.1", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "trace.csv")
        assert "beta_1" not in header
        assert float(rows[-1][header.index("resid_norm")]) <= 1e-10

    def test_gmres_on_non_affine_problem_is_config_error(self, tmp_path):
        assert main(["run", "--problem", "scalar", "--scheme", "gmres", "--x0", "0.5",
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_x0_is_config_error(self, tmp_path):
        rc = main(["run", "--problem", "linear2x2", "--scheme", "fp",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_divergence_exit_3_with_partial_trace(self, tmp_path):
        aff = tmp_path / "grow.json"
        aff.write_text(json.dumps({"M": [[2.0]], "b": [0.0]}))
        out = tmp_path / "o"
        rc = main(["run", "--problem", f"affine:{aff}", "--scheme", "fp",
                   "--x0", "1.0", "--iters", "200", "--out", str(out)])
        assert rc == 3
        _, _, rows = _read_csv(out / "trace.csv")
        assert len(rows) >= 1

    def test_non_finite_exit_3_with_partial_trace(self, tmp_path, monkeypatch, capsys):
        # q returns NaN everywhere; the iterates never leave the divergence guard
        nan_problem = FixedPointProblem(dim=1, q=lambda x: np.full_like(x, np.nan))
        monkeypatch.setattr(cli, "problem_from_id", lambda problem_id: nan_problem)
        for scheme in ("fp", "aa"):
            out = tmp_path / scheme
            rc = main(["run", "--problem", "nan", "--scheme", scheme,
                       "--x0", "1.0", "--out", str(out)])
            assert rc == 3
            err = capsys.readouterr().err
            assert err == "numerical failure: residual norm is nan at k = 0\n"
            _, header, rows = _read_csv(out / "trace.csv")
            assert len(rows) == 1
            assert rows[0][header.index("resid_norm")] == ""  # NaN is written blank

    def test_q_error_exit_3_with_partial_trace(self, tmp_path, capsys):
        # q(-1) = 0, where the scalar map is undefined: one step, then q raises
        out = tmp_path / "o"
        rc = main(["run", "--problem", "scalar", "--scheme", "aa", "--m", "1",
                   "--x0=-1.0", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: q(x) = 1 + 1/x is undefined at x = 0\n")
        _, header, rows = _read_csv(out / "trace.csv")
        assert [row[header.index("k")] for row in rows] == ["0", "1"]
        assert rows[1][header.index("resid_norm")] == ""  # NaN is written blank

    def test_gmres_non_finite_exit_3_with_partial_trace(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--problem", "linear2x2", "--scheme", "gmres",
                   "--x0=nan,0.1", "--out", str(out)])
        assert rc == 3
        _, header, rows = _read_csv(out / "trace.csv")
        assert len(rows) == 1
        assert rows[0][header.index("resid_norm")] == ""  # NaN is written blank

    def test_far_start_diverges_alike_in_every_scheme(self, tmp_path, capsys):
        # a start beyond ~1e154 overflows the norms; a warning would fail the test
        for scheme in ("fp", "aa", "gmres"):
            out = tmp_path / scheme
            rc = main(["run", "--problem", "linear2x2", "--scheme", scheme,
                       "--x0=1e300,1e300", "--out", str(out)])
            assert rc == 3
            assert capsys.readouterr().err == "numerical failure: ||x_k|| exceeded 1e+12\n"
            _, header, rows = _read_csv(out / "trace.csv")
            assert len(rows) == 1
            assert rows[0][header.index("resid_norm")] == "inf"

    def test_non_finite_affine_file_is_config_error(self, tmp_path):
        for doc in ({"M": [[0.5]], "b": [float("nan")]},
                    {"M": [[float("inf")]], "b": [0.0]}):
            aff = tmp_path / "bad.json"
            aff.write_text(json.dumps(doc))  # json writes NaN and Infinity
            assert main(["run", "--problem", f"affine:{aff}", "--scheme", "fp",
                         "--x0", "1.0", "--out", str(tmp_path / "o")]) == 2

    def test_affine_file_with_non_matrix_m_is_config_error(self, tmp_path, capsys):
        aff = tmp_path / "bad.json"
        aff.write_text(json.dumps({"M": [[[0.5]]], "b": [0.0]}))
        assert main(["run", "--problem", f"affine:{aff}", "--x0", "0.3",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: M must be a square matrix matching the length of b\n")

    def test_nan_tolerance_is_config_error(self, tmp_path):
        for tol in ("nan", "0", "-1e-12"):
            assert main(["run", "--problem", "linear2x2", "--x0", "0.2,0.1",
                         f"--tol={tol}", "--out", str(tmp_path / "o")]) == 2


class TestConfigHandling:
    def test_unknown_problem(self, tmp_path):
        assert main(["run", "--problem", "nosuch", "--x0", "0",
                     "--out", str(tmp_path)]) == 2

    def test_missing_affine_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--problem", f"affine:{missing}", "--x0", "0,0",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_out_that_is_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["run", "--problem", "linear2x2", "--x0", "0.2,0.1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert out.read_text() == ""

    def test_zero_inits(self, tmp_path):
        assert main(["sweep", "--problem", "linear2x2", "--inits", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("box", ["nan,1", "-inf,inf", "0,1;0,nan"])
    def test_box_that_is_not_finite_is_config_error(self, tmp_path, capsys, box):
        out = tmp_path / "o"
        assert main(["sweep", "--problem", "linear2x2", "--inits", "3",
                     f"--box={box}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: box bounds must be finite\n"
        assert not list(out.iterdir())

    # finite bounds whose span hi - lo overflows: rejected before any sampling,
    # and without the overflow warning (which this suite turns into an error)
    @pytest.mark.parametrize("command, box", [("sweep", "-1e308,1e308"),
                                              ("msweep", "0,1;-1.7e308,1.7e308")])
    def test_box_whose_span_overflows_is_config_error(self, tmp_path, capsys, command, box):
        out = tmp_path / "o"
        assert main([command, "--problem", "linear2x2", "--inits", "3",
                     f"--box={box}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: box spans hi - lo must be finite\n"
        assert not list(out.iterdir())

    def test_bad_box(self, tmp_path):
        assert main(["sweep", "--problem", "linear2x2", "--inits", "2",
                     "--box", "1,0", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--problem", "linear2x2", "--inits", "2",
                     "--box", "oops", "--out", str(tmp_path)]) == 2

    def test_json_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem_id": "linear2x2", "scheme": "aa", "window_m": 1,
            "n_inits": 5, "seed": 1, "init_box": [[-0.25, 0.25]],
            "output_dir": str(tmp_path / "a"),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b"),
                     "--seed", "2"]) == 0
        a = (tmp_path / "a" / "sweep.csv").read_text()
        b = (tmp_path / "b" / "sweep.csv").read_text()
        assert a != b  # the seed flag overrode the config value

    def test_every_flag_sets_the_config_field_it_names(self):
        # _load_config copies args by field name, so a flag whose dest is not
        # a field would be dropped without an error
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            for action in parser._actions:
                if action.option_strings in (["-h", "--help"], ["--config"]):
                    continue
                assert action.dest in fields, (name, action.option_strings)

    @pytest.mark.parametrize("argv, message", [
        (["gmres-compare", "--k-max", "0"], "k-max must be >= 1"),
        (["gmres-compare", "--k-max=-3"], "k-max must be >= 1"),
        (["deriv-hist", "--samples", "0"], "samples must be >= 1"),
        (["deriv-hist", "--samples=-4"], "samples must be >= 1"),
        (["deriv-hist", "--m", "0"], "deriv-hist needs m >= 1"),
        (["msweep", "--m-values", "0,1"], "m-values must be >= 1"),
        (["msweep", "--m-values=2,-1"], "m-values must be >= 1"),
    ])
    def test_count_below_one_is_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--problem", "linear2x2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not list(out.iterdir())  # rejected before any run

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["tail_window", "bins"])
    def test_fixed_constants_are_unknown_config_keys(self, tmp_path, capsys, key):
        # the tail window (20) and the deriv-hist bins (60) are not configurable
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 20}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"configuration error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("command, doc, message", [
        ("sweep", {"window_m": "2"}, "config key 'window_m' must be an integer, got '2'"),
        ("run", {"x0": 0.5}, "config key 'x0' must be a list or null, got 0.5"),
        ("sweep", {"output_dir": None}, "config key 'output_dir' must be a string, got None"),
        ("sweep", {"seed": True}, "config key 'seed' must be an integer, got True"),
        ("sweep", {"stop_tol": "1e-9"}, "config key 'stop_tol' must be a number, got '1e-9'"),
        *(("msweep", {"m_values": m_values},
           f"m-values must be a non-empty list of integers, got {m_values!r}")
          for m_values in ([], [1.5], [1, True], [2, "3"])),
    ])
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys, command, doc,
                                                   message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith("must hold a JSON object\n")

    def test_config_value_types_that_pass(self, tmp_path):
        # an int is a valid float, and null a valid list field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stop_tol": 1, "init_box": None, "n_inits": 2,
                                   "max_iters": 5, "problem_id": "linear2x2"}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("scheme, m, window_m", [
        ("fp", 0, 0), ("fp", 3, 0),
        ("aa", 0, 0), ("aa", 1, 1), ("aa", 3, 3),
        ("aa_restarted", 0, 1), ("aa_restarted", 1, 1), ("aa_restarted", 3, 3),
        ("gmres", 0, 0), ("gmres", 3, 3),
    ])
    def test_accel_window(self, scheme, m, window_m):
        accel = ExperimentConfig(scheme=scheme, window_m=m).accel()
        assert type(accel.window_m) is int and accel.window_m == window_m
        assert accel.restart == (scheme == "aa_restarted")


class TestSweep:
    def test_rows_and_schemes(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["sweep", "--problem", "linear2x2", "--scheme", "aa", "--m", "1",
                   "--inits", "10", "--seed", "4", "--box=-0.25,0.25",
                   "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "sweep.csv")
        assert header == ["init_id", "x0_0", "x0_1", "scheme", "m",
                          "sigma_final", "sigma_tail_max", "converged"]
        assert len(rows) == 20  # fp baseline plus aa(1), 10 inits each
        assert {r[3] for r in rows} == {"fp", "aa(1)"}
        assert (out / "histogram.csv").exists()
        assert (out / "histogram.svg").exists()

    @pytest.mark.parametrize("scheme, m", [("fp", 3), ("aa", 0)])
    def test_window_zero_writes_fp_rows_once(self, tmp_path, scheme, m):
        # the accelerated scheme is the FP baseline itself: no second copy of its rows
        out = tmp_path / "o"
        assert main(["sweep", "--problem", "linear2x2", "--scheme", scheme, "--m", str(m),
                     "--inits", "4", "--out", str(out)]) == 0
        rows = _read_csv(out / "sweep.csv")[2]
        assert [(r[0], r[3], r[4]) for r in rows] == [(str(i), "fp", "0") for i in range(4)]

    def test_init_hash_for_large_dimension(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["sweep", "--problem", "linear200", "--scheme", "aa", "--m", "1",
                   "--inits", "2", "--box=-1,1", "--iters", "40", "--out", str(out)])
        assert rc == 0
        _, header, _ = _read_csv(out / "sweep.csv")
        assert header[1] == "init_hash"

    def test_init_hash_independent_of_hash_seed(self, tmp_path):
        src = str(Path(anderson_lab.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
            subprocess.run(
                [sys.executable, "-m", "anderson_lab.cli", "sweep", "--problem", "linear200",
                 "--scheme", "aa", "--m", "1", "--inits", "3", "--box=-1,1",
                 "--iters", "40", "--seed", "7", "--out", str(out)],
                env=env, check=True, timeout=120)
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestDerivHist:
    def test_determinism_bytewise(self, tmp_path):
        args = ["deriv-hist", "--problem", "linear2x2", "--m", "1",
                "--samples", "500", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("derivnorms.csv", "derivnorms.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_single_sample(self, tmp_path):
        out = tmp_path / "o"
        assert main(["deriv-hist", "--problem", "linear2x2", "--samples", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "derivnorms.csv")
        assert header == ["sample_id", "norm"]
        assert len(rows) == 1

    @pytest.mark.parametrize("m", ["2", "3"])
    def test_window_at_least_dim(self, tmp_path, m):
        # for m >= n every norm is sqrt(m) up to rounding: a spike, not a spread
        out = tmp_path / "o"
        assert main(["deriv-hist", "--problem", "linear2x2", "--m", m, "--samples", "1000",
                     "--seed", "7", "--out", str(out)]) == 0
        _, _, rows = _read_csv(out / "derivnorms.csv")
        assert len(rows) == 1000
        np.testing.assert_allclose([float(r[1]) for r in rows], np.sqrt(int(m)), rtol=1e-14)
        assert (out / "derivnorms.svg").exists()


class TestMsweep:
    def test_single_m(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["msweep", "--problem", "linear2x2", "--m-values", "1",
                   "--inits", "3", "--seed", "0", "--iters", "60", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "msweep.csv")
        assert header == ["m", "scheme", "worst_sigma"]
        assert len(rows) == 2
        assert {r[1] for r in rows} == {"windowed", "restarted"}

    def test_requires_affine(self, tmp_path):
        assert main(["msweep", "--problem", "nonlinear2x2",
                     "--out", str(tmp_path)]) == 2

    def test_zero_window_is_config_error(self, tmp_path, capsys):
        # restarted AA needs a window, so m = 0 has no restarted variant
        assert main(["msweep", "--problem", "linear2x2", "--m-values", "0,1",
                     "--inits", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "configuration error: m-values must be >= 1\n"


class TestGmresCompare:
    def test_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["gmres-compare", "--problem", "linear2x2", "--m", "1",
                   "--inits", "3", "--seed", "5", "--k-max", "2",
                   "--iters", "20", "--box=-0.25,0.25", "--out", str(out)])
        assert rc == 0
        _, header, rows = _read_csv(out / "gmres_compare_deviation.csv")
        assert header == ["init_id", "deviation", "stagnated"]
        for row in rows:
            if row[2] == "False":
                assert float(row[1]) <= 1e-8
        _, theader, trows = _read_csv(out / "gmres_compare_traces.csv")
        assert theader == ["init_id", "scheme", "k", "sigma_k", "resid_norm"]
        assert {r[1] for r in trows} == {"aa(1)", "aa_inf", "gmres"}

    @pytest.mark.parametrize("flags, label", [
        (["--scheme", "aa_restarted", "--m", "2"], "aa_restarted(2)"),
        (["--scheme", "aa", "--m", "0"], "fp"),
        (["--scheme", "fp"], "fp"),
        (["--scheme", "gmres", "--m", "2"], "aa(2)"),
        (["--scheme", "gmres", "--m", "0"], "fp"),
    ])
    def test_windowed_rows_carry_the_scheme_label(self, tmp_path, flags, label):
        out = tmp_path / "o"
        assert main(["gmres-compare", "--problem", "linear2x2", *flags, "--inits", "2",
                     "--k-max", "2", "--iters", "20", "--out", str(out)]) == 0
        labels = {row[1] for row in _read_csv(out / "gmres_compare_traces.csv")[2]}
        assert labels == {label, "aa_inf", "gmres"}

    def test_rows_equal_per_init_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["gmres-compare", "--problem", "linear200", "--m", "1", "--inits", "5",
                     "--seed", "3", "--k-max", "10", "--iters", "60",
                     "--out", str(out)]) == 0
        problem = problem_from_id("linear200")
        inits = sample_inits(np.tile([-0.25, 0.25], (200, 1)), 5, 3)
        windowed = AccelConfig(window_m=1, max_iters=60)
        full_window = AccelConfig(window_m=60, max_iters=60)
        check = AccelConfig(window_m=10, max_iters=10, stop_tol=0.0)
        expected, expected_dev = [], []
        for i, x0 in enumerate(inits):
            for label, tr in (("aa(1)", run_scheme(problem, x0, windowed)),
                              ("aa_inf", aa_run(problem, x0, full_window)),
                              ("gmres", gmres_run(problem, x0, full_window))):
                expected += [[str(i), label, str(k), cli._fmt(tr.sigma_k[k]),
                              cli._fmt(tr.residual_norms[k])] for k in range(len(tr))]
            # the check on its own traces, which run the k_max steps without a stopping test
            dev = aa_full_window_vs_gmres_check(
                problem, aa_run(problem, x0, check), gmres_run(problem, x0, check), 10)
            expected_dev.append([str(i), cli._fmt(dev), "False"])
        # .17g round-trips a float, so equal cells are equal bits
        assert _read_csv(out / "gmres_compare_traces.csv")[2] == expected
        assert _read_csv(out / "gmres_compare_deviation.csv")[2] == expected_dev

    def test_one_gmres_and_one_aa_run_per_init(self, tmp_path, monkeypatch):
        # every name the command or the check could reach the single-init
        # solvers by is counted; the AA(inf) and GMRES runs are the rows of
        # full-window batches
        calls = {"aa_run": 0, "gmres_run": 0}
        for name in calls:
            def counted(*args, _name=name, _run=getattr(accelerators, name)):
                calls[_name] += 1
                return _run(*args)
            for module in (cli, accelerators):
                monkeypatch.setattr(module, name, counted)
        full_window_rows, gmres_rows = [], []

        def batched(problem, X0, cfg, **kwargs):
            if cfg.window_m == 60:
                full_window_rows.extend(map(tuple, X0))
            return run_batch(problem, X0, cfg, **kwargs)

        def gmres_batched(problem, X0, cfg, **kwargs):
            gmres_rows.extend(map(tuple, X0))
            return accelerators.gmres_batch(problem, X0, cfg, **kwargs)

        monkeypatch.setattr(cli, "run_batch", batched)
        monkeypatch.setattr(cli, "gmres_batch", gmres_batched)
        assert main(["gmres-compare", "--problem", "linear200", "--m", "1", "--inits", "5",
                     "--seed", "3", "--k-max", "10", "--iters", "60",
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == {"aa_run": 0, "gmres_run": 0}
        inits = sorted(map(tuple, sample_inits(np.tile([-0.25, 0.25], (200, 1)), 5, 3)))
        assert sorted(full_window_rows) == inits
        assert sorted(gmres_rows) == inits

    @pytest.mark.parametrize("problem_id, iters, n_inits", [("linear200", 60, 7),
                                                          ("linear2x2", 20, 7)])
    def test_outputs_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch,
                                                    problem_id, iters, n_inits):
        # the default budget, which splits nothing at these sizes; one that
        # fits 3 rows at k = 0 (a split there, and more as the window grows);
        # and one that fits all rows up to a history of 2 entries (AA(1) runs
        # whole, AA(inf) splits at k = 2)
        n = problem_from_id(problem_id).dim
        outputs = []
        for budget in (None, 5 * n * 1 * 3, 5 * n * 2 * n_inits):
            if budget is not None:
                monkeypatch.setattr(linalg, "CHUNK_FLOATS", budget)
            out = tmp_path / str(budget)
            assert main(["gmres-compare", "--problem", problem_id, "--m", "1",
                         "--inits", str(n_inits), "--seed", "11", "--k-max", "10",
                         "--iters", str(iters), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("gmres_compare_traces.csv", "gmres_compare_deviation.csv")])
        assert outputs[1:] == outputs[:1] * 2

    def test_first_failing_init_is_reported(self, tmp_path, monkeypatch, capsys):
        # q is NaN below x_1 = -0.0075: of these 6 inits, init 4 fails in AA(1)
        # at k = 3 (not in AA(inf)) and init 5 fails at k = 0 in both
        base = problem_from_id("linear2x2")
        nan_below = replace(base, q=lambda x: np.where(
            np.asarray(x)[..., 1:] < -0.0075, np.nan, base.q(x)))
        monkeypatch.setattr(cli, "problem_from_id", lambda problem_id: nan_below)
        inits = sample_inits(np.tile([-0.25, 0.25], (2, 1)), 6, 53)
        full_window = AccelConfig(window_m=20, max_iters=20)
        check = AccelConfig(window_m=2, max_iters=2, stop_tol=0.0)
        with pytest.raises(NonFinite) as first:
            for x0 in inits:  # the runs of the command and of the check, one init at a time
                run_scheme(nan_below, x0, AccelConfig(window_m=1, max_iters=20))
                aa_run(nan_below, x0, full_window)
                gmres_run(nan_below, x0, full_window)
                try:
                    aa_full_window_vs_gmres_check(nan_below, aa_run(nan_below, x0, check),
                                                  gmres_run(nan_below, x0, check), 2)
                except StagnationDetected:
                    pass
        assert str(first.value) == "residual norm is nan at k = 3"
        out = tmp_path / "o"
        rc = main(["gmres-compare", "--problem", "nan", "--m", "1", "--inits", "6",
                   "--seed", "53", "--k-max", "2", "--iters", "20", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"numerical failure: {first.value}\n"
        # the rows of the four inits whose runs all finished are written
        for name in ("gmres_compare_traces.csv", "gmres_compare_deviation.csv"):
            assert {row[0] for row in _read_csv(out / name)[2]} == {"0", "1", "2", "3"}


def test_readme_commands_parse():
    """Every anderson-lab command in README's bash blocks uses flags the CLI has."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("anderson-lab ")]
    assert len(commands) >= 10
    parser = cli._build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # a bad flag exits with SystemExit
