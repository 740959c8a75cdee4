import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anderson_lab
from anderson_lab.cli import main


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

    def test_non_finite_exit_3_with_partial_trace(self, tmp_path):
        # q returns NaN everywhere; the iterates never leave the divergence guard
        aff = tmp_path / "nan.json"
        aff.write_text(json.dumps({"M": [[0.5]], "b": [float("nan")]}))
        for scheme in ("fp", "aa"):
            out = tmp_path / scheme
            rc = main(["run", "--problem", f"affine:{aff}", "--scheme", scheme,
                       "--x0", "1.0", "--out", str(out)])
            assert rc == 3
            _, header, rows = _read_csv(out / "trace.csv")
            assert len(rows) == 1
            assert rows[0][header.index("resid_norm")] == ""  # NaN is written blank


class TestConfigHandling:
    def test_unknown_problem(self, tmp_path):
        assert main(["run", "--problem", "nosuch", "--x0", "0",
                     "--out", str(tmp_path)]) == 2

    def test_zero_inits(self, tmp_path):
        assert main(["sweep", "--problem", "linear2x2", "--inits", "0",
                     "--out", str(tmp_path)]) == 2

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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_bad_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANDERSON_LAB_THREADS", "many")
        assert main(["run", "--problem", "linear2x2", "--x0", "0,0",
                     "--out", str(tmp_path)]) == 2


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
                "--samples", "500", "--seed", "7", "--bins", "20"]
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
