import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from binapprox import bounds, cli
from binapprox.lattice import make_pmf
from binapprox.cli import (EXIT_INAPPLICABLE, EXIT_INTERNAL, EXIT_OK,
                          EXIT_USAGE, main)


def read_rows(path):
    """Parse an emitted CSV file into (header_comments, column_names, rows)."""
    comments, data = [], []
    for line in path.read_text().splitlines():
        (comments if line.startswith("#") else data).append(line)
    names = data[0].split(",")
    rows = [dict(zip(names, ln.split(","))) for ln in data[1:]]
    return comments, names, rows


@pytest.fixture
def zero_spec(tmp_path):
    doc = {"kind": "local_dependence", "sigma2": 4.0, "anchor": 0.0,
           "terms": [{"m_xi_eta2": 0.0, "m_xi_eta_tau": 0.0, "m_cov": 0.0,
                      "m_tau": 0.0, "c1": 1.0, "c2": 2.0}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestBoundCommand:
    def test_zero_moment_value(self, zero_spec, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["bound", str(zero_spec), "--out", str(out)]) == EXIT_OK
        comments, names, rows = read_rows(out)
        assert comments[0].startswith("# schema_version=")
        assert float(rows[0]["bound"]) == pytest.approx(1.75 / 4.0)
        assert float(rows[1]["bound"]) == pytest.approx(1.75 / 4.0)

    def test_malformed_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}')
        assert main(["bound", str(bad)]) == EXIT_USAGE

    def test_point_process_needs_sigma2(self, tmp_path):
        doc = {"kind": "point_process",
               "terms": [{"weight": 1.0, "palm_prod": 0.0, "plain_prod": 0.0,
                          "mu_A": 0.0, "mu_B": 0.0, "palm_B": 0.0,
                          "c1": 1.0, "c2": 1.0}]}
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_INAPPLICABLE
        out = tmp_path / "pp.csv"
        assert main(["bound", str(path), "--sigma2", "4.0",
                     "--out", str(out)]) == EXIT_OK


    def test_small_variance_inapplicable(self, tmp_path):
        doc = {"kind": "local_dependence", "sigma2": 0.5, "anchor": 0.0,
               "terms": []}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_INAPPLICABLE

    def test_independent_theta_sum_exact(self, tmp_path):
        # The printed theta sum is the sum itself, not a value back-solved
        # from the bound (which differs in the last bits for this spec).
        rng = np.random.default_rng(1)
        summands = []
        for _ in range(8):
            pmf = make_pmf(list(rng.dirichlet(np.ones(3))))
            summands.append(pmf.translate(-pmf.mean()))
        spec = bounds.IndependentSummandSpec(summands)
        path = tmp_path / "ind.json"
        path.write_text(bounds.spec_to_json(spec))
        out = tmp_path / "out.csv"
        assert main(["bound", str(path), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        for l, row in zip((1, 2), rows):
            theta = sum(bounds.leave_one_out_smoothness(spec, i, l)
                        * bounds.rho(s) for i, s in enumerate(summands))
            assert row["theta_sum"] == repr(theta)


class TestExactCommand:
    def test_two_runs_pass_verdict(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["exact", "two-runs", "--n", "30", "--p", "0.5",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert rows[0]["verdict"] == "PASS"
        assert float(rows[0]["exact_tv"]) <= float(rows[0]["bound_l1"])

    def test_small_variance_inapplicable(self):
        assert main(["exact", "poisson-binomial", "--n", "3",
                     "--p", "0.5"]) == EXIT_INAPPLICABLE

    def test_poisson_binomial_pass(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["exact", "poisson-binomial", "--n", "20", "--p", "0.5",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert rows[0]["verdict"] == "PASS"


class TestExperimentCommands:
    def test_rscan_row(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rscan", "--n", "100", "--r", "2", "--a", "1.0",
                     "--reps", "2000", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        _, names, rows = read_rows(out)
        assert "emp_tv" in names
        assert 0.0 < float(rows[0]["emp_tv"]) < 1.0
        assert float(rows[0]["sigma2"]) > 1.0

    def test_matern_row(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["matern", "--d", "1", "--lam", "200", "--a", "1.0",
                     "--reps", "2000", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        _, names, rows = read_rows(out)
        assert 0.0 < float(rows[0]["emp_tv"]) < 1.0

    def test_rates_footer(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rates", "--app", "rscan",
                     "--scales", "100", "200", "400",
                     "--reps", "2000", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        comments, _, rows = read_rows(out)
        assert len(rows) == 3
        assert any("slope=" in c for c in comments)

    def test_small_variance_inapplicable(self):
        assert main(["rscan", "--n", "10", "--r", "2", "--a", "0.05",
                     "--reps", "100"]) == EXIT_INAPPLICABLE
        assert main(["rates", "--app", "rscan", "--scales", "10", "11", "12",
                     "--r", "2", "--a", "0.05",
                     "--reps", "100"]) == EXIT_INAPPLICABLE

    @pytest.mark.parametrize("extra", [["--r", "7"],
                                       ["--dist", "uniform01"]])
    def test_rates_matern_rejects_rscan_flags(self, extra, capsys):
        assert main(["rates", "--app", "matern", "--scales", "200", "400",
                     "800", "--reps", "100"] + extra) == EXIT_USAGE
        assert extra[0] in capsys.readouterr().err

    def test_rates_rscan_rejects_matern_flag(self, capsys):
        assert main(["rates", "--app", "rscan", "--scales", "100", "200",
                     "400", "--d", "2", "--reps", "100"]) == EXIT_USAGE
        assert "--d" in capsys.readouterr().err

    def test_rates_rscan_rejects_fractional_scale(self, capsys):
        assert main(["rates", "--app", "rscan", "--scales", "400", "800.7",
                     "1600", "--reps", "100"]) == EXIT_USAGE
        assert "800.7" in capsys.readouterr().err

    def test_rates_matern_accepts_default_dist(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rates", "--app", "matern", "--scales", "200", "400",
                     "800", "--dist", "exponential", "--reps", "200",
                     "--out", str(out)]) == EXIT_OK
        _, names, rows = read_rows(out)
        assert names[0] == "d" and [r["d"] for r in rows] == ["1"] * 3

    def test_rates_needs_three_scales(self):
        assert main(["rates", "--app", "rscan", "--scales", "100", "200",
                     "--reps", "100"]) == EXIT_USAGE


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["rscan", "--n", "100"]) == EXIT_USAGE

    def test_metric_only_on_rates(self):
        assert main(["rscan", "--n", "100", "--r", "2", "--a", "1.0",
                     "--metric", "tv"]) == EXIT_USAGE


def test_internal_failure_prints_traceback(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_exact", boom)
    assert main(["exact", "two-runs", "--n", "30", "--p", "0.5"]) \
        == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal failure: boom" in err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs ~0.2 s of import; binomial computes its own log-pmf.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, binapprox.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
