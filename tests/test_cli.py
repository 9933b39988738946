import argparse
import ast
import json
import math
import os
import re
import runpy
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from binapprox import bounds, cli, engine, oracle
from binapprox.lattice import convolve_all, make_pmf, smoothness_functional
from binapprox.cli import (EXIT_INAPPLICABLE, EXIT_INTERNAL, EXIT_OK,
                          EXIT_USAGE, main)
from test_acceptance import (MATERN_REPS, MATERN_SCALES, RATE_SEED,
                             RSCAN_REPS, RSCAN_SCALES)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


@pytest.fixture
def no_convolve(monkeypatch):
    """np.convolve raises, so a command that convolves exits 3."""
    def convolve(*args):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", convolve)


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

    POINT_PROCESS = {"kind": "point_process", "sigma2": 4.0,
                     "terms": [{"weight": 1.0, "palm_prod": 0.0,
                                "plain_prod": 0.0, "mu_A": 0.0, "mu_B": 0.0,
                                "palm_B": 0.0, "c1": 1.0, "c2": 1.0}]}

    def test_point_process_sigma2_from_file(self, tmp_path):
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(self.POINT_PROCESS))
        out = tmp_path / "pp.csv"
        assert main(["bound", str(path), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert [r["sigma2"] for r in rows] == ["4.0"] * 2

    def test_point_process_needs_sigma2(self, tmp_path, capsys):
        # A file written for the removed --sigma2 flag is a malformed spec.
        doc = dict(self.POINT_PROCESS)
        del doc["sigma2"]
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "sigma2" in err

    def test_stray_sigma2_refused(self, zero_spec, tmp_path, capsys):
        # Every spec carries its own variance; --sigma2 is no option.
        out = tmp_path / "out.csv"
        assert main(["bound", str(zero_spec), "--sigma2", "4",
                     "--out", str(out)]) == EXIT_USAGE
        assert "unrecognized arguments: --sigma2" in capsys.readouterr().err
        assert not out.exists()

    def test_small_variance_inapplicable(self, tmp_path):
        doc = {"kind": "local_dependence", "sigma2": 0.5, "anchor": 0.0,
               "terms": []}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_INAPPLICABLE

    @pytest.mark.parametrize("doc,code", [
        ({"kind": "independent", "summands": [
            {"offset": 0.0, "min_index": -1, "probs": [0.25, math.nan, 0.25]}
        ] * 8}, EXIT_USAGE),
        ({"kind": "local_dependence", "sigma2": math.nan, "anchor": 0.0,
          "terms": []}, EXIT_INAPPLICABLE),
        ({"kind": "point_process", "sigma2": math.nan, "terms": []},
         EXIT_INAPPLICABLE)], ids=["independent", "local", "point_process"])
    def test_nan_spec_refused(self, tmp_path, capsys, doc, code):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and "got nan" in err

    def test_inf_sigma2_refused(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"kind": "local_dependence",
                                    "sigma2": math.inf, "anchor": 0.0,
                                    "terms": []}))
        assert main(["bound", str(path)]) == EXIT_INAPPLICABLE
        out, err = capsys.readouterr()
        assert out == "" and "got inf" in err

    @pytest.mark.parametrize("doc,code,needle", [
        ({"kind": "local_dependence", "sigma2": 10 ** 400, "anchor": 0.0,
          "terms": [{"m_xi_eta2": 1.0, "m_xi_eta_tau": 1.0, "m_cov": 0.0,
                     "m_tau": 0.0, "c1": 1.0, "c2": 1.0}]},
         EXIT_INAPPLICABLE, "variance must exceed 1, got inf"),
        ({"kind": "point_process", "sigma2": 10 ** 400, "terms": []},
         EXIT_INAPPLICABLE, "variance must exceed 1, got inf"),
        ({"kind": "independent", "summands": [
            {"offset": 0.0, "min_index": 10 ** 400, "probs": [0.5, 0.5]},
            {"offset": 0.0, "min_index": -1, "probs": [0.5, 0.5]}]},
         EXIT_USAGE, "min_index"),
        ({"kind": "independent", "summands": [
            {"offset": 0.0, "min_index": 2 ** 60, "probs": [0.5, 0.5]},
            {"offset": 0.0, "min_index": -1, "probs": [0.5, 0.5]}]},
         EXIT_USAGE, "min_index must lie within")],
        ids=["local", "point_process", "past_double", "past_2_53"])
    def test_huge_integer_refused(self, tmp_path, capsys, doc, code, needle):
        # A JSON integer past the double range reads as inf, as 1e400 does.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and needle in err

    @pytest.mark.parametrize("doc,needle", [
        ({"kind": "local_dependence", "sigma2": 4.0, "anchor": 0.0,
          "terms": [{"m_xi_eta2": -50.0, "m_xi_eta_tau": 0.0, "m_cov": 0.0,
                     "m_tau": 0.0, "c1": 1.0, "c2": 2.0}]}, "m_xi_eta2"),
        ({"kind": "local_dependence", "sigma2": 4.0, "anchor": 0.0,
          "terms": [{"m_xi_eta2": 0.0, "m_xi_eta_tau": 0.0, "m_cov": math.nan,
                     "m_tau": 0.0, "c1": 1.0, "c2": 2.0}]}, "got nan"),
        ({"kind": "decomposable", "sigma2": 4.0, "anchor": 0.0,
          "terms_l1": [{"z2_term": 0.5}], "terms_l2": []}, "terms_l2"),
        ({"kind": "decomposable", "sigma2": 4.0, "anchor": 0.0,
          "terms_l1": [{"z2_term": 0.5, "cov_terms": [0.1, 0.2],
                        "zvsum_terms": [0.3]}],
          "terms_l2": [{"z2_term": 0.5}]}, "zvsum_terms"),
        ({"kind": "local_dependence", "sigma2": "4", "anchor": 0.0,
          "terms": []}, "sigma2 must be a number, got '4'"),
        ({"kind": "local_dependence", "sigma2": None, "anchor": 0.0,
          "terms": []}, "sigma2 must be a number, got None"),
        ({"kind": "local_dependence", "sigma2": 4.0, "anchor": 0.0,
          "terms": [{"m_xi_eta2": "1", "m_xi_eta_tau": 0.0, "m_cov": 0.0,
                     "m_tau": 0.0, "c1": 1.0, "c2": 2.0}]},
         "m_xi_eta2 must be a number, got '1'"),
        ({"kind": "local_dependence", "sigma2": 4.0, "anchor": 0.0,
          "terms": [{"m_xi_eta2": 0.0, "m_xi_eta_tau": 0.0, "m_cov": 0.0,
                     "m_tau": 0.0, "c1": True, "c2": 2.0}]},
         "c1 must be a number, got True"),
        ({"kind": "decomposable", "sigma2": 4.0, "anchor": 0.0,
          "terms_l1": [{"z2_term": 0.5, "zv_terms": [0.1, "0.2"]}],
          "terms_l2": [{"z2_term": 0.5}]}, "zv_terms must be a number")],
        ids=["negative", "nan", "orders", "pairs", "string_sigma2",
             "null_sigma2", "string_field", "bool_field",
             "string_list_entry"])
    def test_bad_spec_value_refused(self, tmp_path, capsys, doc, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and needle in err

    def test_huge_thetas_sum_to_inf(self, tmp_path):
        # Two legal thetas of 1e308 overflow the double range: the bound is
        # +inf, a legal and useless value, not an internal failure.
        term = {"m_xi_eta2": 0.0, "m_xi_eta_tau": 1e308, "m_cov": 0.0,
                "m_tau": 0.0, "c1": 1.0, "c2": math.inf}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "local_dependence", "sigma2": 4.0,
                                    "anchor": 0.0, "terms": [term, term]}))
        out = tmp_path / "out.csv"
        assert main(["bound", str(path), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert [(r["bound"], r["theta_sum"]) for r in rows] \
            == [("inf", "inf")] * 2

    def test_infinite_c_with_zero_moments(self, zero_spec, tmp_path):
        # inf * 0 would print nan; a zero moment sum contributes 0.
        doc = json.loads(zero_spec.read_text())
        doc["terms"][0]["c1"] = math.inf
        zero_spec.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["bound", str(zero_spec), "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert [(r["bound"], r["theta_sum"]) for r in rows] \
            == [(repr(1.75 / 4.0), "0.0")] * 2

    @pytest.mark.parametrize("repeat", [0, -1, 1.5, True, "3", None,
                                        bounds.MAX_SPEC_ENTRIES + 1])
    def test_bad_repeat_refused(self, zero_spec, tmp_path, capsys, repeat):
        doc = json.loads(zero_spec.read_text())
        doc["terms"][0]["repeat"] = repeat
        zero_spec.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["bound", str(zero_spec), "--out", str(out)]) \
            == EXIT_USAGE
        assert "repeat" in capsys.readouterr().err
        assert not out.exists()

    INDEPENDENT = {"kind": "independent", "summands": [
        {"offset": 0.5, "min_index": -1, "probs": [0.5, 0.5], "repeat": 8}]}

    @pytest.mark.parametrize("name,bad", [
        ("probs", ["0.5", 0.5]), ("probs", [None, 0.5]),
        ("probs", [True, 0.5]), ("min_index", 1.5), ("min_index", True)])
    def test_independent_non_number_refused(self, tmp_path, capsys, name,
                                            bad):
        doc = json.loads(json.dumps(self.INDEPENDENT))
        doc["summands"][0][name] = bad
        path = tmp_path / "ind.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"{name} " in err

    @pytest.mark.parametrize("kind,stray", [
        ("independent", "sigma2"), ("point_process", "anchor"),
        ("local_dependence", "terms_l1")])
    def test_stray_key_refused(self, tmp_path, capsys, kind, stray):
        # Each stray key is a field of another kind.
        doc = {"independent": self.INDEPENDENT,
               "point_process": self.POINT_PROCESS,
               "local_dependence": {"kind": "local_dependence",
                                    "sigma2": 4.0, "anchor": 0.0,
                                    "terms": []}}[kind]
        path = tmp_path / "stray.json"
        path.write_text(json.dumps(doc | {stray: 0.3}))
        assert main(["bound", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"no key {stray!r}" in err

    def test_independent_past_support_cap(self, tmp_path, no_convolve,
                                          capsys):
        # 20000 Bernoullis: each leave-one-out law would have 20000 atoms,
        # so the bound is refused before its first convolution, as exact
        # poisson-binomial is.
        doc = json.loads(json.dumps(self.INDEPENDENT))
        doc["summands"][0]["repeat"] = 20000
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", str(path)]) == EXIT_USAGE
        assert "exceed cap 10000" in capsys.readouterr().err

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
            theta = math.fsum(smoothness_functional(convolve_all(
                summands[:i] + summands[i + 1:]), l) * bounds.rho(s)
                for i, s in enumerate(summands))
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

    def test_two_runs_past_limit(self, capsys):
        assert main(["exact", "two-runs", "--n", "1000001",
                     "--p", "0.4"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "n=1000001" in err and "limit of 1000000" in err

    def test_two_runs_past_former_dp_cap(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["exact", "two-runs", "--n", "20000", "--p", "0.4",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert rows[0]["verdict"] == "PASS"

    def test_poisson_binomial_past_support_cap(self, no_convolve, capsys):
        # Refused before the first convolution, not after 10**4 of them.
        assert main(["exact", "poisson-binomial", "--n", "10000",
                     "--p", "0.3"]) == EXIT_USAGE
        assert "exceed cap 10000" in capsys.readouterr().err

    def test_poisson_binomial_cap_checked_before_summands(self, monkeypatch,
                                                          capsys):
        # A billion summands would be an 8 GB list; none is built.
        def make_pmf(*args, **kwargs):
            raise AssertionError("summand built")

        monkeypatch.setattr(cli, "make_pmf", make_pmf)
        assert main(["exact", "poisson-binomial", "--n", "1000000000",
                     "--p", "0.3"]) == EXIT_USAGE
        assert "exceed cap 10000" in capsys.readouterr().err

    def test_poisson_binomial_nan_p(self, capsys):
        assert main(["exact", "poisson-binomial", "--n", "10",
                     "--p", "nan"]) == EXIT_USAGE
        assert "got nan" in capsys.readouterr().err

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

    def test_rates_progress_goes_to_stderr(self, capsys):
        assert main(["rates", "--app", "matern", "--scales", "200", "400.5",
                     "800", "--reps", "200", "--seed", "3"]) == EXIT_OK
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert len(lines) == 3
        for line, tag in zip(lines, ["scale=200 (1/3)", "scale=400.5 (2/3)",
                                     "scale=800 (3/3)"]):
            assert line.startswith(f"# rates matern {tag} ")
            assert line.endswith(" s")
        assert "# rates matern" not in out

    def test_rates_failing_scale_prints_no_progress(self, capsys):
        # Only n = 10 has variance <= 1.  The later scales run alongside it,
        # but its error is raised and no scale gets a progress line.
        assert main(["rates", "--app", "rscan", "--r", "2", "--a", "0.05",
                     "--scales", "10", "2000", "4000",
                     "--reps", "200"]) == EXIT_INAPPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("inapplicable: variance must exceed 1")
        assert "# rates" not in err

    def test_rates_runs_at_most_one_scale_more_than_workers(self,
                                                             monkeypatch):
        # Ten scales on two chunk workers run three at a time, not one
        # thread each.
        monkeypatch.setattr(engine, "WORKERS", 2)
        lock, running, most = threading.Lock(), [0], [0]
        experiment = cli._experiment

        def counted(*args):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.05)  # so that every scale the pool starts overlaps
            try:
                return experiment(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(cli, "_experiment", counted)
        scales = [str(100 * k) for k in range(1, 11)]
        assert main(["rates", "--app", "rscan", "--scales", *scales,
                     "--reps", "200", "--out", os.devnull]) == EXIT_OK
        assert most[0] == 3

    def test_rates_checks_every_scale_first(self, capsys):
        # No scale runs, and no progress line is printed, before the bad one
        # is refused.
        assert main(["rates", "--app", "matern", "--scales", "100", "200",
                     "inf", "--reps", "200"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need lam > 0 and finite, got inf\n"

    def test_rates_refuses_repeated_scale_first(self, capsys):
        # fit_rate's rule, applied before any scale runs: a repeated scale
        # would otherwise run every experiment and then fail, or print two
        # identical rows when the noise floor drops every point.
        assert main(["rates", "--app", "rscan", "--scales", "400", "400",
                     "1600", "--reps", "200"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: scales must be positive and strictly "
                       "increasing\n")

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
        err = capsys.readouterr().err
        assert "800.7" in err and "# rates" not in err

    def test_rates_matern_accepts_default_dist(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rates", "--app", "matern", "--scales", "200", "400",
                     "800", "--dist", "exponential", "--reps", "200",
                     "--out", str(out)]) == EXIT_OK
        _, names, rows = read_rows(out)
        assert names[0] == "d" and [r["d"] for r in rows] == ["1"] * 3

    def test_rates_needs_three_scales(self, capsys):
        assert main(["rates", "--app", "rscan", "--scales", "100", "200",
                     "--reps", "100"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: need at least 3 points "
                                           "for a rate fit\n")

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    @pytest.mark.parametrize("argv", [
        ["rscan", "--n", "100", "--r", "2", "--a", "1.0"],
        ["matern", "--d", "1", "--lam", "200", "--a", "1.0"],
        ["rates", "--app", "rscan", "--scales", "100", "200", "400"]])
    def test_bad_seed_refused_when_parsed(self, argv, seed, monkeypatch,
                                          capsys):
        def reached(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "cmd_experiment", reached)
        monkeypatch.setattr(cli, "cmd_rates", reached)
        assert main(argv + ["--seed", seed]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --seed: need an integer >= 0, got '{seed}'" in err


@pytest.mark.parametrize("app,scales,reps,flag,value", [
    ("rscan", RSCAN_SCALES, RSCAN_REPS, "r", 2),
    ("matern", MATERN_SCALES, MATERN_REPS, "d", 1)])
def test_sweep_script_preset_is_acceptance_sweep(app, scales, reps, flag,
                                                 value):
    preset = runpy.run_path(str(SCRIPTS / f"run_{app}_rates.py"))["PRESET"]
    args = cli.build_parser().parse_args(preset)
    assert (args.app, args.scales, args.reps, args.seed, args.a) \
        == (app, [float(s) for s in scales], reps, RATE_SEED, 1.0)
    assert getattr(args, flag) == value


def test_readme_cli_section_names_every_long_option():
    # A flag removed from the parser but still documented fails here, and
    # so does a new flag that README does not name.
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    options = {o for p in subcommands.choices.values() for a in p._actions
               for o in a.option_strings if o.startswith("--")}
    assert documented == options - {"--help"}


def test_every_public_name_in_src_is_used_or_documented():
    # No helper exists only to be tested: each public top-level def or class
    # of a module is referenced from src/ (the package __init__'s re-exports
    # would not count), from perfbench/ or from scripts/, or README's
    # ## Layout names it as library API.
    root = SCRIPTS.parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in (root / "src" / "binapprox").glob("*.py")
             if p.stem != "__init__"}
    used = set()
    for node in (n for t in trees.values() for n in ast.walk(t)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    for d in ("perfbench", "scripts"):
        for p in (root / d).glob("*.py"):
            used.update(re.findall(r"\w+", p.read_text(encoding="utf-8")))
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(?:\w+\.)*(\w+)", layout))
    unused = {f"{mod}.{node.name}" for mod, t in trees.items()
              for node in t.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used | documented}
    assert not unused


@pytest.mark.parametrize("argv", [
    ["bound", "spec.json"],
    ["exact", "two-runs", "--n", "30", "--p", "0.5"],
    ["rscan", "--n", "100", "--r", "2", "--a", "1.0", "--reps", "200"],
    ["matern", "--d", "1", "--lam", "200", "--a", "1.0", "--reps", "200"],
    ["rates", "--app", "rscan", "--scales", "100", "200", "400",
     "--reps", "200"]], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(argv, zero_spec, monkeypatch, capsys):
    # --out names a directory: main's one write fails for every command.
    monkeypatch.chdir(zero_spec.parent)
    assert main(argv + ["--out", str(zero_spec.parent)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith("error: ")


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


def test_runs_without_sched_getaffinity():
    # macOS and Windows have no os.sched_getaffinity; the chunk pool, made
    # at import, is then sized by os.cpu_count().
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import os, sys; vars(os).pop('sched_getaffinity', None); "
            "import binapprox.cli as cli; "
            "sys.exit(cli.main(['rscan', '--n', '100', '--r', '2', '--a', "
            "'1', '--reps', '1000']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


NO_LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
import binapprox.cli as cli
from binapprox import bounds, oracle
at_import = set(sys.modules)
with open(sys.argv[1], "w") as fh:
    fh.write(bounds.spec_to_json(oracle.two_runs_decomposable_spec(
        oracle.TwoRunsModel(60, 0.4))))
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = [m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")]
print(json.dumps({"codes": codes,
                  "scipy": [m for m in loaded if m.startswith("scipy")],
                  "late": [m for m in loaded if m not in at_import]}))
"""


def test_no_scipy_and_no_lazy_numpy_import(tmp_path):
    # scipy is a test-only reference: no command loads it.  numpy loads some
    # submodules on first use; binapprox imports them up front, so none is
    # first loaded (and paid for) inside a command.
    spec = tmp_path / "spec.json"
    cases = [
        ["rscan", "--n", "100", "--r", "2", "--a", "1.0", "--reps", "500"],
        ["rscan", "--n", "60", "--r", "3", "--a", "1.5", "--dist",
         "uniform01", "--reps", "500"],
        ["matern", "--d", "1", "--lam", "50", "--a", "1.0", "--reps", "200"],
        ["matern", "--d", "2", "--lam", "50", "--r", "0.1", "--reps", "5"],
        ["rates", "--app", "rscan", "--scales", "100", "200", "400",
         "--reps", "500"],
        ["exact", "two-runs", "--n", "60", "--p", "0.4"],
        ["exact", "two-runs", "--n", "20000", "--p", "0.4"],
        ["exact", "poisson-binomial", "--n", "40", "--p", "0.3"],
        ["bound", str(spec)],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", NO_LAZY_IMPORT_SCRIPT,
                           str(spec), json.dumps(cases)],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report == {"codes": [EXIT_OK] * len(cases), "scipy": [],
                      "late": []}
