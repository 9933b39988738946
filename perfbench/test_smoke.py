"""Smoke tests for the benchmark's own code, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

The rates CLI needs three scales, so the tiny sweeps keep three small ones.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "rscan_scales": (40, 80, 160),
    "rscan_reps": 300,
    "rscan_r8_n": 160,
    "matern_scales": (200, 400, 800),
    "matern_1d_reps": 300,
    "matern_2d_lam": 400,
    "matern_2d_reps": 5,
    "two_runs_n": (30, 60),
    "poisson_binomial_n": (10, 20),
    "spec_n": 60,
    "stein_n": (50, 2000),
}


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in doc["per_layer"]}
            == {k: v[0] for k, v in tracing.PER_LAYER.items()})
    assert set(workloads.FULL) == set(TINY)


def test_plan_is_deterministic_in_seed(tmp_path):
    a = workloads.plan("exact-certify", 5, str(tmp_path), TINY)
    b = workloads.plan("exact-certify", 5, str(tmp_path), TINY)
    c = workloads.plan("exact-certify", 6, str(tmp_path), TINY)
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", list(workloads.WHY))
def test_traced_pass_reproduces_untraced(name, tmp_path):
    plan = workloads.plan(name, 3, str(tmp_path), TINY)
    worker.prepare(plan)
    untraced = worker.run_pass(plan, "untraced")
    decomposed = worker.run_pass(plan, "decomposed", tracing.Tracer())
    tracer = tracing.Tracer()
    tracer.install()
    traced = worker.run_pass(plan, "traced", tracer)
    for u, d, t in zip(untraced["ops"], decomposed["ops"], traced["ops"]):
        assert u["checks_failed"] == [] and t["checks_failed"] == []
        assert run._same_output(u, d), u["id"]
        assert run._same_output(u, t), u["id"]
    metrics = tracer.layer_metrics()
    from_spans = {k for k, v in tracing.PER_LAYER.items() if v[1][0] != "run"}
    assert set(metrics) == from_spans
    for metric, (_u, _rule, _moves, used_by) in tracing.PER_LAYER.items():
        if name in used_by and metric in from_spans \
                and metric not in tracing.SETUP_METRICS:
            assert metric in ("engine.fit_kept_frac", "binomial.stein_failed") \
                or metrics[metric] > 0, metric


def test_stein_failure_counted_not_hidden(tmp_path):
    plan = workloads.plan("exact-certify", 3, str(tmp_path), TINY)
    worker.prepare(plan)
    ops = {o["id"]: o for o in worker.run_pass(plan, "untraced")["ops"]}
    assert ops["stein-50"]["error"] is None
    assert ops["stein-2000"]["error"].startswith("ValueError")


def test_checks_catch_wrong_outputs(tmp_path):
    plan = workloads.plan("sweep-rscan", 3, str(tmp_path), TINY)
    op = plan["ops"][1]
    out = worker.run_cli(op)
    assert worker.checks(op, out) == []
    bad = {"rows": [dict(out["rows"][0], sigma2="1.5", emp_tv_lo="-0.1")],
           "footer": {}, "mean_z": [5.0]}
    assert worker.checks(op, bad) == ["tv_interval", "sigma2", "mean_4se"]
    changed = {"error": None, "footer": {},
               "rows": [dict(out["rows"][0], emp_tv="0.5")]}
    assert not run._same_output({"error": None, **out}, changed)


def test_run_reports_contract_line(tmp_path):
    report = run.run("exact-certify", 4, 0, True, root=ROOT, sizes=TINY)
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    # TINY has one Stein solve at n >= 2000, which fails in every pass.
    assert line["failed"] == sum(report["passes"].values())
    assert set(line["metrics"]) == set(tracing.PER_LAYER)
    assert set(report["end_to_end"]) == set(run.END_TO_END) | set(
        run.RUN_METRICS)
    assert line["metrics"]["fail_frac"]["value"] == (
        line["failed"] / line["attempted"])
    assert report["passes"]["decomposed"] == report["passes"]["traced"]
    assert len(report["provenance"]["src_sha256"]) == 64


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-rscan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
