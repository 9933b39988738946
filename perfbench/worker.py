"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py MODE PLAN OUT

MODE is one of

* ``setup``: import binapprox and nothing else;
* ``prepare``: import binapprox once, so that bytecode and file caches are
  warm before anything is timed, and write the input files the plan names;
* ``untraced``: run every operation through ``binapprox.cli.main``, as a
  user would, with no instrumentation;
* ``decomposed``: run the sweep operations decomposed into their public
  calls (moments, bound, simulation, ``engine.run_experiment`` with a
  replay sampler, rate fit), with no timing wrappers installed; the
  ``exact`` and ``bound`` operations and the Stein solves run as in
  ``untraced``;
* ``traced``: the ``decomposed`` pass with a span around every call in
  ``tracing.TRACED_CALLS``.  The CLI reaches ``oracle`` and ``bounds``
  through module attributes, which the tracer wraps, so the exact and bound
  operations need no decomposition to be traced.

The pass writes its import time, wall time, peak memory, per-operation
output rows, failures and failed checks to OUT as JSON.  Only the standard
library is imported before the timed import of binapprox.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import tracing

# A traced pass also checks that each experiment's centered draws have
# mean 0 to within this many standard errors.
MEAN_CHECK_SE = 4.0
STEIN_RESIDUAL_MAX = 1e-9


class OpFailed(RuntimeError):
    """The CLI returned a nonzero exit code."""


def _norm(value) -> str:
    """Canonical text of one output field: floats by repr, so that equal
    text means bit-identical values."""
    if isinstance(value, str):
        try:
            return repr(float(value))
        except ValueError:
            return value
    return repr(float(value))


def _row(mapping) -> dict:
    return {k: _norm(v) for k, v in mapping.items() if k != "wall_time"}


def digest(output) -> str:
    """sha256 of an operation's rows and footer, wall_time excluded."""
    doc = {"rows": output["rows"], "footer": output["footer"]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def parse_csv(text: str) -> dict:
    """Rows and footer of the CLI's CSV output.  Comment lines before the
    column line echo the configuration; key=value pairs in comment lines
    after it (the rate-fit footer) are kept."""
    cols, rows, footer = None, [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            if cols is not None:
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        footer[key] = _norm(val)
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(_row(dict(zip(cols, line.split(",")))))
    return {"rows": rows, "footer": footer}


# -- operations -----------------------------------------------------------


def _stein(op) -> dict:
    from binapprox import binomial

    params = binomial.BinomialParams(op["n"], op["p"])
    g = binomial.stein_solution(params, op["target"])
    residual = binomial.stein_residual(params, op["target"], g)
    return {"rows": [{"n": _norm(op["n"]), "residual": _norm(residual),
                      "g_sha256": hashlib.sha256(g.tobytes()).hexdigest()}],
            "footer": {}}


def run_cli(op) -> dict:
    """One operation as a user runs it: the CLI entry point, in process."""
    if op["kind"] == "stein":
        return _stein(op)
    from binapprox import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return parse_csv(out.getvalue())


def _try_bound(fn, cfg, l):
    try:
        return fn(cfg, l)
    except ValueError:
        return math.nan


def _experiment(app, cfg, reps, seed, tracer):
    """rscan/matern.empirical_distance, one public call at a time."""
    from binapprox import engine, matern, rscan

    if app == "rscan":
        mean = cfg.n * rscan.exceedance_prob(cfg)
        sigma2 = rscan.variance_formula(cfg)
        bounds = [_try_bound(rscan.error_bound, cfg, l) for l in (1, 2)]
        draws = rscan.simulate_counts(cfg, reps, seed)
        tracer.count("rscan.vars", reps * (cfg.n + cfg.r - 1))
        echo = {"app": "rscan", "n": cfg.n, "r": cfg.r, "a": cfg.a,
                "dist": cfg.base_dist}
    else:
        mean = matern.mean_total(cfg)
        sigma2, _ = matern.variance_total(cfg)
        bounds = [_try_bound(matern.error_bound, cfg, l) for l in (1, 2)]
        dim = "1d" if cfg.d == 1 else "2d"
        with tracer.span(f"matern.simulate_{dim}"):
            draws = matern.simulate_counts(cfg, reps, seed)
        tracer.count(f"matern.points_{dim}", reps * cfg.lam)
        echo = {"app": "matern", "d": cfg.d, "lam": cfg.lam, "r": cfg.r,
                "a": cfg.a}
    samples = draws - mean
    res = engine.run_experiment(lambda _cfg, _reps, _seed: samples, echo,
                                reps, seed, sigma2, (-mean) % 1.0,
                                bound_l1=bounds[0], bound_l2=bounds[1])
    tracer.observe("engine.tv_over_floor", res.tv / res.tv_floor)
    sd = float(samples.std(ddof=1)) if reps > 1 else 0.0
    m = float(samples.mean())
    z = m / (sd / math.sqrt(reps)) if sd > 0 else (0.0 if m == 0 else math.inf)
    return res, z


def _decomposed_rates(args, tracer):
    from binapprox import engine, matern, rscan

    results, zs = [], []
    for scale in args.scales:
        if args.app == "rscan":
            cfg = rscan.RScanConfig(n=int(scale), r=args.r, a=args.a,
                                    base_dist=args.dist)
        else:
            cfg = matern.MaternConfig.from_intensity_product(
                args.d, float(scale), args.a)
        res, z = _experiment(args.app, cfg, args.reps, args.seed, tracer)
        results.append(res)
        zs.append(z)
    # The plans use the default --metric tv.
    points = [(float(s), r.tv) for s, r in zip(args.scales, results)]
    floors = [r.tv_floor for r in results]
    kept, dropped = engine.filter_floor(points, floors)
    tracer.count("engine.fit_kept", len(kept))
    tracer.count("engine.fit_points", len(points))
    footer = {"n_dropped": _norm(len(dropped))}
    if len(kept) >= 3:
        fit = engine.fit_rate(kept)
        footer.update(slope=_norm(fit.slope), slope_lo=_norm(fit.slope_ci[0]),
                      slope_hi=_norm(fit.slope_ci[1]),
                      intercept=_norm(fit.intercept))
    else:
        footer["slope"] = _norm("nan")
    return {"rows": [_row(r.csv_row()) for r in results], "footer": footer,
            "mean_z": zs}


def _decomposed_single(args, tracer):
    from binapprox import matern, rscan

    if args.subcommand == "rscan":
        cfg = rscan.RScanConfig(n=args.n, r=args.r, a=args.a,
                                base_dist=args.dist)
    else:
        cfg = matern.MaternConfig.from_intensity_product(args.d, args.lam,
                                                         args.a)
    res, z = _experiment(args.subcommand, cfg, args.reps, args.seed, tracer)
    return {"rows": [_row(res.csv_row())], "footer": {}, "mean_z": [z]}


DECOMPOSED = {"rates": _decomposed_rates, "rscan": _decomposed_single,
              "matern": _decomposed_single}


def run_decomposed(op, tracer) -> dict:
    """The same operation as run_cli; a sweep one public call at a time."""
    if op["kind"] != "cli" or op["argv"][0] not in DECOMPOSED:
        return run_cli(op)
    from binapprox import cli

    args = cli.build_parser().parse_args(op["argv"])
    return DECOMPOSED[args.subcommand](args, tracer)


# -- output checks ----------------------------------------------------------


def _sweep_checks(row) -> list[str]:
    from binapprox import matern, rscan

    f = {k: float(v) for k, v in row.items() if k not in ("app", "dist")}
    failed = []
    if not 0.0 <= f["emp_tv_lo"] <= f["emp_tv"] <= f["emp_tv_hi"] <= 1.0:
        failed.append("tv_interval")
    if not f["emp_tv"] - f["tv_floor"] <= f["bound_l1"]:
        failed.append("tv_bound")
    if not f["emp_loc"] - f["loc_floor"] <= f["bound_l2"]:
        failed.append("loc_bound")
    if "dist" in row:
        cfg = rscan.RScanConfig(n=int(f["n"]), r=int(f["r"]), a=f["a"],
                                base_dist=row["dist"])
        sigma2 = rscan.variance_formula(cfg)
    else:
        cfg = matern.MaternConfig(d=int(f["d"]), lam=f["lam"], r=f["r"])
        sigma2, _ = matern.variance_total(cfg)
    if sigma2 != f["sigma2"]:
        failed.append("sigma2")
    return failed


def checks(op, output) -> list[str]:
    """Names of the output checks this operation's output fails."""
    failed = []
    if op["kind"] == "stein":
        for row in output["rows"]:
            if not float(row["residual"]) < STEIN_RESIDUAL_MAX:
                failed.append("stein_residual")
        return failed
    command = op["argv"][0]
    for row in output["rows"]:
        if command in ("rates", "rscan", "matern"):
            failed += _sweep_checks(row)
        elif command == "exact" and row["verdict"] != "PASS":
            failed.append("verdict")
        elif command == "bound" and not 0.0 < float(row["bound"]) < math.inf:
            failed.append("bound_value")
    if any(not abs(z) <= MEAN_CHECK_SE for z in output.get("mean_z", ())):
        failed.append("mean_4se")
    return failed


# -- passes -------------------------------------------------------------------


def prepare(plan) -> None:
    """Write the input files the plan names."""
    from binapprox import bounds, oracle

    spec = plan.get("spec")
    if spec:
        model = oracle.TwoRunsModel(spec["n"], spec["p"])
        text = bounds.spec_to_json(oracle.two_runs_decomposable_spec(model))
        with open(spec["path"], "w", encoding="utf-8") as fh:
            fh.write(text)


def run_pass(plan, mode, tracer=None) -> dict:
    """Run every operation of the plan; time the loop, then check outputs."""
    if mode == "untraced":
        run = run_cli
    else:
        run = functools.partial(run_decomposed, tracer=tracer)
    outputs = []
    t_pass = time.perf_counter()
    for op in plan["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        t0 = time.perf_counter()
        try:
            out, error, tb = run(op), None, None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
        outputs.append((op, out, error, tb, time.perf_counter() - t0))
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()
    ops = []
    for op, out, error, tb, dt in outputs:
        entry = {"id": op["id"], "wall_s": dt, "error": error,
                 "traceback": tb, "checks_failed": [], "rows": None,
                 "footer": None, "digest": None}
        if out is not None:
            entry.update(checks_failed=checks(op, out), rows=out["rows"],
                         footer=out["footer"], digest=digest(out))
        ops.append(entry)
    return {"wall_s": wall, "ops": ops}


def main(argv) -> int:
    mode, plan_path, out_path = argv
    t0 = time.perf_counter()
    import binapprox.cli  # noqa: F401  (the timed set-up)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    installed = mode == "traced" or (mode == "prepare" and plan["trace"])
    if installed or mode == "decomposed":
        tracer = tracing.Tracer()
    if installed:
        tracer.install()
    result = {"mode": mode, "setup_s": setup_s,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if mode == "prepare":
        prepare(plan)
    elif mode in ("untraced", "decomposed", "traced"):
        result.update(run_pass(plan, mode, tracer))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if installed:
        tracer.uninstall()
        result["layer_metrics"] = tracer.layer_metrics()
        tracer.write(os.path.splitext(out_path)[0] + ".spans.jsonl")
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
