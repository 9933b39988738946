"""Command-line front end.

Subcommands: ``bound`` (evaluate a bound spec from JSON), ``exact``
(exact-distance dominance reports for the solvable benchmarks), ``rscan``
and ``matern`` (Monte Carlo experiments), ``rates`` (distance-vs-scale
sweeps with a fitted slope).  Output is UTF-8 CSV with ``#``-prefixed
header comments echoing the configuration.  Each handler returns the
header's config and its table lines; ``main`` alone writes them.

Exit codes: 0 success, 1 usage/config error, 2 inapplicable configuration
(e.g. variance <= 1), 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from . import bounds as _bounds
from . import engine as _engine
from . import matern as _matern
from . import oracle as _oracle
from . import rscan as _rscan
from .binomial import Inapplicable
from .engine import check_scales, filter_floor, fit_rate
from .lattice import check_support, make_pmf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INAPPLICABLE = 2
EXIT_INTERNAL = 3

CSV_SCHEMA_VERSION = 1


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(config: dict) -> list[str]:
    echo = " ".join(f"{k}={v}" for k, v in config.items())
    return [f"# schema_version={CSV_SCHEMA_VERSION}", f"# {echo}"]


def _table(rows: list[dict]) -> list[str]:
    """The first row's keys as the column line, then each row's values."""
    return [",".join(rows[0])] + [",".join(_fmt(v) for v in row.values())
                                  for row in rows]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_bound(args) -> tuple[dict, list[str]]:
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        spec = _bounds.spec_from_json(fh.read())
    rows = []
    for l, metric in ((1, "tv"), (2, "loc")):
        rep = _bounds.bound_report(spec, l)
        rows.append({"metric": metric, "l": l, "bound": rep.value,
                     "sigma2": rep.sigma2, "theta_sum": rep.theta_sum,
                     "constant": _bounds.ROUNDING_CONSTANT})
    return {"subcommand": "bound", "spec_file": args.spec_file}, _table(rows)


def cmd_exact(args) -> tuple[dict, list[str]]:
    if args.kind == "poisson-binomial":
        check_support(args.n + 1)  # before the n-entry summand list
        summands = [make_pmf([1.0 - args.p, args.p]).translate(-args.p)] * args.n
        w = _oracle.exact_sum_pmf(summands)
        spec = _bounds.IndependentSummandSpec(summands)
    else:
        model = _oracle.TwoRunsModel(args.n, args.p)
        raw = _oracle.two_runs_pmf(model)
        w = raw.translate(-raw.mean())
        spec = _oracle.two_runs_dependence_spec(model)
    # Raises Inapplicable on variance <= 1, before the bounds' work.
    tv, loc, _cp = _oracle.exact_distance_report(w)
    b1, b2 = (_bounds.bound_report(spec, l).value for l in (1, 2))
    verdict = "PASS" if (tv <= b1 and loc <= b2) else "FAIL"
    row = {"kind": args.kind, "n": args.n, "p": args.p, "sigma2": spec.sigma2,
           "exact_tv": tv, "exact_loc": loc, "bound_l1": b1, "bound_l2": b2,
           "verdict": verdict}
    return ({"subcommand": "exact", "kind": args.kind, "n": args.n,
             "p": args.p}, _table([row]))


def _config(app: str, args, scale):
    """The config of app at scale (n or lam); an r-scan scale must be an
    integer."""
    if app == "rscan":
        if not float(scale).is_integer():
            raise ValueError(f"r-scan scale {scale} is not an integer")
        return _rscan.RScanConfig(n=int(scale), r=args.r, a=args.a,
                                  base_dist=args.dist)
    if args.r is not None:
        return _matern.MaternConfig(d=args.d, lam=scale, r=args.r)
    return _matern.MaternConfig.from_intensity_product(args.d, float(scale),
                                                       args.a)


def _experiment(app: str, args, cfg):
    """One Monte Carlo experiment of app's cfg."""
    module = _rscan if app == "rscan" else _matern
    return module.empirical_distance(cfg, args.reps, args.seed)


def _result_lines(results) -> list[str]:
    """The results' table; the app is in the header."""
    return _table([{k: v for k, v in res.csv_row().items() if k != "app"}
                   for res in results])


def cmd_experiment(args) -> tuple[dict, list[str]]:
    scale = args.n if args.subcommand == "rscan" else args.lam
    res = _experiment(args.subcommand, args,
                      _config(args.subcommand, args, scale))
    return (res.config_echo | {"reps": args.reps, "seed": args.seed},
            _result_lines([res]))


def _app_flags(args) -> None:
    """Default rates' --r to 2 (rscan) and --d to 1 (matern); refuse a flag
    the app does not read."""
    if args.app == "rscan":
        stray = "--d" if args.d is not None else None
        args.r = 2 if args.r is None else args.r
    else:
        stray = ("--r" if args.r is not None else
                 "--dist" if args.dist != "exponential" else None)
        args.d = 1 if args.d is None else args.d
    if stray:
        raise ValueError(f"{stray} does not apply to --app {args.app}")


def cmd_rates(args) -> tuple[dict, list[str]]:
    scales = args.scales
    _app_flags(args)
    # Every scale's config, and fit_rate's rule on the scales, is checked
    # before the first experiment runs.
    cfgs = [_config(args.app, args, scale) for scale in scales]
    check_scales(scales)
    # The scales run together, at most one more than the engine has chunk
    # workers, so their chunks share its chunk pool and keep it busy;
    # results and progress lines come in scale order, and the first failing
    # scale's error is raised with no line for it.
    t0 = time.perf_counter()
    results = []
    with ThreadPoolExecutor(min(len(cfgs), _engine.WORKERS + 1)) as pool:
        futures = [pool.submit(_experiment, args.app, args, cfg)
                   for cfg in cfgs]
        for i, (scale, future) in enumerate(zip(scales, futures), 1):
            results.append(future.result())
            print(f"# rates {args.app} scale={scale:.15g} ({i}/{len(scales)}) "
                  f"{time.perf_counter() - t0:.2f} s", file=sys.stderr)
    points = [(float(s), getattr(r, args.metric))
              for s, r in zip(scales, results)]
    floors = [getattr(r, f"{args.metric}_floor") for r in results]
    kept, dropped = filter_floor(points, floors)
    lines = _result_lines(results)
    if len(kept) >= 3:
        fit = fit_rate(kept)
        lines.append(f"# slope={fit.slope!r} slope_lo={fit.slope_ci[0]!r} "
                     f"slope_hi={fit.slope_ci[1]!r} intercept={fit.intercept!r} "
                     f"n_dropped={len(dropped)}")
    else:
        lines.append(f"# slope=nan n_dropped={len(dropped)} "
                     "(too few points above the noise floor)")
    echo = {"subcommand": "rates", "app": args.app, "metric": args.metric,
            "scales": ";".join(map(str, scales)), "reps": args.reps,
            "seed": args.seed}
    return echo, lines


def _seed(text: str) -> int:
    """The type of every --seed: numpy seeds need an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binapprox",
        description="Centered-binomial approximation bounds and experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    mc = argparse.ArgumentParser(add_help=False, parents=[out])
    mc.add_argument("--reps", type=int, default=10 ** 5)
    mc.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("bound", parents=[out],
                       help="evaluate a bound spec from JSON")
    p.add_argument("spec_file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exact", parents=[out],
                       help="exact-distance dominance report")
    p.add_argument("kind", choices=["poisson-binomial", "two-runs"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("rscan", parents=[mc],
                       help="window-exceedance experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--dist", choices=list(_rscan.BASE_DISTS),
                   default="exponential")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("matern", parents=[mc],
                       help="hard-core point count experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, default=None)
    group.add_argument("--a", type=float, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("rates", parents=[mc],
                       help="distance-vs-scale sweep with slope fit")
    p.add_argument("--app", choices=["rscan", "matern"], required=True)
    p.add_argument("--scales", type=float, nargs="+", required=True)
    p.add_argument("--metric", choices=["tv", "loc"], default="tv")
    p.add_argument("--r", type=int, help="rscan only (default 2)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--d", type=int, help="matern only (default 1)")
    p.add_argument("--dist", choices=list(_rscan.BASE_DISTS),
                   default="exponential",
                   help="rscan only; on matern the default is a no-op")
    p.set_defaults(func=cmd_rates)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        echo, lines = args.func(args)
        _emit(_header(echo) + lines, args.out)
        return EXIT_OK
    except Inapplicable as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        print(traceback.format_exc(), file=sys.stderr, end="")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
