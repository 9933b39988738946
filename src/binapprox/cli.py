"""Command-line front end.

Subcommands: ``bound`` (evaluate a bound spec from JSON), ``exact``
(exact-distance dominance reports for the solvable benchmarks), ``rscan``
and ``matern`` (Monte Carlo experiments), ``rates`` (distance-vs-scale
sweeps with a fitted slope).  Output is UTF-8 CSV with ``#``-prefixed
header comments echoing the configuration.

Exit codes: 0 success, 1 usage/config error, 2 inapplicable configuration
(e.g. variance <= 1), 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import bounds as _bounds
from . import matern as _matern
from . import oracle as _oracle
from . import rscan as _rscan
from .engine import Inapplicable, filter_floor, fit_rate
from .lattice import make_pmf

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


def _row(names, values) -> list[str]:
    return [",".join(names), ",".join(_fmt(v) for v in values)]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_bound(args) -> int:
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        spec = _bounds.spec_from_json(fh.read())
    lines = _header({"subcommand": "bound", "spec_file": args.spec_file})
    lines.append("metric,l,bound,sigma2,theta_sum,constant")
    for l, metric in ((1, "tv"), (2, "loc")):
        rep = _bounds.bound_report(spec, l, args.sigma2)
        lines.append(",".join(_fmt(v) for v in
                              (metric, l, rep.value, rep.sigma2, rep.theta_sum,
                               _bounds.ROUNDING_CONSTANT)))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.kind == "poisson-binomial":
        summand = make_pmf([1.0 - args.p, args.p]).translate(-args.p)
        spec = _bounds.IndependentSummandSpec([summand] * args.n)
        w = _oracle.exact_sum_pmf(spec.summands)
    else:
        model = _oracle.TwoRunsModel(args.n, args.p)
        raw = _oracle.two_runs_pmf(model)
        w = raw.translate(-raw.mean())
        spec = _oracle.two_runs_dependence_spec(model)
    # Raises Inapplicable on variance <= 1, before the bounds' work.
    tv, loc, _cp = _oracle.exact_distance_report(w)
    b1, b2 = (_bounds.bound_report(spec, l).value for l in (1, 2))
    verdict = "PASS" if (tv <= b1 and loc <= b2) else "FAIL"
    lines = _header({"subcommand": "exact", "kind": args.kind,
                     "n": args.n, "p": args.p})
    lines += _row(
        ["kind", "n", "p", "sigma2", "exact_tv", "exact_loc",
         "bound_l1", "bound_l2", "verdict"],
        [args.kind, args.n, args.p, spec.sigma2, tv, loc, b1, b2, verdict])
    _emit(lines, args.out)
    return EXIT_OK


def _experiment(app: str, args, scale):
    """One Monte Carlo experiment of app at scale (n or lam)."""
    if app == "rscan":
        cfg = _rscan.RScanConfig(n=int(scale), r=args.r, a=args.a,
                                 base_dist=args.dist)
        return _rscan.empirical_distance(cfg, args.reps, args.seed)
    if args.r is not None:
        cfg = _matern.MaternConfig(d=args.d, lam=scale, r=args.r)
    else:
        cfg = _matern.MaternConfig.from_intensity_product(args.d, float(scale),
                                                          args.a)
    return _matern.empirical_distance(cfg, args.reps, args.seed)


def _result_lines(results) -> list[str]:
    """Column line and one row per result; the app is in the header."""
    rows = [res.csv_row() for res in results]
    cols = [c for c in rows[0] if c != "app"]
    return [",".join(cols)] + [",".join(_fmt(row[c]) for c in cols)
                               for row in rows]


def cmd_experiment(args) -> int:
    scale = args.n if args.subcommand == "rscan" else args.lam
    res = _experiment(args.subcommand, args, scale)
    lines = _header(res.config_echo | {"reps": args.reps, "seed": args.seed})
    lines += _result_lines([res])
    _emit(lines, args.out)
    return EXIT_OK


def _app_flags(args) -> None:
    """Default rates' --r to 2 (rscan) and --d to 1 (matern); refuse a flag
    the app does not read, and an r-scan scale that is not an integer."""
    if args.app == "rscan":
        stray = "--d" if args.d is not None else None
        args.r = 2 if args.r is None else args.r
        for scale in args.scales:
            if not scale.is_integer():
                raise ValueError(f"r-scan scale {scale} is not an integer")
    else:
        stray = ("--r" if args.r is not None else
                 "--dist" if args.dist != "exponential" else None)
        args.d = 1 if args.d is None else args.d
    if stray:
        raise ValueError(f"{stray} does not apply to --app {args.app}")


def cmd_rates(args) -> int:
    scales = args.scales
    if len(scales) < 3:
        raise argparse.ArgumentTypeError("need at least 3 scales")
    _app_flags(args)
    results = [_experiment(args.app, args, scale) for scale in scales]
    key = "tv" if args.metric == "tv" else "loc"
    points = [(float(s), getattr(r, key)) for s, r in zip(scales, results)]
    floors = [r.tv_floor if key == "tv" else r.loc_floor for r in results]
    kept, dropped = filter_floor(points, floors)
    lines = _header({"subcommand": "rates", "app": args.app,
                     "metric": args.metric, "scales": ";".join(map(str, scales)),
                     "reps": args.reps, "seed": args.seed})
    lines += _result_lines(results)
    if len(kept) >= 3:
        fit = fit_rate(kept)
        lines.append(f"# slope={fit.slope!r} slope_lo={fit.slope_ci[0]!r} "
                     f"slope_hi={fit.slope_ci[1]!r} intercept={fit.intercept!r} "
                     f"n_dropped={len(dropped)}")
    else:
        lines.append(f"# slope=nan n_dropped={len(dropped)} "
                     "(too few points above the noise floor)")
    _emit(lines, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binapprox",
        description="Centered-binomial approximation bounds and experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", help="evaluate a bound spec from JSON")
    p.add_argument("spec_file")
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exact", help="exact-distance dominance report")
    p.add_argument("kind", choices=["poisson-binomial", "two-runs"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("rscan", help="window-exceedance experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--dist", choices=list(_rscan.BASE_DISTS),
                   default="exponential")
    p.add_argument("--reps", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("matern", help="hard-core point count experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, default=None)
    group.add_argument("--a", type=float, default=None)
    p.add_argument("--reps", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("rates", help="distance-vs-scale sweep with slope fit")
    p.add_argument("--app", choices=["rscan", "matern"], required=True)
    p.add_argument("--scales", type=float, nargs="+", required=True)
    p.add_argument("--reps", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=["tv", "loc"], default="tv")
    p.add_argument("--r", type=int, help="rscan only (default 2)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--d", type=int, help="matern only (default 1)")
    p.add_argument("--dist", choices=list(_rscan.BASE_DISTS),
                   default="exponential",
                   help="rscan only; on matern the default is a no-op")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rates)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Inapplicable as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        print(traceback.format_exc(), file=sys.stderr, end="")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
