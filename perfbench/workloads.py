"""The benchmark's workloads: what each pass runs, at which sizes, and why.

A plan is the list of operations one pass runs, written to ``plan.json``
before timing starts.  The program under test sees only these generated
inputs: CLI argument lists, plus a bound-spec JSON file that the prepare
step writes.

The scale ladders come from the paper's rate experiments; the rep counts
are set so that one pass takes a few seconds on a 2-core machine and a run
holds several passes.
"""

from __future__ import annotations

import os
import random

WHY = {
    "sweep-rscan":
        "r-scan sweep n=400..6400 r=2 + r=8 uniform point: float32 "
        "sliding-sum simulator, O(r) window loop, Irwin-Hall; "
        "rscan.*, engine.* move wall_s here; never calls matern or "
        "oracle",
    "sweep-matern":
        "Matern 1-d sweep lam=200..800 (sort, most memory) + 2-d "
        "lam=400 (O(k^2) loop); matern.*, engine.* move wall_s, "
        "peak_rss_mb; 1-d mean check can't resolve float32 bias "
        "(-1.07 at lam=12800)",
    "exact-certify":
        "exact two-runs and poisson-binomial, bound spec.json, Stein "
        "solves (n>=2000 crash at baseline), no sampling; oracle.*, "
        "bounds.*, binomial.*, lattice.* move wall_s and fail_frac "
        "here",
}

FULL = {
    "rscan_scales": (400, 1600, 6400),
    "rscan_reps": 10000,
    "rscan_r8_n": 1600,
    "matern_scales": (200, 400, 800),
    "matern_1d_reps": 30000,
    "matern_2d_lam": 400,
    "matern_2d_reps": 200,
    "two_runs_n": (300, 1000, 3000),
    "poisson_binomial_n": (100, 200),
    "spec_n": 1000,
    "stein_n": (200, 800, 2000, 10000),
}

# Stein target sets hold this share of the support, drawn from the seed.
STEIN_TARGET_SHARE = 0.05


def _cli(op_id: str, *argv, mc_points: float = 0.0) -> dict:
    """A CLI operation.  mc_points counts the base draws it simulates."""
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv],
            "mc_points": float(mc_points)}


def plan(workload: str, seed: int, workdir: str, sizes: dict = FULL) -> dict:
    """The operations of one pass of ``workload``; the same seed gives the
    same plan."""
    ops = []
    spec = None
    if workload == "sweep-rscan":
        # An r-scan rep draws n + r - 1 base variables.
        reps, n8 = sizes["rscan_reps"], sizes["rscan_r8_n"]
        scales = sizes["rscan_scales"]
        ops.append(_cli("rates-rscan", "rates", "--app", "rscan", "--r", 2,
                        "--a", 1, "--scales", *scales, "--reps", reps,
                        "--seed", seed,
                        mc_points=sum(reps * (n + 1) for n in scales)))
        ops.append(_cli("rscan-r8-uniform", "rscan", "--n", n8, "--r", 8,
                        "--a", 4, "--dist", "uniform01", "--reps", reps,
                        "--seed", seed, mc_points=reps * (n8 + 7)))
    elif workload == "sweep-matern":
        # A Matern rep draws Poisson(lam) points: lam on average.
        reps1, scales = sizes["matern_1d_reps"], sizes["matern_scales"]
        reps2, lam2 = sizes["matern_2d_reps"], sizes["matern_2d_lam"]
        ops.append(_cli("rates-matern-1d", "rates", "--app", "matern",
                        "--d", 1, "--a", 1, "--scales", *scales,
                        "--reps", reps1, "--seed", seed,
                        mc_points=sum(reps1 * lam for lam in scales)))
        ops.append(_cli("matern-2d", "matern", "--d", 2, "--lam", lam2,
                        "--a", 1, "--reps", reps2, "--seed", seed,
                        mc_points=reps2 * lam2))
    elif workload == "exact-certify":
        for n in sizes["two_runs_n"]:
            ops.append(_cli(f"two-runs-{n}", "exact", "two-runs",
                            "--n", n, "--p", 0.4))
        for n in sizes["poisson_binomial_n"]:
            ops.append(_cli(f"poisson-binomial-{n}", "exact",
                            "poisson-binomial", "--n", n, "--p", 0.3))
        # The 2-runs model written as a decomposable spec; the prepare
        # step writes it before timing starts.
        spec = {"n": sizes["spec_n"], "p": 0.4,
                "path": os.path.join(workdir, "spec.json")}
        ops.append(_cli("bound-spec", "bound", spec["path"]))
        rng = random.Random(seed)
        for n in sizes["stein_n"]:
            k = max(1, round(STEIN_TARGET_SHARE * (n + 1)))
            ops.append({"id": f"stein-{n}", "kind": "stein", "n": n, "p": 0.4,
                        "target": sorted(rng.sample(range(n + 1), k))})
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WHY)}")
    return {"workload": workload, "seed": seed, "spec": spec, "ops": ops}
