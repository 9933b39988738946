"""Seeded experiment orchestration: empirical distances with error bars.

The engine draws seeded samples in fixed-size chunks, turns them into an
empirical pmf, measures both distances to the matched centered binomial,
bootstraps confidence intervals, and reports the analytic sampling-noise
floor alongside every estimate (an empirical distance to a fixed law is
biased upward by roughly that floor, so dominance checks must budget for
it explicitly).  An application supplies only its count simulator, its
exact mean and variance, and its assembled bound.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; importing them here keeps that cost out of
# the first experiment: the chunk seeds need numpy.random, and np.percentile
# reaches numpy.ma through np.unique.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .lattice import LatticePMF, empirical_pmf, loc_distance, make_pmf, \
    tv_distance
from .binomial import centering_params, centered_binomial

BOOTSTRAP_RESAMPLES = 200
# Rate fits drop points whose distance is within this factor of the floor.
FLOOR_DROP_FACTOR = 3.0
# Base draws per simulator chunk: the seeding unit.  The size is fixed (not
# derived from the worker count) so results are bit-identical however chunks
# are scheduled.
CHUNK_DRAWS = 2 * 10 ** 7
# Base draws a chunk kernel holds at once: the working-set unit.  A kernel
# walks its chunk's reps in blocks of block_reps rows and reuses the block
# buffers; consecutive fills of one Generator give the values of one big
# fill, so the block size moves no output bit.  An r-scan block of 2**17
# draws holds about 1.1 MB of buffers, which fits one core's L2 cache, and
# a full chunk peaks at a few MB.
BLOCK_DRAWS = 2 ** 17

# The CPUs this process may use (those of the machine where the OS cannot
# say which, as on macOS and Windows): the chunk pool's worker count.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# The process-wide chunk pool, one worker per CPU; its threads start on
# first use.  It alone bounds how many chunk kernels (and so their buffers)
# are live at once, however many threads call sample_chunked.  Generator
# fills and the kernels' ufuncs release the GIL, so the workers run in
# parallel.  A chunk kernel must never call sample_chunked itself: waiting on
# the pool from inside it could deadlock.
_CHUNK_POOL = ThreadPoolExecutor(WORKERS)


def sample_chunked(chunk_sampler, reps: int, seed: int,
                   draws_per_rep: float) -> np.ndarray:
    """reps draws, deterministic in seed, made in chunks of at most
    CHUNK_DRAWS base draws.

    chunk_sampler(m, seed_seq) returns m draws; chunk k gets the k-th child
    of SeedSequence(seed).  The chunks run on the process-wide chunk pool and
    are concatenated in chunk order, so the result does not depend on how
    they are scheduled.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    chunk_reps = max(1, int(CHUNK_DRAWS / max(draws_per_rep, 1.0)))
    full, rest = divmod(reps, chunk_reps)
    sizes = [chunk_reps] * full + ([rest] if rest else [])
    children = np.random.SeedSequence(entropy=seed).spawn(len(sizes))
    return np.concatenate(list(_CHUNK_POOL.map(chunk_sampler, sizes,
                                               children)))


def block_reps(draws_per_rep: float) -> int:
    """Reps per kernel block: at most BLOCK_DRAWS base draws, at least one
    rep."""
    return max(1, int(BLOCK_DRAWS // draws_per_rep))


def noise_floor(reference: LatticePMF, reps: int) -> tuple[float, float]:
    """Expected (tv, loc) inflation when estimating the reference pmf from
    reps samples: sum_k sqrt(p_k(1-p_k)/reps)/2 and the max analogue."""
    p = reference.probs
    sd = np.sqrt(p * (1.0 - p) / reps)
    return float(sd.sum() / 2.0), float(sd.max())


@dataclass(frozen=True)
class ExperimentResult:
    config_echo: dict
    reps: int
    seed: int
    empirical: LatticePMF
    sigma2_used: float
    tv: float
    tv_ci: tuple[float, float]
    loc: float
    loc_ci: tuple[float, float]
    tv_floor: float
    loc_floor: float
    bound_l1: float = math.nan
    bound_l2: float = math.nan
    wall_time: float = 0.0

    def csv_row(self) -> dict:
        row = dict(self.config_echo)
        row.update(reps=self.reps, seed=self.seed, sigma2=self.sigma2_used,
                   bound_l1=self.bound_l1, bound_l2=self.bound_l2,
                   emp_tv=self.tv, emp_tv_lo=self.tv_ci[0], emp_tv_hi=self.tv_ci[1],
                   emp_loc=self.loc, emp_loc_lo=self.loc_ci[0],
                   emp_loc_hi=self.loc_ci[1],
                   tv_floor=self.tv_floor, loc_floor=self.loc_floor,
                   wall_time=self.wall_time)
        return row


def run_experiment(sampler, cfg: dict, reps: int, seed: int,
                   sigma2: float, anchor: float,
                   bound_l1: float = math.nan,
                   bound_l2: float = math.nan) -> ExperimentResult:
    """Sample, compare to the matched centered binomial, bootstrap the CIs.

    sampler(cfg, reps, seed) must return reps values on the lattice
    Z + anchor and be deterministic in (cfg, reps, seed).
    """
    t0 = time.perf_counter()
    # Refuses sigma2 <= 1 before any sampling.
    params = centering_params(sigma2, anchor)
    samples = np.asarray(sampler(cfg, reps, seed), dtype=float)
    emp = empirical_pmf(samples, anchor)
    ref = centered_binomial(params)
    tv = tv_distance(emp, ref)
    loc = loc_distance(emp, ref)
    tv_bs, loc_bs = _bootstrap(emp, ref, reps, seed)
    tvf, locf = noise_floor(ref, reps)
    return ExperimentResult(
        config_echo=cfg, reps=reps, seed=seed, empirical=emp,
        sigma2_used=sigma2, tv=tv,
        tv_ci=(min(tv, tv_bs[0]), max(tv, tv_bs[1])),
        loc=loc, loc_ci=(min(loc, loc_bs[0]), max(loc, loc_bs[1])),
        tv_floor=tvf, loc_floor=locf,
        bound_l1=bound_l1, bound_l2=bound_l2,
        wall_time=time.perf_counter() - t0)


def count_experiment(simulate, cfg, echo: dict, reps: int, seed: int,
                     mean: float, sigma2: float,
                     error_bound) -> ExperimentResult:
    """Distance of the centered count simulate(cfg, reps, seed) - mean to
    its matched centered binomial, with the assembled bounds
    error_bound(cfg, l) for l = 1, 2 (nan where a bound does not apply)."""
    bounds = []
    for l in (1, 2):
        try:
            bounds.append(error_bound(cfg, l))
        except ValueError:
            bounds.append(math.nan)

    def sampler(_cfg, m, s):
        return simulate(cfg, m, s) - mean

    return run_experiment(sampler, echo, reps, seed, sigma2, (-mean) % 1.0,
                          bound_l1=bounds[0], bound_l2=bounds[1])


def _bootstrap(emp: LatticePMF, ref: LatticePMF, reps: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0xB00]))
    tvs = np.empty(BOOTSTRAP_RESAMPLES)
    locs = np.empty(BOOTSTRAP_RESAMPLES)
    counts = rng.multinomial(reps, emp.probs, size=BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        resampled = make_pmf(counts[b] / reps, emp.min_index, emp.offset)
        tvs[b] = tv_distance(resampled, ref)
        locs[b] = loc_distance(resampled, ref)
    lo, hi = 2.5, 97.5
    return ((float(np.percentile(tvs, lo)), float(np.percentile(tvs, hi))),
            (float(np.percentile(locs, lo)), float(np.percentile(locs, hi))))


@dataclass(frozen=True)
class RateFit:
    slope: float
    slope_ci: tuple[float, float]
    intercept: float


def check_scales(scales) -> None:
    """A rate fit needs at least 3 scales, all positive and distinct."""
    if len(scales) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    if any(x <= 0 for x in scales) or len(set(scales)) != len(scales):
        raise ValueError("scales must be positive and strictly increasing")


def fit_rate(points) -> RateFit:
    """Least-squares slope of log distance against log scale.

    The slope CI is the leave-one-out spread of the refitted slopes.
    """
    pts = sorted(points)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    check_scales(xs)
    if any(y <= 0 for y in ys):
        raise ValueError("distances must be positive for a log-log fit")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    loo = []
    for i in range(len(pts)):
        mask = np.arange(len(pts)) != i
        s, _ = np.polyfit(lx[mask], ly[mask], 1)
        loo.append(float(s))
    return RateFit(slope=float(slope), slope_ci=(min(loo), max(loo)),
                   intercept=float(intercept))


def filter_floor(points, floors):
    """Drop (scale, distance) points whose distance is within
    FLOOR_DROP_FACTOR of the corresponding noise floor."""
    kept, dropped = [], []
    for (x, y), f in zip(points, floors):
        (kept if y > FLOOR_DROP_FACTOR * f else dropped).append((x, y))
    return kept, dropped
