"""Hard-core thinning of a Poisson process on the unit d-torus.

A Poisson pattern with intensity lam is thinned by deleting every point
that has another point inside its closed cube of side r (torus metric);
the observable is the number of retained points.  Exact mean and variance
come from closed forms and tensor quadrature; the simulator is the
Monte Carlo cross-check and the source of empirical distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import block_smoothing_constant, bound_from_theta
from .engine import block_reps, count_experiment, sample_chunked

MAX_EXACT_DIM = 3
QUAD_NODES = 64
_GL_X, _GL_W = leggauss(QUAD_NODES)
# The first-axis window of thin_pattern is this many ulps wider than r/2,
# so that rounding in the exact torus test cannot hide a close pair.
WINDOW_ULPS = 4


@dataclass(frozen=True)
class MaternConfig:
    d: int
    lam: float
    r: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"need lam > 0 and finite, got {self.lam}")
        if not 0.0 < self.r <= 1.0 / 7.0:
            raise ValueError(f"need 0 < r <= 1/7, got {self.r}")

    @property
    def a(self) -> float:
        return self.lam * self.r ** self.d

    @classmethod
    def from_intensity_product(cls, d: int, lam: float, a: float) -> "MaternConfig":
        """The config of side r = (a/lam)^(1/d); a refused r names the a
        and lam that gave it.  A bad d or lam is left to __post_init__'s
        own message."""
        if not 0.0 < a < math.inf:
            raise ValueError(f"need a > 0 and finite, got {a}")
        if not (d >= 1 and 0 < lam < math.inf):
            return cls(d=d, lam=lam, r=math.nan)
        r = (a / lam) ** (1.0 / d)
        if not 0.0 < r <= 1.0 / 7.0:
            raise ValueError(f"need 0 < r <= 1/7, got r = {r} from a = {a}, "
                             f"lam = {lam}")
        return cls(d=d, lam=lam, r=r)


def thin_pattern(points: np.ndarray, r: float) -> np.ndarray:
    """Keep the points with no other point in their closed side-r cube.

    A sweep along the first axis: after sorting on it, each point's
    candidates are its cyclic successors within r/2 there, and the torus
    test min(|x - y|, 1 - |x - y|) <= r/2 on every axis decides.  Every
    coordinate must lie in [0, 1); any other raises ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if not ((pts >= 0.0) & (pts < 1.0)).all():
        raise ValueError("every coordinate must lie in [0, 1)")
    k, h = pts.shape[0], r / 2.0
    order = np.argsort(pts[:, 0])
    first = pts[order, 0]
    # Candidates of sorted point i: positions i+1 .. stop-1 of the first
    # coordinates followed by the same + 1, so the window wraps the seam,
    # but never reaches the point's own copy.
    reach = (first + h) * (1.0 + WINDOW_ULPS * np.finfo(float).eps)
    idx = np.arange(k)
    stop = np.minimum(np.searchsorted(np.concatenate((first, first + 1.0)),
                                      reach, side="right"), idx + k)
    count = stop - idx - 1
    i = np.repeat(idx, count)
    j = (i + 1 + np.arange(i.size) - np.repeat(np.cumsum(count) - count,
                                                count)) % k
    gap = np.abs(pts[order[i]] - pts[order[j]])
    close = (np.minimum(gap, 1.0 - gap) <= h).all(axis=1)
    keep = np.ones(k, dtype=bool)
    keep[order[i[close]]] = False
    keep[order[j[close]]] = False
    return pts[keep]


def _counts_chunk_1d(cfg: MaternConfig, reps: int, seed_seq) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    taus = rng.poisson(cfg.lam, reps)
    counts = np.zeros(reps, dtype=np.int64)
    step = block_reps(cfg.lam)
    for lo in range(0, reps, step):
        t = taus[lo:lo + step]
        # The gaps between tau uniform points on the circle, in cyclic order,
        # are E_i / S for iid Exp(1) spacings E with sum S, so no sort is
        # needed: point i's left gap is big when E_i > (r/2) S.
        spacings = rng.standard_exponential(int(t.sum()))
        occupied = t > 0
        # first and last index each occupied rep's run of points.
        last = np.cumsum(t)[occupied] - 1
        first = last + 1 - t[occupied]
        threshold = np.add.reduceat(spacings, first) * (cfg.r / 2.0)
        big = spacings > np.repeat(threshold, t[occupied])
        # A point is kept when its left gap and its cyclic successor's are
        # big; a lone point's only gap is the whole circle.
        kept = np.roll(big, -1)
        kept[last] = big[first]
        kept &= big
        # An int32 sum: reduceat casts the whole input to its dtype first.
        counts[lo:lo + step][occupied] = np.add.reduceat(kept, first,
                                                         dtype=np.int32)
    return counts


def _counts_chunk(cfg: MaternConfig, reps: int, seed_seq) -> np.ndarray:
    """Any d: each rep draws its tau uniform points in turn and thins them."""
    rng = np.random.default_rng(seed_seq)
    counts = np.empty(reps, dtype=np.int64)
    for k in range(reps):
        pts = rng.random((rng.poisson(cfg.lam), cfg.d))
        counts[k] = len(thin_pattern(pts, cfg.r))
    return counts


def simulate_counts(cfg: MaternConfig, reps: int, seed: int) -> np.ndarray:
    """reps independent retained-point counts, deterministic in seed."""
    kernel = _counts_chunk_1d if cfg.d == 1 else _counts_chunk
    return sample_chunked(lambda m, child: kernel(cfg, m, child),
                          reps, seed, cfg.lam)


def mean_total(cfg: MaternConfig) -> float:
    """Expected number of retained points: lam * exp(-a)."""
    return cfg.lam * math.exp(-cfg.a)


def _second_moment_integral(cfg: MaternConfig) -> float:
    """Integral of the pair-density over the interaction shell.

    The shell is the side-2r cube minus the side-r cube around the origin;
    inside it the pair density is lam^2 exp(-lam * union volume of the two
    side-r cubes), with per-coordinate overlap (r - |x_i|)+.
    """
    r, lam, d = cfg.r, cfg.lam, cfg.d
    if d > MAX_EXACT_DIM:
        raise ValueError(f"exact integral only for d <= {MAX_EXACT_DIM}")
    # Integrate over the positive orthant of each cube and scale by 2^d;
    # the integrand is smooth there (no |x| kink).
    def cube_integral(half_side: float) -> float:
        x = 0.5 * half_side * (_GL_X + 1.0)
        w = 0.5 * half_side * _GL_W
        # Each node's product takes the axes' factors in axis order.
        overlap = reduce(np.multiply.outer, [np.clip(r - x, 0.0, None)] * d)
        f = np.exp(-lam * (2.0 * r ** d - overlap))
        return float((f * reduce(np.multiply.outer, [w] * d)).sum()) * 2 ** d

    return cube_integral(r) - cube_integral(r / 2.0)


def variance_total(cfg: MaternConfig) -> tuple[float, float]:
    """(exact variance, closed-form lower bound) of the retained count.

    Exact value via the pair-correlation integral; the lower bound is
    lam*exp(-a)*(1 - a*exp(-a)).
    """
    lam, r, d, a = cfg.lam, cfg.r, cfg.d, cfg.a
    mu = mean_total(cfg)
    shell = _second_moment_integral(cfg)
    m_total = lam ** 2 * (shell + (1.0 - (2.0 * r) ** d) * math.exp(-2.0 * a))
    exact = mu + m_total - mu ** 2
    lower = mu * (1.0 - a * math.exp(-a))
    return exact, lower


def error_bound(cfg: MaternConfig, l: int) -> float:
    """Assembled centered-binomial approximation bound, of order lam^{-l/2}
    at fixed intensity product a."""
    d, a = cfg.d, cfg.a
    c = block_smoothing_constant(l, int(1.0 / (6.0 * cfg.r)) ** d, 3,
                                 math.exp(-a), a * math.exp(-(3 ** d) * a))
    theta_integral = mean_total(cfg) * 26.0 * 7 ** d * c
    return bound_from_theta(theta_integral, variance_total(cfg)[0]).value


def empirical_distance(cfg: MaternConfig, reps: int, seed: int):
    """Monte Carlo distance of the centered retained count to its matched
    centered binomial, with bootstrap error bars and the assembled bounds."""
    echo = {"app": "matern", "d": cfg.d, "lam": cfg.lam, "r": cfg.r,
            "a": cfg.a}
    return count_experiment(simulate_counts, cfg, echo, reps, seed,
                            mean_total(cfg), variance_total(cfg)[0],
                            error_bound)
