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

import numpy as np
from scipy.spatial import cKDTree

from .bounds import block_smoothing_constant, bound_from_theta
from .engine import count_experiment, sample_chunked

MAX_EXACT_DIM = 3
QUAD_NODES = 64


@dataclass(frozen=True)
class MaternConfig:
    d: int
    lam: float
    r: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.lam <= 0:
            raise ValueError(f"need lam > 0, got {self.lam}")
        if not 0.0 < self.r <= 1.0 / 7.0:
            raise ValueError(f"need 0 < r <= 1/7, got {self.r}")

    @property
    def a(self) -> float:
        return self.lam * self.r ** self.d

    @classmethod
    def from_intensity_product(cls, d: int, lam: float, a: float) -> "MaternConfig":
        return cls(d=d, lam=lam, r=(a / lam) ** (1.0 / d))


def thin_pattern(points: np.ndarray, r: float) -> np.ndarray:
    """Keep the points with no other point in their closed side-r cube.

    Close pairs come from a periodic KD-tree, so every coordinate must lie
    in [0, 1); the tree raises ValueError for any other coordinate.
    """
    pts = np.asarray(points, dtype=float)
    pairs = cKDTree(pts, boxsize=1.0).query_pairs(r / 2.0, p=np.inf,
                                                  output_type="ndarray")
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[pairs.ravel()] = False
    return pts[keep]


def simulate_pattern(cfg: MaternConfig, seed) -> np.ndarray:
    """One realization of the thinned process: retained points, shape (k, d)."""
    rng = np.random.default_rng(seed)
    tau = rng.poisson(cfg.lam)
    pts = rng.random((tau, cfg.d))
    return thin_pattern(pts, cfg.r)


def _counts_chunk_1d(cfg: MaternConfig, reps: int, seed_seq) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    taus = rng.poisson(cfg.lam, reps)
    # The gaps between tau uniform points on the circle, in cyclic order,
    # are E_i / S for iid Exp(1) spacings E with sum S, so no sort is needed:
    # point i's left gap is big when E_i > (r/2) S.
    spacings = rng.standard_exponential(int(taus.sum()))
    occupied = taus > 0
    # first and last index each occupied rep's run of points.
    last = np.cumsum(taus)[occupied] - 1
    first = last + 1 - taus[occupied]
    threshold = np.add.reduceat(spacings, first) * (cfg.r / 2.0)
    big = spacings > np.repeat(threshold, taus[occupied])
    # A point is kept when its left gap and its cyclic successor's are big;
    # a lone point's only gap is the whole circle.
    kept = np.roll(big, -1)
    kept[last] = big[first]
    kept &= big
    counts = np.zeros(reps, dtype=np.int64)
    # An int32 sum: reduceat casts the whole input to its dtype first.
    counts[occupied] = np.add.reduceat(kept, first, dtype=np.int32)
    return counts


def simulate_counts(cfg: MaternConfig, reps: int, seed: int) -> np.ndarray:
    """reps independent retained-point counts, deterministic in seed."""
    if cfg.d == 1:
        return sample_chunked(lambda m, child: _counts_chunk_1d(cfg, m, child),
                              reps, seed, cfg.lam)
    return sample_chunked(
        lambda m, child: np.array([len(simulate_pattern(cfg, child))],
                                  dtype=np.int64),
        reps, seed, math.inf)


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
        nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
        x = 0.5 * half_side * (nodes + 1.0)
        w = 0.5 * half_side * weights
        grids = np.meshgrid(*([x] * d), indexing="ij")
        overlap = np.ones_like(grids[0])
        for g in grids:
            overlap *= np.clip(r - g, 0.0, None)
        f = np.exp(-lam * (2.0 * r ** d - overlap))
        wgrid = np.ones_like(f)
        for axis, _ in enumerate(grids):
            shape = [1] * d
            shape[axis] = QUAD_NODES
            wgrid = wgrid * w.reshape(shape)
        return float((f * wgrid).sum()) * 2 ** d

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
