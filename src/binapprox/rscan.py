"""Moving-window exceedance counts of iid sequences.

N counts the windows R_i = X_i + ... + X_{i+r-1} that do not exceed a
threshold.  The module provides the exact window-probability machinery,
the closed-form variance, a chunked vectorized simulator, and the
assembled error bound for the centered-binomial approximation of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .bounds import block_smoothing_constant, bound_from_theta
from .engine import count_experiment, sample_chunked

BASE_DISTS = ("exponential", "uniform01")


@dataclass(frozen=True)
class RScanConfig:
    n: int                      # number of windows
    r: int                      # window length
    a: float                    # threshold
    base_dist: str = "exponential"
    rate: float = 1.0           # only used for the exponential base

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.n < 3 * self.r - 2:
            raise ValueError(f"need n >= 3r-2 = {3 * self.r - 2}, got {self.n}")
        if self.a <= 0:
            raise ValueError(f"need a > 0, got {self.a}")
        if self.base_dist not in BASE_DISTS:
            raise ValueError(f"base_dist must be one of {BASE_DISTS}")
        if self.base_dist == "exponential" and self.rate <= 0:
            raise ValueError("rate must be positive")


def _irwin_hall_cdf(x: float, m: int) -> float:
    if x <= 0:
        return 0.0
    if x >= m:
        return 1.0
    total = 0.0
    for k in range(int(math.floor(x)) + 1):
        total += (-1) ** k * math.comb(m, k) * (x - k) ** m
    return total / math.factorial(m)


def _irwin_hall_pdf(x: float, m: int) -> float:
    if x <= 0 or x >= m:
        return 0.0
    total = 0.0
    for k in range(int(math.floor(x)) + 1):
        total += (-1) ** k * math.comb(m, k) * (x - k) ** (m - 1)
    return total / math.factorial(m - 1)


def _window_cdf(cfg: RScanConfig, x: float, m: int) -> float:
    """CDF of the sum of m base variables."""
    if m == 0:
        return 1.0 if x >= 0 else 0.0
    if cfg.base_dist == "exponential":
        return float(special.gammainc(m, cfg.rate * max(x, 0.0)))
    return _irwin_hall_cdf(x, m)


def _window_pdf(cfg: RScanConfig, x: float, m: int) -> float:
    if cfg.base_dist == "exponential":
        if x <= 0:
            return 0.0
        lam = cfg.rate
        return lam * (lam * x) ** (m - 1) * math.exp(-lam * x) / math.factorial(m - 1)
    return _irwin_hall_pdf(x, m)


def _interval_prob(cfg: RScanConfig, lo: float, hi: float) -> float:
    return max(_window_cdf(cfg, hi, 1) - _window_cdf(cfg, lo, 1), 0.0)


def exceedance_prob(cfg: RScanConfig) -> float:
    """P[one window sum <= a]."""
    return _window_cdf(cfg, cfg.a, cfg.r)


def psi(cfg: RScanConfig, d: int) -> float:
    """Conditional co-exceedance excess of two windows d apart.

    P[R_{d+1} <= a | R_1 <= a] - p, computed by quadrature over the shared
    r-d coordinates.  Nonnegative by positive association of the windows.
    """
    r = cfg.r
    if not 1 <= d <= r - 1:
        raise ValueError(f"need 1 <= d <= r-1 = {r - 1}, got {d}")
    p = exceedance_prob(cfg)

    def integrand(s):
        return _window_pdf(cfg, s, r - d) * _window_cdf(cfg, cfg.a - s, d) ** 2

    upper = cfg.a if cfg.base_dist == "exponential" else min(cfg.a, r - d)
    joint, _ = integrate.quad(integrand, 0.0, upper, limit=200,
                              epsabs=1e-13, epsrel=1e-11)
    return joint / p - p


def variance_formula(cfg: RScanConfig) -> float:
    """Closed-form variance of the exceedance count."""
    p = exceedance_prob(cfg)
    corr = sum((1.0 - d / cfg.n) * psi(cfg, d) for d in range(1, cfg.r))
    return cfg.n * p * (1.0 - p + 2.0 * corr)


def _simulate_chunk(cfg: RScanConfig, reps: int, seed_seq) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    cols = cfg.n + cfg.r - 1
    if cfg.base_dist == "exponential":
        x = rng.standard_exponential((reps, cols), dtype=np.float32)
        if cfg.rate != 1.0:
            x /= np.float32(cfg.rate)
    else:
        x = rng.random((reps, cols), dtype=np.float32)
    # Direct sliding sum (no cumsum: avoids float32 cancellation).
    w = x[:, :cfg.n].copy()
    for k in range(1, cfg.r):
        w += x[:, k:k + cfg.n]
    return (w <= np.float32(cfg.a)).sum(axis=1).astype(np.int64)


def simulate_counts(cfg: RScanConfig, reps: int, seed: int) -> np.ndarray:
    """reps independent draws of the exceedance count, deterministic in seed."""
    return sample_chunked(lambda m, child: _simulate_chunk(cfg, m, child),
                          reps, seed, cfg.n + cfg.r - 1)


def _event_probs(cfg: RScanConfig) -> tuple[float, float]:
    """Probabilities of the two block-interior configurations that pin a
    window strictly above / below the threshold.

    Both events are coordinate-wise boxes: the 2r-2 'high' coordinates in
    (a/r, a(r+1)/r^2] and the 'low' ones in (0, a/(2r^2)], with the pivot
    coordinate high for p0 and low for p1.
    """
    r, a = cfg.r, cfg.a
    q_high = _interval_prob(cfg, a / r, a * (r + 1) / r ** 2)
    q_low = _interval_prob(cfg, 0.0, a / (2.0 * r ** 2))
    high_fixed = list(range(r, 2 * r - 1)) + list(range(2 * r + 1, 3 * r - 1))
    base = q_high ** len(high_fixed) * q_low     # shared event: X_{2r} low
    p0 = base * q_high                           # pivot X_{2r-1} high
    p1 = base * q_low                            # pivot X_{2r-1} low
    return p0, p1


PER_INDEX_CONSTANT = lambda r: 16 * r ** 2 - 20 * r + 6  # noqa: E731


def error_bound(cfg: RScanConfig, l: int) -> float:
    """Assembled centered-binomial approximation bound, of order n^{-l/2}.

    Combines the worst-case neighborhood moment constant with the
    block-conditioning smoothness constants and the closed-form variance.
    """
    p0, p1 = _event_probs(cfg)
    c = block_smoothing_constant(l, cfg.n // (3 * cfg.r - 2), 4, p0, p1)
    theta = c * PER_INDEX_CONSTANT(cfg.r)
    return bound_from_theta(cfg.n * theta, variance_formula(cfg)).value


def empirical_distance(cfg: RScanConfig, reps: int, seed: int):
    """Monte Carlo distance of the centered exceedance count to its matched
    centered binomial, with bootstrap error bars and the assembled bounds."""
    echo = {"app": "rscan", "n": cfg.n, "r": cfg.r, "a": cfg.a,
            "dist": cfg.base_dist}
    return count_experiment(simulate_counts, cfg, echo, reps, seed,
                            cfg.n * exceedance_prob(cfg),
                            variance_formula(cfg), error_bound)
