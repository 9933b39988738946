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
from numpy.polynomial.legendre import leggauss

from .bounds import block_smoothing_constant, bound_from_theta
from .engine import block_reps, count_experiment, sample_chunked

BASE_DISTS = ("exponential", "uniform01")
# Gauss-Legendre rule for psi, one per panel.  On the uniform base psi's
# integrand is a polynomial of degree <= 2r - 2 on each panel, which this
# rule integrates exactly for r <= GL_NODES.
GL_NODES = 32
_GL_X, _GL_W = leggauss(GL_NODES)
# An upper Poisson tail sum stops at the first term below this share of
# its first term.
TAIL_RTOL = 1e-17
# Longest Exp(1) window whose verdict the simulator takes from a product of
# r float32 factors.  Partial products are a random walk in the log domain,
# and one that leaves float32's normal range (|log| > 87) before its window
# ends gives a verdict from that prefix alone; for a window whose log product
# ends near 0 that has probability about e^{-2 * 87^2 / r}, 2e-26 at r = 256.
# Longer windows sum the logs of the factors instead.
PRODUCT_MAX_R = 256


@dataclass(frozen=True)
class RScanConfig:
    n: int                      # number of windows
    r: int                      # window length
    a: float                    # threshold
    base_dist: str = "exponential"  # Exp(1) or U(0,1) base variables

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.n < 3 * self.r - 2:
            raise ValueError(f"need n >= 3r-2 = {3 * self.r - 2}, got {self.n}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"need a > 0 and finite, got {self.a}")
        if self.base_dist not in BASE_DISTS:
            raise ValueError(f"base_dist must be one of {BASE_DISTS}")


def _irwin_hall(x: np.ndarray, m: int, power: int) -> np.ndarray:
    """Irwin-Hall cdf (power m) or pdf (power m-1) of m <= GL_NODES uniforms,
    at each 0 <= x <= m; above m/2, where the alternating sum cancels, it is
    taken by symmetry from m - x."""
    if m > GL_NODES:
        raise ValueError(f"the uniform window law is computed for r <= "
                         f"{GL_NODES}, got {m} variables")
    upper = x > m / 2
    y = np.where(upper, m - x, x)
    total = np.zeros_like(y)
    for k in range(math.ceil(m / 2)):
        coef = float((-1) ** k * math.comb(m, k))
        total += np.where(y >= k, coef * (y - k) ** power, 0.0)
    total /= math.factorial(power)
    return np.where(upper, 1.0 - total, total) if power == m else total


def _gamma_cdf(x: np.ndarray, m: int) -> np.ndarray:
    """P[Gamma(m, 1) <= x] = P[Poisson(x) >= m], for integer m >= 1.

    Below x = m it is the upper Poisson tail, summed from k = m up; from
    x = m on, one minus the lower tail, summed from k = m - 1 down.  Either
    way each term is the one before times a ratio below 1, and the first is
    taken in logs, so nothing cancels or underflows early.
    """
    out = np.empty_like(x)
    up = x < m
    xu, xl = x[up], x[~up]
    # Upper-tail terms fall by x/k, slowest at the largest x: stop where
    # that x's next term is below TAIL_RTOL of its first.
    k, rest, top = m, 1.0, xu.max(initial=0.0)
    while rest > TAIL_RTOL:
        k += 1
        rest *= top / k
    with np.errstate(divide="ignore"):      # x = 0: a zero first term
        first = np.exp(m * np.log(xu) - xu - math.lgamma(m + 1))
    ratios = xu[:, None] / np.arange(m + 1.0, k + 1.0)
    out[up] = first * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1))
    first = np.exp((m - 1) * np.log(xl) - xl - math.lgamma(m))
    ratios = np.arange(m - 1.0, 0.0, -1.0) / xl[:, None]
    out[~up] = 1.0 - first * (1.0 + np.cumprod(ratios, axis=1).sum(axis=1))
    return out


def _window_cdf(cfg: RScanConfig, x: np.ndarray, m: int) -> np.ndarray:
    """CDF of the sum of m >= 1 base variables, at each x."""
    x = np.maximum(x, 0.0)
    if cfg.base_dist == "exponential":
        return _gamma_cdf(x, m)
    return np.where(x < m, _irwin_hall(np.minimum(x, m), m, m), 1.0)


def _window_pdf(cfg: RScanConfig, x: np.ndarray, m: int) -> np.ndarray:
    """Density of the sum of m >= 1 base variables, at each x > 0."""
    if cfg.base_dist == "exponential":
        return np.exp((m - 1) * np.log(x) - x - math.lgamma(m))
    return np.where(x < m, _irwin_hall(np.minimum(x, m), m, m - 1), 0.0)


def _interval_prob(cfg: RScanConfig, lo: float, hi: float) -> float:
    cdf = _window_cdf(cfg, np.array([lo, hi]), 1)
    return max(float(cdf[1] - cdf[0]), 0.0)


def exceedance_prob(cfg: RScanConfig) -> float:
    """P[one window sum <= a]."""
    return float(_window_cdf(cfg, np.array([cfg.a]), cfg.r)[0])


def _psi_nodes(cfg: RScanConfig, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for psi's integral over the shared sum s.

    On the uniform base the integrand is a polynomial between the integers
    (the pieces of the Irwin-Hall pdf) and the points a - j (those of the
    window cdf at a - s), so one Gauss-Legendre rule per piece is exact.  On
    the Exp(1) base the integrand is smooth and the panels have unit width.
    """
    a = cfg.a
    if cfg.base_dist == "exponential":
        upper, cuts = a, np.arange(1.0, math.ceil(a))
    else:
        upper = min(a, cfg.r - d)
        cuts = np.concatenate((np.arange(1.0, cfg.r - d),
                               a - np.arange(d + 1.0)))
    edges = np.unique(np.concatenate(
        ([0.0, upper], cuts[(cuts > 0.0) & (cuts < upper)])))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (_GL_X + 1.0)
    return nodes.ravel(), (half * _GL_W).ravel()


def psi(cfg: RScanConfig, d: int) -> float:
    """Conditional co-exceedance excess of two windows d apart.

    P[R_{d+1} <= a | R_1 <= a] - p, computed by quadrature over the shared
    r-d coordinates.  Nonnegative by positive association of the windows.
    """
    r = cfg.r
    if not 1 <= d <= r - 1:
        raise ValueError(f"need 1 <= d <= r-1 = {r - 1}, got {d}")
    p = exceedance_prob(cfg)
    if p == 1.0:
        # So is the co-exceedance.  This also bounds the Exp(1) panel count,
        # about a: p < 1 needs a < 61 at r = 8, a < 215 at r = 100.
        return 0.0
    s, w = _psi_nodes(cfg, d)
    joint = float(np.dot(w, _window_pdf(cfg, s, r - d)
                         * _window_cdf(cfg, cfg.a - s, d) ** 2))
    return joint / p - p


def variance_formula(cfg: RScanConfig) -> float:
    """Closed-form variance of the exceedance count; exactly 0 where the
    window law is degenerate (p is 0 or 1 in floating point)."""
    p = exceedance_prob(cfg)
    if p in (0.0, 1.0):
        return 0.0
    corr = math.fsum((1.0 - d / cfg.n) * psi(cfg, d) for d in range(1, cfg.r))
    return cfg.n * p * (1.0 - p + 2.0 * corr)


def _simulate_chunk(cfg: RScanConfig, reps: int, seed_seq) -> np.ndarray:
    """Exceedance counts of reps sequences, drawn from float32 uniforms.

    The Exp(1) base is X = -log(1 - U) by inversion; 1 - U is a multiple of
    2**-24, so X <= 24 ln 2 < 17.  For r <= PRODUCT_MAX_R a window sum is
    <= a just when the product of the factors (1 - U) c, c = e^{a/r}, is >= 1
    (up to rounding of order r 2**-24): no logarithm is taken.  From a/r = 17
    on every factor exceeds 1; clamping there keeps c finite.  Longer windows
    compare the float32 sum of log(1 - U) with -a.
    """
    rng = np.random.default_rng(seed_seq)
    n, r = cfg.n, cfg.r
    if cfg.base_dist == "uniform01":
        to_terms = None
        combine, keep, level = np.add, np.less_equal, np.float32(cfg.a)
    elif r <= PRODUCT_MAX_R:
        c = np.float32(math.exp(min(cfg.a / r, 17.0)))
        to_terms = lambda f: np.multiply(f, c, out=f)  # noqa: E731
        combine, keep, level = np.multiply, np.greater_equal, np.float32(1.0)
    else:
        to_terms = lambda f: np.log(f, out=f)  # noqa: E731
        combine, keep, level = np.add, np.greater_equal, np.float32(-cfg.a)
    step = min(reps, block_reps(n + r - 1))
    x = np.empty((step, n + r - 1), dtype=np.float32)
    w = np.empty((step, n), dtype=np.float32) if r > 1 else None
    hit = np.empty((step, n), dtype=bool)
    counts = np.empty(reps, dtype=np.int64)
    # A window product that overflows to inf or underflows to 0 has left the
    # normal range for good, which PRODUCT_MAX_R makes negligibly rare for a
    # window near the threshold; elsewhere it gives the right verdict.
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, reps, step):
            m = min(step, reps - lo)
            xb = rng.random(dtype=np.float32, out=x[:m])
            if to_terms is not None:
                to_terms(np.subtract(np.float32(1.0), xb, out=xb))
            wb = xb  # r = 1: a window is one draw
            if r > 1:
                # Direct sliding window (a sum without cumsum avoids float32
                # cancellation).
                wb = combine(xb[:, :n], xb[:, 1:n + 1], out=w[:m])
                for k in range(2, r):
                    combine(wb, xb[:, k:k + n], out=wb)
            keep(wb, level, out=hit[:m])
            counts[lo:lo + m] = np.count_nonzero(hit[:m], axis=1)
    return counts


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
