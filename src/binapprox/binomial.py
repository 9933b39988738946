"""Binomial laws, variance/lattice matching, and the Stein machinery.

The approximating family is the centered binomial: a Bi(n, 1/2 - t) shifted
to mean zero.  ``centering_params`` picks (n, t) so that the approximant
matches a target variance and lattice anchor; the Stein-equation solver and
its norm bounds convert expectation estimates into metric bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .lattice import LatticePMF, make_pmf, tv_distance, loc_distance

# Snap fractional parts within this distance of an integer, so that a
# variance with 4*sigma2 numerically indistinguishable from an integer does
# not produce delta ~ 1 - eps.
FRAC_SNAP = 1e-9


def _frac(x: float) -> float:
    f = x - math.floor(x)
    if f > 1.0 - FRAC_SNAP or f < FRAC_SNAP:
        return 0.0
    return f


@dataclass(frozen=True)
class BinomialParams:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need 0 < p < 1, got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True)
class CenteringParams:
    """Matched centered-binomial parameters for variance sigma2 and anchor a.

    delta is the fractional part of -4*sigma2, n = ceil(4*sigma2), and t is
    the small perturbation of the symmetric success probability 1/2 that
    moves the centered law onto the lattice Z + a while keeping mean zero.
    """

    sigma2: float
    a: float
    n: int
    delta: float
    t: float

    @property
    def p(self) -> float:
        return 0.5 - self.t


class Inapplicable(ValueError):
    """Valid input whose preconditions (variance > 1 etc.) fail."""


def check_variance(sigma2: float) -> None:
    """Every centered-binomial approximation needs variance > 1."""
    if sigma2 <= 1.0:
        raise Inapplicable(f"variance must exceed 1, got {sigma2}")


def centering_params(sigma2: float, a: float) -> CenteringParams:
    check_variance(sigma2)
    delta = _frac(-4.0 * sigma2)
    n = int(round(4.0 * sigma2 + delta))
    t = _frac(a + 2.0 * sigma2 + delta / 2.0) / (4.0 * sigma2 + delta)
    return CenteringParams(sigma2=sigma2, a=a % 1.0, n=n, delta=delta, t=t)


def binomial_logpmf(k, n: int, p: float) -> np.ndarray:
    """log P[Bi(n, p) = k] for k in {0, ..., n}, by the same expression as
    scipy.stats.binom.logpmf, so the values agree to the bit without
    importing scipy.stats."""
    return (gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
            + xlogy(k, p) + xlog1py(n - k, -p))


def binomial_pmf(params: BinomialParams) -> LatticePMF:
    """Exact Bi(n, p) pmf on {0, ..., n}, stable for n up to ~1e6."""
    n, p = params.n, params.p
    probs = np.exp(binomial_logpmf(np.arange(n + 1), n, p))
    return make_pmf(probs, min_index=0, offset=0.0, renormalize=True)


def centered_binomial(cp: CenteringParams) -> LatticePMF:
    """Bi(n, 1/2 - t) shifted to mean zero; lives on Z + a by construction."""
    raw = binomial_pmf(BinomialParams(cp.n, cp.p))
    return raw.translate(-cp.n * cp.p)


def _centered_indicator(params: BinomialParams, target_set) -> np.ndarray:
    """1_A - P[Bi(n, p) in A] on {0, ..., n}: the right-hand side of the
    Stein equation for the target set A."""
    n = params.n
    A = set(int(b) for b in target_set)
    if not A <= set(range(n + 1)):
        raise ValueError("target set must be a subset of {0,...,n}")
    h = np.zeros(n + 1)
    if A:
        h[sorted(A)] = 1.0
    pmf = binomial_pmf(params).probs
    return h - float(np.dot(pmf, h))


def stein_solution(params: BinomialParams, target_set) -> np.ndarray:
    """Solve the characterizing recurrence for the indicator of target_set.

    Returns g on {0, ..., n} with the boundary convention g(n) = 0 (the
    recurrence has one redundant equation; the z = n row is a consistency
    check, not an unknown).
    """
    n, p = params.n, params.p
    rhs = _centered_indicator(params, target_set)
    # Telescoped form: with w(z) = p(n-z)*pi(z)*g(z) the recurrence reads
    # w(z) = w(z-1) - pi(z)*rhs(z), so g(z) is a partial sum of pi*rhs
    # against pi(z).  Summing from the near tail keeps every weight ratio
    # pi(k)/pi(z) <= 1, which is stable where the naive forward recurrence
    # is not.
    z = np.arange(n + 1)
    logpi = binomial_logpmf(z, n, p)
    mode = int(np.argmax(logpi))
    g = np.zeros(n + 1)
    for zi in range(n):
        if zi <= mode:
            k = np.arange(0, zi + 1)
            s = float(np.dot(np.exp(logpi[k] - logpi[zi]), rhs[k]))
            g[zi] = -s / (p * (n - zi))
        else:
            k = np.arange(zi + 1, n + 1)
            s = float(np.dot(np.exp(logpi[k] - logpi[zi]), rhs[k]))
            g[zi] = s / (p * (n - zi))
    return g


def stein_residual(params: BinomialParams, target_set, g: np.ndarray) -> float:
    """Max pointwise defect of g in the characterizing recurrence."""
    n, p, q = params.n, params.p, params.q
    rhs = _centered_indicator(params, target_set)
    z = np.arange(n + 1)
    gm1 = np.concatenate(([0.0], g[:-1]))
    lhs = q * z * gm1 - p * (n - z) * g
    return float(np.abs(lhs - rhs).max())


def ehm_bound(params: BinomialParams) -> float:
    """Uniform bound on the first difference of any indicator solution.

    Also valid for the sup norm of singleton-set solutions.
    """
    n, p, q = params.n, params.p, params.q
    return (1.0 - p ** (n + 1) - q ** (n + 1)) / ((n + 1) * p * q)


def sup_norm_bound(params: BinomialParams) -> float:
    """Sup-norm bound for indicator solutions: 1 wedge (npq)^{-1/2}."""
    n, p, q = params.n, params.p, params.q
    return min(1.0, 1.0 / math.sqrt(n * p * q))


def shift_bound(params: BinomialParams, t: float, metric: str) -> float:
    """Bound on d(Bi(n, p - t), Bi(n, p)) for a success-probability shift."""
    n, p, q = params.n, params.p, params.q
    if not (-(1.0 - p) < t < p):
        raise ValueError(f"need -(1-p) < t < p, got t={t} with p={p}")
    if metric == "tv":
        return abs(t) * (math.sqrt(n) / math.sqrt(p * q)
                         + (p - t) / (p * q)
                         + math.sqrt((p - t) * (q + t)) / (p * q * math.sqrt(n)))
    if metric == "loc":
        return abs(t) * ((1.0 + p - t) / (p * q)
                         + math.sqrt((p - t) * (q + t)) / (p * q * math.sqrt(n)))
    raise ValueError(f"metric must be 'tv' or 'loc', got {metric!r}")


def shift_distance_exact(params: BinomialParams, t: float, metric: str) -> float:
    """Exact distance between Bi(n, p - t) and Bi(n, p), for cross-checks."""
    a = binomial_pmf(BinomialParams(params.n, params.p - t))
    b = binomial_pmf(params)
    return tv_distance(a, b) if metric == "tv" else loc_distance(a, b)
