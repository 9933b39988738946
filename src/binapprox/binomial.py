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

from .lattice import LatticePMF, _split_position, make_pmf


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
    """Every centered-binomial approximation needs a finite variance > 1."""
    if not 1.0 < sigma2 < math.inf:
        raise Inapplicable(f"variance must exceed 1, got {sigma2}")


def centering_params(sigma2: float, a: float) -> CenteringParams:
    """The fractional parts are the lattice's (``_split_position``), so a
    4*sigma2 numerically indistinguishable from an integer gives delta = 0,
    not delta ~ 1 - eps."""
    check_variance(sigma2)
    delta = _split_position(-4.0 * sigma2)[1]
    n = int(round(4.0 * sigma2 + delta))
    t = (_split_position(a + 2.0 * sigma2 + delta / 2.0)[1]
         / (4.0 * sigma2 + delta))
    return CenteringParams(sigma2=sigma2, a=a % 1.0, n=n, delta=delta, t=t)


# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) at k = 0, ..., 15, from
# 40-digit mpmath; k = 0 is a placeholder that no caller reaches.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
# Near the mode |v| < 0.1 in _bd0, so its series has converged to below
# 1e-18 of its sum after this many terms.
BD0_TERMS = 9


def _stirlerr(k):
    """log(k!) - log(sqrt(2 pi k) (k/e)^k): the table up to 15, the
    five-term Stirling series above."""
    k = np.asarray(k, dtype=float)
    big = np.maximum(k, 16.0)
    kk = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk))
                                   / kk) / kk) / kk) / big
    return np.where(k > 15, series, _STIRLERR[np.minimum(k, 15).astype(int)])


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """x log(x/m) + m - x, without its cancellation near x = m."""
    out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    x = x[near]
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    for j in range(1, BD0_TERMS + 1):
        term *= v * v
        s += term / (2 * j + 1)
    out[near] = s
    return out


def binomial_logpmf(k, n: int, p: float) -> np.ndarray:
    """log P[Bi(n, p) = k] for k in {0, ..., n}, by Loader's saddle-point
    form (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000): no lgamma difference, so no cancellation at
    large n."""
    k = np.asarray(k, dtype=float)
    out = np.where(k == 0, n * math.log1p(-p), n * math.log(p))
    inner = (k > 0) & (k < n)
    x = k[inner]
    y = n - x
    out[inner] = (_stirlerr(n) - _stirlerr(x) - _stirlerr(y)
                  - _bd0(x, n * p) - _bd0(y, n * (1.0 - p))
                  - 0.5 * np.log(2.0 * math.pi * x * y / n))
    return out


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
    rhs = _centered_indicator(params, target_set).tolist()
    # Telescoped form: with w(z) = p(n-z)*pi(z)*g(z) the recurrence reads
    # w(z) = w(z-1) - pi(z)*rhs(z), so g(z) is a partial sum of pi*rhs
    # against pi(z).  Summing from the near tail keeps every weight ratio
    # pi(k)/pi(z) <= 1, which is stable where the naive forward recurrence
    # is not.  The partial sums s (at and below the mode) and t (above it)
    # are accumulated one lattice point at a time, each step scaled by one
    # ratio of neighbouring probabilities, <= 1 in the direction of the sum.
    logpi = binomial_logpmf(np.arange(n + 1), n, p)
    mode = int(np.argmax(logpi))
    dlog = np.diff(logpi)
    down = [0.0] + np.exp(-dlog[:mode]).tolist()  # pi(z-1)/pi(z), z = 1..mode
    up = np.exp(dlog[mode:]).tolist()        # pi(z+1)/pi(z), z = mode..n-1
    g = [0.0] * (n + 1)
    s = 0.0
    for z in range(min(mode, n - 1) + 1):
        s = s * down[z] + rhs[z]
        g[z] = -s / (p * (n - z))
    t = 0.0
    for z in range(n - 1, mode, -1):
        t = up[z - mode] * (rhs[z + 1] + t)
        g[z] = t / (p * (n - z))
    return np.array(g)


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

