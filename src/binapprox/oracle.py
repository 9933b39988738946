"""Exact finite-instance ground truth.

Two exactly solvable benchmarks: sums of independent lattice summands
(full convolution) and the 2-runs model, a 1-dependent indicator sum whose
law is read off its two-state generating function at roots of unity.  Both
feed the dominance tests: exact distance on the left, bound calculator on
the right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.fft on first use; importing it here keeps that cost out
# of the first two_runs_pmf.
import numpy.fft  # noqa: F401

from .lattice import LatticePMF, convolve_all, loc_distance, make_pmf, \
    tv_distance
from .binomial import CenteringParams, centering_params, centered_binomial
from .bounds import DependenceTerm, LocalDependenceSpec, DecompositionTerm, \
    DecomposableSpec, fsum_runs, runs, smoothing_constants, step_overlap

TWO_RUNS_CAP = 10 ** 6


def exact_sum_pmf(summands: list[LatticePMF]) -> LatticePMF:
    """Full convolution of independent summands, refused past
    ``lattice.SUPPORT_CAP`` atoms."""
    return convolve_all(summands)


@dataclass(frozen=True)
class TwoRunsModel:
    """Sum of products of adjacent iid Bernoulli(p) variables.

    W_raw = sum_{i=1..n} X_i X_{i+1} over X_1..X_{n+1}: the canonical
    1-dependent benchmark (each summand shares an X with its neighbors).
    """

    n: int
    p: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need 0 < p < 1, got {self.p}")


def two_runs_pmf(model: TwoRunsModel) -> LatticePMF:
    """Exact law of the raw (uncentered) 2-runs count from its pgf.

    With the last X as state, G(z) = [q p] A(z)^n 1 for
    A(z) = [[q, p], [q, p z]].  Conjugating A by diag(sqrt q, sqrt p) makes
    it symmetric, S(z) = [[q, s], [s, p z]] with s = sqrt(p q), and
    G(z) = u^T S(z)^n u for u = (sqrt q, sqrt p); powers of S stay
    symmetric, so repeated squaring carries three entries.  The power is
    taken in extended precision (``np.longdouble``) because its rounding
    error grows like n times the unit roundoff.

    G is evaluated at L roots of unity, L the power of two at or above
    min(n + 1, 24 sigma + 16), and one inverse FFT returns the atoms of the
    window [c, c + L): all of {0..n} when L > n, else a window about the
    mean, where the mass beyond 12 sigma that aliases into it is far below
    rounding.  Models with n > TWO_RUNS_CAP are refused.
    """
    n, p = model.n, model.p
    if n > TWO_RUNS_CAP:
        raise ValueError(f"n={n} exceeds the 2-runs law's limit of "
                         f"{TWO_RUNS_CAP}")
    sigma = math.sqrt(n * p * p * (1.0 - p * p)
                      + 2.0 * (n - 1) * p ** 3 * (1.0 - p))
    L = 1 << math.ceil(math.log2(min(n + 1, 24.0 * sigma + 16.0)))
    c = 0 if L > n else min(max(round(n * p * p) - L // 2, 0), n + 1 - L)
    pl = np.longdouble(p)
    ql = 1 - pl
    sl = np.sqrt(pl * ql)
    theta = 8 * np.arctan(np.longdouble(1)) / L * np.arange(L)
    a = np.full(L, ql, np.clongdouble)
    b = np.full(L, sl, np.clongdouble)
    d = pl * (np.cos(theta) - 1j * np.sin(theta))
    # Binary powering: (a, b, d) runs through S^(2^j), and (ra, rb, rd),
    # from the identity, multiplies in those of the set bits j of n.
    ra, rb, rd = 1, 0, 1
    e = n
    while True:
        if e & 1:
            ra, rb, rd = ra * a + rb * b, ra * b + rb * d, rb * b + rd * d
        e >>= 1
        if not e:
            break
        bb = b * b
        a, b, d = a * a + bb, b * (a + d), d * d + bb
    g = (ql * ra + 2 * sl * rb + pl * rd).astype(complex)
    # Multiplying by z^-c moves atom c to index 0.
    g *= np.exp(2j * np.pi / L * (np.arange(L) * c % L))
    probs = np.fft.ifft(g).real[:n + 1 - c]
    return make_pmf(np.maximum(probs, 0.0), c, renormalize=True)


def _window_moments(model: TwoRunsModel, i: int) -> tuple[float, float, float, float]:
    """Exact neighborhood moments of summand i by enumeration.

    Returns (E|xi eta^2|, E|xi eta (tau-eta)|, E xi eta, E|tau|) where eta sums the inner neighborhood {i-1, i, i+1} and tau the outer
    one {i-2, ..., i+2} (both clipped to the index range).
    """
    n, p = model.n, model.p
    mean = p * p
    a_set = [j for j in range(i - 1, i + 2) if 1 <= j <= n]
    b_set = [j for j in range(i - 2, i + 3) if 1 <= j <= n]
    xlo = max(1, i - 2)
    xhi = min(n + 1, i + 3)
    xs_idx = list(range(xlo, xhi + 1))
    m1 = m2 = m3 = m4 = 0.0
    for xs in itertools.product((0, 1), repeat=len(xs_idx)):
        x = dict(zip(xs_idx, xs))
        pr = math.prod(p if v else 1.0 - p for v in xs)
        xi = x[i] * x[i + 1] - mean
        eta = math.fsum(x[j] * x[j + 1] - mean for j in a_set)
        tau = math.fsum(x[j] * x[j + 1] - mean for j in b_set)
        m1 += pr * abs(xi) * eta * eta
        m2 += pr * abs(xi * eta * (tau - eta))
        m3 += pr * xi * eta
        m4 += pr * abs(tau)
    return m1, m2, m3, m4


def _block_overlaps(p: float) -> tuple[float, float]:
    """Worst- and best-case step overlap of one 3-summand block.

    Conditioning on every third X splits the raw count into blocks
    U_k = X_a X_{a+1} + X_{a+1} X_{a+2} + X_{a+2} X_{a+3} that are
    independent given the conditioned endpoints X_a, X_{a+3}.  Each endpoint
    pair's overlap is the exact ``step_overlap`` of its block law.
    """
    q = 1.0 - p
    vs = []
    for ea, eb in itertools.product((0, 1), repeat=2):
        probs = np.zeros(4)
        for xb, xc in itertools.product((0, 1), repeat=2):
            pr = (p if xb else q) * (p if xc else q)
            u = ea * xb + xb * xc + xc * eb
            probs[u] += pr
        vs.append(step_overlap(make_pmf(probs, renormalize=True)))
    return min(vs), max(vs)


def two_runs_smoothness(model: TwoRunsModel) -> tuple[float, float]:
    """Almost-sure conditional smoothness constants (c1, c2) for the model.

    Built from the block-conditioning construction: condition on every
    third X, drop the (at most 3) blocks overlapping any outer
    neighborhood, and apply the independent-sum smoothing estimates to the
    worst endpoint configuration of the remaining blocks.
    """
    m = model.n // 3
    v_min, v_max = _block_overlaps(model.p)
    kept = m - 3
    if kept <= 0 or v_min <= 0.0:
        return math.inf, math.inf
    return smoothing_constants(kept * v_min, min(v_max, 0.5))


def two_runs_dependence_spec(model: TwoRunsModel) -> LocalDependenceSpec:
    """Exact-moment bound spec for the 2-runs model.  Each distinct window
    (indices 3..n-2 share one) is enumerated once and its indices share one
    term.  sigma2 = Var(W_raw) = sum_i E{xi_i eta_i} is the exact sum of
    m_cov = |E xi_i eta_i| over the runs: E xi_i eta_i is Var xi_i plus the
    covariances p^3 - p^4 > 0 with the neighbours, so it is positive."""
    n = model.n
    c1, c2 = two_runs_smoothness(model)
    ks = [1, 2] + [3] * (n - 4) + [n - 1, n] if n > 3 else [1, 2, 3]
    window = {}
    for k in dict.fromkeys(ks):
        m1, m2, m3, m4 = _window_moments(model, k)
        window[k] = DependenceTerm(m1, m2, abs(m3), m4, c1, c2)
    terms = [window[k] for k in ks]
    sigma2 = fsum_runs((t.m_cov, k) for t, k in runs(terms))
    anchor = (-n * model.p ** 2) % 1.0
    return LocalDependenceSpec(sigma2=sigma2, anchor=anchor, terms=terms)


def two_runs_decomposable_spec(model: TwoRunsModel) -> DecomposableSpec:
    """The same model written as an independent-part decomposition.

    Take K_i = {i}, Z_i = eta_i and V_i = tau_i - eta_i; then the
    decomposition terms reproduce the neighborhood-moment terms exactly.
    Indices that share a dependence term share its decomposition terms.
    """
    dep = two_runs_dependence_spec(model)
    tl = {1: [], 2: []}
    for t, k in runs(dep.terms):
        for l, c in ((1, t.c1), (2, t.c2)):
            tl[l] += [DecompositionTerm(
                z2_term=c * 0.5 * t.m_xi_eta2,
                zv_terms=[c * t.m_xi_eta_tau],
                cov_terms=[t.m_cov],
                zvsum_terms=[c * t.m_tau])] * k
    return DecomposableSpec(sigma2=dep.sigma2, anchor=dep.anchor,
                            terms_l1=tl[1], terms_l2=tl[2])


def exact_distance_report(w_pmf: LatticePMF) -> tuple[float, float, CenteringParams]:
    """Exact tv and loc distance of a mean-zero law to its matched
    centered binomial."""
    if abs(w_pmf.mean()) > 1e-9:
        raise ValueError(f"law must be centered, mean is {w_pmf.mean()!r}")
    cp = centering_params(w_pmf.variance(), w_pmf.offset)
    approx = centered_binomial(cp)
    return tv_distance(w_pmf, approx), loc_distance(w_pmf, approx), cp
