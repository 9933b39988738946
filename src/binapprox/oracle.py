"""Exact finite-instance ground truth.

Two exactly solvable benchmarks: sums of independent lattice summands
(full convolution) and the 2-runs model, a 1-dependent indicator sum whose
law follows from a two-state dynamic program.  Both feed the dominance
tests: exact distance on the left, bound calculator on the right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticePMF, convolve_all, counts_pmf, loc_distance, \
    tv_distance
from .binomial import CenteringParams, centering_params, centered_binomial
from .bounds import DependenceTerm, LocalDependenceSpec, DecompositionTerm, \
    DecomposableSpec, smoothing_constants, step_overlap

SUPPORT_CAP = 10 ** 6


def exact_sum_pmf(summands: list[LatticePMF]) -> LatticePMF:
    """Full convolution of independent summands, capped at 1e6 atoms."""
    return convolve_all(summands, support_cap=SUPPORT_CAP)


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
    """Exact law of the raw (uncentered) 2-runs count via a 2-state DP."""
    n, p = model.n, model.p
    if n > 10 ** 4:
        raise ValueError("model too large for the dense DP")
    q = 1.0 - p
    # s0[k] / s1[k]: P[partial sum = k, last X = 0 / 1]
    s0 = np.zeros(n + 1)
    s1 = np.zeros(n + 1)
    s0[0], s1[0] = q, p
    for _ in range(n):
        new0 = q * (s0 + s1)
        new1 = np.empty_like(s1)
        new1[0] = p * s0[0]
        new1[1:] = p * (s0[1:] + s1[:-1])
        s0, s1 = new0, new1
    return counts_pmf(s0 + s1, min_index=0, anchor=0.0)


def two_runs_pmf_bruteforce(model: TwoRunsModel) -> LatticePMF:
    """Enumeration over all X-sequences; only viable for small n."""
    n, p = model.n, model.p
    probs = np.zeros(n + 1)
    for xs in itertools.product((0, 1), repeat=n + 1):
        w = sum(xs[i] * xs[i + 1] for i in range(n))
        pr = math.prod(p if x else 1.0 - p for x in xs)
        probs[w] += pr
    return counts_pmf(probs, min_index=0, anchor=0.0)


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
        eta = sum(x[j] * x[j + 1] - mean for j in a_set)
        tau = sum(x[j] * x[j + 1] - mean for j in b_set)
        m1 += pr * abs(xi) * eta * eta
        m2 += pr * abs(xi * eta * (tau - eta))
        m3 += pr * xi * eta
        m4 += pr * abs(tau)
    return m1, m2, m3, m4


def two_runs_moments(model: TwoRunsModel) -> tuple[list[dict], float]:
    """Per-index moment fields and the variance identity sum.

    Returns ([{m_xi_eta2, m_xi_eta_tau, m_cov, m_tau}, ...], sigma2) with
    sigma2 = sum_i E{xi_i eta_i}, which equals Var(W_raw).
    """
    # Indices 3..n-2 see the full window: the same floats, enumerated once.
    interior = _window_moments(model, 3) if model.n >= 5 else None
    rows = []
    sigma2 = 0.0
    for i in range(1, model.n + 1):
        m1, m2, m3, m4 = (interior if 3 <= i <= model.n - 2
                          else _window_moments(model, i))
        rows.append({"m_xi_eta2": m1, "m_xi_eta_tau": m2,
                     "m_cov": abs(m3), "m_tau": m4})
        sigma2 += m3
    return rows, sigma2


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
        vs.append(step_overlap(counts_pmf(probs, 0, 0.0)))
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
    """Exact-moment bound spec for the 2-runs model."""
    rows, sigma2 = two_runs_moments(model)
    c1, c2 = two_runs_smoothness(model)
    anchor = (-model.n * model.p ** 2) % 1.0
    terms = [DependenceTerm(c1=c1, c2=c2, **row) for row in rows]
    return LocalDependenceSpec(sigma2=sigma2, anchor=anchor, terms=terms)


def two_runs_decomposable_spec(model: TwoRunsModel) -> DecomposableSpec:
    """The same model written as an independent-part decomposition.

    Take K_i = {i}, Z_i = eta_i and V_i = tau_i - eta_i; then the
    decomposition terms reproduce the neighborhood-moment terms exactly.
    """
    rows, sigma2 = two_runs_moments(model)
    c1, c2 = two_runs_smoothness(model)
    anchor = (-model.n * model.p ** 2) % 1.0
    tl = {1: [], 2: []}
    for row in rows:
        for l, c in ((1, c1), (2, c2)):
            tl[l].append(DecompositionTerm(
                z2_term=c * 0.5 * row["m_xi_eta2"],
                zv_terms=[c * row["m_xi_eta_tau"]],
                cov_terms=[row["m_cov"]],
                zvsum_terms=[c * row["m_tau"]]))
    return DecomposableSpec(sigma2=sigma2, anchor=anchor,
                            terms_l1=tl[1], terms_l2=tl[2])


def exact_distance_report(w_pmf: LatticePMF) -> tuple[float, float, CenteringParams]:
    """Exact tv and loc distance of a mean-zero law to its matched
    centered binomial."""
    if abs(w_pmf.mean()) > 1e-9:
        raise ValueError(f"law must be centered, mean is {w_pmf.mean()!r}")
    cp = centering_params(w_pmf.variance(), w_pmf.offset)
    approx = centered_binomial(cp)
    return tv_distance(w_pmf, approx), loc_distance(w_pmf, approx), cp
