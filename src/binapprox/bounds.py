"""Error-bound calculators for centered-binomial approximation.

Every calculator here is a deterministic function of moment summaries and
smoothness constants; nothing in this module samples.  Simulation and
moment estimation live in the application modules, which then feed their
numbers through these formulas, all assembled by ``bound_from_theta``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .lattice import (LatticePMF, convolve_all, point_mass,
                      smoothness_functional, tv_distance)
from .binomial import CenteringParams, Inapplicable, centering_params, \
    centered_binomial, check_variance, BinomialParams, binomial_pmf

# Additive constant absorbed by every bound: the lattice-rounding and
# perturbation terms plus the tail estimate, each at most 1/4, 1/4, 1/4, 1.
ROUNDING_CONSTANT = 1.75


@dataclass(frozen=True)
class BoundReport:
    """A bound value with the theta sum and variance it was assembled from."""

    value: float
    theta_sum: float
    sigma2: float


def bound_from_theta(theta_sum: float, sigma2: float) -> BoundReport:
    """sigma^-2 (theta_sum + 1.75); Inapplicable unless sigma2 > 1."""
    check_variance(sigma2)
    return BoundReport((theta_sum + ROUNDING_CONSTANT) / sigma2,
                       theta_sum, sigma2)


def rho(summand: LatticePMF) -> float:
    """Third-moment weight of one independent summand: sigma^3 + E|xi|^3/2."""
    if abs(summand.mean()) > 1e-9:
        raise ValueError("summand must be centered")
    return summand.variance() ** 1.5 + 0.5 * summand.abs_moment(3)


@dataclass(frozen=True)
class IndependentSummandSpec:
    """Laws of independent mean-zero lattice summands."""

    summands: list[LatticePMF]

    def __post_init__(self):
        for s in self.summands:
            if abs(s.mean()) > 1e-9:
                raise ValueError("all summands must have mean 0")

    @property
    def sigma2(self) -> float:
        return sum(s.variance() for s in self.summands)

    @property
    def anchor(self) -> float:
        return sum(s.offset for s in self.summands) % 1.0


def leave_one_out_smoothness(spec: IndependentSummandSpec, i: int, l: int) -> float:
    """Smoothness of the sum with summand i removed, computed exactly."""
    rest = [s for j, s in enumerate(spec.summands) if j != i]
    if not rest:
        raise ValueError("need at least two summands")
    return smoothness_functional(convolve_all(rest), l)


def independent_sum_bound(spec: IndependentSummandSpec, l: int) -> BoundReport:
    """Approximation error bound for a sum of independent lattice summands.

    sigma^-2 (sum_i c_{l,i} rho_i + 1.75) with exact leave-one-out
    smoothness constants c_{l,i}.  When summand i equals summand i-1, the
    two rest-lists agree element by element, so c_{l,i} = c_{l,i-1} to
    the bit and is reused: a run of equal summands costs one convolution.
    """
    total = 0.0
    prev = None
    for i, s in enumerate(spec.summands):
        if not _same_law(s, prev):
            c = leave_one_out_smoothness(spec, i, l)
        total += c * rho(s)
        prev = s
    return bound_from_theta(total, spec.sigma2)


def _same_law(a: LatticePMF, b: LatticePMF | None) -> bool:
    """a and b are the same object or hold identical lattice and probs."""
    return a is b or (b is not None and a.offset == b.offset
                      and a.min_index == b.min_index
                      and np.array_equal(a.probs, b.probs))


def independent_sum_approximant(spec: IndependentSummandSpec) -> tuple[CenteringParams, LatticePMF]:
    cp = centering_params(spec.sigma2, spec.anchor)
    return cp, centered_binomial(cp)


def step_overlap(p: LatticePMF) -> float:
    """min(1/2, 1 - tv(law, law shifted by one)): the smoothing budget of
    one summand."""
    return min(0.5, 1.0 - tv_distance(p, p.shift(1)))


def integer_sum_bound(summands: list[LatticePMF], metric: str) -> tuple[float, LatticePMF]:
    """Bound for integer-valued independent summands without centering.

    The approximant is the symmetric binomial on ceil(4*sigma2) trials
    shifted by s = ceil(mu - ceil(4*sigma2)/2); no mean-zero assumption on
    the summands.  Returns (bound, approximant).
    """
    if metric not in ("tv", "loc"):
        raise ValueError(f"metric must be 'tv' or 'loc', got {metric!r}")
    for s in summands:
        if abs(s.offset) > 1e-9:
            raise ValueError("summands must be integer valued")
    sigma2 = sum(s.variance() for s in summands)
    check_variance(sigma2)
    sigma = math.sqrt(sigma2)
    mu = sum(s.mean() for s in summands)
    rho_sum = sum(s.variance() ** 1.5 + 0.5 * s.abs_moment(3) for s in summands)
    v = [step_overlap(s) for s in summands]
    V, vstar = sum(v), max(v)
    n = math.ceil(4.0 * sigma2)
    if metric == "tv":
        denom = V - vstar
        if denom <= 0.0:
            raise ValueError("insufficient smoothness budget: V - v* <= 0")
        bound = (2.0 * rho_sum / (sigma2 * math.sqrt(denom))
                 + (1.0 + 2.25 / sigma + 0.25 / sigma2) / sigma)
    else:
        denom = V - 4.0 * vstar
        if denom <= 0.0:
            raise ValueError("insufficient smoothness budget: V - 4v* <= 0")
        bound = (8.0 * rho_sum / (sigma2 * denom)
                 + (3.25 + 0.25 / sigma) / sigma2)
    shift = math.ceil(mu - n / 2.0)
    approximant = convolve_all([binomial_pmf(BinomialParams(n, 0.5)),
                                point_mass(float(shift))])
    return bound, approximant


@dataclass(frozen=True)
class DependenceTerm:
    """Neighborhood moment summary of one summand in a locally dependent sum.

    eta is the sum over the inner neighborhood, tau the sum over the outer
    one; c1/c2 are almost-sure bounds on the conditional smoothness of the
    sum given the outer neighborhood.
    """

    m_xi_eta2: float        # E|xi * eta^2|
    m_xi_eta_tau: float     # E|xi * eta * (tau - eta)|
    m_cov: float            # |E xi*eta|
    m_tau: float            # E|tau|
    c1: float
    c2: float

    def theta(self, l: int) -> float:
        c = self.c1 if l == 1 else self.c2
        return c * (0.5 * self.m_xi_eta2 + self.m_xi_eta_tau
                    + self.m_cov * self.m_tau)


@dataclass(frozen=True)
class LocalDependenceSpec:
    sigma2: float
    anchor: float
    terms: list[DependenceTerm]


def local_dependence_bound(spec: LocalDependenceSpec, l: int) -> BoundReport:
    """Bound for sums with a finite two-layer neighborhood structure."""
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")
    return bound_from_theta(sum(t.theta(l) for t in spec.terms), spec.sigma2)


@dataclass(frozen=True)
class PointTerm:
    """Per-location moment summary of a point process, with its quadrature
    weight against the mean measure."""

    weight: float           # mu-mass carried by this evaluation point
    palm_prod: float        # E{Phi_alpha(A) * Phi_alpha(B)} under the Palm process
    plain_prod: float       # E{Phi(A) * Phi(B)}
    mu_A: float
    mu_B: float
    palm_B: float           # E Phi_alpha(B)
    c1: float
    c2: float

    def theta(self, l: int) -> float:
        c = self.c1 if l == 1 else self.c2
        return c * (1.5 * self.palm_prod + 1.5 * self.plain_prod
                    + 6.0 * self.mu_A * self.mu_B + 4.0 * self.mu_B * self.palm_B)


@dataclass(frozen=True)
class PointProcessSpec:
    terms: list[PointTerm]


def point_process_bound(spec: PointProcessSpec, l: int,
                        sigma2: float) -> BoundReport:
    """Bound for the total point count of a locally dependent point process."""
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")
    if any(t.weight < 0 for t in spec.terms):
        raise ValueError("quadrature weights must be nonnegative")
    return bound_from_theta(sum(t.weight * t.theta(l) for t in spec.terms),
                            sigma2)


@dataclass(frozen=True)
class DecompositionTerm:
    """One index of a decomposable sum W = W_i + Z_i, Z_i = sum_k Z_ik."""

    z2_term: float                          # c * E{|xi| Z^2} / weight folded in
    zv_terms: list[float] = field(default_factory=list)      # c * E|xi Z_k V_k|
    cov_terms: list[float] = field(default_factory=list)     # |E xi Z_k|
    zvsum_terms: list[float] = field(default_factory=list)   # c * E|Z + V_k|

    def theta(self) -> float:
        return (self.z2_term + sum(self.zv_terms)
                + sum(c * s for c, s in zip(self.cov_terms, self.zvsum_terms)))


@dataclass(frozen=True)
class DecomposableSpec:
    sigma2: float
    anchor: float
    terms_l1: list[DecompositionTerm]
    terms_l2: list[DecompositionTerm]


def decomposition_bound(spec: DecomposableSpec, l: int) -> BoundReport:
    """Bound for sums admitting an independent-part decomposition."""
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")
    terms = spec.terms_l1 if l == 1 else spec.terms_l2
    return bound_from_theta(sum(t.theta() for t in terms), spec.sigma2)


def bound_report(spec, l: int, sigma2: float | None = None) -> BoundReport:
    """The order-l bound of a spec of any kind; point-process specs carry no
    variance and take sigma2.  Calculators are looked up at call time, so a
    wrapper rebound in their place (a tracer's, say) sees these calls."""
    if isinstance(spec, IndependentSummandSpec):
        return independent_sum_bound(spec, l)
    if isinstance(spec, LocalDependenceSpec):
        return local_dependence_bound(spec, l)
    if isinstance(spec, DecomposableSpec):
        return decomposition_bound(spec, l)
    if isinstance(spec, PointProcessSpec):
        if sigma2 is None:
            raise Inapplicable("point-process specs need sigma2")
        return point_process_bound(spec, l, sigma2)
    raise TypeError(f"not a bound spec: {type(spec)!r}")


# -- smoothing estimates ------------------------------------------------


def smoothing_constants(V: float, vstar: float) -> tuple[float, float]:
    """(c1, c2) = (2/sqrt(V), 8/(V - 2 vstar)) for total step overlap V and
    largest single overlap vstar; a nonpositive denominator gives +inf (a
    legal, useless bound)."""
    c1 = 2.0 / math.sqrt(V) if V > 0 else math.inf
    den = max(V - 2.0 * vstar, 0.0)
    c2 = 8.0 / den if den > 0 else math.inf
    return c1, c2


def smoothing_bounds(v_list) -> tuple[float, float]:
    """Smoothness of a sum of independent summands from their step overlaps.

    Returns the (first-order, second-order) smoothing_constants.
    """
    v = list(v_list)
    if any(not 0.0 <= x <= 0.5 for x in v):
        raise ValueError("overlaps must lie in [0, 1/2]")
    return smoothing_constants(sum(v), max(v) if v else 0.0)


def block_smoothing_constant(l: int, m: int, k: int, p0: float,
                             p1: float) -> float:
    """Order-l smoothing constant of a sum cut into m conditionally
    independent blocks whose pinning events have probabilities p0, p1:
    2/sqrt(p_min (m-2)) for l = 1 and 8/(p_min (m-k)) for l = 2, with
    p_min = min(1/2, p0, p1); the second order drops k blocks."""
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")
    if (l == 1 and m <= 2) or (l == 2 and m <= k):
        raise ValueError(f"too few blocks (m={m}) for order {l}")
    if min(p0, p1) <= 0.0:
        raise ValueError("degenerate block events; each block must put mass "
                         "on both pinning events")
    pmin = min(0.5, p0, p1)
    if l == 1:
        return 2.0 / math.sqrt(pmin * (m - 2))
    return 8.0 / (pmin * (m - k))


def smoothing_conditional(per_z) -> tuple[float, float]:
    """Mixture version: weighted average of per-condition smoothing bounds.

    per_z is an iterable of (weight, V_z, vstar_z) with weights summing to 1.
    """
    rows = list(per_z)
    wsum = sum(w for w, _, _ in rows)
    if any(w < 0 for w, _, _ in rows) or abs(wsum - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    d1 = 0.0
    d2 = 0.0
    for w, V, vstar in rows:
        b1, b2 = smoothing_constants(V, vstar)
        d1 += w * b1
        d2 += w * b2
    return d1, d2


# -- JSON round-trips for the CLI ---------------------------------------


# JSON "kind" of each spec whose fields serialize as they are.
_KINDS = {LocalDependenceSpec: "local_dependence",
          PointProcessSpec: "point_process", DecomposableSpec: "decomposable"}


def spec_to_json(spec) -> str:
    if isinstance(spec, IndependentSummandSpec):
        doc = {"kind": "independent",
               "summands": [{"offset": s.offset, "min_index": s.min_index,
                             "probs": list(s.probs)} for s in spec.summands]}
    elif type(spec) in _KINDS:
        doc = {"kind": _KINDS[type(spec)], **asdict(spec)}
    else:
        raise TypeError(f"not a bound spec: {type(spec)!r}")
    return json.dumps(doc, indent=2)


def spec_from_json(text: str):
    doc = json.loads(text)
    try:
        kind = doc["kind"]
        if kind == "independent":
            return IndependentSummandSpec(
                [LatticePMF(s["offset"], s["min_index"], np.asarray(s["probs"]))
                 for s in doc["summands"]])
        if kind == "local_dependence":
            return LocalDependenceSpec(
                doc["sigma2"], doc["anchor"],
                [DependenceTerm(**t) for t in doc["terms"]])
        if kind == "point_process":
            return PointProcessSpec([PointTerm(**t) for t in doc["terms"]])
        if kind == "decomposable":
            return DecomposableSpec(
                doc["sigma2"], doc["anchor"],
                [DecompositionTerm(**t) for t in doc["terms_l1"]],
                [DecompositionTerm(**t) for t in doc["terms_l2"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bound spec: {exc}") from exc
    raise ValueError(f"unknown spec kind {doc.get('kind')!r}")
