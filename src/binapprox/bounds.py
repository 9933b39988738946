"""Error-bound calculators for centered-binomial approximation.

Every calculator here is a deterministic function of moment summaries and
smoothness constants; nothing in this module samples.  Simulation and
moment estimation live in the application modules, which then feed their
numbers through these formulas, all assembled by ``bound_from_theta``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from .lattice import (LatticePMF, _check_order, _number, _split_position,
                      convolve_all, smoothness_functional, tv_distance)
from .binomial import check_variance, BinomialParams, binomial_pmf

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


def runs(items) -> list[tuple]:
    """(first item, length) of each maximal run of adjacent equal items
    (``==`` is immediate for one shared object)."""
    return [(run[0], len(run)) for run in
            (list(group) for _, group in itertools.groupby(items))]


def fsum_runs(pairs) -> float:
    """Exactly rounded sum of each value repeated count times, so independent
    of order and Python version; +inf past the largest double."""
    try:
        return math.fsum(itertools.chain.from_iterable(
            itertools.repeat(v, k) for v, k in pairs))
    except OverflowError:
        return math.inf


def _product(a: float, b: float) -> float:
    """a * b for nonnegative bounds a and b, and 0 when either is 0: a zero
    bound makes the true product 0 even where the other bound is +inf (a
    useless bound on a finite quantity), and inf * 0 would be NaN."""
    return a * b if a and b else 0.0


def _check_fields(term) -> None:
    """Refuse a bound term field that is not a nonnegative number (for a
    list field, a list of them): NaN is refused, +inf is legal (a useless
    bound)."""
    for f in fields(term):
        name = f"{type(term).__name__}.{f.name}"
        value, many = getattr(term, f.name), f.default_factory is list
        if many and not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for v in value if many else (value,):
            if not _number(name, v) >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v!r}")


def rho(summand: LatticePMF) -> float:
    """Third-moment weight of one independent summand: sigma^3 + E|xi|^3/2."""
    if abs(summand.mean()) > 1e-9:
        raise ValueError("summand must be centered")
    return summand.variance() ** 1.5 + 0.5 * summand.abs_moment(3)


@dataclass(frozen=True)
class IndependentSummandSpec:
    """Laws of independent mean-zero lattice summands.  Each quantity of a
    law is computed once per run of adjacent equal summands."""

    summands: list[LatticePMF]

    def __post_init__(self):
        for s, _ in runs(self.summands):
            if abs(s.mean()) > 1e-9:
                raise ValueError("all summands must have mean 0")

    @property
    def sigma2(self) -> float:
        return fsum_runs((s.variance(), k) for s, k in runs(self.summands))

    @property
    def anchor(self) -> float:
        return fsum_runs((s.offset, k) for s, k in runs(self.summands)) % 1.0

    @cached_property
    def _rest_laws(self) -> list[tuple[LatticePMF, int, LatticePMF]]:
        """(summand, run length, exact law of the sum of all other
        summands) for each run of equal summands.  Removing any index of a
        run leaves the same list of laws element by element, so one
        convolution serves the whole run and both orders."""
        out, i = [], 0
        for s, k in runs(self.summands):
            rest = self.summands[:i] + self.summands[i + 1:]
            if not rest:
                raise ValueError("need at least two summands")
            out.append((s, k, convolve_all(rest)))
            i += k
        return out


def independent_sum_bound(spec: IndependentSummandSpec, l: int) -> BoundReport:
    """Approximation error bound for a sum of independent lattice summands.

    sigma^-2 (sum_i c_{l,i} rho_i + 1.75) with exact leave-one-out
    smoothness constants c_{l,i}, which agree to the bit within a run of
    equal summands: a run costs one rho per order, and its leave-one-out
    law is built once for both orders.
    """
    return bound_from_theta(
        fsum_runs((smoothness_functional(rest, l) * rho(s), k)
                  for s, k, rest in spec._rest_laws), spec.sigma2)


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
        if _split_position(s.offset)[1]:
            raise ValueError("summands must be integer valued")
    sigma2 = math.fsum(s.variance() for s in summands)
    check_variance(sigma2)
    sigma = math.sqrt(sigma2)
    mu = math.fsum(s.mean() for s in summands)
    rho_sum = math.fsum(s.variance() ** 1.5 + 0.5 * s.abs_moment(3) for s in summands)
    v = [step_overlap(s) for s in summands]
    V, vstar = math.fsum(v), max(v)
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
    return bound, binomial_pmf(BinomialParams(n, 0.5)).shift(shift)


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
        _check_order(l)
        _check_fields(self)
        c = self.c1 if l == 1 else self.c2
        return _product(c, 0.5 * self.m_xi_eta2 + self.m_xi_eta_tau
                        + _product(self.m_cov, self.m_tau))


@dataclass(frozen=True)
class LocalDependenceSpec:
    sigma2: float
    anchor: float
    terms: list[DependenceTerm]


def local_dependence_bound(spec: LocalDependenceSpec, l: int) -> BoundReport:
    """Bound for sums with a finite two-layer neighborhood structure."""
    _check_order(l)
    return bound_from_theta(
        fsum_runs((t.theta(l), k) for t, k in runs(spec.terms)), spec.sigma2)


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
        _check_order(l)
        _check_fields(self)
        c = self.c1 if l == 1 else self.c2
        return _product(c, 1.5 * self.palm_prod + 1.5 * self.plain_prod
                        + _product(6.0 * self.mu_A, self.mu_B)
                        + _product(4.0 * self.mu_B, self.palm_B))


@dataclass(frozen=True)
class PointProcessSpec:
    sigma2: float
    terms: list[PointTerm]


def point_process_bound(spec: PointProcessSpec, l: int) -> BoundReport:
    """Bound for the total point count of a locally dependent point process."""
    _check_order(l)
    return bound_from_theta(
        fsum_runs((_product(t.weight, t.theta(l)), k)
                  for t, k in runs(spec.terms)), spec.sigma2)


@dataclass(frozen=True)
class DecompositionTerm:
    """One index of a decomposable sum W = W_i + Z_i, Z_i = sum_k Z_ik."""

    z2_term: float                          # c * E{|xi| Z^2} / weight folded in
    zv_terms: list[float] = field(default_factory=list)      # c * E|xi Z_k V_k|
    cov_terms: list[float] = field(default_factory=list)     # |E xi Z_k|
    zvsum_terms: list[float] = field(default_factory=list)   # c * E|Z + V_k|

    def theta(self) -> float:
        _check_fields(self)
        if len(self.cov_terms) != len(self.zvsum_terms):
            raise ValueError("cov_terms and zvsum_terms differ in length")
        return fsum_runs((x, 1) for x in itertools.chain(
            (self.z2_term, *self.zv_terms),
            (_product(c, s) for c, s in zip(self.cov_terms,
                                            self.zvsum_terms))))


@dataclass(frozen=True)
class DecomposableSpec:
    sigma2: float
    anchor: float
    terms_l1: list[DecompositionTerm]
    terms_l2: list[DecompositionTerm]

    def __post_init__(self):
        if len(self.terms_l1) != len(self.terms_l2):
            raise ValueError("terms_l1 and terms_l2 differ in length")


def decomposition_bound(spec: DecomposableSpec, l: int) -> BoundReport:
    """Bound for sums admitting an independent-part decomposition."""
    _check_order(l)
    terms = spec.terms_l1 if l == 1 else spec.terms_l2
    return bound_from_theta(fsum_runs((t.theta(), k) for t, k in runs(terms)),
                            spec.sigma2)


def bound_report(spec, l: int) -> BoundReport:
    """The order-l bound of a spec of any kind.  Calculators are looked up
    at call time, so a wrapper rebound in their place (a tracer's, say)
    sees these calls."""
    if isinstance(spec, IndependentSummandSpec):
        return independent_sum_bound(spec, l)
    if isinstance(spec, LocalDependenceSpec):
        return local_dependence_bound(spec, l)
    if isinstance(spec, PointProcessSpec):
        return point_process_bound(spec, l)
    if isinstance(spec, DecomposableSpec):
        return decomposition_bound(spec, l)
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
    return smoothing_constants(math.fsum(v), max(v) if v else 0.0)


def block_smoothing_constant(l: int, m: int, k: int, p0: float,
                             p1: float) -> float:
    """Order-l smoothing constant of a sum cut into m conditionally
    independent blocks whose pinning events have probabilities p0, p1:
    2/sqrt(p_min (m-2)) for l = 1 and 8/(p_min (m-k)) for l = 2, with
    p_min = min(1/2, p0, p1); the second order drops k blocks."""
    _check_order(l)
    if (l == 1 and m <= 2) or (l == 2 and m <= k):
        raise ValueError(f"too few blocks (m={m}) for order {l}")
    if min(p0, p1) <= 0.0:
        raise ValueError("degenerate block events; each block must put mass "
                         "on both pinning events")
    pmin = min(0.5, p0, p1)
    if l == 1:
        return 2.0 / math.sqrt(pmin * (m - 2))
    return 8.0 / (pmin * (m - k))


# -- JSON round-trips for the CLI ---------------------------------------


# Spec class and list-entry class of each JSON "kind".  Its fields serialize
# as they are: each list as run entries of the entry class's fields, each
# scalar (a field annotated "float") as a number.
_TABLE = {"independent": (IndependentSummandSpec, LatticePMF),
          "local_dependence": (LocalDependenceSpec, DependenceTerm),
          "point_process": (PointProcessSpec, PointTerm),
          "decomposable": (DecomposableSpec, DecompositionTerm)}
_KINDS = {cls: kind for kind, (cls, _) in _TABLE.items()}
# Most entries one JSON list may stand for once its repeats are expanded:
# ten times the largest exact 2-runs model, so that a mistyped repeat is
# refused before it allocates gigabytes.
MAX_SPEC_ENTRIES = 10 ** 7


def _run_entries(items) -> list[dict]:
    """One JSON object of an item's fields per run of equal items, with
    "repeat": k when the run has k > 1 items."""
    return [{f.name: getattr(x, f.name) for f in fields(x)}
            | ({"repeat": k} if k > 1 else {}) for x, k in runs(items)]


def spec_to_json(spec) -> str:
    """The spec as JSON; each run of equal list entries is written once,
    with its length as "repeat", and an array as a list."""
    if type(spec) not in _KINDS:
        raise TypeError(f"not a bound spec: {type(spec)!r}")
    doc = {"kind": _KINDS[type(spec)]}
    for f in fields(spec):
        value = getattr(spec, f.name)
        doc[f.name] = _run_entries(value) if isinstance(value, list) else value
    return json.dumps(doc, indent=2, default=list)


def _expand(entries: list, build) -> list:
    """The list a JSON list of run entries stands for: each entry built
    once and repeated "repeat" times (default 1), so a run shares one
    object.  Every repeat of the list is checked before an entry is
    built."""
    if not all(isinstance(e, dict) for e in entries):
        raise TypeError("spec list entries must be JSON objects")
    repeats = [e.pop("repeat", 1) for e in entries]
    for k in repeats:
        if type(k) is not int or k < 1:
            raise ValueError(f"repeat must be an integer >= 1, got {k!r}")
    if sum(repeats) > MAX_SPEC_ENTRIES:
        raise ValueError(f"a spec list may hold at most {MAX_SPEC_ENTRIES} "
                         f"entries, its repeats add up to {sum(repeats)}")
    out = []
    for e, k in zip(entries, repeats):
        out += [build(e)] * k
    return out


def _json_int(text: str):
    """A JSON integer, or ±inf past the double range, as 1e400 reads."""
    x = float(text)
    return int(text) if math.isfinite(x) else x


def spec_from_json(text: str):
    doc = json.loads(text, parse_int=_json_int)
    try:
        kind = doc["kind"]
        if kind in _TABLE:
            cls, entry = _TABLE[kind]
            stray = doc.keys() - {"kind", *(f.name for f in fields(cls))}
            if stray:
                raise TypeError(f"{kind} spec has no key "
                                f"{', '.join(map(repr, sorted(stray)))}")
            return cls(**{
                f.name: (_number(f.name, doc[f.name]) if f.type == "float"
                         else _expand(doc[f.name], lambda t: entry(**t)))
                for f in fields(cls)})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed bound spec: {exc}") from exc
    raise ValueError(f"unknown spec kind {doc.get('kind')!r}")
