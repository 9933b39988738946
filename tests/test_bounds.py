import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from binapprox import bounds, oracle
from binapprox.binomial import (Inapplicable, centered_binomial,
                                centering_params)
from binapprox.bounds import (BoundReport, DecomposableSpec, DecompositionTerm,
                              DependenceTerm, IndependentSummandSpec,
                              LocalDependenceSpec, PointProcessSpec, PointTerm,
                              decomposition_bound, independent_sum_bound,
                              integer_sum_bound, block_smoothing_constant,
                              bound_from_theta, bound_report, fsum_runs,
                              local_dependence_bound, point_process_bound,
                              rho, runs, smoothing_bounds, spec_from_json,
                              spec_to_json, step_overlap)
from binapprox.lattice import (LatticePMF, convolve_all, loc_distance,
                               make_pmf, smoothness_functional, tv_distance)


def centered_bernoulli(p):
    """Law of X - p for X ~ Bernoulli(p); atoms at -p and 1-p."""
    return make_pmf([1 - p, p], min_index=-1, offset=(1 - p) % 1.0)


def bernoulli(p):
    return make_pmf([1 - p, p])


def leave_one_out(summands, i, l):
    """Smoothness of the sum with summand i removed, from a convolution of
    its own rather than the bound's per-run cache."""
    return smoothness_functional(
        convolve_all(summands[:i] + summands[i + 1:]), l)


class TestRho:
    def test_symmetric_bernoulli(self):
        # atoms at +-1/2: sigma^3 = 1/8 and E|xi|^3 = 1/8.
        assert rho(centered_bernoulli(0.5)) == pytest.approx(3 / 16)

    def test_degenerate(self):
        assert rho(make_pmf([1.0])) == 0.0

    def test_skewed_bernoulli(self):
        p = centered_bernoulli(0.3)
        e3 = 0.3 * 0.7 ** 3 + 0.7 * 0.3 ** 3
        assert rho(p) == pytest.approx(0.21 ** 1.5 + 0.5 * e3)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError):
            rho(bernoulli(0.4))


class TestLeaveOneOutSmoothness:
    """The leave-one-out constants of independent_sum_bound, read off its
    theta sum."""

    def test_two_summands(self):
        # Each summand's leave-one-out law is the other summand: uniform on
        # {-2, ..., 2} has order-1 smoothness 0.4, and (1, 2, 1)/4 has 1.
        a = make_pmf([0.2] * 5, min_index=-2)
        b = make_pmf([0.25, 0.5, 0.25], min_index=-1)
        rep = independent_sum_bound(IndependentSummandSpec([a, b]), 1)
        assert rep.theta_sum == pytest.approx(rho(a) + 0.4 * rho(b))

    def test_matches_direct_differencing(self):
        s = centered_bernoulli(0.5)
        rest = convolve_all([s] * 9)
        rep = independent_sum_bound(IndependentSummandSpec([s] * 10), 1)
        assert rep.theta_sum == pytest.approx(
            10 * smoothness_functional(rest, 1) * rho(s), abs=1e-12)

    def test_order2_below_split_product(self):
        s = centered_bernoulli(0.5)
        rep = independent_sum_bound(IndependentSummandSpec([s] * 10), 2)
        d2 = rep.theta_sum / (10 * rho(s))
        left = smoothness_functional(convolve_all([s] * 5), 1)
        right = smoothness_functional(convolve_all([s] * 4), 1)
        assert d2 <= left * right + 1e-12

    def test_rejects_single_summand(self):
        with pytest.raises(ValueError, match="at least two summands"):
            independent_sum_bound(
                IndependentSummandSpec([centered_bernoulli(0.5)]), 1)


class TestIndependentSumBound:
    def test_iid_bernoulli_assembly(self):
        summands = [centered_bernoulli(0.5)] * 12
        spec = IndependentSummandSpec(summands)
        assert spec.sigma2 == pytest.approx(3.0)
        c = [leave_one_out(summands, i, 1) for i in range(12)]
        expected = (sum(ci * 3 / 16 for ci in c) + 1.75) / 3.0
        assert independent_sum_bound(spec, 1).value == pytest.approx(expected)

    def test_rejects_uncentered_summand(self):
        with pytest.raises(ValueError, match="mean 0"):
            IndependentSummandSpec([centered_bernoulli(0.5), bernoulli(0.4)])

    def test_rejects_small_variance(self):
        with pytest.raises(ValueError):
            independent_sum_bound(
                IndependentSummandSpec([centered_bernoulli(0.5)] * 2), 1)

    @pytest.mark.parametrize("pattern", ["aaaaaaaa", "aAaAaAaA", "aabbbacc",
                                         "abababab", "aBbAcCab"])
    @pytest.mark.parametrize("l", [1, 2])
    def test_run_reuse_equals_per_index_sum(self, pattern, l):
        # Lower case is one shared object per law; upper case is a fresh
        # equal-valued copy.  Adjacent equals reuse the leave-one-out value;
        # the bound must equal the exactly rounded per-index sum to the bit.
        laws = {"a": 0.3, "b": 0.5, "c": 0.8}
        shared = {k: centered_bernoulli(p) for k, p in laws.items()}
        summands = [shared[ch] if ch.islower()
                    else centered_bernoulli(laws[ch.lower()])
                    for ch in pattern]
        spec = IndependentSummandSpec(summands)
        theta = math.fsum(leave_one_out(summands, i, l) * rho(s)
                          for i, s in enumerate(summands))
        assert independent_sum_bound(spec, l) \
            == bound_from_theta(theta, spec.sigma2)

    def test_rest_law_built_once_per_run_for_both_orders(self, monkeypatch):
        calls = []
        convolve = bounds.convolve_all
        monkeypatch.setattr(bounds, "convolve_all",
                            lambda pmfs: calls.append(len(pmfs))
                            or convolve(pmfs))
        laws = {ch: centered_bernoulli(p)
                for ch, p in zip("abc", (0.3, 0.5, 0.8))}
        summands = [laws[ch] for ch in "aaabbbbcc"]
        spec = IndependentSummandSpec(summands)
        reports = [bound_report(spec, l) for l in (1, 2)]
        assert calls == [8, 8, 8]
        for l, rep in zip((1, 2), reports):
            theta = math.fsum(leave_one_out(summands, i, l) * rho(s)
                              for i, s in enumerate(summands))
            assert rep == bound_from_theta(theta, spec.sigma2)
        assert calls == [8, 8, 8]

    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("l,dist", [(1, "tv"), (2, "loc")])
    def test_dominates_exact_distance(self, n, l, dist):
        summands = [centered_bernoulli(0.5)] * n
        spec = IndependentSummandSpec(summands)
        approx = centered_binomial(centering_params(spec.sigma2, spec.anchor))
        exact = convolve_all(summands)
        d = tv_distance(exact, approx) if dist == "tv" \
            else loc_distance(exact, approx)
        assert d <= independent_sum_bound(spec, l).value + 1e-12

    def test_heterogeneous_dominance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ps = rng.uniform(0.2, 0.8, size=12)
            summands = [centered_bernoulli(float(p)) for p in ps]
            spec = IndependentSummandSpec(summands)
            if spec.sigma2 <= 1.0:
                continue
            approx = centered_binomial(
                centering_params(spec.sigma2, spec.anchor))
            exact = convolve_all(summands)
            assert tv_distance(exact, approx) \
                <= independent_sum_bound(spec, 1).value + 1e-12


class TestIntegerSumBound:
    def test_step_overlap_bernoulli(self):
        assert step_overlap(bernoulli(0.5)) == pytest.approx(0.5)

    def test_smoothness_factor_assembly(self):
        summands = [bernoulli(0.5)] * 20
        bound, approx = integer_sum_bound(summands, "tv")
        # V = 10, v* = 1/2; first term 2*rho_sum/(sigma2*sqrt(9.5)).
        sigma2 = 5.0
        rho_sum = 20 * (0.25 ** 1.5 + 0.5 * 0.5)
        expected = (2 * rho_sum / (sigma2 * math.sqrt(9.5))
                    + (1 + 2.25 / math.sqrt(5) + 0.25 / 5) / math.sqrt(5))
        assert bound == pytest.approx(expected)

    def test_symmetric_case_approximant_is_exact(self):
        # 20 Bernoulli(1/2): the approximant coincides with the true law.
        summands = [bernoulli(0.5)] * 20
        exact = convolve_all(summands)
        for metric, dist in (("tv", tv_distance), ("loc", loc_distance)):
            bound, approx = integer_sum_bound(summands, metric)
            assert dist(exact, approx) <= bound + 1e-12
        assert tv_distance(exact, integer_sum_bound(summands, "tv")[1]) < 1e-12

    def test_heterogeneous_dominance(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ps = rng.uniform(0.25, 0.75, size=15)
            summands = [bernoulli(float(p)) for p in ps]
            exact = convolve_all(summands)
            for metric, dist in (("tv", tv_distance), ("loc", loc_distance)):
                bound, approx = integer_sum_bound(summands, metric)
                assert dist(exact, approx) <= bound + 1e-12

    def test_rejects_insufficient_budget(self):
        # A single near-degenerate pair leaves V - v* = 0.
        with pytest.raises(ValueError):
            integer_sum_bound([make_pmf([0.1] + [0.0] * 7 + [0.9])], "tv")

    def test_rejects_insufficient_loc_budget(self):
        # Two atoms 4 apart: sigma2 = 8, but no mass overlaps a unit shift.
        with pytest.raises(ValueError, match=r"V - 4v\* <= 0"):
            integer_sum_bound([make_pmf([0.5, 0.0, 0.0, 0.0, 0.5])] * 2,
                              "loc")

    def test_rejects_fractional_lattice(self):
        with pytest.raises(ValueError):
            integer_sum_bound([make_pmf([0.5, 0.5], offset=0.5)] * 10, "tv")

    def test_offset_within_snap_of_one_is_integer(self):
        # The lattice Z, as lattices_match and make_pmf place it, with its
        # atoms at 1 and 2.
        near = LatticePMF(1.0 - 1e-12, 0, [0.5, 0.5])
        bound, approx = integer_sum_bound([near] * 20, "tv")
        ref_bound, ref_approx = integer_sum_bound(
            [make_pmf([0.5, 0.5], min_index=1)] * 20, "tv")
        assert bound == pytest.approx(ref_bound, rel=1e-9)
        assert approx == ref_approx

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric must be"):
            integer_sum_bound([bernoulli(0.5)] * 20, "kl")


class TestLocalDependenceBound:
    def test_zero_moments(self):
        spec = LocalDependenceSpec(4.0, 0.0, [DependenceTerm(0, 0, 0, 0, 1, 2)])
        assert local_dependence_bound(spec, 1).value == pytest.approx(1.75 / 4.0)
        assert local_dependence_bound(spec, 2).value == pytest.approx(1.75 / 4.0)

    def test_term_assembly(self):
        t = DependenceTerm(m_xi_eta2=0.4, m_xi_eta_tau=0.3, m_cov=0.2,
                           m_tau=1.5, c1=0.5, c2=1.25)
        assert t.theta(1) == pytest.approx(0.5 * (0.2 + 0.3 + 0.3))
        assert t.theta(2) == pytest.approx(1.25 * (0.2 + 0.3 + 0.3))

    def test_monotone_in_moments(self):
        rng = np.random.default_rng(37)
        base = DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
        spec = LocalDependenceSpec(4.0, 0.0, [base])
        b0 = local_dependence_bound(spec, 1).value
        for name in ("m_xi_eta2", "m_xi_eta_tau", "m_cov", "m_tau", "c1"):
            kwargs = {f: getattr(base, f) for f in
                      ("m_xi_eta2", "m_xi_eta_tau", "m_cov", "m_tau", "c1", "c2")}
            kwargs[name] = kwargs[name] * (1.0 + rng.random())
            spec2 = LocalDependenceSpec(4.0, 0.0, [DependenceTerm(**kwargs)])
            assert local_dependence_bound(spec2, 1).value >= b0 - 1e-15

    def test_rejects_bad_order(self):
        spec = LocalDependenceSpec(4.0, 0.0, [])
        with pytest.raises(ValueError):
            local_dependence_bound(spec, 3)


class TestPointProcessBound:
    def test_zero_moments(self):
        spec = PointProcessSpec(4.0,
                                [PointTerm(10.0, 0, 0, 0, 0, 0, 0.1, 0.2)])
        assert point_process_bound(spec, 1).value == pytest.approx(1.75 / 4.0)

    def test_homogeneous_assembly(self):
        spec = PointProcessSpec(4.0, [PointTerm(
            weight=10.0, palm_prod=2.0, plain_prod=2.0, mu_A=0.5, mu_B=0.5,
            palm_B=1.0, c1=0.1, c2=0.1)])
        assert point_process_bound(spec, 1).value == pytest.approx(2.8125)

    def test_rejects_negative_weight(self):
        spec = PointProcessSpec(4.0,
                                [PointTerm(-1.0, 0, 0, 0, 0, 0, 0.1, 0.1)])
        with pytest.raises(ValueError):
            point_process_bound(spec, 1)


class TestDecompositionBound:
    def test_zero_terms(self):
        spec = DecomposableSpec(9.0, 0.0, [DecompositionTerm(0.0)],
                                [DecompositionTerm(0.0)])
        assert decomposition_bound(spec, 1).value == pytest.approx(1.75 / 9.0)

    def test_reduces_to_local_dependence(self):
        # One inner/outer neighborhood pair maps onto a single-block
        # decomposition with identical moment content.
        rng = np.random.default_rng(41)
        for _ in range(20):
            m1, m2, m3, m4 = rng.random(4)
            c1, c2 = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 4))
            dep = LocalDependenceSpec(
                4.0, 0.0, [DependenceTerm(m1, m2, m3, m4, c1, c2)])
            terms = {}
            for l, c in ((1, c1), (2, c2)):
                terms[l] = [DecompositionTerm(z2_term=c * 0.5 * m1,
                                              zv_terms=[c * m2],
                                              cov_terms=[m3],
                                              zvsum_terms=[c * m4])]
            dec = DecomposableSpec(4.0, 0.0, terms[1], terms[2])
            for l in (1, 2):
                assert decomposition_bound(dec, l).value \
                    == pytest.approx(local_dependence_bound(dep, l).value, rel=1e-12)


class TestBoundReport:
    def test_assembly(self):
        assert bound_from_theta(0.25, 4.0) == BoundReport(0.5, 0.25, 4.0)

    @pytest.mark.parametrize("sigma2", [0.5, 1.0])
    def test_small_variance_inapplicable(self, sigma2):
        with pytest.raises(Inapplicable):
            bound_from_theta(0.0, sigma2)

    def test_dispatch_matches_calculators(self):
        ind = IndependentSummandSpec([centered_bernoulli(0.5)] * 12)
        dep = LocalDependenceSpec(
            4.0, 0.0, [DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)])
        dec = DecomposableSpec(9.0, 0.0,
                               [DecompositionTerm(0.5, [0.1], [0.2], [0.3])],
                               [DecompositionTerm(1.0)])
        pp = PointProcessSpec(4.0,
                              [PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)])
        for l in (1, 2):
            assert bound_report(ind, l) == independent_sum_bound(ind, l)
            assert bound_report(dep, l) == local_dependence_bound(dep, l)
            assert bound_report(dec, l) == decomposition_bound(dec, l)
            assert bound_report(pp, l) == point_process_bound(pp, l)

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            bound_report(object(), 1)
        with pytest.raises(TypeError, match="not a bound spec"):
            spec_to_json(object())


class TestSummation:
    def test_fsum_runs_equals_fsum_of_expanded_list(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40)
        counts = rng.integers(0, 1000, 40)
        pairs = [(float(v), int(k)) for v, k in zip(values, counts)]
        expanded = [v for v, k in pairs for _ in range(k)]
        assert fsum_runs(pairs) == math.fsum(expanded)

    def test_fsum_runs_overflow_is_inf(self):
        assert fsum_runs([(1e308, 2)]) == math.inf
        assert fsum_runs([(1e308, 1), (1e308, 1), (-1e308, 1)]) == math.inf

    def test_runs_of_shared_objects_and_equal_copies(self):
        t = DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
        u = DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
        v = DependenceTerm(0.1, 0.3, 0.2, 1.5, 0.5, 1.25)
        assert runs([t, t, u, v, t]) == [(t, 3), (v, 1), (t, 1)]
        assert runs([]) == []

    def test_runs_of_laws_by_lattice_and_probs(self):
        a, b = centered_bernoulli(0.3), centered_bernoulli(0.5)
        copy = centered_bernoulli(0.3)
        shifted = a.shift(1)
        got = runs([a, a, copy, shifted, b, b, a])
        assert [k for _, k in got] == [3, 1, 2, 1]
        assert all(s is x for (s, _), x in zip(got, [a, shifted, b, a]))

    def test_theta_once_per_run(self, monkeypatch):
        # 10^5 terms in three runs: a shared middle term between two
        # equal-valued copies of an edge term.
        n = 10 ** 5
        edge = DependenceTerm(0.1, 0.3, 0.2, 1.5, 0.5, 1.25)
        inner = DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
        terms = [edge] + [inner] * (n - 2) + [DependenceTerm(
            0.1, 0.3, 0.2, 1.5, 0.5, 1.25)]
        calls = []
        theta = DependenceTerm.theta
        monkeypatch.setattr(DependenceTerm, "theta",
                            lambda t, l: calls.append(t) or theta(t, l))
        rep = local_dependence_bound(LocalDependenceSpec(4.0, 0.0, terms), 1)
        assert calls == [edge, inner, edge]
        assert rep.theta_sum == math.fsum(
            [theta(edge, 1)] * 2 + [theta(inner, 1)] * (n - 2))


class TestBadSpecValues:
    """A field of a bound term that is negative, NaN or not a number is
    refused by its theta; +inf is legal and gives a legal, useless bound."""

    FIELDS = ("m_xi_eta2", "m_xi_eta_tau", "m_cov", "m_tau", "c1", "c2")

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("bad", [-50.0, -1e-300, math.nan, "0.5", True,
                                     None, [0.5]])
    def test_dependence_term_refused(self, name, bad):
        kwargs = dict(zip(self.FIELDS, (0.4, 0.3, 0.2, 1.5, 0.5, 1.25)))
        kwargs[name] = bad
        spec = LocalDependenceSpec(4.0, 0.0, [DependenceTerm(**kwargs)])
        for l in (1, 2):
            with pytest.raises(ValueError, match=name):
                local_dependence_bound(spec, l)

    @pytest.mark.parametrize("name", ["c1", "c2", "m_tau"])
    def test_infinite_field_legal(self, name):
        kwargs = dict(zip(self.FIELDS, (0.4, 0.3, 0.2, 1.5, 0.5, 1.25)))
        kwargs[name] = math.inf
        spec = LocalDependenceSpec(4.0, 0.0, [DependenceTerm(**kwargs)])
        values = [local_dependence_bound(spec, l).value for l in (1, 2)]
        assert math.inf in values and not any(map(math.isnan, values))

    def test_numpy_float64_legal(self):
        values = (0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
        term = DependenceTerm(*map(np.float64, values))
        assert [term.theta(l) for l in (1, 2)] \
            == [DependenceTerm(*values).theta(l) for l in (1, 2)]

    @pytest.mark.parametrize("term", [
        DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25),
        PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)],
        ids=["dependence", "point"])
    @pytest.mark.parametrize("l", [0, 3, 7])
    def test_theta_refuses_order(self, term, l):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            term.theta(l)

    @pytest.mark.parametrize("spec,calc", [
        (PointProcessSpec(4.0, []), point_process_bound),
        (DecomposableSpec(9.0, 0.0, [], []), decomposition_bound)],
        ids=["point_process", "decomposable"])
    def test_empty_spec_refuses_order(self, spec, calc):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            calc(spec, 3)

    def test_zero_bound_times_infinite_bound_is_zero(self):
        # A zero moment sum contributes 0 whatever c is, and +inf only
        # multiplies a positive bound.
        zero = DependenceTerm(0.0, 0.0, 0.0, math.inf, math.inf, 2.0)
        pos = DependenceTerm(0.0, 0.0, 0.5, 0.5, math.inf, 2.0)
        assert [zero.theta(l) for l in (1, 2)] == [0.0, 0.0]
        assert [pos.theta(l) for l in (1, 2)] == [math.inf, 0.5]
        spec = LocalDependenceSpec(4.0, 0.0, [zero, zero])
        assert local_dependence_bound(spec, 1).value == 1.75 / 4.0
        point = PointTerm(weight=math.inf, palm_prod=0.0, plain_prod=0.0,
                          mu_A=0.0, mu_B=math.inf, palm_B=0.0,
                          c1=math.inf, c2=0.0)
        assert point.theta(1) == 0.0
        assert point_process_bound(PointProcessSpec(4.0, [point]), 2).value \
            == 1.75 / 4.0
        term = DecompositionTerm(0.0, [0.0], [0.0, 0.5], [math.inf, 0.0])
        assert term.theta() == 0.0
        assert DecompositionTerm(0.0, [], [0.5], [math.inf]).theta() \
            == math.inf

    @pytest.mark.parametrize("term", [
        DecompositionTerm(-0.5), DecompositionTerm(0.5, [math.nan]),
        DecompositionTerm(0.5, [0.1], [-0.2], [0.3]),
        DecompositionTerm(0.5, [0.1], [0.2], [0.3, 0.4]),
        DecompositionTerm(0.5, [0.1], [0.2, 0.1], [0.3]),
        DecompositionTerm("0.5"), DecompositionTerm(0.5, [0.1, False]),
        DecompositionTerm(0.5, 0.1), DecompositionTerm([0.5])])
    def test_decomposition_term_refused(self, term):
        spec = DecomposableSpec(9.0, 0.0, [term], [term])
        with pytest.raises(ValueError):
            decomposition_bound(spec, 1)

    def test_decomposable_orders_differ_in_length(self):
        with pytest.raises(ValueError, match="terms_l1 and terms_l2"):
            DecomposableSpec(9.0, 0.0, [DecompositionTerm(0.5)], [])

    @pytest.mark.parametrize("field", ["palm_prod", "mu_B", "c2"])
    def test_point_term_refused(self, field):
        kwargs = dict(weight=10.0, palm_prod=2.0, plain_prod=2.0, mu_A=0.5,
                      mu_B=0.5, palm_B=1.0, c1=0.1, c2=0.1)
        kwargs[field] = -1.0
        with pytest.raises(ValueError, match=field):
            point_process_bound(PointProcessSpec(4.0, [PointTerm(**kwargs)]),
                                1)


class TestSmoothingBounds:
    def test_printed_values(self):
        d1, d2 = smoothing_bounds([0.5] * 16)
        assert d1 == pytest.approx(2 / math.sqrt(8))
        assert d2 == pytest.approx(8 / 7)

    def test_degenerate_denominator(self):
        d1, d2 = smoothing_bounds([0.5, 0.5])
        assert d2 == math.inf

    def test_dominates_exact_smoothness(self):
        summands = [bernoulli(0.5)] * 16
        exact = smoothness_functional(convolve_all(summands), 1)
        d1, _ = smoothing_bounds([step_overlap(s) for s in summands])
        assert exact <= d1 + 1e-12

    def test_rejects_out_of_range_overlap(self):
        with pytest.raises(ValueError):
            smoothing_bounds([0.7])


class TestBlockSmoothingConstant:
    def test_formulas(self):
        assert block_smoothing_constant(1, 10, 4, 0.2, 0.6) \
            == 2.0 / math.sqrt(0.2 * 8)
        assert block_smoothing_constant(2, 10, 4, 0.9, 0.7) \
            == 8.0 / (0.5 * 6)
        assert block_smoothing_constant(2, 10, 3, 0.9, 0.1) \
            == 8.0 / (0.1 * 7)

    @pytest.mark.parametrize("l,m,k", [(1, 2, 4), (2, 4, 4), (2, 3, 3),
                                       (3, 100, 4)])
    def test_rejects_order_or_too_few_blocks(self, l, m, k):
        with pytest.raises(ValueError):
            block_smoothing_constant(l, m, k, 0.3, 0.3)

    def test_rejects_degenerate_events(self):
        with pytest.raises(ValueError, match="degenerate"):
            block_smoothing_constant(1, 10, 4, 0.3, 0.0)


class TestSpecSerialization:
    def test_independent_round_trip(self):
        spec = IndependentSummandSpec([centered_bernoulli(0.5)] * 6)
        out = spec_from_json(spec_to_json(spec))
        assert independent_sum_bound(out, 1).value \
            == pytest.approx(independent_sum_bound(spec, 1).value)

    def test_local_dependence_round_trip(self):
        spec = LocalDependenceSpec(
            4.0, 0.25, [DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)])
        out = spec_from_json(spec_to_json(spec))
        assert out == spec

    def test_point_process_round_trip(self):
        spec = PointProcessSpec(4.0,
                                [PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)])
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_decomposable_round_trip(self):
        spec = DecomposableSpec(9.0, 0.0,
                                [DecompositionTerm(0.5, [0.1], [0.2], [0.3])],
                                [DecompositionTerm(1.0)])
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json('{"kind": "nonsense"}')
        with pytest.raises(ValueError):
            spec_from_json('{"terms": []}')
        with pytest.raises(ValueError, match="objects"):
            spec_from_json('{"kind": "point_process", "sigma2": 4.0, '
                           '"terms": [3]}')

    @pytest.mark.parametrize("kind", ["local_dependence", "point_process",
                                      "decomposable"])
    @pytest.mark.parametrize("bad", ["4", None, True, [4.0], {}])
    def test_non_number_scalar_refused(self, kind, bad):
        doc = json.loads(spec_to_json(RUN_SPECS[kind]))
        doc["sigma2"] = bad
        with pytest.raises(ValueError, match="sigma2 must be a number") as exc:
            spec_from_json(json.dumps(doc))
        assert not isinstance(exc.value, Inapplicable)


# Specs of every kind with runs of equal entries: shared objects, equal
# copies and single entries.
_D = DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25)
_P = PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)
_Z = DecompositionTerm(0.5, [0.1], [0.2], [0.3])
RUN_SPECS = {
    "local_dependence": LocalDependenceSpec(
        4.0, 0.25, [_D] * 3 + [DependenceTerm(0.4, 0.3, 0.2, 1.5, 0.5, 1.25),
                               DependenceTerm(0.1, 0.3, 0.2, 1.5, 0.5, 1.25)]),
    "point_process": PointProcessSpec(
        4.0, [_P, PointTerm(1, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)] + [_P] * 4),
    "decomposable": DecomposableSpec(
        9.0, 0.0, [_Z] * 5 + [DecompositionTerm(1.0)],
        [DecompositionTerm(1.0)] + [_Z] * 5),
}


class TestRunLengthSpecs:
    @pytest.mark.parametrize("kind", list(RUN_SPECS))
    def test_round_trip_with_repeats(self, kind):
        spec = RUN_SPECS[kind]
        doc = json.loads(spec_to_json(spec))
        out = spec_from_json(json.dumps(doc))
        assert doc["kind"] == kind and out == spec
        for f in dataclasses.fields(spec):
            items = getattr(spec, f.name)
            if isinstance(items, list):
                assert [e.get("repeat", 1) for e in doc[f.name]] \
                    == [k for _, k in runs(items)]
                # Each run parses to one shared object.
                assert len({id(x) for x in getattr(out, f.name)}) \
                    == len(runs(items))
        for l in (1, 2):
            assert bound_report(out, l) == bound_report(spec, l)

    def test_independent_round_trip_with_repeats(self):
        a, b = centered_bernoulli(0.3), centered_bernoulli(0.5)
        spec = IndependentSummandSpec([a, a, centered_bernoulli(0.3), b, a, b])
        text = spec_to_json(spec)
        assert [e.get("repeat", 1) for e in json.loads(text)["summands"]] \
            == [3, 1, 1, 1]
        out = spec_from_json(text)
        assert out == spec
        for l in (1, 2):
            assert bound_report(out, l) == bound_report(spec, l)

    def test_no_repeat_key_without_runs(self):
        spec = DecomposableSpec(9.0, 0.0, [_Z], [DecompositionTerm(1.0)])
        assert spec_to_json(spec) == json.dumps(
            {"kind": "decomposable", **dataclasses.asdict(spec)}, indent=2)

    def test_total_above_cap_refused_before_building(self):
        half = bounds.MAX_SPEC_ENTRIES // 2 + 1
        doc = json.loads(spec_to_json(RUN_SPECS["point_process"]))
        doc["terms"][0]["repeat"] = doc["terms"][2]["repeat"] = half
        text = json.dumps(doc)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most"):
                spec_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_large_two_runs_spec_is_small(self):
        model = oracle.TwoRunsModel(10 ** 5, 0.4)
        spec = oracle.two_runs_decomposable_spec(model)
        text = spec_to_json(spec)
        assert len(text) < 10 ** 4
        out = spec_from_json(text)
        for l in (1, 2):
            assert bound_report(out, l) == bound_report(spec, l)
