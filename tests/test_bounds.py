import math

import numpy as np
import pytest

from binapprox.binomial import Inapplicable
from binapprox.bounds import (BoundReport, DecomposableSpec, DecompositionTerm,
                              DependenceTerm, IndependentSummandSpec,
                              LocalDependenceSpec, PointProcessSpec, PointTerm,
                              decomposition_bound, independent_sum_approximant,
                              independent_sum_bound, integer_sum_bound,
                              block_smoothing_constant,
                              bound_from_theta, bound_report,
                              leave_one_out_smoothness, local_dependence_bound,
                              point_process_bound, rho, smoothing_bounds,
                              smoothing_conditional, spec_from_json,
                              spec_to_json, step_overlap)
from binapprox.lattice import (convolve_all, loc_distance, make_pmf,
                               point_mass, smoothness_functional, tv_distance)


def centered_bernoulli(p):
    """Law of X - p for X ~ Bernoulli(p); atoms at -p and 1-p."""
    return make_pmf([1 - p, p], min_index=-1, offset=(1 - p) % 1.0)


def bernoulli(p):
    return make_pmf([1 - p, p])


class TestRho:
    def test_symmetric_bernoulli(self):
        # atoms at +-1/2: sigma^3 = 1/8 and E|xi|^3 = 1/8.
        assert rho(centered_bernoulli(0.5)) == pytest.approx(3 / 16)

    def test_degenerate(self):
        assert rho(point_mass(0.0)) == 0.0

    def test_skewed_bernoulli(self):
        p = centered_bernoulli(0.3)
        e3 = 0.3 * 0.7 ** 3 + 0.7 * 0.3 ** 3
        assert rho(p) == pytest.approx(0.21 ** 1.5 + 0.5 * e3)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError):
            rho(bernoulli(0.4))


class TestLeaveOneOutSmoothness:
    def test_two_summands(self):
        spec = IndependentSummandSpec([centered_bernoulli(0.5)] * 2)
        assert leave_one_out_smoothness(spec, 0, 1) == pytest.approx(1.0)

    def test_matches_direct_differencing(self):
        spec = IndependentSummandSpec([centered_bernoulli(0.5)] * 10)
        rest = convolve_all([centered_bernoulli(0.5)] * 9)
        for i in range(10):
            assert leave_one_out_smoothness(spec, i, 1) \
                == pytest.approx(smoothness_functional(rest, 1), abs=1e-12)

    def test_order2_below_split_product(self):
        spec = IndependentSummandSpec([centered_bernoulli(0.5)] * 10)
        d2 = leave_one_out_smoothness(spec, 0, 2)
        left = smoothness_functional(convolve_all([centered_bernoulli(0.5)] * 5), 1)
        right = smoothness_functional(convolve_all([centered_bernoulli(0.5)] * 4), 1)
        assert d2 <= left * right + 1e-12

    def test_rejects_single_summand(self):
        with pytest.raises(ValueError):
            leave_one_out_smoothness(
                IndependentSummandSpec([centered_bernoulli(0.5)]), 0, 1)


class TestIndependentSumBound:
    def test_iid_bernoulli_assembly(self):
        summands = [centered_bernoulli(0.5)] * 12
        spec = IndependentSummandSpec(summands)
        assert spec.sigma2 == pytest.approx(3.0)
        c = [leave_one_out_smoothness(spec, i, 1) for i in range(12)]
        expected = (sum(ci * 3 / 16 for ci in c) + 1.75) / 3.0
        assert independent_sum_bound(spec, 1).value == pytest.approx(expected)

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
        # the bound must equal the per-index sum to the bit.
        laws = {"a": 0.3, "b": 0.5, "c": 0.8}
        shared = {k: centered_bernoulli(p) for k, p in laws.items()}
        summands = [shared[ch] if ch.islower()
                    else centered_bernoulli(laws[ch.lower()])
                    for ch in pattern]
        spec = IndependentSummandSpec(summands)
        theta = sum(leave_one_out_smoothness(spec, i, l) * rho(s)
                    for i, s in enumerate(spec.summands))
        assert independent_sum_bound(spec, l) \
            == bound_from_theta(theta, spec.sigma2)

    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("l,dist", [(1, "tv"), (2, "loc")])
    def test_dominates_exact_distance(self, n, l, dist):
        summands = [centered_bernoulli(0.5)] * n
        spec = IndependentSummandSpec(summands)
        _, approx = independent_sum_approximant(spec)
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
            _, approx = independent_sum_approximant(spec)
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

    def test_rejects_fractional_lattice(self):
        with pytest.raises(ValueError):
            integer_sum_bound([make_pmf([0.5, 0.5], offset=0.5)] * 10, "tv")


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
        spec = PointProcessSpec([PointTerm(10.0, 0, 0, 0, 0, 0, 0.1, 0.2)])
        assert point_process_bound(spec, 1, 4.0).value == pytest.approx(1.75 / 4.0)

    def test_homogeneous_assembly(self):
        spec = PointProcessSpec([PointTerm(
            weight=10.0, palm_prod=2.0, plain_prod=2.0, mu_A=0.5, mu_B=0.5,
            palm_B=1.0, c1=0.1, c2=0.1)])
        assert point_process_bound(spec, 1, 4.0).value == pytest.approx(2.8125)

    def test_rejects_negative_weight(self):
        spec = PointProcessSpec([PointTerm(-1.0, 0, 0, 0, 0, 0, 0.1, 0.1)])
        with pytest.raises(ValueError):
            point_process_bound(spec, 1, 4.0)


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
        pp = PointProcessSpec([PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)])
        for l in (1, 2):
            assert bound_report(ind, l) == independent_sum_bound(ind, l)
            assert bound_report(dep, l) == local_dependence_bound(dep, l)
            assert bound_report(dec, l) == decomposition_bound(dec, l)
            assert bound_report(pp, l, 4.0) == point_process_bound(pp, l, 4.0)

    def test_point_process_needs_sigma2(self):
        pp = PointProcessSpec([PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)])
        with pytest.raises(Inapplicable):
            bound_report(pp, 1)

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            bound_report(object(), 1)


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


class TestSmoothingConditional:
    def test_single_condition_reduces(self):
        d1, d2 = smoothing_conditional([(1.0, 8.0, 0.5)])
        ref = smoothing_bounds([0.5] * 16)
        assert (d1, d2) == pytest.approx(ref)

    def test_two_condition_average(self):
        d1, _ = smoothing_conditional([(0.5, 4.0, 0.5), (0.5, 16.0, 0.5)])
        assert d1 == pytest.approx(0.75)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            smoothing_conditional([(0.7, 4.0, 0.5)])


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
        spec = PointProcessSpec([PointTerm(10, 2, 2, 0.5, 0.5, 1, 0.1, 0.2)])
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
