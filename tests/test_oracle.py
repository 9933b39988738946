import itertools
import math

import numpy as np
import pytest

from binapprox.bounds import (DecompositionTerm, decomposition_bound,
                              local_dependence_bound)
from binapprox.lattice import (SUPPORT_CAP, loc_distance, make_pmf,
                               smoothness_functional, tv_distance)
from binapprox.oracle import (TwoRunsModel, _window_moments,
                              exact_distance_report,
                              exact_sum_pmf, two_runs_decomposable_spec,
                              two_runs_dependence_spec,
                              two_runs_pmf, two_runs_smoothness)


def two_runs_pmf_bruteforce(model: TwoRunsModel):
    """Enumeration over all X-sequences; only viable for small n."""
    n, p = model.n, model.p
    probs = np.zeros(n + 1)
    for xs in itertools.product((0, 1), repeat=n + 1):
        w = sum(xs[i] * xs[i + 1] for i in range(n))
        pr = math.prod(p if x else 1.0 - p for x in xs)
        probs[w] += pr
    return make_pmf(probs, renormalize=True)


class TestExactSumPMF:
    def test_matches_convolution(self):
        b = make_pmf([0.5, 0.5])
        out = exact_sum_pmf([b] * 4)
        np.testing.assert_allclose(
            out.probs, [1, 4, 6, 4, 1] / np.float64(16.0), atol=1e-15)

    def test_support_cap(self):
        wide = make_pmf(np.full(700_000, 1.0 / 700_000))
        with pytest.raises(ValueError):
            exact_sum_pmf([wide, wide])

    def test_cap_checked_before_convolving(self, monkeypatch):
        # 10**4 - 1 Bernoullis fill the cap exactly, so convolving starts;
        # one more exceeds it and is refused before any convolution.
        def convolve(*args):
            raise AssertionError("np.convolve called")

        monkeypatch.setattr(np, "convolve", convolve)
        b = make_pmf([0.5, 0.5])
        with pytest.raises(AssertionError, match="np.convolve called"):
            exact_sum_pmf([b] * (SUPPORT_CAP - 1))
        with pytest.raises(ValueError, match="exceed cap 10000"):
            exact_sum_pmf([b] * SUPPORT_CAP)


class TestTwoRunsPMF:
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_matches_bruteforce(self, n, p):
        model = TwoRunsModel(n, p)
        assert tv_distance(two_runs_pmf(model),
                           two_runs_pmf_bruteforce(model)) < 1e-13

    def test_mean_identity(self):
        model = TwoRunsModel(40, 0.35)
        assert two_runs_pmf(model).mean() == pytest.approx(40 * 0.35 ** 2)

    def test_all_ones_corner(self):
        model = TwoRunsModel(5, 0.9)
        pmf = two_runs_pmf(model)
        assert pmf.probs[-1] == pytest.approx(0.9 ** 6)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            TwoRunsModel(2, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="0 < p < 1"):
            TwoRunsModel(10, p)

    def test_refuses_past_limit(self):
        with pytest.raises(ValueError, match=r"n=1000001 .*limit of 1000000"):
            two_runs_pmf(TwoRunsModel(10 ** 6 + 1, 0.4))

    # n = 60 is one full-length case (p = 0.4, 0.98) and one window clipped
    # at 0 (p = 0.02); larger n give windows clipped at 0 (p = 0.02, 0.4)
    # and at n (p = 0.98); n = 3000, p = 0.7 is a window inside {0..n}.
    @pytest.mark.parametrize("n,p", [(n, p) for n in (60, 1000, 3000)
                                     for p in (0.02, 0.4, 0.98)]
                             + [(3000, 0.7)])
    def test_matches_dense_dp(self, n, p):
        model = TwoRunsModel(n, p)
        law = two_runs_pmf(model)
        ref = _dense_dp_pmf(model)
        assert law.probs.min() >= 0.0
        assert tv_distance(law, ref) < 1e-12
        assert loc_distance(law, ref) < 1e-14

    def test_large_n_moments(self):
        model = TwoRunsModel(10 ** 5, 0.4)
        law = two_runs_pmf(model)
        sigma2 = two_runs_dependence_spec(model).sigma2
        assert law.mean() == pytest.approx(10 ** 5 * 0.16, rel=1e-10)
        assert law.variance() == pytest.approx(sigma2, rel=1e-10)


def _dense_dp_pmf(model: TwoRunsModel):
    """Reference law by the O(n^2) two-state dynamic program:
    s0[k] / s1[k] = P[partial sum = k, last X = 0 / 1]."""
    n, p = model.n, model.p
    q = 1.0 - p
    s0 = np.zeros(n + 1)
    s1 = np.zeros(n + 1)
    s0[0], s1[0] = q, p
    for _ in range(n):
        new0 = q * (s0 + s1)
        new1 = np.empty_like(s1)
        new1[0] = p * s0[0]
        new1[1:] = p * (s0[1:] + s1[:-1])
        s0, s1 = new0, new1
    return make_pmf(s0 + s1, renormalize=True)


class TestTwoRunsMoments:
    """The neighborhood moments and variance in two_runs_dependence_spec."""

    @pytest.mark.parametrize("n,p", [(10, 0.3), (25, 0.5), (12, 0.7)])
    def test_variance_identity(self, n, p):
        # The covariance-sum form of the variance must match the exact law.
        model = TwoRunsModel(n, p)
        sigma2 = two_runs_dependence_spec(model).sigma2
        assert sigma2 == pytest.approx(two_runs_pmf(model).variance(), rel=1e-10)

    def test_interior_rows_identical(self):
        # Away from the boundary every index sees the same window, so the
        # interior indices share one term: 5 distinct objects in all.
        for n in (12, 10 ** 5):
            terms = two_runs_dependence_spec(TwoRunsModel(n, 0.4)).terms
            assert len(terms) == n
            assert len({id(t) for t in terms}) == 5
            assert all(t is terms[2] for t in terms[2:-2])

    def test_moments_nonnegative(self):
        for t in two_runs_dependence_spec(TwoRunsModel(8, 0.6)).terms:
            assert min(t.m_xi_eta2, t.m_xi_eta_tau, t.m_cov, t.m_tau) >= 0.0

    @pytest.mark.parametrize("n,p", [(3, 0.4), (4, 0.4), (5, 0.5), (6, 0.2),
                                     (8, 0.7), (12, 0.4), (60, 0.3),
                                     (60, 0.6)])
    def test_matches_per_index_enumeration(self, n, p):
        model = TwoRunsModel(n, p)
        spec = two_runs_dependence_spec(model)
        c1, c2 = two_runs_smoothness(model)
        m3s = []
        assert len(spec.terms) == n
        for i, t in enumerate(spec.terms, 1):
            m1, m2, m3, m4 = _window_moments(model, i)
            assert (t.m_xi_eta2, t.m_xi_eta_tau, t.m_cov, t.m_tau,
                    t.c1, t.c2) == (m1, m2, abs(m3), m4, c1, c2)
            m3s.append(m3)
        assert spec.sigma2 == math.fsum(m3s)


class TestTwoRunsSmoothness:
    @pytest.mark.parametrize("n,p", [(30, 0.5), (60, 0.3), (60, 0.5)])
    def test_dominates_unconditional_smoothness(self, n, p):
        # An a.s. conditional bound dominates the mixture's smoothness.
        model = TwoRunsModel(n, p)
        c1, c2 = two_runs_smoothness(model)
        w = two_runs_pmf(model)
        assert smoothness_functional(w, 1) <= c1 + 1e-12
        assert smoothness_functional(w, 2) <= c2 + 1e-12

    def test_small_models_report_infinite(self):
        c1, c2 = two_runs_smoothness(TwoRunsModel(9, 0.5))
        assert c1 == math.inf and c2 == math.inf

    def test_decreases_with_n(self):
        c_small = two_runs_smoothness(TwoRunsModel(30, 0.5))
        c_big = two_runs_smoothness(TwoRunsModel(300, 0.5))
        assert c_big[0] < c_small[0]
        assert c_big[1] < c_small[1]


class TestDependenceSpecs:
    @pytest.mark.parametrize("n,p", [(30, 0.5), (60, 0.3)])
    def test_bound_dominates_exact_distance(self, n, p):
        model = TwoRunsModel(n, p)
        w = two_runs_pmf(model).translate(-n * p * p)
        tv, loc, _ = exact_distance_report(w)
        spec = two_runs_dependence_spec(model)
        assert tv <= local_dependence_bound(spec, 1).value
        assert loc <= local_dependence_bound(spec, 2).value

    def test_decomposition_agrees_with_neighborhood_form(self):
        model = TwoRunsModel(30, 0.5)
        dep = two_runs_dependence_spec(model)
        dec = two_runs_decomposable_spec(model)
        for l in (1, 2):
            assert decomposition_bound(dec, l).value \
                == pytest.approx(local_dependence_bound(dep, l).value, rel=1e-12)

    def test_decomposable_terms_shared_per_window(self, monkeypatch):
        # One term per distinct window and order, shared by its indices,
        # and theta is evaluated once per shared term.
        n = 10 ** 5
        dep = two_runs_dependence_spec(TwoRunsModel(n, 0.4))
        dec = two_runs_decomposable_spec(TwoRunsModel(n, 0.4))
        calls = []
        theta = DecompositionTerm.theta
        monkeypatch.setattr(DecompositionTerm, "theta",
                            lambda t: calls.append(t) or theta(t))
        for l, terms in ((1, dec.terms_l1), (2, dec.terms_l2)):
            assert len(terms) == n
            assert len({id(t) for t in terms}) <= 5
            assert all(t is terms[2] for t in terms[2:-2])
            calls.clear()
            assert decomposition_bound(dec, l).value \
                == pytest.approx(local_dependence_bound(dep, l).value, rel=1e-12)
            assert len(calls) == len({id(t) for t in terms})

    def test_anchor_matches_centered_law(self):
        model = TwoRunsModel(30, 0.5)
        spec = two_runs_dependence_spec(model)
        w = two_runs_pmf(model).translate(-30 * 0.25)
        assert spec.anchor == pytest.approx(w.offset)


class TestExactDistanceReport:
    def test_values_in_range(self):
        model = TwoRunsModel(50, 0.5)
        w = two_runs_pmf(model).translate(-50 * 0.25)
        tv, loc, cp = exact_distance_report(w)
        assert 0.0 < loc <= tv < 1.0
        assert cp.sigma2 == pytest.approx(w.variance())

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError):
            exact_distance_report(two_runs_pmf(TwoRunsModel(50, 0.5)))

    def test_rejects_small_variance(self):
        model = TwoRunsModel(4, 0.3)
        w = two_runs_pmf(model).translate(-4 * 0.09)
        with pytest.raises(ValueError):
            exact_distance_report(w)
