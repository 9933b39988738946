import itertools
import math

import mpmath
import numpy as np
import pytest

from binapprox.binomial import (BinomialParams, Inapplicable,
                                binomial_logpmf, binomial_pmf,
                                centered_binomial, centering_params,
                                check_variance, ehm_bound, shift_bound,
                                stein_residual, stein_solution,
                                sup_norm_bound)
from binapprox.lattice import loc_distance, tv_distance


class TestBinomialPMF:
    def test_two_trials(self):
        p = binomial_pmf(BinomialParams(2, 0.5))
        np.testing.assert_allclose(p.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_single_trial(self):
        p = binomial_pmf(BinomialParams(1, 0.3))
        np.testing.assert_allclose(p.probs, [0.7, 0.3], atol=1e-15)

    def test_moment_identities(self):
        p = binomial_pmf(BinomialParams(50, 0.4))
        assert abs(p.probs.sum() - 1.0) < 1e-12
        assert p.mean() == pytest.approx(20.0, abs=1e-9)
        assert p.variance() == pytest.approx(12.0, abs=1e-9)

    @pytest.mark.parametrize("n,p,match", [
        (0, 0.5, "n >= 1"), (10, 0.0, "0 < p < 1"), (10, 1.0, "0 < p < 1"),
        (10, math.nan, "0 < p < 1")])
    def test_rejects_bad_params(self, n, p, match):
        with pytest.raises(ValueError, match=match):
            BinomialParams(n, p)

    def test_large_n_relative_accuracy(self):
        n, prob = 10 ** 6, 0.3
        p = binomial_pmf(BinomialParams(n, prob))
        k = n * 3 // 10
        expected = float(mpmath.exp(reference_logpmf(k, n, prob)))
        assert p.probs[k - p.min_index] == pytest.approx(expected, rel=1e-12)


def reference_logpmf(k: int, n: int, p: float):
    """log P[Bi(n, p) = k] in 40-digit arithmetic, with p read exactly."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                - mpmath.loggamma(n - k + 1)
                + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))


def reference_points(n: int, p: float) -> np.ndarray:
    """Every k up to n = 2000; above, 257 evenly spread k and 257 across
    the mode's +-8 standard deviations."""
    if n <= 2000:
        return np.arange(n + 1)
    sd = math.sqrt(n * p * (1.0 - p))
    near = np.linspace(n * p - 8.0 * sd, n * p + 8.0 * sd, 257)
    ks = np.concatenate((np.linspace(0, n, 257), near)).round()
    return np.unique(ks.clip(0, n)).astype(np.int64)


@pytest.mark.parametrize("n", [1, 10, 2000, 10 ** 4, 10 ** 5])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.97])
def test_logpmf_bit_equal_to_scipy_stats(n, p):
    # scipy.stats sums five lgamma/log terms, so it is exact only to within
    # the rounding of that sum: about 3 eps times the terms' total magnitude
    # (each term to 1 ulp, four additions to eps/2 of the running sum).  The
    # saddle-point form is accurate to 1e-13 (test below), so on every k the
    # two agree to within that bound, and bit for bit where scipy's sum
    # rounds exactly.
    from scipy import special, stats
    k = np.arange(n + 1)
    ours, theirs = binomial_logpmf(k, n, p), stats.binom.logpmf(k, n, p)
    scale = (special.gammaln(n + 1) + special.gammaln(k + 1)
             + special.gammaln(n - k + 1) + np.abs(k * math.log(p))
             + np.abs((n - k) * math.log1p(-p)))
    eps = np.finfo(float).eps
    assert np.all(np.abs(ours - theirs) <= 4.0 * eps * scale)


@pytest.mark.parametrize("n", [1, 10, 2000, 10 ** 4, 10 ** 5])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.97])
def test_logpmf_matches_mpmath_reference(n, p):
    k = reference_points(n, p)
    ref = np.array([float(reference_logpmf(int(j), n, p)) for j in k])
    err = np.abs(binomial_logpmf(k, n, p) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-13


class TestCenteringParams:
    def test_integral_case(self):
        cp = centering_params(2.0, 0.0)
        assert (cp.n, cp.delta, cp.t) == (8, 0.0, 0.0)

    def test_fractional_case(self):
        cp = centering_params(2.3, 0.5)
        assert cp.n == 10
        assert cp.delta == pytest.approx(0.8)
        assert cp.t == pytest.approx(0.05)

    def test_rejects_small_variance(self):
        with pytest.raises(ValueError):
            centering_params(1.0, 0.0)
        with pytest.raises(Inapplicable, match="got nan"):
            check_variance(math.nan)

    def test_rejects_infinite_variance(self):
        with pytest.raises(Inapplicable, match="got inf"):
            check_variance(math.inf)

    def test_t_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s2 = float(rng.uniform(1.01, 500.0))
            a = float(rng.random())
            cp = centering_params(s2, a)
            assert 0.0 <= cp.t < 1.0 / cp.n + 1e-15
            assert cp.n == math.ceil(4.0 * s2 - 1e-9)

    def test_near_integral_snap(self):
        # 4*sigma2 within 1e-12 of an integer must not give delta ~ 1.
        cp = centering_params(2.0 + 1e-13, 0.0)
        assert cp.delta == 0.0
        assert cp.n == 8


class TestCenteredBinomial:
    def test_symmetric_case(self):
        cb = centered_binomial(centering_params(2.0, 0.0))
        assert cb.positions[0] == pytest.approx(-4.0)
        assert cb.positions[-1] == pytest.approx(4.0)

    def test_variance_matches_npq(self):
        cb = centered_binomial(centering_params(2.3, 0.5))
        assert cb.variance() == pytest.approx(10 * 0.45 * 0.55, abs=1e-9)

    def test_mean_zero_and_anchor_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s2 = float(rng.uniform(1.01, 500.0))
            a = float(rng.random())
            cb = centered_binomial(centering_params(s2, a))
            assert abs(cb.mean()) < 1e-9
            assert min(cb.offset - a % 1.0, 1.0 - abs(cb.offset - a % 1.0)) \
                == pytest.approx(0.0, abs=1e-9)
            assert s2 - 1.0 <= cb.variance() <= s2 + 1.0


def near_tail_solution(params: BinomialParams, target) -> np.ndarray:
    """The O(n^2) reference: each g(z) a dot product of pi(k)/pi(z) <= 1
    against the right-hand side over the near tail of z."""
    n, p = params.n, params.p
    h = np.zeros(n + 1)
    h[list(target)] = 1.0
    rhs = h - float(np.dot(binomial_pmf(params).probs, h))
    logpi = binomial_logpmf(np.arange(n + 1), n, p)
    mode = int(np.argmax(logpi))
    g = np.zeros(n + 1)
    for z in range(n):
        k = np.arange(0, z + 1) if z <= mode else np.arange(z + 1, n + 1)
        s = float(np.dot(np.exp(logpi[k] - logpi[z]), rhs[k]))
        g[z] = (-s if z <= mode else s) / (p * (n - z))
    return g


class TestSteinSolution:
    # Not n = 300 at p = 0.05: binomial_pmf trims pi(300) = 0.05^300, which
    # underflows, and the Stein right-hand side then fails on the shorter
    # pmf, as at n >= 814 for p = 0.4.
    @pytest.mark.parametrize("n,p", [(1, 0.4), (8, 0.4), (200, 0.4),
                                     (800, 0.4), (1000, 0.5), (200, 0.05),
                                     (200, 0.95)])
    def test_matches_near_tail_reference(self, n, p):
        rng = np.random.default_rng(n)
        params = BinomialParams(n, p)
        share = rng.choice(n + 1, size=max(1, (n + 1) // 4), replace=False)
        for target in ([0], [n // 2], [n], sorted(share.tolist())):
            g = stein_solution(params, target)
            ref = near_tail_solution(params, target)
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
            assert g[n] == 0.0
            assert stein_residual(params, target, g) < 1e-9
            assert np.abs(g).max() <= sup_norm_bound(params) + 1e-12
            assert np.abs(np.diff(g)).max() <= ehm_bound(params) + 1e-12

    def test_tiny_instance(self):
        g = stein_solution(BinomialParams(1, 0.5), {0})
        assert g[0] == pytest.approx(-1.0)
        assert g[1] == 0.0

    def test_empty_target_gives_zero(self):
        g = stein_solution(BinomialParams(8, 0.3), set())
        np.testing.assert_array_equal(g, np.zeros(9))

    def test_residual_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 201))
            p = float(rng.uniform(0.05, 0.95))
            size = int(rng.integers(0, n + 2))
            A = set(rng.choice(n + 1, size=size, replace=False).tolist())
            params = BinomialParams(n, p)
            g = stein_solution(params, A)
            assert stein_residual(params, A, g) < 1e-9

    @pytest.mark.parametrize("target", [{-1}, {11}, {3, 12}])
    def test_target_outside_support_rejected(self, target):
        params = BinomialParams(10, 0.4)
        g = stein_solution(params, {3})
        with pytest.raises(ValueError, match="subset"):
            stein_solution(params, target)
        with pytest.raises(ValueError, match="subset"):
            stein_residual(params, target, g)

    def test_characterization_mean_zero(self):
        # The operator annihilates expectations under the binomial law.
        rng = np.random.default_rng(21)
        params = BinomialParams(25, 0.35)
        pmf = binomial_pmf(params).probs
        n, p, q = params.n, params.p, params.q
        z = np.arange(n + 1)
        for _ in range(20):
            g = rng.standard_normal(n + 1)
            gm1 = np.concatenate(([0.0], g[:-1]))
            op = q * z * gm1 - p * (n - z) * g
            assert abs(float(np.dot(pmf, op))) < 1e-10

    def test_difference_bound_small_exhaustive(self):
        params = BinomialParams(10, 0.45)
        basis = np.array([stein_solution(params, {b}) for b in range(11)])
        dbasis = np.diff(basis, axis=1)
        worst = 0.0
        for bits in itertools.product((0, 1), repeat=11):
            dg = np.asarray(bits) @ dbasis
            worst = max(worst, float(np.abs(dg).max()))
        assert worst <= ehm_bound(params) + 1e-12


class TestNormBounds:
    def test_ehm_values(self):
        assert ehm_bound(BinomialParams(1, 0.5)) == pytest.approx(1.0)
        assert ehm_bound(BinomialParams(10, 0.45)) \
            == pytest.approx(0.36674146878906244)

    def test_tiny_p_limit(self):
        # The numerator 1 - p^{n+1} - q^{n+1} vanishes like (n+1)p as p -> 0,
        # cancelling the 1/p in the denominator, so the bound tends to 1.
        assert ehm_bound(BinomialParams(10, 1e-6)) == pytest.approx(1.0, rel=1e-4)
        assert ehm_bound(BinomialParams(10, 1e-10)) == pytest.approx(1.0, rel=1e-4)

    def test_sup_norm_values(self):
        assert sup_norm_bound(BinomialParams(1, 0.5)) == 1.0
        assert sup_norm_bound(BinomialParams(100, 0.5)) == pytest.approx(0.2)

    def test_sup_norm_dominates_singleton_solutions(self):
        for p in np.arange(0.1, 0.95, 0.1):
            params = BinomialParams(12, float(p))
            worst = max(float(np.abs(stein_solution(params, {b})).max())
                        for b in range(13))
            assert worst <= sup_norm_bound(params) + 1e-12

    def test_simplified_difference_bound(self):
        # For matched centering parameters the uniform bound is <= 1/sigma2.
        rng = np.random.default_rng(31)
        for _ in range(50):
            s2 = float(rng.uniform(1.01, 300.0))
            cp = centering_params(s2, float(rng.random()))
            assert ehm_bound(BinomialParams(cp.n, cp.p)) <= 1.0 / s2 + 1e-12


class TestShiftBound:
    def test_zero_shift(self):
        params = BinomialParams(10, 0.5)
        assert shift_bound(params, 0.0, "tv") == 0.0
        assert shift_bound(params, 0.0, "loc") == 0.0

    def test_printed_value(self):
        assert shift_bound(BinomialParams(10, 0.5), 0.05, "tv") \
            == pytest.approx(0.4376920314619425)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shift_bound(BinomialParams(10, 0.5), 0.6, "tv")
        with pytest.raises(ValueError):
            shift_bound(BinomialParams(10, 0.3), -0.8, "loc")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric must be"):
            shift_bound(BinomialParams(10, 0.5), 0.05, "kl")

    @pytest.mark.parametrize("n", [5, 10, 50, 200])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("frac", [0.2, -0.2, 0.02, -0.02])
    def test_dominates_exact_distance(self, n, p, frac):
        t = frac * p
        params = BinomialParams(n, p)
        a = binomial_pmf(BinomialParams(n, p - t))
        b = binomial_pmf(params)
        for metric, dist in (("tv", tv_distance), ("loc", loc_distance)):
            assert dist(a, b) <= shift_bound(params, t, metric) + 1e-12
