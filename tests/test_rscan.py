import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from binapprox import cli, engine
from binapprox.engine import fit_rate
from binapprox.rscan import (GL_NODES, PRODUCT_MAX_R, RScanConfig,
                             _gamma_cdf, _simulate_chunk, _window_pdf,
                             empirical_distance,
                             error_bound, exceedance_prob, psi,
                             simulate_counts, variance_formula)


def cfg_exp(n, r=2, a=1.0):
    return RScanConfig(n=n, r=r, a=a, base_dist="exponential")


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RScanConfig(n=100, r=0, a=1.0)
        with pytest.raises(ValueError):
            RScanConfig(n=3, r=2, a=1.0)       # below 3r - 2
        with pytest.raises(ValueError):
            RScanConfig(n=100, r=2, a=0.0)
        with pytest.raises(ValueError):
            RScanConfig(n=100, r=2, a=1.0, base_dist="cauchy")
        for a in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"need a > 0.*got {a}"):
                RScanConfig(n=100, r=2, a=a)

    def test_cli_rejects_nan_threshold_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["rscan", "--n", "400", "--r", "2", "--a", "nan"])
        assert code == cli.EXIT_USAGE
        assert "need a > 0 and finite, got nan" in capsys.readouterr().err


class TestExceedanceProb:
    def test_single_window_exponential(self):
        assert exceedance_prob(cfg_exp(100, r=1)) \
            == pytest.approx(1.0 - math.exp(-1.0))

    def test_pair_window_exponential(self):
        assert exceedance_prob(cfg_exp(100, r=2)) \
            == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-10)

    def test_uniform_symmetry(self):
        cfg = RScanConfig(n=100, r=2, a=1.0, base_dist="uniform01")
        assert exceedance_prob(cfg) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_threshold(self):
        ps = [exceedance_prob(cfg_exp(100, a=a)) for a in (0.5, 1.0, 2.0, 4.0)]
        assert ps == sorted(ps)


class TestGammaCdf:
    def test_matches_scipy_gammainc(self):
        from scipy.special import gammainc

        for m in range(1, 30):
            x = np.concatenate((np.linspace(0.0, 60.0, 601),
                                np.geomspace(1e-8, 60.0, 200),
                                [m - 1e-9, m, m + 1e-9]))
            ref = gammainc(m, x)
            got = _gamma_cdf(x, m)
            assert (np.abs(got - ref) <= 1e-13 * ref).all(), m


def irwin_hall(x, m, power):
    """Irwin-Hall cdf (power m) or pdf (power m-1) of m uniforms at scalar
    x, 0 < x < m."""
    return sum((-1) ** k * math.comb(m, k) * (x - k) ** power
               for k in range(int(math.floor(x)) + 1)) / math.factorial(power)


class TestWindowLaw:
    def test_exponential_pdf_matches_scipy_for_long_windows(self):
        # (m - 1)! overflows a float from m = 172; the log form does not.
        # Its exponent is a sum of terms up to ~1700 at m = 300, whose
        # rounding (and lgamma's) sets the relative error.
        from scipy.stats import gamma

        cfg = cfg_exp(100)
        eps = np.finfo(float).eps
        for m in list(range(1, 40)) + list(range(40, 301, 13)) + [171, 172,
                                                                   173, 300]:
            x = m + math.sqrt(m) * np.linspace(-3.0, 3.0, 61)
            x = x[x > 0]
            ref = gamma(m).pdf(x)
            scale = (m - 1) * np.abs(np.log(x)) + x + math.lgamma(m)
            tol = np.maximum(1e-13, 4 * eps * scale)
            assert (np.abs(_window_pdf(cfg, x, m) - ref) <= tol * ref).all(), m

    @pytest.mark.parametrize("r", [8, 16, 24, 32])
    def test_uniform_cdf_matches_exact_irwin_hall(self, r):
        # The alternating sum cancels near x = r; by symmetry it is only
        # summed up to r/2.
        for k in range(1, 98):
            a = r * k / 98
            p = exceedance_prob(RScanConfig(3 * r, r, a, "uniform01"))
            ref = irwin_hall(Fraction(a), r, r)
            assert abs(Fraction(p) - ref) <= 1e-12 * ref, a

    def test_uniform_nearly_certain_window(self):
        cfg = RScanConfig(n=120, r=32, a=30.0, base_dist="uniform01")
        assert abs(exceedance_prob(cfg) - 1.0) <= 1e-12
        assert variance_formula(cfg) < 1e-6

    def test_uniform_law_refused_past_gl_nodes(self, capsys):
        with pytest.raises(ValueError, match=f"r <= {GL_NODES}, got 33"):
            exceedance_prob(RScanConfig(n=120, r=33, a=10.0,
                                        base_dist="uniform01"))
        assert cli.main(["rscan", "--n", "120", "--r", "40", "--a", "30",
                         "--dist", "uniform01"]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and f"r <= {GL_NODES}" in err

    def test_long_exponential_window_runs(self, capsys):
        # The variance needs the Gamma(m) density for m up to r - 1 = 172;
        # 4000 simulated reps give sigma2 = 14627 +- 327.
        assert cli.main(["rscan", "--n", "519", "--r", "173", "--a", "173",
                         "--reps", "200"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(out[2].split(","), out[3].split(",")))
        assert float(row["sigma2"]) == pytest.approx(14627, rel=0.1)


def quad_psi(cfg, d):
    """psi by adaptive quadrature of the scalar window laws."""
    from scipy import integrate, special

    r, a, m = cfg.r, cfg.a, cfg.r - d
    if cfg.base_dist == "exponential":
        def pdf(s):
            return s ** (m - 1) * math.exp(-s) / math.factorial(m - 1)

        def cdf(x, j):
            return float(special.gammainc(j, x)) if x > 0 else 0.0
        upper = a
    else:
        def pdf(s):
            return irwin_hall(s, m, m - 1) if 0 < s < m else 0.0

        def cdf(x, j):
            return 0.0 if x <= 0 else irwin_hall(x, j, j) if x < j else 1.0
        upper = min(a, m)
    joint, _ = integrate.quad(lambda s: pdf(s) * cdf(a - s, d) ** 2, 0.0,
                              upper, limit=200, epsabs=1e-13, epsrel=1e-11)
    p = cdf(a, r)
    return joint / p - p, p


class TestPsi:
    def test_range_check(self):
        with pytest.raises(ValueError):
            psi(cfg_exp(100, r=2), 2)
        with pytest.raises(ValueError):
            psi(cfg_exp(100, r=2), 0)

    def test_nonnegative(self):
        assert psi(cfg_exp(100, r=2), 1) >= 0.0
        assert psi(cfg_exp(100, r=3), 1) >= 0.0
        assert psi(cfg_exp(100, r=3), 2) >= 0.0

    @pytest.mark.parametrize("dist", ["exponential", "uniform01"])
    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_matches_adaptive_quadrature(self, r, dist):
        # Error relative to the conditional probability psi + p: at large a
        # psi is a difference of two numbers near 1, which no method gets
        # to 1e-10 of itself.
        for a in (0.3, 1.0, 2.5, 4.0, 7.5):
            cfg = RScanConfig(n=100, r=r, a=a, base_dist=dist)
            if exceedance_prob(cfg) == 1.0:
                continue
            for d in range(1, r):
                ref, p = quad_psi(cfg, d)
                assert abs(psi(cfg, d) - ref) <= 1e-10 * (ref + p), (a, d)

    def test_certain_window_law(self):
        # p == 1: psi is 0, with no quadrature over a panel per unit of a.
        assert psi(cfg_exp(100, a=1e9), 1) == 0.0
        assert psi(RScanConfig(n=100, r=3, a=3.0, base_dist="uniform01"),
                   2) == 0.0

    def test_against_direct_simulation(self):
        cfg = cfg_exp(100, r=2)
        rng = np.random.default_rng(99)
        reps = 2 * 10 ** 6
        x = rng.standard_exponential((reps, 3))
        both = float(np.mean((x[:, 0] + x[:, 1] <= 1.0)
                             & (x[:, 1] + x[:, 2] <= 1.0)))
        p = exceedance_prob(cfg)
        joint = p * (psi(cfg, 1) + p)
        se = math.sqrt(both * (1 - both) / reps)
        assert abs(both - joint) < 4 * se


class TestVarianceFormula:
    def test_independent_windows(self):
        cfg = cfg_exp(500, r=1)
        p = 1.0 - math.exp(-1.0)
        assert variance_formula(cfg) == pytest.approx(500 * p * (1 - p))

    def test_against_sample_variance(self):
        cfg = cfg_exp(1000, r=2)
        counts = simulate_counts(cfg, 50_000, seed=123)
        sample_var = counts.var(ddof=1)
        se = sample_var * math.sqrt(2.0 / (len(counts) - 1))
        assert abs(variance_formula(cfg) - sample_var) < 3 * se

    @pytest.mark.parametrize("argv", [
        ["--r", "2", "--a", "1e-200"],                      # p underflows to 0
        ["--r", "5", "--a", "7.5", "--dist", "uniform01"],  # p is exactly 1
    ])
    def test_degenerate_window_law(self, argv, capsys):
        dist = argv[5] if len(argv) > 4 else "exponential"
        cfg = RScanConfig(n=400, r=int(argv[1]), a=float(argv[3]),
                          base_dist=dist)
        assert variance_formula(cfg) == 0.0
        assert cli.main(["rscan", "--n", "400", *argv, "--reps", "100",
                         "--seed", "1"]) == cli.EXIT_INAPPLICABLE
        assert "variance must exceed 1, got 0.0" in capsys.readouterr().err

    def test_near_linear_in_n(self):
        v1 = variance_formula(cfg_exp(2000))
        v2 = variance_formula(cfg_exp(4000))
        assert v2 / v1 == pytest.approx(2.0, rel=0.01)


class TestSimulateCounts:
    def test_deterministic(self):
        cfg = cfg_exp(100)
        a = simulate_counts(cfg, 2000, seed=7)
        b = simulate_counts(cfg, 2000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        cfg = cfg_exp(100)
        a = simulate_counts(cfg, 2000, seed=7)
        b = simulate_counts(cfg, 2000, seed=8)
        assert not np.array_equal(a, b)

    def test_certain_exceedance(self):
        # e^{a/r} overflows a double here; the kernel must neither raise
        # nor warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = simulate_counts(cfg_exp(50, a=1e9), 100, seed=1)
        assert (counts == 50).all()

    def test_impossible_exceedance(self):
        counts = simulate_counts(cfg_exp(50, a=1e-9), 100, seed=1)
        assert (counts == 0).all()

    def test_mean_identity(self):
        cfg = cfg_exp(1000)
        counts = simulate_counts(cfg, 20_000, seed=11)
        expected = 1000 * exceedance_prob(cfg)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 4 * se

    @pytest.mark.parametrize("r", [PRODUCT_MAX_R, 760])
    def test_mean_identity_long_window(self, r):
        # The longest window product, and a sum of logs.  An unscaled
        # product of 256 or 760 factors and e^{-a} would both underflow to
        # 0, and every window would count.
        cfg = cfg_exp(3 * r - 2, r=r, a=float(r))
        counts = simulate_counts(cfg, 400, seed=13)
        expected = cfg.n * exceedance_prob(cfg)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 4 * se

    def test_range(self):
        counts = simulate_counts(cfg_exp(100), 5000, seed=2)
        assert counts.min() >= 0 and counts.max() <= 100


def one_shot_counts(cfg, reps, seed_seq):
    """The chunk's counts from its whole (reps, n+r-1) draw matrix at once.

    The Exp(1) base is -log1p(-U) of the same float32 uniforms, with the
    window sums taken in float64.
    """
    x = np.random.default_rng(seed_seq).random(
        (reps, cfg.n + cfg.r - 1), dtype=np.float32)
    a = cfg.a
    if cfg.base_dist == "exponential":
        x = -np.log1p(-x.astype(np.float64))
    else:
        a = np.float32(a)
    w = x[:, :cfg.n].copy()
    for k in range(1, cfg.r):
        w += x[:, k:k + cfg.n]
    return (w <= a).sum(axis=1)


class TestSimulateChunk:
    # With n=30, a block of 100 draws holds 2 or 3 rows, so 11 reps end on a
    # ragged block; a block of 20 draws is narrower than one row, and one of
    # 2**18 draws holds all 11 rows, as a BLOCK_DRAWS block does.
    @pytest.mark.parametrize("block", [20, 100, 2 ** 18])
    @pytest.mark.parametrize("r", [1, 2, 8])
    @pytest.mark.parametrize("dist", ["exponential", "uniform01"])
    def test_blocks_equal_one_shot_draw(self, dist, r, block, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_DRAWS", block)
        cfg = RScanConfig(n=30, r=r, a=0.6 * r, base_dist=dist)
        child = np.random.SeedSequence(17).spawn(2)[1]
        counts = _simulate_chunk(cfg, 11, child)
        expected = one_shot_counts(cfg, 11, child)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
        assert len(set(expected)) > 1

    def test_very_long_window_equals_one_shot_draw(self):
        # Partial window products of 8000 factors would leave float32's
        # range for a few percent of the windows near a = r, fixing their
        # verdict early.  The log sums differ from the float64 reference
        # only by rounding, on windows within ~0.1 of a.
        r = 8000
        cfg = cfg_exp(3 * r - 2, r=r, a=float(r))
        child = np.random.SeedSequence(19).spawn(2)[1]
        counts = _simulate_chunk(cfg, 3, child)
        expected = one_shot_counts(cfg, 3, child)
        assert np.abs(counts - expected).max() <= 1e-3 * cfg.n


class TestErrorBound:
    def test_block_count_guard(self):
        # n = 8, r = 2 gives only m = 2 blocks: not enough for any order.
        with pytest.raises(ValueError):
            error_bound(cfg_exp(8), 1)
        with pytest.raises(ValueError):
            error_bound(cfg_exp(16), 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            error_bound(cfg_exp(400), 3)

    def test_positive_and_decreasing(self):
        bounds = [error_bound(cfg_exp(n), 1) for n in (400, 1600, 6400)]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)

    @pytest.mark.parametrize("l", [1, 2])
    def test_assembled_scaling_exponent(self, l):
        pts = [(n, error_bound(cfg_exp(n), l))
               for n in (400, 1600, 6400, 25600)]
        fit = fit_rate(pts)
        assert abs(fit.slope - (-l / 2.0)) < 0.02


class TestEmpiricalDistance:
    def test_smoke_run(self):
        cfg = cfg_exp(100)
        res = empirical_distance(cfg, 20_000, seed=5)
        assert 0.0 < res.loc <= res.tv < 1.0
        assert res.tv_ci[0] <= res.tv <= res.tv_ci[1]
        assert res.loc_ci[0] <= res.loc <= res.loc_ci[1]
        assert res.bound_l1 > 0.0
        assert res.tv_floor > 0.0
        assert abs(res.empirical.mean()) < 1.0

    def test_deterministic(self):
        cfg = cfg_exp(100)
        a = empirical_distance(cfg, 5_000, seed=5)
        b = empirical_distance(cfg, 5_000, seed=5)
        assert a.tv == b.tv and a.loc == b.loc and a.tv_ci == b.tv_ci
