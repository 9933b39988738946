import math
import warnings

import numpy as np
import pytest

from binapprox import cli, engine
from binapprox.engine import fit_rate
from binapprox.rscan import (RScanConfig, _simulate_chunk, empirical_distance,
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

    def test_range(self):
        counts = simulate_counts(cfg_exp(100), 5000, seed=2)
        assert counts.min() >= 0 and counts.max() <= 100


def one_shot_counts(cfg, reps, seed_seq):
    """The chunk's counts from its whole (reps, n+r-1) draw matrix at once."""
    rng = np.random.default_rng(seed_seq)
    shape = (reps, cfg.n + cfg.r - 1)
    if cfg.base_dist == "exponential":
        x = rng.standard_exponential(shape, dtype=np.float32)
    else:
        x = rng.random(shape, dtype=np.float32)
    w = x[:, :cfg.n].copy()
    for k in range(1, cfg.r):
        w += x[:, k:k + cfg.n]
    return (w <= np.float32(cfg.a)).sum(axis=1)


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
