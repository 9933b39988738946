import math

import numpy as np
import pytest

from binapprox.engine import fit_rate
from binapprox.matern import (MaternConfig, _counts_chunk_1d,
                              empirical_distance, error_bound, mean_total,
                              simulate_counts, simulate_pattern, thin_pattern,
                              variance_total)


class TestConfig:
    def test_intensity_product(self):
        cfg = MaternConfig(d=2, lam=100.0, r=0.1)
        assert cfg.a == pytest.approx(1.0)

    def test_from_intensity_product(self):
        cfg = MaternConfig.from_intensity_product(2, 400.0, 1.0)
        assert cfg.r == pytest.approx(0.05)
        assert cfg.a == pytest.approx(1.0)

    def test_rejects_wide_cube(self):
        with pytest.raises(ValueError):
            MaternConfig(d=1, lam=10.0, r=0.2)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            MaternConfig(d=0, lam=10.0, r=0.1)
        with pytest.raises(ValueError):
            MaternConfig(d=1, lam=-1.0, r=0.1)


def dense_thin(pts, r):
    """Reference thinning: the full k x k torus distance matrix."""
    y = np.abs(pts[:, None, :] - pts[None, :, :])
    near = np.all(np.minimum(y, 1.0 - y) <= r / 2.0, axis=-1)
    np.fill_diagonal(near, False)
    return pts[~near.any(axis=1)]


class TestThinPattern:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_reference(self, d):
        rng = np.random.default_rng(31 + d)
        for lam in (5.0, 60.0, 400.0):
            r = min(1.0 / 7.0, lam ** (-1.0 / d))
            for _ in range(8):
                pts = rng.random((rng.poisson(lam), d))
                assert np.array_equal(thin_pattern(pts, r),
                                      dense_thin(pts, r))

    @pytest.mark.parametrize("pts,kept", [
        ([[0.0, 0.0], [0.05, 0.0]], 0),      # distance exactly r/2: closed
        ([[0.975, 0.5], [0.025, 0.5]], 2),   # across the seam, just over r/2
        ([[0.98, 0.5], [0.025, 0.5]], 0),    # across the seam, inside
    ])
    def test_boundary_cases_match_dense(self, pts, kept):
        pts = np.array(pts)
        assert np.array_equal(thin_pattern(pts, 0.1), dense_thin(pts, 0.1))
        assert thin_pattern(pts, 0.1).shape[0] == kept

    @pytest.mark.parametrize("bad", [1.0, -0.25])
    def test_rejects_coordinates_outside_unit_torus(self, bad):
        with pytest.raises(ValueError):
            thin_pattern(np.array([[0.5, 0.5], [bad, 0.5]]), 0.1)

    def test_far_pair_retained(self):
        pts = np.array([[0.1], [0.5]])
        assert thin_pattern(pts, 0.1).shape[0] == 2

    def test_close_pair_both_deleted(self):
        pts = np.array([[0.10], [0.14]])
        assert thin_pattern(pts, 0.1).shape[0] == 0

    def test_wraparound_pair(self):
        # Torus distance across the 0/1 seam.
        pts = np.array([[0.99], [0.02]])
        assert thin_pattern(pts, 0.1).shape[0] == 0

    def test_chain_deletion(self):
        # Middle point is close to both ends; ends are far from each other.
        pts = np.array([[0.30], [0.34], [0.38]])
        assert thin_pattern(pts, 0.1).shape[0] == 0

    def test_2d_requires_all_coordinates_close(self):
        pts = np.array([[0.2, 0.2], [0.23, 0.8]])
        assert thin_pattern(pts, 0.1).shape[0] == 2

    def test_relabel_invariance(self):
        rng = np.random.default_rng(17)
        pts = rng.random((40, 2))
        kept = thin_pattern(pts, 0.1)
        perm = rng.permutation(40)
        kept_perm = thin_pattern(pts[perm], 0.1)
        assert sorted(map(tuple, kept)) == sorted(map(tuple, kept_perm))

    def test_torus_translation_invariance(self):
        rng = np.random.default_rng(19)
        pts = rng.random((40, 2))
        shift = np.array([0.37, 0.81])
        kept = thin_pattern(pts, 0.1)
        kept_shifted = thin_pattern((pts + shift) % 1.0, 0.1)
        assert kept.shape[0] == kept_shifted.shape[0]

    def test_hard_core_property(self):
        cfg = MaternConfig(d=2, lam=200.0, r=0.05)
        for seed in range(5):
            pts = simulate_pattern(cfg, seed)
            if pts.shape[0] < 2:
                continue
            diff = pts[:, None, :] - pts[None, :, :]
            delta = np.minimum(np.abs(diff), 1.0 - np.abs(diff))
            near = np.all(delta <= cfg.r / 2.0, axis=-1)
            np.fill_diagonal(near, False)
            assert not near.any()


class TestMoments:
    def test_mean_values(self):
        assert mean_total(MaternConfig.from_intensity_product(1, 10.0, 1.0)) \
            == pytest.approx(10.0 * math.exp(-1.0))
        assert mean_total(MaternConfig.from_intensity_product(1, 50.0, 2.0)) \
            == pytest.approx(50.0 * math.exp(-2.0))

    def test_no_thinning_limit(self):
        cfg = MaternConfig(d=1, lam=100.0, r=1e-6)
        assert mean_total(cfg) == pytest.approx(100.0, rel=1e-3)
        exact, _ = variance_total(cfg)
        assert exact == pytest.approx(100.0, rel=1e-2)

    def test_variance_exceeds_lower_bound(self):
        cfg = MaternConfig.from_intensity_product(1, 100.0, 1.0)
        exact, lower = variance_total(cfg)
        assert lower == pytest.approx(100 * math.exp(-1) * (1 - math.exp(-1)))
        assert exact >= lower

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            variance_total(MaternConfig(d=4, lam=100.0, r=0.1))

    @pytest.mark.parametrize("d,reps", [(1, 20_000), (2, 1_500)])
    @pytest.mark.parametrize("a", [0.5, 1.0])
    @pytest.mark.parametrize("lam", [100.0, 400.0])
    def test_simulation_agrees_with_closed_forms(self, d, reps, a, lam):
        cfg = MaternConfig.from_intensity_product(d, lam, a)
        counts = simulate_counts(cfg, reps, seed=31)
        mu, (s2, _) = mean_total(cfg), variance_total(cfg)
        se_mean = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - mu) < 3.5 * se_mean
        m4 = np.mean((counts - counts.mean()) ** 4)
        se_var = math.sqrt(max(m4 - counts.var() ** 2, 0.0) / reps)
        assert abs(counts.var(ddof=1) - s2) < 3.5 * se_var


def spacing_patterns(lam, reps, seed_seq):
    """The chunk's draws as point patterns: rep i's points sit at
    cumsum(E)/S mod 1 for its tau exponential spacings E with sum S."""
    rng = np.random.default_rng(seed_seq)
    taus = rng.poisson(lam, reps)
    spacings = np.split(rng.standard_exponential(taus.sum()),
                        np.cumsum(taus)[:-1])
    return taus, [(np.cumsum(e) / e.sum() % 1.0)[:, None] for e in spacings]


class TestCountsChunk1d:
    @pytest.mark.parametrize("r", [0.05, 1.0 / 7.0])
    @pytest.mark.parametrize("lam", [3.0, 8.0, 200.0])
    def test_equals_thinned_pattern_rep_for_rep(self, lam, r):
        cfg = MaternConfig(d=1, lam=lam, r=r)
        child = np.random.SeedSequence(11).spawn(1)[0]
        counts = _counts_chunk_1d(cfg, 400, child)
        taus, patterns = spacing_patterns(lam, 400, child)
        assert counts.dtype == np.int64 and counts.shape == (400,)
        assert np.array_equal(
            counts, [len(thin_pattern(pts, r)) for pts in patterns])
        assert set(counts[taus == 0]) <= {0}
        assert set(counts[taus == 1]) <= {1}
        assert set(counts[taus == 2]) <= {0, 2}
        if lam == 3.0:
            assert {0, 1, 2} <= set(taus)

    def test_chunk_without_points(self):
        cfg = MaternConfig(d=1, lam=1e-3, r=0.1)
        counts = _counts_chunk_1d(cfg, 5, np.random.SeedSequence(2))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.zeros(5))

    def test_unbiased_at_large_intensity(self):
        # Gaps rounded to a float32 grid bias this mean low by about one
        # unit, 2.4 SE at these reps.
        cfg = MaternConfig.from_intensity_product(1, 12800.0, 1.0)
        reps = 20_000
        counts = simulate_counts(cfg, reps, seed=2026)
        se = math.sqrt(variance_total(cfg)[0] / reps)
        assert abs(counts.mean() - mean_total(cfg)) < 3 * se


class TestSimulateCounts:
    def test_deterministic(self):
        cfg = MaternConfig.from_intensity_product(1, 200.0, 1.0)
        a = simulate_counts(cfg, 3000, seed=3)
        b = simulate_counts(cfg, 3000, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_fast_path_matches_generic_path_statistically(self):
        cfg = MaternConfig.from_intensity_product(1, 100.0, 1.0)
        fast = simulate_counts(cfg, 20_000, seed=41)
        slow = np.array([len(simulate_pattern(cfg, [43, i])) for i in range(3000)])
        se = math.sqrt(fast.var() / len(fast) + slow.var() / len(slow))
        assert abs(fast.mean() - slow.mean()) < 4 * se

    def test_nonnegative(self):
        cfg = MaternConfig.from_intensity_product(2, 50.0, 0.5)
        counts = simulate_counts(cfg, 500, seed=5)
        assert counts.min() >= 0


class TestErrorBound:
    def test_block_guard(self):
        # r close to its cap leaves a single conditioning block.
        with pytest.raises(ValueError):
            error_bound(MaternConfig(d=1, lam=10.0, r=1.0 / 7.0), 1)

    def test_underflowed_pinning_event_rejected(self):
        # p1 = a exp(-3a) underflows to 0 at a = 300.
        cfg = MaternConfig.from_intensity_product(1, 1e6, 300.0)
        with pytest.raises(ValueError, match="degenerate"):
            error_bound(cfg, 1)

    def test_positive(self):
        cfg = MaternConfig.from_intensity_product(1, 200.0, 1.0)
        assert error_bound(cfg, 1) > 0
        assert error_bound(cfg, 2) > error_bound(cfg, 1)

    @pytest.mark.parametrize("l", [1, 2])
    def test_assembled_scaling_exponent(self, l):
        pts = [(lam, error_bound(
            MaternConfig.from_intensity_product(1, lam, 1.0), l))
            for lam in (3200.0, 12800.0, 51200.0, 204800.0)]
        fit = fit_rate(pts)
        assert abs(fit.slope - (-l / 2.0)) < 0.02


class TestEmpiricalDistance:
    def test_smoke_run(self):
        cfg = MaternConfig.from_intensity_product(1, 200.0, 1.0)
        res = empirical_distance(cfg, 20_000, seed=13)
        assert 0.0 < res.loc <= res.tv < 1.0
        assert res.tv_ci[0] <= res.tv <= res.tv_ci[1]
        assert res.bound_l1 > 0.0
        assert res.sigma2_used == pytest.approx(variance_total(cfg)[0])
