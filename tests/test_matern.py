import math
import warnings

import numpy as np
import pytest

from binapprox import cli, engine
from binapprox.engine import fit_rate
from binapprox.matern import (MaternConfig, _counts_chunk, _counts_chunk_1d,
                              empirical_distance, error_bound, mean_total,
                              simulate_counts, thin_pattern, variance_total)


def thinned_pattern(cfg, rng):
    """One realization from rng's next draws, as the chunk kernel draws it."""
    return thin_pattern(rng.random((rng.poisson(cfg.lam), cfg.d)), cfg.r)


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
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"need lam > 0.*got {lam}"):
                MaternConfig(d=1, lam=lam, r=0.01)
        # from_intensity_product leaves a bad field to the constructor,
        # without dividing by zero or raising to a complex power first.
        for args, match in (((0, 100.0, 1.0), "need d >= 1"),
                            ((1, 0.0, 1.0), "need lam > 0"),
                            ((2, 100.0, -1.0), "need a > 0")):
            with pytest.raises(ValueError, match=match):
                MaternConfig.from_intensity_product(*args)

    def test_cli_rejects_nan_intensity_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["matern", "--d", "1", "--lam", "nan",
                             "--r", "0.01"])
        assert code == cli.EXIT_USAGE
        assert "need lam > 0 and finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["matern", "--d", "1", "--lam", "0", "--a", "1"],
         "need lam > 0 and finite, got 0.0"),
        (["matern", "--d", "0", "--lam", "100", "--a", "1"], "need d >= 1"),
        (["rates", "--app", "matern", "--scales", "0", "400", "800"],
         "need lam > 0 and finite, got 0.0")])
    def test_cli_intensity_product_rejects_bad_fields(self, capsys, argv,
                                                      message):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["matern", "--d", "1", "--lam", "100", "--a", "-1"],
         "need a > 0 and finite, got -1.0"),
        (["matern", "--d", "1", "--lam", "1e-3", "--a", "1"],
         "need 0 < r <= 1/7, got r = 1000.0 from a = 1.0, lam = 0.001"),
        (["rates", "--app", "matern", "--a", "0", "--scales", "200", "400",
          "800"], "need a > 0 and finite, got 0.0")])
    def test_cli_refusal_names_a(self, capsys, argv, message):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_periodic_kd_tree(self, d):
        # 180 patterns per dimension.  Every other one has r = 1/16, so
        # dyadic points sit exactly r/2 apart, on the first axis and across
        # the seam of the last; each pattern also has a pair at 0.0 and
        # nextafter(1, 0) on the first axis.
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(41 + d)
        for i in range(180):
            lam = (5.0, 40.0, 200.0)[i % 3]
            r = 1.0 / 16.0 if i % 2 else rng.uniform(0.2, 1.0) / 7.0
            h = r / 2.0
            pts = rng.random((rng.poisson(lam) + 6, d))
            pts[:6] = rng.integers(0, 2 ** 10, (6, d)) / 2 ** 10
            pts[1] = pts[0]
            pts[1, 0] = (pts[0, 0] + h) % 1.0
            pts[3] = pts[2]
            pts[2, -1], pts[3, -1] = 1.0 - h / 2.0, h / 2.0
            pts[5] = pts[4]
            pts[4, 0], pts[5, 0] = 0.0, np.nextafter(1.0, 0.0)
            pairs = cKDTree(pts, boxsize=1.0).query_pairs(
                h, p=np.inf, output_type="ndarray")
            keep = np.ones(len(pts), dtype=bool)
            keep[pairs.ravel()] = False
            assert np.array_equal(thin_pattern(pts, r), pts[keep])

    @pytest.mark.parametrize("bad", [1.0, -0.25, math.nan])
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
            pts = thinned_pattern(cfg, np.random.default_rng(seed))
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
    def test_equals_thinned_pattern_rep_for_rep(self, lam, r, monkeypatch):
        cfg = MaternConfig(d=1, lam=lam, r=r)
        child = np.random.SeedSequence(11).spawn(1)[0]
        taus, patterns = spacing_patterns(lam, 400, child)
        expected = [len(thin_pattern(pts, r)) for pts in patterns]
        # A block of 600 draws holds 200, 75 and 3 reps at lam = 3, 8, 200.
        for block in (engine.BLOCK_DRAWS, 600):
            monkeypatch.setattr(engine, "BLOCK_DRAWS", block)
            counts = _counts_chunk_1d(cfg, 400, child)
            assert counts.dtype == np.int64 and counts.shape == (400,)
            assert np.array_equal(counts, expected)
        assert set(counts[taus == 0]) <= {0}
        assert set(counts[taus == 1]) <= {1}
        assert set(counts[taus == 2]) <= {0, 2}
        if lam == 3.0:
            assert {0, 1, 2} <= set(taus)

    # Blocks of 1 and 2 reps put every rep at a block edge, and a block of
    # 1 rep is all empty when its rep is; 7 reps end 3000 on a ragged block.
    @pytest.mark.parametrize("step", [1, 2, 7])
    def test_blocks_equal_one_shot_draw(self, step, monkeypatch):
        cfg = MaternConfig.from_intensity_product(1, 8.0, 0.5)
        child = np.random.SeedSequence(3).spawn(1)[0]
        monkeypatch.setattr(engine, "BLOCK_DRAWS", 8 * step)
        assert engine.block_reps(cfg.lam) == step
        counts = _counts_chunk_1d(cfg, 3000, child)
        taus, patterns = spacing_patterns(cfg.lam, 3000, child)
        assert {0, 1} <= set(taus)
        assert np.array_equal(
            counts, [len(thin_pattern(pts, cfg.r)) for pts in patterns])

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
        slow = _counts_chunk(cfg, 3000, np.random.SeedSequence(43))
        se = math.sqrt(fast.var() / len(fast) + slow.var() / len(slow))
        assert abs(fast.mean() - slow.mean()) < 4 * se

    def test_nonnegative(self):
        cfg = MaternConfig.from_intensity_product(2, 50.0, 0.5)
        counts = simulate_counts(cfg, 500, seed=5)
        assert counts.min() >= 0

    def test_2d_equals_thinned_pattern_rep_for_rep(self):
        # d >= 2: the reps of one chunk are drawn in turn from its Generator.
        cfg = MaternConfig.from_intensity_product(2, 60.0, 0.5)
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        want = np.array([len(thinned_pattern(cfg, rng)) for _ in range(40)],
                        dtype=np.int64)
        got = simulate_counts(cfg, 40, 11)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_2d_rejects_no_reps(self, reps):
        cfg = MaternConfig.from_intensity_product(2, 60.0, 0.5)
        with pytest.raises(ValueError, match="reps >= 1"):
            simulate_counts(cfg, reps, 0)


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
