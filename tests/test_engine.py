import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from binapprox import engine, matern, rscan
from binapprox.binomial import BinomialParams, binomial_pmf
from binapprox.engine import (filter_floor, fit_rate, noise_floor,
                              run_experiment)
from binapprox.lattice import make_pmf


class TestNoiseFloor:
    def test_formula(self):
        ref = make_pmf([0.5, 0.5])
        tvf, locf = noise_floor(ref, 400)
        assert tvf == pytest.approx(math.sqrt(0.25 / 400))
        assert locf == pytest.approx(math.sqrt(0.25 / 400))

    def test_shrinks_with_reps(self):
        ref = binomial_pmf(BinomialParams(10, 0.5))
        a = noise_floor(ref, 100)
        b = noise_floor(ref, 10_000)
        assert b[0] == pytest.approx(a[0] / 10)
        assert b[1] == pytest.approx(a[1] / 10)


class TestRunExperiment:
    def test_constant_sampler_exact_distance(self):
        res = run_experiment(lambda c, m, s: np.zeros(m), {}, 1000, 0,
                             sigma2=2.0, anchor=0.0)
        # Empirical law is a point mass; tv to the symmetric 8-trial
        # centered binomial is 1 minus its central atom 70/256.
        assert res.tv == pytest.approx(1.0 - 70 / 256)
        assert res.loc == pytest.approx(1.0 - 70 / 256)

    def test_deterministic(self):
        def sampler(cfg, m, s):
            rng = np.random.default_rng(s)
            return rng.binomial(8, 0.5, size=m) - 4.0
        a = run_experiment(sampler, {"x": 1}, 5000, 3, 2.0, 0.0)
        b = run_experiment(sampler, {"x": 1}, 5000, 3, 2.0, 0.0)
        assert (a.tv, a.loc, a.tv_ci, a.loc_ci) == (b.tv, b.loc, b.tv_ci, b.loc_ci)

    def test_self_sampling_sits_at_the_floor(self):
        # Sampling from the comparison law itself: the reported distance
        # must be within a factor 2 of the analytic noise floor.
        def sampler(cfg, m, s):
            rng = np.random.default_rng(s)
            return rng.binomial(8, 0.5, size=m) - 4.0
        res = run_experiment(sampler, {}, 200_000, 17, 2.0, 0.0)
        assert res.tv_floor / 2 <= res.tv <= 2 * res.tv_floor

    def test_ci_contains_estimate(self):
        def sampler(cfg, m, s):
            rng = np.random.default_rng(s)
            return rng.binomial(8, 0.5, size=m) - 4.0
        res = run_experiment(sampler, {}, 2000, 5, 2.0, 0.0)
        assert res.tv_ci[0] <= res.tv <= res.tv_ci[1]
        assert res.loc_ci[0] <= res.loc <= res.loc_ci[1]
        assert res.tv_ci[1] > res.tv_ci[0]

    def test_rejects_small_variance(self):
        with pytest.raises(ValueError):
            run_experiment(lambda c, m, s: np.zeros(m), {}, 10, 0, 0.9, 0.0)

    def test_csv_row_fields(self):
        res = run_experiment(lambda c, m, s: np.zeros(m), {"app": "t"},
                             100, 0, 2.0, 0.0)
        row = res.csv_row()
        for key in ("app", "reps", "seed", "sigma2", "emp_tv", "tv_floor"):
            assert key in row


class TestFitRate:
    def test_exact_inverse_sqrt(self):
        xs = [100.0, 400.0, 1600.0, 6400.0]
        fit = fit_rate([(x, x ** -0.5) for x in xs])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.slope_ci[0] <= fit.slope <= fit.slope_ci[1]

    def test_exact_inverse_linear(self):
        fit = fit_rate([(x, 3.0 / x) for x in (10.0, 100.0, 1000.0)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.5)])

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.0), (4.0, 0.1)])

    def test_rejects_duplicate_scales(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (1.0, 0.5), (4.0, 0.1)])

    def test_ci_reflects_scatter(self):
        noisy = [(10.0, 0.30), (40.0, 0.17), (160.0, 0.071), (640.0, 0.041)]
        fit = fit_rate(noisy)
        assert fit.slope_ci[1] - fit.slope_ci[0] > 0.0


class TestFilterFloor:
    def test_drops_points_near_floor(self):
        points = [(1.0, 0.10), (2.0, 0.02), (3.0, 0.30)]
        floors = [0.01, 0.01, 0.01]
        kept, dropped = filter_floor(points, floors)
        assert kept == [(1.0, 0.10), (3.0, 0.30)]
        assert dropped == [(2.0, 0.02)]


class TestSampleChunked:
    """sample_chunked under a 100-draw chunk, with a sampler that records
    each chunk's size and seed and draws from that seed."""

    @pytest.mark.parametrize("draws_per_rep,reps,sizes", [
        (10.0, 23, [10, 10, 3]),        # ragged last chunk
        (100.0, 4, [1, 1, 1, 1]),       # a rep exactly one chunk wide
        (300.0, 2, [1, 1]),             # a rep wider than a chunk
        (0.25, 250, [100, 100, 50])])   # draws_per_rep clamped to 1
    def test_chunk_sizes_and_seeds(self, monkeypatch, draws_per_rep, reps,
                                   sizes):
        monkeypatch.setattr(engine, "CHUNK_DRAWS", 100)
        calls = []

        def sampler(m, seed_seq):
            calls.append((m, seed_seq))
            return np.random.default_rng(seed_seq).random(m)

        out = engine.sample_chunked(sampler, reps, 7, draws_per_rep)
        # The pool may start chunks in any order; chunk k is the one seeded
        # with the k-th child.
        calls.sort(key=lambda call: call[1].spawn_key)
        assert [m for m, _ in calls] == sizes
        children = np.random.SeedSequence(7).spawn(len(sizes))
        for (_, got), want in zip(calls, children):
            np.testing.assert_array_equal(got.generate_state(4),
                                          want.generate_state(4))
        np.testing.assert_array_equal(out, np.concatenate(
            [np.random.default_rng(c).random(m)
             for c, m in zip(children, sizes)]))

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_no_reps(self, reps):
        with pytest.raises(ValueError, match="reps >= 1"):
            engine.sample_chunked(lambda m, s: np.zeros(m), reps, 0, 1.0)


# Small configs of every chunk kernel, each split into at least 8 chunks:
# (simulate_counts, its chunk kernel, reps, reps per chunk, draws per rep).
RSCAN_EXP = rscan.RScanConfig(n=60, r=3, a=1.5)
RSCAN_UNIF = rscan.RScanConfig(n=60, r=3, a=1.2, base_dist="uniform01")
MATERN_1D = matern.MaternConfig.from_intensity_product(1, 100.0, 1.0)
MATERN_2D = matern.MaternConfig.from_intensity_product(2, 60.0, 0.5)
POOL_CASES = {
    "rscan_exponential": (
        lambda reps, seed: rscan.simulate_counts(RSCAN_EXP, reps, seed),
        lambda m, child: rscan._simulate_chunk(RSCAN_EXP, m, child),
        230, 25, 62),
    "rscan_uniform01": (
        lambda reps, seed: rscan.simulate_counts(RSCAN_UNIF, reps, seed),
        lambda m, child: rscan._simulate_chunk(RSCAN_UNIF, m, child),
        230, 25, 62),
    "matern_1d": (
        lambda reps, seed: matern.simulate_counts(MATERN_1D, reps, seed),
        lambda m, child: matern._counts_chunk_1d(MATERN_1D, m, child),
        190, 20, 100),
    "matern_2d": (
        lambda reps, seed: matern.simulate_counts(MATERN_2D, reps, seed),
        lambda m, child: matern._counts_chunk(MATERN_2D, m, child),
        43, 5, 60),
}


def serial_chunks(kernel, reps, seed, chunk_reps):
    """The chunks of sample_chunked run one after another, in order."""
    children = np.random.SeedSequence(seed).spawn(-(-reps // chunk_reps))
    return np.concatenate([kernel(min(chunk_reps, reps - k * chunk_reps), c)
                           for k, c in enumerate(children)])


def use_chunk_reps(monkeypatch, chunk_reps, draws_per_rep):
    monkeypatch.setattr(engine, "CHUNK_DRAWS", chunk_reps * draws_per_rep)


class TestChunkPool:
    """sample_chunked on the chunk pool gives the bits of the serial loop."""

    @pytest.mark.parametrize("name", list(POOL_CASES))
    def test_same_bits_as_serial(self, monkeypatch, name):
        simulate, kernel, reps, chunk_reps, draws_per_rep = POOL_CASES[name]
        use_chunk_reps(monkeypatch, chunk_reps, draws_per_rep)
        assert -(-reps // chunk_reps) >= 8
        got = simulate(reps, 11)
        want = serial_chunks(kernel, reps, 11, chunk_reps)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_chunk_error_propagates(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_DRAWS", 10)

        def sampler(m, seed_seq):
            if seed_seq.spawn_key == (3,):
                raise RuntimeError("chunk 3 failed")
            return np.random.default_rng(seed_seq).random(m)

        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            engine.sample_chunked(sampler, 100, 5, 1.0)
        good = lambda m, seed_seq: np.random.default_rng(seed_seq).random(m)
        np.testing.assert_array_equal(
            engine.sample_chunked(good, 100, 5, 1.0),
            serial_chunks(good, 100, 5, 10))

    def test_concurrent_callers(self, monkeypatch):
        # More calling threads than CPUs, switching often, as when rates
        # runs its scales together: every caller gets its own seed's bits.
        simulate, kernel, reps, chunk_reps, draws_per_rep = POOL_CASES[
            "rscan_exponential"]
        use_chunk_reps(monkeypatch, chunk_reps, draws_per_rep)
        seeds = range(6)
        results = {}

        def call(seed):
            results[seed] = simulate(reps, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            np.testing.assert_array_equal(
                results[seed], serial_chunks(kernel, reps, seed, chunk_reps))


# One full-size chunk of each kernel: r-scan n=6400, r=2 (3124 reps of 6401
# draws) and Matern 1-d lam=800 (25000 reps of 800 expected draws).
FULL_CHUNKS = {
    "rscan": (lambda m, child: rscan._simulate_chunk(
        rscan.RScanConfig(n=6400, r=2, a=1.0), m, child), 6401),
    "matern_1d": (lambda m, child: matern._counts_chunk_1d(
        matern.MaternConfig.from_intensity_product(1, 800.0, 1.0), m, child),
        800.0),
}


@pytest.mark.parametrize("name", list(FULL_CHUNKS))
def test_full_chunk_peak_memory(name):
    """A kernel holds a few blocks of BLOCK_DRAWS draws, not its whole
    chunk: numpy reports its buffers to tracemalloc."""
    kernel, draws_per_rep = FULL_CHUNKS[name]
    reps = int(engine.CHUNK_DRAWS / draws_per_rep)
    child = np.random.SeedSequence(1).spawn(1)[0]
    tracemalloc.start()
    try:
        counts = kernel(reps, child)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.shape == (reps,)
    assert peak < 16 * 2 ** 20
