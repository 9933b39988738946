import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binapprox.lattice import (LatticeMismatchError, OffLatticeSampleError,
                               convolve, convolve_all, empirical_pmf,
                               loc_distance, make_pmf, pmf_from_csv,
                               pmf_to_csv, point_mass, smoothness_functional,
                               tv_distance)
from binapprox.binomial import BinomialParams, binomial_pmf


def random_pmf(rng, max_len=12):
    k = rng.integers(1, max_len + 1)
    w = rng.random(k) + 1e-3
    offset = float(rng.random()) if rng.random() < 0.5 else 0.0
    return make_pmf(w / w.sum(), min_index=int(rng.integers(-5, 6)),
                    offset=offset)


@st.composite
def pmfs(draw, max_len=10):
    n = draw(st.integers(1, max_len))
    w = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    off = draw(st.sampled_from([0.0, 0.25, 0.5]))
    base = draw(st.integers(-4, 4))
    arr = np.asarray(w)
    return make_pmf(arr / arr.sum(), min_index=base, offset=off)


class TestTvDistance:
    def test_identity(self):
        p = make_pmf([0.5, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_shifted_bernoulli(self):
        p = make_pmf([0.5, 0.5])
        assert tv_distance(p, p.shift(1)) == pytest.approx(0.5)

    def test_interleaved_lattices_are_distance_one(self):
        p = make_pmf([0.5, 0.5], offset=0.0)
        q = make_pmf([0.5, 0.5], offset=0.5)
        assert tv_distance(p, q) == 1.0
        assert tv_distance(q, p) == 1.0

    def test_offsets_straddling_one(self):
        p = make_pmf([1.0], offset=1e-10)
        q = point_mass(1.0 - 1e-10)
        # Both snap to the integer lattice; the atoms land on 0 and 1.
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q, s = (random_pmf(rng) for _ in range(3))
            # force common lattice
            q = make_pmf(q.probs, q.min_index, p.offset)
            s = make_pmf(s.probs, s.min_index, p.offset)
            dpq, dqp = tv_distance(p, q), tv_distance(q, p)
            assert dpq == pytest.approx(dqp, abs=1e-12)
            assert 0.0 <= dpq <= 1.0
            assert tv_distance(p, s) <= dpq + tv_distance(q, s) + 1e-12
            assert tv_distance(p, p) <= 1e-12


class TestLocDistance:
    def test_identity(self):
        p = make_pmf([0.25, 0.5, 0.25])
        assert loc_distance(p, p) == 0.0

    def test_shifted(self):
        p = make_pmf([0.5, 0.5])
        assert loc_distance(p, p.shift(1)) == pytest.approx(0.5)

    def test_aligned_max_gap(self):
        p = make_pmf([0.25, 0.5, 0.25])
        q = make_pmf([1 / 3, 1 / 3, 1 / 3])
        assert loc_distance(p, q) == pytest.approx(1 / 6)

    def test_interleaved_lattices_raise(self):
        p = make_pmf([0.5, 0.5], offset=0.0)
        q = make_pmf([0.5, 0.5], offset=0.5)
        with pytest.raises(LatticeMismatchError):
            loc_distance(p, q)

    @given(pmfs(), pmfs())
    @settings(max_examples=100, deadline=None)
    def test_loc_below_twice_tv(self, p, q):
        q = make_pmf(q.probs, q.min_index, p.offset)
        assert loc_distance(p, q) <= 2.0 * tv_distance(p, q) + 1e-12


class TestConvolve:
    def test_point_masses(self):
        assert convolve(point_mass(0.25), point_mass(0.5)).positions[0] \
            == pytest.approx(0.75)

    def test_bernoulli_square(self):
        p = make_pmf([0.5, 0.5])
        np.testing.assert_allclose(convolve(p, p).probs, [0.25, 0.5, 0.25])

    def test_sixfold_bernoulli_is_binomial(self):
        p = make_pmf([0.5, 0.5])
        out = convolve_all([p] * 6)
        exact = binomial_pmf(BinomialParams(6, 0.5))
        assert tv_distance(out, exact) < 1e-14

    def test_offset_carry(self):
        p = make_pmf([1.0], offset=0.75)
        out = convolve(p, p)
        assert out.offset == pytest.approx(0.5)
        assert out.positions[0] == pytest.approx(1.5)

    @given(pmfs(), pmfs(), pmfs())
    @settings(max_examples=60, deadline=None)
    def test_commutative_associative(self, p, q, s):
        ab = convolve(p, q)
        ba = convolve(q, p)
        assert tv_distance(ab, ba) < 1e-12
        left = convolve(ab, s)
        right = convolve(p, convolve(q, s))
        assert tv_distance(left, right) < 1e-12


class TestSmoothnessFunctional:
    def test_point_mass_order1(self):
        assert smoothness_functional(point_mass(0.0), 1) == pytest.approx(2.0)

    def test_point_mass_order2(self):
        assert smoothness_functional(point_mass(0.0), 2) == pytest.approx(4.0)

    def test_symmetric_three_atoms(self):
        p = make_pmf([0.25, 0.5, 0.25])
        assert smoothness_functional(p, 1) == pytest.approx(1.0)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            smoothness_functional(point_mass(0.0), 3)

    def test_identity_first_order_is_twice_shift_tv(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_pmf(rng)
            lhs = smoothness_functional(p, 1)
            rhs = 2.0 * tv_distance(p, p.shift(1))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_second_order_submultiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p, q = random_pmf(rng), random_pmf(rng)
            d2 = smoothness_functional(convolve(p, q), 2)
            assert d2 <= (smoothness_functional(p, 1)
                          * smoothness_functional(q, 1)) + 1e-12

    def test_ranges(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_pmf(rng)
            assert 0.0 < smoothness_functional(p, 1) <= 2.0 + 1e-12
            assert 0.0 < smoothness_functional(p, 2) <= 4.0 + 1e-12


class TestEmpiricalPMF:
    def test_frequency_count(self):
        p = empirical_pmf([0, 0, 1, 1], anchor=0.0)
        np.testing.assert_allclose(p.probs, [0.5, 0.5])

    def test_constant_samples(self):
        p = empirical_pmf([3.5] * 10, anchor=0.5)
        assert len(p) == 1
        assert p.positions[0] == pytest.approx(3.5)

    def test_off_lattice_rejected(self):
        with pytest.raises(OffLatticeSampleError):
            empirical_pmf([0.0, 0.3], anchor=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(OffLatticeSampleError, match=f"sample 2 is {bad!r}"):
            empirical_pmf([0.0, 1.0, bad, math.nan], anchor=0.0)

    def test_large_sample_close_to_binomial(self):
        rng = np.random.default_rng(3)
        samples = rng.binomial(10, 0.5, size=10 ** 6)
        emp = empirical_pmf(samples.astype(float), anchor=0.0)
        exact = binomial_pmf(BinomialParams(10, 0.5))
        assert tv_distance(emp, exact) < 0.005


class TestSerialization:
    def test_round_trip(self):
        p = make_pmf([0.25, 0.5, 0.25], min_index=-3, offset=0.5)
        q = pmf_from_csv(pmf_to_csv(p))
        assert q.offset == p.offset
        assert q.min_index == p.min_index
        np.testing.assert_array_equal(q.probs, p.probs)

    def test_round_trip_irrational_probs(self):
        w = np.asarray([math.pi, math.e, 1.0])
        p = make_pmf(w / w.sum())
        q = pmf_from_csv(pmf_to_csv(p))
        np.testing.assert_allclose(q.probs, p.probs, rtol=0, atol=1e-15)


class TestValidation:
    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            make_pmf([0.5, -0.1, 0.6])

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_pmf([0.5, 0.4])

    def test_trimming(self):
        p = make_pmf([0.0, 1.0, 0.0], min_index=0)
        assert len(p) == 1
        assert p.min_index == 1
