import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binapprox.lattice import (LatticeMismatchError, LatticePMF,
                               OffLatticeSampleError, convolve_all,
                               empirical_pmf, loc_distance, make_pmf,
                               smoothness_functional, tv_distance)
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
        q = make_pmf([1.0], offset=1.0 - 1e-10)
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
        assert convolve_all([make_pmf([1.0], offset=0.25),
                             make_pmf([1.0], offset=0.5)]).positions[0] \
            == pytest.approx(0.75)

    def test_bernoulli_square(self):
        p = make_pmf([0.5, 0.5])
        np.testing.assert_allclose(convolve_all([p, p]).probs,
                                   [0.25, 0.5, 0.25])

    def test_sixfold_bernoulli_is_binomial(self):
        p = make_pmf([0.5, 0.5])
        out = convolve_all([p] * 6)
        exact = binomial_pmf(BinomialParams(6, 0.5))
        assert tv_distance(out, exact) < 1e-14

    def test_offset_carry(self):
        p = make_pmf([1.0], offset=0.75)
        out = convolve_all([p, p])
        assert out.offset == pytest.approx(0.5)
        assert out.positions[0] == pytest.approx(1.5)

    def test_convolve_all_matches_enumeration(self):
        # Offsets summing past 1, nonzero min_index, a gap of zero atoms
        # too wide to fill, and edge atoms whose product underflows to 0, so
        # the sum is trimmed: untrimmed, it would start at index 3.
        laws = [make_pmf([0.2, 0, 0, 0, 0, 0, 0.8], min_index=-3, offset=0.7),
                make_pmf([1e-200, 0.6, 0.4], min_index=2, offset=0.7),
                make_pmf([0.5, 0.5], min_index=-1, offset=0.5),
                make_pmf([1e-200, 1.0], min_index=4)]
        out = convolve_all(laws)
        # Every choice of one atom per law, by the sum of its indices.
        mass = {}
        for atoms in itertools.product(*(
                [(p.min_index + k, w) for k, w in enumerate(p.probs)]
                for p in laws)):
            k = sum(i for i, _ in atoms)
            mass[k] = mass.get(k, 0.0) + math.prod(w for _, w in atoms)
        lo = min(k for k, w in mass.items() if w > 0)
        hi = max(k for k, w in mass.items() if w > 0)
        # The offsets add to 1.9: one whole step into min_index.
        total = math.fsum(p.offset for p in laws)
        assert (out.offset, out.min_index) == (total - 1, lo + 1)
        assert out.min_index == 4 and len(out) == hi - lo + 1
        ref = make_pmf([mass.get(k, 0.0) for k in range(lo, hi + 1)], lo + 1,
                       out.offset)
        assert 0.0 in out.probs and 0.0 in ref.probs
        assert tv_distance(out, ref) < 1e-15

    def test_convolve_all_of_many_bernoullis_is_binomial(self):
        n = 9999
        for p in (0.3, 0.02):
            out = convolve_all([make_pmf([1.0 - p, p])] * n)
            exact = binomial_pmf(BinomialParams(n, p))
            assert tv_distance(out, exact) <= 3e-15, p

    def test_convolve_all_needs_a_pmf(self):
        with pytest.raises(ValueError, match="at least one pmf"):
            convolve_all([])

    @given(pmfs(), pmfs(), pmfs())
    @settings(max_examples=60, deadline=None)
    def test_commutative_associative(self, p, q, s):
        ab = convolve_all([p, q])
        ba = convolve_all([q, p])
        assert tv_distance(ab, ba) < 1e-12
        left = convolve_all([ab, s])
        right = convolve_all([p, convolve_all([q, s])])
        assert tv_distance(left, right) < 1e-12


class TestSmoothnessFunctional:
    def test_point_mass_order1(self):
        assert smoothness_functional(make_pmf([1.0]), 1) == pytest.approx(2.0)

    def test_point_mass_order2(self):
        assert smoothness_functional(make_pmf([1.0]), 2) == pytest.approx(4.0)

    def test_symmetric_three_atoms(self):
        p = make_pmf([0.25, 0.5, 0.25])
        assert smoothness_functional(p, 1) == pytest.approx(1.0)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            smoothness_functional(make_pmf([1.0]), 3)

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
            d2 = smoothness_functional(convolve_all([p, q]), 2)
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

    @pytest.mark.parametrize("samples", [[[0.0, 1.0]], []])
    def test_samples_must_be_nonempty_1d(self, samples):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            empirical_pmf(samples, anchor=0.0)

    def test_large_sample_close_to_binomial(self):
        rng = np.random.default_rng(3)
        samples = rng.binomial(10, 0.5, size=10 ** 6)
        emp = empirical_pmf(samples.astype(float), anchor=0.0)
        exact = binomial_pmf(BinomialParams(10, 0.5))
        assert tv_distance(emp, exact) < 0.005


class TestEquality:
    def test_equal_by_value(self):
        p = make_pmf([0.5, 0.5], min_index=-1, offset=0.5)
        assert p == make_pmf([0.5, 0.5], min_index=-1, offset=0.5)
        for other in (make_pmf([0.5, 0.5], min_index=-1, offset=0.25),
                      p.shift(1),
                      make_pmf([0.4, 0.6], min_index=-1, offset=0.5),
                      make_pmf([0.25, 0.5, 0.25], min_index=-1, offset=0.5)):
            assert p != other and other != p
        assert p != (p.offset, p.min_index, p.probs.tobytes())

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(make_pmf([0.5, 0.5]))


class TestValidation:
    @pytest.mark.parametrize("bad", [1.5, True, "0", None])
    def test_min_index_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="min_index must be an integer"):
            LatticePMF(0.0, bad, [0.5, 0.5])

    @pytest.mark.parametrize("index", [2 ** 53 + 1, -2 ** 53 - 1, 10 ** 400],
                             ids=["above", "below", "past_double"])
    def test_min_index_within_double_integers(self, index):
        # Positions are doubles, exact for integers up to 2**53.
        with pytest.raises(ValueError, match="min_index must lie within"):
            LatticePMF(0.0, index, [0.5, 0.5])
        assert LatticePMF(0.0, -2 ** 53, [0.5, 0.5]).positions[0] == -2 ** 53

    def test_numpy_min_index_stored_as_int(self):
        # So that spec_to_json can write it.
        p = LatticePMF(0.0, np.int64(-1), [0.5, 0.5])
        assert type(p.min_index) is int
        assert p == make_pmf([0.5, 0.5], min_index=-1)

    def test_stores_a_read_only_copy(self):
        a = np.array([0.5, 0.5])
        p = LatticePMF(0.0, 0, a)
        a[0] = 0.25
        assert p.probs.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            p.probs[0] = 0.25

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_offset_must_be_a_number(self, bad):
        with pytest.raises(ValueError, match="offset must be a number"):
            LatticePMF(bad, 0, [0.5, 0.5])

    @pytest.mark.parametrize("bad", ["0.5", None, True])
    def test_probs_entries_must_be_numbers(self, bad):
        with pytest.raises(ValueError, match="probs entry must be a number"):
            LatticePMF(0.0, 0, [bad, 0.5])

    def test_probs_array_must_hold_numbers(self):
        with pytest.raises(ValueError, match="probs must hold numbers"):
            LatticePMF(0.0, 0, np.array(["0.5", "0.5"]))

    @pytest.mark.parametrize("offset,probs,match", [
        (0.0, np.array([[0.5, 0.5]]), "nonempty 1-D"),
        (0.0, [], "nonempty 1-D"),
        (1.0, [0.5, 0.5], r"\[0,1\), got 1.0"),
        (-0.25, [0.5, 0.5], r"\[0,1\), got -0.25"),
        (0.0, [0.0, 1.0], "trimmed"),
        (0.0, [1.0, 0.0], "trimmed")])
    def test_pmf_refused(self, offset, probs, match):
        with pytest.raises(ValueError, match=match):
            LatticePMF(offset, 0, probs)

    @pytest.mark.parametrize("probs,match", [
        ([[0.5, 0.5]], "nonempty 1-D"), ([], "nonempty 1-D"),
        ([0.0, 0.0], "no mass")])
    def test_make_pmf_refused(self, probs, match):
        with pytest.raises(ValueError, match=match):
            make_pmf(probs)

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            make_pmf([0.5, -0.1, 0.6])

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_pmf([0.5, 0.4])

    def test_nan_prob_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            LatticePMF(0.0, 0, np.array([math.nan, 1.0]))
        with pytest.raises(ValueError, match="positive, got nan"):
            make_pmf([math.nan, math.nan], renormalize=True)

    def test_trimming(self):
        p = make_pmf([0.0, 1.0, 0.0], min_index=0)
        assert len(p) == 1
        assert p.min_index == 1
