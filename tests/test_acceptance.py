"""Acceptance gate: end-to-end checks of the full pipeline.

Each test covers one numbered acceptance criterion and prints a one-line
`acceptance N: ...` verdict with the measured values (visible with
`pytest -s`, and in the failure output otherwise).  The two rate
criteria (6, 7) run multi-minute Monte Carlo sweeps at pinned seeds.
"""

import itertools
import math

import numpy as np
import pytest

from binapprox.binomial import (BinomialParams, binomial_pmf,
                                centered_binomial, centering_params,
                                ehm_bound, shift_bound, stein_residual,
                                stein_solution, sup_norm_bound)
from binapprox.bounds import (IndependentSummandSpec, decomposition_bound,
                              independent_sum_bound, integer_sum_bound,
                              local_dependence_bound)
from binapprox.engine import fit_rate
from binapprox.lattice import (convolve_all, loc_distance, make_pmf,
                               smoothness_functional, tv_distance)
from binapprox.matern import MaternConfig
from binapprox.matern import empirical_distance as matern_distance
from binapprox.matern import mean_total, variance_total
from binapprox.oracle import (TwoRunsModel, exact_distance_report,
                              two_runs_decomposable_spec,
                              two_runs_dependence_spec, two_runs_pmf)
from binapprox.rscan import RScanConfig
from binapprox.rscan import empirical_distance as rscan_distance

RATE_SEED = 20260825
RSCAN_SCALES = (400, 1600, 6400, 25600)
RSCAN_REPS = 10 ** 6
MATERN_SCALES = (200.0, 800.0, 3200.0, 12800.0)
MATERN_REPS = 2 * 10 ** 5


def centered_bernoulli(p):
    return make_pmf([1 - p, p], min_index=-1, offset=(1 - p) % 1.0)


def test_acceptance_1_independent_sum_dominance():
    margins = []
    for n in (10, 20, 40):
        centered = [centered_bernoulli(0.5)] * n
        spec = IndependentSummandSpec(centered)
        approx = centered_binomial(centering_params(spec.sigma2, spec.anchor))
        exact = convolve_all(centered)
        tv = tv_distance(exact, approx)
        loc = loc_distance(exact, approx)
        b1 = independent_sum_bound(spec, 1).value
        b2 = independent_sum_bound(spec, 2).value
        assert tv <= b1 and loc <= b2, f"n={n}: {tv}/{b1}, {loc}/{b2}"
        margins.append(b1 - tv)

        raw = [make_pmf([0.5, 0.5])] * n
        exact_raw = convolve_all(raw)
        for metric, dist in (("tv", tv_distance), ("loc", loc_distance)):
            bound, approximant = integer_sum_bound(raw, metric)
            assert dist(exact_raw, approximant) <= bound, f"n={n} {metric}"
    print(f"acceptance 1: PASS (min tv margin {min(margins):.3f})")


def test_acceptance_2_dependent_sum_dominance():
    worst = math.inf
    for n, p in itertools.product((15, 30, 60), (0.3, 0.5)):
        model = TwoRunsModel(n, p)
        w = two_runs_pmf(model).translate(-n * p * p)
        tv, loc, _ = exact_distance_report(w)
        dep = two_runs_dependence_spec(model)
        dec = two_runs_decomposable_spec(model)
        b1 = local_dependence_bound(dep, 1).value
        b2 = local_dependence_bound(dep, 2).value
        assert tv <= b1, f"n={n} p={p}: tv {tv} > {b1}"
        assert loc <= b2, f"n={n} p={p}: loc {loc} > {b2}"
        assert tv <= decomposition_bound(dec, 1).value
        assert loc <= decomposition_bound(dec, 2).value
        worst = min(worst, b1 - tv)
    print(f"acceptance 2: PASS (min tv margin {worst:.3f})")


def test_acceptance_3_solver_verification():
    worst_resid = 0.0
    for n in range(1, 13):
        subsets = np.array(list(itertools.product((0, 1), repeat=n + 1)))
        for p in np.arange(0.1, 0.95, 0.1):
            params = BinomialParams(n, float(p))
            basis = np.array([stein_solution(params, {b})
                              for b in range(n + 1)])
            for b in range(n + 1):
                worst_resid = max(worst_resid,
                                  stein_residual(params, {b}, basis[b]))
                assert float(np.abs(basis[b]).max()) \
                    <= sup_norm_bound(params) + 1e-12
            # Solutions are linear in the target indicator, so every
            # subset's solution is a 0/1 combination of the basis rows.
            diffs = subsets @ np.diff(basis, axis=1)
            assert float(np.abs(diffs).max()) <= ehm_bound(params) + 1e-12
    assert worst_resid < 1e-9
    print(f"acceptance 3: PASS (max residual {worst_resid:.2e})")


def test_acceptance_4_shift_bound_dominance():
    worst = math.inf
    for n, p in itertools.product((5, 10, 50, 200), (0.3, 0.5, 0.7)):
        for frac in (0.2, -0.2, 0.02, -0.02):
            t = frac * p
            params = BinomialParams(n, p)
            a = binomial_pmf(BinomialParams(n, p - t))
            b = binomial_pmf(params)
            for metric, dist in (("tv", tv_distance), ("loc", loc_distance)):
                exact = dist(a, b)
                bound = shift_bound(params, t, metric)
                assert exact <= bound + 1e-12, (n, p, t, metric)
                worst = min(worst, bound - exact)
    print(f"acceptance 4: PASS (min margin {worst:.4f})")


def test_acceptance_5_identity_inequality_axioms():
    rng = np.random.default_rng(20260825)

    def rand_pmf(offset=None):
        k = int(rng.integers(1, 12))
        w = rng.random(k) + 1e-3
        off = float(rng.random()) if offset is None else offset
        return make_pmf(w / w.sum(), min_index=int(rng.integers(-5, 6)),
                        offset=off)

    for _ in range(1000):
        mu, lam = rand_pmf(), rand_pmf()
        lhs = smoothness_functional(mu, 1)
        assert abs(lhs - 2.0 * tv_distance(mu, mu.shift(1))) < 1e-12
        d2 = smoothness_functional(convolve_all([mu, lam]), 2)
        assert d2 <= (smoothness_functional(mu, 1)
                      * smoothness_functional(lam, 1)) + 1e-12

    for _ in range(1000):
        off = float(rng.random())
        p, q, s = rand_pmf(off), rand_pmf(off), rand_pmf(off)
        dpq = tv_distance(p, q)
        assert 0.0 <= dpq <= 1.0
        assert abs(dpq - tv_distance(q, p)) < 1e-12
        assert tv_distance(p, p) < 1e-12
        assert tv_distance(p, s) <= dpq + tv_distance(q, s) + 1e-12
    print("acceptance 5: PASS")


@pytest.fixture(scope="module")
def rscan_sweep():
    return [rscan_distance(RScanConfig(n=n, r=2, a=1.0), RSCAN_REPS, RATE_SEED)
            for n in RSCAN_SCALES]


@pytest.mark.slow
def test_acceptance_6_rscan_rate_reproduction(rscan_sweep):
    detail = "; ".join(
        f"n={n}: tv={res.tv:.5f} floor={res.tv_floor:.5f} "
        f"bound={res.bound_l1:.1f}"
        for n, res in zip(RSCAN_SCALES, rscan_sweep))
    for n, res in zip(RSCAN_SCALES, rscan_sweep):
        assert res.tv - res.tv_floor <= res.bound_l1, f"dominance at n={n}"
    fit = fit_rate(list(zip(RSCAN_SCALES, (r.tv for r in rscan_sweep))))
    verdict = "PASS" if -0.65 <= fit.slope <= -0.35 else "FAIL"
    print(f"acceptance 6: {verdict} (raw tv slope {fit.slope:.3f}, "
          f"target [-0.65, -0.35]; dominance holds at every n; {detail})")
    assert -0.65 <= fit.slope <= -0.35, (
        f"raw empirical tv slope {fit.slope:.3f} outside [-0.65, -0.35]; "
        f"the sampling-noise floor dominates the large-n points at "
        f"{RSCAN_REPS} reps ({detail})")


@pytest.fixture(scope="module")
def matern_sweep():
    return [matern_distance(MaternConfig.from_intensity_product(1, lam, 1.0),
                            MATERN_REPS, RATE_SEED)
            for lam in MATERN_SCALES]


@pytest.mark.slow
def test_acceptance_7_matern_rate_reproduction(matern_sweep):
    for lam, res in zip(MATERN_SCALES, matern_sweep):
        cfg = MaternConfig.from_intensity_product(1, lam, 1.0)
        assert res.tv - res.tv_floor <= res.bound_l1, f"dominance at lam={lam}"
        assert res.loc - res.loc_floor <= res.bound_l2

        # Simulated moments against the closed forms, at 3 combined sigma.
        emp = res.empirical
        s2 = emp.variance()
        se_mean = math.sqrt(s2 / res.reps)
        assert abs(emp.mean()) <= 3 * se_mean + 1e-6, f"mean at lam={lam}"
        m4 = float(np.dot(np.abs(emp.positions - emp.mean()) ** 4,
                          emp.probs))
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / res.reps)
        exact_var, _ = variance_total(cfg)
        assert abs(s2 - exact_var) <= 3 * se_var, f"variance at lam={lam}"

    fit = fit_rate(list(zip(MATERN_SCALES, (r.tv for r in matern_sweep))))
    detail = "; ".join(
        f"lam={lam:.0f}: tv={res.tv:.5f} floor={res.tv_floor:.5f}"
        for lam, res in zip(MATERN_SCALES, matern_sweep))
    verdict = "PASS" if -0.7 <= fit.slope <= -0.3 else "FAIL"
    print(f"acceptance 7: {verdict} (raw tv slope {fit.slope:.3f}, "
          f"target [-0.7, -0.3]; dominance and moment checks hold; {detail})")
    assert -0.7 <= fit.slope <= -0.3, (
        f"raw empirical tv slope {fit.slope:.3f} outside [-0.7, -0.3]; "
        f"the sampling-noise floor dominates the large-intensity points at "
        f"{MATERN_REPS} reps ({detail})")


def test_acceptance_8_centering_correctness():
    rng = np.random.default_rng(8)
    for _ in range(100):
        s2 = float(rng.uniform(1.0 + 1e-6, 500.0))
        a = float(rng.random())
        cb = centered_binomial(centering_params(s2, a))
        assert abs(cb.mean()) < 1e-9
        gap = abs(cb.offset - a) % 1.0
        assert min(gap, 1.0 - gap) < 1e-9
    print("acceptance 8: PASS")
