"""Top-level acceptance checks, one test per criterion.

Each test wraps its assertions in ``criterion`` so the run ends with a
pass/fail line per criterion in the terminal summary. The Monte Carlo
criteria share one module-scoped 250-replication run with a fixed seed.
"""

import contextlib
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracles import lsdv_pooled_slopes, lsdv_unit_slopes, random_panel
from panelmg import (
    PanelData,
    compute_ridge_kappa,
    confidence_interval,
    estimate,
    holm_adjust,
    jackknife,
    poolability_test,
    run_monte_carlo,
)

BASE_SEED = 20260815
REPLICATIONS = 250
CELLS = [
    (1, 200, 10),
    (2, 200, 10),
    (3, 200, 10),
    (4, 200, 10),
    (1, 100, 5),
    (2, 100, 5),
    (3, 100, 5),
    (4, 100, 5),
    (5, 200, 3),
]
ESTIMATORS = ["tw-mg", "tw-mg-ridge", "tw-pooled", "mg"]


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        record_criterion(f"[FAIL] criterion {number}: {label}")
        raise
    record_criterion(f"[PASS] criterion {number}: {label}")


@pytest.fixture(scope="module")
def mc_report():
    return run_monte_carlo(CELLS, ESTIMATORS, REPLICATIONS, BASE_SEED)


def cell_of(report, dgp_id, n_units, n_periods, estimator):
    for c in report.cells:
        if (c.dgp_id, c.n_units, c.n_periods, c.estimator) == (
            dgp_id,
            n_units,
            n_periods,
            estimator,
        ):
            assert c.failures == 0
            return c
    raise LookupError((dgp_id, n_units, n_periods, estimator))


def test_criterion_1_dense_oracle_equivalence():
    label = "per-unit, pooled, and leave-one-out estimates match dense dummy OLS"
    with criterion(1, label):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        done = 0
        while done < 200:
            k = int(rng.integers(1, 4))
            t = int(rng.integers(k + 2, 9))
            n = int(rng.integers(3, 13))
            if (n - 1) * (t - k - 1) < t - 1:
                # the joint dummy regression, on the full panel or on a
                # leave-one-out subsample, would have more columns than rows
                continue
            y, x, _ = random_panel(int(rng.integers(2**32)), n, t, k)
            panel = PanelData.from_arrays(y, x)

            est = estimate(panel, "tw-mg")
            assert np.abs(est.unit_slopes - lsdv_unit_slopes(y, x)).max() <= 1e-8
            pooled = estimate(panel, "tw-pooled")
            assert np.abs(pooled.beta_hat - lsdv_pooled_slopes(y, x)).max() <= 1e-8

            jk_mg = jackknife(panel, "tw-mg")
            jk_pooled = jackknife(panel, "tw-pooled")
            for i in range(n):
                sub_y = np.delete(y, i, axis=0)
                sub_x = np.delete(x, i, axis=0)
                want_mg = lsdv_unit_slopes(sub_y, sub_x).mean(axis=0)
                assert np.abs(jk_mg.loo_estimates[i] - want_mg).max() <= 1e-8
                want_pooled = lsdv_pooled_slopes(sub_y, sub_x)
                assert np.abs(jk_pooled.loo_estimates[i] - want_pooled).max() <= 1e-8
            done += 1
        assert time.perf_counter() - start < 30.0


def test_criterion_2_common_slope_metrics(mc_report):
    label = "bias and mse of all three estimators under a common slope at N=200, T=10"
    with criterion(2, label):
        tw = cell_of(mc_report, 1, 200, 10, "tw-mg")
        assert -0.15 <= tw.bias_x10[0] <= 0.15
        assert 0.06 <= tw.mse_x100[0] <= 0.18
        pooled = cell_of(mc_report, 1, 200, 10, "tw-pooled")
        assert 0.08 <= pooled.mse_x100[0] <= 0.25
        mg = cell_of(mc_report, 1, 200, 10, "mg")
        assert 6.0 <= mg.bias_x10[0] <= 8.5
        assert tw.wall_time_s < 300.0


def test_criterion_3_pooling_inconsistency_signature(mc_report):
    label = "pooled slope is biased under coupled slopes while the mean group stays centered"
    with criterion(3, label):
        pooled = cell_of(mc_report, 3, 200, 10, "tw-pooled")
        assert 4.2 <= pooled.bias_x10[0] <= 6.2
        tw = cell_of(mc_report, 3, 200, 10, "tw-mg")
        assert abs(tw.bias_x10[0]) <= 0.2


def test_criterion_4_interval_coverage(mc_report):
    label = "jackknife 95% interval coverage stays in [0.90, 0.99] at N=100, T=5"
    with criterion(4, label):
        for dgp_id in (1, 2, 3, 4):
            for estimator in ("tw-mg", "tw-mg-ridge"):
                c = cell_of(mc_report, dgp_id, 100, 5, estimator)
                assert c.coverage_95 is not None
                for value in c.coverage_95:
                    assert 0.90 <= value <= 0.99


def test_criterion_5_test_size_and_power(mc_report):
    label = "homogeneity test size at most 0.10 and power at least 0.95 at N=200, T=10"
    with criterion(5, label):
        for estimator in ("tw-mg", "tw-mg-ridge"):
            for dgp_id in (1, 2):
                c = cell_of(mc_report, dgp_id, 200, 10, estimator)
                assert c.rejection_rate_5pct is not None
                assert c.rejection_rate_5pct <= 0.10
            for dgp_id in (3, 4):
                c = cell_of(mc_report, dgp_id, 200, 10, estimator)
                assert c.rejection_rate_5pct >= 0.95


def test_criterion_6_short_panel_metrics(mc_report):
    label = "three-period panel keeps mean-group mse moderate and pooled bias large"
    with criterion(6, label):
        tw = cell_of(mc_report, 5, 200, 3, "tw-mg")
        assert 0.8 <= tw.mse_x100[0] <= 2.1
        pooled = cell_of(mc_report, 5, 200, 3, "tw-pooled")
        assert 4.2 <= pooled.bias_x10[0] <= 6.4


def test_criterion_7_invariance_suite():
    label = "shift, scaling, and permutation invariances with psd jackknife and J >= 0"
    with criterion(7, label):
        for seed in (7, 17):
            y, x, _ = random_panel(seed, 10, 6, 2)
            panel = PanelData.from_arrays(y, x)
            rng = np.random.default_rng(seed + 1)

            shift = rng.standard_normal(10)[:, None] + rng.standard_normal(6)[None, :]
            shifted = PanelData.from_arrays(y + shift, x)
            kappa = compute_ridge_kappa(panel)
            for method, kw in (
                ("tw-mg", {}),
                ("tw-mg-ridge", {"kappa": kappa}),
                ("tw-pooled", {}),
            ):
                base = estimate(panel, method, **kw)
                moved = estimate(shifted, method, **kw)
                assert np.abs(base.beta_hat - moved.beta_hat).max() <= 1e-8

            c = 3.0
            xs = x.copy()
            xs[:, :, 0] *= c
            scaled = PanelData.from_arrays(y, xs)
            for method in ("tw-mg", "tw-pooled", "mg"):
                base = estimate(panel, method).beta_hat
                got = estimate(scaled, method).beta_hat
                assert abs(got[0] - base[0] / c) <= 1e-9 * max(1.0, abs(base[0]))
                assert abs(got[1] - base[1]) <= 1e-9 * max(1.0, abs(base[1]))

            jk = jackknife(panel, "tw-mg")
            assert np.linalg.eigvalsh(jk.omega_hat).min() >= -1e-10
            jk_scaled = jackknife(scaled, "tw-mg")
            np.testing.assert_allclose(
                jk_scaled.omega_hat[0, 0], jk.omega_hat[0, 0] / c**2, rtol=1e-6
            )
            ci = confidence_interval(estimate(panel, "tw-mg"), jk, coefficient=0)
            ci_scaled = confidence_interval(
                estimate(scaled, "tw-mg"), jk_scaled, coefficient=0
            )
            np.testing.assert_allclose(
                ci_scaled.upper - ci_scaled.lower,
                (ci.upper - ci.lower) / c,
                rtol=1e-6,
            )

            perm = rng.permutation(10)
            permuted = PanelData.from_arrays(y[perm], x[perm])
            base = estimate(panel, "tw-mg").beta_hat
            assert np.abs(estimate(permuted, "tw-mg").beta_hat - base).max() <= 1e-10
            np.testing.assert_allclose(
                jackknife(permuted, "tw-mg").omega_hat,
                jk.omega_hat,
                rtol=1e-9,
                atol=1e-12,
            )

            report = poolability_test(panel)
            assert report.joint_stat >= 0.0
            np.testing.assert_allclose(
                poolability_test(scaled).joint_stat, report.joint_stat, rtol=1e-6
            )
            assert poolability_test(permuted).joint_stat >= 0.0


def test_criterion_8_stepdown_adjustment_exactness():
    label = "step-down adjusted p-values match the documented trio bit for bit"
    with criterion(8, label):
        got = holm_adjust([0.027, 0.019, 0.009])
        assert got == [0.027, 2 * 0.019, 3 * 0.009]
        assert [round(v, 3) for v in got] == [0.027, 0.038, 0.027]


def test_criterion_9_performance_contract():
    label = "large-panel time budget holds and doubling N at most triples solve time"
    with criterion(9, label):
        y, x, _ = random_panel(9, 5000, 10, 2)
        big = PanelData.from_arrays(y, x)
        start = time.perf_counter()
        estimate(big, "tw-mg")
        assert time.perf_counter() - start < 2.0

        y, x, _ = random_panel(10, 1000, 10, 2)
        mid = PanelData.from_arrays(y, x)
        start = time.perf_counter()
        jackknife(mid, "tw-mg")
        assert time.perf_counter() - start < 30.0

        y, x, _ = random_panel(11, 2500, 10, 2)
        half = PanelData.from_arrays(y, x)
        y, x, _ = random_panel(12, 5000, 10, 2)
        full = PanelData.from_arrays(y, x)
        # The two sizes are timed in turn, so a slow spell hits both.
        times = {"half": [], "full": []}
        for _ in range(15):
            for name, panel in (("half", half), ("full", full)):
                t0 = time.perf_counter()
                estimate(panel, "tw-mg")
                times[name].append(time.perf_counter() - t0)
        assert min(times["full"]) <= 3.0 * min(times["half"])
