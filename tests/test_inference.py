"""Jackknife covariance, confidence intervals, tail probabilities, and the
slope-homogeneity test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, ndtri

from panelmg import (
    DegenerateJackknife,
    MethodMismatch,
    OutOfRange,
    PanelData,
    SingularCapacitance,
    SingularOmegaDelta,
    TooSmall,
    chi_square_upper_tail,
    compute_ridge_kappa,
    confidence_interval,
    estimate,
    holm_adjust,
    jackknife,
    normal_quantile_upper,
    poolability_test,
)
import panelmg.inference as inference
from panelmg.inference import joint_statistics
from oracles import literal_loo, random_panel


def make_panel(seed=0, n=10, t=6, k=2, **kw):
    y, x, _ = random_panel(seed, n, t, k, **kw)
    return PanelData.from_arrays(y, x)


class TestChiSquareTail:
    def test_df2_closed_form(self):
        for x in (0.0, 0.3, 1.7, 5.0, 20.0):
            assert chi_square_upper_tail(x, 2) == pytest.approx(
                math.exp(-x / 2.0), rel=1e-12
            )

    def test_df1_closed_form(self):
        for x in (0.01, 0.5, 3.84, 10.0):
            assert chi_square_upper_tail(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), rel=1e-12
            )

    def test_df4_closed_form(self):
        for x in (0.2, 2.0, 9.49):
            want = math.exp(-x / 2.0) * (1.0 + x / 2.0)
            assert chi_square_upper_tail(x, 4) == pytest.approx(want, rel=1e-12)

    def test_boundaries_and_domain(self):
        assert chi_square_upper_tail(0.0, 3) == 1.0
        assert chi_square_upper_tail(1e9, 3) == pytest.approx(0.0, abs=1e-300)
        with pytest.raises(OutOfRange):
            chi_square_upper_tail(-0.1, 1)
        with pytest.raises(OutOfRange):
            chi_square_upper_tail(float("nan"), 1)
        with pytest.raises(OutOfRange):
            chi_square_upper_tail(1.0, 0)

    @pytest.mark.parametrize("df", [2.5, 3.0, "3", None])
    def test_df_must_be_an_integer(self, df):
        with pytest.raises(OutOfRange, match="integer"):
            chi_square_upper_tail(3.0, df)

    def test_series_matches_scipy(self):
        x = np.concatenate([[0.0], np.logspace(-10, math.log10(3000.0), 300)])
        for df in range(1, 61):
            got = inference.chi_square_tails(x, df)
            want = gammaincc(df / 2.0, x / 2.0)
            seen = want > 1e-290
            np.testing.assert_allclose(got[seen], want[seen], rtol=1e-12, atol=0.0)
            assert got[0] == 1.0
            for xi, gi in zip(x[::29], got[::29]):
                assert inference.chi_square_tails(xi, df) == gi
            assert chi_square_upper_tail(float(x[-50]), df) == got[-50]
            assert np.isnan(inference.chi_square_tails(np.nan, df))


class TestNormalQuantile:
    @staticmethod
    def bisect_quantile(tail, lo=-40.0, hi=40.0):
        def upper(z):
            return 0.5 * math.erfc(z / math.sqrt(2.0))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if upper(mid) > tail:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_matches_bisection_oracle(self):
        for tail in (0.4, 0.25, 0.1, 0.025, 0.005, 0.0005):
            assert normal_quantile_upper(tail) == pytest.approx(
                self.bisect_quantile(tail), abs=1e-9
            )

    def test_known_value_and_symmetry(self):
        assert normal_quantile_upper(0.025) == pytest.approx(1.959963985, abs=1e-8)
        assert normal_quantile_upper(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile_upper(0.9) == pytest.approx(
            -normal_quantile_upper(0.1), abs=1e-12
        )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(OutOfRange):
                normal_quantile_upper(bad)

    def test_matches_scipy(self):
        for tail in np.logspace(-300.0, math.log10(0.5), 1000):
            want = -ndtri(tail)
            assert normal_quantile_upper(tail) == pytest.approx(want, rel=2e-15, abs=0.0)


def holm_reference(pvalues):
    """Independent re-derivation: sort, multiply by (K - rank), map back."""
    k = len(pvalues)
    order = sorted(range(k), key=lambda i: pvalues[i])
    out = [0.0] * k
    for rank, idx in enumerate(order):
        out[idx] = min((k - rank) * pvalues[idx], 1.0)
    return out


class TestHolm:
    def test_reported_triple_bit_level(self):
        got = holm_adjust([0.027, 0.019, 0.009])
        assert got == [0.027, 2 * 0.019, 3 * 0.009]
        assert [round(v, 3) for v in got] == [0.027, 0.038, 0.027]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_matches_reference(self, pvalues):
        got = holm_adjust(pvalues)
        want = holm_reference(pvalues)
        assert got == pytest.approx(want, abs=0.0)
        for raw, adj in zip(pvalues, got):
            assert adj >= raw
            assert adj <= 1.0

    def test_stable_on_ties(self):
        assert holm_adjust([0.02, 0.02]) == [0.04, 0.02]

    def test_domain(self):
        with pytest.raises(OutOfRange):
            holm_adjust([])
        with pytest.raises(OutOfRange):
            holm_adjust([0.5, 1.2])
        with pytest.raises(OutOfRange):
            holm_adjust([-0.1])
        with pytest.raises(OutOfRange):
            holm_adjust([float("nan")])


class TestJackknife:
    @pytest.mark.parametrize("method", ["tw-mg", "tw-mg-ridge", "tw-pooled", "mg"])
    def test_loo_estimates_reproduce_public_estimator_bit_for_bit(self, method):
        # The jackknife downdates full-sample sums instead of re-estimating,
        # so agreement is to rounding error rather than bit for bit.
        panel = make_panel(seed=60, n=8, t=6, k=2)
        kappa = compute_ridge_kappa(panel) if method == "tw-mg-ridge" else None
        jk = jackknife(panel, method)
        for i in range(panel.n_units):
            redo = estimate(panel.without_unit(i), method, kappa=kappa).beta_hat
            bound = 1e-12 * np.maximum(1.0, np.abs(redo))
            assert np.all(np.abs(jk.loo_estimates[i] - redo) <= bound)

    def test_omega_formula(self):
        panel = make_panel(seed=61, n=9, t=5, k=2)
        jk = jackknife(panel, "tw-mg")
        loo = jk.loo_estimates
        centered = loo - loo.mean(axis=0)
        want = (panel.n_units - 1) * (centered.T @ centered)
        np.testing.assert_allclose(jk.omega_hat, want, atol=1e-12)

    def test_omega_is_psd_and_symmetric(self):
        panel = make_panel(seed=62, n=12, t=6, k=3)
        omega = jackknife(panel, "tw-mg").omega_hat
        np.testing.assert_allclose(omega, omega.T, atol=0.0)
        w = np.linalg.eigvalsh(omega)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)

    def test_omega_unit_permutation_invariant(self):
        panel = make_panel(seed=63, n=8, t=5, k=1)
        perm = np.random.default_rng(63).permutation(panel.n_units)
        permuted = PanelData.from_arrays(
            panel.y[perm],
            panel.x[perm],
            unit_labels=[panel.unit_labels[i] for i in perm],
        )
        np.testing.assert_allclose(
            jackknife(permuted, "tw-mg").omega_hat,
            jackknife(panel, "tw-mg").omega_hat,
            rtol=1e-9,
        )

    def test_ridge_kappa_policies(self):
        panel = make_panel(seed=64, n=7, t=4, k=2)
        fixed = jackknife(panel, "tw-mg-ridge")
        assert fixed.kappa_used == compute_ridge_kappa(panel)
        explicit = jackknife(panel, "tw-mg-ridge", kappa=0.05)
        assert explicit.kappa_used == 0.05
        # the shift is held on every subsample; there is no per-subsample policy
        for policy in ("fixed", "recomputed"):
            with pytest.raises(TypeError, match="kappa_policy"):
                jackknife(panel, "tw-mg-ridge", kappa_policy=policy)

    def test_needs_three_units(self):
        panel = make_panel(seed=65, n=2, t=6, k=1)
        with pytest.raises(TooSmall):
            jackknife(panel, "tw-pooled")

    def test_degenerate_when_units_are_identical(self):
        rng = np.random.default_rng(66)
        x_row = rng.normal(size=(1, 6, 1))
        x = np.repeat(x_row, 4, axis=0)
        y = 2.0 * x[:, :, 0] + 1.0
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(DegenerateJackknife):
            jackknife(panel, "mg")

    def test_subsample_failure_names_removed_unit(self):
        # units B and C are proportional to a common series; removing A makes
        # the remaining cross-section collinear with the time effects
        rng = np.random.default_rng(67)
        w = rng.normal(size=6)
        x = np.stack([rng.normal(size=6), 2.0 * w, -1.0 * w])[:, :, None]
        y = rng.normal(size=(3, 6))
        panel = PanelData.from_arrays(y, x, unit_labels=("A", "B", "C"))
        estimate(panel, "tw-mg")  # the full panel itself is fine
        with pytest.raises(SingularCapacitance, match="unit 'A' removed") as got:
            jackknife(panel, "tw-mg")
        with pytest.raises(SingularCapacitance) as want:
            literal_loo(panel, "tw-mg")
        assert str(got.value) == str(want.value)


class TestConfidenceInterval:
    def test_formula(self):
        panel = make_panel(seed=70, n=10, t=6, k=2)
        est = estimate(panel, "tw-mg")
        jk = jackknife(panel, "tw-mg")
        ci = confidence_interval(est, jk, level=0.90, coefficient=1)
        z = normal_quantile_upper(0.05)
        se = math.sqrt(jk.omega_hat[1, 1] / panel.n_units)
        assert ci.point == est.beta_hat[1]
        assert ci.std_error == pytest.approx(se, rel=1e-12)
        assert ci.lower == pytest.approx(ci.point - z * se, rel=1e-12)
        assert ci.upper == pytest.approx(ci.point + z * se, rel=1e-12)
        assert ci.lower <= ci.point <= ci.upper
        assert ci.upper - ci.lower == pytest.approx(2 * z * se, rel=1e-12)

    def test_method_mismatch(self):
        panel = make_panel(seed=71)
        est = estimate(panel, "tw-mg")
        jk = jackknife(panel, "tw-pooled")
        with pytest.raises(MethodMismatch):
            confidence_interval(est, jk)

    def test_domain(self):
        panel = make_panel(seed=72)
        est = estimate(panel, "tw-mg")
        jk = jackknife(panel, "tw-mg")
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(OutOfRange):
                confidence_interval(est, jk, level=level)
        for coef in (-1, panel.n_regressors):
            with pytest.raises(OutOfRange):
                confidence_interval(est, jk, coefficient=coef)


class TestJointStatistic:
    def test_singular_omega_delta_is_refused(self, monkeypatch):
        for delta, omega in [(np.ones(2), np.ones((2, 2))), (np.ones(1), np.zeros((1, 1)))]:
            joint, singular = joint_statistics(delta, omega, 10)
            assert singular
            assert joint == 0.0
        real = inference.fit

        def same_contrast(panel, methods, kappa=None, loo=None):
            f = real(panel, methods, kappa, loo)
            f.loo[methods[1]] = f.loo[methods[0]]
            return f

        monkeypatch.setattr(inference, "fit", same_contrast)
        with pytest.raises(SingularOmegaDelta, match="numerically singular; the joint"):
            poolability_test(make_panel(seed=90))

    def test_value_against_direct_inverse(self):
        omega = np.array([[2.0, 0.3], [0.3, 1.0]])
        delta = np.array([0.5, -0.2])
        want = 25 * delta @ np.linalg.inv(omega) @ delta
        joint, singular = joint_statistics(delta, omega, 25)
        assert not singular
        assert joint == pytest.approx(want, rel=1e-12)


class TestPoolabilityTest:
    def test_report_internals_are_consistent(self):
        panel = make_panel(seed=80, n=12, t=6, k=2, slope_spread=0.5)
        report = poolability_test(panel)
        mg = estimate(panel, "tw-mg")
        pooled = estimate(panel, "tw-pooled")
        np.testing.assert_allclose(
            report.delta, mg.beta_hat - pooled.beta_hat, atol=1e-14
        )
        assert report.joint_df == panel.n_regressors
        assert report.joint_stat >= 0.0
        assert report.joint_pvalue == pytest.approx(
            chi_square_upper_tail(report.joint_stat, report.joint_df), rel=1e-12
        )
        assert not report.ridge_based and report.kappa_used is None
        raw = [t.p_value for t in report.per_coef]
        holm = [t.holm_p_value for t in report.per_coef]
        assert holm == holm_adjust(raw)
        n = panel.n_units
        for j, t in enumerate(report.per_coef):
            stat = n * report.delta[j] ** 2 / report.omega_delta[j, j]
            assert t.statistic == pytest.approx(stat, rel=1e-12)
            assert t.p_value == pytest.approx(
                chi_square_upper_tail(t.statistic, 1), rel=1e-12
            )
            assert t.coefficient_index == j

    def test_ridge_variant(self):
        panel = make_panel(seed=81, n=10, t=4, k=2)
        report = poolability_test(panel, use_ridge=True)
        assert report.ridge_based
        assert report.kappa_used == compute_ridge_kappa(panel)

    def test_homogeneous_panel_keeps_null(self):
        panel = make_panel(seed=84, n=80, t=6, k=1, slope_spread=0.0)
        report = poolability_test(panel)
        assert report.joint_pvalue > 0.10

    def test_correlated_slopes_reject(self):
        # slopes enter the regressor shock variance, the design pooling breaks on
        from panelmg import DgpSpec, simulate_dgp

        panel, _ = simulate_dgp(DgpSpec(3, 300, 6, 83))
        report = poolability_test(panel)
        assert report.joint_pvalue < 0.01
        assert report.per_coef[0].p_value < 0.01

    def test_invariance_under_shift_and_permutation(self):
        panel = make_panel(seed=84, n=10, t=5, k=2, slope_spread=0.4)
        base = poolability_test(panel)
        rng = np.random.default_rng(84)
        a, b = rng.normal(size=panel.n_units), rng.normal(size=panel.n_periods)
        shifted = PanelData.from_arrays(
            panel.y + a[:, None] + b[None, :], panel.x
        )
        assert poolability_test(shifted).joint_stat == pytest.approx(
            base.joint_stat, rel=1e-6
        )
        perm = rng.permutation(panel.n_units)
        permuted = PanelData.from_arrays(
            panel.y[perm],
            panel.x[perm],
            unit_labels=[panel.unit_labels[i] for i in perm],
        )
        assert poolability_test(permuted).joint_stat == pytest.approx(
            base.joint_stat, rel=1e-6
        )

    def test_needs_three_units(self):
        panel = make_panel(seed=85, n=2, t=5, k=1)
        with pytest.raises(TooSmall):
            poolability_test(panel)


class TestScalingEquivariance:
    def test_covariance_ci_and_statistic_scale_correctly(self):
        panel = make_panel(seed=90, n=9, t=6, k=2, slope_spread=0.4)
        c = 4.0
        x_scaled = np.asarray(panel.x).copy()
        x_scaled[:, :, 0] *= c
        scaled = PanelData.from_arrays(panel.y, x_scaled)

        for method in ("tw-mg", "tw-pooled"):
            jk_base = jackknife(panel, method)
            jk_scaled = jackknife(scaled, method)
            assert jk_scaled.omega_hat[0, 0] == pytest.approx(
                jk_base.omega_hat[0, 0] / c**2, rel=1e-8
            )
            assert jk_scaled.omega_hat[1, 1] == pytest.approx(
                jk_base.omega_hat[1, 1], rel=1e-8
            )

        jk_base = jackknife(panel, "tw-mg")
        jk_scaled = jackknife(scaled, "tw-mg")
        ci_base = confidence_interval(
            estimate(panel, "tw-mg"), jk_base, coefficient=0
        )
        ci_scaled = confidence_interval(
            estimate(scaled, "tw-mg"), jk_scaled, coefficient=0
        )
        assert ci_scaled.lower == pytest.approx(ci_base.lower / c, rel=1e-8)
        assert ci_scaled.upper == pytest.approx(ci_base.upper / c, rel=1e-8)

        assert poolability_test(scaled).joint_stat == pytest.approx(
            poolability_test(panel).joint_stat, rel=1e-6
        )

    def test_ridge_scaling_needs_kappa_rescaled(self):
        # with one regressor, multiplying x by c and kappa by c^2 scales the
        # slope system exactly, so Omega_11 scales by 1/c^2
        panel = make_panel(seed=91, n=8, t=5, k=1, slope_spread=0.4)
        c = 2.5
        scaled = PanelData.from_arrays(panel.y, np.asarray(panel.x) * c)
        kappa = compute_ridge_kappa(panel)
        jk = jackknife(panel, "tw-mg-ridge", kappa=kappa)
        jk_scaled = jackknife(scaled, "tw-mg-ridge", kappa=kappa * c**2)
        assert jk_scaled.omega_hat[0, 0] == pytest.approx(
            jk.omega_hat[0, 0] / c**2, rel=1e-8
        )
