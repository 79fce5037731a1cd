"""Point estimators against dense dummy-variable oracles and their invariants."""

import numpy as np
import pytest

from panelmg import (
    Method,
    OutOfRange,
    PanelData,
    RankDeficient,
    SingularCapacitance,
    TooFewPeriods,
    compute_ridge_kappa,
    double_demean,
    estimate,
    jackknife,
)
from oracles import (
    lsdv_pooled_slopes,
    lsdv_unit_slopes,
    per_unit_ols_slopes,
    projection_double_demean,
    random_panel,
)


def make_panel(seed=0, n=6, t=5, k=2, **kw):
    y, x, beta = random_panel(seed, n, t, k, **kw)
    return PanelData.from_arrays(y, x), beta


SHAPES = [(3, 4, 1), (5, 5, 2), (8, 6, 3), (12, 8, 2), (4, 8, 1)]


class TestDenseOracleEquivalence:
    @pytest.mark.parametrize("n,t,k", SHAPES)
    def test_tw_mg_unit_slopes(self, n, t, k):
        panel, _ = make_panel(seed=n * 100 + t, n=n, t=t, k=k)
        est = estimate(panel, "tw-mg")
        want = lsdv_unit_slopes(np.asarray(panel.y), np.asarray(panel.x))
        assert np.abs(est.unit_slopes - want).max() <= 1e-8
        np.testing.assert_allclose(est.beta_hat, est.unit_slopes.mean(axis=0))
        assert est.method is Method.TW_MG
        assert est.kappa_used is None

    @pytest.mark.parametrize("n,t,k", SHAPES)
    def test_tw_pooled(self, n, t, k):
        panel, _ = make_panel(seed=n * 100 + t + 1, n=n, t=t, k=k)
        est = estimate(panel, "tw-pooled")
        want = lsdv_pooled_slopes(np.asarray(panel.y), np.asarray(panel.x))
        assert np.abs(est.beta_hat - want).max() <= 1e-8
        assert est.unit_slopes is None

    @pytest.mark.parametrize("n,t,k", SHAPES)
    def test_standard_mg(self, n, t, k):
        panel, _ = make_panel(seed=n * 100 + t + 2, n=n, t=t, k=k)
        est = estimate(panel, "mg")
        want = per_unit_ols_slopes(np.asarray(panel.y), np.asarray(panel.x))
        assert np.abs(est.unit_slopes - want).max() <= 1e-8
        np.testing.assert_allclose(est.beta_hat, want.mean(axis=0), atol=1e-8)


class TestRidge:
    def test_zero_kappa_reproduces_plain_estimator(self):
        panel, _ = make_panel(seed=5)
        plain = estimate(panel, "tw-mg")
        ridge = estimate(panel, "tw-mg-ridge", kappa=0.0)
        assert np.array_equal(ridge.unit_slopes, plain.unit_slopes)
        assert np.array_equal(ridge.beta_hat, plain.beta_hat)
        assert ridge.kappa_used == 0.0
        assert ridge.method is Method.TW_MG_RIDGE

    def test_default_kappa_is_recorded_data_driven_shift(self):
        panel, _ = make_panel(seed=6, n=9, t=4, k=2)
        est = estimate(panel, "tw-mg-ridge")
        assert est.kappa_used == compute_ridge_kappa(panel)
        assert est.kappa_used > 0.0

    def test_kappa_formula_median_determinant_over_n(self):
        panel, _ = make_panel(seed=7, n=8, t=5, k=2)  # even N: median midpoint
        xdd = projection_double_demean(np.asarray(panel.x))
        dets = [
            np.linalg.det(xdd[i].T @ xdd[i] / panel.n_periods)
            for i in range(panel.n_units)
        ]
        want = max(float(np.median(dets)), 0.0) / panel.n_units
        assert compute_ridge_kappa(panel) == pytest.approx(want, rel=1e-12)

    def test_ridge_matches_dense_shifted_system(self):
        panel, _ = make_panel(seed=8, n=5, t=4, k=1)
        kappa = 0.3
        est = estimate(panel, "tw-mg-ridge", kappa=kappa)
        dp = double_demean(panel)
        from oracles import dense_gram

        q = dense_gram(np.asarray(dp.x_unit_dm), kappa)
        rhs = (
            np.einsum("ntk,nt->nk", dp.x_unit_dm, dp.y_dd) / panel.n_periods
        ).ravel()
        want = np.linalg.solve(q, rhs).reshape(panel.n_units, 1)
        np.testing.assert_allclose(est.unit_slopes, want, atol=1e-10)

    def test_negative_kappa_rejected(self):
        panel, _ = make_panel()
        with pytest.raises(ValueError):
            estimate(panel, "tw-mg-ridge", kappa=-0.1)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -1.0])
    def test_bad_ridge_shift_is_out_of_range(self, kappa):
        panel, _ = make_panel()
        with pytest.raises(OutOfRange, match="kappa must be nonnegative"):
            estimate(panel, "tw-mg-ridge", kappa=kappa)
        with pytest.raises(OutOfRange, match="kappa must be nonnegative"):
            jackknife(panel, "tw-mg-ridge", kappa=kappa)

    def test_ridge_tolerates_t_equal_k_plus_one(self):
        panel, _ = make_panel(seed=9, n=8, t=2, k=1)
        with pytest.raises(TooFewPeriods):
            estimate(panel, "tw-mg")
        est = estimate(panel, "tw-mg-ridge")
        assert np.isfinite(est.beta_hat).all()


class TestInvariances:
    def shift(self, panel, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 5.0, panel.n_units)
        b = rng.normal(0.0, 5.0, panel.n_periods)
        return PanelData.from_arrays(panel.y + a[:, None] + b[None, :], panel.x)

    def test_fixed_effect_shift_invariance(self):
        panel, _ = make_panel(seed=30, n=7, t=6, k=2)
        shifted = self.shift(panel, 31)
        kappa = compute_ridge_kappa(panel)
        for base, moved in [
            (estimate(panel, "tw-mg"), estimate(shifted, "tw-mg")),
            (
                estimate(panel, "tw-mg-ridge", kappa=kappa),
                estimate(shifted, "tw-mg-ridge", kappa=kappa),
            ),
            (estimate(panel, "tw-pooled"), estimate(shifted, "tw-pooled")),
        ]:
            assert np.abs(base.beta_hat - moved.beta_hat).max() <= 1e-8

    def test_regressor_scaling_equivariance(self):
        panel, _ = make_panel(seed=32, n=6, t=6, k=2)
        c = 3.7
        x_scaled = np.asarray(panel.x).copy()
        x_scaled[:, :, 0] *= c
        scaled = PanelData.from_arrays(panel.y, x_scaled)
        for method in ("tw-mg", "tw-pooled", "mg"):
            base = estimate(panel, method).beta_hat
            got = estimate(scaled, method).beta_hat
            assert got[0] == pytest.approx(base[0] / c, rel=1e-9)
            assert got[1] == pytest.approx(base[1], rel=1e-9)

    def test_unit_permutation_invariance(self):
        panel, _ = make_panel(seed=33, n=9, t=5, k=2)
        perm = np.random.default_rng(33).permutation(panel.n_units)
        permuted = PanelData.from_arrays(
            panel.y[perm],
            panel.x[perm],
            unit_labels=[panel.unit_labels[i] for i in perm],
        )
        for method in ("tw-mg", "tw-pooled", "mg"):
            base, moved = estimate(panel, method), estimate(permuted, method)
            np.testing.assert_allclose(moved.beta_hat, base.beta_hat, atol=1e-12)
            if base.unit_slopes is not None:
                np.testing.assert_allclose(
                    moved.unit_slopes, base.unit_slopes[perm], atol=1e-12
                )

    def test_homogeneous_noise_free_panel_is_recovered_exactly(self):
        rng = np.random.default_rng(34)
        n, t = 6, 5
        x = rng.normal(size=(n, t, 1))
        a, b = rng.normal(size=n), rng.normal(size=t)
        y_two_way = 2.5 * x[:, :, 0] + a[:, None] + b[None, :]
        panel = PanelData.from_arrays(y_two_way, x)
        for method in ("tw-mg", "tw-pooled"):
            assert estimate(panel, method).beta_hat[0] == pytest.approx(2.5, abs=1e-10)
        # the plain mean-group benchmark needs a DGP without time effects
        y_one_way = 2.5 * x[:, :, 0] + a[:, None]
        assert estimate(
            PanelData.from_arrays(y_one_way, x), "mg"
        ).beta_hat[0] == pytest.approx(2.5, abs=1e-10)


class TestFailureModes:
    def test_too_few_periods(self):
        panel, _ = make_panel(seed=40, n=5, t=3, k=2)  # T == K + 1
        with pytest.raises(TooFewPeriods):
            estimate(panel, "tw-mg")
        with pytest.raises(TooFewPeriods):
            estimate(panel, "mg")

    def test_constant_regressor_names_unit(self):
        y, x, _ = random_panel(41, 6, 5, 1)
        x[3, :, 0] = 1.0
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(RankDeficient, match="'u4'") as info:
            estimate(panel, "tw-mg")
        assert info.value.units == ("u4",)
        with pytest.raises(RankDeficient) as info:
            estimate(panel, "mg")
        assert info.value.units == ("u4",)

    def test_two_way_structure_only_regressor(self):
        # x made of pure unit and time effects: annihilated by double
        # demeaning, so the pooled design is rank deficient, while the
        # mean-group system fails in the cross-section coupling.
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=6), rng.normal(size=5)
        x = (a[:, None] + b[None, :])[:, :, None]
        panel = PanelData.from_arrays(rng.normal(size=(6, 5)), x)
        with pytest.raises(RankDeficient):
            estimate(panel, "tw-pooled")
        with pytest.raises(SingularCapacitance):
            estimate(panel, "tw-mg")


class TestDispatcher:
    def test_string_and_enum_dispatch(self):
        panel, _ = make_panel(seed=50)
        for method in Method:
            by_name = estimate(panel, method.value, kappa=0.2)
            by_enum = estimate(panel, method, kappa=0.2)
            assert np.array_equal(by_name.beta_hat, by_enum.beta_hat)
            assert by_name.method is by_enum.method is method

    def test_unknown_method(self):
        panel, _ = make_panel()
        with pytest.raises(ValueError):
            estimate(panel, "two-way-og")

    def test_kappa_ignored_outside_ridge(self):
        panel, _ = make_panel(seed=51)
        got = estimate(panel, "tw-mg", kappa=123.0)
        assert np.array_equal(got.beta_hat, estimate(panel, "tw-mg").beta_hat)

    def test_results_are_read_only(self):
        panel, _ = make_panel(seed=52)
        est = estimate(panel, "tw-mg")
        with pytest.raises(ValueError):
            est.beta_hat[0] = 0.0
        with pytest.raises(ValueError):
            est.unit_slopes[0, 0] = 0.0
