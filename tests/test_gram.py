"""The two-way slope solver: agreement with the dense system, and singularity gates."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from panelmg import (
    OutOfRange,
    PanelData,
    RankDeficient,
    SingularCapacitance,
    double_demean,
    estimate,
)
from panelmg.gram import TwoWayFactor, sym_eig_bounds, sym_inv, sym_solve, two_way_slopes
from oracles import dense_gram, random_panel


def demeaned(seed=0, n=6, t=5, k=2):
    y, x, _ = random_panel(seed, n, t, k)
    panel = PanelData.from_arrays(y, x)
    return panel, double_demean(panel)


def dense_slopes(dp, kappa=0.0):
    """Per-unit slopes from the assembled NK x NK system."""
    xu = np.asarray(dp.x_unit_dm)
    n, t, k = xu.shape
    rhs = np.einsum("ntk,nt->nk", xu, dp.y_dd).ravel() / t
    return np.linalg.solve(dense_gram(xu, kappa), rhs).reshape(n, k)


class TestAssembly:
    def test_negative_kappa_rejected(self):
        panel, _ = demeaned()
        for kappa in (-1e-9, np.nan, np.inf):
            with pytest.raises(OutOfRange, match="kappa must be nonnegative"):
                estimate(panel, "tw-mg-ridge", kappa)


class TestSolve:
    def test_matches_dense_solve_across_shapes(self):
        seed = 100
        for k in (1, 2, 3):
            for n in (3, 5, 9, 12):
                for t in (k + 2, 8):
                    seed += 1
                    if n * (t - k - 1) < t - 1:
                        continue  # fewer observations than dummy-OLS columns
                    y, x, _ = random_panel(seed, n, t, k)
                    for scale in (1e-4, 1.0, 1e4):
                        panel = PanelData.from_arrays(y, scale * x)
                        dp = double_demean(panel)
                        for kappa in (0.0, 0.05, 0.1):
                            got = two_way_slopes(TwoWayFactor(dp, kappa))[0]
                            want = dense_slopes(dp, kappa)
                            assert np.all(
                                np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))
                            ), (k, n, t, scale, kappa)

    def test_solve_with_ridge_matches_dense(self):
        panel, dp = demeaned(seed=7, n=6, t=4, k=2)
        np.testing.assert_allclose(
            two_way_slopes(TwoWayFactor(dp, 0.05))[0],
            dense_slopes(dp, 0.05),
            atol=1e-10,
        )


class TestSingularity:
    def test_constant_regressor_unit_is_named(self):
        y, x, _ = random_panel(20, 5, 5, 1)
        x[2, :, 0] = 4.2  # no within variation for the third unit
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(RankDeficient, match="'u3'") as info:
            estimate(panel, "tw-mg")
        assert info.value.units == ("u3",)
        assert "ridge" in str(info.value)

    def test_all_blocks_zero(self):
        y = np.random.default_rng(0).normal(size=(4, 5))
        x = np.tile(np.arange(1.0, 5.0)[:, None, None], (1, 5, 1))
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(RankDeficient) as info:
            estimate(panel, "tw-mg")
        assert info.value.units == panel.unit_labels

    def test_cross_section_collinearity_hits_capacitance(self):
        # x_it = g_i * w_t keeps every per-unit block regular, but per-unit
        # slopes b_i = c / g_i reproduce any multiple of w_t, so the joint
        # system is singular and only the capacitance gate can see it.
        rng = np.random.default_rng(21)
        w = rng.normal(size=6)
        g = np.array([1.0, 2.0, -1.5, 0.5])
        x = np.outer(g, w)[:, :, None]
        y = rng.normal(size=(4, 6))
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(SingularCapacitance):
            estimate(panel, "tw-mg")

    def test_ridge_shift_rescues_capacitance(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=6)
        g = np.array([1.0, 2.0, -1.5, 0.5])
        panel = PanelData.from_arrays(rng.normal(size=(4, 6)), np.outer(g, w)[:, :, None])
        np.testing.assert_allclose(
            estimate(panel, "tw-mg-ridge", 0.1).unit_slopes,
            dense_slopes(double_demean(panel), 0.1),
            atol=1e-10,
        )


class TestSmallSymmetricKernels:
    @pytest.mark.parametrize("k", [1, 2])
    def test_eig_bounds_match_eigvalsh(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(12, k, k))
        blocks = a @ a.transpose(0, 2, 1)
        lo, hi = sym_eig_bounds(blocks)
        w = np.linalg.eigvalsh(blocks)
        np.testing.assert_allclose(lo, w[:, 0], atol=1e-10)
        np.testing.assert_allclose(hi, w[:, -1], atol=1e-10)

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.1])
    def test_eig_bounds_for_k3_bound_or_equal_eigvalsh(self, tol):
        # for K = 3, lo bounds the smallest eigenvalue from below, and the
        # blocks whose bound does not clear 2 tol max(hi) are eigvalsh's
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 3, 3))
        blocks = a @ a.transpose(0, 2, 1)
        blocks[:4, 2] = blocks[:4, 1] = blocks[:4, 0]  # rank one
        blocks[:4, :, 2] = blocks[:4, :, 1] = blocks[:4, :, 0]
        lo, hi = sym_eig_bounds(blocks, tol)
        w = np.linalg.eigvalsh(blocks)
        assert (lo <= w[:, 0]).all()
        refined = lo == w[:, 0]
        assert refined[:4].all() and np.array_equal(hi[refined], w[refined, -1])
        np.testing.assert_allclose(hi, w[:, -1], rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inverse_matches_numpy(self, k):
        rng = np.random.default_rng(k + 10)
        a = rng.normal(size=(9, k, k))
        blocks = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(k)
        np.testing.assert_allclose(sym_inv(blocks), np.linalg.inv(blocks), atol=1e-9)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_solve_matches_cholesky_and_each_panel_alone(self, batch):
        rng = np.random.default_rng(len(batch))
        for m in range(1, 21):
            g = rng.normal(size=(*batch, m, m + 3))
            a = g @ g.swapaxes(-1, -2) / (m + 3)
            b = rng.normal(size=(*batch, m))
            skip = np.zeros(batch, dtype=bool)
            x = sym_solve(a, b, skip)
            for i in np.ndindex(batch):
                want = cho_solve(cho_factor(a[i], lower=True), b[i])
                assert np.abs(x[i] - want).max() <= 1e-12 * np.abs(want).max()
                np.testing.assert_array_equal(sym_solve(a[i], b[i], skip[i]), x[i])

    def test_solve_skips_and_raises(self):
        a = np.stack([np.eye(3), np.full((3, 3), np.nan), np.diag([1.0, -1.0, 1.0])])
        b = np.array([[1.0, 2.0, 3.0], [np.nan] * 3, [1.0, 1.0, 1.0]])
        x = sym_solve(a, b, np.array([False, True, True]))
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0], [0.0] * 3, [0.0] * 3])
        with pytest.raises(np.linalg.LinAlgError):
            sym_solve(a, b, np.array([False, True, False]))
        with pytest.raises(ValueError):
            sym_solve(a, b, np.array([False, False, True]))
        with pytest.raises(ValueError):
            sym_solve(a, np.ones((3, 3)), np.array([False, False, True]))
