"""Structured Gram matrix: assembly, Woodbury solves, and singularity gates."""

import numpy as np
import pytest

from panelmg import PanelData, SingularBlock, SingularCapacitance, double_demean
from panelmg.gram import factorize, sym_eig_bounds, sym_inv
from oracles import dense_gram, random_panel


def demeaned(seed=0, n=6, t=5, k=2):
    y, x, _ = random_panel(seed, n, t, k)
    panel = PanelData.from_arrays(y, x)
    return panel, double_demean(panel)


def dense(dp, kappa=0.0):
    return dense_gram(np.asarray(dp.x_unit_dm), kappa)


class TestAssembly:
    def test_blocks_match_per_unit_gram(self):
        panel, dp = demeaned(seed=1, n=5, t=6, k=2)
        fac = factorize(dp, 0.0, panel.unit_labels)
        for i in range(panel.n_units):
            xi = dp.x_unit_dm[i]
            np.testing.assert_allclose(
                fac.block_inv[i] @ (xi.T @ xi / panel.n_periods), np.eye(2), atol=1e-10
            )
            np.testing.assert_allclose(
                fac.coupling[i], xi.T / np.sqrt(panel.n_units * panel.n_periods), atol=1e-12
            )
        assert fac.coupling.shape == (5, 2, 6)

    def test_negative_kappa_rejected(self):
        panel, dp = demeaned()
        with pytest.raises(ValueError):
            factorize(dp, -1e-9, panel.unit_labels)


class TestSolve:
    def test_matches_dense_solve_across_shapes(self):
        seed = 100
        for k in (1, 2, 3):
            for n in (3, 5, 9, 12):
                for t in (k + 2, 8):
                    seed += 1
                    if n * (t - k - 1) < t - 1:
                        continue  # fewer observations than dummy-OLS columns
                    panel, dp = demeaned(seed=seed, n=n, t=t, k=k)
                    fac = factorize(dp, 0.0, panel.unit_labels)
                    rng = np.random.default_rng(seed)
                    rhs = rng.normal(size=n * k)
                    got = fac.solve(rhs)
                    want = np.linalg.solve(dense(dp), rhs)
                    scale = np.abs(want).max()
                    assert np.abs(got - want).max() <= 1e-8 * max(scale, 1.0)

    def test_solve_with_ridge_matches_dense(self):
        panel, dp = demeaned(seed=7, n=6, t=4, k=2)
        rhs = np.random.default_rng(7).normal(size=12)
        np.testing.assert_allclose(
            factorize(dp, 0.05, panel.unit_labels).solve(rhs),
            np.linalg.solve(dense(dp, 0.05), rhs),
            atol=1e-10,
        )

    def test_implied_inverse_is_symmetric(self):
        # solve(e_a) . e_b must equal solve(e_b) . e_a on sampled basis pairs
        panel, dp = demeaned(seed=9, n=7, t=6, k=2)
        fac = factorize(dp, 0.0, panel.unit_labels)
        rng = np.random.default_rng(9)
        dim = 14
        for _ in range(10):
            a, b = rng.integers(0, dim, size=2)
            ea, eb = np.zeros(dim), np.zeros(dim)
            ea[a], eb[b] = 1.0, 1.0
            assert abs(fac.solve(ea)[b] - fac.solve(eb)[a]) <= 1e-8

    def test_rhs_shape_checked(self):
        panel, dp = demeaned(seed=10, n=4, t=4, k=1)
        fac = factorize(dp, 0.0, panel.unit_labels)
        with pytest.raises(ValueError, match="shape"):
            fac.solve(np.zeros(5))

    def test_condition_report_in_unit_interval(self):
        panel, dp = demeaned(seed=11, n=5, t=5, k=2)
        fac = factorize(dp, 0.0, panel.unit_labels)
        assert fac.condition_report.shape == (5,)
        assert np.all(fac.condition_report > 0.0)
        assert np.all(fac.condition_report <= 1.0)


class TestSingularity:
    def test_constant_regressor_unit_is_named(self):
        y, x, _ = random_panel(20, 5, 5, 1)
        x[2, :, 0] = 4.2  # no within variation for the third unit
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(SingularBlock, match="'u3'") as info:
            factorize(double_demean(panel), 0.0, panel.unit_labels)
        assert info.value.units == ("u3",)
        assert "ridge" in str(info.value)

    def test_all_blocks_zero(self):
        y = np.random.default_rng(0).normal(size=(4, 5))
        x = np.tile(np.arange(1.0, 5.0)[:, None, None], (1, 5, 1))
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(SingularBlock) as info:
            factorize(double_demean(panel), 0.0, panel.unit_labels)
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
            factorize(double_demean(panel), 0.0, panel.unit_labels)

    def test_ridge_shift_rescues_capacitance(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=6)
        g = np.array([1.0, 2.0, -1.5, 0.5])
        panel = PanelData.from_arrays(rng.normal(size=(4, 6)), np.outer(g, w)[:, :, None])
        dp = double_demean(panel)
        fac = factorize(dp, 0.1, panel.unit_labels)
        rhs = rng.normal(size=4)
        np.testing.assert_allclose(
            fac.solve(rhs), np.linalg.solve(dense(dp, 0.1), rhs), atol=1e-10
        )

    def test_rank_tolerance_is_adjustable(self):
        y, x, _ = random_panel(23, 4, 5, 1)
        panel = PanelData.from_arrays(y, x)
        dp = double_demean(panel)
        factorize(dp, 0.0, panel.unit_labels)  # fine at the default tolerance
        with pytest.raises(SingularBlock):
            factorize(dp, 0.0, panel.unit_labels, rank_tolerance=1.1)


class TestSmallSymmetricKernels:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eig_bounds_match_eigvalsh(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(12, k, k))
        blocks = a @ a.transpose(0, 2, 1)
        lo, hi = sym_eig_bounds(blocks)
        w = np.linalg.eigvalsh(blocks)
        np.testing.assert_allclose(lo, w[:, 0], atol=1e-10)
        np.testing.assert_allclose(hi, w[:, -1], atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inverse_matches_numpy(self, k):
        rng = np.random.default_rng(k + 10)
        a = rng.normal(size=(9, k, k))
        blocks = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(k)
        np.testing.assert_allclose(sym_inv(blocks), np.linalg.inv(blocks), atol=1e-9)
