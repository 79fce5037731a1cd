"""Downdated leave-one-out estimates against literal re-estimation.

``inference.fit`` downdates every subsample's estimate from one demeaned
panel; ``oracles.literal_loo`` rebuilds each subpanel and calls the
public estimator. Both must give the same values to rounding error and, where
a subsample fails, the same exception class, message and offending units.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import batched_capacitance_loo, literal_loo, random_panel
from panelmg import (
    EstimationError,
    Method,
    PanelData,
    PanelMgError,
    RankDeficient,
    SingularSystem,
    TooFewPeriods,
    compute_ridge_kappa,
    estimate,
    jackknife,
    poolability_test,
)
from panelmg.gram import TwoWayFactor, loo_two_way
from panelmg.inference import fit
from panelmg.panel import double_demean

METHODS = ["tw-mg", "tw-mg-ridge", "tw-pooled", "mg"]


def outcome(fn):
    """The estimates ``fn`` returns, or (class, message, units) of its error."""
    try:
        return fn()
    except EstimationError as exc:
        return type(exc), str(exc), getattr(exc, "units", None)


def fast_loo(panel, method, kappa=None):
    m = Method(method)
    f = fit(panel, [m], kappa)
    f.check([m])
    return f.loo[m]


def reestimated(panel, method):
    """The subsamples ``fit`` re-estimates literally."""
    return fit(panel, [Method(method)]).flagged[Method(method)]


def assert_same_outcome(panel, method, kappa=None, rel=1e-10):
    """Same error, or values within rel * max(1, |b|), |b| the largest estimate."""
    want = outcome(lambda: literal_loo(panel, method, kappa))
    got = outcome(lambda: fast_loo(panel, method, kappa))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())
    return want


@pytest.mark.parametrize("n", [3, 4, 50])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("extra_t", [2, None])
@pytest.mark.parametrize(
    "method,kappa",
    [
        ("tw-mg", None),
        ("tw-mg-ridge", "computed"),
        ("tw-mg-ridge", 0.05),
        ("tw-pooled", None),
        ("mg", None),
    ],
)
def test_values_match_literal_reestimation(n, k, extra_t, method, kappa):
    t = 10 if extra_t is None else k + extra_t
    y, x, _ = random_panel(100 * k + 10 * t + n, n, t, k)
    panel = PanelData.from_arrays(y, x)
    if kappa == "computed":
        kappa = compute_ridge_kappa(panel)
    want = assert_same_outcome(panel, method, kappa)
    if (n - 1) * (t - k - 1) >= t - 1:
        # otherwise a subsample's dummy-variable design has more columns
        # than rows, and the two-way estimators may fail on it
        assert isinstance(want, np.ndarray)


class TestErrorsMatchLiteralReestimation:
    """A collinear subsample is compared in test_inference's
    TestJackknife.test_subsample_failure_names_removed_unit."""

    @pytest.mark.parametrize("method", ["tw-mg", "mg"])
    def test_block_scale_drops_without_dominant_unit(self, method):
        # u2's block is tiny only next to u1's; dropping either one passes
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 6, 1))
        x[0] *= 1e4
        x[1] *= 1e-2
        panel = PanelData.from_arrays(rng.normal(size=(5, 6)), x)
        want = assert_same_outcome(panel, method)
        assert want[0] is RankDeficient and want[2] == ("u2",)
        assert "unit 'u3' removed" in want[1]
        # The subsample without u1 is cleared by the screen, so its value is
        # downdated from the blocks of a panel that fails the full-sample
        # check; it is the literal one all the same.
        f = fit(panel, [Method(method)])
        assert not f.flagged[Method(method)][0]
        literal = estimate(panel.without_unit(0), method).beta_hat
        assert np.abs(f.loo[Method(method)][0] - literal).max() <= 1e-10 * np.abs(literal).max()

    def test_pooled_subsample_becomes_rank_deficient(self):
        # x2 is pure two-way structure everywhere but in u3
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 6, 2))
        x[:, :, 1] = rng.normal(size=5)[:, None] + rng.normal(size=6)[None, :]
        x[2, :, 1] = rng.normal(size=6)
        panel = PanelData.from_arrays(rng.normal(size=(5, 6)), x)
        want = assert_same_outcome(panel, "tw-pooled")
        assert want[0] is RankDeficient and "unit 'u3' removed" in want[1]
        assert want[2] == ("u1", "u2", "u4", "u5")

    @pytest.mark.parametrize("method", ["tw-mg", "mg"])
    def test_too_few_periods(self, method):
        y, x, _ = random_panel(3, 6, 3, 2)
        want = assert_same_outcome(PanelData.from_arrays(y, x), method)
        assert want[0] is TooFewPeriods and "unit 'u1' removed" in want[1]

    def test_ridge_singular_system(self):
        y, x, _ = random_panel(4, 6, 5, 1)
        x[3] = 2.0
        want = assert_same_outcome(PanelData.from_arrays(y, x), "tw-mg-ridge", 0.0)
        assert want[0] is SingularSystem and "'u4'" in want[1]

    def test_first_failure_follows_method_order(self):
        y, x, _ = random_panel(3, 6, 3, 2)
        panel = PanelData.from_arrays(y, x)
        with pytest.raises(TooFewPeriods, match="unit 'u1' removed"):
            methods = [Method.TW_POOLED, Method.TW_MG]
            fit(panel, methods).check(methods)

    def test_negative_ridge_shift_is_refused_like_the_estimator(self):
        panel = PanelData.from_arrays(*random_panel(8, 6, 5, 1)[:2])
        with pytest.raises(ValueError, match="kappa must be nonnegative"):
            fast_loo(panel, "tw-mg-ridge", -1.0)


def weak_unit_panel(rcond, k=2):
    """400x10xK panel whose unit u9 has x2 = x1 + noise, with the noise
    scaled so that u9's block has reciprocal condition ``rcond`` against the
    panel's largest block eigenvalue."""
    y, x, _ = random_panel(7, 400, 10, k)
    noise = np.random.default_rng(1).normal(size=10)

    def condition(scale):
        x[8, :, 1] = x[8, :, 0] + scale * noise
        xu = x - x.mean(axis=1, keepdims=True)
        w = np.linalg.eigvalsh(np.einsum("ntk,ntl->nkl", xu, xu))
        return w[8, 0] / w[:, -1].max()

    # for small noise the condition grows with the square of its scale
    got = condition(1e-3 * np.sqrt(rcond / condition(1e-3)))
    assert abs(got / rcond - 1.0) < 0.01
    return PanelData.from_arrays(y, x)


class TestWeakUnit:
    """One weak but valid unit flags only its own subsample."""

    @pytest.mark.parametrize(
        "rcond,k",
        [pytest.param(r, 2, id=f"{r:g}") for r in (2e-10, 5e-10, 9e-10, 2e-9, 1e-8, 1e-7, 5e-7)]
        + [pytest.param(r, 3, id=f"{r:g}-k3") for r in (2e-10, 1e-8, 5e-7)],
    )
    @pytest.mark.parametrize("method", ["tw-mg", "mg"])
    def test_only_its_own_subsample_is_reestimated(self, rcond, k, method):
        panel = weak_unit_panel(rcond, k)
        assert np.flatnonzero(reestimated(panel, method)).tolist() == [8]
        assert_same_outcome(panel, method, rel=1e-8)

    @pytest.mark.parametrize("method", ["tw-mg", "mg"])
    def test_unit_below_the_threshold_still_fails(self, method):
        panel = weak_unit_panel(3e-11)
        assert reestimated(panel, method).all()
        want = assert_same_outcome(panel, method)
        assert want[0] is RankDeficient and want[2] == ("u9",)
        assert "unit 'u1' removed" in want[1]


def capacitance_solves(monkeypatch, dp, kappa):
    """``loo_two_way``'s flags, and the number of subsamples whose T x T
    capacitance it built and solved one by one."""
    rows = []
    solve = np.linalg.solve

    def spy(a, b):
        rows.append(a.shape[0])
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", spy)
        flags = loo_two_way(TwoWayFactor(dp, kappa))[1]
    return flags, sum(rows)


def shared_capacitance_eigenvalues(dp, kappa):
    """Eigenvalues of D = I_T - sum_i M_i / ((N-1) T) over all N units."""
    xu = dp.x_unit_dm
    n, t, k = xu.shape
    blocks = np.einsum("ntk,ntl->nkl", xu, xu) / t + kappa * np.eye(k)
    m = xu @ np.linalg.inv(blocks) @ xu.transpose(0, 2, 1)
    return np.linalg.eigvalsh(np.eye(t) - m.sum(axis=0) / ((n - 1) * t))


def assert_matches_batched_capacitance(dp, kappa):
    values, flags = loo_two_way(TwoWayFactor(dp, kappa))
    want, want_flagged = batched_capacitance_loo(dp, kappa)
    assert np.array_equal(flags, want_flagged)
    keep = ~flags
    if keep.any():
        err = np.abs(values[keep] - want[keep]).max()
        assert err <= 1e-12 * max(1.0, np.abs(want[keep]).max())


class TestRankKDowndate:
    """``loo_two_way`` against the batch of (N, T, T) capacitances it replaces.

    N starts at 8 on the grid: at N = 5 and T = K + 2 some subsample
    capacitances have condition 1e5 to 1e6, where any two orders of
    summation differ by up to 1e-10. Those panels take the exact
    per-subsample path and are held to the literal oracle at 1e-8 below.
    """

    @pytest.mark.parametrize("n", [8, 40, 300])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("t", ["K+2", 10, 20])
    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    def test_matches_batched_capacitance(self, n, k, t, kappa):
        t = k + 2 if t == "K+2" else t
        y, x, _ = random_panel(1000 * k + 10 * t + n, n, t, k)
        assert_matches_batched_capacitance(double_demean(PanelData.from_arrays(y, x)), kappa)

    def test_shared_matrix_worse_conditioned_than_every_subsample(self, monkeypatch):
        # D has condition ~5e3 and no subsample's capacitance more than ~50,
        # so the Woodbury solve needs its refinement step to reach 1e-12.
        panel = PanelData.from_arrays(*random_panel(18938, 50, 5, 3)[:2])
        dp = double_demean(panel)
        lam = shared_capacitance_eigenvalues(dp, 0.0)
        assert 0.0 < lam[0] < 1e-3 * lam[-1]
        flagged, exact = capacitance_solves(monkeypatch, dp, 0.0)
        assert exact == 0 and not flagged.any()
        assert_matches_batched_capacitance(dp, 0.0)
        assert_same_outcome(panel, "tw-mg", rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unscreened_subsamples_are_solved_exactly(self, monkeypatch, k):
        # N = 5, T = K + 2: D is indefinite, so the bound clears no subsample
        panel = PanelData.from_arrays(*random_panel(40 + k, 5, k + 2, k)[:2])
        dp = double_demean(panel)
        assert shared_capacitance_eigenvalues(dp, 0.0)[0] < 0.0
        flagged, exact = capacitance_solves(monkeypatch, dp, 0.0)
        assert exact == 5 - flagged.sum()
        assert np.array_equal(flagged, batched_capacitance_loo(dp, 0.0)[1])
        assert_same_outcome(panel, "tw-mg", rel=1e-8)

    def test_bound_clears_some_subsamples_and_not_others(self, monkeypatch):
        # Units 1-3 share one regressor direction with block q >> kappa, and
        # unit 4 an orthogonal one with q = kappa. Along the shared direction
        # D's eigenvalue is kappa / (q + kappa) = 1.25e-6; the bound needs
        # 1e-6 (1 + c tr M_j), which is 1.333e-6 for units 1-3 and 1.167e-6
        # for unit 4. So subsample 4 is cleared (its capacitance has
        # condition ~8e5) and subsamples 1-3 are built and solved exactly.
        rng = np.random.default_rng(3)
        t, kappa = 6, 0.05
        z = rng.normal(size=(t, 2))
        z -= z.mean(axis=0)
        z[:, 1] -= z[:, 0] * (z[:, 0] @ z[:, 1]) / (z[:, 0] @ z[:, 0])
        z /= np.sqrt(np.mean(z**2, axis=0))
        x = np.empty((4, t, 1))
        x[:3, :, 0] = np.sqrt(kappa * (1 / 1.25e-6 - 1)) * z[:, 0]
        x[3, :, 0] = np.sqrt(kappa) * z[:, 1]
        panel = PanelData.from_arrays(rng.normal(size=(4, t)), x)
        dp = double_demean(panel)
        assert abs(shared_capacitance_eigenvalues(dp, kappa)[0] / 1.25e-6 - 1.0) < 1e-6
        flagged, exact = capacitance_solves(monkeypatch, dp, kappa)
        assert exact == 3 and not flagged.any()
        assert_matches_batched_capacitance(dp, kappa)
        assert_same_outcome(panel, "tw-mg-ridge", kappa, rel=1e-8)

    def test_ill_conditioned_k_by_k_system_is_solved_exactly(self, monkeypatch):
        # As above with K = 2, but D's weak eigenvalue is 1e-5, which clears
        # the bound for every subsample. Unit 1's second regressor is weak
        # (block reciprocal condition ~1e-4), and its first lies along D's
        # weak direction, so H_1 = B_1 + c xdot_1' D^{-1} xdot_1 has
        # reciprocal condition ~4e-9 and subsample 1 is solved exactly.
        rng = np.random.default_rng(4)
        t, kappa = 7, 0.05
        basis = np.column_stack([np.ones(t), rng.normal(size=(t, 6))])
        z = np.linalg.qr(basis)[0][:, 1:] * np.sqrt(t)
        q = kappa * (1e5 - 1)
        x = np.empty((4, t, 2))
        x[:3, :, 0] = np.sqrt(q) * z[:, 0]
        x[0, :, 1] = np.sqrt(1e-4 * q) * z[:, 1]
        x[1, :, 1] = np.sqrt(q) * z[:, 2]
        x[2, :, 1] = np.sqrt(q) * z[:, 3]
        x[3] = np.sqrt(q) * z[:, 4:6]
        panel = PanelData.from_arrays(rng.normal(size=(4, t)), x)
        dp = double_demean(panel)
        flagged, exact = capacitance_solves(monkeypatch, dp, kappa)
        assert exact == 1 and not flagged.any()
        assert_matches_batched_capacitance(dp, kappa)
        assert_same_outcome(panel, "tw-mg-ridge", kappa, rel=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    k=st.integers(1, 3),
    extra_t=st.integers(1, 6),
    method=st.sampled_from(METHODS),
    x_exp=st.sampled_from([-4, 0, 4]),
    y_exp=st.sampled_from([-4, 0, 4]),
)
@example(seed=1, n=3, k=1, extra_t=2, method="tw-mg", x_exp=4, y_exp=-4)
@example(seed=2, n=3, k=2, extra_t=4, method="tw-mg-ridge", x_exp=-4, y_exp=4)
@example(seed=3, n=3, k=3, extra_t=5, method="tw-pooled", x_exp=4, y_exp=4)
@example(seed=4, n=3, k=1, extra_t=3, method="mg", x_exp=-4, y_exp=-4)
@example(seed=79, n=3, k=3, extra_t=1, method="tw-mg-ridge", x_exp=0, y_exp=0)
def test_matches_literal_on_random_designs(seed, n, k, extra_t, method, x_exp, y_exp):
    # Nearly square designs are ill-conditioned for both paths alike, so the
    # bound here is the 1e-8 agreement the oracles are held to.
    y, x, _ = random_panel(seed, n, k + extra_t, k)
    panel = PanelData.from_arrays(y * 10.0**y_exp, x * 10.0**x_exp)
    kappa = compute_ridge_kappa(panel) if method == "tw-mg-ridge" else None
    assert_same_outcome(panel, method, kappa, rel=1e-8)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([3, 5]),
    k=st.integers(1, 4),
    method=st.sampled_from(METHODS),
    x_exp=st.sampled_from([-8, 0, 8]),
    y_exp=st.sampled_from([-8, 0, 8]),
)
@example(seed=0, n=3, k=4, method="tw-mg", x_exp=8, y_exp=-8)
@example(seed=0, n=5, k=4, method="tw-mg-ridge", x_exp=-8, y_exp=8)
@example(seed=1, n=5, k=4, method="tw-mg-ridge", x_exp=8, y_exp=8)
@example(seed=2, n=3, k=4, method="tw-pooled", x_exp=-8, y_exp=-8)
@example(seed=3, n=5, k=4, method="mg", x_exp=8, y_exp=-8)
@example(seed=4, n=5, k=2, method="tw-mg", x_exp=-8, y_exp=8)
def test_extreme_designs_agree_and_stay_psd(seed, n, k, method, x_exp, y_exp):
    # T = K + 2 and data scaled by 1e+-8: the fit may well fail (often for
    # K = 4), but then both paths fail alike. Where the jackknife and the
    # homogeneity test are defined, Omega is PSD to rounding and J >= 0.
    y, x, _ = random_panel(seed, n, k + 2, k)
    panel = PanelData.from_arrays(y * 10.0**y_exp, x * 10.0**x_exp)
    kappa = compute_ridge_kappa(panel) if method == "tw-mg-ridge" else None
    if isinstance(assert_same_outcome(panel, method, kappa, rel=1e-8), tuple):
        return
    w = np.linalg.eigvalsh(jackknife(panel, method, kappa).omega_hat)
    assert w[0] >= -1e-12 * np.abs(w).max()
    if method in ("tw-mg", "tw-mg-ridge"):
        try:
            report = poolability_test(panel, use_ridge=method == "tw-mg-ridge")
        except PanelMgError:
            return
        assert report.joint_stat >= 0.0


class TestNoSubpanelIsRebuilt:
    @pytest.fixture(autouse=True)
    def refuse_subpanels(self, monkeypatch):
        def refuse(self, index):
            raise AssertionError("subpanel rebuilt")

        monkeypatch.setattr(PanelData, "without_unit", refuse)

    @pytest.fixture
    def panel(self):
        return PanelData.from_arrays(*random_panel(31, 40, 6, 2)[:2])

    @pytest.mark.parametrize("method", METHODS)
    def test_jackknife(self, panel, method):
        assert jackknife(panel, method).loo_estimates.shape == (40, 2)

    @pytest.mark.parametrize("use_ridge", [False, True])
    def test_poolability_test(self, panel, use_ridge):
        assert poolability_test(panel, use_ridge=use_ridge).joint_stat >= 0.0

    def test_no_ridge_shift_recomputed_per_subsample(self, panel):
        # the one policy that re-estimated every subsample literally is gone
        with pytest.raises(TypeError, match="kappa_policy"):
            jackknife(panel, "tw-mg-ridge", kappa_policy="recomputed")
