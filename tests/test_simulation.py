"""Simulated processes replayed draw by draw, plus the Monte Carlo loop."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from panelmg import (
    DGP_N_REGRESSORS,
    DgpSpec,
    Method,
    OutOfRange,
    SimCell,
    SimReport,
    estimate,
    jackknife,
    normal_quantile_upper,
    poolability_test,
    run_monte_carlo,
    simulate_dgp,
)
import panelmg.inference as inference
from panelmg.errors import SingularSystem
from panelmg.simulation import AR_BURN_IN, _aggregate_cell, _derive_seed


def replay_one_regressor_draws(spec):
    """Re-derive the single-regressor primitives in their documented order."""
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_units, spec.n_periods
    return {
        "lam": 1.0 + rng.standard_normal(n),
        "f": 1.0 + rng.standard_normal(t),
        "gam": 1.0 + rng.standard_normal(n),
        "u": rng.standard_normal((n, t)),
        "xi": rng.standard_normal((n, t)),
        "eta_star": rng.standard_normal(n),
        "v_star": rng.standard_normal((n, t)),
    }


def replay_two_regressor_draws(spec):
    """Re-derive the two-regressor primitives in their documented order."""
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_units, spec.n_periods
    return {
        "lam": 1.0 + rng.standard_normal(n),
        "f": 1.0 + rng.standard_normal(t),
        "gam1": 1.0 + rng.standard_normal(n),
        "gam2": 1.0 + rng.standard_normal(n),
        "u_shocks": rng.standard_normal((n, AR_BURN_IN + t)),
        "xi": rng.standard_normal((n, t)),
        "eta1_star": rng.standard_normal(n),
        "eta2_star": rng.standard_normal(n),
        "v1_star": rng.standard_normal((n, t)),
        "v2_star": rng.standard_normal((n, t)),
    }


class TestDgpSpec:
    def test_regressor_counts(self):
        assert DGP_N_REGRESSORS == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
        for dgp_id, k in DGP_N_REGRESSORS.items():
            assert DgpSpec(dgp_id, 5, 4, 0).n_regressors == k

    @pytest.mark.parametrize(
        "dgp_id,n,t,seed",
        [(0, 5, 4, 0), (7, 5, 4, 0), (1, 1, 4, 0), (1, 5, 1, 0), (1, 5, 4, -1)],
    )
    def test_rejects_bad_fields(self, dgp_id, n, t, seed):
        with pytest.raises(OutOfRange):
            DgpSpec(dgp_id, n, t, seed)


class TestSimulateDgp:
    @pytest.mark.parametrize("dgp_id", [1, 2, 3, 4, 5, 6])
    def test_shapes_and_truth(self, dgp_id):
        spec = DgpSpec(dgp_id, 7, 5, 3)
        panel, truth = simulate_dgp(spec)
        k = DGP_N_REGRESSORS[dgp_id]
        assert panel.y.shape == (7, 5)
        assert panel.x.shape == (7, 5, k)
        assert np.array_equal(truth.beta0, np.ones(k))
        assert truth.unit_betas.shape == (7, k)

    @pytest.mark.parametrize("dgp_id", [1, 2, 3, 4, 5, 6])
    def test_deterministic_in_seed(self, dgp_id):
        spec = DgpSpec(dgp_id, 6, 4, 11)
        a_panel, a_truth = simulate_dgp(spec)
        b_panel, b_truth = simulate_dgp(spec)
        assert np.array_equal(a_panel.y, b_panel.y)
        assert np.array_equal(a_panel.x, b_panel.x)
        assert np.array_equal(a_truth.unit_betas, b_truth.unit_betas)
        c_panel, _ = simulate_dgp(DgpSpec(dgp_id, 6, 4, 12))
        assert not np.array_equal(a_panel.y, c_panel.y)

    def test_common_slope_process_has_unit_betas_one(self):
        _, truth = simulate_dgp(DgpSpec(1, 9, 4, 2))
        assert np.array_equal(truth.unit_betas, np.ones((9, 1)))

    @pytest.mark.parametrize("dgp_id", [2, 3, 4, 5, 6])
    def test_heterogeneous_processes_vary_slopes(self, dgp_id):
        _, truth = simulate_dgp(DgpSpec(dgp_id, 40, 4, 2))
        assert truth.unit_betas.std(axis=0).min() > 0.1

    def test_common_and_varying_slopes_share_regressors(self):
        # identical draw order, so with one seed only the outcome differs
        a_panel, _ = simulate_dgp(DgpSpec(1, 8, 5, 21))
        b_panel, _ = simulate_dgp(DgpSpec(2, 8, 5, 21))
        assert np.array_equal(a_panel.x, b_panel.x)
        assert not np.array_equal(a_panel.y, b_panel.y)


class TestReplayOneRegressor:
    def test_varying_slope_panel_bitwise(self):
        spec = DgpSpec(2, 12, 6, 909)
        d = replay_one_regressor_draws(spec)
        lam, f, gam, u = d["lam"], d["f"], d["gam"], d["u"]
        beta = 1.0 + d["eta_star"]
        v = d["v_star"]
        x = lam[:, None] + f[None, :] + gam[:, None] * f[None, :] + v
        y = beta[:, None] * x + lam[:, None] + f[None, :] + u
        y = y + lam[:, None] * f[None, :]
        panel, truth = simulate_dgp(spec)
        assert np.array_equal(panel.x[:, :, 0], x)
        assert np.array_equal(panel.y, y)
        assert np.array_equal(truth.unit_betas[:, 0], beta)

    def test_volatility_process_couples_slope_and_regressor_shock(self):
        # slopes load on the regressor shock, so the per-unit shock-score
        # (1/T) sum_t v_it xi_it must correlate with beta_i
        spec = DgpSpec(3, 50000, 3, 424242)
        d = replay_one_regressor_draws(spec)
        beta = 1.0 + d["eta_star"]
        v = beta[:, None] * d["xi"] + d["v_star"]
        x = d["lam"][:, None] + d["f"][None, :] + d["gam"][:, None] * d["f"][None, :] + v
        panel, truth = simulate_dgp(spec)
        assert np.array_equal(panel.x[:, :, 0], x)
        score = (v * d["xi"]).mean(axis=1)
        assert np.corrcoef(beta, score)[0, 1] >= 0.3

    def test_independent_slope_process_has_no_coupling(self):
        spec = DgpSpec(2, 50000, 3, 424242)
        d = replay_one_regressor_draws(spec)
        beta = 1.0 + d["eta_star"]
        score = (d["v_star"] * d["xi"]).mean(axis=1)
        assert abs(np.corrcoef(beta, score)[0, 1]) < 0.05

    def test_additive_variant_drops_only_the_interactive_outcome_term(self):
        seed = 515
        a_panel, _ = simulate_dgp(DgpSpec(3, 10, 5, seed))
        b_panel, _ = simulate_dgp(DgpSpec(5, 10, 5, seed))
        d = replay_one_regressor_draws(DgpSpec(5, 10, 5, seed))
        assert np.array_equal(a_panel.x, b_panel.x)
        extra = d["lam"][:, None] * d["f"][None, :]
        assert np.array_equal(a_panel.y, b_panel.y + extra)


class TestReplayTwoRegressor:
    def test_interactive_panel_bitwise(self):
        spec = DgpSpec(4, 9, 5, 1234)
        d = replay_two_regressor_draws(spec)
        lam, f = d["lam"], d["f"]
        beta1 = 1.0 + d["eta1_star"]
        beta2 = d["gam2"] + d["eta2_star"]
        v1 = beta1[:, None] * d["xi"] + d["v1_star"]
        v2 = d["v2_star"]
        x1 = lam[:, None] + f[None, :] + v1
        x2 = lam[:, None] + f[None, :] + v2
        x1 = x1 + d["gam1"][:, None] * f[None, :]
        x2 = x2 + d["gam2"][:, None] * f[None, :]
        u_ar = lfilter([1.0], [1.0, -0.25], d["u_shocks"], axis=1)[:, AR_BURN_IN:]
        u = np.sqrt(1.0 + 0.25 * x1**2) * u_ar
        y = beta1[:, None] * x1 + beta2[:, None] * x2 + lam[:, None] + f[None, :] + u
        y = y + lam[:, None] * f[None, :]
        panel, truth = simulate_dgp(spec)
        assert np.array_equal(panel.x, np.stack([x1, x2], axis=2))
        assert np.array_equal(panel.y, y)
        assert np.array_equal(truth.unit_betas, np.column_stack([beta1, beta2]))

    def test_outcome_shock_is_filtered_and_scaled(self):
        # AR(1) recursion u_t = e_t + 0.25 u_{t-1} from a zero start,
        # burn-in dropped, then scaled by sqrt(1 + 0.25 x1^2)
        spec = DgpSpec(6, 7, 4, 77)
        d = replay_two_regressor_draws(spec)
        shocks = d["u_shocks"]
        rec = np.zeros_like(shocks)
        for j in range(shocks.shape[1]):
            prev = rec[:, j - 1] if j > 0 else 0.0
            rec[:, j] = shocks[:, j] + 0.25 * prev
        via_filter = lfilter([1.0], [1.0, -0.25], shocks, axis=1)
        np.testing.assert_allclose(rec, via_filter, rtol=0, atol=1e-12)
        assert shocks.shape == (7, AR_BURN_IN + 4)

    def test_plain_variant_drops_the_factor_terms_in_x(self):
        seed = 616
        a_panel, _ = simulate_dgp(DgpSpec(4, 8, 5, seed))
        b_panel, _ = simulate_dgp(DgpSpec(6, 8, 5, seed))
        d = replay_two_regressor_draws(DgpSpec(6, 8, 5, seed))
        f = d["f"]
        lift1 = d["gam1"][:, None] * f[None, :]
        lift2 = d["gam2"][:, None] * f[None, :]
        assert np.array_equal(a_panel.x[:, :, 0], b_panel.x[:, :, 0] + lift1)
        assert np.array_equal(a_panel.x[:, :, 1], b_panel.x[:, :, 1] + lift2)
        # the outcome shock scale depends on x1, so y differs beyond lam x f
        assert not np.array_equal(a_panel.y, b_panel.y)


class TestSingleReplicationIdentity:
    def test_cell_metrics_match_public_api(self):
        base_seed = 777
        report = run_monte_carlo(
            [(2, 30, 6)], ["tw-mg", "tw-pooled"], 1, base_seed
        )
        seed = _derive_seed(base_seed, 0, 0)
        panel, truth = simulate_dgp(DgpSpec(2, 30, 6, seed))

        mg_cell, pooled_cell = report.cells
        assert mg_cell.estimator == "tw-mg"
        assert pooled_cell.estimator == "tw-pooled"

        est = estimate(panel, "tw-mg")
        err = est.beta_hat - truth.beta0
        assert mg_cell.bias_x10 == (float(10.0 * err[0]),)
        assert mg_cell.mse_x100 == (float(100.0 * np.square(err)[0]),)
        assert mg_cell.failures == 0

        cov = jackknife(panel, "tw-mg")
        se = math.sqrt(cov.omega_hat[0, 0] / 30)
        z = normal_quantile_upper(0.025)
        want_cover = 1.0 if abs(err[0]) <= z * se else 0.0
        assert mg_cell.coverage_95 == (want_cover,)

        pool = poolability_test(panel)
        want_reject = 1.0 if pool.joint_pvalue < 0.05 else 0.0
        assert mg_cell.rejection_rate_5pct == want_reject

        pooled_est = estimate(panel, "tw-pooled")
        pooled_err = pooled_est.beta_hat - truth.beta0
        assert pooled_cell.bias_x10 == (float(10.0 * pooled_err[0]),)
        assert pooled_cell.coverage_95 is None
        assert pooled_cell.rejection_rate_5pct is None

    def test_report_metadata(self):
        report = run_monte_carlo(
            [(1, 6, 4)], ["tw-pooled"], 2, 42, level=0.9, test_level=0.1
        )
        assert report.base_seed == 42
        assert report.replications == 2
        assert report.level == 0.9
        assert report.test_level == 0.1


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        args = ([(1, 12, 5)], ["tw-mg", "tw-pooled"], 4, 99)
        a = run_monte_carlo(*args)
        b = run_monte_carlo(*args)
        assert a.to_json_dict() == b.to_json_dict()

    def test_worker_count_does_not_change_the_report(self):
        args = ([(1, 10, 4)], ["tw-mg"], 6, 123)
        serial = run_monte_carlo(*args, workers=1)
        pooled = run_monte_carlo(*args, workers=3)
        assert serial.to_json_dict() == pooled.to_json_dict()

    def test_derived_seeds_are_stable_and_distinct(self):
        assert _derive_seed(7, 0, 0) == _derive_seed(7, 0, 0)
        seeds = {_derive_seed(7, ci, r) for ci in range(3) for r in range(4)}
        assert len(seeds) == 12


class TestMonteCarloBehavior:
    def test_demeaning_beats_pooling_under_coupled_slopes(self):
        report = run_monte_carlo(
            [(3, 120, 5)], ["tw-mg", "tw-pooled", "mg"], 40, 31415
        )
        bias = {c.estimator: abs(c.bias_x10[0]) for c in report.cells}
        assert bias["tw-mg"] < 1.0
        assert bias["tw-mg"] < bias["tw-pooled"]
        assert bias["tw-mg"] < bias["mg"]
        assert bias["tw-pooled"] > 3.0
        for c in report.cells:
            assert c.failures == 0

    def test_pooling_bias_scale_under_coupled_slopes(self):
        report = run_monte_carlo([(5, 200, 10)], ["tw-pooled"], 250, 20260815)
        cell = report.cells[0]
        assert cell.failures == 0
        assert 4.0 <= cell.bias_x10[0] <= 6.2

    def test_mse_dominates_squared_bias(self):
        report = run_monte_carlo(
            [(2, 25, 5), (4, 25, 5)], ["tw-mg", "tw-pooled"], 8, 55
        )
        for c in report.cells:
            for j in range(len(c.bias_x10)):
                assert c.mse_x100[j] + 1e-9 >= c.bias_x10[j] ** 2

    def test_estimators_accept_enum_and_dedupe(self):
        report = run_monte_carlo(
            [(1, 8, 4)], [Method.TW_POOLED, "tw-pooled"], 2, 9
        )
        assert len(report.cells) == 1

    def test_short_panel_gate_protects_unridged_methods(self):
        with pytest.raises(OutOfRange, match="needs T >"):
            run_monte_carlo([(4, 10, 3)], ["tw-mg"], 1, 1)
        with pytest.raises(OutOfRange, match="needs T >"):
            run_monte_carlo([(1, 10, 2)], ["mg"], 1, 1)

    def test_ridge_runs_on_the_shortest_panels(self):
        report = run_monte_carlo([(1, 10, 2)], ["tw-mg-ridge"], 2, 11)
        cell = report.cells[0]
        assert cell.failures == 0
        assert cell.coverage_95 is not None
        assert cell.rejection_rate_5pct is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cells=[(1, 8, 4)], estimators=["tw-mg"], replications=0, base_seed=1),
            dict(cells=[(1, 8, 4)], estimators=["tw-mg"], replications=1, base_seed=1, level=1.0),
            dict(cells=[(1, 8, 4)], estimators=["tw-mg"], replications=1, base_seed=1, test_level=0.0),
            dict(cells=[(1, 8, 4)], estimators=["tw-mg"], replications=1, base_seed=1, workers=0),
            dict(cells=[], estimators=["tw-mg"], replications=1, base_seed=1),
            dict(cells=[(9, 8, 4)], estimators=["tw-mg"], replications=1, base_seed=1),
            dict(cells=[(1, 8, 4)], estimators=[], replications=1, base_seed=1),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(OutOfRange):
            run_monte_carlo(**kwargs)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            run_monte_carlo([(1, 8, 4)], ["nope"], 1, 1)


class TestInferenceFailures:
    """One method's failing leave-one-out fit costs only what needs it."""

    CELLS = [(4, 20, 6)]
    METHODS = ("tw-mg", "tw-mg-ridge", "tw-pooled")

    def run(self):
        return {c.estimator: c for c in run_monte_carlo(self.CELLS, self.METHODS, 4, 11).cells}

    def run_with_failing(self, monkeypatch, failing):
        """The cells when every replication flags ``failing``'s leave-one-out
        subsamples and re-estimating them raises."""
        real_fit_stack = inference.fit_stack
        real_estimate = inference.estimate

        def fit_stack(dp, methods, kappa=None, loo=()):
            slopes, why, shift, values, flagged = real_fit_stack(dp, methods, kappa, loo)
            flagged[Method(failing)] = flagged[Method(failing)] | True
            return slopes, why, shift, values, flagged

        def estimate(panel, method, kappa=None):
            if Method(method) is Method(failing):
                raise SingularSystem(f"{failing} fails here")
            return real_estimate(panel, method, kappa)

        monkeypatch.setattr(inference, "fit_stack", fit_stack)
        monkeypatch.setattr(inference, "estimate", estimate)
        return self.run()

    def test_pooled_loo_failure_keeps_coverage(self, monkeypatch):
        clean = self.run()
        out = self.run_with_failing(monkeypatch, "tw-pooled")
        for m in ("tw-mg", "tw-mg-ridge"):
            assert clean[m].coverage_95 is not None
            assert out[m].coverage_95 == clean[m].coverage_95
            assert out[m].rejection_rate_5pct is None

    def test_one_method_failure_keeps_the_others(self, monkeypatch):
        clean = self.run()
        out = self.run_with_failing(monkeypatch, "tw-mg")
        assert {m for m, c in out.items() if c.coverage_95 is not None} == {"tw-mg-ridge"}
        assert {m for m, c in out.items() if c.rejection_rate_5pct is not None} == {"tw-mg-ridge"}
        ridge, clean_ridge = out["tw-mg-ridge"], clean["tw-mg-ridge"]
        assert ridge.coverage_95 == clean_ridge.coverage_95
        assert ridge.rejection_rate_5pct == clean_ridge.rejection_rate_5pct


def aggregate_without_warnings(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _aggregate_cell(*args)


class TestAggregation:
    def test_failures_are_tallied_and_excluded_from_averages(self):
        errors = np.array([[[0.25]], [[np.nan]], [[-0.5]]])
        covered = np.array([[[1.0]], [[np.nan]], [[0.0]]])
        rejected = np.array([[1.0], [np.nan], [np.nan]])
        (cell,) = aggregate_without_warnings(
            (1, 5, 4), [Method.TW_MG], errors, covered, rejected, 1.25
        )
        assert cell.replications == 3
        assert cell.failures == 1
        assert cell.bias_x10 == (-1.25,)
        assert cell.mse_x100 == (15.625,)
        assert cell.coverage_95 == (0.5,)
        assert cell.rejection_rate_5pct == 1.0
        assert cell.wall_time_s == 1.25

    def test_all_failed_cell_reports_nan_metrics(self):
        errors = np.full((1, 1, 2), np.nan)
        (cell,) = aggregate_without_warnings(
            (4, 5, 6), [Method.TW_MG], errors, errors.copy(), errors[..., 0], 0.5
        )
        assert cell.failures == 1
        assert len(cell.bias_x10) == 2
        assert all(math.isnan(v) for v in cell.bias_x10)
        assert all(math.isnan(v) for v in cell.mse_x100)
        assert cell.coverage_95 is None
        assert cell.rejection_rate_5pct is None


@pytest.fixture(scope="module")
def report():
    return run_monte_carlo([(1, 8, 4), (6, 8, 4)], ["tw-mg", "tw-pooled"], 3, 5)


class TestSerialization:
    def test_json_document_shape(self, report):
        doc = report.to_json_dict()
        assert doc["schema"] == "panelmg/1"
        assert doc["kind"] == "simulation-report"
        assert doc["base_seed"] == 5
        assert doc["replications"] == 3
        for cell in doc["cells"]:
            assert "wall_time_s" not in cell

    def test_json_file_holds_the_document(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.write_json(path)
        assert json.loads(path.read_text(encoding="utf-8")) == report.to_json_dict()

    def test_csv_rows_hold_the_cells(self, report, tmp_path):
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SimReport._CSV_HEADER

        def number(field):
            return None if field == "" else float(field)

        got = [
            (int(r[0]), int(r[1]), int(r[2]), r[3], int(r[4]), int(r[5]), int(r[6]))
            + tuple(number(f) for f in r[7:])
            for r in rows[1:]
        ]
        want = [
            (c.dgp_id, c.n_units, c.n_periods, c.estimator, j + 1, c.replications, c.failures)
            + (
                c.bias_x10[j],
                c.mse_x100[j],
                None if c.coverage_95 is None else c.coverage_95[j],
                c.rejection_rate_5pct,
            )
            for c in report.cells
            for j in range(len(c.bias_x10))
        ]
        assert got == want

    def test_csv_has_one_row_per_coefficient(self, report, tmp_path):
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        want_rows = sum(len(c.bias_x10) for c in report.cells)
        assert len(lines) == 1 + want_rows
        assert lines[0].split(",") == SimReport._CSV_HEADER
