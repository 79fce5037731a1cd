"""Stacked panels: the kernels are bit-identical across batch shapes, and the
batched Monte Carlo reports what a loop of one-panel replications reports."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import panelmg.inference as inference
import panelmg.simulation as simulation
from panelmg import DGP_N_REGRESSORS, Method, PanelData, estimate, run_monte_carlo
from panelmg.cli import main
from panelmg.errors import EstimationError
from panelmg.estimators import _ridge_kappa, _standard_mg, _tw_pooled
from panelmg.gram import TwoWayFactor, loo_two_way, two_way_slopes
from panelmg.inference import fit
from panelmg.panel import double_demean
from oracles import literal_monte_carlo, random_panel

METHODS = [m.value for m in Method]


def stack_of(seed, count, n, t, k, x_exp=0, y_exp=0):
    """y (count, N, T) and x (count, N, T, K) of ``count`` random panels."""
    panels = [random_panel(seed + r, n, t, k)[:2] for r in range(count)]
    y = np.stack([p[0] for p in panels]) * 10.0**y_exp
    x = np.stack([p[1] for p in panels]) * 10.0**x_exp
    return y, x


@st.composite
def stacks(draw):
    """Two to four random panels of one shape, one of them possibly weak."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(3, 8))
    t = draw(st.integers(k + 2, k + 4))
    count = draw(st.integers(2, 4))
    y, x = stack_of(
        draw(st.integers(0, 2**32 - 1)),
        count,
        n,
        t,
        k,
        draw(st.sampled_from([-8, 0, 8])),
        draw(st.sampled_from([-8, 0, 8])),
    )
    r, unit = draw(st.integers(0, count - 1)), draw(st.integers(0, n - 1))
    weakness = draw(st.sampled_from(["none", "constant", "collinear", "near-collinear"]))
    if weakness == "constant":
        x[r, unit, :, 0] = x[r, unit, 0, 0]
    elif weakness != "none" and k > 1:
        noise = 1e-4 if weakness == "near-collinear" else 0.0
        x[r, unit, :, -1] = x[r, unit, :, 0] * (1.0 + noise * np.arange(t))
    return y, x


def weak_k3_stack():
    """Three K = 3 panels; in the second, unit 3's third regressor nearly
    copies its first, so its block is refined by ``eigvalsh``."""
    y, x = stack_of(9, 3, n=5, t=6, k=3)
    x[1, 2, :, 2] = x[1, 2, :, 0] * (1.0 + 1e-4 * np.arange(6))
    return y, x


def assert_each_panel(stacked, single):
    """Each output of ``stacked()`` holds, panel by panel, the outputs in
    ``single`` computed on each panel alone."""
    got = stacked()
    for r, want in enumerate(single):
        for g, w in zip(got, want):
            assert np.array_equal(g[r], w, equal_nan=True), r


def outputs(slopes, pair, why):
    """A full-sample kernel's slopes, leave-one-out values and flags and
    failure record, as one list."""
    return [slopes, *pair, *why.values()]


def failures(f, r):
    """The (method, class, message) of each failure ``f`` records for panel ``r``."""
    return [(m, type(e), str(e)) for p, m, e in f.failures if p == r]


@settings(max_examples=80, deadline=None)
@given(stacks())
@example(stack_of(5, 3, n=3, t=6, k=4, x_exp=8, y_exp=-8))
@example(stack_of(6, 2, n=3, t=3, k=1, x_exp=-8, y_exp=8))
@example(stack_of(7, 3, n=6, t=5, k=3, x_exp=8, y_exp=-8))
@example(stack_of(8, 4, n=4, t=6, k=3, x_exp=-8, y_exp=0))
@example(weak_k3_stack())
def test_kernels_are_bit_identical_across_batch_shapes(data):
    y, x = data
    dp = double_demean(SimpleNamespace(y=y, x=x))
    alone = [double_demean(PanelData.from_arrays(y[r], x[r])) for r in range(len(y))]
    kappa = _ridge_kappa(dp)
    assert np.array_equal(kappa, [_ridge_kappa(d) for d in alone], equal_nan=True)
    kappa = np.where(np.isfinite(kappa), kappa, 0.0)

    for shift in (np.zeros(len(y)), kappa):
        f = TwoWayFactor(dp, shift)
        single = [TwoWayFactor(d, shift[r]) for r, d in enumerate(alone)]
        assert_each_panel(lambda: two_way_slopes(f), [two_way_slopes(g) for g in single])
        assert_each_panel(lambda: loo_two_way(f), [loo_two_way(g) for g in single])
    assert_each_panel(
        lambda: outputs(*_tw_pooled(dp, True)),
        [outputs(*_tw_pooled(d, True)) for d in alone],
    )
    assert_each_panel(
        lambda: outputs(*_standard_mg(dp, True)),
        [outputs(*_standard_mg(d, True)) for d in alone],
    )

    # one fit of the stack is the fit of each panel alone, literal
    # re-estimation of the flagged subsamples and its failures included
    stacked = fit(SimpleNamespace(y=y, x=x), list(Method))
    single = [fit(PanelData.from_arrays(y[r], x[r]), list(Method)) for r in range(len(y))]
    assert_each_panel(lambda: [stacked.kappa], [[g.kappa] for g in single])
    for m in Method:
        def parts(g):
            return [g.beta[m], g.loo[m], g.flagged[m], g.has[m], g.omega(m)]

        assert_each_panel(lambda: parts(stacked), [parts(g) for g in single])
    for m in (Method.TW_MG, Method.TW_MG_RIDGE):
        assert_each_panel(lambda: stacked.homogeneity(m), [g.homogeneity(m) for g in single])
    for r, g in enumerate(single):
        assert failures(stacked, (r,)) == failures(g, ())


@settings(max_examples=40, deadline=None)
@given(stacks(), st.sampled_from(METHODS))
def test_stacked_estimates_are_the_public_estimates(data, method):
    y, x = data
    method = Method(method)
    f = fit(SimpleNamespace(y=y, x=x), [method], loo=[])
    for r in range(len(y)):
        try:
            est = estimate(PanelData.from_arrays(y[r], x[r]), method)
        except EstimationError:
            assert np.isnan(f.beta[method][r]).all()
            continue
        assert np.array_equal(f.beta[method][r], est.beta_hat)
        assert est.kappa_used == (None if f.kappa is None else f.kappa[r])


def report_text(report):
    return json.dumps(report.to_json_dict())


@st.composite
def monte_carlo_cases(draw):
    dgp = draw(st.integers(1, 6))
    k = DGP_N_REGRESSORS[dgp]
    methods = draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=4, unique=True))
    ridge_only = not {"tw-mg", "mg"} & set(methods)
    t = draw(st.integers(3 if ridge_only else k + 2, 8))
    cell = (dgp, draw(st.integers(3, 30)), t)
    return [cell], methods, draw(st.integers(1, 7)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(monte_carlo_cases())
@example(([(4, 3, 4), (6, 3, 4)], METHODS, 7, 3))
@example(([(1, 3, 3)], ["tw-mg-ridge", "tw-pooled"], 5, 11))
def test_reports_do_not_depend_on_batches_or_workers(case):
    cells, methods, replications, seed = case
    want = report_text(run_monte_carlo(cells, methods, replications, seed))
    dgp, n, t = cells[0]
    for cap in (1, 3 * n * t * DGP_N_REGRESSORS[dgp]):  # one and three replications
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_BATCH_ELEMENTS", cap)
            assert report_text(run_monte_carlo(cells, methods, replications, seed)) == want
    assert report_text(run_monte_carlo(cells, methods, replications, seed, workers=2)) == want
    assert report_text(literal_monte_carlo(cells, methods, replications, seed)) == want


def test_failing_estimators_count_as_failures(monkeypatch):
    real = simulation._draw

    def draw(dgp_id, n_units, n_periods, seeds):
        y, x, betas = real(dgp_id, n_units, n_periods, seeds)
        for r, seed in enumerate(seeds):
            if seed % 3 == 0:  # a constant regressor in one unit: tw-mg and mg fail
                x[r, 1, :, 0] = 1.0
            elif seed % 3 == 1:  # the same regressors in every unit: tw-pooled fails
                x[r] = x[r, :1]
        return y, x, betas

    monkeypatch.setattr(simulation, "_draw", draw)
    cells = [(1, 6, 5), (4, 5, 6)]
    report = run_monte_carlo(cells, METHODS, 12, 5)
    failures = {(c.dgp_id, c.estimator): c.failures for c in report.cells}
    for dgp in (1, 4):
        for m in ("tw-mg", "mg", "tw-pooled"):
            assert 0 < failures[dgp, m] < 12
    assert report_text(report) == report_text(literal_monte_carlo(cells, METHODS, 12, 5))


def test_flagged_subsamples_reach_the_literal_path(monkeypatch):
    calls = []
    real = inference.estimate

    def estimate(panel, method, kappa=None):
        calls.append(method)
        return real(panel, method, kappa)

    monkeypatch.setattr(inference, "estimate", estimate)
    cells = [(4, 3, 4), (6, 3, 4)]
    report = run_monte_carlo(cells, METHODS, 30, 3)
    assert calls
    assert report_text(report) == report_text(literal_monte_carlo(cells, METHODS, 30, 3))


def test_mc_grid_never_rebuilds_a_subpanel(monkeypatch, tmp_path, capsys):
    def refuse(self, index):
        raise AssertionError("subpanel rebuilt")

    monkeypatch.setattr(PanelData, "without_unit", refuse)
    argv = ["simulate", "--dgp", "1,4", "--n", "100", "--t", "5,10", "--reps", "20"]
    assert main(argv + ["--seed", "2024", "--output-prefix", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
