"""``inference.fit``: one demeaning and one set of per-unit pieces per
estimator give the estimates, the leave-one-out values and Omega that the
per-method public functions and the dense and literal oracles give, and
every command and Monte Carlo batch reads them from one pass."""

import weakref
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

import panelmg.estimators as estimators
import panelmg.inference as inference
import panelmg.panel as panel_module
from panelmg import (
    DemeanedPanel,
    Method,
    PanelData,
    RankDeficient,
    compute_ridge_kappa,
    estimate,
    jackknife,
    run_monte_carlo,
)
from panelmg.cli import main
from panelmg.inference import fit, omega_from_loo
from panelmg.panel import double_demean
from oracles import (
    dense_gram,
    literal_loo,
    lsdv_pooled_slopes,
    lsdv_unit_slopes,
    per_unit_ols_slopes,
    random_panel,
)
from test_cli import write_panel_csv


def close(got, want, rel):
    assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("seed,n,t,k", [(1, 8, 6, 2), (2, 12, 5, 1), (3, 9, 7, 3), (4, 5, 4, 1)])
def test_matches_per_method_results_and_oracles(seed, n, t, k):
    y, x, _ = random_panel(seed, n, t, k)
    panel = PanelData.from_arrays(y, x)
    f = fit(panel, list(Method))
    kappa = compute_ridge_kappa(panel)
    assert f.kappa == kappa
    for m in Method:
        est, jk = estimate(panel, m), jackknife(panel, m)
        close(f.beta[m], est.beta_hat, 1e-12)
        close(f.loo[m], jk.loo_estimates, 1e-12)
        close(f.omega(m), jk.omega_hat, 1e-12)
        loo = literal_loo(panel, m, kappa if m is Method.TW_MG_RIDGE else None)
        close(f.loo[m], loo, 1e-8)
        close(f.omega(m), omega_from_loo(loo), 1e-8)
    close(f.unit_slopes[Method.TW_MG], lsdv_unit_slopes(y, x), 1e-8)
    close(f.beta[Method.TW_POOLED], lsdv_pooled_slopes(y, x), 1e-8)
    close(f.unit_slopes[Method.STANDARD_MG], per_unit_ols_slopes(y, x), 1e-8)
    dp = double_demean(panel)
    rhs = np.einsum("ntk,nt->nk", dp.x_unit_dm, dp.y_dd).ravel() / t
    ridge = np.linalg.solve(dense_gram(dp.x_unit_dm, kappa), rhs).reshape(n, k)
    close(f.unit_slopes[Method.TW_MG_RIDGE], ridge, 1e-8)


def counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--estimators", "tw-mg,tw-mg-ridge,tw-pooled,mg"],
        ["estimate", "--estimators", "mg,tw-mg-ridge", "--ridge-kappa", "0.05"],
        ["test"],
        ["test", "--ridge"],
    ],
)
def test_one_demeaning_per_command(monkeypatch, tmp_path, capsys, argv):
    path = tmp_path / "panel.csv"
    write_panel_csv(path, *random_panel(21, 30, 6, 2)[:2])
    counts = counting_demeanings(monkeypatch)
    assert main(argv[:1] + ["--input", str(path)] + argv[1:]) == 0
    capsys.readouterr()
    assert counts == {"double_demean": 1}


def counting_demeanings(monkeypatch):
    """Count every demeaning: a PanelData's own (``PanelData.demeaned``)
    and a stack's, which ``inference.fit`` demeans itself."""
    counts = {}
    for module in (panel_module, inference):
        counting(monkeypatch, module, "double_demean", counts)
    return counts


def counting_grams(monkeypatch, counts):
    """Count each build of the per-unit Gram matrices a demeaning caches."""
    for name in ("unit_gram", "pooled_gram"):
        real = DemeanedPanel.__dict__[name].func

        def counted(self, name=name, real=real):
            counts[name] = counts.get(name, 0) + 1
            return real(self)

        prop = cached_property(counted)
        prop.__set_name__(DemeanedPanel, name)
        monkeypatch.setattr(DemeanedPanel, name, prop)


def test_one_demeaning_per_panel(monkeypatch):
    y, x, _ = random_panel(22, 20, 6, 3)
    panel = PanelData.from_arrays(y, x)
    counts = counting_demeanings(monkeypatch)
    counting_grams(monkeypatch, counts)
    estimates = [estimate(panel, m) for m in Method]
    compute_ridge_kappa(panel)
    f = fit(panel, list(Method))
    assert counts == {"double_demean": 1, "unit_gram": 1, "pooled_gram": 1}
    for m, est in zip(Method, estimates):
        assert np.array_equal(f.beta[m], est.beta_hat)
    dp = panel.demeaned
    assert dp is panel.demeaned
    for cached in (dp.x_dd, dp.unit_gram, dp.pooled_gram):
        assert not cached.flags.writeable
    assert dp.unit_gram.shape == dp.pooled_gram.shape == (20, 3, 3)


def test_a_reestimated_subsample_is_demeaned_once(monkeypatch):
    # u4's second regressor nearly copies its first, so its block clears the
    # full-sample check but not the screen: subsample 4 is re-estimated
    # literally, for both methods, from one rebuilt and demeaned subpanel
    y, x, _ = random_panel(23, 12, 6, 2)
    x[3, :, 1] = x[3, :, 0] + 3e-3 * np.random.default_rng(0).normal(size=6)
    panel = PanelData.from_arrays(y, x)
    counts = counting_demeanings(monkeypatch)
    counting(monkeypatch, PanelData, "without_unit", counts)
    f = fit(panel, [Method.TW_MG, Method.STANDARD_MG])
    for m in (Method.TW_MG, Method.STANDARD_MG):
        assert np.flatnonzero(f.flagged[m]).tolist() == [3]
    assert counts == {"double_demean": 2, "without_unit": 1}


def test_one_block_build_per_stack_and_shift(monkeypatch):
    counts = {}
    counting(monkeypatch, inference, "double_demean", counts)
    counting(monkeypatch, inference, "estimate", counts)
    counting(monkeypatch, estimators, "TwoWayFactor", counts)
    counting_grams(monkeypatch, counts)
    # one cell of 5 replications is one batch
    run_monte_carlo([(4, 20, 6)], [m.value for m in Method], 5, 3)
    # the plain and the ridge shift each build their blocks once, from the
    # batch's one set of Gram matrices, and no subsample is re-estimated
    # literally here
    assert counts == {"double_demean": 1, "unit_gram": 1, "pooled_gram": 1, "TwoWayFactor": 2}


def test_a_failing_estimate_is_raised_from_the_fit(monkeypatch):
    y, x, _ = random_panel(20, 5, 5, 1)
    x[2, :, 0] = 4.2  # u3 fails the block check
    panel = PanelData.from_arrays(y, x)
    runs = [
        (lambda: estimate(panel, "tw-mg"), 1),
        (lambda: fit(panel, ["tw-mg"]).estimate(Method.TW_MG), 2),
    ]
    for run, demeanings in runs:
        # a fresh panel, so that no demeaning is left from the run before
        panel = PanelData.from_arrays(y, x)
        counts = counting_demeanings(monkeypatch)
        counting(monkeypatch, estimators, "TwoWayFactor", counts)
        with pytest.raises(RankDeficient):
            run()
        # the fit's one literal re-estimation is its first subsample's
        assert counts == {"double_demean": demeanings, "TwoWayFactor": demeanings}
        monkeypatch.undo()


def test_each_shift_is_dropped_before_the_next_is_built(monkeypatch):
    built = []
    real = estimators.TwoWayFactor

    class Factor(real):
        def __init__(self, dp, kappa):
            assert all(ref() is None for ref in built), "an earlier factor is alive"
            super().__init__(dp, kappa)
            built.append(weakref.ref(self))

    monkeypatch.setattr(estimators, "TwoWayFactor", Factor)
    y, x = (np.stack(a) for a in zip(*(random_panel(s, 10, 5, 2)[:2] for s in range(3))))
    f = fit(SimpleNamespace(y=y, x=x), [Method.TW_MG, Method.TW_MG_RIDGE])
    assert len(built) == 2 and all(ref() is None for ref in built)
    assert f.loo.keys() == {Method.TW_MG, Method.TW_MG_RIDGE}


class TestCommandErrorOrder:
    """On a panel where tw-mg fits but its subsample without u1 is singular,
    and tw-pooled fails on the full sample, each command raises the first
    error a loop of the public functions in ``--estimators`` order meets."""

    @pytest.fixture
    def panel_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        x = np.empty((6, 6, 2))
        x[:, :, 0] = 1e4 * rng.normal(size=(6, 6))
        # x2 is two-way structure in every unit but u1
        x[:, :, 1] = rng.normal(size=6)[:, None] + rng.normal(size=6)[None, :]
        x[0, :, 1] += 1e-2 * rng.normal(size=6)
        path = tmp_path / "panel.csv"
        write_panel_csv(path, rng.normal(size=(6, 6)), x)
        return path

    def error(self, fn):
        with pytest.raises(Exception) as info:
            fn()
        return info.value

    @pytest.mark.parametrize(
        "estimators,first",
        [
            ("tw-mg,tw-mg-ridge,tw-pooled,mg", "tw-mg loo"),
            ("mg,tw-mg", "tw-mg loo"),
            ("tw-pooled,tw-mg", "tw-pooled"),
            ("tw-mg-ridge,tw-pooled,tw-mg", "tw-pooled"),
        ],
    )
    def test_estimate(self, panel_csv, capsys, estimators, first):
        from panelmg import read_csv

        panel = read_csv(panel_csv)
        estimate(panel, "tw-mg")  # the full panel itself is fine for tw-mg
        if first == "tw-mg loo":
            want = self.error(lambda: literal_loo(panel, "tw-mg"))
            assert "unit 'u1' removed" in str(want)
        else:
            want = self.error(lambda: estimate(panel, first))
            assert want.units == panel.unit_labels
        argv = ["estimate", "--input", str(panel_csv), "--estimators", estimators]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"estimation error: {want}\n"
        got = self.error(lambda: inference.fit(panel, ["tw-mg"]).jackknife(Method.TW_MG))
        if first == "tw-mg loo":
            assert (type(got), str(got)) == (type(want), str(want))

    @pytest.mark.parametrize("ridge", [False, True])
    def test_test(self, panel_csv, capsys, ridge):
        assert main(["test", "--input", str(panel_csv)] + ["--ridge"] * ridge) == 3
        want = "pooled design is rank deficient after double demeaning"
        assert capsys.readouterr().err == f"estimation error: {want}\n"
