"""One error table: every failure kind raises one class, message and tuple
of units, whether it is met by ``estimate``, by a ``fit`` view, by the
jackknife (annotated with the removed unit), by ``poolability_test`` or by
the CLI (on stderr, with exit code 3)."""

import numpy as np
import pytest

from panelmg import (
    Method,
    OutOfRange,
    PanelData,
    RankDeficient,
    SingularCapacitance,
    SingularSystem,
    TooFewPeriods,
    estimate,
    jackknife,
    poolability_test,
)
from panelmg.cli import main
from panelmg.inference import fit
from oracles import random_panel
from test_cli import write_panel_csv


def constant_u3():
    y, x, _ = random_panel(20, 5, 5, 1)
    x[2, :, 0] = 4.2
    return y, x


def all_blocks_zero():
    y = np.random.default_rng(0).normal(size=(4, 5))
    return y, np.tile(np.arange(1.0, 5.0)[:, None, None], (1, 5, 1))


def coupled():
    rng = np.random.default_rng(21)
    w = rng.normal(size=6)
    g = np.array([1.0, 2.0, -1.5, 0.5])
    return rng.normal(size=(4, 6)), np.outer(g, w)[:, :, None]


def too_few_periods():
    return random_panel(3, 8, 3, 2)[:2]


def overflowed():
    y, x, _ = random_panel(12, 6, 5, 1)
    return y, x * 1e160  # finite, but every cross product of x overflows


BLOCK_U3 = (
    "diagonal block(s) for unit(s) 'u3' fail the condition threshold 1e-10 "
    "(consider the ridge estimator)"
)
NO_VARIATION = (
    "every diagonal block is numerically zero; the regressors carry no "
    "within-unit variation (consider the ridge estimator)"
)
COUPLING = (
    "the cross-section coupling matrix is numerically singular; the "
    "double-demeaned regressors do not span all slope directions"
)
FEW = "need T > K + 1 periods per unit, got T=3 with K=2"
PER_UNIT = "per-unit design is rank deficient: "
RIDGE = "system is singular even with ridge shift kappa=0: "
OLS_U3 = "per-unit OLS design is rank deficient for unit(s) 'u3'"
OLS_NONE = "no within-unit regressor variation anywhere in the panel"
POOLED = "pooled design is rank deficient after double demeaning"
OVERFLOW = "the regressors' cross products overflow (are not finite); rescale the regressors"
ALL = ("u1", "u2", "u3", "u4")
REST = ("u2", "u3", "u4")
ALL6 = ("u1", "u2", "u3", "u4", "u5", "u6")
REST6 = ALL6[1:]

# panel, method, ridge shift, class, message, units, units of the jackknife
ESTIMATE = [
    (constant_u3, "tw-mg", None, RankDeficient, PER_UNIT + BLOCK_U3, ("u3",), ("u3",)),
    (constant_u3, "mg", None, RankDeficient, OLS_U3, ("u3",), ("u3",)),
    (constant_u3, "tw-mg-ridge", 0.0, SingularSystem, RIDGE + BLOCK_U3, (), ()),
    (all_blocks_zero, "tw-mg", None, RankDeficient, PER_UNIT + NO_VARIATION, ALL, REST),
    (all_blocks_zero, "mg", None, RankDeficient, OLS_NONE, ALL, REST),
    (all_blocks_zero, "tw-mg-ridge", None, SingularSystem, RIDGE + NO_VARIATION, (), ()),
    (all_blocks_zero, "tw-pooled", None, RankDeficient, POOLED, ALL, REST),
    (coupled, "tw-mg", None, SingularCapacitance, COUPLING, (), ()),
    (coupled, "tw-mg-ridge", 0.0, SingularSystem, RIDGE + COUPLING, (), ()),
    (too_few_periods, "tw-mg", None, TooFewPeriods, FEW, (), ()),
    (too_few_periods, "mg", None, TooFewPeriods, FEW, (), ()),
    (overflowed, "tw-mg", None, RankDeficient, OVERFLOW, ALL6, REST6),
    (overflowed, "tw-mg-ridge", None, RankDeficient, OVERFLOW, ALL6, REST6),
    (overflowed, "tw-mg-ridge", 0.05, RankDeficient, OVERFLOW, ALL6, REST6),
    (overflowed, "tw-pooled", None, RankDeficient, OVERFLOW, ALL6, REST6),
    (overflowed, "mg", None, RankDeficient, OVERFLOW, ALL6, REST6),
]

# panel, use_ridge, class, message, units
POOLABILITY = [
    (constant_u3, False, RankDeficient, PER_UNIT + BLOCK_U3, ("u3",)),
    (all_blocks_zero, False, RankDeficient, PER_UNIT + NO_VARIATION, ALL),
    (all_blocks_zero, True, SingularSystem, RIDGE + NO_VARIATION, ()),
    (coupled, False, SingularCapacitance, COUPLING, ()),
    (too_few_periods, False, TooFewPeriods, FEW, ()),
    (overflowed, False, RankDeficient, OVERFLOW, ALL6),
    (overflowed, True, RankDeficient, OVERFLOW, ALL6),
]


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "units", ())


def cli_error(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("make,method,kappa,cls,msg,units,jk_units", ESTIMATE)
def test_estimate_and_jackknife(make, method, kappa, cls, msg, units, jk_units):
    panel = PanelData.from_arrays(*make())
    assert raised(lambda: estimate(panel, method, kappa)) == (cls, msg, units)
    f = fit(panel, [method], kappa)
    assert raised(lambda: f.estimate(Method(method))) == (cls, msg, units)
    annotated = f"{msg} [while re-estimating with unit 'u1' removed]"
    assert raised(lambda: jackknife(panel, method, kappa)) == (cls, annotated, jk_units)


@pytest.mark.parametrize("make,method,kappa,cls,msg,units,jk_units", ESTIMATE)
def test_cli_estimate(tmp_path, capsys, make, method, kappa, cls, msg, units, jk_units):
    path = write_panel_csv(tmp_path / "panel.csv", *make())
    argv = ["estimate", "--input", str(path), "--estimators", method]
    argv += [] if kappa is None else ["--ridge-kappa", str(kappa)]
    assert cli_error(capsys, argv) == (3, f"estimation error: {msg}\n")


@pytest.mark.parametrize("make,ridge,cls,msg,units", POOLABILITY)
def test_poolability(tmp_path, capsys, make, ridge, cls, msg, units):
    y, x = make()
    assert raised(lambda: poolability_test(PanelData.from_arrays(y, x), ridge)) == (cls, msg, units)
    path = write_panel_csv(tmp_path / "panel.csv", y, x)
    argv = ["test", "--input", str(path)] + ["--ridge"] * ridge
    assert cli_error(capsys, argv) == (3, f"estimation error: {msg}\n")


def test_overflow_fails_every_view_of_a_fit_of_all_methods():
    # the shared fit of every method raises each one's error, not a bare
    # ValueError from the pooled solve
    panel = PanelData.from_arrays(*overflowed())
    f = fit(panel, list(Method))
    for m in Method:
        assert raised(lambda: f.estimate(m)) == (RankDeficient, OVERFLOW, ALL6)


@pytest.mark.parametrize(
    "kappa,shown",
    [(-1, "-1"), (-1.0, "-1.0"), (np.inf, "inf"), (np.nan, "nan"), (np.float64(-2), "-2.0")],
)
def test_bad_shift_reads_as_given(kappa, shown):
    panel = PanelData.from_arrays(*constant_u3())
    want = (OutOfRange, f"kappa must be nonnegative and finite, got {shown}", ())
    assert raised(lambda: estimate(panel, "tw-mg-ridge", kappa)) == want
    assert raised(lambda: fit(panel, ["tw-mg-ridge"], kappa).estimate(Method.TW_MG_RIDGE)) == want
    assert raised(lambda: jackknife(panel, "tw-mg-ridge", kappa)) == want
