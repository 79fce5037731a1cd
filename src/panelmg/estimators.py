"""Slope estimators for heterogeneous panels with two-way fixed effects.

``fit_stack`` runs four estimators on a demeaned panel or stack, reading
every per-unit cross product from the Gram matrices the demeaning caches
(``DemeanedPanel.unit_gram`` and ``pooled_gram``):

* ``tw-mg``: per-unit least-squares slopes after the two-way projection,
  averaged across units (the mean-group estimator).
* ``tw-mg-ridge``: same system with a vanishing ridge shift on every
  per-unit block, for very short panels where some block is near singular.
* ``tw-pooled``: a single pooled slope vector on the double-demeaned data
  (classic two-way fixed effects).
* ``mg``: per-unit OLS of y on x and an intercept, no time effects, averaged
  across units. Included as the benchmark the two-way variants improve on.

No estimator raises there: a panel that fails a check gets NaN slopes and
a record of why. ``raise_failure`` turns one panel's record into the error
the public ``estimate`` (``inference``) raises, and it is the only place an
estimator error is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import OutOfRange, RankDeficient, SingularCapacitance, SingularSystem, TooFewPeriods
from .gram import (
    DEFAULT_RANK_TOLERANCE,
    SCREEN_TOLERANCE,
    TwoWayFactor,
    UnitBlocks,
    loo_two_way,
    positive_finite,
    sym_det,
    sym_eig_bounds,
    sym_inv,
    sym_solve,
    two_way_slopes,
)
from .panel import DemeanedPanel, PanelData

__all__ = ["Method", "SlopeEstimates", "compute_ridge_kappa"]


class Method(str, Enum):
    """Estimator identifiers; values double as CLI / report names."""

    TW_MG = "tw-mg"
    TW_MG_RIDGE = "tw-mg-ridge"
    TW_POOLED = "tw-pooled"
    STANDARD_MG = "mg"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SlopeEstimates:
    """Result of one estimator run.

    ``beta_hat`` is the K-vector of slope estimates. ``unit_slopes`` holds the
    N x K per-unit slopes for mean-group style estimators and is None for the
    pooled estimator; when present, ``beta_hat`` is its column mean.
    ``kappa_used`` records the ridge shift (None when no ridge is involved).
    """

    method: Method
    beta_hat: np.ndarray
    unit_slopes: np.ndarray | None
    kappa_used: float | None = None

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta_hat, dtype=np.float64)
        beta.flags.writeable = False
        object.__setattr__(self, "beta_hat", beta)
        if self.unit_slopes is not None:
            slopes = np.asarray(self.unit_slopes, dtype=np.float64)
            slopes.flags.writeable = False
            object.__setattr__(self, "unit_slopes", slopes)

    @property
    def n_regressors(self) -> int:
        return self.beta_hat.shape[0]


def _ridge_kappa(dp: DemeanedPanel) -> np.ndarray:
    """The shift of ``compute_ridge_kappa`` for each panel (...) of ``dp``."""
    c_kappa = np.median(sym_det(dp.pooled_gram / dp.n_periods), axis=-1)
    # max(c_kappa, 0.0) as Python takes it, so a NaN stays NaN
    return np.where(0.0 > c_kappa, 0.0, c_kappa) / dp.n_units


def compute_ridge_kappa(panel: PanelData) -> float:
    """Data-driven ridge shift: median per-unit Gram determinant over N.

    The determinant is taken of (1/T) sum_t xdd_it xdd_it' computed from the
    double-demeaned regressors; the median over units (midpoint average for
    even N) is divided by N so the shift vanishes as the cross-section grows.
    """
    return float(_ridge_kappa(panel.demeaned))


LooValues = tuple[np.ndarray, np.ndarray] | None
Why = dict[str, np.ndarray]


def _two_way(
    dp: DemeanedPanel, kappa: float | np.ndarray, loo: bool
) -> tuple[np.ndarray, LooValues, Why]:
    """Per-unit slopes of tw-mg (``kappa`` 0) or tw-mg-ridge, with ``loo``
    their leave-one-out values and flags, read from one factor, and why
    each panel fails: the block check's ``overflow``, ``scale`` and ``bad``
    units and the ``capacitance`` flag."""
    f = TwoWayFactor(dp, kappa)
    slopes, capacitance = two_way_slopes(f)
    why = {
        "overflow": ~np.isfinite(f.scale),
        "scale": f.scale,
        "bad": f.bad,
        "capacitance": capacitance,
    }
    return slopes, loo_two_way(f) if loo else None, why


def _tw_pooled(dp: DemeanedPanel, loo: bool) -> tuple[np.ndarray, LooValues, Why]:
    """Pooled two-way fixed effects slopes (..., K) on the double-demeaned
    data, with ``loo`` the pooled slopes on every (N-1)-unit subsample, and
    the (...) ``overflow`` and ``rank`` flags of the panels whose pooled
    design is not finite or fails.

    Both are read from the per-unit sums G_i = xdd_i' xdd_i (``pooled_gram``)
    and g_i = xdd_i' ydd_i. With period sums S_x, S_y of the full-sample
    double-demeaned data, deleting unit j leaves the normal equations

        (G - G_j - s' s / (N-1)) b = g - g_j - s' (S_y - ydd_j) / (N-1),

    s = S_x - xdd_j, since the subsample's own two-way projection is blind to
    the full sample's period means. The rank check of the full sample runs on
    each downdated matrix; flagged subsamples get placeholder values.
    """
    xdd, ydd, gram = dp.x_dd, dp.y_dd, dp.pooled_gram
    n, _, k = xdd.shape[-3:]
    gy = np.einsum("...ntk,...nt->...nk", xdd, ydd)
    within = np.trace(dp.unit_gram, axis1=-2, axis2=-1)
    a = gram.sum(axis=-3)
    b = gy.sum(axis=-2)
    # Compare against the unit-demeaned scale too, so a regressor absorbed
    # entirely by the two-way effects is flagged instead of solved.
    within_scale = within.sum(axis=-1) / k
    lo, hi = sym_eig_bounds(a, DEFAULT_RANK_TOLERANCE, within_scale)
    scale = np.where(within_scale > hi, within_scale, hi)  # max() as Python takes it
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = ~positive_finite(scale) | (lo / scale < DEFAULT_RANK_TOLERANCE)
    why = {"overflow": ~np.isfinite(scale), "rank": failed}
    slopes = sym_solve(a, b, failed)
    slopes[failed] = np.nan
    if not loo:
        return slopes, None, why
    sx = xdd.sum(axis=-3, keepdims=True) - xdd
    sy = ydd.sum(axis=-2, keepdims=True) - ydd
    a = a[..., None, :, :] - gram - sx.swapaxes(-1, -2) @ sx / (n - 1)
    b = b[..., None, :] - gy - np.einsum("...ntk,...nt->...nk", sx, sy) / (n - 1)
    within_scale = (within.sum(axis=-1, keepdims=True) - within) / k
    lo, hi = sym_eig_bounds(a, SCREEN_TOLERANCE, within_scale)
    scale = np.maximum(hi, within_scale)
    flagged = ~(positive_finite(scale) & (lo >= SCREEN_TOLERANCE * scale))
    a[flagged] = np.eye(k)
    return slopes, ((sym_inv(a) @ b[..., None])[..., 0], flagged), why


def _standard_mg(dp: DemeanedPanel, loo: bool) -> tuple[np.ndarray, LooValues, Why]:
    """Per-unit slopes without time effects (per-unit OLS with intercept),
    with ``loo`` the mean-group estimate on every (N-1)-unit subsample, and
    the block check's ``overflow``, ``scale`` and ``bad`` units.

    Per-unit slopes do not couple across units, so deleting unit j leaves
    (sum_i b_i - b_j) / (N-1) of the full-sample slopes.
    """
    blocks = UnitBlocks(dp.unit_gram)
    rhs = np.einsum("...ntk,...nt->...nk", dp.x_unit_dm, dp.y_unit_dm)
    slopes = np.einsum("...nkl,...nl->...nk", blocks.inverse, rhs)
    full = np.where(blocks.failed[..., None, None], np.nan, slopes)
    why = {"overflow": ~np.isfinite(blocks.scale), "scale": blocks.scale, "bad": blocks.bad}
    if not loo:
        return full, None, why
    values = (slopes.sum(axis=-2, keepdims=True) - slopes) / (dp.n_units - 1)
    # a flagged value depends on how its panel was stacked; it is not used
    return full, (np.where(blocks.flagged[..., None], 0.0, values), blocks.flagged), why


def raise_failure(panel: PanelData, method: Method, why: Why, kappa: float | None) -> None:
    """Raise the error ``estimate`` raises for ``method`` on ``panel``, one
    panel whose failure record from ``fit_stack`` is ``why``; return if the
    record holds no failure. ``kappa`` is the ridge shift as given, or the
    data-driven one.

    The checks are read in the order the estimator meets them: the number
    of periods, Gram matrices that overflow (which also make a data-driven
    shift infinite), the shift, the blocks, then the capacitance.
    """
    labels = panel.unit_labels
    if why.get("periods"):
        t, k = panel.x.shape[-2:]
        raise TooFewPeriods(f"need T > K + 1 periods per unit, got T={t} with K={k}")
    if why.get("overflow"):
        raise RankDeficient(
            "the regressors' cross products overflow (are not finite); rescale the regressors",
            units=labels,
        )
    if why.get("shift"):
        raise OutOfRange(f"kappa must be nonnegative and finite, got {kappa}")
    if why.get("rank"):
        raise RankDeficient("pooled design is rank deficient after double demeaning", units=labels)
    if "scale" not in why:
        return
    none = why["scale"] <= 0.0
    units = labels if none else tuple(labels[i] for i in np.flatnonzero(why["bad"]))
    names = ", ".join(repr(u) for u in units)
    if method is Method.STANDARD_MG:
        if none:
            raise RankDeficient("no within-unit regressor variation anywhere in the panel", units=units)
        if units:
            raise RankDeficient(f"per-unit OLS design is rank deficient for unit(s) {names}", units=units)
        return
    if none:
        msg = (
            "every diagonal block is numerically zero; the regressors carry "
            "no within-unit variation (consider the ridge estimator)"
        )
    elif units:
        msg = (
            f"diagonal block(s) for unit(s) {names} fail the condition threshold "
            f"{DEFAULT_RANK_TOLERANCE:g} (consider the ridge estimator)"
        )
    elif why["capacitance"]:
        msg = (
            "the cross-section coupling matrix is numerically singular; the "
            "double-demeaned regressors do not span all slope directions"
        )
    else:
        return
    if method is Method.TW_MG_RIDGE:
        raise SingularSystem(f"system is singular even with ridge shift kappa={kappa:g}: {msg}")
    if not units:
        raise SingularCapacitance(msg)
    raise RankDeficient(f"per-unit design is rank deficient: {msg}", units=units)


# Gram matrices that overflow are a failure the records report, not a warning.
@np.errstate(over="ignore", invalid="ignore")
def fit_stack(
    dp: DemeanedPanel,
    methods: Sequence[Method],
    kappa: float | None = None,
    loo: Sequence[Method] = (),
) -> tuple[dict, dict, np.ndarray | None, dict, dict]:
    """``estimate`` of ``methods`` on every panel of a stack of demeaned
    panels (...) and, for those in ``loo``, on every (N-1)-unit subsample.
    The per-unit Grams live with the demeaning; only the two-way factors are
    built per method, each dropped before the next. Every value is the one
    of that panel alone, bit for bit.

    Returns per method the per-unit slopes (..., N, K), or tw-pooled's
    (..., K), NaN where ``estimate`` would raise, and the record of why,
    which ``raise_failure`` reads for one panel: ``periods`` (...) for
    T <= K + 1 (tw-mg and mg; the ridge shift keeps every block invertible,
    so tw-mg-ridge tolerates T as small as 2); ``overflow`` (...) for Gram
    matrices that are not finite; ``shift`` (...) for a ridge shift that is
    negative or not finite; the block check's ``scale`` (...) and ``bad``
    units (..., N) (two-way and mg); the ``capacitance`` flag (...)
    (two-way); and tw-pooled's ``rank`` flag (...). It also returns
    tw-mg-ridge's shift (...), ``kappa`` or the data-driven one; and per
    method in ``loo`` the leave-one-out values (..., N, K) and the (..., N)
    mask of subsamples to re-estimate literally: those whose checks land
    within a margin (``gram.SCREEN_TOLERANCE``) of their thresholds or whose
    values are not finite, and all for N < 3, for T <= K + 1 where the
    estimator refuses it, or for a shift that fails. Flagged values are 0;
    the rest agree with re-estimation to rounding error.
    """
    n, t, k = dp.n_units, dp.n_periods, dp.n_regressors
    batch = dp.y_dd.shape[:-2]
    slopes, why, shift, values, flagged = {}, {}, None, {}, {}
    for m in methods:
        usable, want = np.full(batch, n >= 3), m in loo and n >= 3
        # T = K + 1 would leave zero residual degrees of freedom per unit
        # after the within-time projection, so it is refused as well.
        if m in (Method.TW_MG, Method.STANDARD_MG) and t <= k + 1:
            why[m] = {"periods": np.ones(batch, dtype=bool)}
            slopes[m], pair = np.full((*batch, n, k), np.nan), None
        elif m is Method.TW_POOLED:
            slopes[m], pair, why[m] = _tw_pooled(dp, want)
        elif m is Method.STANDARD_MG:
            slopes[m], pair, why[m] = _standard_mg(dp, want)
        elif m is Method.TW_MG:
            slopes[m], pair, why[m] = _two_way(dp, 0.0, want)
        else:
            shift = _ridge_kappa(dp) if kappa is None else np.asarray(kappa, dtype=float)
            bad = ~((0.0 <= shift) & (shift < np.inf))
            usable &= ~bad
            slopes[m], pair, why[m] = _two_way(dp, np.where(bad, 0.0, shift), want)
            slopes[m][bad] = np.nan
            why[m]["shift"] = bad
        if m in loo:
            if pair is None:
                pair = np.zeros((*batch, n, k)), np.ones((*batch, n), dtype=bool)
            flags = pair[1] | ~usable[..., None] | ~np.isfinite(pair[0]).all(axis=-1)
            values[m], flagged[m] = np.where(flags[..., None], 0.0, pair[0]), flags
    return slopes, why, shift, values, flagged
