"""Slope estimators for heterogeneous panels with two-way fixed effects.

``estimate(panel, method, kappa)`` demeans the panel once and runs one of
four estimators on it:

* ``tw-mg``: per-unit least-squares slopes after the two-way projection,
  averaged across units (the mean-group estimator).
* ``tw-mg-ridge``: same system with a vanishing ridge shift on every
  per-unit block, for very short panels where some block is near singular.
* ``tw-pooled``: a single pooled slope vector on the double-demeaned data
  (classic two-way fixed effects).
* ``mg``: per-unit OLS of y on x and an intercept, no time effects, averaged
  across units. Included as the benchmark the two-way variants improve on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import RankDeficient, SingularBlock, SingularCapacitance, SingularSystem, TooFewPeriods
from .gram import (
    DEFAULT_RANK_TOLERANCE,
    SCREEN_TOLERANCE,
    TwoWayFactor,
    UnitBlocks,
    loo_two_way,
    sym_eig_bounds,
    sym_solve,
    two_way_slopes,
)
from .panel import DemeanedPanel, PanelData, double_demean

__all__ = ["Method", "SlopeEstimates", "estimate", "compute_ridge_kappa"]


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


def _require_enough_periods(dp: DemeanedPanel) -> None:
    # T = K + 1 would leave zero residual degrees of freedom per unit after
    # the within-time projection, so it is refused as well.
    if dp.n_periods <= dp.n_regressors + 1:
        raise TooFewPeriods(
            f"need T > K + 1 periods per unit, got T={dp.n_periods} "
            f"with K={dp.n_regressors}"
        )


def _unit_gram(dp: DemeanedPanel) -> np.ndarray:
    """The per-unit Gram matrices xdd_i' xdd_i (..., N, K, K) of the
    double-demeaned regressors, which the ridge shift and tw-pooled share."""
    return dp.x_dd.swapaxes(-1, -2) @ dp.x_dd


def _ridge_kappa(dp: DemeanedPanel, gram: np.ndarray) -> np.ndarray:
    """The shift of ``compute_ridge_kappa`` for each panel (...), from the
    per-unit Gram matrices ``gram`` of ``_unit_gram``."""
    m = gram / dp.n_periods
    k = m.shape[-1]
    if k == 1:
        dets = m[..., 0, 0]
    elif k == 2:
        dets = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] ** 2
    else:
        dets = np.linalg.det(m)
    c_kappa = np.median(dets, axis=-1)
    # max(c_kappa, 0.0) as Python takes it, so a NaN stays NaN
    return np.where(0.0 > c_kappa, 0.0, c_kappa) / dp.n_units


def compute_ridge_kappa(panel: PanelData) -> float:
    """Data-driven ridge shift: median per-unit Gram determinant over N.

    The determinant is taken of (1/T) sum_t xdd_it xdd_it' computed from the
    double-demeaned regressors; the median over units (midpoint average for
    even N) is divided by N so the shift vanishes as the cross-section grows.
    """
    dp = double_demean(panel)
    return float(_ridge_kappa(dp, _unit_gram(dp)))


LooValues = tuple[np.ndarray, np.ndarray] | None


def _two_way(
    dp: DemeanedPanel,
    method: Method,
    kappa: float | np.ndarray,
    unit_labels: Sequence[str] | None,
    loo: bool,
) -> tuple[np.ndarray, LooValues]:
    """Per-unit slopes of tw-mg (``kappa`` 0) or tw-mg-ridge and, with
    ``loo``, their leave-one-out values and flags, read from one factor.

    Unlike the plain estimator the ridge one tolerates T as small as 2,
    because the shift keeps every per-unit block invertible whenever
    kappa > 0.
    """
    if method is Method.TW_MG:
        _require_enough_periods(dp)
    f = TwoWayFactor(dp, kappa)
    try:
        slopes = two_way_slopes(f, unit_labels)
    except (SingularBlock, SingularCapacitance) as exc:
        if method is Method.TW_MG_RIDGE:
            msg = f"system is singular even with ridge shift kappa={kappa:g}: {exc}"
            raise SingularSystem(msg) from exc
        if isinstance(exc, SingularCapacitance):
            raise
        raise RankDeficient(f"per-unit design is rank deficient: {exc}", units=exc.units) from exc
    return slopes, loo_two_way(f) if loo else None


def _tw_pooled(
    dp: DemeanedPanel, gram: np.ndarray, unit_labels: Sequence[str] | None, loo: bool
) -> tuple[np.ndarray, LooValues]:
    """Pooled two-way fixed effects slopes (..., K) on the double-demeaned
    data and, with ``loo``, the pooled slopes on every (N-1)-unit subsample.

    Both are read from the per-unit sums G_i = xdd_i' xdd_i (``gram``) and
    g_i = xdd_i' ydd_i. With period sums S_x, S_y of the full-sample
    double-demeaned data, deleting unit j leaves the normal equations

        (G - G_j - s' s / (N-1)) b = g - g_j - s' (S_y - ydd_j) / (N-1),

    s = S_x - xdd_j, since the subsample's own two-way projection is blind to
    the full sample's period means. The rank check of the full sample runs on
    each downdated matrix; flagged subsamples get placeholder values.
    """
    xdd, ydd, xu = dp.x_dd, dp.y_dd, dp.x_unit_dm
    n, _, k = xdd.shape[-3:]
    gy = np.einsum("...ntk,...nt->...nk", xdd, ydd)
    within = np.einsum("...ntk,...ntk->...n", xu, xu)
    a = gram.sum(axis=-3)
    b = gy.sum(axis=-2)
    lo, hi = sym_eig_bounds(a)
    # Compare against the unit-demeaned scale too, so a regressor absorbed
    # entirely by the two-way effects is flagged instead of solved.
    within_scale = within.sum(axis=-1) / k
    scale = np.where(within_scale > hi, within_scale, hi)  # max() as Python takes it
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = (scale <= 0.0) | (lo / scale < DEFAULT_RANK_TOLERANCE)
    if unit_labels is not None and failed:
        raise RankDeficient(
            "pooled design is rank deficient after double demeaning",
            units=tuple(unit_labels),
        )
    slopes = sym_solve(a, b, failed)
    slopes[failed] = np.nan
    if not loo:
        return slopes, None
    sx = xdd.sum(axis=-3, keepdims=True) - xdd
    sy = ydd.sum(axis=-2, keepdims=True) - ydd
    a = a[..., None, :, :] - gram - sx.swapaxes(-1, -2) @ sx / (n - 1)
    b = b[..., None, :] - gy - np.einsum("...ntk,...nt->...nk", sx, sy) / (n - 1)
    lo, hi = sym_eig_bounds(a)
    scale = np.maximum(hi, (within.sum(axis=-1, keepdims=True) - within) / k)
    flagged = ~((scale > 0.0) & (lo >= SCREEN_TOLERANCE * scale))
    a[flagged] = np.eye(k)
    return slopes, (np.linalg.solve(a, b[..., None])[..., 0], flagged)


def _standard_mg(
    dp: DemeanedPanel, unit_labels: Sequence[str] | None, loo: bool
) -> tuple[np.ndarray, LooValues]:
    """Per-unit slopes without time effects (per-unit OLS with intercept)
    and, with ``loo``, the mean-group estimate on every (N-1)-unit subsample.

    Per-unit slopes do not couple across units, so deleting unit j leaves
    (sum_i b_i - b_j) / (N-1) of the full-sample slopes.
    """
    _require_enough_periods(dp)
    xu = dp.x_unit_dm
    blocks = UnitBlocks(xu.swapaxes(-1, -2) @ xu)
    blocks.check(
        unit_labels,
        RankDeficient,
        "no within-unit regressor variation anywhere in the panel",
        "per-unit OLS design is rank deficient for unit(s) {}",
    )
    rhs = np.einsum("...ntk,...nt->...nk", xu, dp.y_unit_dm)
    slopes = np.einsum("...nkl,...nl->...nk", blocks.inverse, rhs)
    full = np.where(blocks.failed[..., None, None], np.nan, slopes)
    if not loo:
        return full, None
    values = (slopes.sum(axis=-2, keepdims=True) - slopes) / (dp.n_units - 1)
    # a flagged value depends on how its panel was stacked; it is not used
    return full, (np.where(blocks.flagged[..., None], 0.0, values), blocks.flagged)


def _slopes(
    dp: DemeanedPanel,
    method: Method,
    kappa: float | np.ndarray | None,
    unit_labels: Sequence[str] | None,
    loo: bool = False,
    gram: np.ndarray | None = None,
) -> tuple[np.ndarray, LooValues]:
    """Per-unit slopes (..., N, K), or pooled slopes (..., K), and with
    ``loo`` the leave-one-out values and flags read from the same per-unit
    pieces (None without). ``kappa`` is the ridge shift and ``gram`` the
    ``_unit_gram`` of ``dp`` if it is built. With ``unit_labels`` (one
    panel) a failing check raises as ``estimate`` documents; without, a
    failing panel's slopes are NaN.
    """
    if method is Method.TW_POOLED:
        return _tw_pooled(dp, _unit_gram(dp) if gram is None else gram, unit_labels, loo)
    if method is Method.STANDARD_MG:
        return _standard_mg(dp, unit_labels, loo)
    return _two_way(dp, method, 0.0 if method is Method.TW_MG else kappa, unit_labels, loo)


def estimate(
    panel: PanelData,
    method: Method | str,
    kappa: float | None = None,
) -> SlopeEstimates:
    """Estimate the slopes of ``panel`` with the estimator named by ``method``.

    ``kappa`` is honoured only by the ridge estimator; None there means the
    data-driven shift of ``compute_ridge_kappa``, and a negative or
    non-finite shift raises OutOfRange. Mean-group estimates are the
    average of the per-unit slopes.
    """
    method = Method(method)
    dp = double_demean(panel)
    if method is Method.TW_MG_RIDGE and kappa is None:
        kappa = _ridge_kappa(dp, _unit_gram(dp))
    slopes, _ = _slopes(dp, method, kappa, panel.unit_labels)
    if method is Method.TW_POOLED:
        return SlopeEstimates(method, slopes, unit_slopes=None)
    kappa_used = float(kappa) if method is Method.TW_MG_RIDGE else None
    return SlopeEstimates(method, slopes.mean(axis=0), slopes, kappa_used)


def fit_stack(
    dp: DemeanedPanel,
    methods: Sequence[Method],
    kappa: float | None = None,
    loo: Sequence[Method] = (),
) -> tuple[dict, np.ndarray | None, dict, dict]:
    """``estimate`` of ``methods`` on every panel of a stack of demeaned
    panels (...) and, for those in ``loo``, on every (N-1)-unit subsample,
    read from one set of per-unit pieces per method, each dropped before the
    next is built. Every value is the one of that panel alone, bit for bit.

    Returns the slopes of ``_slopes`` per method, NaN where ``estimate``
    would raise; tw-mg-ridge's shift (...), ``kappa`` or the data-driven one;
    and per method in ``loo`` the leave-one-out values (..., N, K) and the
    (..., N) mask of subsamples to re-estimate literally: those whose checks land
    within a margin (``gram.SCREEN_TOLERANCE``) of their thresholds or whose
    values are not finite, and all for N < 3, for T <= K + 1 where the
    estimator refuses it, or for a shift that is not finite. Flagged values
    are 0; the rest agree with re-estimation to rounding error.
    """
    n, t, k = dp.n_units, dp.n_periods, dp.n_regressors
    batch = dp.y_dd.shape[:-2]
    gram = _unit_gram(dp) if {Method.TW_MG_RIDGE, Method.TW_POOLED} & set(methods) else None
    slopes, shift, values, flagged = {}, None, {}, {}
    for m in methods:
        usable, want = np.full(batch, n >= 3), m in loo and n >= 3
        if m in (Method.TW_MG, Method.STANDARD_MG) and t <= k + 1:
            slopes[m], pair = np.full((*batch, n, k), np.nan), None
        elif m is Method.TW_MG_RIDGE:
            shift = _ridge_kappa(dp, gram) if kappa is None else np.asarray(kappa, dtype=float)
            # a shift that is not finite makes estimate raise OutOfRange; a
            # negative one raises it here
            finite = np.isfinite(shift)
            usable &= finite
            slopes[m], pair = _slopes(dp, m, np.where(finite, shift, 0.0), None, want)
            slopes[m][~finite] = np.nan
        else:
            slopes[m], pair = _slopes(dp, m, None, None, want, gram)
        if m in loo:
            if pair is None:
                pair = np.zeros((*batch, n, k)), np.ones((*batch, n), dtype=bool)
            flags = pair[1] | ~usable[..., None] | ~np.isfinite(pair[0]).all(axis=-1)
            values[m], flagged[m] = np.where(flags[..., None], 0.0, pair[0]), flags
    return slopes, shift, values, flagged
