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
    block_conditions,
    loo_two_way,
    screen_loo_blocks,
    sym_eig_bounds,
    sym_inv,
    sym_solve,
    two_way_slopes,
)
from .panel import DemeanedPanel, PanelData, double_demean

__all__ = ["Method", "SlopeEstimates", "estimate", "compute_ridge_kappa", "leave_one_out"]


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


def _tw_mg(dp: DemeanedPanel, unit_labels: Sequence[str] | None) -> np.ndarray:
    """Per-unit slopes of the two-way mean-group estimator."""
    _require_enough_periods(dp)
    try:
        return two_way_slopes(dp, 0.0, unit_labels)
    except SingularBlock as exc:
        raise RankDeficient(
            f"per-unit design is rank deficient: {exc}", units=exc.units
        ) from exc


def _ridge_kappa(dp: DemeanedPanel) -> np.ndarray:
    """The shift of ``compute_ridge_kappa`` for each panel (...)."""
    xdd = dp.x_dd
    m = xdd.swapaxes(-1, -2) @ xdd / dp.n_periods
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
    return float(_ridge_kappa(double_demean(panel)))


def _tw_mg_ridge(
    dp: DemeanedPanel, unit_labels: Sequence[str] | None, kappa: float | np.ndarray
) -> np.ndarray:
    """Per-unit slopes of the ridge-regularised two-way mean-group estimator.

    Unlike the plain estimator this tolerates T as small as 2 because the
    shift keeps every per-unit block invertible whenever kappa > 0.
    """
    try:
        return two_way_slopes(dp, kappa, unit_labels)
    except (SingularBlock, SingularCapacitance) as exc:
        raise SingularSystem(
            f"system is singular even with ridge shift kappa={kappa:g}: {exc}"
        ) from exc


def _tw_pooled(dp: DemeanedPanel, unit_labels: Sequence[str] | None) -> np.ndarray:
    """Pooled two-way fixed effects slopes (..., K) on the double-demeaned data."""
    xdd = dp.x_dd
    a = np.einsum("...ntk,...ntl->...kl", xdd, xdd)
    b = np.einsum("...ntk,...nt->...k", xdd, dp.y_dd)
    lo, hi = sym_eig_bounds(a)
    # Compare against the unit-demeaned scale too, so a regressor absorbed
    # entirely by the two-way effects is flagged instead of solved.
    xu = dp.x_unit_dm
    within_scale = np.einsum("...ntk,...ntk->...", xu, xu) / dp.n_regressors
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
    return slopes


def _tw_pooled_loo(dp: DemeanedPanel) -> tuple[np.ndarray, np.ndarray]:
    """Pooled slopes on every (N-1)-unit subsample from downdated sums.

    With G_i = xdd_i' xdd_i, g_i = xdd_i' ydd_i and period sums S_x, S_y of
    the full-sample double-demeaned data, deleting unit j leaves the normal
    equations

        (G - G_j - s' s / (N-1)) b = g - g_j - s' (S_y - ydd_j) / (N-1),

    s = S_x - xdd_j, since the subsample's own two-way projection is blind to
    the full sample's period means. The rank check of ``_tw_pooled`` runs on
    each downdated matrix; flagged subsamples get placeholder values.
    """
    xdd, ydd, xu = dp.x_dd, dp.y_dd, dp.x_unit_dm
    n, _, k = xdd.shape[-3:]
    g = xdd.swapaxes(-1, -2) @ xdd
    gy = np.einsum("...ntk,...nt->...nk", xdd, ydd)
    sx = xdd.sum(axis=-3, keepdims=True) - xdd
    sy = ydd.sum(axis=-2, keepdims=True) - ydd
    a = g.sum(axis=-3, keepdims=True) - g - sx.swapaxes(-1, -2) @ sx / (n - 1)
    b = gy.sum(axis=-2, keepdims=True) - gy - np.einsum("...ntk,...nt->...nk", sx, sy) / (n - 1)
    lo, hi = sym_eig_bounds(a)
    within = np.einsum("...ntk,...ntk->...n", xu, xu)
    scale = np.maximum(hi, (within.sum(axis=-1, keepdims=True) - within) / k)
    flagged = ~((scale > 0.0) & (lo >= SCREEN_TOLERANCE * scale))
    a[flagged] = np.eye(k)
    return np.linalg.solve(a, b[..., None])[..., 0], flagged


def _standard_mg(dp: DemeanedPanel, unit_labels: Sequence[str] | None) -> np.ndarray:
    """Per-unit slopes without time effects: per-unit OLS with intercept."""
    _require_enough_periods(dp)
    xu = dp.x_unit_dm
    blocks = xu.swapaxes(-1, -2) @ xu
    rhs = np.einsum("...ntk,...nt->...nk", xu, dp.y_unit_dm)
    scale, rcond = block_conditions(blocks)
    bad = rcond < DEFAULT_RANK_TOLERANCE
    failed = (scale <= 0.0) | bad.any(axis=-1)
    if unit_labels is not None and scale <= 0.0:
        raise RankDeficient(
            "no within-unit regressor variation anywhere in the panel",
            units=tuple(unit_labels),
        )
    if unit_labels is not None and failed:
        labels = tuple(unit_labels[int(i)] for i in np.flatnonzero(bad))
        raise RankDeficient(
            f"per-unit OLS design is rank deficient for unit(s) "
            f"{', '.join(repr(l) for l in labels)}",
            units=labels,
        )
    # a failing panel's blocks become identities, so none singular is inverted
    blocks = np.where(failed[..., None, None, None], np.eye(dp.n_regressors), blocks)
    slopes = np.einsum("...nkl,...nl->...nk", sym_inv(blocks), rhs)
    slopes[failed] = np.nan
    return slopes


def _standard_mg_loo(dp: DemeanedPanel) -> tuple[np.ndarray, np.ndarray]:
    """Standard mean-group slopes on every (N-1)-unit subsample.

    Per-unit slopes do not couple across units, so deleting unit j leaves
    (sum_i b_i - b_j) / (N-1).
    """
    xu = dp.x_unit_dm
    n, _, k = xu.shape[-3:]
    blocks = xu.swapaxes(-1, -2) @ xu
    flagged = screen_loo_blocks(blocks)
    if flagged.all():
        return np.zeros(flagged.shape + (k,)), flagged
    blocks = np.where(flagged.all(axis=-1)[..., None, None, None], np.eye(k), blocks)
    rhs = np.einsum("...ntk,...nt->...nk", xu, dp.y_unit_dm)
    slopes = np.einsum("...nkl,...nl->...nk", sym_inv(blocks), rhs)
    values = (slopes.sum(axis=-2, keepdims=True) - slopes) / (n - 1)
    # a flagged value depends on how its panel was stacked; it is not used
    return np.where(flagged[..., None], 0.0, values), flagged


def _slopes(
    dp: DemeanedPanel,
    method: Method,
    kappa: float | np.ndarray | None,
    unit_labels: Sequence[str] | None,
) -> tuple[np.ndarray, float | np.ndarray | None]:
    """Per-unit slopes (..., N, K), or pooled slopes (..., K), and the ridge
    shift used (None for the estimators without one).

    With ``unit_labels`` (one panel) a failing check raises as ``estimate``
    documents; without, a failing panel's slopes are NaN.
    """
    if method is Method.TW_POOLED:
        return _tw_pooled(dp, unit_labels), None
    if method is Method.TW_MG:
        return _tw_mg(dp, unit_labels), None
    if method is Method.STANDARD_MG:
        return _standard_mg(dp, unit_labels), None
    if kappa is None:
        kappa = _ridge_kappa(dp)
    return _tw_mg_ridge(dp, unit_labels, kappa), kappa


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
    slopes, kappa = _slopes(double_demean(panel), method, kappa, panel.unit_labels)
    if method is Method.TW_POOLED:
        return SlopeEstimates(method, slopes, unit_slopes=None)
    kappa_used = None if kappa is None else float(kappa)
    return SlopeEstimates(method, slopes.mean(axis=0), slopes, kappa_used)


def estimate_stack(
    dp: DemeanedPanel, method: Method | str
) -> tuple[np.ndarray, np.ndarray | None]:
    """``estimate`` on every panel of a stack of demeaned panels (...).

    Returns the estimates (..., K) and the ridge shifts (...) of
    ``tw-mg-ridge`` (None for the other estimators). Where ``estimate``
    would raise for one panel, its estimates are NaN instead; T too short
    for the estimator still raises TooFewPeriods. Every other value equals
    ``estimate``'s on that panel alone, bit for bit.
    """
    method = Method(method)
    if method is not Method.TW_MG_RIDGE:
        slopes, _ = _slopes(dp, method, None, None)
        return (slopes if method is Method.TW_POOLED else slopes.mean(axis=-2)), None
    kappa = _ridge_kappa(dp)
    # never negative; where it is not finite, estimate raises OutOfRange
    finite = np.isfinite(kappa)
    slopes, _ = _slopes(dp, method, np.where(finite, kappa, 0.0), None)
    return np.where(finite[..., None], slopes.mean(axis=-2), np.nan), kappa


def leave_one_out(
    dp: DemeanedPanel, method: Method | str, kappa: float | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates on every (N-1)-unit subsample, downdated from one demeaning.

    Returns the (..., N, K) leave-one-out estimates in unit order and an
    (..., N) mask of subsamples whose value must come from re-estimating
    that subsample instead: one of its checks fails or lands within its
    margin (see ``gram.SCREEN_TOLERANCE``) of its threshold, or its value is
    not finite. Re-estimating a flagged subsample raises exactly the error
    the estimator raises there. Unflagged values agree with re-estimation to
    rounding error. ``kappa`` is the ridge shift held fixed on every
    subsample, one or one per panel of a stack (...); None (each subsample
    recomputing its own) flags them all, as do N < 3, T <= K + 1 for the
    estimators that refuse it, and a negative or non-finite shift.
    """
    method = Method(method)
    n, k = dp.n_units, dp.n_regressors
    if method is Method.TW_MG_RIDGE:
        usable = kappa is not None and bool(np.all((0.0 <= kappa) & (kappa < np.inf)))
    elif method is Method.TW_POOLED:
        usable = True
    else:
        usable = dp.n_periods > k + 1
    if n < 3 or not usable:
        batch = dp.y_dd.shape[:-2]
        return np.zeros((*batch, n, k)), np.ones((*batch, n), dtype=bool)
    if method is Method.TW_POOLED:
        values, flagged = _tw_pooled_loo(dp)
    elif method is Method.STANDARD_MG:
        values, flagged = _standard_mg_loo(dp)
    else:
        values, flagged = loo_two_way(dp, 0.0 if method is Method.TW_MG else kappa)
    return values, flagged | ~np.isfinite(values).all(axis=-1)
