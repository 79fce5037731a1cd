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

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import RankDeficient, SingularBlock, SingularCapacitance, SingularSystem, TooFewPeriods
from .gram import (
    DEFAULT_RANK_TOLERANCE,
    SCREEN_TOLERANCE,
    loo_two_way,
    screen_loo_blocks,
    sym_eig_bounds,
    sym_inv,
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


def _tw_mg(dp: DemeanedPanel, unit_labels: tuple[str, ...]) -> np.ndarray:
    """Per-unit slopes of the two-way mean-group estimator."""
    _require_enough_periods(dp)
    try:
        return two_way_slopes(dp, 0.0, unit_labels)
    except SingularBlock as exc:
        raise RankDeficient(
            f"per-unit design is rank deficient: {exc}", units=exc.units
        ) from exc


def _ridge_kappa(dp: DemeanedPanel) -> float:
    xdd = dp.x_dd
    m = xdd.transpose(0, 2, 1) @ xdd / dp.n_periods
    k = m.shape[-1]
    if k == 1:
        dets = m[:, 0, 0]
    elif k == 2:
        dets = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2
    else:
        dets = np.linalg.det(m)
    c_kappa = float(np.median(dets))
    return max(c_kappa, 0.0) / dp.n_units


def compute_ridge_kappa(panel: PanelData) -> float:
    """Data-driven ridge shift: median per-unit Gram determinant over N.

    The determinant is taken of (1/T) sum_t xdd_it xdd_it' computed from the
    double-demeaned regressors; the median over units (midpoint average for
    even N) is divided by N so the shift vanishes as the cross-section grows.
    """
    return _ridge_kappa(double_demean(panel))


def _tw_mg_ridge(
    dp: DemeanedPanel, unit_labels: tuple[str, ...], kappa: float
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


def _tw_pooled(dp: DemeanedPanel, unit_labels: tuple[str, ...]) -> np.ndarray:
    """Pooled two-way fixed effects slopes on the double-demeaned data."""
    xdd = dp.x_dd
    a = np.einsum("ntk,ntl->kl", xdd, xdd)
    b = np.einsum("ntk,nt->k", xdd, dp.y_dd)
    lo, hi = sym_eig_bounds(a)
    # Compare against the unit-demeaned scale too, so a regressor absorbed
    # entirely by the two-way effects is flagged instead of solved.
    xu = dp.x_unit_dm
    within_scale = float(np.einsum("ntk,ntk->", xu, xu)) / dp.n_regressors
    scale = max(float(hi), within_scale)
    if scale <= 0.0 or float(lo) / scale < DEFAULT_RANK_TOLERANCE:
        raise RankDeficient(
            "pooled design is rank deficient after double demeaning",
            units=unit_labels,
        )
    return cho_solve(cho_factor(a, lower=True), b)


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
    n, _, k = xdd.shape
    g = xdd.transpose(0, 2, 1) @ xdd
    gy = np.einsum("ntk,nt->nk", xdd, ydd)
    sx = xdd.sum(axis=0) - xdd
    sy = ydd.sum(axis=0) - ydd
    a = g.sum(axis=0) - g - sx.transpose(0, 2, 1) @ sx / (n - 1)
    b = gy.sum(axis=0) - gy - np.einsum("ntk,nt->nk", sx, sy) / (n - 1)
    lo, hi = sym_eig_bounds(a)
    within = np.einsum("ntk,ntk->n", xu, xu)
    scale = np.maximum(hi, (within.sum() - within) / k)
    flagged = ~((scale > 0.0) & (lo >= SCREEN_TOLERANCE * scale))
    a[flagged] = np.eye(k)
    return np.linalg.solve(a, b[..., None])[..., 0], flagged


def _standard_mg(dp: DemeanedPanel, unit_labels: tuple[str, ...]) -> np.ndarray:
    """Per-unit slopes without time effects: per-unit OLS with intercept."""
    _require_enough_periods(dp)
    xu = dp.x_unit_dm
    blocks = xu.transpose(0, 2, 1) @ xu
    rhs = np.einsum("ntk,nt->nk", xu, dp.y_unit_dm)
    lo, hi = sym_eig_bounds(blocks)
    scale = float(np.max(hi, initial=0.0))
    if scale <= 0.0:
        raise RankDeficient(
            "no within-unit regressor variation anywhere in the panel",
            units=unit_labels,
        )
    bad = np.flatnonzero(lo / scale < DEFAULT_RANK_TOLERANCE)
    if bad.size:
        labels = tuple(unit_labels[int(i)] for i in bad)
        raise RankDeficient(
            f"per-unit OLS design is rank deficient for unit(s) "
            f"{', '.join(repr(l) for l in labels)}",
            units=labels,
        )
    return np.einsum("nkl,nl->nk", sym_inv(blocks), rhs)


def _standard_mg_loo(dp: DemeanedPanel) -> tuple[np.ndarray, np.ndarray]:
    """Standard mean-group slopes on every (N-1)-unit subsample.

    Per-unit slopes do not couple across units, so deleting unit j leaves
    (sum_i b_i - b_j) / (N-1).
    """
    xu = dp.x_unit_dm
    n, _, k = xu.shape
    blocks = xu.transpose(0, 2, 1) @ xu
    flagged = screen_loo_blocks(blocks)
    if flagged.all():
        return np.zeros((n, k)), flagged
    rhs = np.einsum("ntk,nt->nk", xu, dp.y_unit_dm)
    slopes = np.einsum("nkl,nl->nk", sym_inv(blocks), rhs)
    return (slopes.sum(axis=0) - slopes) / (n - 1), flagged


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
    labels = panel.unit_labels
    if method is Method.TW_POOLED:
        return SlopeEstimates(method, _tw_pooled(dp, labels), unit_slopes=None)
    kappa_used = None
    if method is Method.TW_MG:
        slopes = _tw_mg(dp, labels)
    elif method is Method.STANDARD_MG:
        slopes = _standard_mg(dp, labels)
    else:
        if kappa is None:
            kappa = _ridge_kappa(dp)
        slopes = _tw_mg_ridge(dp, labels, kappa)
        kappa_used = float(kappa)
    return SlopeEstimates(method, slopes.mean(axis=0), slopes, kappa_used)


def leave_one_out(
    dp: DemeanedPanel, method: Method | str, kappa: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates on every (N-1)-unit subsample, downdated from one demeaning.

    Returns the (N, K) leave-one-out estimates in unit order and an (N,)
    mask of subsamples whose value must come from re-estimating that
    subsample instead: one of its checks fails or lands within its margin
    (see ``gram.SCREEN_TOLERANCE``) of its threshold, or its value is not
    finite. Re-estimating a flagged subsample raises exactly the error the
    estimator raises there. Unflagged values agree with re-estimation to
    rounding error. ``kappa`` is the ridge shift held fixed on every
    subsample; None (each subsample recomputing its own) flags them all, as
    do N < 3, T <= K + 1 for the estimators that refuse it, and a negative
    or non-finite shift.
    """
    method = Method(method)
    n, k = dp.n_units, dp.n_regressors
    if method is Method.TW_MG_RIDGE:
        usable = kappa is not None and 0.0 <= kappa < np.inf
    elif method is Method.TW_POOLED:
        usable = True
    else:
        usable = dp.n_periods > k + 1
    if n < 3 or not usable:
        return np.zeros((n, k)), np.ones(n, dtype=bool)
    if method is Method.TW_POOLED:
        values, flagged = _tw_pooled_loo(dp)
    elif method is Method.STANDARD_MG:
        values, flagged = _standard_mg_loo(dp)
    else:
        values, flagged = loo_two_way(dp, 0.0 if method is Method.TW_MG else kappa)
    return values, flagged | ~np.isfinite(values).all(axis=1)
