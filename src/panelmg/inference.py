"""Leave-one-out jackknife inference and the slope-homogeneity test.

The covariance estimator needs every estimator's value on every (N-1)-unit
subsample. Deleting a unit changes only sums over units, so ``fit`` demeans
the panel once and reads each estimator's estimates and leave-one-out values
from one set of per-unit pieces, the latter (and each subsample's failure
checks) by subtracting one unit's terms from the full-sample sums: O(N) per
estimator and algebraically equal to re-estimating, so the jackknife stays
exact. A subsample whose check fails or comes within a fixed margin of its
threshold is re-estimated with the public estimator on the rebuilt
subpanel, which raises the error a literal loop over subsamples would raise
first, or supplies the value. ``estimate``, ``jackknife``,
``poolability_test``, the CLI's commands and each Monte Carlo batch are
views of ``fit``.

For an estimate b with leave-one-out values b_(-i),

    Omega = (N - 1) * sum_i (b_(-i) - mean) (b_(-i) - mean)'

estimates the covariance of sqrt(N) (b - beta), and the two-sided confidence
interval at level 1 - tau is b_k +/- z_{tau/2} sqrt(Omega_kk / N).

The poolability test contrasts the mean-group and pooled estimates with the
jackknife covariance of that contrast, both leave-one-out values taken from
the same subsample:

    J = N * delta' OmegaDelta^{-1} delta,   delta = b_mg - b_pooled,

asymptotically chi-square with K degrees of freedom under slope homogeneity.
Per-coefficient one-degree statistics use the diagonal of OmegaDelta, with a
Holm adjustment across the K raw p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateJackknife,
    EstimationError,
    MethodMismatch,
    OutOfRange,
    PanelMgError,
    RankDeficient,
    SingularOmegaDelta,
    TooSmall,
)
from .estimators import Method, SlopeEstimates, fit_stack, raise_failure
from .panel import PanelData, double_demean

__all__ = [
    "JackknifeCovariance",
    "ConfidenceInterval",
    "PerCoefficientTest",
    "PoolabilityReport",
    "estimate",
    "jackknife",
    "confidence_interval",
    "poolability_test",
    "omega_from_loo",
    "holm_adjust",
    "chi_square_upper_tail",
    "normal_quantile_upper",
]

OMEGA_DELTA_RANK_TOLERANCE = 1e-12


def chi_square_tails(x: np.ndarray | float, df: int) -> np.ndarray:
    """P(chi2_df > x) elementwise for x (...) and an integer df >= 1.

    With h = x / 2 the tail is a finite series (Abramowitz & Stegun 1964,
    26.4.4 and 26.4.5): the sum of exp(-h) h^j / Gamma(j + 1) over
    j = 0, 1, ... < df / 2 for even df, and erfc(sqrt(h)) plus the same sum
    over j = 1/2, 3/2, ... < df / 2 for odd df. Each term is the exponential
    of its logarithm, so none underflows while the tail is representable.
    A NaN x gives NaN.
    """
    h = np.asarray(x, dtype=np.float64) / 2.0
    j = np.arange(df // 2) + df % 2 / 2.0
    log_gamma = np.array([math.lgamma(v + 1.0) for v in j])
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.exp(j * np.log(h)[..., None] - h[..., None] - log_gamma).sum(axis=-1)
        if df % 2:
            tail = tail + np.vectorize(math.erfc, otypes=[float])(np.sqrt(h))
    return np.where(h == 0.0, 1.0, tail)


def chi_square_upper_tail(x: float, df: int) -> float:
    """P(chi2_df > x) for a finite x >= 0 and an integer df >= 1."""
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise OutOfRange(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if not np.isfinite(x) or x < 0:
        raise OutOfRange(f"test statistic must be finite and >= 0, got {x}")
    return float(chi_square_tails(x, df))


def normal_quantile_upper(tail_probability: float) -> float:
    """z such that P(Z > z) = tail_probability for standard normal Z."""
    if not 0.0 < tail_probability < 1.0:
        raise OutOfRange(
            f"tail probability must be in (0, 1), got {tail_probability}"
        )
    return -NormalDist().inv_cdf(tail_probability)


def holm_adjust(pvalues: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, kept verbatim as adj_(k) = min((K-k+1) p_(k), 1).

    Sorted with a stable order so ties keep input order; the multiplied values
    are mapped back to input positions without enforcing monotonicity across
    the sorted sequence.
    """
    p = np.asarray(list(pvalues), dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise OutOfRange("need a non-empty 1-d collection of p-values")
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise OutOfRange("p-values must lie in [0, 1]")
    k = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(k)
    for rank, idx in enumerate(order):
        adjusted[idx] = min((k - rank) * p[idx], 1.0)
    return [float(v) for v in adjusted]


@dataclass(frozen=True)
class JackknifeCovariance:
    """Exact leave-one-out covariance estimate for one estimator.

    ``omega_hat`` estimates Var(sqrt(N) (b - beta)); ``loo_estimates`` holds
    the N leave-one-out coefficient vectors in unit order.
    """

    method: Method
    omega_hat: np.ndarray
    loo_estimates: np.ndarray
    kappa_used: float | None = None

    @property
    def n_units(self) -> int:
        return self.loo_estimates.shape[0]

    @property
    def n_regressors(self) -> int:
        return self.loo_estimates.shape[1]


@dataclass(frozen=True)
class ConfidenceInterval:
    coefficient_index: int
    level: float
    point: float
    std_error: float
    lower: float
    upper: float


@dataclass(frozen=True)
class PerCoefficientTest:
    coefficient_index: int
    statistic: float
    p_value: float
    holm_p_value: float


@dataclass(frozen=True)
class PoolabilityReport:
    """Joint and per-coefficient slope-homogeneity test results."""

    joint_stat: float
    joint_df: int
    joint_pvalue: float
    per_coef: tuple[PerCoefficientTest, ...]
    delta: np.ndarray
    omega_delta: np.ndarray
    ridge_based: bool
    kappa_used: float | None


def _annotate(exc: EstimationError, label: str) -> EstimationError:
    msg = f"{exc} [while re-estimating with unit '{label}' removed]"
    if isinstance(exc, RankDeficient):
        return type(exc)(msg, units=exc.units)
    return type(exc)(msg)


def _require_three_units(n: int, what: str) -> None:
    if n < 3:
        raise TooSmall(f"{what} needs N >= 3 units, got N={n}")


def omega_from_loo(loo: np.ndarray) -> np.ndarray:
    """Jackknife covariance (N - 1) sum_i (b_(-i) - mean)(b_(-i) - mean)'
    of leave-one-out values (..., N, K), one per panel of a stack."""
    n = loo.shape[-2]
    centered = loo - loo.mean(axis=-2, keepdims=True)
    return (n - 1) * (centered.swapaxes(-1, -2) @ centered)


def joint_statistics(
    delta: np.ndarray, omega_delta: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """J = N delta' OmegaDelta^{-1} delta for contrasts delta (..., K).

    Returns J (...) and the (...) mask of singular OmegaDelta, where J is
    not defined and reads 0.
    """
    if delta.shape[-1] == 1:
        lo = hi = omega_delta[..., 0, 0]
    else:
        w = np.linalg.eigvalsh(omega_delta)
        lo, hi = w[..., 0], w[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (hi <= 0.0) | (lo / hi < OMEGA_DELTA_RANK_TOLERANCE)
    omega = np.where(singular[..., None, None], np.eye(delta.shape[-1]), omega_delta)
    solved = np.linalg.solve(omega, delta[..., None])
    joint = ((n * delta)[..., None, :] @ solved)[..., 0, 0]
    return np.where(singular, 0.0, joint), singular


@dataclass
class Fit:
    """Estimators fitted by ``fit`` to one panel or a stack of panels (...).

    ``beta`` holds each estimator's estimates (..., K), NaN where
    ``estimate`` would raise on that panel, ``why`` the record of
    ``estimators.fit_stack`` that says why, and ``unit_slopes`` the per-unit
    slopes (..., N, K), None for tw-pooled; ``kappa`` is tw-mg-ridge's shift:
    the one given to ``fit``, or each panel's data-driven one (...).
    ``loo`` and ``flagged`` hold the leave-one-out estimates and the
    subsamples re-estimated literally, ``has`` the (...) panels where every
    re-estimation succeeded, and ``failures`` each estimator's first failing
    one per panel, as (panel index, method, error), in the order a loop over
    the subsamples meets them.
    """

    panel: PanelData
    beta: dict[Method, np.ndarray]
    why: dict[Method, dict[str, np.ndarray]]
    unit_slopes: dict[Method, np.ndarray | None]
    kappa: float | np.ndarray | None
    loo: dict[Method, np.ndarray]
    flagged: dict[Method, np.ndarray]
    has: dict[Method, np.ndarray]
    failures: list[tuple[tuple, Method, PanelMgError]]

    def kappa_used(self, method: Method) -> float | None:
        return float(self.kappa) if method is Method.TW_MG_RIDGE else None

    def estimate(self, method: Method) -> SlopeEstimates:
        """The estimates of ``method`` on the one panel, or the error
        ``estimate`` raises there."""
        raise_failure(self.panel, method, self.why[method], self.kappa)
        kappa = self.kappa_used(method)
        return SlopeEstimates(method, self.beta[method], self.unit_slopes[method], kappa)

    def check(self, methods: Sequence[Method]) -> None:
        """Raise the first failing re-estimation of ``methods`` (one panel)."""
        for _, m, exc in self.failures:
            if m in methods:
                raise exc

    def omega(self, method: Method) -> np.ndarray:
        return omega_from_loo(self.loo[method])

    def jackknife(self, method: Method) -> JackknifeCovariance:
        """The jackknife covariance of ``method`` on the one panel."""
        _require_three_units(self.panel.y.shape[-2], "jackknife")
        self.check([method])
        loo = self.loo[method]
        if np.all(loo == loo[0]):
            raise DegenerateJackknife(
                "all leave-one-out estimates are identical; no spread to estimate"
            )
        return JackknifeCovariance(method, self.omega(method), loo, self.kappa_used(method))

    def homogeneity(self, method: Method) -> tuple[np.ndarray, ...]:
        """delta = b_mg - b_pooled (..., K) of ``method``, OmegaDelta, J with
        the mask of singular OmegaDelta (``joint_statistics``), and J's
        chi-square tail."""
        delta = self.beta[method] - self.beta[Method.TW_POOLED]
        omega_delta = omega_from_loo(self.loo[method] - self.loo[Method.TW_POOLED])
        joint, singular = joint_statistics(delta, omega_delta, self.panel.y.shape[-2])
        return delta, omega_delta, joint, singular, chi_square_tails(joint, delta.shape[-1])


def fit(
    panel: PanelData,
    methods: Sequence[Method],
    kappa: float | None = None,
    loo: Sequence[Method] | None = None,
) -> Fit:
    """Fit ``methods`` to ``panel``, a PanelData or a stack of panels (``y``
    (..., N, T) and ``x`` (..., N, T, K)), from one demeaning and its
    per-unit Gram matrices (a PanelData's own, cached on it), with
    leave-one-out estimates for those in ``loo`` (default: all).

    ``kappa`` is the ridge shift held on the full sample and every
    subsample, None for each panel's data-driven one. The subsamples
    ``estimators.fit_stack`` flags are re-estimated with the public
    estimator on the rebuilt subpanel, in unit order and then in the order
    of ``methods``, as a loop over all subsamples would visit them; one that
    fails is recorded, annotated with the removed unit, and ends that
    estimator's re-estimation on that panel.
    """
    methods = [Method(m) for m in methods]
    loo = methods if loo is None else loo
    dp = panel.demeaned if isinstance(panel, PanelData) else double_demean(panel)
    slopes, why, shift, values, flagged = fit_stack(dp, methods, kappa, loo)
    failures = []
    batch = panel.y.shape[:-2]
    has = {m: np.ones(batch, dtype=bool) for m in loo}
    any_flagged = np.any([flagged[m] for m in loo], axis=0) if loo else np.zeros((*batch, 0))
    for r in map(tuple, np.argwhere(any_flagged.any(axis=-1))):
        one = PanelData.from_arrays(panel.y[r], panel.x[r]) if batch else panel
        for i in np.flatnonzero(any_flagged[r]):
            sub = None
            for m in loo:
                if not (has[m][r] and flagged[m][r + (i,)]):
                    continue
                kappa_r = None
                if m is Method.TW_MG_RIDGE:
                    kappa_r = float(shift[r]) if kappa is None else kappa
                try:
                    sub = sub or one.without_unit(int(i))
                    values[m][r + (i,)] = estimate(sub, m, kappa=kappa_r).beta_hat
                except PanelMgError as exc:
                    if isinstance(exc, EstimationError):
                        exc = _annotate(exc, one.unit_labels[i])
                    has[m][r] = False
                    failures.append((r, m, exc))
    beta = {m: s if m is Method.TW_POOLED else s.mean(axis=-2) for m, s in slopes.items()}
    unit_slopes = {m: None if m is Method.TW_POOLED else s for m, s in slopes.items()}
    shift = shift if kappa is None else kappa
    return Fit(panel, beta, why, unit_slopes, shift, values, flagged, has, failures)


def estimate(
    panel: PanelData,
    method: Method | str,
    kappa: float | None = None,
) -> SlopeEstimates:
    """Estimate the slopes of ``panel`` with the estimator named by ``method``.

    ``kappa`` is honoured only by the ridge estimator; None there means the
    data-driven shift of ``compute_ridge_kappa``, and a negative or
    non-finite shift raises OutOfRange. Mean-group estimates are the
    average of the per-unit slopes. A failing check raises the error of
    ``estimators.raise_failure``. Calls on one panel share its demeaning.
    """
    method = Method(method)
    return fit(panel, [method], kappa, loo=[]).estimate(method)


def jackknife(
    panel: PanelData,
    method: Method | str,
    kappa: float | None = None,
) -> JackknifeCovariance:
    """Exact leave-one-out jackknife covariance for any supported estimator.

    Leave-one-out values are downdated from one pass over the panel, O(N)
    in all (``fit``); subsamples whose checks come near failure are
    re-estimated literally instead. A failing subsample raises the
    estimator's error, annotated with the removed unit.

    Parameters
    ----------
    panel : PanelData
        Needs N >= 3 so the spread over subsamples is defined.
    method : Method or str
        Which estimator to re-run on each subsample.
    kappa : float, optional
        Ridge only: the shift held on the full sample and on every
        subsample; by default the full sample's data-driven one.
    """
    method = Method(method)
    _require_three_units(panel.n_units, "jackknife")
    return fit(panel, [method], kappa).jackknife(method)


def confidence_interval(
    estimates: SlopeEstimates,
    covariance: JackknifeCovariance,
    level: float = 0.95,
    coefficient: int = 0,
) -> ConfidenceInterval:
    """Two-sided confidence interval for one coefficient."""
    if estimates.method is not covariance.method:
        raise MethodMismatch(
            f"estimates come from {estimates.method.value!r} but covariance "
            f"from {covariance.method.value!r}"
        )
    if not 0.0 < level < 1.0:
        raise OutOfRange(f"confidence level must be in (0, 1), got {level}")
    k = estimates.n_regressors
    if not 0 <= coefficient < k:
        raise OutOfRange(f"coefficient index {coefficient} out of range for K={k}")
    n = covariance.n_units
    z = normal_quantile_upper((1.0 - level) / 2.0)
    point = float(estimates.beta_hat[coefficient])
    se = float(np.sqrt(covariance.omega_hat[coefficient, coefficient] / n))
    return ConfidenceInterval(
        coefficient_index=coefficient,
        level=level,
        point=point,
        std_error=se,
        lower=point - z * se,
        upper=point + z * se,
    )


def poolability_test(panel: PanelData, use_ridge: bool = False) -> PoolabilityReport:
    """Test slope homogeneity by contrasting mean-group and pooled estimates.

    Leave-one-out values of both estimators come from the same subsample, so
    the jackknife covariance of the contrast accounts for their dependence.
    ``use_ridge`` swaps the plain mean-group estimator for its ridge variant
    (full-sample shift held fixed across subsamples).
    """
    _require_three_units(panel.n_units, "poolability test")
    base = Method.TW_MG_RIDGE if use_ridge else Method.TW_MG
    f = fit(panel, [base, Method.TW_POOLED])
    ridge_kappa = f.estimate(base).kappa_used
    f.estimate(Method.TW_POOLED)
    f.check([base, Method.TW_POOLED])
    delta, omega_delta, joint, singular, _ = f.homogeneity(base)
    if singular:
        raise SingularOmegaDelta(
            "jackknife covariance of the mean-group/pooled contrast is "
            "numerically singular; the joint statistic is not defined"
        )
    n, k = panel.n_units, panel.n_regressors
    stats = [float(n * delta[j] ** 2 / omega_delta[j, j]) for j in range(k)]
    raw = [chi_square_upper_tail(stat, 1) for stat in stats]
    holm = holm_adjust(raw)
    return PoolabilityReport(
        joint_stat=float(joint),
        joint_df=k,
        joint_pvalue=chi_square_upper_tail(float(joint), k),
        per_coef=tuple(
            PerCoefficientTest(j, stats[j], raw[j], holm[j]) for j in range(k)
        ),
        delta=delta,
        omega_delta=omega_delta,
        ridge_based=ridge_kappa is not None,
        kappa_used=ridge_kappa,
    )
