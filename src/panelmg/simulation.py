"""Monte Carlo harness with six built-in data generating processes.

All processes share one template: outcomes carry unit and period effects, the
regressors carry matching effects, and unit slopes are either common or
randomly varying around 1. The primitive draws are iid standard normal; the
effect components (lam, f, gam) are drawn with mean 1, the shocks with mean 0.

dgp 1  one regressor, common slope, interactive effect lam_i * f_t in y and
       gam_i * f_t in x on top of the additive two-way effects.
dgp 2  as 1 but slopes vary: beta_i = 1 + eta_i, eta_i independent of x.
dgp 3  as 2 but the regressor shock is v_it = beta_i xi_it + v*_it, so slopes
       correlate with regressor volatility (pooling is inconsistent).
dgp 4  two regressors, one interactive factor; beta_2i loads on the factor
       loading of x2, v_1it = beta_1i xi_it + v*_1it, and the outcome shock
       is AR(1) scaled by sqrt(1 + 0.25 x1^2) (heteroskedastic, dependent).
dgp 5  as 3 with the interactive term removed from the outcome equation
       (regressors unchanged), leaving additive two-way effects in y.
dgp 6  as 4 with the interactive terms removed from both equations.

Per-replication seeds are derived with numpy's SeedSequence spawn keys, so a
report depends only on (base_seed, cells, replications) and never on the
worker count or the batching.

A cell's replications run in batches of at most ``_BATCH_ELEMENTS`` values
of x (replications x N x T x K), so the batches depend on the cell's shape
alone. Each replication still draws its panel from its own seed; the panels
of a batch are stacked and fitted by one ``inference.fit``: one demeaning
and one stacked pass per estimator, which gives every panel the
floating-point result it gets alone. Leave-one-out values, Omega, coverage
and the joint homogeneity statistic follow as stacked arrays, and what would
raise for one panel is a mask on the stack. A failing estimator gives a NaN
row, counted as a failure. A panel whose leave-one-out subsamples are
flagged for one estimator has them re-estimated literally on that panel
alone; if that raises, the panel has no interval for it, and no test if it
is tw-pooled's values that fail. A singular OmegaDelta, or a joint statistic
that is not finite and >= 0, gives no test either. So each replication's
result is the one a loop of the public one-panel functions gives.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import OutOfRange
from .estimators import Method
from .inference import fit, normal_quantile_upper
from .panel import PanelData

__all__ = [
    "DgpSpec",
    "SimTruth",
    "SimCell",
    "SimReport",
    "simulate_dgp",
    "run_monte_carlo",
    "DGP_N_REGRESSORS",
]

DGP_N_REGRESSORS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
AR_BURN_IN = 50
_INFERENCE_METHODS = (Method.TW_MG, Method.TW_MG_RIDGE)
# A cell's replications run in stacks of at most this many elements
# (replications x N x T x K), so its batches depend on its shape alone.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DgpSpec:
    """One simulated panel: which process, its dimensions, and the seed."""

    dgp_id: int
    n_units: int
    n_periods: int
    seed: int

    def __post_init__(self) -> None:
        if self.dgp_id not in DGP_N_REGRESSORS:
            raise OutOfRange(f"dgp_id must be in 1..6, got {self.dgp_id}")
        if self.n_units < 2:
            raise OutOfRange(f"need n_units >= 2, got {self.n_units}")
        if self.n_periods < 2:
            raise OutOfRange(f"need n_periods >= 2, got {self.n_periods}")
        if self.seed < 0:
            raise OutOfRange(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_regressors(self) -> int:
        return DGP_N_REGRESSORS[self.dgp_id]


@dataclass(frozen=True)
class SimTruth:
    """True parameters behind one simulated panel."""

    beta0: np.ndarray
    unit_betas: np.ndarray


def _stacked(draw, rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    """``draw(rng)``'s arrays for each generator, each stacked over them."""
    stacks: list[np.ndarray] = []
    for r, rng in enumerate(rngs):
        arrays = draw(rng)
        if not stacks:
            stacks = [np.empty((len(rngs),) + a.shape) for a in arrays]
        for stack, a in zip(stacks, arrays):
            stack[r] = a
    return stacks


def _simulate_one_regressor(dgp_id: int, n: int, t: int, rngs):
    def draw(rng: np.random.Generator):
        lam = 1.0 + rng.standard_normal(n)
        f = 1.0 + rng.standard_normal(t)
        gam = 1.0 + rng.standard_normal(n)
        u = rng.standard_normal((n, t))
        xi = rng.standard_normal((n, t))
        eta_star = rng.standard_normal(n)
        v_star = rng.standard_normal((n, t))
        return lam, f, gam, u, xi, eta_star, v_star

    lam, f, gam, u, xi, eta_star, v_star = _stacked(draw, rngs)
    lam, gam, f = lam[..., None], gam[..., None], f[..., None, :]
    beta = np.ones_like(eta_star) if dgp_id == 1 else 1.0 + eta_star
    if dgp_id in (3, 5):
        v = beta[..., None] * xi + v_star
    else:
        v = v_star
    x = lam + f + gam * f + v
    y = beta[..., None] * x + lam + f + u
    if dgp_id != 5:
        y = y + lam * f
    return y, x[..., None], beta[..., None]


def _simulate_two_regressor(dgp_id: int, n: int, t: int, rngs):
    def draw(rng: np.random.Generator):
        lam = 1.0 + rng.standard_normal(n)
        f = 1.0 + rng.standard_normal(t)
        gam1 = 1.0 + rng.standard_normal(n)
        gam2 = 1.0 + rng.standard_normal(n)
        u_shocks = rng.standard_normal((n, AR_BURN_IN + t))
        xi = rng.standard_normal((n, t))
        eta1_star = rng.standard_normal(n)
        eta2_star = rng.standard_normal(n)
        v1_star = rng.standard_normal((n, t))
        v2_star = rng.standard_normal((n, t))
        return lam, f, gam1, gam2, u_shocks, xi, eta1_star, eta2_star, v1_star, v2_star

    lam, f, gam1, gam2, u_shocks, xi, eta1_star, eta2_star, v1_star, v2_star = _stacked(
        draw, rngs
    )
    beta1 = 1.0 + eta1_star
    beta2 = gam2 + eta2_star  # 1 + (gam2 - 1) + eta2*
    lam, f = lam[..., None], f[..., None, :]
    v1 = beta1[..., None] * xi + v1_star
    v2 = v2_star
    interactive = dgp_id == 4
    x1 = lam + f + v1
    x2 = lam + f + v2
    if interactive:
        x1 = x1 + gam1[..., None] * f
        x2 = x2 + gam2[..., None] * f
    # AR(1) with coefficient 0.25 from a zero start, burn-in discarded; each
    # shock is replaced by the process value once it has been read.
    prev = np.zeros(u_shocks.shape[:-1])
    for s in range(AR_BURN_IN + t):
        prev = u_shocks[..., s] + 0.25 * prev
        u_shocks[..., s] = prev
    u = np.sqrt(1.0 + 0.25 * x1**2) * u_shocks[..., AR_BURN_IN:]
    y = beta1[..., None] * x1 + beta2[..., None] * x2 + lam + f + u
    if interactive:
        y = y + lam * f
    return y, np.stack([x1, x2], axis=-1), np.stack([beta1, beta2], axis=-1)


def _draw(
    dgp_id: int, n_units: int, n_periods: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y (R, N, T), x (R, N, T, K) and the unit slopes (R, N, K) of the
    panels drawn from ``seeds``, stacked in their order.

    Each panel comes from its own generator, and every operation on the
    draws is elementwise, so a panel does not depend on its stack.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if DGP_N_REGRESSORS[dgp_id] == 1:
        return _simulate_one_regressor(dgp_id, n_units, n_periods, rngs)
    return _simulate_two_regressor(dgp_id, n_units, n_periods, rngs)


def simulate_dgp(spec: DgpSpec) -> tuple[PanelData, SimTruth]:
    """Draw one panel from the process described by ``spec``.

    Deterministic given ``spec.seed``; the same spec always yields the same
    arrays bit for bit.
    """
    y, x, unit_betas = (
        a[0] for a in _draw(spec.dgp_id, spec.n_units, spec.n_periods, [spec.seed])
    )
    panel = PanelData.from_arrays(y, x)
    truth = SimTruth(beta0=np.ones(spec.n_regressors), unit_betas=unit_betas)
    return panel, truth


@dataclass(frozen=True)
class SimCell:
    """Aggregated metrics for one (dgp, N, T) cell and one estimator."""

    dgp_id: int
    n_units: int
    n_periods: int
    estimator: str
    replications: int
    failures: int
    bias_x10: tuple[float, ...]
    mse_x100: tuple[float, ...]
    coverage_95: tuple[float, ...] | None
    rejection_rate_5pct: float | None
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class SimReport:
    """Full Monte Carlo report; wall time never enters the serialized forms."""

    cells: tuple[SimCell, ...]
    base_seed: int | None = None
    replications: int | None = None
    level: float = 0.95
    test_level: float = 0.05

    def to_json_dict(self) -> dict:
        return {
            "schema": "panelmg/1",
            "kind": "simulation-report",
            "base_seed": self.base_seed,
            "replications": self.replications,
            "level": self.level,
            "test_level": self.test_level,
            "cells": [
                {
                    "dgp": c.dgp_id,
                    "n_units": c.n_units,
                    "n_periods": c.n_periods,
                    "estimator": c.estimator,
                    "replications": c.replications,
                    "failures": c.failures,
                    "bias_x10": list(c.bias_x10),
                    "mse_x100": list(c.mse_x100),
                    "coverage_95": None if c.coverage_95 is None else list(c.coverage_95),
                    "rejection_rate_5pct": c.rejection_rate_5pct,
                }
                for c in self.cells
            ],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    _CSV_HEADER = (
        "dgp,n_units,n_periods,estimator,coefficient,replications,failures,"
        "bias_x10,mse_x100,coverage_95,rejection_rate_5pct"
    ).split(",")

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self._CSV_HEADER)
            for c in self.cells:
                for j in range(len(c.bias_x10)):
                    writer.writerow(
                        [
                            c.dgp_id,
                            c.n_units,
                            c.n_periods,
                            c.estimator,
                            j + 1,
                            c.replications,
                            c.failures,
                            repr(c.bias_x10[j]),
                            repr(c.mse_x100[j]),
                            "" if c.coverage_95 is None else repr(c.coverage_95[j]),
                            (
                                ""
                                if c.rejection_rate_5pct is None
                                else repr(c.rejection_rate_5pct)
                            ),
                        ]
                    )


def _derive_seed(base_seed: int, cell_index: int, replication: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(cell_index, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_batch(batch: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The replications of one cell, run as one stack.

    ``batch`` is (dgp, N, T, estimator names, seeds, level, test level),
    one seed per replication. Each replication draws its own panel from its
    own seed, as ``simulate_dgp`` draws it, and the panels are stacked into
    y (R, N, T) and x (R, N, T, K). One ``inference.fit`` of the stack gives
    the estimates, the leave-one-out values, Omega and the joint statistic
    as stacked arrays, and coverage follows from them.

    Returns, per replication and estimator, the estimation errors (R, M, K),
    NaN where the estimator fails; whether each coefficient's interval
    covers the truth (R, M, K); and whether the homogeneity test rejects
    (R, M). Coverage is NaN where the estimator or its leave-one-out values
    fail, rejection also where tw-pooled's do or OmegaDelta is singular.
    """
    dgp_id, n_units, n_periods, method_values, seeds, level, test_level = batch
    methods = [Method(v) for v in method_values]
    y, x, _ = _draw(dgp_id, n_units, n_periods, seeds)
    k = DGP_N_REGRESSORS[dgp_id]
    inf_methods = [m for m in methods if m in _INFERENCE_METHODS]
    loo = inf_methods + [Method.TW_POOLED] if inf_methods else []
    f = fit(SimpleNamespace(y=y, x=x), methods + [m for m in loo if m not in methods], loo=loo)
    errors = np.stack([f.beta[m] - np.ones(k) for m in methods], axis=1)
    covered = np.full(errors.shape, np.nan)
    rejected = np.full(errors.shape[:-1], np.nan)
    has = {m: np.isfinite(f.beta[m]).all(axis=-1) & f.has[m] for m in loo}
    z = normal_quantile_upper((1.0 - level) / 2.0)
    for m in inf_methods:
        j = methods.index(m)
        se = np.sqrt(np.diagonal(f.omega(m), axis1=-2, axis2=-1) / n_units)
        covered[has[m], j] = (np.abs(errors[:, j]) <= z * se)[has[m]]
        _, _, joint, singular, tail = f.homogeneity(m)
        tested = has[m] & has[Method.TW_POOLED] & ~singular & np.isfinite(joint) & (joint >= 0.0)
        rejected[tested, j] = (tail < test_level)[tested]
    return errors, covered, rejected


def _aggregate_cell(
    cell: tuple[int, int, int],
    methods: Sequence[Method],
    errors: np.ndarray,
    covered: np.ndarray,
    rejected: np.ndarray,
    wall_time: float,
) -> list[SimCell]:
    """One SimCell per estimator from a cell's replications, given as
    ``_run_batch`` gives them: errors and coverage (R, M, K), rejection
    (R, M), each NaN where a replication has none."""
    dgp_id, n_units, n_periods = cell
    nan = (float("nan"),) * DGP_N_REGRESSORS[dgp_id]
    out = []
    for j, m in enumerate(methods):
        ok = errors[:, j][np.isfinite(errors[:, j]).all(axis=-1)]
        bias, mse = nan, nan
        if len(ok):
            bias = tuple(float(v) for v in 10.0 * ok.mean(axis=0))
            mse = tuple(float(v) for v in 100.0 * np.square(ok).mean(axis=0))
        cov = covered[:, j][~np.isnan(covered[:, j, 0])]
        rej = rejected[:, j][~np.isnan(rejected[:, j])]
        out.append(
            SimCell(
                dgp_id=dgp_id,
                n_units=n_units,
                n_periods=n_periods,
                estimator=m.value,
                replications=len(errors),
                failures=len(errors) - len(ok),
                bias_x10=bias,
                mse_x100=mse,
                coverage_95=tuple(float(v) for v in cov.mean(axis=0)) if len(cov) else None,
                rejection_rate_5pct=float(rej.mean()) if len(rej) else None,
                wall_time_s=wall_time,
            )
        )
    return out


def run_monte_carlo(
    cells: Sequence[tuple[int, int, int]],
    estimators: Sequence[Method | str],
    replications: int,
    base_seed: int,
    level: float = 0.95,
    test_level: float = 0.05,
    workers: int = 1,
) -> SimReport:
    """Run the Monte Carlo over a grid of (dgp_id, n_units, n_periods) cells.

    Each replication derives its own seed from (base_seed, cell index,
    replication index). The unit of work is a batch: consecutive
    replications of one cell, fitted as one stack (see the module
    docstring), whose size depends only on the cell's shape. With
    ``workers`` > 1 whole batches go to worker processes. Results are
    aggregated in replication order, so the report is identical for any
    ``workers`` >= 1 and any batch size. A replication whose estimator
    fails is tallied per cell and excluded from that cell's averages rather
    than aborting the run; one whose leave-one-out values or homogeneity
    test fail is left out of that cell's coverage or rejection rate.
    """
    if replications < 1:
        raise OutOfRange(f"need at least 1 replication, got {replications}")
    if base_seed < 0:
        raise OutOfRange(f"base seed must be >= 0, got {base_seed}")
    if not 0.0 < level < 1.0:
        raise OutOfRange(f"confidence level must be in (0, 1), got {level}")
    if not 0.0 < test_level < 1.0:
        raise OutOfRange(f"test level must be in (0, 1), got {test_level}")
    if workers < 1:
        raise OutOfRange(f"workers must be >= 1, got {workers}")
    if not cells:
        raise OutOfRange("need at least one simulation cell")
    methods = []
    for e in estimators:
        m = Method(e)
        if m not in methods:
            methods.append(m)
    if not methods:
        raise OutOfRange("need at least one estimator")
    for dgp_id, n_units, n_periods in cells:
        DgpSpec(dgp_id, n_units, n_periods, 0)  # validates the cell
        k = DGP_N_REGRESSORS[dgp_id]
        needs_periods = set(methods) & {Method.TW_MG, Method.STANDARD_MG}
        if needs_periods and n_periods <= k + 1:
            raise OutOfRange(
                f"cell (dgp={dgp_id}, N={n_units}, T={n_periods}) needs "
                f"T > {k + 1} for the requested estimators"
            )

    method_values = tuple(m.value for m in methods)
    all_cells: list[SimCell] = []
    executor = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        for ci, cell in enumerate(cells):
            dgp_id, n_units, n_periods = cell
            size = max(1, _BATCH_ELEMENTS // (n_units * n_periods * DGP_N_REGRESSORS[dgp_id]))
            seeds = [_derive_seed(base_seed, ci, r) for r in range(replications)]
            batches = [
                (*cell, method_values, seeds[i : i + size], level, test_level)
                for i in range(0, replications, size)
            ]
            start = time.perf_counter()
            run = map if executor is None else executor.map
            errors, covered, rejected = (np.concatenate(a) for a in zip(*run(_run_batch, batches)))
            wall = time.perf_counter() - start
            all_cells.extend(_aggregate_cell(cell, methods, errors, covered, rejected, wall))
    finally:
        if executor is not None:
            executor.shutdown()
    return SimReport(
        cells=tuple(all_cells),
        base_seed=base_seed,
        replications=replications,
        level=level,
        test_level=test_level,
    )
