"""Dense reference implementations the tests treat as ground truth.

Everything here favours clarity over speed: explicit centering matrices,
explicit dummy-variable designs, and ``np.linalg.lstsq``. The structured code
under test must agree with these on small panels to tight tolerances.
"""

from __future__ import annotations

import numpy as np


def projection_double_demean(a: np.ndarray) -> np.ndarray:
    """Apply the two-way centering projection with explicit matrices.

    For an (N, T) array this is M_N @ a @ M_T with M_m = I - ones/m; for an
    (N, T, K) regressor cube each slice is projected the same way.
    """
    n, t = a.shape[:2]
    mn = np.eye(n) - np.ones((n, n)) / n
    mt = np.eye(t) - np.ones((t, t)) / t
    if a.ndim == 2:
        return mn @ a @ mt
    return np.einsum("ab,btk,ts->ask", mn, a, mt)


def lsdv_design(x: np.ndarray) -> np.ndarray:
    """Dummy-variable design: per-unit slope blocks, unit dummies, T-1 time dummies."""
    n, t, k = x.shape
    slopes = np.zeros((n * t, n * k))
    for i in range(n):
        slopes[i * t : (i + 1) * t, i * k : (i + 1) * k] = x[i]
    unit_dummies = np.kron(np.eye(n), np.ones((t, 1)))
    time_dummies = np.kron(np.ones((n, 1)), np.eye(t))[:, 1:]
    return np.hstack([slopes, unit_dummies, time_dummies])


def lsdv_unit_slopes(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-unit slopes from the joint dummy-variable regression, shape (N, K)."""
    n, t, k = x.shape
    coef, *_ = np.linalg.lstsq(lsdv_design(x), y.reshape(n * t), rcond=None)
    return coef[: n * k].reshape(n, k)


def lsdv_pooled_slopes(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Common slopes from OLS on x plus unit dummies plus T-1 time dummies."""
    n, t, k = x.shape
    design = np.hstack(
        [
            x.reshape(n * t, k),
            np.kron(np.eye(n), np.ones((t, 1))),
            np.kron(np.ones((n, 1)), np.eye(t))[:, 1:],
        ]
    )
    coef, *_ = np.linalg.lstsq(design, y.reshape(n * t), rcond=None)
    return coef[:k]


def per_unit_ols_slopes(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Slope part of separate per-unit OLS of y_i on (1, x_i)."""
    n, t, k = x.shape
    out = np.empty((n, k))
    for i in range(n):
        design = np.hstack([np.ones((t, 1)), x[i]])
        coef, *_ = np.linalg.lstsq(design, y[i], rcond=None)
        out[i] = coef[1:]
    return out


def dense_gram(x_unit_dm: np.ndarray, kappa: float = 0.0) -> np.ndarray:
    """Assemble blockdiag((1/T) xdot_i' xdot_i + kappa I) - C C' densely."""
    n, t, k = x_unit_dm.shape
    q = np.zeros((n * k, n * k))
    c = np.zeros((n * k, t))
    for i in range(n):
        xi = x_unit_dm[i]
        q[i * k : (i + 1) * k, i * k : (i + 1) * k] = xi.T @ xi / t + kappa * np.eye(k)
        c[i * k : (i + 1) * k] = xi.T / np.sqrt(n * t)
    return q - c @ c.T


def random_panel(
    seed: int,
    n: int,
    t: int,
    k: int,
    slope_spread: float = 0.3,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Well-conditioned random panel with two-way effects and one factor.

    Returns (y, x, unit_betas) with y of shape (N, T), x of shape (N, T, K).
    """
    rng = np.random.default_rng(seed)
    lam = rng.normal(1.0, 1.0, n)
    f = rng.normal(1.0, 1.0, t)
    gam = rng.normal(1.0, 1.0, (n, k))
    x = (
        lam[:, None, None]
        + f[None, :, None]
        + gam[:, None, :] * f[None, :, None]
        + rng.normal(0.0, 1.0, (n, t, k))
    )
    beta = 1.0 + slope_spread * rng.normal(0.0, 1.0, (n, k))
    y = (
        np.einsum("ntk,nk->nt", x, beta)
        + lam[:, None]
        + f[None, :]
        + noise * rng.normal(0.0, 1.0, (n, t))
    )
    return y, x, beta


def lapack_eig_bounds(blocks, tol=0.0, floor=0.0):
    """Smallest and largest eigenvalue of every symmetric block by one
    batched ``eigvalsh``: what the block checks read for K = 3 before the
    closed forms, in the signature of ``gram.sym_eig_bounds`` (``tol`` and
    ``floor`` are not needed)."""
    w = np.linalg.eigvalsh(blocks)
    return w[..., 0], w[..., -1]


def lapack_checks(monkeypatch):
    """Make every block check of the package read ``lapack_eig_bounds``:
    the per-unit blocks, H_j of the two-way leave-one-out and tw-pooled's
    designs."""
    import panelmg.estimators as estimators
    import panelmg.gram as gram

    monkeypatch.setattr(gram, "_unit_eig_bounds", lapack_eig_bounds)
    monkeypatch.setattr(gram, "sym_eig_bounds", lapack_eig_bounds)
    monkeypatch.setattr(estimators, "sym_eig_bounds", lapack_eig_bounds)


def literal_loo(panel, method, kappa=None):
    """Leave-one-out estimates by rebuilding and re-estimating every subpanel.

    Returns the (N, K) estimates in unit order. The first subsample whose
    estimate fails re-raises that error with the removed unit named the way
    the jackknife names it.
    """
    from panelmg import EstimationError, estimate

    out = np.empty((panel.n_units, panel.n_regressors))
    for i in range(panel.n_units):
        try:
            out[i] = estimate(panel.without_unit(i), method, kappa=kappa).beta_hat
        except EstimationError as exc:
            msg = f"{exc} [while re-estimating with unit '{panel.unit_labels[i]}' removed]"
            if hasattr(exc, "units"):
                raise type(exc)(msg, units=exc.units) from exc
            raise type(exc)(msg) from exc
    return out


def literal_validate_panel(records):
    """``validate_panel`` as a record-by-record loop over a dict of cells.

    Each record is checked for width, parsed, and checked for a repeated cell
    before the next is read, so the first offending record raises; balance is
    checked cell by cell in unit-major, first-appearance order.
    """
    from panelmg import PanelData
    from panelmg.errors import DuplicateCell, MalformedInput, TooSmall, UnbalancedPanel

    def coerce(raw, what):
        try:
            return float(raw)
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"cannot parse {what}: {raw!r}") from exc

    unit_order = {}
    time_order = {}
    cells = {}
    n_fields = None
    for row_no, rec in enumerate(records, start=1):
        rec = list(rec)
        if n_fields is None:
            n_fields = len(rec)
            if n_fields < 4:
                raise MalformedInput(
                    "records need at least 4 fields (unit, time, y, x1), "
                    f"got {n_fields}"
                )
        elif len(rec) != n_fields:
            raise MalformedInput(
                f"record {row_no} has {len(rec)} fields, expected {n_fields}"
            )
        unit = str(rec[0]).strip()
        time = str(rec[1]).strip()
        values = tuple(
            coerce(v, f"value in record {row_no} (unit '{unit}', time '{time}')")
            for v in rec[2:]
        )
        ui = unit_order.setdefault(unit, len(unit_order))
        ti = time_order.setdefault(time, len(time_order))
        if (ui, ti) in cells:
            raise DuplicateCell(f"duplicate cell for unit '{unit}', time '{time}'")
        cells[(ui, ti)] = values

    if n_fields is None:
        raise MalformedInput("no records supplied")

    units = list(unit_order)
    times = list(time_order)
    n, t, k = len(units), len(times), n_fields - 3
    if n < 2 or t < 2:
        raise TooSmall(f"panel must have N >= 2 and T >= 2, got N={n}, T={t}")

    y = np.empty((n, t))
    x = np.empty((n, t, k))
    for ui in range(n):
        for ti in range(t):
            vals = cells.get((ui, ti))
            if vals is None:
                raise UnbalancedPanel(
                    f"missing observation for unit '{units[ui]}' at time '{times[ti]}'"
                )
            y[ui, ti] = vals[0]
            x[ui, ti, :] = vals[1:]

    return PanelData(y=y, x=x, unit_labels=tuple(units), time_labels=tuple(times))


def literal_plain_seps(block: bytes, width: int) -> list[list[int]] | None:
    """Where each field of ``block``'s lines ends, line by line, if all of
    them are plain; else None. ``block`` ends in a newline.

    Each line is checked alone: at most ``csv.field_size_limit()`` bytes
    before its LF, no quote, no control byte but a CR just before the LF,
    and ``width - 1`` commas. The block must be UTF-8. A field ends at a
    comma or at the line's end: its CR if it has one, else its LF.
    """
    import csv

    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    seps, start = [], 0
    for line in block.split(b"\n")[:-1]:
        body = line[:-1] if line.endswith(b"\r") else line
        if (
            len(line) > csv.field_size_limit()
            or b'"' in body
            or any(byte < 0x20 for byte in body)
            or body.count(b",") != width - 1
        ):
            return None
        seps.append([start + i for i, byte in enumerate(body) if byte == 0x2C] + [start + len(body)])
        start += len(line) + 1
    return seps


def batched_capacitance_loo(dp, kappa):
    """``gram.loo_two_way`` with every subsample's T x T capacitance built.

    Forms M_i = xdot_i A_i for every unit, then checks each subsample's
    capacitance I_T - (sum M_i - M_j) / ((N-1) T) by its eigenvalues and
    solves it, all as one (N, T, T) batch. Returns the same (N, K) values
    and (N,) flags.
    """
    from panelmg.gram import SCREEN_TOLERANCE, TwoWayFactor, sym_inv

    xu, y = dp.x_unit_dm, dp.y_dd
    n, t, k = xu.shape
    factor = TwoWayFactor(dp, kappa)
    flagged = factor.flagged.copy()
    if flagged.all():
        return np.zeros((n, k)), flagged
    a = sym_inv(factor.blocks) @ xu.transpose(0, 2, 1)
    m = xu @ a
    sum_m = m.sum(axis=0)
    means = (y.sum(axis=0) - y) / (n - 1)
    rhs = (
        np.einsum("nts,ns->t", m, y)
        - means @ sum_m.T
        - np.einsum("nts,ns->nt", m, y - means)
    )
    cap = np.eye(t) - (sum_m - m) / ((n - 1) * t)
    ev = np.linalg.eigvalsh(cap)
    flagged |= ~((ev[:, -1] > 0.0) & (ev[:, 0] >= SCREEN_TOLERANCE * ev[:, -1]))
    cap[flagged] = np.eye(t)
    w = np.linalg.solve(cap, rhs[..., None] / ((n - 1) * t * t))[..., 0]
    ay = np.einsum("nkt,nt->nk", a, y)
    sum_a = a.sum(axis=0) - a
    values = (
        (ay.sum(axis=0) - ay - np.einsum("nkt,nt->nk", sum_a, means)) / t
        + np.einsum("nkt,nt->nk", sum_a, w)
    ) / (n - 1)
    return values, flagged


def literal_replication(task):
    """One Monte Carlo replication as a loop of the public one-panel functions.

    ``task`` is (dgp, N, T, estimator names, seed, level, test level). The
    panel comes from ``simulate_dgp``; each estimator is run on it, and each
    two-way mean-group estimator that succeeds gets its jackknife interval
    from the leave-one-out values of a ``fit`` of that one panel and its
    homogeneity test from ``poolability_test``. A method whose leave-one-out values fail loses
    only its own interval and test; tw-pooled's failing costs every test.
    Returns the row ``simulation._run_batch`` gives the replication: errors
    and coverage (M, K) and rejection (M,), NaN where there is none.
    """
    from panelmg import (
        DgpSpec,
        Method,
        OutOfRange,
        PanelMgError,
        SingularOmegaDelta,
        estimate,
        normal_quantile_upper,
        poolability_test,
        simulate_dgp,
    )
    from panelmg.inference import fit, omega_from_loo

    dgp_id, n_units, n_periods, method_values, seed, level, test_level = task
    methods = [Method(v) for v in method_values]
    panel, truth = simulate_dgp(DgpSpec(dgp_id, n_units, n_periods, seed))
    errors = np.full((len(methods), panel.n_regressors), np.nan)
    covered = np.full(errors.shape, np.nan)
    rejected = np.full(len(methods), np.nan)
    estimates = {}
    for j, m in enumerate(methods):
        try:
            estimates[m] = estimate(panel, m)
        except PanelMgError:
            continue
        errors[j] = estimates[m].beta_hat - truth.beta0
    # The leave-one-out ridge fits keep the full-sample shift.
    ridge = estimates.get(Method.TW_MG_RIDGE)
    kappa = ridge.kappa_used if ridge is not None else None

    inf_methods = [m for m in estimates if m in (Method.TW_MG, Method.TW_MG_RIDGE)]
    loo = {}
    pooled_full = None
    if inf_methods:
        wanted = inf_methods + [Method.TW_POOLED]
        fitted = fit(panel, wanted, kappa)
        loo = {m: fitted.loo[m] for m in wanted if fitted.has[m]}
        try:
            pooled_full = estimates.get(Method.TW_POOLED) or estimate(panel, Method.TW_POOLED)
        except PanelMgError:
            pass
    z = normal_quantile_upper((1.0 - level) / 2.0)
    for m in inf_methods:
        if m not in loo:
            continue
        j = methods.index(m)
        se = np.sqrt(np.diag(omega_from_loo(loo[m])) / n_units)
        covered[j] = np.abs(errors[j]) <= z * se
        if pooled_full is None or Method.TW_POOLED not in loo:
            continue
        try:
            report = poolability_test(panel, use_ridge=m is Method.TW_MG_RIDGE)
        except (SingularOmegaDelta, OutOfRange):
            continue  # singular OmegaDelta, or a statistic with no p-value
        rejected[j] = report.joint_pvalue < test_level
    return errors, covered, rejected


def literal_monte_carlo(cells, methods, replications, seed):
    """``run_monte_carlo``'s report as a loop of ``literal_replication`` over
    every replication, at the default levels and with no wall time."""
    from panelmg import Method, SimReport
    from panelmg.simulation import _aggregate_cell, _derive_seed

    methods = [Method(m) for m in dict.fromkeys(methods)]
    values = tuple(m.value for m in methods)
    folded = []
    for ci, cell in enumerate(cells):
        rows = [
            literal_replication((*cell, values, _derive_seed(seed, ci, r), 0.95, 0.05))
            for r in range(replications)
        ]
        folded += _aggregate_cell(cell, methods, *(np.stack(a) for a in zip(*rows)), 0.0)
    return SimReport(tuple(folded), seed, replications)
