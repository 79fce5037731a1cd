"""Input generators and independent reference results for the benchmark.

Nothing here imports panelmg. Every expected value the benchmark checks an
operation against is computed from the generated arrays with closed forms:

* the two-way mean-group slopes (plain and ridge) come from the Woodbury
  form of the per-unit slope system, and their leave-one-out values from the
  same sums with one unit's terms subtracted, so all N leave-one-out
  estimates cost one batched (N, T, T) solve;
* the pooled slopes and their leave-one-out values come from downdated
  K x K normal equations;
* the standard mean-group leave-one-out value is (N b - b_j) / (N - 1).

These are algebraically equal to re-estimating on every (N-1)-unit
subsample, so they agree with an exact jackknife to rounding error, and the
gate holds whether the program re-estimates literally or downdates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, ndtri

METHODS = ("tw-mg", "tw-mg-ridge", "tw-pooled", "mg")
INFERENCE_METHODS = ("tw-mg", "tw-mg-ridge")
TOLERANCE = 1e-8  # agreement bound on values: |got - ref| <= TOL * max(1, |ref|)
AR_BURN_IN = 50
OMEGA_DELTA_RANK_TOLERANCE = 1e-12


class Mismatch(Exception):
    """An operation's output disagrees with the reference."""


# ---------------------------------------------------------------- generators


def random_panel(seed: int, n: int, t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned panel with two-way effects and one interactive factor.

    Same design as the test suite's ``random_panel`` oracle: unit effects lam,
    period effects f, regressor loadings gam on f, slopes 1 + 0.3 N(0, 1) per
    unit and coefficient, unit-variance noise. Returns y (N, T), x (N, T, K).
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
    beta = 1.0 + 0.3 * rng.normal(0.0, 1.0, (n, k))
    y = (
        np.einsum("ntk,nk->nt", x, beta)
        + lam[:, None]
        + f[None, :]
        + rng.normal(0.0, 1.0, (n, t))
    )
    return y, x


def csv_lines(y: np.ndarray, x: np.ndarray) -> list[str]:
    """Long-format CSV lines (header first), unit-major, labels u<i> and t<s>.

    Values go through ``tolist()`` so each is a Python float and ``repr``
    writes its shortest round-trip form; ``repr`` of a numpy 2 scalar would
    write ``np.float64(...)``, which no CSV reader accepts.
    """
    n, t, k = x.shape
    header = ",".join(["unit", "time", "y"] + [f"x{j + 1}" for j in range(k)])
    values = np.concatenate([y[:, :, None], x], axis=2).reshape(n * t, k + 1).tolist()
    lines = [header]
    for row_no, row in enumerate(values):
        i, s = divmod(row_no, t)
        lines.append(f"u{i + 1},t{s + 1}," + ",".join(map(repr, row)))
    return lines


def write_csv(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def derive_seed(base_seed: int, cell_index: int, replication: int) -> int:
    """Per-replication seed, as documented for ``panelmg simulate``."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(cell_index, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def simulate(dgp: int, n: int, t: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one panel of built-in process 1 or 4 in its documented draw order."""
    rng = np.random.default_rng(seed)
    lam = 1.0 + rng.standard_normal(n)
    f = 1.0 + rng.standard_normal(t)
    if dgp == 1:
        gam = 1.0 + rng.standard_normal(n)
        u = rng.standard_normal((n, t))
        rng.standard_normal((n, t))  # xi, unused by process 1
        rng.standard_normal(n)  # eta*, unused by process 1
        v = rng.standard_normal((n, t))
        x = lam[:, None] + f + gam[:, None] * f + v
        y = x + lam[:, None] + f + u + lam[:, None] * f
        return y, x[:, :, None]
    if dgp != 4:
        raise ValueError(f"reference covers processes 1 and 4, got {dgp}")
    gam1 = 1.0 + rng.standard_normal(n)
    gam2 = 1.0 + rng.standard_normal(n)
    shocks = rng.standard_normal((n, AR_BURN_IN + t))
    xi = rng.standard_normal((n, t))
    beta1 = 1.0 + rng.standard_normal(n)
    beta2 = gam2 + rng.standard_normal(n)
    v1 = beta1[:, None] * xi + rng.standard_normal((n, t))
    v2 = rng.standard_normal((n, t))
    x1 = lam[:, None] + f + v1 + gam1[:, None] * f
    x2 = lam[:, None] + f + v2 + gam2[:, None] * f
    ar = np.empty_like(shocks)
    prev = np.zeros(n)
    for s in range(shocks.shape[1]):  # AR(1), coefficient 0.25, zero start
        prev = shocks[:, s] + 0.25 * prev
        ar[:, s] = prev
    u = np.sqrt(1.0 + 0.25 * x1**2) * ar[:, AR_BURN_IN:]
    y = beta1[:, None] * x1 + beta2[:, None] * x2 + lam[:, None] + f + u
    y = y + lam[:, None] * f
    return y, np.stack([x1, x2], axis=2)


# ---------------------------------------------------------------- estimators


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(a, b[..., None])[..., 0]


def ridge_kappa(xu: np.ndarray) -> float:
    """Median per-unit determinant of the double-demeaned Gram, over N."""
    n, t, _ = xu.shape
    xdd = xu - xu.mean(axis=0)
    dets = np.linalg.det(np.einsum("ntk,ntl->nkl", xdd, xdd) / t)
    return max(float(np.median(dets)), 0.0) / n


def _tw_mg(xu, yu, kappa, loo=True):
    """Unit slopes, mean and leave-one-out means of the two-way MG estimator.

    With A_i = (q_i + kappa I)^{-1} xu_i' and M_i = xu_i A_i, a subsample of
    n units with period means m = sum(yu_i) / n has
        w    = (I - sum M_i / (n T))^{-1} (sum M_i yu_i - sum M_i m) / (n T^2)
        z_i  = A_i ((yu_i - m) / T + w)
    so every quantity is a sum over units, downdated for each left-out unit.
    """
    n, t, k = xu.shape
    q = np.einsum("ntk,ntl->nkl", xu, xu) / t + kappa * np.eye(k)
    a = np.linalg.solve(q, xu.transpose(0, 2, 1))  # (N, K, T)
    ay = np.einsum("nkt,nt->nk", a, yu)

    def solve_w(sm, smy, sy, nn):
        mean = sy / nn
        rhs = (smy - np.einsum("...ts,...s->...t", sm, mean)) / (nn * t * t)
        return mean, _solve(np.eye(t) - sm / (nn * t), rhs)

    sm = np.einsum("ntk,nks->ts", xu, a)
    smy = np.einsum("ntk,nk->t", xu, ay)
    mean, w = solve_w(sm, smy, yu.sum(0), n)
    slopes = np.einsum("nkt,nt->nk", a, (yu - mean) / t + w)
    if not loo:
        return slopes, slopes.mean(axis=0), None
    m = xu @ a  # (N, T, T)
    mean_l, w_l = solve_w(sm - m, smy - np.einsum("nts,ns->nt", m, yu), yu.sum(0) - yu, n - 1)
    sa_l = a.sum(0) - a
    loo_beta = (
        (ay.sum(0) - ay) - np.einsum("nkt,nt->nk", sa_l, mean_l)
    ) / ((n - 1) * t) + np.einsum("nkt,nt->nk", sa_l, w_l) / (n - 1)
    return slopes, slopes.mean(axis=0), loo_beta


def _tw_pooled(xu, yu, loo=True):
    n = xu.shape[0]
    g = np.einsum("ntk,ntl->nkl", xu, xu)
    gy = np.einsum("ntk,nt->nk", xu, yu)
    sx, sy = xu.sum(0), yu.sum(0)

    def beta(g_s, gy_s, sx_s, sy_s, nn):
        lhs = g_s - np.einsum("...tk,...tl->...kl", sx_s, sx_s) / nn
        rhs = gy_s - np.einsum("...tk,...t->...k", sx_s, sy_s) / nn
        return _solve(lhs, rhs)

    full = beta(g.sum(0), gy.sum(0), sx, sy, n)
    if not loo:
        return full, None
    return full, beta(g.sum(0) - g, gy.sum(0) - gy, sx - xu, sy - yu, n - 1)


def _standard_mg(xu, yu):
    n = xu.shape[0]
    slopes = _solve(np.einsum("ntk,ntl->nkl", xu, xu), np.einsum("ntk,nt->nk", xu, yu))
    beta = slopes.mean(axis=0)
    return slopes, beta, (n * beta - slopes) / (n - 1)


def fit(y: np.ndarray, x: np.ndarray, methods=METHODS, loo: bool = True) -> dict:
    """Reference fits: method -> dict(beta, slopes, loo, kappa).

    With ``loo`` false the leave-one-out values are skipped (and None).
    """
    yu = y - y.mean(axis=1, keepdims=True)
    xu = x - x.mean(axis=1, keepdims=True)
    out = {}
    for method in methods:
        kap = None
        if method == "tw-mg":
            slopes, beta, loo_beta = _tw_mg(xu, yu, 0.0, loo)
        elif method == "tw-mg-ridge":
            kap = ridge_kappa(xu)
            slopes, beta, loo_beta = _tw_mg(xu, yu, kap, loo)
        elif method == "tw-pooled":
            slopes = None
            beta, loo_beta = _tw_pooled(xu, yu, loo)
        else:
            slopes, beta, loo_beta = _standard_mg(xu, yu)
        out[method] = {"beta": beta, "slopes": slopes, "loo": loo_beta, "kappa": kap}
    return out


def omega(loo: np.ndarray) -> np.ndarray:
    """Jackknife covariance of sqrt(N) (b - beta) from leave-one-out values."""
    centered = loo - loo.mean(axis=0)
    return (loo.shape[0] - 1) * (centered.T @ centered)


def z_value(level: float) -> float:
    return float(-ndtri((1.0 - level) / 2.0))


def _joint(delta: np.ndarray, omega_delta: np.ndarray, n: int) -> float | None:
    w = np.linalg.eigvalsh(omega_delta)
    if w[-1] <= 0.0 or w[0] / w[-1] < OMEGA_DELTA_RANK_TOLERANCE:
        return None
    return float(n * delta @ np.linalg.solve(omega_delta, delta))


def _holm(p: list[float]) -> list[float]:
    """Step-down adjustment without the monotonicity step, as panelmg documents."""
    k = len(p)
    order = sorted(range(k), key=lambda i: p[i])
    out = [0.0] * k
    for rank, idx in enumerate(order):
        out[idx] = min((k - rank) * p[idx], 1.0)
    return out


# ---------------------------------------------------------------- reports


def estimate_report(y, x, level: float = 0.95) -> dict:
    """Expected content of ``panelmg estimate --format json`` (all estimators)."""
    n, t, k = x.shape
    z = z_value(level)
    fits = fit(y, x)
    estimators = {}
    for method in METHODS:
        f = fits[method]
        se = np.sqrt(np.diag(omega(f["loo"])) / n)
        estimators[method] = {
            "kappa": f["kappa"],
            "coefficients": [
                {
                    "name": f"x{j + 1}",
                    "estimate": f["beta"][j],
                    "std_error": se[j],
                    "ci_lower": f["beta"][j] - z * se[j],
                    "ci_upper": f["beta"][j] + z * se[j],
                }
                for j in range(k)
            ],
        }
    return {
        "schema": "panelmg/1",
        "kind": "estimate-report",
        "level": level,
        "n_units": n,
        "n_periods": t,
        "n_regressors": k,
        "estimators": estimators,
    }


def test_report(y, x) -> dict:
    """Expected content of ``panelmg test --format json`` (plain mean-group)."""
    n, _, k = x.shape
    fits = fit(y, x, ("tw-mg", "tw-pooled"))
    delta = fits["tw-mg"]["beta"] - fits["tw-pooled"]["beta"]
    omega_delta = omega(fits["tw-mg"]["loo"] - fits["tw-pooled"]["loo"])
    joint = _joint(delta, omega_delta, n)
    stats = [float(n * delta[j] ** 2 / omega_delta[j, j]) for j in range(k)]
    raw = [float(gammaincc(0.5, s / 2.0)) for s in stats]
    holm = _holm(raw)
    return {
        "schema": "panelmg/1",
        "kind": "poolability-report",
        "ridge": False,
        "kappa": None,
        "joint": {
            "statistic": joint,
            "df": k,
            "p_value": float(gammaincc(k / 2.0, joint / 2.0)),
        },
        "per_coefficient": [
            {"name": f"x{j + 1}", "statistic": stats[j], "p_value": raw[j], "holm_p_value": holm[j]}
            for j in range(k)
        ],
        "delta": list(delta),
    }


def simulation_cells(dgps, ns, ts, reps: int, seed: int, level=0.95, test_level=0.05) -> list[dict]:
    """Expected cells of ``panelmg simulate`` with all four estimators."""
    z = z_value(level)
    cells = []
    grid = [(d, n, t) for d in dgps for n in ns for t in ts]
    for ci, (dgp, n, t) in enumerate(grid):
        errors = {m: [] for m in METHODS}
        covered = {m: [] for m in INFERENCE_METHODS}
        rejected = {m: [] for m in INFERENCE_METHODS}
        for r in range(reps):
            y, x = simulate(dgp, n, t, derive_seed(seed, ci, r))
            fits = fit(y, x)
            pooled = fits["tw-pooled"]
            for m in METHODS:
                errors[m].append(fits[m]["beta"] - 1.0)
            for m in INFERENCE_METHODS:
                f = fits[m]
                se = np.sqrt(np.diag(omega(f["loo"])) / n)
                covered[m].append(np.abs(f["beta"] - 1.0) <= z * se)
                delta = f["beta"] - pooled["beta"]
                joint = _joint(delta, omega(f["loo"] - pooled["loo"]), n)
                if joint is not None:
                    p = float(gammaincc(len(delta) / 2.0, joint / 2.0))
                    rejected[m].append(p < test_level)
        for m in METHODS:
            err = np.array(errors[m])
            cell = {
                "dgp": dgp,
                "n_units": n,
                "n_periods": t,
                "estimator": m,
                "replications": reps,
                "failures": 0,
                "bias_x10": list(10.0 * err.mean(axis=0)),
                "mse_x100": list(100.0 * np.square(err).mean(axis=0)),
                "coverage_95": None,
                "rejection_rate_5pct": None,
            }
            if m in INFERENCE_METHODS:
                cell["coverage_95"] = list(np.array(covered[m], dtype=float).mean(axis=0))
                if rejected[m]:
                    cell["rejection_rate_5pct"] = float(np.mean(rejected[m]))
            cells.append(cell)
    return cells


# ---------------------------------------------------------------- comparison


def check(got, ref, where: str = "") -> None:
    """Raise Mismatch unless ``got`` matches ``ref`` (nested dicts, lists, numbers).

    Numbers agree within TOLERANCE relative to max(1, |ref|); keys absent from
    ``ref`` are not checked; None, strings and booleans must be equal.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            raise Mismatch(f"{where}: expected an object, got {got!r}")
        for key, value in ref.items():
            if key not in got:
                raise Mismatch(f"{where}.{key}: missing")
            check(got[key], value, f"{where}.{key}")
        return
    if isinstance(ref, list) and ref and isinstance(ref[0], dict):
        if not isinstance(got, list) or len(got) != len(ref):
            raise Mismatch(f"{where}: expected a list of {len(ref)} objects")
        for i, (g, r) in enumerate(zip(got, ref)):
            check(g, r, f"{where}[{i}]")
        return
    if isinstance(ref, (list, tuple, np.ndarray)):
        ref = np.asarray(ref, dtype=float)
        try:
            arr = np.asarray(got, dtype=float)
        except (TypeError, ValueError):
            raise Mismatch(f"{where}: expected numbers, got {got!r}") from None
        if arr.shape != ref.shape:
            raise Mismatch(f"{where}: shape {arr.shape}, expected {ref.shape}")
        err = np.abs(arr - ref) / np.maximum(1.0, np.abs(ref))
        if not np.all(err <= TOLERANCE):  # also catches NaN
            i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            raise Mismatch(
                f"{where}: element {i} is {float(arr.flat[i])!r}, expected {float(ref.flat[i])!r}"
            )
        return
    if ref is None or isinstance(ref, (str, bool)):
        if got != ref or type(got) is not type(ref):
            raise Mismatch(f"{where}: {got!r}, expected {ref!r}")
        return
    check([got], [ref], where)
