"""The two-way per-unit slope system and its solver.

With unit and time means removed, the per-unit slopes z_i solve the normal
equations of the two-way dummy-variable regression,

    (q_i + kappa I) z_i - xdot_i' sum_j xdot_j z_j / (N T) = xdot_i' y_i / T,

where xdot_i is the T x K unit-demeaned regressor matrix of unit i,
q_i = (1/T) xdot_i' xdot_i, y_i the double-demeaned outcome and kappa an
optional ridge shift. This is the NK x NK system with Gram matrix
blockdiag(q_i + kappa I) - C C', row block i of C being (N T)^{-1/2} xdot_i'
(the Woodbury identity; Hager 1989). With the T-vector
w = sum_j xdot_j z_j / (N T) and

    A_i = (q_i + kappa I)^{-1} xdot_i'  (K x T),    M_i = xdot_i A_i  (T x T),

each slope is z_i = A_i (y_i / T + w), and summing xdot_i z_i gives

    (I_T - sum M_i / (N T)) w = sum M_i y_i / (N T^2).

The T x T capacitance matrix on the left is symmetric positive definite
whenever the blocks and the whole system are, so it is checked by its
eigenvalues and solved by Cholesky. A solve costs O(N K^3 + N K^2 T + T^3)
instead of O((N K)^3); the NK x NK matrix is never assembled.

Both solves read one ``TwoWayFactor`` per panel (or stack) and shift: the
shifted blocks with their eigenvalue bounds and check (``UnitBlocks``) and,
built when first read, A_i, A_i y_i, sum M_i and sum M_i y_i.
``two_way_slopes`` solves the full sample. Deleting one unit leaves every
other A_i and M_i as it is and changes only sums over units, so
``loo_two_way`` solves all N leave-one-out subsamples at once by
subtracting one unit's term from each full-sample sum; only it builds the
screen of the blocks, D and H_j below.

No function here raises on a failed check. Each returns, next to its
values, the masks of the panels or subsamples that fail: the block check's
``scale`` (which fails when it is not positive, or not finite because a
Gram matrix overflowed) and ``bad`` units, the capacitance flag, the
leave-one-out flags. ``estimators`` turns them into errors.

Subsample j's capacitance is then cap_j = D + c M_j, with c = 1/((N-1) T)
and one shared T x T matrix D = I_T - c sum_i M_i: a rank-K update, as
M_j = xdot_j (q_j + kappa I)^{-1} xdot_j'. The Woodbury identity again
turns each solve with cap_j into one with D, factored once, plus a K x K
system per unit, so no (N, T, T) array is formed. As M_j is symmetric
positive semidefinite for kappa >= 0, Weyl's inequalities give
lambda_min(cap_j) >= lambda_min(D) and
lambda_max(cap_j) <= lambda_max(D) + c tr(M_j). So one eigenvalue
decomposition of D proves the capacitance check for every subsample it
clears by that bound; only the rest have cap_j built and checked one by
one.

The per-unit K x K blocks are checked by their extreme eigenvalues and
inverted in closed form for K <= 3, so no batched LAPACK call runs over all
N blocks. For K = 3 the largest eigenvalue has Smith's (1961) trigonometric
form, but the smallest, which decides the checks, is inaccurate for
ill-conditioned blocks (Kopp 2008). So each check reads a certified lower
bound on it, the determinant less its rounding error over the square of a
certified upper bound on the largest, and hands ``eigvalsh`` only the
blocks that bound does not clear by a factor two, plus each panel's
candidates for its two largest eigenvalues: the panel scales are then
``eigvalsh``'s bit for bit, and every check decides as it does on
``eigvalsh``'s values. The inverse is the adjugate over the determinant
with one symmetrized step of iterative refinement (Higham 2002, §14), and
``np.linalg.inv`` for the few blocks whose determinant the expansion cannot
resolve.

Every function here also takes a stack of panels: arrays with leading batch
axes (...) in front of the unit axis. Each panel of a stack goes through the
same floating-point operations, in the same order, as it would alone, so a
stacked result equals the single-panel ones bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .panel import DemeanedPanel

__all__ = ["two_way_slopes", "loo_two_way"]

DEFAULT_RANK_TOLERANCE = 1e-10
# Leave-one-out values are downdated only where every check clears its
# threshold by a margin; the rest are re-estimated literally. The deleted
# unit's block and each capacitance clear it by SCREEN_TOLERANCE (reciprocal
# condition 1e-6): the deleted unit's term is subtracted from the full-sample
# sums and the capacitance is solved, so both cost accuracy as they weaken.
# A kept block enters the downdated sums as it enters the literal fit, so it
# is held to the literal check itself.
SCREEN_TOLERANCE = 1e4 * DEFAULT_RANK_TOLERANCE


def _max_without_each(values: np.ndarray) -> np.ndarray:
    """The largest entry along the last axis of ``values`` with each entry
    left out in turn."""
    top = np.partition(values, -2, axis=-1)[..., -2:]
    second, first = top[..., :1], top[..., 1:]
    return np.where(values == first, second, first)


_UNIT_ROUNDOFF = 2.0**-53
# Room the certified upper bound on a 3 x 3 block's largest eigenvalue
# leaves, relative to the block's size, for its own rounding and for the
# backward error of ``eigvalsh``; the absolute term covers underflow.
_EIG_SLACK, _EIG_FLOOR = 2.0**-40, 2.0**-500


def _entries3(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diagonal a, b, c and the lower triangle d, e, f (rows 1 and 2) of
    3 x 3 blocks: the symmetric matrices that ``eigvalsh`` reads."""
    return (
        blocks[..., 0, 0], blocks[..., 1, 1], blocks[..., 2, 2],
        blocks[..., 1, 0], blocks[..., 2, 0], blocks[..., 2, 1],
    )  # fmt: skip


def _adjugate3(a, b, c, d, e, f) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The cofactors (C00, C11, C22, C01, C02, C12) of the symmetric 3 x 3
    blocks [[a, d, e], [d, b, f], [e, f, c]] and their determinant,
    expanded along the first row."""
    cof = (b * c - f * f, a * c - e * e, a * b - d * d, e * f - d * c, d * f - b * e, d * e - a * f)
    return cof, a * cof[0] + d * cof[3] + e * cof[4]


def _abs_rows3(a, b, c, d, e, f) -> np.ndarray:
    """The product of the absolute row sums of the symmetric 3 x 3 blocks
    of ``_adjugate3``, which bounds the sum of the absolute terms of their
    determinants' expansion."""
    return (np.abs(a) + np.abs(d) + np.abs(e)) * (np.abs(d) + np.abs(b) + np.abs(f)) * (
        np.abs(e) + np.abs(f) + np.abs(c)
    )


def _bounds3(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A certified lower bound ``lo`` on the smallest eigenvalue of each
    symmetric 3 x 3 block, its largest eigenvalue ``hi`` in closed form and
    a certified upper bound ``up`` on it, which also bounds ``eigvalsh``'s.

    With q the mean of the diagonal and p^2 = ||B - q I||_F^2 / 6, the
    eigenvalues are q + 2 p cos(phi + 2 pi j / 3), phi = acos(r) / 3 and
    r = det(B - q I) / (2 p^3) (Smith 1961). The largest is accurate to
    rounding; the smallest is not for ill-conditioned blocks (Kopp 2008), so
    it is not taken. The eigenvalues' deviations from q sum to zero, so none
    exceeds 2 p (phi = 0; Samuelson 1968), and ``up`` is q + 2 p with room
    for rounding. Where the block is certified positive definite (its
    leading minors are positive beyond their rounding error; Sylvester),
    lambda_min = det / (lambda_mid lambda_max) >= det / up^2 with det less
    its rounding error, a multiple of the unit roundoff times the product
    of the absolute row sums (Higham 2002, §14.6); elsewhere ``lo`` is -inf.
    """
    a, b, c, d, e, f = _entries3(blocks)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cof, det = _adjugate3(a, b, c, d, e, f)
        q = (a + b + c) / 3.0
        aq, bq, cq = a - q, b - q, c - q
        p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (d * d + e * e + f * f)) / 6.0)
        up = q + 2.0 * p
        up += _EIG_SLACK * (np.abs(q) + 2.0 * p) + _EIG_FLOOR
        r = (aq * (bq * cq - f * f) + d * (e * f - d * cq) + e * (d * f - bq * e)) / (2.0 * p**3)
        hi = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
        # fmin drops the NaN of a block with p = 0, or p^3 underflowing
        hi = np.fmin(hi, up)
        low = det - 8.0 * _UNIT_ROUNDOFF * _abs_rows3(a, b, c, d, e, f)
        low -= 2.0**-1070 * (1.0 + np.abs(a) + np.abs(d) + np.abs(e))
        minor = 4.0 * _UNIT_ROUNDOFF * (np.abs(a * b) + d * d) + 2.0**-1070
        pd = (a > 0.0) & (cof[2] > minor) & (low > 0.0)
        lo = np.where(pd, low / (up * up), -np.inf)
    return lo, hi, up


def _refine(
    blocks: np.ndarray, lo: np.ndarray, hi: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` with ``eigvalsh``'s values on the blocks under ``mask``."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    if mask.any():
        w = np.linalg.eigvalsh(blocks[mask])
        lo[mask], hi[mask] = w[:, 0], w[:, -1]
    return lo, hi


def sym_eig_bounds(
    blocks: np.ndarray, tol: float = 0.0, floor: float | np.ndarray = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each symmetric K x K block, for a
    check lo >= tol * max(hi, floor).

    Closed forms for K <= 2, ``eigvalsh`` for K >= 4. For K = 3, ``lo`` is a
    certified lower bound and ``hi`` the closed-form largest eigenvalue
    (``_bounds3``), and the blocks whose bound does not clear
    2 tol max(up, floor) get ``eigvalsh``'s values. The others pass the
    check with room for ``eigvalsh``'s rounding, so it decides every block
    as on ``eigvalsh``'s values.
    """
    k = blocks.shape[-1]
    if k == 1:
        d = blocks[..., 0, 0]
        return d, d
    if k == 2:
        a = blocks[..., 0, 0]
        b = blocks[..., 0, 1]
        c = blocks[..., 1, 1]
        half_tr = 0.5 * (a + c)
        disc = np.sqrt(np.square(0.5 * (a - c)) + np.square(b))
        return half_tr - disc, half_tr + disc
    if k != 3:
        w = np.linalg.eigvalsh(blocks)
        return w[..., 0], w[..., -1]
    lo, hi, up = _bounds3(blocks)
    return _refine(blocks, lo, hi, ~(lo >= 2.0 * tol * np.maximum(up, floor)))


def _unit_eig_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sym_eig_bounds`` of per-unit blocks (..., N, K, K), N >= 2, for
    ``UnitBlocks``, whose checks read each panel's two largest ``hi`` and
    each ``lo`` against at most SCREEN_TOLERANCE times one of them.

    For K = 3 the two blocks of a panel with the largest closed-form ``hi``
    go to ``eigvalsh`` first. The smaller of their largest eigenvalues is a
    floor under the panel's second-largest, so only blocks whose certified
    upper bound reaches it can hold either of the two. Those, and the blocks
    whose bound does not clear 2 SCREEN_TOLERANCE times the largest upper
    bound, get ``eigvalsh``'s values: the panel scales are ``eigvalsh``'s
    bit for bit.
    """
    if blocks.shape[-1] != 3:
        return sym_eig_bounds(blocks)
    lo, hi, up = _bounds3(blocks)
    top = np.argpartition(hi, -2, axis=-1)[..., -2:]
    w = np.linalg.eigvalsh(np.take_along_axis(blocks, top[..., None, None], axis=-3))
    candidate = ~(up < w[..., -1].min(axis=-1, keepdims=True))
    refine = candidate | ~(lo >= 2.0 * SCREEN_TOLERANCE * up.max(axis=-1, keepdims=True))
    for values, got in ((refine, False), (lo, w[..., 0]), (hi, w[..., -1])):
        np.put_along_axis(values, top, got, axis=-1)
    return _refine(blocks, lo, hi, refine)


def positive_finite(scale: np.ndarray) -> np.ndarray:
    """Where a check's reference scale is usable: positive and finite. A
    zero scale is a block that demeaning annihilated, an infinite or NaN one
    a Gram matrix that overflowed."""
    return (scale > 0.0) & (scale < np.inf)


def sym_det(blocks: np.ndarray) -> np.ndarray:
    """Determinant of each symmetric K x K block; closed forms for K <= 3."""
    k = blocks.shape[-1]
    if k == 1:
        return blocks[..., 0, 0]
    if k == 2:
        return blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] ** 2
    if k == 3:
        return _adjugate3(*_entries3(blocks))[1]
    return np.linalg.det(blocks)


def sym_inv(blocks: np.ndarray) -> np.ndarray:
    """Invert a batch of symmetric positive definite K x K blocks.

    Closed forms for K <= 2, ``np.linalg.inv`` for K >= 4. For K = 3, the
    adjugate over the determinant, then one step of iterative refinement
    X + X (I - B X) (Higham 2002, §14) with the correction symmetrized: an
    inverse that is not symmetric makes the M_i of the two-way system lose
    symmetry, an error the capacitance solve amplifies. The expanded
    determinant is accurate to the unit roundoff times the product of the
    absolute row sums, relatively about cond^2 u for a block with two small
    eigenvalues, too coarse for one refinement step; blocks whose
    determinant is below 2^-20 of that product go to ``np.linalg.inv``.
    """
    k = blocks.shape[-1]
    if k == 1:
        return 1.0 / blocks
    if k == 2:
        a = blocks[..., 0, 0]
        b = blocks[..., 0, 1]
        c = blocks[..., 1, 1]
        det = a * c - b * b
        out = np.empty_like(blocks)
        out[..., 0, 0] = c / det
        out[..., 0, 1] = -b / det
        out[..., 1, 0] = -b / det
        out[..., 1, 1] = a / det
        return out
    if k != 3:
        return np.linalg.inv(blocks)
    entries = _entries3(blocks)
    (c00, c11, c22, c01, c02, c12), det = _adjugate3(*entries)
    adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = adj.reshape(blocks.shape) / det[..., None, None]
        step = x @ (np.eye(3) - blocks @ x)
        x += 0.5 * (step + step.swapaxes(-1, -2))
        weak = ~(np.abs(det) >= 2.0**-20 * _abs_rows3(*entries))
    if weak.any():
        inv = np.linalg.inv(blocks[weak])
        x[weak] = 0.5 * (inv + inv.swapaxes(-1, -2))
    return x


def sym_solve(a: np.ndarray, b: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Solve a x = b by Cholesky for each symmetric positive definite matrix
    of the stack ``a`` (..., M, M) and right-hand side ``b`` (..., M).

    The matrices under the mask ``skip`` (...) are neither checked nor
    factored; their x is 0. The rest must be finite (ValueError otherwise)
    and are factored a = L L' by one batched ``np.linalg.cholesky``, which
    raises LinAlgError for a matrix that is not positive definite. L y = b
    and L' x = y are then solved row by row across the stack. Each row's
    sum is taken over a fresh contiguous array, so a panel of a stack gets
    the bits it gets alone.
    """
    a = np.asarray_chkfinite(np.where(skip[..., None, None], np.eye(a.shape[-1]), a))
    x = np.asarray_chkfinite(np.where(skip[..., None], 0.0, b))
    low = np.linalg.cholesky(a)
    diag = np.diagonal(low, axis1=-2, axis2=-1)
    for i in range(x.shape[-1]):
        dot = (low[..., i, :i] * x[..., :i]).sum(axis=-1)
        x[..., i] = (x[..., i] - dot) / diag[..., i]
    for i in reversed(range(x.shape[-1])):
        dot = (low[..., i + 1 :, i] * x[..., i + 1 :]).sum(axis=-1)
        x[..., i] = (x[..., i] - dot) / diag[..., i]
    return x


class UnitBlocks:
    """Symmetric per-unit blocks (..., N, K, K), their eigenvalue bounds
    ``lo`` and ``hi`` (..., N) and the full-sample check; the leave-one-out
    screen ``flagged`` and the ``inverse`` of every block when first read.

    The check's ``scale`` (...) is the largest eigenvalue over a panel's
    blocks, 0 if none is positive. A block is ``bad`` below
    ``DEFAULT_RANK_TOLERANCE`` times that scale, and a panel ``failed`` if
    its scale is not positive and finite or some block is bad; the
    panel-wide scale is what detects a block that demeaning annihilated
    entirely, or a Gram matrix that overflowed. For K = 3, ``lo`` and ``hi``
    are ``eigvalsh``'s only where the checks need them (``_unit_eig_bounds``).
    """

    def __init__(self, blocks: np.ndarray) -> None:
        self.blocks = blocks
        self.lo, self.hi = _unit_eig_bounds(blocks)
        self.scale = np.max(self.hi, axis=-1, initial=0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.bad = self.lo / self.scale[..., None] < DEFAULT_RANK_TOLERANCE
        self.failed = ~positive_finite(self.scale) | self.bad.any(axis=-1)

    @cached_property
    def flagged(self) -> np.ndarray:
        """The (..., N) subsamples whose block check fails or nearly fails.

        Deleting unit j leaves every other block as it is, bit for bit, so
        subsample j's reference scale is the largest block eigenvalue among
        the other units, and its smallest kept eigenvalue the smallest among
        them. The deleted unit's own block is held to ``SCREEN_TOLERANCE``
        times that scale, as its inverse is subtracted from the full-sample
        sums. The kept blocks take the literal check of the subsample: as
        division by the scale is monotone in floating point, the smallest
        kept eigenvalue fails it exactly when some kept block does. So one
        weak but valid unit flags only its own subsample.
        """
        scale = _max_without_each(self.hi)
        kept_lo = -_max_without_each(-self.lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            kept_bad = kept_lo / scale < DEFAULT_RANK_TOLERANCE
        return ~(positive_finite(scale) & (self.lo >= SCREEN_TOLERANCE * scale) & ~kept_bad)

    @cached_property
    def inverse(self) -> np.ndarray:
        # Only a failed panel can hold a singular block, and one that does has
        # every subsample flagged; its blocks become identities so that none
        # is inverted. A failed panel with a subsample the screen clears keeps
        # its blocks, as that subsample's values are read from them.
        singular = self.failed
        if singular.any():
            singular = singular & self.flagged.all(axis=-1)
        eye = np.eye(self.blocks.shape[-1])
        return sym_inv(np.where(singular[..., None, None, None], eye, self.blocks))


class TwoWayFactor(UnitBlocks):
    """The two-way system of a demeaned panel or stack ``dp`` with ridge
    shift ``kappa`` (one, or one per panel; nonnegative and finite): the
    blocks q_i + kappa I, from the panel's ``unit_gram``, as ``UnitBlocks``,
    and its ``pieces``, built when first read.
    """

    def __init__(self, dp: DemeanedPanel, kappa: float | np.ndarray) -> None:
        self.dp = dp
        shift = np.asarray(kappa, dtype=np.float64)
        # x + -0.0 is x for every x, so a zero shift leaves a panel's blocks bit
        # for bit as they are, whatever the other panels' shifts.
        shift = np.where(shift != 0.0, shift, -0.0)[..., None, None, None]
        super().__init__(dp.unit_gram / dp.n_periods + shift * np.eye(dp.n_regressors))

    @cached_property
    def pieces(self) -> tuple[np.ndarray, ...]:
        """xdot_i' (..., N, K, T), A_i (..., N, K, T), A_i y_i (..., N, K),
        sum M_i (..., T, T) and sum M_i y_i (..., T), sums over all units."""
        xu, y = self.dp.x_unit_dm, self.dp.y_dd
        *batch, _, t, _ = xu.shape
        xt = np.ascontiguousarray(xu.swapaxes(-1, -2))
        a = self.inverse @ xt
        ay = np.einsum("...nkt,...nt->...nk", a, y)
        # sums over units as (NK x T) matrix products; no (N, T, T) array of M_i
        xt_flat = xt.reshape(*batch, -1, t)
        sum_m = xt_flat.swapaxes(-1, -2) @ a.reshape(*batch, -1, t)
        return xt, a, ay, sum_m, (ay.reshape(*batch, 1, -1) @ xt_flat)[..., 0, :]


def two_way_slopes(f: TwoWayFactor) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit slopes (..., N, K) of the two-way system of the factor ``f``,
    solved as the module docstring derives, and the (...) capacitance flag.

    A panel fails if its shifted diagonal blocks fail the check of
    ``UnitBlocks`` (``f.failed``), or if its T x T capacitance matrix fails
    the same threshold: then the coupled system is singular even though
    every block is fine, and the flag is set. A failing panel's slopes are
    NaN.
    """
    *batch, n, t, _ = f.dp.x_unit_dm.shape
    _, a, ay, sum_m, sum_my = f.pieces
    cap = np.eye(t) - sum_m / (n * t)
    # a failed panel's capacitance is not read; it becomes the identity
    cap = np.where(f.failed[..., None, None], np.eye(t), 0.5 * (cap + cap.swapaxes(-1, -2)))
    ev = np.linalg.eigvalsh(cap)
    cap_lo, cap_hi = ev[..., 0], ev[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cap_failed = (cap_hi <= 0.0) | (cap_lo / cap_hi < DEFAULT_RANK_TOLERANCE)
    failed = f.failed | cap_failed
    w = sym_solve(cap, sum_my / (n * t * t), failed)
    slopes = ay / t + (a @ w[..., None, :, None])[..., 0]
    slopes[failed] = np.nan
    return slopes, cap_failed


def loo_two_way(f: TwoWayFactor) -> tuple[np.ndarray, np.ndarray]:
    """Mean slopes of the two-way system on every (N-1)-unit subsample.

    With A_i and M_i as in the module docstring and a subsample of N - 1
    units whose outcomes have period means m, the solve of
    ``two_way_slopes`` reads

        w   = (I_T - sum M_i / ((N-1) T))^{-1} (sum M_i (y_i - m)) / ((N-1) T^2)
        z_i = A_i ((y_i - m) / T + w)

    so the subsample mean slope is
    (sum A_i y_i - sum A_i m) / ((N-1) T) + sum A_i w / (N-1), where every
    sum runs over the subsample: the full-sample sum minus the deleted
    unit's term.
    Outcomes enter through the full-sample double-demeaned y; the two-way
    projection of a subsample is blind to the shift from unit-demeaned y, and
    the subsample's period means stay near zero.

    With c = 1 / ((N-1) T) and B_j = q_j + kappa I, subsample j's
    capacitance is the rank-K update cap_j = D + c xdot_j B_j^{-1} xdot_j'
    of one shared T x T matrix D = I_T - c sum_i M_i (all N units). So D is
    factored once (by ``eigh``) and, by the Woodbury identity,

        cap_j^{-1} r = D^{-1} r - c D^{-1} xdot_j H_j^{-1} xdot_j' D^{-1} r,
        H_j = B_j + c xdot_j' D^{-1} xdot_j = B_j (I_K + c A_j D^{-1} xdot_j),

    one symmetric K x K solve per subsample, followed by one step of
    iterative refinement against cap_j itself (D may be worse conditioned
    than cap_j, and the first solve's error grows with D's condition).

    The capacitance check needs no per-subsample eigenvalues either. M_j is
    positive semidefinite, so lambda_min(cap_j) >= lambda_min(D) and
    lambda_max(cap_j) <= lambda_max(D) + c tr(M_j), with
    tr(M_j) = tr(A_j xdot_j). If lambda_min(D) > 0 and
    lambda_min(D) >= SCREEN_TOLERANCE (lambda_max(D) + c tr(M_j)), then

        lambda_min(cap_j) >= lambda_min(D) >= SCREEN_TOLERANCE lambda_max(cap_j)

    and lambda_max(cap_j) >= lambda_min(cap_j) > 0, which is the check on
    cap_j itself. The subsamples this bound does not clear, and those whose
    H_j has reciprocal condition below ``SCREEN_TOLERANCE``, have cap_j
    built, checked by its eigenvalues and solved directly, so the flagged
    set is the one the per-subsample check gives.

    Returns the (..., N, K) values and an (..., N) mask of subsamples whose
    block or capacitance check lands below ``SCREEN_TOLERANCE``; their values
    are 0 and not to be used.
    """
    xu, y = f.dp.x_unit_dm, f.dp.y_dd
    *batch, n, t, k = xu.shape
    flagged = f.flagged.copy()
    if flagged.all():
        return np.zeros((*batch, n, k)), flagged
    c = 1.0 / ((n - 1) * t)
    xt, a, ay, sum_m, sum_my = f.pieces
    means = (y.sum(axis=-2, keepdims=True) - y) / (n - 1)
    a_dev = np.einsum("...nkt,...nt->...nk", a, y - means)
    # sum of M_i (y_i - m) over the subsample: over all units, less unit j's
    rhs = (
        sum_my[..., None, :]
        - means @ sum_m.swapaxes(-1, -2)
        - np.einsum("...ntk,...nk->...nt", xu, a_dev)
    ) * (c / t)

    d = np.eye(t) - c * sum_m
    d = 0.5 * (d + d.swapaxes(-1, -2))
    lam, vec = np.linalg.eigh(d)
    bound = SCREEN_TOLERANCE * (lam[..., -1:] + c * np.einsum("...nkt,...nkt->...n", a, xt))
    cleared = ~flagged & (lam[..., :1] > 0.0) & (lam[..., :1] >= bound)
    w = np.zeros((*batch, n, t))
    if cleared.any():
        # a panel with no subsample cleared takes D^{-1} from unit
        # eigenvalues; none of its values is taken from it
        lam = np.where(cleared.any(axis=-1, keepdims=True), lam, 1.0)
        d_inv = (vec / lam[..., None, :]) @ vec.swapaxes(-1, -2)
        d_inv_x = (xt.reshape(*batch, -1, t) @ d_inv).reshape(xt.shape)  # (D^{-1} xdot_j)'
        h = f.blocks + c * (d_inv_x @ xu)
        h_lo, h_hi = sym_eig_bounds(h, SCREEN_TOLERANCE)
        cleared &= (h_lo > 0.0) & (h_lo >= SCREEN_TOLERANCE * h_hi)
        h[~cleared] = np.eye(k)
        h_inv = sym_inv(h)

        def solve(v: np.ndarray) -> np.ndarray:
            u = v @ d_inv
            g = np.einsum("...nkl,...nl->...nk", h_inv, np.einsum("...nkt,...nt->...nk", xt, u))
            return u - c * np.einsum("...nkt,...nk->...nt", d_inv_x, g)

        w = solve(rhs)
        # one step of iterative refinement on the residual r - cap_j w
        aw = np.einsum("...nkt,...nt->...nk", a, w)
        cap_w = w @ d + c * np.einsum("...ntk,...nk->...nt", xu, aw)
        w += solve(rhs - cap_w)
    exact = np.nonzero(~flagged & ~cleared)
    if exact[0].size:
        cap = sum_m[exact[:-1]] - xu[exact] @ a[exact]
        cap *= -c
        cap.reshape(-1, t * t)[:, :: t + 1] += 1.0
        ev = np.linalg.eigvalsh(cap)
        bad = ~((ev[:, -1] > 0.0) & (ev[:, 0] >= SCREEN_TOLERANCE * ev[:, -1]))
        flagged[tuple(i[bad] for i in exact)] = True
        cap[bad] = np.eye(t)
        w[exact] = np.linalg.solve(cap, rhs[exact][..., None])[..., 0]

    a_tot = a.sum(axis=-3)
    values = (
        (ay.sum(axis=-2, keepdims=True) - a_dev) / t
        + (w - means / t) @ a_tot.swapaxes(-1, -2)
        - np.einsum("...nkt,...nt->...nk", a, w)
    ) / (n - 1)
    # a flagged value depends on how its panel was stacked; it is not used
    return np.where(flagged[..., None], 0.0, values), flagged
