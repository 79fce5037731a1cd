"""Closed-form kernels for 3 x 3 blocks against their LAPACK versions.

The eigenvalue bounds of ``gram`` decide every block check as ``eigvalsh``'s
values decide it (``oracles.lapack_eig_bounds`` is that version): the panel
scale bit for bit, the bad units, the failed panels, the leave-one-out
screen, H_j's check and tw-pooled's flags. The refined adjugate inverse is
as accurate as ``np.linalg.inv``.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import panelmg.gram as gram
from panelmg import EstimationError, Method, PanelData, estimate
from panelmg.gram import (
    DEFAULT_RANK_TOLERANCE,
    SCREEN_TOLERANCE,
    UnitBlocks,
    sym_eig_bounds,
    sym_inv,
)
from panelmg.inference import fit
from oracles import lapack_checks, random_panel

UNIT_ROUNDOFF = 2.0**-53


def spd_blocks(seed, shape, log_cond, exp, pair=False):
    """Symmetric 3 x 3 blocks (*shape, 3, 3) in random orientations. Block
    i has reciprocal condition 10^-c_i, c_i uniform in [0, log_cond], its
    other eigenvalue spread in between (or, with ``pair``, within a factor
    two of the smallest), and size 10^exp times a factor in [1e-2, 1]."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(*shape, 3, 3)))[0]
    c = log_cond * rng.uniform(size=shape)
    lam = 10.0 ** (-c[..., None] * rng.uniform(size=(*shape, 3)))
    if pair:
        lam = 10.0 ** -c[..., None] * rng.uniform(1.0, 2.0, size=(*shape, 3))
        lam[..., 0] = 1.0
    np.put_along_axis(lam, rng.integers(0, 3, size=(*shape, 1)), 10.0 ** -c[..., None], axis=-1)
    size = 10.0 ** (exp + rng.uniform(-2.0, 0.0, size=(*shape, 1, 1)))
    b = (q * lam[..., None, :]) @ q.swapaxes(-1, -2) * size
    return 0.5 * (b + b.swapaxes(-1, -2))


@st.composite
def block_stacks(draw):
    """One to three panels of 2 to 12 blocks; one block possibly zero,
    singular or at a check's threshold against the largest."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(2, 12)))
    blocks = spd_blocks(
        draw(st.integers(0, 2**32 - 1)),
        shape,
        draw(st.floats(0.0, 10.0)),
        draw(st.sampled_from([-8, 0, 8])),
        pair=draw(st.booleans()),
    )
    r, i = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    kind = draw(st.sampled_from(["none", "zero", "singular", "threshold"]))
    if kind == "zero":
        blocks[r, i] = 0.0
    elif kind == "singular":
        v = blocks[r, i, :, :2]
        blocks[r, i] = v @ v.T  # rank two
    elif kind == "threshold":
        top = np.linalg.eigvalsh(blocks[r]).max()
        tol = draw(st.sampled_from([DEFAULT_RANK_TOLERANCE, SCREEN_TOLERANCE]))
        ratio = tol * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9, 1e-3])))
        w, v = np.linalg.eigh(blocks[r, i])
        w[0] = ratio * top
        blocks[r, i] = (v * w) @ v.T
    return blocks


def unit_checks(blocks):
    f = UnitBlocks(blocks)
    return [f.scale, f.bad, f.failed, f.flagged]


@settings(max_examples=150, deadline=None)
@given(block_stacks())
@example(spd_blocks(1, (2, 6), 10.0, 8))
@example(spd_blocks(2, (1, 5), 10.0, -8))
def test_unit_checks_match_lapack(blocks):
    got = unit_checks(blocks)
    with pytest.MonkeyPatch.context() as mp:
        lapack_checks(mp)
        want = unit_checks(blocks)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)  # the scale bit for bit
    # each panel's two largest eigenvalues are eigvalsh's
    f, hi = UnitBlocks(blocks), np.linalg.eigvalsh(blocks)[..., -1]
    top = np.sort(f.hi, axis=-1)[..., -2:]
    assert np.array_equal(top, np.sort(hi, axis=-1)[..., -2:], equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(
    block_stacks(),
    st.sampled_from([DEFAULT_RANK_TOLERANCE, SCREEN_TOLERANCE]),
    st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    st.sampled_from([0.0, 1e-15]),
)
def test_bounds_decide_checks_as_eigvalsh(blocks, tol, floor, skew):
    # the H_j of the two-way leave-one-out are not exactly symmetric;
    # eigvalsh and the bounds read the lower triangle
    blocks = blocks + np.triu(skew * blocks, 1)
    floor = floor * np.abs(blocks).max(axis=(-1, -2))
    lo, hi = sym_eig_bounds(blocks, tol, floor)
    w = np.linalg.eigvalsh(blocks)
    lb, _, up = gram._bounds3(blocks)
    refined = ~(lb >= 2.0 * tol * np.maximum(up, floor))
    # refined blocks carry eigvalsh's values; the others a certified bound
    assert np.array_equal(lo[refined], w[refined][:, 0], equal_nan=True)
    assert np.array_equal(hi[refined], w[refined][:, -1], equal_nan=True)
    finite = np.isfinite(w).all(axis=-1)
    assert (lo[finite] <= w[finite][:, 0]).all()
    assert (w[finite][:, -1] <= up[finite]).all()

    def check(lo, hi):
        return (lo > 0.0) & (lo >= tol * np.maximum(hi, floor))

    assert np.array_equal(check(lo, hi), check(w[..., 0], w[..., -1]))


def mp_inverse(block):
    mpmath.mp.dps = 50
    return np.array((mpmath.matrix(block.tolist()) ** -1).tolist(), dtype=float)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 10.0),
    st.sampled_from([-8, 0, 8]),
    st.booleans(),
)
@example(3, 10.0, 0, False)
@example(4, 10.0, 8, True)
def test_inverse_is_as_accurate_as_lapack(seed, log_cond, exp, pair):
    # a block with two small eigenvalues has a determinant accurate only to
    # about its condition squared, which ``sym_inv`` leaves to LAPACK
    blocks = spd_blocks(seed, (6,), log_cond, exp, pair=pair)
    got, lapack = sym_inv(blocks), np.linalg.inv(blocks)
    assert np.array_equal(got, got.swapaxes(-1, -2))
    for b, g, la in zip(blocks, got, lapack):
        want = mp_inverse(b)
        size = np.abs(want).max()
        err, lapack_err = np.abs(g - want).max() / size, np.abs(la - want).max() / size
        # u cond(B) is the first-order error of a backward-stable inverse
        assert err <= 4.0 * max(lapack_err, UNIT_ROUNDOFF * np.linalg.cond(b))


@st.composite
def panels(draw):
    """A random K = 3 panel, scaled by 1e-8, 1 or 1e8, one unit possibly
    weak: constant, collinear or nearly collinear regressors."""
    n, t = draw(st.integers(3, 10)), draw(st.integers(5, 8))
    y, x, _ = random_panel(draw(st.integers(0, 2**32 - 1)), n, t, 3)
    x *= 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    y *= 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    unit = draw(st.integers(0, n - 1))
    weakness = draw(st.sampled_from(["none", "constant", "collinear", "near-collinear"]))
    if weakness == "constant":
        x[unit, :, 0] = x[unit, 0, 0]
    elif weakness != "none":
        noise = draw(st.sampled_from([1e-6, 1e-4, 1e-2])) if weakness == "near-collinear" else 0.0
        x[unit, :, 2] = x[unit, :, 0] * (1.0 + noise * np.arange(t))
    return PanelData.from_arrays(y, x)


def run(panel):
    """A fit of every method, each estimate's error, and the shapes of the
    capacitance solves of the subsamples H_j's check does not clear."""
    rows = []
    solve = np.linalg.solve

    def spy(a, b):
        rows.append(a.shape)
        return solve(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", spy)
        f = fit(panel, list(Method))
        errors = []
        for m in Method:
            try:
                estimate(panel, m)
                errors.append(None)
            except EstimationError as exc:
                errors.append((type(exc), str(exc), getattr(exc, "units", None)))
    return f, errors, rows


@settings(max_examples=60, deadline=None)
@given(panels())
def test_fits_decide_as_lapack(panel):
    got, got_errors, got_rows = run(panel)
    with pytest.MonkeyPatch.context() as mp:
        lapack_checks(mp)
        want, want_errors, want_rows = run(panel)
    assert got_errors == want_errors
    assert got_rows == want_rows
    assert [(p, m, type(e), str(e)) for p, m, e in got.failures] == [
        (p, m, type(e), str(e)) for p, m, e in want.failures
    ]
    for m in Method:
        assert np.array_equal(got.flagged[m], want.flagged[m])
        assert got.why[m].keys() == want.why[m].keys()
        for key in got.why[m]:
            assert np.array_equal(got.why[m][key], want.why[m][key], equal_nan=True), (m, key)
        for a, b in ((got.beta[m], want.beta[m]), (got.loo[m], want.loo[m])):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            a, b = a[~np.isnan(a)], b[~np.isnan(b)]
            if a.size:
                assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())


def test_no_linalg_call_over_the_whole_stack(monkeypatch):
    """At 20000 x 20 x 3 no estimator hands LAPACK the (N, 3, 3) blocks:
    only each panel's two largest-eigenvalue candidates and the blocks whose
    bound does not clear reach ``eigvalsh``."""
    y, x, _ = random_panel(5, 20000, 20, 3)
    panel = PanelData.from_arrays(y, x)
    calls = []
    for name in ("eigvalsh", "eigh", "eig", "inv", "solve", "det", "slogdet", "cholesky", "svd"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, int(np.prod(np.shape(a)[:-2]))))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for m in Method:
        estimate(panel, m)
    assert max(rows for _, rows in calls) <= 2
    # three block checks (tw-mg, tw-mg-ridge, mg) of two candidates each, two
    # T x T capacitances, and tw-pooled's one K x K design
    assert sum(rows for name, rows in calls if name == "eigvalsh") <= 3 * 2 + 2 + 1
