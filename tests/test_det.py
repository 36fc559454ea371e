"""Determinant engine tests.

The load-bearing oracle is ``naive_det``: cofactor expansion over plain
Python integer lists, no numpy and no shared code with the implementation.
On integer inputs the engine must match it exactly.
"""

import gc
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestab import det
from edgestab.det import (
    ParametricDeterminant,
    _laplace,
    coefficient_box,
    corner_lambdas,
    det_matrix,
    det_parametric,
    monomial_weights,
)
from edgestab.edges import iter_configs
from edgestab.family import MatrixFamily, PolytopeEntry
from edgestab.poly import Polynomial
from edgestab.region import HurwitzHalfPlane


# ----------------------------------------------------------------------
# oracle: integer cofactor expansion


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def naive_det(grid):
    """Cofactor expansion along the first row; entries are int coeff lists."""
    n = len(grid)
    if n == 1:
        return list(grid[0][0])
    acc = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = int_mul(grid[0][j], naive_det(minor))
        if j % 2:
            term = [-x for x in term]
        acc = int_add(acc, term)
    return acc


def trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def as_poly_grid(int_grid):
    return [[Polynomial([float(c) for c in cell]) for cell in row] for row in int_grid]


# ----------------------------------------------------------------------
# fixed cases


def test_identity():
    eye = [[Polynomial([1.0 if i == j else 0.0]) for j in range(3)] for i in range(3)]
    assert det_matrix(eye) == Polynomial([1.0])


def test_upper_triangular():
    s = Polynomial([0.0, 1.0])
    one = Polynomial([1.0])
    zero = Polynomial([0.0])
    grid = [[s, one], [zero, s]]
    assert det_matrix(grid) == Polynomial([0.0, 0.0, 1.0])  # s^2


def test_two_by_two_formula():
    a = Polynomial([1.0, 1.0])
    b = Polynomial([2.0])
    c = Polynomial([0.0, 3.0])
    d = Polynomial([1.0, 0.0, 1.0])
    got = det_matrix([[a, b], [c, d]])
    want = a * d - b * c
    assert got == want


def test_equal_rows_vanish():
    row = [Polynomial([1.0, 2.0]), Polynomial([3.0])]
    assert det_matrix([row, row]).is_zero


def test_row_swap_flips_sign():
    g = [
        [Polynomial([1.0, 1.0]), Polynomial([2.0])],
        [Polynomial([0.0, 3.0]), Polynomial([1.0, 0.0, 1.0])],
    ]
    swapped = [g[1], g[0]]
    assert det_matrix(swapped) == -det_matrix(g)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_matrix([[Polynomial([1.0])], [Polynomial([1.0])]])


# ----------------------------------------------------------------------
# the exact-integer sweep against the oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_integer_cofactor_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(60):
        int_grid = [
            [
                [int(c) for c in rng.integers(-9, 10, size=rng.integers(1, 5))]
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        want = trim(naive_det(int_grid))
        got = det_matrix(as_poly_grid(int_grid))
        assert got.as_list() == [float(c) for c in want]


def test_laplace_and_det_matrix_leave_no_garbage_cycle():
    # a reference cycle would keep every minor alive until the cyclic collector runs
    rng = np.random.default_rng(7)
    cells = [[rng.normal(size=(5, 3)) for _ in range(4)] for _ in range(4)]
    grid = [[Polynomial(rng.normal(size=3)) for _ in range(4)] for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        _laplace(cells)
        det_matrix(grid)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the coefficient-first core against a batch-last expansion, bit for bit
#
# ``batch_last_*`` are the expansion that convolves the last axis of
# ``(..., L)`` arrays, each product looping over its first factor (the
# cell), kept as the reference for the layout: ``_laplace`` must
# give its bytes exactly, signed zeros and infinities included, and NaN in
# exactly the same places.  Only a NaN's sign is left out: when two NaNs of
# opposite sign meet in a sum, numpy's vectorised add keeps one operand's or
# the other's by where the element falls in its SIMD blocks, so the sign
# follows the memory layout (on an AVX-512 machine, ``x = [nan] * 9;
# x += [-nan] * 9`` leaves eight +nan and one -nan).  IEEE 754 leaves that
# sign unspecified, and no caller reads it.


def batch_last_polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays: convolve the last axis, broadcast the rest."""
    la, lb = a.shape[-1], b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (la + lb - 1,))
    for i in range(la):
        out[..., i : i + lb] += a[..., i : i + 1] * b
    return out


def batch_last_polyadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of coefficient arrays, every axis zero-padded to the larger size."""
    out = np.zeros(tuple(max(x, y) for x, y in zip(a.shape, b.shape)))
    out[tuple(slice(0, x) for x in a.shape)] += a
    out[tuple(slice(0, x) for x in b.shape)] += b
    return out


def batch_last_laplace(cells, unsigned: bool = False) -> np.ndarray:
    n = len(cells)
    prev = {(j,): cells[n - 1][j] for j in range(n)}
    with np.errstate(over="ignore", invalid="ignore"):
        for size in range(2, n + 1):
            row = cells[n - size]
            cur = {}
            for cols in itertools.combinations(range(n), size):
                acc = None
                for pos, j in enumerate(cols):
                    term = batch_last_polymul(row[j], prev[cols[:pos] + cols[pos + 1 :]])
                    if pos % 2 and not unsigned:
                        term = -term
                    acc = term if acc is None else batch_last_polyadd(acc, term)
                cur[cols] = acc
            prev = cur
    return prev[tuple(range(n))]


def slot_cells(rng, n: int, B: int, k: int, scale: float):
    """A grid shaped as ``_parametric_run`` shapes it, with signed zeros among the coefficients.

    Every cell is ``(B,) + (1,) * k + (L,)`` with L in 1..4; the lambda cell
    of slot s sits in its own column and has size 2 on axis ``1 + s``.
    About a quarter of the coefficients are -0.0 and a tenth +0.0; the
    rest are normal draws times ``scale``.
    """
    columns = rng.choice(n, size=k, replace=False)
    slot_of = {(int(rng.integers(n)), int(j)): s for s, j in enumerate(columns)}

    def cell(i, j):
        shape = [B] + [1] * k + [int(rng.integers(1, 5))]
        if (i, j) in slot_of:
            shape[1 + slot_of[i, j]] = 2
        values = rng.normal(size=shape) * scale
        u = rng.random(size=shape)
        return np.where(u < 0.25, -0.0, np.where(u < 0.35, 0.0, values))

    return [[cell(i, j) for j in range(n)] for i in range(n)]


def layout_free_bytes(x: np.ndarray) -> bytes:
    """The bytes of ``x`` in C order with every NaN written as +nan."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


@pytest.mark.parametrize("B", [1, 3, 2048])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_laplace_is_bitwise_the_batch_last_expansion(n, B, monkeypatch):
    polymul = det._polymul
    products = []

    def checked_polymul(a, b):
        # every product of the expansion, on the same factors swapped back to (..., L)
        out = polymul(a, b)
        want = batch_last_polymul(a.swapaxes(0, -1), b.swapaxes(0, -1))
        assert layout_free_bytes(out.swapaxes(0, -1)) == layout_free_bytes(want)
        products.append(out.size)
        return out

    monkeypatch.setattr(det, "_polymul", checked_polymul)
    rng = np.random.default_rng([n, B])
    cases = overflowed = 0

    def check(cells, k, scale, unsigned):
        nonlocal cases, overflowed
        want = batch_last_laplace(cells, unsigned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _laplace(cells, unsigned)
        if n > 1:  # the expansion's own coefficient-first array, handed out as a view
            assert got.swapaxes(0, -1).flags.c_contiguous
        assert got.shape == want.shape
        assert layout_free_bytes(got) == layout_free_bytes(want), (k, scale, unsigned)
        overflowed += not np.isfinite(got).all()
        cases += 1

    for k in range(min(n, 3) + 1):
        for scale in (1.0, 1e200):
            cells = slot_cells(rng, n, B, k, scale)
            for unsigned in (False, True):
                check(cells, k, scale, unsigned)
    # cells that are the same in every member of the batch, as the sampling
    # oracle passes single-vertex cells: stride-0 views along the batch axis
    for k in range(min(n, 3) + 1):
        for scale in (1.0, 1e200):
            for every in (False, True):  # the off-diagonal cells, then every cell
                cells = [
                    [np.broadcast_to(c[:1], c.shape) if every or i != j else c for j, c in enumerate(row)]
                    for i, row in enumerate(slot_cells(rng, n, B, k, scale))
                ]
                for unsigned in (False, True):
                    check(cells, k, scale, unsigned)
    assert len(products) == cases * n * (2 ** (n - 1) - 1)
    assert overflowed > 0 or n == 1  # the cells near 1e200 overflowed, and silently


# grids of B members whose cells have mixed lengths: (n, lengths to draw
# from, grids to draw)
PADDING_SHAPES = [(2, [6, 4], 50), (3, [7, 3], 20), (4, range(1, 10), 20), (5, range(1, 7), 10)]


@pytest.mark.parametrize("n, lengths, draws", PADDING_SHAPES, ids=[f"{n}x{n}" for n, _, _ in PADDING_SHAPES])
def test_laplace_ignores_zero_padding(n, lengths, draws):
    # every product sums over ascending powers of its cell, so zero-padding
    # the cells to a common length only adds products with a zero factor
    # before or after the others: the determinant of the cells at their own
    # lengths is bitwise the leading part of the padded one, and the rest of
    # the padded one is zero
    rng = np.random.default_rng(n)
    B = 16
    for _ in range(draws):
        sizes = rng.choice(list(lengths), size=(n, n))
        cells = [[rng.normal(size=(B, int(sizes[i, j]))) for j in range(n)] for i in range(n)]
        width = int(sizes.max())
        padded = [[np.pad(c, ((0, 0), (0, width - c.shape[1]))) for c in row] for row in cells]
        own, wide = _laplace(cells), _laplace(padded)
        assert wide.shape == (B, n * (width - 1) + 1)
        assert own.tobytes() == np.ascontiguousarray(wide[:, : own.shape[1]]).tobytes()
        assert not wide[:, own.shape[1] :].any()


# ----------------------------------------------------------------------
# parametric determinants


def small_family(n=2, seed=5, m=2):
    rng = np.random.default_rng(seed)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            verts = tuple(
                Polynomial(rng.integers(-4, 5, size=rng.integers(1, 4)).astype(float))
                for _ in range(m)
            )
            row.append(PolytopeEntry(verts))
        grid.append(row)
    return MatrixFamily(grid, HurwitzHalfPlane())


def test_parametric_matches_direct_instantiation():
    # the assembled multi-affine form must agree with determinant-after-
    # substitution at arbitrary parameter values
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        fam = small_family(n=n, seed=n)
        for cfg in iter_configs(fam, stop=6):
            pd = det_parametric(cfg)
            assert pd.k == cfg.k
            for _ in range(10):
                lam = rng.random(cfg.k)
                assembled = pd.assemble(lam)
                direct = det_matrix(cfg.instantiate(lam))
                scale = max(assembled.coeff_scale, direct.coeff_scale, 1.0)
                diff = assembled - direct
                assert diff.coeff_scale <= 1e-9 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parametric_terms_match_integer_oracle(n):
    # c_S is the Moebius inversion of the corner determinants over the subsets
    # of S; on integer vertices both sides are exact
    fam = small_family(n=n, seed=70 + n)
    for cfg in iter_configs(fam, stop=12):
        pd = det_parametric(cfg)

        def corner_det(v):
            grid = [[[int(c) for c in cell.coeffs] for cell in row] for row in cfg.base]
            for slot, j in enumerate(cfg.lambda_columns):
                if v >> slot & 1:
                    grid[cfg.sigma[j]][j] = [int(c) for c in cfg.edge_choice[j].p1.coeffs]
            return naive_det(grid)

        for mask in range(1 << cfg.k):
            want = [0]
            for sub in range(mask + 1):
                if sub & ~mask == 0:
                    term = corner_det(sub)
                    if bin(mask ^ sub).count("1") % 2:
                        term = [-x for x in term]
                    want = int_add(want, term)
            at = np.flatnonzero(pd.masks == mask)
            got = trim(pd.rows[at[0]].tolist()) if at.size else [0.0]
            assert got == [float(c) for c in trim(want)], (cfg.index, mask)


def test_parametric_multi_affine_in_each_slot():
    fam = small_family(n=2, seed=9)
    cfg = next(iter(iter_configs(fam)))
    pd = det_parametric(cfg)
    if pd.k == 0:
        pytest.skip("configuration has no free parameters")
    rng = np.random.default_rng(1)
    for slot in range(pd.k):
        lam = rng.random(pd.k)
        lam0, lam1, lamt = lam.copy(), lam.copy(), lam.copy()
        t = 0.37
        lam0[slot], lam1[slot], lamt[slot] = 0.0, 1.0, t
        interp = pd.assemble(lam0) * (1.0 - t) + pd.assemble(lam1) * t
        assert pd.assemble(lamt).isclose(interp, rtol=1e-9, atol=1e-9)


def test_assemble_validates_length():
    pd = ParametricDeterminant.from_terms(2, {0: Polynomial([1.0])})
    with pytest.raises(ValueError):
        pd.assemble([0.5])


def test_coefficient_matrix_layout():
    p0 = Polynomial([1.0, 2.0])
    p1 = Polynomial([3.0])
    pd = ParametricDeterminant.from_terms(1, {0: p0, 1: p1})
    assert list(pd.masks) == [0, 1]
    np.testing.assert_allclose(pd.rows[0], [1.0, 2.0])
    np.testing.assert_allclose(pd.rows[1], [3.0, 0.0])


def scalar_weight(mask, lam):
    w = 1.0
    for slot, x in enumerate(lam):
        if mask >> slot & 1:
            w *= float(x)
    return w


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 6),
    lead=st.lists(st.integers(1, 3), max_size=2),
    data=st.data(),
)
def test_monomial_weights_equal_scalar_products(k, lead, data):
    # every weight is bitwise the product taken slot by slot in ascending
    # order, for any leading shape of lambda vectors
    masks = np.array(sorted(data.draw(st.sets(st.integers(0, (1 << k) - 1)))), dtype=int)
    shape = tuple(lead) + (k,)
    values = data.draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    lam = np.array(values, dtype=float).reshape(shape)
    got = monomial_weights(masks, lam)
    assert got.shape == tuple(lead) + (masks.size,)
    for idx in np.ndindex(*lead):
        want = np.array([scalar_weight(int(m), lam[idx]) for m in masks], dtype=float)
        assert got[idx].tobytes() == want.tobytes(), (idx, lam[idx])


@pytest.mark.parametrize("k", range(7))
def test_corner_weights_are_subset_indicators(k):
    lams = corner_lambdas(k)
    assert lams.shape == (1 << k, k)
    for v in range(1 << k):
        assert lams[v].tolist() == [float(v >> j & 1) for j in range(k)]
    masks = np.arange(1 << k)
    indicator = ((masks[None, :] & ~masks[:, None]) == 0).astype(float)
    assert monomial_weights(masks, lams).tobytes() == indicator.tobytes()


# ----------------------------------------------------------------------
# coefficient boxes


def test_coefficient_box_known_segment():
    # D = (1 - lam) * (s + 1) + lam * (3s + 5) has coefficients
    # [1 + 4*lam, 1 + 2*lam]
    p0 = Polynomial([1.0, 1.0])
    delta = Polynomial([4.0, 2.0])
    pd = ParametricDeterminant.from_terms(1, {0: p0, 1: delta})
    box = coefficient_box(pd)
    np.testing.assert_allclose(box, [[1.0, 5.0], [1.0, 3.0]])


def test_coefficient_box_contains_dense_grid():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        fam = small_family(n=n, seed=50 + n)
        cfg = next(iter(iter_configs(fam)))
        pd = det_parametric(cfg)
        box = coefficient_box(pd)
        scale = max(np.max(np.abs(box)), 1.0)
        axes = [np.linspace(0.0, 1.0, 9)] * pd.k
        width = pd.rows.shape[1]
        grid_min = np.full(width, np.inf)
        grid_max = np.full(width, -np.inf)
        for lam in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, pd.k) if pd.k else [np.zeros(0)]:
            c = np.zeros(width)
            member = pd.assemble(lam).coeffs
            c[: member.size] = member
            grid_min = np.minimum(grid_min, c)
            grid_max = np.maximum(grid_max, c)
        # every sampled coefficient stays inside the box ...
        assert np.all(grid_min >= box[:, 0] - 1e-9 * scale)
        assert np.all(grid_max <= box[:, 1] + 1e-9 * scale)
        # ... and the box is tight: multi-affine extrema sit at the grid's
        # corner points, which the 9-point axes include
        np.testing.assert_allclose(grid_min, box[:, 0], atol=1e-9 * scale)
        np.testing.assert_allclose(grid_max, box[:, 1], atol=1e-9 * scale)


def test_coefficient_box_k_zero():
    pd = ParametricDeterminant.from_terms(0, {0: Polynomial([2.0, -3.0])})
    np.testing.assert_allclose(coefficient_box(pd), [[2.0, 2.0], [-3.0, -3.0]])
