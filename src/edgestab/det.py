"""Determinants of polynomial matrices, concrete and parametric.

The parametric form covers an edge configuration: entry (sigma(j), j) of
column j is ``p0_j + lam_j * (p1_j - p0_j)`` on its segment and every other
entry is a fixed polynomial.  Because each parameter lives in exactly one
column and every determinant product takes one entry per column, the
determinant is multi-affine in lambda:

    D(s, lam) = sum over subsets S of c_S(s) * prod_{j in S} lam_j.

Subsets are encoded as bitmasks over the parameter slots.  Multi-affinity is
what makes the coefficient box exact: every coefficient of ``s**l`` attains
its extrema at vertices of the lambda box, so scanning the 2**k vertices
yields tight per-degree ranges.

One loop-based array core, ``_laplace``, serves the concrete, parametric
and sampled determinants (``det_matrix``, ``det_parametric_run`` and the
oracle's member batches).  It works on coefficient arrays of shape
``(..., L)``: the last axis holds ascending powers of ``s``, and a
parametric cell carries one leading axis per lambda slot.  A slot axis is in
the monomial basis: index 0 is the lambda-free coefficient and index 1 the
coefficient of ``lam_slot``, so a cell with a segment has size 2 on its own
slot's axis and size 1 on every other axis.  Products convolve the power
axis and broadcast the slot axes; since the two factors of a Laplace product
never share a column, they never share a size-2 axis, and the broadcast is
exactly the product of monomials.  Sums zero-pad every axis to the larger
size and never broadcast: a size-1 slot axis holds no ``lam_slot`` term, so
it must not be copied onto index 1.  Inside the core the power axis comes
first: each cell enters as a view with its first and last axes swapped, so
a batch axis comes last, and the result leaves swapped back as a view of
the coefficient-first array the expansion built.  Each convolution pass
then adds contiguous batch rows rather than strided columns of ``L``
values, which halves the cost of a batch of thousands, and every product
and sum rounds exactly as in a last-axis convolution.  A caller that keeps
its batches coefficient-first, as the sampling oracle keeps its (L, B)
cells, passes their transposes and takes the transpose of the result, so
no layout is copied on either side; a cell that is the same in every
member may be a stride-0 view along its batch axis.  A concrete
determinant becomes a ``Polynomial``, a parametric one the arrays of its
nonzero masks and coefficient rows; both drop only exactly-zero trailing
coefficients, so a leading one that nearly cancels is kept.  Bisection's
sub-box corners and centres, ``coefficient_box`` and ``assemble`` all
weight those rows by ``monomial_weights``.

``det_parametric_run`` computes a run's dense terms with one ``_laplace``
call: every cell gains a leading batch axis, shape ``(B,) + slot axes +
(L,)``, which the products broadcast and the sums never pad.  Cells are
gathered at ``VertexTable.width``, and padding leaves a determinant's bits
alone (``_polymul``), so each configuration's determinant is bitwise its
own; ``det_parametric`` is the run of one, from an ``EdgeConfiguration``.

``det_enclosure`` runs the same core on cell boxes in midpoint-radius form
(``cell_boxes``): the centre is the determinant of the midpoints, and the
radius comes from the expansion with every sign ``+``, plus a rounding
term, so every member's determinant coefficients lie within it.  The
family certificate encloses a batch of corner members this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .edges import EdgeConfiguration
from .poly import Polynomial, _exact
from .region import _gamma, _up


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient-first arrays ``(L, ...)``: convolve axis 0, broadcast the rest.

    Each pass multiplies one coefficient of ``a`` into a single scratch
    buffer shaped like ``b`` and adds that into contiguous rows of a
    zero-initialised accumulator, in ascending order of ``a``'s powers, so
    every coefficient is the same sum of the same products, rounded in the
    same order, as a convolution of the last axis would give.  ``_laplace``
    passes the cell as ``a`` and the loop never swaps: zero-padding a cell
    or a minor only adds zero products before or after the others, so while
    no minor overflows, padding changes no determinant bit but a zero's sign.
    """
    la, lb = a.shape[0], b.shape[0]
    scratch = np.multiply(a[0], b, order="C")
    out = np.zeros((la + lb - 1,) + scratch.shape[1:])
    out[:lb] += scratch
    for i in range(1, la):
        out[i : i + lb] += np.multiply(a[i], b, out=scratch)
    return out


def _polyadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of coefficient arrays, every axis zero-padded to the larger size."""
    out = np.zeros(tuple(max(x, y) for x, y in zip(a.shape, b.shape)))
    out[tuple(slice(0, x) for x in a.shape)] += a
    out[tuple(slice(0, x) for x in b.shape)] += b
    return out


def _laplace(cells, unsigned: bool = False) -> np.ndarray:
    """Determinant of a square grid of coefficient arrays of equal rank.

    Laplace expansion built bottom-up over column subsets in order of size:
    the minor on the ascending columns ``cols`` expands row ``n - len(cols)``
    over ``cols`` with signs alternating by position, using the minors of
    the previous size.  Only that previous size is kept, so the cost is
    O(2^n * n) array products instead of factorial.  A coefficient that
    overflows float64 comes back inf or NaN, without a warning; the callers
    decide what a non-finite determinant means.  ``unsigned`` makes every
    sign ``+``: the same products and sums, whose value at nonnegative cells
    bounds the magnitudes that ``det_enclosure`` needs.

    Cells come in and the determinant goes out as ``(..., L)``, but the
    expansion runs coefficient-first, shape ``(L, ...)``: each cell enters
    as a view with its ``s``-power axis swapped with its first axis, so
    ``_polymul`` adds whole contiguous batch rows instead of strided
    coefficient columns, and the result leaves as the same swapped view of
    the coefficient-first array the expansion built, with nothing copied
    (for n = 1 it is the cell itself).  The sampling oracle keeps its
    cells coefficient-first, shape (L, B), and passes their transposes, so
    its cells enter and its determinants leave contiguous and uncopied; a
    single-vertex cell is a stride-0 view along the batch axis, which the
    products read like any other.  Each minor sums its terms in place into
    one zero-initialised array, adding the even-position terms and
    subtracting the odd-position ones: ``x - y`` is ``x + (-y)`` bit for
    bit, and the zero start turns every -0.0 into +0.0 as the pairwise
    sums of zero-padded copies did.  Every number, signed zeros and
    infinities included, is bitwise that of a last-axis expansion, and
    every NaN falls in the same place; only a NaN's sign, which IEEE 754
    leaves unspecified and numpy's vectorised add picks by memory position,
    may differ.
    """
    n = len(cells)
    cells = [[cell.swapaxes(0, -1) for cell in row] for row in cells]
    prev = {(j,): cells[n - 1][j] for j in range(n)}
    with np.errstate(over="ignore", invalid="ignore"):
        for size in range(2, n + 1):
            row = cells[n - size]
            cur = {}
            for cols in itertools.combinations(range(n), size):
                terms = [_polymul(row[j], prev[cols[:pos] + cols[pos + 1 :]]) for pos, j in enumerate(cols)]
                acc = np.zeros(tuple(map(max, *(term.shape for term in terms))))
                for pos, term in enumerate(terms):
                    part = acc[tuple(slice(0, x) for x in term.shape)]
                    if pos % 2 and not unsigned:
                        part -= term
                    else:
                        part += term
                cur[cols] = acc
            prev = cur
    return prev[tuple(range(n))].swapaxes(0, -1)


def det_matrix(grid) -> Polynomial:
    """Determinant of a concrete polynomial matrix, keeping every computed coefficient."""
    rows = [list(r) for r in grid]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
        for cell in r:
            if not isinstance(cell, Polynomial):
                raise TypeError("matrix cells must be Polynomial instances")
    return _exact(_laplace([[cell.coeffs for cell in r] for r in rows]))


def monomial_weights(masks, lam) -> np.ndarray:
    """``prod_{j in S} lam_j`` for each mask S, over lambda vectors of shape ``(..., k)``.

    Returns shape ``(...,) + masks.shape``.  A weight is one sequential
    product over the slots in ascending order, a slot outside the mask
    contributing an exact 1.0, so it rounds as ``lam_a * lam_b * ...`` does.
    """
    lam = np.asarray(lam, dtype=float)
    bits = np.asarray(masks)[..., None] >> np.arange(lam.shape[-1]) & 1
    return np.where(bits, lam[..., None, :], 1.0).prod(axis=-1)


def corner_lambdas(k: int) -> np.ndarray:
    """Lambda vector of each box corner, shape (2**k, k): row v sets slot j to bit j of v."""
    return (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float)


@dataclass(frozen=True, eq=False)
class ParametricDeterminant:
    """Multi-affine determinant ``sum_S c_S(s) * prod_{j in S} lam_j``.

    ``masks`` holds the slot bitmasks S of the nonzero terms in ascending
    order and ``rows[r]`` the ascending coefficients of ``c_{masks[r]}``,
    zero-padded to a common length; absent masks are zero.  ``k`` is the
    parameter count.  Both arrays are read-only.
    """

    k: int
    masks: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.masks.flags.writeable = False
        self.rows.flags.writeable = False

    @classmethod
    def from_terms(cls, k: int, terms: dict) -> "ParametricDeterminant":
        """From a ``{mask: Polynomial}`` map; every given mask is kept, zero or not."""
        masks = np.array(sorted(terms), dtype=int)
        rows = np.zeros((masks.size, max((p.coeffs.size for p in terms.values()), default=1)))
        for r, mask in enumerate(masks):
            c = terms[int(mask)].coeffs
            rows[r, : c.size] = c
        return cls(k, masks, rows)

    @classmethod
    def from_dense(cls, terms: np.ndarray) -> "ParametricDeterminant":
        """From one configuration's dense terms (2**k, L), row S holding ``c_S``.

        Keeps the nonzero masks, cut at the last column any of them uses and
        +0.0 past each end; a zero determinant keeps mask 0 with row [0.0].
        """
        lengths = ((terms != 0.0) * np.arange(1, terms.shape[1] + 1)).max(axis=1)
        masks = np.flatnonzero(lengths) if lengths.any() else np.zeros(1, dtype=int)
        width = max(int(lengths.max()), 1)
        rows = np.where(np.arange(width) < lengths[masks, None], terms[masks, :width], 0.0)
        return cls(terms.shape[0].bit_length() - 1, masks, rows)

    def assemble(self, lam) -> Polynomial:
        """Concrete determinant polynomial at one lambda vector."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.size != self.k:
            raise ValueError(f"expected {self.k} parameters, got {lam.size}")
        return _exact(monomial_weights(self.masks, lam) @ self.rows)


def _parametric_run(fixed, segments) -> np.ndarray:
    """Dense parametric terms of B configurations that share their lambda cells, (B, 2**k, L).

    ``fixed[i][j]`` holds cell (i, j) at lambda = 0, shape ``(B, L)``, and
    ``segments`` lists ``(i, j, p1)`` per lambda cell in slot order.  Fixed
    cells become arrays of shape ``(B,) + (1,) * k + (L,)``; a lambda cell
    stacks ``p0`` and ``p1 - p0`` on its slot's axis, both as wide as the
    longer of ``p0`` and ``p1``.  Row ``S`` of configuration b holds its
    ``c_S`` as ``_laplace`` computed it, zero-padded to the run's length; a
    term past a configuration's own length is zero of either sign.  A
    difference ``p1 - p0`` or a coefficient that overflows stays inf or
    NaN, and the degree checks (``stab._decide_boxes``) call that
    determinant Degenerate.
    """
    n, k, B = len(fixed), len(segments), fixed[0][0].shape[0]
    cells = [[cell.reshape((B,) + (1,) * k + (-1,)) for cell in row] for row in fixed]
    for slot, (i, j, p1) in enumerate(segments):
        p0 = fixed[i][j]
        cell = np.zeros((B, 2, max(p0.shape[1], p1.shape[1])))
        cell[:, 0, : p0.shape[1]] = p0
        cell[:, 1, : p1.shape[1]] = p1
        with np.errstate(over="ignore"):
            cell[:, 1] -= cell[:, 0]
        shape = [B] + [1] * k + [cell.shape[2]]
        shape[1 + slot] = 2
        cells[i][j] = cell.reshape(shape)

    full = _polyadd(_laplace(cells), np.zeros((B,) + (2,) * k + (1,)))
    # row ``mask`` of configuration b: reversing the slot axes puts slot 0 on the last bit
    return full.transpose((0,) + tuple(range(k, 0, -1)) + (k + 1,)).reshape(B, 1 << k, -1)


def det_parametric_run(table, ends: np.ndarray) -> np.ndarray:
    """Dense parametric terms of a run whose configurations share their lambda cells, (B, 2**k, L).

    Each cell's rows are gathered from ``table.rows`` at ``table.width``;
    ``ParametricDeterminant.from_dense`` cuts out one configuration's
    determinant.
    """
    free = table.lambda_cells(ends)
    if (free != free[0]).any():
        raise ValueError("a run needs one set of lambda cells")
    n = table.n

    def gathered(c: int, end: int) -> np.ndarray:
        return table.rows[c, ends[:, c, end], : table.width[c]]

    fixed = [[gathered(i * n + j, 0) for j in range(n)] for i in range(n)]
    slots = table.slots(free[0]).tolist()
    return _parametric_run(fixed, [(c // n, c % n, gathered(c, 1)) for c in slots])


def det_parametric(cfg: EdgeConfiguration) -> ParametricDeterminant:
    """Parametric determinant of one edge configuration: the run of one."""
    fixed = [[cell.coeffs[None] for cell in row] for row in cfg.base]
    segments = [(cfg.sigma[j], j, cfg.edge_choice[j].p1.coeffs[None]) for j in cfg.lambda_columns]
    return ParametricDeterminant.from_dense(_parametric_run(fixed, segments)[0])


def coefficient_box(pd: ParametricDeterminant) -> np.ndarray:
    """Exact per-degree coefficient ranges over the lambda box.

    Returns an array of shape (L, 2) with rows (lo, hi).  Each lambda-box
    vertex V contributes the coefficient vector ``sum_{S subset of V} c_S``;
    multi-affinity puts the true extrema among these 2**k vectors.
    """
    vecs = monomial_weights(pd.masks, corner_lambdas(pd.k)) @ pd.rows
    return np.stack([vecs.min(axis=0), vecs.max(axis=0)], axis=1)


def cell_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and radii of the boxes [lo, hi], with [mid - rad, mid + rad] covering [lo, hi].

    ``mid`` is the rounded average; ``rad`` is the larger of ``hi - mid``
    and ``mid - lo``, each rounded up, so the covering holds in floating
    point.  Non-finite bounds give a non-finite radius.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * lo + 0.5 * hi
        return mid, np.maximum(_up(hi, -mid), _up(-lo, mid))


def det_enclosure(mid, rad) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-radius enclosure of the determinant over a grid of cell boxes |x - mid| <= rad.

    ``mid[i][j]`` and ``rad[i][j]`` hold cell (i, j)'s ascending midpoints
    and radii, shape ``(S, L_ij)`` for S boxes of the same shapes.  Returns
    ``(centre, radius)``, shape (S, L), such that the determinant of every
    matrix with cells in the boxes has coefficients within ``radius`` of
    ``centre`` (Rump, "Verification methods", *Acta Numerica* 2010).

    The centre is ``_laplace(mid)``.  Write P+ for the expansion with every
    sign ``+``; each determinant coefficient is a sum of distinct products
    of cell coefficients, so it moves by at most P+(|mid| + rad) - P+(|mid|)
    over the boxes.  Every product and sum of the expansion rounds at most
    K = n (L_max + n) times on its way to a coefficient, so each of the
    three computed expansions is within ``_gamma(K)`` times P+ of its exact
    value (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 3.1); ``4 * _gamma(K) * P+(|mid| + rad)`` covers those
    errors and that of the subtraction, and the radius is rounded up.
    Non-finite inputs or an overflow give non-finite output.
    """
    n = len(mid)
    size = [[np.abs(m) for m in row] for row in mid]
    with np.errstate(over="ignore", invalid="ignore"):
        reach = [[_up(a, r) for a, r in zip(row_a, row_r)] for row_a, row_r in zip(size, rad)]
        centre = _laplace(mid)
        low, high = _laplace(size, unsigned=True), _laplace(reach, unsigned=True)
        gamma = _gamma(n * (max(m.shape[-1] for row in mid for m in row) + n))
        return centre, _up(high - low, 4.0 * gamma * high)
