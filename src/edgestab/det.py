"""Determinants of polynomial matrices, concrete and parametric.

The parametric form covers an edge configuration: entry (sigma(j), j) of
column j is ``p0_j + lam_j * delta_j`` and every other entry is a fixed
polynomial.  Because each parameter lives in exactly one column and every
determinant product takes one entry per column, the determinant is
multi-affine in lambda:

    D(s, lam) = sum over subsets S of c_S(s) * prod_{j in S} lam_j.

Subsets are encoded as bitmasks over the parameter slots.  Multi-affinity is
what makes the coefficient box exact: every coefficient of ``s**l`` attains
its extrema at vertices of the lambda box, so scanning the 2**k vertices
yields tight per-degree ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import EdgeConfiguration
from .poly import Polynomial

_ZERO = Polynomial([0.0])


def det_matrix(grid) -> Polynomial:
    """Determinant of a concrete polynomial matrix.

    First-row Laplace expansion memoized on the active column mask; the
    minor of the remaining rows depends only on that mask, so the cost is
    O(2^n * n) polynomial operations instead of factorial.
    """
    rows = [list(r) for r in grid]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
        for cell in r:
            if not isinstance(cell, Polynomial):
                raise TypeError("matrix cells must be Polynomial instances")
    memo: dict[int, Polynomial] = {}

    def minor(mask: int) -> Polynomial:
        if mask in memo:
            return memo[mask]
        r = n - bin(mask).count("1")
        acc = _ZERO
        sign = 1.0
        for j in range(n):
            if not mask >> j & 1:
                continue
            sub = mask & ~(1 << j)
            cell = rows[r][j]
            term = cell if sub == 0 else cell * minor(sub)
            acc = acc + term * sign
            sign = -sign
        memo[mask] = acc
        return acc

    return minor((1 << n) - 1)


def monomial_weights(masks, lam) -> np.ndarray:
    """``prod_{j in S} lam_j`` for each mask S, multiplied in ascending slot order."""
    out = np.ones(len(masks))
    for r, mask in enumerate(masks):
        mask = int(mask)
        slot = 0
        w = 1.0
        while mask:
            if mask & 1:
                w *= float(lam[slot])
            mask >>= 1
            slot += 1
        out[r] = w
    return out


def subset_matrix(masks: np.ndarray, k: int) -> np.ndarray:
    """Boolean (2**k, masks) matrix: entry [v, r] says masks[r] is a subset of vertex v."""
    verts = np.arange(1 << k)[:, None]
    return (masks[None, :] & ~verts) == 0


@dataclass(frozen=True)
class ParametricDeterminant:
    """Multi-affine determinant ``sum_S c_S(s) * prod_{j in S} lam_j``.

    ``terms`` maps slot bitmasks to coefficient polynomials; absent masks are
    zero.  ``k`` is the parameter count.
    """

    k: int
    terms: dict

    def assemble(self, lam) -> Polynomial:
        """Concrete determinant polynomial at one lambda vector."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.size != self.k:
            raise ValueError(f"expected {self.k} parameters, got {lam.size}")
        acc = _ZERO
        for poly, w in zip(self.terms.values(), monomial_weights(list(self.terms), lam)):
            if w != 0.0:
                acc = acc + poly * w
        return acc

    @property
    def coeff_length(self) -> int:
        return max((p.coeffs.size for p in self.terms.values()), default=1)

    def coefficient_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(masks, padded coefficient rows) for vectorized evaluation."""
        L = self.coeff_length
        masks = np.array(sorted(self.terms.keys()), dtype=int)
        rows = np.zeros((masks.size, L))
        for r, mask in enumerate(masks):
            c = self.terms[int(mask)].coeffs
            rows[r, : c.size] = c
        return masks, rows


def det_parametric(cfg: EdgeConfiguration) -> ParametricDeterminant:
    """Parametric determinant of an edge configuration.

    Cells are lifted to the multi-affine ring (bitmask -> Polynomial maps);
    the memoized first-row expansion then runs unchanged.  Pattern cells with
    a nondegenerate segment contribute ``{0: p0, bit(slot): delta}``.
    """
    n = cfg.n
    slot_of = {j: slot for slot, j in enumerate(cfg.lambda_columns)}
    cells: list[list[dict[int, Polynomial]]] = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = {0: cfg.base[i][j]}
            if i == cfg.sigma[j] and j in cfg.deltas:
                cell[1 << slot_of[j]] = cfg.deltas[j]
            row.append(cell)
        cells.append(row)

    def madd(a, b, scale=1.0):
        out = dict(a)
        for mask, poly in b.items():
            cur = out.get(mask)
            np_poly = poly * scale if scale != 1.0 else poly
            out[mask] = np_poly if cur is None else cur + np_poly
        return out

    def mmul(a, b):
        out: dict[int, Polynomial] = {}
        for ma, pa in a.items():
            if pa.is_zero:
                continue
            for mb, pb in b.items():
                if pb.is_zero:
                    continue
                mask = ma | mb
                prod = pa * pb
                cur = out.get(mask)
                out[mask] = prod if cur is None else cur + prod
        return out

    memo: dict[int, dict[int, Polynomial]] = {}

    def minor(mask: int) -> dict[int, Polynomial]:
        if mask in memo:
            return memo[mask]
        r = n - bin(mask).count("1")
        acc: dict[int, Polynomial] = {}
        sign = 1.0
        for j in range(n):
            if not mask >> j & 1:
                continue
            sub = mask & ~(1 << j)
            term = cells[r][j] if sub == 0 else mmul(cells[r][j], minor(sub))
            acc = madd(acc, term, sign)
            sign = -sign
        memo[mask] = acc
        return acc

    terms = {m: p for m, p in minor((1 << n) - 1).items() if not p.is_zero}
    if not terms:
        terms = {0: _ZERO}
    return ParametricDeterminant(cfg.k, terms)


def coefficient_box(pd: ParametricDeterminant) -> np.ndarray:
    """Exact per-degree coefficient ranges over the lambda box.

    Returns an array of shape (L, 2) with rows (lo, hi).  Each lambda-box
    vertex V contributes the coefficient vector ``sum_{S subset of V} c_S``;
    multi-affinity puts the true extrema among these 2**k vectors.
    """
    L = pd.coeff_length
    masks, rows = pd.coefficient_matrix()
    lo = np.full(L, np.inf)
    hi = np.full(L, -np.inf)
    for sel in subset_matrix(masks, pd.k):
        vec = rows[sel].sum(axis=0) if np.any(sel) else np.zeros(L)
        lo = np.minimum(lo, vec)
        hi = np.maximum(hi, vec)
    return np.stack([lo, hi], axis=1)
