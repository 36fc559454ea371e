"""Dense univariate real polynomials on an ascending coefficient basis.

Every root the program measures comes from one solver, ``batch_roots``, on
stacks of coefficient rows; ``Polynomial.roots`` is its batch of one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ZeroPolynomialError

# Relative floor below which trailing coefficients are considered spurious.
TRUNCATION_REL_TOL = 1e-12

# Target residual for computed roots, relative to the coefficient scale at the root.
ROOT_RESIDUAL_TOL = 1e-9


class Polynomial:
    """Immutable real polynomial; ``coeffs[i]`` multiplies ``s**i``.

    Construction normalizes the representation: trailing coefficients whose
    magnitude is at most ``TRUNCATION_REL_TOL`` times the largest coefficient
    magnitude are dropped, and ``truncated`` records whether any dropped
    coefficient was actually nonzero.  Ring operations (``+``, ``-``, ``*``,
    ``derivative``) drop only exactly-zero trailing coefficients: a small
    leading coefficient of a computed result is kept, never truncated, and
    the result's ``truncated`` is False.  The zero polynomial is stored as
    the single coefficient ``0.0``.
    """

    __slots__ = ("coeffs", "truncated")

    def __init__(self, coeffs: Sequence[float] | np.ndarray):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if arr.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        if arr.size == 0:
            raise ValueError("coefficient sequence must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        truncated = False
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0:
            arr = np.zeros(1)
        else:
            keep = arr.size
            floor = TRUNCATION_REL_TOL * scale
            while keep > 1 and abs(arr[keep - 1]) <= floor:
                if arr[keep - 1] != 0.0:
                    truncated = True
                keep -= 1
            arr = arr[:keep].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "truncated", truncated)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # immutability blocks the default slot-state restore; rebuild instead
        return (_exact, (self.coeffs, self.truncated))

    # ------------------------------------------------------------------
    # basic structure

    @property
    def degree(self) -> int:
        """Degree of the normalized representation; the zero polynomial reports 0."""
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self) -> float:
        """Coefficient of the highest retained power."""
        return float(self.coeffs[-1])

    @property
    def coeff_scale(self) -> float:
        """Largest coefficient magnitude."""
        return float(np.max(np.abs(self.coeffs)))

    def as_list(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    # ------------------------------------------------------------------
    # ring operations

    def _padded_pair(self, other: "Polynomial") -> tuple[np.ndarray, np.ndarray]:
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return a, b

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._padded_pair(other)
        return _exact(a + b)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._padded_pair(other)
        return _exact(a - b)

    def __neg__(self) -> "Polynomial":
        return _exact(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return _exact(np.convolve(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return _exact(self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None

    def isclose(self, other: "Polynomial", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        a, b = self._padded_pair(other)
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))

    # ------------------------------------------------------------------
    # evaluation and calculus

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or numpy arrays."""
        return np.polyval(self.coeffs[::-1], z)

    def derivative(self) -> "Polynomial":
        if self.coeffs.size == 1:
            return Polynomial([0.0])
        return _exact(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    # ------------------------------------------------------------------
    # roots

    def roots(self) -> np.ndarray:
        """All complex roots: ``batch_roots`` on the batch of one.

        The zero polynomial has no meaningful root set and raises; a nonzero
        constant returns an empty array.
        """
        if self.is_zero:
            raise ZeroPolynomialError("the zero polynomial has no root set")
        if self.degree == 0:
            return np.empty(0, dtype=complex)
        return batch_roots(self.coeffs[None])[0]

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.as_list()})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            if i == 0:
                parts.append(f"{c:g}")
            elif i == 1:
                parts.append(f"{c:g}*s")
            else:
                parts.append(f"{c:g}*s^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def from_roots(roots: Iterable[complex], leading: float = 1.0) -> Polynomial:
    """Real polynomial with the given roots; complex roots must come in conjugate pairs."""
    coeffs = np.atleast_1d(np.polynomial.polynomial.polyfromroots(list(roots)))
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("roots do not describe a real polynomial")
    return Polynomial(coeffs.real * float(leading))


def _exact(coeffs: np.ndarray, truncated: bool = False) -> Polynomial:
    """Polynomial of computed coefficients: only exactly-zero trailing ones are dropped."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    nonzero = np.flatnonzero(coeffs)
    arr = np.array(coeffs[: nonzero[-1] + 1] if nonzero.size else [0.0], dtype=float)
    arr.flags.writeable = False
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "coeffs", arr)
    object.__setattr__(p, "truncated", truncated)
    return p


def horner(rows: np.ndarray, s) -> np.ndarray:
    """Sum over l of ``rows[..., l] * s**l``, broadcast over ``rows.shape[:-1]`` and ``s``.

    The operations and their order are ``np.polyval``'s on each row.  Each
    product takes operands of one shape, as ``np.polyval``'s do; numpy's
    complex product rounds differently when one operand is broadcast.
    """
    s = np.asarray(s)
    vals = np.zeros(np.broadcast(rows[..., 0], s).shape, dtype=complex)
    points = np.empty(vals.shape, s.dtype)
    points[...] = s
    for l in range(rows.shape[-1] - 1, -1, -1):
        vals = vals * points + rows[..., l]
    return vals


def batch_roots(rows: np.ndarray) -> np.ndarray:
    """Roots of (B, d + 1) ascending rows of one degree d >= 1, shape (B, d).

    A row with z exactly-zero low coefficients gets the eigenvalues of the
    companion matrix of its other coefficients, then z roots exactly at 0.
    One batched ``eigvals`` per z: LAPACK solves each matrix on its own, so
    a row's roots do not depend on the batch.  Each root then gets up to two
    Newton steps, kept only when |p(r)| improves.
    """
    d = rows.shape[1] - 1
    roots = np.zeros((rows.shape[0], d), dtype=complex)
    low = np.argmax(rows != 0.0, axis=1)
    for z in set(low.tolist()):
        pick = np.nonzero(low == z)[0]
        m = d - z
        if m == 0:
            continue
        comp = np.zeros((pick.size, m, m))
        comp[:, 1:, :-1] = np.eye(m - 1)
        comp[:, 0, :] = -rows[pick, z:d][:, ::-1] / rows[pick, d:]
        roots[pick, :m] = np.linalg.eigvals(comp)
        del comp  # the largest array here: free it before the polish
    coeffs = rows[:, None]
    deriv = (rows[:, 1:] * np.arange(1, d + 1))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        pv = horner(coeffs, roots)
        for _ in range(2):
            dv = horner(deriv, roots)
            safe = (np.abs(dv) > 0.0) & np.isfinite(pv) & np.isfinite(dv)
            step = np.zeros_like(roots)
            step[safe] = pv[safe] / dv[safe]
            # a polish step is microscopic; a large one means the value is
            # noise-dominated (e.g. near-multiple roots) and following it
            # can jump into a different root's basin
            step[np.abs(step) > 1e-3 * (1.0 + np.abs(roots))] = 0.0
            cand = roots - step
            cv = horner(coeffs, cand)
            better = np.abs(cv) < np.abs(pv)
            roots, pv = np.where(better, cand, roots), np.where(better, cv, pv)
    return roots
