"""Stability regions: open half planes and open disks.

Each region knows its signed margin (positive strictly inside, zero on the
boundary, negative outside), a boundary parameterization, and how fast the
boundary point moves per unit of the sweep parameter.

``member_margins`` is the one rule for a member's margin and worst root: it
takes stacks of determinant rows, solves them batched per degree, and
measures every member the program measures, from ``point_stable`` and the
analyzer's all-vertex members to witnesses and the sampling oracle's members.

``margins_exceed`` is a filter in front of that rule, not a second margin
rule: a guarded Routh-Hurwitz test that can only say "every root lies more
than tau inside" (True) or "cannot tell" (False), and never solves a root.
The sampling oracle root-solves only the members it cannot clear, because a
cleared member cannot be its worst.  Disks clear nothing, so every disk
member is solved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeDropError
from .poly import batch_roots

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HurwitzHalfPlane:
    """Open left half plane Re(z) < 0."""

    kind = "hurwitz"

    def margin(self, z):
        return -np.real(z)

    def contains(self, z) -> bool:
        return bool(self.margin(z) > 0.0)

    def boundary(self, theta):
        return 1j * np.asarray(theta, dtype=float) + 0.0

    def boundary_speed(self) -> float:
        return 1.0

    def describe(self) -> dict:
        return {"type": "hurwitz"}


@dataclass(frozen=True)
class ShiftedHalfPlane:
    """Open half plane Re(z) < sigma."""

    sigma: float
    kind = "shifted_half_plane"

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError("half-plane shift must be finite")

    def margin(self, z):
        return self.sigma - np.real(z)

    def contains(self, z) -> bool:
        return bool(self.margin(z) > 0.0)

    def boundary(self, theta):
        return self.sigma + 1j * np.asarray(theta, dtype=float)

    def boundary_speed(self) -> float:
        return 1.0

    def describe(self) -> dict:
        return {"type": "shifted_half_plane", "sigma": float(self.sigma)}


@dataclass(frozen=True)
class Disk:
    """Open disk |z - center| < radius."""

    center: complex
    radius: float
    kind = "disk"

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError("disk center and radius must be finite")
        if not self.radius > 0.0:
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))

    def margin(self, z):
        return self.radius - np.abs(np.asarray(z) - self.center)

    def contains(self, z) -> bool:
        return bool(self.margin(z) > 0.0)

    def boundary(self, theta):
        return self.center + self.radius * np.exp(1j * np.asarray(theta, dtype=float))

    def boundary_speed(self) -> float:
        return self.radius

    def describe(self) -> dict:
        return {
            "type": "disk",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
        }


Region = HurwitzHalfPlane | ShiftedHalfPlane | Disk


def _box_degree(box: np.ndarray) -> int:
    """Highest index whose coefficient range is not identically zero."""
    mags = np.max(np.abs(box), axis=1)
    nz = np.nonzero(mags > 0.0)[0]
    return int(nz[-1]) if nz.size else -1


def sweep_range_from_box(region: Region, box: np.ndarray) -> tuple[float, float]:
    """Sweep-parameter range covering every boundary root of the family.

    ``box`` holds per-degree coefficient ranges (rows ``[lo, hi]``).  Disks
    use the full turn.  For half planes the range comes from a family-uniform
    Cauchy root bound: the largest non-leading magnitude over the smallest
    leading magnitude.  Conjugate symmetry of real polynomials makes the
    nonnegative half of the frequency axis sufficient.

    Raises ``DegreeDropError`` if the leading-coefficient interval contains
    zero, because then no uniform root bound exists.
    """
    if isinstance(region, Disk):
        return (0.0, TWO_PI)
    box = np.asarray(box, dtype=float)
    d = _box_degree(box)
    if d < 0:
        raise DegreeDropError("coefficient box is identically zero")
    lo, hi = box[d]
    if lo <= 0.0 <= hi:
        raise DegreeDropError("leading-coefficient interval contains zero")
    lead_min = min(abs(lo), abs(hi))
    if d == 0:
        return (0.0, 0.0)
    head = np.max(np.abs(box[:d]))
    bound = 1.0 + head / lead_min
    sigma = region.sigma if isinstance(region, ShiftedHalfPlane) else 0.0
    omega_sq = bound * bound - sigma * sigma
    return (0.0, math.sqrt(omega_sq) if omega_sq > 0.0 else 0.0)


def _row_degrees(det_coeffs: np.ndarray) -> np.ndarray:
    """Index of each row's last nonzero coefficient; -1 for a zero row."""
    nonzero = det_coeffs != 0.0
    last = det_coeffs.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, -1)


def member_margins(region: Region, det_coeffs: np.ndarray) -> tuple[np.ndarray, list]:
    """(margins, worst roots) of (B, L) ascending determinant rows, batched per degree.

    A row's degree is that of its last nonzero coefficient, and the rows of
    one degree d >= 1 share one ``batch_roots`` call, which solves each row as
    it would alone.  A row's margin is that of its worst root, the first of
    least margin, and is positive iff every root lies strictly inside the
    region.  A nonzero constant gets +inf and no root; the zero polynomial
    gets -inf with a root at the origin, so it always surfaces as the worst
    member.  A row with a non-finite coefficient, a determinant that
    overflowed float64, has no root set to measure: it gets a NaN margin and
    no root.
    """
    finite = np.isfinite(det_coeffs).all(axis=1)
    degrees = _row_degrees(det_coeffs)
    degrees[~finite] = 0
    margins = np.where(finite, np.where(degrees < 0, -math.inf, math.inf), math.nan)
    roots_out = [0.0 + 0.0j if deg < 0 else None for deg in degrees]
    for d in np.unique(degrees[degrees > 0]):
        rows = np.nonzero(degrees == d)[0]
        roots = batch_roots(det_coeffs[rows, : d + 1])
        root_margins = np.asarray(region.margin(roots), dtype=float)
        worst = np.arange(rows.size), np.argmin(root_margins, axis=1)
        margins[rows] = root_margins[worst]
        for r, root in zip(rows, roots[worst]):
            roots_out[r] = complex(root)
    return margins, roots_out


# Uncertainty seeded on every shifted coefficient, relative to the bound that
# the same shift gives on the coefficients' magnitudes: it covers the shift's
# own rounding and the root solver's backward error, with room to spare.
FILTER_GUARD = 1e-9
_UNIT = 2.0**-53


def margins_exceed(region: Region, det_coeffs: np.ndarray, tau: float) -> np.ndarray:
    """Rows of (B, L) ascending determinant rows whose every root lies more than tau inside.

    Conservative: True means a guarded Routh-Hurwitz test (Gantmacher, *The
    Theory of Matrices*, vol. 2, ch. XV) shows it; False means only that it
    could not.  For a half plane Re(z) < sigma a row p passes when the
    Taylor-shifted row q(s) = p(s + sigma - tau) is Hurwitz with room to
    spare: every coefficient of q has the leading coefficient's sign and
    clears ``FILTER_GUARD`` times its magnitude bound, and every first-column
    entry of q's Routh array is positive and clears a first-order bound on
    the error it carries from those seeds and from its own rounding.  A
    zero, constant or non-finite row, a row whose shift overflows, a
    non-finite tau and every row of a disk region pass nothing.
    """
    out = np.zeros(det_coeffs.shape[0], dtype=bool)
    shift = (region.sigma if isinstance(region, ShiftedHalfPlane) else 0.0) - tau
    if isinstance(region, Disk) or not math.isfinite(shift):
        return out
    L = det_coeffs.shape[1]
    k = np.arange(L)
    power = np.subtract.outer(k, k)
    with np.errstate(all="ignore"):
        # q = p @ taylor, taylor[k, j] = C(k, j) shift**(k - j) for k >= j
        binom = np.array([[math.comb(a, b) for b in range(L)] for a in range(L)], dtype=float)
        taylor = np.where(power >= 0, binom * float(shift) ** np.maximum(power, 0), 0.0)
        shifted = det_coeffs @ taylor
        bound = np.abs(det_coeffs) @ np.abs(taylor)
        finite = np.isfinite(shifted).all(axis=1) & np.isfinite(bound).all(axis=1)
        degrees = _row_degrees(det_coeffs)
        for d in np.unique(degrees[finite & (degrees > 0)]):
            rows = np.nonzero(finite & (degrees == d))[0]
            q = shifted[rows, : d + 1] * np.sign(shifted[rows, d : d + 1])
            err = FILTER_GUARD * bound[rows, : d + 1]
            ok = (q > err).all(axis=1)
            # Routh rows [q_d, q_{d-2}, ...] and [q_{d-1}, q_{d-3}, ...] down axis 0,
            # with zeros past their ends
            top, top_err, low, low_err = np.zeros((4, d // 2 + 2, rows.size))
            top[: d // 2 + 1], top_err[: d // 2 + 1] = q[:, d::-2].T, err[:, d::-2].T
            low[: (d + 1) // 2], low_err[: (d + 1) // 2] = q[:, d - 1 :: -2].T, err[:, d - 1 :: -2].T
            for _ in range(d):
                ok &= low[0] > low_err[0]
                ratio = top[0] / low[0]
                size = np.abs(ratio)
                ratio_err = size * (top_err[0] / top[0] + low_err[0] / low[0] + _UNIT)
                scaled = ratio * low[1:]
                nxt, nxt_err = np.zeros((2,) + top.shape)
                nxt[:-1] = top[1:] - scaled
                nxt_err[:-1] = (
                    top_err[1:]
                    + size * low_err[1:]
                    + ratio_err * np.abs(low[1:])
                    + _UNIT * (np.abs(top[1:]) + 2.0 * np.abs(scaled))
                )
                top, top_err, low, low_err = low, low_err, nxt, nxt_err
            out[rows] = ok
    return out
