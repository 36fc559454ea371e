"""Stability regions: open half planes and open disks.

Each region knows its signed margin (positive strictly inside, zero on the
boundary, negative outside), a boundary parameterization, and how fast the
boundary point moves per unit of the sweep parameter.

``member_margins`` is the one rule for a member's margin and worst root: it
takes stacks of determinant rows, solves them batched per degree, and
measures every member the program measures, from ``point_stable`` and the
analyzer's all-vertex members to witnesses and the sampling oracle's members.
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


def sweep_range(region: Region, pd) -> tuple[float, float]:
    """Sweep range for a parametric determinant (see ``sweep_range_from_box``)."""
    from .det import coefficient_box

    return sweep_range_from_box(region, coefficient_box(pd))


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
    L = det_coeffs.shape[1]
    finite = np.isfinite(det_coeffs).all(axis=1)
    nonzero = det_coeffs != 0.0
    degrees = np.where(nonzero.any(axis=1), L - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)
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
