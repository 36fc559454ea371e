"""Stability regions: open half planes and open disks.

Each region knows its signed margin: positive strictly inside, zero on the
boundary, negative outside.

``member_margins`` is the one rule for a member's margin and worst root: it
takes stacks of determinant rows, solves them batched per degree, and
measures every member the program measures, from ``point_stable`` and the
analyzer's all-vertex members to witnesses and the sampling oracle's members.

``margins_exceed`` is a filter in front of that rule, not a second margin
rule: it can only say "every root lies more than tau inside" (True) or
"cannot tell" (False), and never solves a root.  It takes the sampling
oracle's determinants as they are, coefficient-first, shape (L, B): the
Taylor shift of every member is one (L x L) @ (L x B) product, and each
shifted member and its error bounds make a coefficient box.  Lipatov and
Sokolov's sufficient Hurwitz condition, a few products per coefficient,
screens it first, reading whole contiguous coefficient rows, and only the
members it leaves go on to a guarded Routh-Hurwitz test.  The sampling
oracle root-solves only the members it cannot clear, because a cleared
member cannot be its worst.  Disks clear nothing, so every disk member is
solved.

``boxes_exceed`` is the analyzer's box test on whole coefficient boxes: it
maps each box into the Hurwitz frame of the region tightened by tau (the
Taylor shift for half planes, a bilinear map for a disk with a real
centre; a disk with a complex centre is tested as the real-centre disk
inscribed in it, ``box_region``), widens it by its rounding bound, and
runs Kharitonov's four polynomials through the guarded Routh test
(``kharitonov_hurwitz``), with no screen in front.  Like the filter, it can
only say "every root of every member lies more than tau inside" or "cannot
tell".
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .family import kharitonov_lower
from .poly import batch_roots


@dataclass(frozen=True)
class HurwitzHalfPlane:
    """Open left half plane Re(z) < 0."""

    kind = "hurwitz"

    def margin(self, z):
        return -np.real(z)

    def contains(self, z) -> bool:
        return bool(self.margin(z) > 0.0)

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

    def describe(self) -> dict:
        return {
            "type": "disk",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
        }


Region = HurwitzHalfPlane | ShiftedHalfPlane | Disk


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Index of each column's last nonzero coefficient in (L, B) coefficient-first rows; -1 for a zero column."""
    nonzero = coeffs != 0.0
    last = coeffs.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), last, -1)


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
    degrees = _degrees(det_coeffs.T)
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
    """Columns of (L, B) coefficient-first determinant rows whose every root lies more than tau inside.

    Row l of ``det_coeffs`` holds the coefficients of s**l of B members, one
    member per column, as the sampling oracle keeps them.  Conservative:
    True means a sufficient Hurwitz test shows it; False means only that it
    could not.  For a half plane Re(z) < sigma a member p passes when the
    Taylor-shifted q(s) = p(s + sigma - tau) passes, computed for every
    member at once as one (L x L) @ (L x B) product with the transposed
    frame of ``_hurwitz_frame`` (sigma - tau rounded down), each coefficient
    of q carrying an error of ``FILTER_GUARD`` times the bound that the same
    shift gives on p's magnitudes.  Every member first meets Lipatov and
    Sokolov's screen on that error box (``_lipatov_sokolov``); only the
    members it leaves go on to the guarded Routh-Hurwitz test
    (``_routh_passes``).  A zero, constant or non-finite member, a member
    whose shift overflows, a non-finite tau and every member of a disk
    region pass nothing.
    """
    shift = (region.sigma if isinstance(region, ShiftedHalfPlane) else 0.0) - tau
    if isinstance(region, Disk) or not math.isfinite(shift):
        return np.zeros(det_coeffs.shape[1], dtype=bool)
    taylor, taylor_abs, _ = _hurwitz_frame(region, np.array(float(tau)), det_coeffs.shape[0])
    with np.errstate(all="ignore"):
        shifted = taylor.T @ det_coeffs
        errors = FILTER_GUARD * (taylor_abs.T @ np.abs(det_coeffs))
        finite = np.isfinite(shifted).all(axis=0) & np.isfinite(errors).all(axis=0)
        degrees = np.where(finite, _degrees(det_coeffs), -1)
        screened = _lipatov_sokolov(shifted, errors, degrees)
        return screened | _routh_passes(shifted, errors, np.where(screened, -1, degrees))


# Lipatov and Sokolov's constant is psi - 1 = 0.46557..., where psi is the real
# root of x**3 = x**2 + 1.  0.4655 less ten units of rounding covers the
# rounding of the decimal 0.4655 and of this product, of the bounds q -+ e
# and of the comparison's three products, so a computed pass is an exact one
# at the decimal 0.4655.
_LIPATOV_SOKOLOV = 0.4655 * (1.0 - 10.0 * _UNIT)
_TINY = np.finfo(float).tiny


def _lipatov_sokolov(rows: np.ndarray, errors: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Columns of (L, B) coefficient-first rows whose every polynomial within ``errors`` is Hurwitz, by a sufficient test.

    Column b is a polynomial of degree ``degrees[b]``, its sign taken from
    its leading coefficient, and coefficient l lies in [lo_l, hi_l], the
    computed q_l - errors_l and q_l + errors_l.  A polynomial with positive
    coefficients a_0 .. a_d is Hurwitz when a_{i-1} a_{i+2} <= 0.4655 a_i
    a_{i+1} for every 0 < i < d - 1 (Lipatov and Sokolov, Automation and
    Remote Control 39, 1978).  The condition only gets easier as a_i and
    a_{i+1} grow and as a_{i-1} and a_{i+2} shrink, so one corner of the box
    covers every polynomial in it: the column passes when every lo_l is a
    normal positive float and hi_{i-1} hi_{i+2} <= 0.4655 lo_i lo_{i+1}
    holds for every i with a finite normal right side.  Normal floats keep
    every rounding relative, and ``_LIPATOV_SOKOLOV`` takes it off the
    constant.  A degree below 1 passes nothing; degrees 1 and 2 need
    positive bounds only.  Every comparison reads whole contiguous
    coefficient rows.
    """
    lead = np.take_along_axis(rows, np.maximum(degrees, 0)[None], axis=0)
    q = rows * np.sign(lead)
    lo, hi = q - errors, q + errors
    beyond = np.arange(rows.shape[0])[:, None] > degrees
    ok = (degrees > 0) & ((lo >= _TINY) | beyond).all(axis=0)
    right = _LIPATOV_SOKOLOV * (lo[1:-2] * lo[2:-1])
    holds = (hi[:-3] * hi[3:] <= right) & (right >= _TINY) & (right < math.inf)
    return ok & (holds | beyond[3:]).all(axis=0)


def _routh_passes(rows: np.ndarray, errors: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Columns of (L, B) coefficient-first rows shown Hurwitz with room to spare by a guarded Routh test.

    Column b is tested as a polynomial of degree ``degrees[b]``; a degree
    below 1 passes nothing.  ``errors`` (L, B) bounds the error each
    coefficient carries.  A column passes when every coefficient has the
    leading coefficient's sign and clears its error, and every first-column
    entry of its Routh array (Gantmacher, *The Theory of Matrices*, vol. 2,
    ch. XV) is positive and clears a first-order bound on the error it
    carries from those seeds and from its own rounding.
    """
    out = np.zeros(rows.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        for d in np.unique(degrees[degrees > 0]):
            picks = np.nonzero(degrees == d)[0]
            q = rows[: d + 1, picks] * np.sign(rows[d, picks])
            err = errors[: d + 1, picks]
            ok = (q > err).all(axis=0)
            # Routh rows [q_d, q_{d-2}, ...] and [q_{d-1}, q_{d-3}, ...] down axis 0,
            # with zeros past their ends
            top, top_err, low, low_err = np.zeros((4, d // 2 + 2, picks.size))
            top[: d // 2 + 1], top_err[: d // 2 + 1] = q[d::-2], err[d::-2]
            low[: (d + 1) // 2], low_err[: (d + 1) // 2] = q[d - 1 :: -2], err[d - 1 :: -2]
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
            out[picks] = ok
    return out


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error of m rounded operations."""
    return m * _UNIT / (1.0 - m * _UNIT)


def _down(a, b):
    """The largest float not above the exact a - b, elementwise (Knuth's TwoSum)."""
    s = a - b
    bv = s - a
    err = (a - (s - bv)) + (-b - bv)
    return np.where(err < 0.0, np.nextafter(s, -np.inf), s)


def _up(a, b):
    """The least float not below the exact a + b, elementwise."""
    return -_down(-a, b)


# Outward widening of a mapped coefficient box, as a multiple of its
# first-order rounding bound: the factor 2 covers the second-order terms, the
# rounding of the bound itself and that of subtracting it.
_BOX_SLACK = 2.0
# Absolute widening that covers underflow in the map and its bound.
_BOX_FLOOR = 2.0**-1060


def _powers(x: np.ndarray, L: int) -> np.ndarray:
    """x**p for p < L on a new last axis, by repeated multiplication: within gamma_p of exact."""
    out = np.ones(x.shape + (L,))
    for p in range(1, L):
        out[..., p] = out[..., p - 1] * x
    return out


def _hurwitz_frame(region: Region, taus: np.ndarray, L: int):
    """Maps of degree L - 1 rows into the Hurwitz frame of the region tightened by each tau.

    Returns (T, T_abs, valid): ``T[..., i, l]`` is the coefficient of s**l in
    (a + b s)**i (1 + f s)**(L - 1 - i), so q = p @ T is Hurwitz iff every root
    of p lies in the tightened region; ``T_abs`` is the same with |a|, |b|
    and |f|, and the computed T is within ``_gamma(3 * L + 2) * T_abs`` of
    the exact one.  Half planes Re z < sigma - tau take the Taylor shift
    a = sigma - tau, b = 1, f = 0.  A disk with a real centre c takes the
    bilinear map a = c + rho, b = rho - c, f = -1, whose image of the open
    left half plane is the disk of centre (a - b) / 2 and radius (a + b) / 2.
    rho = r - tau, a and b are rounded down, so the tested region lies inside
    the tightened one (Barmish, *New Tools for Robustness of Linear Systems*,
    1994, for the map); ``valid`` is False where the disk's radius is not
    positive.
    """
    i = np.arange(L)[:, None]
    binom = np.array([[math.comb(x, y) for y in range(L)] for x in range(L)], dtype=float)
    if isinstance(region, Disk):
        rho = _down(region.radius, taus)
        a, b = _down(region.center.real, -rho), _down(rho, region.center.real)
        valid = a + b > 0.0
    else:
        sigma = region.sigma if isinstance(region, ShiftedHalfPlane) else 0.0
        a, b = _down(sigma, taus), None
        valid = np.ones(taus.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # P[..., i, j] = C(i, j) a**(i - j) b**j, zero for j > i
        P = binom * _powers(a, L)[..., np.maximum(i - i.T, 0)]
        if b is None:
            return P, np.abs(P), valid
        P *= _powers(b, L)[..., None, :]
        # times (1 - s)**(L - 1 - i), whose coefficient of s**t is C(L - 1 - i, t) (-1)**t
        tail = binom[L - 1 - i[:, 0]]
        T, T_abs = P * tail[:, :1], np.abs(P) * tail[:, :1]
        for t in range(1, L):
            T[..., t:] += P[..., : L - t] * (tail[:, t : t + 1] * (-1.0) ** t)
            T_abs[..., t:] += np.abs(P[..., : L - t]) * tail[:, t : t + 1]
    return T, T_abs, valid


def box_region(region: Region) -> Region | None:
    """The region whose tightenings ``boxes_exceed`` tests in place of ``region``; None where it tests none.

    A disk with a complex centre c and radius r is tested as the disk of
    centre Re c and radius r - |Im c|, rounded down.  That disk lies inside
    the original one, as |z - c| <= |z - Re c| + |Im c|, so a root more than
    tau inside it is more than tau inside the original: a pass needs no
    further rounding account.  A real polynomial's roots come in conjugate
    pairs, so they lie in D(c, r) and D(conj(c), r) at once, and this is the
    largest disk centred on the real axis inside both.  Where its radius is
    not positive no real polynomial of positive degree has every root in
    the region, and nothing is tested.  Every other region is tested as
    itself.
    """
    if not isinstance(region, Disk) or region.center.imag == 0.0:
        return region
    radius = float(_down(region.radius, abs(region.center.imag)))
    return Disk(region.center.real, radius) if radius > 0.0 else None


def kharitonov_hurwitz(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether every polynomial with coefficients in [lo, hi] is Hurwitz, for (..., L) ascending bounds.

    The box is negated if its leading interval is negative.  Its leading
    interval must then exclude zero, so that every member has degree L - 1:
    a member of lower degree escapes the four polynomials.  Kharitonov's
    theorem (Kharitonov 1978; Barmish 1994, ch. 5) then makes the box
    Hurwitz iff its four Kharitonov polynomials are, and each goes through
    ``_routh_passes`` with errors of ``FILTER_GUARD`` times its magnitudes,
    as ``margins_exceed`` tests it with the Hurwitz region and tau = 0,
    which can only err towards False.  Non-finite bounds pass nothing.
    """
    flip = hi[..., -1:] < 0.0
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    ok = (lo[..., -1] > 0.0) & np.isfinite(lo).all(axis=-1) & np.isfinite(hi).all(axis=-1)
    L = lo.shape[-1]
    rows = np.where(kharitonov_lower(L), lo[..., None, :], hi[..., None, :])
    flat = np.where(ok[..., None, None], rows, 0.0).reshape(-1, L).T
    passed = _routh_passes(flat, FILTER_GUARD * np.abs(flat), _degrees(flat))
    return ok & passed.reshape(rows.shape[:-1]).all(axis=-1)


def boxes_exceed(region: Region, corners: np.ndarray, errors: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Kharitonov's test on coefficient boxes: (C, J) bools, True where every root clears taus[c, j].

    ``corners`` (C, V, L) holds each box's corner rows as computed and
    ``errors`` (C, V, L) bounds on their rounding errors; every member of box
    c must lie in the convex hull of its exact corner rows, and have degree
    L - 1.  Each corner row is mapped into the Hurwitz frame of the region
    tightened by tau (``_hurwitz_frame``); the maps are linear, so the
    mapped corners' min and max bound every mapped member.  That box is
    widened outward by ``_BOX_SLACK`` times the first-order bound on the
    corners' and the map's rounding, plus ``_BOX_FLOOR``, and goes through
    ``kharitonov_hurwitz``.  If it passes, every root of every member lies
    more than tau inside the region.  For a disk the leading interval is
    (-1)**d p(c - rho), so it reaches zero where a member has a root at the
    point c - rho of the tightened boundary.  A disk with a complex centre
    is tested through its ``box_region``.  Every operation is
    elementwise, and each box's result does not depend on the other boxes.
    """
    C, V, L = corners.shape
    region = box_region(region)
    if region is None:
        return np.zeros(taus.shape, dtype=bool)
    T, T_abs, valid = _hurwitz_frame(region, taus, L)
    spread = _gamma(4 * L + 2) * np.abs(corners) + errors
    mapped = np.zeros((C,) + taus.shape[1:] + (V, L))
    bound = np.zeros_like(mapped)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(L):
            mapped += corners[:, None, :, i, None] * T[:, :, None, i]
            bound += spread[:, None, :, i, None] * T_abs[:, :, None, i]
        slack = _BOX_SLACK * bound + _BOX_FLOOR
        lo, hi = (mapped - slack).min(axis=2), (mapped + slack).max(axis=2)
    return valid & kharitonov_hurwitz(lo, hi)
