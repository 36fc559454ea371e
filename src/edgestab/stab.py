"""Stability deciders: points, segments, parameter boxes, and whole families.

The decision layers build on each other:

* ``point_stable`` checks one polynomial by its worst root margin, the
  batch of one of ``region.member_margins``, as every member is measured.
* ``box_stable`` decides a multi-affine parameter box.  After the degree
  checks and the anchor member comes the box test: every coefficient is
  multi-affine in lambda, so the coefficient box holds every member, and
  Kharitonov's theorem on that box, mapped into the Hurwitz frame of the
  region tightened by tau and widened by its rounding bound, certifies the
  box with a root-distance margin tau.  A box it leaves goes on to its
  other corner members, then to its centre member (every lambda 0.5): a
  corner or the centre clearly outside the region ends the box as
  Unstable, with that member as the witness.  Only then is the box
  bisected (``_bisect``): each half gets its own corner rows, centre
  member and box test, and so on, until every sub-box passes, a sub-box
  centre is clearly outside or bisection cannot finish.  Every
  RobustlyStable margin is a root-distance bound.  Its degree checks, box
  test and centre member are the drivers' batch functions on a batch of
  one; its bisection is the drivers' bisection.
* ``segment_stable`` decides a one-parameter segment as the k = 1 box.
* ``analyze_family`` / ``analyze_interval`` decide a family.  The parent
  decides configuration 0 short of its bisection and stops if it is
  Unstable.
  If it is not Degenerate either and no vertex is truncated, the family
  certificate (``_family_certificate``) tests every member at once: the
  corner members take one point of every cell (a polytope cell's vertices,
  an interval cell's box corners; the thinnest cells enter as boxes beyond
  ``_HULL_CAP`` corners), ``det.det_enclosure`` encloses their
  determinants in midpoint-radius form, and the box test on the hull of
  those enclosures, the family box, runs on the rung ladder below
  configuration 0's anchor margin.  If the family box fails, one split
  round halves every two-vertex cell's segment and tests the 2**u
  sub-families in the same calls.  A pass gives every configuration the
  RobustlyStable verdict with the least passing tau, a root-distance
  bound, and no chunk runs.  Otherwise configuration 0 is bisected if its
  checks left it, and the edge configurations are decided in one chunk
  plan, whatever the worker count: the chunks ``[1, 64)``,
  ``[64, 128)``, ... follow configuration 0, in-process or on worker
  processes, up to the first chunk that ends Unstable.  A run is a
  maximal stretch of a chunk's ``ends`` that shares its lambda cells
  (``VertexTable.runs``).  ``VertexMembers`` holds the table and gives each
  configuration its corner verdicts: it solves the new all-vertex members
  of each call in one batch (one determinant and one margin call) and
  memoises each verdict by the member's vertex indices.  It also holds the box memo: a configuration with k < n whose
  box recurred under an earlier pattern reuses that box's verdict and
  builds nothing.  Every other configuration passes ``box_stable``'s
  checks in stream order on the run's dense terms: the corner rows, degree
  checks, anchors and box test each take the run at once; only the boxes
  the box test leaves get their other corner members, only those the
  corners leave get their centre members, in one batch, and only those the
  centre leaves are bisected, one at a time.  Each configuration gets
  bitwise the verdict ``box_stable`` gives it alone.

Verdict dominance when aggregating: Unstable beats Degenerate beats
Inconclusive beats RobustlyStable.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np

from .det import (
    ParametricDeterminant,
    _laplace,
    cell_boxes,
    coefficient_box,  # noqa: F401  bench/tracing.py patches stab.coefficient_box
    corner_lambdas,
    det_enclosure,
    det_parametric,  # noqa: F401  bench/tracing.py patches stab.det_parametric
    det_parametric_run,
    monomial_weights,
)
from .edges import VertexTable, iter_configs  # noqa: F401  bench/tracing.py patches stab.iter_configs
from .errors import RegionNotHurwitzError, ValidationFailure, ZeroPolynomialError
from .family import EdgeSegment, MatrixFamily, validate
from .poly import Polynomial
from .region import (
    HurwitzHalfPlane,
    Region,
    _down,
    _gamma,
    _up,
    boxes_exceed,
    member_margins,
    box_region,
)

# Nothing calls least_squares; the name stays bound only because
# bench/tracing.py wraps stab.least_squares, so its call count reads 0.
least_squares = None

MAX_DRIVER_SIZE = 8

class Status(enum.Enum):
    ROBUSTLY_STABLE = "RobustlyStable"
    UNSTABLE = "Unstable"
    DEGENERATE = "Degenerate"
    INCONCLUSIVE = "Inconclusive"


_DOMINANCE = {
    Status.UNSTABLE: 3,
    Status.DEGENERATE: 2,
    Status.INCONCLUSIVE: 1,
    Status.ROBUSTLY_STABLE: 0,
}


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy knobs shared by the deciders."""

    zero_margin: float = 1e-7
    degree_eps: float = 1e-9

    def __post_init__(self):
        for name in ("zero_margin", "degree_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Witness:
    """Where instability was found: configuration, parameters, offending root.

    ``lam`` names the witness member: the anchor, another box corner, the
    box centre or a sub-box centre.
    """

    config_index: int | None = None
    lam: tuple[float, ...] | None = None
    root: complex | None = None


@dataclass(frozen=True)
class Verdict:
    status: Status
    margin: float | None = None
    witness: Witness | None = None
    reason: str = ""

    @property
    def is_stable(self) -> bool:
        return self.status is Status.ROBUSTLY_STABLE

    def describe(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "config_index": self.witness.config_index,
                "lambda": list(self.witness.lam) if self.witness.lam is not None else None,
                "root": [self.witness.root.real, self.witness.root.imag]
                if self.witness.root is not None
                else None,
            }
        return {
            "status": self.status.value,
            "margin": self.margin,
            "reason": self.reason,
            "witness": w,
        }


# ----------------------------------------------------------------------
# point tests


def _member_verdict(margin, root: complex | None) -> Verdict:
    """The point verdict of a member with this ``member_margins`` margin and worst root."""
    if math.isnan(margin):
        return Verdict(
            Status.DEGENERATE,
            reason="a member determinant overflows float64, so its roots are not resolved",
        )
    if root is None:
        return Verdict(Status.ROBUSTLY_STABLE, margin=math.inf, reason="no roots")
    m = float(margin)
    if m > 0.0:
        return Verdict(Status.ROBUSTLY_STABLE, margin=m, reason="all roots inside")
    return Verdict(
        Status.UNSTABLE,
        margin=m,
        witness=Witness(root=root),
        reason="root on or outside the region boundary",
    )


def point_stable(p: Polynomial, region: Region) -> Verdict:
    """Root-location test for a single polynomial.

    Stable iff every root lies strictly inside the region; the margin is the
    smallest signed boundary distance.  Nonzero constants are vacuously
    stable; the zero polynomial raises ``ZeroPolynomialError``.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no root set")
    margins, roots = member_margins(region, p.coeffs[None])
    return _member_verdict(margins[0], roots[0])


# ----------------------------------------------------------------------
# box decider


def _assembled_corners(pd: ParametricDeterminant, region: Region) -> list[Verdict]:
    """Point verdicts of the box-corner members, measured in one ``member_margins`` call.

    Each corner's weights multiply the rows on their own, a vector-matrix
    product as in ``assemble``, so corner v's member is bitwise
    ``pd.assemble(corner_lambdas(k)[v])``; one matrix product of all the
    weights would sum the rows in another order.
    """
    weights = monomial_weights(pd.masks, corner_lambdas(pd.k))
    margins, roots = member_margins(region, (weights[:, None, :] @ pd.rows)[:, 0])
    return [_member_verdict(m, r) for m, r in zip(margins, roots)]


def _clearly_outside(margin: float, root: complex, tol: Tolerances) -> bool:
    """Whether a member's worst root lies clearly outside: its margin is below -zero_margin * (1 + |root|)."""
    return margin < -tol.zero_margin * (1.0 + abs(root))


def _corner_checks(verdicts, k: int, tol: Tolerances, start: int = 0) -> Verdict | None:
    """The verdict that ends the box, if any, among the members at corners start, start + 1, ...

    A corner member that overflowed makes the box Degenerate.  The anchor
    (corner 0) ends it on any root on or outside the boundary, another
    corner only when the root is clearly outside.
    """
    lams = corner_lambdas(k)
    for v, verdict in enumerate(verdicts, start):
        if verdict.status is Status.DEGENERATE:
            return verdict
        if verdict.status is not Status.UNSTABLE:
            continue
        root = verdict.witness.root
        if v == 0 or _clearly_outside(verdict.margin, root, tol):
            return Verdict(
                Status.UNSTABLE,
                margin=verdict.margin,
                witness=Witness(lam=tuple(float(x) for x in lams[v]), root=root),
                reason="anchor member is unstable" if v == 0 else "box corner member is unstable",
            )
    return None


def _corner_rows(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-corner rows of a run's dense terms (B, 2**k, L), and the same sums of |c_S|.

    Corner v sums ``c_S`` over the masks S inside v: each slot's pass adds
    every corner without the slot's bit into the one with it, elementwise,
    so a corner depends on no other configuration and no other column.  A
    corner is a sum of at most 2**k rows, so its rounding error is at most
    ``gamma_{2**k}`` times its sum of |c_S| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1).
    """
    B, V, L = terms.shape
    rows, mags = terms.copy(), np.abs(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(V.bit_length() - 1):
            for arr in (rows, mags):
                view = arr.reshape(B, -1, 2, 1 << j, L)
                view[:, :, 1] += view[:, :, 0]
    return rows, mags


def _outside_member(margin, root, lam, tol: Tolerances, reason: str) -> Verdict | None:
    """The Unstable verdict of the member at ``lam`` if its worst root is clearly outside, else None."""
    if root is None or not _clearly_outside(margin, root, tol):
        return None
    return Verdict(
        Status.UNSTABLE,
        margin=float(margin),
        witness=Witness(lam=tuple(float(x) for x in lam), root=root),
        reason=reason,
    )


def _centre_verdicts(terms: np.ndarray, region: Region, tol: Tolerances) -> list[tuple[Verdict | None, tuple]]:
    """Each box's verdict from its centre member (every lambda 0.5), and that member's (margin, root).

    ``terms`` are a run's dense terms (B, 2**k, L).  k elementwise passes
    fold each slot's pairs of rows into ``row0 + 0.5 * row1``, so, as in
    ``_corner_rows``, a centre row depends on no other configuration and no
    other column; adding +0.0 makes its zeros positive, whatever the sign of
    the zero terms past a row's end.  One ``member_margins`` call measures
    every centre.  A centre whose worst root is clearly outside, the rule
    ``_corner_checks`` applies to the corners after the anchor, makes its
    box Unstable with lambda = 0.5 as the witness; any other margin, NaN
    included, gives None, and ``_bisect`` takes the box on from there.
    """
    B, V, L = terms.shape
    k = V.bit_length() - 1
    rows = terms
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            pairs = rows.reshape(B, -1, 2, L)
            rows = pairs[:, :, 0] + 0.5 * pairs[:, :, 1]
        rows = rows[:, 0] + 0.0
    margins, roots = member_margins(region, rows)
    return [
        (_outside_member(margin, root, (0.5,) * k, tol, "box centre member is unstable"), (margin, root))
        for margin, root in zip(margins, roots)
    ]


# The verdicts of the checks before any member, in the order they apply.
_EARLY = [
    Verdict(Status.DEGENERATE, reason=reason)
    for reason in (
        "determinant is identically zero",
        "determinant coefficients overflow float64, so the degree and roots are not resolved",
        "leading-coefficient interval reaches zero (degree drop)",
    )
] + [Verdict(Status.ROBUSTLY_STABLE, margin=math.inf, reason="constant nonzero determinant"), None]


def _early_verdicts(corners: np.ndarray, tol: Tolerances) -> tuple[list, np.ndarray]:
    """The degree health of boxes from their ``_corner_rows``: each one's verdict (None to go on), and degree.

    A coefficient box is the min and max of the corner rows, and its degree
    d the last column where some corner is nonzero.  It is Degenerate when
    every corner (so every term) is zero, a corner is not finite, or its
    leading interval comes within ``tol.degree_eps`` times its largest
    magnitude of zero.
    """
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    mags = np.maximum(np.abs(lo), np.abs(hi))
    degrees = ((mags > 0.0) * np.arange(mags.shape[1])).max(axis=1)
    at = np.arange(degrees.size)
    blo, bhi = lo[at, degrees], hi[at, degrees]
    lead_min = np.where((blo <= 0.0) & (0.0 <= bhi), 0.0, np.minimum(np.abs(blo), np.abs(bhi)))
    drop = lead_min < tol.degree_eps * mags.max(axis=1)
    zero = ~corners.any(axis=(1, 2))
    overflow = ~np.isfinite(corners).all(axis=(1, 2))
    which = np.select([zero, overflow, drop, degrees == 0], [0, 1, 2, 3], 4)
    return [_EARLY[w] for w in which], degrees


# Rungs of the box test's ladder, tau = m * 2**-j for 1 <= j <= _RUNGS, m the
# anchor's root margin: tau = m puts the anchor's worst root on the boundary.
_RUNGS = 3
# Corner magnitude sums from which the box test leaves a box to its corner
# members: near the top of the float64 range a member's own products may
# overflow, which makes the box Degenerate.
_BOX_RANGE = 2.0**1000


def _rung_margins(
    corners: np.ndarray, errors: np.ndarray, degrees: np.ndarray, margins: np.ndarray, region: Region, tol: Tolerances
) -> np.ndarray:
    """The largest rung tau = m * 2**-j that each box clears, NaN where none does.

    Box c is the corner rows ``corners[c]`` (C, V, L) with the rounding
    bounds ``errors[c]``, of degree ``degrees[c]``, below the root margin
    ``margins[c]`` of one of its members, or NaN to leave it out.
    ``region.boxes_exceed`` tests the boxes of degree d on their first d + 1
    columns at every rung in one call; passing a rung puts every member's
    roots more than that tau inside the region.  Rungs below
    ``tol.zero_margin``, the inconclusive band, do not count.
    """
    out = np.full(margins.size, math.nan)
    kept = ~np.isnan(margins)
    for d in np.unique(degrees[kept]):
        picks = np.flatnonzero(kept & (degrees == d))
        taus = margins[picks, None] * 2.0 ** -np.arange(1, _RUNGS + 1)
        passed = boxes_exceed(region, corners[picks, :, : d + 1], errors[picks, :, : d + 1], taus)
        passed &= taus >= tol.zero_margin
        best = taus[np.arange(picks.size), np.argmax(passed, axis=1)]
        out[picks] = np.where(passed.any(axis=1), best, math.nan)
    return out


def _box_certificates(
    corners: np.ndarray, mags: np.ndarray, degrees: np.ndarray, margins: np.ndarray, region: Region, tol: Tolerances
) -> list[Verdict | None]:
    """Kharitonov's test on the coefficient boxes of a batch: a RobustlyStable verdict where it certifies.

    ``corners``, ``mags`` (``_corner_rows``) and ``degrees`` describe the
    boxes, and ``margins[c]`` is the root margin of box c's anchor member,
    not Unstable, or NaN to leave box c out.  A corner's rounding error is
    at most ``_gamma(2**k)`` times its ``mags`` row.  The box's margin is
    its ``_rung_margins`` tau, a root-distance bound.  A box that passes no
    rung, an anchor without a finite positive margin and a box whose corner
    sums reach ``_BOX_RANGE`` get None, whatever its batch-mates.
    """
    fit = (0.0 < margins) & (margins < math.inf) & (mags < _BOX_RANGE).all(axis=(1, 2))
    taus = _rung_margins(
        corners, _gamma(mags.shape[1]) * mags, degrees, np.where(fit, margins, math.nan), region, tol
    )
    return [
        None
        if math.isnan(tau)
        else Verdict(
            Status.ROBUSTLY_STABLE,
            margin=float(tau),
            reason="Kharitonov polynomials of the coefficient box are stable; the margin is a root-distance bound",
        )
        for tau in taus
    ]


# Sub-boxes that ``_bisect`` tests for one box, at most.
_SUBBOX_CAP = 1024


def _witness_window(tol: Tolerances, root: complex) -> float:
    """Acceptance slack for taking a member's root as a boundary root.

    Scales with zero_margin but is capped, so loosening the inconclusive
    band can never promote a clearly interior root to a boundary root.
    """
    return min(100.0 * tol.zero_margin, 1e-4) * (1.0 + abs(root))


def _bisect(terms: np.ndarray, degree: int, region: Region, tol: Tolerances, centre: tuple) -> Verdict:
    """Decide a box that its checks leave by bisection over the box test.

    ``terms`` (2**k, L) are the box's dense terms, of degree ``degree``, and
    ``centre`` is the (margin, root) of its centre member, which is not
    clearly outside.  The box is halved along its widest lambda side, and
    so, a round at a time, is every sub-box not yet decided.  Each new
    sub-box gets its centre member and its corner rows: ``monomial_weights``
    at its corners times the terms, each within ``_gamma(k + 2**k)`` times
    the same sum of |c_S| of the exact row (k - 1 roundings in a weight,
    one in its product and 2**k - 1 in the sum), as in ``_corner_rows``.
    The centre's margin in the region the box test tests
    (``box_region``) tops the sub-box's rung ladder (``_rung_margins``).
    That region exists: the box's anchor is stable, and without it no real
    polynomial of positive degree is.

    * A sub-box centre clearly outside the region makes the box Unstable,
      with that lambda as the witness.
    * When every sub-box has passed a rung, the box is RobustlyStable with
      the least passing tau as its margin, a root-distance bound.
    * Bisection cannot finish when the next round would test more than
      ``_SUBBOX_CAP`` sub-boxes, or a centre's margin in the tested region
      is below 2 * zero_margin, so that no rung of its ladder counts.  The
      measured member of least margin, the box centre included, then makes
      the box Unstable if that margin is within ``_witness_window``; the box
      is Inconclusive otherwise.
    """
    V = terms.shape[0]
    k = V.bit_length() - 1
    terms = np.ascontiguousarray(terms[:, : degree + 1])
    masks, bits = np.arange(V), corner_lambdas(k) > 0.0
    tested = box_region(region)
    least = (*centre, (0.5,) * k)
    lo, hi = np.zeros((1, k)), np.ones((1, k))
    taus, count = [], 0

    def unfinished(why: str) -> Verdict:
        margin, root, lam = least
        if root is not None and margin <= _witness_window(tol, root):
            return Verdict(
                Status.UNSTABLE,
                margin=float(margin),
                witness=Witness(lam=tuple(float(x) for x in lam), root=root),
                reason="member with a boundary root found inside the box",
            )
        return Verdict(
            Status.INCONCLUSIVE,
            reason=f"bisection stopped after {count} sub-boxes: {why}; "
            f"the least member margin measured is {margin:.3e}",
        )

    while lo.shape[0]:
        if count + 2 * lo.shape[0] > _SUBBOX_CAP:
            return unfinished(f"the budget of {_SUBBOX_CAP} sub-boxes is spent")
        count += 2 * lo.shape[0]
        at = np.arange(lo.shape[0])
        axis = np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo[at, axis] + hi[at, axis])
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        lo[2 * at + 1, axis] = mid
        hi[2 * at, axis] = mid
        lams = 0.5 * (lo + hi)
        rows = monomial_weights(masks, lams) @ terms
        margins, roots = member_margins(region, rows)
        for lam, margin, root in zip(lams, margins, roots):
            verdict = _outside_member(margin, root, lam, tol, "sub-box centre member is unstable")
            if verdict is not None:
                return verdict
            if margin < least[0]:
                least = (margin, root, lam)
        if tested is not region:
            margins, _ = member_margins(tested, rows)
        if not (margins >= 2.0 * tol.zero_margin).all():
            return unfinished("a sub-box centre lies within 2 * zero_margin of the tested region's boundary")
        weights = monomial_weights(masks, np.where(bits, hi[:, None], lo[:, None]))
        corners, mags = weights @ terms, weights @ np.abs(terms)
        fit = (mags < _BOX_RANGE).all(axis=(1, 2))
        passed = _rung_margins(
            corners, _gamma(k + V) * mags, np.full(lo.shape[0], degree), np.where(fit, margins, math.nan), region, tol
        )
        left = np.isnan(passed)
        taus.extend(passed[~left])
        lo, hi = lo[left], hi[left]
    return Verdict(
        Status.ROBUSTLY_STABLE,
        margin=float(min(taus)),
        reason=f"bisected into {count} sub-boxes: Kharitonov polynomials of its {len(taus)} leaves are stable; "
        "the margin is a root-distance bound",
    )


def box_stable(
    pd: ParametricDeterminant,
    region: Region,
    tol: Tolerances | None = None,
    corners=None,
) -> Verdict:
    """Robust stability of a multi-affine determinant over the lambda box.

    The checks run in this order, and the first that decides ends the box:

    * Degree health (``_early_verdicts``): a zero determinant, a coefficient
      box that overflows float64 or a leading-coefficient interval touching
      zero is Degenerate; a nonzero constant is RobustlyStable.
    * The anchor member (lambda = 0, corner 0) is root-tested; any root on
      or outside the boundary makes the box Unstable, and an anchor that
      overflowed makes it Degenerate.  With k = 0 the anchor is the box.
    * The box test (``_box_certificates``, the batch of one): Kharitonov's
      theorem on the coefficient box, mapped into the Hurwitz frame of the
      region tightened by tau, for each tau of a ladder below the anchor's
      margin.  Every coefficient is multi-affine in lambda, so the box of
      the mapped corner rows, widened by their rounding bound, holds every
      member.  A pass is RobustlyStable with the largest passing tau as its
      margin: every member's roots lie more than tau inside.
    * The other corner members; a clearly unstable one is an exact
      Unstable verdict.
    * The centre member, every lambda 0.5 (``_centre_verdicts``, the batch
      of one), under the same rule: clearly unstable, it is an exact
      Unstable verdict with lambda = (0.5, ..., 0.5) as its witness.
    * Bisection over the box test (``_bisect``): the box is halved until
      the box test passes every sub-box, a sub-box centre is clearly
      outside, or bisection cannot finish.

    ``corners[v]`` is the ``point_stable`` verdict of the member at box
    vertex v (slot l at bit l of v).  The family drivers pass the
    configuration's list from ``VertexMembers.solve``: every corner of a
    configuration is an all-vertex matrix, solved once per family from its
    own cells, in the batch of its run.  Without ``corners`` the corner
    members are assembled from ``pd`` and measured here in one
    ``member_margins`` call.
    """
    tol = tol or Tolerances()
    terms = np.zeros((1, 1 << pd.k, pd.rows.shape[1]))
    terms[0, pd.masks] = pd.rows
    rows, mags = _corner_rows(terms)
    (verdict,), degrees = _early_verdicts(rows, tol)
    if verdict is not None:
        return verdict
    if corners is None:
        corners = _assembled_corners(pd, region)
    if pd.k == 0:
        return corners[0]
    verdict = (
        _corner_checks(corners[:1], pd.k, tol)
        or _box_certificates(rows, mags, degrees, np.array([corners[0].margin]), region, tol)[0]
        or _corner_checks(corners[1:], pd.k, tol, start=1)
    )
    if verdict is not None:
        return verdict
    ((verdict, centre),) = _centre_verdicts(terms, region, tol)
    return verdict or _bisect(terms[0], degrees[0], region, tol, centre)


def segment_stable(seg: EdgeSegment, region: Region, tol: Tolerances | None = None) -> Verdict:
    """Robust stability of one polynomial segment, decided as the k = 1 box.

    The members lam*p1 + (1-lam)*p0 form the determinant p0 + lam*(p1 - p0).
    """
    return box_stable(ParametricDeterminant.from_terms(1, {0: seg.p0, 1: seg.p1 - seg.p0}), region, tol)


# ----------------------------------------------------------------------
# family drivers


@dataclass(frozen=True)
class ConfigOutcome:
    """Per-configuration record kept for reports."""

    index: int
    status: Status
    margin: float | None
    reason: str


_CHUNK = 64


def _corner_ends(ends: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Vertex index of every cell of each box-corner member of a run, shape (B, 2**k, n*n).

    Corner v takes slot l's lambda cell at its lambda = 1 end where bit l of
    v is set, and every other cell at its lambda = 0 end.
    """
    bits = corner_lambdas(slots.size) > 0.0
    out = np.repeat(ends[:, None, :, 0], bits.shape[0], axis=1)
    out[:, :, slots] = np.where(bits, ends[:, None, slots, 1], ends[:, None, slots, 0])
    return out


class VertexMembers:
    """One analysis's ``VertexTable``, and the point verdicts of its all-vertex members.

    A member is named by the vertex index of every cell, row-major, as in
    ``_corner_ends``.  Within one family an index names one polynomial of
    its cell, so the key names the member; it never names a configuration.
    ``solve`` measures the members of one call that the memo has not seen
    in one ``_laplace`` call and one ``member_margins`` call, on rows
    gathered from the table at ``VertexTable.width``.  A determinant does
    not depend on its cells' zero padding (``det._polymul``), so each
    member's coefficients, margin and verdict are bitwise
    ``point_stable(det_matrix(grid))``'s and do not depend on the batch,
    the configuration or the worker that reaches the member first.
    A zero member gets ``member_margins``' -inf margin instead of raising;
    ``box_stable`` calls such a configuration Degenerate before it reads a
    corner.

    ``_boxes`` is the analysis's box memo, which ``_check_chunk`` fills and
    reads: the verdict of a configuration with k < n, keyed by its first and
    last corner members.
    """

    def __init__(self, fam: MatrixFamily):
        self.table = VertexTable(fam)
        self.region = fam.region
        self._verdicts: dict[tuple, Verdict] = {}
        self._boxes: dict[tuple, Verdict] = {}

    def solve(self, corners: np.ndarray) -> list[list[Verdict]]:
        """The verdicts of the members ``corners`` of one run, shape (B, V, n*n), as B lists of V."""
        table, n = self.table, self.table.n
        keys = [tuple(key) for key in corners.reshape(-1, n * n).tolist()]
        fresh = [key for key in dict.fromkeys(keys) if key not in self._verdicts]
        if fresh:
            picks = np.array(fresh, dtype=np.intp)
            grid = [[table.rows[c, picks[:, c], : table.width[c]] for c in range(i * n, i * n + n)] for i in range(n)]
            margins, roots = member_margins(self.region, _laplace(grid))
            for key, margin, root in zip(fresh, margins, roots):
                self._verdicts[key] = _member_verdict(margin, root)
        width = corners.shape[1]
        return [[self._verdicts[key] for key in keys[b : b + width]] for b in range(0, len(keys), width)]


def _check_chunk(
    fam: MatrixFamily, start: int, stop: int, tol: Tolerances, members: VertexMembers, bisect: bool = True
) -> list:
    """Decide configurations [start, stop) in stream order, stopping at the first Unstable.

    Each run comes from ``members.table.runs``.  A configuration with a
    truncated input (a vertex at either end of a cell lost coefficients at
    construction) is Degenerate at once and stays out of the box memo.
    Another configuration with k < n first looks up its box in
    ``members._boxes``, keyed by its first and last corner members.  Those
    two corners differ exactly at the lambda cells, in slot order, so the
    key names every cell and slot of the box.  A fixed entry's pattern cell
    is a degenerate segment at its one vertex, so the same box recurs under
    each pattern that shares its lambda cells and vertex choices; with
    k = n the lambda cells fix sigma, so such a box never recurs and is not
    stored.  A hit is bitwise the verdict the box gets again: the same
    cells give the same ``_laplace`` inputs, the same corner members and
    the same bisection.

    The rest of a run, up to the first configuration already known to be
    Unstable, gets its dense terms, corner rows, degree checks and anchor
    members in one batch each and passes the degree and anchor checks in
    stream order, up to the first one that is Unstable there.  One box test
    call decides the boxes that pass; those it leaves get their other corner
    members in one batch and pass the corner checks, up to the first one
    that is Unstable there.  The boxes the corners leave get their centre
    members in one batch.  Each of them then takes its centre verdict or,
    if that does not decide it, ``_bisect`` on its dense terms, in stream
    order, up to the first one that is Unstable.  With ``bisect`` False, a
    box its centre leaves is not bisected: its verdict stays None and it
    stays out of the box memo.
    """
    table = members.table
    out = []
    for first, ends in table.runs(start, stop):
        truncated = table.any_truncated(ends)
        corners = _corner_ends(ends, table.slots(table.lambda_cells(ends[0])))
        k = corners.shape[1].bit_length() - 1
        box_keys = [(tuple(c[0]), tuple(c[-1])) for c in corners[:, [0, -1]].tolist()]
        decided = []
        for pos in range(len(ends)):
            if truncated[pos]:
                v = Verdict(
                    Status.DEGENERATE,
                    reason="an input polynomial has trailing coefficients below the "
                    "truncation floor, so its degree is not resolved",
                )
            else:
                v = members._boxes.get(box_keys[pos]) if k < table.n else None
            decided.append([first + pos, v])
            if v is not None and v.status is Status.UNSTABLE:
                break
        end = len(decided)
        todo = [pos for pos in range(end) if decided[pos][1] is None]
        if todo:
            terms = det_parametric_run(table, ends[todo])
            rows, mags = _corner_rows(terms)
            early, degrees = _early_verdicts(rows, tol)
            margins = np.full(len(todo), math.nan)
            for i, (pos, v, (anchor,)) in enumerate(zip(todo, early, members.solve(corners[todo, :1]))):
                if v is None:
                    v = anchor if k == 0 else _corner_checks([anchor], k, tol)
                    if v is None:
                        margins[i] = anchor.margin
                decided[pos][1] = v
                if v is not None and v.status is Status.UNSTABLE:
                    end = pos + 1
                    break
            certified = _box_certificates(rows, mags, degrees, margins, fam.region, tol)
            anchored = np.flatnonzero(~np.isnan(margins))
            for i in anchored:
                decided[todo[i]][1] = certified[i]
            rest = [i for i in anchored if certified[i] is None]
            others = members.solve(corners[[todo[i] for i in rest], 1:]) if rest else []
            left = []  # the boxes the corners leave, before the first corner-Unstable one
            for i, corner_verdicts in zip(rest, others):
                v = _corner_checks(corner_verdicts, k, tol, start=1)
                decided[todo[i]][1] = v
                if v is None:
                    left.append(i)
                elif v.status is Status.UNSTABLE:
                    end = todo[i] + 1
                    break
            if left:
                for i, (v, centre) in zip(left, _centre_verdicts(terms[left], fam.region, tol)):
                    pos = todo[i]
                    if v is None and bisect:
                        v = _bisect(terms[i], degrees[i], fam.region, tol, centre)
                    decided[pos][1] = v
                    if v is not None and v.status is Status.UNSTABLE:
                        end = pos + 1
                        break
        for pos in todo:
            if k < table.n and pos < end and decided[pos][1] is not None:
                members._boxes[box_keys[pos]] = decided[pos][1]
        out.extend(tuple(item) for item in decided[:end])
        if out and out[-1][1] is not None and out[-1][1].status is Status.UNSTABLE:
            return out
    return out


# Corner members of one round of the family certificate, over all its
# sub-families, at most: beyond it, the thinnest cells enter as boxes.
_HULL_CAP = 1024
# Sub-families of the family certificate's split round, at most: it halves
# the segment of every two-vertex cell, so it runs for up to six of them.
_SPLIT_CAP = 64


def _family_points(table: VertexTable, interval: bool, halved: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every cell's points in midpoint-radius form, ``(mid, rad)`` of shape (S, P_c, L_c), for S sub-families.

    Every member of cell c lies in the convex hull of the boxes
    |x - mid[s, p]| <= rad[s, p] of sub-family s.  A polytope cell's points
    are its distinct vertices.  An interval cell's box is the min and max
    over its four Kharitonov vertices, which take both bounds at every
    coefficient; its points are the box's distinct corners, or the box itself
    (``cell_boxes``) if they would exceed ``_HULL_CAP``.  Each cell of
    ``halved`` has two vertices, and sub-family b of the S = 2**len(halved)
    takes the half of its segment that bit t of b picks for ``halved[t]``:
    both halves share the rounded midpoint, with a radius of two floats,
    which covers its rounding (half a float from the sum, at most 2**-1074
    from halving a subnormal vertex), so every member of the segment lies
    in one of them.
    """
    S = 1 << len(halved)
    out = []
    for c in range(table.n**2):
        count = len(table.vertices[c])
        rows = table.rows[c, :count, : table.width[c]]
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        if interval and 1 << lo.size > _HULL_CAP:
            mid, rad = (box[None] for box in cell_boxes(lo, hi))
        else:
            if interval:
                mid = np.unique(np.where(corner_lambdas(lo.size) > 0.0, hi, lo), axis=0)
            else:
                mid = rows[~np.tril(table.same[c, :count, :count], -1).any(axis=1)]
            rad = np.zeros_like(mid)
        mid, rad = np.broadcast_to(mid, (S,) + mid.shape), np.broadcast_to(rad, (S,) + rad.shape)
        if c in halved:
            v0, v1 = rows
            point = 0.5 * v0 + 0.5 * v1
            gap = np.nextafter(np.abs(point), np.inf) - np.abs(point)
            cover, exact = np.where((v0 == 0.0) & (v1 == 0.0), 0.0, 2.0 * gap), np.zeros_like(point)
            # side, then (mid, rad), then the half's two points
            sides = np.array([[[v0, point], [exact, cover]], [[point, v1], [cover, exact]]])
            side = np.arange(S) >> halved.index(c) & 1
            mid, rad = sides[side, 0], sides[side, 1]
        out.append((mid, rad))
    return out


def _family_enclosures(points: list[tuple[np.ndarray, np.ndarray]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Determinant enclosures of every corner member of each sub-family, ``(centre, radius)`` of shape (S, V, L).

    A corner member takes one point of every cell.  While the S * V corners
    of the S sub-families would exceed ``_HULL_CAP``, the cell with the
    thinnest box (the min and max over its points' boxes, rounded outward)
    that still has several points enters as that one box: it loses least.
    Then ``det_enclosure`` encloses every corner's determinant in one batch.
    The determinant is affine in each cell, so every member's determinant
    is a convex combination of the determinants of corners made of points
    within their radii of the members' own, each within its radius of its
    centre.
    """
    points = list(points)
    S, counts = points[0][0].shape[0], [mid.shape[1] for mid, _ in points]
    boxes = [(_down(mid, rad).min(axis=1), _up(mid, rad).max(axis=1)) for mid, rad in points]
    for c in sorted(range(len(points)), key=lambda c: float(np.sum(boxes[c][1] - boxes[c][0]))):
        if S * math.prod(counts) <= _HULL_CAP:
            break
        if counts[c] > 1:
            points[c] = tuple(box[:, None] for box in cell_boxes(*boxes[c]))
            counts[c] = 1
    corners = np.indices(counts).reshape(len(counts), -1)
    V = corners.shape[1]
    grids = [
        [[points[c][t][:, corners[c]].reshape(S * V, -1) for c in range(i * n, i * n + n)] for i in range(n)]
        for t in (0, 1)
    ]
    centre, radius = det_enclosure(*grids)
    return centre.reshape(S, V, -1), radius.reshape(S, V, -1)


def _family_certificate(fam: MatrixFamily, table: VertexTable, margin: float, tol: Tolerances) -> Verdict | None:
    """Kharitonov's test on the whole family's determinants: a RobustlyStable verdict if it certifies.

    ``margin`` is the root margin of configuration 0's anchor member.  The
    family box is the hull of the enclosed corner-member determinants
    (``_family_enclosures``); after the degree checks of the configurations'
    boxes (``_early_verdicts``), its corners go to the box test with their
    radii as their error bounds, on the rung ladder below ``margin``
    (``_rung_margins``).

    If the family box fails, the split round tests the 2**u sub-families of
    its u two-vertex cells (``_family_points``) in the same calls, while
    2**u is at most ``_SPLIT_CAP``.  When every (sub-)family passes, every
    member's roots lie more than the least passing tau inside the region.
    A family with a truncated vertex, an anchor without a finite positive
    margin, a box that fails the degree checks or whose magnitudes reach
    ``_BOX_RANGE``, and one that neither round certifies get None: the edge
    stream decides them.
    """
    if table.truncated.any() or not 0.0 < margin < math.inf:
        return None
    interval = fam.mode == "interval"
    halved = [c for c in range(table.n**2) if not interval and len(table.vertices[c]) == 2 and not table.same[c, 0, 1]]
    rounds = [[], halved] if halved and 1 << len(halved) <= _SPLIT_CAP else [[]]
    for cut in rounds:
        centre, radius = _family_enclosures(_family_points(table, interval, cut), table.n)
        with np.errstate(over="ignore", invalid="ignore"):
            early, degrees = _early_verdicts(np.concatenate([centre - radius, centre + radius], axis=1), tol)
            if any(v is not None for v in early) or not (np.abs(centre) + radius < _BOX_RANGE).all():
                return None
        taus = _rung_margins(centre, radius, degrees, np.full(len(early), margin), fam.region, tol)
        if not np.isnan(taus).any():
            split = f", split into {len(early)} sub-family boxes," if cut else ""
            return Verdict(
                Status.ROBUSTLY_STABLE,
                margin=float(taus.min()),
                reason=f"Kharitonov polynomials of the family box{split} are stable; the margin is a root-distance bound",
            )
    return None


# A pool worker's vertex table and member memo, shared by every chunk it
# runs.  The pool lives for one family's analysis, so they never see another.
_pool_members: VertexMembers | None = None


def _start_pool_worker(fam: MatrixFamily) -> None:
    global _pool_members
    _pool_members = VertexMembers(fam)


def _check_pool_chunk(fam: MatrixFamily, start: int, stop: int, tol: Tolerances) -> list:
    return _check_chunk(fam, start, stop, tol, _pool_members)


def _aggregate(results, total: int):
    outcomes = [ConfigOutcome(index, v.status, v.margin, v.reason) for index, v in results]
    margin = min([math.inf, *(v.margin for _, v in results if v.margin is not None)])
    # the verdict names the first configuration of the dominant status, and
    # an Unstable one lends its witness; RobustlyStable ones name nothing
    worst = Status.ROBUSTLY_STABLE
    witness = None
    reason = ""
    for index, v in results:
        if _DOMINANCE[v.status] > _DOMINANCE[worst]:
            worst = v.status
            reason = f"configuration {index}: {v.reason}"
            if worst is Status.UNSTABLE:
                witness = replace(v.witness or Witness(), config_index=index)
                break
    if worst is Status.ROBUSTLY_STABLE:
        verdict = Verdict(
            Status.ROBUSTLY_STABLE,
            margin=margin if margin != math.inf else None,
            reason=f"all {total} configurations certified",
        )
    elif worst is Status.UNSTABLE:
        verdict = Verdict(Status.UNSTABLE, margin=margin, witness=witness, reason=reason)
    else:
        verdict = Verdict(worst, margin=margin if margin != math.inf else None, reason=reason)
    return verdict, outcomes


def _run_configs(fam: MatrixFamily, tol: Tolerances, jobs: int):
    # one chunk plan for every worker count, so the report cannot depend on
    # it: [0, 1), then [1, 64), [64, 128), ..., ending at total
    members = VertexMembers(fam)
    total = members.table.total
    bounds = sorted({0, 1, total, *range(_CHUNK, total, _CHUNK)})
    chunks = list(zip(bounds[1:-1], bounds[2:]))
    # the parent decides configuration 0 alone, short of its bisection; the
    # family certificate follows unless it is Unstable or Degenerate, and only
    # if the certificate fails is configuration 0 bisected; the stream goes on
    # unless configuration 0 is Unstable
    results = _check_chunk(fam, 0, 1, tol, members, bisect=False)
    first = results[0][1]
    if first is None or first.status not in (Status.UNSTABLE, Status.DEGENERATE):
        _, _, ends = next(members.table.ends(0, 1))
        anchor = members._verdicts[tuple(ends[0, :, 0].tolist())]
        family = _family_certificate(fam, members.table, anchor.margin, tol)
        if family is not None:
            return _aggregate([(index, family) for index in range(total)], total)
    if first is None:
        results = _check_chunk(fam, 0, 1, tol, members)
    if results[-1][1].status is Status.UNSTABLE:
        return _aggregate(results, total)
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    with ExitStack() as stack:
        if workers <= 1:
            decided = (_check_chunk(fam, a, b, tol, members) for a, b in chunks)
        else:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_start_pool_worker, initargs=(fam,))
            )
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = [pool.submit(_check_pool_chunk, fam, a, b, tol) for a, b in chunks]
            decided = (future.result() for future in futures)
        for chunk in decided:
            results.extend(chunk)
            if chunk[-1][1].status is Status.UNSTABLE:
                break
    return _aggregate(results, total)


def _precheck(fam: MatrixFamily, expected_mode: str, jobs):
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValidationFailure(f"jobs must be a positive integer, got {jobs!r}")
    if fam.n > MAX_DRIVER_SIZE:
        raise ValidationFailure(f"driver supports n <= {MAX_DRIVER_SIZE}, got n = {fam.n}")
    if fam.mode != expected_mode:
        raise ValidationFailure(f"driver requires a {expected_mode} family, got {fam.mode}")
    problems = [d for d in validate(fam) if d.level == "error"]
    if problems:
        raise ValidationFailure("; ".join(d.message for d in problems))


def analyze_family_detailed(
    fam: MatrixFamily, tol: Tolerances | None = None, jobs: int = 1
) -> tuple[Verdict, list[ConfigOutcome]]:
    """Decide a polytope family and keep the per-configuration record."""
    tol = tol or Tolerances()
    _precheck(fam, "polytope", jobs)
    return _run_configs(fam, tol, jobs)


def analyze_family(fam: MatrixFamily, tol: Tolerances | None = None, jobs: int = 1) -> Verdict:
    """Robust D-stability of a polytope family via its edge configurations."""
    return analyze_family_detailed(fam, tol, jobs)[0]


def analyze_interval_detailed(
    fam: MatrixFamily, tol: Tolerances | None = None, jobs: int = 1
) -> tuple[Verdict, list[ConfigOutcome]]:
    """Decide an interval family (Kharitonov reduction, Hurwitz region only)."""
    tol = tol or Tolerances()
    if not isinstance(fam.region, HurwitzHalfPlane):
        raise RegionNotHurwitzError(
            "interval analysis is only valid for the open left half plane; "
            "rewrite the entries as explicit vertex polytopes for other regions"
        )
    _precheck(fam, "interval", jobs)
    return _run_configs(fam, tol, jobs)


def analyze_interval(fam: MatrixFamily, tol: Tolerances | None = None, jobs: int = 1) -> Verdict:
    return analyze_interval_detailed(fam, tol, jobs)[0]
