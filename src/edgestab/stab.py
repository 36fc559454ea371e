"""Stability deciders: points, segments, parameter boxes, and whole families.

The decision layers build on each other:

* ``point_stable`` checks one polynomial by its worst root margin, the
  batch of one of ``region.member_margins``, as every member is measured.
* ``box_stable`` decides a multi-affine parameter box by zero exclusion of
  its boundary value sets, with certified interval refinement; its sweep,
  ``_zero_exclusion_sweep``, is a batch of one.
* ``segment_stable`` decides a one-parameter segment as the k = 1 box.
* ``analyze_family`` / ``analyze_interval`` decide the edge configurations
  of a family in one chunk plan, whatever the worker count: the parent
  decides ``[0, 1)`` and stops if it is Unstable; the chunks ``[1, 64)``,
  ``[64, 128)``, ... follow, in-process or on worker processes, up to the
  first chunk that ends Unstable.  A run is a maximal stretch of a chunk
  that shares ``run_key``.  ``VertexMembers`` gives each configuration its
  corner verdicts: it solves the new all-vertex members of each run in
  batches (one determinant and one margin call per cell-length signature)
  and memoises each verdict by member key.  Each configuration passes
  ``box_stable``'s checks before the sweep, in stream order; the
  configurations of a run that need a sweep are swept together, one batch
  per mask set and row shape, and each gets bitwise the verdict
  ``box_stable`` gives it alone.

Verdict dominance when aggregating: Unstable beats Degenerate beats
Inconclusive beats RobustlyStable.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import hull
from .det import (
    ParametricDeterminant,
    _laplace,
    coefficient_box,
    corner_lambdas,
    det_parametric,  # noqa: F401  bench/tracing.py patches stab.det_parametric
    det_parametric_run,
    monomial_weights,
    run_key,
)
from .edges import EdgeConfiguration, count_configs, iter_configs
from .errors import RegionNotHurwitzError, ValidationFailure, ZeroPolynomialError
from .family import EdgeSegment, MatrixFamily, validate
from .poly import Polynomial, horner
from .region import (
    Disk,
    HurwitzHalfPlane,
    Region,
    ShiftedHalfPlane,
    member_margins,
    sweep_range_from_box,
)

MAX_DRIVER_SIZE = 8

# Interval refinement beyond the base grid is triggered well before margins
# reach the inconclusive band, and capped by a global evaluation budget per
# configuration: _REFINE_ROUND_CAP_FACTOR samples per seed-grid point, and
# never fewer than _REFINE_BUDGET_FLOOR.
_REFINE_ROUND_CAP_FACTOR = 64
_REFINE_BUDGET_FLOOR = 32_768

# Samples per evaluation block of a batched sweep, which bounds its memory.
_SWEEP_BLOCK = 512


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


def dominant(a: Status, b: Status) -> Status:
    return a if _DOMINANCE[a] >= _DOMINANCE[b] else b


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy knobs shared by the deciders."""

    boundary_grid: int = 128
    refine_depth: int = 40
    box_depth: int = 12
    zero_margin: float = 1e-7
    degree_eps: float = 1e-9

    def __post_init__(self):
        for name in ("boundary_grid", "refine_depth", "box_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.boundary_grid < 8:
            raise ValueError("boundary_grid must be at least 8")
        if self.refine_depth < 0 or self.box_depth < 0:
            raise ValueError("depths must be nonnegative")
        for name in ("zero_margin", "degree_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Witness:
    """Where instability was found: configuration, parameters, offending root."""

    config_index: int | None = None
    lam: tuple[float, ...] | None = None
    root: complex | None = None
    theta: float | None = None


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
                "theta": self.witness.theta,
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
# boundary sweep helpers


def _theta_grids(region: Region, spans, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary sample parameters of each sweep range, concatenated, and the owner of each.

    Disks get a uniform closed circle.  Half planes mix a linear grid with a
    geometric one so that both the low-frequency structure and the Cauchy
    tail are resolved before refinement starts; an empty range is its one
    end.  All ranges are built in one pass: ``np.linspace`` and
    ``np.geomspace`` compute each row elementwise, as for a lone range, and
    sorting a row and dropping repeats is ``np.unique`` of it.
    """
    lo = np.array([a for a, _ in spans])
    hi = np.array([b for _, b in spans])
    if isinstance(region, Disk):
        grid = np.linspace(lo, hi, count + 1, axis=1)
        return grid.ravel(), np.repeat(np.arange(lo.size), count + 1)
    empty = hi <= lo
    # an empty range gets a stand-in range, then keeps only its first sample
    lo, hi = np.where(empty, 0.0, lo), np.where(empty, 1.0, hi)
    half = count // 2
    lin = np.linspace(lo, hi, half, axis=1)
    geo = np.geomspace(np.maximum(hi * 1e-6, 1e-12), hi, count - half, axis=1)
    grid = np.sort(np.concatenate([lo[:, None], lin, geo], axis=1), axis=1)
    keep = np.ones(grid.shape, dtype=bool)
    keep[:, 1:] = grid[:, 1:] != grid[:, :-1]
    keep[empty, 1:] = False
    return grid[keep], np.repeat(np.arange(lo.size), keep.sum(axis=1))


def _deriv_envelope(box: np.ndarray) -> np.ndarray:
    """Ascending coefficients of sum_l l*max|c_l|*R**(l-1)."""
    mags = np.max(np.abs(box), axis=1)
    if mags.size <= 1:
        return np.zeros(1)
    return mags[1:] * np.arange(1, mags.size)


def _abs_s_bound(region: Region, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |s(theta)| over [a, b] for each interval."""
    if isinstance(region, Disk):
        return np.full_like(np.asarray(a, dtype=float), abs(region.center) + region.radius)
    sigma = region.sigma if isinstance(region, ShiftedHalfPlane) else 0.0
    return np.hypot(sigma, np.maximum(np.abs(a), np.abs(b)))


def _subdivide_at_theta(
    term_vals: np.ndarray,
    masks: np.ndarray,
    k: int,
    depth_cap: int,
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Zero-exclusion distance at one boundary point by lambda-box subdivision.

    Returns (distance, leftover_box).  A positive distance certifies
    exclusion for the whole cube (minimum over leaf hull distances).  When a
    leaf at the depth cap still captures the origin, its bounds come back as
    ``leftover_box`` for witness search and the distance is 0.
    """
    corners = corner_lambdas(k) > 0.0
    stack = [(np.zeros(k), np.ones(k), 0)]
    dist = math.inf
    while stack:
        lo, hi, depth = stack.pop()
        # D at the sub-box corners; each corner's weights multiply term_vals
        # on their own, so it rounds as a lone ``np.dot`` would
        weights = monomial_weights(masks, np.where(corners, hi, lo))
        vals = (weights[:, None, :] @ term_vals)[:, 0]
        m = hull.origin_margin(vals)
        if m > 0.0:
            dist = min(dist, m)
            continue
        if depth >= depth_cap:
            return 0.0, (lo, hi)
        axis = int(np.argmax(hi - lo))
        mid = 0.5 * (lo[axis] + hi[axis])
        hi_left = hi.copy()
        hi_left[axis] = mid
        lo_right = lo.copy()
        lo_right[axis] = mid
        stack.append((lo_right, hi.copy(), depth + 1))
        stack.append((lo.copy(), hi_left, depth + 1))
    return dist, None


def _witness_window(tol: Tolerances, root: complex) -> float:
    """Acceptance slack for confirming a member root as a boundary crossing.

    Scales with zero_margin but is capped, so loosening the inconclusive
    band can never promote a clearly interior root to a confirmed crossing.
    """
    return min(100.0 * tol.zero_margin, 1e-4) * (1.0 + abs(root))


def _confirm_boundary_root(
    pd: ParametricDeterminant,
    region: Region,
    theta_lo: float,
    theta_hi: float,
    lam_box: tuple[np.ndarray, np.ndarray],
    tol: Tolerances,
) -> Verdict | None:
    """Try to pin an actual member with a root on or outside the boundary.

    Solves Re D = Im D = 0 over (lambda, theta) inside the candidate box and
    accepts only if the resulting member's root margin is within tolerance of
    the boundary (or beyond it), as the Unstable verdict with its root margin.
    """
    lo, hi = lam_box
    k = pd.k

    def residual(x):
        lam, theta = x[:k], x[k]
        val = np.dot(monomial_weights(pd.masks, lam), horner(pd.rows, region.boundary(theta)))
        return [val.real, val.imag]

    theta_span = max(theta_hi - theta_lo, 1e-12)
    x0 = np.concatenate([0.5 * (lo + hi), [0.5 * (theta_lo + theta_hi)]])
    bounds = (
        np.concatenate([lo, [theta_lo - 0.5 * theta_span]]),
        np.concatenate([hi, [theta_hi + 0.5 * theta_span]]),
    )
    try:
        sol = least_squares(residual, x0, bounds=bounds, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    except Exception:
        return None
    lam = tuple(float(v) for v in np.clip(sol.x[:k], 0.0, 1.0))
    member = pd.assemble(lam)
    if member.degree == 0:
        return None
    margins, roots = member_margins(region, member.coeffs[None])
    margin, root = margins[0], roots[0]
    if margin <= _witness_window(tol, root):
        return Verdict(
            Status.UNSTABLE,
            margin=float(margin),
            witness=Witness(lam=lam, root=root, theta=float(sol.x[k])),
            reason="member with a boundary root found inside the box",
        )
    return None


def _zero_exclusion_sweep(
    pds: list[ParametricDeterminant],
    boxes: list[np.ndarray],
    region: Region,
    tol: Tolerances,
) -> list[Verdict | None]:
    """Certified zero-exclusion sweep of the region boundary, for a batch of determinants.

    ``pds`` share ``masks`` and ``rows.shape``; ``boxes[c]`` is
    ``coefficient_box(pds[c])``, which fixes configuration c's sweep range
    and derivative envelope.  The value set of D(s(theta), lambda-box) at
    each sampled theta is boxed by the convex hull of its 2**k box-corner
    values.  An interval between neighboring samples is certified root-free
    when both endpoint exclusion distances exceed L * h / 2, where L bounds
    |dD/dtheta| via the coefficient box.  The seed grid only sets where
    refinement starts: uncertified intervals are split at their midpoints,
    breadth-first, so the certificate rests on this interval test and not
    on the grid's density.  Sample points whose hull captures the origin go
    through lambda-box subdivision and, if that fails, witness confirmation,
    which may conclude a configuration with an Unstable verdict.

    Each round evaluates the new points of every configuration of the batch
    together, in blocks of whole configurations of at most ``_SWEEP_BLOCK``
    samples (one configuration alone when it has more).  Every per-sample
    operation stays per sample: ``horner`` with the sample's own rows, the
    hull margins, and the Lipschitz bound in ``np.polyval``'s operation
    order with the sample's own envelope.  Each configuration keeps its own
    ``transform @ tv`` product over its own new points, because a matrix
    product's summation order changes with its shape.  Captures, the
    budget, the depth cap and the conclusion stay per configuration, so
    configuration c's verdict is bitwise the one it gets in a batch of one.
    Once a configuration is Unstable, the later ones leave the batch and
    get ``None``.
    """
    count = len(pds)
    masks, k = pds[0].masks, pds[0].k
    rows = np.stack([pd.rows for pd in pds])  # (C, terms, L)
    transform = monomial_weights(masks, corner_lambdas(k))
    speed = region.boundary_speed()
    budget = max(_REFINE_ROUND_CAP_FACTOR * tol.boundary_grid, _REFINE_BUDGET_FLOOR)
    scale_floor = 1e-300
    spans = [sweep_range_from_box(region, box) for box in boxes]
    envs = np.stack([_deriv_envelope(box) for box in boxes])
    live_floor = np.array([1e-14 * max(hi - lo, 1.0) for lo, hi in spans])

    def evaluate(ts: np.ndarray, own: np.ndarray):
        """Hull margins and value scales at samples ``ts`` of configurations ``own`` (grouped)."""
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(own)) + 1, [ts.size]])
        margins = np.empty(ts.size)
        scales = np.empty(ts.size)
        first = 0
        while first < cuts.size - 1:
            last = first + 1
            while last < cuts.size - 1 and cuts[last + 1] - cuts[first] <= _SWEEP_BLOCK:
                last += 1
            lo, hi = cuts[first], cuts[last]
            tv = horner(rows[own[lo:hi]].transpose(1, 0, 2), region.boundary(ts[lo:hi]))  # (terms, T)
            corner_vals = np.concatenate(
                [
                    transform @ np.ascontiguousarray(tv[:, a - lo : b - lo])
                    for a, b in zip(cuts[first:last], cuts[first + 1 : last + 1])
                ],
                axis=1,
            )  # (2**k, T)
            margins[lo:hi] = hull.batch_origin_margin(corner_vals.T)
            scales[lo:hi] = np.maximum(np.max(np.abs(corner_vals), axis=0), scale_floor)
            first = last
        return margins, scales

    thetas, owner = _theta_grids(region, spans, tol.boundary_grid)
    resolved_dist, scales = evaluate(thetas, owner)  # absolute lower bound on value-set distance
    verdicts: list[Verdict | None] = [None] * count
    active = np.ones(count, dtype=bool)

    def own_slice(c: int) -> slice:
        return slice(*np.searchsorted(owner, [c, c + 1]))

    def finish(c: int, verdict: Verdict) -> None:
        verdicts[c] = verdict
        active[c] = False
        if verdict.status is Status.UNSTABLE:
            active[c + 1 :] = False

    def handle_capture(c: int, grid: np.ndarray, dist: np.ndarray, idx: int) -> Verdict | None:
        """Subdivide the lambda box at a captured sample; may conclude the sweep."""
        pd = pds[c]
        tv = horner(pd.rows, region.boundary(grid[idx]))
        dist_here, leftover = _subdivide_at_theta(tv, masks, k, tol.box_depth)
        if dist_here > 0.0:
            dist[idx] = dist_here
            return None
        span = grid[-1] - grid[0]
        t_lo = grid[max(idx - 1, 0)]
        t_hi = grid[min(idx + 1, grid.size - 1)]
        if t_hi <= t_lo:
            t_lo, t_hi = grid[idx] - 1e-6 * span, grid[idx] + 1e-6 * span
        found = _confirm_boundary_root(pd, region, t_lo, t_hi, leftover, tol)
        if found is not None:
            return found
        return Verdict(
            Status.INCONCLUSIVE,
            margin=0.0,
            reason=f"value set hull captures the origin near theta={grid[idx]:.6g} "
            "and no boundary root could be confirmed",
        )

    def conclude(c: int, reason: str | None, certified: bool = False) -> Verdict:
        """Below the trust band, hunt for an actual crossing before giving up.

        A transversal boundary crossing shows up as sampled hull distances
        that approach zero without a strict capture; confirming a member
        with a boundary root converts that to a sound Unstable verdict.
        Only a fully certified sweep may report exclusion.
        """
        own = own_slice(c)
        grid = thetas[own]
        rel = resolved_dist[own] / scales[own]
        min_rel = float(np.min(rel))
        if reason is None:
            reason = f"minimal relative exclusion margin {min_rel:.3e} is below zero_margin"
        if min_rel >= tol.zero_margin:
            if certified:
                return Verdict(
                    Status.ROBUSTLY_STABLE, margin=min_rel, reason="boundary value sets exclude the origin"
                )
            return Verdict(Status.INCONCLUSIVE, margin=min_rel, reason=reason)
        idx = int(np.argmin(rel))
        t_lo = grid[max(idx - 1, 0)]
        t_hi = grid[min(idx + 1, grid.size - 1)]
        if t_hi <= t_lo:
            t_lo, t_hi = grid[idx] - 1e-6, grid[idx] + 1e-6
        found = _confirm_boundary_root(pds[c], region, t_lo, t_hi, (np.zeros(k), np.ones(k)), tol)
        if found is not None:
            return found
        return Verdict(Status.INCONCLUSIVE, margin=min_rel, reason=reason)

    def captures(positions: np.ndarray) -> None:
        """Handle captured samples in grid order, per configuration, until that configuration concludes."""
        for c in np.unique(owner[positions]):
            if not active[c]:
                continue
            own = own_slice(c)
            grid, dist = thetas[own], resolved_dist[own]
            for idx in positions[owner[positions] == c] - own.start:
                out = handle_capture(int(c), grid, dist, int(idx))
                if out is not None:
                    finish(int(c), out)
                    break

    captures(np.nonzero(resolved_dist <= 0.0)[0])

    for _ in range(tol.refine_depth):
        if not active.any():
            break
        keep = active[owner]
        if not keep.all():
            thetas, resolved_dist, scales, owner = (x[keep] for x in (thetas, resolved_dist, scales, owner))
        sizes = np.bincount(owner, minlength=count)
        for c in np.nonzero(active & (sizes > budget))[0]:
            if active[c]:
                finish(int(c), conclude(int(c), "boundary refinement budget exhausted"))
        a, b = thetas[:-1], thetas[1:]
        widths = b - a
        radii = _abs_s_bound(region, a, b)
        # the Lipschitz bound in np.polyval's operation order, with each
        # interval's own envelope, times speed * h / 2; in place, so a large
        # batch makes few temporaries
        need = np.zeros_like(radii)
        for l in range(envs.shape[1] - 1, -1, -1):
            need *= radii
            need += envs[owner[:-1], l]
        need *= speed
        need *= widths
        need *= 0.5
        ok = (resolved_dist[:-1] > need) & (resolved_dist[1:] > need)
        live = widths > live_floor[owner[:-1]]
        bad = np.nonzero(~ok & live & (owner[:-1] == owner[1:]))[0]
        refining = np.zeros(count, dtype=bool)
        refining[owner[bad]] = True
        for c in np.nonzero(active & ~refining)[0]:
            if active[c]:
                finish(int(c), conclude(int(c), None, certified=True))
        bad = bad[active[owner[bad]]]
        if not bad.size:
            break
        mids = 0.5 * (a[bad] + b[bad])
        mid_owner = owner[bad]
        mid_margins, mid_scales = evaluate(mids, mid_owner)
        # weave the new samples into the sorted grids
        thetas = np.insert(thetas, bad + 1, mids)
        resolved_dist = np.insert(resolved_dist, bad + 1, mid_margins)
        scales = np.insert(scales, bad + 1, mid_scales)
        owner = np.insert(owner, bad + 1, mid_owner)
        captures(np.nonzero(resolved_dist <= 0.0)[0])

    for c in np.nonzero(active)[0]:
        if active[c]:
            finish(int(c), conclude(int(c), "interval certificates still open at the refinement depth cap"))
    return verdicts


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


def _box_checks(
    pd: ParametricDeterminant, region: Region, tol: Tolerances, corners
) -> tuple[Verdict | None, np.ndarray | None]:
    """``box_stable``'s checks before the sweep: (verdict, None) or (None, coefficient box)."""
    if not pd.rows.any():
        return Verdict(Status.DEGENERATE, reason="determinant is identically zero"), None

    with np.errstate(over="ignore", invalid="ignore"):
        box = coefficient_box(pd)
    if not np.isfinite(box).all():
        return Verdict(
            Status.DEGENERATE,
            reason="determinant coefficients overflow float64, so the degree and roots are not resolved",
        ), None
    mags = np.max(np.abs(box), axis=1)
    cmax = float(np.max(mags))
    nz = np.nonzero(mags > 0.0)[0]
    d = int(nz[-1])
    blo, bhi = box[d]
    lead_min = 0.0 if blo <= 0.0 <= bhi else min(abs(blo), abs(bhi))
    if lead_min < tol.degree_eps * cmax:
        return Verdict(
            Status.DEGENERATE,
            margin=None,
            reason="leading-coefficient interval reaches zero (degree drop)",
        ), None
    if d == 0:
        return Verdict(
            Status.ROBUSTLY_STABLE,
            margin=math.inf,
            reason="constant nonzero determinant",
        ), None

    if corners is None:
        corners = _assembled_corners(pd, region)
    if pd.k == 0:
        return corners[0], None

    for v, (lam, verdict) in enumerate(zip(corner_lambdas(pd.k), corners)):
        if verdict.status is Status.DEGENERATE:
            return verdict, None
        if verdict.status is not Status.UNSTABLE:
            continue
        root = verdict.witness.root
        if v == 0 or verdict.margin < -tol.zero_margin * (1.0 + abs(root)):
            return Verdict(
                Status.UNSTABLE,
                margin=verdict.margin,
                witness=Witness(lam=tuple(float(x) for x in lam), root=root),
                reason="anchor member is unstable" if v == 0 else "box corner member is unstable",
            ), None
    return None, box


def box_stable(
    pd: ParametricDeterminant,
    region: Region,
    tol: Tolerances | None = None,
    corners=None,
) -> Verdict:
    """Robust stability of a multi-affine determinant over the lambda box.

    Degree health comes first: a coefficient box that overflows float64 or
    a leading-coefficient interval touching zero is Degenerate.  All box
    corners are root-tested directly; instability there is exact, and a
    corner member that overflowed makes the box Degenerate.  Corner 0 is the
    anchor member (lambda = 0) and fails on any root on or outside the
    boundary; the other corners must be clearly outside.  The remaining
    obstruction is a boundary root strictly inside the box, ruled out by the
    certified zero-exclusion sweep, run here as a batch of one.

    ``corners[v]`` is the ``point_stable`` verdict of the member at box
    vertex v (slot l at bit l of v).  The family drivers pass the
    configuration's list from ``VertexMembers.solve(run)``: every corner of
    a configuration is an all-vertex matrix, solved once per family from its
    own cells, in the batch of its run.  Without ``corners`` the corner
    members are assembled from ``pd`` and measured here in one
    ``member_margins`` call.
    """
    tol = tol or Tolerances()
    verdict, box = _box_checks(pd, region, tol, corners)
    if verdict is not None:
        return verdict
    return _zero_exclusion_sweep([pd], [box], region, tol)[0]


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


def _corner_keys(cfg: EdgeConfiguration) -> list[tuple]:
    """Member key of each box corner of a configuration, corner v at index v."""
    n = cfg.n
    base = [0] * (n * n)
    for (i, j), idx in cfg.vertex_index.items():
        base[i * n + j] = idx
    for j, seg in enumerate(cfg.edge_choice):
        if seg.index0 is None or seg.index1 is None:
            raise ValueError(f"segment of column {j} does not name its vertices")
        base[cfg.sigma[j] * n + j] = seg.index0
    keys = []
    for v in range(1 << len(cfg.lambda_columns)):
        key = list(base)
        for slot, j in enumerate(cfg.lambda_columns):
            if v >> slot & 1:
                key[cfg.sigma[j] * n + j] = cfg.edge_choice[j].index1
        keys.append(tuple(key))
    return keys


def _corner_cells(cfg: EdgeConfiguration, v: int) -> list[Polynomial]:
    """Cells, row-major, of the member at box corner v of a configuration."""
    cells = [cell for row in cfg.base for cell in row]
    for slot, j in enumerate(cfg.lambda_columns):
        if v >> slot & 1:
            cells[cfg.sigma[j] * cfg.n + j] = cfg.edge_choice[j].p1
    return cells


class VertexMembers:
    """Point verdicts of all-vertex members, solved in batches and memoised per key.

    The corner of a configuration at box vertex v is its base grid with the
    pattern cell of column ``lambda_columns[l]`` set to that segment's ``p1``
    wherever bit l of v is set.  A member is keyed by the vertex index of
    every cell in row-major order: ``cfg.vertex_index`` for an off-pattern
    cell, the segment's ``index0`` or ``index1`` for a pattern cell (vertex
    list positions, or Kharitonov indices for an interval cell).  Within one
    family's stream an index names one polynomial of its cell, so the key
    names the member; it never names a configuration.

    ``solve(run)`` measures the members of a run of configurations that the
    memo has not seen.  It groups them by the coefficient length of every
    cell and makes one ``_laplace`` call and one ``member_margins`` call per
    group.  Groups are never zero-padded, which would reorder the sums of
    the determinant, so each member's coefficients, margin and verdict are
    bitwise ``point_stable(det_matrix(grid))``'s and do not depend on the
    batch, the configuration or the worker that reaches the member first.
    A zero member gets ``member_margins``' -inf margin instead of raising;
    ``box_stable`` calls such a configuration Degenerate before it reads a
    corner.
    """

    def __init__(self, region: Region):
        self.region = region
        self._verdicts: dict[tuple, Verdict] = {}

    def solve(self, cfgs) -> list[list[Verdict]]:
        """The corner verdicts of each of ``cfgs``, solving in batches what the memo lacks."""
        keys = [_corner_keys(cfg) for cfg in cfgs]
        groups: dict[tuple, dict[tuple, list[Polynomial]]] = {}
        for cfg, cfg_keys in zip(cfgs, keys):
            for v, key in enumerate(cfg_keys):
                if key not in self._verdicts:
                    cells = _corner_cells(cfg, v)
                    sig = tuple(cell.coeffs.size for cell in cells)
                    groups.setdefault(sig, {}).setdefault(key, cells)
        for sig, group in groups.items():
            n = math.isqrt(len(sig))
            members = list(group.values())
            grid = [[np.stack([m[i * n + j].coeffs for m in members]) for j in range(n)] for i in range(n)]
            margins, roots = member_margins(self.region, _laplace(grid))
            for key, margin, root in zip(group, margins, roots):
                self._verdicts[key] = _member_verdict(margin, root)
        return [[self._verdicts[key] for key in cfg_keys] for cfg_keys in keys]

    def corners(self, cfg: EdgeConfiguration) -> list[Verdict]:
        """``box_stable``'s ``corners`` for one configuration."""
        return self.solve([cfg])[0]


def _truncated_input(cfg: EdgeConfiguration) -> bool:
    """Whether a base cell or segment endpoint lost coefficients at construction."""
    return any(cell.truncated for row in cfg.base for cell in row) or any(
        seg.p1.truncated for seg in cfg.edge_choice
    )


def _check_chunk(
    fam: MatrixFamily, start: int, stop: int, tol: Tolerances, members: VertexMembers
) -> list:
    """Decide configurations [start, stop) in stream order, stopping at the first Unstable.

    A run is a maximal stretch of the chunk that shares ``run_key``.  Its
    configurations pass ``box_stable``'s checks before the sweep in stream
    order, up to the first one that is Unstable there.  Those that need a
    sweep are swept together, one batch per ``masks`` and ``rows.shape``, in
    the order of each batch's first configuration; a batch drops the
    configurations after an Unstable one already found.
    """
    out = []
    for _, group in itertools.groupby(iter_configs(fam, start=start, stop=stop), key=run_key):
        run = list(group)
        decided = []
        batches: dict[tuple, list] = {}
        for cfg, pd, corners in zip(run, det_parametric_run(run), members.solve(run)):
            if _truncated_input(cfg):
                v = Verdict(
                    Status.DEGENERATE,
                    reason="an input polynomial has trailing coefficients below the "
                    "truncation floor, so its degree is not resolved",
                )
            else:
                v, box = _box_checks(pd, fam.region, tol, corners)
                if v is None:
                    batches.setdefault((pd.masks.tobytes(), pd.rows.shape), []).append((len(decided), pd, box))
            decided.append([cfg.index, v])
            if v is not None and v.status is Status.UNSTABLE:
                break
        end = len(decided)
        for batch in batches.values():
            batch = [item for item in batch if item[0] < end]
            if not batch:
                continue
            verdicts = _zero_exclusion_sweep(
                [pd for _, pd, _ in batch], [box for _, _, box in batch], fam.region, tol
            )
            for (pos, _, _), v in zip(batch, verdicts):
                if pos < end:
                    decided[pos][1] = v
                    if v.status is Status.UNSTABLE:
                        end = pos + 1
        out.extend(tuple(item) for item in decided[:end])
        if out and out[-1][1].status is Status.UNSTABLE:
            return out
    return out


# A pool worker's member memo, shared by every chunk it runs.  The pool lives
# for one family's analysis, so the memo never sees another region.
_pool_members: VertexMembers | None = None


def _start_pool_worker(region: Region) -> None:
    global _pool_members
    _pool_members = VertexMembers(region)


def _check_pool_chunk(fam: MatrixFamily, start: int, stop: int, tol: Tolerances) -> list:
    return _check_chunk(fam, start, stop, tol, _pool_members)


def _aggregate(results, total: int):
    worst = Status.ROBUSTLY_STABLE
    margin = math.inf
    witness = None
    reason = ""
    outcomes: list[ConfigOutcome] = []
    for index, v in results:
        outcomes.append(ConfigOutcome(index, v.status, v.margin, v.reason))
        if v.status is Status.UNSTABLE and worst is not Status.UNSTABLE:
            witness = replace(v.witness or Witness(), config_index=index)
            reason = f"configuration {index}: {v.reason}"
        elif v.status is not Status.ROBUSTLY_STABLE and _DOMINANCE[v.status] > _DOMINANCE[worst]:
            reason = f"configuration {index}: {v.reason}"
        worst = dominant(worst, v.status)
        if v.margin is not None:
            margin = min(margin, v.margin)
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
    total = count_configs(fam)
    bounds = sorted({0, 1, total, *range(_CHUNK, total, _CHUNK)})
    chunks = list(zip(bounds[1:-1], bounds[2:]))
    members = VertexMembers(fam.region)
    # the parent decides configuration 0 alone and goes on only when it is not Unstable
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
                ProcessPoolExecutor(max_workers=workers, initializer=_start_pool_worker, initargs=(fam.region,))
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
