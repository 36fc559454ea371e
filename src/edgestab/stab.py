"""Stability deciders: points, segments, parameter boxes, and whole families.

The decision layers build on each other:

* ``point_stable`` checks one polynomial by its worst root margin, the
  batch of one of ``region.member_margins``, as every member is measured.
* ``box_stable`` decides a multi-affine parameter box by zero exclusion of
  its boundary value sets, with certified interval refinement.
* ``segment_stable`` decides a one-parameter segment as the k = 1 box.
* ``analyze_family`` / ``analyze_interval`` stream the edge configurations
  of a family through ``box_stable`` and aggregate; ``VertexMembers`` gives
  ``box_stable`` the corner verdicts.  It solves the new all-vertex members
  of each run of configurations in batches (one determinant and one margin
  call per cell-length signature) and memoises each verdict by member key.
  With ``jobs > 1`` the parent decides configuration 0 itself, as the serial
  path's first run, and starts worker processes for fixed chunks of the rest
  only when it is not Unstable.

Verdict dominance when aggregating: Unstable beats Degenerate beats
Inconclusive beats RobustlyStable.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
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
# reach the inconclusive band, and capped by a global evaluation budget.
_REFINE_ROUND_CAP_FACTOR = 64


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

    boundary_grid: int = 512
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


def _theta_grid(region: Region, lo: float, hi: float, count: int) -> np.ndarray:
    """Boundary sample parameters.

    Disks get a uniform closed circle.  Half planes mix a linear grid with a
    geometric one so that both the low-frequency structure and the Cauchy
    tail are resolved before refinement starts.
    """
    if hi <= lo:
        return np.array([lo])
    if isinstance(region, Disk):
        return np.linspace(lo, hi, count + 1)
    half = count // 2
    lin = np.linspace(lo, hi, half)
    geo = np.geomspace(max(hi * 1e-6, 1e-12), hi, count - half)
    return np.unique(np.concatenate([[lo], lin, geo]))


def _deriv_envelope(box: np.ndarray) -> np.ndarray:
    """Ascending coefficients of sum_l l*max|c_l|*R**(l-1)."""
    mags = np.max(np.abs(box), axis=1)
    if mags.size <= 1:
        return np.zeros(1)
    return mags[1:] * np.arange(1, mags.size)


def _lipschitz_bound(env: np.ndarray, radius, speed: float) -> np.ndarray:
    """Upper bound on |dD/dtheta| for boundary points with |s| <= radius."""
    return speed * np.polyval(env[::-1], np.asarray(radius, dtype=float))


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
    pd: ParametricDeterminant,
    region: Region,
    box: np.ndarray,
    tol: Tolerances,
) -> Verdict:
    """Certified zero-exclusion sweep of the region boundary.

    ``box`` is ``coefficient_box(pd)``; it fixes the sweep range and the
    derivative envelope.  The value set of D(s(theta), lambda-box) at each sampled theta is boxed
    by the convex hull of its 2**k box-corner values.  An interval between
    neighboring samples is certified root-free when both endpoint exclusion
    distances exceed L * h / 2, where L bounds |dD/dtheta| via the
    coefficient box.  Uncertified intervals are split at their midpoints,
    breadth-first, so each round evaluates all new points in one vectorized
    pass.  Sample points whose hull captures the origin go through
    lambda-box subdivision and, if that fails, witness confirmation, which
    may conclude the sweep with an Unstable verdict.
    """
    masks, rows, k = pd.masks, pd.rows, pd.k
    lo, hi = sweep_range_from_box(region, box)
    env = _deriv_envelope(box)
    speed = region.boundary_speed()
    transform = monomial_weights(masks, corner_lambdas(k))

    thetas = _theta_grid(region, lo, hi, tol.boundary_grid)
    budget = _REFINE_ROUND_CAP_FACTOR * tol.boundary_grid
    scale_floor = 1e-300

    def evaluate(ts: np.ndarray):
        s = region.boundary(ts)
        tv = horner(rows[:, None], s)  # (terms, T)
        corner_vals = transform @ tv  # (2**k, T)
        margins = hull.batch_origin_margin(corner_vals.T)
        scales = np.maximum(np.max(np.abs(corner_vals), axis=0), scale_floor)
        return margins, scales

    margins, scales = evaluate(thetas)
    resolved_dist = margins.copy()  # absolute lower bound on value-set distance

    def handle_capture(idx: int) -> Verdict | None:
        """Subdivide the lambda box at a captured sample; may conclude the sweep."""
        tv = horner(rows, region.boundary(thetas[idx]))
        dist, leftover = _subdivide_at_theta(tv, masks, k, tol.box_depth)
        if dist > 0.0:
            resolved_dist[idx] = dist
            return None
        span = thetas[-1] - thetas[0]
        t_lo = thetas[max(idx - 1, 0)]
        t_hi = thetas[min(idx + 1, thetas.size - 1)]
        if t_hi <= t_lo:
            t_lo, t_hi = thetas[idx] - 1e-6 * span, thetas[idx] + 1e-6 * span
        found = _confirm_boundary_root(pd, region, t_lo, t_hi, leftover, tol)
        if found is not None:
            return found
        return Verdict(
            Status.INCONCLUSIVE,
            margin=0.0,
            reason=f"value set hull captures the origin near theta={thetas[idx]:.6g} "
            "and no boundary root could be confirmed",
        )

    def conclude(min_rel: float, reason: str, certified: bool = False) -> Verdict:
        """Below the trust band, hunt for an actual crossing before giving up.

        A transversal boundary crossing shows up as sampled hull distances
        that approach zero without a strict capture; confirming a member
        with a boundary root converts that to a sound Unstable verdict.
        Only a fully certified sweep may report exclusion.
        """
        if min_rel >= tol.zero_margin:
            if certified:
                return Verdict(
                    Status.ROBUSTLY_STABLE, margin=min_rel, reason="boundary value sets exclude the origin"
                )
            return Verdict(Status.INCONCLUSIVE, margin=min_rel, reason=reason)
        rel = resolved_dist / scales
        idx = int(np.argmin(rel))
        t_lo = thetas[max(idx - 1, 0)]
        t_hi = thetas[min(idx + 1, thetas.size - 1)]
        if t_hi <= t_lo:
            t_lo, t_hi = thetas[idx] - 1e-6, thetas[idx] + 1e-6
        found = _confirm_boundary_root(
            pd, region, t_lo, t_hi, (np.zeros(k), np.ones(k)), tol
        )
        if found is not None:
            return found
        return Verdict(Status.INCONCLUSIVE, margin=min_rel, reason=reason)

    for idx in np.nonzero(margins <= 0.0)[0]:
        out = handle_capture(int(idx))
        if out is not None:
            return out

    for _ in range(tol.refine_depth):
        if thetas.size > budget:
            return conclude(
                float(np.min(resolved_dist / scales)),
                "boundary refinement budget exhausted",
            )
        a, b = thetas[:-1], thetas[1:]
        widths = b - a
        radii = _abs_s_bound(region, a, b)
        need = _lipschitz_bound(env, radii, speed) * widths * 0.5
        ok = (resolved_dist[:-1] > need) & (resolved_dist[1:] > need)
        live = widths > 1e-14 * max(hi - lo, 1.0)
        bad = np.nonzero(~ok & live)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (a[bad] + b[bad])
        mid_margins, mid_scales = evaluate(mids)
        # weave the new samples into the sorted grid
        thetas = np.insert(thetas, bad + 1, mids)
        resolved_dist = np.insert(resolved_dist, bad + 1, mid_margins)
        scales = np.insert(scales, bad + 1, mid_scales)
        for pos in np.nonzero(resolved_dist <= 0.0)[0]:
            out = handle_capture(int(pos))
            if out is not None:
                return out
    else:
        rel = resolved_dist / scales
        return conclude(
            float(np.min(rel)),
            "interval certificates still open at the refinement depth cap",
        )

    rel = resolved_dist / scales
    min_rel = float(np.min(rel))
    return conclude(
        min_rel,
        f"minimal relative exclusion margin {min_rel:.3e} is below zero_margin",
        certified=True,
    )


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
    boundary; the other corners must be clearly outside.  The remaining obstruction is a boundary root strictly inside
    the box, ruled out by the certified zero-exclusion sweep.

    ``corners[v]`` is the ``point_stable`` verdict of the member at box
    vertex v (slot l at bit l of v).  The family drivers pass
    ``VertexMembers.corners(cfg)``: every corner of a configuration is an
    all-vertex matrix, solved once per family from its own cells, in the
    batch of its run.  Without ``corners`` the corner members are assembled
    from ``pd`` and measured here in one ``member_margins`` call.
    """
    tol = tol or Tolerances()
    if not pd.rows.any():
        return Verdict(Status.DEGENERATE, reason="determinant is identically zero")

    with np.errstate(over="ignore", invalid="ignore"):
        box = coefficient_box(pd)
    if not np.isfinite(box).all():
        return Verdict(
            Status.DEGENERATE,
            reason="determinant coefficients overflow float64, so the degree and roots are not resolved",
        )
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
        )
    if d == 0:
        return Verdict(
            Status.ROBUSTLY_STABLE,
            margin=math.inf,
            reason="constant nonzero determinant",
        )

    if corners is None:
        corners = _assembled_corners(pd, region)
    if pd.k == 0:
        return corners[0]

    for v, (lam, verdict) in enumerate(zip(corner_lambdas(pd.k), corners)):
        if verdict.status is Status.DEGENERATE:
            return verdict
        if verdict.status is not Status.UNSTABLE:
            continue
        root = verdict.witness.root
        if v == 0 or verdict.margin < -tol.zero_margin * (1.0 + abs(root)):
            return Verdict(
                Status.UNSTABLE,
                margin=verdict.margin,
                witness=Witness(lam=tuple(float(x) for x in lam), root=root),
                reason="anchor member is unstable" if v == 0 else "box corner member is unstable",
            )

    return _zero_exclusion_sweep(pd, region, box, tol)


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

    def solve(self, cfgs) -> None:
        """Solve, in batches, the corner members of ``cfgs`` that the memo has not seen."""
        groups: dict[tuple, dict[tuple, list[Polynomial]]] = {}
        for cfg in cfgs:
            for v, key in enumerate(_corner_keys(cfg)):
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

    def corners(self, cfg: EdgeConfiguration) -> list[Verdict]:
        """``box_stable``'s ``corners`` for one configuration, solving what the memo lacks."""
        keys = _corner_keys(cfg)
        if any(key not in self._verdicts for key in keys):
            self.solve([cfg])
        return [self._verdicts[key] for key in keys]


def _truncated_input(cfg: EdgeConfiguration) -> bool:
    """Whether a base cell or segment endpoint lost coefficients at construction."""
    return any(cell.truncated for row in cfg.base for cell in row) or any(
        seg.p1.truncated for seg in cfg.edge_choice
    )


# Runs grow 1, 2, 4, ... up to this size, so a chunk that stops Unstable early
# builds few determinants it never decides.
_MAX_RUN = 64


def _runs(configs):
    """Consecutive configurations sharing ``run_key``, in runs of growing size."""
    size = 1
    run, key = [], None
    for cfg in configs:
        cfg_key = run_key(cfg)
        if run and cfg_key != key:
            yield run
            run, size = [], min(2 * size, _MAX_RUN)
        run.append(cfg)
        key = cfg_key
        if len(run) == size:
            yield run
            run, size = [], min(2 * size, _MAX_RUN)
    if run:
        yield run


def _check_chunk(
    fam: MatrixFamily, start: int, stop: int, tol: Tolerances, members: VertexMembers
) -> list:
    """Decide configurations [start, stop) in stream order, stopping at the first Unstable."""
    out = []
    for run in _runs(iter_configs(fam, start=start, stop=stop)):
        members.solve(run)
        for cfg, pd in zip(run, det_parametric_run(run)):
            if _truncated_input(cfg):
                v = Verdict(
                    Status.DEGENERATE,
                    reason="an input polynomial has trailing coefficients below the "
                    "truncation floor, so its degree is not resolved",
                )
            else:
                v = box_stable(pd, fam.region, tol, members.corners(cfg))
            out.append((cfg.index, v))
            if v.status is Status.UNSTABLE:
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
    total = count_configs(fam)
    starts = range(0, total, _CHUNK)
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        return _aggregate(_check_chunk(fam, 0, total, tol, VertexMembers(fam.region)), total)

    # the parent decides configuration 0 alone, as the serial path's first run
    # does, and starts workers only when it is not Unstable
    results = _check_chunk(fam, 0, 1, tol, VertexMembers(fam.region))
    if results[-1][1].status is Status.UNSTABLE:
        return _aggregate(results, total)

    # fixed-size chunks in stream order: the report cannot depend on the worker count
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_pool_worker, initargs=(fam.region,)
    ) as pool:
        futures = [
            pool.submit(_check_pool_chunk, fam, max(s, 1), min(s + _CHUNK, total), tol) for s in starts
        ]
        for future in futures:
            chunk = future.result()
            results.extend(chunk)
            if chunk and chunk[-1][1].status is Status.UNSTABLE:
                pool.shutdown(cancel_futures=True)
                break
    return _aggregate(results, total)


def _precheck(fam: MatrixFamily, expected_mode: str):
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
    _precheck(fam, "polytope")
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
    _precheck(fam, "interval")
    return _run_configs(fam, tol, jobs)


def analyze_interval(fam: MatrixFamily, tol: Tolerances | None = None, jobs: int = 1) -> Verdict:
    return analyze_interval_detailed(fam, tol, jobs)[0]
