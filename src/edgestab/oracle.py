"""Brute-force sampling check for matrix families.

Independent of the edge-configuration machinery: members are drawn directly
from the family (random simplex/box weights or a structured grid), and root
margins are measured against the region.  Their determinants come from the
one loop-based Laplace core, ``det._laplace``, that also serves the concrete
and parametric determinants: a batch of members is one call whose cells
carry a leading batch axis.  Their margins come from
``region.member_margins``, the analyzer's member-margin rule, so a sampled
member gets bitwise ``point_stable``'s margin; a single member is its batch
of one.  Only the members that could still be the worst are root-solved:
the first 64 of the first chunk, and then every member that
``region.margins_exceed`` cannot clear above the running worst margin U plus
a slack of 1e-6 (1 + |U|).  A cleared member's computed margin exceeds U, so
it can never be the first member of least margin, and every report is
bitwise the one that solving every member gives.  Disks clear nothing, so
every disk member is solved.  Families whose vertex polynomials (polytope
vertices or Kharitonov vertices of interval cells) lost coefficients at
construction are refused, as the analyzer calls them Degenerate, and so are
families with a sampled member whose determinant overflows float64.  Used to
cross-validate the symbolic decision path and to hunt for explicit unstable
members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .det import _laplace, det_matrix
from .edges import config_at, entry_vertices
from .errors import ValidationFailure
from .family import IntervalEntry, MatrixFamily, PolytopeEntry
from .poly import Polynomial
from .region import margins_exceed, member_margins

# Members solved exactly at the start of the first chunk, to set the first bar.
_PREFIX = 64
# Slack delta of the skip test, relative to 1 + |bar|: a cleared member's
# computed margin exceeds bar + delta - (root-solver error) > bar.
_SLACK = 1e-6


@dataclass(frozen=True)
class MemberRecord:
    """One sampled family member: per-cell weights and what was measured."""

    weights: tuple  # per-cell weight vectors, row-major
    margin: float
    worst_root: complex | None

    def describe(self) -> dict:
        return {
            "weights": [[float(x) for x in w] for w in self.weights],
            "margin": self.margin,
            "worst_root": [self.worst_root.real, self.worst_root.imag]
            if self.worst_root is not None
            else None,
        }


@dataclass(frozen=True)
class SampleReport:
    samples: int
    worst_margin: float
    worst_member: MemberRecord
    verdict: str  # "StableAtAllSamples" | "UnstableSampleFound"
    seed: int | None
    scheme: str

    def describe(self) -> dict:
        return {
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "worst_member": self.worst_member.describe(),
            "verdict": self.verdict,
            "seed": self.seed,
            "scheme": self.scheme,
        }


def _cell_coeff_arrays(fam: MatrixFamily):
    """Per-cell (choices, L) coefficient arrays padded to a common length.

    A polytope cell's rows are its vertex coefficient vectors; weights are
    simplex coordinates.  An interval cell contributes two rows (lower,
    upper); weights are per-coefficient mixes, handled separately.
    """
    max_len = 1
    for i in range(fam.n):
        for j in range(fam.n):
            e = fam.entry(i, j)
            if isinstance(e, PolytopeEntry):
                max_len = max(max_len, max(len(v.coeffs) for v in e.vertices))
            else:
                max_len = max(max_len, e.length)
    cells = []
    for i in range(fam.n):
        for j in range(fam.n):
            e = fam.entry(i, j)
            if isinstance(e, PolytopeEntry):
                arr = np.zeros((e.m, max_len))
                for r, v in enumerate(e.vertices):
                    arr[r, : len(v.coeffs)] = v.coeffs
                cells.append(("polytope", arr))
            else:
                arr = np.zeros((2, max_len))
                arr[0, : e.length] = e.lower
                arr[1, : e.length] = e.upper
                cells.append(("interval", arr))
    return cells


def _random_weights(cells, batch: int, rng: np.random.Generator):
    """Dirichlet simplex weights per polytope cell, uniform box per interval."""
    out = []
    for kind, arr in cells:
        if kind == "polytope":
            m = arr.shape[0]
            if m == 1:
                out.append(np.ones((batch, 1)))
            else:
                out.append(rng.dirichlet(np.ones(m), size=batch))
        else:
            out.append(rng.random((batch, arr.shape[1])))
    return out


def _grid_weight_lists(cells, level: int):
    """Per-cell weight choices for the structured grid.

    Level 1 is the pure vertex grid: each polytope cell ranges over its
    vertices, each interval cell over the four corner assignments that set
    every coefficient to a bound with one of the recurring sign patterns
    plus all-lower and all-upper.  Higher levels add interior mixes.
    """
    lists = []
    for kind, arr in cells:
        if kind == "polytope":
            m = arr.shape[0]
            choices = [np.eye(m)[r] for r in range(m)]
            if level >= 2 and m > 1:
                for extra in range(level - 1):
                    t = (extra + 1) / level
                    for r in range(m):
                        w = np.full(m, (1.0 - t) / max(m - 1, 1))
                        w[r] = t if m > 1 else 1.0
                        w = w / w.sum()
                        choices.append(w)
            lists.append(choices)
        else:
            L = arr.shape[1]
            idx = np.arange(L)
            patterns = [
                np.zeros(L),
                np.ones(L),
                (idx % 4 >= 2).astype(float),
                (idx % 2).astype(float),
            ]
            if level >= 2:
                patterns.append(np.full(L, 0.5))
            # keep each bound pattern once (degree 0 and 1 collapse some)
            uniq = []
            for p in patterns:
                if not any(np.array_equal(p, q) for q in uniq):
                    uniq.append(p)
            lists.append(uniq)
    return lists


def _grid_sizes(cells, first: list[int], level: int) -> list[int]:
    """Per-cell lengths of ``_grid_weight_lists(cells, level)``, given those at level 1.

    A polytope cell with m > 1 vertices has m choices per level; a single
    vertex stays one choice.  Interval cells gain the half pattern at level 2.
    """
    sizes = []
    for (kind, _), n1 in zip(cells, first):
        if kind == "polytope":
            sizes.append(n1 * level if n1 > 1 else 1)
        else:
            sizes.append(n1 + (level >= 2))
    return sizes


def _coeff_batches(cells, weight_arrays):
    """Per-cell (batch, L) coefficient arrays from per-cell weights."""
    out = []
    for (kind, arr), w in zip(cells, weight_arrays):
        if kind == "polytope":
            out.append(w @ arr)
        else:
            out.append(arr[0][None, :] * (1.0 - w) + arr[1][None, :] * w)
    return out


def _member_from_weights(fam: MatrixFamily, weights) -> list[Polynomial]:
    grid = []
    for i in range(fam.n):
        row = []
        for j in range(fam.n):
            e = fam.entry(i, j)
            w = np.asarray(weights[i * fam.n + j], dtype=float)
            if isinstance(e, PolytopeEntry):
                row.append(e.member(w))
            else:
                w = w[: e.length]  # weights past a shorter cell's length mix padding zeros
                row.append(e.member(e.lower * (1.0 - w) + e.upper * w))
        grid.append(row)
    return grid


def member_margin(fam: MatrixFamily, weights) -> tuple[float, complex | None]:
    """Margin and worst root of a single member, ``member_margins``' batch of one."""
    det = det_matrix(_member_from_weights(fam, weights))
    margins, roots = member_margins(fam.region, det.coeffs[None])
    return float(margins[0]), roots[0]


def _weights_as_tuples(weight_arrays, row: int):
    return tuple(tuple(float(x) for x in w[row]) for w in weight_arrays)


def sample_family(
    fam: MatrixFamily,
    budget: int = 10000,
    seed: int | None = 0,
    scheme: str = "random",
) -> SampleReport:
    """Sample members of the family and report the worst boundary margin.

    ``scheme="random"`` draws ``budget`` members with Dirichlet/uniform
    weights.  ``scheme="grid"`` walks a structured mixed-radix grid whose
    first level is every all-vertex member (vertex polynomials for polytope
    cells, bound patterns for interval cells), then interior mixes, stopping
    at ``budget`` members.  Members are measured in chunks of 2048, and only
    those ``margins_exceed`` cannot clear above the worst margin so far are
    root-solved (see the module docstring).  The worst member is re-measured
    through the exact single-member path before reporting.
    """
    if budget < 1:
        raise ValidationFailure("sampling budget must be positive")
    if scheme not in ("random", "grid"):
        raise ValidationFailure(f"unknown sampling scheme: {scheme!r}")
    if any(v.truncated for row in fam.entries for e in row for v in entry_vertices(e)):
        raise ValidationFailure("a vertex polynomial lost coefficients below the truncation floor")
    cells = _cell_coeff_arrays(fam)
    n = fam.n

    worst_margin = math.inf
    worst_weights = None
    worst_root = None
    total = 0

    def consume(weight_arrays):
        nonlocal worst_margin, worst_weights, worst_root, total
        coeffs = _coeff_batches(cells, weight_arrays)
        det = _laplace([coeffs[i * n : (i + 1) * n] for i in range(n)])
        if not np.isfinite(det).all():
            raise ValidationFailure("a sampled member's determinant overflows float64")
        margins = np.full(det.shape[0], math.inf)
        roots = [None] * det.shape[0]

        def measure(rows):
            margins[rows], found = member_margins(fam.region, det[rows])
            for r, root in zip(rows, found):
                roots[r] = root

        # the first chunk's bar is the exact worst of its prefix
        head = min(_PREFIX, det.shape[0]) if total == 0 else 0
        measure(np.arange(head))
        bar = min(worst_margin, float(margins.min()))
        rest = np.arange(head, det.shape[0])
        measure(rest[~margins_exceed(fam.region, det[rest], bar + _SLACK * (1.0 + abs(bar)))])
        r = int(np.argmin(margins))
        if margins[r] < worst_margin:
            worst_margin = float(margins[r])
            worst_weights = _weights_as_tuples(weight_arrays, r)
            worst_root = roots[r]
        total += margins.size

    if scheme == "grid":
        first = [len(l) for l in _grid_weight_lists(cells, level=1)]
        level, sizes = 1, first
        while True:
            nxt = _grid_sizes(cells, first, level + 1)
            if math.prod(nxt) > budget or nxt == sizes:
                break
            level, sizes = level + 1, nxt
        lists = _grid_weight_lists(cells, level)
        grid_total = math.prod(sizes)
        count = min(grid_total, budget)
        chunk = 2048
        start = 0
        while start < count:
            stop = min(start + chunk, count)
            weight_arrays = [
                np.zeros((stop - start, len(lists[c][0]))) for c in range(len(lists))
            ]
            for row, flat in enumerate(range(start, stop)):
                rem = flat
                for c in range(len(lists) - 1, -1, -1):
                    digit = rem % sizes[c]
                    rem //= sizes[c]
                    weight_arrays[c][row] = lists[c][digit]
            consume(weight_arrays)
            start = stop
    else:
        rng = np.random.default_rng(seed)
        chunk = 2048
        remaining = budget
        while remaining > 0:
            b = min(chunk, remaining)
            consume(_random_weights(cells, b, rng))
            remaining -= b

    exact_margin, exact_root = member_margin(fam, worst_weights)
    record = MemberRecord(weights=worst_weights, margin=exact_margin, worst_root=exact_root)
    verdict = "UnstableSampleFound" if exact_margin <= 0.0 else "StableAtAllSamples"
    return SampleReport(
        samples=total,
        worst_margin=exact_margin,
        worst_member=record,
        verdict=verdict,
        seed=seed if scheme == "random" else None,
        scheme=scheme,
    )


# ----------------------------------------------------------------------
# witness-guided counterexample search


def _weights_from_hint(fam: MatrixFamily, hint) -> list:
    """Translate a configuration witness into per-cell weight vectors.

    ``hint`` carries the configuration and its lambda values: pattern cells
    get the convex mix of their edge endpoints, other cells their chosen
    vertex.  Interval cells translate endpoint choices into bound patterns.
    The configuration may be given as an ``EdgeConfiguration`` or as its index.
    """
    cfg, lam = hint
    if isinstance(cfg, (int, np.integer)):
        cfg = config_at(fam, int(cfg))
    n = fam.n
    weights = []
    lam_by_col = {c: t for c, t in zip(cfg.lambda_columns, lam)}
    for i in range(n):
        for j in range(n):
            e = fam.entry(i, j)
            base_poly = cfg.base[i][j]
            if isinstance(e, PolytopeEntry):
                m = e.m
                w = np.zeros(m)
                if cfg.sigma[j] == i:
                    choice = cfg.edge_choice[j]
                    t = lam_by_col.get(j, 0.0)
                    if choice.index0 is not None and choice.index1 is not None:
                        w[choice.index0] += 1.0 - t
                        w[choice.index1] += t
                    else:
                        w[_match_vertex(e, base_poly)] = 1.0
                else:
                    w[_match_vertex(e, base_poly)] = 1.0
            else:
                L = e.length
                if cfg.sigma[j] == i:
                    choice = cfg.edge_choice[j]
                    t = lam_by_col.get(j, 0.0)
                    w0 = _interval_pattern(e, choice.p0)
                    w1 = _interval_pattern(e, choice.p1)
                    w = w0 * (1.0 - t) + w1 * t
                else:
                    w = _interval_pattern(e, base_poly)
            weights.append(w)
    return weights


def _match_vertex(entry: PolytopeEntry, poly: Polynomial) -> int:
    for r, v in enumerate(entry.vertices):
        if v == poly or v.isclose(poly):
            return r
    return 0


def _interval_pattern(entry: IntervalEntry, poly: Polynomial) -> np.ndarray:
    L = entry.length
    c = np.zeros(L)
    c[: len(poly.coeffs)] = poly.coeffs[:L]
    width = entry.upper - entry.lower
    w = np.zeros(L)
    solid = width > 0.0
    w[solid] = np.clip((c[solid] - entry.lower[solid]) / width[solid], 0.0, 1.0)
    return w


def find_counterexample_near(
    fam: MatrixFamily,
    hint,
    budget: int = 400,
    seed: int = 0,
    target: float = 0.0,
) -> MemberRecord | None:
    """Turn an analysis witness into an explicit unstable member.

    ``hint`` is ``(config, lambda_values)`` from an Unstable verdict, where
    the configuration may be an ``EdgeConfiguration`` or its index.  The hinted
    member is measured exactly; a seeded local search then perturbs the
    weights with shrinking steps until the margin drops to ``target`` or
    the budget runs out.  A witness usually sits right on a boundary
    crossing (margin near zero), so a negative ``target`` digs past the
    crossing into the decisively unstable part of the family.  Returns the
    best member found if its margin is nonpositive, else None.
    """
    weights = [np.asarray(w, dtype=float) for w in _weights_from_hint(fam, hint)]
    margin, root = member_margin(fam, weights)
    goal = min(target, 0.0)
    if margin <= goal:
        return MemberRecord(
            weights=tuple(tuple(float(x) for x in w) for w in weights),
            margin=margin,
            worst_root=root,
        )

    rng = np.random.default_rng(seed)
    kinds = [kind for kind, _ in _cell_coeff_arrays(fam)]
    best_w = [w.copy() for w in weights]
    best_margin, best_root = margin, root
    step = 0.25
    for trial in range(budget):
        cand = []
        for w, kind in zip(best_w, kinds):
            p = w + step * rng.normal(size=w.shape)
            if kind == "polytope":
                p = np.clip(p, 0.0, None)
                s = p.sum()
                p = p / s if s > 0.0 else np.full_like(p, 1.0 / p.size)
            else:
                p = np.clip(p, 0.0, 1.0)
            cand.append(p)
        m, r = member_margin(fam, cand)
        if m < best_margin:
            best_w, best_margin, best_root = cand, m, r
            if best_margin <= goal:
                break
        if trial % 50 == 49:
            step *= 0.6
    if best_margin <= 0.0:
        return MemberRecord(
            weights=tuple(tuple(float(x) for x in w) for w in best_w),
            margin=best_margin,
            worst_root=best_root,
        )
    return None
