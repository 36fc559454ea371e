"""Brute-force sampling check for matrix families.

Independent of the edge-configuration machinery: members are drawn directly
from the family (random simplex/box weights or a structured grid), and root
margins are measured against the region.  Every member is measured on one
path, which keeps a batch of B members coefficient-first from the cell mix
to the screen: each cell is an (L, B) array at the cell's own length, row l
holding every member's coefficient of s**l (``_coeff_batches``).  A polytope
cell with several vertices is mixed as one transposed matrix product at the
family's longest cell and cut to its leading rows, an interval cell
coefficient by coefficient, and a single-vertex cell, the same in every
member, enters as a stride-0 broadcast of its vertex, with nothing mixed or
copied.  One ``det._laplace`` call takes the cells' transposes and hands
back the (L, B) determinants as the transpose of the array it built, so no
product runs over padding and no layout is copied.
``region.margins_exceed`` screens those determinants as they are, and
``region.member_margins``, the analyzer's member-margin rule, measures the
members it leaves.  ``member_margin`` is that path's batch of one, and
serves the witness-guided counterexample search.  The worst sampled member
is re-measured through it before it is reported: a polytope cell's mix is
a matrix product, and with three or more vertices it can round differently
at batch 1 than at batch 2048, so the re-measure is what makes
``member_margin`` reproduce every record bit for bit.  Only the members
that could still be the worst are root-solved, in blocks of 64: the first
block of the first chunk, and then every member that
``region.margins_exceed`` (Lipatov and Sokolov's screen, then a guarded
Routh test) cannot clear above the running worst margin U plus a slack of
1e-6 (1 + |U|).  Each block that lowers U clears the members still waiting
again, at the new U.  A cleared member's computed margin exceeds U, so it
can never be the first member of least margin, and every report is bitwise
the one that solving every member gives.  Disks clear nothing, so every
disk member is solved.  A family whose every determinant is a nonzero
constant reports its first sampled member, with margin +inf and no root.
Families whose vertex polynomials (polytope vertices or Kharitonov vertices
of interval cells) lost coefficients at construction are refused, as the
analyzer calls them Degenerate, and so are families with a sampled member
whose determinant overflows float64.  Used to cross-validate the symbolic
decision path and to hunt for explicit unstable members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .det import _laplace
from .edges import config_at, entry_vertices
from .errors import ValidationFailure
from .family import _KHARITONOV_LOWER_PHASES, MatrixFamily, PolytopeEntry
from .region import margins_exceed, member_margins

# Members per batch.
_CHUNK = 2048
# Members solved exactly per block; each block may lower the bar.
_BLOCK = 64
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
    """Per-cell ``(kind, arr, length)``: (choices, L) coefficient arrays padded to a common length L.

    A polytope cell's rows are its vertex coefficient vectors; weights are
    simplex coordinates.  An interval cell contributes two rows (lower,
    upper); weights are per-coefficient mixes, handled separately.
    ``length`` is the cell's own length: its longest vertex, or its bounds'
    length.  Weights keep the padded shapes; only the mixed cells are cut.
    """
    entries = [fam.entry(i, j) for i in range(fam.n) for j in range(fam.n)]
    lengths = [
        max(len(v.coeffs) for v in e.vertices) if isinstance(e, PolytopeEntry) else e.length for e in entries
    ]
    max_len = max(lengths)
    cells = []
    for e, length in zip(entries, lengths):
        if isinstance(e, PolytopeEntry):
            arr = np.zeros((e.m, max_len))
            for r, v in enumerate(e.vertices):
                arr[r, : len(v.coeffs)] = v.coeffs
            cells.append(("polytope", arr, length))
        else:
            arr = np.zeros((2, max_len))
            arr[0, : e.length] = e.lower
            arr[1, : e.length] = e.upper
            cells.append(("interval", arr, length))
    return cells


def _random_weights(cells, batch: int, rng: np.random.Generator):
    """Dirichlet simplex weights per polytope cell, uniform box per interval."""
    out = []
    for kind, arr, _ in cells:
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
    for kind, arr, _ in cells:
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
    for (kind, _, _), n1 in zip(cells, first):
        if kind == "polytope":
            sizes.append(n1 * level if n1 > 1 else 1)
        else:
            sizes.append(n1 + (level >= 2))
    return sizes


def _coeff_batches(cells, weight_arrays):
    """Per-cell (length, batch) coefficient-first arrays from per-cell weights, each at its own length.

    Row l of a cell's array holds its coefficient of s**l in every member
    of the batch, contiguously, so ``_laplace`` convolves whole rows and no
    product runs over padding.  A single-vertex cell is the same in every
    member and enters as a stride-0 broadcast of its vertex, with nothing
    mixed or copied.  A polytope cell with several vertices is mixed as the
    transposed product ``arr.T @ w.T`` at the padded width, which rounds as
    the row-major mix ``w @ arr`` does, and cut to its leading rows; an
    interval cell is mixed coefficient by coefficient.  The padding only
    ever added exact zeros, and ``_polymul`` sums in ascending powers of the
    cell whatever the lengths, so every determinant is the padded
    expansion's bit for bit, up to the sign of a zero.  The cut is kept for
    speed: no product runs over padding.
    """
    out = []
    for (kind, arr, length), w in zip(cells, weight_arrays):
        if kind == "interval":
            w = np.ascontiguousarray(w[:, :length].T)
            out.append(arr[0, :length, None] * (1.0 - w) + arr[1, :length, None] * w)
        elif arr.shape[0] == 1:
            out.append(np.broadcast_to(arr[0, :length, None], (length, w.shape[0])))
        else:
            out.append((arr.T @ w.T)[:length])
    return out


def _determinants(n: int, coeffs) -> np.ndarray:
    """(L, batch) coefficient-first determinants of the members whose cells are ``coeffs``.

    ``_laplace`` takes each (length, batch) cell as its (batch, length)
    transpose, expands it coefficient-first again, and returns the
    transpose of its coefficient-first result, so no layout is copied on
    the way in or out.
    """
    return _laplace([[c.T for c in coeffs[i * n : (i + 1) * n]] for i in range(n)]).T


def member_margin(fam: MatrixFamily, weights) -> tuple[float, complex | None]:
    """Margin and worst root of a single member, the sampled path's batch of one.

    ``weights`` holds one vector per cell, row-major: simplex weights for a
    polytope cell, per-coefficient mixes for an interval cell, at the cell's
    length or at the padded width that sampled records carry.  Weights off
    the simplex, a mix that leaves the interval box by more than 1e-9 and a
    determinant that overflows float64 raise ``ValueError``.
    """
    cells = _cell_coeff_arrays(fam)
    entries = [e for row in fam.entries for e in row]
    rows = []
    for (kind, arr, _), e, w in zip(cells, entries, weights, strict=True):
        w = np.asarray(w, dtype=float)
        if kind == "polytope":
            if w.size != e.m:
                raise ValueError("weight count must match vertex count")
            if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
                raise ValueError("weights must be nonnegative and sum to one")
        else:
            if w.size not in (e.length, arr.shape[1]):
                raise ValueError("weight count must match the bound length")
            w = np.pad(w, (0, arr.shape[1] - w.size))
        rows.append(w[None])
    coeffs = _coeff_batches(cells, rows)
    for (kind, _, _), e, c in zip(cells, entries, coeffs):
        if kind == "interval" and (np.any(c[:, 0] < e.lower - 1e-9) or np.any(c[:, 0] > e.upper + 1e-9)):
            raise ValueError("coefficients leave the interval box")
    det = _determinants(fam.n, coeffs)
    if not np.isfinite(det).all():
        raise ValueError("the member's determinant overflows float64")
    margins, roots = member_margins(fam.region, det.T)
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
    root-solved, 64 at a time (see the module docstring).  The worst member is re-measured
    by ``member_margin``, the batch of one, before reporting.
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
    total = 0

    def consume(weight_arrays):
        nonlocal worst_margin, worst_weights, total
        det = _determinants(n, _coeff_batches(cells, weight_arrays))
        if not np.isfinite(det).all():
            raise ValidationFailure("a sampled member's determinant overflows float64")
        margins = np.full(det.shape[1], math.inf)
        # solve the members the bar cannot clear a block at a time, and clear
        # the rest again each time a block lowers the bar; the first chunk's
        # first bar is the exact worst of its first block
        pending, bar, cleared_at = np.arange(det.shape[1]), worst_margin, math.inf
        while pending.size:
            if bar < cleared_at:
                pending = pending[~margins_exceed(fam.region, det[:, pending], bar + _SLACK * (1.0 + abs(bar)))]
                cleared_at = bar
            block, pending = pending[:_BLOCK], pending[_BLOCK:]
            if block.size:
                margins[block] = member_margins(fam.region, det[:, block].T)[0]
                bar = min(bar, float(margins[block].min()))
        r = int(np.argmin(margins))
        # a family whose every determinant is a nonzero constant keeps its first member
        if margins[r] < worst_margin or worst_weights is None:
            worst_margin = float(margins[r])
            worst_weights = _weights_as_tuples(weight_arrays, r)
        total += margins.size

    if scheme == "grid":
        first = [len(l) for l in _grid_weight_lists(cells, level=1)]
        level, sizes = 1, first
        while True:
            nxt = _grid_sizes(cells, first, level + 1)
            if math.prod(nxt) > budget or nxt == sizes:
                break
            level, sizes = level + 1, nxt
        tables = [np.array(choices) for choices in _grid_weight_lists(cells, level)]
        count = min(math.prod(sizes), budget)
        for start in range(0, count, _CHUNK):
            # mixed-radix digits of the chunk's flat indices, the last cell fastest
            rem = np.arange(start, min(start + _CHUNK, count))
            weight_arrays = [None] * len(tables)
            for c in range(len(tables) - 1, -1, -1):
                weight_arrays[c] = tables[c][rem % sizes[c]]
                rem = rem // sizes[c]
            consume(weight_arrays)
    else:
        rng = np.random.default_rng(seed)
        for start in range(0, budget, _CHUNK):
            consume(_random_weights(cells, min(_CHUNK, budget - start), rng))

    margin, root = member_margin(fam, worst_weights)
    return SampleReport(
        samples=total,
        worst_margin=margin,
        worst_member=MemberRecord(weights=worst_weights, margin=margin, worst_root=root),
        verdict="UnstableSampleFound" if margin <= 0.0 else "StableAtAllSamples",
        seed=seed if scheme == "random" else None,
        scheme=scheme,
    )


# ----------------------------------------------------------------------
# witness-guided counterexample search


def _vertex_weights(entry, r: int) -> np.ndarray:
    """Weights of the entry's vertex ``r``.

    One-hot for a polytope cell.  For an interval cell, Kharitonov vertex
    ``r``'s bound pattern: 1 where it takes the upper bound, 0 where it takes
    the lower one or the bounds meet.
    """
    if isinstance(entry, PolytopeEntry):
        return np.eye(entry.m)[r]
    take_lower = np.isin(np.arange(entry.length) % 4, _KHARITONOV_LOWER_PHASES[r])
    return np.where(take_lower | (entry.upper == entry.lower), 0.0, 1.0)


def _weights_from_hint(fam: MatrixFamily, hint) -> list:
    """Translate a configuration witness into per-cell weight vectors.

    ``hint`` carries the configuration and its lambda values (None when k is
    0, as in a witness of a configuration without parameters): a pattern cell
    mixes the weights of its segment's end vertices ``index0`` and ``index1``
    by its lambda, every other cell takes its vertex ``vertex_index``.  The
    configuration may be given as an ``EdgeConfiguration`` or as its index.
    """
    cfg, lam = hint
    if isinstance(cfg, (int, np.integer)):
        cfg = config_at(fam, int(cfg))
    lam_by_col = dict(zip(cfg.lambda_columns, () if lam is None else lam))
    weights = []
    for i in range(fam.n):
        for j in range(fam.n):
            e = fam.entry(i, j)
            if cfg.sigma[j] == i:
                seg, t = cfg.edge_choice[j], lam_by_col.get(j, 0.0)
                w0, w1 = _vertex_weights(e, seg.index0), _vertex_weights(e, seg.index1)
                weights.append(w0 * (1.0 - t) + w1 * t)
            else:
                weights.append(_vertex_weights(e, cfg.vertex_index[i, j]))
    return weights


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
    member is measured by ``member_margin``; a seeded local search then perturbs the
    weights with shrinking steps until the margin drops to ``target`` or
    the budget runs out.  A witness usually sits right on a boundary
    crossing (margin near zero), so a negative ``target`` digs past the
    crossing into the decisively unstable part of the family.  Returns the
    best member found if its margin is nonpositive, else None.
    """
    best_w = _weights_from_hint(fam, hint)
    best_margin, best_root = member_margin(fam, best_w)
    goal = min(target, 0.0)
    rng = np.random.default_rng(seed)
    kinds = [kind for kind, _, _ in _cell_coeff_arrays(fam)]
    step = 0.25
    for trial in range(budget if best_margin > goal else 0):
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
