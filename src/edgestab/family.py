"""Uncertain matrix families: polytope and interval entries, segments, validation.

Every matrix entry is either a polytope entry (the convex hull of finitely
many vertex polynomials) or an interval entry (independent bounds on each
coefficient).  Interval entries expose their four Kharitonov vertex
polynomials and the four exposed edges connecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import BoundOrderViolation
from .poly import Polynomial


@dataclass(frozen=True)
class PolytopeEntry:
    """Convex hull of vertex polynomials."""

    vertices: tuple[Polynomial, ...]

    def __init__(self, vertices: Sequence[Polynomial]):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a polytope entry needs at least one vertex")
        for v in vs:
            if not isinstance(v, Polynomial):
                raise TypeError("polytope vertices must be Polynomial instances")
        object.__setattr__(self, "vertices", vs)

    @property
    def m(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class IntervalEntry:
    """Independent coefficient bounds ``lower[l] <= q_l <= upper[l]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1:
            raise ValueError("bounds must be one-dimensional")
        if lo.size != hi.size or lo.size == 0:
            raise ValueError("lower and upper bounds must have equal, positive length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        lo = lo.copy()
        hi = hi.copy()
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def length(self) -> int:
        return self.lower.size

    @property
    def is_point(self) -> bool:
        return bool(np.array_equal(self.lower, self.upper))

    def _check_order(self):
        bad = np.nonzero(self.lower > self.upper)[0]
        if bad.size:
            raise BoundOrderViolation(
                f"lower bound exceeds upper bound at coefficient index {int(bad[0])}"
            )


Entry = Union[PolytopeEntry, IntervalEntry]


@dataclass(frozen=True)
class EdgeSegment:
    """One-parameter segment ``lam*p1 + (1-lam)*p0`` between two polynomials.

    ``index0``/``index1`` optionally record which vertex of the owning entry
    each endpoint is (vertex list position, or Kharitonov index 0..3).
    """

    p0: Polynomial
    p1: Polynomial
    index0: int | None = None
    index1: int | None = None

    @property
    def degenerate(self) -> bool:
        return self.p0 == self.p1


# ----------------------------------------------------------------------
# Kharitonov construction for interval entries.
#
# The four vertex polynomials alternate lower/upper bounds with period four:
#   c1: L L U U L L U U ...
#   c2: L U U L L U U L ...
#   c3: U L L U U L L U ...
#   c4: U U L L U U L L ...
# and the exposed edges connect (c1,c2), (c2,c4), (c4,c3), (c3,c1).

_KHARITONOV_LOWER_PHASES = (
    (0, 1),  # c1 takes the lower bound when l % 4 is 0 or 1
    (0, 3),  # c2
    (1, 2),  # c3
    (2, 3),  # c4
)

KHARITONOV_EDGE_PAIRS = ((0, 1), (1, 3), (3, 2), (2, 0))


def kharitonov_vertices(entry: IntervalEntry) -> list[Polynomial]:
    """The four Kharitonov vertex polynomials of an interval entry."""
    entry._check_order()
    out = []
    phases = np.arange(entry.length) % 4
    for lower_at in _KHARITONOV_LOWER_PHASES:
        take_lower = np.isin(phases, lower_at)
        out.append(Polynomial(np.where(take_lower, entry.lower, entry.upper)))
    return out


def kharitonov_edges(entry: IntervalEntry) -> list[EdgeSegment]:
    """The four exposed edges between Kharitonov vertices.

    Point intervals yield four degenerate segments; degenerate segments are
    kept and flagged rather than silently dropped.
    """
    verts = kharitonov_vertices(entry)
    return [
        EdgeSegment(verts[a], verts[b], index0=a, index1=b)
        for a, b in KHARITONOV_EDGE_PAIRS
    ]


def polytope_edges(entry: PolytopeEntry) -> list[EdgeSegment]:
    """All vertex-pair segments of a polytope entry; empty when m == 1."""
    out = []
    for r in range(entry.m):
        for t in range(r + 1, entry.m):
            out.append(EdgeSegment(entry.vertices[r], entry.vertices[t], index0=r, index1=t))
    return out


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding.  ``level`` is ``error`` or ``warning``."""

    level: str
    code: str
    message: str
    cell: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "code": self.code,
            "message": self.message,
            "cell": list(self.cell) if self.cell is not None else None,
        }


class MatrixFamily:
    """Square grid of uncertain entries, analyzed against a stability region."""

    __slots__ = ("entries", "region")

    def __init__(self, entries: Sequence[Sequence[Entry]], region):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0:
            raise ValueError("a family needs at least one entry")
        for row in rows:
            if len(row) != n:
                raise ValueError("entry grid must be square")
            for e in row:
                if not isinstance(e, (PolytopeEntry, IntervalEntry)):
                    raise TypeError("entries must be PolytopeEntry or IntervalEntry")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "region", region)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFamily is immutable")

    def __reduce__(self):
        # immutability blocks the default slot-state restore; rebuild instead
        return (MatrixFamily, (self.entries, self.region))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def mode(self) -> str:
        kinds = {
            "polytope" if isinstance(e, PolytopeEntry) else "interval"
            for row in self.entries
            for e in row
        }
        return kinds.pop() if len(kinds) == 1 else "mixed"

    def entry(self, i: int, j: int) -> Entry:
        return self.entries[i][j]


def validate(fam: MatrixFamily) -> list[Diagnostic]:
    """Structural diagnostics; an empty list means the family is well formed.

    Squareness and entry typing are enforced at construction, so this covers
    value-level problems: bound-order violations (errors), duplicate polytope
    vertices (warnings), and mixed entry modes (warning, since the interval
    driver refuses them).
    """
    out: list[Diagnostic] = []
    for i, row in enumerate(fam.entries):
        for j, e in enumerate(row):
            if isinstance(e, IntervalEntry):
                if np.any(e.lower > e.upper):
                    bad = int(np.nonzero(e.lower > e.upper)[0][0])
                    out.append(
                        Diagnostic(
                            "error",
                            "bound-order",
                            f"lower bound exceeds upper bound at coefficient {bad}",
                            (i, j),
                        )
                    )
            else:
                for r in range(e.m):
                    if any(e.vertices[r] == e.vertices[t] for t in range(r)):
                        out.append(
                            Diagnostic(
                                "warning",
                                "duplicate-vertex",
                                f"vertex {r} repeats an earlier vertex",
                                (i, j),
                            )
                        )
                        break
    if fam.mode == "mixed":
        out.append(
            Diagnostic(
                "warning",
                "mixed-mode",
                "family mixes polytope and interval entries; the interval driver requires interval entries only",
            )
        )
    return out
