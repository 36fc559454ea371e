"""Edge-configuration enumeration for uncertain matrix families.

Robust stability of the full family reduces to checking a finite union of
edge configurations.  A configuration fixes a column-to-row pattern sigma,
puts one chosen entry segment in cell (sigma(j), j) of every column j, and
pins every other cell to one of its vertices.  The free parameters are the
segment coordinates, one per column whose chosen segment is nondegenerate,
so each configuration is a multi-affine box with k <= n parameters.

Enumeration is streaming and deterministic:

* patterns run over permutations, even permutations first and odd second,
  lexicographic by one-line form within each parity class;
* within a pattern, choices advance as a column-major mixed-radix counter
  (per column: the edge digit, then the vertex digits for the remaining rows
  in ascending row order; the last digit moves fastest).

Any slice of the stream can be reconstructed from its index range.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatch
from .family import (
    EdgeSegment,
    IntervalEntry,
    MatrixFamily,
    PolytopeEntry,
    kharitonov_edges,
    kharitonov_vertices,
    polytope_edges,
)
from .poly import Polynomial


def _parity(perm: tuple[int, ...]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return inv % 2


def permutations_in_order(n: int) -> list[tuple[int, ...]]:
    """All permutations of range(n): even ones first, lex within parity class."""
    evens, odds = [], []
    for p in itertools.permutations(range(n)):
        (evens if _parity(p) == 0 else odds).append(p)
    return evens + odds


def entry_vertices(entry) -> list[Polynomial]:
    """Vertex polynomials used for off-pattern cells."""
    if isinstance(entry, PolytopeEntry):
        return list(entry.vertices)
    return kharitonov_vertices(entry)


def entry_edges(entry) -> list[EdgeSegment]:
    """Segments used for pattern cells.

    A fixed polytope entry (one vertex) contributes a single degenerate
    segment so that it stays enumerable; interval entries contribute their
    four Kharitonov edges.
    """
    if isinstance(entry, IntervalEntry):
        return kharitonov_edges(entry)
    if entry.m == 1:
        v = entry.vertices[0]
        return [EdgeSegment(v, v, index0=0, index1=0)]
    return polytope_edges(entry)


class EdgeConfiguration:
    """One member family of the edge-configuration set.

    ``base`` holds the lambda=0 matrix: segment starts in the pattern cells,
    the chosen vertex polynomials (``vertex_choice``, keyed by cell)
    elsewhere.  ``lambda_columns`` lists the columns whose segment is
    nondegenerate, in ascending order; parameter slot l corresponds to
    ``lambda_columns[l]``, and its cell runs from the segment's ``p0`` to
    its ``p1``.
    """

    __slots__ = ("index", "sigma", "edge_choice", "vertex_index", "base", "lambda_columns")

    def __init__(self, index, sigma, edge_choice, vertex_choice, vertex_index=None):
        self.index = index
        self.sigma = tuple(sigma)
        self.edge_choice = tuple(edge_choice)
        self.vertex_index = dict(vertex_index) if vertex_index else {}
        n = len(self.sigma)
        grid: list[list[Polynomial | None]] = [[None] * n for _ in range(n)]
        for j, seg in enumerate(self.edge_choice):
            grid[self.sigma[j]][j] = seg.p0
        for (i, j), poly in vertex_choice.items():
            grid[i][j] = poly
        if any(cell is None for row in grid for cell in row):
            raise ValueError("configuration does not cover the grid")
        self.base = tuple(tuple(row) for row in grid)
        self.lambda_columns = tuple(j for j, seg in enumerate(self.edge_choice) if not seg.degenerate)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def k(self) -> int:
        return len(self.lambda_columns)

    def sigma_one_line(self) -> tuple[int, ...]:
        """Pattern in 1-based one-line notation, for display."""
        return tuple(s + 1 for s in self.sigma)

    def instantiate(self, lam) -> tuple[tuple[Polynomial, ...], ...]:
        """Concrete matrix at the given lambda vector (one value per slot)."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.size != self.k:
            raise DimensionMismatch(
                f"expected {self.k} segment parameters, got {lam.size}"
            )
        if np.any(lam < -1e-12) or np.any(lam > 1.0 + 1e-12):
            raise DimensionMismatch("segment parameters must lie in [0, 1]")
        grid = [list(row) for row in self.base]
        for slot, j in enumerate(self.lambda_columns):
            seg = self.edge_choice[j]
            grid[self.sigma[j]][j] = seg.p0 + (seg.p1 - seg.p0) * float(lam[slot])
        return tuple(tuple(row) for row in grid)

    def describe(self) -> dict:
        """Report-friendly summary of the discrete choices."""
        return {
            "index": self.index,
            "sigma": list(self.sigma_one_line()),
            "k": self.k,
            "lambda_columns": list(self.lambda_columns),
            "edges": [
                {
                    "col": j,
                    "row": self.sigma[j],
                    "endpoints": [seg.index0, seg.index1],
                    "degenerate": seg.degenerate,
                }
                for j, seg in enumerate(self.edge_choice)
            ],
            "vertices": [
                {"row": i, "col": j, "index": idx}
                for (i, j), idx in sorted(self.vertex_index.items())
            ],
        }


def _choice_lists(fam: MatrixFamily, pattern: tuple[int, ...]) -> list[tuple]:
    """One pattern's digit layout: per column j, ``(j, edges)`` for its
    pattern cell, then ``((i, j), vertices)`` for every other row i in
    ascending order."""
    out = []
    for j in range(fam.n):
        out.append((j, entry_edges(fam.entry(pattern[j], j))))
        out.extend(((i, j), entry_vertices(fam.entry(i, j))) for i in range(fam.n) if i != pattern[j])
    return out


def _blocks(fam: MatrixFamily):
    """Each pattern in stream order, with its choice lists and digit radices."""
    for pattern in permutations_in_order(fam.n):
        choices = _choice_lists(fam, pattern)
        yield pattern, choices, [len(options) for _, options in choices]


def count_configs(fam: MatrixFamily) -> int:
    """Total number of configurations in the stream, without materializing it."""
    return sum(math.prod(radices) for _, _, radices in _blocks(fam))


def _digits_of(value: int, radices: list[int]) -> list[int]:
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        digits[pos] = value % radices[pos]
        value //= radices[pos]
    return digits


def _config_from_digits(index, pattern, choices, digits) -> EdgeConfiguration:
    edge_choice, vertex_choice, vertex_index = [], {}, {}
    for (place, options), d in zip(choices, digits):
        if isinstance(place, int):
            edge_choice.append(options[d])
        else:
            vertex_choice[place] = options[d]
            vertex_index[place] = d
    return EdgeConfiguration(index, pattern, edge_choice, vertex_choice, vertex_index)


def iter_configs(fam: MatrixFamily, start: int = 0, stop: int | None = None):
    """Yield configurations with indices in [start, stop), in stream order."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    if stop is None:
        stop = math.inf
    index = 0
    for pattern, choices, radices in _blocks(fam):
        size = math.prod(radices)
        if index >= stop:
            break
        if index + size > start:
            local = max(start - index, 0)
            digits = _digits_of(local, radices)
            while index + local < stop and local < size:
                yield _config_from_digits(index + local, pattern, choices, digits)
                local += 1
                # odometer step, last digit fastest
                for pos in range(len(digits) - 1, -1, -1):
                    digits[pos] += 1
                    if digits[pos] < radices[pos]:
                        break
                    digits[pos] = 0
        index += size


def config_at(fam: MatrixFamily, index: int) -> EdgeConfiguration:
    """The configuration at one stream position."""
    if index < 0:
        raise IndexError(f"configuration index {index} out of range")
    for cfg in iter_configs(fam, start=index, stop=index + 1):
        return cfg
    raise IndexError(f"configuration index {index} out of range")
