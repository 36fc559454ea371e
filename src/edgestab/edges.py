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

Within a pattern a configuration is only a vertex index per cell.  A
``VertexTable``, built once per analysis, holds every cell's vertex rows
and turns a stream range into ``ends``, the vertex index of every cell at
lambda = 0 and lambda = 1, by one mixed-radix decomposition per pattern
block.  The drivers decide configurations from ``ends`` alone;
``iter_configs`` and ``config_at`` build ``EdgeConfiguration`` objects from
the same table, for reports, listings, witnesses and the oracle's hint.
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


def permutations_in_order(n: int) -> list[tuple[int, ...]]:
    """All permutations of range(n): even ones first, lex within parity class."""
    # a stable sort by inversion parity keeps itertools' lexicographic order
    return sorted(
        itertools.permutations(range(n)), key=lambda p: sum(a > b for a, b in itertools.combinations(p, 2)) % 2
    )


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


class VertexTable:
    """One family's cells as arrays indexed by (cell, vertex index), built once per analysis.

    Cells are row-major, ``c = i * n + j``.  ``vertices[c]`` lists the cell's
    ``entry_vertices``; ``rows[c, v]`` holds vertex v's coefficients
    zero-padded to the family's longest vertex, ``width[c]`` the length of
    the cell's longest vertex, ``truncated[c, v]`` vertex v's flag, and
    ``same[c, a, b]`` says whether vertices a and b are equal.
    ``segments[c]`` holds the ``(index0, index1)`` of each of the cell's
    ``entry_edges``.  In ``ends`` a configuration's lambda cells are those
    whose two ends differ, and slot l is the lambda cell of its l-th such
    column.  Callers gather each cell's rows at ``width[c]``: a determinant
    does not depend on its cells' zero padding (``det._polymul``), so one
    width per cell serves every member.
    """

    def __init__(self, fam: MatrixFamily):
        n = self.n = fam.n
        entries = [fam.entry(c // n, c % n) for c in range(n * n)]
        self.cells = np.arange(n * n)
        self.vertices = [entry_vertices(e) for e in entries]
        self.segments = [np.array([(s.index0, s.index1) for s in entry_edges(e)]) for e in entries]
        counts = [len(vs) for vs in self.vertices]
        m = max(counts)
        self.rows = np.zeros((n * n, m, max(v.coeffs.size for vs in self.vertices for v in vs)))
        self.width = np.array([max(v.coeffs.size for v in vs) for vs in self.vertices])
        self.truncated = np.zeros((n * n, m), dtype=bool)
        self.same = np.zeros((n * n, m, m), dtype=bool)
        for c, vs in enumerate(self.vertices):
            for a, v in enumerate(vs):
                self.rows[c, a, : v.coeffs.size] = v.coeffs
                self.truncated[c, a] = v.truncated
            # a vertex's last coefficient is nonzero and every coefficient is
            # finite, so equal padded rows is ``Polynomial.__eq__``
            rows = self.rows[c, : len(vs)]
            self.same[c, : len(vs), : len(vs)] = (rows[:, None] == rows).all(axis=-1)
        # a block takes every vertex choice of each column but its pattern
        # cell's, which it replaces by that cell's segments
        column = [math.prod(counts[j::n]) for j in range(n)]
        self.patterns = permutations_in_order(n)
        self.sizes = [
            math.prod(column[j] // counts[i * n + j] * len(self.segments[i * n + j]) for j, i in enumerate(p))
            for p in self.patterns
        ]
        self.total = sum(self.sizes)

    def ends(self, start: int, stop: int):
        """Yield ``(pattern, first index, ends)`` for each pattern block that meets [start, stop).

        ``ends[b, c]`` is the vertex index of cell c of configuration
        ``first + b`` at lambda = 0 and at lambda = 1: a pattern cell's
        segment ends, an off-pattern cell's vertex twice.
        """
        first = 0
        for pattern, size in zip(self.patterns, self.sizes):
            if first >= stop:
                break
            lo, hi = max(start - first, 0), min(stop - first, size)
            if lo < hi:
                # the mixed-radix digits of each local index, the last digit first
                local = np.arange(lo, hi, dtype=np.int64 if size <= np.iinfo(np.int64).max else object)
                out = np.empty((hi - lo, self.n * self.n, 2), dtype=np.intp)
                for j in reversed(range(self.n)):
                    for i in [*(i for i in reversed(range(self.n)) if i != pattern[j]), pattern[j]]:
                        c = i * self.n + j
                        radix = len(self.segments[c]) if i == pattern[j] else len(self.vertices[c])
                        digit = (local % radix).astype(np.intp)
                        out[:, c] = self.segments[c][digit] if i == pattern[j] else digit[:, None]
                        local //= radix
                yield pattern, first + lo, out
            first += size

    def runs(self, start: int, stop: int):
        """Yield ``(first index, ends)`` for each maximal stretch of a block that shares its lambda cells."""
        for _, first, ends in self.ends(start, stop):
            free = self.lambda_cells(ends)
            cuts = [0, *(np.flatnonzero((free[1:] != free[:-1]).any(axis=1)) + 1).tolist(), len(ends)]
            for lo, hi in zip(cuts, cuts[1:]):
                yield first + lo, ends[lo:hi]

    def config(self, index: int, pattern, ends) -> EdgeConfiguration:
        """The ``EdgeConfiguration`` of one configuration's ends, given as nested lists."""
        n, verts = self.n, self.vertices
        edge_choice, vertex_choice, vertex_index = [], {}, {}
        for j, row in enumerate(pattern):
            a, b = ends[row * n + j]
            edge_choice.append(EdgeSegment(verts[row * n + j][a], verts[row * n + j][b], index0=a, index1=b))
            for i in range(n):
                if i != row:
                    vertex_index[i, j] = v = ends[i * n + j][0]
                    vertex_choice[i, j] = verts[i * n + j][v]
        return EdgeConfiguration(index, pattern, edge_choice, vertex_choice, vertex_index)

    def lambda_cells(self, ends: np.ndarray) -> np.ndarray:
        """Whether each cell carries a parameter, shape ``ends.shape[:-1]``."""
        return ~self.same[self.cells, ends[..., 0], ends[..., 1]]

    def slots(self, lambda_cells: np.ndarray) -> np.ndarray:
        """One configuration's lambda cells in slot order, by ascending column."""
        cells = np.flatnonzero(lambda_cells)
        return cells[np.argsort(cells % self.n)]

    def any_truncated(self, ends: np.ndarray) -> np.ndarray:
        """Whether a vertex at either end of any cell lost coefficients at construction, shape (B,)."""
        return self.truncated[self.cells[:, None], ends].any(axis=(1, 2))


def count_configs(fam: MatrixFamily) -> int:
    """Total number of configurations in the stream, without materializing it."""
    return VertexTable(fam).total


def iter_configs(fam: MatrixFamily, start: int = 0, stop: int | None = None):
    """Yield configurations with indices in [start, stop), in stream order, 4,096 at a time."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    table = VertexTable(fam)
    stop = table.total if stop is None else min(stop, table.total)
    for step in range(start, stop, 4096):
        for pattern, first, ends in table.ends(step, min(step + 4096, stop)):
            for b, cell_ends in enumerate(ends.tolist()):
                yield table.config(first + b, pattern, cell_ends)


def config_at(fam: MatrixFamily, index: int) -> EdgeConfiguration:
    """The configuration at one stream position."""
    if index < 0:
        raise IndexError(f"configuration index {index} out of range")
    for cfg in iter_configs(fam, start=index, stop=index + 1):
        return cfg
    raise IndexError(f"configuration index {index} out of range")
