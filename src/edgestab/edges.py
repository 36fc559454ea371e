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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSingleColumnFamily, NotTwoCellFamily
from .family import (
    EdgeSegment,
    IntervalEntry,
    MatrixFamily,
    PolytopeEntry,
    dedupe_segments,
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


def _dedup_edges(segs: list[EdgeSegment]) -> list[EdgeSegment]:
    segs = dedupe_segments(segs)
    solid = [s for s in segs if not s.degenerate]
    return solid if solid else segs[:1]


def _dedup_vertices(verts: list[Polynomial]) -> list[Polynomial]:
    out: list[Polynomial] = []
    for v in verts:
        if not any(v == kept for kept in out):
            out.append(v)
    return out


class EdgeConfiguration:
    """One member family of the edge-configuration set.

    ``base`` holds the lambda=0 matrix (segment starts and chosen vertices);
    ``deltas`` maps each column with a nondegenerate segment to its
    difference polynomial p1 - p0.  ``lambda_columns`` lists those columns in
    ascending order; parameter slot l corresponds to ``lambda_columns[l]``.
    """

    __slots__ = (
        "index",
        "sigma",
        "edge_choice",
        "vertex_choice",
        "vertex_index",
        "base",
        "deltas",
        "lambda_columns",
    )

    def __init__(self, index, sigma, edge_choice, vertex_choice, vertex_index=None):
        self.index = index
        self.sigma = tuple(sigma)
        self.edge_choice = tuple(edge_choice)
        self.vertex_choice = dict(vertex_choice)
        self.vertex_index = dict(vertex_index) if vertex_index else {}
        n = len(self.sigma)
        grid: list[list[Polynomial | None]] = [[None] * n for _ in range(n)]
        deltas: dict[int, Polynomial] = {}
        lam_cols: list[int] = []
        for j, seg in enumerate(self.edge_choice):
            grid[self.sigma[j]][j] = seg.p0
            if not seg.degenerate:
                deltas[j] = seg.p1 - seg.p0
                lam_cols.append(j)
        for (i, j), poly in self.vertex_choice.items():
            grid[i][j] = poly
        if any(cell is None for row in grid for cell in row):
            raise ValueError("configuration does not cover the grid")
        self.base = tuple(tuple(row) for row in grid)
        self.deltas = deltas
        self.lambda_columns = tuple(lam_cols)

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
            i = self.sigma[j]
            grid[i][j] = self.base[i][j] + self.deltas[j] * float(lam[slot])
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


def _pattern_choice_lists(fam: MatrixFamily, pattern: tuple[int, ...], dedup: bool):
    """Per-column edge lists and per-cell vertex lists for one pattern.

    Returns (edge_lists, vertex_cells) where vertex_cells is a list of
    ((i, j), vertices) in column-major order matching the digit layout.
    """
    n = fam.n
    edge_lists = []
    vertex_cells = []
    for j in range(n):
        edges = entry_edges(fam.entry(pattern[j], j))
        if dedup:
            edges = _dedup_edges(edges)
        edge_lists.append(edges)
        for i in range(n):
            if i == pattern[j]:
                continue
            verts = entry_vertices(fam.entry(i, j))
            if dedup:
                verts = _dedup_vertices(verts)
            vertex_cells.append(((i, j), verts))
    return edge_lists, vertex_cells


def _digit_radices(edge_lists, vertex_cells, n: int) -> list[int]:
    """Column-major digit layout: per column, edge digit then vertex digits."""
    radices = []
    by_col: dict[int, list[int]] = {j: [] for j in range(n)}
    for (i, j), vs in vertex_cells:
        by_col[j].append(len(vs))
    for j in range(n):
        radices.append(len(edge_lists[j]))
        radices.extend(by_col[j])
    return radices


def _config_from_digits(fam, pattern, edge_lists, vertex_cells, digits, index):
    n = fam.n
    pos = 0
    edge_choice = []
    vertex_choice = {}
    vidx = {}
    cells_by_col: dict[int, list] = {j: [] for j in range(n)}
    for cell, vs in vertex_cells:
        cells_by_col[cell[1]].append((cell, vs))
    for j in range(n):
        edge_choice.append(edge_lists[j][digits[pos]])
        pos += 1
        for cell, vs in cells_by_col[j]:
            vertex_choice[cell] = vs[digits[pos]]
            vidx[cell] = digits[pos]
            pos += 1
    return EdgeConfiguration(index, pattern, edge_choice, vertex_choice, vidx)


class _PatternBlock:
    __slots__ = ("pattern", "edge_lists", "vertex_cells", "radices", "size")

    def __init__(self, fam, pattern, dedup):
        self.pattern = pattern
        self.edge_lists, self.vertex_cells = _pattern_choice_lists(fam, pattern, dedup)
        self.radices = _digit_radices(self.edge_lists, self.vertex_cells, fam.n)
        size = 1
        for r in self.radices:
            size *= r
        self.size = size


def _blocks(fam: MatrixFamily, dedup: bool, patterns=None) -> list[_PatternBlock]:
    if patterns is None:
        patterns = permutations_in_order(fam.n)
    return [_PatternBlock(fam, p, dedup) for p in patterns]


def count_configs(fam: MatrixFamily, dedup: bool = False) -> int:
    """Total number of configurations in the stream, without materializing it."""
    return sum(b.size for b in _blocks(fam, dedup))


def _digits_of(value: int, radices: list[int]) -> list[int]:
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        digits[pos] = value % radices[pos]
        value //= radices[pos]
    return digits


def iter_configs(
    fam: MatrixFamily,
    start: int = 0,
    stop: int | None = None,
    dedup: bool = False,
    patterns=None,
):
    """Yield configurations with indices in [start, stop), in stream order.

    ``patterns`` overrides the permutation list with arbitrary column-to-row
    maps (used by property tests); the default is the permutation order
    documented in the module docstring.
    """
    if start < 0:
        raise ValueError("start must be nonnegative")
    blocks = _blocks(fam, dedup, patterns)
    total = sum(b.size for b in blocks)
    if stop is None or stop > total:
        stop = total
    index = 0
    for block in blocks:
        if index + block.size <= start:
            index += block.size
            continue
        if index >= stop:
            break
        local = max(start - index, 0)
        digits = _digits_of(local, block.radices)
        while index + local < stop and local < block.size:
            yield _config_from_digits(
                fam, block.pattern, block.edge_lists, block.vertex_cells, digits, index + local
            )
            local += 1
            # odometer step, last digit fastest
            for pos in range(len(digits) - 1, -1, -1):
                digits[pos] += 1
                if digits[pos] < block.radices[pos]:
                    break
                digits[pos] = 0
        index += block.size


def config_at(fam: MatrixFamily, index: int, dedup: bool = False) -> EdgeConfiguration:
    """The configuration at one stream position."""
    if index < 0:
        raise IndexError(f"configuration index {index} out of range")
    for cfg in iter_configs(fam, start=index, stop=index + 1, dedup=dedup):
        return cfg
    raise IndexError(f"configuration index {index} out of range")


# ----------------------------------------------------------------------
# single-column and single-row reduction streams (lemma-shaped test feeds)


def _require_polytope(entry, exc, msg):
    if not isinstance(entry, PolytopeEntry):
        raise exc(msg)
    return entry


@dataclass(frozen=True)
class ReducedColumnFamily:
    """Family with one column entry on a segment and the rest of the column at vertices."""

    column: int
    row: int
    edge: EdgeSegment
    vertex_choices: dict
    base: MatrixFamily

    def as_family(self) -> MatrixFamily:
        grid = [
            [self.base.entry(i, j) for j in range(self.base.n)]
            for i in range(self.base.n)
        ]
        if self.edge.degenerate:
            grid[self.row][self.column] = PolytopeEntry([self.edge.p0])
        else:
            grid[self.row][self.column] = PolytopeEntry([self.edge.p0, self.edge.p1])
        for i, (idx, poly) in self.vertex_choices.items():
            grid[i][self.column] = PolytopeEntry([poly])
        return MatrixFamily(grid, self.base.region)


def reduce_column(fam: MatrixFamily, col: int):
    """Stream the column-reduction families for one uncertain column.

    Requires every entry outside ``col`` to be fixed (a single vertex).  For
    each row i of the column, the entry (i, col) runs over its segments while
    the other column entries run over their vertices.
    """
    n = fam.n
    if not 0 <= col < n:
        raise ValueError("column index out of range")
    for i in range(n):
        for j in range(n):
            e = _require_polytope(
                fam.entry(i, j), NotSingleColumnFamily, "reduction requires polytope entries"
            )
            if j != col and e.m != 1:
                raise NotSingleColumnFamily(
                    f"entry ({i}, {j}) outside column {col} is not fixed"
                )
    for i in range(n):
        others = [l for l in range(n) if l != i]
        vertex_lists = [list(enumerate(fam.entry(l, col).vertices)) for l in others]
        for edge in entry_edges(fam.entry(i, col)):
            for combo in itertools.product(*vertex_lists):
                choices = {l: pick for l, pick in zip(others, combo)}
                yield ReducedColumnFamily(col, i, edge, choices, fam)


@dataclass(frozen=True)
class ReducedRowFamily:
    """Family with one of two row cells on a segment and the other at a vertex."""

    row: int
    edge_col: int
    vertex_col: int
    edge: EdgeSegment
    vertex_index: int
    vertex: Polynomial
    base: MatrixFamily

    def as_family(self) -> MatrixFamily:
        grid = [
            [self.base.entry(i, j) for j in range(self.base.n)]
            for i in range(self.base.n)
        ]
        if self.edge.degenerate:
            grid[self.row][self.edge_col] = PolytopeEntry([self.edge.p0])
        else:
            grid[self.row][self.edge_col] = PolytopeEntry([self.edge.p0, self.edge.p1])
        grid[self.row][self.vertex_col] = PolytopeEntry([self.vertex])
        return MatrixFamily(grid, self.base.region)


def reduce_row(fam: MatrixFamily, row: int, i: int, j: int):
    """Stream the row-reduction families for two uncertain cells in one row.

    Requires all cells other than (row, i) and (row, j) to be fixed.  Yields
    the vertex-times-edge families first (vertex at column i, segment at
    column j), then the edge-times-vertex ones.
    """
    n = fam.n
    if i == j or not (0 <= row < n and 0 <= i < n and 0 <= j < n):
        raise ValueError("row or column indices out of range")
    for r in range(n):
        for c in range(n):
            e = _require_polytope(
                fam.entry(r, c), NotTwoCellFamily, "reduction requires polytope entries"
            )
            if (r, c) not in ((row, i), (row, j)) and e.m != 1:
                raise NotTwoCellFamily(f"entry ({r}, {c}) is not fixed")
    cell_i = fam.entry(row, i)
    cell_j = fam.entry(row, j)
    for vi, vertex in enumerate(cell_i.vertices):
        for edge in entry_edges(cell_j):
            yield ReducedRowFamily(row, j, i, edge, vi, vertex, fam)
    for edge in entry_edges(cell_i):
        for vj, vertex in enumerate(cell_j.vertices):
            yield ReducedRowFamily(row, i, j, edge, vj, vertex, fam)
