"""Reference checker that works apart from edgestab.

It reads the families' JSON documents, never edgestab objects, and uses its
own arithmetic throughout:

* determinants by Leibniz permutation expansion with ``numpy.polymul``;
* roots by ``numpy.roots`` on the untruncated coefficients;
* configuration counts by the closed formula
  sum over sigma of prod over j of (edges of cell (sigma(j), j)) times
  (vertices of every other cell in column j);
* configuration members rebuilt from the stream order that the edgestab
  documentation specifies (even permutations first, lexicographic within
  parity; per column the edge digit, then the vertex digits in ascending row
  order, last digit fastest).

``FamilyCheck`` judges one family's outputs against properties the method
must have, never against stored copies of earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# edgestab's default Tolerances: zero_margin 1e-7 gives a witness window of
# min(100 * zero_margin, 1e-4) * (1 + |root|); degree_eps is 1e-9.
WITNESS_WINDOW = 1e-5
DEGREE_EPS = 1e-9
# a vertex member with margin below -CORNER_SLACK * (1 + |root|) is caught by
# the exact corner root tests (edgestab flags corners below -1e-7 * (1 + |root|))
CORNER_SLACK = 1e-6
VERTEX_MEMBER_CAP = 512
RANDOM_MEMBERS = 32
MARGIN_RTOL = 1e-6


# ----------------------------------------------------------------------
# arithmetic


def _sign(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def leibniz_det(matrix) -> np.ndarray:
    """Determinant coefficients, highest power first, with nothing truncated.

    ``matrix[i][j]`` holds ascending coefficients.
    """
    n = len(matrix)
    desc = [[np.asarray(matrix[i][j], dtype=float)[::-1] for j in range(n)] for i in range(n)]
    total = np.zeros(1)
    for perm in itertools.permutations(range(n)):
        term = np.ones(1) * _sign(perm)
        for i in range(n):
            term = np.polymul(term, desc[i][perm[i]])
        total = np.polyadd(total, term)
    return np.atleast_1d(total)


def region_margin(region: dict, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    kind = region["type"]
    if kind == "hurwitz":
        return -z.real
    if kind == "shifted_half_plane":
        return region["sigma"] - z.real
    center = region.get("center", 0.0)
    c = complex(center[0], center[1]) if isinstance(center, list) else complex(center)
    return region["radius"] - np.abs(z - c)


def member_margin(region: dict, matrix) -> tuple[float, complex | None]:
    """Smallest root margin of the member's determinant; +inf for a nonzero constant."""
    det = leibniz_det(matrix)
    if not np.any(det):
        return -math.inf, 0j
    roots = np.roots(det)
    if roots.size == 0:
        return math.inf, None
    m = region_margin(region, roots)
    worst = int(np.argmin(m))
    return float(m[worst]), complex(roots[worst])


# ----------------------------------------------------------------------
# cells


def _trim(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else c[:1] * 0.0


def kharitonov(lower, upper) -> list[np.ndarray]:
    """The four Kharitonov polynomials: bounds alternate with period four."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    phase = np.arange(lower.size) % 4
    picks = ((0, 1), (0, 3), (1, 2), (2, 3))  # phases at which each takes the lower bound
    return [np.where(np.isin(phase, p), lower, upper) for p in picks]


def cell_vertices(cell: dict) -> list[np.ndarray]:
    if "vertices" in cell:
        return [np.asarray(v, dtype=float) for v in cell["vertices"]]
    return kharitonov(cell["lower"], cell["upper"])


def cell_edges(cell: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    verts = cell_vertices(cell)
    if "vertices" not in cell:
        return [(verts[a], verts[b]) for a, b in ((0, 1), (1, 3), (3, 2), (2, 0))]
    if len(verts) == 1:
        return [(verts[0], verts[0])]
    return [(verts[r], verts[t]) for r in range(len(verts)) for t in range(r + 1, len(verts))]


def _degenerate(p0, p1) -> bool:
    a, b = _trim(p0), _trim(p1)
    return a.size == b.size and bool(np.all(a == b))


def _patterns(n: int):
    perms = list(itertools.permutations(range(n)))
    return [p for p in perms if _sign(p) > 0] + [p for p in perms if _sign(p) < 0]


def count_formula(doc: dict) -> int:
    n, cells = doc["n"], doc["entries"]
    total = 0
    for sigma in itertools.permutations(range(n)):
        prod = 1
        for j in range(n):
            prod *= len(cell_edges(cells[sigma[j]][j]))
            for i in range(n):
                if i != sigma[j]:
                    prod *= len(cell_vertices(cells[i][j]))
        total += prod
    return total


def config_member(doc: dict, index: int, lam) -> list[list[np.ndarray]]:
    """The member of configuration ``index`` at segment parameters ``lam``."""
    n, cells = doc["n"], doc["entries"]
    for sigma in _patterns(n):
        layout = []  # (kind, i, j, choices) in digit order
        for j in range(n):
            layout.append(("edge", sigma[j], j, cell_edges(cells[sigma[j]][j])))
            for i in range(n):
                if i != sigma[j]:
                    layout.append(("vertex", i, j, cell_vertices(cells[i][j])))
        size = math.prod(len(c) for *_, c in layout)
        if index >= size:
            index -= size
            continue
        digits = []
        for *_, choices in reversed(layout):
            digits.append(index % len(choices))
            index //= len(choices)
        digits.reverse()
        member = [[None] * n for _ in range(n)]
        slot = 0
        for (kind, i, j, choices), d in zip(layout, digits):
            if kind == "vertex":
                member[i][j] = choices[d]
                continue
            p0, p1 = choices[d]
            if _degenerate(p0, p1):
                member[i][j] = p0
                continue
            length = max(p0.size, p1.size)
            a = np.pad(p0, (0, length - p0.size))
            b = np.pad(p1, (0, length - p1.size))
            member[i][j] = a + float(lam[slot]) * (b - a)
            slot += 1
        if slot != len(lam):
            raise ValueError(f"configuration has {slot} parameters, witness gives {len(lam)}")
        return member
    raise IndexError("configuration index out of range")


def weights_member(doc: dict, weights) -> list[list[np.ndarray]]:
    """The member picked by per-cell weights, in row-major cell order."""
    n, cells = doc["n"], doc["entries"]
    member = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = cells[i][j]
            w = np.asarray(weights[i * n + j], dtype=float)
            if "vertices" in cell:
                verts = cell_vertices(cell)
                length = max(v.size for v in verts)
                row.append(sum(wr * np.pad(v, (0, length - v.size)) for wr, v in zip(w, verts)))
            else:
                lo, hi = np.asarray(cell["lower"]), np.asarray(cell["upper"])
                row.append(lo * (1.0 - w) + hi * w)
        member.append(row)
    return member


# ----------------------------------------------------------------------
# per-family judgement


class FamilyCheck:
    """What the reference knows about one family, computed once and reused.

    ``unstable`` says the family is unstable by construction (an unstable
    member inside an edge, which sparse sampling can miss), so only an
    Unstable verdict and an oracle report with margin <= 0 are correct.
    """

    def __init__(self, doc: dict, seed: int, unstable: bool = False):
        self.doc = doc
        self.region = doc["region"]
        self.unstable = unstable
        self.rng = np.random.default_rng([seed, 0x5EF])
        self._vertex = None
        self._sampled = None

    # members ----------------------------------------------------------

    def _vertex_members(self):
        """(margins, slacks, determinants) of all-vertex members, a seeded subset if too many."""
        if self._vertex is None:
            n, cells = self.doc["n"], self.doc["entries"]
            choices = [cell_vertices(cells[i][j]) for i in range(n) for j in range(n)]
            total = math.prod(len(c) for c in choices)
            if total <= VERTEX_MEMBER_CAP:
                picks = itertools.product(*(range(len(c)) for c in choices))
            else:
                picks = (
                    tuple(int(self.rng.integers(len(c))) for c in choices)
                    for _ in range(VERTEX_MEMBER_CAP)
                )
            margins, slacks, dets = [], [], []
            for pick in picks:
                member = [[choices[i * n + j][pick[i * n + j]] for j in range(n)] for i in range(n)]
                dets.append(leibniz_det(member))
                margin, root = member_margin(self.region, member)
                margins.append(margin)
                slacks.append(CORNER_SLACK * (1.0 + abs(root if root is not None else 0.0)))
            self._vertex = (np.array(margins), np.array(slacks), dets)
        return self._vertex

    def _sampled_margins(self) -> np.ndarray:
        """Margins of members drawn with this checker's own RNG."""
        if self._sampled is None:
            n, cells = self.doc["n"], self.doc["entries"]
            out = []
            for _ in range(RANDOM_MEMBERS):
                weights = []
                for i in range(n):
                    for j in range(n):
                        cell = cells[i][j]
                        if "vertices" in cell:
                            weights.append(self.rng.dirichlet(np.ones(len(cell["vertices"]))))
                        else:
                            weights.append(self.rng.random(len(cell["lower"])))
                out.append(member_margin(self.region, weights_member(self.doc, weights))[0])
            self._sampled = np.array(out)
        return self._sampled

    def _corner_unstable(self) -> bool:
        margins, slacks, _ = self._vertex_members()
        return bool(np.any(margins < -slacks))

    def _lead_reaches_zero(self) -> bool:
        _, _, dets = self._vertex_members()
        width = max(d.size for d in dets)
        coeffs = np.array([np.pad(d, (width - d.size, 0)) for d in dets])
        top = int(np.nonzero(np.any(coeffs != 0.0, axis=0))[0][0])
        lead = coeffs[:, top]
        cmax = float(np.max(np.abs(coeffs)))
        lo, hi = float(np.min(lead)), float(np.max(lead))
        return lo <= 0.0 <= hi or min(abs(lo), abs(hi)) < DEGREE_EPS * cmax

    # judgements -------------------------------------------------------

    def count(self, reported: int) -> str | None:
        expected = count_formula(self.doc)
        if reported != expected:
            return f"count_configs gave {reported}, the closed formula {expected}"
        return None

    def witness(self, witness: dict) -> str | None:
        member = config_member(self.doc, witness["config_index"], witness["lambda"] or ())
        margin, root = member_margin(self.region, member)
        window = WITNESS_WINDOW * (1.0 + abs(root if root is not None else 0.0))
        if margin > window:
            return f"witness member has margin {margin:.3e} > window {window:.1e}"
        return None

    def verdict(self, verdict: dict) -> str | None:
        """Judge an analysis verdict (the ``Verdict.describe()`` dict)."""
        status = verdict["status"]
        if status == "Unstable":
            if verdict["witness"] is None:
                return "Unstable without a witness"
            return self.witness(verdict["witness"])
        if self.unstable:
            return f"{status}, but the family is unstable by construction"
        if status == "Degenerate":
            if not (self._corner_unstable() or self._lead_reaches_zero()):
                return "Degenerate, but no member's leading coefficient reaches zero"
            return None
        if self._corner_unstable():
            return f"{status}, but an all-vertex member is unstable"
        if status == "RobustlyStable":
            if np.any(self._vertex_members()[0] <= 0.0):
                return "RobustlyStable, but an all-vertex member is not stable"
            if np.any(self._sampled_margins() <= 0.0):
                return "RobustlyStable, but a sampled member is not stable"
        return None

    def counterexample(self, weights, reported_margin: float) -> str | None:
        margin, _ = member_margin(self.region, weights_member(self.doc, weights))
        if margin > 0.0:
            return f"counterexample member has margin {margin:.3e} > 0"
        return self.same_margin(margin, reported_margin)

    @staticmethod
    def same_margin(mine: float, reported: float) -> str | None:
        if abs(mine - reported) > MARGIN_RTOL * (1.0 + abs(reported)):
            return f"reported margin {reported!r}, recomputed {mine!r}"
        return None

    def sample_report(self, report: dict, budget: int) -> str | None:
        """Judge a ``SampleReport.describe()`` dict."""
        if report["samples"] != budget:
            return f"{report['samples']} samples for a budget of {budget}"
        weights = report["worst_member"]["weights"]
        mine, _ = member_margin(self.region, weights_member(self.doc, weights))
        problem = self.same_margin(mine, report["worst_margin"])
        if problem:
            return problem
        if self.unstable and report["worst_margin"] > 0.0:
            return "no unstable member found where one exists"
        if not self.unstable:
            if report["worst_margin"] <= 0.0:
                return "unstable member reported in a certified family"
            if np.any(self._sampled_margins() <= 0.0):
                return "the reference finds an unstable member the oracle missed"
        return None
