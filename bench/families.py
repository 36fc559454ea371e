"""Seeded family generators for the benchmark workloads.

Every family is a JSON document in the edgestab command-line schema
(coefficients ascending, constant term first).  The seed changes the
coefficients; the structure of each family (size, vertex counts, degrees,
region) stays fixed, so every seed costs about the same and reaches the same
configuration count and k-mix.  ``demo3x3.json`` and
``vertex_insufficiency.json`` in ``families/`` are copies of the package's
test fixtures, so the benchmark never reads the tests.

Write every family of a workload to a directory, for ``edgestab analyze``:

    python3 bench/families.py --workload certify --seed 1

writes them to ``bench/out/certify-1/`` (or to ``--out DIR``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from reference import leibniz_det

HERE = pathlib.Path(__file__).resolve().parent
FIXED = HERE / "families"

HURWITZ = {"type": "hurwitz"}
SHIFTED = {"type": "shifted_half_plane", "sigma": -0.25}
UNIT_DISK = {"type": "disk", "center": 0.0, "radius": 1.0}

# The one family the benchmark keeps although the program gets it wrong:
# a trailing -1e-13 coefficient is truncated away, so every member's root
# near +1e13 is never seen and the family is certified.  Only this failure
# of this one operation is excused; any other counts as incorrect.
TRUNCATION_FAULT = ("analyze", "RobustlyStable, but an all-vertex member is unstable")
TRUNCATION_DOC = {
    "n": 1,
    "region": HURWITZ,
    "mode": "polytope",
    "entries": [[{"vertices": [[1.0, 2.0, 1.0, -1e-13], [1.0, 2.1, 1.0, -1e-13]]}]],
}


class Spec:
    """One family of a workload: its document and how the workload uses it.

    ``unstable`` marks a family that is unstable by construction, so only an
    Unstable verdict is correct.  ``known_fault`` is the one (operation,
    problem) pair excused as a known fault of the program.
    """

    __slots__ = ("name", "doc", "unstable", "known_fault")

    def __init__(self, name: str, doc: dict, unstable: bool = False,
                 known_fault: tuple[str, str] | None = None):
        self.name = name
        self.doc = doc
        self.unstable = unstable
        self.known_fault = known_fault

    @property
    def interval(self) -> bool:
        return "lower" in self.doc["entries"][0][0]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def _fixed(name: str) -> dict:
    return json.loads((FIXED / f"{name}.json").read_text())


def _doc(n: int, region: dict, cells, mode: str = "polytope") -> dict:
    return {"n": n, "region": region, "mode": mode, "entries": cells}


def _vertices(base: np.ndarray, rng, m: int, bump: float) -> dict:
    return {"vertices": [list(base + rng.uniform(-bump, bump, base.size)) for _ in range(m)]}


def _stable_quadratic(rng) -> np.ndarray:
    """(s + a)(s + b) with a, b in [0.5, 1.8], as in the acceptance suite."""
    a, b = rng.uniform(0.5, 1.8, 2)
    return np.array([a * b, a + b, 1.0])


def dominant(seed: int, tag: str, n: int, uncertain, region=HURWITZ, off: float = 0.1) -> dict:
    """Diagonally dominant family, built like the acceptance suite's stable half.

    Diagonal cells perturb a stable quadratic skeleton, off-diagonal cells a
    small constant.  Cells in ``uncertain`` get two vertices, the rest one.
    """
    rng = _rng(seed, tag)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            m = 2 if (i, j) in uncertain else 1
            if i == j:
                row.append(_vertices(_stable_quadratic(rng), rng, m, 0.1))
            else:
                row.append(_vertices(np.array([rng.uniform(-off, off)]), rng, m, 0.05))
        cells.append(row)
    return _doc(n, region, cells)


def schur(seed: int, tag: str, n: int) -> dict:
    """Unit-disk family: diagonal quadratics with both roots in [-0.6, 0.6]."""
    rng = _rng(seed, tag)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                r1, r2 = rng.uniform(-0.6, 0.6, 2)
                row.append(_vertices(np.array([r1 * r2, -(r1 + r2), 1.0]), rng, 2, 0.03))
            else:
                row.append(_vertices(np.array([rng.uniform(-0.02, 0.02)]), rng, 1, 0.0))
        cells.append(row)
    return _doc(n, UNIT_DISK, cells)


def _diagonal(n: int):
    return {(i, i) for i in range(n)}


def _everything(n: int):
    return {(i, j) for i in range(n) for j in range(n)}


def anchor_unstable(seed: int, tag: str, n: int) -> dict:
    """Uniform random family whose all-vertex-0 member is unstable.

    That member is the anchor of configuration 0, so analysis stops there.
    Diagonal cells are quadratics with leading coefficient in [0.5, 2] and the
    rest uniform in [-5, 5]; off-diagonal cells are constants, so the
    determinant's degree never drops.  Draws repeat until the anchor's
    determinant (by the benchmark's own expansion) has a root with
    nonnegative real part.
    """
    rng = _rng(seed, tag)
    while True:
        cells = []
        for i in range(n):
            row = []
            for j in range(n):
                verts = []
                for _ in range(2):
                    if i == j:
                        verts.append(list(rng.uniform(-5.0, 5.0, 2)) + [float(rng.uniform(0.5, 2.0))])
                    else:
                        verts.append([float(rng.uniform(-5.0, 5.0))])
                row.append({"vertices": verts})
            cells.append(row)
        anchor = [[np.array(cells[i][j]["vertices"][0]) for j in range(n)] for i in range(n)]
        if np.max(np.roots(leibniz_det(anchor)).real) >= 0.01:
            return _doc(n, HURWITZ, cells)


def insufficiency(seed: int | None, tag: str, k: int = 1) -> dict:
    """The vertex-insufficiency fixture, its two quartics jittered by 1% unless seed is None.

    Both vertex matrices stay stable and a member inside the edge stays
    unstable for every seed, so the witness lies inside the edge.  With
    ``k=2`` cell (1, 1) gets a second vertex, so configuration 0 is a
    two-parameter box whose corner hulls capture the origin near the
    crossing and the sweep subdivides the lambda box.
    """
    doc = _fixed("vertex_insufficiency")
    if seed is not None:
        rng = _rng(seed, tag)
        cell = doc["entries"][0][0]
        cell["vertices"] = [
            [c * (1.0 + rng.uniform(-0.01, 0.01)) for c in v] for v in cell["vertices"]
        ]
    if k == 2:
        doc["entries"][1][1]["vertices"].append([2.4, 1.2])
    return doc


def degree_drop(seed: int, tag: str, n: int) -> dict:
    """Cell (0, 0) is linear with a leading coefficient that changes sign."""
    rng = _rng(seed, tag)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j == 0:
                a = float(rng.uniform(0.5, 2.0))
                row.append({"vertices": [[a, float(rng.uniform(0.5, 1.5))],
                                         [a, -float(rng.uniform(0.5, 1.5))]]})
            elif i == j:
                row.append({"vertices": [list(_stable_quadratic(rng))]})
            else:
                row.append({"vertices": [[float(rng.uniform(-0.1, 0.1))]]})
        cells.append(row)
    return _doc(n, HURWITZ, cells)


def _interval_cell(center: np.ndarray, width: np.ndarray) -> dict:
    return {"lower": list(center - width), "upper": list(center + width)}


def interval_stable(seed: int, tag: str, n: int) -> dict:
    """Interval family around a diagonally dominant stable skeleton."""
    rng = _rng(seed, tag)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(_interval_cell(_stable_quadratic(rng), rng.uniform(0.0, 0.05, 3)))
            else:
                row.append(_interval_cell(np.array([rng.uniform(-0.1, 0.1)]), np.array([0.01])))
        cells.append(row)
    return _doc(n, HURWITZ, cells, mode="interval")


def interval_unstable(seed: int, tag: str) -> dict:
    """Cubic interval around (s + 1)^3 wide enough that a Kharitonov vertex fails.

    The vertex with lower s and s^2 coefficients and upper constant and s^3
    coefficients breaks a1 * a2 > a0 * a3 by a wide gap for every seed.
    """
    rng = _rng(seed, tag)
    center = np.array([1.0, 3.0, 3.0, 1.0]) * (1.0 + rng.uniform(-0.02, 0.02, 4))
    width = np.array([1.5, 1.8, 1.8, 0.2])
    return _doc(1, HURWITZ, [[_interval_cell(center, width)]], mode="interval")


# ----------------------------------------------------------------------
# workloads


def certify(seed: int, small: bool = False) -> list[Spec]:
    """RobustlyStable polytope families; every configuration runs the full sweep."""
    partial = _diagonal(3) | {(0, 1)}
    specs = [
        Spec("dominant3_diag", dominant(seed, "d3a", 3, _diagonal(3))),
        Spec("dominant3_partial", dominant(seed, "d3b", 3, partial)),
        Spec("shifted3", dominant(seed, "sh3", 3, _diagonal(3), region=SHIFTED)),
        Spec("disk3", schur(seed, "dk3", 3)),
        Spec("dominant4_diag", dominant(seed, "d4a", 4, _diagonal(4), off=0.05)),
    ]
    if not small:
        specs.insert(0, Spec("demo3x3", _fixed("demo3x3")))
        specs.append(Spec("dominant4_partial", dominant(seed, "d4b", 4, _diagonal(4) | {(0, 1)}, off=0.05)))
    return specs


def triage(seed: int, small: bool = False) -> list[Spec]:
    """Families with mixed verdicts: early exits, in-edge witnesses, degree drops.

    The two-parameter insufficiency family is not jittered: between jitters
    its lambda-box subdivision and witness confirmation took 25 to 300 ms,
    a swing that would drown the other families' signal.
    """
    specs = [Spec(f"anchor{r}", anchor_unstable(seed, f"tri{r}", 2 + r % 2)) for r in range(2 if small else 8)]
    specs += [Spec(f"insufficiency{r}", insufficiency(seed, f"ins{r}"), unstable=True)
              for r in range(2 if small else 6)]
    specs.append(Spec("insufficiency_k2", insufficiency(None, "", k=2), unstable=True))
    specs += [Spec(f"degree_drop{r}", degree_drop(seed, f"dd{r}", 1 + r % 2)) for r in range(2 if small else 3)]
    specs += [Spec(f"interval1_stable{r}", interval_stable(seed, f"iv1{r}", 1)) for r in range(1 if small else 2)]
    specs += [Spec(f"interval1_unstable{r}", interval_unstable(seed, f"iv1u{r}")) for r in range(1 if small else 2)]
    if not small:
        specs.append(Spec("interval2_stable", interval_stable(seed, "iv2", 2)))
    specs.append(Spec("truncation", TRUNCATION_DOC, known_fault=TRUNCATION_FAULT))
    return specs


def oracle(seed: int, small: bool = False) -> list[Spec]:
    """Certified families for the random scheme, plus the grid-scheme fixture."""
    specs = [
        Spec("dominant3_full", dominant(seed, "or3", 3, _everything(3))),
        Spec("dominant4_diag", dominant(seed, "or4", 4, _diagonal(4), off=0.05)),
        Spec("vertex_insufficiency", _fixed("vertex_insufficiency"), unstable=True),
    ]
    if not small:
        specs.insert(0, Spec("demo3x3", _fixed("demo3x3")))
    return specs


def parallel(seed: int, small: bool = False) -> list[Spec]:
    """One stable n=3 family and many small anchor-unstable families, run with jobs=2."""
    stable = dominant(seed, "par", 3, _diagonal(3) if small else _everything(3))
    specs = [Spec("dominant3_full", stable)]
    for r in range(4 if small else 30):
        specs.append(Spec(f"anchor{r}", anchor_unstable(seed, f"par{r}", 2 + r % 2)))
    return specs


WORKLOADS = {"certify": certify, "triage": triage, "oracle": oracle, "parallel": parallel}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="directory for the <family>.json files (default bench/out/<workload>-<seed>)")
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out or HERE / "out" / f"{args.workload}-{args.seed}")
    out.mkdir(parents=True, exist_ok=True)
    for spec in WORKLOADS[args.workload](args.seed):
        (out / f"{spec.name}.json").write_text(json.dumps(spec.doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
