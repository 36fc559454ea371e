"""Tests for the brute-force sampling oracle and the counterexample search.

The reference facts here are deliberately primitive: members are assembled
by hand from weights, their characteristic polynomials computed through the
exact determinant path, and margins measured by root finding, so the
batched sampling machinery is checked against first principles.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

import edgestab.oracle as oracle
from edgestab.cli import parse_family_dict
from edgestab.det import _laplace, det_matrix
from edgestab.edges import iter_configs
from edgestab.errors import SchemaError, ValidationFailure
from edgestab.family import IntervalEntry, MatrixFamily, PolytopeEntry
from edgestab.oracle import (
    _cell_coeff_arrays,
    _coeff_batches,
    _random_weights,
    _weights_from_hint,
    find_counterexample_near,
    member_margin,
    sample_family,
)
from edgestab.poly import Polynomial
from edgestab.region import Disk, HurwitzHalfPlane, ShiftedHalfPlane, member_margins
from edgestab.stab import analyze_family, point_stable

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def P(coeffs):
    return Polynomial(coeffs)


def cell(*vertex_lists):
    return PolytopeEntry([P(v) for v in vertex_lists])


def stable_2x2():
    return MatrixFamily(
        [
            [cell([1.0, 1.0], [1.2, 1.1]), cell([0.1], [0.05])],
            [cell([0.1], [0.2]), cell([2.0, 1.0], [2.1, 1.05])],
        ],
        HurwitzHalfPlane(),
    )


def family_from_fixture(name):
    data = json.loads((FIXTURES / name).read_text())
    entries = []
    for row in data["entries"]:
        out_row = []
        for c in row:
            if "vertices" in c:
                out_row.append(PolytopeEntry([P(v) for v in c["vertices"]]))
            else:
                out_row.append(IntervalEntry(c["lower"], c["upper"]))
        entries.append(out_row)
    return MatrixFamily(entries, HurwitzHalfPlane())


# ----------------------------------------------------------------------
# member_margin against a hand-assembled reference


def test_member_margin_matches_hand_assembly():
    fam = stable_2x2()
    weights = [
        np.array([0.25, 0.75]),
        np.array([0.5, 0.5]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    ]
    # assemble the member the slow way
    grid = []
    idx = 0
    for i in range(2):
        row = []
        for j in range(2):
            e = fam.entry(i, j)
            w = weights[idx]
            poly = Polynomial([0.0])
            for r, v in enumerate(e.vertices):
                poly = poly + v * float(w[r])
            row.append(poly)
            idx += 1
        grid.append(row)
    det = det_matrix(grid)
    roots = det.roots()
    expect = float(np.min(HurwitzHalfPlane().margin(roots)))

    got_margin, got_root = member_margin(fam, weights)
    assert got_margin == pytest.approx(expect, rel=1e-12)
    assert got_root is not None


def test_member_margin_no_roots_is_infinite():
    fam = MatrixFamily([[cell([3.0], [4.0])]], HurwitzHalfPlane())
    margin, root = member_margin(fam, [np.array([0.5, 0.5])])
    assert margin == np.inf
    assert root is None


def interval_2x2():
    return MatrixFamily(
        [
            [IntervalEntry([1.0, 2.0, 1.0], [1.1, 2.1, 1.1]), IntervalEntry([0.1], [0.2])],
            [IntervalEntry([0.1], [0.2]), IntervalEntry([1.0, 1.0], [1.1, 1.2])],
        ],
        HurwitzHalfPlane(),
    )


@pytest.mark.parametrize(
    "weights",
    [
        [[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],  # three weights, two vertices
        [[1.5, -0.5], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],  # a negative weight
        [[0.5, 0.6], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],  # does not sum to one
    ],
    ids=["count", "negative", "sum"],
)
def test_member_margin_refuses_weights_off_the_simplex(weights):
    with pytest.raises(ValueError):
        member_margin(stable_2x2(), [np.array(w) for w in weights])


def test_member_margin_refuses_a_mix_outside_the_box():
    fam = interval_2x2()
    inside = [np.full(3, 0.5), np.full(1, 0.5), np.full(1, 0.5), np.full(2, 0.5)]
    member_margin(fam, inside)
    outside = [w.copy() for w in inside]
    outside[3][1] = 1.5  # 1.0 + 1.5 * 0.2 = 1.3 > 1.2
    with pytest.raises(ValueError):
        member_margin(fam, outside)


def test_member_margin_takes_interval_mixes_at_length_or_padded_width():
    fam = interval_2x2()
    own = [np.full(3, 0.3), np.full(1, 0.6), np.full(1, 0.2), np.full(2, 0.9)]
    padded = [np.pad(w, (0, 3 - w.size), constant_values=0.7) for w in own]
    assert member_margin(fam, own) == member_margin(fam, padded)


# ----------------------------------------------------------------------
# sampling: stability, determinism, exact reproduction of the worst member


def test_random_sampling_stable_family():
    rep = sample_family(stable_2x2(), budget=500, seed=11, scheme="random")
    assert rep.verdict == "StableAtAllSamples"
    assert rep.samples == 500
    assert rep.worst_margin > 0
    assert rep.scheme == "random"
    assert rep.seed == 11


def test_sampling_same_seed_is_deterministic():
    a = sample_family(stable_2x2(), budget=300, seed=5, scheme="random")
    b = sample_family(stable_2x2(), budget=300, seed=5, scheme="random")
    assert a.worst_margin == b.worst_margin
    assert a.worst_member.weights == b.worst_member.weights
    assert a.describe() == b.describe()


def test_sampling_different_seeds_differ():
    a = sample_family(stable_2x2(), budget=300, seed=5, scheme="random")
    b = sample_family(stable_2x2(), budget=300, seed=6, scheme="random")
    assert a.worst_member.weights != b.worst_member.weights


def test_worst_member_margin_reproduces_exactly():
    for scheme in ("random", "grid"):
        rep = sample_family(stable_2x2(), budget=400, seed=2, scheme=scheme)
        margin, _ = member_margin(
            fam := stable_2x2(), [np.asarray(w) for w in rep.worst_member.weights]
        )
        assert margin == rep.worst_margin
        assert margin == rep.worst_member.margin


def test_grid_level_one_hits_planted_bad_vertex():
    # one vertex of the (0,0) cell is unstable on its own; every grid walk
    # must visit all all-vertex members first, so even a tiny budget beyond
    # the vertex count finds it
    fam = MatrixFamily(
        [
            [cell([1.0, 1.0], [1.0, -1.0]), cell([0.0])],
            [cell([0.0]), cell([1.0, 1.0], [2.0, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    rep = sample_family(fam, budget=16, seed=0, scheme="grid")
    assert rep.verdict == "UnstableSampleFound"
    assert rep.worst_margin <= 0.0
    assert rep.seed is None  # grid walks are seed-free


def test_grid_covers_interval_bound_patterns():
    # lower-bound pattern of the only cell is unstable (negative damping)
    fam = MatrixFamily(
        [[IntervalEntry([1.0, -0.5, 1.0], [1.0, 0.5, 1.0])]], HurwitzHalfPlane()
    )
    rep = sample_family(fam, budget=8, scheme="grid")
    assert rep.verdict == "UnstableSampleFound"


def climbed_grid_level(cells, budget):
    """The grid level reached one level at a time: step up while the next level fits and grows."""

    def sizes(level):
        return [len(choices) for choices in oracle._grid_weight_lists(cells, level)]

    level = 1
    while math.prod(sizes(level + 1)) <= budget and sizes(level + 1) != sizes(level):
        level += 1
    return level


@pytest.mark.parametrize(
    "shape",
    [(1,), (2,), (3,), (1, 1), (2, 2), (2, 3, 1), (4, 1, 1, 1), ("i1",), ("i3", 1), ("i2", 2), ("i5", "i1", 3, 2)],
)
def test_grid_level_is_the_largest_that_fits(shape):
    # integers are polytope cells with that many vertices, "iL" interval cells of length L
    cells = [
        ("interval", np.zeros((2, int(c[1:]))), int(c[1:])) if isinstance(c, str) else ("polytope", np.zeros((c, 2)), 2)
        for c in shape
    ]
    for budget in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 35, 36, 63, 64, 100, 127, 500, 1000]:
        assert oracle._grid_level(cells, budget) == climbed_grid_level(cells, budget), budget


@pytest.mark.parametrize("m", range(1, 6))
def test_grid_mixes_are_the_vector_by_vector_mixes(m):
    # at level l, vertex r gets t = 1/l, ..., (l-1)/l and the others (1 - t)/(m - 1), each mix divided by its sum
    for level in range(1, 40):
        (got,) = oracle._grid_weight_lists([("polytope", np.zeros((m, 2)), 2)], level)
        want = list(np.eye(m))
        for extra in range(level - 1 if m > 1 else 0):
            t = (extra + 1) / level
            for r in range(m):
                w = np.full(m, (1.0 - t) / (m - 1))
                w[r] = t
                want.append(w / w.sum())
        assert got.tobytes() == np.array(want).tobytes(), level


def test_sampling_respects_region():
    # roots at -0.5 are Hurwitz-stable but outside the unit disk
    fam = MatrixFamily([[cell([0.5, 1.0], [0.6, 1.0])]], Disk(0.0, 0.25))
    rep = sample_family(fam, budget=50, seed=1, scheme="random")
    assert rep.verdict == "UnstableSampleFound"


def test_interval_cells_of_different_lengths_are_sampled():
    # sampled weights span the longest cell; a shorter cell ignores the rest
    fam = MatrixFamily(
        [
            [IntervalEntry([1.0, 2.0, 1.0], [1.1, 2.1, 1.1]), IntervalEntry([0.1], [0.2])],
            [IntervalEntry([0.1], [0.2]), IntervalEntry([1.0, 1.0], [1.1, 1.2])],
        ],
        HurwitzHalfPlane(),
    )
    for scheme in ("random", "grid"):
        rep = sample_family(fam, budget=300, seed=4, scheme=scheme)
        assert rep.verdict == "StableAtAllSamples"
        margin, _ = member_margin(fam, [np.asarray(w) for w in rep.worst_member.weights])
        assert margin == rep.worst_margin


@pytest.mark.parametrize("scheme", ["random", "grid"])
def test_constant_determinant_reports_the_first_member(scheme):
    # every margin is +inf, so no member is worse than the first
    fam = family_from_fixture("constant1x1.json")
    rep = sample_family(fam, budget=100, seed=3, scheme=scheme)
    assert rep.verdict == "StableAtAllSamples"
    assert rep.worst_margin == rep.worst_member.margin == np.inf
    assert rep.worst_member.worst_root is None
    if scheme == "random":
        first = _random_weights(_cell_coeff_arrays(fam), 100, np.random.default_rng(3))[0][0]
    else:
        first = [1.0, 0.0]
    assert rep.worst_member.weights == (tuple(first),)


def test_unknown_scheme_rejected():
    with pytest.raises(Exception):
        sample_family(stable_2x2(), budget=10, scheme="sobol")


# ----------------------------------------------------------------------
# root-solving only the members that could still be the worst


def seeded_family(seed, n, region=None, shift=0.0, interval=False):
    """A diagonally dominant family around stable quadratics, moved right by ``shift``."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                roots = -rng.uniform(0.3, 2.0, size=2) + shift
                base = np.real(np.poly(roots))[::-1] * rng.uniform(0.5, 2.0)
            else:
                base = rng.uniform(-0.2, 0.2, size=int(rng.integers(1, 3)))
            if interval:
                width = rng.uniform(0.0, 0.1, size=base.size) * np.abs(base)
                row.append(IntervalEntry(base - width, base + width))
            else:
                m = int(rng.integers(1, 4))
                row.append(cell(*[base * (1.0 + 0.1 * rng.normal(size=base.size)) for _ in range(m)]))
        entries.append(row)
    return MatrixFamily(entries, region or HurwitzHalfPlane())


SEEDED = {
    "seeded2": seeded_family(1, 2),
    "seeded3": seeded_family(2, 3),
    "seeded3_interval": seeded_family(3, 3, interval=True),
    "seeded3_unstable": seeded_family(4, 3, shift=1.2),
    "seeded3_shifted": seeded_family(5, 3, region=ShiftedHalfPlane(-0.2)),
    "seeded2_disk": seeded_family(6, 2, region=Disk(-1.0, 2.5)),
}


def oracle_cases():
    cases = {}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            cases[path.stem] = parse_family_dict(json.loads(path.read_text()))
        except SchemaError:
            continue  # a schema fixture the oracle never sees
    return cases | SEEDED


CASES = oracle_cases()


@pytest.mark.parametrize("fam", CASES.values(), ids=CASES.keys())
def test_skipping_cleared_members_keeps_every_report(fam, monkeypatch):
    # the reference run root-solves every member
    def reports():
        out = []
        for scheme, seed in (("random", 0), ("random", 7), ("grid", 0)):
            try:
                out.append(sample_family(fam, budget=5000, seed=seed, scheme=scheme).describe())
            except ValidationFailure as exc:
                out.append(str(exc))
        return out

    filtered = reports()
    monkeypatch.setattr(oracle, "margins_exceed", lambda region, rows, tau: np.zeros(rows.shape[1], bool))
    assert filtered == reports()


def test_seeded_cases_cover_both_signs_of_the_bar():
    worst = {name: sample_family(fam, budget=2000, seed=0).worst_margin for name, fam in SEEDED.items()}
    assert worst["seeded3_unstable"] < 0.0 < worst["seeded3"]
    assert worst["seeded3_shifted"] > 0.0


def test_most_sampled_members_skip_the_root_solver(monkeypatch):
    solved = []

    def counting(region, rows):
        solved.append(rows.shape[0])
        return member_margins(region, rows)

    monkeypatch.setattr(oracle, "member_margins", counting)
    rep = sample_family(family_from_fixture("demo3x3.json"), budget=20_000, seed=0)
    assert rep.samples == 20_000
    assert 0 < sum(solved) < 0.05 * 20_000


# ----------------------------------------------------------------------
# oracle vs analysis on the frozen fixtures


def test_fixture_vertex_insufficiency_oracle_and_analysis_agree():
    fam = family_from_fixture("vertex_insufficiency.json")
    rep = sample_family(fam, budget=4000, seed=3, scheme="grid")
    assert rep.verdict == "UnstableSampleFound"
    assert rep.worst_margin <= -1e-3
    assert analyze_family(fam).status.value == "Unstable"


def test_fixture_demo3x3_oracle_and_analysis_agree():
    fam = family_from_fixture("demo3x3.json")
    rep = sample_family(fam, budget=2000, seed=3, scheme="grid")
    assert rep.verdict == "StableAtAllSamples"
    assert rep.worst_margin > 0.1
    assert analyze_family(fam).status.value == "RobustlyStable"


def test_batched_member_determinants_equal_single_member_calls():
    # batch makeup must not change any member's determinant coefficients
    fam = family_from_fixture("demo3x3.json")
    n = fam.n
    cells = _cell_coeff_arrays(fam)
    coeffs = _coeff_batches(cells, _random_weights(cells, 64, np.random.default_rng(11)))
    batched = oracle._determinants(n, coeffs)
    for b in range(64):
        single = oracle._determinants(n, [c[:, b : b + 1] for c in coeffs])
        assert np.array_equal(batched[:, b : b + 1], single)


def _padded_determinants(fam, cells, weights):
    """The reference expansion: every mixed cell zero-padded to the family's longest cell."""
    n = fam.n
    mixed = [
        w @ arr if kind == "polytope" else arr[0] * (1.0 - w) + arr[1] * w
        for (kind, arr, _), w in zip(cells, weights)
    ]
    return _laplace([mixed[i * n : (i + 1) * n] for i in range(n)])


POLYTOPE_FIXTURES = [
    path.stem for path in sorted(FIXTURES.glob("*.json")) if path.stem in CASES and CASES[path.stem].mode == "polytope"
]


@pytest.mark.parametrize("name", POLYTOPE_FIXTURES)
def test_cells_at_their_own_length_keep_the_padded_determinants(name):
    # a cut cell drops only products with padding zeros, and the sums keep
    # their order: each runs over ascending powers of the cell
    fam = CASES[name]
    cells = _cell_coeff_arrays(fam)
    assert max(length for _, _, length in cells) == cells[0][1].shape[1]
    for seed in (0, 1):
        weights = _random_weights(cells, 256, np.random.default_rng(seed))
        coeffs = _coeff_batches(cells, weights)
        assert [c.shape for c in coeffs] == [(length, 256) for _, _, length in cells]
        # a single-vertex cell is a stride-0 view of its vertex; every other
        # cell is coefficient-first with contiguous rows
        assert [c.strides[1] == 0 for c in coeffs] == [arr.shape[0] == 1 for _, arr, _ in cells]
        assert all(c.strides[1] in (0, 8) for c in coeffs)
        det = oracle._determinants(fam.n, coeffs)
        assert det.shape[1] == 256 and det.flags.c_contiguous
        # bitwise the determinants of the same cells materialised in memory
        materialised = oracle._determinants(fam.n, [np.array(c) for c in coeffs])
        assert det.tobytes() == materialised.tobytes()
        padded = _padded_determinants(fam, cells, weights)
        assert np.array_equal(det.T, padded[:, : det.shape[0]], equal_nan=True)
        assert not padded[:, det.shape[0] :].any()


@pytest.mark.parametrize("name", POLYTOPE_FIXTURES)
def test_screen_on_the_oracles_batches_never_clears_a_member_at_or_below_the_bar(name):
    # the skip rule of sample_family on the (L, B) determinants it screens:
    # a cleared member's computed margin must exceed the bar
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    rng = np.random.default_rng(29)
    for region in (HurwitzHalfPlane(), ShiftedHalfPlane(-0.2)):
        fam = parse_family_dict(doc, region)
        cells = _cell_coeff_arrays(fam)
        for _ in range(3):
            det = oracle._determinants(fam.n, _coeff_batches(cells, _random_weights(cells, 512, rng)))
            margins, _ = member_margins(region, det.T)
            finite = margins[np.isfinite(margins)]
            if finite.size == 0:
                continue
            for bar in (finite.min(), *np.quantile(finite, [0.01, 0.2, 0.5])):
                bar = float(bar)
                cleared = oracle.margins_exceed(region, det, bar + oracle._SLACK * (1.0 + abs(bar)))
                assert not (cleared & ~(margins > bar)).any()


def test_sampled_vertex_members_get_the_analyzers_margins():
    # one root solver and cells at their own length: a batched vertex
    # member's margin is bitwise point_stable's
    for name in ("demo3x3.json", "mixed_lengths.json", "dominant4_partial.json", "swapped_lengths.json"):
        fam = family_from_fixture(name)
        n = fam.n
        cells = _cell_coeff_arrays(fam)
        rng = np.random.default_rng(5)
        picks = [rng.integers(arr.shape[0], size=64) for _, arr, _ in cells]
        weights = [np.eye(arr.shape[0])[p] for (_, arr, _), p in zip(cells, picks)]
        coeffs = _coeff_batches(cells, weights)
        margins, _ = member_margins(fam.region, oracle._determinants(n, coeffs).T)
        for b in range(64):
            grid = [[fam.entry(i, j).vertices[picks[i * n + j][b]] for j in range(n)] for i in range(n)]
            assert margins[b] == point_stable(det_matrix(grid), fam.region).margin


# ----------------------------------------------------------------------
# witness-guided counterexample search


def test_counterexample_from_witness_hint():
    fam = family_from_fixture("vertex_insufficiency.json")
    verdict = analyze_family(fam)
    assert verdict.status.value == "Unstable"
    w = verdict.witness
    rec = find_counterexample_near(
        fam, hint=(w.config_index, w.lam), budget=400, seed=0, target=-1e-4
    )
    assert rec is not None
    assert rec.margin <= -1e-4
    # the record must reproduce through the exact path
    margin, _ = member_margin(fam, [np.asarray(x) for x in rec.weights])
    assert margin == rec.margin


def test_counterexample_weights_are_valid():
    fam = family_from_fixture("vertex_insufficiency.json")
    verdict = analyze_family(fam)
    rec = find_counterexample_near(
        fam, hint=(verdict.witness.config_index, verdict.witness.lam), seed=0
    )
    assert rec is not None
    for w in rec.weights:
        arr = np.asarray(w)
        assert np.all(arr >= -1e-12)
        assert arr.sum() == pytest.approx(1.0, abs=1e-9)


def test_hint_weights_follow_the_configurations_vertex_indices():
    # the two vertices of cell (0, 0) agree to 1e-12: a hint must still pin
    # the vertex its configuration chose, not the first one close to it
    fam = MatrixFamily(
        [
            [cell([1.0, 1.0], [1.0, 1.0 + 1e-12]), cell([0.1])],
            [cell([0.1]), cell([2.0, 1.0], [3.0, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    rng = np.random.default_rng(0)
    pinned = set()
    for cfg in iter_configs(fam):
        lam = tuple(rng.random(cfg.k))
        lam_by_col = dict(zip(cfg.lambda_columns, lam))
        weights = _weights_from_hint(fam, (cfg, lam))
        for i in range(2):
            for j in range(2):
                w = weights[2 * i + j]
                if cfg.sigma[j] == i:
                    seg, t = cfg.edge_choice[j], lam_by_col.get(j, 0.0)
                    want = np.zeros(w.size)
                    want[seg.index0] += 1.0 - t
                    want[seg.index1] += t
                else:
                    want = np.eye(w.size)[cfg.vertex_index[i, j]]
                    if (i, j) == (0, 0) and cfg.vertex_index[i, j] == 1:
                        pinned.add(cfg.index)
                assert np.array_equal(w, want), (cfg.index, i, j)
    assert pinned == {3, 4}


@pytest.mark.parametrize("name", ["demo3x3", "mixed_lengths", "interval_truncation", "swapped_lengths"])
def test_hint_by_index_gives_the_configurations_weights(name):
    # an index hint reads its configuration off one row of the vertex table
    fam = parse_family_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    rng = np.random.default_rng(1)
    for cfg in iter_configs(fam, stop=60):
        lam = tuple(rng.random(cfg.k)) if cfg.k else None
        by_index, by_config = _weights_from_hint(fam, (cfg.index, lam)), _weights_from_hint(fam, (cfg, lam))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(by_index, by_config, strict=True)), cfg.index


def test_hint_index_out_of_range():
    fam = stable_2x2()
    with pytest.raises(IndexError):
        _weights_from_hint(fam, (8, None))


@pytest.mark.parametrize("hint", [(0, (0.5,)), "witness"])
def test_counterexample_search_builds_its_table_and_cells_once(monkeypatch, hint):
    fam = stable_2x2() if hint != "witness" else parse_family_dict(
        json.loads((FIXTURES / "vertex_insufficiency.json").read_text())
    )
    if hint == "witness":
        w = analyze_family(fam).witness
        hint = (w.config_index, w.lam)
    built = {"VertexTable": 0, "_cell_coeff_arrays": 0}
    for name in built:
        real = getattr(oracle, name)

        def counting(*args, real=real, name=name):
            built[name] += 1
            return real(*args)

        monkeypatch.setattr(oracle, name, counting)
    find_counterexample_near(fam, hint, budget=60, seed=0, target=-1.0)
    assert built == {"VertexTable": 1, "_cell_coeff_arrays": 1}


def test_counterexample_from_a_witness_without_parameters():
    # the one configuration has k = 0, so the witness carries lam None
    fam = MatrixFamily([[cell([-1.0, 1.0])]], HurwitzHalfPlane())
    w = analyze_family(fam).witness
    assert w.lam is None
    rec = find_counterexample_near(fam, hint=(w.config_index, w.lam), budget=10)
    assert rec.weights == ((1.0,),)
    assert rec.margin == -1.0


def test_counterexample_none_for_truly_stable_family():
    fam = stable_2x2()
    # hint at an arbitrary configuration midpoint; the search must fail
    rec = find_counterexample_near(fam, hint=(0, (0.5,)), budget=60, seed=0)
    assert rec is None
