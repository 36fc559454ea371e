"""The box test: Kharitonov's theorem on a configuration's coefficient box, and on the whole family's.

Soundness on seeded families (every member of a certified box keeps its
roots more than the reported margin inside the region), and constructed
near-boundary boxes that each part of the test is needed for: the outward
widening, all four Kharitonov polynomials, and the leading interval that
must exclude zero.  The family certificate gets the same: sampled and
all-vertex members of every family it certifies, and constructed cases for
the outward rounding of the cell boxes and of the split point, the
rounding term of the determinant enclosure, the truncation check, all four
Kharitonov polynomials, and the enclosures' corners as the box test's
rows.
"""

import itertools
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from edgestab import region as reg
from edgestab.cli import parse_family_dict
from edgestab.det import ParametricDeterminant, _laplace, cell_boxes, det_enclosure, det_parametric, monomial_weights
from edgestab.edges import VertexTable, config_at, iter_configs
from edgestab.family import IntervalEntry, MatrixFamily, PolytopeEntry, kharitonov_lower
from edgestab.poly import Polynomial
from edgestab.oracle import sample_family
from edgestab.region import Disk, HurwitzHalfPlane, ShiftedHalfPlane, boxes_exceed, kharitonov_hurwitz
from edgestab import stab
from edgestab.stab import Status, Tolerances, VertexMembers, _check_chunk, box_stable

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

REGIONS = {
    "hurwitz": HurwitzHalfPlane(),
    "shifted": ShiftedHalfPlane(-0.1),
    "disk": Disk(-1.0 + 0.0j, 1.2),
    # tested through the real-centre disks inscribed in them
    "disk_complex": Disk(-3.0 + 0.2j, 3.5),
    "disk_offset": Disk(-1.5 + 0.1j, 1.0),
}
COMPLEX_DISKS = ("disk_complex", "disk_offset")
# Box-certified configurations among the first 48 of each family, at least;
# most seeded families have members outside the small offset disk.
MIN_CERTIFIED = {"hurwitz": 50, "shifted": 50, "disk": 50, "disk_complex": 50, "disk_offset": 10}


def seeded_family(seed, region):
    # n = 1, 2, 3, two vertices per cell around a stable skeleton whose
    # diagonal roots lie in [-1.8, -0.5], perturbed more with the seed
    rng = np.random.default_rng(53_000 + seed)
    n = 1 + seed % 3
    bump = (0.05, 0.2, 0.5)[seed // 3 % 3]

    def entry(diagonal):
        if diagonal:
            a, b = rng.uniform(0.5, 1.8, 2)
            base = np.array([a * b, a + b, 1.0])
        else:
            base = np.array([rng.uniform(-0.3, 0.3)])
        return PolytopeEntry(tuple(Polynomial(base + rng.uniform(-bump, bump, base.size)) for _ in range(2)))

    return MatrixFamily([[entry(r == c) for c in range(n)] for r in range(n)], region)


def fixture_family(name, region):
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    return MatrixFamily(parse_family_dict(doc).entries, region)


def member_margins_on_grid(pd, region, rng):
    """Root margin of every member on a 3-point lambda grid plus 8 seeded random lambdas."""
    grid = np.array(np.meshgrid(*[np.linspace(0.0, 1.0, 3)] * pd.k, indexing="ij")).reshape(pd.k, -1).T
    lams = np.concatenate([grid, rng.random((8, pd.k))])
    out = []
    for row in monomial_weights(pd.masks, lams) @ pd.rows:
        roots = np.roots(row[::-1])
        out.append((float(np.min(region.margin(roots))), float(np.max(np.abs(roots)))))
    return out


@pytest.mark.parametrize("region", list(REGIONS))
def test_box_certificates_are_sound(region):
    # every member on a lambda grid of each box-certified configuration has
    # every root more than the reported margin inside the region
    rng = np.random.default_rng(7)
    families = [fixture_family(name, REGIONS[region]) for name in ("demo3x3", "diagonal3", "mixed_lengths")]
    families += [seeded_family(seed, REGIONS[region]) for seed in range(9)]
    certified = 0
    for fam in families:
        members = VertexMembers(fam)
        stop = min(members.table.total, 48)
        for index, verdict in _check_chunk(fam, 0, stop, Tolerances(), members):
            if "Kharitonov" not in verdict.reason:
                continue
            certified += 1
            assert verdict.status is Status.ROBUSTLY_STABLE and "root-distance bound" in verdict.reason
            tau = verdict.margin
            pd = det_parametric(config_at(fam, index))
            for margin, size in member_margins_on_grid(pd, fam.region, rng):
                assert margin >= tau - 1e-9 * (1.0 + size), (index, margin, tau)
    assert certified >= MIN_CERTIFIED[region]


@pytest.mark.parametrize("region", COMPLEX_DISKS)
def test_complex_centre_disk_verdicts_are_sound(region):
    # every family verdict under a complex-centre disk that is
    # RobustlyStable holds for 2,000 sampled members and every all-vertex
    # member: each keeps its roots at least tau inside the original disk
    names = ("demo3x3", "diagonal3", "mixed_lengths", "dominant4_partial", "vertex_insufficiency")
    families = [fixture_family(name, REGIONS[region]) for name in names]
    families += [seeded_family(seed, REGIONS[region]) for seed in range(9)]
    certified = 0
    for fam in families:
        verdict, _ = family_outcome(fam)
        if verdict.status is not Status.ROBUSTLY_STABLE:
            continue
        certified += 1
        assert sample_family(fam, budget=2_000, seed=0).worst_margin >= verdict.margin
        assert all_vertex_margins(fam).min() >= verdict.margin
    assert certified >= 4


def test_tightened_parameters_round_down():
    # the map parameters are the largest floats not above the exact a - b
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 2.0, 400) * 10.0 ** rng.integers(-3, 3, 400)
    b = rng.uniform(0.0, 1.0, 400) * 10.0 ** rng.integers(-6, 1, 400)
    for x, y, got in zip(a, b, reg._down(a, b)):
        exact = Fraction(x) - Fraction(y)
        assert Fraction(got) <= exact < Fraction(np.nextafter(got, np.inf))


def test_widening_covers_the_shift_rounding():
    # p = s^2 + c1 s + c0 has a root just right of -0.1 (its Taylor-shifted
    # constant p(-0.1) is -4.1e-19 exactly), so no root clears tau = 0.1;
    # the shifted constant rounds to +6.9e-18, which only the widening
    # pulls back below zero
    c0, c1 = 0.10744667844096757, 1.1744667844096757
    t = Fraction(0.1)
    assert Fraction(c0) - Fraction(c1) * t + t * t < 0
    corners = np.array([[[c0, c1, 1.0]]])
    T, _, _ = reg._hurwitz_frame(HurwitzHalfPlane(), np.array([[0.1]]), 3)
    mapped = sum(corners[0, 0, i] * T[0, 0, i] for i in range(3))
    assert mapped[0] > 0.0 and kharitonov_hurwitz(mapped, mapped)
    assert not boxes_exceed(HurwitzHalfPlane(), corners, np.zeros_like(corners), np.array([[0.1]]))[0, 0]
    # a tau it clears by far passes
    assert boxes_exceed(HurwitzHalfPlane(), corners, np.zeros_like(corners), np.array([[0.05]]))[0, 0]


# Degree-6 interval polynomials whose Kharitonov polynomial r alone is not
# Hurwitz: its worst root lies 0.003 to 0.09 right of the imaginary axis.
ONE_BAD_KHARITONOV = {
    0: ([3.54, 8.82, 17.47, 17.41, 8.75, 2.87, 0.96], [3.78, 10.65, 18.17, 19.75, 9.57, 3.12, 1.04]),
    1: ([31.68, 74.49, 79.55, 50.86, 20.66, 6.16, 0.86], [32.98, 75.53, 83.83, 53.87, 24.28, 7.05, 1.14]),
    2: ([19.43, 29.2, 48.03, 40.83, 22.9, 6.53, 0.89], [24.68, 38.69, 64.62, 54.12, 23.78, 6.55, 1.11]),
    3: ([59.7, 80.88, 94.07, 48.44, 24.89, 5.18, 0.95], [77.28, 86.43, 98.89, 63.86, 26.1, 6.51, 1.05]),
}


@pytest.mark.parametrize("bad", sorted(ONE_BAD_KHARITONOV))
def test_all_four_kharitonov_polynomials_are_needed(bad):
    lo, hi = (np.array(b) for b in ONE_BAD_KHARITONOV[bad])
    rows = np.where(kharitonov_lower(7), lo, hi)
    worst = [float(np.max(np.roots(row[::-1]).real)) for row in rows]
    assert [r for r in range(4) if worst[r] > 0.0] == [bad]
    passes = reg.margins_exceed(HurwitzHalfPlane(), rows.T, 0.0)
    assert passes.tolist() == [r != bad for r in range(4)]
    assert not kharitonov_hurwitz(lo, hi)
    # as a box whose seven slots each move one coefficient: its corner members
    # are every lower/upper choice, and the bad polynomial is one of them
    terms = {0: Polynomial(lo)}
    for i in range(7):
        terms[1 << i] = Polynomial(np.eye(7)[i] * (hi[i] - lo[i]))
    v = box_stable(ParametricDeterminant.from_terms(7, terms), HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE and v.reason == "box corner member is unstable"


def test_bilinear_leading_interval_must_exclude_zero():
    # the disk |z - 1| < 1.5 tightened by tau = 0.5 maps z = (2 + 0 s) / (1 - s):
    # q(s) = sum p_i 2**i (1 - s)**(2 - i), leading coefficient p(0).  Member
    # z (z - 1) has its root 0 on the tightened boundary, so q drops to
    # 2 + 2 s, Hurwitz; with (z - 0.9)(z - 1.1) the box's polynomials of
    # leading coefficient 0 are Hurwitz of degree 1, and only the leading
    # interval's test refuses the box
    region = Disk(1.0 + 0.0j, 1.5)
    corners = np.array([[0.0, -1.0, 1.0], [0.99, -2.0, 1.0]])
    T, _, valid = reg._hurwitz_frame(region, np.array([[0.5]]), 3)
    mapped = np.array([sum(c[i] * T[0, 0, i] for i in range(3)) for c in corners])
    assert valid[0, 0] and mapped[0].tolist() == [2.0, 2.0, 0.0]
    assert np.allclose(mapped[1], [0.99, 2.02, 0.99], rtol=1e-15, atol=0.0)
    lo, hi = mapped.min(axis=0), mapped.max(axis=0)
    rows = np.where(kharitonov_lower(3), lo, hi)
    assert reg.margins_exceed(HurwitzHalfPlane(), rows.T, 0.0).all()
    assert not kharitonov_hurwitz(lo, hi)
    assert not boxes_exceed(region, corners[None], np.zeros((1, 2, 3)), np.array([[0.5]]))[0, 0]


def test_complex_centre_disk_passes_nothing():
    # a disk with a complex centre c and radius r passes nothing beyond the
    # disk of centre Re c and radius r - |Im c| inscribed in it: the roots -1
    # and -2 of (s + 1)(s + 2) lie 0.49 inside D(-1.5 + 0.1j, 1) but 0.4
    # inside D(-1.5, 0.9), and a disk with |Im c| >= r passes nothing at all
    corners = np.array([[[2.0, 3.0, 1.0]]])
    taus = np.array([[1e-6, 1e-3, 0.39, 0.41, 0.48]])
    passed = boxes_exceed(Disk(-1.5 + 0.1j, 1.0), corners, np.zeros_like(corners), taus)
    assert passed.tolist() == [[True, True, True, False, False]]
    assert boxes_exceed(Disk(-1.5 + 0.0j, 0.9), corners, np.zeros_like(corners), taus).tolist() == passed.tolist()
    for centre in (-1.5 + 1.0j, -1.5 - 2.0j):
        assert not boxes_exceed(Disk(centre, 1.0), corners, np.zeros_like(corners), taus).any()


def test_complex_centre_disk_is_not_tested_at_its_full_radius():
    # the roots +-0.8j of s^2 + 0.64 lie inside D(0, 1), the disk of centre
    # Re c and the full radius r, but -0.8j lies 0.3 outside D(0.5j, 1): the
    # box test must pass it at no tau, while D(0, 1) passes it
    corners = np.array([[[0.64, 0.0, 1.0]]])
    taus = np.array([[1e-6, 1e-3, 0.1]])
    assert boxes_exceed(Disk(0.0j, 1.0), corners, np.zeros_like(corners), taus).all()
    assert not boxes_exceed(Disk(0.5j, 1.0), corners, np.zeros_like(corners), taus).any()
    assert Disk(0.5j, 1.0).margin(-0.8j) == pytest.approx(-0.3)


def test_margin_is_the_largest_passing_rung():
    # (s + 1)(s + 2) with a small second slot: the anchor's margin is 1, and
    # the ladder's first rung, tau = 1/2, is the largest the box clears;
    # tau = 1 would put the anchor's root -1 on the tightened boundary
    pd = ParametricDeterminant.from_terms(
        1, {0: Polynomial([2.0, 3.0, 1.0]), 1: Polynomial([0.01])}
    )
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE and v.margin == 0.5
    assert v.reason.endswith("the margin is a root-distance bound")


def cell(*coeff_lists):
    return PolytopeEntry(tuple(Polynomial(list(c)) for c in coeff_lists))


def test_degree_test_reads_every_corner():
    # det = a d - b c with a in {2 + s, 2.5 + 0.5 s}, d in {3 + s, 3.5 + 0.5 s}
    # and b c = (0.5 + 0.5 s)^2: the s^2 coefficient a1 d1 - 0.25 is 0.75,
    # 0.25, 0.25 and 0 at corners 0 to 3 of the k = 2 box, so its interval
    # reaches zero at corner 3 alone, where the member drops to degree 1
    fam = MatrixFamily(
        [
            [cell([2.0, 1.0], [2.5, 0.5]), cell([0.5, 0.5])],
            [cell([0.5, 0.5]), cell([3.0, 1.0], [3.5, 0.5])],
        ],
        HurwitzHalfPlane(),
    )
    (cfg,) = [cfg for cfg in iter_configs(fam) if cfg.k == 2]
    pd = det_parametric(cfg)
    corners = monomial_weights(pd.masks, [[0, 0], [1, 0], [0, 1], [1, 1]]) @ pd.rows
    assert corners[:, 2].tolist() == [0.75, 0.25, 0.25, 0.0]
    want = "leading-coefficient interval reaches zero (degree drop)"
    alone = box_stable(pd, fam.region)
    assert (alone.status, alone.reason) == (Status.DEGENERATE, want)
    members = VertexMembers(fam)
    chunk = dict(_check_chunk(fam, 0, members.table.total, Tolerances(), members))
    assert repr(chunk[cfg.index]) == repr(alone)


def test_mixed_degrees_in_one_run(monkeypatch):
    # det = a d - b c of the identity pattern, with a = 3 or 3.5 plus s,
    # d = 4 or 4.5 plus s and c = 0.5 + s: with b = 0.5 + s the s^2 term
    # cancels exactly in every mask, with b = 0.5 + 0.5 s it does not.  Both
    # vertex choices of b share one run of width 3; the first box has degree
    # 1 and is tested on its own 2 columns, the second on 3
    fam = MatrixFamily(
        [
            [cell([3.0, 1.0], [3.5, 1.0]), cell([0.5, 1.0], [0.5, 0.5])],
            [cell([0.5, 1.0]), cell([4.0, 1.0], [4.5, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    members = VertexMembers(fam)
    table = members.table
    (first, ends), *_ = [(first, ends) for first, ends in table.runs(0, table.total) if len(ends) == 2]
    cfgs = [config_at(fam, first), config_at(fam, first + 1)]
    assert [cfg.k for cfg in cfgs] == [2, 2]
    pds = [det_parametric(cfg) for cfg in cfgs]
    assert [pd.rows.shape[1] for pd in pds] == [2, 3]

    tested = []
    exceed = stab.boxes_exceed

    def recording_exceed(region, corners, errors, taus):
        tested.append(corners.shape)
        return exceed(region, corners, errors, taus)

    monkeypatch.setattr(stab, "boxes_exceed", recording_exceed)
    chunk = dict(_check_chunk(fam, first, first + 2, Tolerances(), members))
    assert sorted(tested) == [(1, 4, 2), (1, 4, 3)]
    corners = members.solve(stab._corner_ends(ends, table.slots(table.lambda_cells(ends[0]))))
    for cfg, pd, own in zip(cfgs, pds, corners):
        alone = box_stable(pd, fam.region, None, own)
        assert "Kharitonov" in alone.reason
        assert repr(chunk[cfg.index]) == repr(alone)


# ----------------------------------------------------------------------
# the family certificate: one box test for every member of the family


def dominant_family(seed, n, uncertain, region=HurwitzHalfPlane(), off=0.05):
    # diagonal quadratics around (s + a)(s + b), a, b in [0.5, 1.8], and
    # small off-diagonal constants; the cells in ``uncertain`` get a second
    # vertex, every coefficient moved by up to 0.1 (0.05 off the diagonal)
    rng = np.random.default_rng(59_000 + seed)

    def entry(i, j):
        if i == j:
            a, b = rng.uniform(0.5, 1.8, 2)
            base, bump = np.array([a * b, a + b, 1.0]), 0.1
        else:
            base, bump = np.array([rng.uniform(-off, off)]), 0.05
        count = 2 if (i, j) in uncertain else 1
        return PolytopeEntry(tuple(Polynomial(base + rng.uniform(-bump, bump, base.size)) for _ in range(count)))

    return MatrixFamily([[entry(i, j) for j in range(n)] for i in range(n)], region)


def diagonal(n):
    return {(i, i) for i in range(n)}


def every_cell(n):
    return {(i, j) for i in range(n) for j in range(n)}


def family_outcome(fam, jobs=1):
    analyze = stab.analyze_interval_detailed if fam.mode == "interval" else stab.analyze_family_detailed
    return analyze(fam, jobs=jobs)


def all_vertex_margins(fam):
    """Root margin of every member whose cells are all vertices (Kharitonov vertices for interval cells)."""
    table = VertexTable(fam)
    n = fam.n
    counts = [len(vs) for vs in table.vertices]
    picks = np.indices(counts).reshape(n * n, -1)
    grid = [[table.rows[c, picks[c], : table.width[c]] for c in range(i * n, i * n + n)] for i in range(n)]
    return reg.member_margins(fam.region, _laplace(grid))[0]


def box_diagonal_family():
    # s^2 + p1 s + p0 over the four corners of p0 in [0.6, 3], p1 in [1.5, 6],
    # the anchor (3, 6) first: its margin is 0.55, but the corner (0.6, 6)
    # has a root at -0.1.  The box test on the two corner rows
    # [(0.6, 1.5, 1), (3, 6, 1)] would pass tau = 0.275, since the Taylor
    # shift maps those two corners to stable rows; the corner (0.6, 6) maps
    # outside their box
    corners = [[3.0, 6.0, 1.0], [0.6, 1.5, 1.0], [0.6, 6.0, 1.0], [3.0, 1.5, 1.0]]
    return MatrixFamily([[PolytopeEntry([Polynomial(c) for c in corners])]], HurwitzHalfPlane())


FIXTURE_REGIONS = {"own": None, "shifted": ShiftedHalfPlane(-0.3), "disk": Disk(-2.0 + 0.0j, 2.5)}


def fixture_in(name, region):
    fam = parse_family_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    return fam if region is None else MatrixFamily(fam.entries, region)


CERTIFIED_FAMILIES = {
    **{
        f"{name}:{region}": (lambda name=name, region=region: fixture_in(name, FIXTURE_REGIONS[region]))
        for name in ("demo3x3", "diagonal3", "mixed_lengths")
        for region in FIXTURE_REGIONS
    },
    "dominant4_partial:own": lambda: fixture_in("dominant4_partial", None),
    "dominant4_partial:shifted": lambda: fixture_in("dominant4_partial", FIXTURE_REGIONS["shifted"]),
    # configuration 0 is bisected here, before the family certificate runs
    "dominant4_partial:disk": lambda: fixture_in("dominant4_partial", FIXTURE_REGIONS["disk"]),
    **{f"dominant3_full{seed}": (lambda seed=seed: dominant_family(seed, 3, every_cell(3))) for seed in range(3)},
    **{f"dominant4_diag{seed}": (lambda seed=seed: dominant_family(seed, 4, diagonal(4))) for seed in range(3)},
    **{f"dominant4_partial{seed}": (lambda seed=seed: dominant_family(seed, 4, diagonal(4) | {(0, 1)})) for seed in range(3)},
    "dominant4_full0": lambda: dominant_family(0, 4, every_cell(4)),
    "box_diagonal": box_diagonal_family,
}
# the family boxes that only the split round certifies
SPLIT = ("diagonal3:disk", "dominant4_partial:own", "dominant4_partial:shifted", "dominant4_partial:disk")


@pytest.mark.parametrize("name", list(CERTIFIED_FAMILIES))
def test_family_certificates_are_sound(name):
    # every configuration gets the family verdict, and 10,000 sampled
    # members and every all-vertex member keep their roots at least the
    # family margin tau inside the region
    fam = CERTIFIED_FAMILIES[name]()
    verdict, outcomes = family_outcome(fam)
    assert verdict.status is Status.ROBUSTLY_STABLE and len(outcomes) == VertexTable(fam).total
    (reason,) = {o.reason for o in outcomes}
    assert "family box" in reason and reason.endswith("the margin is a root-distance bound")
    assert ("split into" in reason) == (name in SPLIT)
    tau = verdict.margin
    assert {o.margin for o in outcomes} == {tau} and tau >= Tolerances().zero_margin
    assert sample_family(fam, budget=10_000, seed=0).worst_margin >= tau
    assert all_vertex_margins(fam).min() >= tau


def test_family_certificate_follows_an_inconclusive_configuration_0(monkeypatch):
    # with a budget of two sub-boxes, configuration 0 of dominant4_partial
    # under the shifted half plane (24 sub-boxes at the default budget) is
    # Inconclusive alone; the family certificate decides it too
    monkeypatch.setattr(stab, "_SUBBOX_CAP", 2)
    fam = CERTIFIED_FAMILIES["dominant4_partial:shifted"]()
    members = VertexMembers(fam)
    ((index, alone),) = stab._check_chunk(fam, 0, 1, Tolerances(), members)
    assert alone.status is Status.INCONCLUSIVE and "the budget of 2 sub-boxes is spent" in alone.reason
    verdict, outcomes = family_outcome(fam)
    assert verdict.status is Status.ROBUSTLY_STABLE and outcomes[0].status is Status.ROBUSTLY_STABLE


def bisections_of(monkeypatch):
    """Record the verdict of every ``stab._bisect`` call from now on."""
    seen = []
    bisect = stab._bisect
    monkeypatch.setattr(stab, "_bisect", lambda *args: seen.append(bisect(*args)) or seen[-1])
    return seen


def test_configuration_0_is_bisected_once_then_the_certificate_decides_the_family(monkeypatch):
    # configuration 0's checks leave it to bisection, which runs once; the
    # family certificate then passes and gives every configuration its verdict
    fam = CERTIFIED_FAMILIES["dominant4_partial:disk"]()
    members = VertexMembers(fam)
    ((_, alone),) = _check_chunk(fam, 0, 1, Tolerances(), members)
    assert alone.reason.startswith("bisected into")
    anchor = members._verdicts[tuple(next(members.table.ends(0, 1))[2][0, :, 0].tolist())]
    family = stab._family_certificate(fam, members.table, anchor.margin, Tolerances())
    bisected = bisections_of(monkeypatch)
    verdict, outcomes = family_outcome(fam)
    assert bisected == [alone]
    total = members.table.total
    assert verdict == stab.Verdict(family.status, margin=family.margin, reason=f"all {total} configurations certified")
    assert outcomes == [stab.ConfigOutcome(i, family.status, family.margin, family.reason) for i in range(total)]


def test_failed_family_certificate_sweeps_configuration_0_as_before(monkeypatch):
    # the family certificate of vertex_insufficiency under a complex-centre
    # disk fails: configuration 0, bisected before it, keeps the verdict it
    # gets alone
    fam = fixture_in("vertex_insufficiency", Disk(-3.0 + 0.2j, 3.5))
    ((_, alone),) = _check_chunk(fam, 0, 1, Tolerances(), VertexMembers(fam))
    assert alone.status is Status.ROBUSTLY_STABLE and alone.reason.startswith("bisected into")
    bisected = bisections_of(monkeypatch)
    _, outcomes = family_outcome(fam)
    assert bisected[0] == alone and outcomes[0].status is alone.status and outcomes[0].margin == alone.margin


@pytest.mark.parametrize(
    "name, region", [("vertex_insufficiency", Disk(-3.0 + 0.2j, 3.5)), ("dominant4_partial", Disk(-3.0 + 1.0j, 3.5))]
)
def test_configuration_0s_terms_are_built_once(name, region, monkeypatch):
    # configuration 0 is bisected and the family certificate fails, so the
    # stream follows; configuration 0's dense terms are built once all the same
    fam = fixture_in(name, region)
    zero = next(VertexTable(fam).ends(0, 1))[2][0].tolist()
    built = []
    run = stab.det_parametric_run

    def recording_run(table, ends):
        built.extend(ends.tolist())
        return run(table, ends)

    monkeypatch.setattr(stab, "det_parametric_run", recording_run)
    bisected = bisections_of(monkeypatch)
    _, outcomes = family_outcome(fam)
    assert bisected and "family box" not in outcomes[0].reason and len(outcomes) > 1
    assert built.count(zero) == 1


@pytest.mark.parametrize("name", SPLIT)
def test_split_round_certifies_what_the_family_box_leaves(name, monkeypatch):
    fam = CERTIFIED_FAMILIES[name]()
    members = VertexMembers(fam)
    table = members.table
    halved = [c for c in range(fam.n**2) if len(table.vertices[c]) == 2]
    stab._check_chunk(fam, 0, 1, Tolerances(), members)  # solves configuration 0's anchor
    anchor = members._verdicts[tuple(next(table.ends(0, 1))[2][0, :, 0].tolist())]
    split = stab._family_certificate(fam, table, anchor.margin, Tolerances())
    assert f"split into {2 ** len(halved)} sub-family boxes" in split.reason
    monkeypatch.setattr(stab, "_SPLIT_CAP", 2 ** len(halved) - 1)
    assert stab._family_certificate(fam, table, anchor.margin, Tolerances()) is None


def test_thin_cells_enter_as_boxes_beyond_the_hull_cap(monkeypatch):
    # the 2**16 corner members of the n = 4 family with every cell
    # two-vertex exceed the cap of 2**10, so the six thinnest cells, all of
    # them off-diagonal constants, enter as boxes and the rest as vertices
    fam = CERTIFIED_FAMILIES["dominant4_full0"]()
    grids = []
    enclosure = stab.det_enclosure
    monkeypatch.setattr(stab, "det_enclosure", lambda mid, rad: grids.append(mid) or enclosure(mid, rad))
    centre, radius = stab._family_enclosures(stab._family_points(VertexTable(fam), False, []), 4)
    assert centre.shape == radius.shape == (1, stab._HULL_CAP, 9)
    (mid,) = grids
    distinct = {(i, j): len(np.unique(mid[i][j], axis=0)) for i in range(4) for j in range(4)}
    boxed = {cell for cell, count in distinct.items() if count == 1}
    assert len(boxed) == 6 and all(i != j for i, j in boxed)
    assert all(count == 2 for cell, count in distinct.items() if cell not in boxed)


def test_certified_family_starts_no_pool_and_reports_every_configuration(tmp_path, monkeypatch):
    import concurrent.futures
    import os

    from edgestab.cli import run

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for a family the family box certifies")

    path = FIXTURES / "dominant4_partial.json"
    serial = family_outcome(fixture_in("dominant4_partial", None))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert family_outcome(fixture_in("dominant4_partial", None), jobs=2) == serial
    assert run(["analyze", str(path), "--jobs", "2", "--report", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["configs_checked"] == report["config_count"] == len(report["configs"]) == 398



# Constructed near-boundary cases for each part of the family certificate's
# rounding account and test.


def exact_det(grid):
    """Ascending coefficients of the determinant of a grid of float coefficient lists, in rational arithmetic."""
    n = len(grid)
    out = []
    for perm in itertools.permutations(range(n)):
        prod = [Fraction((-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))]
        for i, j in enumerate(perm):
            cell = [Fraction(float(c)) for c in grid[i][j]]
            nxt = [Fraction(0)] * (len(prod) + len(cell) - 1)
            for a, x in enumerate(prod):
                for b, y in enumerate(cell):
                    nxt[a + b] += x * y
            prod = nxt
        out += [Fraction(0)] * (len(prod) - len(out))
        for l, c in enumerate(prod):
            out[l] += c
    return out


def encloses(centre, radius, exact):
    return all(Fraction(c) - Fraction(r) <= e <= Fraction(c) + Fraction(r) for c, r, e in zip(centre, radius, exact))


def test_cell_boxes_cover_their_bounds():
    # at (-2**-60, 1 + 2**-52) the rounded mid - lo falls 2**-60 short of
    # the exact one, and at (1, 1 + 3 * 2**-52) the rounded average lies
    # 2**-52 / 2 off the middle, so half the width would not reach lo
    rng = np.random.default_rng(11)
    lo = rng.uniform(-3.0, 1.0, 400) * 10.0 ** rng.integers(-20, 20, 400)
    hi = lo + rng.uniform(0.0, 2.0, 400) * 10.0 ** rng.integers(-20, 20, 400)
    lo = np.concatenate([[-(2.0**-60), 1.0, 5.0], lo])
    hi = np.concatenate([[1.0 + 2.0**-52, 1.0 + 3 * 2.0**-52, 5.0], hi])
    mid, rad = cell_boxes(lo, hi)
    assert rad[2] == 0.0
    for a, b, m, r in zip(lo, hi, mid, rad):
        assert Fraction(m) - Fraction(r) <= Fraction(a) and Fraction(b) <= Fraction(m) + Fraction(r)


def test_enclosure_covers_the_rounding_of_the_expansion():
    # a = d = 1 + 2**-30 and b = c = 1: a d - b c rounds to 2**-29, while the
    # exact determinant is 2**-29 + 2**-60; the cells are points, so only
    # the rounding term gives the enclosure any width
    a, one = np.array([[1.0 + 2.0**-30]]), np.array([[1.0]])
    zero = np.zeros((1, 1))
    centre, radius = det_enclosure([[a, one], [one, a]], [[zero, zero], [zero, zero]])
    exact = exact_det([[a[0], one[0]], [one[0], a[0]]])
    assert centre[0, 0] == 2.0**-29 and Fraction(centre[0, 0]) != exact[0]
    assert encloses(centre[0], radius[0], exact)


def test_enclosure_holds_every_member_of_the_cell_boxes():
    # members at the corners and inside random 3 x 3 boxes of polynomial
    # cells, some boxes straddling zero, all inside the enclosure exactly
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 4, (3, 3))
    lo = [[rng.uniform(-2.0, 2.0, lengths[i, j]) for j in range(3)] for i in range(3)]
    hi = [[lo[i][j] + rng.uniform(0.0, 0.5, lengths[i, j]) for j in range(3)] for i in range(3)]
    boxes = [[cell_boxes(lo[i][j], hi[i][j]) for j in range(3)] for i in range(3)]
    centre, radius = det_enclosure(*([[box[t][None] for box in row] for row in boxes] for t in (0, 1)))
    for trial in range(24):
        pick = (lambda a, b: np.where(rng.random(a.size) < 0.5, a, b)) if trial < 8 else None
        member = [
            [pick(lo[i][j], hi[i][j]) if pick else lo[i][j] + rng.random(lo[i][j].size) * (hi[i][j] - lo[i][j]) for j in range(3)]
            for i in range(3)
        ]
        assert encloses(centre[0], radius[0], exact_det(member))


def test_split_point_covers_the_exact_midpoint():
    # vertices (1, 0, 1) and (2**-60, 1, 1): the midpoint's constant term
    # (1 + 2**-60) / 2 rounds to 1/2, so a member just past the middle of the
    # segment, with constant and s terms both above 1/2, would lie in
    # neither half's hull unless the shared point carries its rounding
    v0, v1 = [1.0, 0.0, 1.0], [2.0**-60, 1.0, 1.0]
    fam = MatrixFamily([[PolytopeEntry([Polynomial(v0), Polynomial(v1)])]], HurwitzHalfPlane())
    ((mid, rad),) = stab._family_points(VertexTable(fam), False, [0])
    exact = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(v0, v1)]
    assert mid[0, 1, 0] == 0.5 and Fraction(mid[0, 1, 0]) != exact[0]
    # sub-family 0 takes [v0, point], sub-family 1 takes [point, v1]
    assert mid[0, 1].tobytes() == mid[1, 0].tobytes() and rad[0, 1].tobytes() == rad[1, 0].tobytes()
    assert encloses(mid[0, 1], rad[0, 1], exact)
    assert mid[0, 0].tolist() == v0 and mid[1, 1].tolist() == v1 and not rad[0, 0].any() and not rad[1, 1].any()


def test_truncated_vertex_outside_configuration_0_keeps_the_family_degenerate():
    # cell (0, 1)'s second vertex loses its -1e-14 s^2 term at construction;
    # configuration 0 uses the first and is stable, and the family box would
    # certify every member, but the configurations that use the truncated
    # vertex are Degenerate, and so is the family
    fam = MatrixFamily(
        [[cell([2.0, 3.0, 1.0]), cell([0.1], [0.12, 0.0, -1e-14])], [cell([0.05]), cell([6.0, 5.0, 1.0])]],
        HurwitzHalfPlane(),
    )
    assert VertexTable(fam).truncated.any()
    verdict, outcomes = family_outcome(fam)
    assert outcomes[0].status is Status.ROBUSTLY_STABLE
    assert verdict.status is Status.DEGENERATE and "truncation" in verdict.reason


@pytest.mark.parametrize("name", ["truncation", "interval_truncation"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_truncation_fixtures_stay_degenerate(name, jobs):
    verdict, _ = family_outcome(fixture_in(name, None), jobs=jobs)
    assert verdict.status is Status.DEGENERATE and "truncation" in verdict.reason


@pytest.mark.parametrize("bad", sorted(ONE_BAD_KHARITONOV))
def test_family_box_needs_all_four_kharitonov_polynomials(bad):
    # the interval polynomial whose Kharitonov polynomial ``bad`` alone has
    # a root right of the axis: on the rungs below a margin of 4e-7, far
    # closer than that root, the three others pass, and the family box must
    # still fail
    lo, hi = ONE_BAD_KHARITONOV[bad]
    fam = MatrixFamily([[IntervalEntry(lo, hi)]], HurwitzHalfPlane())
    assert stab._family_certificate(fam, VertexTable(fam), 4e-7, Tolerances()) is None
