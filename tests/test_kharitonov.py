"""The box test: Kharitonov's theorem on a configuration's coefficient box.

Soundness on seeded families (every member of a certified box keeps its
roots more than the reported margin inside the region), and constructed
near-boundary boxes that each part of the test is needed for: the outward
widening, all four Kharitonov polynomials, and the leading interval that
must exclude zero.
"""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from edgestab import region as reg
from edgestab.cli import parse_family_dict
from edgestab.det import ParametricDeterminant, det_parametric, monomial_weights
from edgestab.edges import config_at, iter_configs
from edgestab.family import MatrixFamily, PolytopeEntry
from edgestab.poly import Polynomial
from edgestab.region import Disk, HurwitzHalfPlane, ShiftedHalfPlane, boxes_exceed, kharitonov_hurwitz
from edgestab import stab
from edgestab.stab import Status, Tolerances, VertexMembers, _check_chunk, box_stable

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

REGIONS = {
    "hurwitz": HurwitzHalfPlane(),
    "shifted": ShiftedHalfPlane(-0.1),
    "disk": Disk(-1.0 + 0.0j, 1.2),
}


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
    assert certified >= 50


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
    rows = np.where(reg._KHARITONOV_LOWER[:, np.arange(7) % 4], lo, hi)
    worst = [float(np.max(np.roots(row[::-1]).real)) for row in rows]
    assert [r for r in range(4) if worst[r] > 0.0] == [bad]
    passes = reg.margins_exceed(HurwitzHalfPlane(), rows, 0.0)
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
    rows = np.where(reg._KHARITONOV_LOWER[:, np.arange(3) % 4], lo, hi)
    assert reg.margins_exceed(HurwitzHalfPlane(), rows, 0.0).all()
    assert not kharitonov_hurwitz(lo, hi)
    assert not boxes_exceed(region, corners[None], np.zeros((1, 2, 3)), np.array([[0.5]]))[0, 0]


def test_complex_centre_disk_passes_nothing():
    corners = np.array([[[2.0, 3.0, 1.0]]])
    taus = np.array([[1e-3, 1e-6]])
    assert boxes_exceed(Disk(-1.5 + 0.0j, 1.0), corners, np.zeros_like(corners), taus).all()
    assert not boxes_exceed(Disk(-1.5 + 0.1j, 1.0), corners, np.zeros_like(corners), taus).any()


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
