"""Region geometry tests: membership margins, the filter in front of the
member margins, and the region the box test tests.
"""

import warnings

import numpy as np
import pytest

import edgestab.region as region_module
from edgestab.oracle import _SLACK
from edgestab.poly import Polynomial
from edgestab.region import (
    Disk,
    HurwitzHalfPlane,
    ShiftedHalfPlane,
    margins_exceed,
    member_margins,
    box_region,
)


# ----------------------------------------------------------------------
# membership and margins


def test_hurwitz_membership():
    r = HurwitzHalfPlane()
    assert r.contains(-1.0)
    assert r.margin(-1.0) == pytest.approx(1.0)
    assert not r.contains(1j)
    assert r.margin(1j) == pytest.approx(0.0)
    assert r.margin(2.0 + 1j) == pytest.approx(-2.0)


def test_shifted_membership():
    r = ShiftedHalfPlane(-0.5)
    assert r.contains(-1.0)
    assert not r.contains(0.0)
    assert r.margin(-1.0) == pytest.approx(0.5)
    assert r.margin(-0.5 + 3j) == pytest.approx(0.0)


def test_disk_membership():
    r = Disk(0.0, 1.0)
    assert r.contains(0.5)
    assert r.margin(0.5) == pytest.approx(0.5)
    assert r.margin(1.0) == pytest.approx(0.0)
    assert r.margin(2.0) == pytest.approx(-1.0)
    off = Disk(1.0 + 1.0j, 2.0)
    assert off.margin(1.0 + 1.0j) == pytest.approx(2.0)


def test_disk_requires_positive_radius():
    with pytest.raises(ValueError):
        Disk(0.0, 0.0)
    with pytest.raises(ValueError):
        Disk(0.0, -1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: ShiftedHalfPlane(NAN),
        lambda: ShiftedHalfPlane(INF),
        lambda: ShiftedHalfPlane(-INF),
        lambda: Disk(complex(NAN, 0.0), 1.0),
        lambda: Disk(complex(0.0, INF), 1.0),
        lambda: Disk(0.0, INF),
        lambda: Disk(0.0, NAN),
    ],
    ids=["shift_nan", "shift_inf", "shift_minus_inf", "center_nan", "center_inf", "radius_inf", "radius_nan"],
)
def test_region_parameters_must_be_finite(make):
    with pytest.raises(ValueError):
        make()


def test_margin_vectorized():
    r = HurwitzHalfPlane()
    zs = np.array([-1.0, 1.0, 1j])
    np.testing.assert_allclose(r.margin(zs), [1.0, -1.0, 0.0], atol=1e-15)


def test_member_margins_leave_overflowed_rows_unmeasured():
    rows = np.array([[1.0, 1.0, 0.0], [np.inf, 1.0, 1.0], [np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]])
    margins, roots = member_margins(HurwitzHalfPlane(), rows)
    assert margins[0] == pytest.approx(1.0)
    assert np.isnan(margins[1]) and np.isnan(margins[2])
    assert roots[1] is None and roots[2] is None
    assert margins[3] == np.inf and roots[3] is None


# ----------------------------------------------------------------------
# the filter in front of member_margins


def _slack(bar):
    """The sampling oracle's skip slack: a member is skipped only above bar + slack."""
    return _SLACK * (1.0 + abs(bar))


def _random_roots(rng, d, scale):
    """Roots of a real degree-d polynomial: mostly stable, some repeated or clustered."""
    roots = []
    while len(roots) < d:
        pair = len(roots) + 2 <= d and rng.random() < 0.6
        re = -abs(rng.normal()) if rng.random() < 0.85 else rng.normal()
        z = scale * complex(re, rng.normal() if pair else 0.0)
        mult = int(rng.integers(2, 5)) if rng.random() < 0.25 else 1
        spread = 0.0 if rng.random() < 0.5 else scale * 10.0 ** rng.uniform(-8, -2)
        for _ in range(mult):
            if len(roots) + 1 + pair > d:
                break
            w = z + spread * complex(rng.normal(), rng.normal() if pair else 0.0)
            roots += [w, w.conjugate()] if pair else [w.real]
    return roots


def _family_rows(rng, size):
    """A family-like batch: one base row of degree 1-12, jittered per member and scaled."""
    d = int(rng.integers(1, 13))
    base = np.real(np.poly(_random_roots(rng, d, 10.0 ** rng.uniform(-2, 3))))[::-1]
    rows = np.zeros((size, 13))
    rows[:, : d + 1] = base * (1.0 + 10.0 ** rng.uniform(-6, -1) * rng.normal(size=(size, d + 1)))
    return rows * 10.0 ** rng.uniform(-3, 3)


def test_margins_exceed_never_clears_a_member_at_or_below_the_bar(monkeypatch):
    # the skip rule of sample_family: a cleared row's computed margin must
    # exceed the bar, so it can never be the reported worst member
    screened = []
    screen = region_module._lipatov_sokolov

    def counting(rows, errors, degrees):
        out = screen(rows, errors, degrees)
        screened.append(int(out.sum()))
        return out

    monkeypatch.setattr(region_module, "_lipatov_sokolov", counting)
    rng = np.random.default_rng(2024)
    cleared = tried = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(60):
            rows = _family_rows(rng, 128)
            spread = np.max(np.abs(member_margins(HurwitzHalfPlane(), rows)[0]))
            for region in (HurwitzHalfPlane(), ShiftedHalfPlane(float(rng.uniform(-1, 1) * spread))):
                margins, _ = member_margins(region, rows)
                for bar in (margins.min(), *np.quantile(margins, [0.01, 0.05, 0.2])):
                    bar = float(bar)
                    ok = margins_exceed(region, rows.T, bar + _slack(bar))
                    assert not (ok & (margins <= bar)).any()
                    cleared += int(ok.sum())
                    tried += rows.shape[0]
    assert cleared > tried // 2  # the filter is not vacuous
    assert sum(screened) > cleared // 4  # and much of it goes through the screen


def test_margins_exceed_clears_no_row_with_a_root_on_the_bar():
    # a root at -tau leaves the shifted row's constant term within rounding of
    # zero, of either sign: only the error box keeps the screen from passing it
    rng = np.random.default_rng(11)
    for tau in rng.uniform(0.05, 2.0, size=200):
        others = -tau - rng.uniform(0.1, 3.0) + np.array([1j, -1j]) * rng.uniform(0.0, 3.0)
        row = np.real(np.poly([-tau, *others]))[::-1] * 10.0 ** rng.uniform(-3, 3)
        assert not margins_exceed(HurwitzHalfPlane(), row[:, None], float(tau)).any()


def _near_screen_boundary(rng, count):
    """Positive rows of degree 3-10 whose every ratio a_{i-1} a_{i+2} / (a_i a_{i+1}) is near 0.4655.

    Each row's ratios all sit below 0.4655 or all above it, by a relative
    1e-12 to 0.1.  Returns the (count, 11) ascending rows and their degrees.
    """
    rows, degrees = np.zeros((count, 11)), rng.integers(3, 11, size=count)
    for b, d in enumerate(degrees):
        side = rng.choice([-1.0, 1.0])
        a = list(10.0 ** rng.uniform(-2, 2, size=3))
        for i in range(1, d - 1):
            ratio = 0.4655 * (1.0 + side * 10.0 ** rng.uniform(-12, -1))
            a.append(ratio * a[i] * a[i + 1] / a[i - 1])
        rows[b, : d + 1] = a
    return rows, degrees


def _hurwitz(row, d):
    return bool(np.roots(row[: d + 1][::-1]).real.max() < 0.0)


def test_lipatov_sokolov_screen_passes_only_hurwitz_rows():
    rows, degrees = _near_screen_boundary(np.random.default_rng(24), 400)
    stable = np.array([_hurwitz(row, d) for row, d in zip(rows, degrees)])
    screened = region_module._lipatov_sokolov(rows.T, np.zeros_like(rows.T), degrees)
    assert stable[screened].all()
    # the sample reaches past the boundary on both sides of the test
    assert 100 < screened.sum() < stable.sum() < rows.shape[0]
    # through the filter, with its guard, at tau = 0
    cleared = margins_exceed(HurwitzHalfPlane(), rows.T, 0.0)
    assert stable[cleared].all() and cleared[screened].all()


def test_lipatov_sokolov_screen_stops_at_its_constant():
    # 0.5 + s + s^2 + s^3 + 0.5 s^4 = (s^2 + 1)(0.5 s^2 + s + 0.5) has roots +-j
    # and every ratio exactly 0.5, so a constant of 0.5 would pass it
    edge = np.array([[0.5, 1.0, 1.0, 1.0, 0.5]]).T
    assert not _hurwitz(edge[:, 0], 4)
    assert not region_module._lipatov_sokolov(edge, np.zeros_like(edge), np.array([4])).any()
    assert not margins_exceed(HurwitzHalfPlane(), edge, 0.0).any()
    # the quintic with every ratio lam, a_i = lam**(i*i / 4), is Hurwitz just
    # below 0.4655 and not at 0.466, past Lipatov and Sokolov's 0.46557...
    for lam, hurwitz in ((0.4654, True), (0.466, False)):
        quintic = lam ** (np.arange(6.0) ** 2 / 4.0)[:, None]
        assert _hurwitz(quintic[:, 0], 5) is hurwitz
        assert region_module._lipatov_sokolov(quintic, np.zeros_like(quintic), np.array([5])).tolist() == [hurwitz]
    # degrees 1 and 2 need positive coefficients only; lower ends must be normal
    rows = np.array([[1.0, 2.0, 0.0], [1.0, 1e-3, 1e3], [1e-310, 1.0, 1.0], [-1.0, 1.0, 1.0]]).T
    assert region_module._lipatov_sokolov(rows, np.zeros_like(rows), np.array([1, 2, 2, 2])).tolist() == [
        True, True, False, False
    ]


def test_margins_exceed_on_known_roots():
    region = HurwitzHalfPlane()
    rows = np.array([np.poly([-1.0, -2.0, -3.0])[::-1], np.poly([1.0, -2.0, -3.0])[::-1]]).T
    assert margins_exceed(region, rows, 0.99).tolist() == [True, False]
    assert margins_exceed(region, rows, 1.0).tolist() == [False, False]
    assert margins_exceed(region, rows, -1.01).tolist() == [True, True]
    shifted = ShiftedHalfPlane(-0.5)  # margins 0.5 and -1.5
    assert margins_exceed(shifted, rows, 0.49).tolist() == [True, False]
    assert margins_exceed(shifted, rows, -1.49).tolist() == [True, False]
    assert margins_exceed(shifted, rows, -1.51).tolist() == [True, True]


def test_margins_exceed_edge_rows_stay_uncleared_without_warnings():
    stable = np.poly([-1.0, -2.0, -3.0])[::-1]
    rows = np.array(
        [np.zeros(4), [5.0, 0.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0], stable, [np.inf, 1.0, 1.0, 1.0],
         [np.nan, 1.0, 1.0, 1.0]]
    ).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert margins_exceed(HurwitzHalfPlane(), rows, -10.0).tolist() == [False] * 3 + [True] + [False] * 2
        # the shift by -tau overflows: nothing is cleared
        for tau in (-1e160, 1e160, np.inf, -np.inf, np.nan):
            assert not margins_exceed(HurwitzHalfPlane(), rows, tau).any()
            assert not margins_exceed(ShiftedHalfPlane(-0.5), rows, tau).any()
        # a disk clears nothing, so every disk member is root-solved
        assert not margins_exceed(Disk(0.0, 10.0), rows, -10.0).any()
        assert not margins_exceed(Disk(-1.0, 0.5), rows[:, :0], 0.0).any()


# ----------------------------------------------------------------------
# boundaries


def test_boundary_examples():
    # points on each boundary have margin 0, points off it the signed distance
    assert HurwitzHalfPlane().margin(2.0j) == 0.0
    assert HurwitzHalfPlane().margin(-0.5 + 2.0j) == 0.5
    assert ShiftedHalfPlane(-0.5).margin(-0.5 + 2.0j) == 0.0
    assert ShiftedHalfPlane(-0.5).margin(0.5) == -1.0
    assert Disk(0.0, 1.0).margin(-1.0) == 0.0
    assert Disk(1.0j, 2.0).margin(1.0j) == 2.0


def test_boundary_points_have_zero_margin():
    thetas = np.linspace(-7.0, 7.0, 41)
    boundaries = [
        (HurwitzHalfPlane(), 1j * thetas),
        (ShiftedHalfPlane(-1.25), -1.25 + 1j * thetas),
        (Disk(0.5 - 0.5j, 2.0), 0.5 - 0.5j + 2.0 * np.exp(1j * thetas)),
    ]
    for region, pts in boundaries:
        np.testing.assert_allclose(region.margin(pts), 0.0, atol=1e-12)


def test_conjugate_root_pairing_justifies_half_sweep():
    # real polynomials have conjugate-symmetric root sets, so every root of
    # one lies in a disk and in its mirror image at once: the box test may
    # test a complex-centre disk through the real-centre disk inside both
    rng = np.random.default_rng(3)
    for _ in range(25):
        coeffs = rng.integers(-5, 6, size=rng.integers(2, 7)).astype(float)
        p = Polynomial(coeffs)
        if p.is_zero or p.degree == 0:
            continue
        roots = p.roots()
        conj = np.conj(roots)
        for r in roots:
            assert np.min(np.abs(conj - r)) < 1e-6 * (1.0 + abs(r))


# ----------------------------------------------------------------------
# the region the box test tests


def test_box_region_of_a_complex_centre_disk_is_inscribed():
    # the disk of centre Re c and radius r - |Im c|, rounded down, lies
    # inside D(c, r) and touches its boundary; real centres and half planes
    # are tested as themselves
    for region in (HurwitzHalfPlane(), ShiftedHalfPlane(-0.3), Disk(-2.0, 2.5)):
        assert box_region(region) is region
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
        r = rng.uniform(abs(c.imag), abs(c.imag) + 3.0)
        inner = box_region(Disk(c, r))
        if inner is None:
            assert r <= abs(c.imag)
            continue
        assert inner.center == c.real and inner.radius <= r - abs(c.imag)
        edge = inner.center + inner.radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64))
        assert (Disk(c, r).margin(edge) >= -1e-12).all()
        touch = c.real - 1j * np.sign(c.imag) * inner.radius
        assert abs(Disk(c, r).margin(touch)) <= 1e-12 * (1.0 + r)
    assert box_region(Disk(1.0j, 1.0)) is None
    assert box_region(Disk(-3.0 + 0.2j, 3.5)) == Disk(-3.0, 3.3)
