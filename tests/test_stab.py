"""Stability decider tests.

Cross-validation layers: the root-location point test against the algebraic
half-plane criterion, the segment decider (the k = 1 box) against dense
parameter grids, the box decider's root-solve count, and the family driver
against hand-planted unstable members.
"""

import itertools
import json
import math
import os
import pathlib

import numpy as np
import pytest

from edgestab.cli import parse_family_dict
from edgestab import det
from edgestab.det import (
    ParametricDeterminant,
    _polyadd,
    corner_lambdas,
    det_matrix,
    det_parametric,
    det_parametric_run,
    run_key,
)
from edgestab.edges import EdgeConfiguration, count_configs, entry_edges, entry_vertices, iter_configs
from edgestab.errors import (
    RegionNotHurwitzError,
    ValidationFailure,
    ZeroPolynomialError,
)
from edgestab.family import (
    EdgeSegment,
    IntervalEntry,
    MatrixFamily,
    PolytopeEntry,
)
from edgestab.poly import Polynomial, _exact, from_roots
from edgestab.region import Disk, HurwitzHalfPlane, ShiftedHalfPlane
from edgestab import stab
from edgestab.stab import (
    Status,
    Tolerances,
    VertexMembers,
    analyze_family,
    analyze_family_detailed,
    analyze_interval,
    box_stable,
    dominant,
    point_stable,
    segment_stable,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_family(name):
    return parse_family_dict(json.loads((FIXTURES / f"{name}.json").read_text()))


def cell(*coeff_lists):
    return PolytopeEntry(tuple(Polynomial(list(c)) for c in coeff_lists))


def interval(lo, hi):
    return IntervalEntry(np.array(lo, dtype=float), np.array(hi, dtype=float))


# ----------------------------------------------------------------------
# status algebra


def test_dominance_order():
    assert dominant(Status.ROBUSTLY_STABLE, Status.UNSTABLE) is Status.UNSTABLE
    assert dominant(Status.INCONCLUSIVE, Status.DEGENERATE) is Status.DEGENERATE
    assert dominant(Status.UNSTABLE, Status.DEGENERATE) is Status.UNSTABLE
    assert (
        dominant(Status.ROBUSTLY_STABLE, Status.INCONCLUSIVE) is Status.INCONCLUSIVE
    )


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(boundary_grid=4)
    with pytest.raises(ValueError):
        Tolerances(zero_margin=0.0)
    with pytest.raises(ValueError):
        Tolerances(refine_depth=-1)
    # counts are integers and margins finite
    for bad in (
        {"boundary_grid": 100.5},
        {"boundary_grid": 512.0},
        {"boundary_grid": True},
        {"refine_depth": 2.5},
        {"box_depth": 2.7},
        {"zero_margin": math.inf},
        {"zero_margin": math.nan},
        {"degree_eps": math.inf},
    ):
        with pytest.raises(ValueError):
            Tolerances(**bad)


# ----------------------------------------------------------------------
# point tests


def test_point_stable_hurwitz():
    v = point_stable(Polynomial([2.0, 3.0, 1.0]), HurwitzHalfPlane())  # (s+1)(s+2)
    assert v.status is Status.ROBUSTLY_STABLE
    assert v.margin == pytest.approx(1.0)


def test_point_unstable_reports_offending_root():
    v = point_stable(Polynomial([-2.0, 1.0, 1.0]), HurwitzHalfPlane())  # (s+2)(s-1)
    assert v.status is Status.UNSTABLE
    assert v.witness.root == pytest.approx(1.0 + 0.0j, abs=1e-9)
    assert v.margin == pytest.approx(-1.0)


def test_point_boundary_root_is_unstable():
    v = point_stable(Polynomial([1.0, 0.0, 1.0]), HurwitzHalfPlane())  # s^2 + 1
    assert v.status is Status.UNSTABLE
    assert v.margin == pytest.approx(0.0, abs=1e-9)


def test_point_constant_is_vacuously_stable():
    v = point_stable(Polynomial([5.0]), HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE
    assert v.margin == math.inf


def test_point_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomialError):
        point_stable(Polynomial([0.0]), HurwitzHalfPlane())


def test_point_disk_region():
    p = from_roots([0.5, -0.25])
    v = point_stable(p, Disk(0.0, 1.0))
    assert v.status is Status.ROBUSTLY_STABLE
    assert v.margin == pytest.approx(0.5)
    v2 = point_stable(from_roots([2.0, 0.0]), Disk(0.0, 1.0))
    assert v2.status is Status.UNSTABLE


# ----------------------------------------------------------------------
# the algebraic half-plane criterion


def hurwitz_algebraic(p: Polynomial) -> bool:
    """Strict left-half-plane oracle by the Routh array, no root computation.

    Stable iff every first-column entry is positive after sign-normalizing
    the leading coefficient.  A vanishing pivot or an all-zero row signals
    boundary or unstable roots and maps to False.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no stability character")
    deg = p.degree
    if deg == 0:
        return True
    c = p.coeffs[::-1].copy()  # descending
    if c[0] < 0.0:
        c = -c
    tiny = 1e-13 * float(np.max(np.abs(c)))
    row0 = c[0::2].copy()
    row1 = c[1::2].copy()
    if row1.size < row0.size:
        row1 = np.append(row1, 0.0)
    rows = [row0, row1]
    for _ in range(deg - 1):
        prev, cur = rows[-2], rows[-1]
        if np.all(np.abs(cur) <= tiny):
            return False  # symmetric root pattern, not strictly Hurwitz
        if abs(cur[0]) <= tiny:
            return False  # zero pivot: roots on or right of the axis
        nxt = np.empty(max(cur.size - 1, 1))
        for l in range(nxt.size):
            a = prev[l + 1] if l + 1 < prev.size else 0.0
            b = cur[l + 1] if l + 1 < cur.size else 0.0
            nxt[l] = (cur[0] * a - prev[0] * b) / cur[0]
        rows.append(nxt)
    first = np.array([r[0] for r in rows[: deg + 1]])
    return bool(np.all(first > tiny))


def test_algebraic_known_cases():
    assert hurwitz_algebraic(Polynomial([1.0, 1.0, 1.0]))  # s^2 + s + 1
    assert not hurwitz_algebraic(Polynomial([1.0, 0.0, 1.0]))  # roots on the axis
    assert not hurwitz_algebraic(Polynomial([1.0, 1.0, 1.0, 1.0]))  # s=-1, +-i
    assert hurwitz_algebraic(Polynomial([6.0, 11.0, 6.0, 1.0]))  # (s+1)(s+2)(s+3)
    assert not hurwitz_algebraic(Polynomial([-2.0, 1.0, 1.0]))  # root at +1
    assert hurwitz_algebraic(Polynomial([3.0]))  # constants are vacuous
    assert hurwitz_algebraic(Polynomial([-3.0]))
    with pytest.raises(ZeroPolynomialError):
        hurwitz_algebraic(Polynomial([0.0]))


def test_algebraic_negated_polynomial():
    # -p has the same roots; sign normalization must handle it
    assert hurwitz_algebraic(Polynomial([-2.0, -3.0, -1.0]))


def test_algebraic_agrees_with_root_test():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        deg = int(rng.integers(1, 7))
        coeffs = rng.uniform(-5, 5, size=deg + 1)
        p = Polynomial(coeffs)
        if p.is_zero or p.degree == 0:
            continue
        verdict = point_stable(p, HurwitzHalfPlane())
        if verdict.margin is not None and abs(verdict.margin) < 1e-6:
            continue  # too close to the boundary for either method to be trusted
        assert hurwitz_algebraic(p) == verdict.is_stable
        checked += 1
    assert checked > 200


# ----------------------------------------------------------------------
# segment decider


def seg(a, b):
    return EdgeSegment(Polynomial(list(a)), Polynomial(list(b)))


def grid_oracle(segment, region, points=1001):
    """Dense-parameter oracle: worst root margin across the segment."""
    worst = math.inf
    for lam in np.linspace(0.0, 1.0, points):
        p = segment.at(lam)
        if p.is_zero:
            return -math.inf
        roots = p.roots()
        if roots.size:
            worst = min(worst, float(np.min(region.margin(roots))))
    return worst


def test_segment_stable_simple():
    v = segment_stable(seg([1.0, 1.0], [2.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE


def test_segment_with_midrange_crossing():
    # members 1 - 2*lam + s: root crosses the axis at lam = 1/2
    v = segment_stable(seg([1.0, 1.0], [-1.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE
    assert v.witness is not None
    lam = v.witness.lam[0]
    assert 0.25 <= lam <= 1.0
    member = seg([1.0, 1.0], [-1.0, 1.0]).at(lam)
    assert float(np.min(HurwitzHalfPlane().margin(member.roots()))) <= 1e-6


def test_segment_unstable_start_short_circuits():
    v = segment_stable(seg([-1.0, 1.0], [1.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE
    assert v.witness.lam == (0.0,)


def test_segment_degenerate_to_point():
    v = segment_stable(seg([1.0, 1.0], [1.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE


def test_segment_degree_drop_is_degenerate():
    v = segment_stable(seg([1.0, 1.0], [1.0, -1.0]), HurwitzHalfPlane())
    assert v.status is Status.DEGENERATE


def test_segment_endpoint_degree_mismatch_is_degenerate():
    v = segment_stable(seg([1.0, 1.0], [1.0, 1.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.DEGENERATE


def test_segment_zero_endpoint_is_degenerate():
    v = segment_stable(seg([0.0], [1.0, 1.0]), HurwitzHalfPlane())
    assert v.status is Status.DEGENERATE


@pytest.mark.parametrize("r0, r1", [(-1.0, -2.0), (-3.0, -1.0)])
def test_segment_shared_boundary_root_is_unstable(r0, r1):
    # both endpoints carry the factor s^2 + 1, so every member has roots at +-i
    p0 = from_roots([1j, -1j, r0])
    p1 = from_roots([1j, -1j, r1])
    v = segment_stable(EdgeSegment(p0, p1), HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE
    assert v.witness is not None and v.witness.lam is not None
    member = EdgeSegment(p0, p1).at(v.witness.lam[0])
    assert float(np.min(HurwitzHalfPlane().margin(member.roots()))) <= 1e-6


def test_segment_disk_region():
    # roots move from 0.5 to 0.9: always inside the unit disk
    v = segment_stable(
        EdgeSegment(from_roots([0.5]), from_roots([0.9])), Disk(0.0, 1.0)
    )
    assert v.status is Status.ROBUSTLY_STABLE
    # roots move from 0.5 to 1.5: crossing
    v2 = segment_stable(
        EdgeSegment(from_roots([0.5]), from_roots([1.5])), Disk(0.0, 1.0)
    )
    assert v2.status is Status.UNSTABLE


def stable_poly(rng, deg):
    roots = []
    d = deg
    while d >= 2 and rng.random() < 0.5:
        re = -rng.uniform(0.1, 2.0)
        im = rng.uniform(0.1, 2.0)
        roots += [complex(re, im), complex(re, -im)]
        d -= 2
    while d > 0:
        roots.append(complex(-rng.uniform(0.05, 3.0), 0.0))
        d -= 1
    return from_roots(roots, leading=rng.choice([0.5, 1.0, 2.0]))


def test_segment_statuses_match_grid_oracle():
    rng = np.random.default_rng(77)
    agreements = 0
    for trial in range(60):
        deg = int(rng.integers(1, 6))
        if trial % 3 == 0:
            p0, p1 = stable_poly(rng, deg), stable_poly(rng, deg)
        else:
            p0 = Polynomial(rng.uniform(-3, 3, size=deg + 1))
            p1 = Polynomial(rng.uniform(-3, 3, size=deg + 1))
        segment = EdgeSegment(p0, p1)
        if p0.degree != p1.degree or p0.leading * p1.leading <= 0:
            continue
        verdict = segment_stable(segment, HurwitzHalfPlane())
        oracle = grid_oracle(segment, HurwitzHalfPlane())
        if abs(oracle) <= 1e-5 or verdict.status in (
            Status.DEGENERATE,
            Status.INCONCLUSIVE,
        ):
            continue
        assert (verdict.status is Status.ROBUSTLY_STABLE) == (oracle > 0), (
            f"trial {trial}: verdict {verdict.status} vs oracle margin {oracle}"
        )
        agreements += 1
    assert agreements >= 30


# ----------------------------------------------------------------------
# box decider


def test_box_k_zero_reduces_to_point():
    pd = ParametricDeterminant.from_terms(0, {0: Polynomial([2.0, 3.0, 1.0])})
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE
    pd_bad = ParametricDeterminant.from_terms(0, {0: Polynomial([-2.0, 1.0, 1.0])})
    assert box_stable(pd_bad, HurwitzHalfPlane()).status is Status.UNSTABLE


def test_box_identically_zero_is_degenerate():
    pd = ParametricDeterminant.from_terms(1, {0: Polynomial([0.0])})
    assert box_stable(pd, HurwitzHalfPlane()).status is Status.DEGENERATE


def test_box_constant_determinant_is_stable():
    pd = ParametricDeterminant.from_terms(1, {0: Polynomial([3.0]), 1: Polynomial([1.0])})
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE


def test_box_degree_drop_is_degenerate():
    pd = ParametricDeterminant.from_terms(
        1, {0: Polynomial([1.0, 1.0]), 1: Polynomial([0.0, -2.0])}
    )
    assert box_stable(pd, HurwitzHalfPlane()).status is Status.DEGENERATE


def test_box_unstable_corner_found():
    # lam = 1 gives (s - 1)(s + 3): one right-half-plane root
    p0 = from_roots([-1.0, -3.0])
    p1 = from_roots([1.0, -3.0])
    pd = ParametricDeterminant.from_terms(1, {0: p0, 1: p1 - p0})
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE
    assert v.witness is not None


def test_box_two_parameters_stable():
    # two independently perturbed stable factors stay stable
    base = from_roots([-1.0, -2.0])
    d1 = Polynomial([0.3, 0.0, 0.0])
    d2 = Polynomial([0.0, 0.2, 0.0])
    pd = ParametricDeterminant.from_terms(2, {0: base, 1: d1, 2: d2})
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE


def test_box_root_solves_one_per_corner(monkeypatch):
    # corner 0 is the anchor member: a stable k = 2 box measures 2**k member
    # rows before the sweep, not 2**k + 1
    rows = []
    seen_at_sweep = []
    margins = stab.member_margins
    sweep = stab._zero_exclusion_sweep

    def counting_margins(region, det_coeffs):
        rows.append(det_coeffs.shape[0])
        return margins(region, det_coeffs)

    def recording_sweep(*args):
        seen_at_sweep.append(sum(rows))
        return sweep(*args)

    monkeypatch.setattr(stab, "member_margins", counting_margins)
    monkeypatch.setattr(stab, "_zero_exclusion_sweep", recording_sweep)
    pd = ParametricDeterminant.from_terms(
        2,
        {
            0: from_roots([-1.0, -2.0]),
            1: Polynomial([0.3, 0.0, 0.0]),
            2: Polynomial([0.0, 0.2, 0.0]),
        },
    )
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE
    assert seen_at_sweep == [4]


def test_box_interior_instability_is_found():
    # stable at every corner of the parameter box, unstable in the middle:
    # D = (s^2 + (4*t*(1-t) - 0.5) s + 4) at t in [0,1] is not multi-affine,
    # so encode the dip with two parameters multiplying into the damping term
    # D(l1, l2) = s^2 + (0.1 + 1.2*(l1 + l2) - 2.4*l1*l2 - 1.2) s + 4
    # corners: l = (0,0): 0.1 - 1.2 + 0 -> negative? choose coefficients so
    # corners are positive and the center is negative:
    # c(l1, l2) = 0.2 + 1.6*l1*l2 - 0.8*(l1 + l2) + 0.6*(l1 + l2) ... use
    # the simple bilinear c = 0.2 - 0.9*(l1 + l2) + 1.8*l1*l2:
    # c(0,0)=0.2, c(1,1)=0.2, c(1,0)=c(0,1)=-0.7 -> corner is already bad.
    # Instead: c = 0.2 - 0.9*l1 + 1.8*l1*l2 - 0.9*l2 is symmetric; corners
    # 0.2, -0.7, -0.7, 0.2. The corner pre-check must already catch this.
    s_term = {
        0: Polynomial([4.0, 0.2, 1.0]),
        1: Polynomial([0.0, -0.9, 0.0]),
        2: Polynomial([0.0, -0.9, 0.0]),
        3: Polynomial([0.0, 1.8, 0.0]),
    }
    pd = ParametricDeterminant.from_terms(2, s_term)
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.UNSTABLE
    lam = np.asarray(v.witness.lam)
    member = pd.assemble(lam)
    margin = float(np.min(HurwitzHalfPlane().margin(member.roots())))
    assert margin <= 1e-6


def test_box_edge_interior_instability():
    # Both endpoints are comfortably stable yet the segment dips across the
    # boundary in its interior; the one-parameter box must catch it too.
    p0 = Polynomial([4.5917, 2.6282, 4.3892, 1.2394, 0.5058])
    p1 = Polynomial([0.2178, 1.029, 2.3422, 4.6908, 1.1473])
    region = HurwitzHalfPlane()
    for endpoint in (p0, p1):
        assert point_stable(endpoint, region).status is Status.ROBUSTLY_STABLE

    sv = segment_stable(EdgeSegment(p0, p1), region)
    assert sv.status is Status.UNSTABLE

    pd = ParametricDeterminant.from_terms(1, {0: p0, 1: p1 - p0})
    bv = box_stable(pd, region)
    assert bv.status is Status.UNSTABLE
    assert bv.witness is not None
    member = pd.assemble(bv.witness.lam)
    worst = float(np.min(region.margin(member.roots())))
    assert worst <= 1e-6


# ----------------------------------------------------------------------
# family drivers


def diag_dominant_family():
    return MatrixFamily(
        [
            [cell([1.0, 1.0], [1.2, 1.1]), cell([0.1], [0.05])],
            [cell([0.1], [0.2]), cell([2.0, 1.0], [2.1, 1.05])],
        ],
        HurwitzHalfPlane(),
    )


def test_analyze_family_stable():
    v = analyze_family(diag_dominant_family())
    assert v.status is Status.ROBUSTLY_STABLE
    assert v.margin is not None and v.margin > 0


def test_analyze_family_unstable_with_witness():
    fam = MatrixFamily(
        [[cell([1.0, 1.0], [-1.0, 1.0])]], HurwitzHalfPlane()
    )  # vertex s - 1
    v = analyze_family(fam)
    assert v.status is Status.UNSTABLE
    assert v.witness is not None
    assert v.witness.config_index is not None
    assert v.witness.lam is not None


def test_analyze_family_rejects_interval_mode():
    fam = MatrixFamily([[interval([1.0, 1.0], [2.0, 2.0])]], HurwitzHalfPlane())
    with pytest.raises(ValidationFailure):
        analyze_family(fam)


def test_analyze_family_rejects_invalid_bounds():
    fam = MatrixFamily([[interval([2.0], [1.0])]], HurwitzHalfPlane())
    with pytest.raises(ValidationFailure):
        analyze_interval(fam)


def test_analyze_interval_requires_hurwitz_region():
    fam = MatrixFamily([[interval([1.0, 1.0], [2.0, 2.0])]], Disk(0.0, 1.0))
    with pytest.raises(RegionNotHurwitzError):
        analyze_interval(fam)


def test_analyze_interval_classic_positive_case():
    fam = MatrixFamily(
        [[interval([1.0, 2.0, 1.0], [2.0, 3.0, 2.0])]], HurwitzHalfPlane()
    )
    v = analyze_interval(fam)
    assert v.status is Status.ROBUSTLY_STABLE


def test_analyze_interval_detects_unstable_vertex():
    # constant coefficient may go negative: some members have a positive root
    fam = MatrixFamily(
        [[interval([-1.0, 1.0, 1.0], [1.0, 2.0, 2.0])]], HurwitzHalfPlane()
    )
    v = analyze_interval(fam)
    assert v.status is Status.UNSTABLE


def test_degenerate_dominates_stable_in_aggregate():
    # one cell's edge suffers a degree drop: leading coefficient interval
    # straddles zero for some configuration
    fam = MatrixFamily(
        [[cell([1.0, 1.0], [1.0, -1.0])]], HurwitzHalfPlane()
    )
    v = analyze_family(fam)
    assert v.status is Status.DEGENERATE


def test_parallel_results_match_sequential():
    fam = diag_dominant_family()
    v1, o1 = analyze_family_detailed(fam, jobs=1)
    v2, o2 = analyze_family_detailed(fam, jobs=2)
    assert v1 == v2
    assert o1 == o2


def test_parallel_early_stop_matches_sequential():
    fam = MatrixFamily(
        [
            [cell([1.0, 1.0], [-1.0, 1.0]), cell([0.1], [0.2])],
            [cell([0.0], [0.1]), cell([2.0, 1.0], [2.5, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    v1, o1 = analyze_family_detailed(fam, jobs=1)
    v2, o2 = analyze_family_detailed(fam, jobs=3)
    assert v1.status is Status.UNSTABLE
    assert v1 == v2
    assert o1 == o2


def test_pool_finds_unstable_in_a_later_chunk(monkeypatch):
    # 66 configurations, one per edge of 12 stable cubics s^3 + a s^2 + b s + c;
    # only the last edge's midpoint has a * b < c, so the first Unstable
    # configuration, 65, lies in the second chunk
    vertices = [[1.0 + 0.1 * i, 1.0, 10.0, 1.0] for i in range(10)]
    vertices += [[0.01, 0.2, 0.2, 1.0], [90.0, 10.0, 10.0, 1.0]]
    fam = MatrixFamily([[cell(*vertices)]], HurwitzHalfPlane())
    v1, o1 = analyze_family_detailed(fam, jobs=1)
    assert v1.status is Status.UNSTABLE
    assert v1.witness.config_index == 65
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    v2, o2 = analyze_family_detailed(fam, jobs=2)
    assert v1 == v2
    assert o1 == o2


def unstable_edge_family():
    # 136 configurations, one per edge of 17 stable cubics; only the edge
    # between vertices 10 and 11 is Unstable, at configuration 115 in the
    # chunk [64, 128), and the chunk [128, 136) follows it
    vertices = [[1.0 + 0.1 * i, 1.0, 10.0, 1.0] for i in range(15)]
    vertices[10:10] = [[0.01, 0.2, 0.2, 1.0], [90.0, 10.0, 10.0, 1.0]]
    return MatrixFamily([[cell(*vertices)]], HurwitzHalfPlane())


def recorded_chunks(monkeypatch):
    """Record the bounds of every ``_check_chunk`` call from now on."""
    bounds = []
    check_chunk = stab._check_chunk

    def recording_chunk(fam, start, stop, tol, members):
        bounds.append((start, stop))
        return check_chunk(fam, start, stop, tol, members)

    monkeypatch.setattr(stab, "_check_chunk", recording_chunk)
    return bounds


class InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: runs each submitted chunk in this process."""

    def __init__(self, submitted, max_workers, initializer, initargs):
        self.submitted = submitted
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def submit(self, fn, fam, start, stop, tol):
        import concurrent.futures

        self.submitted.append((start, stop))
        future = concurrent.futures.Future()
        future.set_result(fn(fam, start, stop, tol))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_serial_and_pool_decide_the_same_chunks(monkeypatch):
    import concurrent.futures

    fam = fixture_family("demo3x3")
    plan = [(0, 1), (1, 64)] + [(s, s + 64) for s in range(64, 384, 64)]
    calls = recorded_chunks(monkeypatch)
    serial = analyze_family_detailed(fam, jobs=1)
    assert calls == plan

    calls.clear()
    submitted = []
    monkeypatch.setattr(stab, "_pool_members", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda **kwargs: InlineExecutor(submitted, **kwargs)
    )
    assert analyze_family_detailed(fam, jobs=2) == serial
    assert [(0, 1)] + submitted == plan
    assert calls == plan


def test_serial_stops_at_the_chunk_with_the_first_unstable(monkeypatch):
    fam = unstable_edge_family()
    calls = recorded_chunks(monkeypatch)
    v, outcomes = analyze_family_detailed(fam, jobs=1)
    assert v.status is Status.UNSTABLE
    assert v.witness.config_index == 115
    assert [o.index for o in outcomes] == list(range(116))
    assert calls == [(0, 1), (1, 64), (64, 128)]


@pytest.mark.parametrize("jobs", [0, -2, 1.5, True])
def test_jobs_must_be_a_positive_integer(jobs):
    with pytest.raises(ValidationFailure):
        analyze_family(fixture_family("demo3x3"), jobs=jobs)
    with pytest.raises(ValidationFailure):
        analyze_interval(interval_family(), jobs=jobs)


def test_unstable_first_configuration_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started after an Unstable configuration 0")

    fam = MatrixFamily(
        [[PolytopeEntry([Polynomial([-1.0, 1.0])] + [Polynomial([1.0 + 0.1 * i, 1.0]) for i in range(11)])]],
        HurwitzHalfPlane(),
    )  # 66 configurations; vertex 0 has its root at +1
    v1, o1 = analyze_family_detailed(fam, jobs=1)
    assert v1.status is Status.UNSTABLE
    assert [o.index for o in o1] == [0]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert analyze_family_detailed(fam, jobs=2) == (v1, o1)


def test_overflowing_determinant_is_degenerate():
    # finite vertices whose products leave the float64 range: no member can be
    # measured, so no configuration may certify or be called Unstable
    fam = fixture_family("overflow")
    verdict, outcomes = analyze_family_detailed(fam)
    assert verdict.status is Status.DEGENERATE
    assert "overflow" in verdict.reason
    assert all(o.status is Status.DEGENERATE for o in outcomes)
    members = VertexMembers(fam.region)
    for cfg in iter_configs(fam):
        assert all(v.status is Status.DEGENERATE for v in members.corners(cfg))


def test_overflowing_corner_member_is_degenerate():
    # configuration 0's rows and coefficient box stay finite, since
    # p0 * d - b * c and (p1 - p0) * d are in range, but its corner member
    # p1 * d - b * c overflows in p1 * d: that corner has no root set, so the
    # box cannot certify
    fam = MatrixFamily(
        [
            [cell([1e154, 1e154], [1.7e154, 1.7e154]), cell([1e154])],
            [cell([1.1e154, 1.1e154]), cell([1.2e154])],
        ],
        HurwitzHalfPlane(),
    )
    cfg = next(iter_configs(fam))
    pd = det_parametric(cfg)
    assert np.isfinite(det.coefficient_box(pd)).all()
    corners = VertexMembers(fam.region).corners(cfg)
    assert [c.status for c in corners] == [Status.ROBUSTLY_STABLE, Status.DEGENERATE]
    v = box_stable(pd, fam.region, corners=corners)
    assert v.status is Status.DEGENERATE
    assert "overflow" in v.reason


def test_pool_keeps_overflow_degenerate(monkeypatch):
    # configuration 0 is Degenerate, not Unstable, so the pool decides the rest
    big = [[1e200 * (1.0 + 0.01 * i), 1e200] for i in range(12)]
    fam = MatrixFamily(
        [[cell(*big), cell([0.0])], [cell([0.0]), cell([1e200, 1e200])]],
        HurwitzHalfPlane(),
    )
    v1, o1 = analyze_family_detailed(fam, jobs=1)
    assert len(o1) > 64
    assert v1.status is Status.DEGENERATE
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert analyze_family_detailed(fam, jobs=2) == (v1, o1)


def test_mapping_patterns_consistent_with_declared_stability():
    # the decision enumerates permutation patterns; configurations built
    # from arbitrary column-to-row maps (repeated rows allowed) are still
    # members of the family, so a certified family must keep them stable
    fam = diag_dominant_family()
    assert analyze_family(fam).status is Status.ROBUSTLY_STABLE
    n = fam.n
    extra = [p for p in itertools.product(range(n), repeat=n) if len(set(p)) < n]
    checked = 0
    for pattern in extra:
        others = [(i, j) for j in range(n) for i in range(n) if i != pattern[j]]
        edges = [entry_edges(fam.entry(pattern[j], j)) for j in range(n)]
        vertices = [entry_vertices(fam.entry(i, j)) for i, j in others]
        for edge_choice in itertools.product(*edges):
            for vertex_choice in itertools.product(*vertices):
                cfg = EdgeConfiguration(0, pattern, edge_choice, dict(zip(others, vertex_choice)))
                v = box_stable(det_parametric(cfg), fam.region)
                assert v.status in (Status.ROBUSTLY_STABLE, Status.DEGENERATE), (
                    f"mapping pattern {pattern} produced {v.status}"
                )
                # degenerate here can only mean an identically-zero determinant
                # (repeated rows make that possible); a root outside is a failure
                if v.status is Status.DEGENERATE:
                    assert "zero" in v.reason
                checked += 1
    # two repeated-row patterns, each with one edge per column and two vertices per other cell
    assert checked == 2 * 4


def test_shifted_region_is_stricter():
    fam = diag_dominant_family()
    # roots near -1 fail a margin of 1.5 but pass the plain half plane
    v_plain = analyze_family(fam)
    fam_shifted = MatrixFamily(fam.entries, ShiftedHalfPlane(-1.5))
    v_shift = analyze_family(fam_shifted)
    assert v_plain.status is Status.ROBUSTLY_STABLE
    assert v_shift.status is Status.UNSTABLE


def test_truncated_input_is_degenerate():
    # every member has a root near +1e13, carried only by the trailing -1e-13
    # coefficient that construction drops; the degree is not resolved, so the
    # configuration cannot certify
    fam = fixture_family("truncation")
    assert fam.entry(0, 0).vertices[0].truncated
    v = analyze_family(fam)
    assert v.status is Status.DEGENERATE
    assert "truncation" in v.reason


def test_workers_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started on one CPU")

    fam = MatrixFamily(
        [[PolytopeEntry([Polynomial([1.0 + 0.1 * i, 1.0]) for i in range(12)])]],
        HurwitzHalfPlane(),
    )  # 66 configurations: two chunks
    serial = analyze_family_detailed(fam, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert analyze_family_detailed(fam, jobs=2) == serial


def interval_family():
    return MatrixFamily(
        [
            [interval([1.0, 2.0, 1.0], [2.0, 3.0, 2.0]), interval([0.1], [0.3])],
            [interval([-0.2], [0.1]), interval([-0.5, 1.0, 1.0], [1.0, 2.0, 1.5])],
        ],
        HurwitzHalfPlane(),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: fixture_family("demo3x3"),
        lambda: fixture_family("vertex_insufficiency"),
        lambda: fixture_family("degree_drop"),
        interval_family,
    ],
    ids=["demo3x3", "vertex_insufficiency", "degree_drop", "interval"],
)
def test_member_memo_matches_assembled_corners(make):
    # corner verdicts solved once per all-vertex member must decide every
    # configuration as the corners assembled from its own determinant do
    fam = make()
    members = VertexMembers(fam.region)
    statuses = set()
    for cfg in iter_configs(fam):
        pd = det_parametric(cfg)
        memo = box_stable(pd, fam.region, corners=members.corners(cfg))
        direct = box_stable(pd, fam.region)
        assert (memo.status, memo.reason) == (direct.status, direct.reason), cfg.index
        statuses.add(memo.status)
        if direct.margin is None or math.isinf(direct.margin):
            assert memo.margin == direct.margin
            continue
        root = direct.witness.root if direct.witness is not None else 0.0
        assert abs(memo.margin - direct.margin) <= 1e-12 * (1.0 + abs(root)), cfg.index
        if direct.witness is not None:
            assert memo.witness.lam == direct.witness.lam
            assert abs(memo.witness.root - root) <= 1e-12 * (1.0 + abs(root))
    assert statuses


def test_member_key_needs_vertex_indices():
    # members are keyed by vertex indices, so a segment that does not name
    # its endpoints cannot be keyed
    seg = EdgeSegment(Polynomial([1.0, 1.0]), Polynomial([2.0, 1.0]))
    cfg = EdgeConfiguration(0, (0,), [seg], {})
    with pytest.raises(ValueError):
        VertexMembers(HurwitzHalfPlane()).corners(cfg)


def plan_runs(fam):
    """The drivers' runs: maximal ``run_key`` stretches of [0, 1), [1, 64), [64, 128), ..."""
    total = count_configs(fam)
    bounds = sorted({0, 1, total, *range(64, total, 64)})
    for start, stop in zip(bounds, bounds[1:]):
        for _, group in itertools.groupby(iter_configs(fam, start=start, stop=stop), key=run_key):
            yield list(group)


def mixed_length_family():
    # off-diagonal vertices of lengths 1 and 2: the corners of one
    # configuration differ in cell lengths, so a run spans several signatures
    diag = {"vertices": [[2.0, 3.0, 1.0], [2.2, 3.1, 1.05]]}
    off = {"vertices": [[0.05], [0.04, 0.03]]}
    entries = [[diag if i == j else off for j in range(3)] for i in range(3)]
    return parse_family_dict({"n": 3, "region": {"type": "hurwitz"}, "mode": "polytope", "entries": entries})


def swapped_length_family():
    # diagonal vertices of lengths 3 and 5 in opposite orders: zero-padding
    # members to common cell lengths would swap the operands of some
    # products and reorder their sums, which changes members' bits here
    diag0 = {"vertices": [[0.75, 0.6, 2.25], [1.64, 2.74, 2.59, 1.46, 2.93]]}
    diag1 = {"vertices": [[1.98, 2.41, 1.52, 0.99, 0.93], [0.95, 2.01, 0.78]]}
    entries = [[diag0, {"vertices": [[0.05]]}], [{"vertices": [[-0.04]]}, diag1]]
    return parse_family_dict({"n": 2, "region": {"type": "hurwitz"}, "mode": "polytope", "entries": entries})


@pytest.mark.parametrize(
    "make",
    [
        lambda: fixture_family("demo3x3"),
        lambda: fixture_family("vertex_insufficiency"),
        lambda: fixture_family("degree_drop"),
        lambda: fixture_family("truncation"),
        lambda: fixture_family("cancellation"),
        lambda: parse_family_dict(
            json.loads((FIXTURES / "demo3x3.json").read_text()), Disk(-1.0 + 0.5j, 1.5)
        ),
        interval_family,
        mixed_length_family,
        swapped_length_family,
    ],
    ids=[
        "demo3x3",
        "vertex_insufficiency",
        "degree_drop",
        "truncation",
        "cancellation",
        "demo3x3_disk",
        "interval",
        "mixed_length",
        "swapped_length",
    ],
)
def test_batched_members_equal_point_verdicts(make):
    # every all-vertex member solved in its run's batch gets bitwise the
    # verdict that point_stable gives its own determinant; a zero member
    # gets the -inf verdict instead of raising
    fam = make()
    members = VertexMembers(fam.region)
    signatures = 0
    for run in plan_runs(fam):
        batch = members.solve(run)
        solved = len(members._verdicts)
        sigs = set()
        for cfg, solved_corner in zip(run, batch, strict=True):
            corner = members.corners(cfg)
            assert all(a is b for a, b in zip(corner, solved_corner, strict=True)), cfg.index
            assert len(corner) == 1 << cfg.k
            for v in range(1 << cfg.k):
                grid = [list(row) for row in cfg.base]
                for slot, j in enumerate(cfg.lambda_columns):
                    if v >> slot & 1:
                        grid[cfg.sigma[j]][j] = cfg.edge_choice[j].p1
                sigs.add(tuple(c.coeffs.size for row in grid for c in row))
                det = det_matrix(grid)
                if det.is_zero:
                    assert corner[v].margin == -math.inf, (cfg.index, v)
                else:
                    assert repr(corner[v]) == repr(point_stable(det, fam.region)), (cfg.index, v)
        assert len(members._verdicts) == solved  # the run's batch solved every corner
        signatures = max(signatures, len(sigs))
    if make is mixed_length_family:
        assert signatures > 1


def test_family_solves_each_vertex_member_once(monkeypatch):
    # demo3x3: 384 configurations with k = 3 have 3,072 box corners, and
    # they are the 2**9 = 512 all-vertex matrices of the family; members are
    # measured as rows of the batched margin rule, never one root call each
    rows = []
    roots_calls = []
    margins = stab.member_margins
    roots = Polynomial.roots

    def counting_margins(region, det_coeffs):
        rows.append(det_coeffs.shape[0])
        return margins(region, det_coeffs)

    def counting_roots(self):
        roots_calls.append(1)
        return roots(self)

    monkeypatch.setattr(stab, "member_margins", counting_margins)
    monkeypatch.setattr(Polynomial, "roots", counting_roots)
    v = analyze_family(fixture_family("demo3x3"))
    assert v.status is Status.ROBUSTLY_STABLE
    assert sum(rows) == 512
    assert roots_calls == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: fixture_family("demo3x3"),
        lambda: fixture_family("vertex_insufficiency"),
        lambda: fixture_family("degree_drop"),
        lambda: fixture_family("truncation"),
        interval_family,
    ],
    ids=["demo3x3", "vertex_insufficiency", "degree_drop", "truncation", "interval"],
)
def test_run_terms_equal_single_determinants(make):
    # a run stacks its configurations on a batch axis without padding, so
    # every term must be bitwise the term of the configuration's own determinant
    fam = make()
    for _, group in itertools.groupby(iter_configs(fam), key=run_key):
        run = list(group)
        for cfg, pd in zip(run, det_parametric_run(run)):
            alone = det_parametric(cfg)
            assert pd.k == alone.k
            assert pd.masks.tolist() == alone.masks.tolist(), cfg.index
            assert pd.rows.shape == alone.rows.shape, cfg.index
            assert np.array_equal(pd.rows, alone.rows), cfg.index


FAMILY_FIXTURES = [
    "demo3x3",
    "vertex_insufficiency",
    "degree_drop",
    "truncation",
    "cancellation",
    "interval_truncation",
]


def cancelling_top_family():
    # det = a*d - b*c loses its s^2 term exactly for every member, so every
    # c_S is shorter than the Laplace output and the rows must be cut
    return MatrixFamily(
        [
            [cell([1.0, 1.0], [2.0, 1.0]), cell([1.0, 1.0])],
            [cell([3.0, 1.0]), cell([2.0, 1.0], [3.0, 1.0])],
        ],
        HurwitzHalfPlane(),
    )


BUILT_FAMILIES = {"interval": interval_family, "cancelling_top": cancelling_top_family}


def family_by_name(name):
    return BUILT_FAMILIES[name]() if name in BUILT_FAMILIES else fixture_family(name)


def termwise_rows(full, b, k):
    # the parametric rows built one term at a time: every c_S trimmed of its
    # exactly-zero trailing coefficients, zero terms dropped, the rest
    # zero-padded to the longest term; an all-zero determinant keeps [0.0]
    terms = {}
    for mask in range(1 << k):
        poly = _exact(full[(b,) + tuple(mask >> slot & 1 for slot in range(k))])
        if not poly.is_zero:
            terms[mask] = poly
    terms = terms or {0: Polynomial([0.0])}
    masks = np.array(sorted(terms), dtype=int)
    rows = np.zeros((masks.size, max(p.coeffs.size for p in terms.values())))
    for r, mask in enumerate(masks):
        rows[r, : terms[int(mask)].coeffs.size] = terms[int(mask)].coeffs
    return masks, rows


@pytest.mark.parametrize("name", FAMILY_FIXTURES + ["interval", "cancelling_top"])
def test_run_rows_equal_termwise_construction(name, monkeypatch):
    # the array form keeps bitwise the rows, shape and mask dtype included,
    # that a term-by-term construction gives from the same _laplace output
    fam = family_by_name(name)
    outputs = []
    laplace = det._laplace

    def recording_laplace(cells):
        outputs.append(laplace(cells))
        return outputs[-1]

    monkeypatch.setattr(det, "_laplace", recording_laplace)
    checked = 0
    for _, group in itertools.groupby(iter_configs(fam), key=run_key):
        run = list(group)
        pds = det_parametric_run(run)
        full = _polyadd(outputs.pop(), np.zeros((len(run),) + (2,) * run[0].k + (1,)))
        for b, pd in enumerate(pds):
            masks, rows = termwise_rows(full, b, pd.k)
            assert (pd.masks.dtype, pd.masks.tolist()) == (masks.dtype, masks.tolist()), run[b].index
            assert pd.rows.shape == rows.shape, run[b].index
            assert pd.rows.tobytes() == rows.tobytes(), run[b].index
            assert not (pd.masks.flags.writeable or pd.rows.flags.writeable)
            checked += 1
    assert checked == sum(1 for _ in iter_configs(fam))


def assert_corners_match_assembled(pd, region, label):
    # box_stable's default corners are bitwise point_stable of the members
    # that assemble gives at the box corners
    corners = stab._assembled_corners(pd, region)
    assert len(corners) == 1 << pd.k
    for v, lam in enumerate(corner_lambdas(pd.k)):
        member = pd.assemble(lam)
        if member.is_zero:
            assert corners[v].margin == -math.inf, (label, v)
        else:
            assert repr(corners[v]) == repr(point_stable(member, region)), (label, v)


REGIONS = [HurwitzHalfPlane(), Disk(-1.0 + 0.5j, 1.5)]


@pytest.mark.parametrize("name", FAMILY_FIXTURES + ["interval"])
def test_default_corners_equal_assembled_point_verdicts(name):
    fam = family_by_name(name)
    for cfg in iter_configs(fam):
        pd = det_parametric(cfg)
        for region in REGIONS:
            assert_corners_match_assembled(pd, region, (cfg.index, region.kind))


def test_default_corners_equal_assembled_point_verdicts_on_random_segments():
    rng = np.random.default_rng(2024)
    for trial in range(150):
        deg = int(rng.integers(1, 7))
        p0 = Polynomial(np.abs(rng.normal(size=deg + 1)) + 0.1)
        p1 = Polynomial(p0.coeffs + 0.5 * rng.normal(size=deg + 1))
        pd = ParametricDeterminant.from_terms(1, {0: p0, 1: p1 - p0})
        for region in REGIONS:
            assert_corners_match_assembled(pd, region, (trial, region.kind))


def test_run_rejects_mixed_structure():
    cfgs = list(iter_configs(fixture_family("demo3x3"), start=63, stop=65))
    assert run_key(cfgs[0]) != run_key(cfgs[1])
    with pytest.raises(ValueError):
        det_parametric_run(cfgs)


def test_unstable_first_configuration_builds_one_determinant(monkeypatch):
    # the parent decides the chunk [0, 1) alone, so a family that is
    # Unstable at configuration 0 pays for exactly one parametric determinant
    # at any worker count
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started after an Unstable configuration 0")

    fam = MatrixFamily(
        [
            [cell([-1.0, 1.0], [1.0, 1.0]), cell([0.1], [0.2]), cell([0.1], [0.2])],
            [cell([0.1], [0.2]), cell([2.0, 1.0], [2.5, 1.0]), cell([0.1], [0.2])],
            [cell([0.1], [0.2]), cell([0.1], [0.2]), cell([3.0, 1.0], [3.5, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    sizes = []
    run_of = stab.det_parametric_run

    def recording_run(cfgs):
        sizes.append(len(cfgs))
        return run_of(cfgs)

    monkeypatch.setattr(stab, "det_parametric_run", recording_run)
    v, outcomes = analyze_family_detailed(fam, jobs=1)
    assert v.status is Status.UNSTABLE and v.witness.config_index == 0
    assert sizes == [1] and len(outcomes) == 1

    # the pool path: the parent's chunk [0, 1) is the only one decided
    sizes.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert analyze_family_detailed(fam, jobs=2) == (v, outcomes)
    assert sizes == [1]


# ----------------------------------------------------------------------
# the run-level sweep


def lone_outcomes(fam, tol, stop=None):
    """Each configuration decided by ``box_stable`` on its own, up to the first Unstable."""
    members = VertexMembers(fam.region)
    out = []
    for cfg in iter_configs(fam, stop=stop):
        v = box_stable(det_parametric(cfg), fam.region, tol, members.corners(cfg))
        out.append((cfg.index, repr(v)))
        if v.status is Status.UNSTABLE:
            break
    return out


def chunk_outcomes(fam, tol, stop=None):
    stop = count_configs(fam) if stop is None else stop
    return [(index, repr(v)) for index, v in stab._check_chunk(fam, 0, stop, tol, VertexMembers(fam.region))]


def split_shape_family():
    # the top coefficient cancels exactly when cell (0, 1) is s + 3, so the
    # runs of pattern (0, 1) mix rows of widths 2 and 3: two sweep batches
    entries = [
        [{"vertices": [[1.0, 1.0], [1.2, 1.0], [0.9, 1.0]]}, {"vertices": [[3.0, 1.0], [3.0, 2.0]]}],
        [{"vertices": [[1.0, 1.0]]}, {"vertices": [[1.0, 1.0], [1.1, 1.0]]}],
    ]
    return parse_family_dict({"n": 2, "region": {"type": "hurwitz"}, "mode": "polytope", "entries": entries})


def mid_run_unstable_family():
    # vertex_insufficiency with a second vertex in cell (1, 1), so its
    # boxes have k = 2, and four quartics in cell (0, 0): the edge between
    # the fixture's quartics is configuration 4, inside the run [1, ..., 5],
    # and its corner hulls capture the origin near the crossing
    doc = json.loads((FIXTURES / "vertex_insufficiency.json").read_text())
    c0, c1 = doc["entries"][0][0]["vertices"]
    p = [15.0, 38.5, 35.5, 14.0, 2.0]  # 2 (s + 1)(s + 1.5)(s + 2)(s + 2.5)
    q = [6.0, 21.5, 23.0, 8.5, 1.0]  # (s + 0.5)(s + 1)(s + 3)(s + 4)
    doc["entries"][0][0]["vertices"] = [p, c0, q, c1]
    doc["entries"][1][1]["vertices"].append([2.4, 1.2])
    return parse_family_dict(doc)


def seeded_family(seed):
    # n = 1, 2, 3 (boxes of k up to 3), two vertices per cell around a
    # stable skeleton, perturbed more with the seed; three regions
    rng = np.random.default_rng(31_000 + seed)
    n = 1 + seed % 3
    bump = (0.05, 0.3, 0.8)[seed // 3]
    region = (HurwitzHalfPlane(), ShiftedHalfPlane(-0.05), Disk(-1.0 + 0.0j, 1.2))[(seed + seed // 3) % 3]

    def entry(diagonal):
        if diagonal:
            a, b = rng.uniform(0.5, 1.8, 2)
            base = np.array([a * b, a + b, 1.0])
        else:
            base = np.array([rng.uniform(-0.3, 0.3)])
        return PolytopeEntry(tuple(Polynomial(base + rng.uniform(-bump, bump, base.size)) for _ in range(2)))

    return MatrixFamily([[entry(r == c) for c in range(n)] for r in range(n)], region)


SWEEP_FAMILIES = {
    "demo3x3": lambda: fixture_family("demo3x3"),
    "vertex_insufficiency": lambda: fixture_family("vertex_insufficiency"),
    "degree_drop": lambda: fixture_family("degree_drop"),
    "cancellation": lambda: fixture_family("cancellation"),
    "overflow": lambda: fixture_family("overflow"),
    "delta_overflow": lambda: fixture_family("delta_overflow"),
    "interval": interval_family,
    "split_shape": split_shape_family,
    "mid_run_unstable": mid_run_unstable_family,
    **{f"seeded{seed}": (lambda seed=seed: seeded_family(seed)) for seed in range(9)},
}


@pytest.mark.parametrize("grid", [128, 512])
@pytest.mark.parametrize("name", list(SWEEP_FAMILIES))
def test_batched_sweep_equals_lone_box_stable(name, grid):
    # which configurations share a sweep batch must not change any verdict:
    # every outcome of a chunk is bitwise box_stable's on that configuration
    # alone, and nothing after the first Unstable is reported
    fam = SWEEP_FAMILIES[name]()
    tol = Tolerances(boundary_grid=grid)
    stop = min(count_configs(fam), 96)
    assert chunk_outcomes(fam, tol, stop) == lone_outcomes(fam, tol, stop)


def test_unstable_mid_run_ends_the_report(monkeypatch):
    fam = mid_run_unstable_family()
    runs = [[cfg.index for cfg in run] for run in plan_runs(fam)]
    assert runs == [[0], [1, 2, 3, 4, 5], list(range(6, 14))]
    captured = []
    subdivide = stab._subdivide_at_theta
    monkeypatch.setattr(stab, "_subdivide_at_theta", lambda *args: captured.append(1) or subdivide(*args))
    outcomes = chunk_outcomes(fam, Tolerances())
    assert [index for index, _ in outcomes] == [0, 1, 2, 3, 4]
    assert "Status.UNSTABLE" in outcomes[-1][1] and captured
    assert all("ROBUSTLY_STABLE" in text for _, text in outcomes[:-1])
    assert [(o.index, o.status) for o in analyze_family_detailed(fam)[1]] == [
        (index, Status.UNSTABLE if index == 4 else Status.ROBUSTLY_STABLE) for index in range(5)
    ]
    # alone, configuration 5 (after the Unstable one in its run) is stable
    members = VertexMembers(fam.region)
    cfg5 = next(iter_configs(fam, start=5, stop=6))
    assert box_stable(det_parametric(cfg5), fam.region, None, members.corners(cfg5)).is_stable


def test_split_shape_runs_sweep_in_two_batches(monkeypatch):
    # configurations 0 to 5 are one run with rows of widths 2 and 3
    fam = split_shape_family()
    batches = []
    sweep = stab._zero_exclusion_sweep

    def recording_sweep(pds, boxes, region, tol):
        batches.append([pd.rows.shape for pd in pds])
        return sweep(pds, boxes, region, tol)

    monkeypatch.setattr(stab, "_zero_exclusion_sweep", recording_sweep)
    stab._check_chunk(fam, 0, 6, Tolerances(), VertexMembers(fam.region))
    assert batches == [[(4, 2)] * 3, [(4, 3)] * 3]


def stiff_segment():
    # (s + 1)**24 keeps the origin out, but the Lipschitz bound of its
    # binomial coefficients is so loose near omega = 1 that certifying it
    # needs more boundary samples than the refinement budget
    return ParametricDeterminant.from_terms(1, {0: from_roots([-1.0] * 24), 1: Polynomial([0.01])})


def geometric_segment(scale):
    # degree 24 as well, with roots spread from -0.1 to -10: certified
    p = from_roots(list(-np.geomspace(0.1, 10.0, 24) * scale))
    return ParametricDeterminant.from_terms(1, {0: p, 1: Polynomial([0.01 * p.coeffs[0]])})


@pytest.mark.parametrize("grid", [8, 128, 512])
def test_refinement_budget_exhausted_in_a_batch(grid, monkeypatch):
    # the budget is 64 samples per seed-grid point, never below 32,768; the
    # exhausted configuration is Inconclusive and its batch-mates get the
    # verdicts they get alone
    region = HurwitzHalfPlane()
    tol = Tolerances(boundary_grid=grid)
    pds = [geometric_segment(1.0), stiff_segment(), geometric_segment(0.5)]
    alone = [box_stable(pd, region, tol) for pd in pds]
    assert [v.status for v in alone] == [Status.ROBUSTLY_STABLE, Status.INCONCLUSIVE, Status.ROBUSTLY_STABLE]
    assert alone[1].reason == "boundary refinement budget exhausted"
    boxes = [det.coefficient_box(pd) for pd in pds]
    assert [repr(v) for v in stab._zero_exclusion_sweep(pds, boxes, region, tol)] == [repr(v) for v in alone]

    samples = []
    margin = stab.hull.batch_origin_margin
    monkeypatch.setattr(stab.hull, "batch_origin_margin", lambda v: samples.append(len(v)) or margin(v))
    box_stable(stiff_segment(), region, tol)
    assert 32_768 < sum(samples) <= 2 * 32_768


def lone_theta_grid(region, lo, hi, count):
    # one range's seed grid as the sweep built it before ranges were batched
    if hi <= lo:
        return np.array([lo])
    if isinstance(region, Disk):
        return np.linspace(lo, hi, count + 1)
    half = count // 2
    lin = np.linspace(lo, hi, half)
    geo = np.geomspace(max(hi * 1e-6, 1e-12), hi, count - half)
    return np.unique(np.concatenate([[lo], lin, geo]))


@pytest.mark.parametrize("region", [HurwitzHalfPlane(), ShiftedHalfPlane(2.0), Disk(-1.0 + 0.5j, 1.5)])
@pytest.mark.parametrize("count", [8, 9, 128, 512])
def test_theta_grids_equal_lone_grids(region, count):
    # the one-pass seed grids are bitwise each range's own grid, empty
    # ranges (a shifted half plane right of every root bound) included
    rng = np.random.default_rng(count)
    if isinstance(region, Disk):
        spans = [(0.0, 2.0 * math.pi)] * 3
    else:
        spans = [(0.0, float(h)) for h in np.exp(rng.uniform(-30.0, 30.0, 40))]
        spans[3:3] = [(0.0, 0.0), (0.0, 1e-300), (0.0, 1.0)]
    thetas, owner = stab._theta_grids(region, spans, count)
    assert owner.tolist() == sorted(owner.tolist())
    for c, (lo, hi) in enumerate(spans):
        want = lone_theta_grid(region, lo, hi, count)
        assert thetas[owner == c].tobytes() == want.tobytes(), (c, hi)
