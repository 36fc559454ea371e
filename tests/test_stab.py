"""Stability decider tests.

Cross-validation layers: the root-location point test against the algebraic
half-plane criterion, the segment decider (the k = 1 box) against dense
parameter grids, the box decider's root-solve count, and the family driver
against hand-planted unstable members.
"""

import dataclasses
import itertools
import json
import math
import os
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from edgestab.cli import parse_family_dict
from edgestab import det, poly
from edgestab.det import (
    ParametricDeterminant,
    _polyadd,
    corner_lambdas,
    det_matrix,
    det_parametric,
    det_parametric_run,
)
from edgestab.edges import (
    EdgeConfiguration,
    VertexTable,
    config_at,
    count_configs,
    entry_edges,
    entry_vertices,
    iter_configs,
)
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
    rank = stab._DOMINANCE
    assert rank[Status.UNSTABLE] > rank[Status.DEGENERATE] > rank[Status.INCONCLUSIVE] > rank[Status.ROBUSTLY_STABLE]
    assert set(rank) == set(Status)


def aggregate_reference(results, total):
    """The per-configuration fold that stab._aggregate replaced, kept as the reference."""
    worst = Status.ROBUSTLY_STABLE
    margin = math.inf
    witness = None
    reason = ""
    outcomes = []
    for index, v in results:
        outcomes.append(stab.ConfigOutcome(index, v.status, v.margin, v.reason))
        if v.status is Status.UNSTABLE and worst is not Status.UNSTABLE:
            witness = dataclasses.replace(v.witness or stab.Witness(), config_index=index)
            reason = f"configuration {index}: {v.reason}"
        elif v.status is not Status.ROBUSTLY_STABLE and stab._DOMINANCE[v.status] > stab._DOMINANCE[worst]:
            reason = f"configuration {index}: {v.reason}"
        if stab._DOMINANCE[v.status] > stab._DOMINANCE[worst]:
            worst = v.status
        if v.margin is not None:
            margin = min(margin, v.margin)
    if worst is Status.ROBUSTLY_STABLE:
        verdict = stab.Verdict(
            Status.ROBUSTLY_STABLE,
            margin=margin if margin != math.inf else None,
            reason=f"all {total} configurations certified",
        )
    elif worst is Status.UNSTABLE:
        verdict = stab.Verdict(Status.UNSTABLE, margin=margin, witness=witness, reason=reason)
    else:
        verdict = stab.Verdict(worst, margin=margin if margin != math.inf else None, reason=reason)
    return verdict, outcomes


def seeded_results(seed):
    rng = np.random.default_rng(seed)
    # seed % 4 sets the worst status a mix can reach: RobustlyStable, Inconclusive, Degenerate, Unstable
    statuses = [Status.ROBUSTLY_STABLE] * 6 + [Status.INCONCLUSIVE, Status.DEGENERATE, Status.UNSTABLE][: seed % 4]
    results = []
    for index in range(int(rng.integers(1, 40))):
        status = statuses[int(rng.integers(len(statuses)))]
        margin = [None, math.inf, float(rng.normal())][int(rng.integers(3))]
        witness = None
        if status is Status.UNSTABLE and rng.random() < 0.7:
            witness = stab.Witness(lam=(float(rng.random()),), root=complex(rng.normal(), rng.normal()))
        results.append((index, stab.Verdict(status, margin=margin, witness=witness, reason=f"r{seed}.{index}")))
    return results


def verdicts(*statuses, margins=None):
    margins = margins or [0.5] * len(statuses)
    return [(i, stab.Verdict(s, margin=m, reason=f"v{i}")) for i, (s, m) in enumerate(zip(statuses, margins))]


RS, INC, DEG, UNS = Status.ROBUSTLY_STABLE, Status.INCONCLUSIVE, Status.DEGENERATE, Status.UNSTABLE
AGGREGATE_CASES = {
    "unstable_first": verdicts(UNS, RS, DEG, UNS),
    "unstable_mid_list": verdicts(RS, INC, UNS, DEG, UNS, RS),
    "degenerate_after_inconclusive": verdicts(RS, INC, INC, DEG, INC, DEG),
    "inconclusive_after_degenerate": verdicts(DEG, INC, RS),
    "stable_none_and_inf_margins": verdicts(RS, RS, RS, margins=[None, math.inf, None]),
    "stable_margins_all_none": verdicts(RS, RS, margins=[None, None]),
    "unstable_inf_margins": verdicts(INC, UNS, margins=[math.inf, math.inf]),
    "degenerate_none_margins": verdicts(DEG, RS, margins=[None, None]),
    "family_certificate": [(i, stab.Verdict(RS, margin=0.25, reason="family")) for i in range(300)],
    **{f"seed{seed}": seeded_results(seed) for seed in range(40)},
}


@pytest.mark.parametrize("case", list(AGGREGATE_CASES))
def test_aggregate_matches_the_per_configuration_fold(case):
    results = AGGREGATE_CASES[case]
    verdict, outcomes = stab._aggregate(results, len(results))
    want_verdict, want_outcomes = aggregate_reference(results, len(results))
    assert verdict == want_verdict
    assert outcomes == want_outcomes


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(zero_margin=0.0)
    with pytest.raises(ValueError):
        Tolerances(degree_eps=-1e-9)
    # the margins are finite, and no other tolerance exists
    for bad in (
        {"zero_margin": math.inf},
        {"zero_margin": math.nan},
        {"degree_eps": math.inf},
    ):
        with pytest.raises(ValueError):
            Tolerances(**bad)
    for gone in ("boundary_grid", "refine_depth", "box_depth"):
        with pytest.raises(TypeError):
            Tolerances(**{gone: 128})
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["zero_margin", "degree_eps"]


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


def segment_member(segment, lam):
    """The member p0 * (1 - lam) + p1 * lam of a segment."""
    return segment.p0 * (1.0 - lam) + segment.p1 * lam


def grid_oracle(segment, region, points=1001):
    """Dense-parameter oracle: worst root margin across the segment."""
    worst = math.inf
    for lam in np.linspace(0.0, 1.0, points):
        p = segment_member(segment, lam)
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
    member = segment_member(seg([1.0, 1.0], [-1.0, 1.0]), lam)
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
    member = segment_member(EdgeSegment(p0, p1), v.witness.lam[0])
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
    # corner 0 is the anchor member: a stable k = 2 box that reaches
    # bisection measures 2**k corner rows and its centre member before it,
    # 2**k + 1 rows, not 2**k + 2.  Lambda 1
    # moves s and 1 together, so every member keeps a1 * a2 > a0 * a3, but
    # the coefficient box pairs a1 = 1 with a0 = 16: the box test fails
    rows = []
    seen_at_bisection = []
    margins = stab.member_margins
    bisect = stab._bisect

    def counting_margins(region, det_coeffs):
        rows.append(det_coeffs.shape[0])
        return margins(region, det_coeffs)

    def recording_bisect(*args):
        seen_at_bisection.append(sum(rows))
        return bisect(*args)

    monkeypatch.setattr(stab, "member_margins", counting_margins)
    monkeypatch.setattr(stab, "_bisect", recording_bisect)
    pd = ParametricDeterminant.from_terms(
        2,
        {
            0: Polynomial([1.0, 1.0, 2.0, 1.0]),
            1: Polynomial([15.0, 10.0]),
            2: Polynomial([0.0, 0.0, 0.1]),
        },
    )
    v = box_stable(pd, HurwitzHalfPlane())
    assert v.status is Status.ROBUSTLY_STABLE
    assert v.reason.startswith("bisected into") and v.reason.endswith("the margin is a root-distance bound")
    assert seen_at_bisection == [5]


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


def counted(monkeypatch, *names):
    """Count the calls of the named ``stab`` functions; returns the name -> count map."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, f):
        def counting(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return counting

    for name in names:
        monkeypatch.setattr(stab, name, wrap(name, getattr(stab, name)))
    return calls


# The cubic a0 + a1 s + a2 s^2 + a3 s^3 with positive coefficients is
# Hurwitz iff a1 a2 > a0 a3.  Along a0 = 1 + 9t, a3 = 10 - 9t (t = lambda_1,
# or t = lambda_1 xor lambda_2 in its multi-affine form l1 + l2 - 2 l1 l2)
# a0 a3 peaks at t = 0.5 with 30.25, so with a1 = 1, a2 = 11 every corner
# (a0 a3 = 10) is stable and the centre is clearly not.
CENTRE_UNSTABLE = {
    1: {0: Polynomial([1.0, 1.0, 11.0, 10.0]), 1: Polynomial([9.0, 0.0, 0.0, -9.0])},
    2: {
        0: Polynomial([1.0, 1.0, 11.0, 10.0]),
        1: Polynomial([9.0, 0.0, 0.0, -9.0]),
        2: Polynomial([9.0, 0.0, 0.0, -9.0]),
        3: Polynomial([-18.0, 0.0, 0.0, 18.0]),
    },
}


@pytest.mark.parametrize("k", [1, 2])
def test_unstable_centre_ends_the_box_without_a_sweep(k, monkeypatch):
    # the centre member decides the box before any bisection
    calls = counted(monkeypatch, "_bisect")
    pd = ParametricDeterminant.from_terms(k, CENTRE_UNSTABLE[k])
    region = HurwitzHalfPlane()
    for lam in corner_lambdas(k):
        assert point_stable(pd.assemble(lam), region).is_stable
    v = box_stable(pd, region)
    assert v.status is Status.UNSTABLE and v.reason == "box centre member is unstable"
    assert v.witness.lam == (0.5,) * k
    centre = point_stable(pd.assemble(v.witness.lam), region)
    assert v.margin == centre.margin < -0.05 and v.witness.root == centre.witness.root
    assert calls == {"_bisect": 0}


def test_centre_inside_the_zero_margin_band_does_not_end_the_box(monkeypatch):
    # a2 = 30.25 - 1e-7 puts the centre's imaginary root pair just outside,
    # margin about -5e-11, well inside the band -zero_margin * (1 + |root|):
    # the centre decides nothing, bisection cannot finish next to it, and
    # the centre, the least member measured, is within the witness window
    calls = counted(monkeypatch, "_bisect")
    pd = ParametricDeterminant.from_terms(
        1, {0: Polynomial([1.0, 1.0, 30.25 - 1e-7, 10.0]), 1: Polynomial([9.0, 0.0, 0.0, -9.0])}
    )
    region = HurwitzHalfPlane()
    centre = point_stable(pd.assemble([0.5]), region)
    assert centre.status is Status.UNSTABLE
    assert -Tolerances().zero_margin * (1.0 + abs(centre.witness.root)) < centre.margin < 0.0
    v = box_stable(pd, region)
    assert v.status is Status.UNSTABLE and v.reason == "member with a boundary root found inside the box"
    assert v.witness.lam == (0.5,) and v.margin == centre.margin
    assert calls == {"_bisect": 1}


def test_interior_witness_when_the_centre_is_stable(monkeypatch):
    # a0 = 1.1 + l1, a3 = 1.5 - l1, a1 = 1 + 0.2 l2, a2 = 1.67: a0 a3 peaks
    # at l1 = 0.2, so members near l1 = 0.2 with small l2 are unstable while
    # every corner and the centre are stable; bisection finds a sub-box
    # centre clearly outside
    calls = counted(monkeypatch, "_bisect")
    pd = ParametricDeterminant.from_terms(
        2,
        {
            0: Polynomial([1.1, 1.0, 1.67, 1.5]),
            1: Polynomial([1.0, 0.0, 0.0, -1.0]),
            2: Polynomial([0.0, 0.2, 0.0, 0.0]),
        },
    )
    region = HurwitzHalfPlane()
    for lam in [*corner_lambdas(2), (0.5, 0.5)]:
        assert point_stable(pd.assemble(lam), region).is_stable
    assert not point_stable(pd.assemble([0.2, 0.0]), region).is_stable
    v = box_stable(pd, region)
    assert v.status is Status.UNSTABLE and v.reason == "sub-box centre member is unstable"
    assert v.witness.lam != (0.5, 0.5)
    member = point_stable(pd.assemble(v.witness.lam), region)
    assert v.margin == member.margin < -Tolerances().zero_margin and v.witness.root == member.witness.root
    assert calls == {"_bisect": 1}


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


def without_family_certificate(monkeypatch):
    """Turn the family certificate off, so a stable family walks its configuration stream."""
    monkeypatch.setattr(stab, "_family_certificate", lambda fam, table, margin, tol: None)


def test_parallel_results_match_sequential(monkeypatch):
    without_family_certificate(monkeypatch)
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

    without_family_certificate(monkeypatch)
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
    members = VertexMembers(fam)
    for cfg in iter_configs(fam):
        assert all(v.status is Status.DEGENERATE for v in vertex_corners(members, cfg))


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
    corners = vertex_corners(VertexMembers(fam), cfg)
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

    without_family_certificate(monkeypatch)
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
    members = VertexMembers(fam)
    statuses = set()
    for cfg in iter_configs(fam):
        pd = det_parametric(cfg)
        memo = box_stable(pd, fam.region, corners=vertex_corners(members, cfg))
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


def reference_corner_keys(cfg):
    """Member key of each box corner, from the configuration's polynomials and indices.

    The key is the vertex index of every cell, row-major: ``vertex_index``
    off the pattern, the segment's ``index0`` on it, and its ``index1`` at
    corner v for the lambda column of each slot whose bit is set in v.
    """
    n = cfg.n
    base = [0] * (n * n)
    for (i, j), idx in cfg.vertex_index.items():
        base[i * n + j] = idx
    for j, seg in enumerate(cfg.edge_choice):
        base[cfg.sigma[j] * n + j] = seg.index0
    keys = []
    for v in range(1 << cfg.k):
        key = list(base)
        for slot, j in enumerate(cfg.lambda_columns):
            if v >> slot & 1:
                key[cfg.sigma[j] * n + j] = cfg.edge_choice[j].index1
        keys.append(tuple(key))
    return keys


def reference_run_key(cfg):
    """What the configurations of one run share: sigma and the lambda columns."""
    return cfg.sigma, cfg.lambda_columns


def reference_truncated(cfg):
    """Whether a base cell or segment end ``p1`` lost coefficients at construction."""
    return any(cell.truncated for row in cfg.base for cell in row) or any(
        seg.p1.truncated for seg in cfg.edge_choice
    )


def vertex_corners(members, cfg):
    """The corner verdicts ``members`` gives one configuration."""
    return members.solve(np.array(reference_corner_keys(cfg))[None])[0]


# every fixture that builds a family (two are schema fixtures that build none)
FAMILY_FIXTURES = [p.stem for p in sorted(FIXTURES.glob("*.json")) if p.stem not in ("nonfinite_coefficient", "segment_pair")]


def duplicate_vertex_family():
    # repeated vertices, one equal up to the sign of a zero, and a prefix
    diag = cell([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0], [1.0, -0.0, 3.0], [1.0, 0.0, 3.0], [1.0, 2.0, 0.0])
    return MatrixFamily([[diag, cell([0.1])], [cell([0.2], [0.2]), diag]], HurwitzHalfPlane())


@pytest.mark.parametrize("name", FAMILY_FIXTURES + ["duplicates"])
def test_vertex_table_same_is_the_pairwise_polynomial_equality(name):
    table = VertexTable(duplicate_vertex_family() if name == "duplicates" else fixture_family(name))
    want = np.zeros_like(table.same)
    for c, vs in enumerate(table.vertices):
        for a, v in enumerate(vs):
            want[c, a, : len(vs)] = [v == w for w in vs]
    assert table.same.dtype == want.dtype and np.array_equal(table.same, want)


def stream_runs(fam, bounds=None):
    """``VertexTable.runs`` of each range between ``bounds`` (the whole stream by default).

    Yields ``(table, configurations, ends)`` per run.
    """
    table = VertexTable(fam)
    bounds = [0, table.total] if bounds is None else bounds
    for start, stop in zip(bounds, bounds[1:]):
        for first, ends in table.runs(start, stop):
            yield table, list(iter_configs(fam, start=first, stop=first + len(ends))), ends


def plan_runs(fam):
    """The drivers' runs: ``VertexTable.runs`` of [0, 1), [1, 64), [64, 128), ..."""
    total = count_configs(fam)
    return stream_runs(fam, sorted({0, 1, total, *range(64, total, 64)}))


def run_corners(table, ends):
    """``_corner_ends`` of a run, with its slots from its first configuration."""
    return stab._corner_ends(ends, table.slots(table.lambda_cells(ends[0])))


def mixed_length_family():
    # off-diagonal vertices of lengths 1 and 2: the corners of one
    # configuration differ in cell lengths, so a run mixes cell lengths
    diag = {"vertices": [[2.0, 3.0, 1.0], [2.2, 3.1, 1.05]]}
    off = {"vertices": [[0.05], [0.04, 0.03]]}
    entries = [[diag if i == j else off for j in range(3)] for i in range(3)]
    return parse_family_dict({"n": 3, "region": {"type": "hurwitz"}, "mode": "polytope", "entries": entries})


def swapped_length_family():
    # diagonal vertices of lengths 3 and 5 in opposite orders: a product
    # that looped over its shorter factor would sum in another order once
    # the cells are zero-padded, which changes members' bits here
    return fixture_family("swapped_lengths")


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
    members = VertexMembers(fam)
    layouts = 0  # the most distinct member cell-length tuples in one run
    for table, run, ends in plan_runs(fam):
        batch = members.solve(run_corners(table, ends))
        solved = len(members._verdicts)
        lengths = set()
        for cfg, solved_corner in zip(run, batch, strict=True):
            corner = vertex_corners(members, cfg)
            assert all(a is b for a, b in zip(corner, solved_corner, strict=True)), cfg.index
            assert len(corner) == 1 << cfg.k
            for v in range(1 << cfg.k):
                grid = [list(row) for row in cfg.base]
                for slot, j in enumerate(cfg.lambda_columns):
                    if v >> slot & 1:
                        grid[cfg.sigma[j]][j] = cfg.edge_choice[j].p1
                lengths.add(tuple(c.coeffs.size for row in grid for c in row))
                det = det_matrix(grid)
                if det.is_zero:
                    assert corner[v].margin == -math.inf, (cfg.index, v)
                else:
                    assert repr(corner[v]) == repr(point_stable(det, fam.region)), (cfg.index, v)
        assert len(members._verdicts) == solved  # the run's batch solved every corner
        layouts = max(layouts, len(lengths))
    if make is mixed_length_family:
        assert layouts > 1


def test_family_solves_each_vertex_member_once(monkeypatch):
    # demo3x3: 384 configurations with k = 3 have 3,072 box corners among
    # the 2**9 = 512 all-vertex matrices of the family; the box test
    # certifies every configuration after its anchor, so only the 247
    # distinct anchors are measured, each once, as rows of the batched
    # margin rule and never one root call each
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
    without_family_certificate(monkeypatch)
    fam = fixture_family("demo3x3")
    v = analyze_family(fam)
    assert v.status is Status.ROBUSTLY_STABLE
    assert sum(rows) == len({reference_corner_keys(cfg)[0] for cfg in iter_configs(fam)}) == 247
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
    for table, run, ends in stream_runs(fam):
        for cfg, terms in zip(run, det_parametric_run(table, ends), strict=True):
            pd, alone = ParametricDeterminant.from_dense(terms), det_parametric(cfg)
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
    for table, run, ends in stream_runs(fam):
        pds = [ParametricDeterminant.from_dense(terms) for terms in det_parametric_run(table, ends)]
        full = _polyadd(outputs.pop(), np.zeros((len(run),) + (2,) * run[0].k + (1,)))
        for b, pd in enumerate(pds):
            masks, rows = termwise_rows(full, b, pd.k)
            assert (pd.masks.dtype, pd.masks.tolist()) == (masks.dtype, masks.tolist()), run[b].index
            assert pd.rows.shape == rows.shape, run[b].index
            assert pd.rows.tobytes() == rows.tobytes(), run[b].index
            assert not (pd.masks.flags.writeable or pd.rows.flags.writeable)
            checked += 1
    assert checked == sum(1 for _ in iter_configs(fam))


def reference_early_reason(pd, tol):
    """The degree checks of one determinant, read from ``coefficient_box``; None when the box goes on."""
    if not pd.rows.any():
        return "determinant is identically zero"
    with np.errstate(over="ignore", invalid="ignore"):
        box = det.coefficient_box(pd)
    if not np.isfinite(box).all():
        return "determinant coefficients overflow float64, so the degree and roots are not resolved"
    mags = np.max(np.abs(box), axis=1)
    d = int(np.flatnonzero(mags > 0.0)[-1])
    lo, hi = box[d]
    lead_min = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    if lead_min < tol.degree_eps * float(np.max(mags)):
        return "leading-coefficient interval reaches zero (degree drop)"
    return "constant nonzero determinant" if d == 0 else None


@pytest.mark.parametrize("name", FAMILY_FIXTURES + ["overflow", "delta_overflow", "interval", "cancelling_top"])
def test_run_degree_checks_equal_per_determinant_reference(name):
    # the degree checks on a run's corner rows give every configuration the
    # reason the per-determinant rule on its coefficient box gives, and a box
    # that goes on has the degree its own rows end at
    fam, tol = family_by_name(name), Tolerances()
    for table, run, ends in stream_runs(fam):
        early, degrees = stab._early_verdicts(stab._corner_rows(det_parametric_run(table, ends))[0], tol)
        for cfg, v, d in zip(run, early, degrees, strict=True):
            pd = det_parametric(cfg)
            want = reference_early_reason(pd, tol)
            assert (v and v.reason) == want, cfg.index
            assert want is not None or d == pd.rows.shape[1] - 1, cfg.index


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
    # configurations 63 and 64 of demo3x3 end and start a pattern block
    table = VertexTable(fixture_family("demo3x3"))
    ends = np.concatenate([block for _, _, block in table.ends(63, 65)])
    free = table.lambda_cells(ends)
    assert (free[0] != free[1]).any()
    with pytest.raises(ValueError):
        det_parametric_run(table, ends)


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

    def recording_run(table, ends):
        sizes.append(len(ends))
        return run_of(table, ends)

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
# the run-level checks and bisection


def without_box_test(monkeypatch):
    """Turn the whole-box test off, so every configuration it would certify goes on to bisection."""

    def no_certificates(corners, mags, degrees, margins, region, tol):
        return [None] * len(margins)

    monkeypatch.setattr(stab, "_box_certificates", no_certificates)


def lone_outcomes(fam, tol, stop=None):
    """Each configuration decided by ``box_stable`` on its own, up to the first Unstable."""
    members = VertexMembers(fam)
    out = []
    for cfg in iter_configs(fam, stop=stop):
        v = box_stable(det_parametric(cfg), fam.region, tol, vertex_corners(members, cfg))
        out.append((cfg.index, repr(v)))
        if v.status is Status.UNSTABLE:
            break
    return out


def chunk_outcomes(fam, tol, stop=None):
    stop = count_configs(fam) if stop is None else stop
    return [(index, repr(v)) for index, v in stab._check_chunk(fam, 0, stop, tol, VertexMembers(fam))]


def split_shape_family():
    # the top coefficient cancels exactly when cell (0, 1) is s + 3, so the
    # runs of pattern (0, 1) mix rows of widths 2 and 3
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


REPEAT_SHAPES = [
    (3, False, ShiftedHalfPlane(-0.05)),
    (3, False, Disk(-1.0 + 0.0j, 1.2)),
    (3, True, HurwitzHalfPlane()),
    (4, False, ShiftedHalfPlane(-0.05)),
    (4, False, Disk(-1.0 + 0.0j, 1.2)),
    (4, True, HurwitzHalfPlane()),
]


def repeat_family(seed):
    # boxes that recur under several patterns: two-vertex diagonal cells
    # (and cell (0, 1) for the partial shape), every other cell fixed,
    # around a stable skeleton; the n = 3 partial shape has no repeat
    n, partial, region = REPEAT_SHAPES[seed]
    rng = np.random.default_rng(37_000 + seed)
    uncertain = {(i, i) for i in range(n)} | ({(0, 1)} if partial else set())

    def entry(r, c):
        if r == c:
            a, b = rng.uniform(0.5, 1.8, 2)
            base = np.array([a * b, a + b, 1.0])
        else:
            base = np.array([rng.uniform(-0.1, 0.1)])
        m = 2 if (r, c) in uncertain else 1
        return PolytopeEntry(tuple(Polynomial(base + rng.uniform(-0.1, 0.1, base.size)) for _ in range(m)))

    return MatrixFamily([[entry(r, c) for c in range(n)] for r in range(n)], region)


REPEAT_FAMILIES = {
    "diagonal3": lambda: fixture_family("diagonal3"),
    **{f"repeat{seed}": (lambda seed=seed: repeat_family(seed)) for seed in range(len(REPEAT_SHAPES))},
}


BATCH_FAMILIES = {
    "demo3x3": lambda: fixture_family("demo3x3"),
    "vertex_insufficiency": lambda: fixture_family("vertex_insufficiency"),
    "degree_drop": lambda: fixture_family("degree_drop"),
    "cancellation": lambda: fixture_family("cancellation"),
    "overflow": lambda: fixture_family("overflow"),
    "delta_overflow": lambda: fixture_family("delta_overflow"),
    "interval": interval_family,
    "split_shape": split_shape_family,
    "mid_run_unstable": mid_run_unstable_family,
    "mixed_lengths": lambda: fixture_family("mixed_lengths"),
    **{f"seeded{seed}": (lambda seed=seed: seeded_family(seed)) for seed in range(9)},
    **REPEAT_FAMILIES,
}


WHOLE_BOX = "Kharitonov polynomials of the coefficient box are stable"


@pytest.mark.parametrize("budget", [128, 512])
@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_batched_sweep_equals_lone_box_stable(name, budget, monkeypatch):
    # which configurations share a run's box test must not change any
    # verdict: every outcome of a chunk, its margin included, is bitwise
    # box_stable's on that configuration alone, and nothing after the first
    # Unstable is reported, at two sub-box budgets of bisection
    monkeypatch.setattr(stab, "_SUBBOX_CAP", budget)
    fam = BATCH_FAMILIES[name]()
    tol = Tolerances()
    stop = min(count_configs(fam), 96)
    outcomes = chunk_outcomes(fam, tol, stop)
    assert outcomes == lone_outcomes(fam, tol, stop)
    assert sum(WHOLE_BOX in text for _, text in outcomes) == BOX_CERTIFIED[name]


@pytest.mark.parametrize("budget", [128, 512])
@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_batched_sweep_equals_lone_box_stable_without_box_test(name, budget, monkeypatch):
    # the same with the whole-box test off, so the chunk's bisections decide
    # what the box test would certify
    without_box_test(monkeypatch)
    monkeypatch.setattr(stab, "_SUBBOX_CAP", budget)
    fam = BATCH_FAMILIES[name]()
    tol = Tolerances()
    stop = min(count_configs(fam), 96)
    outcomes = chunk_outcomes(fam, tol, stop)
    assert outcomes == lone_outcomes(fam, tol, stop)
    assert not any(WHOLE_BOX in text for _, text in outcomes)


# Outcomes among the first 96 of each family that the whole-box test
# certifies; the others stop before it or go on to bisection.
BOX_CERTIFIED = {
    "demo3x3": 96,
    "vertex_insufficiency": 0,
    "degree_drop": 0,
    "cancellation": 0,
    "overflow": 0,
    "delta_overflow": 0,
    "interval": 0,
    "split_shape": 6,
    "mid_run_unstable": 0,
    "mixed_lengths": 96,
    "seeded0": 1,
    "seeded1": 8,
    "seeded2": 96,
    "seeded3": 1,
    "seeded4": 0,
    "seeded5": 96,
    "seeded6": 1,
    "seeded7": 0,
    "seeded8": 32,
    "diagonal3": 13,
    "repeat0": 13,
    "repeat1": 0,
    "repeat2": 30,
    "repeat3": 64,
    "repeat4": 0,
    "repeat5": 96,
}


def box_key(cfg):
    keys = reference_corner_keys(cfg)
    return keys[0], keys[-1]


@pytest.mark.parametrize("name", list(REPEAT_FAMILIES))
def test_repeated_boxes_are_exercised(name):
    # the batched comparison above checks the box memo only where boxes
    # recur: every repeat family but the n = 3 partial one has repeats among
    # its first 96 configurations, and a repeat has k < n
    fam = REPEAT_FAMILIES[name]()
    seen, repeats = set(), 0
    for cfg in iter_configs(fam, stop=96):
        repeats += box_key(cfg) in seen
        assert box_key(cfg) not in seen or cfg.k < cfg.n
        seen.add(box_key(cfg))
    assert (repeats > 0) == (name != "repeat2")


def test_repeated_boxes_build_no_determinant(monkeypatch):
    # diagonal3: 29 configurations and 21 distinct boxes; the 8 k = 0
    # boxes of the 3-cycle at configurations 1-8 recur at 9-16 under the
    # other 3-cycle, which reuse their verdicts and build nothing
    without_family_certificate(monkeypatch)
    fam = fixture_family("diagonal3")
    sizes = []
    run_of = stab.det_parametric_run

    def recording_run(table, ends):
        sizes.append(len(ends))
        return run_of(table, ends)

    monkeypatch.setattr(stab, "det_parametric_run", recording_run)
    v, outcomes = analyze_family_detailed(fam)
    assert v.is_stable and len(outcomes) == 29
    assert sum(sizes) == 21
    assert [(o.status, o.margin, o.reason) for o in outcomes[9:17]] == [
        (o.status, o.margin, o.reason) for o in outcomes[1:9]
    ]


def test_truncated_segment_end_shares_no_box():
    # cell (0, 0)'s vertex 1 equals vertex 0 once its -1e-13 is truncated,
    # so the identity pattern's segment between them is degenerate and its
    # box is keyed as vertex 0: configuration 0 (truncated p1) is Degenerate,
    # and configuration 1 (vertex 0 off the pattern) is decided on its own
    fam = MatrixFamily(
        [
            [cell([1.0, 2.0, 1.0], [1.0, 2.0, 1.0, -1e-13]), cell([0.1])],
            [cell([0.1]), cell([2.0, 1.0])],
        ],
        HurwitzHalfPlane(),
    )
    cfg0, cfg1, cfg2 = iter_configs(fam)
    assert box_key(cfg0) == box_key(cfg1) and cfg0.k == 0
    outcomes = stab._check_chunk(fam, 0, 3, Tolerances(), VertexMembers(fam))
    assert [v.status for _, v in outcomes] == [Status.DEGENERATE, Status.ROBUSTLY_STABLE, Status.DEGENERATE]
    assert repr(outcomes[1][1]) == repr(box_stable(det_parametric(cfg1), fam.region))


def recorded_members(monkeypatch):
    """Record every ``VertexMembers`` the drivers make from now on."""
    made = []

    class Recording(VertexMembers):
        def __init__(self, fam):
            super().__init__(fam)
            made.append(self)

    monkeypatch.setattr(stab, "VertexMembers", Recording)
    return made


def test_box_memo_holds_only_boxes_with_free_columns(monkeypatch):
    # every demo3x3 configuration has k = n, so its box never recurs and
    # nothing is stored (the member memo holds its 247 distinct anchors);
    # diagonal3 stores its 20 distinct k < n boxes
    without_family_certificate(monkeypatch)
    made = recorded_members(monkeypatch)
    assert analyze_family(fixture_family("demo3x3")).is_stable
    (members,) = made
    assert members._boxes == {} and len(members._verdicts) == 247
    made.clear()
    assert analyze_family(fixture_family("diagonal3")).is_stable
    (members,) = made
    assert len(members._boxes) == 20


@pytest.mark.parametrize("name", ["diagonal3", "repeat3"])
def test_repeated_boxes_same_outcomes_at_two_jobs(name, monkeypatch):
    # repeat3 has 233 configurations, so two workers each keep their own
    # box memo across their chunks
    without_family_certificate(monkeypatch)
    fam = REPEAT_FAMILIES[name]()
    serial = analyze_family_detailed(fam, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert analyze_family_detailed(fam, jobs=2) == serial


def test_unstable_mid_run_ends_the_report():
    fam = mid_run_unstable_family()
    runs = [[cfg.index for cfg in run] for _, run, _ in plan_runs(fam)]
    assert runs == [[0], [1, 2, 3, 4, 5], list(range(6, 14))]
    outcomes = chunk_outcomes(fam, Tolerances())
    assert [index for index, _ in outcomes] == [0, 1, 2, 3, 4]
    # its box centre member is unstable; a witness that bisection finds is
    # tested in test_interior_witness_when_the_centre_is_stable
    assert "Status.UNSTABLE" in outcomes[-1][1] and "box centre member is unstable" in outcomes[-1][1]
    assert all("ROBUSTLY_STABLE" in text for _, text in outcomes[:-1])
    assert [(o.index, o.status) for o in analyze_family_detailed(fam)[1]] == [
        (index, Status.UNSTABLE if index == 4 else Status.ROBUSTLY_STABLE) for index in range(5)
    ]
    # alone, configuration 5 (after the Unstable one in its run) is stable
    cfg5 = next(iter_configs(fam, start=5, stop=6))
    assert box_stable(det_parametric(cfg5), fam.region, None, vertex_corners(VertexMembers(fam), cfg5)).is_stable


def test_no_sweep_after_the_first_unstable_in_a_run(monkeypatch):
    # with the box test off, configurations 0 to 3 are bisected and 4 is
    # Unstable at its box centre; configuration 5, later in the same run,
    # is not bisected
    fam = mid_run_unstable_family()
    without_box_test(monkeypatch)
    calls = counted(monkeypatch, "_bisect")
    outcomes = stab._check_chunk(fam, 0, 14, Tolerances(), VertexMembers(fam))
    assert [index for index, _ in outcomes] == [0, 1, 2, 3, 4]
    assert outcomes[-1][1].status is Status.UNSTABLE
    assert calls == {"_bisect": 4}


def test_bisection_corner_rows_enclose_the_exact_ones(monkeypatch):
    # configuration 2 of mid_run_unstable_family passes the box test only
    # on sub-boxes as small as 1/64 of a side, at tau 0.0138: every corner
    # row that bisection hands the box test, recomputed in rationals from
    # the sub-box's corner lambdas, lies within the rounding bound passed
    # with it.  Most of the computed rows are not exact, so the box test
    # would test a box that misses members without that bound
    fam = mid_run_unstable_family()
    pd = det_parametric(config_at(fam, 2))
    lams, boxes = [], []
    weights, rungs = stab.monomial_weights, stab._rung_margins

    def recording_weights(masks, lam):
        lams.append(np.asarray(lam))
        return weights(masks, lam)

    def recording_rungs(corners, errors, *args):
        if lams and lams[-1].ndim == 3:  # a bisection round's corner lambdas
            boxes.append((lams[-1], corners, errors))
        return rungs(corners, errors, *args)

    monkeypatch.setattr(stab, "monomial_weights", recording_weights)
    monkeypatch.setattr(stab, "_rung_margins", recording_rungs)
    v = box_stable(pd, fam.region)
    assert v.status is Status.ROBUSTLY_STABLE and v.reason.startswith("bisected into 566 sub-boxes")
    terms = np.zeros((4, pd.rows.shape[1]))
    terms[pd.masks] = pd.rows
    exact_terms = [[Fraction(x) for x in row] for row in terms]
    inexact = checked = 0
    for lam, corners, errors in boxes:
        for corner_lams, rows, bounds in zip(lam.reshape(-1, 2), corners.reshape(-1, corners.shape[2]),
                                             errors.reshape(-1, errors.shape[2])):
            l1, l2 = (Fraction(x) for x in corner_lams)
            for i, (row, bound) in enumerate(zip(rows, bounds)):
                exact = sum(w * t[i] for w, t in zip((1, l1, l2, l1 * l2), exact_terms))
                assert abs(exact - Fraction(row)) <= Fraction(bound)
                inexact += exact != Fraction(row)
                checked += 1
    assert sum(lam.shape[0] for lam, _, _ in boxes) == 566 and inexact > checked // 2


@pytest.mark.parametrize(
    "region, tol",
    [
        # every member is 0.7 or more inside D(-3 + 2j, 3.5), but the first
        # two sub-box centres lie outside the tested disk D(-3, 1.5)
        (Disk(-3.0 + 2.0j, 3.5), Tolerances()),
        # the loose band: the centres' margins, about 1.04, are below 1.8
        (HurwitzHalfPlane(), Tolerances(zero_margin=0.9)),
    ],
)
def test_bisection_stops_at_a_centre_within_twice_zero_margin(region, tol):
    # no rung of such a centre's ladder counts, so bisection stops at the
    # first round instead of spending its budget, and the least margin
    # measured is far outside the witness window: Inconclusive
    fam = MatrixFamily(fixture_family("demo3x3").entries, region)
    v = box_stable(det_parametric(config_at(fam, 0)), region, tol)
    assert v.status is Status.INCONCLUSIVE and v.margin is None and v.witness is None
    assert v.reason.startswith("bisection stopped after 2 sub-boxes: a sub-box centre lies within 2 * zero_margin")
    assert float(v.reason.rsplit(" ", 1)[1]) > 0.5


def stiff_segment():
    # (s + 1)**24 keeps every root inside, but the box test's guarded Routh
    # test cannot certify its binomial coefficients, on any sub-box
    return ParametricDeterminant.from_terms(1, {0: from_roots([-1.0] * 24), 1: Polynomial([0.01])})


@pytest.mark.parametrize("budget", [8, 128, 512])
def test_refinement_budget_exhausted(budget, monkeypatch):
    # configuration 2 of mid_run_unstable_family needs 566 sub-boxes; below
    # that budget, as for the stiff segment at every budget, bisection stops
    # Inconclusive at the last round that fits, with the budget as reason
    fam = mid_run_unstable_family()
    pd = det_parametric(config_at(fam, 2))
    assert box_stable(pd, fam.region).reason.startswith("bisected into 566 sub-boxes")
    monkeypatch.setattr(stab, "_SUBBOX_CAP", budget)
    rounds = [2 ** (j + 1) - 2 for j in range(1, 11)]  # sub-boxes after j full rounds of k = 1
    for box in (pd, stiff_segment()):
        v = box_stable(box, fam.region)
        assert v.status is Status.INCONCLUSIVE and v.margin is None and v.witness is None
        spent = int(v.reason.split(" sub-boxes")[0].split()[-1])
        assert f"the budget of {budget} sub-boxes is spent" in v.reason
        assert budget // 2 <= spent <= budget
    assert spent == max(r for r in rounds if r <= budget)


# ----------------------------------------------------------------------
# the index path: configurations as rows of ``ends``


def index_polytope_family(seed):
    # n = 1, 2, 3; one to three vertices per cell, of lengths 1 to 3, so
    # vertices of one cell differ in length and fixed entries occur; some
    # cells repeat a vertex (a degenerate segment between distinct indices),
    # and at odd seeds cell (0, 0)'s vertex 1 equals vertex 0 only once its
    # -1e-13 is truncated, so that degenerate segment's p1 is truncated and
    # its p0 is not
    rng = np.random.default_rng(41_000 + seed)
    n = 1 + seed % 3

    def entry(i, j):
        if (i, j) == (0, 0) and seed % 2:
            return cell([1.0, 2.0, 1.0], [1.0, 2.0, 1.0, -1e-13], [1.5, 2.0, 1.0])
        vs = [Polynomial(rng.uniform(-1.0, 1.0, int(rng.integers(1, 4)))) for _ in range(int(rng.integers(1, 4)))]
        if len(vs) > 1 and rng.random() < 0.3:
            vs[-1] = Polynomial(vs[0].coeffs)
        return PolytopeEntry(vs)

    return MatrixFamily([[entry(i, j) for j in range(n)] for i in range(n)], HurwitzHalfPlane())


def index_interval_family(seed):
    # interval cells whose Kharitonov vertices lose a zero top coefficient
    # (so one cell's vertices differ in length), fixed coefficients (so some
    # Kharitonov vertices and edges coincide), point intervals, and at odd
    # seeds a vertex truncated at construction
    rng = np.random.default_rng(43_000 + seed)
    n = 1 + seed % 3

    def entry(i, j):
        if (i, j) == (0, 0) and seed % 2:
            return interval([1.0, 2.0, 1e-13], [1.5, 2.5, 1.0])
        size = int(rng.integers(1, 4))
        lo = rng.uniform(-1.0, 1.0, size)
        hi = lo + rng.choice([0.0, 0.5], size)
        if rng.random() < 0.5:
            lo[-1], hi[-1] = 0.0, hi[-1] - lo[-1]
        return interval(lo, hi)

    return MatrixFamily([[entry(i, j) for j in range(n)] for i in range(n)], HurwitzHalfPlane())


INDEX_FAMILIES = {
    **{name: (lambda name=name: fixture_family(name)) for name in FAMILY_FIXTURES},
    **{name: (lambda name=name: fixture_family(name)) for name in ("overflow", "delta_overflow", "diagonal3")},
    "mixed_lengths": lambda: fixture_family("mixed_lengths"),
    "constant1x1": lambda: fixture_family("constant1x1"),
    "interval": interval_family,
    **{f"polytope{seed}": (lambda seed=seed: index_polytope_family(seed)) for seed in range(6)},
    **{f"interval{seed}": (lambda seed=seed: index_interval_family(seed)) for seed in range(6)},
}


@pytest.mark.parametrize("name", list(INDEX_FAMILIES))
def test_index_path_equals_configuration_path(name):
    # every quantity the drivers derive from ``ends`` equals what the same
    # configuration's EdgeConfiguration gives: run boundaries, lambda
    # columns, corner member keys, box-memo keys, truncation and the
    # parametric determinant, bitwise; at most eight of the driver's chunks
    # per family, spread over the stream
    fam = INDEX_FAMILIES[name]()
    table = VertexTable(fam)
    bounds = sorted({0, 1, table.total, *range(64, table.total, 64)})
    chunks = list(zip(bounds, bounds[1:]))
    p1_only = 0
    for start, stop in chunks[:: max(1, len(chunks) // 8)]:
        cfgs = [config_at(fam, index) for index in range(start, stop)]
        want_runs = [
            [cfg.index for cfg in group] for _, group in itertools.groupby(cfgs, key=reference_run_key)
        ]
        runs = []
        for first, ends in table.runs(start, stop):
            runs.append(list(range(first, first + len(ends))))
            truncated = table.any_truncated(ends)
            corners = run_corners(table, ends).tolist()
            run_terms = det_parametric_run(table, ends)
            for b, cfg in enumerate(cfgs[first - start : first - start + len(ends)]):
                slots = table.slots(table.lambda_cells(ends[b]))
                assert tuple((slots % fam.n).tolist()) == cfg.lambda_columns, cfg.index
                assert [tuple(key) for key in corners[b]] == reference_corner_keys(cfg), cfg.index
                assert (tuple(corners[b][0]), tuple(corners[b][-1])) == box_key(cfg), cfg.index
                assert truncated[b] == reference_truncated(cfg), cfg.index
                pd, alone = ParametricDeterminant.from_dense(run_terms[b]), det_parametric(cfg)
                assert pd.k == alone.k, cfg.index
                assert (pd.masks.dtype, pd.masks.tolist()) == (alone.masks.dtype, alone.masks.tolist()), cfg.index
                assert (pd.rows.shape, pd.rows.tobytes()) == (alone.rows.shape, alone.rows.tobytes()), cfg.index
                p1_only += truncated[b] and not any(c.truncated for row in cfg.base for c in row)
        assert runs == want_runs
    if name in ("polytope1", "polytope3", "polytope5"):
        assert p1_only  # a segment truncated only at its p1 is reached


@pytest.mark.parametrize("name", ["demo3x3", "diagonal3", "mixed_lengths", "degree_drop", "interval"])
def test_chunks_build_no_configuration_or_polynomial(name, monkeypatch):
    # once the analysis has its vertex table, deciding a chunk works on
    # vertex indices and coefficient arrays alone
    fam = interval_family() if name == "interval" else fixture_family(name)
    members = VertexMembers(fam)
    made = []
    for owner in (EdgeConfiguration, Polynomial):
        init = owner.__init__
        monkeypatch.setattr(owner, "__init__", lambda self, *a, init=init, **kw: made.append(1) or init(self, *a, **kw))
    for module in (det, poly):
        exact = module._exact
        monkeypatch.setattr(module, "_exact", lambda *a, exact=exact: made.append(1) or exact(*a))
    outcomes = stab._check_chunk(fam, 0, members.table.total, Tolerances(), members)
    assert outcomes and made == []
