"""Family model tests: polytope entries, interval entries, the four-vertex
construction for interval polynomials, and structural validation.

The four-vertex pattern is checked against hand-expanded coefficients, and
the box-membership invariants are property-tested.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestab.errors import BoundOrderViolation
from edgestab.family import (
    EdgeSegment,
    IntervalEntry,
    KHARITONOV_EDGE_PAIRS,
    MatrixFamily,
    PolytopeEntry,
    kharitonov_edges,
    kharitonov_lower,
    kharitonov_vertices,
    polytope_edges,
    validate,
)
from edgestab.poly import Polynomial
from edgestab.region import HurwitzHalfPlane


def interval(lo, hi):
    return IntervalEntry(np.array(lo, dtype=float), np.array(hi, dtype=float))


# ----------------------------------------------------------------------
# polytope entries


def test_polytope_entry_basic():
    e = PolytopeEntry((Polynomial([1.0, 1.0]), Polynomial([2.0, 1.0])))
    assert e.m == 2


def test_polytope_entry_rejects_empty_and_non_polynomials():
    with pytest.raises(ValueError):
        PolytopeEntry(())
    with pytest.raises(TypeError):
        PolytopeEntry(([1.0, 2.0],))


def test_polytope_edges_counts():
    mk = lambda k: PolytopeEntry(tuple(Polynomial([float(i), 1.0]) for i in range(k)))
    assert polytope_edges(mk(1)) == []
    assert len(polytope_edges(mk(2))) == 1
    assert len(polytope_edges(mk(4))) == 6


def test_polytope_edges_carry_vertex_indices():
    e = PolytopeEntry(tuple(Polynomial([float(i)]) for i in range(3)))
    pairs = {(s.index0, s.index1) for s in polytope_edges(e)}
    assert pairs == {(0, 1), (0, 2), (1, 2)}
    for s in polytope_edges(e):
        assert s.p0 == e.vertices[s.index0]
        assert s.p1 == e.vertices[s.index1]


# ----------------------------------------------------------------------
# interval entries


@pytest.mark.parametrize("length", range(1, 14))
def test_kharitonov_mask_is_the_phase_membership(length):
    # c1 takes the lower bound where l % 4 is 0 or 1, c2 at 0 or 3, c3 at 1 or 2, c4 at 2 or 3
    phases = ((0, 1), (0, 3), (1, 2), (2, 3))
    want = np.array([np.isin(np.arange(length) % 4, at) for at in phases])
    got = kharitonov_lower(length)
    assert got.dtype == bool and np.array_equal(got, want)


def test_interval_entry_bound_order():
    # construction is lenient (validation reports the problem as a
    # diagnostic); the vertex construction refuses to work on a bad box
    bad = interval([2.0], [1.0])
    with pytest.raises(BoundOrderViolation):
        kharitonov_vertices(bad)
    with pytest.raises(BoundOrderViolation):
        kharitonov_edges(bad)
    fam = MatrixFamily([[bad]], HurwitzHalfPlane())
    diags = validate(fam)
    assert any(d.level == "error" and d.code == "bound-order" for d in diags)


def test_interval_point_flag():
    assert interval([1.0, 2.0], [1.0, 2.0]).is_point
    assert not interval([1.0, 2.0], [1.0, 3.0]).is_point


# ----------------------------------------------------------------------
# the four-vertex construction


def test_four_vertices_worked_example():
    e = interval([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
    c1, c2, c3, c4 = kharitonov_vertices(e)
    assert c1 == Polynomial([1.0, 3.0, 6.0])
    assert c2 == Polynomial([1.0, 4.0, 6.0])
    assert c3 == Polynomial([2.0, 3.0, 5.0])
    assert c4 == Polynomial([2.0, 4.0, 5.0])


def test_four_vertices_degree_three_pattern():
    # degree 3 exercises one full period of the alternation
    e = interval([0.0] * 4, [1.0] * 4)
    c1, c2, c3, c4 = kharitonov_vertices(e)
    assert c1.as_list() == [0.0, 0.0, 1.0, 1.0]  # low low high high
    assert c2.as_list() == [0.0, 1.0, 1.0]  # low high high low (trailing zero drops)
    assert c3.as_list() == [1.0, 0.0, 0.0, 1.0]  # high low low high
    assert c4.as_list() == [1.0, 1.0]  # high high low low (trailing zeros drop)


def test_four_vertices_constant_entry():
    c1, c2, c3, c4 = kharitonov_vertices(interval([0.0], [1.0]))
    assert c1.is_zero and c2.is_zero
    assert c3 == Polynomial([1.0]) and c4 == Polynomial([1.0])


def test_four_vertices_point_interval():
    vs = kharitonov_vertices(interval([1.0, 2.0], [1.0, 2.0]))
    assert all(v == vs[0] for v in vs)


def test_four_edges_pairing():
    e = interval([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
    vs = kharitonov_vertices(e)
    segs = kharitonov_edges(e)
    assert len(segs) == 4
    assert KHARITONOV_EDGE_PAIRS == ((0, 1), (1, 3), (3, 2), (2, 0))
    for seg, (a, b) in zip(segs, KHARITONOV_EDGE_PAIRS):
        assert seg.p0 == vs[a]
        assert seg.p1 == vs[b]
        assert not seg.degenerate


def test_four_edges_point_interval_all_degenerate():
    segs = kharitonov_edges(interval([1.0, 2.0], [1.0, 2.0]))
    assert len(segs) == 4
    assert all(s.degenerate for s in segs)


def test_four_edges_single_varying_coefficient():
    # only the constant coefficient varies: the four vertices collapse to two
    # polynomials, two of the four edges degenerate, and the two solid edges
    # share their endpoints (they differ only in orientation)
    e = interval([0.0, 2.0, 1.0], [1.0, 2.0, 1.0])
    segs = kharitonov_edges(e)
    assert len(segs) == 4
    degen = [s for s in segs if s.degenerate]
    solid = [s for s in segs if not s.degenerate]
    assert len(degen) == 2
    assert len(solid) == 2
    a, b = solid
    assert a.p0 == b.p1 and a.p1 == b.p0


@st.composite
def interval_entries(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    lo = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    width = draw(
        st.lists(
            st.floats(min_value=0, max_value=4, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    lo = np.array(lo)
    return IntervalEntry(lo, lo + np.array(width))


@given(interval_entries())
@settings(max_examples=80, deadline=None)
def test_vertices_stay_inside_the_coefficient_box(e):
    for v in kharitonov_vertices(e):
        c = np.zeros(e.length)
        c[: v.coeffs.size] = v.coeffs
        assert np.all(c >= e.lower - 1e-12)
        assert np.all(c <= e.upper + 1e-12)


@given(interval_entries())
@settings(max_examples=80, deadline=None)
def test_edge_midpoints_stay_inside_the_coefficient_box(e):
    for seg in kharitonov_edges(e):
        mid = seg.p0 * 0.5 + seg.p1 * 0.5
        c = np.zeros(e.length)
        c[: mid.coeffs.size] = mid.coeffs
        assert np.all(c >= e.lower - 1e-12)
        assert np.all(c <= e.upper + 1e-12)


# ----------------------------------------------------------------------
# edge segments


def test_edge_segment_degeneracy_flag():
    p = Polynomial([1.0, 2.0])
    assert EdgeSegment(p, Polynomial([1.0, 2.0])).degenerate
    assert not EdgeSegment(p, Polynomial([1.0, 2.5])).degenerate


# ----------------------------------------------------------------------
# whole families and validation


def square(entry_fn, n=2, region=None):
    return MatrixFamily(
        [[entry_fn(i, j) for j in range(n)] for i in range(n)],
        region or HurwitzHalfPlane(),
    )


def test_family_shape_checks():
    good = square(lambda i, j: PolytopeEntry((Polynomial([1.0]),)))
    assert good.n == 2
    assert good.mode == "polytope"
    with pytest.raises(ValueError):
        MatrixFamily([[PolytopeEntry((Polynomial([1.0]),))], []], HurwitzHalfPlane())
    with pytest.raises(TypeError):
        MatrixFamily([[1.0]], HurwitzHalfPlane())


def test_family_mode_detection():
    iv = square(lambda i, j: interval([0.0], [1.0]))
    assert iv.mode == "interval"
    mixed = MatrixFamily(
        [
            [PolytopeEntry((Polynomial([1.0]),)), interval([0.0], [1.0])],
            [interval([0.0], [1.0]), PolytopeEntry((Polynomial([1.0]),))],
        ],
        HurwitzHalfPlane(),
    )
    assert mixed.mode == "mixed"


def test_family_immutable():
    fam = square(lambda i, j: PolytopeEntry((Polynomial([1.0]),)))
    with pytest.raises(AttributeError):
        fam.entries = ()


def test_validate_clean_family():
    fam = square(
        lambda i, j: PolytopeEntry(
            (Polynomial([1.0 + i + j]), Polynomial([5.0 + 2.0 * i + 3.0 * j]))
        )
    )
    assert validate(fam) == []


def test_validate_flags_duplicate_vertices():
    fam = square(
        lambda i, j: PolytopeEntry((Polynomial([1.0, 1.0]), Polynomial([1.0, 1.0])))
        if (i, j) == (0, 0)
        else PolytopeEntry((Polynomial([1.0]),))
    )
    diags = validate(fam)
    assert len(diags) == 1
    assert diags[0].level == "warning"
    assert diags[0].code == "duplicate-vertex"
    assert diags[0].cell == (0, 0)


def test_validate_flags_mixed_mode():
    mixed = MatrixFamily(
        [
            [PolytopeEntry((Polynomial([1.0]),)), interval([0.0], [1.0])],
            [PolytopeEntry((Polynomial([1.0]),)), PolytopeEntry((Polynomial([1.0]),))],
        ],
        HurwitzHalfPlane(),
    )
    codes = {d.code for d in validate(mixed)}
    assert "mixed-mode" in codes
