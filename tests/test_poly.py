"""Polynomial core tests.

Oracles live in this file and are deliberately independent of the
implementation: evaluation by pure-Python Horner, products by explicit
double loops, roots by construction from known factors.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgestab.errors import ZeroPolynomialError
from edgestab.poly import Polynomial, batch_roots, from_roots


# ----------------------------------------------------------------------
# oracles


def horner(coeffs, z):
    """Evaluation oracle: ascending coefficients, plain Horner scheme."""
    acc = 0.0 * z
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


def slow_mul(a, b):
    """Product oracle: explicit convolution double loop."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def slow_add(a, b):
    out = [0.0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def expand_factors(roots):
    """Root oracle: multiply out (s - r) factors with complex arithmetic."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        new = [0.0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c  # s * p
            new[i] -= r * c  # -r * p
        coeffs = new
    return coeffs


coeffs_strategy = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=7,
)


# ----------------------------------------------------------------------
# construction and normalization


def test_normalization_drops_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.as_list() == [1.0, 2.0]
    assert not p.truncated  # the dropped entries were exactly zero


def test_normalization_flags_real_truncation():
    p = Polynomial([1.0, 1e-20])
    assert p.degree == 0
    assert p.truncated


def test_zero_polynomial_canonical_form():
    for coeffs in ([0.0], [0.0, 0.0], [0.0, 0.0, 0.0]):
        p = Polynomial(coeffs)
        assert p.is_zero
        assert p.degree == 0
        assert p.as_list() == [0.0]


def test_relative_truncation_keeps_small_but_significant_coeffs():
    p = Polynomial([1e-15, 1e-15])
    assert p.degree == 1  # both tiny but mutually significant


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        Polynomial([1.0, math.inf])
    with pytest.raises(ValueError):
        Polynomial([math.nan])


def test_immutable():
    p = Polynomial([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.coeffs = np.array([3.0])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_leading_and_scale():
    p = Polynomial([1.0, -3.0, 2.0])
    assert p.leading == 2.0
    assert p.coeff_scale == 3.0


# ----------------------------------------------------------------------
# arithmetic vs oracles


@given(coeffs_strategy, coeffs_strategy)
@example([1.0], [3.0, 3.0304712829001876e-12])
@settings(max_examples=100, deadline=None)
def test_add_matches_oracle(a, b):
    # a sum keeps its computed coefficients: only exactly-zero trailing ones
    # drop, with no relative truncation (4 + 3e-12 s stays degree 1)
    p, q = Polynomial(a), Polynomial(b)
    want = slow_add(p.as_list(), q.as_list())
    while len(want) > 1 and want[-1] == 0.0:
        want.pop()
    assert np.array_equal((p + q).coeffs, want)


@given(coeffs_strategy, coeffs_strategy)
@settings(max_examples=100, deadline=None)
def test_mul_matches_oracle(a, b):
    got = Polynomial(a) * Polynomial(b)
    want = Polynomial(slow_mul(a, b))
    assert got.isclose(want, rtol=1e-9, atol=1e-9)


@given(coeffs_strategy)
@settings(max_examples=50, deadline=None)
def test_sub_self_is_zero(a):
    p = Polynomial(a)
    assert (p - p).is_zero


@given(coeffs_strategy, st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_scalar_mul(a, c):
    got = Polynomial(a) * c
    want = Polynomial([c * x for x in a])
    assert got.isclose(want, rtol=1e-12, atol=1e-12)
    assert (c * Polynomial(a)).isclose(want, rtol=1e-12, atol=1e-12)


@given(
    coeffs_strategy,
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_evaluation_matches_horner(a, re, im):
    z = complex(re, im)
    got = Polynomial(a)(z)
    want = horner(Polynomial(a).as_list(), z)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_evaluation_vectorized():
    p = Polynomial([1.0, 0.0, 1.0])  # 1 + s^2
    zs = np.array([0.0, 1.0, 1j, 2.0])
    np.testing.assert_allclose(p(zs), np.array([1.0, 2.0, 0.0, 5.0]), atol=1e-12)


def test_derivative():
    p = Polynomial([0.0, 0.0, 0.0, 1.0])  # s^3
    assert p.derivative() == Polynomial([0.0, 0.0, 3.0])
    assert Polynomial([7.0]).derivative().is_zero


@given(coeffs_strategy, coeffs_strategy)
@example(a=[0.0, 0.0, 0.0, 2.0, 10.0, 1e-5], b=[0.0, 0.0, 0.0, 9.0, 6.0, 0.0, 1e-5])
@settings(max_examples=50, deadline=None)
def test_product_rule(a, b):
    p, q = Polynomial(a), Polynomial(b)
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs.isclose(rhs, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# equality


def test_equality_is_exact():
    assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0])
    assert Polynomial([1.0, 2.0]) != Polynomial([1.0, 2.0 + 1e-13])
    assert Polynomial([1.0, 2.0]).isclose(Polynomial([1.0, 2.0 + 1e-13]))


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Polynomial([1.0]))


# ----------------------------------------------------------------------
# roots


def test_roots_of_known_cubic():
    p = Polynomial([6.0, 11.0, 6.0, 1.0])  # (s+1)(s+2)(s+3)
    got = sorted(p.roots().real)
    np.testing.assert_allclose(got, [-3.0, -2.0, -1.0], atol=1e-8)


def test_roots_complex_pair():
    p = Polynomial([5.0, 2.0, 1.0])  # roots -1 +- 2i
    got = sorted(p.roots(), key=lambda z: z.imag)
    np.testing.assert_allclose(got[0], -1.0 - 2.0j, atol=1e-10)
    np.testing.assert_allclose(got[1], -1.0 + 2.0j, atol=1e-10)


def test_roots_constant_and_zero():
    assert Polynomial([4.0]).roots().size == 0
    with pytest.raises(ZeroPolynomialError):
        Polynomial([0.0]).roots()


@given(
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        ),
        min_size=0,
        max_size=2,
    ),
)
@settings(max_examples=60, deadline=None)
def test_root_recovery(real_roots, complex_pairs):
    roots = [complex(r, 0.0) for r in real_roots]
    for re, im in complex_pairs:
        roots += [complex(re, im), complex(re, -im)]
    want = expand_factors(roots)
    p = Polynomial([c.real for c in want])
    got = p.roots()
    assert got.size == len(roots)
    # every true root is approximated by some computed root; repeated roots
    # are ill-conditioned (multiplicity q costs eps**(1/q)), hence the slack
    for r in roots:
        assert np.min(np.abs(got - r)) <= 1e-3 * (1.0 + abs(r))


@given(coeffs_strategy)
@settings(max_examples=60, deadline=None)
def test_roots_have_small_residual(a):
    p = Polynomial(a)
    if p.is_zero or p.degree == 0:
        return
    for r in p.roots():
        scale = sum(abs(c) * max(1.0, abs(r)) ** i for i, c in enumerate(p.as_list()))
        assert abs(p(r)) <= 1e-7 * (scale + 1.0)


nonzero_coeff = st.floats(min_value=1e-3, max_value=1e3).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_batch_rows_equal_single_solves(data):
    d = data.draw(st.integers(min_value=1, max_value=12))
    batch = data.draw(st.integers(min_value=1, max_value=6))
    coeff_row = st.lists(nonzero_coeff, min_size=d + 1, max_size=d + 1)
    rows = np.array([data.draw(coeff_row) for _ in range(batch)])
    zeros = [data.draw(st.integers(min_value=0, max_value=d)) for _ in range(batch)]
    for row, z in zip(rows, zeros):
        row[:z] = 0.0
    got = batch_roots(rows)
    assert got.shape == (batch, d)
    for row, z, roots in zip(rows, zeros, got):
        assert np.array_equal(roots, Polynomial(row).roots())
        # z exactly-zero low coefficients give exactly z roots at 0
        assert np.count_nonzero(roots == 0.0) == z


# ----------------------------------------------------------------------
# construction from roots, pickling


def test_from_roots_round_trip():
    p = from_roots([-1.0, -2.0, complex(-1, 1), complex(-1, -1)], leading=2.0)
    got = sorted(p.roots(), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = sorted(
        [-2.0 + 0j, -1.0 + 0j, complex(-1, -1), complex(-1, 1)],
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    np.testing.assert_allclose(got, want, atol=1e-8)
    assert p.leading == pytest.approx(2.0)


def test_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        from_roots([1j])


def test_pickle_round_trip():
    p = Polynomial([1.0, 1e-20])  # exercises the truncated flag
    q = pickle.loads(pickle.dumps(p))
    assert q == p
    assert q.truncated == p.truncated
    with pytest.raises(AttributeError):
        q.coeffs = None
