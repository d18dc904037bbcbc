import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_forge.cycint import CycInt, quadratic_gauss_cycint
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import ConductorMismatch, NotPrime


def test_phi3_reduction():
    xi = CycInt.root(3)
    assert (xi * xi).coeffs == (-1, -1)


def test_mul_by_zero():
    a = CycInt.integer(5, 1) + CycInt.root(5)
    assert (a * CycInt.integer(5, 0)).is_zero


def test_vanishing_sum_n7():
    total = CycInt.integer(7, 1)  # xi^0
    for i in range(1, 7):
        total = total + CycInt.root(7, i)
    assert total.is_zero


def test_conductor_checks():
    with pytest.raises(NotPrime):
        CycInt.root(4)
    with pytest.raises(ConductorMismatch):
        CycInt.root(5) + CycInt.root(7)


def test_embed_values():
    z = CycInt.root(3).embed()
    assert abs(z - complex(-0.5, 0.8660254037844386)) < 1e-12
    assert CycInt.integer(7, 0).embed() == 0


def test_embed_quadratic_periods_f37(f37):
    # eta_0 - eta_1 over F_37 at index 2 is +-sqrt(37): the oracle sums the
    # Legendre-weighted character values directly
    sys2 = build_cyclotomy(f37, 2)
    diff = (sys2.periods[0] - sys2.periods[1]).embed()
    oracle = sum(
        (1 if pow(x, 18, 37) == 1 else -1) * cmath.exp(2j * cmath.pi * x / 37)
        for x in range(1, 37))
    assert abs(diff - oracle) < 1e-9
    assert abs(abs(diff) - 37 ** 0.5) < 1e-9
    assert abs(diff.imag) < 1e-9


def test_quadratic_gauss_cycint():
    g = quadratic_gauss_cycint(37)
    assert (g * g) == CycInt.integer(37, 37)
    assert abs(g.embed() - 37 ** 0.5) < 1e-9
    g3 = quadratic_gauss_cycint(3)
    assert (g3 * g3) == CycInt.integer(3, -3)


small_coeffs = st.lists(st.integers(-50, 50), min_size=6, max_size=6)


@settings(max_examples=150, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(a, b, c):
    x = CycInt.from_raw(7, a + [0])
    y = CycInt.from_raw(7, b + [0])
    z = CycInt.from_raw(7, c + [0])
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x
    assert x - x == CycInt.integer(7, 0)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_embed_multiplicative(a, b):
    x = CycInt.from_raw(7, a + [0])
    y = CycInt.from_raw(7, b + [0])
    lhs = (x * y).embed()
    rhs = x.embed() * y.embed()
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_zero_iff_embed_small():
    # on moderate coefficients, the embedding separates zero from nonzero
    nonzero = CycInt.from_raw(11, (10 ** 6, 1) + (0,) * 9)
    assert abs(nonzero.embed()) > 1e-6
    zero = CycInt.from_raw(11, (5,) * 11)  # constant vector reduces to 0
    assert zero.is_zero and abs(zero.embed()) < 1e-6


def test_integer_embedding_and_json():
    doc = CycInt.integer(11, 42).to_json()
    assert doc == {"n": 11, "coeffs": [42] + [0] * 9}


def test_scalar_ops():
    xi = CycInt.root(5)
    assert 3 * xi == xi * 3 == xi + xi + xi
    assert (1 + xi) - 1 == xi
