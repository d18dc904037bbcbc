import numpy as np
import pytest

from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import (DegreeZero, FieldTooLarge, InvalidElement,
                                 NotCoprime, NotPrime, ZeroElement)
from scheme_forge.finite_field import (FieldSpec, _poly_pow_mod, build_field,
                                       is_prime, multiplicative_order,
                                       prime_factors)
from scheme_forge.gauss_sums import gauss_sums_all
from scheme_forge.scheme_core import IndexPartition, verify_scheme


@pytest.mark.parametrize("p,f,q", [(37, 3, 50653), (3, 5, 243), (11, 3, 1331)])
def test_build_sizes(p, f, q):
    field = build_field(p, f)
    assert field.q == q
    assert len(field.antilog_table) == q - 1
    assert len(np.unique(field.antilog_table)) == q - 1


def test_build_errors():
    with pytest.raises(NotPrime):
        build_field(15, 2)
    with pytest.raises(DegreeZero):
        build_field(7, 0)
    with pytest.raises(FieldTooLarge):
        build_field(3, 5, cap=100)


def test_trace_basics(f243):
    assert f243.trace(0) == 0
    assert f243.trace(1) == 5 % 3 == 2
    with pytest.raises(InvalidElement):
        f243.trace(f243.q)


def test_trace_fibers_uniform(f37_cubed):
    counts = np.bincount(f37_cubed.trace_table, minlength=37)
    assert (counts == 37 ** 2).all()


def test_trace_additive(f1331):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.integers(0, f1331.q, size=2)
        s = f1331.add(int(x), int(y))
        assert f1331.trace(s) == (f1331.trace(int(x)) + f1331.trace(int(y))) % 11


def test_discrete_log(f243):
    gamma = int(f243.antilog_table[1])
    assert f243.discrete_log(gamma) == 1
    assert f243.discrete_log(1) == 0
    with pytest.raises(ZeroElement):
        f243.discrete_log(0)
    q1 = f243.q - 1
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.integers(0, q1, size=2)
        x = int(f243.antilog_table[a])
        y = int(f243.antilog_table[b])
        assert f243.discrete_log(f243.mul(x, y)) == (a + b) % q1


def test_frobenius_permutes_and_fixes_prime_subfield(f243):
    images = np.array([f243.frobenius(x) for x in range(f243.q)])
    assert len(np.unique(images)) == f243.q
    fixed = {x for x in range(f243.q) if f243.frobenius(x) == x}
    assert fixed == set(range(3))  # prime-subfield codes are 0..p-1


def test_norm_lands_in_prime_field(f9):
    for x in range(f9.q):
        n = f9.norm(x)
        assert 0 <= n < 3
    # norm is multiplicative on a few samples
    assert f9.norm(f9.mul(5, 7)) == (f9.norm(5) * f9.norm(7)) % 3


def test_reproducible_build():
    a = build_field(11, 3)
    b = build_field(11, 3)
    assert a.modulus == b.modulus
    assert np.array_equal(a.antilog_table, b.antilog_table)
    assert np.array_equal(a.trace_table, b.trace_table)


def test_seeded_build_differs():
    a = build_field(3, 2)
    b = build_field(3, 2, seed=1)
    assert a.modulus != b.modulus
    assert len(np.unique(b.antilog_table)) == 8


def test_multiplicative_order():
    assert multiplicative_order(11, 14) == 3
    assert multiplicative_order(3, 22) == 5
    assert multiplicative_order(1, 97) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(6, 14)


def test_json_roundtrip(f1331):
    doc = f1331.to_json()
    back = FieldSpec.from_json(doc)
    assert back.modulus == f1331.modulus
    assert np.array_equal(back.antilog_table, f1331.antilog_table)
    assert np.array_equal(back.log_table, f1331.log_table)


def test_helpers():
    assert is_prime(2) and is_prime(499) and not is_prime(1) and not is_prime(91)
    assert prime_factors(242) == [2, 11]
    assert prime_factors(50652) == [2, 3, 7, 67]


def test_shared_tables_are_read_only():
    field = build_field(3, 2)
    assert build_field(3, 2) is field
    for table in (field.antilog_table, field.log_table, field.trace_table,
                  field.trace_sequence):
        with pytest.raises(ValueError):
            table[0] = table[0]


@pytest.mark.parametrize("p,f,modulus", [
    (5, 9, (2, 0, 0, 0, 0, 0, 0, 2, 4, 1)),
    (11, 6, (2, 0, 0, 0, 7, 3, 1)),
    (37, 3, (2, 0, 3, 1)),
    (2, 4, (1, 0, 0, 1, 1)),
    (3, 5, (1, 0, 0, 0, 2, 1)),
    (13, 1, (2, 1)),
    (19997, 1, (2, 1)),
])
def test_chosen_modulus_is_pinned(p, f, modulus):
    # discrete logs, class indices and every output document depend on it
    assert build_field(p, f).modulus == modulus


@pytest.mark.parametrize("p,f", [(2, 1), (13, 1), (2, 4), (3, 5), (11, 3), (37, 3)])
def test_trace_sequence_matches_tables(p, f):
    field = build_field(p, f)
    seq = field.trace_sequence
    assert seq.shape == (field.q - 1,)
    assert np.array_equal(seq, field.trace_table[field.antilog_table])


def test_period_paths_build_no_element_tables(f243):
    # from_json rebuilds the field, bypassing build_field's cache
    field = FieldSpec.from_json(f243.to_json())
    sys11 = build_cyclotomy(field, 11)
    report = verify_scheme(sys11, IndexPartition.from_sets(
        11, [[i] for i in range(11)]))
    assert report.is_scheme
    gauss_sums_all(field)
    assert "trace_sequence" in vars(field)
    for name in ("antilog_table", "log_table", "trace_table"):
        assert name not in vars(field)


@pytest.mark.parametrize("p,f,moduli", [
    (5, 4, [(2, 0, 2, 4, 1), (2, 0, 3, 2, 1)]),
    (11, 3, [(3, 0, 3, 1), (3, 0, 6, 1)]),
    (2, 6, [(1, 0, 1, 1, 0, 1, 1), (1, 1, 0, 0, 0, 0, 1)]),
    (3, 5, [(1, 0, 0, 2, 1, 1), (1, 0, 1, 0, 1, 1)]),
])
def test_seeded_moduli_are_pinned(p, f, moduli):
    # the seed-th modulus counts only primitive candidates, so skipping
    # candidates with a root in F_p must not shift it
    assert [build_field(p, f, seed=s).modulus for s in (1, 2)] == moduli


def _frobenius_basis_trace(field):
    """tr(x^i) = sum_j (x^i)^(p^j), summed as polynomials mod the modulus.

    An oracle independent of the Newton identities that the field build uses.
    """
    p, f = field.p, field.f
    mlow = list(field.modulus[:-1])
    x = list(field.gamma_poly)
    basis_tr = []
    for i in range(f):
        xi = _poly_pow_mod(x, i, mlow, f, p) if i else [1] + [0] * (f - 1)
        acc = [0] * f
        for j in range(f):
            frob = _poly_pow_mod(xi, p ** j, mlow, f, p)
            acc = [(a + b) % p for a, b in zip(acc, frob)]
        assert not any(acc[1:])  # the trace lies in the prime field
        basis_tr.append(acc[0])
    return tuple(basis_tr)


@pytest.mark.parametrize("p,f", [(5, 9), (11, 6), (37, 3), (2, 4), (3, 5),
                                 (13, 1), (19997, 1), (2, 1), (2, 20)])
def test_basis_trace_matches_frobenius_sum(p, f):
    field = build_field(p, f)
    assert field.basis_trace == _frobenius_basis_trace(field)
