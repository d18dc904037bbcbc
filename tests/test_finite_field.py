from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import DegreeZero, FieldTooLarge, NotCoprime, NotPrime
from scheme_forge.finite_field import (_BLOCK, _build_field_cached,
                                       _build_from_modulus, _poly_pow_mod,
                                       _x_is_primitive, build_field, is_prime,
                                       multiplicative_order, prime_factors)
from scheme_forge.gauss_sums import gauss_sums_all
from scheme_forge.scheme_core import IndexPartition, verify_scheme

from conftest import traced_peak
from oracles import MultChar


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
    assert f243.trace_table[0] == 0
    assert f243.trace_table[1] == 5 % 3 == 2


def test_trace_fibers_uniform(f37_cubed):
    counts = np.bincount(f37_cubed.trace_table, minlength=37)
    assert (counts == 37 ** 2).all()


def test_trace_additive(f1331):
    rng = np.random.default_rng(7)
    tr = f1331.trace_table
    for _ in range(200):
        x, y = rng.integers(0, f1331.q, size=2)
        s = int(f1331.sub_vec(int(x), f1331.sub_vec(0, np.array([y])))[0])
        assert tr[s] == (tr[x] + tr[y]) % 11


def test_discrete_log(f243):
    gamma = int(f243.antilog_table[1])
    assert f243.log_table[gamma] == 1
    assert f243.log_table[1] == 0
    assert f243.log_table[0] == -1


def test_frobenius_permutes_and_fixes_prime_subfield(f243):
    # x -> x^p on codes, through the log tables: gamma^e -> gamma^(p e)
    q1 = f243.q - 1
    images = np.zeros(f243.q, dtype=np.int64)
    images[1:] = f243.antilog_table[f243.p * f243.log_table[1:] % q1]
    assert len(np.unique(images)) == f243.q
    fixed = set(np.nonzero(images == np.arange(f243.q))[0].tolist())
    assert fixed == set(range(3))  # prime-subfield codes are 0..p-1


def test_norm_lands_in_prime_field(f9):
    # N(gamma)^k = gamma^(k L) lies in F_p, so its code is N(gamma)^k mod p
    L = f9.norm_period
    norms = f9.antilog_table[np.arange(f9.p - 1) * L]
    assert norms.tolist() == f9.norm_powers.tolist()


def test_reproducible_build():
    a = build_field(11, 3)
    b = build_field(11, 3)
    assert a.modulus == b.modulus
    assert np.array_equal(a.antilog_table, b.antilog_table)
    assert np.array_equal(a.trace_table, b.trace_table)


def _field_mod(p, f, modulus):
    """F_{p^f} modulo a given primitive polynomial (monic, constant first)."""
    mlow = list(modulus[:-1])
    assert modulus[-1] == 1 and len(mlow) == f
    assert _x_is_primitive(mlow, f, p, p ** f, prime_factors(p ** f - 1))
    return _build_from_modulus(p, f, mlow)


def test_seeded_build_differs():
    a = build_field(3, 5)
    b = _field_mod(3, 5, (1, 0, 0, 2, 1, 1))
    assert a.modulus != b.modulus and a != b
    assert len(np.unique(b.antilog_table)) == 242


def test_multiplicative_order():
    assert multiplicative_order(11, 14) == 3
    assert multiplicative_order(3, 22) == 5
    assert multiplicative_order(1, 97) == 1
    with pytest.raises(NotCoprime):
        multiplicative_order(6, 14)


def test_json_roundtrip(f1331):
    # the modulus a document names rebuilds the field it was written from
    doc = f1331.to_json()
    back = _field_mod(doc["p"], doc["f"], doc["modulus_coeffs"])
    assert back == f1331 and back.to_json() == doc
    assert list(back.gamma_poly) == doc["gamma_coeffs"]
    assert np.array_equal(back.antilog_table, f1331.antilog_table)
    assert np.array_equal(back.log_table, f1331.log_table)


def test_rebuilt_field_compares_and_hashes_equal(f243):
    # the uncached scan rebuilds the field, bypassing build_field's cache
    back = _build_field_cached.__wrapped__(3, 5)
    assert back is not f243
    assert back == f243 and hash(back) == hash(f243)
    assert MultChar(back, 2) == MultChar(f243, 2)
    assert hash(MultChar(back, 2)) == hash(MultChar(f243, 2))
    assert back != _field_mod(3, 5, (1, 0, 0, 2, 1, 1))
    with pytest.raises(FrozenInstanceError):
        back.p = 5


@pytest.mark.parametrize("modulus", [[1, 0, 1], [2, 0, 1], [0, 1, 1]])
def test_x_is_primitive_rejects_a_non_primitive_modulus(modulus):
    # x^2 + 1 is irreducible over F_3, but x has order 4 modulo it; the
    # other two are reducible
    assert not _x_is_primitive(modulus[:-1], 2, 3, 9, prime_factors(8))


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


def _mul_mod(a, b, modulus, p):
    """a * b reduced by the monic modulus; coefficient lists of length f."""
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(2 * f - 2, f - 1, -1):  # x^top = -x^(top-f) * (modulus - x^f)
        c = prod[top]
        for i in range(f):
            prod[top - f + i] -= c * modulus[i]
    return [c % p for c in prod[:f]]


def _pow_mod(a, e, modulus, p):
    result = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul_mod(result, a, modulus, p)
        a = _mul_mod(a, a, modulus, p)
        e >>= 1
    return result


def _frobenius_trace(y, modulus, p):
    """tr(y) = sum_j y^(p^j), summed as polynomials modulo the modulus."""
    f = len(modulus) - 1
    total = [0] * f
    for _ in range(f):
        total = [(a + b) % p for a, b in zip(total, y)]
        y = _pow_mod(y, p, modulus, p)
    assert not any(total[1:])  # the trace lies in the prime field
    return total[0]


@pytest.mark.parametrize("p,f", [(2, 1), (13, 1), (2, 4), (3, 5), (11, 3)])
def test_trace_sequence_matches_frobenius_sum(p, f):
    # s_e = tr(gamma^e), with no element table and no recurrence
    field = build_field(p, f)
    modulus = field.modulus
    want, y = [], [1] + [0] * (f - 1)
    for _ in range(field.q - 1):
        want.append(_frobenius_trace(y, modulus, p))
        y = _mul_mod(y, list(field.gamma_poly), modulus, p)
    assert y == [1] + [0] * (f - 1)  # gamma^(q-1) = 1
    assert field.trace_sequence.tolist() == want


# F_{2^15}: L = _BLOCK - 1, the head's one sub-block; F_{2^16}:
# L = 2 _BLOCK - 1, one full sub-block and one summed from the head
@pytest.mark.parametrize("p,f", [(2, 6), (13, 1), (257, 2), (5, 9), (2, 15),
                                 (2, 16)])
def test_norm_stream_spans_the_trace_sequence(p, f):
    # gamma^L = N(gamma) = (-1)^f c_0 lies in F_p, so s_{e+L} = N(gamma) s_e
    field = build_field(p, f)
    q, L, modulus = field.q, field.norm_period, field.modulus
    gamma = list(field.gamma_poly)
    norm = _pow_mod(gamma, L, modulus, p)
    assert norm == [(-1) ** f * modulus[0] % p] + [0] * (f - 1)
    # the stream's sub-blocks start at the multiples of _BLOCK, in order,
    # and concatenate to the period
    pieces = [(start, chunk.copy()) for start, chunk in field.norm_stream()]
    block, seq = np.concatenate([c for _, c in pieces]), field.trace_sequence
    assert block.dtype == seq.dtype == np.min_scalar_type(p - 1)
    assert len(block) == L and len(seq) == q - 1
    assert np.array_equal(seq[:L], block)
    s = seq.astype(np.int64)
    assert np.array_equal(s[L:], s[:-L] * norm[0] % p)
    assert field.norm_powers.tolist() == [pow(norm[0], k, p)
                                          for k in range(p - 1)]
    assert [start for start, _ in pieces] == list(range(0, L, _BLOCK))
    assert all(c.dtype == block.dtype and len(c) <= _BLOCK for _, c in pieces)
    # the Frobenius sum at the first terms, both sides of every norm
    # period boundary, of every step of the head's doubling and of its end,
    # and around every sub-block start (F_{5^9}: 15 in a period), each
    # summed from the head; and a stride through the sequence
    exps = set(range(min(q - 1, 40))) | set(range(0, q - 1, -(-q // 150)))
    for k in range(1, p - 1):
        exps |= {k * L - 1, k * L}
    head, n = min(L, _BLOCK) + f - 1, f
    while n < head:
        exps |= {n - 1, n}
        n = 2 * n - f + 1
    exps |= {head - 1, head}
    for a in range(_BLOCK, L, _BLOCK):
        exps |= {a - 1, a, a + 1}
    for e in sorted(e for e in exps | {q - 2} if e < q - 1):
        y = _pow_mod(gamma, e, modulus, p)
        assert seq[e] == _frobenius_trace(y, modulus, p), e


def test_norm_stream_walk_holds_sub_blocks_only():
    # L = 4,194,303 uint8 terms in 128 sub-blocks: the walk holds the head,
    # the output buffer and the two buffers the sums run through (4.4
    # _BLOCK traced), no take-length temporary and no copy of the period
    field = build_field(2, 22)

    def walk():
        return [(start, len(chunk)) for start, chunk in field.norm_stream()]

    pieces, peak = traced_peak(walk)
    assert sum(b for _, b in pieces) == field.norm_period >= 4_000_000
    assert peak < 6 * _BLOCK, peak


def test_period_paths_build_no_element_tables(f243):
    # the uncached scan rebuilds the field, bypassing build_field's cache;
    # periods, verdict and Gauss sums walk the norm stream: they build neither
    # the q-length sequence nor any element table
    field = _build_field_cached.__wrapped__(3, 5)
    sys11 = build_cyclotomy(field, 11)
    report = verify_scheme(sys11, IndexPartition.from_sets(
        11, [[i] for i in range(11)]))
    assert report.is_scheme
    gauss_sums_all(field)
    for name in ("trace_sequence", "antilog_table", "log_table",
                 "trace_table"):
        assert name not in vars(field)


@pytest.mark.parametrize("p,f,moduli", [
    (5, 4, [(2, 0, 2, 4, 1), (2, 0, 3, 2, 1)]),
    (11, 3, [(3, 0, 3, 1), (3, 0, 6, 1)]),
    (2, 6, [(1, 0, 1, 1, 0, 1, 1), (1, 1, 0, 0, 0, 0, 1)]),
    (3, 5, [(1, 0, 0, 2, 1, 1), (1, 0, 1, 0, 1, 1)]),
])
def test_seeded_moduli_are_pinned(p, f, moduli):
    # the second and third primitive moduli in build_field's scan order:
    # skipping candidates with a root in F_p must not move its pick past them
    least = build_field(p, f).modulus
    for modulus in moduli:
        field = _field_mod(p, f, modulus)
        assert field.modulus == modulus
        assert least[:-1] < modulus[:-1]


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


def _times_x(field, codes):
    """Codes of x * c reduced by the modulus, from the base-p digits of c.

    Independent of the trace sequence the antilog table is built from.  For
    f = 1, x is congruent to gamma = -c_0 modulo x + c_0.
    """
    p, f = field.p, field.f
    mlow = field.modulus[:-1]
    codes = codes.astype(np.int64)
    top = codes // p ** (f - 1)
    out = np.zeros_like(codes)
    for i in range(f):
        shifted = codes // p ** (i - 1) % p if i else 0
        out += (shifted - top * mlow[i]) % p * p ** i
    return out


def _digit_sum_trace_table(field):
    """tr(code) = sum_i digit_i * tr(x^i) mod p, the trace being F_p-linear."""
    tr = np.zeros(field.q, dtype=np.int64)
    tmp = np.arange(field.q, dtype=np.int64)
    for i in range(field.f):
        tr += (tmp % field.p) * field.basis_trace[i]
        tmp //= field.p
    return tr % field.p


ELEMENT_TABLE_FIELDS = [(3, 5), (11, 3), (37, 3), (7, 1), (2, 8), (5, 6),
                        (2, 1), (13, 1), (5, 9), (11, 6), (2, 20)]


@pytest.mark.parametrize("p,f", ELEMENT_TABLE_FIELDS)
def test_antilog_table_steps_by_x(p, f):
    # antilog[0] = 1 and antilog[e + 1] = x * antilog[e] (cyclically) fix
    # every entry
    field = build_field(p, f)
    antilog = field.antilog_table
    assert antilog.dtype == np.int32 and antilog[0] == 1
    assert np.array_equal(_times_x(field, antilog), np.roll(antilog, -1))
    assert field.log_table[0] == -1
    assert np.array_equal(field.log_table[antilog], np.arange(field.q - 1))


@pytest.mark.parametrize("p,f", ELEMENT_TABLE_FIELDS)
def test_trace_table_matches_digit_sum(p, f):
    field = build_field(p, f)
    assert field.trace_table.dtype == np.int32
    assert np.array_equal(field.trace_table, _digit_sum_trace_table(field))
