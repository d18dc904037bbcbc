import itertools
import math
import time

import numpy as np
import pytest

from scheme_forge.errors import (BadDiscriminant, EvenCharacteristic,
                                 FieldTooLarge, NoSolution,
                                 PreconditionViolated)
from scheme_forge.finite_field import (_build_field_cached, build_field, is_prime,
                                       multiplicative_order)
from scheme_forge.gauss_sums import (_psi_values, class_number,
                                     gauss_sum_index2, gauss_sum_quadratic,
                                     gauss_sums_all, index2_comparison,
                                     make_index2_params, solve_bc)

import oracles
from conftest import traced_peak
from oracles import MultChar, davenport_hasse_check, gauss_sum_direct


def prime_powers(limit, p_min=2):
    out = []
    for p in range(p_min, limit + 1):
        if not is_prime(p):
            continue
        q = p
        f = 1
        while q <= limit:
            out.append((p, f, q))
            q *= p
            f += 1
    return out


def test_direct_trivial(f243):
    assert abs(gauss_sum_direct(MultChar(f243, 0)) - (-1)) < 1e-9


def test_properties_all_characters_small_fields():
    # modulus, Frobenius stability, inverse relation: all chi, all q <= 2000
    for (p, f, q) in prime_powers(2000, p_min=2):
        field = build_field(p, f)
        G = gauss_sums_all(field)  # G(chi_k) = G[-k]
        q1 = q - 1
        tol = 1e-6 * math.sqrt(q)
        assert abs(G[0] - (-1)) < tol
        if q1 >= 2:
            mods = np.abs(G[1:]) ** 2
            assert np.abs(mods - q).max() < tol * math.sqrt(q)  # (i)
        idxerr = max(abs(G[-(k * p) % q1] - G[-k]) for k in range(q1))
        assert idxerr < tol  # (ii)
        if q1 >= 3:
            ks = np.arange(1, q1)
            chi_minus1 = np.where((ks * ((q - 1) // 2)) % q1 == 0, 1.0, -1.0) \
                if q % 2 == 1 else np.ones(q1 - 1)
            inv = np.array([G[k] for k in ks])
            assert np.abs(inv - chi_minus1 * np.conj(G[-ks])).max() < tol  # (iii)


def test_quadratic_examples():
    assert abs(gauss_sum_quadratic(3, 1) - 1.7320508075688772j) < 1e-12
    assert abs(gauss_sum_quadratic(3, 2) - 3) < 1e-12
    assert abs(gauss_sum_quadratic(37, 1) - math.sqrt(37)) < 1e-12
    with pytest.raises(EvenCharacteristic):
        gauss_sum_quadratic(2, 3)


def test_quadratic_vs_direct_sweep():
    for (p, f, q) in prime_powers(20_000, p_min=3):
        field = build_field(p, f)
        chi = MultChar(field, (q - 1) // 2)
        err = abs(gauss_sum_direct(chi) - gauss_sum_quadratic(p, f))
        assert err < 1e-6 * math.sqrt(q), (p, f, err)


def class_number_oracle(p1):
    # Dirichlet: h(-p) = (#QR - #NQR in (0, p/2)) / (2 - (2|p)) for p = 3 mod 4
    qr = sum(1 for t in range(1, (p1 + 1) // 2) if pow(t, (p1 - 1) // 2, p1) == 1)
    nqr = (p1 - 1) // 2 - qr
    two_sym = 1 if p1 % 8 in (1, 7) else -1
    return (qr - nqr) // (2 - two_sym)


def test_class_number_fixed_values():
    assert [class_number(x) for x in (11, 19, 67, 107, 163, 499)] == \
        [1, 1, 1, 3, 1, 3]


def test_class_number_against_dirichlet_oracle():
    for p1 in range(7, 600):
        if is_prime(p1) and p1 % 4 == 3:
            assert class_number(p1) == class_number_oracle(p1), p1


def test_class_number_domain():
    with pytest.raises(BadDiscriminant):
        class_number(13)  # 1 mod 4
    with pytest.raises(BadDiscriminant):
        class_number(3)
    with pytest.raises(BadDiscriminant):
        class_number(15)
    # a prime = 1 (mod 4) too large to trial-divide: refused by its residue
    t0 = time.perf_counter()
    with pytest.raises(BadDiscriminant):
        class_number(100000000000000013)
    assert time.perf_counter() - t0 < 2


def test_solve_bc():
    assert solve_bc(3, 11, 1, 5) == (1, 1)
    assert solve_bc(11, 7, 1, 3) == (-4, 2)  # congruence -4*11 = -2 (mod 7)
    b, c = solve_bc(23, 7, 1, 3)
    assert b * b + 7 * c * c == 4 * 23 and c > 0
    assert (b * pow(23, 1, 7)) % 7 == 5
    with pytest.raises(NoSolution):
        solve_bc(3, 11, 1, 4)  # (f-h)/2 not integral
    # 17 = (3^2 + 59)/4 is a norm, so 17 (3 + sqrt(-59))/2, b = 51 and c = 17,
    # has norm 17^3 as well: the solution p divides is not the generator
    assert solve_bc(17, 59, 3, 29) == (-126, 8)


def test_index2_params_and_preconditions():
    params = make_index2_params(3, 11)
    assert (params.h, params.b, params.c, params.f) == (1, 1, 1, 5)
    with pytest.raises(PreconditionViolated):
        make_index2_params(5, 7)  # ord_14(5) = 6 = phi(14): index 1
    with pytest.raises(PreconditionViolated):
        make_index2_params(3, 11, m=2)  # order condition fails at 242


def test_index2_gate_accepts_exactly_the_index2_instances():
    # against the O(phi) order loop, for every odd prime p < 60, prime
    # p1 = 3 (mod 4) with 3 < p1 < 60 and p1 != p, and m <= 3 with
    # 2 p1^m <= 10^5; the cap admits every such field, so the index decides
    verdicts = set()
    for p, p1 in itertools.product(range(3, 60, 2), range(7, 60, 4)):
        if p == p1 or not (is_prime(p) and is_prime(p1)):
            continue
        for m in range(1, 4):
            n = 2 * p1 ** m
            if n > 10 ** 5:
                break
            try:
                make_index2_params(p, p1, m, cap=60 ** 29)
                accepted = True
            except PreconditionViolated:
                accepted = False
            index2 = multiplicative_order(p, n) == n // p1 * (p1 - 1) // 4
            assert accepted == index2, (p, p1, m)
            verdicts.add((m, accepted))
    assert len(verdicts) == 6  # each m has instances and non-instances


def test_index2_p1m_branch_value():
    # exponent p1^m at (3, 11): (-1)^(1*2) 3^2 sqrt(-3) = 9 sqrt(3) i
    params = make_index2_params(3, 11)
    got = gauss_sum_index2(params, 11)
    assert abs(got - 9j * math.sqrt(3)) < 1e-12
    # c_sign does not affect this branch
    assert gauss_sum_index2(params, 11, c_sign=-1) == got


def test_index2_modulus_property():
    params = make_index2_params(11, 7)
    for e in range(1, 14):
        v = gauss_sum_index2(params, e, s=1)
        assert abs(abs(v) ** 2 - params.q) < 1e-6
        v2 = gauss_sum_index2(params, e, s=2)
        assert abs(abs(v2) ** 2 - params.q ** 2) < 1e-3


@pytest.mark.parametrize("p,p1", [(3, 11), (11, 7)])
def test_index2_formula_vs_direct(p, p1):
    rep = index2_comparison(p, p1)
    assert rep["max_abs_err"] < 1e-5 * math.sqrt(rep["q_s"])


def test_index2_frobenius_orbit_consistency():
    # values must be constant on <p>-orbits of exponents (property (ii))
    params = make_index2_params(3, 11)
    for e in range(1, 22):
        a = gauss_sum_index2(params, e)
        b = gauss_sum_index2(params, (3 * e) % 22)
        assert abs(a - b) < 1e-12


def test_davenport_hasse_trivial(f9):
    d, fm = davenport_hasse_check(MultChar(f9, 0), 2)
    assert d == -1 and abs(fm - (-1)) < 1e-9


def test_davenport_hasse_quadratic(f9):
    d, fm = davenport_hasse_check(MultChar(f9, 4), 2)
    assert abs(d - fm) < 1e-6


def test_davenport_hasse_refuses_a_huge_lift_at_once(f9):
    # q^s is compared with the cap without being formed
    t0 = time.perf_counter()
    with pytest.raises(FieldTooLarge, match=r"q\^s = 9\^10000000 exceeds"):
        davenport_hasse_check(MultChar(f9, 4), 10_000_000)
    assert time.perf_counter() - t0 < 1


def test_davenport_hasse_order22(f243):
    d, fm = davenport_hasse_check(MultChar(f243, 11), 2)
    assert abs(d - fm) < 1e-5 * math.sqrt(243.0 ** 2)


def test_davenport_hasse_reads_no_element_table(monkeypatch):
    # the subfield root is found in F_11[x]/(m'), where the antilog and log
    # tables of F_{11^6} were 22 MB; the uncached scan rebuilds the big field,
    # so no table an earlier test built is cached on it
    big = _build_field_cached.__wrapped__(11, 6)
    monkeypatch.setattr(oracles, "build_field", lambda p, f, cap: big)
    chi = MultChar(build_field(11, 3), 95)
    (d, fm), peak = traced_peak(lambda: davenport_hasse_check(chi, 2))
    assert peak < 2 << 20, peak
    assert abs(d - fm) < 1e-5 * 11 ** 3


DH_SAMPLES = [
    (3, 5, 2, 11),    # F_243 -> F_3^10, order 22
    (11, 3, 2, 95),   # F_1331 -> F_11^6, order 14
    (37, 1, 2, 1),
    (37, 1, 3, 9),
    (7, 2, 2, 3),
    (5, 2, 3, 2),
    (13, 1, 4, 1),
    (3, 2, 5, 1),
    (23, 1, 2, 11),
    (19, 2, 2, 10),
]


@pytest.mark.parametrize("p,f,s,k", DH_SAMPLES)
def test_davenport_hasse_sampled(p, f, s, k):
    assert p ** (f * s) <= 2_000_000
    field = build_field(p, f)
    d, fm = davenport_hasse_check(MultChar(field, k), s)
    assert abs(d - fm) < 1e-5 * math.sqrt(float(p) ** (f * s))


@pytest.mark.parametrize("p,f", [(2, 1), (2, 4), (13, 1), (3, 5), (11, 3),
                                 (37, 3), (5, 9), (7, 2), (257, 2)])
def test_psi_values_bitwise_equal_elementwise_exp(p, f):
    field = build_field(p, f)
    oracle = np.exp(2j * np.pi * field.trace_sequence.astype(np.float64) / p)
    got = _psi_values(field)
    assert got.dtype == oracle.dtype and got.shape == oracle.shape
    assert np.array_equal(got.view(np.uint64), oracle.view(np.uint64))
    # read through the norm stream, the root table gives the same bytes as
    # a gather through the whole trace sequence
    roots = np.exp(2j * np.pi * np.arange(p, dtype=np.float64) / p)
    assert got.tobytes() == roots[field.trace_sequence].tobytes()


def test_psi_values_hold_no_second_copy():
    # the gather writes each sub-block of the norm stream straight into
    # its output; the bound covers generating the terms too.  The default
    # take mode, which buffers each sub-block's output, costs 0.49 MiB more
    field = build_field(11, 6)
    psi, peak = traced_peak(lambda: _psi_values(field))
    assert psi.shape == (field.q - 1,)
    assert peak < psi.nbytes + (1 << 19), peak - psi.nbytes


@pytest.mark.parametrize("p,f", [(2, 1), (13, 1), (2, 6), (3, 5), (5, 4),
                                 (11, 3), (257, 2), (1021, 2)])
def test_direct_sums_match_gauss_sums_all(p, f):
    # angles reduced mod q - 1 in integers: 5e-13 off the FFT on F_{257^2},
    # where exp of the unreduced 2 pi k a / (q - 1) was 1.4e-8 off.  The
    # p - 1 norm periods fold into W sum_a w^-a A[nu^a], plus (p - 1) A_0
    # when chi(nu) = 1: every k for p = 2, k = 0 (mod p - 1) otherwise
    field = build_field(p, f)
    G = gauss_sums_all(field)
    ks = range(0, field.q - 1, 1 + field.q // 600)
    for k in ks:
        assert abs(gauss_sum_direct(MultChar(field, k)) - G[-k]) < 1e-8, k


def test_direct_sum_holds_no_q_length_vector():
    # psi alone is 27 MB on F_{11^6}; the sum walks the norm stream
    field = build_field(11, 6)
    got, peak = traced_peak(lambda: gauss_sum_direct(MultChar(field, 12345)))
    assert peak < 1 << 20, peak
    assert abs(got - gauss_sums_all(field)[-12345]) < 1e-8


def test_gauss_sums_all_returns_the_transform_itself():
    # G(chi_k) = F[-k] is read off the FFT, which runs in place on psi; a
    # reordered copy of all q - 1 bins doubled the traced peak
    field = build_field(11, 6)
    G, peak = traced_peak(lambda: gauss_sums_all(field))
    assert G.shape == (field.q - 1,)
    assert peak < 1.25 * G.nbytes, peak / G.nbytes


def test_index2_direct_values_are_gauss_sums_all_bins():
    rep = index2_comparison(3, 11)
    G = gauss_sums_all(build_field(3, 5))
    step = (3 ** 5 - 1) // 22
    for entry in rep["per_exponent"]:
        assert entry["direct"] == complex(G[-entry["exponent"] * step])
