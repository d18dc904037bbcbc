"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS line with its elapsed time (visible with
``pytest -v -s`` or in the captured output); the asserted budgets are the
stated ones, generous on purpose.
"""

import math
import time

import numpy as np
import pytest

from scheme_forge.constructions import (five_class_3mod8, four_class_7mod8,
                                        song_example)
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.finite_field import build_field
from scheme_forge.gauss_sums import (class_number, gauss_sum_quadratic,
                                     index2_comparison)
from scheme_forge.scheme_core import IndexPartition, dual_partition, is_scheme
from scheme_forge.search import exhaustive_nonexistence

from conftest import partition_to_relations
from oracles import (MultChar, brute_force_verify, davenport_hasse_check,
                     gauss_sum_direct, ts_identity_check)
from test_gauss_sums import DH_SAMPLES, prime_powers


def _report(label, elapsed, budget):
    print(f"\n{label}: PASS  ({elapsed:.1f} s, budget {budget:.0f} s)")


@pytest.fixture(scope="module")
def song():
    t0 = time.perf_counter()
    rep = song_example()
    rep.elapsed = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def five_3_11():
    return five_class_3mod8(3, 11)


@pytest.fixture(scope="module")
def five_5_19():
    t0 = time.perf_counter()
    built = five_class_3mod8(5, 19)
    built.elapsed = time.perf_counter() - t0
    return built


@pytest.fixture(scope="module")
def four_built():
    return {(p, p1): four_class_7mod8(p, p1) for (p, p1) in [(11, 7), (23, 7)]}


def test_criterion_1_song_reproduction(song):
    r = song.built.report
    assert r.is_scheme and r.d == 4
    assert r.nonsymmetric_pair_count == 2
    assert song.matrices_match and song.class_relabeling is not None
    assert song.template_match is not None    # the Ma-Wang template, exactly
    assert song.rho_exact                      # rho = 9 + 37 eta_0, exactly
    assert song.elapsed < 60
    _report("criterion 1 (F_37^3 fission reproduction)", song.elapsed, 60)


def test_criterion_2_song_dual(song):
    assert song.dual_affine_map is not None
    u, v = song.dual_affine_map
    assert math.gcd(u, 28) == 1
    _report("criterion 2 (dual index sets up to affine map)", song.elapsed, 60)


def test_criterion_3_four_class(four_built):
    for (p, p1), built in four_built.items():
        t0 = time.perf_counter()
        rep = built.report
        assert rep.is_scheme and rep.d == 4
        assert rep.is_self_dual
        assert rep.nonsymmetric_pair_count == 1
        assert rep.is_primitive
        assert p1 > 2 * built.params.h + 1 and built.params.c != 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10
    _report("criterion 3 (four-class fissions (11,7), (23,7))", elapsed, 10)


def test_criterion_4_five_class(five_3_11, five_5_19):
    t0 = time.perf_counter()
    rep = five_3_11.report
    assert five_3_11.field.q == 243
    assert rep.is_scheme and rep.d == 5 and rep.is_primitive
    assert rep.nonsymmetric_pair_count == 2
    c = five_3_11.system.minus_one_class()
    S = five_3_11.partition.parts
    assert {(i + c) % 22 for i in S[2]} == set(S[1])
    assert {(i + c) % 22 for i in S[4]} == set(S[3])
    small_elapsed = time.perf_counter() - t0

    rep19 = five_5_19.report
    assert five_5_19.field.q == 5 ** 9
    assert rep19.is_scheme and rep19.d == 5 and rep19.is_primitive
    assert rep19.nonsymmetric_pair_count == 0 and all(rep19.is_symmetric_rel)
    assert five_5_19.elapsed < 300
    _report("criterion 4 (five-class fissions (3,11), (5,19))",
            small_elapsed + five_5_19.elapsed, 300)


def test_criterion_5_gauss_sum_suite():
    t0 = time.perf_counter()
    for (p, p1) in [(3, 11), (11, 7)]:
        rep = index2_comparison(p, p1)
        assert rep["max_abs_err"] < 1e-5 * math.sqrt(rep["q_s"]), (p, p1)
    for (p, f, q) in prime_powers(20_000, p_min=3):
        field = build_field(p, f)
        err = abs(gauss_sum_direct(MultChar(field, (q - 1) // 2))
                  - gauss_sum_quadratic(p, f))
        assert err < 1e-6 * math.sqrt(q), (p, f)
    assert len(DH_SAMPLES) >= 10
    for (p, f, s, k) in DH_SAMPLES:
        assert p ** (f * s) <= 2_000_000
        field = build_field(p, f)
        d, fm = davenport_hasse_check(MultChar(field, k), s)
        assert abs(d - fm) < 1e-5 * math.sqrt(float(p) ** (f * s)), (p, f, s, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report("criterion 5 (Gauss sum formula suite)", elapsed, 120)


def test_criterion_6_class_numbers():
    t0 = time.perf_counter()
    values = {p1: class_number(p1) for p1 in (11, 19, 67, 107, 163, 499)}
    assert values == {11: 1, 19: 1, 67: 1, 107: 3, 163: 1, 499: 3}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _report("criterion 6 (class numbers)", elapsed, 1)


def test_criterion_7_nonexistence():
    for p in (3, 7, 11, 19, 23, 31):
        assert ts_identity_check(p), p

    t0 = time.perf_counter()
    r3 = exhaustive_nonexistence(3)
    t3 = time.perf_counter() - t0
    assert r3.schemes_found == [] and r3.candidates_checked == 2667
    assert t3 < 30  # stated budget is 1 s of search; the bound leaves room for a loaded host

    t0 = time.perf_counter()
    r7 = exhaustive_nonexistence(7)
    t7 = time.perf_counter() - t0
    assert r7.schemes_found == []
    assert r7.candidates_checked == 178_940_587
    assert t7 < 1800

    sanity = exhaustive_nonexistence(3, allow_symmetric=True)
    assert len(sanity.schemes_found) >= 1
    field = build_field(3, 2)
    sys8 = build_cyclotomy(field, 8)
    for part in sanity.schemes_found:
        assert brute_force_verify(field,
                                  partition_to_relations(field, sys8, part))
    _report("criterion 7 (nonexistence scan p=3, p=7 + identities)", t3 + t7, 1800)


def _scheme_identities(sys_n, partition, report):
    q = sys_n.field.q
    d = report.d
    assert np.abs(np.asarray(report.P_complex) @ np.asarray(report.Q_complex)
                  - q * np.eye(d + 1)).max() < 1e-6
    B = report.intersection_matrices
    assert np.array_equal(B[0], np.eye(d + 1, dtype=np.int64))
    for i, Bi in enumerate(B):
        want = 1 if i == 0 else report.valencies[i - 1]
        assert (Bi.sum(axis=1) == want).all()
        assert (Bi >= 0).all()
    for k in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                assert B[i][k, j] == B[j][k, i]
    dual = dual_partition(sys_n, partition)
    assert set(dual_partition(sys_n, dual).part_sets()) == \
        set(partition.part_sets())


def test_criterion_8_property_suites(song, four_built, five_3_11, five_5_19):
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    checked = 0
    for (p, f, N) in [(3, 4, 16), (11, 2, 12), (3, 5, 22)]:
        field = build_field(p, f)
        sys_n = build_cyclotomy(field, N)
        for _ in range(67):
            d = int(rng.integers(2, 6))
            while True:
                labels = rng.integers(0, d, size=N)
                if len(np.unique(labels)) == d:
                    break
            part = IndexPartition.from_sets(
                N, [np.nonzero(labels == k)[0].tolist() for k in range(d)])
            assert is_scheme(sys_n, part) == brute_force_verify(
                field, partition_to_relations(field, sys_n, part))
            checked += 1
    assert checked >= 200

    for built in [song.built, *four_built.values(), five_3_11, five_5_19]:
        _scheme_identities(built.system, built.partition, built.report)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report("criterion 8 (oracle equivalence + structure identities)",
            elapsed, 300)
