import numpy as np
import pytest

from scheme_forge.cycint import CycInt
from scheme_forge.cyclotomy import build_cyclotomy, character_sum
from scheme_forge.errors import IndexOutOfRange, NotADivisor, ZeroElement
from scheme_forge.finite_field import build_field

from conftest import brute_force_char_sum


def test_f9_index2_periods(f9):
    sys2 = build_cyclotomy(f9, 2)
    assert sys2.periods[0] == CycInt.integer(3, 1)
    assert sys2.periods[1] == CycInt.integer(3, -2)


def test_index1_full_sum(f243):
    sys1 = build_cyclotomy(f243, 1)
    assert sys1.periods == (CycInt.integer(3, -1),)


def test_f37_index4_vanishing(f37):
    sys4 = build_cyclotomy(f37, 4)
    total = sys4.periods[0]
    for eta in sys4.periods[1:]:
        total = total + eta
    assert total == CycInt.integer(37, -1)


def test_not_a_divisor(f9):
    with pytest.raises(NotADivisor):
        build_cyclotomy(f9, 3)


def test_trace_count_rows_sum_to_class_size(f243):
    sys11 = build_cyclotomy(f243, 11)
    assert (sys11.trace_counts.sum(axis=1) == sys11.M).all()
    # periods are exactly the reduced count vectors
    for i in range(11):
        raw = [int(c) for c in sys11.trace_counts[i]]
        assert sys11.periods[i] == CycInt.from_raw(3, raw)


@pytest.mark.parametrize("p,f,N", [
    (7, 2, 1), (7, 2, 16),          # N p <= L = 8, and N p > L
    (3, 5, 22), (3, 5, 242),        # L = 121: rotate the tally, the block
    (13, 1, 4), (2, 6, 9),          # L = 1, and p = 2 (L = q - 1)
    (37, 3, 28), (5, 9, 38),
])
def test_block_tally_matches_full_sequence_bincount(p, f, N):
    field = build_field(p, f)
    keys = (field.trace_sequence.astype(np.int64).reshape(-1, N)
            + p * np.arange(N))
    want = np.bincount(keys.ravel(), minlength=N * p).reshape(N, p)
    got = build_cyclotomy(field, N).trace_counts
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_character_sum_subgroup_f243(f243):
    sys11 = build_cyclotomy(f243, 11)
    idx = [1, 3, 9, 5, 4]  # the subgroup generated by 3 in Z_11
    got = character_sum(sys11, idx, 0)
    oracle = brute_force_char_sum(f243, idx, 11)
    assert abs(got.embed() - oracle) < 1e-9


def test_character_sum_trivial_cases(f243):
    sys11 = build_cyclotomy(f243, 11)
    assert character_sum(sys11, range(11), 0) == CycInt.integer(3, -1)
    assert character_sum(sys11, [], 5) == CycInt.integer(3, 0)
    with pytest.raises(IndexOutOfRange):
        character_sum(sys11, [11], 0)


@pytest.mark.parametrize("N", [2, 11, 22, 121])
def test_character_sum_random_vs_brute_force(f243, N):
    sys_n = build_cyclotomy(f243, N)
    rng = np.random.default_rng(N)
    for _ in range(13):
        size = int(rng.integers(1, N + 1))
        idx = sorted(rng.choice(N, size=size, replace=False).tolist())
        shift = int(rng.integers(0, N))
        got = character_sum(sys_n, idx, shift)
        oracle = brute_force_char_sum(f243, [(i + shift) % N for i in idx], N)
        assert abs(got.embed() - oracle) < 1e-9


def test_class_of(f243):
    sys11 = build_cyclotomy(f243, 11)
    gamma = int(f243.antilog_table[1])
    assert sys11.class_of(gamma) == 1
    assert sys11.class_of(int(f243.antilog_table[11])) == 0
    minus1 = f243.neg(1)
    assert sys11.class_of(minus1) == ((f243.q - 1) // 2) % 11
    with pytest.raises(ZeroElement):
        sys11.class_of(0)


@pytest.mark.parametrize("N", [2, 11, 22, 121])
def test_frobenius_period_invariance(f243, N):
    # eta_{p i} = eta_i always: Frobenius permutes each class, fixing traces
    sys_n = build_cyclotomy(f243, N)
    for i in range(N):
        assert sys_n.periods[(3 * i) % N] == sys_n.periods[i]
