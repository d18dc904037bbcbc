import numpy as np
import pytest

from scheme_forge.constructions import five_class_3mod8, three_class_base
from scheme_forge.cyclotomy import build_cyclotomy, embed
from scheme_forge.errors import NotADivisor
from scheme_forge.finite_field import _BLOCK, build_field

from conftest import (assert_embeds_like_scalar_sum, brute_force_char_sum,
                      traced_peak)


def integer(p, c):
    """The row of the rational integer c in Z[xi_p]."""
    return [c] + [0] * (p - 2)


def test_f9_index2_periods(f9):
    sys2 = build_cyclotomy(f9, 2)
    assert sys2.period_matrix.tolist() == [integer(3, 1), integer(3, -2)]


def test_index1_full_sum(f243):
    sys1 = build_cyclotomy(f243, 1)
    assert sys1.period_matrix.tolist() == [integer(3, -1)]


def test_f37_index4_vanishing(f37):
    sys4 = build_cyclotomy(f37, 4)
    assert sys4.period_matrix.sum(axis=0).tolist() == integer(37, -1)


def test_not_a_divisor(f9):
    with pytest.raises(NotADivisor):
        build_cyclotomy(f9, 3)


def test_trace_count_rows_sum_to_class_size(f243):
    # row i is count_i[:p-1] - count_i[p-1] with the p counts summing to M,
    # so M - sum(row i) = p count_i[p-1] is a multiple of p in [0, p M]
    sys11 = build_cyclotomy(f243, 11)
    rest = sys11.M - sys11.period_matrix.sum(axis=1)
    assert (rest % 3 == 0).all()
    assert ((0 <= rest) & (rest <= 3 * sys11.M)).all()


@pytest.mark.parametrize("p,f,N", [
    (7, 2, 1), (7, 2, 16),          # N p <= L = 8, and N p > L
    (3, 5, 22), (3, 5, 242),        # L = 121: g = gcd(L, N) = 11 and 121
    (13, 1, 4), (2, 6, 9),          # L = 1, and p = 2 (L = q - 1)
    (37, 3, 28),
    (5, 9, 38),                     # sub-blocks start at 2^15 k = 12 k mod N
    (257, 2, 2),                    # 256 periods fold onto 2 classes
    (2, 16, 65535),                 # L = N: two sub-blocks
    (2, 20, 33825),                 # N > _BLOCK: offsets past one cycle
    (5, 8, 16),                     # a last sub-block of 32,120 terms
    (101, 3, 100), (101, 2, 102),   # g = 1, L = 10,303; g = 102 = N, L = 102
    (2, 22, 1398101),               # 128 sub-blocks, each added in O(_BLOCK)
])
def test_block_tally_matches_full_sequence_bincount(p, f, N):
    field = build_field(p, f)
    keys = (field.trace_sequence.astype(np.int64).reshape(-1, N)
            + p * np.arange(N))
    counts = np.bincount(keys.ravel(), minlength=N * p).reshape(N, p)
    got = build_cyclotomy(field, N).period_matrix
    assert got.dtype == np.int64
    assert np.array_equal(got, counts[:, :p - 1] - counts[:, p - 1:])


@pytest.mark.parametrize("p,f,N", [
    (5, 9, 38),    # L = 488,281 terms, tallied a sub-block at a time
    (1021, 2, 2),  # 1020 norm periods folded onto 2 classes
    (2, 22, 3),    # L = 4,194,303 uint8 terms, four times the bound
    (2, 14, 5461),  # L = 16,383 > N p = 10,922: the fold's arrays within it
])
def test_tally_holds_no_second_copy(p, f, N):
    # the bound covers generating the terms too: no L-term array exists
    field = build_field(p, f)
    sys_n, peak = traced_peak(lambda: build_cyclotomy(field, N))
    assert sys_n.M == (field.q - 1) // N
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("p,f,N", [
    (2, 16, 65535),  # L = N: the fold's arrays outweigh the walk's buffers
    (257, 2, 258),   # L = N = 258, p = 257: N p = 66,306 cells
])
def test_period_budget_rate_bounds_the_peak(p, f, N):
    # the budget check charges 32 B a cell of the (N, p) counts; the rest is
    # the walk's sub-block buffers
    field = build_field(p, f)
    _, peak = traced_peak(lambda: build_cyclotomy(field, N))
    assert peak <= 32 * N * p + 24 * _BLOCK, peak


def period_sum(sys_n, idx, shift):
    """The row of psi(gamma^shift D), D the union of the classes C_i, i in
    idx: a sum of period rows."""
    return sys_n.period_matrix[[(i + shift) % sys_n.N for i in idx]].sum(axis=0)


def test_character_sum_subgroup_f243(f243):
    sys11 = build_cyclotomy(f243, 11)
    idx = [1, 3, 9, 5, 4]  # the subgroup generated by 3 in Z_11
    got = period_sum(sys11, idx, 0)
    oracle = brute_force_char_sum(f243, idx, 11)
    assert abs(embed(got, 3) - oracle) < 1e-9


def test_character_sum_trivial_cases(f243):
    sys11 = build_cyclotomy(f243, 11)
    assert period_sum(sys11, range(11), 0).tolist() == integer(3, -1)
    assert period_sum(sys11, [], 5).tolist() == integer(3, 0)


@pytest.mark.parametrize("N", [2, 11, 22, 121])
def test_character_sum_random_vs_brute_force(f243, N):
    sys_n = build_cyclotomy(f243, N)
    rng = np.random.default_rng(N)
    for _ in range(13):
        size = int(rng.integers(1, N + 1))
        idx = sorted(rng.choice(N, size=size, replace=False).tolist())
        shift = int(rng.integers(0, N))
        got = period_sum(sys_n, idx, shift)
        oracle = brute_force_char_sum(f243, [(i + shift) % N for i in idx], N)
        assert abs(embed(got, 3) - oracle) < 1e-9


def test_class_of(f243):
    # x lies in class log(x) mod N; -1 (code p - 1) in minus_one_class()
    sys11 = build_cyclotomy(f243, 11)
    gamma = int(f243.antilog_table[1])
    assert f243.log_table[gamma] % 11 == 1
    assert f243.log_table[f243.p - 1] % 11 == sys11.minus_one_class() \
        == ((f243.q - 1) // 2) % 11


@pytest.mark.parametrize("N", [2, 11, 22, 121])
def test_frobenius_period_invariance(f243, N):
    # eta_{p i} = eta_i always: Frobenius permutes each class, fixing traces
    sys_n = build_cyclotomy(f243, N)
    rows = sys_n.period_matrix
    assert np.array_equal(rows[(3 * np.arange(N)) % N], rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 37, 101])
def test_embed_repeats_scalar_sum_bitwise(p):
    rng = np.random.default_rng(p)
    rows = rng.integers(-10 ** 6, 10 ** 6, size=(60, p - 1))
    rows[rng.random(rows.shape) < 0.3] = 0  # zero terms are skipped
    rows[:3] = 0                            # and all-zero rows sum to 0j
    rows[3, :] = rng.integers(-2, 3, size=p - 1)
    assert_embeds_like_scalar_sum(rows, p)
    assert_embeds_like_scalar_sum(rows[7], p)  # one row: a 0-d result


@pytest.mark.parametrize("build", [
    lambda: five_class_3mod8(3, 11), lambda: five_class_3mod8(5, 19),
    lambda: three_class_base(3, 11),
])
def test_embed_repeats_scalar_sum_on_reports(build):
    built = build()
    assert_embeds_like_scalar_sum(built.report.P_exact, built.field.p)
