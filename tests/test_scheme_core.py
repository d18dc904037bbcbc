import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from scheme_forge import cyclotomy, errors, jsonio, scheme_core
from scheme_forge.constructions import five_class_3mod8
from scheme_forge.cyclotomy import _CELL_BYTES, _signature_sums, build_cyclotomy
from scheme_forge.errors import (BudgetExceeded, MalformedPartition,
                                 NotAScheme, PartitionInvalid)
from scheme_forge.finite_field import build_field, is_prime
from scheme_forge.scheme_core import (IndexPartition, _group_rows, _negation,
                                      _trace_sums, check_fusion,
                                      dual_classes, dual_partition,
                                      eigenmatrices, intersection_numbers,
                                      is_primitive, is_scheme,
                                      krein_parameters, signature_counts,
                                      symmetrize, verify_scheme)

from conftest import partition_to_relations, search_prefixes, traced_peak
from oracles import (ORACLE_CAP, TooLargeForOracle, brute_force_verify,
                     check_scheme_document)


def singletons(N):
    return IndexPartition.from_sets(N, [[i] for i in range(N)])


def intersections(sys, partition):
    """intersection_numbers of a verified partition, read off its P_exact."""
    classes = dual_classes(sys, partition)
    return intersection_numbers(sys, eigenmatrices(sys, partition, classes)[0],
                                classes[1])


def random_partition(rng, N, d):
    while True:
        labels = rng.integers(0, d, size=N)
        if len(np.unique(labels)) == d:
            return IndexPartition.from_sets(
                N, [np.nonzero(labels == k)[0].tolist() for k in range(d)])


def test_partition_validation():
    with pytest.raises(PartitionInvalid):
        IndexPartition.from_sets(4, [[0, 1], [1, 2], [3]])
    with pytest.raises(PartitionInvalid):
        IndexPartition.from_sets(4, [[0, 1]])
    with pytest.raises(PartitionInvalid):
        IndexPartition.from_sets(4, [[0, 1, 2, 4]])


@pytest.mark.parametrize("parts", [5, [5], [[0, "a"]], [[0.5], [1]],
                                   [[True], [0]], [[np.bool_(True)], [0]]])
def test_partition_indices_must_be_integers(parts):
    with pytest.raises(PartitionInvalid):
        IndexPartition.from_sets(2, parts)


def test_partition_reads_numpy_integers_as_int():
    part = IndexPartition.from_sets(3, [np.array([2, 0]), [np.int8(1)]])
    assert part.parts == ((0, 2), (1,))
    assert all(type(i) is int for p in part.parts for i in p)


@pytest.mark.parametrize("p,f,N", [(13, 1, 2), (3, 2, 8), (3, 5, 11), (11, 2, 12)])
def test_cyclotomic_schemes_verify(p, f, N):
    field = build_field(p, f)
    sys_n = build_cyclotomy(field, N)
    report = verify_scheme(sys_n, singletons(N))
    assert report.is_scheme and report.d == N
    assert report.valencies == [(field.q - 1) // N] * N


def test_verdict_matches_oracle_on_random_partitions():
    rng = np.random.default_rng(2024)
    total_checked = 0
    agreements_true = 0
    for (p, f, N) in [(3, 4, 16), (11, 2, 12), (3, 5, 22)]:
        field = build_field(p, f)
        sys_n = build_cyclotomy(field, N)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            part = random_partition(rng, N, d)
            verdict = is_scheme(sys_n, part)
            oracle = brute_force_verify(
                field, partition_to_relations(field, sys_n, part))
            assert verdict == oracle
            total_checked += 1
            agreements_true += verdict
        # coset partitions (coarser cyclotomic schemes) as positive cases
        for H in [h for h in range(2, N) if N % h == 0]:
            cosets = IndexPartition.from_sets(
                N, [[(i + H * j) % N for j in range(N // H)] for i in range(H)])
            assert is_scheme(sys_n, cosets)
            assert brute_force_verify(
                field, partition_to_relations(field, sys_n, cosets))
            total_checked += 1
    assert total_checked >= 60


def test_intersection_numbers_identities(f13):
    sys2 = build_cyclotomy(f13, 2)
    part = singletons(2)
    B = intersections(sys2, part)
    assert np.array_equal(B[0], np.eye(3, dtype=np.int64))
    report = verify_scheme(sys2, part)
    for i, Bi in enumerate(B):
        want = 1 if i == 0 else report.valencies[i - 1]
        assert (Bi.sum(axis=1) == want).all()
        assert (Bi >= 0).all()
    # commutativity p_ij^k = p_ji^k
    d = part.d
    for k in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                assert B[i][k, j] == B[j][k, i]
    # Paley graph on 13 points: p_11^1 = (q-5)/4 = 2, p_11^2 = (q-1)/4 = 3
    assert B[1][1, 1] == 2 and B[1][2, 1] == 3


def forged_P_exact(sys, partition):
    """(P_exact, dual parts) of any partition, its rows assembled as
    eigenmatrices assembles a scheme's: row 0 the valencies, then the
    distinct signature rows, however many.  A non-scheme's gets past the
    verdict to the trace sums and their divisibility checks."""
    count, parts, uniq = dual_classes(sys, partition)
    P_exact = np.zeros((count + 1, partition.d + 1, sys.field.p - 1), dtype=np.int64)
    P_exact[:, 0, 0] = 1
    P_exact[0, 1:, 0] = [sys.M * len(part) for part in partition.parts]
    P_exact[1:, 1:] = uniq.reshape(count, partition.d, -1)
    if count == partition.d:
        own = eigenmatrices(sys, partition, (count, parts, uniq))[0]
        assert np.array_equal(P_exact, own)
    return P_exact, parts


def test_intersection_numbers_requires_scheme(f9):
    sys8 = build_cyclotomy(f9, 8)
    bad = IndexPartition.from_sets(8, [[0, 1, 2], [3, 4], [5, 6, 7]])
    with pytest.raises(NotAScheme):
        intersections(sys8, bad)
    # the exact divisibility checks reject it even past the verdict, on its
    # rows forged into a P_exact
    with pytest.raises(NotAScheme):
        intersection_numbers(sys8, *forged_P_exact(sys8, bad))


def element_intersection_numbers(field, sys, partition):
    """Reference B_i[k][j] = #{x in R_i : z - x in R_j}, counted for every z in R_k."""
    assert field.q <= ORACLE_CAP
    rels = partition_to_relations(field, sys, partition)
    K = len(rels)
    rel = np.empty(field.q, dtype=np.int64)
    for i, r in enumerate(rels):
        rel[r] = i
    codes = np.arange(field.q, dtype=np.int64)
    B = np.zeros((K, K, K), dtype=np.int64)
    for k, r in enumerate(rels):
        rows = [np.bincount(rel * K + rel[field.sub_vec(int(z), codes)],
                            minlength=K * K).reshape(K, K) for z in r]
        assert all(np.array_equal(row, rows[0]) for row in rows)
        B[:, k, :] = rows[0]
    return list(B)


def coset_partition(N, H):
    """Cosets of the index-H subgroup of Z_N (H = N: all singletons)."""
    return IndexPartition.from_sets(
        N, [[(i + H * j) % N for j in range(N // H)] for i in range(H)])


COSET_CASES = [
    (13, 1, 2, 2),    # Paley
    (13, 1, 1, 1),
    (3, 5, 22, 22),
    (3, 5, 22, 2),
    (3, 5, 22, 11),
    (2, 4, 3, 3),     # p = 2: Z[xi_2] = Z
    (2, 4, 5, 5),
    (3, 2, 8, 8),
    (7, 2, 16, 16),
]


@pytest.mark.parametrize("p,f,N,H", COSET_CASES)
def test_intersection_and_krein_match_element_count(p, f, N, H):
    field = build_field(p, f)
    sys_n = build_cyclotomy(field, N)
    part = coset_partition(N, H)
    for got, want in zip(intersections(sys_n, part),
                         element_intersection_numbers(field, sys_n, part),
                         strict=True):
        assert np.array_equal(got, want)
    dual = dual_partition(sys_n, part)
    for got, want in zip(krein_parameters(sys_n, part),
                         element_intersection_numbers(field, sys_n, dual),
                         strict=True):
        assert np.array_equal(got, want)


# every F_q with q <= 300 and every order N, 2 <= N <= 6, dividing q - 1
SMALL_SYSTEMS = [(p, f, N) for p in range(2, 301) if is_prime(p)
                 for f in range(1, 9) if p ** f <= 300
                 for N in range(2, 7) if (p ** f - 1) % N == 0]


def fused_tensor(B, rel, parts):
    """T[a, c, b]: the block sums over parts a and b of the counted B[i][k][j]
    at the first relation k of part c, and whether they are constant over
    each part.  Row r of ``rel`` (R, K) gives each of the K relations its
    part, below ``parts``, relation 0 its own part 0."""
    onehot = (rel[:, :, None] == np.arange(parts)).astype(np.int64)
    S = np.einsum("ria,ikj,rjb->rakb", onehot, B, onehot)
    first = onehot.argmax(axis=1)
    rep = np.take_along_axis(first, rel, axis=1)[:, None, :, None]
    constant = (S == np.take_along_axis(S, rep, axis=2)).all(axis=(1, 2, 3))
    return np.take_along_axis(S, first[:, None, :, None], axis=2), constant


def counted_primitive(T):
    """Every nontrivial relation of the symmetrization connects: from {0},
    the steps by R_a and -R_a reach every relation (T[a, 0, b] > 0 iff
    -R_a = R_b)."""
    for a in range(1, len(T)):
        step = T[a] + T[T[a, 0].argmax()]
        reach = np.zeros(len(T), dtype=bool)
        reach[0] = True
        while not reach.all():
            more = reach | (step[:, reach] > 0).any(axis=1)
            if (more == reach).all():
                return False
            reach = more
    return True


def test_every_partition_of_small_systems_matches_element_counts():
    # every set partition of Z_N: a scheme iff the block sums of the
    # singleton scheme's counted intersection numbers are constant over each
    # part, and then those sums are its intersection numbers
    systems = partitions = schemes = 0
    for p, f, N in SMALL_SYSTEMS:
        field = build_field(p, f)
        sys_n = build_cyclotomy(field, N)
        B = np.array(element_intersection_numbers(field, sys_n, singletons(N)))
        labels = np.asarray(search_prefixes(N, N))
        assert len(labels) == [2, 5, 15, 52, 203][N - 2]  # Bell numbers
        distinct, primitive = signature_counts(sys_n, labels, N)
        d = labels.max(axis=1) + 1
        rel = np.concatenate((np.zeros((len(labels), 1), dtype=np.int64),
                              labels + 1), axis=1)
        T, constant = fused_tensor(B, rel, N + 1)
        assert np.array_equal(distinct == d, constant), (p, f, N)
        for row, k, T_r, prim in zip(labels[constant], d[constant],
                                     T[constant], primitive[constant]):
            part = IndexPartition.from_sets(
                N, [np.nonzero(row == c)[0].tolist() for c in range(k)])
            report = verify_scheme(sys_n, part)
            T_r = T_r[:k + 1, :k + 1, :k + 1]
            assert np.array_equal(report.intersection_matrices, T_r)
            assert prim == report.is_primitive == counted_primitive(T_r)
            neg = T_r[:, 0].argmax(axis=1)
            assert report.nonsymmetric_pair_count == (neg > np.arange(k + 1)).sum()
        systems += 1
        partitions += len(labels)
        schemes += int(constant.sum())
    assert (systems, partitions, schemes) == (197, 8569, 1313)


def gathered_signature_rows(sys, partition):
    """The earlier table: each part's (N, |part|, p - 1) gather of period
    rows, summed, and the parts' sums side by side."""
    a = np.arange(sys.N)
    return np.concatenate(
        [sys.period_matrix[(a[:, None] + np.asarray(part)) % sys.N].sum(axis=1)
         for part in partition.parts], axis=1)


def signature_rows(sys, partition):
    """The kernel's sums over the partition's label row, as the (N, d (p - 1))
    table dual_classes groups."""
    labels = np.empty((1, partition.N), dtype=np.int64)
    for i, part in enumerate(partition.parts):
        labels[0, list(part)] = i
    return _signature_sums(sys, labels, partition.d,
                           "the test's table needs")[0].reshape(sys.N, -1)


@pytest.mark.parametrize("p,f,N,H", COSET_CASES)
def test_signature_rows_match_the_gather(p, f, N, H):
    sys_n = build_cyclotomy(build_field(p, f), N)
    part = coset_partition(N, H)
    assert np.array_equal(signature_rows(sys_n, part),
                          gathered_signature_rows(sys_n, part))


def test_signature_rows_match_the_gather_with_one_large_part():
    rng = np.random.default_rng(26)
    for p, f, N in [(3, 5, 22), (2, 4, 15), (13, 1, 12), (37, 3, 28),
                    (3, 5, 242)]:
        sys_n = build_cyclotomy(build_field(p, f), N)
        for _ in range(4):
            order = rng.permutation(N).tolist()
            cut = int(rng.integers(N // 2, N))  # one part of at least N/2
            rest = order[cut:]
            small = [rest[k::3] for k in range(3) if rest[k::3]]
            part = IndexPartition.from_sets(N, [order[:cut]] + small)
            assert np.array_equal(signature_rows(sys_n, part),
                                  gathered_signature_rows(sys_n, part))


@pytest.mark.parametrize("p,f,N,d", [(3, 5, 22, 4), (7, 2, 16, 5),
                                     (11, 2, 24, 3)])
def test_signature_sums_match_the_gather_on_label_batches(p, f, N, d):
    # random label rows, every other one with no label d - 1: an empty part
    sys_n = build_cyclotomy(build_field(p, f), N)
    rng = np.random.default_rng(N * d)
    a = np.arange(N)
    for R in (1, 7, 256):
        labels = rng.integers(0, d, size=(R, N)).astype(np.int8)
        labels[::2] %= d - 1
        sums = _signature_sums(sys_n, labels, d, "")
        assert sums.shape == (R, N, d, p - 1)
        for r, row in enumerate(labels):
            want = np.stack([sys_n.period_matrix[
                (a[:, None] + np.flatnonzero(row == i)) % N].sum(axis=1)
                for i in range(d)], axis=1)
            assert np.array_equal(sums[r], want)
            # the row alone takes the one-row index form
            assert np.array_equal(
                _signature_sums(sys_n, labels[r:r + 1], d, "")[0], sums[r])


@pytest.mark.parametrize("R", [1, 7])
@pytest.mark.parametrize("bad", [-1, 3])
def test_signature_sums_refuse_a_label_outside_the_parts(R, bad):
    sys_n = build_cyclotomy(build_field(7, 2), 16)
    labels = np.zeros((R, 16), dtype=np.int8)
    labels[-1, 5] = bad
    with pytest.raises(PartitionInvalid, match=r"label outside \[0, 3\)"):
        _signature_sums(sys_n, labels, 3, "")


@pytest.mark.parametrize("R", [1, 7])
def test_signature_sums_refuse_rows_over_another_N(R):
    # label rows over Z_8 read against the order-16 periods
    sys_n = build_cyclotomy(build_field(7, 2), 16)
    with pytest.raises(PartitionInvalid, match="over Z_8, system over Z_16"):
        _signature_sums(sys_n, np.zeros((R, 8), dtype=np.int8), 2, "")
    with pytest.raises(PartitionInvalid, match="over Z_8, system over Z_16"):
        dual_classes(sys_n, singletons(8))


@pytest.mark.parametrize("p,f,N,parts", [
    (37, 3, 28, "singletons"),
    (3, 5, 242, "singletons"),
    (11, 3, 1330, "two"),
    (4099, 1, 2, "singletons"),  # 8,196 columns on two rows
    (65537, 1, 2, "singletons"),  # 131,072 columns on two rows
])
def test_table_charge_bounds_the_dual_classes_peak(p, f, N, parts):
    # the check charges _CELL_BYTES a cell of the (N, d (p - 1)) table;
    # dual_classes' traced peak stays below it
    sys_n = build_cyclotomy(build_field(p, f), N)
    part = (singletons(N) if parts == "singletons"
            else IndexPartition.from_sets(N, [[0], list(range(1, N))]))
    cells = N * part.d * (p - 1)
    _, peak = traced_peak(lambda: dual_classes(sys_n, part))
    assert peak <= _CELL_BYTES * cells, peak


def unique_rows(rows):
    """Oracle for _group_rows: np.unique over axis 0, which orders rows
    lexicographically through a structured dtype of one field a column."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return uniq, [tuple(np.nonzero(inverse == c)[0].tolist())
                  for c in range(len(uniq))]


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("shape,bounds", [
    ((60, 3), [(-2, 2), (-2 ** 40, 2 ** 40), (INT64.min, INT64.max)]),
    ((7, 5), [(-1, 1), (INT64.min, INT64.max)]),
    ((1, 4), [(INT64.min, INT64.max)]),
    ((4000, 1), [(-3, 3), (INT64.min, INT64.max)]),  # tall and narrow
    ((3000, 2), [(-1, 1), (-2 ** 62, 2 ** 62)]),
    ((2, 131072), [(-1, 1)]),  # wide and short
], ids=lambda v: "x".join(map(str, v)) if isinstance(v[0], int) else None)
def test_group_rows_matches_unique_rows(shape, bounds):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for lo, hi in bounds:
        rows = rng.integers(lo, hi, size=shape, dtype=np.int64, endpoint=True)
        n = shape[0]
        rows[rng.permutation(n)[:n // 2]] = rows[rng.integers(0, n, n // 2)]
        # the last row differs from the first in its last cell only
        rows[-1] = rows[0]
        rows[-1, -1] = rows[0, -1] ^ 1
        want_uniq, want_members = unique_rows(rows)
        uniq, members = _group_rows(rows.copy())
        assert uniq.dtype == np.int64
        assert np.array_equal(uniq, want_uniq)
        assert members == want_members


def test_group_rows_orders_signs_and_extremes():
    values = [INT64.min, INT64.min + 1, -256, -1, 0, 1, 255, 256, INT64.max]
    rows = np.array([[a, b] for a in values for b in values][::-1],
                    dtype=np.int64)
    uniq, members = _group_rows(rows.copy())
    assert uniq.tolist() == sorted(rows.tolist())
    assert members == [(len(rows) - 1 - k,) for k in range(len(rows))]


def test_one_signature_table_per_verification(monkeypatch, f243):
    built = []
    build = scheme_core._signature_sums
    monkeypatch.setattr(scheme_core, "_signature_sums",
                        lambda *args: built.append(args) or build(*args))
    sys22 = build_cyclotomy(f243, 22)
    for part in (singletons(22), coset_partition(22, 2),
                 IndexPartition.from_sets(22, [[0], list(range(1, 22))])):
        built.clear()
        report = verify_scheme(sys22, part)
        assert len(built) == 1, report.is_scheme


def test_oversized_signature_table_raises_before_allocating(monkeypatch):
    # 10,200 singletons on F_{101^2}: an 8.3 GB table, 1.02e9 cells
    sys_n = build_cyclotomy(build_field(101, 2), 10200)
    part = singletons(10200)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(BudgetExceeded, match="table of 10200 parts over Z_10200"):
        dual_classes(sys_n, part)


def full_row_trace_sums(sys, partition):
    """acc[i, j, k] = sum_a Tr(sigma_a(i) sigma_a(j) conj sigma_a(k)) over
    all N rows a, with Tr(alpha) = p alpha_0 - alpha(1) on Z[x]/(x^p - 1)."""
    N, p, K = sys.N, sys.field.p, partition.d + 1
    sig = np.zeros((N, K, p), dtype=np.int64)
    sig[:, 0, 0] = 1
    sig[:, 1:, :p - 1] = signature_rows(sys, partition).reshape(N, K - 1, p - 1)
    shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    conv = np.einsum("ail,ajlm->aijm", sig, sig[:, :, shift])  # (u_i u_j)_m
    s = sig.sum(axis=2)
    return (p * np.einsum("aijm,akm->ijk", conv, sig)
            - np.einsum("ai,aj,ak->ijk", s, s, s))


def full_row_intersection_numbers(sys, partition):
    p, q, M = sys.field.p, sys.field.q, sys.M
    acc = full_row_trace_sums(sys, partition)
    k = np.array([1] + [M * len(part) for part in partition.parts])
    if (acc % (p - 1)).any():
        raise NotAScheme("not rational")
    numer = k[:, None, None] * k[None, :, None] * k + M * (acc // (p - 1))
    if (numer % (q * k)).any():
        raise NotAScheme("not integers")
    return [b.T for b in numer // (q * k)]


def assert_coset_sum_matches_full_rows(sys_n, part):
    # rows forged into a P_exact, so a non-scheme gets past the verdict to
    # the sums and their divisibility checks
    forged = forged_P_exact(sys_n, part)
    acc, _ = _trace_sums(sys_n, *forged)
    assert np.array_equal(acc, full_row_trace_sums(sys_n, part))
    try:
        want = full_row_intersection_numbers(sys_n, part)
    except NotAScheme:
        with pytest.raises(NotAScheme):
            intersection_numbers(sys_n, *forged)
        return False
    got = intersection_numbers(sys_n, *forged)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    return True


@pytest.mark.parametrize("p,f,N,H", COSET_CASES + [(37, 3, 28, 28)])
def test_coset_sum_matches_full_row_sum(p, f, N, H):
    # g = gcd(N, (q-1)/(p-1)) coset representatives stand in for all N rows:
    # g = 1 of 2 on F_13, 11 of 22 on F_{3^5}, 7 of 28 on F_{37^3}, g = N
    # for p = 2
    sys_n = build_cyclotomy(build_field(p, f), N)
    assert assert_coset_sum_matches_full_rows(sys_n, coset_partition(N, H))


def test_coset_sum_matches_full_row_sum_on_non_schemes():
    rng = np.random.default_rng(88)
    systems = [build_cyclotomy(build_field(p, f), N)
               for p, f, N in [(3, 5, 22), (3, 4, 16), (2, 4, 15), (13, 1, 12)]]
    # g = 11, 8, 15 (= N, p = 2) and 1 coset representatives
    outcomes = []
    while len(outcomes) < 52:
        sys_n = systems[len(outcomes) % len(systems)]
        part = random_partition(rng, sys_n.N, int(rng.integers(2, 6)))
        if not is_scheme(sys_n, part):
            outcomes.append(assert_coset_sum_matches_full_rows(sys_n, part))
    assert not all(outcomes)


def trace_term(u, p):
    """Oracle for one row's term of the trace sum, by a gather of every
    shift and two contractions: p (u_i u_j conj u_k)_0 - u_i(1) u_j(1) u_k(1).
    In float64 on BLAS: every partial sum is at most 2 p^3 B^3 for B the
    largest |coefficient|, asserted below 2^53, so each is exact."""
    assert 2 * p ** 3 * int(np.abs(u).max()) ** 3 < 2 ** 53
    shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    v = u.astype(np.float64)
    conv = np.tensordot(v, v[:, shift], axes=([1], [1]))  # (u_i u_j)_m
    s = v.sum(axis=1)
    return (p * np.tensordot(conv, v, axes=([2], [1]))
            - np.einsum("i,j,k->ijk", s, s, s)).astype(np.int64)


def triple_sum(rows, p):
    """p sum_{a,b} u_i[a] u_j[b] u_k[(a + b) mod p] - u_i(1) u_j(1) u_k(1)
    in Python ints, for rows u of length p."""
    K, s = len(rows), [sum(r) for r in rows]
    return [[[p * sum(rows[i][a] * rows[j][b] * rows[k][(a + b) % p]
                      for a in range(p) for b in range(p)) - s[i] * s[j] * s[k]
              for k in range(K)] for j in range(K)] for i in range(K)]


def one_row_trace_sums(rows, p):
    """_trace_sums on a system with N = 1, one coset representative of
    weight one, whose dual class row is ``rows`` (K, p - 1): its term."""
    P_exact = np.zeros((2, len(rows), p - 1), dtype=np.int64)
    P_exact[0, :, 0] = 1
    P_exact[1] = rows
    sys_n = SimpleNamespace(N=1, M=1, field=SimpleNamespace(p=p, q=p, f=1))
    return _trace_sums(sys_n, P_exact, [(0,)])


@pytest.mark.parametrize("K,p", [(1, 2), (3, 2), (2, 3), (4, 5), (3, 7)])
@pytest.mark.parametrize("scale", [1, 2 ** 20, 2 ** 40],
                         ids=["int64", "split", "object"])
def test_trace_term_matches_the_triple_sum(K, p, scale):
    # one row's term through the shared product.  The ids name the routes
    # of the int64 correlations this replaced; now scale 1 runs in float64,
    # 2^20 forms float64 pair products and the rest in Python ints, and
    # 2^40 takes Python ints throughout
    rng = np.random.default_rng(K * p)
    rows = (rng.integers(-9, 10, size=(K, p - 1)) * scale).tolist()
    acc, _ = one_row_trace_sums(rows, p)
    assert acc.shape == (K, K, K)
    assert acc.tolist() == triple_sum([r + [0] for r in rows], p)


def largest_below(bound, bits):
    """The largest B >= 1 with bound(B) < 2^bits."""
    lo, hi = 1, 2 ** bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) < 2 ** bits else (lo, mid)
    return lo


# each stage's bound at B, the largest |coefficient|, for p = 5 and one
# representative of weight N = 1: the (K, K, p) pair products, their
# (K, K, K) contraction and the sums
_STAGE_BOUNDS = {"pair": lambda B: 5 * B * B, "con": lambda B: 25 * B ** 3,
                 "sums": lambda B: 250 * B ** 3}


_ROUTE_EDGES = [
    ("pair", 53, 0, (np.float64, object, object)),
    ("pair", 53, 1, (np.int64, object, object)),
    ("pair", 63, 0, (np.int64, object, object)),
    ("pair", 63, 1, (object, object, object)),
    ("con", 53, 0, (np.float64, np.float64, np.int64)),
    ("con", 53, 1, (np.float64, np.int64, np.int64)),
    # the route F_{8191^2} by 6 takes: float64 pair products, an int64
    # contraction and sums in Python ints
    ("con", 63, 0, (np.float64, np.int64, object)),
    ("con", 63, 1, (np.float64, object, object)),
    ("sums", 63, 0, (np.float64, np.int64, np.int64)),
    ("sums", 63, 1, (np.float64, np.int64, object)),
    # sums far below 2^53 still take int64
    ("sums", 13, 0, (np.float64, np.float64, np.int64)),
]


@pytest.mark.parametrize("stage,bits,above,routes", _ROUTE_EDGES, ids=[
    f"{stage}-{'above' if above else 'below'}-2^{bits}"
    for stage, bits, above, _ in _ROUTE_EDGES])
def test_trace_sums_match_the_triple_sum_at_every_route_edge(
        stage, bits, above, routes, monkeypatch):
    # one row u of K = 4 vectors, u_0 = 1 and every other coefficient +-B,
    # with B just below or just above the stage's edge, against the
    # triple sum in Python ints
    p, K = 5, 4
    B = largest_below(_STAGE_BOUNDS[stage], bits) + above
    rng = np.random.default_rng(bits + above)
    rows = [[1, 0, 0, 0]] + [[int(x) * B for x in rng.choice((-1, 1), size=p - 1)]
                             for _ in range(K - 1)]
    chosen = []
    monkeypatch.setattr(scheme_core, "_dtype", lambda bound: (
        chosen.append(cyclotomy._dtype(bound)) or chosen[-1]))
    acc, k = one_row_trace_sums(rows, p)
    assert tuple(chosen) == routes
    assert acc.dtype == k.dtype == routes[2]
    assert acc.tolist() == triple_sum([r + [0] for r in rows], p)


def per_representative_trace_sums(sys_n, part, classes, term):
    """(N/g) times the sum of term(sigma_a) over the g coset
    representatives a < g, one term each."""
    N, p, d = sys_n.N, sys_n.field.p, part.d
    g = math.gcd(N, (sys_n.field.q - 1) // (p - 1))
    label = {a: c for c, members in enumerate(classes[1]) for a in members}
    acc = 0
    for a in range(g):
        u = np.zeros((d + 1, p), dtype=np.int64)
        u[0, 0] = 1
        u[1:, :p - 1] = classes[2][label[a]].reshape(d, p - 1)
        acc = acc + term(u, p)
    return acc * (N // g)


def _singletons_on(p, f, N):
    return build_cyclotomy(build_field(p, f), N), singletons(N)


def _two_parts_on(p, f, N):
    return (build_cyclotomy(build_field(p, f), N),
            IndexPartition.from_sets(N, [[0], list(range(1, N))]))


def _five_class(p, p1):
    built = five_class_3mod8(p, p1)
    return built.system, built.partition


@pytest.mark.parametrize("build,args,g_below_d", [
    (_singletons_on, (37, 3, 28), True),    # cyclo-n28: g = 7 of 28
    (_singletons_on, (257, 2, 32), True),   # g = 2
    (_singletons_on, (257, 2, 96), True),   # g = 6
    (_two_parts_on, (257, 2, 258), False),  # {0 | 1..257}: g = 258
    (_five_class, (3, 11), False),          # g = 11, d = 5: 4 rows
    (_five_class, (5, 19), False),          # g = 19, d = 5: 4 rows
], ids=["cyclo-n28", "257^2-by-32", "257^2-by-96", "257^2-by-258-two-parts",
        "five-class-3-11", "five-class-5-19"])
def test_trace_sums_weight_each_dual_class_row(build, args, g_below_d,
                                               monkeypatch):
    # a representative's term depends only on its dual class: each distinct
    # row's pair products are formed once, and its term weighted by its
    # representatives
    sys_n, part = build(*args)
    classes = dual_classes(sys_n, part)
    P_exact = eigenmatrices(sys_n, part, classes)[0]
    p, d = sys_n.field.p, part.d
    g = math.gcd(sys_n.N, (sys_n.field.q - 1) // (p - 1))
    assert (g < d) == g_below_d
    label = {a: c for c, members in enumerate(classes[1]) for a in members}
    rows = len({label[a] for a in range(g)})
    assert rows <= min(g, d)
    calls = []
    monkeypatch.setattr(scheme_core, "_mul", lambda a, b, p: (
        calls.append(a) or cyclotomy._mul(a, b, p)))
    acc, _ = _trace_sums(sys_n, P_exact, classes[1])
    assert len(calls) == rows
    assert np.array_equal(acc, per_representative_trace_sums(
        sys_n, part, classes, trace_term))


def test_trace_sums_stay_within_their_budget_charge(monkeypatch):
    # 32 singletons on F_{257^2}: the (K, K, p) pair products of a row are
    # 2.1 MiB; a (K, p, p) gather of it was ~36 MiB of traced peak.  6 on
    # F_{1021^2}: float64 products and sums in Python ints
    charged = []
    monkeypatch.setattr(scheme_core, "check_budget",
                        lambda need, what: charged.append(need))
    for args, most in [((257, 2, 32), 8 << 20), ((1021, 2, 6), 1 << 20)]:
        sys_n, part = _singletons_on(*args)
        classes = dual_classes(sys_n, part)
        P_exact = eigenmatrices(sys_n, part, classes)[0]
        charged.clear()
        (acc, _), peak = traced_peak(lambda: _trace_sums(sys_n, P_exact, classes[1]))
        assert len(charged) == 1
        assert peak <= charged[0], (args, peak, charged)
        assert peak < most, (args, peak)
    assert acc.dtype == object


def test_trace_sums_refuse_before_allocating_their_rows(monkeypatch):
    # cyclo-n28: the g = 7 representatives fall in 7 dual classes, whose
    # (7, 29, 37) int64 rows are 60,088 B.  The charge covers the rows, so a
    # refused call reads their bound off views and allocates none of them
    sys_n, part = _singletons_on(37, 3, 28)
    classes = dual_classes(sys_n, part)
    P_exact = eigenmatrices(sys_n, part, classes)[0]
    monkeypatch.setattr(errors, "BUDGET", 1000)

    def refused():
        with pytest.raises(BudgetExceeded, match="trace sums of 28 relations"):
            _trace_sums(sys_n, P_exact, classes[1])

    _, peak = traced_peak(refused)
    assert peak < 7 * 29 * 37 * 8, peak


def test_dual_classes_holds_the_distinct_rows_once():
    # 96 singletons on F_{257^2}: every signature row is distinct.  The
    # table, its sorted keys and the distinct rows are 24 B a cell; the
    # distinct rows turned back into a second array made it 32
    N, p = 96, 257
    sys_n = build_cyclotomy(build_field(p, 2), N)
    _, peak = traced_peak(lambda: dual_classes(sys_n, singletons(N)))
    assert peak <= 28 * N * N * (p - 1), peak


def test_eigenmatrices_structure(f243):
    sys11 = build_cyclotomy(f243, 11)
    part = singletons(11)
    P_exact, P, Q = eigenmatrices(sys11, part, dual_classes(sys11, part))
    report = verify_scheme(sys11, part)
    assert P_exact.shape == (12, 12, 2) and P_exact.dtype == np.int64
    assert P_exact[0, 1:].tolist() == [[v, 0] for v in report.valencies]
    assert (P_exact[:, 0] == [1, 0]).all()
    assert np.abs(P @ Q - f243.q * np.eye(12)).max() < 1e-6
    # embeddings never exceed the valency
    assert (np.abs(P[:, 1:]) <= np.array(report.valencies) + 1e-9).all()


def test_krein_duality(f13):
    sys2 = build_cyclotomy(f13, 2)
    part = singletons(2)
    K = krein_parameters(sys2, part)
    B = intersections(sys2, part)
    rep = verify_scheme(sys2, part)
    assert rep.is_self_dual
    # Paley: the dual partition is the primal one, so Krein = primal B's
    perm = rep.self_dual_permutation
    for i in range(2):
        assert np.array_equal(K[perm[i] + 1], B[i + 1]) or \
            np.array_equal(K[i + 1], B[i + 1])
    # dual of the dual gives back the original partition
    dual = dual_partition(sys2, part)
    assert set(dual_partition(sys2, dual).part_sets()) == set(part.part_sets())


def test_krein_one_class(f13):
    sys1 = build_cyclotomy(f13, 1)
    part = IndexPartition.from_sets(1, [[0]])
    K = krein_parameters(sys1, part)
    assert np.array_equal(K[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(K[1], np.array([[0, 12], [1, 11]]))


def test_krein_parameters_form_no_complex_eigenmatrix(f243, monkeypatch):
    # the Krein numbers read the dual's P_exact alone: no embedding, no inverse
    sys22 = build_cyclotomy(f243, 22)
    part = singletons(22)
    want = intersections(sys22, dual_partition(sys22, part))

    def refuse(*args):
        raise AssertionError("formed a complex eigenmatrix")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(scheme_core, "embed", refuse)
    got = krein_parameters(sys22, part)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_dual_of_dual_random(f243):
    sys22 = build_cyclotomy(f243, 22)
    cosets = IndexPartition.from_sets(
        22, [[(i + 2 * j) % 22 for j in range(11)] for i in range(2)])
    dual = dual_partition(sys22, cosets)
    ddual = dual_partition(sys22, dual)
    assert set(ddual.part_sets()) == set(cosets.part_sets())
    # same parts in possibly different order: reorder and compare matrices
    order = [ddual.part_sets().index(s) for s in cosets.part_sets()]
    realigned = IndexPartition.from_sets(
        22, [ddual.parts[i] for i in order])
    B1 = intersections(sys22, cosets)
    B2 = intersections(sys22, realigned)
    assert all(np.array_equal(a, b) for a, b in zip(B1, B2))


def test_symmetrize_and_is_symmetric(f9):
    sys8 = build_cyclotomy(f9, 8)
    part = singletons(8)
    # -1 = gamma^4, so {i} pairs with {i+4}
    assert _negation(sys8, part) == [4, 5, 6, 7, 0, 1, 2, 3]
    sym = symmetrize(sys8, part)
    assert set(sym.part_sets()) == {frozenset({i, i + 4}) for i in range(4)}
    assert symmetrize(sys8, sym).parts == sym.parts


def union_find_symmetrize(sys, partition):
    """The earlier symmetrize: a union-find over parts, where a part joins
    every part its negation image touches, so any partition goes in."""
    c = sys.minus_one_class()
    sets = [set(p) for p in partition.parts]
    parent = list(range(len(sets)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, s in enumerate(sets):
        image = {(j + c) % sys.N for j in s}
        for k, t in enumerate(sets):
            if image & t:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[max(ri, rk)] = min(ri, rk)
    groups = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), set()).update(s)
    return IndexPartition.from_sets(
        partition.N, [sorted(groups[r]) for r in sorted(groups)])


def symmetrized_is_primitive(sys, partition):
    """The earlier is_primitive: signature rows of the symmetrized partition,
    each of its relations against its own valency."""
    sym = union_find_symmetrize(sys, partition)
    rows = signature_rows(sys, sym)
    n = sys.field.p - 1
    for j, part in enumerate(sym.parts):
        block = rows[:, j * n:(j + 1) * n]
        if ((block[:, 0] == sys.M * len(part))
                & (block[:, 1:] == 0).all(axis=1)).any():
            return False
    return True


def verified_fusions(rng, sys_n, tries):
    """Every coset scheme of Z_N, then random groupings of the cosets of a
    random index-H subgroup into d = 2..5 parts that verify."""
    N = sys_n.N
    divisors = [h for h in range(1, N + 1) if N % h == 0]
    found = [coset_partition(N, H) for H in divisors]
    for _ in range(tries):
        H = int(rng.choice(divisors[1:]))
        d = int(rng.integers(2, min(H, 5) + 1))
        labels = rng.integers(0, d, size=H)
        if len(np.unique(labels)) < d:
            continue
        part = IndexPartition.from_sets(
            N, [[i for i in range(N) if labels[i % H] == k] for k in range(d)])
        if is_scheme(sys_n, part):
            found.append(part)
    return found


def test_negation_permutation_matches_union_find_oracle():
    seen = set()
    for p, f, N in [(2, 4, 15), (2, 4, 5), (2, 6, 21), (3, 2, 8), (3, 2, 4),
                    (3, 5, 22), (5, 2, 24), (7, 2, 16), (13, 1, 12)]:
        sys_n = build_cyclotomy(build_field(p, f), N)
        rng = np.random.default_rng(p * 1000 + N)
        for part in verified_fusions(rng, sys_n, 30):
            want = union_find_symmetrize(sys_n, part)
            assert symmetrize(sys_n, part).parts == want.parts
            prim = primitive(sys_n, part)
            assert prim == symmetrized_is_primitive(sys_n, part)
            report = verify_scheme(sys_n, part)
            assert report.is_primitive == prim
            # -R_i is R_i shifted by the class of -1
            c = sys_n.minus_one_class()
            assert report.is_symmetric_rel == [
                {(j + c) % sys_n.N for j in block} == set(block)
                for block in part.parts]
            # each nonsymmetric pair merges two parts into one
            assert report.nonsymmetric_pair_count == part.d - want.d
            seen.add((prim, report.nonsymmetric_pair_count > 0))
    # primitive or not, with and without a nonsymmetric pair
    assert len(seen) == 4


@pytest.mark.parametrize("parts", [
    # -1 = gamma^4: {0, 1, 2} goes to {4, 5, 6}, across {3, 4} and {5, 6, 7}
    [[0, 1, 2], [3, 4], [5, 6, 7]],
    # {0} goes to {4}, inside a larger part
    [[0], [1, 2, 3, 4, 5, 6, 7]],
])
def test_symmetrize_refuses_a_non_permuting_negation(f9, parts):
    sys8 = build_cyclotomy(f9, 8)
    part = IndexPartition.from_sets(8, parts)
    assert union_find_symmetrize(sys8, part).d == 1
    with pytest.raises(NotAScheme):
        symmetrize(sys8, part)
    with pytest.raises(NotAScheme):
        _negation(sys8, part)


def test_is_symmetric_reads_the_negation_permutation(f9):
    sys8 = build_cyclotomy(f9, 8)
    # -1 = gamma^4: {1} and {5} swap, {3} and {7} swap
    part = IndexPartition.from_sets(8, [[0, 4], [1], [5], [2, 6], [3], [7]])
    assert _negation(sys8, part) == [0, 2, 1, 3, 5, 4]
    # a partition over Z_4 read against the order-8 system
    with pytest.raises(PartitionInvalid, match="over Z_4, system over Z_8"):
        _negation(sys8, singletons(4))


def primitive(sys, partition):
    return is_primitive(eigenmatrices(sys, partition, dual_classes(sys, partition))[0])


def test_primitivity():
    f9 = build_field(3, 2)
    sys4 = build_cyclotomy(f9, 4)
    # each part {i} union {0} is a line (coset of the prime subfield): imprimitive
    assert not primitive(sys4, singletons(4))
    f13 = build_field(13, 1)
    sys1 = build_cyclotomy(f13, 1)
    assert primitive(sys1, IndexPartition.from_sets(1, [[0]]))
    sys2 = build_cyclotomy(f13, 2)
    assert primitive(sys2, singletons(2))
    sys8 = build_cyclotomy(f9, 8)
    with pytest.raises(NotAScheme):
        primitive(sys8, IndexPartition.from_sets(8, [[0, 1, 2], [3, 4], [5, 6, 7]]))


def test_check_fusion_identity(f243):
    sys11 = build_cyclotomy(f243, 11)
    fine = singletons(11)
    P_exact, _, _ = eigenmatrices(sys11, fine, dual_classes(sys11, fine))
    got = check_fusion(P_exact, [[i] for i in range(12)])
    assert got is not None
    delta, fused = got
    assert delta == [(i,) for i in range(12)]
    assert np.array_equal(fused, P_exact)


def test_check_fusion_cross_oracle(f243):
    # merging classes of the order-22 cyclotomic scheme: the fusion verdict
    # must agree with direct verification of the merged partition, and each
    # fusion's printed document checks itself (associativity, row sums and
    # the eigenvalue identity of its P_exact)
    sys22 = build_cyclotomy(f243, 22)
    fine = singletons(22)
    P_exact, _, _ = eigenmatrices(sys22, fine, dual_classes(sys22, fine))
    rng = np.random.default_rng(5)
    merges = []
    for _ in range(40):
        d = int(rng.integers(2, 6))
        labels = rng.integers(0, d, size=22)
        merges.append([np.nonzero(labels == k)[0].tolist() for k in range(d)])
    # random merges seldom verify; three fusions always do: the cosets of
    # <2> and of <11> in Z_22, and the orbits of the Galois map i -> 3i
    merges += [[list(range(i, 22, 2)) for i in range(2)],
               [[i, i + 11] for i in range(11)],
               sorted({tuple(sorted({i * 3 ** t % 22 for t in range(5)}))
                       for i in range(22)})]
    # random unions of the orbits of i -> 3i, or of i -> 3i and i -> i + 11
    # (the cosets of <11> merged by Galois), shifted by a random v: C_i ->
    # C_{i+v} is multiplication by gamma^v, so a shifted fusion is one
    orbits = [sorted({tuple(sorted({(i * 3 ** t + 11 * w) % 22
                                    for t in range(5) for w in range(k)}))
                      for i in range(22)}) for k in (1, 2)]
    for _ in range(40):
        cells = orbits[int(rng.integers(0, 2))]
        d, v = int(rng.integers(2, 4)), int(rng.integers(0, 22))
        labels = rng.integers(0, d, size=len(cells))
        merges.append([sorted((i + v) % 22 for c, l in zip(cells, labels)
                              if l == k for i in c) for k in range(d)])
    fusions = 0
    for cells in merges:
        if any(len(c) == 0 for c in cells):
            continue
        lam = [[0]] + [[int(i) + 1 for i in c] for c in cells]
        merged = IndexPartition.from_sets(22, cells)
        fused = check_fusion(P_exact, lam)
        assert (fused is not None) == is_scheme(sys22, merged)
        if fused is not None:
            fusions += 1
            report = verify_scheme(sys22, merged)
            assert np.array_equal(fused[1], report.P_exact)
            doc = json.loads(jsonio.dumps({"report": jsonio.report_to_json(report)}))
            assert check_scheme_document(doc)
    # the three above and 9 of the 28 orbit draws with no empty part
    assert fusions >= 12


def dict_check_fusion(P_exact, column_partition):
    """Oracle for check_fusion's grouping: the earlier dict keyed by each
    row's block sums as tuples of tuples, the other classes sorted."""
    P_exact = np.asarray(P_exact)
    cells = [tuple(sorted(c)) for c in column_partition]
    sums = np.stack([P_exact[:, list(c)].sum(axis=1) for c in cells], axis=1)
    sigs = [tuple(map(tuple, sig)) for sig in sums.tolist()]
    groups: dict = {}
    for r, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(r)
    if len(groups) != len(cells):
        return None
    row0_sig = sigs[0]
    if groups[row0_sig] != [0]:
        return None
    other = sorted(sig for sig in groups if sig != row0_sig)
    delta = [tuple(groups[row0_sig])] + [tuple(groups[s]) for s in other]
    return delta, np.array([row0_sig] + other, dtype=np.int64)


def test_check_fusion_matches_the_dict_grouping(f243):
    rng = np.random.default_rng(27)
    sys22 = build_cyclotomy(f243, 22)
    fine = singletons(22)
    matrices = [eigenmatrices(sys22, fine, dual_classes(sys22, fine))[0]]
    # small random matrices, whose rows often tie: fusable and not
    matrices += [rng.integers(-2, 3, size=(m, m, w))
                 for m, w in [(4, 1), (5, 2), (6, 1), (6, 3)] for _ in range(15)]
    outcomes = set()
    for P_exact in matrices:
        m = len(P_exact)
        for _ in range(20):
            d = int(rng.integers(1, m))
            labels = rng.integers(0, d, size=m - 1)
            cells = [np.nonzero(labels == k)[0] + 1 for k in range(d)]
            if any(len(c) == 0 for c in cells):
                continue
            lam = [[0]] + [c.tolist() for c in cells]
            got, want = check_fusion(P_exact, lam), dict_check_fusion(P_exact, lam)
            outcomes.add(got is not None)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert got[1].dtype == np.int64
                assert np.array_equal(got[1], want[1])
    assert outcomes == {True, False}


def test_check_fusion_malformed(f13):
    sys2 = build_cyclotomy(f13, 2)
    fine = singletons(2)
    P_exact, _, _ = eigenmatrices(sys2, fine, dual_classes(sys2, fine))
    with pytest.raises(MalformedPartition):
        check_fusion(P_exact, [[0, 1], [2]])
    with pytest.raises(MalformedPartition):
        check_fusion(P_exact, [[0], [1]])
    # an empty cell sums to zero in every row: it used to read as a
    # refutation of the fusable merge around it
    for cells in ([[0], [], [1, 2]], [[0], [1, 2], []], [[0], [1], [2], []]):
        with pytest.raises(MalformedPartition):
            check_fusion(P_exact, cells)


def test_brute_force_verify_direct(f13):
    sys2 = build_cyclotomy(f13, 2)
    rels = partition_to_relations(f13, sys2, singletons(2))
    assert brute_force_verify(f13, rels)
    # splitting gamma^0 off its class breaks the axioms
    squares = rels[1]
    broken = [rels[0], squares[:1], squares[1:], rels[2]]
    assert not brute_force_verify(f13, broken)


def test_brute_force_verify_errors(f13):
    big = build_field(5, 7)
    with pytest.raises(TooLargeForOracle):
        brute_force_verify(big, [np.arange(big.q)])
    with pytest.raises(PartitionInvalid):
        brute_force_verify(f13, [np.arange(5)])


def test_verify_report_fields(sys28, f37_cubed):
    # the index-4 cyclotomic scheme over F_{37^3}
    sys4 = build_cyclotomy(f37_cubed, 4)
    rep = verify_scheme(sys4, singletons(4))
    assert rep.is_scheme and rep.d == 4
    assert rep.valencies == [12663] * 4
    assert rep.nonsymmetric_pair_count == 2  # q = 5 mod 8: skew-symmetric
    assert rep.is_primitive
    assert np.abs(rep.P_complex @ rep.Q_complex - 50653 * np.eye(5)).max() < 1e-6
