import numpy as np
import pytest

from scheme_forge import scheme_core
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import (BudgetExceeded, MalformedPartition,
                                 NotAScheme, PartitionInvalid,
                                 TooLargeForOracle)
from scheme_forge.finite_field import build_field
from scheme_forge.scheme_core import (_CELL_BYTES, ORACLE_CAP,
                                      IndexPartition, _group_rows,
                                      _signature_rows, _trace_sums,
                                      brute_force_verify, check_fusion,
                                      dual_classes, dual_partition,
                                      eigenmatrices, intersection_numbers,
                                      is_primitive, is_scheme, is_symmetric,
                                      krein_parameters, symmetrize,
                                      verify_scheme)

from conftest import partition_to_relations, traced_peak


def singletons(N):
    return IndexPartition.from_sets(N, [[i] for i in range(N)])


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
    B = intersection_numbers(sys2, part, dual_classes(sys2, part))
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


def test_intersection_numbers_requires_scheme(f9):
    sys8 = build_cyclotomy(f9, 8)
    bad = IndexPartition.from_sets(8, [[0, 1, 2], [3, 4], [5, 6, 7]])
    classes = dual_classes(sys8, bad)
    with pytest.raises(NotAScheme):
        intersection_numbers(sys8, bad, classes)
    # the exact divisibility checks reject it even past the verdict, on
    # classes forged to claim d of them
    _, parts, uniq = classes
    with pytest.raises(NotAScheme):
        intersection_numbers(sys8, bad, (bad.d, parts, uniq))


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
    for got, want in zip(intersection_numbers(sys_n, part,
                                              dual_classes(sys_n, part)),
                         element_intersection_numbers(field, sys_n, part),
                         strict=True):
        assert np.array_equal(got, want)
    dual = dual_partition(sys_n, part)
    for got, want in zip(krein_parameters(sys_n, part),
                         element_intersection_numbers(field, sys_n, dual),
                         strict=True):
        assert np.array_equal(got, want)


def gathered_signature_rows(sys, partition):
    """The earlier table: each part's (N, |part|, p - 1) gather of period
    rows, summed, and the parts' sums side by side."""
    a = np.arange(sys.N)
    return np.concatenate(
        [sys.period_matrix[(a[:, None] + np.asarray(part)) % sys.N].sum(axis=1)
         for part in partition.parts], axis=1)


@pytest.mark.parametrize("p,f,N,H", COSET_CASES)
def test_signature_rows_match_the_gather(p, f, N, H):
    sys_n = build_cyclotomy(build_field(p, f), N)
    part = coset_partition(N, H)
    assert np.array_equal(_signature_rows(sys_n, part),
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
            assert np.array_equal(_signature_rows(sys_n, part),
                                  gathered_signature_rows(sys_n, part))


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
    build = scheme_core._signature_rows
    monkeypatch.setattr(scheme_core, "_signature_rows",
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
    sig[:, 1:, :p - 1] = _signature_rows(sys, partition).reshape(N, K - 1, p - 1)
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
    # classes forged to claim d of them, so a non-scheme gets past the
    # verdict to the sums and their divisibility checks
    _, parts, uniq = dual_classes(sys_n, part)
    forged = (part.d, parts, uniq)
    acc, _ = _trace_sums(sys_n, part, forged)
    assert np.array_equal(acc, full_row_trace_sums(sys_n, part))
    try:
        want = full_row_intersection_numbers(sys_n, part)
    except NotAScheme:
        with pytest.raises(NotAScheme):
            intersection_numbers(sys_n, part, forged)
        return False
    got = intersection_numbers(sys_n, part, forged)
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
    B = intersection_numbers(sys2, part, dual_classes(sys2, part))
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
    B1 = intersection_numbers(sys22, cosets, dual_classes(sys22, cosets))
    B2 = intersection_numbers(sys22, realigned,
                              dual_classes(sys22, realigned))
    assert all(np.array_equal(a, b) for a, b in zip(B1, B2))


def test_symmetrize_and_is_symmetric(f9):
    sys8 = build_cyclotomy(f9, 8)
    part = singletons(8)
    # -1 = gamma^4, so {i} pairs with {i+4}
    assert not is_symmetric(sys8, part, 0)
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
    rows = _signature_rows(sys, sym)
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
            prim = is_primitive(sys_n, part, dual_classes(sys_n, part))
            assert prim == symmetrized_is_primitive(sys_n, part)
            report = verify_scheme(sys_n, part)
            assert report.is_primitive == prim
            assert report.is_symmetric_rel == [is_symmetric(sys_n, part, i)
                                               for i in range(part.d)]
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
        is_symmetric(sys8, part, 0)


def test_is_symmetric_reads_the_negation_permutation(f9):
    sys8 = build_cyclotomy(f9, 8)
    # -1 = gamma^4: {1} and {5} swap, {3} and {7} swap
    part = IndexPartition.from_sets(8, [[0, 4], [1], [5], [2, 6], [3], [7]])
    assert [is_symmetric(sys8, part, i) for i in range(6)] == [
        True, False, False, True, False, False]
    # a partition over Z_4 read against the order-8 system
    with pytest.raises(PartitionInvalid, match="over Z_4, system over Z_8"):
        is_symmetric(sys8, singletons(4), 0)


def primitive(sys, partition):
    return is_primitive(sys, partition, dual_classes(sys, partition))


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
    # must agree with direct verification of the merged partition
    sys22 = build_cyclotomy(f243, 22)
    fine = singletons(22)
    P_exact, _, _ = eigenmatrices(sys22, fine, dual_classes(sys22, fine))
    rng = np.random.default_rng(5)
    agree_true = 0
    for _ in range(40):
        d = int(rng.integers(2, 6))
        labels = rng.integers(0, d, size=22)
        cells = [np.nonzero(labels == k)[0] for k in range(d)]
        if any(len(c) == 0 for c in cells):
            continue
        lam = [[0]] + [[int(i) + 1 for i in c] for c in cells]
        merged = IndexPartition.from_sets(22, [c.tolist() for c in cells])
        fused = check_fusion(P_exact, lam)
        direct = is_scheme(sys22, merged)
        assert (fused is not None) == direct
        if fused is not None:
            agree_true += 1
            _, fused_P = fused
            own_P, _, _ = eigenmatrices(sys22, merged, dual_classes(sys22, merged))
            assert np.array_equal(fused_P, own_P)
    # subgroup-coset fusions always succeed; add one to guarantee a positive case
    lam = [[0]] + [[1 + i + 2 * j for j in range(11)] for i in range(2)]
    assert check_fusion(P_exact, lam) is not None


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
