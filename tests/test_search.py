import dataclasses
import functools
import itertools
import time

import numpy as np
import pytest

from scheme_forge import _kernels, cyclotomy, scheme_core, search
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import (BUDGET, BudgetExceeded, FieldTooLarge,
                                 PreconditionViolated)
from scheme_forge.finite_field import build_field, is_prime
from scheme_forge.scheme_core import (IndexPartition, dual_classes,
                                      eigenmatrices, is_primitive, is_scheme,
                                      signature_counts)
from scheme_forge.search import exhaustive_nonexistence

import oracles
from conftest import partition_to_relations, search_prefixes, traced_peak
from oracles import brute_force_verify, trace_partition, ts_identity_check


def stirling2(n, k):
    S = [[0] * (k + 1) for _ in range(n + 1)]
    S[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return S[n][k]


# --- trace partition and identities -----------------------------------------------

@pytest.mark.parametrize("p", [3, 7, 11])
def test_trace_partition_structure(p):
    t0, ts, tn = trace_partition(p)
    N = 2 * (p + 1)
    assert (len(t0), len(ts), len(tn)) == (2, p, p)
    assert set(t0) == {(p + 1) // 2, 3 * (p + 1) // 2}
    assert {(i + p + 1) % N for i in ts} == set(tn)
    # reference: each trace of the whole m-sequence sorted by its residue
    # character, one index at a time
    classes = ([], [], [])
    for i, t in enumerate(build_field(p, 2).trace_sequence[:N].tolist()):
        classes[0 if t == 0 else 1 if pow(t, (p - 1) // 2, p) == 1 else 2].append(i)
    assert (t0, ts, tn) == tuple(map(tuple, classes))


@pytest.mark.parametrize("p", [3, 7, 11])
def test_zero_trace_classes_have_full_period(p):
    field = build_field(p, 2)
    sys_n = build_cyclotomy(field, 2 * (p + 1))
    t0, _, _ = trace_partition(p)
    for i in t0:
        assert sys_n.period_matrix[i].tolist() == [(p - 1) // 2] + [0] * (p - 2)


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_three_valued_structure(p):
    # the period of a class is (p - 1)/2 on T_0, and one of two distinct
    # values on T_s and on T_n
    rows = build_cyclotomy(build_field(p, 2), 2 * (p + 1)).period_matrix
    values = [{tuple(rows[i].tolist()) for i in t}
              for t in trace_partition(p)]
    assert values[0] == {((p - 1) // 2,) + (0,) * (p - 2)}
    assert len(values[1]) == len(values[2]) == 1
    assert values[1] != values[2]


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31])
def test_ts_identity(p):
    assert ts_identity_check(p)


@pytest.mark.parametrize("p", [7, 11, 19])
def test_ts_identity_fails_after_any_swap(p, monkeypatch):
    # trading any one square-trace index for a nonsquare-trace one breaks
    # the identity (at p = 3 one trade gives another difference set)
    t0, ts, tn = trace_partition(p)
    for i in range(p):
        for j in range(p):
            swapped = ts[:i] + (tn[j],) + ts[i + 1:]
            monkeypatch.setattr(oracles, "trace_partition",
                                lambda _, s=swapped: (t0, s, tn))
            assert not ts_identity_check(p), (i, j)


def test_trace_partition_domain():
    with pytest.raises(PreconditionViolated):
        trace_partition(5)


def test_trace_partition_refuses_a_huge_prime_at_once():
    # 2^61 - 1 is a prime = 3 (mod 4): q = p^2 is refused before p is
    # trial-divided
    t0 = time.perf_counter()
    with pytest.raises(FieldTooLarge):
        trace_partition(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("p", [p for p in range(3, 200, 4) if is_prime(p)])
def test_trace_partition_reads_the_trace_sequence(p):
    # zero / square / nonsquare trace, read off the whole m-sequence
    s = build_field(p, 2).trace_sequence[:2 * (p + 1)].tolist()
    kind = [0 if t == 0 else 1 if pow(t, (p - 1) // 2, p) == 1 else 2
            for t in s]
    assert trace_partition(p) == tuple(
        tuple(i for i, k in enumerate(kind) if k == want) for want in range(3))


@functools.lru_cache(maxsize=None)
def _system(p):
    """The order-2(p+1) periods of F_{p^2}, built once per p."""
    return build_cyclotomy(build_field(p, 2), 2 * (p + 1))


def _trace_code_matrix(p):
    """The search's code matrix E from the trace partition: sden is +1 on
    T_s, -1 on T_n and 0 on T_0 by Euler's criterion on the traces."""
    _, ts, tn = trace_partition(p)
    N = 2 * (p + 1)
    sden = np.zeros(N, dtype=np.int64)
    sden[list(ts)] = 1
    sden[list(tn)] = -1
    j = np.arange(N)
    s = (j[:, None] + j[None, :]) % N
    return sden[s] + 1024 * (sden[s] == 0)


@pytest.mark.parametrize("p", [p for p in range(3, 264, 4) if is_prime(p)])
def test_code_matrix_reads_the_trace_partition_off_the_periods(p):
    # the xi_p coefficient of eta_i is +1 / -1 / 0 on T_s / T_n / T_0
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    E = search._code_matrix(sys_n)
    assert E.dtype == np.int64
    assert np.array_equal(E, _trace_code_matrix(p))
    # the transpose shift the nonsymmetry filter reads is N/2 here
    assert sys_n.minus_one_class() == p + 1


@pytest.mark.parametrize("forge", ["one entry off", "zero column"])
def test_code_matrix_refuses_periods_off_the_three_values(forge):
    # the xi_p column must be 0 twice, +1 p times and -1 p times
    sys_n = _system(7)
    pm = sys_n.period_matrix.copy()
    if forge == "one entry off":
        pm[0, 1] += 1
    else:
        pm[:, 1] = 0
    with pytest.raises(PreconditionViolated, match="unexpected sizes"):
        search._code_matrix(dataclasses.replace(sys_n, period_matrix=pm))


def test_search_reads_one_system_and_no_trace_partition(monkeypatch):
    # the closure's code matrix and the recheck read the same periods; the
    # trace partition is the tests' oracle only
    built, read = [], []

    def counting_build(field, N):
        built.append(build_cyclotomy(field, N))
        return built[-1]

    def no_trace_partition(p):
        raise AssertionError("the search called trace_partition")

    def reading(name, fn):
        def wrapper(sys_n, *args):
            read.append((name, sys_n))
            return fn(sys_n, *args)
        monkeypatch.setattr(search, name, wrapper)

    monkeypatch.setattr(search, "build_cyclotomy", counting_build)
    monkeypatch.setattr(oracles, "trace_partition", no_trace_partition)
    reading("_code_matrix", search._code_matrix)
    reading("signature_counts", search.signature_counts)
    result = exhaustive_nonexistence(7, allow_symmetric=True)
    assert len(result.schemes_found) == 2691
    assert len(built) == 1 and (built[0].field.q, built[0].N) == (49, 16)
    assert {name for name, _ in read} == {"_code_matrix", "signature_counts"}
    assert all(sys_n is built[0] for _, sys_n in read)


# --- the exhaustive scan ------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
def test_enumeration_matches_stirling(N):
    # every leaf of the kernel enumerator, counted by block count; no row
    # has N + 1 parts, so none survives
    counts = np.zeros(6, dtype=np.int64)
    for prefix in search_prefixes(4, min(4, N - 1)):
        _kernels.search_chunk(prefix, N, N + 1, 4, N // 2, (0, N // 2),
                              np.zeros(N, dtype=np.int64), 3, False, counts)
    counts = counts.tolist()
    assert counts == [0] + [stirling2(N, k) for k in range(1, 5)] + [0]
    if N == 8:
        assert counts[3:5] == [966, 1701]


def test_p3_nonexistence():
    result = exhaustive_nonexistence(3)
    assert result.candidates_checked == 966 + 1701
    assert result.schemes_found == []


def test_p3_sanity_mode_finds_schemes():
    result = exhaustive_nonexistence(3, allow_symmetric=True)
    assert len(result.schemes_found) >= 1
    field = build_field(3, 2)
    sys8 = build_cyclotomy(field, 8)
    for part in result.schemes_found:
        assert is_scheme(sys8, part)
        assert brute_force_verify(field,
                                  partition_to_relations(field, sys8, part))
    # the four-lines partition is among them
    lines = tuple(tuple((i, i + 4)) for i in range(4))
    assert any(set(p.part_sets()) ==
               {frozenset(x) for x in lines} for p in result.schemes_found)


def test_progress_reports_closure_phases():
    seen = []
    result = exhaustive_nonexistence(3, allow_symmetric=True,
                                     progress=seen.append)
    # two-block masks, two rounds of meets, then the exact recheck
    assert [s.phase for s in seen] == ["two-block", "meets", "meets",
                                       "recheck"]
    assert all(s.done == s.total and s.elapsed_s >= 0 for s in seen)
    assert seen[0].total == 2 ** 7
    assert seen[-1].total == len(result.schemes_found) == 19


@pytest.mark.parametrize("p,dmax,allow_symmetric,survivors", [
    (3, 4, True, 19),
    (7, 4, False, 24),  # each one tested for primitivity too
    (7, 4, True, 2691),  # 11 batches
])
def test_recheck_builds_no_signature_table_per_survivor(
        monkeypatch, p, dmax, allow_symmetric, survivors):
    # the survivors are rechecked as label rows in batches, never one
    # IndexPartition at a time through the verify path
    def per_survivor(*args):
        raise AssertionError("the search called the per-survivor path")

    for name in ("dual_classes", "is_primitive"):
        monkeypatch.setattr(scheme_core, name, per_survivor)
        assert not hasattr(search, name)
    batches = []
    sums = scheme_core._signature_sums
    monkeypatch.setattr(scheme_core, "_signature_sums", lambda sys, labels, *rest:
                        batches.append(len(labels)) or sums(sys, labels, *rest))
    seen = []
    exhaustive_nonexistence(p, dmax, allow_symmetric, progress=seen.append)
    assert seen[-1].phase == "recheck" and seen[-1].total == survivors
    # one kernel call a batch
    batch = search._RECHECK_BATCH
    assert batches == [min(batch, survivors - r0)
                       for r0 in range(0, survivors, batch)]


@pytest.mark.parametrize("p,dmax,allow_symmetric", [
    (3, 4, True), (7, 3, True), (7, 4, False)])
def test_recheck_batches_split_orbits(monkeypatch, p, dmax, allow_symmetric):
    # batches of 7 rows split orbits and mix 3- and 4-part rows; the result
    # is the one-batch result, reported once a batch
    whole = exhaustive_nonexistence(p, dmax, allow_symmetric)
    monkeypatch.setattr(search, "_RECHECK_BATCH", 7)
    seen = []
    split = exhaustive_nonexistence(p, dmax, allow_symmetric,
                                    progress=seen.append)
    assert split.schemes_found == whole.schemes_found
    done = [s.done for s in seen if s.phase == "recheck"]
    total = seen[-1].total
    assert done == [min(n, total) for n in range(7, total + 7, 7)]


def test_recheck_refuses_a_forged_non_scheme(monkeypatch):
    # {0, 1} | {2, 3} | {4..7} over Z_8 is no scheme: the closure and the
    # exact recheck disagree, which raises
    closed = search._closed_schemes
    forged = np.array([[0, 0, 1, 1, 2, 2, 2, 2]], dtype=np.int8)
    sys8 = build_cyclotomy(build_field(3, 2), 8)
    assert not is_scheme(sys8, search._canonical(forged[0], 8))
    monkeypatch.setattr(search, "_closed_schemes", lambda *args: np.concatenate(
        (closed(*args)[:5], forged)))
    with pytest.raises(PreconditionViolated, match="closure bug"):
        exhaustive_nonexistence(3, allow_symmetric=True)


def test_recheck_of_no_survivors(monkeypatch):
    seen = []
    monkeypatch.setattr(search, "_closed_schemes",
                        lambda *args: np.zeros((0, 8), dtype=np.int8))
    result = exhaustive_nonexistence(3, progress=seen.append)
    assert result.schemes_found == []
    assert result.candidates_checked == 966 + 1701
    assert not [s for s in seen if s.phase == "recheck"]


def _oracle(sys_n, row):
    """(distinct signature rows, primitive) of one label row, through the
    per-partition verify path."""
    part = search._canonical(row, sys_n.N)
    classes = dual_classes(sys_n, part)
    return classes[0], classes[0] == part.d and is_primitive(
        eigenmatrices(sys_n, part, classes)[0])


@functools.lru_cache(maxsize=None)
def _closed(p, dmax, nonsymmetric):
    return search._closed_schemes(_system(p), dmax, nonsymmetric, _quiet)


@pytest.mark.parametrize("p,dmax", [(3, 3), (3, 4), (7, 3), (7, 4)])
@pytest.mark.parametrize("nonsymmetric", [False, True])
def test_signature_counts_match_the_verify_path(p, dmax, nonsymmetric):
    N = 2 * (p + 1)
    sys_n = build_cyclotomy(build_field(p, 2), N)
    rows = _closed(p, dmax, nonsymmetric)
    distinct, primitive = signature_counts(sys_n, rows, dmax)
    want = [_oracle(sys_n, row) for row in rows]
    assert distinct.tolist() == [c for c, _ in want]
    assert primitive.tolist() == [prim for _, prim in want]
    assert (distinct == rows.max(axis=1) + 1).all()


def test_signature_counts_match_the_verify_path_at_p11():
    # a fixed sample of the 86,550 three-class schemes
    sys_n = build_cyclotomy(build_field(11, 2), 24)
    rng = np.random.default_rng(11)
    rows = _closed(11, 3, False)[rng.choice(86550, 300, replace=False)]
    distinct, primitive = signature_counts(sys_n, rows, 3)
    want = [_oracle(sys_n, row) for row in rows]
    assert distinct.tolist() == [c for c, _ in want]
    assert primitive.tolist() == [prim for _, prim in want]
    assert 0 < primitive.sum() < len(rows)


def test_signature_counts_of_non_schemes():
    # random label rows over Z_16, most of them no scheme, some with an
    # empty part: the counts are dual_classes' counts
    sys16 = build_cyclotomy(build_field(7, 2), 16)
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 4, size=(200, 16)).astype(np.int8)
    rows[:50] %= 3
    distinct, _ = signature_counts(sys16, rows, 4)
    assert distinct.tolist() == [dual_classes(sys16, IndexPartition.from_sets(
        16, [np.flatnonzero(row == l) for l in np.unique(row)]))[0]
        for row in rows]
    assert (distinct != rows.max(axis=1) + 1).any()


@pytest.mark.parametrize("p,dmax", [(7, 4), (11, 3)])
def test_signature_counts_charge_bounds_the_peak(monkeypatch, p, dmax):
    # a full batch's traced peak stays below what the budget check charges
    rows = _closed(p, dmax, False)[:search._RECHECK_BATCH]
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    charged = []
    monkeypatch.setattr(cyclotomy, "check_budget",
                        lambda need, what: charged.append(need))
    _, peak = traced_peak(lambda: signature_counts(sys_n, rows, dmax))
    assert len(rows) == search._RECHECK_BATCH
    assert peak <= charged[0], (peak, charged)


def test_oversized_signature_counts_raise_before_allocating():
    # 2^32 rows over Z_24, views of one row: ~150 TiB charged, and less
    # traced than half a (24, 24, 10) int64 array
    sys_n = build_cyclotomy(build_field(11, 2), 24)
    rows = np.broadcast_to(np.zeros(24, dtype=np.int8), (1 << 32, 24))

    def call():
        with pytest.raises(BudgetExceeded,
                           match="signature sums of 4294967296 partitions"):
            signature_counts(sys_n, rows, 4)

    _, peak = traced_peak(call)
    assert peak < 24 * 24 * 10 * 8 // 2, peak


def test_p3_max_classes_3():
    result = exhaustive_nonexistence(3, max_classes=3)
    assert result.candidates_checked == 966
    assert result.schemes_found == []


def test_budget_guards(monkeypatch):
    with pytest.raises(PreconditionViolated):
        exhaustive_nonexistence(5)
    # p = 11 fits the budget; p = 19 (N = 40, 2^39 two-block partitions)
    # raises before the periods, the code matrix or any mask is built
    assert search.closure_bytes(24) < BUDGET
    assert search.closure_bytes(40) > BUDGET

    def no_allocation(*args):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(search, "build_cyclotomy", no_allocation)
    monkeypatch.setattr(search, "_code_matrix", no_allocation)
    monkeypatch.setattr(search, "_bit_tables", no_allocation)
    with pytest.raises(BudgetExceeded, match="Z_40 needs"):
        exhaustive_nonexistence(19)


def test_budget_is_decided_before_primality(monkeypatch):
    # 2^61 - 1 = 3 (mod 4): refused from N alone, neither trial-divided nor
    # sized through 2^(N - 1)
    def no_trial_division(n):
        raise AssertionError("trial-divided before the budget check")

    monkeypatch.setattr(search, "is_prime", no_trial_division)
    with pytest.raises(BudgetExceeded,
                       match=f"Z_{2 ** 62} needs more than"):
        exhaustive_nonexistence(2 ** 61 - 1)


def test_survivors_over_budget_raise_before_the_recheck(monkeypatch):
    # 19 schemes at p = 3 with the filters off; the budget holds 10
    monkeypatch.setattr(search, "_SURVIVOR_BYTES", BUDGET // 10)
    monkeypatch.setattr(search, "signature_counts", None)
    with pytest.raises(BudgetExceeded, match="reporting 19 schemes"):
        exhaustive_nonexistence(3, allow_symmetric=True)


def test_p11_three_classes_finds_nothing():
    seen = []
    result = exhaustive_nonexistence(11, max_classes=3, progress=seen.append)
    # 24 nonsymmetric closed schemes, all imprimitive
    assert seen[-1].phase == "recheck" and seen[-1].total == 24
    assert result.schemes_found == []
    assert result.candidates_checked == stirling2(24, 3) == 47063200806


# --- the closure search against the partition scan --------------------------------

@functools.lru_cache(maxsize=None)
def _scan(p, dmax):
    """Every search_chunk survivor without the nonsymmetry filter, and the
    leaf counts: one scan per (p, dmax) for the whole module."""
    N = 2 * (p + 1)
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    sden[list(ts)] = 1
    sden[list(tn)] = -1
    counts = np.zeros(dmax + 2, dtype=np.int64)
    # at most dmax^9 completions a call
    rows = [_kernels.search_chunk(pre, N, 3, dmax, N // 2, t0, sden, p,
                                  False, counts)
            for pre in search_prefixes(dmax, max(1, N - 9))]
    return np.concatenate(rows), counts.tolist()


def _scan_found(p, dmax, allow_symmetric):
    """The scan's found list: its survivors, those with some part
    I != I + N/2 unless ``allow_symmetric``, rechecked through the exact
    path as the closure's are."""
    N = 2 * (p + 1)
    rows, counts = _scan(p, dmax)
    if not allow_symmetric:
        j = np.arange(N)
        rows = rows[(rows != rows[:, (j + N // 2) % N]).any(axis=1)]
    sys_n = build_cyclotomy(build_field(p, 2), N)
    found = set()
    for row in rows:
        part = search._canonical(row, N)
        classes = dual_classes(sys_n, part)
        assert classes[0] == part.d
        if allow_symmetric or is_primitive(eigenmatrices(sys_n, part, classes)[0]):
            found.add(part)
    return found, counts


@pytest.mark.parametrize("p,dmax", [(3, 3), (3, 4), (7, 3)])
@pytest.mark.parametrize("allow_symmetric", [False, True])
def test_closure_finds_exactly_the_scan_survivors(p, dmax, allow_symmetric):
    result = exhaustive_nonexistence(p, dmax, allow_symmetric)
    found, counts = _scan_found(p, dmax, allow_symmetric)
    assert set(result.schemes_found) == found
    assert len(result.schemes_found) == len(found)
    # the Stirling counts are the scan's leaf counts
    assert result.counts_by_classes == counts
    if allow_symmetric:
        assert len(found) == {(3, 3): 14, (3, 4): 19, (7, 3): 982}[p, dmax]


def _orbit_of(mask, maps, N):
    """The normalised masks (class 0 inside) of a two-block orbit."""
    full = (1 << N) - 1
    out = set()
    for g in maps.tolist():
        image = sum(1 << g[j] for j in range(N) if mask >> j & 1)
        out.add(image if image & 1 else full ^ image)
    return out


@pytest.mark.parametrize("p,order,reps", [(3, 16, 14), (7, 32, 1101)])
def test_two_block_representatives_one_per_orbit(p, order, reps):
    N = 2 * (p + 1)
    maps = search._orbit_maps(p, N)
    assert len(maps) == order == 2 * N
    assert {tuple(g) for g in maps.tolist()} == {
        tuple((u * x + v) % N for x in range(N)) for u in (1, p)
        for v in range(N)}
    tables = search._bit_tables(maps, N)
    got = search._two_block_representatives(N, tables, 0, 2 ** (N - 1))
    assert len(got) == reps
    if N <= 8:
        orbits = {frozenset(_orbit_of(m, maps, N))
                  for m in range(1, 1 << N, 2) if m != (1 << N) - 1}
        assert sorted(min(o) for o in orbits) == sorted(got.tolist())


def _quiet(*args):
    pass


@pytest.mark.parametrize("p,dmax,count", [(3, 4, 19), (7, 3, 143),
                                          (7, 4, 151)])
def test_two_block_closures_match_closing_every_partition(p, dmax, count):
    # closing one two-block partition per orbit and mapping the closures
    # over the orbits gives what closing all 2^(N-1) - 1 of them gives
    N = 2 * (p + 1)
    E = search._code_matrix(_system(p))
    masks = np.arange(2 ** (N - 1) - 1) * 2 + 1
    labels = ((masks[:, None] >> np.arange(N)) & 1).astype(np.int8)
    every = search._distinct(search._close(labels, E, dmax))
    got = search._two_block_closures(N, search._orbit_maps(p, N), E, dmax,
                                     _quiet)
    assert len(got) == len(every) == count
    assert set(search._keys(got).tolist()) == \
        set(search._keys(every).tolist())


def test_orbit_helpers_take_no_rows():
    maps = search._orbit_maps(3, 8)
    none = np.zeros((0, 8), dtype=np.int8)
    for helper in (search._orbits, search._orbit_representatives):
        got = helper(none, maps)
        assert got.shape == (0, 8) and got.dtype == np.int8


def test_p11_closed_three_class_schemes():
    # every 3-class fusion scheme at p = 11 with the nonsymmetry filter off:
    # closure results mapped over the whole group, not the shifts alone
    assert len(_closed(11, 3, False)) == 86550


def _refines(fine, coarse):
    return all(any(set(a) <= set(b) for b in coarse.parts)
               for a in fine.parts)


@pytest.mark.parametrize("dmax", [3, 4])
def test_closure_is_the_coarsest_scheme_below(dmax):
    # every scheme refining Q refines its closure, which is itself a scheme:
    # the closure is the coarsest scheme with <= dmax classes below Q, and a
    # row is dropped exactly when there is none
    p, N = 3, 8
    sys8 = build_cyclotomy(build_field(p, 2), N)
    schemes = []
    for labels in itertools.product(range(dmax), repeat=N):
        if labels[0] == 0 and list(labels) == _rgs(labels):
            part = search._canonical(np.array(labels), N)
            if is_scheme(sys8, part):
                schemes.append(part)
    E = search._code_matrix(sys8)
    for mask in range((1 << (N - 1)) - 1):
        labels = np.array([[(2 * mask + 1) >> j & 1 for j in range(N)]],
                          dtype=np.int8)
        coarse = search._canonical(labels[0], N)
        below = [s for s in schemes if _refines(s, coarse)]
        closed = search._close(labels, E, dmax)
        if not below:
            assert len(closed) == 0
            continue
        top = search._canonical(closed[0], N)
        assert top in below
        assert all(_refines(s, top) for s in below)


def _rgs(labels):
    seen = {}
    return [seen.setdefault(l, len(seen)) for l in labels]
