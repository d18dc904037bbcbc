import functools
import itertools
import time

import numpy as np
import pytest

from scheme_forge import _kernels, scheme_core, search
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import (BUDGET, BudgetExceeded, FieldTooLarge,
                                 PreconditionViolated)
from scheme_forge.finite_field import build_field, is_prime
from scheme_forge.scheme_core import (brute_force_verify, dual_classes,
                                      is_primitive, is_scheme)
from scheme_forge.search import (enumeration_counts, exhaustive_nonexistence,
                                 trace_partition, ts_character_values,
                                 ts_identity_check)

from conftest import partition_to_relations


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
    assert ts_character_values(p)


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
            monkeypatch.setattr(search, "trace_partition",
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


# --- the exhaustive scan ------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 5, 6, 7, 8])
def test_enumeration_matches_stirling(N):
    counts = enumeration_counts(N, 4)
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
])
def test_recheck_builds_one_signature_table_per_survivor(
        monkeypatch, p, dmax, allow_symmetric, survivors):
    built, seen = [], []
    build = scheme_core._signature_rows
    monkeypatch.setattr(scheme_core, "_signature_rows",
                        lambda *args: built.append(args) or build(*args))
    exhaustive_nonexistence(p, dmax, allow_symmetric, progress=seen.append)
    assert seen[-1].phase == "recheck" and seen[-1].total == survivors
    assert len(built) == survivors


def test_p3_max_classes_3():
    result = exhaustive_nonexistence(3, max_classes=3)
    assert result.candidates_checked == 966
    assert result.schemes_found == []


def test_budget_guards(monkeypatch):
    with pytest.raises(PreconditionViolated):
        exhaustive_nonexistence(5)
    # p = 11 fits the budget; p = 19 (N = 40, 2^39 two-block partitions)
    # raises before the code matrix or any mask is built
    assert search.closure_bytes(24) < BUDGET
    assert search.closure_bytes(40) > BUDGET

    def no_allocation(*args):
        raise AssertionError("allocated before the budget check")

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
    monkeypatch.setattr(search, "build_cyclotomy", None)
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
            for pre in _kernels.search_prefixes(N, dmax, max(1, N - 9))]
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
        if allow_symmetric or is_primitive(sys_n, part, classes):
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
    E = search._code_matrix(p)
    masks = np.arange(2 ** (N - 1) - 1) * 2 + 1
    labels = ((masks[:, None] >> np.arange(N)) & 1).astype(np.int8)
    every = search._distinct(search._close(labels, E, dmax))
    got = search._two_block_closures(N, search._orbit_maps(p, N), E, dmax,
                                     _quiet)
    assert len(got) == len(every) == count
    assert set(search._keys(got).tolist()) == \
        set(search._keys(every).tolist())


def test_p11_closed_three_class_schemes():
    # every 3-class fusion scheme at p = 11 with the nonsymmetry filter off:
    # closure results mapped over the whole group, not the shifts alone
    rows = search._closed_schemes(11, 3, False, _quiet)
    assert len(rows) == 86550


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
    E = search._code_matrix(p)
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
