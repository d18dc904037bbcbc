import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_forge import _kernels
from scheme_forge.cycint import CycInt
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.errors import BudgetExceeded, ModulusMismatch, PreconditionViolated
from scheme_forge.finite_field import build_field
from scheme_forge.scheme_core import brute_force_verify, is_scheme
from scheme_forge.search import (GroupRingElem, SearchConfig,
                                 enumeration_counts, exhaustive_nonexistence,
                                 gr_involution, gr_mul, scan_groups,
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


# --- group ring ----------------------------------------------------------------

def test_gr_basis_convolution():
    a = GroupRingElem.basis(8, 2)
    b = GroupRingElem.basis(8, 3)
    assert gr_mul(a, b) == GroupRingElem.basis(8, 5)


def test_gr_involution_involutive():
    x = GroupRingElem(6, (1, -2, 3, 0, 5, 7))
    assert gr_involution(gr_involution(x)) == x


def test_gr_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        gr_mul(GroupRingElem.basis(6, 1), GroupRingElem.basis(8, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_gr_mul_commutative(a, b):
    x = GroupRingElem(8, tuple(a))
    y = GroupRingElem(8, tuple(b))
    assert gr_mul(x, y) == gr_mul(y, x)


# --- trace partition and identities -----------------------------------------------

@pytest.mark.parametrize("p", [3, 7, 11])
def test_trace_partition_structure(p):
    t0, ts, tn = trace_partition(p)
    N = 2 * (p + 1)
    assert (len(t0), len(ts), len(tn)) == (2, p, p)
    assert set(t0) == {(p + 1) // 2, 3 * (p + 1) // 2}
    assert {(i + p + 1) % N for i in ts} == set(tn)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_zero_trace_classes_have_full_period(p):
    field = build_field(p, 2)
    sys_n = build_cyclotomy(field, 2 * (p + 1))
    t0, _, _ = trace_partition(p)
    for i in t0:
        assert sys_n.periods[i] == CycInt.integer(p, (p - 1) // 2)


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_three_valued_structure(p):
    assert ts_character_values(p)


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31])
def test_ts_identity(p):
    assert ts_identity_check(p)


def test_trace_partition_domain():
    with pytest.raises(PreconditionViolated):
        trace_partition(5)


# --- the exhaustive scan ------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 6, 8])
def test_enumeration_matches_stirling(N):
    counts = enumeration_counts(N, 4)
    assert counts == [0] + [stirling2(N, k) for k in range(1, 5)] + [0]
    if N == 8:
        assert counts[3:5] == [966, 1701]


@pytest.mark.parametrize("N", [5, 7])
def test_enumeration_needs_even_n(N):
    with pytest.raises(PreconditionViolated, match=f"even N, got N = {N}"):
        enumeration_counts(N, 4)


def test_p3_nonexistence():
    result = exhaustive_nonexistence(SearchConfig(p=3))
    assert result.candidates_checked == 966 + 1701
    assert result.schemes_found == []


def test_p3_sanity_mode_finds_schemes():
    cfg = SearchConfig(p=3, allow_symmetric=True)
    result = exhaustive_nonexistence(cfg)
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


def test_progress_reports_leaves_and_survivors():
    seen = []
    cfg = SearchConfig(p=3, allow_symmetric=True)
    result = exhaustive_nonexistence(cfg, progress=seen.append)
    last = seen[-1]
    assert last.chunks_done == last.chunks_total
    assert last.leaves == last.leaves_total == sum(result.counts_by_classes)
    assert last.checked == result.candidates_checked
    assert last.survivors >= len(result.schemes_found) >= 1


def test_failed_chunk_stops_the_scan(monkeypatch):
    # the first call fails at once, every later one returns at once: without
    # a stop, idle workers drain the queue before the error is read
    workers = 4
    monkeypatch.setenv("SCHEME_FORGE_THREADS", str(workers))
    calls = []

    def chunk(prefix, N, *args):
        calls.append(1)
        if len(calls) == 1:
            raise BudgetExceeded("first chunk")
        return np.zeros((0, N), dtype=np.int8)

    monkeypatch.setattr(_kernels, "search_chunk", chunk)
    with pytest.raises(BudgetExceeded, match="first chunk"):
        exhaustive_nonexistence(SearchConfig(p=7, max_classes=3))
    assert len(scan_groups(16, 3)) == 71
    assert len(calls) <= 2 * workers


def test_p3_max_classes_3():
    result = exhaustive_nonexistence(SearchConfig(p=3, max_classes=3))
    assert result.candidates_checked == 966
    assert result.schemes_found == []


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        exhaustive_nonexistence(SearchConfig(p=11))
    with pytest.raises(BudgetExceeded):
        exhaustive_nonexistence(SearchConfig(p=19, long_run=True))
    with pytest.raises(PreconditionViolated):
        exhaustive_nonexistence(SearchConfig(p=5))
