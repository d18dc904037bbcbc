"""The scan kernel against its per-leaf oracle."""

import numpy as np
import pytest

from scheme_forge import _kernels
from scheme_forge.errors import BudgetExceeded, PreconditionViolated
from scheme_forge.search import _stirling2, exhaustive_nonexistence

from conftest import search_prefixes
from oracles import trace_partition


def _search_setup(p):
    N = 2 * (p + 1)
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    for i in ts:
        sden[i] = 1
    for i in tn:
        sden[i] = -1
    return N, t0, sden


def _rgs(labels):
    """Relabel in order of first occurrence (restricted growth string)."""
    seen = {}
    return [seen.setdefault(l, len(seen)) for l in labels]


def _leaf_codes(a, N, j1s, j2s, sden, p):
    """The packed signature code of every character of the labelling ``a``."""
    nblocks = max(a) + 1
    codes = []
    for c in range(N):
        dd = [0] * nblocks
        for j in range(N):
            dd[a[j]] += int(sden[(j + c) % N])
        code = 0
        for l in range(nblocks):
            c0 = (a[j1s[c]] == l) + (a[j2s[c]] == l)
            code = code * 4096 + c0 * 1024 + dd[l] + p
        codes.append(code)
    return codes


def _loop_kernel(prefix, N, dmin, dmax, half, j1s, j2s, sden, p,
                 require_nonsym, counts):
    """The scan as a per-leaf loop in plain Python, the kernel's oracle.

    Visits every restricted-growth completion of ``prefix``, the labels of
    the positions 0, 1, ..., N-1 in turn, adds its block count to
    ``counts`` and returns the survivors.
    """
    P = len(prefix)
    a = [int(x) for x in prefix] + [0] * (N - P)
    mx = []
    for x in a:
        mx.append(max(x, mx[-1]) if mx else x)
    found = []
    while True:
        nblocks = mx[-1] + 1
        counts[nblocks] += 1
        if (dmin <= nblocks <= dmax and
                (not require_nonsym or
                 any(a[j] != a[(j + half) % N] for j in range(N))) and
                len(set(_leaf_codes(a, N, j1s, j2s, sden, p))) == nblocks):
            found.append(tuple(a))
        # advance the odometer over the positions P..N-1
        k = N - 1
        while k >= P and a[k] == min(mx[k - 1] + 1, dmax - 1):
            k -= 1
        if k < P:
            return found
        a[k] += 1
        mx[k] = max(a[k], mx[k - 1])
        for t in range(k + 1, N):
            a[t], mx[t] = 0, mx[k]


def _compare(prefixes, N, t0, sden, p, require_nonsym, dmax=4):
    """Counts and survivors of the kernel and of the loop oracle, one call
    of each per prefix."""
    j1s = [(t0[0] - c) % N for c in range(N)]
    j2s = [(t0[1] - c) % N for c in range(N)]
    kernel = np.zeros(dmax + 2, dtype=np.int64)
    oracle = np.zeros(dmax + 2, dtype=np.int64)
    got, want = set(), set()
    for pre in prefixes:
        rows = _kernels.search_chunk(pre, N, 3, dmax, N // 2, t0, sden, p,
                                     require_nonsym, kernel)
        got |= {tuple(r) for r in rows.tolist()}
        want |= set(_loop_kernel(pre, N, 3, dmax, N // 2, j1s, j2s, sden, p,
                                 require_nonsym, oracle))
    assert kernel.tolist() == oracle.tolist()
    assert got == want
    return kernel, got


@pytest.mark.parametrize("dmax", [3, 4])
@pytest.mark.parametrize("require_nonsym", [True, False])
def test_numpy_scan_matches_loop_kernel_p3(dmax, require_nonsym):
    p = 3
    N, t0, sden = _search_setup(p)
    counts, _ = _compare(search_prefixes(dmax, 4), N, t0, sden,
                         p, require_nonsym, dmax)
    # every partition of Z_8 into at most dmax parts, once
    assert counts.tolist() == [0] + [_stirling2(N, k)
                                     for k in range(1, dmax + 1)] + [0]


def _extensions(pre, depth, dmax=4):
    """Every restricted-growth extension of ``pre`` to ``depth`` labels."""
    out = [list(pre)]
    for _ in range(depth - len(pre)):
        out = [x + [lab] for x in out
               for lab in range(min(max(x) + 1, dmax - 1) + 1)]
    return [np.array(x, dtype=np.int8) for x in out]


@pytest.mark.parametrize("require_nonsym", [True, False])
def test_numpy_scan_matches_loop_kernel_p7(require_nonsym):
    p = 7
    N, t0, sden = _search_setup(p)
    _, ts, _ = trace_partition(p)
    trace = _rgs([0 if i in t0 else 1 if i in ts else 2 for i in range(N)])
    # every completion of the trace partition's first 10 labels
    _, survivors = _compare(_extensions(trace[:10], 12), N, t0, sden, p,
                            require_nonsym)
    # the trace partition (T_0, T_s, T_n) is a nonsymmetric scheme
    assert tuple(trace) in survivors


def test_search_chunk_needs_t0_opposite_pair():
    p = 3
    N, t0, sden = _search_setup(p)
    counts = np.zeros(6, dtype=np.int64)
    with pytest.raises(PreconditionViolated):
        _kernels.search_chunk(np.zeros(4, dtype=np.int8), N, 3, 4, N // 2,
                              (t0[0], t0[0] + 1), sden, p, True, counts)


def test_numpy_scan_raises_before_building_an_oversized_table(monkeypatch):
    N, P, dmax = 24, 9, 4
    counts = np.zeros(dmax + 2, dtype=np.int64)

    def no_allocation(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(_kernels, "_completions", no_allocation)
    # the budget is checked before anything else, t0_positions included
    with pytest.raises(BudgetExceeded):
        _kernels.search_chunk(np.zeros(P, dtype=np.int8), N, 3, dmax, N // 2,
                              (0, 1), np.ones(N, dtype=np.int64), 11, True,
                              counts)
    assert not counts.any()


@pytest.mark.parametrize("dmax", [3, 4])
def test_closure_returns_every_loop_kernel_scheme_p3(dmax):
    # the per-leaf oracle over every partition of Z_8 into 3..dmax parts
    p = 3
    N, t0, sden = _search_setup(p)
    j1s = [(t0[0] - c) % N for c in range(N)]
    j2s = [(t0[1] - c) % N for c in range(N)]
    counts = np.zeros(dmax + 2, dtype=np.int64)
    leaves = set()
    for pre in search_prefixes(dmax, 1):
        leaves |= set(_loop_kernel(pre, N, 3, dmax, N // 2, j1s, j2s, sden, p,
                                   False, counts))
    result = exhaustive_nonexistence(p, dmax, allow_symmetric=True)
    closed = {tuple(_rgs(_labels(part, N))) for part in result.schemes_found}
    assert {tuple(_rgs(a)) for a in leaves} == closed
    assert counts.tolist() == result.counts_by_classes


def _labels(part, N):
    labels = [0] * N
    for k, block in enumerate(part.parts):
        for i in block:
            labels[i] = k
    return labels


def test_prefix_enumeration_is_partition_complete():
    # prefixes of depth 4 with <= 4 labels, extended freely, cover all RGS
    prefixes = search_prefixes(4, 4)
    as_tuples = {tuple(p) for p in prefixes}
    assert len(as_tuples) == len(prefixes)
    for pre in as_tuples:
        assert pre[0] == 0
        for j in range(1, 4):
            assert pre[j] <= min(max(pre[:j]) + 1, 3)
