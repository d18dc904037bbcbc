"""The scan kernel against its per-leaf oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_forge import _kernels
from scheme_forge.errors import BudgetExceeded, PreconditionViolated
from scheme_forge.search import exhaustive_nonexistence, trace_partition


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
                 require_nonsym, counts, order):
    """The scan as a per-leaf loop in plain Python, the kernel's oracle.

    Visits every restricted-growth completion of ``prefix``, the labels of
    the positions ``order[0], order[1], ...`` in turn, adds its block count
    to ``counts`` and returns the survivors in natural position order.
    """
    P = len(prefix)
    b = [int(x) for x in prefix] + [0] * (N - P)
    mx = []
    for x in b:
        mx.append(max(x, mx[-1]) if mx else x)
    found = []
    while True:
        a = [0] * N
        for k in range(N):
            a[order[k]] = b[k]
        nblocks = mx[-1] + 1
        counts[nblocks] += 1
        if (dmin <= nblocks <= dmax and
                (not require_nonsym or
                 any(a[j] != a[(j + half) % N] for j in range(N))) and
                len(set(_leaf_codes(a, N, j1s, j2s, sden, p))) == nblocks):
            found.append(tuple(a))
        # advance the odometer over the positions P..N-1
        k = N - 1
        while k >= P and b[k] == min(mx[k - 1] + 1, dmax - 1):
            k -= 1
        if k < P:
            return found
        b[k] += 1
        mx[k] = max(b[k], mx[k - 1])
        for t in range(k + 1, N):
            b[t], mx[t] = 0, mx[k]


def _compare(blocks, N, t0, sden, p, require_nonsym, dmax=4):
    """Counts and survivors of the grouped kernel, one call per block, and
    of the loop oracle, one call per prefix."""
    j1s = [(t0[0] - c) % N for c in range(N)]
    j2s = [(t0[1] - c) % N for c in range(N)]
    order = _kernels.pair_order(N).tolist()
    kernel = np.zeros(dmax + 2, dtype=np.int64)
    oracle = np.zeros(dmax + 2, dtype=np.int64)
    got, want = set(), set()
    for block in blocks:
        rows = _kernels.search_chunk(block, N, 3, dmax, N // 2, t0, sden, p,
                                     require_nonsym, kernel)
        got |= {tuple(r) for r in rows.tolist()}
        for pre in block:
            want |= set(_loop_kernel(pre, N, 3, dmax, N // 2, j1s, j2s, sden,
                                     p, require_nonsym, oracle, order))
    assert kernel.tolist() == oracle.tolist()
    assert got == want
    return kernel, got


def test_pair_order():
    assert _kernels.pair_order(8).tolist() == [0, 4, 1, 5, 2, 6, 3, 7]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 7]), st.data())
def test_distinct_codes_bound_pair_multisets(p, data):
    N, t0, sden = _search_setup(p)
    a = _rgs(data.draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)))
    j1s = [(t0[0] - c) % N for c in range(N)]
    j2s = [(t0[1] - c) % N for c in range(N)]
    codes = _leaf_codes(a, N, j1s, j2s, sden, p)
    pairs = {tuple(sorted((a[x], a[x + N // 2]))) for x in range(N // 2)}
    assert len(set(codes)) >= len(pairs)


def test_group_prefixes_share_their_key():
    prefixes = _kernels.search_prefixes(16, 4, 7)
    blocks = _kernels.group_prefixes(prefixes, 4)
    assert sum(len(b) for b in blocks) == len(prefixes)
    assert {tuple(r) for b in blocks for r in b.tolist()} == \
        {tuple(pre) for pre in prefixes}
    for b in blocks:
        key = _kernels._group_key(b, 4)
        assert (key == key[0]).all()


@pytest.mark.parametrize("P", [11, 12, 13])
def test_row_masks_count_the_pair_multisets(P):
    # the kernel's mask of a row: the prefix's whole pairs, or'd with the
    # table's masks for the prefix's split label; one bit per multiset
    N, dmax = 16, 4
    rng = np.random.default_rng(P)
    for top in range(dmax):
        tab = _kernels._suffix_table(N, P, dmax, top,
                                     bytes(8 * N * (N - P)))
        for _ in range(4):
            # random restricted growth below top, then the missing labels
            pre = [0]
            while len(pre) + top - max(pre) < P:
                pre.append(int(rng.integers(0, min(max(pre) + 1, top) + 1)))
            pre += range(max(pre) + 1, top + 1)
            pre = np.array(pre, dtype=np.int8)
            key = _kernels._group_key(pre[None], dmax)[0]
            mask = key[1] | tab.pairs[key[2]]
            for row, m in zip(tab.labels.tolist(), mask):
                full = pre.tolist() + row
                pairs = {tuple(sorted(full[k:k + 2])) for k in range(0, N, 2)}
                assert int(m).bit_count() == len(pairs)


@pytest.mark.parametrize("dmax", [3, 4])
@pytest.mark.parametrize("require_nonsym", [True, False])
def test_numpy_scan_matches_loop_kernel_p3(dmax, require_nonsym):
    p = 3
    N, t0, sden = _search_setup(p)
    prefixes = _kernels.search_prefixes(N, dmax, 4)
    blocks = _kernels.group_prefixes(prefixes, dmax)
    assert len(blocks) < len(prefixes)
    counts, _ = _compare(blocks, N, t0, sden, p, require_nonsym, dmax)
    assert counts.sum() == sum(
        _kernels.completion_count(N - 4, dmax, int(pre.max()))
        for pre in prefixes)


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
    trace = [0 if i in t0 else 1 if i in ts else 2 for i in range(N)]
    trace_pairs = _rgs([trace[x] for x in _kernels.pair_order(N)])
    survivors = set()
    # an even and an odd prefix length: the odd one splits a pair
    for depth in (12, 13):
        blocks = _kernels.group_prefixes(
            _extensions(trace_pairs[:10], depth), 4)
        assert max(len(b) for b in blocks) > 1
        survivors |= _compare(blocks, N, t0, sden, p, require_nonsym)[1]
    # the trace partition (T_0, T_s, T_n) is a nonsymmetric scheme
    assert tuple(_rgs(trace)) in {tuple(_rgs(r)) for r in survivors}


def test_search_chunk_needs_t0_opposite_pair():
    p = 3
    N, t0, sden = _search_setup(p)
    counts = np.zeros(6, dtype=np.int64)
    with pytest.raises(PreconditionViolated):
        _kernels.search_chunk(np.zeros(4, dtype=np.int8), N, 3, 4, N // 2,
                              (t0[0], t0[0] + 1), sden, p, True, counts)


def test_search_chunk_rejects_a_mixed_block():
    p = 3
    N, t0, sden = _search_setup(p)
    counts = np.zeros(6, dtype=np.int64)
    block = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.int8)
    with pytest.raises(PreconditionViolated):
        _kernels.search_chunk(block, N, 3, 4, N // 2, t0, sden, p, True,
                              counts)


def test_numpy_scan_raises_before_building_an_oversized_table():
    N, P, dmax = 24, 9, 4
    counts = np.zeros(dmax + 2, dtype=np.int64)
    tables = _kernels._suffix_table.cache_info().currsize
    # the budget is checked before anything else, t0_positions included
    with pytest.raises(BudgetExceeded):
        _kernels.search_chunk(np.zeros(P, dtype=np.int8), N, 3, dmax, N // 2,
                              (0, 1), np.zeros(N, dtype=np.int64), 11, True,
                              counts)
    assert not counts.any()
    assert _kernels._suffix_table.cache_info().currsize == tables


@pytest.mark.parametrize("dmax", [3, 4])
def test_closure_returns_every_loop_kernel_scheme_p3(dmax):
    # the per-leaf oracle over every partition of Z_8 into 3..dmax parts
    p = 3
    N, t0, sden = _search_setup(p)
    j1s = [(t0[0] - c) % N for c in range(N)]
    j2s = [(t0[1] - c) % N for c in range(N)]
    order = _kernels.pair_order(N).tolist()
    counts = np.zeros(dmax + 2, dtype=np.int64)
    leaves = set()
    for pre in _kernels.search_prefixes(N, dmax, 1):
        leaves |= set(_loop_kernel(pre, N, 3, dmax, N // 2, j1s, j2s, sden, p,
                                   False, counts, order))
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
    prefixes = _kernels.search_prefixes(8, 4, 4)
    as_tuples = {tuple(p) for p in prefixes}
    assert len(as_tuples) == len(prefixes)
    for pre in as_tuples:
        assert pre[0] == 0
        for j in range(1, 4):
            assert pre[j] <= min(max(pre[:j]) + 1, 3)
