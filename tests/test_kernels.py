"""Parity of the JIT kernels with their pure-numpy fallbacks."""

import numpy as np
import pytest

from scheme_forge import _kernels
from scheme_forge.errors import BudgetExceeded
from scheme_forge.finite_field import build_field
from scheme_forge.search import (SearchConfig, exhaustive_nonexistence,
                                 trace_partition)


needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA,
                                 reason="numba unavailable")


@needs_numba
@pytest.mark.parametrize("p,f", [(3, 5), (11, 3), (37, 3), (7, 1), (2, 8), (5, 6)])
def test_antilog_backends_agree(p, f):
    field = build_field(p, f)
    mlow = list(field.modulus[:-1])
    q = p ** f
    out = np.empty(q - 1, dtype=np.int32)
    jit = _kernels._antilog_jit(p, f, q, np.asarray(mlow, dtype=np.int64), out)
    fallback = _kernels.antilog_table_numpy(p, f, q, mlow)
    assert np.array_equal(jit, fallback)
    assert np.array_equal(jit, field.antilog_table)


def _search_setup(p):
    N = 2 * (p + 1)
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    for i in ts:
        sden[i] = 1
    for i in tn:
        sden[i] = -1
    return N, t0, sden


# The per-leaf loop of the JIT kernel, run as plain Python: the reference the
# numpy kernel is compared with when numba is absent.
_loop_kernel = getattr(_kernels._search_chunk_jit, "py_func",
                       _kernels._search_chunk_jit)


def _run(prefixes, N, t0, sden, p, require_nonsym, kernel, dmax=4):
    counts = np.zeros(dmax + 2, dtype=np.int64)
    rows = []
    j1s = ((t0[0] - np.arange(N)) % N).astype(np.int64)
    j2s = ((t0[1] - np.arange(N)) % N).astype(np.int64)
    for pre in prefixes:
        if kernel == "numpy":
            got = _kernels._search_chunk_numpy(pre, N, 3, dmax, N // 2, j1s,
                                               j2s, sden, p, require_nonsym,
                                               counts)
        elif kernel == "loop":
            buf = np.zeros((4096, N), dtype=np.int8)
            n, overflow = _loop_kernel(pre, N, 3, dmax, N // 2, j1s, j2s,
                                       np.concatenate([sden, sden]), p,
                                       require_nonsym, counts, buf,
                                       buf.shape[0])
            assert not overflow
            got = buf[:n]
        else:
            got = _kernels.search_chunk(pre, N, 3, dmax, N // 2,
                                        (t0[0], t0[1]), sden, p,
                                        require_nonsym, counts)
        if len(got):
            rows.append(got)
    surv = {tuple(r) for batch in rows for r in batch.tolist()}
    return counts.tolist(), surv


@needs_numba
@pytest.mark.parametrize("require_nonsym", [True, False])
def test_search_backends_agree_p3(require_nonsym):
    p = 3
    N, t0, sden = _search_setup(p)
    prefixes = _kernels.search_prefixes(N, 4, 4)
    a = _run(prefixes, N, t0, sden, p, require_nonsym, "dispatch")
    b = _run(prefixes, N, t0, sden, p, require_nonsym, "numpy")
    assert a == b


@needs_numba
def test_search_backends_agree_p7_chunk():
    p = 7
    N, t0, sden = _search_setup(p)
    prefixes = _kernels.search_prefixes(N, 4, 7)[100:104]
    a = _run(prefixes, N, t0, sden, p, True, "dispatch")
    b = _run(prefixes, N, t0, sden, p, True, "numpy")
    assert a == b


@pytest.mark.parametrize("dmax", [3, 4])
@pytest.mark.parametrize("require_nonsym", [True, False])
def test_numpy_scan_matches_loop_kernel_p3(dmax, require_nonsym):
    p = 3
    N, t0, sden = _search_setup(p)
    prefixes = _kernels.search_prefixes(N, dmax, 4)
    a = _run(prefixes, N, t0, sden, p, require_nonsym, "loop", dmax)
    b = _run(prefixes, N, t0, sden, p, require_nonsym, "numpy", dmax)
    assert a == b
    assert sum(a[0]) == sum(_kernels.completion_count(N - 4, dmax, int(pre.max()))
                            for pre in prefixes)


def _rgs(labels):
    """Relabel in order of first occurrence (restricted growth string)."""
    seen = {}
    return [seen.setdefault(l, len(seen)) for l in labels]


@pytest.mark.parametrize("require_nonsym", [True, False])
def test_numpy_scan_matches_loop_kernel_p7(require_nonsym):
    p = 7
    N, t0, sden = _search_setup(p)
    _, ts, _ = trace_partition(p)
    trace_row = _rgs([0 if i in t0 else 1 if i in ts else 2 for i in range(N)])
    rng = np.random.default_rng(7)
    prefixes = [trace_row[:12], [0] * 12, [0, 1, 2, 3, 0, 0, 1, 1, 0, 1, 2, 3]]
    while len(prefixes) < 8:
        pre = [0]
        for _ in range(11):
            pre.append(int(rng.integers(0, min(max(pre) + 1, 3) + 1)))
        prefixes.append(pre)
    prefixes = [np.array(pre, dtype=np.int8) for pre in prefixes]
    a = _run(prefixes, N, t0, sden, p, require_nonsym, "loop")
    b = _run(prefixes, N, t0, sden, p, require_nonsym, "numpy")
    assert a == b
    assert tuple(trace_row) in b[1]


def test_numpy_scan_raises_before_building_an_oversized_table():
    N, P, dmax = 24, 9, 4
    counts = np.zeros(dmax + 2, dtype=np.int64)
    tables = _kernels._suffix_table.cache_info().currsize
    with pytest.raises(BudgetExceeded):
        _kernels._search_chunk_numpy(
            np.zeros(P, dtype=np.int8), N, 3, dmax, N // 2,
            np.arange(N, dtype=np.int64), np.arange(N, dtype=np.int64)[::-1],
            np.zeros(N, dtype=np.int64), 11, True, counts)
    assert not counts.any()
    assert _kernels._suffix_table.cache_info().currsize == tables


def test_long_run_scan_without_numba_is_over_budget(monkeypatch):
    monkeypatch.setenv("SCHEME_FORGE_PURE_NUMPY", "1")
    with pytest.raises(BudgetExceeded):
        exhaustive_nonexistence(SearchConfig(p=11, long_run=True))


def test_use_numba_env_flag(monkeypatch):
    monkeypatch.setenv("SCHEME_FORGE_PURE_NUMPY", "1")
    assert not _kernels.use_numba()
    monkeypatch.setenv("SCHEME_FORGE_PURE_NUMPY", "0")
    assert _kernels.use_numba() == _kernels.HAS_NUMBA
    monkeypatch.delenv("SCHEME_FORGE_PURE_NUMPY")
    assert _kernels.use_numba() == _kernels.HAS_NUMBA


def test_prefix_enumeration_is_partition_complete():
    # prefixes of depth 4 with <= 4 labels, extended freely, cover all RGS
    prefixes = _kernels.search_prefixes(8, 4, 4)
    as_tuples = {tuple(p) for p in prefixes}
    assert len(as_tuples) == len(prefixes)
    for pre in as_tuples:
        assert pre[0] == 0
        for j in range(1, 4):
            assert pre[j] <= min(max(pre[:j]) + 1, 3)
