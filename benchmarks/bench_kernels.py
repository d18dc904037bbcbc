#!/usr/bin/env python3
"""Benchmark the JIT kernels against their pure-numpy fallbacks.

Times the two hot paths (field table construction and the partition scan)
on both backends and prints a small table, with the numpy rate of each row:
elements/s (q - 1 per field) for the antilog tables, and for the numpy-only
field rows: the trace m-sequence that Gauss periods read instead, the psi
vector the Gauss sums transform, and the uncached primitive-modulus scan;
leaves/s for the scan, single-threaded, building its suffix tables included.
Every scan row covers the full prefix set.  Without numba (or
with SCHEME_FORGE_PURE_NUMPY=1) only the numpy fallbacks are timed and the
numba column reads n/a.  --quick drops the four-class p = 7 scan (1.8e8
leaves); with both backends, results double as a parity check.

    python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import time

import numpy as np

from scheme_forge import _kernels
from scheme_forge.finite_field import (FieldSpec, _build_field_cached,
                                       build_field)
from scheme_forge.gauss_sums import _psi_values
from scheme_forge.search import trace_partition


def _time(fn, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_antilog(p, f, jit_on):
    q = p ** f
    field = build_field(p, f)  # also provides the modulus
    mlow = np.asarray(field.modulus[:-1], dtype=np.int64)

    def jit():
        out = np.empty(q - 1, dtype=np.int32)
        return _kernels._antilog_jit(p, f, q, mlow, out)

    def fallback():
        return _kernels.antilog_table_numpy(p, f, q, list(mlow))

    t_np, b = _time(fallback)
    if not jit_on:
        return None, t_np
    t_jit, a = _time(jit)
    assert np.array_equal(a, b), "backend mismatch in antilog tables"
    return t_jit, t_np


def bench_trace_sequence(p, f):
    field = build_field(p, f)
    build = FieldSpec.trace_sequence.func  # uncached: a fresh build per call
    t_np, seq = _time(lambda: build(field))
    assert np.array_equal(seq, field.trace_sequence)
    return t_np


def bench_psi(p, f):
    field = build_field(p, f)
    field.trace_sequence  # built once, outside the timed region
    t_np, _ = _time(lambda: _psi_values(field))
    return t_np


def bench_modulus_scan(p, f):
    scan = _build_field_cached.__wrapped__  # uncached: a fresh scan per call
    t_np, field = _time(lambda: scan(p, f, None, p ** f))
    assert field.modulus == build_field(p, f).modulus
    return t_np


def bench_search(p, dmax, jit_on):
    N = 2 * (p + 1)
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    for i in ts:
        sden[i] = 1
    for i in tn:
        sden[i] = -1
    depth = 4 if N <= 8 else 7
    prefixes = _kernels.search_prefixes(N, dmax, depth)

    def run(force_numpy):
        counts = np.zeros(dmax + 2, dtype=np.int64)
        surv = []
        for pre in prefixes:
            if force_numpy:
                got = _kernels._search_chunk_numpy(
                    pre, N, 3, dmax, N // 2,
                    ((t0[0] - np.arange(N)) % N).astype(np.int64),
                    ((t0[1] - np.arange(N)) % N).astype(np.int64),
                    sden, p, True, counts)
            else:
                got = _kernels.search_chunk(pre, N, 3, dmax, N // 2,
                                            (t0[0], t0[1]), sden, p, True, counts)
            if len(got):
                surv.append(got)
        total = int(counts.sum())
        nsurv = sum(len(s) for s in surv)
        return total, nsurv

    t_np, r_np = _time(lambda: run(True), repeat=1)
    if not jit_on:
        return None, t_np, r_np[0]
    run(False)  # warm the JIT outside the timed region
    t_jit, r_jit = _time(lambda: run(False), repeat=1)
    assert r_jit == r_np, "backend mismatch in search results"
    return t_jit, t_np, r_np[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    jit_on = _kernels.use_numba()
    if not jit_on:
        print("numba unavailable or disabled: timing the numpy fallback only")

    rows = []
    for (p, f) in [(3, 10), (11, 5), (5, 7), (5, 9), (11, 6)]:
        t_jit, t_np = bench_antilog(p, f, jit_on)
        rows.append((f"antilog F_{p}^{f} (q={p ** f})", t_jit, t_np,
                     (p ** f - 1) / t_np))
    for name, bench in [("trace sequence", bench_trace_sequence),
                        ("psi values", bench_psi),
                        ("modulus scan", bench_modulus_scan)]:
        for (p, f) in [(5, 9), (11, 6)]:
            t_np = bench(p, f)
            rows.append((f"{name} F_{p}^{f} (q={p ** f})", None, t_np,
                         (p ** f - 1) / t_np))

    scans = [(3, 4), (7, 3)] if args.quick else [(3, 4), (7, 3), (7, 4)]
    for p, dmax in scans:
        t_jit, t_np, leaves = bench_search(p, dmax, jit_on)
        rows.append((f"scan p={p} d<={dmax} ({leaves} leaves)", t_jit, t_np,
                     leaves / t_np))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}"
          f"  {'numpy rate/s':>14}")
    for name, t_jit, t_np, rate in rows:
        if t_jit is None:
            jit_col, speedup = "n/a", "n/a"
        else:
            jit_col, speedup = f"{t_jit * 1e3:.2f}ms", f"{t_np / t_jit:.1f}x"
        rate_col = f"{rate:.3g}"
        print(f"{name:<{width}}  {jit_col:>10}  {t_np * 1e3:>8.2f}ms  "
              f"{speedup:>8}  {rate_col:>14}")


if __name__ == "__main__":
    main()
