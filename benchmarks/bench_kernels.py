#!/usr/bin/env python3
"""Benchmark the hot kernels.

Times the field builds, the report stages of ``verify`` and the partition
scan, all numpy, and prints the best of three runs of each row with its
rate: elements/s for the field rows (q - 1 per field, L = (q - 1)/(p - 1)
for the norm block): the antilog table (read off the trace m-sequence,
which is built once outside the timed region), the norm block (the
m-sequence over one norm period) that Gauss periods read, the whole
m-sequence assembled from it, the psi vector the Gauss sums transform, and
the uncached primitive-modulus scan;
numbers/s ((N + 1)^3 per scheme) for the intersection numbers of the
order-N cyclotomic scheme, past its verdict; bytes/s for rendering that
scheme's ``verify`` document; leaves/s for the scan, single-threaded, one
call per prefix block of ``search.scan_groups`` (the blocks the full scan
runs), building its suffix tables included, timed once.  --quick drops the
four-class p = 7 scan (1.8e8 leaves).

    python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import time

import numpy as np

from scheme_forge import _kernels, jsonio
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.finite_field import (FieldSpec, _build_field_cached,
                                       build_field)
from scheme_forge.gauss_sums import _psi_values
from scheme_forge.scheme_core import (IndexPartition, intersection_numbers,
                                      verify_scheme)
from scheme_forge.search import scan_groups, trace_partition


def _time(fn, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_antilog(p, f):
    field = build_field(p, f)
    field.trace_sequence  # built once, outside the timed region
    build = FieldSpec.antilog_table.func  # uncached: a fresh build per call
    t_np, table = _time(lambda: build(field))
    assert np.array_equal(table, field.antilog_table)
    return t_np


def bench_trace_sequence(p, f):
    """Seconds to build the norm block, and to assemble the sequence from it."""
    field = build_field(p, f)
    # uncached: a fresh build per call
    t_block, block = _time(lambda: FieldSpec.norm_block.func(field))
    t_seq, seq = _time(lambda: FieldSpec.trace_sequence.func(field))
    assert np.array_equal(block, field.norm_block)
    assert np.array_equal(seq, field.trace_sequence)
    assert np.array_equal(seq[:field.norm_period], block)
    return t_block, t_seq


def bench_psi(p, f):
    field = build_field(p, f)
    field.norm_block  # built once, outside the timed region
    t_np, _ = _time(lambda: _psi_values(field))
    return t_np


def bench_modulus_scan(p, f):
    scan = _build_field_cached.__wrapped__  # uncached: a fresh scan per call
    t_np, field = _time(lambda: scan(p, f))
    assert field.modulus == build_field(p, f).modulus
    return t_np


def _cyclotomic_scheme(p, f, N):
    """The order-N cyclotomic scheme: all N classes as singleton parts."""
    sys_n = build_cyclotomy(build_field(p, f), N)
    return sys_n, IndexPartition.from_sets(N, [[i] for i in range(N)])


def bench_intersection(p, f, N):
    sys_n, part = _cyclotomic_scheme(p, f, N)
    t_np, _ = _time(lambda: intersection_numbers(sys_n, part, _verified=True))
    return t_np


def bench_json_render(p, f, N):
    """Seconds and bytes for the document ``verify`` prints on this scheme."""
    sys_n, part = _cyclotomic_scheme(p, f, N)
    doc = {"command": "verify", "field": sys_n.field.to_json(),
           "partition": part.to_json(),
           "report": jsonio.report_to_json(verify_scheme(sys_n, part))}
    t_np, text = _time(lambda: jsonio.dumps(doc))
    return t_np, len(text.encode())


def bench_search(p, dmax):
    N = 2 * (p + 1)
    t0, ts, tn = trace_partition(p)
    sden = np.zeros(N, dtype=np.int64)
    for i in ts:
        sden[i] = 1
    for i in tn:
        sden[i] = -1
    blocks = scan_groups(N, dmax)

    def run():
        counts = np.zeros(dmax + 2, dtype=np.int64)
        for block in blocks:
            _kernels.search_chunk(block, N, 3, dmax, N // 2, (t0[0], t0[1]),
                                  sden, p, True, counts)
        return int(counts.sum())

    return _time(run, repeat=1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    rows = []
    for name, bench, fields in [
            ("antilog", bench_antilog,
             [(3, 10), (11, 5), (5, 7), (5, 9), (11, 6), (2, 20)]),
            ("psi values", bench_psi, [(5, 9), (11, 6)]),
            ("modulus scan", bench_modulus_scan, [(5, 9), (11, 6)])]:
        for (p, f) in fields:
            t_np = bench(p, f)
            rows.append((f"{name} F_{p}^{f} (q={p ** f})", t_np,
                         (p ** f - 1) / t_np))
    # the sparse moduli of F_{2^20} and F_{3^15} beside the benchmark fields
    for p, f in [(5, 9), (11, 6), (2, 20), (3, 15)]:
        t_block, t_seq = bench_trace_sequence(p, f)
        rows.append((f"norm block F_{p}^{f} (L={(p ** f - 1) // (p - 1)})",
                     t_block, (p ** f - 1) // (p - 1) / t_block))
        rows.append((f"trace sequence F_{p}^{f} from the block", t_seq,
                     (p ** f - 1) / t_seq))

    p, f, N = 37, 3, 28
    t_np = bench_intersection(p, f, N)
    rows.append((f"intersection numbers F_{p}^{f} N={N}", t_np,
                 (N + 1) ** 3 / t_np))
    t_np, nbytes = bench_json_render(p, f, N)
    rows.append((f"json render F_{p}^{f} N={N} ({nbytes} bytes)", t_np,
                 nbytes / t_np))

    scans = [(3, 4), (7, 3)] if args.quick else [(3, 4), (7, 3), (7, 4)]
    for p, dmax in scans:
        t_np, leaves = bench_search(p, dmax)
        rows.append((f"scan p={p} d<={dmax} ({leaves} leaves)", t_np,
                     leaves / t_np))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'time':>10}  {'rate/s':>10}")
    for name, t_np, rate in rows:
        print(f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {rate:>10.3g}")


if __name__ == "__main__":
    main()
