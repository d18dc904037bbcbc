#!/usr/bin/env python3
"""Benchmark the hot kernels.

Times the field builds, the report stages of ``verify`` and the partition
scan, all numpy, and prints the best of three runs of each row with its
rate: elements/s for the field rows (q - 1 per field, L = (q - 1)/(p - 1)
for the norm period): the antilog table (read off the trace m-sequence,
which is built once outside the timed region), the norm period (the norm
stream, the m-sequence over one norm period, assembled into one array),
the whole m-sequence gathered from the stream, the psi vector the Gauss
sums transform, and the uncached primitive-modulus scan; terms/s for the
cyclotomy tally and fold (L per system: F_{5^9} by 38 and a walk-bound
F_{3^16} by 8, then F_{401^3} by 400 and F_{2^22} by 1,398,101, where a
sub-block must cost its own terms, not the N p cells of the tally); elements/s
(q - 1) for one direct Gauss sum on F_{1021^2}, a tally of the stream
and its fold over the 1020 norm periods; elements/s (q^s - 1) for the
Davenport-Hasse check on F_{11^6}, which finds the subfield root in
polynomial arithmetic and sums both Gauss sums over the norm stream (both
oracles, and the trace partition the scan row reads, come from
tests/oracles.py).  The
psi, direct-sum and tally rows walk the stream inside the timed region, as
a command does; cells/s (R N d (p - 1)) for the signature sums of R label
rows: one row (R = 1) for the order-N cyclotomic scheme on F_{37^3} and
for the partition {0 | 1..241} of Z_242 on F_{3^5}, and the first batch of
256 closed schemes the search rechecks at p = 11, d <= 3 with the filters
off, the periods given; cells/s for the dual classes (that
table built and grouped by row) of the order-N cyclotomic scheme on
F_{37^3} and on F_{4099}, two rows of 8,196 cells; numbers/s ((N + 1)^3
per scheme) for the intersection numbers of the order-N cyclotomic
scheme, its dual classes given, on F_{37^3}, F_{257^2} by 32 and F_{1021^2}
by 6 (whose numerators pass int64); entries/s ((N + 1)^2) for the
eigenmatrices of the first, the P_exact coefficient rows, their embedding
at xi_p and the inverse; bytes/s for rendering that scheme's ``verify``
document;
leaves/s for the plain partition scan (the closure search's test
oracle), one ``search_chunk`` call per label prefix, at most dmax^9
completions a call, at (p, dmax) = (3, 4) and (7, 3), timed once;
closures/s for the two phases of the closure search that
``search-nonexistence`` runs, best of three: the two-block phase (one two-block partition closed per orbit, then
mapped over the orbits) and the meet phase (every round of meets, the
final filters and the orbit expansion of the closed schemes), each
counting the partitions handed to ``search._close``; survivors/s for the
exact recheck of the search's survivors, the 2,691 closed schemes of
p = 7, d <= 4 with the filters off (``--allow-symmetric``), their closure
run outside, best of three of the recheck phase's own clock.  The norm
period, psi, direct-sum, Davenport-Hasse, tally, signature sums, dual
classes, intersection numbers and recheck also print their traced peak:
the tracemalloc heap high-water mark of one more, untimed call above its
level at entry, the output included.

    python3 benchmarks/bench_kernels.py
"""

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from scheme_forge import _kernels, jsonio, search
from scheme_forge.cyclotomy import _signature_sums, build_cyclotomy
from scheme_forge.finite_field import (FieldSpec, _build_field_cached,
                                       build_field)
from scheme_forge.gauss_sums import _psi_values
from scheme_forge.scheme_core import (IndexPartition, dual_classes,
                                      eigenmatrices, intersection_numbers,
                                      verify_scheme)

# the direct sums, the Davenport-Hasse check and the trace partition are
# the tests' oracles, in tests/oracles.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (MultChar, davenport_hasse_check,  # noqa: E402
                     gauss_sum_direct, trace_partition)


def _time(fn, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _traced_peak_mb(fn):
    """MB of traced heap one call of fn peaks at, above its level at entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - entry) / (1 << 20)
    finally:
        tracemalloc.stop()


def bench_antilog(p, f):
    field = build_field(p, f)
    field.trace_sequence  # built once, outside the timed region
    build = FieldSpec.antilog_table.func  # uncached: a fresh build per call
    t_np, table = _time(lambda: build(field))
    assert np.array_equal(table, field.antilog_table)
    return t_np


def _norm_period(field):
    """s_e = tr(gamma^e) for e < L: the norm stream assembled."""
    s = np.empty(field.norm_period, dtype=np.min_scalar_type(field.p - 1))
    for start, chunk in field.norm_stream():
        s[start:start + len(chunk)] = chunk
    return s


def bench_trace_sequence(p, f):
    """Seconds to assemble the norm period from the stream, and to gather
    the sequence from the stream, and the period's traced peak in MB."""
    field = build_field(p, f)
    t_period, period = _time(lambda: _norm_period(field))
    # uncached: a fresh build per call
    t_seq, seq = _time(lambda: FieldSpec.trace_sequence.func(field))
    assert np.array_equal(seq, field.trace_sequence)
    assert np.array_equal(seq[:field.norm_period], period)
    return t_period, t_seq, _traced_peak_mb(lambda: _norm_period(field))


def bench_psi(p, f):
    """Seconds and traced peak MB of the psi vector."""
    field = build_field(p, f)
    t_np, _ = _time(lambda: _psi_values(field))
    return t_np, _traced_peak_mb(lambda: _psi_values(field))


def bench_tally(p, f, N):
    """Seconds and traced peak MB of the order-N cyclotomic system."""
    field = build_field(p, f)
    t_np, _ = _time(lambda: build_cyclotomy(field, N))
    return t_np, _traced_peak_mb(lambda: build_cyclotomy(field, N))


def bench_gauss_direct(p, f, k):
    """Seconds and traced peak MB of one direct Gauss sum G(chi_k)."""
    chi = MultChar(build_field(p, f), k)
    t_np, _ = _time(lambda: gauss_sum_direct(chi))
    return t_np, _traced_peak_mb(lambda: gauss_sum_direct(chi))


def bench_davenport_hasse(p, f, s, k):
    """Seconds and traced peak MB of the Davenport-Hasse check of chi_k
    lifted from F_{p^f} to F_{p^(f s)}, both fields built outside."""
    chi = MultChar(build_field(p, f), k)
    build_field(p, f * s)
    t_np, _ = _time(lambda: davenport_hasse_check(chi, s))
    return t_np, _traced_peak_mb(lambda: davenport_hasse_check(chi, s))


def bench_modulus_scan(p, f):
    scan = _build_field_cached.__wrapped__  # uncached: a fresh scan per call
    t_np, field = _time(lambda: scan(p, f))
    assert field.modulus == build_field(p, f).modulus
    return t_np


def _cyclotomic_scheme(p, f, N):
    """The order-N cyclotomic scheme: all N classes as singleton parts."""
    sys_n = build_cyclotomy(build_field(p, f), N)
    return sys_n, IndexPartition.from_sets(N, [[i] for i in range(N)])


def label_row(N, parts):
    """The (1, N) label row of ``parts``, a partition of Z_N."""
    labels = np.empty((1, N), dtype=np.int64)
    for i, part in enumerate(parts):
        labels[0, part] = i
    return labels


def recheck_batch(p, dmax):
    """The first batch of label rows the search rechecks at p, d <= dmax,
    the filters off."""
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    rows = search._closed_schemes(sys_n, dmax, False, lambda *args: None)
    return rows[:search._RECHECK_BATCH]


def bench_signature_sums(p, f, N, labels, d):
    """(seconds, cells, traced peak MB) of the signature sums of the label
    rows ``labels`` (R, N) into d parts, the order-N periods built outside."""
    sys_n = build_cyclotomy(build_field(p, f), N)

    def run():
        return _signature_sums(sys_n, labels, d, "the benchmark needs")

    t_np, sums = _time(run)
    return t_np, sums.size, _traced_peak_mb(run)


def bench_dual_classes(p, f, N, parts):
    """(seconds, traced peak MB) of grouping the signature table of
    ``parts`` over Z_N by row, the table built inside, the periods outside."""
    sys_n = build_cyclotomy(build_field(p, f), N)
    part = IndexPartition.from_sets(N, parts)
    t_np, _ = _time(lambda: dual_classes(sys_n, part))
    return t_np, _traced_peak_mb(lambda: dual_classes(sys_n, part))


def bench_intersection(p, f, N):
    """Seconds and traced peak MB of the intersection numbers, P_exact and
    the dual classes given."""
    sys_n, part = _cyclotomic_scheme(p, f, N)
    classes = dual_classes(sys_n, part)
    P_exact = eigenmatrices(sys_n, part, classes)[0]

    def run():
        return intersection_numbers(sys_n, P_exact, classes[1])

    t_np, _ = _time(run)
    return t_np, _traced_peak_mb(run)


def bench_eigenmatrices(p, f, N):
    """Seconds for P_exact, its embedding and Q, the dual classes given."""
    sys_n, part = _cyclotomic_scheme(p, f, N)
    classes = dual_classes(sys_n, part)
    t_np, _ = _time(lambda: eigenmatrices(sys_n, part, classes))
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
    prefixes = _kernels.search_prefixes(N, dmax, max(1, N - 9))

    def run():
        counts = np.zeros(dmax + 2, dtype=np.int64)
        for prefix in prefixes:
            _kernels.search_chunk(prefix, N, 3, dmax, N // 2, (t0[0], t0[1]),
                                  sden, p, True, counts)
        return int(counts.sum())

    return _time(run, repeat=1)


def bench_closure(p, dmax):
    """(seconds, closures) of the two-block phase and of the meet phase."""
    # the periods, built once outside the timed region
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    close = search._close
    phase, closed, marks = None, {}, {}  # the run's phase, counts, start times

    def counting_close(labels, E, dmax):
        closed[phase] += len(labels)
        return close(labels, E, dmax)

    def report(name, done, total):
        nonlocal phase
        phase = name
        marks.setdefault(name, time.perf_counter())

    best = None
    search._close = counting_close
    try:
        for _ in range(3):
            phase, closed, marks = "two-block", {"two-block": 0, "meets": 0}, {}
            t0 = time.perf_counter()
            search._closed_schemes(sys_n, dmax, False, report)
            t1 = time.perf_counter()
            row = (marks["meets"] - t0, closed["two-block"],
                   t1 - marks["meets"], closed["meets"])
            best = row if best is None else (min(best[0], row[0]), row[1],
                                             min(best[2], row[2]), row[3])
    finally:
        search._close = close
    return best


def bench_recheck(p, dmax):
    """(seconds, survivors, traced peak MB) of the search's recheck of every
    closed scheme with at most dmax blocks, the filters off: the search run
    on the closed schemes it would find, computed once outside."""
    closed = search._closed_schemes
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    rows = closed(sys_n, dmax, False, lambda *args: None)
    seen = []

    def run():
        found = search.exhaustive_nonexistence(p, dmax, True, seen.append)
        assert len(found.schemes_found) == len(rows)

    search._closed_schemes = lambda *args: rows
    try:
        for _ in range(3):
            run()
        peak = _traced_peak_mb(run)
    finally:
        search._closed_schemes = closed
    seconds = min(s.elapsed_s for s in seen
                  if s.phase == "recheck" and s.done == s.total)
    return seconds, len(rows), peak


def main():
    rows = []  # (name, seconds, rate, traced peak MB or None)
    for name, bench, fields in [
            ("antilog", bench_antilog,
             [(3, 10), (11, 5), (5, 7), (5, 9), (11, 6), (2, 20)]),
            ("modulus scan", bench_modulus_scan, [(5, 9), (11, 6)])]:
        for (p, f) in fields:
            t_np = bench(p, f)
            rows.append((f"{name} F_{p}^{f} (q={p ** f})", t_np,
                         (p ** f - 1) / t_np, None))
    for p, f in [(5, 9), (11, 6)]:
        t_np, peak = bench_psi(p, f)
        rows.append((f"psi values F_{p}^{f} (q={p ** f})", t_np,
                     (p ** f - 1) / t_np, peak))
    # the sparse moduli of F_{2^20} and F_{3^15} beside the benchmark fields,
    # and F_{3^16}, the longest walk (657 sub-blocks)
    for p, f in [(5, 9), (11, 6), (2, 20), (3, 15), (3, 16)]:
        t_period, t_seq, peak = bench_trace_sequence(p, f)
        rows.append((f"norm period F_{p}^{f} (L={(p ** f - 1) // (p - 1)})",
                     t_period, (p ** f - 1) // (p - 1) / t_period, peak))
        rows.append((f"trace sequence F_{p}^{f} from the stream", t_seq,
                     (p ** f - 1) / t_seq, None))
    p, f, s, k = 11, 3, 2, 95
    t_np, peak = bench_davenport_hasse(p, f, s, k)
    rows.append((f"davenport-hasse F_{p}^{f} -> F_{p}^{f * s} k={k}", t_np,
                 (p ** (f * s) - 1) / t_np, peak))
    p, f, k = 1021, 2, 12345
    t_np, peak = bench_gauss_direct(p, f, k)
    rows.append((f"gauss sum direct F_{p}^{f} k={k}", t_np,
                 (p ** f - 1) / t_np, peak))
    for p, f, N in [(5, 9, 38), (3, 16, 8), (401, 3, 400), (2, 22, 1398101)]:
        t_np, peak = bench_tally(p, f, N)
        rows.append((f"cyclotomy tally F_{p}^{f} N={N}", t_np,
                     (p ** f - 1) // (p - 1) / t_np, peak))

    for p, f, N, parts in [(37, 3, 28, [[i] for i in range(28)]),
                           (3, 5, 242, [[0], list(range(1, 242))])]:
        t_np, cells, peak = bench_signature_sums(p, f, N, label_row(N, parts),
                                                 len(parts))
        rows.append((f"signature sums F_{p}^{f} N={N} d={len(parts)} R=1",
                     t_np, cells / t_np, peak))
    p, dmax = 11, 3
    batch = recheck_batch(p, dmax)
    t_np, cells, peak = bench_signature_sums(p, 2, 2 * (p + 1), batch, dmax)
    rows.append((f"signature sums F_{p}^2 N={2 * (p + 1)} d<={dmax} "
                 f"R={len(batch)}", t_np, cells / t_np, peak))
    for p, f, N in [(37, 3, 28), (4099, 1, 2)]:
        t_np, peak = bench_dual_classes(p, f, N, [[i] for i in range(N)])
        rows.append((f"dual classes F_{p}^{f} N={N} d={N}", t_np,
                     N * N * (p - 1) / t_np, peak))

    for p, f, N in [(37, 3, 28), (257, 2, 32), (1021, 2, 6)]:
        t_np, peak = bench_intersection(p, f, N)
        rows.append((f"intersection numbers F_{p}^{f} N={N}", t_np,
                     (N + 1) ** 3 / t_np, peak))
    p, f, N = 37, 3, 28
    t_np = bench_eigenmatrices(p, f, N)
    rows.append((f"eigenmatrices F_{p}^{f} N={N}", t_np,
                 (N + 1) ** 2 / t_np, None))
    t_np, nbytes = bench_json_render(p, f, N)
    rows.append((f"json render F_{p}^{f} N={N} ({nbytes} bytes)", t_np,
                 nbytes / t_np, None))

    for p, dmax in [(3, 4), (7, 3)]:
        t_np, leaves = bench_search(p, dmax)
        rows.append((f"scan p={p} d<={dmax} ({leaves} leaves)", t_np,
                     leaves / t_np, None))

    for p, dmax in [(3, 4), (7, 3), (7, 4)]:
        t_two, n_two, t_meet, n_meet = bench_closure(p, dmax)
        rows.append((f"closure p={p} d<={dmax} two-block ({n_two} closures)",
                     t_two, n_two / t_two, None))
        rows.append((f"closure p={p} d<={dmax} meets ({n_meet} closures)",
                     t_meet, n_meet / t_meet, None))

    t_np, survivors, peak = bench_recheck(7, 4)
    rows.append((f"recheck p=7 d<=4 ({survivors} survivors)", t_np,
                 survivors / t_np, peak))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'time':>10}  {'rate/s':>10}  {'peak':>10}")
    for name, t_np, rate, peak in rows:
        peak = "" if peak is None else f"{peak:.2f}MB"
        print(f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {rate:>10.3g}  {peak:>10}")


if __name__ == "__main__":
    main()
