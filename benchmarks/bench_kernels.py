#!/usr/bin/env python3
"""Time the stages the commands run, in the order they run them.

``TABLE`` lists each stage with the cases it is timed on: the
primitive-modulus scan of ``build_field`` (uncached), a walk of the norm
stream, the period tally of ``build_cyclotomy`` (F_{3^16} by 8 is the
longest walk; F_{2^22} by 1,398,101 makes each sub-block cost its own
terms, not the N p cells of the tally; F_{101^2} by 10,200 and F_{4099^2}
by 4,100 are short walks whose N p cells the fold dominates),
gauss-verify's ``gauss_sums_all``
(the psi vector and its FFT), the signature sums of one label row (the
one ``verify`` sums) and of the first batch the search rechecks at
p = 11, d <= 3, the dual classes, eigenmatrices and intersection numbers
``verify`` forms (the periods and earlier stages built outside the timed
run; F_{8191^2} by 6 forms float64 pair products, contracts them in int64
and sums in Python ints), documents laid out by ``jsonio.chunks``
(verify's two table-heavy ones, and the search's list of many small
partitions), and the two-block, meets and recheck phases of
``search-nonexistence --allow-symmetric``.

Each row prints the best of three runs, its rate, and its traced peak: the
tracemalloc heap high-water mark of one more run above its level at entry,
the output included.  A search phase is clocked by the search's own
progress reports (the rounds of meets summed), so its run is the whole
search and it prints no peak.  numpy runs on one BLAS thread unless
OPENBLAS_NUM_THREADS is set, as under the command line.

``--json PATH`` also writes the rows to PATH as one document: each row's
best-of-three seconds and traced peak, the host (Python, numpy, its BLAS
and thread count, nproc, CPU model, load average at start and at end) and
the line count of src/, so a number is always read beside its host.
``--compare OLD NEW`` reads two such documents instead and prints, for each
stage both hold, NEW's seconds and peak over OLD's, flagging a seconds ratio
above 1.25 and a peak ratio above 1.10, then the stages only one holds.  It
refuses (exit 2) hosts that differ in BLAS threads or nproc, and prints each
file's load average at start without correcting for it.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--json BENCH.json]
    PYTHONPATH=src python3 benchmarks/bench_kernels.py --compare OLD.json NEW.json
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple

# OpenBLAS sizes its thread pool once, as numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from scheme_forge import jsonio, scheme_core, search  # noqa: E402
from scheme_forge.cyclotomy import _signature_sums, build_cyclotomy  # noqa: E402
from scheme_forge.finite_field import _build_field_cached, build_field  # noqa: E402
from scheme_forge.gauss_sums import gauss_sums_all  # noqa: E402


class Stage(NamedTuple):
    name: str
    work: int          # units of work one run does, for the rate
    unit: str
    run: Callable
    clocked: bool = False  # run returns its own seconds


def _singletons(p, f, N):
    """The order-N periods on F_{p^f} and the scheme of its N classes."""
    sys_n = build_cyclotomy(build_field(p, f), N)
    return sys_n, scheme_core.IndexPartition.from_sets(N, [[i] for i in range(N)])


def modulus_scan(p, f):
    scan = _build_field_cached.__wrapped__
    return Stage(f"modulus scan F_{p}^{f}", p ** f - 1, "elements",
                 lambda: scan(p, f))


def norm_stream(p, f):
    field = build_field(p, f)
    return Stage(f"norm stream F_{p}^{f}", field.norm_period, "terms",
                 lambda: deque(field.norm_stream(), maxlen=0))


def periods(p, f, N):
    field = build_field(p, f)
    return Stage(f"periods F_{p}^{f} N={N}", field.norm_period, "terms",
                 lambda: build_cyclotomy(field, N))


def gauss_sums(p, f):
    field = build_field(p, f)
    return Stage(f"gauss sums F_{p}^{f}", field.q - 1, "elements",
                 lambda: gauss_sums_all(field))


def signature_row(p, f, N):
    sys_n, _ = _singletons(p, f, N)
    labels = np.arange(N)[None, :]
    return Stage(f"signature sums F_{p}^{f} N={N} R=1", N * N * (p - 1),
                 "cells", lambda: _signature_sums(sys_n, labels, N, "the row needs"))


def recheck_batch(p, dmax):
    sys_n = build_cyclotomy(build_field(p, 2), 2 * (p + 1))
    rows = search._closed_schemes(sys_n, dmax, False, lambda *args: None)
    rows = rows[:search._RECHECK_BATCH]
    R, N = rows.shape
    return Stage(f"signature sums F_{p}^2 N={N} d<={dmax} R={R}",
                 R * N * dmax * (p - 1), "cells",
                 lambda: _signature_sums(sys_n, rows, dmax, "the batch needs"))


def dual_classes(p, f, N):
    sys_n, part = _singletons(p, f, N)
    return Stage(f"dual classes F_{p}^{f} N={N}", N * N * (p - 1), "cells",
                 lambda: scheme_core.dual_classes(sys_n, part))


def eigenmatrices(p, f, N):
    sys_n, part = _singletons(p, f, N)
    classes = scheme_core.dual_classes(sys_n, part)
    return Stage(f"eigenmatrices F_{p}^{f} N={N}", (N + 1) ** 2, "entries",
                 lambda: scheme_core.eigenmatrices(sys_n, part, classes))


def intersection_numbers(p, f, N):
    sys_n, part = _singletons(p, f, N)
    classes = scheme_core.dual_classes(sys_n, part)
    P_exact = scheme_core.eigenmatrices(sys_n, part, classes)[0]
    return Stage(f"intersection numbers F_{p}^{f} N={N}", (N + 1) ** 3,
                 "numbers", lambda: scheme_core.intersection_numbers(
                     sys_n, P_exact, classes[1]))


def verify_doc(p, f, N):
    """(name, document) ``verify`` writes on the scheme of N singletons."""
    sys_n, part = _singletons(p, f, N)
    report = scheme_core.verify_scheme(sys_n, part)
    return f"verify F_{p}^{f} N={N}", {
        "command": "verify", "field": sys_n.field.to_json(),
        "partition": part.to_json(), "report": jsonio.report_to_json(report)}


def search_doc(p, dmax):
    """(name, document) ``search-nonexistence --p p --max-classes dmax
    --allow-symmetric`` writes."""
    result = search.exhaustive_nonexistence(p, dmax, True)
    return f"search p={p} d<={dmax}", {
        "command": "search-nonexistence", "p": p, "max_classes": dmax,
        "allow_symmetric": True, "checked": result.candidates_checked,
        "counts_by_classes": result.counts_by_classes,
        "found": [part.to_json() for part in result.schemes_found]}


def chunks(command, *case):
    """The pieces of the document ``verify`` or ``search`` writes."""
    name, doc = (verify_doc if command == "verify" else search_doc)(*case)
    nbytes = sum(map(len, jsonio.chunks(doc)))  # ASCII: one byte a character
    return Stage(f"jsonio.chunks {name} ({nbytes} bytes)", nbytes, "bytes",
                 lambda: jsonio.chunks(doc))


def _phases(p, dmax):
    """{phase: (seconds, work)} of one search-nonexistence --p p
    --max-classes dmax --allow-symmetric, read off its progress reports:
    the last of each round, the rounds of meets summed."""
    out = {}

    def progress(s):
        if s.done == s.total:
            seconds, work = out.get(s.phase, (0.0, 0))
            out[s.phase] = (seconds + s.elapsed_s, work + s.total)

    search.exhaustive_nonexistence(p, dmax, True, progress)
    return out


_PHASE_UNITS = {"two-block": "partitions", "meets": "operands",
                "recheck": "schemes"}


def search_phase(phase, p, dmax):
    work = _phases(p, dmax)[phase][1]
    return Stage(f"search {phase} p={p} d<={dmax}", work, _PHASE_UNITS[phase],
                 lambda: _phases(p, dmax)[phase][0], clocked=True)


# (stage, cases), in the order a command runs the stages
TABLE = [
    (modulus_scan, [(5, 9), (11, 6)]),
    (norm_stream, [(5, 9), (11, 6), (2, 20), (3, 15), (3, 16)]),
    (periods, [(5, 9, 38), (3, 16, 8), (401, 3, 400), (2, 22, 1398101),
               (101, 2, 10200), (4099, 2, 4100)]),
    (gauss_sums, [(5, 9), (11, 6)]),
    (signature_row, [(37, 3, 28)]),
    (recheck_batch, [(11, 3)]),
    (dual_classes, [(37, 3, 28), (4099, 1, 2)]),
    (eigenmatrices, [(37, 3, 28)]),
    (intersection_numbers, [(37, 3, 28), (257, 2, 32), (257, 2, 96), (1021, 2, 6),
                            (8191, 2, 6)]),
    (chunks, [("verify", 37, 3, 28), ("verify", 257, 2, 32),
              ("search", 7, 4)]),
    (search_phase, [(phase, 7, dmax) for dmax in (3, 4)
                    for phase in _PHASE_UNITS]),
]


def measure(stage):
    """(best-of-three seconds, traced peak MB or None) of the stage."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out = stage.run()
        best = min(best, out if stage.clocked else time.perf_counter() - t0)
    if stage.clocked:
        return best, None
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        stage.run()
        return best, (tracemalloc.get_traced_memory()[1] - entry) / (1 << 20)
    finally:
        tracemalloc.stop()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def environment(load_start):
    """The host a run's numbers belong to, with its load average at the
    run's start and now."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "loadavg": {"start": list(load_start), "end": list(os.getloadavg())}}


def src_lines():
    src = Path(__file__).resolve().parents[1] / "src"
    return sum(len(f.read_text().splitlines()) for f in src.rglob("*.py"))


def print_table(rows):
    """Rows of strings as aligned columns, the first left-aligned."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(f"{c:<{w}}" if i == 0 else f"{c:>{w}}"
                        for i, (c, w) in enumerate(zip(row, widths))))


SECONDS_FLAG, PEAK_FLAG = 1.25, 1.10


def _ratio(old, new):
    return None if old is None or new is None or old == 0 else new / old


def _fmt(x, spec):
    return "" if x is None else format(x, spec)


def compare(old_path, new_path):
    """Print the ratios of NEW's numbers to OLD's; 2 if their hosts differ in
    BLAS threads or nproc, else 0."""
    old, new = (json.loads(Path(path).read_text()) for path in (old_path, new_path))
    for key in ("blas_threads", "nproc"):
        if old["environment"][key] != new["environment"][key]:
            print(f"refused: {key} is {old['environment'][key]} in {old_path} "
                  f"and {new['environment'][key]} in {new_path}", file=sys.stderr)
            return 2
    for path, doc in ((old_path, old), (new_path, new)):
        print(f"{path}: {doc['src_lines']} src lines, load average "
              f"{doc['environment']['loadavg']['start'][0]:.2f} at start")
    new_rows = {row["stage"]: row for row in new["stages"]}
    rows = [("stage", "old s", "new s", "ratio", "old MB", "new MB", "ratio", "flag")]
    for a in old["stages"]:
        b = new_rows.get(a["stage"])
        if b is None:
            continue
        seconds = _ratio(a["seconds"], b["seconds"])
        peak = _ratio(a["peak_mb"], b["peak_mb"])
        flags = [name for name, r, bound in (("seconds", seconds, SECONDS_FLAG),
                                             ("peak", peak, PEAK_FLAG))
                 if r is not None and r > bound]
        rows.append((a["stage"], _fmt(a["seconds"], ".3g"), _fmt(b["seconds"], ".3g"),
                     _fmt(seconds, ".2f"), _fmt(a["peak_mb"], ".3g"),
                     _fmt(b["peak_mb"], ".3g"), _fmt(peak, ".2f"), ",".join(flags)))
    print_table(rows)
    old_names = {row["stage"] for row in old["stages"]}
    for path, doc, other in ((old_path, old, new_rows), (new_path, new, old_names)):
        for row in doc["stages"]:
            if row["stage"] not in other:
                print(f"only in {path}: {row['stage']}")
    return 0


def main(argv=None, table=TABLE):
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--json", metavar="PATH",
                    help="also write the rows and the host to PATH")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two --json documents instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    load_start = os.getloadavg()
    results = []
    for make, cases in table:
        for case in cases:
            stage = make(*case)
            results.append((stage, *measure(stage)))
    rows = [("stage", "time", "rate", "peak")]
    rows += [(stage.name, f"{seconds * 1e3:.2f}ms",
              f"{stage.work / seconds:.3g} {stage.unit}/s",
              "" if peak is None else f"{peak:.2f}MB")
             for stage, seconds, peak in results]
    print_table(rows)
    if args.json:
        doc = {"environment": environment(load_start), "src_lines": src_lines(),
               "stages": [{"stage": stage.name, "seconds": seconds,
                           "peak_mb": peak, "work": stage.work,
                           "unit": stage.unit}
                          for stage, seconds, peak in results]}
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
