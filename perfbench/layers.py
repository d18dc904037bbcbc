"""Which scheme-forge functions the traced run wraps, and the per-layer metrics.

Each span is named ``<defining module>.<function>``; metrics of ``_kernels``
are named ``kernels.*``, since a metric name must start with a letter or a
digit.  A ``*_s`` metric is the summed duration of that span over all its
calls (for the scan kernel, busy time summed over threads); ``*_self_s``
subtracts the wrapped calls made inside it.  ``*_peak_mb`` is traced heap
above the span's entry level.
"""

from __future__ import annotations

import importlib

from tracer import MB, Tracer, replace_everywhere, self_times, traced


# (module, function) in scheme_forge; every namespace importing it is patched
TRACED = [
    ("finite_field", "build_field"),
    ("_kernels", "antilog_table"),
    ("cyclotomy", "build_cyclotomy"),
    ("scheme_core", "dual_classes"),
    ("scheme_core", "eigenmatrices"),
    ("scheme_core", "intersection_numbers"),
    ("scheme_core", "is_primitive"),
    ("jsonio", "dumps"),
    ("gauss_sums", "make_index2_params"),
    ("gauss_sums", "gauss_sums_all"),
    ("constructions", "five_class_3mod8"),
    ("search", "exhaustive_nonexistence"),
    ("_kernels", "search_chunk"),
]

# spans whose traced-heap peak is reported
HEAP_SPANS = ("finite_field.build_field", "scheme_core.intersection_numbers",
              "gauss_sums.gauss_sums_all")

# scan kernel signature: search_chunk(prefix, N, dmin, dmax, half, t0, sden, p,
#                                     require_nonsym, counts, ...)
_COUNTS_ARG = 9


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function, and count elements swept by FieldSpec.sub_vec."""
    fields = set()

    def field_tables(args, kwargs, field):
        # build_field is cached: count each distinct field's tables once
        if id(field) not in fields:
            fields.add(id(field))
            tracer.count("finite_field.table_bytes", sum(t.nbytes for t in (
                field.antilog_table, field.log_table, field.trace_table)))

    def dumps_bytes(args, kwargs, text):
        tracer.count("jsonio.dumps_bytes", len(text.encode()))

    hooks = {"build_field": field_tables, "dumps": dumps_bytes}
    for mod, fn_name in TRACED:
        module = importlib.import_module(f"scheme_forge.{mod}")
        original = getattr(module, fn_name)
        body = original
        if fn_name == "search_chunk":
            body = _counting_leaves(tracer, original)
        replace_everywhere(original, traced(tracer, f"{mod}.{fn_name}", body,
                                            hooks.get(fn_name)))

    field_spec = importlib.import_module("scheme_forge.finite_field").FieldSpec
    sub_vec = field_spec.sub_vec

    def counted_sub_vec(self, z, codes):
        tracer.count("finite_field.sub_vec_elements", codes.size)
        return sub_vec(self, z, codes)

    field_spec.sub_vec = counted_sub_vec


def _counting_leaves(tracer, search_chunk):
    """The kernel adds each leaf it visits to ``counts``; diff it per call."""

    def run(*args, **kwargs):
        counts = args[_COUNTS_ARG] if len(args) > _COUNTS_ARG else kwargs["counts"]
        before = int(counts.sum())
        survivors = search_chunk(*args, **kwargs)
        tracer.count("_kernels.search_chunk_leaves", int(counts.sum()) - before)
        tracer.count("_kernels.search_chunk_survivors", len(survivors))
        return survivors

    return run


def summarise(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-layer metrics (names as in BENCHMARK.json) from the finished spans."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def peak(name):
        return max((s.peak_mb for s in by_name.get(name, ())), default=0.0)

    def count(name):
        return tracer.counters.get(name, 0)

    selfs = self_times(spans)
    chunks = by_name.get("_kernels.search_chunk", [])
    busy = total("_kernels.search_chunk")
    leaves = count("_kernels.search_chunk_leaves")
    survivors = count("_kernels.search_chunk_survivors")
    phase = recheck = 0.0
    for scan in by_name.get("search.exhaustive_nonexistence", ()):
        pool = [c for c in chunks if scan.start <= c.start <= scan.end]
        if pool:
            phase += max(c.end for c in pool) - min(c.start for c in pool)
            recheck += scan.end - max(c.end for c in pool)

    return {
        "finite_field.build_field_s": total("finite_field.build_field"),
        "finite_field.table_mb": count("finite_field.table_bytes") / MB,
        "finite_field.build_field_peak_mb": peak("finite_field.build_field"),
        "finite_field.sub_vec_elements": count("finite_field.sub_vec_elements"),
        "kernels.antilog_table_s": total("_kernels.antilog_table"),
        "cyclotomy.build_cyclotomy_s": total("cyclotomy.build_cyclotomy"),
        "scheme_core.intersection_numbers_s": total("scheme_core.intersection_numbers"),
        "scheme_core.intersection_numbers_peak_mb": peak("scheme_core.intersection_numbers"),
        "scheme_core.dual_classes_s": total("scheme_core.dual_classes"),
        "scheme_core.dual_classes_calls": len(by_name.get("scheme_core.dual_classes", ())),
        "scheme_core.eigenmatrices_s": total("scheme_core.eigenmatrices"),
        "scheme_core.is_primitive_s": total("scheme_core.is_primitive"),
        "jsonio.dumps_s": total("jsonio.dumps"),
        "jsonio.dumps_bytes": count("jsonio.dumps_bytes"),
        "gauss_sums.gauss_sums_all_s": total("gauss_sums.gauss_sums_all"),
        "gauss_sums.gauss_sums_all_peak_mb": peak("gauss_sums.gauss_sums_all"),
        "gauss_sums.make_index2_params_s": total("gauss_sums.make_index2_params"),
        "kernels.search_chunk_s": busy,
        "kernels.search_chunk_calls": len(chunks),
        "kernels.search_chunk_leaves": leaves,
        "kernels.search_chunk_survivors": survivors,
        "kernels.survivor_ratio": survivors / leaves if leaves else 0.0,
        "search.kernel_leaves_per_s": leaves / busy if busy else 0.0,
        "search.thread_util": busy / (phase * threads) if phase else 0.0,
        "search.recheck_s": recheck,
        "constructions.five_class_3mod8_self_s": sum(
            selfs[s.id] for s in by_name.get("constructions.five_class_3mod8", ())),
    }
