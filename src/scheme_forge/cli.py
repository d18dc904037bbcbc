"""Command line front end.

Exit codes: 0 success / claim confirmed, 1 mathematical refutation (a scheme
or match that was expected did not materialise), 2 usage or configuration
error, 3 resource cap exceeded.  Each command imports the modules it runs,
so gauss-verify, say, never loads the scan or the scheme verifier.
numpy starts on one BLAS thread unless OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

# OpenBLAS sizes its thread pool once, as numpy loads.  The eigenmatrix inverse
# and the trace sums' float64 products are small for a per-core pool: 257
# products (97, 257) @ (257, 97) took 2.69 s on two threads, 0.028 s on one
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import jsonio  # noqa: E402
from .errors import ParseError, SchemeForgeError  # noqa: E402
from .finite_field import DEFAULT_CAP, build_field  # noqa: E402


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse(kind, text: str):
    # argparse would name the function in "invalid _cap value: 'abc'"
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}") from None


def _tolerance(text: str) -> float:
    value = _parse(float, text)
    if not value >= 0:  # NaN too
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative number")
    return value


def _cap(text: str) -> int:
    value = _parse(int, text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{text!r} admits no field (q >= 2)")
    return value


def _emit(doc: dict, out_path: str | None) -> None:
    # rendered in full before the first write: a render error writes nothing;
    # written 256 pieces a call, as each write to an unbuffered stdout
    # (PYTHONUNBUFFERED) is a system call
    pieces = jsonio.chunks(doc)
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
        for i in range(0, len(pieces), 256):
            fh.write("".join(pieces[i:i + 256]))


def _field_system(args):
    from .cyclotomy import build_cyclotomy

    field = build_field(args.p, args.f, cap=args.cap)
    return field, build_cyclotomy(field, args.n)


def cmd_verify(args) -> int:
    from .scheme_core import verify_scheme

    field, sys_ = _field_system(args)
    partition = jsonio.load_partition(args.parts, args.n)
    report = verify_scheme(sys_, partition)
    _emit({"command": "verify", "field": field.to_json(),
           "partition": partition.to_json(),
           "report": jsonio.report_to_json(report)}, args.output)
    return 0


def cmd_eigen(args) -> int:
    from .scheme_core import dual_classes, eigenmatrices

    field, sys_ = _field_system(args)
    partition = jsonio.load_partition(args.parts, args.n)
    P_exact, P, Q = eigenmatrices(sys_, partition, dual_classes(sys_, partition))
    _emit({"command": "eigen", "field": field.to_json(),
           "partition": partition.to_json(),
           "P_exact": jsonio.cyc_matrix(P_exact),
           "P_complex": jsonio.complex_matrix(P),
           "Q_complex": jsonio.complex_matrix(Q)}, args.output)
    return 0


def cmd_fuse(args) -> int:
    from .cyclotomy import embed
    from .scheme_core import IndexPartition, _p_exact, check_fusion, dual_classes

    field, sys_ = _field_system(args)
    partition = (jsonio.load_partition(args.parts, args.n) if args.parts is not None
                 else IndexPartition.from_sets(args.n, [[i] for i in range(args.n)]))
    lam = jsonio.parse_cells(args.merge, "--merge")
    fused = check_fusion(_p_exact(sys_, partition, dual_classes(sys_, partition)), lam)
    doc = {"command": "fuse", "field": field.to_json(),
           "partition": partition.to_json(),
           "column_partition": lam,
           "fusable": fused is not None}
    if fused is not None:
        delta, fused_P = fused
        doc["row_partition"] = [list(c) for c in delta]
        doc["fused_P_exact"] = jsonio.cyc_matrix(fused_P)
        doc["fused_P_complex"] = jsonio.complex_matrix(embed(fused_P, field.p))
    _emit(doc, args.output)
    return 0


def cmd_construct(args) -> int:
    from . import constructions

    kind = args.kind
    build, reads = {
        "three_class": (constructions.three_class_base, "s"),
        "four_class": (constructions.four_class_7mod8, "s"),
        "five_class": (constructions.five_class_3mod8, "m"),
        "conference": (constructions.conference_7mod8, "i0"),
    }[kind]
    for name in ("s", "m", "i0"):
        if name != reads and getattr(args, name) is not None:
            raise ValueError(f"construct --kind {kind} does not read --{name}")
    value = getattr(args, reads)
    if reads == "i0" and value is not None:
        value, *more = jsonio.parse_cells(args.i0, "--i0")  # one cell
        if more:
            raise ParseError(f"bad --i0 syntax: {args.i0!r}")
    options = {} if value is None else {reads: value}
    built = build(args.p, args.p1, **options, cap=args.cap)
    doc = {"command": "construct", "kind": kind,
           "partition": built.partition.to_json()}
    if built.field is not None:
        doc["field"] = built.field.to_json()
    if built.report is not None:
        doc["report"] = jsonio.report_to_json(built.report)
    _emit(doc, args.output)
    return 0


def cmd_gauss_verify(args) -> int:
    from . import gauss_sums

    rep = gauss_sums.index2_comparison(args.p, args.p1, s=args.s, cap=args.cap)
    ok = rep["max_abs_err"] <= args.tolerance * (rep["q_s"] ** 0.5)
    doc = {"command": "gauss-verify", "p": args.p, "p1": args.p1, "s": args.s,
           "q_s": rep["q_s"], "h": rep["h"], "b": rep["b"], "c": rep["c"],
           "c_sign": rep["c_sign"],
           "max_abs_err": jsonio.fnum(rep["max_abs_err"]),
           "tolerance_scaled": jsonio.fnum(args.tolerance * rep["q_s"] ** 0.5),
           "within_tolerance": ok,
           "per_exponent": [
               {"exponent": e["exponent"],
                "direct": jsonio.cnum(e["direct"]),
                "formula": jsonio.cnum(e["formula"]),
                "abs_err": jsonio.fnum(e["abs_err"])}
               for e in rep["per_exponent"]]}
    _emit(doc, args.output)
    return 0 if ok else 1


def cmd_search(args) -> int:
    from . import search

    def progress(s):
        rate = s.done / s.elapsed_s if s.elapsed_s > 0 else 0.0
        eta = (s.total - s.done) / rate if rate > 0 else 0.0
        print(f"progress: {s.phase} {s.done}/{s.total}, {rate:.3g}/s, "
              f"ETA {eta:.1f} s", file=sys.stderr, flush=True)

    result = search.exhaustive_nonexistence(
        args.p, args.max_classes, args.allow_symmetric, progress=progress)
    _emit({"command": "search-nonexistence", "p": args.p,
           "max_classes": args.max_classes,
           "allow_symmetric": bool(args.allow_symmetric),
           "checked": result.candidates_checked,
           "counts_by_classes": result.counts_by_classes,
           "found": [part.to_json() for part in result.schemes_found]},
          args.output)
    return 0


def cmd_song(args) -> int:
    from . import constructions

    rep = constructions.song_example(cap=args.cap)
    ok = (rep.matrices_match and rep.dual_affine_map is not None
          and rep.rho_exact and rep.template_match is not None)
    r = rep.built.report
    _emit({"command": "song-reproduce",
           "q": rep.golden["q"], "N": rep.golden["N"],
           "affine_map": list(rep.affine_map),
           "partition": rep.built.partition.to_json(),
           "class_count": r.d,
           "nonsymmetric_pair_count": r.nonsymmetric_pair_count,
           "intersection_matrices_match": rep.matrices_match,
           "class_relabeling": list(rep.class_relabeling) if rep.class_relabeling else None,
           "dual_affine_map": list(rep.dual_affine_map) if rep.dual_affine_map else None,
           "rho_exact_identity": rep.rho_exact,
           "template_g": rep.golden["g"],
           "template_match": (dict(zip(("rows", "cols"), rep.template_match))
                              if rep.template_match else None),
           "report": jsonio.report_to_json(r)}, args.output)
    return 0 if ok else 1


def _add_common(sp, field=False, n=False, parts=False, cap=True):
    sp.add_argument("--output", help="write the JSON document here instead of stdout")
    if cap:
        sp.add_argument("--cap", type=_cap, default=DEFAULT_CAP,
                        help="field size cap (elements)")
    if field:
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--f", type=int, required=True)
    if n:
        sp.add_argument("--n", type=int, required=True,
                        help="cyclotomy order N (divides q-1)")
    if parts:
        sp.add_argument("--parts", required=True,
                        help="partition of Z_N: '0,1|2,3|...' or @file")


def build_parser() -> _Parser:
    ap = _Parser(prog="scheme-forge")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="verify a partition as a translation scheme")
    _add_common(sp, field=True, n=True, parts=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eigen", help="eigenmatrices of a verified partition")
    _add_common(sp, field=True, n=True, parts=True)
    sp.set_defaults(fn=cmd_eigen)

    sp = sub.add_parser("fuse", help="Bannai-Muzychuk fusion test")
    _add_common(sp, field=True, n=True)
    sp.add_argument("--parts", help="fine partition (default: all singletons)")
    sp.add_argument("--merge", required=True,
                    help="partition of class labels {0..d}, first cell must be 0")
    sp.set_defaults(fn=cmd_fuse)

    sp = sub.add_parser("construct", help="build and verify a named family member")
    _add_common(sp)
    sp.add_argument("--kind", required=True,
                    choices=["three_class", "four_class", "five_class", "conference"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--p1", type=int, required=True)
    # each kind reads one of these; giving another exits 2
    sp.add_argument("--s", type=int, help="three_class, four_class (default 1)")
    sp.add_argument("--m", type=int, help="five_class (default 1)")
    sp.add_argument("--i0", help="conference index set, e.g. '0,1,2,3,4,5,6'")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("gauss-verify",
                        help="index-2 Gauss sum closed forms vs direct sums")
    _add_common(sp)
    sp.add_argument("--tolerance", type=_tolerance, default=1e-6)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--p1", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.set_defaults(fn=cmd_gauss_verify)

    sp = sub.add_parser("search-nonexistence",
                        help="exhaustive scan for few-class schemes on F_{p^2}")
    _add_common(sp, cap=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-classes", type=int, default=4, dest="max_classes")
    sp.add_argument("--allow-symmetric", action="store_true",
                    help="sanity mode: drop the nonsymmetry and primitivity filters")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("song-reproduce",
                        help="reproduce the F_{37^3} four-class fission golden data")
    _add_common(sp)
    sp.set_defaults(fn=cmd_song)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SchemeForgeError as exc:
        print(f"scheme-forge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.cli_code
    except MemoryError as exc:
        # the backstop for a working set its estimate missed
        print(f"scheme-forge: MemoryError: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, OverflowError) as exc:
        print(f"scheme-forge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
