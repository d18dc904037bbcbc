"""Deterministic JSON rendering and parsing for reports and partitions.

One invocation emits one document under the "scheme-forge/1" schema; floats
are rounded to 12 significant digits so identical runs are byte-identical,
and complex values render as [re, im] pairs.  ``dumps`` writes exactly the
bytes of json.dumps(doc, indent=2) plus a newline, NaN and Infinity spelled
as json spells them and non-ASCII characters escaped; it only gets there
faster.  ``chunks`` gives the same bytes as a list of pieces, each dict laid
out key by key, for a writer that need not join them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, PartitionInvalid

if TYPE_CHECKING:  # imported where used, so rendering loads no verifier
    from .scheme_core import IndexPartition, SchemeReport

SCHEMA = "scheme-forge/1"
_NUMBERS = {int, float}


def fnum(x: float) -> float:
    return float(f"{float(x):.12g}")


def cnum(z: complex) -> list[float]:
    z = complex(z)
    return [fnum(z.real), fnum(z.imag)]


def complex_matrix(m) -> list[list[list[float]]]:
    return [[cnum(z) for z in row] for row in np.asarray(m)]


def int_matrix(m) -> list[list[int]]:
    return np.asarray(m).tolist()


def cyc_matrix(rows) -> list[list[dict]]:
    """An (m, m, p - 1) matrix of Z[xi_p] coefficient rows, entry by entry."""
    n = rows.shape[-1] + 1
    return [[{"n": n, "coeffs": e} for e in row] for row in rows.tolist()]


def report_to_json(report: SchemeReport) -> dict:
    doc = {
        "is_scheme": report.is_scheme,
        "class_count": report.d,
        "N": report.N,
        "q": report.q,
        "distinct_signatures": report.distinct_signatures,
    }
    if not report.is_scheme or report.valencies is None:
        return doc
    doc.update({
        "valencies": list(report.valencies),
        "P_exact": cyc_matrix(report.P_exact),
        "P_complex": complex_matrix(report.P_complex),
        "Q_complex": complex_matrix(report.Q_complex),
        "intersection_matrices": [int_matrix(b) for b in report.intersection_matrices],
        "dual_parts": [list(p) for p in report.dual_parts],
        "is_symmetric": list(report.is_symmetric_rel),
        "nonsymmetric_pair_count": report.nonsymmetric_pair_count,
        "is_primitive": report.is_primitive,
        "is_self_dual": report.is_self_dual,
        "self_dual_permutation": report.self_dual_permutation,
    })
    return doc


def parse_partition(text: str, N: int) -> IndexPartition:
    """Parts separated by '|', indices by ','."""
    from .scheme_core import IndexPartition

    try:
        parts = [[int(tok) for tok in chunk.split(",") if tok.strip() != ""]
                 for chunk in text.split("|")]
    except ValueError as exc:
        raise ParseError(f"bad partition syntax: {text!r}") from exc
    if not parts or any(len(p) == 0 for p in parts):
        raise ParseError("empty part in partition text")
    return IndexPartition.from_sets(N, parts)


def load_partition(path_or_inline: str, N: int) -> IndexPartition:
    """Inline '0,1|2,3' syntax, or @path / an existing path to a file with
    either that syntax or a JSON {"N":..., "parts":[[...]]} document."""
    import os

    from .scheme_core import IndexPartition

    text = path_or_inline
    path = text[1:] if text.startswith("@") else text
    if text.startswith("@") or os.path.exists(path):
        with open(path) as fh:
            raw = fh.read().strip()
        if raw.startswith("{"):
            doc = json.loads(raw)
            if "parts" not in doc:
                raise ParseError(f"{path}: no \"parts\" in the JSON document")
            if N and doc.get("N") != N:
                raise PartitionInvalid(f"file N = {doc.get('N')} != {N}")
            return IndexPartition.from_sets(doc["N"], doc["parts"])
        text = raw
    return parse_partition(text, N)


def dumps(doc: dict) -> str:
    """The document under its schema, as json.dumps(..., indent=2) + newline."""
    return "".join(chunks(doc))


def chunks(doc: dict) -> list[str]:
    """The pieces of dumps(doc), in order, for writelines.

    Every dict is laid out key by key and every other value is one string,
    so writing the pieces never holds a second copy of the document.
    """
    out: list[str] = []
    _lay_out({"schema": SCHEMA, **doc}, "", out)
    out.append("\n")
    return out


def _is_object(o) -> bool:
    """A non-empty dict that json lays out key by key."""
    return isinstance(o, dict) and bool(o) and all(isinstance(k, str) for k in o)


def _lay_out(o, indent: str, out: list[str]) -> None:
    """Append the pieces of json.dumps(o, indent=2), nested ``indent`` deep:
    an object's one per key, a nested object's own after its key, and any
    other value as one piece."""
    if not _is_object(o):
        out.append(_render(o, indent))
        return
    inner = indent + "  "
    lead = "{\n"
    for key, v in o.items():
        head = lead + inner + encode_basestring_ascii(key) + ": "
        if _is_object(v):
            out.append(head)
            _lay_out(v, inner, out)
        else:
            out.append(head + _render(v, inner))
        lead = ",\n"
    out.append("\n" + indent + "}")


def _render(o, indent: str) -> str:
    """json.dumps(o, indent=2), nested ``indent`` deep.

    Lists of plain ints and floats, the bulk of a report, are joined in one
    call; json's pure-Python indenting encoder visits them item by item.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) <= _NUMBERS:
            body = sep.join(map(repr, o))
            if "n" in body:  # nan or inf: spelled NaN, Infinity by json
                body = sep.join(map(json.dumps, o))
        else:
            body = sep.join([_render(x, inner) for x in o])
        return "[\n" + inner + body + "\n" + indent + "]"
    if _is_object(o):
        pieces: list[str] = []
        _lay_out(o, indent, pieces)
        return "".join(pieces)
    if type(o) is int:
        return repr(o)
    if type(o) is str:
        return encode_basestring_ascii(o)
    # other scalars, empty dicts, dicts with non-str keys, json's TypeError
    return json.dumps(o, indent=2).replace("\n", "\n" + indent)
