"""Deterministic JSON rendering and parsing for reports and partitions.

One invocation emits one document under the "scheme-forge/1" schema; floats
are rounded to 12 significant digits so identical runs are byte-identical,
and complex values render as [re, im] pairs.  ``dumps`` writes exactly the
bytes of json.dumps(doc, indent=2) plus a newline, NaN and Infinity spelled
as json spells them and non-ASCII characters escaped; it only gets there
faster.  ``chunks`` gives the same bytes as a list of pieces, one per flat
list of numbers, scalar, key, separator and bracket, for a writer that need
not join them.
"""

from __future__ import annotations

import json
from functools import lru_cache
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
        "intersection_matrices": [b.tolist() for b in report.intersection_matrices],
        "dual_parts": [list(p) for p in report.dual_parts],
        "is_symmetric": list(report.is_symmetric_rel),
        "nonsymmetric_pair_count": report.nonsymmetric_pair_count,
        "is_primitive": report.is_primitive,
        "is_self_dual": report.is_self_dual,
        "self_dual_permutation": report.self_dual_permutation,
    })
    return doc


def parse_cells(text: str, what: str) -> list[list[int]]:
    """Cells separated by '|', integers by ','; a blank cell is [] for the
    caller to refuse, a blank or non-integer token is bad ``what`` syntax."""
    try:
        return [[int(tok) for tok in cell.split(",")] if cell.strip() else []
                for cell in text.split("|")]
    except ValueError:
        raise ParseError(f"bad {what} syntax: {text!r}") from None


def load_partition(text: str, N: int) -> IndexPartition:
    """Inline '0,1|2,3' syntax (parts separated by '|', indices by ','), or
    @path to a file with either that syntax or a JSON {"N":..., "parts":[[...]]}
    document."""
    from .scheme_core import IndexPartition

    if text.startswith("@"):
        path = text[1:]
        with open(path) as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            doc = json.loads(text)
            if "parts" not in doc:
                raise ParseError(f"{path}: no \"parts\" in the JSON document")
            if N and doc.get("N") != N:
                raise PartitionInvalid(f"file N = {doc.get('N')} != {N}")
            return IndexPartition.from_sets(doc["N"], doc["parts"])
    parts = parse_cells(text, "partition")
    if not all(parts):
        raise ParseError("empty part in partition text")
    return IndexPartition.from_sets(N, parts)


def dumps(doc: dict) -> str:
    """The document under its schema, as json.dumps(..., indent=2) + newline."""
    return "".join(chunks(doc))


def chunks(doc: dict) -> list[str]:
    """The pieces of dumps(doc), in order, for writelines.

    No piece holds more than one list, so no value is joined with its
    neighbours and writing the pieces never makes a second copy of the text.
    """
    out: list[str] = []
    _lay_out({"schema": SCHEMA, **doc}, "", out)
    out.append("\n")
    return out


@lru_cache(maxsize=None)
def _marks(indent: str) -> tuple[str, str, str, str, str, str]:
    """(inner, separator, "[" and "]", "{" and "}") of a container nested
    ``indent`` deep: built once a depth and shared by all its containers."""
    inner = indent + "  "
    return (inner, ",\n" + inner, "[\n" + inner, "\n" + indent + "]",
            "{\n" + inner, "\n" + indent + "}")


def _lay_out(o, indent: str, out: list[str]) -> None:
    """Append the pieces of json.dumps(o, indent=2), nested ``indent`` deep.

    A flat list of plain ints and floats, the bulk of a report, is one piece
    joined in one call, where json's pure-Python indenting encoder visits it
    item by item; any other container is its brackets, separators and keys
    around its items' own pieces, the depth's shared ``_marks``.
    """
    if isinstance(o, (list, tuple)) and o:
        inner, sep, lead, close = _marks(indent)[:4]
        if set(map(type, o)) <= _NUMBERS:
            body = sep.join(map(repr, o))
            if "n" in body:  # nan or inf: spelled NaN, Infinity by json
                body = sep.join(map(json.dumps, o))
            out.append(lead + body + close)
            return
        for x in o:
            out.append(lead)
            _lay_out(x, inner, out)
            lead = sep
        out.append(close)
    elif isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        inner, sep, _, _, lead, close = _marks(indent)
        for key, v in o.items():
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _lay_out(v, inner, out)
            lead = sep
        out.append(close)
    elif type(o) is int:
        out.append(repr(o))
    elif type(o) is str:
        out.append(encode_basestring_ascii(o))
    else:  # other scalars, empty containers, non-str keys, json's TypeError
        out.append(json.dumps(o, indent=2).replace("\n", "\n" + indent))
