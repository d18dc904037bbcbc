"""jsonio.dumps writes the bytes of json.dumps(indent=2), faster."""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from scheme_forge import jsonio
from scheme_forge.cyclotomy import build_cyclotomy
from scheme_forge.finite_field import build_field
from scheme_forge.scheme_core import IndexPartition, verify_scheme
from scheme_forge.search import exhaustive_nonexistence


def reference(doc):
    return json.dumps({"schema": jsonio.SCHEMA, **doc}, indent=2) + "\n"


special_floats = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 1e16])
numbers = st.one_of(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                    st.floats(), special_floats)
scalars = st.one_of(st.none(), st.booleans(), numbers,
                    st.text(), st.sampled_from(["é中\U0001f600",
                                                "tab\t\"quote\"\\ \x00\x1f"]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.lists(numbers, max_size=6),  # the joined fast path
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3))


trees = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), trees, max_size=5))
def test_dumps_matches_json_indent2(doc):
    assert jsonio.dumps(doc) == reference(doc)


class Kind(enum.IntEnum):
    A = 1


class Tagged(list):
    pass


class Named(dict):
    pass


def test_dumps_matches_json_on_subclasses():
    doc = {"list": Tagged([1, 2.5, Tagged()]), "dict": Named(a=Named()),
           "enum": [Kind.A, 2], "bools": [True, 0, False],
           "numpy": [np.float64(0.1), 3], "nested int keys": [{1: [2], 2.5: {}}],
           "empty": [[], {}, ()]}
    assert jsonio.dumps(doc) == reference(doc)


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        jsonio.dumps({"bad": [1, np.int64(2)]})


def test_chunks_lay_out_each_key_as_its_own_piece():
    # the command line writes these pieces as they are: every key's head is
    # a piece of its own and no piece holds more than one list, so no value
    # is joined into one string with its neighbours
    doc = {"a": [1, 2], "b": {"c": [3.5], "d": "x"},
           "e": [[1, 2], [3]], "f": [{"g": [4, 5]}, 6, [7.5, None]]}
    pieces = jsonio.chunks(doc)
    assert "".join(pieces) == reference(doc)
    heads = [p.lstrip("{,\n ") for p in pieces if p.endswith(": ")]
    assert heads == [f'"{k}": ' for k in "schema a b c d e f g".split()]
    assert all(p.count("[") <= 1 for p in pieces)


def test_chunks_hold_the_text_about_once():
    # 32 singletons on F_{257^2}: 4.8 MiB of text, nearly all P_exact rows
    # and intersection matrices; a writer that joins each top-level value
    # into one string peaks at 2.6x
    N = 32
    sys_n = build_cyclotomy(build_field(257, 2), N)
    part = IndexPartition.from_sets(N, [[i] for i in range(N)])
    doc = {"command": "verify", "field": sys_n.field.to_json(),
           "partition": part.to_json(),
           "report": jsonio.report_to_json(verify_scheme(sys_n, part))}
    pieces, peak = traced_peak(lambda: jsonio.chunks(doc))
    text = sum(map(len, pieces))
    assert text > 4 << 20
    assert peak < 1.3 * text


def test_chunks_share_each_depths_brackets():
    # search-nonexistence --p 7 --allow-symmetric: 2,691 found partitions,
    # 0.87 MiB of many small lists.  Each depth's brackets and separators
    # are one string shared by all its containers; built once a container,
    # they took the traced peak to 2.45 MiB
    result = exhaustive_nonexistence(7, 4, True)
    doc = {"command": "search-nonexistence", "p": 7, "max_classes": 4,
           "allow_symmetric": True, "checked": result.candidates_checked,
           "counts_by_classes": result.counts_by_classes,
           "found": [part.to_json() for part in result.schemes_found]}
    pieces, peak = traced_peak(lambda: jsonio.chunks(doc))
    assert len(result.schemes_found) == 2691
    assert "".join(pieces) == reference(doc)
    assert peak < 2.1 * (1 << 20), peak
