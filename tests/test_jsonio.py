"""jsonio.dumps writes the bytes of json.dumps(indent=2), faster."""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_forge import jsonio


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
    # the command line writes these pieces as they are: no piece holds the
    # value of more than one key, so the document is never joined
    doc = {"a": [1, 2], "b": {"c": [3.5], "d": "x"}}
    pieces = jsonio.chunks(doc)
    assert "".join(pieces) == reference(doc)
    assert pieces == ['{\n  "schema": "scheme-forge/1"',
                      ',\n  "a": [\n    1,\n    2\n  ]',
                      ',\n  "b": ', '{\n    "c": [\n      3.5\n    ]',
                      ',\n    "d": "x"', '\n  }', '\n}', '\n']
