"""`jsonout.dumps`, the CLI's JSON writer, against its oracle
`json.dumps(value, sort_keys=True)` on every kind of value a report holds,
and its TypeError on any other value."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gluckknot.jsonout import dumps

# every code point: lone surrogates, control characters, DEL, non-BMP text
TEXT = st.text(st.characters(exclude_categories=()))

VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**100), 10**100)
    | TEXT,
    lambda children: st.lists(children) | st.dictionaries(TEXT, children),
    max_leaves=30,
)


@given(VALUES)
@example("\"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xff\ud7ff\ue000\uffff")
@example("\ud800 \udfff \ud800\udc00")  # lone surrogates, and a pair of them
@example("\U00010000 \U0001f600 \U0010ffff")
@example([-(10**100), 10**100 - 1, 0, True, False, None, [], {}])
@example({"b": 1, "a": {"\x7f": [], "": None}, "B": "\xe9"})
def test_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), (1, 2), {1}, frozenset(), b"x", {1: 2}, {None: 1}],
    ids=repr,
)
def test_other_values_raise(value):
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("value", [[1.5], {"a": (1,)}, {"a": {2: "b"}}, [[{1}]]])
def test_nested_other_values_raise(value):
    with pytest.raises(TypeError):
        dumps(value)
