"""`report.to_json` against the standard library encoder it replaces."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torstab.cli import _run
from torstab.model import SupportPattern
from torstab.mu import MuValue
from torstab.report import to_json, to_text


def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def as_lists(value):
    """`value` as `json.loads` gives it back: tuples become lists."""
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value


# Empty strings, quotes, backslashes, control and non-ASCII characters,
# astral ones included (escaped as surrogate pairs).
strings = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀'), st.characters()), max_size=6
)
integers = st.one_of(
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
)
scalars = st.one_of(st.none(), st.booleans(), integers, strings)


def trees(depth: int):
    if depth == 0:
        return scalars
    children = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=3),
    )


@settings(max_examples=200, deadline=None)
@given(trees(5))
def test_to_json_equals_the_stdlib_encoder(value):
    text = to_json(value)
    assert text == stdlib_json(value)
    assert json.loads(text) == as_lists(value)


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, "true\n"),
        (False, "false\n"),
        (None, "null\n"),
        ([True, 1, False, 0], "[\n true,\n 1,\n false,\n 0\n]\n"),
        ({"b": {}, "a": []}, '{\n "a": [],\n "b": {}\n}\n'),
        ({"k": [{"x": "é"}]}, '{\n "k": [\n  {\n   "x": "\\u00e9"\n  }\n ]\n}\n'),
    ],
)
def test_explicit_renderings(value, expected):
    assert to_json(value) == expected == stdlib_json(value)


@pytest.mark.parametrize(
    "value, named",
    [
        (1.5, "float"),
        (Fraction(1, 2), "Fraction"),
        ({"a": [0, Fraction(-3, 7)]}, "Fraction"),
        ({1: "one"}, "int"),
        ({None: "none"}, "NoneType"),
        # Records are tuples, which `json.dumps` would write as arrays.
        (MuValue.finite(3), "MuValue"),
        ({"rows": [SupportPattern(frozenset(), frozenset("u"))]}, "SupportPattern"),
    ],
)
def test_other_values_raise_type_error(value, named):
    with pytest.raises(TypeError, match=named):
        to_json(value)


def test_shared_row_fragments_render_like_the_stdlib():
    # A `patterns` report shares one name list per subset and one verdict
    # dict per distinct verdict across its rows; sharing must not change
    # either view, and rendering must not change the report.
    problem = Path(__file__).parent / "tables" / "rank3_5x5_seed1.problem"
    _, report = _run(["patterns", "--problem", str(problem), "--format", "json"])
    rows = report["result"]["rows"]
    assert len(rows) == 992
    assert len({id(r["verdict"]) for r in rows}) < len(rows)
    assert len({id(r["base"]) for r in rows}) == 32
    text = to_json(report)
    assert text == stdlib_json(report)
    shown = to_text(report)
    assert to_json(report) == text
    assert to_text(report) == shown
