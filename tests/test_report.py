"""`report.to_json` against the standard library encoder it replaces."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torstab import report as report_module
from torstab.cli import _run
from torstab.degeneration import build_weight_table
from torstab.model import SupportPattern
from torstab.report import to_json, to_text


def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def assert_same_text(text: str, expected: str) -> None:
    """Fail on any difference, naming the first differing offset, without
    pytest's diff of the two strings, which runs for minutes on a long
    report."""
    if text == expected:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
        min(len(text), len(expected)),
    )
    pytest.fail(
        f"texts of {len(text)} and {len(expected)} characters differ first at offset "
        f"{at}: {text[at:at + 40]!r} != {expected[at:at + 40]!r}",
        pytrace=False,
    )


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


# Sharing: `trees()` never draws one object twice, but a `patterns` report
# shares name lists and verdict dicts across its rows.  Rows here take their
# values from a small pool of subtrees, and the pool's objects also appear at
# other depths, inside the pool's own list and in rows one level deeper, so
# a fragment reused across depths or across distinct objects would show.
containers = st.one_of(
    st.lists(trees(1), min_size=1, max_size=2),
    st.dictionaries(strings, trees(1), min_size=1, max_size=2),
)


@st.composite
def aliased_trees(draw):
    pool = draw(st.lists(containers, min_size=1, max_size=3))
    cells = st.one_of(st.sampled_from(pool), scalars)
    keys = draw(st.lists(strings, min_size=1, max_size=3, unique=True))

    def row_list():
        rows = draw(
            st.lists(st.fixed_dictionaries({key: cells for key in keys}), min_size=2, max_size=4)
        )
        odd = draw(st.sampled_from(["none", "other keys", "non-dict", "empty dict"]))
        if odd != "none":
            at = draw(st.integers(0, len(rows)))
            row = {
                "other keys": dict(rows[0], **{keys[0] + "'": draw(cells)}),
                "non-dict": draw(cells),
                "empty dict": {},
            }[odd]
            rows.insert(at, row)
        return rows

    return {"pool": pool, "rows": row_list(), "nested": [{"deeper": row_list()}]}


@settings(max_examples=60, deadline=None)
@given(aliased_trees())
def test_to_json_equals_the_stdlib_encoder_on_shared_subtrees(value):
    assert to_json(value) == stdlib_json(value)


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, "true\n"),
        (False, "false\n"),
        (None, "null\n"),
        ([True, 1, False, 0], "[\n true,\n 1,\n false,\n 0\n]\n"),
        ({"b": {}, "a": []}, '{\n "a": [],\n "b": {}\n}\n'),
        ({"k": [{"x": "é"}]}, '{\n "k": [\n  {\n   "x": "\\u00e9"\n  }\n ]\n}\n'),
        # Rows with no keys, or with different keys, are not a row list.
        ([{}, {}], "[\n {},\n {}\n]\n"),
        ([{"a": 1}, {"b": 1}], '[\n {\n  "a": 1\n },\n {\n  "b": 1\n }\n]\n'),
        ([{"a": []}], '[\n {\n  "a": []\n }\n]\n'),
    ],
)
def test_explicit_renderings(value, expected):
    assert to_json(value) == expected == stdlib_json(value)


SHARED = ["x", "y"]
SHARED_FRACTION = [0, Fraction(1, 2)]
PATTERN = SupportPattern(frozenset(), frozenset("u"))


@pytest.mark.parametrize(
    "value, named",
    [
        (1.5, "float"),
        (Fraction(1, 2), "Fraction"),
        ({"a": [0, Fraction(-3, 7)]}, "Fraction"),
        ({1: "one"}, "int"),
        ({None: "none"}, "NoneType"),
        # Records are tuples, which `json.dumps` would write as arrays.
        (build_weight_table(1), "WeightTable"),
        ({"rows": [SupportPattern(frozenset(), frozenset("u"))]}, "SupportPattern"),
        # A list takes the row path when every item is a dict with the first
        # item's non-empty key set, and the per-line path otherwise.
        ([{"a": SHARED_FRACTION}, {"a": SHARED_FRACTION}], "Fraction"),
        ([{"a": SHARED, 1: 0}, {"a": SHARED, 1: 0}], "int"),
        ([{1: SHARED}, {1: SHARED}], "int"),
        ([{"a": SHARED}, {"a": SHARED, 2: 0}], "int"),
        ([{"a": SHARED}, {2: SHARED}], "int"),
        ([{"a": SHARED, "p": PATTERN}, {"a": SHARED, "p": PATTERN}], "SupportPattern"),
        ([{"a": SHARED, "p": 0}, {"a": SHARED, "p": PATTERN}], "SupportPattern"),
        ([{"a": SHARED}, PATTERN], "SupportPattern"),
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
    assert_same_text(text, stdlib_json(report))
    shown = to_text(report)
    assert_same_text(to_json(report), text)
    assert_same_text(to_text(report), shown)


def _count_renders(monkeypatch):
    """Count `_put_value` entries by the id of the value rendered."""
    counts = Counter()
    render = report_module._put_value

    def counted(lead, value, indent, put):
        counts[id(value)] += 1
        render(lead, value, indent, put)

    monkeypatch.setattr(report_module, "_put_value", counted)
    return counts


def test_patterns_report_renders_each_shared_fragment_once(monkeypatch):
    # The name cells are the table's own tuples, shared by every row of
    # their subset; each is rendered once, as the stdlib renders a list.
    problem = Path(__file__).parent / "tables" / "rank3_5x5_seed1.problem"
    _, report = _run(["patterns", "--problem", str(problem), "--format", "json"])
    rows = report["result"]["rows"]
    assert {type(row[key]) for row in rows for key in ("base", "fiber")} == {tuple}
    expected = stdlib_json(report)
    counts = _count_renders(monkeypatch)
    assert_same_text(to_json(report), expected)
    shared = {id(row[key]) for row in rows for key in ("base", "fiber", "verdict")}
    assert {counts[i] for i in shared} == {1}
    # Each row goes out whole, without a `_put_value` call of its own.
    assert not any(counts[id(row)] for row in rows)


def _unshared(value):
    """A copy of a report in which no list, tuple or dict object occurs
    twice.  Tuples come back as lists, since the empty tuple is one object."""
    if type(value) is dict:
        return {k: _unshared(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [_unshared(v) for v in value]
    return value


def test_sweep_report_shares_and_renders_each_fragment_once(monkeypatch):
    # `conic --sweep` builds one stratum list per stratum (the one in
    # `stratum_weights`) and one verdict dict per distinct verdict, and its
    # rows hold the sweep's lengths tuples, one per distinct lengths; both
    # views equal those of an unshared copy.
    _, report = _run(["conic", "--n", "3", "--sweep", "--format", "json"])
    result = report["result"]
    rows = result["rows"]
    assert {type(row["lengths"]) for row in rows} == {tuple}
    strata = {tuple(s["stratum"]): s["stratum"] for s in result["stratum_weights"]}
    assert all(row["stratum"] is strata[tuple(row["stratum"])] for row in rows)
    for key in ("lengths", "verdict"):
        values = [row[key] for row in rows]
        assert len({id(v) for v in values}) == len({json.dumps(v) for v in values}) < len(rows)
    plain = _unshared(report)
    assert to_json(report) == to_json(plain) == stdlib_json(report)
    assert to_text(report) == to_text(plain)
    counts = _count_renders(monkeypatch)
    to_json(report)
    shared = {id(row[key]) for row in rows for key in ("lengths", "verdict")}
    assert {counts[i] for i in shared} == {1}
    # A stratum list goes out once in `stratum_weights` and once in `rows`.
    assert {counts[id(row["stratum"])] for row in rows} == {2}


def test_text_view_formats_each_shared_pattern_piece_once(monkeypatch):
    problem = Path(__file__).parent / "tables" / "rank3_5x5_seed1.problem"
    _, report = _run(["patterns", "--problem", str(problem), "--format", "json"])
    rows = report["result"]["rows"]
    calls = Counter()
    for name in ("_braced", "_verdict"):

        def counted(value, _name=name, _original=getattr(report_module, name)):
            calls[_name] += 1
            return _original(value)

        monkeypatch.setattr(report_module, name, counted)
    shown = to_text(report)
    names = {tuple(row[key]) for row in rows for key in ("base", "fiber")}
    verdicts = {tuple(map(repr, row["verdict"].values())) for row in rows}
    once = {"_braced": len(names), "_verdict": len(verdicts)}
    assert calls == once
    # The cache is keyed by value, so an unshared copy, like a report parsed
    # from JSON, formats each distinct piece once too and prints the same text.
    calls.clear()
    assert to_text(_unshared(report)) == shown
    assert calls == once


@pytest.mark.parametrize(
    "argv, tables",
    [
        (
            ["conic", "--n", "3", "--sweep"],
            lambda r: [r["rows"], r["stratum_weights"]]
            + [s["intervals"] for s in r["stratum_weights"]],
        ),
        (
            ["invariants", "--problem", "builtin:conic-bundle", "--max-degree", "3"],
            lambda r: [r["invariant_monomials"]],
        ),
    ],
)
def test_row_lists_take_the_row_path_whether_or_not_they_share(monkeypatch, argv, tables):
    # The sweep's rows share their lengths tuples and verdict dicts, and the
    # invariants report's rows share nothing; the shape alone sends a list
    # of dicts through `_put_rows`.
    _, report = _run(argv + ["--format", "json"])
    rows_rendered = []
    put_rows = report_module._put_rows

    def recorded(lead, rows, indent, put):
        rows_rendered.append(rows)
        put_rows(lead, rows, indent, put)

    monkeypatch.setattr(report_module, "_put_rows", recorded)
    assert_same_text(to_json(report), stdlib_json(report))
    expected = tables(report["result"])
    assert all(rows for rows in expected)
    assert {id(rows) for rows in expected} <= {id(rows) for rows in rows_rendered}
