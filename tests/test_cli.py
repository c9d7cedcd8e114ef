import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import torstab
from torstab import cli
from torstab.cli import main
from torstab.errors import InputError
from torstab.golden import GOLDEN_REPORTS
from torstab.model import parse_problem
from torstab.report import build_report, to_text


@pytest.fixture
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def test_classify_text(capture):
    code, out, _ = capture(
        "classify", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=0"
    )
    assert code == 0
    assert "unstable" in out
    assert "witness=(1)" in out
    assert "mu=-1" in out


def test_classify_problem_file(capture, tmp_path):
    path = tmp_path / "p.problem"
    path.write_text(
        '{"torus_rank": 1, "base_vars": {"x": [1], "y": [-1]},'
        ' "fiber_vars": {"u": [1], "v": [-1]}}'
    )
    code, out, _ = capture(
        "classify", "--problem", str(path), "--point", "x=1,y=1,u=1,v=1"
    )
    assert code == 0
    assert out.strip() == "stable"


def test_point_file(capture, tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"x": "1", "y": "0", "u": "1", "v": "0"}')
    code, out, _ = capture(
        "mu", "--problem", "builtin:conic-bundle", "--point", str(path), "--lambda", "2"
    )
    assert code == 0
    assert "= -2" in out


def test_input_error_exit_code(capture):
    code, _, err = capture(
        "classify", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=0,v=0"
    )
    assert code == 1
    assert "zero section" in err


def test_missing_file_exit_code(capture):
    code, _, err = capture(
        "classify", "--problem", "/nonexistent.problem", "--point", "x=1"
    )
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("spec", ["x=1/0,u=1", '{"x": "1/0", "u": 1}'], ids=["inline", "json"])
def test_a_zero_denominator_exits_1_in_plain_words(capture, spec):
    code, out, err = capture("classify", "--problem", "builtin:conic-bundle", "--point", spec)
    assert code == 1
    assert out == ""
    assert err == "error: invalid rational '1/0': zero denominator\n"


@pytest.mark.parametrize("value", ["0.5", "1e3", "1_000", "1e100000000"])
@pytest.mark.parametrize("route", ["point", "marked", "ideal"])
def test_only_integers_and_fractions_are_rationals(capture, tmp_path, route, value):
    # `Fraction` alone takes decimal, exponent and underscore forms, and
    # "1e100000000" would build a hundred-million-digit integer.
    if route == "point":
        argv = ("classify", "--problem", "builtin:conic-bundle", "--point", f"x={value},y=0,u=1,v=0")
    elif route == "marked":
        argv = ("conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,2,0",
                "--marked", f"1:{value}")
    else:
        path = tmp_path / "p.problem"
        path.write_text(json.dumps({
            "torus_rank": 1, "base_vars": {"x": [1]}, "fiber_vars": {"u": [-1]},
            "ideal": [[{"coeff": value, "monomial": {"x": 1}}]],
        }))
        argv = ("patterns", "--problem", str(path))
    start = time.perf_counter()
    code, out, err = capture(*argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error: invalid rational {value!r}: expected an integer n or a fraction p/q\n"


@pytest.mark.parametrize(
    "value, expected", [("-3", "-3"), ("+4/6", "2/3"), (" 7 ", "7"), ("-0/5", "0")]
)
def test_integers_and_fractions_keep_their_value(capture, value, expected):
    code, out, _ = capture(
        "limit", "--problem", "builtin:conic-bundle", "--point", f"x={value},y=0,u=1,v=0",
        "--lambda", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["limit"]["x"] == expected


# Problem files that break one rule each, for `patterns --problem`.
BAD_PROBLEMS = {
    "not-an-object": "[]",
    "unknown-key": '{"torus_rank": 1, "fiber_vars": {"u": [0]}, "extra": 1}',
    "duplicate-key": '{"torus_rank": 1, "torus_rank": 1, "fiber_vars": {"u": [0]}}',
    "rank-0": '{"torus_rank": 0, "fiber_vars": {"u": []}}',
    "negative-exponent": (
        '{"torus_rank": 1, "fiber_vars": {"u": [0]}, '
        '"ideal": [[{"coeff": "1", "monomial": {"u": -1}}]]}'
    ),
}

POINT = ("classify", "--problem", "builtin:conic-bundle", "--point")
CONIC = ("conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,2,0")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--problem", "builtin:nope", "--point", "x=1"),
        ("conic", "--n", "2", "--lengths", "0,2,0"),
        ("conic", "--n", "2", "--stratum", "1,3"),
        ("conic", "--n", "2", "--stratum", "a", "--lengths", "2"),
        ("conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,-2,0"),
        (*CONIC, "--marked", "7:1"),
        (*CONIC, "--marked", "1:0"),
        (*CONIC, "--marked", "1:1,1:2,1:3"),
        ("conic", "--n", "3", "--sweep", "--twists", "5"),
        (*CONIC, "--sign", "opposite"),
        (*CONIC, "--sign", "engine"),
        *[("patterns", "--problem", f"{{{name}}}") for name in BAD_PROBLEMS],
        (*POINT, "[1, 2]"),
        (*POINT, "{point-file}"),
        (*POINT, "x=1;y=0"),
        (*POINT, "x=1,x=0,y=0,u=1,v=0"),
    ],
    ids=[
        "unknown-builtin", "conic-no-stratum", "conic-no-lengths", "non-integer-stratum",
        "negative-length", "marked-unknown-component", "marked-zero", "marked-too-many",
        "twist-count", "sign-removed", "sign-engine-removed", *BAD_PROBLEMS,
        "point-json-list", "point-file-list", "point-semicolon", "point-repeated-variable",
    ],
)
def test_malformed_input_exits_1_with_one_error_line(capture, tmp_path, argv):
    files = {f"{{{name}}}": text for name, text in BAD_PROBLEMS.items()}
    files["{point-file}"] = "[1, 2]"
    for placeholder, text in files.items():
        (tmp_path / placeholder.strip("{}")).write_text(text)
    argv = [str(tmp_path / a.strip("{}")) if a in files else a for a in argv]
    code, out, err = capture(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_patterns_refuses_a_cap_below_one(capture, cap):
    code, out, err = capture("patterns", "--problem", "builtin:conic-bundle", "--max-vars", cap)
    assert code == 1
    assert out == ""
    assert err == f"error: pattern enumeration cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--problem", "{bad}", "--point", "x=1"),
        ("patterns", "--problem", "{bad}"),
        ("mu", "--problem", "builtin:conic-bundle", "--point", "{bad}", "--lambda", "1"),
    ],
)
def test_non_utf8_file_is_an_input_error(capture, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = capture(*(str(path) if a == "{bad}" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read")
    assert "utf-8" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("ideal", ["null", "5", "true", "{}", '"x"'])
def test_an_ideal_that_is_not_a_list_exits_1(capture, tmp_path, ideal):
    path = tmp_path / "p.problem"
    path.write_text(
        '{"torus_rank": 1, "base_vars": {"x": [1]}, "fiber_vars": {"u": [1]}, '
        f'"ideal": {ideal}}}'
    )
    code, out, err = capture("classify", "--problem", str(path), "--point", "x=1,u=1")
    assert code == 1
    assert out == ""
    assert err == f"error: ideal must be a list of generators, got {ideal}\n"


@pytest.mark.parametrize(
    "fiber, ideal, message",
    [
        ('{"u": true}', "[]", "weight of 'u' must be a list of integers, got true"),
        ('{"u": null}', "[]", "weight of 'u' must be a list of integers, got null"),
        ('{"u": [1, "x"]}', "[]", 'weight of \'u\' must be a list of integers, got [1, "x"]'),
        (
            '{"u": [1]}',
            "[[null]]",
            "term must be an object with 'coeff' and 'monomial', got null",
        ),
        (
            '{"u": [1]}',
            '[[{"coeff": "1", "monomial": {"x": true}}]]',
            'monomial must map variable names to integers, got {"x": true}',
        ),
    ],
    ids=["weight-true", "weight-null", "weight-string", "term-null", "monomial-true"],
)
def test_problem_errors_quote_json_values_as_json(capture, tmp_path, fiber, ideal, message):
    path = tmp_path / "p.problem"
    path.write_text(
        f'{{"torus_rank": 1, "base_vars": {{"x": [1]}}, "fiber_vars": {fiber}, '
        f'"ideal": {ideal}}}'
    )
    code, out, err = capture("patterns", "--problem", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("shift", ["[]", "[0]", "[0, 0, 0]"])
def test_an_explicit_shift_of_the_wrong_length_exits_1(capture, tmp_path, shift):
    path = tmp_path / "p.problem"
    path.write_text(
        '{"torus_rank": 2, "base_vars": {"x": [1, 0]}, "fiber_vars": {"u": [0, 1]}, '
        f'"linearization_shift": {shift}}}'
    )
    code, out, err = capture("classify", "--problem", str(path), "--point", "x=1,u=1")
    assert code == 1
    assert out == ""
    length = len(json.loads(shift))
    assert err == f"error: linearization shift has length {length}, expected rank 2\n"


@pytest.mark.parametrize(
    "shift", ["", ', "linearization_shift": null', ', "linearization_shift": [0, 0]']
)
def test_a_missing_shift_is_the_zero_shift(capture, tmp_path, shift):
    path = tmp_path / "p.problem"
    path.write_text(
        '{"torus_rank": 2, "base_vars": {"x": [1, 0]}, "fiber_vars": {"u": [0, 1]}'
        f"{shift}}}"
    )
    code, out, _ = capture("classify", "--problem", str(path), "--point", "x=1,u=1")
    assert (code, out) == (0, "unstable witness=(0,1) mu=-1\n")


SMALL_PROBLEM = {
    "group": "split-torus",
    "torus_rank": 1,
    "base_vars": {"x": [1], "y": [-1]},
    "fiber_vars": {"u": [1], "v": [-1]},
    "linearization_shift": [0],
    "ideal": [
        [
            {"coeff": "1", "monomial": {"x": 1, "u": 1}},
            {"coeff": "-1", "monomial": {"y": 1, "v": 1}},
        ]
    ],
}

# Integers stay within 10**6, so that no drawn rank or exponent asks for a
# huge allocation or power.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL_PROBLEM)), JSON_VALUES, st.data())
def test_any_value_of_one_problem_key_is_classified_or_refused(tmp_path_factory, key, value, data):
    text = json.dumps(dict(SMALL_PROBLEM, **{key: value}))
    try:
        names = parse_problem(text).var_names
    except InputError:
        names = ("x", "y", "u", "v")
    values = data.draw(st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names)))
    path = tmp_path_factory.getbasetemp() / "one-key.problem"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            ["classify", "--problem", str(path), "--point", json.dumps(dict(zip(names, values)))]
        )
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


def test_bad_flag_exit_code(capture):
    code, _, err = capture("classify", "--problem", "builtin:conic-bundle")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [("mu", "--lambda", "1"), ("limit", "--lambda", "1"), ("classify",), ("stabilizer",),
     ("sections",)],
    ids=lambda argv: argv[0],
)
def test_point_off_ideal_rejected(capture, argv):
    # t*z^2 - x*y is 1 - 2 at this point; every point command refuses it.
    code, out, err = capture(
        *argv, "--problem", "builtin:degenerating-conic", "--point", "t=1,x=2,y=1,z=1"
    )
    assert code == 1
    assert out == ""
    assert err == "error: point does not lie on the declared ideal\n"


def test_a_huge_power_in_the_ideal_exits_1_before_it_is_computed(capture, tmp_path):
    # Checking the point on the ideal would build 2^(10^10), 1.25 GB; the
    # power is refused from its size alone, and 1^(10^10) stays exact.
    path = tmp_path / "huge-power.problem"
    path.write_text(json.dumps({
        "torus_rank": 1,
        "base_vars": {"x": [0]},
        "fiber_vars": {"u": [1], "v": [-1]},
        "ideal": [
            [
                {"coeff": "1", "monomial": {"x": 10**10, "u": 1}},
                {"coeff": "-1", "monomial": {"u": 1}},
            ]
        ],
    }))
    tracemalloc.start()
    start = time.process_time()
    try:
        code, out, err = capture("classify", "--problem", str(path), "--point", "x=2,u=1,v=1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1
    assert peak < 10**7
    assert (code, out) == (1, "")
    assert err == "error: x^10000000000 at x = 2 would take more than 65536 bits\n"
    code, out, _ = capture("classify", "--problem", str(path), "--point", "x=1,u=1,v=1")
    assert (code, out) == (0, "stable\n")


@pytest.mark.parametrize(
    "other", ["y", "u"], ids=["weight-differs", "fiber-degree-differs"]
)
def test_a_generator_that_is_not_homogeneous_exits_1(capture, tmp_path, other):
    # On the conic bundle x has weight 1 and fiber degree 0, y weight -1
    # and fiber degree 0, and u weight 1 and fiber degree 1.  Whether
    # (x, y, u, v) = (1, 1, 1, 1) lies on x - u would depend on the
    # representative of the fiber point.
    path = tmp_path / "inhomogeneous.problem"
    path.write_text(json.dumps({
        "torus_rank": 1,
        "base_vars": {"x": [1], "y": [-1]},
        "fiber_vars": {"u": [1], "v": [-1]},
        "ideal": [[
            {"coeff": "1", "monomial": {"x": 1}},
            {"coeff": "-1", "monomial": {other: 1}},
        ]],
    }))
    code, out, err = capture("classify", "--problem", str(path), "--point", "x=1,y=1,u=1,v=1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ideal generator [")
    assert err.endswith(
        "] is not homogeneous: its terms differ in fiber degree or in torus weight\n"
    )


def test_patterns_warns_about_ideal(capture):
    code, out, _ = capture("patterns", "--problem", "builtin:degenerating-conic")
    assert code == 0
    assert "ideal realizability not checked" in out


def test_json_report_schema(capture):
    code, out, _ = capture(
        "classify",
        "--problem",
        "builtin:conic-bundle",
        "--point",
        "x=1,y=0,u=1,v=0",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "torstab-report/1"
    assert report["result"]["status"] == "unstable"
    assert report["result"]["witness"] == [1]
    assert report["input_digest"]
    assert "command" not in report


def test_reports_byte_identical(capture):
    args = (
        "quotient",
        "--problem",
        "builtin:conic-bundle",
        "--format",
        "json",
    )
    _, first, _ = capture(*args)
    _, second, _ = capture(*args)
    assert first == second
    _, sweep_one, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    _, sweep_two, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    assert sweep_one == sweep_two


def test_quotient_text(capture):
    code, out, _ = capture("quotient", "--problem", "builtin:conic-bundle")
    assert code == 0
    assert "ambient: A^1 x P(1,1,2)" in out
    assert "Z0*Z1 - T0*Z2 = 0" in out


@pytest.mark.parametrize(
    "argv, warned",
    [
        (("invariants", "--max-degree", "3"), True),
        (("relations", "--max-degree", "3"), True),
        (("quotient", "--max-degree", "3"), True),
        (("sections", "--max-degree", "3", "--point", "x=1,y=0,u=1,v=0"), True),
        # A section found certifies semistability at any bound.
        (("sections", "--max-degree", "3", "--point", "x=1,y=0,u=1,v=1"), False),
        (("classify", "--point", "x=1,y=0,u=1,v=0"), False),
    ],
    ids=["invariants", "relations", "quotient", "no-section", "section", "classify"],
)
def test_degree_bounded_reports_say_so(capture, argv, warned):
    code, out, _ = capture(*argv, "--problem", "builtin:conic-bundle", "--format", "json")
    assert code == 0
    expected = "degree-bounded: invariant monomials of total degree > 3 were not enumerated"
    assert json.loads(out)["warnings"] == ([expected] if warned else [])


@pytest.mark.parametrize("subcommand", ["relations", "quotient"])
def test_incomplete_relation_sets_say_so(capture, subcommand):
    # The conic bundle's one relation has syzygy degree 2.
    expected = (
        "syzygy-bounded: generator products of syzygy degree > 1 were not tried, "
        "and the relations found span a proper sublattice of the relation lattice"
    )
    for syzygy, warned in (("1", True), ("2", False)):
        code, out, _ = capture(
            subcommand, "--problem", "builtin:conic-bundle", "--syzygy-degree", syzygy,
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert (expected in report["warnings"]) == warned
        assert len(report["result"]["relations"]) == (0 if warned else 1)


# Rank 1, base x and fiber u both of weight 1: no monomial has weight 0,
# so the invariant ring has no generator.
NO_GENERATOR = '{"torus_rank": 1, "base_vars": {"x": [1]}, "fiber_vars": {"u": [1]}}'


@pytest.mark.parametrize("subcommand", ["relations", "quotient"])
@pytest.mark.parametrize("syzygy", ["0", "-5"])
def test_a_syzygy_degree_below_1_exits_1_without_generators(capture, tmp_path, subcommand, syzygy):
    path = tmp_path / "p.problem"
    path.write_text(NO_GENERATOR)
    code, out, err = capture(subcommand, "--problem", str(path), "--syzygy-degree", syzygy)
    assert code == 1 and out == ""
    assert err == f"error: syzygy degree bound must be >= 1, got {syzygy}\n"


def test_sections_stop_at_the_first_bound_that_finds_one(capture, monkeypatch):
    # The section u*v has degree 2, so no listing past degree 4 is needed;
    # the spy refuses before listing, so a search that lists up to
    # --max-degree at once fails here without spending any time.
    from torstab import invariants

    listing = invariants.invariant_monomials
    asked = []

    def spy(problem, bound):
        asked.append(bound)
        if bound > 4:
            raise AssertionError(f"listed invariant monomials up to degree {bound}")
        return listing(problem, bound)

    monkeypatch.setattr(invariants, "invariant_monomials", spy)
    code, out, _ = capture(
        "sections", "--problem", "builtin:conic-bundle", "--point", "x=0,y=0,u=1,v=1",
        "--max-degree", "100000",
    )
    assert code == 0
    assert out == "nonvanishing invariant section: u*v (degree 2)\n"
    assert asked == [1, 2]


@pytest.mark.parametrize(
    "point, max_degree, asked",
    [
        ("x=1,y=0,u=0,v=1", "1", [1]),
        ("x=1,y=0,u=1,v=0", "3", [1, 2, 3]),
        ("x=1,y=0,u=1,v=0", "6", [1, 2, 4, 6]),
    ],
)
def test_sections_double_the_bound_up_to_max_degree(
    capture, monkeypatch, point, max_degree, asked
):
    # The bounds double from 1 and the last one is --max-degree itself, so a
    # point with no section is still searched up to the bound it was given.
    from torstab import invariants

    listing = invariants.invariant_monomials
    seen = []

    def spy(problem, bound):
        seen.append(bound)
        return listing(problem, bound)

    monkeypatch.setattr(invariants, "invariant_monomials", spy)
    code, _, _ = capture(
        "sections", "--problem", "builtin:conic-bundle", "--point", point,
        "--max-degree", max_degree,
    )
    assert code == 0
    assert seen == asked


def test_empty_sections_print_none(capture, tmp_path):
    path = tmp_path / "p.problem"
    path.write_text(NO_GENERATOR)

    def body(subcommand):
        code, out, _ = capture(subcommand, "--problem", str(path))
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith(("warning:", "elapsed:"))]

    assert body("relations") == ["generators:", "  (none)", "relations:", "  (none)"]
    assert body("quotient") == [
        "base coordinates (degree 0):", "  (none)",
        "projective coordinates (degree > 0):", "  (none)",
        "relations:", "  (none)",
        "ambient: point",
    ]


def test_quotient_text_notes_a_common_degree_divisor(capture, tmp_path):
    # Rank 1, fiber a (1) and b (-1): the one projective coordinate a*b has
    # fiber degree 2.
    path = tmp_path / "p.problem"
    path.write_text('{"torus_rank": 1, "fiber_vars": {"a": [1], "b": [-1]}}')
    code, out, _ = capture("quotient", "--problem", str(path))
    assert code == 0
    assert out.splitlines() == [
        "warning: degree-bounded: invariant monomials of total degree > 4 were not enumerated",
        "base coordinates (degree 0):",
        "  (none)",
        "projective coordinates (degree > 0):",
        "  Z0 = a*b  (degree 2)",
        "relations:",
        "  (none)",
        "ambient: P(2)",
        "projective degrees share the common divisor 2; "
        "a Veronese re-grading is available but not applied",
    ]


def test_conic_sweep_prints_weight_table(capture):
    code, out, _ = capture("conic", "--n", "1", "--sweep")
    assert code == 0
    assert "weight table:" in out
    assert "shift=none" in out
    assert "equivalence holds: True" in out


@pytest.mark.parametrize(
    "argv",
    [("--sweep",), ("--stratum", "1,3", "--lengths", "0,2,0")],
    ids=["sweep", "single"],
)
def test_conic_text_header_states_n_twists_and_shift_only(capture, argv):
    code, out, _ = capture("conic", "--n", "2", *argv)
    assert code == 0
    assert out.splitlines()[0] == "weight table: n=2 twists=[10] shift=none"


def test_conic_single_config(capture):
    code, out, _ = capture(
        "conic",
        "--n",
        "2",
        "--stratum",
        "1,3",
        "--lengths",
        "0,2,0",
        "--marked",
        "1:1/2,1:-1/2",
        "--lambda",
        "1,1",
    )
    assert code == 0
    assert out.splitlines()[:5] == [
        "weight table: n=2 twists=[10] shift=none",
        "  interval {0}: toward-start (-20,-1), toward-end (-20,-1)",
        "  interval {1,2}: toward-start (-20,-1), toward-end (10,2)",
        "  interval {3}: toward-start (10,2), toward-end (10,2)",
        "stratum {1,3} lengths (0,2,0): admissible=yes verdict=stable",
    ]
    assert "stabilizer order: 2" in out


def test_conic_components(capture):
    code, out, _ = capture(
        "conic", "--n", "2", "--stratum", "3", "--lengths", "2,0", "--components"
    )
    assert code == 0
    assert "components: H20, H11, H02" in out
    assert "H20 * H11 * H02" in out


def test_selftest_passes(capture):
    code, out, _ = capture("selftest")
    assert code == 0
    total = len(GOLDEN_REPORTS)
    assert f"{total}/{total} golden reports reproduced" in out
    assert "FAIL" not in out


def test_selftest_names_a_corrupted_digest(capture, monkeypatch):
    import torstab.cli as cli_module

    (argv, json_digest, text_digest), *rest = GOLDEN_REPORTS
    corrupted = [(argv, json_digest, "0" * 64)] + rest
    monkeypatch.setattr(cli_module, "GOLDEN_REPORTS", tuple(corrupted))
    code, out, _ = capture("selftest")
    command = " ".join(argv)
    assert code == 2
    assert f"warning: self-test failed: {command}\n" in out
    assert f"FAIL: {command} (text digest differs)" in out
    code, out, _ = capture("selftest", "--format", "json")
    report = json.loads(out)
    assert code == 2
    assert report["result"]["all_passed"] is False
    assert report["warnings"] == [f"self-test failed: {command}"]


def test_lambda_validation(capture):
    code, _, err = capture(
        "mu",
        "--problem",
        "builtin:conic-bundle",
        "--point",
        "x=1,y=0,u=1,v=1",
        "--lambda",
        "one",
    )
    assert code == 1
    assert "comma-separated integers" in err


def test_internal_invariant_violation_exit_code(capture, monkeypatch):
    from torstab.errors import InternalInvariantError
    import torstab.cli as cli_module

    def broken(args):
        raise InternalInvariantError("witness failed re-substitution")

    monkeypatch.setattr(cli_module, "_cmd_mu", broken)
    code, _, err = capture(
        "mu", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=1",
        "--lambda", "1",
    )
    assert code == 2
    assert "invariant violation" in err


SUCCESSIVE_COMMANDS = [
    ("invariants", "--problem", "builtin:conic-bundle", "--max-degree", "3"),
    ("invariants", "--problem", "builtin:conic-bundle"),
    ("patterns", "--problem", "builtin:conic-bundle", "--max-vars", "2"),
    ("patterns", "--problem", "builtin:conic-bundle", "--format", "json"),
    ("conic", "--n", "2", "--sweep", "--format", "json"),
    ("conic", "--n", "2", "--stratum", "3", "--lengths", "2,0"),
]


def test_successive_calls_share_one_parser_and_leak_nothing(capture):
    import torstab.cli as cli_module

    alone = []
    for argv in SUCCESSIVE_COMMANDS:
        cli_module._build_parser.cache_clear()  # a fresh parser, as in a new process
        code, out, _ = capture(*argv)
        alone.append((code, out))
    assert [code for code, _ in alone] == [0, 0, 1, 0, 0, 0]
    assert alone[0] != alone[1]  # the second call runs at the default --max-degree

    parser = cli_module._build_parser()
    in_sequence = [capture(*argv)[:2] for argv in SUCCESSIVE_COMMANDS]
    assert in_sequence == alone
    assert cli_module._build_parser() is parser


def test_help_describes_the_tool_not_its_internals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: torstab")
    assert "split-torus actions" in out
    assert "_cmd_" not in out


def test_oversized_cone_system_exits_1(capture, tmp_path):
    rng = random.Random(0)
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(14)]
    path = tmp_path / "big.problem"
    path.write_text(json.dumps({
        "torus_rank": 5,
        "base_vars": {f"x{i}": row for i, row in enumerate(rows[:13])},
        "fiber_vars": {"u0": rows[13]},
    }))
    point = ",".join([f"x{i}=1" for i in range(13)] + ["u0=1"])
    code, out, err = capture("classify", "--problem", str(path), "--point", point)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rank-5 cone system of 14 rows is too large")


TABLES = Path(__file__).parent / "tables"
P40 = str(TABLES / "p40.problem")


def test_pattern_rows_share_one_list_per_subset_and_one_dict_per_verdict(monkeypatch):
    # `to_json` renders a shared object once per row list, keyed by id;
    # `to_text` formats each distinct value once, shared or not.
    problem = parse_problem((TABLES / "rank4_4x4_seed2.problem").read_text())
    table = torstab.classify_patterns(problem)
    monkeypatch.setattr(cli, "classify_patterns", lambda problem, max_vars: table)
    result, _ = cli._cmd_patterns(argparse.Namespace(problem=problem, max_vars=16))
    rows, width = result["rows"], len(table.fibers)
    assert len(rows) == len(table.verdicts)
    for r, row in enumerate(rows):
        b, f = divmod(r, width)
        assert row["base"] is rows[b * width]["base"]
        assert row["fiber"] is rows[f]["fiber"]
    assert len({id(row["base"]) for row in rows}) == len(table.bases)
    assert len({id(row["fiber"]) for row in rows}) == width
    shown = {}
    for verdict, row in zip(table.verdicts, rows):
        assert shown.setdefault(id(verdict), row["verdict"]) is row["verdict"]
    assert len({id(row["verdict"]) for row in rows}) == len(shown) < len(rows) // 5


def test_p40_quotient_at_the_default_syzygy_degree_is_fast(capture):
    # A full scan at the default --syzygy-degree 8 would try C(24 + 8, 8) - 1,
    # about 10.5 M, generator products.
    start = time.process_time()
    code, out, _ = capture("quotient", "--problem", P40, "--max-degree", "10")
    assert time.process_time() - start < 1
    assert code == 0
    assert "ambient: A^1 x P(1,1,2,2,3,3,3,3,4,4,4,4,4,5,5,5,5,5,6,6,6,7,7)" in out


def test_relation_scan_over_the_cap_exits_1(capture, monkeypatch):
    from torstab import invariants

    monkeypatch.setattr(invariants, "MAX_RELATION_CANDIDATES", 100)
    code, out, err = capture("relations", "--problem", P40, "--max-degree", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: relations among 24 generators up to syzygy degree 8")


def test_reported_witnesses_reverify(capture):
    from torstab import builtin_problem, mu, parse_point

    code, out, _ = capture(
        "patterns", "--problem", "builtin:conic-bundle", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    problem = builtin_problem("conic-bundle")
    for row in report["result"]["rows"]:
        if row["verdict"]["witness"] is None:
            continue
        values = {
            name: "1" if name in row["base"] + row["fiber"] else "0"
            for name in problem.var_names
        }
        realized = parse_point(problem, values)
        lam = tuple(row["verdict"]["witness"])
        assert str(mu(problem, realized, lam)) == row["verdict"]["witness_mu"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--stratum", "1", "--lengths", "1,x"), "--lengths must be comma-separated integers"),
        (("--sweep", "--twists", "10,x"), "--twists must be comma-separated integers"),
        (
            ("--stratum", "1,3", "--lengths", "0,2,0", "--marked", "one:1/2,1:-1/2"),
            "marked point component must be an integer",
        ),
    ],
    ids=["lengths", "twists", "marked"],
)
def test_conic_non_integer_flags_exit_1(capture, argv, message):
    code, out, err = capture("conic", "--n", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag",
    [("--stratum", "7"), ("--lengths", "9,9"), ("--marked", "1:1/2"), ("--lambda", "1,1"),
     ("--components",)],
    ids=lambda flag: flag[0],
)
def test_conic_sweep_refuses_the_flags_it_ignores(capture, flag):
    code, out, err = capture("conic", "--n", "2", "--sweep", *flag)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag[0]} does not apply with --sweep\n"


def test_conic_refuses_an_empty_lambda(capture):
    code, out, err = capture(
        "conic", "--n", "1", "--stratum", "smooth", "--lengths", "1", "--lambda", ""
    )
    assert code == 1
    assert out == ""
    assert err == "error: lambda must be comma-separated integers, got ''\n"


def test_conic_refuses_an_empty_marked(capture):
    code, out, err = capture(
        "conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,2,0", "--marked="
    )
    assert code == 1
    assert out == ""
    assert err == "error: marked points use component:coordinate, got ''\n"


@pytest.mark.parametrize("stratum", ["1,1", "3,1,3"])
def test_conic_refuses_a_repeated_vanishing_index(capture, stratum):
    # A repeated index would name the stratum of the set without it.
    code, out, err = capture("conic", "--n", "2", "--stratum", stratum, "--lengths", "1,1")
    assert code == 1
    assert out == ""
    assert err == f"error: duplicate vanishing index {stratum[0]} in --stratum\n"


def test_conic_mu_is_inf_where_the_base_limit_fails(capture):
    # On the smooth n = 2 stratum t_1 = 1 has weight s_1 = -1 < 0.
    code, out, _ = capture(
        "conic", "--n", "2", "--stratum", "smooth", "--lengths", "2", "--lambda=-1,0"
    )
    assert code == 0
    assert "mu(lambda=(-1,0)) = inf" in out
    # With t_3 = 0 the subgroup (1, 2) keeps its limit and its finite weight.
    finite = _conic_json(
        capture, "--n", "2", "--stratum", "3", "--lengths", "2,0", "--lambda", "1,2"
    )
    assert int(finite["result"]["mu"]) > 0


def _conic_json(capture, *argv) -> dict:
    code, out, _ = capture("conic", *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(
    "n, stratum, lengths",
    [
        ("1", "1", "1,0"),
        ("2", "1,3", "0,2,0"),
        ("2", "1,2,3", "0,2,0,0"),
        ("3", "smooth", "3"),
    ],
)
def test_single_config_is_its_row_of_the_sweep(capture, n, stratum, lengths):
    sweep = _conic_json(capture, "--n", n, "--sweep")["result"]
    single = _conic_json(capture, "--n", n, "--stratum", stratum, "--lengths", lengths)["result"]
    assert single["weight_table"] == sweep["weight_table"]
    (row,) = single["rows"]
    vanishing = [] if stratum == "smooth" else [int(x) for x in stratum.split(",")]
    key = (vanishing, [int(x) for x in lengths.split(",")])
    matching = [r for r in sweep["rows"] if (r["stratum"], r["lengths"]) == key]
    assert matching == [row]
    # Its intervals are its stratum's chain, in chain order, each with the
    # sweep's entry for it.
    chain = torstab.Stratum(int(n), frozenset(vanishing)).intervals
    assert [tuple(e["interval"]) for e in single["interval_weights"]] == list(chain)
    by_interval = {tuple(e["interval"]): e for e in sweep["interval_weights"]}
    assert single["interval_weights"] == [by_interval[interval] for interval in chain]


def test_input_digest_ignores_path_spelling_and_formatting(capture, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    problem = {"torus_rank": 1, "base_vars": {"x": [1], "y": [-1]},
               "fiber_vars": {"u": [1], "v": [-1]}}
    (tmp_path / "p.problem").write_text(json.dumps(problem))
    (tmp_path / "q.problem").write_text(json.dumps(problem, indent=4) + "\n\n")
    outputs = set()
    for spec in ("./p.problem", str(tmp_path / "p.problem"), "q.problem", "builtin:conic-bundle"):
        code, out, _ = capture(
            "classify", "--problem", spec, "--point", "x=1,y=0,u=1,v=0", "--format", "json"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("mu", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=1",
          "--lambda=-1"), "lambda", [-1]),
        (("invariants", "--problem", "builtin:conic-bundle", "--max-degree", "3"),
         "max_degree", 3),
        (("sections", "--problem", "builtin:conic-bundle", "--point", "x=1,y=0,u=1,v=0",
          "--max-degree", "2"), "max_degree", 2),
        (("conic", "--n", "2", "--stratum", "1,3", "--lengths", "0,2,0",
          "--lambda=-1,2"), "lambda", [-1, 2]),
    ],
    ids=["mu", "invariants", "sections", "conic"],
)
def test_json_carries_what_the_text_prints(capture, argv, key, value):
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"][key] == value


def test_sweep_json_gives_each_interval_weights_once(capture):
    code, out, _ = capture("conic", "--n", "2", "--sweep", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["weight_table"] == {"n": 2, "twists": [10]}
    intervals = [tuple(entry["interval"]) for entry in result["interval_weights"]]
    in_rows = {
        interval
        for row in result["rows"]
        for interval in torstab.Stratum(2, frozenset(row["stratum"])).intervals
    }
    # Every interval {a, ..., b - 1} with 0 <= a < b <= 4 bounds a component.
    assert len(intervals) == len(set(intervals)) == len(in_rows) == 10
    assert set(intervals) == in_rows
    table = torstab.build_weight_table(2)
    for interval, entry in zip(intervals, result["interval_weights"]):
        assert entry["weight_toward_start"] == list(table.limit_weights(interval, (1, 1)))
        assert entry["weight_toward_end"] == list(table.limit_weights(interval, (-1, -1)))
    assert result["interval_weights"][0] == {
        "interval": [0, 1, 2, 3], "weight_toward_start": [-20, -1], "weight_toward_end": [10, 2]
    }


def test_text_renders_non_unit_coefficients():
    report = build_report("relations", None, {
        "generators": [],
        "variables": [],
        "relations": [[
            {"coeff": "-2", "monomial": {"x": 1}},
            {"coeff": "2/3", "monomial": {"y": 2}},
            {"coeff": "1", "monomial": {}},
        ]],
    })
    assert to_text(report) == "generators:\n  (none)\nrelations:\n  2/3*y^2 + 1 + -2*x = 0\n"


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["conic", "--n", "1", "--sweep"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_closed_pipe_exits_1_without_traceback():
    src = Path(torstab.__file__).resolve().parent.parent
    child = subprocess.Popen(
        [sys.executable, "-m", "torstab.cli", "conic", "--n", "2", "--sweep"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    child.stdout.close()  # the reader is gone before the report is written
    with child.stderr:
        err = child.stderr.read().decode()
    assert child.wait() == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err
