import re
from fractions import Fraction
from pathlib import Path

import pytest

import torstab as ts
from torstab import (
    GitProblem,
    PointSample,
    Polynomial,
    SupportPattern,
    builtin_problem,
    check_on_ideal,
    parse_point,
    parse_problem,
    parse_rational,
    serialize_problem,
    support,
)
from torstab.errors import DimensionMismatchError, InputError, ZeroSectionError
from torstab.model import parse_int

from conftest import point


CONIC_TEXT = """
{
  "torus_rank": 1,
  "base_vars": {"x": [1], "y": [-1]},
  "fiber_vars": {"u": [1], "v": [-1]},
  "linearization_shift": [0]
}
"""


def test_parse_conic_bundle(conic):
    parsed = parse_problem(CONIC_TEXT)
    assert parsed == conic
    assert len(parsed.var_names) == 4


def test_parse_rank_mismatch():
    bad = CONIC_TEXT.replace('"v": [-1]', '"v": [-1, 0]')
    with pytest.raises(DimensionMismatchError):
        parse_problem(bad)


def test_a_rank_no_weight_has_is_refused_before_the_shift_is_built():
    # A default shift of length 10**19 cannot be built; the weight [1]
    # refuses the rank first.
    text = '{"torus_rank": 10000000000000000000, "fiber_vars": {"u": [1]}}'
    with pytest.raises(DimensionMismatchError, match="weight of 'u' has length 1"):
        parse_problem(text)


def test_parse_king(king):
    text = """
    {
      "torus_rank": 1,
      "base_vars": {"x": [1], "y": [-1]},
      "fiber_vars": {"e": [0]},
      "linearization_shift": [-1]
    }
    """
    parsed = parse_problem(text)
    assert parsed == king
    assert len(parsed.var_names) == 3
    assert parsed.weights[parsed.positions["e"]] == (-1,)


def test_parse_syntax_error_reports_position():
    with pytest.raises(InputError, match=r"line \d+, column \d+"):
        parse_problem("{\n  \"torus_rank\": 1,,\n}")


def test_parse_duplicate_names_rejected():
    text = CONIC_TEXT.replace('"u": [1]', '"x": [1]')
    with pytest.raises(InputError, match="duplicate"):
        parse_problem(text)


def test_parse_nonabelian_group_rejected():
    text = CONIC_TEXT.replace('"torus_rank": 1,', '"torus_rank": 1, "group": "SL2",')
    with pytest.raises(InputError, match="split-torus"):
        parse_problem(text)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"torus_rank": 1', '"torus_rank": true'),
        ('"x": [1]', '"x": [true]'),
        ('"v": [-1]', '"v": [false]'),
        ('"linearization_shift": [0]', '"linearization_shift": [false]'),
    ],
    ids=["torus_rank", "base_weight", "fiber_weight", "shift"],
)
def test_parse_rejects_json_booleans(old, new):
    assert old in CONIC_TEXT
    with pytest.raises(InputError):
        parse_problem(CONIC_TEXT.replace(old, new))


@pytest.mark.parametrize(
    "term",
    [
        '{"coeff": "1", "monomial": {"x": true, "y": 1}}',
        '{"coeff": true, "monomial": {"x": 1, "y": 1}}',
    ],
    ids=["exponent", "coefficient"],
)
def test_parse_rejects_json_booleans_in_ideal(term):
    # With the boolean read as 1 the generator is x*y - 1, homogeneous of
    # fiber degree 0 and weight 0.
    text = CONIC_TEXT.replace(
        '"linearization_shift": [0]',
        f'"linearization_shift": [0], "ideal": [[{term}, {{"coeff": "-1", "monomial": {{}}}}]]',
    )
    with pytest.raises(InputError):
        parse_problem(text)
    parse_problem(text.replace("true", "1"))


def test_parse_point_rejects_json_booleans(conic):
    with pytest.raises(InputError):
        parse_point(conic, '{"x": true, "y": "0", "u": "1", "v": "0"}')


def test_round_trip(conic, king, conic_surface):
    for problem in (conic, king, conic_surface):
        assert parse_problem(serialize_problem(problem)) == problem


@pytest.mark.parametrize("name", ["conic-bundle", "degenerating-conic", "king-theta1"])
def test_problem_files_equal_the_builtins(name):
    # problems/*.problem ship the builtins as files; the two copies must agree.
    path = Path(__file__).resolve().parent.parent / "problems" / f"{name.replace('-', '_')}.problem"
    assert parse_problem(path.read_text(encoding="utf-8")) == builtin_problem(name)


def test_weight_lookup_is_not_part_of_the_problem():
    def declared():
        return GitProblem(
            torus_rank=2,
            base_vars=(("x", (1, 0)),),
            fiber_vars=(("u", (0, 1)), ("v", (2, -1))),
            shift=(1, 1),
        )

    problem, fresh = declared(), declared()
    fresh_hash, fresh_repr = hash(fresh), repr(fresh)
    assert problem.weights == ((1, 0), (1, 2), (3, 0))
    assert problem.positions == {"x": 0, "u": 1, "v": 2}
    assert problem.support_indices(
        SupportPattern(frozenset({"x"}), frozenset({"v", "u"}))
    ) == ((0,), (1, 2))
    assert problem.support_indices(SupportPattern(frozenset(), frozenset({"v"}))) == ((), (2,))
    # A name that is not a variable of its kind is refused: undeclared, or
    # declared as the other kind.
    for base, fiber, refused in (
        ({"w"}, {"u"}, "unknown base variable 'w'"),
        ((), {"u", "w"}, "unknown fiber variable 'w'"),
        ({"u"}, {"v"}, "unknown base variable 'u'"),
        ((), {"x"}, "unknown fiber variable 'x'"),
    ):
        with pytest.raises(InputError, match=refused):
            problem.support_indices(SupportPattern(frozenset(base), frozenset(fiber)))
    # The filled caches are not part of the problem.
    assert problem == fresh and hash(problem) == fresh_hash
    assert repr(problem) == fresh_repr and "positions" not in repr(problem)
    assert serialize_problem(problem) == serialize_problem(fresh)
    assert '"_' not in serialize_problem(problem)
    assert "positions" not in serialize_problem(problem)
    twin = parse_problem(serialize_problem(problem))
    assert twin == problem and hash(twin) == hash(problem)


def test_record_fields_are_read_only(conic):
    table = ts.classify_patterns(conic)
    pattern, verdict = table.rows[0]
    quotient = ts.quotient_presentation(conic)
    cone = ts.ConeProblem([(1, 0)], [(0, 1)], 2)
    weight_table = ts.build_weight_table(1)
    sweep = ts.sweep_equivalence(weight_table)
    config = ts.ChainConfiguration(sweep.rows[0].stratum, sweep.rows[0].lengths)
    incidence = ts.hilbert_components(2)
    records = [
        conic, point(conic, x=1, y=0, u=1, v=0), pattern, verdict, table,
        quotient, quotient.base_generators[0][1],
        quotient.relations[0], cone, ts.solve_cone(cone), sweep, sweep.rows[0],
        weight_table, config, config.stratum, incidence, incidence.components[0],
    ]
    assert len({type(record) for record in records}) == 17
    conic.positions  # fills a cached property of the instance dict
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_fiber_variable_required():
    with pytest.raises(InputError):
        GitProblem(torus_rank=1, base_vars=(("x", (1,)),), fiber_vars=())


def test_check_on_ideal_empty(conic):
    assert check_on_ideal(conic, point(conic, x=5, y=7, u=1, v=3))


def test_check_on_ideal_conic_surface(conic_surface):
    on = point(conic_surface, t=0, x=1, y=0, z=0)
    assert check_on_ideal(conic_surface, on)
    # t*z^2 - x*y at (1,1,1,1): 1 - 1 = 0; at (1,2,1,1): 1 - 2 != 0.
    assert check_on_ideal(conic_surface, point(conic_surface, t=1, x=1, y=1, z=1))
    assert not check_on_ideal(conic_surface, point(conic_surface, t=1, x=2, y=1, z=1))


def test_ideal_scaling_invariance(conic_surface):
    # The generator is homogeneous in the fiber variables, so scaling the
    # fiber coordinates cannot change vanishing.
    samples = [
        {"t": 1, "x": 1, "y": 1, "z": 1},
        {"t": Fraction(1, 4), "x": 1, "y": 1, "z": 2},
        {"t": 1, "x": 3, "y": 1, "z": 1},
    ]
    for values in samples:
        reference = check_on_ideal(conic_surface, point(conic_surface, **values))
        for scale in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
            scaled = dict(values)
            for name in ("x", "y", "z"):
                scaled[name] = Fraction(scaled[name]) * scale
            assert check_on_ideal(conic_surface, point(conic_surface, **scaled)) == reference


def test_support_basic(conic):
    pattern = support(point(conic, x=1, y=0, u=1, v=0))
    assert pattern.base == {"x"}
    assert pattern.fiber == {"u"}


def test_support_empty_base(conic):
    pattern = support(point(conic, x=0, y=0, u=1, v=1))
    assert pattern.base == frozenset()
    assert pattern.fiber == {"u", "v"}


def test_support_zero_section(conic):
    with pytest.raises(ZeroSectionError):
        support(point(conic, x=1, y=1, u=0, v=0))


def test_point_coverage_checked(conic):
    with pytest.raises(InputError, match="missing"):
        PointSample.for_problem(conic, {"x": 1, "y": 0, "u": 1})
    with pytest.raises(InputError, match="undeclared"):
        PointSample.for_problem(conic, {"x": 1, "y": 0, "u": 1, "v": 0, "w": 1})


def test_parse_point_inline_and_json(conic):
    inline = parse_point(conic, "x=1, y=0, u=1/2, v=-3")
    as_json = parse_point(conic, '{"x": "1", "y": "0", "u": "1/2", "v": "-3"}')
    assert inline == as_json
    assert inline.as_dict()["u"] == Fraction(1, 2)


def test_parse_point_rejects_floats(conic):
    with pytest.raises(InputError):
        parse_point(conic, '{"x": 0.5, "y": "0", "u": "1", "v": "0"}')


@pytest.mark.parametrize("text, value", [("7", 7), (" -3 ", -3), ("+4", 4), ("-0", 0)])
def test_parse_int_reads_a_sign_and_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["", "+", "1_0", "1.0", "1e3", "0x10", "\u0661", "1,2"])
def test_parse_int_refuses_any_other_text(text):
    with pytest.raises(InputError, match=re.escape(f"invalid integer {text!r}")):
        parse_int(text)


@pytest.mark.parametrize("text", ["9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000])
def test_parse_int_and_parse_rational_refuse_a_long_integer_by_its_size(text):
    parse = parse_rational if "/" in text else parse_int
    with pytest.raises(InputError, match="^integer of 5000 digits is too long$"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, kind",
    [
        (parse_int, "a" * 5000, "integer"),
        (parse_rational, "a" * 5000, "rational"),
        (parse_rational, "1" * 4000 + "/" + "0" * 999, "rational"),
    ],
    ids=["integer", "rational", "zero-denominator"],
)
def test_a_long_refused_text_is_quoted_by_a_prefix_and_its_length(parse, text, kind):
    with pytest.raises(InputError) as exc:
        parse(text)
    message = str(exc.value)
    assert message.startswith(f"invalid {kind} {text[:40]!r}... (5000 characters): ")
    assert len(message) < 150


def test_polynomial_normalization():
    poly = Polynomial.make([(1, {"x": 1}), (2, {"x": 1}), (-3, {"x": 1})])
    assert poly.terms == ()
    poly = Polynomial.make([("1/2", {"x": 2, "y": 0}), ("1/2", {"x": 2})])
    assert poly.terms == ((Fraction(1), (("x", 2),)),)


def test_polynomial_evaluate():
    poly = Polynomial.make([(1, {"t": 1, "z": 2}), (-1, {"x": 1, "y": 1})])
    values = {"t": Fraction(2), "z": Fraction(3), "x": Fraction(6), "y": Fraction(3)}
    assert poly.evaluate(values) == 0


@pytest.mark.parametrize("value, expected", [("0", 0), ("1", 1), ("-1", 1), ("-1/1", 1)])
def test_a_huge_power_of_zero_or_one_stays_exact(value, expected):
    poly = Polynomial.make([(1, {"x": 10**10})])
    assert poly.evaluate({"x": Fraction(value)}) == expected


@pytest.mark.parametrize("value", ["2", "-3", "1/2", "-5/4"])
def test_a_huge_power_is_refused_before_it_is_computed(value):
    # Numerator or denominator: 2^(10^10) and (1/2)^(10^10) would each take
    # 1.25 GB.
    poly = Polynomial.make([(1, {"x": 10**10})])
    with pytest.raises(InputError, match=r"x\^10000000000 at x = .* more than 65536 bits"):
        poly.evaluate({"x": Fraction(value)})


def test_the_largest_power_allowed_evaluates():
    # 2 has bit length 2, so 2^32768 is at the bound of 65536 bits.
    assert Polynomial.make([(1, {"x": 32768})]).evaluate({"x": Fraction(2)}) == 2**32768
    with pytest.raises(InputError, match="more than 65536 bits"):
        Polynomial.make([(1, {"x": 32769})]).evaluate({"x": Fraction(2)})
