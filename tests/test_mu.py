import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torstab import (
    GitProblem,
    PointSample,
    classify_pattern,
    classify_patterns,
    conic_bundle_problem,
    limit_point,
    mu,
    mu_from_pattern,
    parse_problem,
    stabilizer_order,
    support,
)
from torstab.errors import DimensionMismatchError, InputError, ZeroSectionError
from torstab.model import SupportPattern
from torstab.mu import pairings, weight_of_pairings

from conftest import mu_oracle, point, random_point, random_problem, synthetic_point


def test_unstable_direction(conic):
    p = point(conic, x=1, y=0, u=1, v=0)
    for d in (1, 2, 3):
        assert mu(conic, p, (d,)) == -d


def test_stable_direction(conic):
    p = point(conic, x=1, y=0, u=1, v=1)
    for d in (1, 2, 3):
        assert mu(conic, p, (d,)) == d


def test_no_base_limit(conic):
    for fiber in ({"u": 1, "v": 0}, {"u": 0, "v": 1}, {"u": 1, "v": 1}):
        p = point(conic, x=1, y=0, **fiber)
        assert mu(conic, p, (-1,)) is None


def test_trivial_subgroup(conic):
    p = point(conic, x=1, y=0, u=1, v=1)
    assert mu(conic, p, (0,)) == 0


def test_rank_mismatch(conic):
    with pytest.raises(DimensionMismatchError):
        mu(conic, point(conic, x=1, y=0, u=1, v=1), (1, 0))


def test_zero_section_rejected(conic):
    with pytest.raises(ZeroSectionError):
        mu(conic, point(conic, x=1, y=1, u=0, v=0), (1,))


def test_oracle_agrees_on_probe_points(conic):
    probes = [
        point(conic, x=1, y=0, u=1, v=0),
        point(conic, x=1, y=0, u=1, v=1),
        point(conic, x=0, y=0, u=1, v=1),
    ]
    for p in probes:
        for lam in ((1,), (2,), (3,), (-1,), (0,)):
            assert mu(conic, p, lam) == mu_oracle(conic, p, lam, 4)


def test_oracle_unbounded_below():
    # Base variable of negative weight in the support: x^N * g has degree
    # d_g - N, unbounded below, so there is no limit.
    problem = GitProblem(
        torus_rank=1, base_vars=(("x", (-1,)),), fiber_vars=(("g", (2,)),)
    )
    p = point(problem, x=1, g=1)
    assert mu(problem, p, (1,)) is None
    assert mu_oracle(problem, p, (1,), 4) is None


def test_oracle_trivial_subgroup(conic):
    p = point(conic, x=1, y=1, u=1, v=1)
    assert mu_oracle(conic, p, (0,), 4) == 0


def test_oracle_agrees_on_all_conic_patterns(conic):
    for pattern, _ in classify_patterns(conic).rows:
        p = synthetic_point(conic, pattern)
        for lam in ((1,), (2,), (-1,), (-3,), (0,)):
            for bound in (4, 6):
                assert mu(conic, p, lam) == mu_oracle(conic, p, lam, bound)


def test_oracle_agrees_randomized():
    rng = random.Random(60321)
    for _ in range(60):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        for _ in range(4):
            lam = tuple(rng.randint(-4, 4) for _ in range(problem.torus_rank))
            assert mu(problem, p, lam) == mu_oracle(problem, p, lam, 4)


def test_homogeneity():
    rng = random.Random(417)
    for _ in range(60):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        lam = tuple(rng.randint(-4, 4) for _ in range(problem.torus_rank))
        base = mu(problem, p, lam)
        for m in (1, 2, 5):
            scaled = tuple(m * x for x in lam)
            assert mu(problem, p, scaled) == (None if base is None else m * base)


def test_support_dependence():
    rng = random.Random(5150)
    for _ in range(40):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        pattern = support(p)
        # Same support, different values.
        other_values = {
            name: value * 3 if value else Fraction(0)
            for name, value in p.as_dict().items()
        }
        other = point(problem, **other_values)
        lam = tuple(rng.randint(-4, 4) for _ in range(problem.torus_rank))
        assert mu(problem, p, lam) == mu(problem, other, lam)
        assert mu(problem, p, lam) == mu_from_pattern(problem, pattern, lam)


def test_shift_changes_mu_by_pairing():
    rng = random.Random(2718)
    for _ in range(40):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        lam = tuple(rng.randint(-3, 3) for _ in range(problem.torus_rank))
        delta = tuple(rng.randint(-2, 2) for _ in range(problem.torus_rank))
        shifted = GitProblem(
            torus_rank=problem.torus_rank,
            base_vars=problem.base_vars,
            fiber_vars=problem.fiber_vars,
            shift=tuple(s + d for s, d in zip(problem.shift, delta)),
        )
        before = mu(problem, p, lam)
        after = mu(shifted, p, lam)
        if before is None:
            assert after is None
        else:
            pairing = sum(a * b for a, b in zip(lam, delta))
            assert after == before - pairing


# --- limit points -----------------------------------------------------------


def scaled_coordinates(problem, p, lam, t: Fraction):
    """Exact coordinates of lambda(t).p with the fiber renormalized by the
    minimal attained degree (projective chart of a surviving coordinate)."""
    pattern = support(p)

    def degree(name):
        return sum(a * b for a, b in zip(lam, problem.weights[problem.positions[name]]))

    minimal = min(degree(n) for n in pattern.fiber)
    values = {}
    for name, value in p.base_values:
        values[name] = value * t ** degree(name)
    for name, value in p.fiber_values:
        values[name] = value * t ** (degree(name) - minimal)
    return values


def test_limit_point_observed_by_flow(conic):
    # Substituting (t*u, v/t) = (t^2*u : v) and letting t -> 0 in the chart
    # v != 0 sends (x, y) = (t, 0) to the origin: the limit is
    # x=0, y=0, u=0, v=1.  Verified by exact evaluation along t = 2^-k.
    p = point(conic, x=1, y=0, u=1, v=1)
    limit = limit_point(conic, p, (1,))
    expected = point(conic, x=0, y=0, u=0, v=1)
    assert limit == expected
    previous = None
    for k in range(1, 11):
        flowed = scaled_coordinates(conic, p, (1,), Fraction(1, 2**k))
        drift = sum(
            abs(flowed[name] - value) for name, value in expected.as_dict().items()
        )
        if previous is not None:
            assert drift < previous
        previous = drift
    assert previous < Fraction(1, 500)


def test_limit_point_trivial_subgroup(conic):
    p = point(conic, x=1, y=0, u=1, v=1)
    assert limit_point(conic, p, (0,)) == p


def test_limit_point_absent_when_no_base_limit(conic):
    p = point(conic, x=1, y=0, u=1, v=1)
    assert limit_point(conic, p, (-1,)) is None


def test_limit_point_is_fixed_with_same_mu():
    rng = random.Random(907)
    for _ in range(60):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        lam = tuple(rng.randint(-3, 3) for _ in range(problem.torus_rank))
        value = mu(problem, p, lam)
        limit = limit_point(problem, p, lam)
        if value is None:
            assert limit is None
            continue
        assert limit_point(problem, limit, lam) == limit
        assert mu(problem, limit, lam) == value


# --- mu_from_pattern: the per-row re-check of a pattern table ---------------

SEEDED_TABLE = Path(__file__).parent / "tables" / "rank4_4x4_seed1.problem"


def test_mu_from_pattern_rejects_unknown_names():
    # Every name-taking entry point resolves names through
    # `GitProblem.support_indices`, which refuses a name that is not a
    # declared variable of its kind: undeclared, or declared as the other.
    problem = parse_problem(SEEDED_TABLE.read_text())

    def at_point(pattern):
        one = Fraction(1)
        return PointSample(
            tuple((n, one) for n in sorted(pattern.base)),
            tuple((n, one) for n in sorted(pattern.fiber)),
        )

    lookups = [
        lambda pattern: mu_from_pattern(problem, pattern, (0,) * 4),
        lambda pattern: classify_pattern(problem, pattern),
        lambda pattern: stabilizer_order(problem, at_point(pattern)),
    ]
    for base, fiber, refused in (
        ({"y"}, {"u0"}, "unknown base variable 'y'"),
        ((), {"u0", "v"}, "unknown fiber variable 'v'"),
        ({"x0", "u1"}, {"u0"}, "unknown base variable 'u1'"),
        ({"x0"}, {"u0", "x1"}, "unknown fiber variable 'x1'"),
    ):
        for lookup in lookups:
            with pytest.raises(InputError, match=refused):
                lookup(SupportPattern(frozenset(base), frozenset(fiber)))


@pytest.mark.parametrize("lam", [(), (1, 0, 0), (1, 0, 0, 0, 0)])
def test_mu_from_pattern_rejects_a_lambda_of_the_wrong_length(lam):
    problem = parse_problem(SEEDED_TABLE.read_text())
    pattern = SupportPattern(frozenset({"x0"}), frozenset({"u0"}))
    with pytest.raises(DimensionMismatchError, match="expected rank 4"):
        mu_from_pattern(problem, pattern, lam)


def test_mu_from_pattern_coerces_entries_with_int():
    problem = parse_problem(SEEDED_TABLE.read_text())
    raw = ("2", True, -1, " 0 ")
    assert problem.check_lambda(raw) == tuple(int(x) for x in raw) == (2, 1, -1, 0)
    assert all(type(x) is int for x in problem.check_lambda(raw))
    for pattern, _ in classify_patterns(problem).rows:
        assert mu_from_pattern(problem, pattern, raw) == mu_from_pattern(
            problem, pattern, (2, 1, -1, 0)
        )
    with pytest.raises(ValueError):
        problem.check_lambda(("x", 0, 0, 0))


def test_mu_from_pattern_equals_the_oracle_on_every_table_row():
    # Every non-stable row's witness, reused from a smaller support or not,
    # is re-checked by `mu_from_pattern`; the value must be the oracle's.
    problem = parse_problem(SEEDED_TABLE.read_text())
    rows = classify_patterns(problem).rows
    witnesses = {v.witness for _, v in rows if v.witness is not None}
    reused = 0
    for pattern, verdict in rows:
        p = synthetic_point(problem, pattern)
        for lam in witnesses:
            assert mu_from_pattern(problem, pattern, lam) == mu_oracle(problem, p, lam, 2)
        if verdict.witness is not None:
            assert verdict.witness_mu == mu_oracle(problem, p, verdict.witness, 2)
            reused += verdict.witness != classify_pattern(problem, pattern).witness
    assert reused > 0


# --- the weight rule over a witness's pairings ------------------------------


@st.composite
def supports_and_lambdas(draw):
    """A problem of rank 1-3 with 0-3 base and 1-3 fiber variables (weights
    and shift in [-3, 3]), one of its support patterns, and a lambda."""
    rank = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    nb = draw(st.integers(0, 3))
    nf = draw(st.integers(1, 3))
    problem = GitProblem(
        torus_rank=rank,
        base_vars=tuple((f"x{i}", draw(vector)) for i in range(nb)),
        fiber_vars=tuple((f"u{j}", draw(vector)) for j in range(nf)),
        shift=draw(st.one_of(st.just(None), vector)),
    )
    base = draw(st.frozensets(st.sampled_from(problem.base_names))) if nb else frozenset()
    fiber = draw(st.frozensets(st.sampled_from(problem.fiber_names), min_size=1))
    return problem, SupportPattern(base, fiber), draw(vector)


@settings(max_examples=200, deadline=None)
@given(supports_and_lambdas())
@example((conic_bundle_problem(), SupportPattern(frozenset({"x"}), frozenset({"u"})), (-1,)))
@example((conic_bundle_problem(), SupportPattern(frozenset({"x"}), frozenset({"u"})), (1,)))
def test_weight_of_a_rows_pairings_equals_mu_from_pattern_and_the_oracle(case):
    # A pattern table re-checks a reused witness from its pairings with
    # every declared variable, read at the row's own support; that must be
    # `mu_from_pattern`'s weight and the enumeration oracle's, None included.
    problem, pattern, lam = case
    pairs = pairings(problem, lam)
    assert len(pairs) == len(problem.var_names)
    position = {name: i for i, name in enumerate(problem.var_names)}
    base = [pairs[position[n]] for n in pattern.base]
    weight = weight_of_pairings(base, [pairs[position[n]] for n in pattern.fiber])
    assert (weight is None) == any(p < 0 for p in base)
    assert weight == mu_from_pattern(problem, pattern, lam)
    assert weight == mu_oracle(problem, synthetic_point(problem, pattern), lam, 2)
