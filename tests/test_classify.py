import importlib
import random
import sys
import time
import types
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torstab import (
    GitProblem,
    PatternTable,
    StabilityStatus,
    SupportPattern,
    classify,
    classify_pattern,
    classify_patterns,
    degenerating_conic_problem,
    mu,
    mu_from_pattern,
    parse_point,
    parse_problem,
    stabilizer_order,
    support,
)
from torstab import cones
from torstab.builtin import BUILTINS
from torstab.classify import Verdict
from torstab.errors import InputError, InternalInvariantError, ZeroSectionError
from torstab.mu import pairings, weight_of_pairings

from conftest import (
    box,
    brute_force_status,
    pattern_table_oracle,
    point,
    random_point,
    random_problem,
    synthetic_point,
    verdict_over_pieces,
)

GOLDEN_CONIC = {
    # (base support, fiber support) -> status, for all 12 patterns.
    ((), ("u",)): "unstable",
    ((), ("v",)): "unstable",
    ((), ("u", "v")): "stable",
    (("x",), ("u",)): "unstable",
    (("x",), ("v",)): "stable",
    (("x",), ("u", "v")): "stable",
    (("y",), ("u",)): "stable",
    (("y",), ("v",)): "unstable",
    (("y",), ("u", "v")): "stable",
    (("x", "y"), ("u",)): "stable",
    (("x", "y"), ("v",)): "stable",
    (("x", "y"), ("u", "v")): "stable",
}


def test_conic_probe_points(conic):
    assert classify(conic, point(conic, x=1, y=1, u=1, v=1)).status is StabilityStatus.STABLE
    verdict = classify(conic, point(conic, x=1, y=0, u=1, v=0))
    assert verdict.status is StabilityStatus.UNSTABLE
    assert verdict.witness == (1,)
    assert verdict.witness_mu == -1
    assert classify(conic, point(conic, x=0, y=0, u=1, v=1)).status is StabilityStatus.STABLE


def test_conic_pattern_table_matches_golden(conic):
    table = classify_patterns(conic)
    assert len(table.rows) == 12
    seen = {}
    for pattern, verdict in table.rows:
        key = (tuple(sorted(pattern.base)), tuple(sorted(pattern.fiber)))
        seen[key] = verdict.status.value
    assert seen == GOLDEN_CONIC
    assert not table.warnings


def test_pattern_table_flags_ideal(conic_surface):
    table = classify_patterns(conic_surface)
    assert table.warnings == ("pattern-level — ideal realizability not checked",)


def test_pattern_verdicts_reproducible_on_realizing_points(conic):
    rng = random.Random(31)
    for pattern, verdict in classify_patterns(conic).rows:
        values = {}
        for name in conic.var_names:
            if name in pattern.base or name in pattern.fiber:
                values[name] = rng.choice([1, 2, -3])
            else:
                values[name] = 0
        realized = point(conic, **values)
        assert classify(conic, realized).status is verdict.status


def test_trivial_action_all_strictly_semistable():
    problem = GitProblem(
        torus_rank=2,
        base_vars=(("a", (0, 0)),),
        fiber_vars=(("b", (0, 0)), ("c", (0, 0))),
    )
    table = classify_patterns(problem)
    for _, verdict in table.rows:
        assert verdict.status is StabilityStatus.STRICTLY_SEMISTABLE
        assert any(verdict.witness)
        assert verdict.witness_mu == 0


def test_single_weightless_fiber_variable():
    problem = GitProblem(torus_rank=1, base_vars=(), fiber_vars=(("e", (0,)),))
    verdict = classify(problem, point(problem, e=1))
    assert verdict.status is StabilityStatus.STRICTLY_SEMISTABLE


def test_king_configuration_stable(king):
    p = point(king, x=1, y=0, e=1)
    # Independent box scan: +d needs no base limit issue and gives weight
    # +d; -d has no base limit; nothing nonzero kills stability.
    assert brute_force_status(king, support(p), 5) is StabilityStatus.STABLE
    assert classify(king, p).status is StabilityStatus.STABLE


def test_pattern_cap(conic):
    with pytest.raises(InputError):
        classify_patterns(conic, max_vars=3)


def test_zero_section_propagates(conic):
    with pytest.raises(ZeroSectionError):
        classify(conic, point(conic, x=1, y=1, u=0, v=0))


def test_witness_validity_randomized():
    rng = random.Random(1601)
    for _ in range(150):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        verdict = classify(problem, p)
        if verdict.status is StabilityStatus.UNSTABLE:
            value = mu(problem, p, verdict.witness)
            assert value < 0
            assert value == verdict.witness_mu
        elif verdict.status is StabilityStatus.STRICTLY_SEMISTABLE:
            assert any(verdict.witness)
            assert mu(problem, p, verdict.witness) == 0
        else:
            assert verdict.witness is None


def test_brute_force_agreement_with_escalation():
    """Box scans can miss witnesses that live outside the box; on any
    divergence the exact witness must verify and a larger box must agree."""
    rng = random.Random(77)
    divergences = 0
    for _ in range(2000):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        pattern = support(p)
        verdict = classify(problem, p)
        oracle = brute_force_status(problem, pattern, 5)
        if verdict.status is oracle:
            continue
        divergences += 1
        assert verdict.status is StabilityStatus.UNSTABLE
        assert mu_from_pattern(problem, pattern, verdict.witness) < 0
        bound = max(5, max(abs(x) for x in verdict.witness))
        assert brute_force_status(problem, pattern, bound) is StabilityStatus.UNSTABLE
    # The box heuristic holds overwhelmingly at these sizes.
    assert divergences <= 10


def test_strictly_semistable_has_no_negative_in_box():
    rng = random.Random(888)
    found = 0
    for _ in range(400):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        verdict = classify(problem, p)
        if verdict.status is not StabilityStatus.STRICTLY_SEMISTABLE:
            continue
        found += 1
        pattern = support(p)
        for lam in box(problem.torus_rank, 5):
            value = mu_from_pattern(problem, pattern, lam)
            assert value is None or value >= 0
    assert found >= 5


# --- stabilizer orders ------------------------------------------------------


def test_stabilizer_orbifold_point(conic):
    assert stabilizer_order(conic, point(conic, x=0, y=0, u=1, v=1)) == 2


def test_stabilizer_free_point(conic):
    # Lattice spanned by {1, -1, 2} is all of Z.
    assert stabilizer_order(conic, point(conic, x=1, y=1, u=1, v=1)) == 1


def test_stabilizer_infinite(conic):
    assert stabilizer_order(conic, point(conic, x=0, y=0, u=1, v=0)) is None


def test_stable_implies_finite_stabilizer():
    rng = random.Random(3110)
    for _ in range(200):
        problem = random_problem(rng)
        p = random_point(rng, problem)
        if classify(problem, p).status is StabilityStatus.STABLE:
            assert stabilizer_order(problem, p) is not None


def test_classify_pattern_direct(conic):
    from torstab import SupportPattern

    verdict = classify_pattern(
        conic, SupportPattern(frozenset({"x"}), frozenset({"u"}))
    )
    assert verdict.status is StabilityStatus.UNSTABLE
    realized = synthetic_point(conic, SupportPattern(frozenset({"x"}), frozenset({"u"})))
    assert classify(conic, realized).status is verdict.status


# --- the multi-piece verdict walk of the tests' chain oracle ---------------


def _dot_weight(form):
    return lambda lam: -sum(a * b for a, b in zip(form, lam))


def test_verdict_over_pieces_stops_at_first_feasible_piece():
    built = []

    def pieces():
        for piece in (([(1,)], [(1,)]), "unreachable"):
            built.append(piece)
            yield piece

    verdict = verdict_over_pieces(pieces(), 1, _dot_weight((1,)))
    assert verdict.status is StabilityStatus.UNSTABLE
    assert verdict.witness == (1,) and verdict.witness_mu == -1
    assert len(built) == 1


def test_verdict_over_pieces_second_pass_reuses_pieces():
    # Weight -lam_1 on the line lam_1 = 0 of the plane: nothing destabilizes,
    # but (0, +-1) has weight 0.
    pieces = iter([([(1, 0), (-1, 0)], [(1, 0)])])
    verdict = verdict_over_pieces(pieces, 2, _dot_weight((1, 0)))
    assert verdict.status is StabilityStatus.STRICTLY_SEMISTABLE
    assert verdict.witness_mu == 0
    assert verdict.witness[0] == 0 and verdict.witness[1] != 0


def test_verdict_over_pieces_stable():
    verdict = verdict_over_pieces([([(1,)], [(-1,)]), ([(-1,)], [(1,)])], 1, _dot_weight((1,)))
    assert verdict.status is StabilityStatus.STABLE


def test_verdict_over_pieces_rejects_a_witness_that_fails_reverification():
    with pytest.raises(InternalInvariantError):
        verdict_over_pieces([([], [(1,)])], 1, lambda lam: 0)
    with pytest.raises(InternalInvariantError):
        verdict_over_pieces([([(1, 0), (-1, 0)], [(1, 0)])], 2, lambda lam: None)


def test_inconsistent_verdict_is_reported_with_its_fields():
    verdict = Verdict(StabilityStatus.UNSTABLE, (1, 0), -2)
    assert repr(verdict) == (
        "Verdict(status=<StabilityStatus.UNSTABLE: 'unstable'>, witness=(1, 0), "
        "witness_mu=-2)"
    )
    with pytest.raises(InternalInvariantError) as caught:
        Verdict(StabilityStatus.STABLE, witness=(1, 0))
    assert str(caught.value) == (
        "inconsistent verdict Verdict(status=<StabilityStatus.STABLE: 'stable'>, "
        "witness=(1, 0), witness_mu=None)"
    )


# --- pattern tables: monotone skipping --------------------------------------

TABLES = Path(__file__).parent / "tables"


# The rank-6 table that Fourier-Motzkin refused (random.Random(13), weights
# in [-3, 3]): at the point below, elimination would have combined
# 1580 x 1342 row pairs in one stage.
RANK_SIX = TABLES / "rank6_seed13.problem"
RANK_SIX_POINT = "x0=1,x1=1,x2=1,x3=1,x4=1,u0=0,u1=1,u2=0,u3=1,u4=0"


def test_the_rank_six_point_is_unstable():
    problem = parse_problem(RANK_SIX.read_text())
    sample = parse_point(problem, RANK_SIX_POINT)
    start = time.process_time()
    verdict = classify(problem, sample)
    assert time.process_time() - start < 0.1
    assert verdict.status is StabilityStatus.UNSTABLE
    # The witness, checked by substitution: every base weight of the
    # support pairs to >= 0 and every fiber weight to >= 1.
    pairs = dict(zip(problem.var_names, pairings(problem, verdict.witness)))
    assert all(pairs[name] >= 0 for name in ("x0", "x1", "x2", "x3", "x4"))
    assert pairs["u1"] >= 1 and pairs["u3"] >= 1
    assert verdict.witness_mu == -min(pairs["u1"], pairs["u3"])


def test_the_rank_six_table_is_answered():
    problem = parse_problem(RANK_SIX.read_text())
    start = time.process_time()
    table = classify_patterns(problem)
    assert time.process_time() - start < 1
    counts = Counter(v.status for v in table.verdicts)
    assert counts == {StabilityStatus.STABLE: 33, StabilityStatus.UNSTABLE: 959}
    assert [v.status for _, v in table.rows] == [
        v.status for _, v in pattern_table_oracle(problem)
    ]


def _patterns_in_order(problem):
    """Every support pattern, base size outer and fiber size inner."""
    base, fiber = problem.base_names, problem.fiber_names
    return [
        SupportPattern(frozenset(b), frozenset(f))
        for bsize in range(len(base) + 1)
        for b in combinations(base, bsize)
        for fsize in range(1, len(fiber) + 1)
        for f in combinations(fiber, fsize)
    ]


def test_row_order_follows_the_nested_subset_loops():
    # The table builds each subset once, ahead of the rows; its rows must
    # still come in the order of enumerating every pattern from scratch.
    problem = parse_problem((TABLES / "rank4_4x4_seed1.problem").read_text())
    expected = _patterns_in_order(problem)
    assert len(expected) == 240
    assert [p for p, _ in classify_patterns(problem).rows] == expected


@st.composite
def pattern_problems(draw, total=7):
    """Rank 1-4, up to `total` variables (at most 4 base, 4 fiber), weights in [-3, 3].

    Each weight is fresh or taken from a small pool, so repeated weights
    are common, and the pool may hold the zero vector.
    """
    rank = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append((0,) * rank)
    nb = draw(st.integers(0, 4))
    nf = draw(st.integers(1, min(4, total - nb)))
    weight = st.one_of(st.sampled_from(pool), vector)
    weights = draw(st.lists(weight, min_size=nb + nf, max_size=nb + nf))
    shift = draw(st.one_of(st.just(None), vector))
    return GitProblem(
        torus_rank=rank,
        base_vars=tuple((f"x{i}", w) for i, w in enumerate(weights[:nb])),
        fiber_vars=tuple((f"u{j}", w) for j, w in enumerate(weights[nb:])),
        shift=shift,
    )


ZERO_WEIGHTS = GitProblem(
    torus_rank=2,
    base_vars=(("x0", (0, 0)), ("x1", (1, -1))),
    fiber_vars=(("u0", (0, 0)), ("u1", (-1, 1)), ("u2", (0, 0))),
)


def _rows_hold(problem, pattern, lam, fiber_floor):
    """Substitute lam into the pattern's rows: base >= 0, shifted fiber >= fiber_floor."""

    def dot(w):
        return sum(a * b for a, b in zip(w, lam))

    weights, at = problem.weights, problem.positions
    return all(dot(weights[at[n]]) >= 0 for n in pattern.base) and all(
        dot(weights[at[n]]) >= fiber_floor for n in pattern.fiber
    )


@settings(max_examples=200, deadline=None)
@given(pattern_problems())
@example(ZERO_WEIGHTS)
@example(degenerating_conic_problem())
def test_pattern_table_equals_patternwise_classification(problem):
    # Same patterns, order and statuses as classifying each on its own.  A
    # witness may come from a smaller support, so it is checked against the
    # pattern's own rows rather than compared with `classify_pattern`'s.
    rows = classify_patterns(problem).rows
    assert [p for p, _ in rows] == _patterns_in_order(problem)
    for pattern, verdict in rows:
        assert verdict.status is classify_pattern(problem, pattern).status
        lam = verdict.witness
        if verdict.status is StabilityStatus.STABLE:
            assert lam is None and verdict.witness_mu is None
            continue
        if verdict.status is StabilityStatus.UNSTABLE:
            assert _rows_hold(problem, pattern, lam, 1)
        else:
            assert _rows_hold(problem, pattern, lam, 0) and any(lam)
        assert verdict.witness_mu == mu_from_pattern(problem, pattern, lam)


@settings(max_examples=200, deadline=None)
@given(pattern_problems())
@example(ZERO_WEIGHTS)
def test_pattern_table_is_monotone(problem):
    rows = classify_patterns(problem).rows
    for p, v in rows:
        for q, w in rows:
            if p.base <= q.base and p.fiber <= q.fiber:
                if v.status is StabilityStatus.STABLE:
                    assert w.status is StabilityStatus.STABLE
                if w.status is StabilityStatus.UNSTABLE:
                    assert v.status is StabilityStatus.UNSTABLE


def test_package_names_classify_and_mu_are_the_functions():
    # The functions replace the submodules of the same names on the package,
    # so a monkeypatch of `torstab.classify` would patch the function.
    import torstab
    import torstab.classify as bound

    for name in ("classify", "mu"):
        module = importlib.import_module(f"torstab.{name}")
        assert module is sys.modules[f"torstab.{name}"]
        assert isinstance(module, types.ModuleType)
        assert getattr(torstab, name) is getattr(module, name)
    assert bound is torstab.classify
    assert not hasattr(torstab.classify, "decide_cone")
    assert hasattr(sys.modules["torstab.classify"], "decide_cone")


def _count_cone_questions(monkeypatch):
    """List that records each `decide_cone` call: "both" when it asks the
    first system and, failing that, the second, "second" when it asks the
    second alone."""
    questions = []
    # `torstab.classify` as an attribute is the function; the module is needed.
    classify_module = importlib.import_module("torstab.classify")
    original = cones.decide_cone

    def counted(problem, first=True):
        questions.append("both" if first else "second")
        return original(problem, first)

    monkeypatch.setattr(cones, "decide_cone", counted)
    monkeypatch.setattr(classify_module, "decide_cone", counted)
    return questions


def test_pattern_table_skips_solves_that_smaller_supports_decide(monkeypatch):
    problem = parse_problem((TABLES / "rank3_5x5_seed1.problem").read_text())
    questions = _count_cone_questions(monkeypatch)
    for pattern in _patterns_in_order(problem):
        classify_pattern(problem, pattern)
    one_by_one = questions[:]
    questions.clear()
    table = classify_patterns(problem)
    statuses = {v.status for _, v in table.rows}
    assert StabilityStatus.STABLE in statuses
    assert StabilityStatus.STRICTLY_SEMISTABLE in statuses
    # 992 patterns: 33 solves against 992.  Stable supersets of stable
    # supports ask nothing, and so does every pattern whose rows a witness
    # already found for a smaller support satisfies.  A pattern containing a
    # strictly semistable support asks only the second system.
    assert Counter(questions) == {"both": 31, "second": 2}
    assert Counter(one_by_one) == {"both": 992}


# Its supports {u2}, {x0, u0} and {x0, u3} are each solved strictly
# semistable, all three with the witness (1, 0).
REPEATED_WITNESS = GitProblem(
    torus_rank=2,
    base_vars=(("x0", (0, 1)), ("x1", (-1, 1)), ("x2", (-2, 1))),
    fiber_vars=(("u0", (0, -1)), ("u1", (-1, -2)), ("u2", (0, 0)), ("u3", (0, -1))),
)


@pytest.mark.parametrize(
    "name", ["rank3_5x5_seed1", "rank4_4x4_seed1", "rank4_4x4_seed2", "repeated-witness"]
)
def test_a_table_holds_one_verdict_object_per_distinct_verdict(name):
    if name == "repeated-witness":
        problem = REPEATED_WITNESS
    else:
        problem = parse_problem((TABLES / f"{name}.problem").read_text())
    verdicts = [v for _, v in classify_patterns(problem).rows]
    objects: dict[Verdict, set[int]] = {}
    for verdict in verdicts:
        objects.setdefault(verdict, set()).add(id(verdict))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) < len(verdicts) // 5


def test_one_solved_witness_covers_the_larger_supports_it_satisfies(monkeypatch):
    # Rank 1, base x (1), fiber u (1), v (1), w (-1), no shift.  Solving {u}
    # gives lambda = 1, which has x >= 0 and u, v >= 1: it destabilizes every
    # support inside {x, u, v}.  Its w row is -1, so {w} is solved on its
    # own (lambda = -1, whose x row is -1); {u, w}, {v, w} and {x, w} are
    # solved stable, and the rest contain one of them.
    problem = GitProblem(
        torus_rank=1,
        base_vars=(("x", (1,)),),
        fiber_vars=(("u", (1,)), ("v", (1,)), ("w", (-1,))),
    )
    questions = _count_cone_questions(monkeypatch)
    rows = {
        (tuple(sorted(p.base)), tuple(sorted(p.fiber))): v
        for p, v in classify_patterns(problem).rows
    }
    assert len(rows) == 14
    covered = [
        ((), ("u",)), ((), ("v",)), ((), ("u", "v")),
        (("x",), ("u",)), (("x",), ("v",)), (("x",), ("u", "v")),
    ]
    for key in covered:
        assert rows[key].status is StabilityStatus.UNSTABLE
        assert rows[key].witness == (1,)
    assert rows[((), ("w",))] == Verdict(StabilityStatus.UNSTABLE, (-1,), -1)
    stable = [s for s, v in rows.items() if v.status is StabilityStatus.STABLE]
    assert len(stable) == 7
    # One solve for {u}, one for {w}, and one for each of the three minimal
    # stable supports.
    assert Counter(questions) == {"both": 5}


def test_one_solved_blocker_covers_the_larger_supports_it_satisfies(monkeypatch):
    # Rank 1, base y (0), fiber z (0): {z} is strictly semistable through
    # both passes, and {y, z}, which contains it, reuses its nonzero lambda
    # (the y row is 0 there too) without a solve.
    problem = GitProblem(torus_rank=1, base_vars=(("y", (0,)),), fiber_vars=(("z", (0,)),))
    questions = _count_cone_questions(monkeypatch)
    (_, alone), (_, both) = classify_patterns(problem).rows
    assert alone.status is StabilityStatus.STRICTLY_SEMISTABLE
    assert both == alone
    assert Counter(questions) == {"both": 1}


# --- pattern tables: sets of rows against the row-by-row walk ---------------


def _recording(solved, solve=classify_pattern):
    """`solve`, appending each pattern it is asked about to `solved`."""

    def recorded(problem, pattern):
        solved.append(pattern)
        return solve(problem, pattern)

    return recorded


def _assert_table_equals_the_row_walk(problem):
    """The table's rows, checked against `pattern_table_oracle`.  Every
    solve enters by `_solve`, over the row's own positions (the second
    system alone for a row containing a support solved strictly
    semistable); each is recorded as its pattern, in the order the walk
    would solve them."""
    classify_module = importlib.import_module("torstab.classify")
    solve, names = classify_module._solve, problem.var_names
    solved, walked = [], []

    def recorded(problem, base, fiber, first=True):
        solved.append(
            SupportPattern(frozenset(names[i] for i in base), frozenset(names[i] for i in fiber))
        )
        return solve(problem, base, fiber, first)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify_module, "_solve", recorded)
        rows = classify_patterns(problem).rows
    expected = pattern_table_oracle(problem, _recording(walked))
    assert solved == walked
    assert [p for p, _ in rows] == [p for p, _ in expected]
    # Status, witness and weight, and the same rows share one object.
    assert [v for _, v in rows] == [v for _, v in expected]
    objects: dict[Verdict, set[int]] = {}
    for _, verdict in rows:
        objects.setdefault(verdict, set()).add(id(verdict))
    assert all(len(ids) == 1 for ids in objects.values())
    index = {name: i for i, name in enumerate(problem.var_names)}
    for pattern, verdict in rows:
        if verdict.witness is None:
            continue
        pairs = pairings(problem, verdict.witness)
        assert verdict.witness_mu == weight_of_pairings(
            [pairs[index[n]] for n in pattern.base], [pairs[index[n]] for n in pattern.fiber]
        )
    return rows, solved


@pytest.mark.parametrize(
    "name",
    ["rank3_5x5_seed1", "rank4_4x4_seed1", "rank4_4x4_seed2", *sorted(BUILTINS)],
)
def test_pattern_table_equals_the_row_walk(name):
    if name in BUILTINS:
        problem = BUILTINS[name]()
    else:
        problem = parse_problem((TABLES / f"{name}.problem").read_text())
    _assert_table_equals_the_row_walk(problem)


def test_blockers_take_rows_on_the_seeded_tables():
    # Strictly semistable rows that no solve produced came from a blocker.
    for name in ("rank3_5x5_seed1", "rank4_4x4_seed2"):
        problem = parse_problem((TABLES / f"{name}.problem").read_text())
        rows, solved = _assert_table_equals_the_row_walk(problem)
        semistable = [p for p, v in rows if v.status is StabilityStatus.STRICTLY_SEMISTABLE]
        assert set(semistable) - set(solved)


# {x0, x3} + {u1} contains {x3} + {u1}, solved strictly semistable with the
# witness (1, 0, 1), and lies in that witness's covered set and in that of
# (2, 1, 1), solved earlier: the earlier blocker takes it.
TWO_BLOCKERS = GitProblem(
    torus_rank=3,
    base_vars=(("x0", (0, -2, 2)), ("x1", (-2, -2, -2)), ("x2", (-2, 1, 0)), ("x3", (2, -2, -2))),
    fiber_vars=(("u0", (0, 1, -1)), ("u1", (-2, 2, 2))),
)

# {x1} + {u1} contains no strictly semistable support but lies in the
# covered set of the blocker (-2, 1); it is solved, and keeps its own
# witness (2, -1).
SOLVED_INSIDE_A_BLOCKER = GitProblem(
    torus_rank=2,
    base_vars=(("x0", (-1, 0)), ("x1", (-1, -2))),
    fiber_vars=(("u0", (0, -2)), ("u1", (1, 2)), ("u2", (0, 0))),
)


@settings(max_examples=300, deadline=None)
@given(pattern_problems(total=8))
@example(ZERO_WEIGHTS)
@example(REPEATED_WITNESS)
@example(TWO_BLOCKERS)
@example(SOLVED_INSIDE_A_BLOCKER)
@example(degenerating_conic_problem())
def test_pattern_table_equals_the_row_walk_on_random_problems(problem):
    _assert_table_equals_the_row_walk(problem)


def test_a_support_solved_stable_inside_a_covered_set_is_an_internal_error(monkeypatch):
    # {u} is solved strictly semistable; its witness pairs to 0 with u and v,
    # so its covered set holds {v}.  {v} contains no strictly semistable
    # support, so it is solved on its own, and a stable answer contradicts
    # that witness.
    problem = GitProblem(torus_rank=1, base_vars=(), fiber_vars=(("u", (0,)), ("v", (0,))))

    classify_module = importlib.import_module("torstab.classify")
    solve = classify_module._solve

    def forged(problem, base, fiber, first=True):
        if fiber == (problem.positions["v"],):
            return Verdict(StabilityStatus.STABLE), None
        return solve(problem, base, fiber, first)

    monkeypatch.setattr(classify_module, "_solve", forged)
    with pytest.raises(InternalInvariantError, match="solved stable lies inside"):
        classify_patterns(problem)


def test_a_pattern_table_is_the_product_of_its_subsets(conic):
    table = classify_patterns(conic)
    assert table.bases == ((), ("x",), ("y",), ("x", "y"))
    assert table.fibers == (("u",), ("v",), ("u", "v"))
    patterns = [
        SupportPattern(frozenset(b), frozenset(f)) for b in table.bases for f in table.fibers
    ]
    assert table.rows == tuple(zip(patterns, table.verdicts))
    assert PatternTable(*table) == table


def test_a_pattern_table_refuses_a_verdict_count_other_than_the_product(conic):
    table = classify_patterns(conic)
    for verdicts in (table.verdicts[:-1], table.verdicts + table.verdicts[:1], ()):
        with pytest.raises(InputError, match=f"{len(verdicts)} verdicts for 4 base"):
            PatternTable(table.bases, table.fibers, verdicts)


def test_a_pattern_table_refuses_an_empty_fiber_subset(conic):
    table = classify_patterns(conic)
    fibers = ((), *table.fibers[1:])
    with pytest.raises(ZeroSectionError, match="empty fiber subset"):
        PatternTable(table.bases, fibers, table.verdicts)


def test_the_eight_plus_eight_table_counts():
    problem = parse_problem((TABLES / "rank4_8x8_seed1.problem").read_text())
    statuses = Counter(v.status.value for _, v in classify_patterns(problem).rows)
    assert statuses == {"stable": 37256, "strictly-semistable": 1234, "unstable": 26790}
