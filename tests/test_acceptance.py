"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Each criterion checks the
library against independent oracles (box scans, the enumeration oracle
`mu_oracle` and closed forms in `conftest.py`); expected values for the two
worked examples are frozen from those oracles.  `torstab selftest` covers
the same worked examples differently: it replays the golden CLI reports of
`torstab.golden` and compares their digests.
"""

import random
import time
from fractions import Fraction

from torstab import (
    StabilityStatus,
    classify,
    classify_patterns,
    conic_bundle_problem,
    mu,
    quotient_presentation,
    semistable_via_sections,
    stabilizer_order,
    support,
)
from torstab.cli import main as cli_main
from torstab.degeneration import (
    ChainConfiguration,
    Stratum,
    build_weight_table,
    config_stabilizer,
    hilbert_components,
    mu_config,
    sweep_equivalence,
)

from conftest import (
    brute_force_status,
    decay_profile,
    mu_oracle,
    point,
    random_point,
    random_problem,
    synthetic_point,
)

GOLDEN_CONIC = {
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


def _passed(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_classification_table():
    started = time.perf_counter()
    problem = conic_bundle_problem()
    table = classify_patterns(problem)
    got = {
        (tuple(sorted(p.base)), tuple(sorted(p.fiber))): v.status.value
        for p, v in table.rows
    }
    assert got == GOLDEN_CONIC
    assert sum(1 for _, v in table.rows if v.status is StabilityStatus.STRICTLY_SEMISTABLE) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"12-pattern table exact, no strictly semistable, {elapsed:.3f}s")


def test_criterion_2_invariant_theory():
    started = time.perf_counter()
    problem = conic_bundle_problem()
    pres = quotient_presentation(problem, max_degree=4, syzygy_degree=4)

    def named(mono):
        return tuple((n, e) for n, e in zip(problem.var_names, mono.exponents) if e)

    generators = {named(m) for _, m in pres.base_generators}
    generators |= {named(m) for _, m in pres.proj_generators}
    assert generators == {
        (("x", 1), ("y", 1)),
        (("x", 1), ("v", 1)),
        (("y", 1), ("u", 1)),
        (("u", 1), ("v", 1)),
    }
    assert [named(m) for _, m in pres.base_generators] == [(("x", 1), ("y", 1))]
    assert [m.l_degree for _, m in pres.proj_generators] == [1, 1, 2]
    assert pres.ambient == "A^1 x P(1,1,2)"
    assert len(pres.relations) == 1
    by_name = {n: m for n, m in pres.base_generators}
    by_name.update({n: m for n, m in pres.proj_generators})
    (rel,) = pres.relations
    sides = {}
    for coeff, mono in rel.terms:
        degrees = tuple(sorted(by_name[g].l_degree for g, _ in mono))
        sides[coeff] = degrees
    # One side multiplies the two degree-1 coordinates, the other the base
    # coordinate with the degree-2 one.
    assert set(sides.values()) == {(1, 1), (0, 2)}
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(2, f"generators xy,xv,yu,uv; relation in degrees (1,1)=(0,2); {pres.ambient}; {elapsed:.3f}s")


def test_criterion_3_orbifold_point():
    problem = conic_bundle_problem()
    assert stabilizer_order(problem, point(problem, x=0, y=0, u=1, v=1)) == 2
    assert stabilizer_order(problem, point(problem, x=1, y=1, u=1, v=1)) == 1
    assert stabilizer_order(problem, point(problem, x=0, y=0, u=1, v=0)) is None
    _passed(3, "stabilizer orders 2, 1, infinite")


def test_criterion_4_mu_values():
    problem = conic_bundle_problem()
    collapsed = point(problem, x=1, y=0, u=1, v=0)
    surviving = point(problem, x=1, y=0, u=1, v=1)
    for d in (1, 2, 3):
        assert mu(problem, collapsed, (d,)) == -d
        assert mu(problem, surviving, (d,)) == d
    for fiber in ({"u": 1, "v": 0}, {"u": 1, "v": 1}):
        assert mu(problem, point(problem, x=1, y=0, **fiber), (-1,)) is None
    _passed(4, "-d, +d for d in {1,2,3}; infinite at lambda=-1")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(4242)
    problems = 0
    while problems < 200:
        problem = random_problem(rng)
        sample = random_point(rng, problem)
        verdict = classify(problem, sample)
        oracle = brute_force_status(problem, support(sample), 5)
        assert verdict.status is oracle, (problem, sample)
        for _ in range(5):
            lam = tuple(rng.randint(-5, 5) for _ in range(problem.torus_rank))
            assert mu(problem, sample, lam) == mu_oracle(problem, sample, lam, 4)
        problems += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(5, f"200 randomized problems, zero disagreements, {elapsed:.1f}s")


def test_criterion_6_sections_cross_check():
    problem = conic_bundle_problem()
    for pattern, verdict in classify_patterns(problem).rows:
        sample = synthetic_point(problem, pattern)
        section = semistable_via_sections(problem, sample, 4)
        assert (section is not None) == (verdict.status is not StabilityStatus.UNSTABLE)
    _passed(6, "bound-4 sections found exactly on non-unstable patterns")


def test_criterion_7_degeneration_equivalence(capsys):
    started = time.perf_counter()
    for n in (1, 2):
        report = sweep_equivalence(build_weight_table(n))
        assert report.equivalence_holds
        assert report.strictly_semistable_count == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    # The CLI sweep report must print the weight table it used, including
    # the (absent) shift.
    code = cli_main(["conic", "--n", "2", "--sweep"])
    out = capsys.readouterr().out
    assert code == 0
    assert "weight table: n=2 twists=[10]" in out
    assert "shift=none" in out
    _passed(7, f"admissible iff stable over all strata, n in {{1,2}}, {elapsed:.2f}s")


def test_criterion_8_total_weight_magnitude():
    table = build_weight_table(2)
    a1 = Fraction(table.multipliers[0])
    config = ChainConfiguration(Stratum(2, frozenset({1, 2, 3})), (0, 1, 1, 0))
    for s1 in range(-5, 6):
        for s2 in range(-5, 6):
            target = abs(
                a1 * (Fraction(s1, 2) - Fraction(3 * abs(s1), 2))
                - (Fraction(s2, 2) + Fraction(3 * abs(s2), 2))
            )
            value = mu_config(table, config, (s1, s2))
            # Engine orientation realizes the magnitude with the global
            # sign +1: the configuration weight is exactly +|target|.
            assert value == target
    _passed(8, "exact magnitude match on [-5,5]^2, global sign +1")


def test_criterion_9_degeneration_stabilizers():
    stratum = Stratum(2, frozenset({1, 3}))
    antipodal = ChainConfiguration(
        stratum, (0, 2, 0), ((1, Fraction(1, 2)), (1, Fraction(-1, 2)))
    )
    generic = ChainConfiguration(
        stratum, (0, 2, 0), ((1, Fraction(1, 2)), (1, Fraction(2, 3)))
    )
    assert config_stabilizer(antipodal) == 2
    assert config_stabilizer(generic) == 1
    incidence = hilbert_components(2)
    assert [c.label for c in incidence.components] == ["H20", "H11", "H02"]
    by_group = dict(incidence.intersections)
    for pair in (("H20", "H11"), ("H20", "H02"), ("H11", "H02")):
        assert by_group[pair]
    assert by_group[("H20", "H11", "H02")]
    _passed(9, "pair stabilizers 2 and 1; 2-simplex incidence with triple point")


def test_criterion_10_property_suite():
    rng = random.Random(1001)

    # Homogeneity and support invariance on randomized problems.
    for _ in range(100):
        problem = random_problem(rng)
        sample = random_point(rng, problem)
        lam = tuple(rng.randint(-4, 4) for _ in range(problem.torus_rank))
        value = mu(problem, sample, lam)
        for m in (2, 3):
            assert mu(problem, sample, tuple(m * x for x in lam)) == (None if value is None else m * value)
        doubled = point(
            problem,
            **{n: v * 2 if v else Fraction(0) for n, v in sample.as_dict().items()},
        )
        assert mu(problem, doubled, lam) == value

    # Witness re-substitution and finite stabilizers for stable points.
    for _ in range(100):
        problem = random_problem(rng)
        sample = random_point(rng, problem)
        verdict = classify(problem, sample)
        if verdict.status is StabilityStatus.UNSTABLE:
            assert mu(problem, sample, verdict.witness) < 0
        elif verdict.status is StabilityStatus.STRICTLY_SEMISTABLE:
            assert mu(problem, sample, verdict.witness) == 0
        else:
            assert stabilizer_order(problem, sample) is not None

    # Orbit-flow decay for every unstable witness of the conic-bundle table.
    problem = conic_bundle_problem()
    unstable_witnesses = 0
    for pattern, verdict in classify_patterns(problem).rows:
        if verdict.status is not StabilityStatus.UNSTABLE:
            continue
        unstable_witnesses += 1
        sample = synthetic_point(problem, pattern)
        values = sample.as_dict()
        for name in sorted(pattern.fiber):
            weight = problem.weights[problem.positions[name]]
            degree = sum(a * b for a, b in zip(verdict.witness, weight))
            assert degree > 0
            profile = decay_profile(values[name], degree)
            assert all(a > b for a, b in zip(profile, profile[1:]))
            assert profile[-1] < Fraction(1, 10_000)
    assert unstable_witnesses == 4

    # Same decay for every unstable witness of the degeneration sweeps.
    for n in (1, 2):
        table = build_weight_table(n)
        report = sweep_equivalence(table)
        for row in report.rows:
            verdict = row.verdict
            if verdict.status is not StabilityStatus.UNSTABLE:
                continue
            drop = -mu_config(table, ChainConfiguration(row.stratum, row.lengths), verdict.witness)
            assert drop > 0
            profile = decay_profile(Fraction(1), int(drop))
            assert all(a > b for a, b in zip(profile, profile[1:]))
            assert profile[-1] < Fraction(1, 10_000)

    _passed(10, "homogeneity, support invariance, witnesses, stabilizers, orbit decay")
