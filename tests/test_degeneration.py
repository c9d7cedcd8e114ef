import sys
from fractions import Fraction
from itertools import product

import pytest

from torstab import StabilityStatus, cones
from torstab.degeneration import (
    ChainConfiguration,
    Stratum,
    SweepRow,
    WeightTable,
    _all_configs,
    admissible,
    build_weight_table,
    chain,
    classify_config,
    compositions,
    config_stabilizer,
    hilbert_components,
    in_component_closure,
    mu_config,
    strata,
    sweep_equivalence,
)
from torstab.errors import InputError

from conftest import brute_force_config_status


def origin(n):
    return Stratum(n, frozenset(range(1, n + 2)))


def test_chain_origin():
    fibre = chain(Stratum(2, frozenset({1, 2, 3})))
    assert fibre.intervals == ((0,), (1,), (2,), (3,))


def test_chain_partial_smoothing():
    fibre = chain(Stratum(2, frozenset({1, 3})))
    assert fibre.intervals == ((0,), (1, 2), (3,))


def test_chain_single_cut():
    fibre = chain(Stratum(2, frozenset({3})))
    assert fibre.intervals == ((0, 1, 2), (3,))


def test_chain_smooth_fibre():
    fibre = chain(Stratum(2, frozenset()))
    assert fibre.intervals == ((0, 1, 2, 3),)


def test_stratum_validation():
    with pytest.raises(InputError):
        Stratum(2, frozenset({4}))
    with pytest.raises(InputError):
        Stratum(0, frozenset())


def test_admissible_origin():
    assert admissible(ChainConfiguration(origin(2), (0, 1, 1, 0)))
    assert not admissible(ChainConfiguration(origin(2), (0, 2, 0, 0)))


def test_admissible_generic_component():
    config = ChainConfiguration(Stratum(2, frozenset({3})), (2, 0))
    assert admissible(config)


def test_lengths_validated():
    with pytest.raises(InputError):
        ChainConfiguration(origin(2), (1, 1, 1, 0))
    with pytest.raises(InputError):
        ChainConfiguration(origin(2), (1, 1))


def test_inner_positions_sum_to_n():
    for n in (1, 2, 3):
        for stratum in strata(n):
            intervals = chain(stratum).intervals
            counts = [
                sum(1 for i in interval if 1 <= i <= n) for interval in intervals
            ]
            assert sum(counts) == n
            assert admissible(ChainConfiguration(stratum, tuple(counts)))


def test_compositions_are_the_lexicographic_tuples_with_that_sum():
    # Sweep rows come out in this order.
    for total in range(7):
        for parts in range(7):
            expected = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
            assert compositions(total, parts) == expected, (total, parts)


# --- weight table -----------------------------------------------------------


def test_weight_table_defaults():
    assert build_weight_table(1).multipliers == (1,)
    assert build_weight_table(2).multipliers == (10, 1)
    assert build_weight_table(3).multipliers == (100, 10, 1)


def test_equal_tables_and_strata_are_equal_and_hash_alike():
    # sweep_equivalence keys the pieces a stratum shares on the stratum.
    table, twin = build_weight_table(2), WeightTable(2, (10, 1))
    stratum, twin_stratum = origin(2), Stratum(2, frozenset({3, 2, 1}))
    assert table is not twin and table == twin and hash(table) == hash(twin)
    assert stratum is not twin_stratum and stratum == twin_stratum
    assert hash(stratum) == hash(twin_stratum)
    assert WeightTable(2, (7, 1)) != table
    assert Stratum(2, frozenset({1})) != stratum


def test_weight_table_validation():
    with pytest.raises(InputError):
        build_weight_table(4)
    with pytest.raises(InputError):
        build_weight_table(2, a=(1,))
    with pytest.raises(InputError):
        build_weight_table(3, a=(5, 7))


def test_weight_table_n1_symmetric():
    # Single inserted component: the two limit directions carry opposite
    # unit weights; the end components carry no own dependence.
    table = build_weight_table(1)
    fibre = chain(origin(1))
    down, up = table.limit_vectors(fibre, 1)
    assert down == (-1,) and up == (1,)
    for k in (0, 2):
        down, up = table.limit_vectors(fibre, k)
        assert down == up


def test_weight_table_end_components_have_no_own_dependence_at_origin():
    for n in (1, 2, 3):
        table = build_weight_table(n)
        fibre = chain(origin(n))
        first_down, first_up = table.limit_vectors(fibre, 0)
        last_down, last_up = table.limit_vectors(fibre, len(fibre.intervals) - 1)
        assert first_down == first_up
        assert last_down == last_up


def test_weight_table_matches_generating_monomial():
    # At the down-limit of the first inserted component (n=2) the fibre is
    # generated by v_1^(3*a_1) * v_2^3, of weight (-2*a_1, -1) per cube.
    table = build_weight_table(2)
    a1 = table.multipliers[0]
    fibre = chain(origin(2))
    down, _ = table.limit_vectors(fibre, 1)
    assert down == (-2 * a1, -1)
    _, up = table.limit_vectors(fibre, 2)
    assert up == (a1, 2)


# --- configuration weights --------------------------------------------------


def test_mu_config_trivial_subgroup():
    table = build_weight_table(2)
    config = ChainConfiguration(origin(2), (0, 1, 1, 0))
    assert mu_config(table, config, (0, 0)) == 0
    assert type(mu_config(table, config, (1, 2))) is int


def test_mu_config_admissible_origin_positive():
    table = build_weight_table(2)
    config = ChainConfiguration(origin(2), (0, 1, 1, 0))
    for s1 in range(-5, 6):
        for s2 in range(-5, 6):
            value = mu_config(table, config, (s1, s2))
            if (s1, s2) == (0, 0):
                assert value == 0
            else:
                assert value > 0


def test_mu_config_homogeneity():
    table = build_weight_table(2)
    config = ChainConfiguration(origin(2), (1, 0, 1, 0))
    for lam in ((1, 2), (-3, 1), (2, -2)):
        base = mu_config(table, config, lam)
        for m in (2, 3):
            assert mu_config(table, config, tuple(m * x for x in lam)) == m * base


def test_mu_config_additive_over_decomposition():
    table = build_weight_table(2)
    whole = ChainConfiguration(origin(2), (0, 1, 1, 0))
    # The same support split into two half-configurations of an n=2 table:
    # additivity is per-point, so comparing against manual point sums works
    # through any split of the length vector.
    left = (0, 1, 0, 0)
    right = (0, 0, 1, 0)
    for lam in ((1, 0), (0, -2), (3, 2), (-1, 4)):
        total = mu_config(table, whole, lam)
        parts = sum(
            table.point_weight(chain(origin(2)).intervals, k, lam) * count
            for k, count in enumerate(left)
        ) + sum(
            table.point_weight(chain(origin(2)).intervals, k, lam) * count
            for k, count in enumerate(right)
        )
        assert total == -parts


def test_magnitude_formula_origin_pair():
    # |weight| of the admissible origin pair matches
    # a_1*(s1/2 - 3|s1|/2) - (s2/2 + 3|s2|/2) in absolute value.
    table = build_weight_table(2)
    a1 = Fraction(table.multipliers[0])
    config = ChainConfiguration(origin(2), (0, 1, 1, 0))
    for s1 in range(-5, 6):
        for s2 in range(-5, 6):
            target = abs(
                a1 * (Fraction(s1, 2) - Fraction(3 * abs(s1), 2))
                - (Fraction(s2, 2) + Fraction(3 * abs(s2), 2))
            )
            assert abs(mu_config(table, config, (s1, s2))) == target


# --- classification ---------------------------------------------------------


def test_classify_admissible_origin_stable():
    table = build_weight_table(2)
    verdict = classify_config(table, ChainConfiguration(origin(2), (0, 1, 1, 0)))
    assert verdict.status is StabilityStatus.STABLE


def test_classify_doubled_point_unstable():
    table = build_weight_table(2)
    config = ChainConfiguration(origin(2), (0, 2, 0, 0))
    assert brute_force_config_status(table, config) is StabilityStatus.UNSTABLE
    verdict = classify_config(table, config)
    assert verdict.status is StabilityStatus.UNSTABLE
    assert mu_config(table, config, verdict.witness) < 0


def test_classify_n1_origin_stable():
    table = build_weight_table(1)
    config = ChainConfiguration(Stratum(1, frozenset({1, 2})), (0, 1, 0))
    assert brute_force_config_status(table, config) is StabilityStatus.STABLE
    assert classify_config(table, config).status is StabilityStatus.STABLE


def test_equivalence_theorem():
    for n in (1, 2):
        report = sweep_equivalence(build_weight_table(n))
        assert report.equivalence_holds
        assert report.strictly_semistable_count == 0


# (table, cone questions of the sweep, of classifying each configuration
# alone, strictly semistable rows); a cone question is a `solve_cone` or a
# `cone_has_nonzero` call.  The last four tables carry twists that
# `build_weight_table` refuses; three of them give strictly semistable rows.
SWEEP_CASES = [
    (build_weight_table(1), 7, 18, 0),
    (build_weight_table(2), 54, 114, 0),
    (build_weight_table(2, (7,)), 54, 114, 0),
    (build_weight_table(2, (2,)), 54, 114, 0),
    (build_weight_table(3), 244, 574, 0),
    (build_weight_table(3, (5, 2)), 244, 574, 0),
    (build_weight_table(3, (1000, 999)), 244, 574, 0),
    (WeightTable(2, (0, 1)), 41, 130, 14),
    (WeightTable(3, (0, 2, 1)), 205, 634, 28),
    (WeightTable(3, (2, 0, 1)), 205, 660, 28),
    (WeightTable(3, (1, 1, 1)), 244, 574, 0),
]


@pytest.mark.parametrize(
    "table, swept, alone, semistable",
    SWEEP_CASES,
    ids=[f"n{t.n}-a{','.join(map(str, t.multipliers[:-1]))}" for t, *_ in SWEEP_CASES],
)
def test_sweep_equals_classifying_each_configuration_alone(
    monkeypatch, table, swept, alone, semistable
):
    # The sweep shares one memo and each stratum's orthant pieces across its
    # configurations; rows and witnesses must be those of classifying every
    # configuration on its own, with no memo.
    # The package attribute `torstab.classify` is the function of that name.
    classify_module = sys.modules["torstab.classify"]
    # Each cone question is a `solve_cone` or a `cone_has_nonzero` call.
    questions = []
    feasible_second_pass = []
    solve_cone, cone_has_nonzero = cones.solve_cone, cones.cone_has_nonzero

    def counted_solve(problem):
        questions.append(problem)
        return solve_cone(problem)

    def counted_nonzero(rows, dim):
        questions.append(rows)
        point = cone_has_nonzero(rows, dim)
        if point is not None:
            feasible_second_pass.append(point)
        return point

    monkeypatch.setattr(cones, "solve_cone", counted_solve)
    monkeypatch.setattr(classify_module, "solve_cone", counted_solve)
    monkeypatch.setattr(classify_module, "cone_has_nonzero", counted_nonzero)

    report = sweep_equivalence(table)
    assert len(questions) == swept
    reused = report.strictly_semistable_count - len(feasible_second_pass)
    del questions[:]
    rows = [
        SweepRow(config, admissible(config), classify_config(table, config))
        for config in _all_configs(table.n)
    ]
    assert len(questions) == alone
    assert report.rows == tuple(rows)
    assert report.strictly_semistable_count == semistable
    if semistable:
        # Some strictly semistable verdicts came from remembered answers.
        assert reused > 0


def test_classify_matches_box_scan_everywhere():
    for n in (1, 2):
        table = build_weight_table(n)
        for stratum in strata(n):
            parts = len(chain(stratum).intervals)
            for lengths in compositions(n, parts):
                config = ChainConfiguration(stratum, lengths)
                exact = classify_config(table, config).status
                scanned = brute_force_config_status(table, config)
                assert exact is scanned, (stratum, lengths)


def test_unstable_witness_respects_base_limit():
    table = build_weight_table(2)
    for stratum in strata(2):
        parts = len(chain(stratum).intervals)
        for lengths in compositions(2, parts):
            config = ChainConfiguration(stratum, lengths)
            verdict = classify_config(table, config)
            if verdict.status is not StabilityStatus.UNSTABLE:
                continue
            padded = (0,) + verdict.witness + (0,)
            for i in range(1, 4):
                if i not in stratum.vanishing:
                    assert padded[i] - padded[i - 1] >= 0


# --- stabilizers ------------------------------------------------------------


def middle_pair(c1, c2):
    stratum = Stratum(2, frozenset({1, 3}))
    return ChainConfiguration(stratum, (0, 2, 0), ((1, c1), (1, c2)))


def test_stabilizer_antipodal_pair():
    assert config_stabilizer(middle_pair(Fraction(1, 2), Fraction(-1, 2))) == 2


def test_stabilizer_generic_pair():
    assert config_stabilizer(middle_pair(Fraction(1, 2), Fraction(1))) == 1


def test_stabilizer_repeated_coordinate_counts_one_scalar():
    # The only scalar fixing {a, a} is 1, whatever a is.
    assert config_stabilizer(middle_pair(Fraction(1), Fraction(1))) == 1
    assert config_stabilizer(middle_pair(Fraction(2), Fraction(2))) == 1


def test_stabilizer_repeated_antipodal_pairs():
    # {1, 1, -1, -1} is fixed by 1 and -1 only.
    stratum = Stratum(4, frozenset({1, 5}))
    marked = tuple((1, Fraction(c)) for c in (1, 1, -1, -1))
    assert config_stabilizer(ChainConfiguration(stratum, (0, 4, 0), marked)) == 2


def test_stabilizer_origin_single_points():
    config = ChainConfiguration(
        origin(2), (0, 1, 1, 0), ((1, Fraction(3)), (2, Fraction(-2)))
    )
    assert config_stabilizer(config) == 1


def test_stabilizer_unmarked_middle_component_rejected():
    config = ChainConfiguration(origin(2), (0, 1, 1, 0), ((1, Fraction(1)),))
    with pytest.raises(InputError, match="marked"):
        config_stabilizer(config)


def test_stabilizer_empty_middle_component_infinite():
    config = ChainConfiguration(origin(2), (1, 0, 1, 0), ((2, Fraction(1)),))
    assert config_stabilizer(config) is None


def test_stabilizer_no_middle_components():
    config = ChainConfiguration(Stratum(2, frozenset({3})), (2, 0))
    assert config_stabilizer(config) == 1


# --- component incidence ----------------------------------------------------


def test_components_n1():
    incidence = hilbert_components(1)
    assert [c.label for c in incidence.components] == ["H10", "H01"]
    pairwise = dict(incidence.intersections)
    witnesses = pairwise[("H10", "H01")]
    assert len(witnesses) == 1
    assert witnesses[0].stratum.vanishing == {1, 2}
    assert witnesses[0].lengths == (0, 1, 0)


def test_components_n2_two_simplex():
    incidence = hilbert_components(2)
    assert [c.label for c in incidence.components] == ["H20", "H11", "H02"]
    by_group = dict(incidence.intersections)
    for pair in (("H20", "H11"), ("H20", "H02"), ("H11", "H02")):
        assert by_group[pair], pair
    triple = by_group[("H20", "H11", "H02")]
    assert triple
    assert any(
        w.stratum.vanishing == {1, 2, 3} and w.lengths == (0, 1, 1, 0)
        for w in triple
    )


def test_h20_h02_through_middle_merge():
    incidence = hilbert_components(2)
    by_group = dict(incidence.intersections)
    witnesses = by_group[("H20", "H02")]
    assert any(
        w.stratum.vanishing == {1, 3} and w.lengths == (0, 2, 0) for w in witnesses
    )


def test_closure_membership_rule():
    h20 = hilbert_components(2).components[0]
    inside = ChainConfiguration(origin(2), (0, 1, 1, 0))
    outside = ChainConfiguration(origin(2), (0, 0, 1, 1))
    assert in_component_closure(inside, h20)
    assert not in_component_closure(outside, h20)


def test_every_component_closure_contains_origin_config():
    for n in (1, 2, 3):
        incidence = hilbert_components(n)
        central = ChainConfiguration(origin(n), (0,) + (1,) * n + (0,))
        for component in incidence.components:
            assert in_component_closure(central, component)
