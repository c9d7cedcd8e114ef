import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from torstab import StabilityStatus, cones, degeneration
from torstab.degeneration import (
    ChainConfiguration,
    Stratum,
    SweepRow,
    WeightTable,
    admissible,
    admissible_configs,
    build_weight_table,
    classify_config,
    compositions,
    config_stabilizer,
    hilbert_components,
    in_component_closure,
    mu_config,
    strata,
    sweep_equivalence,
)
from torstab.errors import InputError, InternalInvariantError

from conftest import brute_force_config_status, config_verdict_oracle


def origin(n):
    return Stratum(n, frozenset(range(1, n + 2)))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cube_points(stratum):
    """The stratum's cube points, as `classify_config` and the sweep find them."""
    return degeneration._points_on(degeneration._tagged_cube(stratum.n), stratum.vanishing)


def every_config(n):
    """Every configuration over every stratum, strata in `strata` order and
    lengths in `compositions` order: a sweep's rows."""
    return [
        ChainConfiguration(stratum, lengths)
        for stratum in strata(n)
        for lengths in compositions(n, len(stratum.intervals))
    ]


def extreme_limit_weights(table, interval):
    """The printed limit vectors of a component: toward the start of the
    chain (every sign +1) and toward its end (every sign -1)."""
    return (
        table.limit_weights(interval, (1,) * table.n),
        table.limit_weights(interval, (-1,) * table.n),
    )


def test_chain_origin():
    assert Stratum(2, frozenset({1, 2, 3})).intervals == ((0,), (1,), (2,), (3,))


def test_chain_partial_smoothing():
    assert Stratum(2, frozenset({1, 3})).intervals == ((0,), (1, 2), (3,))


def test_chain_single_cut():
    assert Stratum(2, frozenset({3})).intervals == ((0, 1, 2), (3,))


def test_chain_smooth_fibre():
    assert Stratum(2, frozenset()).intervals == ((0, 1, 2, 3),)


def test_stratum_chain_and_limit_rows_match_their_definitions():
    for n in (1, 2, 3):
        for stratum in strata(n):
            # Consecutive runs covering 0..n+1, each starting at 0 or at a
            # vanishing index, with every vanishing index starting one.
            intervals = stratum.intervals
            assert [i for interval in intervals for i in interval] == list(range(n + 2))
            assert all(list(iv) == list(range(iv[0], iv[-1] + 1)) for iv in intervals)
            assert [iv[0] for iv in intervals] == [0] + sorted(stratum.vanishing)
            # One row per nonvanishing t_i: e_i - e_{i-1} over e_0..e_{n+1},
            # keeping the coordinates 1..n.
            expected = []
            for i in range(1, n + 2):
                if i not in stratum.vanishing:
                    full = [0] * (n + 2)
                    full[i] += 1
                    full[i - 1] -= 1
                    expected.append(tuple(full[1 : n + 1]))
            assert stratum.limit_rows == tuple(expected)
            # Computed once and kept by the instance, outside its value.
            assert stratum.intervals is intervals
            assert stratum == Stratum(n, frozenset(stratum.vanishing))
            assert repr(stratum) == f"Stratum(n={n}, vanishing={stratum.vanishing!r})"


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
            intervals = stratum.intervals
            counts = [
                sum(1 for i in interval if 1 <= i <= n) for interval in intervals
            ]
            assert sum(counts) == n
            assert admissible(ChainConfiguration(stratum, tuple(counts)))


def test_cube_points_and_admissibility_match_their_definitions():
    # The sweep and `classify_config` share one cube filter; pin it, and the
    # inner counts `admissible` compares with, against the definitions.
    for n in range(1, 6):
        cube = [v for v in product((-1, 0, 1), repeat=n) if any(v)]
        for stratum in strata(n):
            on_rows = [v for v in cube if all(dot(row, v) >= 0 for row in stratum.limit_rows)]
            expected = sorted(on_rows, key=lambda v: (tuple(x < 0 for x in v), v))
            assert cube_points(stratum) == tuple(expected), stratum
            inner = [sum(1 for i in interval if 1 <= i <= n) for interval in stratum.intervals]
            for lengths in compositions(n, len(stratum.intervals)):
                config = ChainConfiguration(stratum, lengths)
                assert admissible(config) is (list(lengths) == inner), config


def test_admissible_configurations_are_one_per_stratum():
    # `admissible_configs` lists each stratum's inner counts rather than
    # filtering every configuration; the filter gives the same list.
    for n in range(1, 6):
        filtered = [config for config in every_config(n) if admissible(config)]
        assert admissible_configs(n) == filtered
        assert [config.stratum for config in filtered] == strata(n)


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
    intervals = origin(1).intervals
    down, up = extreme_limit_weights(table, intervals[1])
    assert down == (-1,) and up == (1,)
    for k in (0, 2):
        down, up = extreme_limit_weights(table, intervals[k])
        assert down == up


def test_weight_table_end_components_have_no_own_dependence_at_origin():
    for n in (1, 2, 3):
        table = build_weight_table(n)
        intervals = origin(n).intervals
        first_down, first_up = extreme_limit_weights(table, intervals[0])
        last_down, last_up = extreme_limit_weights(table, intervals[-1])
        assert first_down == first_up
        assert last_down == last_up


def test_weight_table_matches_generating_monomial():
    # At the down-limit of the first inserted component (n=2) the fibre is
    # generated by v_1^(3*a_1) * v_2^3, of weight (-2*a_1, -1) per cube.
    table = build_weight_table(2)
    a1 = table.multipliers[0]
    intervals = origin(2).intervals
    down, _ = extreme_limit_weights(table, intervals[1])
    assert down == (-2 * a1, -1)
    _, up = extreme_limit_weights(table, intervals[2])
    assert up == (a1, 2)


# --- configuration weights --------------------------------------------------


def test_mu_config_trivial_subgroup():
    table = build_weight_table(2)
    config = ChainConfiguration(origin(2), (0, 1, 1, 0))
    assert mu_config(table, config, (0, 0)) == 0
    assert type(mu_config(table, config, (1, 2))) is int


def test_mu_config_is_infinite_exactly_when_the_base_limit_fails():
    table = build_weight_table(2)
    smooth = ChainConfiguration(Stratum(2, frozenset()), (2,))
    # On the smooth stratum t_1, t_2, t_3 all stay nonzero: s_1 >= 0,
    # s_2 - s_1 >= 0 and -s_2 >= 0 leave only the trivial subgroup.
    assert mu_config(table, smooth, (0, 0)) == 0
    for lam in ((-1, 0), (1, 2), (0, -1), (1, 1)):
        assert mu_config(table, smooth, lam) is None
    # With t_3 = 0 only s_1 >= 0 and s_2 >= s_1 remain.
    generic = ChainConfiguration(Stratum(2, frozenset({3})), (2, 0))
    assert mu_config(table, generic, (1, 2)) > 0
    assert mu_config(table, generic, (2, 1)) is None


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
        intervals = origin(2).intervals
        parts = sum(
            dot(table.limit_weights(intervals[k], lam), lam) * count
            for k, count in enumerate(left)
        ) + sum(
            dot(table.limit_weights(intervals[k], lam), lam) * count
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


# (table, strictly semistable rows).  The last four tables carry twists
# that `build_weight_table` refuses; three of them give strictly semistable
# rows.
SWEEP_CASES = [
    (build_weight_table(1), 0),
    (build_weight_table(2), 0),
    (build_weight_table(2, (7,)), 0),
    (build_weight_table(2, (2,)), 0),
    (build_weight_table(3), 0),
    (build_weight_table(3, (5, 2)), 0),
    (build_weight_table(3, (1000, 999)), 0),
    (WeightTable(2, (0, 1)), 14),
    (WeightTable(3, (0, 2, 1)), 28),
    (WeightTable(3, (2, 0, 1)), 28),
    (WeightTable(3, (1, 1, 1)), 0),
]


def oracle_rows(table):
    return tuple(
        SweepRow(
            config.stratum, config.lengths, admissible(config), config_verdict_oracle(table, config)
        )
        for config in every_config(table.n)
    )


@pytest.mark.parametrize(
    "table, semistable",
    SWEEP_CASES,
    ids=[f"n{t.n}-a{','.join(map(str, t.multipliers[:-1]))}" for t, _ in SWEEP_CASES],
)
def test_sweep_equals_classifying_each_configuration_alone(monkeypatch, table, semistable):
    # The sweep and `classify_config` read weights at the cube points and ask
    # no cone question (a `solve_cone` or a `cone_has_nonzero` call); their
    # rows, witnesses included, must be those of the orthant-cone oracle.
    # Both re-check witnesses through one step, which `mu_config` is not.
    expected = oracle_rows(table)

    def no_mu_config(*args):
        raise AssertionError("mu_config called")

    monkeypatch.setattr(degeneration, "mu_config", no_mu_config)
    # The package attribute `torstab.classify` is the function of that name.
    classify_module = sys.modules["torstab.classify"]
    questions = []
    for module in (cones, classify_module):
        for name in ("solve_cone", "cone_has_nonzero"):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real: questions.append(args) or real(*args)
            )

    report = sweep_equivalence(table)
    assert len(questions) == 0
    alone = tuple(
        SweepRow(config.stratum, config.lengths, admissible(config), classify_config(table, config))
        for config in every_config(table.n)
    )
    assert len(questions) == 0
    assert report.rows == expected
    assert alone == expected
    assert report.strictly_semistable_count == semistable


@settings(max_examples=25, deadline=None)
@example(WeightTable(3, (0, 0, 1)))
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(*[st.integers(-6, 6)] * (n - 1)).map(
            lambda twists: WeightTable(n, twists + (1,))
        )
    )
)
def test_sweep_equals_the_orthant_cone_oracle_on_random_twists(table):
    # At a = (0, 0) a strictly semistable row has the zero-weight points
    # (0, 1, 0) and (1, 1, 0) on one orthant; the witness is the second.
    assert sweep_equivalence(table).rows == oracle_rows(table)


@pytest.mark.parametrize("twists", [(), (10,), (2,), (7,), (0,), (-1,), (-3,), (6,)])
def test_sweep_statuses_equal_the_box_scan(twists):
    # Every cube point lies in the box [-3, 3]^n, so the scan is exact here.
    table = WeightTable(len(twists) + 1, twists + (1,))
    for row in sweep_equivalence(table).rows:
        config = ChainConfiguration(row.stratum, row.lengths)
        assert row.verdict.status is brute_force_config_status(table, config, bound=3)


def test_sweep_beyond_the_table_cap():
    # `build_weight_table` refuses n > 3; a table built directly is swept.
    table = WeightTable(4, (1000, 100, 10, 1))
    assert sweep_equivalence(table).rows == oracle_rows(table)
    start = time.process_time()
    report = sweep_equivalence(WeightTable(5, (10000, 1000, 100, 10, 1)))
    assert time.process_time() - start < 2.0
    assert len(report.rows) == 5336
    assert report.equivalence_holds
    assert report.strictly_semistable_count == 0


def test_a_sweep_pairs_each_interval_and_cube_point_once(monkeypatch):
    # A pairing depends on the interval and the point alone, so a sweep
    # computes each once for all strata.  Each (stratum, witness) is
    # re-checked once, from `limit_weights` on its own, and each witnessed
    # row's weight is its lengths dotted with that re-check.
    table = build_weight_table(3, (500, 20))
    distinct = {
        (interval, v)
        for stratum in strata(3)
        for interval in stratum.intervals
        for v in cube_points(stratum)
    }
    pairings, inner = Counter(), Counter()
    inside, rechecked = [], Counter()
    real_limit_weights = WeightTable.limit_weights
    real_witness_pairings = degeneration._witness_pairings

    def limit_weights(self, interval, signs):
        (inner if inside else pairings)[interval, signs] += 1
        return real_limit_weights(self, interval, signs)

    def witness_pairings(table, stratum, lam):
        rechecked[stratum, lam] += 1
        inside.append(True)
        try:
            return real_witness_pairings(table, stratum, lam)
        finally:
            inside.pop()

    monkeypatch.setattr(WeightTable, "limit_weights", limit_weights)
    monkeypatch.setattr(degeneration, "_witness_pairings", witness_pairings)
    report = sweep_equivalence(table)
    monkeypatch.undo()
    assert len(distinct) == 229
    assert set(pairings) == distinct
    assert set(pairings.values()) == {1}
    witnessed = [row for row in report.rows if row.verdict.witness is not None]
    assert len(witnessed) == 176
    assert set(rechecked) == {(row.stratum, row.verdict.witness) for row in witnessed}
    assert len(rechecked) == 48
    assert set(rechecked.values()) == {1}
    assert sum(inner.values()) == sum(len(stratum.intervals) for stratum, _ in rechecked)
    for row in witnessed:
        config = ChainConfiguration(row.stratum, row.lengths)
        assert row.verdict.witness_mu == mu_config(table, config, row.verdict.witness)


def test_a_sweep_builds_no_chain_configuration(monkeypatch):
    # A sweep's lengths come from `compositions`, valid by construction, so
    # its rows carry the stratum and lengths without the checking
    # constructor.
    built = []
    real_new = ChainConfiguration.__new__

    def new(cls, *args):
        built.append(args)
        return real_new(cls, *args)

    monkeypatch.setattr(ChainConfiguration, "__new__", new)
    ChainConfiguration(origin(3), (0, 1, 1, 1, 0))
    assert len(built) == 1
    built.clear()
    report = sweep_equivalence(build_weight_table(3))
    assert len(report.rows) == 192
    assert built == []


def test_a_sweep_rechecks_witnesses_without_the_shared_pairings(monkeypatch):
    # Shared pairings corrupted on one stratum pick witnesses whose weights,
    # re-checked from `limit_weights`, contradict their verdicts.
    real_point_pairings = degeneration._point_pairings

    def point_pairings(table, stratum, points, known):
        found = real_point_pairings(table, stratum, points, known)
        if stratum.vanishing == {2}:
            return [tuple(x + 10**6 for x in row) for row in found]
        return found

    monkeypatch.setattr(degeneration, "_point_pairings", point_pairings)
    with pytest.raises(InternalInvariantError):
        sweep_equivalence(build_weight_table(3, (500, 20)))


@pytest.mark.parametrize("n, twists, distinct", [(3, None, 13), (2, (500,), 7)])
def test_a_sweep_holds_one_verdict_object_per_distinct_value(n, twists, distinct):
    verdicts = [row.verdict for row in sweep_equivalence(build_weight_table(n, twists)).rows]
    assert len(set(verdicts)) == distinct
    assert len(set(map(id, verdicts))) == distinct
    stable = [v for v in verdicts if v.status is StabilityStatus.STABLE]
    assert stable and len(set(map(id, stable))) == 1


def test_classify_matches_box_scan_everywhere():
    for n in (1, 2):
        table = build_weight_table(n)
        for stratum in strata(n):
            parts = len(stratum.intervals)
            for lengths in compositions(n, parts):
                config = ChainConfiguration(stratum, lengths)
                exact = classify_config(table, config).status
                scanned = brute_force_config_status(table, config)
                assert exact is scanned, (stratum, lengths)


def test_unstable_witness_respects_base_limit():
    table = build_weight_table(2)
    for stratum in strata(2):
        parts = len(stratum.intervals)
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
