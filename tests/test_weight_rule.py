"""Property tests for the chain model's single per-bundle weight rule.

`WeightTable.limit_weights` is the only place the behind/ahead/own rule is
written; the configuration weight, the per-point pairing and the printed
limit vectors must all agree with it.
"""

from hypothesis import given, settings, strategies as st

from torstab.degeneration import (
    ChainConfiguration,
    Stratum,
    build_weight_table,
    chain,
    compositions,
    mu_config,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@st.composite
def tables_strata_lambdas(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    twists = draw(st.sets(st.integers(2, 60), min_size=n - 1, max_size=n - 1))
    table = build_weight_table(n, sorted(twists, reverse=True))
    stratum = Stratum(n, frozenset(draw(st.sets(st.integers(1, n + 1)))))
    lam = tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    return table, stratum, lam


@settings(max_examples=200, deadline=None)
@given(tables_strata_lambdas())
def test_mu_config_is_the_summed_limit_weights(case):
    table, stratum, lam = case
    intervals = chain(stratum).intervals
    signs = tuple((x > 0) - (x < 0) for x in lam)
    for lengths in compositions(table.n, len(intervals)):
        config = ChainConfiguration(stratum, lengths)
        summed = [0] * table.n
        for k, count in enumerate(lengths):
            for i, w in enumerate(table.limit_weights(intervals[k], signs)):
                summed[i] += count * w
        assert mu_config(table, config, lam) == -dot(lam, summed)


@settings(max_examples=200, deadline=None)
@given(tables_strata_lambdas())
def test_point_weight_matches_limit_vectors_on_the_extreme_orthants(case):
    table, stratum, lam = case
    fibre = chain(stratum)
    positive = tuple(abs(x) + 1 for x in lam)
    negative = tuple(-x for x in positive)
    for k in range(len(fibre.intervals)):
        down, up = table.limit_vectors(fibre, k)
        assert table.point_weight(fibre.intervals, k, positive) == dot(positive, down)
        assert table.point_weight(fibre.intervals, k, negative) == dot(negative, up)
