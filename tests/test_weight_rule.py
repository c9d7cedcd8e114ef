"""Property tests for the chain model's single per-bundle weight rule.

`WeightTable.limit_weights` is the only place the behind/ahead/own rule is
written; the configuration weight and the printed limit vectors must both
agree with it, and the configuration weight is infinite (None) exactly
when the subgroup's limit leaves the base.
"""

from hypothesis import given, settings, strategies as st

from torstab.degeneration import (
    ChainConfiguration,
    Stratum,
    build_weight_table,
    compositions,
    mu_config,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def breaks_base_limit(stratum, lam):
    """True iff some nonvanishing t_i gets negative weight s_i - s_{i-1},
    with s_0 = s_{n+1} = 0."""
    padded = (0,) + tuple(lam) + (0,)
    return any(
        padded[i] - padded[i - 1] < 0
        for i in range(1, stratum.n + 2)
        if i not in stratum.vanishing
    )


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
    intervals = stratum.intervals
    signs = tuple((x > 0) - (x < 0) for x in lam)
    infinite = breaks_base_limit(stratum, lam)
    for lengths in compositions(table.n, len(intervals)):
        config = ChainConfiguration(stratum, lengths)
        summed = [0] * table.n
        for k, count in enumerate(lengths):
            for i, w in enumerate(table.limit_weights(intervals[k], signs)):
                summed[i] += count * w
        expected = None if infinite else -dot(lam, summed)
        assert mu_config(table, config, lam) == expected


@settings(max_examples=200, deadline=None)
@given(tables_strata_lambdas())
def test_one_component_weight_matches_the_limit_vectors_on_the_extreme_orthants(case):
    # The printed limit vectors are the limit weights at signs all +1 and
    # all -1; any subgroup of one strict sign gets them, and the weight of
    # n points on one component is minus n times the pairing with them.
    table, stratum, lam = case
    n = table.n
    positive = tuple(abs(x) + 1 for x in lam)
    negative = tuple(-x for x in positive)
    parts = len(stratum.intervals)
    for k, interval in enumerate(stratum.intervals):
        config = ChainConfiguration(stratum, tuple(n if j == k else 0 for j in range(parts)))
        for extreme, unit in ((positive, (1,) * n), (negative, (-1,) * n)):
            vector = table.limit_weights(interval, unit)
            assert table.limit_weights(interval, extreme) == vector
            expected = None if breaks_base_limit(stratum, extreme) else -n * dot(extreme, vector)
            assert mu_config(table, config, extreme) == expected
