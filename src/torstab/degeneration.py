"""Chain combinatorics and stability for expanded degenerations of points on
a degenerating conic.

A family over A^{n+1} replaces the node of a two-component central fibre by a
chain of rational curves; the fibre over a point whose coordinates t_i vanish
exactly on a set V is a transversal chain whose components are indexed by the
intervals cut out of {0, ..., n+1} by V.  A rank-n torus acts with t_i
scaling by sigma_i / sigma_{i-1}.

Length-n subschemes supported in the smooth locus are modelled as formal sums
of interior points with per-interval multiplicities.  The polarization is a
product of hyperplane bundles twisted by parameters a_1 > ... > a_{n-1} >> 1,
linearized so that the degree-(n+1) monomial u_i^l v_i^(n+1-l) carries
sigma_i-weight i - (n+1) + l.  From this rule the fibre weight of the
polarization at any torus-limit point is a per-bundle bookkeeping exercise:

  * a bundle behind the point (smaller chain position) contributes its
    u-monomial weight a_i * i,
  * a bundle ahead contributes its v-monomial weight a_i * (i - n - 1),
  * a bundle of the point's own component contributes the v-monomial weight
    when lambda pushes the point down (s_i > 0) and the u-monomial weight
    when it pushes up (s_i < 0); s_i = 0 contributes nothing.

`WeightTable.limit_weights` holds this rule once; the printed limit
vectors, the classifier's pairings and `mu_config` are all read off it.
A `Stratum` carries its chain of intervals, its base-limit rows (t_i
nonzero forces s_i - s_{i-1} >= 0) and its inner counts, each computed
once per instance.  A configuration is admissible when its lengths are its
stratum's inner counts, so `admissible_configs` lists one per stratum.
The subgroup weight of a configuration, `mu_config`, is None when lambda
breaks a base-limit row (the limit leaves the base, so the weight is
infinite) and otherwise minus the lambda-pairing of the summed limit
weights: a plain int, oriented so that admissible configurations get
positive weights, and linear on each sign orthant.

Classification solves no cone.  On a sign orthant the subgroups with a
base limit form the cone of the base-limit rows and one sign row per
coordinate.  Each row has at most one +1 and one -1, so the matrix is
totally unimodular (Schrijver, Theory of Linear and Integer Programming,
1986, ch. 19): the cone is pointed, and each extreme ray, cut out by n - 1
independent rows, is spanned by a vector of signed minors, entries in
{-1, 0, 1}.  A weight linear on the cone is < 0 (or <= 0) at a nonzero
point of it iff it is so on one of those rays.  So a stratum's cube
points, every nonzero lambda in {-1, 0, 1}^n that satisfies its base-limit
rows, decide each configuration over it: the first of weight < 0 is an
unstable witness, else one of weight 0 a strictly semistable one (see
`_witness_at_points` for which), else it is stable.  The points run by
sign orthant, in product((1, -1)) order with a zero counting as +, then
lexicographically.

Which strata keep a point is read off one walk of the cube: each point is
tagged with the smooth stratum's base-limit rows it breaks
(`_tagged_cube`), and a stratum keeps the points whose broken rows all
vanish on it (`_points_on`).  `classify_config` walks the cube for its one
stratum; a sweep walks it once for all of them.

A point's pairing with a component's limit weights depends only on the
table, the point and the component's interval, so a configuration's weight
there is one dot product with its lengths.  One step classifies the
configurations over a stratum, `_stratum_rows`: it pairs the cube
points with the components once, reads each lengths tuple's status and
witness off those pairings, re-checks each witness once apart from them
(`_witness_pairings` recomputes each component's pairing from
`limit_weights` at the witness, and a row's weight is that dotted with its
own lengths, as `mu_config` does for one configuration), builds one
`Verdict` per distinct value and gives each configuration as a
`SweepRow(stratum, lengths, admissible, verdict)`.  `classify_config` is
that step over one lengths tuple.  `sweep_equivalence` takes it for every
stratum, sharing the (interval, point) pairings and the verdicts across
strata, and builds no `ChainConfiguration`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul

from .classify import StabilityStatus, Verdict
from .errors import InputError
from .model import OnePS

Interval = tuple[int, ...]

# The largest chain length n that `build_weight_table` and
# `hilbert_components` accept.
MAX_N = 3


class Stratum(namedtuple("Stratum", "n vanishing")):
    """Locus of A^{n+1} where t_i = 0 exactly for i in `vanishing`.

    No ``__slots__``: the chain, the base-limit rows and the inner counts
    below are cached in the instance dict, which equality, hashing and repr
    ignore.
    """

    n: int
    vanishing: frozenset[int]

    def __new__(cls, n, vanishing) -> Stratum:
        if n < 1:
            raise InputError(f"n must be positive, got {n}")
        bad = [i for i in vanishing if not 1 <= i <= n + 1]
        if bad:
            raise InputError(
                f"vanishing indices {sorted(bad)} outside 1..{n + 1}"
            )
        return tuple.__new__(cls, (n, vanishing))

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        """The fibre chain: {0, ..., n+1} cut before every vanishing index,
        one interval per component, in chain order."""
        cuts = [0, *sorted(self.vanishing), self.n + 2]
        return tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))

    @cached_property
    def limit_rows(self) -> tuple[tuple[int, ...], ...]:
        """Constraints on lambda for the base limit to exist: each nonvanishing
        t_i has nonnegative weight s_i - s_{i-1}, so its row is e_i - e_{i-1}
        with e_0 and e_{n+1} dropped."""
        return tuple(
            tuple((j == i) - (j == i - 1) for j in range(1, self.n + 1))
            for i in range(1, self.n + 2)
            if i not in self.vanishing
        )

    @cached_property
    def inner_counts(self) -> tuple[int, ...]:
        """Per component, its count of inner chain positions 1..n: the ends 0
        and n+1 lie on the first and the last component."""
        counts = [len(interval) for interval in self.intervals]
        counts[0] -= 1
        counts[-1] -= 1
        return tuple(counts)


def _tagged_cube(n: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """Every nonzero lambda in {-1, 0, 1}^n, in cube-point order (by sign
    orthant, a zero counting as +, then lexicographically), each with the
    indices i of the smooth stratum's base-limit rows it breaks: the t_i it
    gives negative weight."""
    rows = Stratum(n, frozenset()).limit_rows
    tagged = []
    for negative in product((False, True), repeat=n):
        for v in product(*[(-1,) if neg else (0, 1) for neg in negative]):
            if any(v):
                broken = frozenset(
                    i for i, row in enumerate(rows, 1) if sum(map(mul, row, v)) < 0
                )
                tagged.append((v, broken))
    return tagged


def _points_on(
    tagged: list[tuple[tuple[int, ...], frozenset[int]]], vanishing: frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """The stratum's cube points: the tagged points on its base-limit rows,
    those whose broken rows all belong to vanishing t_i, which impose no
    row there."""
    return tuple(v for v, broken in tagged if broken <= vanishing)


class ChainConfiguration(namedtuple("ChainConfiguration", "stratum lengths marked_points")):
    """Per-component lengths of a length-n subscheme, with optional marked
    interior coordinates used only for stabilizer computations."""

    stratum: Stratum
    lengths: tuple[int, ...]
    marked_points: tuple[tuple[int, Fraction], ...]
    __slots__ = ()

    def __new__(cls, stratum, lengths, marked_points=()) -> ChainConfiguration:
        components = len(stratum.intervals)
        if len(lengths) != components:
            raise InputError(
                f"{len(lengths)} lengths for {components} chain components"
            )
        if any(l < 0 for l in lengths):
            raise InputError(f"negative length in {lengths}")
        if sum(lengths) != stratum.n:
            raise InputError(
                f"lengths {lengths} sum to {sum(lengths)}, expected {stratum.n}"
            )
        for idx, coord in marked_points:
            if not 0 <= idx < components:
                raise InputError(f"marked point on unknown component {idx}")
            if coord == 0:
                raise InputError("marked interior coordinates must be nonzero")
        return tuple.__new__(cls, (stratum, lengths, marked_points))


def admissible(config: ChainConfiguration) -> bool:
    """True iff each component carries length equal to its count of inner
    chain positions."""
    return tuple(config.lengths) == config.stratum.inner_counts


class WeightTable(namedtuple("WeightTable", "n multipliers")):
    """Per-bundle weight data of the polarization at torus-limit points.

    multipliers[i-1] is the twist a_i of the i-th hyperplane factor, with
    a_n = 1 for the leading untwisted factor.  The ample twist pulled back
    from the original surface is torus-fixed at every chain point and
    contributes no weight, so it has no field here.  The one method,
    `limit_weights`, is the per-bundle rule of the module docstring.
    """

    n: int
    multipliers: tuple[int, ...]
    __slots__ = ()

    def limit_weights(self, interval: Interval, signs: tuple[int, ...]) -> tuple[int, ...]:
        """Per-bundle fibre weights at the limit of an interior point of the
        component spanning `interval`, for a subgroup with these coordinate
        signs: bundle i gives its u-monomial weight a_i * i behind the point,
        its v-monomial weight a_i * (i - n - 1) ahead of it, and on the
        point's own component the v-weight when the sign is > 0 and the
        u-weight otherwise."""
        first, last = interval[0], interval[-1]
        weights = []
        for i, a in enumerate(self.multipliers, 1):
            if i < first or (i <= last and signs[i - 1] <= 0):
                weights.append(a * i)
            else:
                weights.append(a * (i - self.n - 1))
        return tuple(weights)


def build_weight_table(n: int, a: tuple[int, ...] | list[int] | None = None) -> WeightTable:
    """Weight table for the rank-n torus; a = (a_1, ..., a_{n-1}) twists.

    Defaults follow a decade ladder (a_1 = 10^(n-1), ..., a_{n-1} = 10) so
    that every twist strictly dominates the next one, which the equivalence
    of admissibility and stability requires (a_i >> a_{i+1}, a_{n-1} > 1).
    """
    if not 1 <= n <= MAX_N:
        raise InputError(f"n must be between 1 and {MAX_N}, got {n}")
    if a is None:
        a = tuple(10 ** (n - i) for i in range(1, n))
    a = tuple(int(x) for x in a)
    if len(a) != n - 1:
        raise InputError(f"expected {n - 1} twist parameters, got {len(a)}")
    if any(x <= 1 for x in a) or any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
        raise InputError(f"twists must be strictly decreasing and > 1, got {a}")
    return WeightTable(n=n, multipliers=a + (1,))


def mu_config(table: WeightTable, config: ChainConfiguration, lam: OnePS) -> int | None:
    """Formal-sum subgroup weight of the configuration: None when lambda
    breaks a base-limit row of the stratum (the limit leaves the base, so
    the weight is infinite), and otherwise minus the lambda-pairing of the
    count-weighted limit weights, oriented so that admissible
    configurations get positive weights.

    Where finite, piecewise linear in lambda, additive over configuration
    decomposition, and homogeneous under positive scaling.
    """
    if config.stratum.n != table.n:
        raise InputError("configuration and weight table have different n")
    lam = tuple(int(x) for x in lam)
    if len(lam) != table.n:
        raise InputError(f"lambda {lam} has length {len(lam)}, expected {table.n}")
    return _weight(config.lengths, _witness_pairings(table, config.stratum, lam))


def _witness_pairings(
    table: WeightTable, stratum: Stratum, lam: tuple[int, ...]
) -> tuple[int, ...] | None:
    """None when lambda breaks a base-limit row of the stratum, and
    otherwise, per component, the pairing of lambda with that component's
    `limit_weights` at lambda, computed afresh."""
    if any(sum(map(mul, row, lam)) < 0 for row in stratum.limit_rows):
        return None
    return tuple(
        sum(map(mul, table.limit_weights(interval, lam), lam))
        for interval in stratum.intervals
    )


def _weight(lengths: tuple[int, ...], pairings: tuple[int, ...] | None) -> int | None:
    """Minus the lengths dotted with `_witness_pairings`; None stays None."""
    return None if pairings is None else -sum(map(mul, lengths, pairings))


def _point_pairings(
    table: WeightTable,
    stratum: Stratum,
    points: tuple[tuple[int, ...], ...],
    known: dict[tuple[Interval, tuple[int, ...]], int],
) -> list[tuple[int, ...]]:
    """Per point, its pairing with each component's limit weights there:
    minus the weight of one point on that component.  `known` holds the
    pairings already computed, by (interval, point), and gains the rest."""
    pairings = []
    for v in points:
        row = []
        for interval in stratum.intervals:
            key = (interval, v)
            if key not in known:
                known[key] = sum(map(mul, table.limit_weights(interval, v), v))
            row.append(known[key])
        pairings.append(tuple(row))
    return pairings


def classify_config(table: WeightTable, config: ChainConfiguration) -> Verdict:
    """Stability verdict read off the stratum's cube points (see the module
    docstring): the step a sweep takes for every stratum, `_stratum_rows`,
    over the configuration's one lengths tuple."""
    if config.stratum.n != table.n:
        raise InputError("configuration and weight table have different n")
    tagged = _tagged_cube(table.n)
    return _stratum_rows(table, config.stratum, tagged, [config.lengths], {}, {})[0].verdict


def _stratum_rows(
    table: WeightTable,
    stratum: Stratum,
    tagged: list[tuple[tuple[int, ...], frozenset[int]]],
    splits: list[tuple[int, ...]],
    known: dict[tuple[Interval, tuple[int, ...]], int],
    interned: dict[tuple[StabilityStatus, tuple[int, ...] | None, int | None], Verdict],
) -> list[SweepRow]:
    """The `SweepRow` of each lengths tuple in `splits` over the stratum, in
    order.  The status and witness are read off the stratum's cube points,
    found in the `_tagged_cube` `tagged`, with their `_point_pairings`
    (`known` holds the pairings already computed and gains the rest).  Each
    witness is re-checked once by `_witness_pairings`, from `limit_weights`
    and not from `known`, and a row's weight is that dotted with its
    lengths.  `interned` holds each distinct verdict by its fields and
    gains the new ones, so equal verdicts are one object and the
    constructor checks each value once.  A row is admissible when its
    lengths are the stratum's inner counts, as `admissible` asks."""
    points = _points_on(tagged, stratum.vanishing)
    pairings = _point_pairings(table, stratum, points, known)
    rechecked: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    rows = []
    for lengths in splits:
        status, witness = _witness_at_points(lengths, points, pairings)
        weight = None
        if witness is not None:
            if witness not in rechecked:
                rechecked[witness] = _witness_pairings(table, stratum, witness)
            weight = _weight(lengths, rechecked[witness])
        key = (status, witness, weight)
        verdict = interned.get(key)
        if verdict is None:
            verdict = interned[key] = Verdict(*key)
        rows.append(SweepRow(stratum, lengths, lengths == stratum.inner_counts, verdict))
    return rows


def _witness_at_points(
    lengths: tuple[int, ...],
    points: tuple[tuple[int, ...], ...],
    pairings: list[tuple[int, ...]],
) -> tuple[StabilityStatus, tuple[int, ...] | None]:
    """The status and witness read off the stratum's cube points `points`,
    with their `_point_pairings`.  The first point of weight < 0
    destabilizes.  Otherwise a point of weight 0 blocks stability: of those
    in the first sign orthant holding one, the one whose first nonzero
    coordinate comes first, then the first in list order; that is the point
    `cones.cone_has_nonzero` returns on the orthant's cone of weight <= 0."""
    zeros = []
    for v, row in zip(points, pairings):
        negated = sum(map(mul, lengths, row))
        if negated > 0:
            return StabilityStatus.UNSTABLE, v
        if negated == 0:
            zeros.append(v)
    if not zeros:
        return StabilityStatus.STABLE, None
    blocker = min(
        zeros, key=lambda v: (tuple(x < 0 for x in v), next(i for i, x in enumerate(v) if x))
    )
    return StabilityStatus.STRICTLY_SEMISTABLE, blocker


def config_stabilizer(config: ChainConfiguration) -> int | None:
    """Order of the subtorus fixing the base point and the configuration as a
    set, or None when it is infinite.

    The subtorus fixing the base point acts on each middle chain component
    through one multiplicative coordinate and trivially on the two end
    components.  Marked coordinates are therefore required on every middle
    component carrying points; a middle component without points leaves a
    free one-parameter subgroup, so the stabilizer is infinite.
    """
    count = len(config.stratum.intervals)
    marked: dict[int, list[Fraction]] = {}
    for idx, coord in config.marked_points:
        marked.setdefault(idx, []).append(coord)
    for idx, coords in marked.items():
        if len(coords) > config.lengths[idx]:
            raise InputError(
                f"component {idx} carries {len(coords)} marked points "
                f"but length {config.lengths[idx]}"
            )

    order = 1
    for k in range(1, count - 1):
        if config.lengths[k] == 0:
            return None
        coords = marked.get(k, [])
        if len(coords) != config.lengths[k]:
            raise InputError(
                f"middle component {k} needs {config.lengths[k]} marked "
                f"coordinates, got {len(coords)}"
            )
        order *= _multiset_stabilizer_order(coords)
    return order


def _multiset_stabilizer_order(coords: list[Fraction]) -> int:
    """Number of rational scalars mapping the multiset onto itself; each is
    one of the distinct ratios c / coords[0]."""
    reference = sorted(coords)
    anchor = coords[0]
    ratios = {c / anchor for c in coords}
    return sum(sorted(x * ratio for x in coords) == reference for ratio in ratios)


# --- Hilbert scheme components and incidence -------------------------------


class HilbertComponent(namedtuple("HilbertComponent", "stratum lengths")):
    """Irreducible component whose generic configuration puts lengths[0]
    points on the first and lengths[1] on the last chain component."""

    stratum: Stratum
    lengths: tuple[int, int]
    __slots__ = ()

    @property
    def label(self) -> str:
        return "H{}{}".format(*self.lengths)


class HilbertIncidence(namedtuple("HilbertIncidence", "components intersections")):
    components: tuple[HilbertComponent, ...]
    intersections: tuple[tuple[tuple[str, ...], tuple[ChainConfiguration, ...]], ...]
    __slots__ = ()


def strata(n: int) -> list[Stratum]:
    """All strata of A^{n+1}, shallowest first, deterministic order."""
    out = []
    indices = range(1, n + 2)
    for size in range(n + 2):
        for sub in combinations(indices, size):
            out.append(Stratum(n, frozenset(sub)))
    return out


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of `parts` nonnegative integers summing to `total`, in
    lexicographic order: the gaps between `parts - 1` bars placed among
    `total + parts - 1` slots."""
    if parts == 0:
        return [()] if total == 0 else []
    slots = total + parts - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in combinations(range(slots), parts - 1)
    ]


def admissible_configs(n: int) -> list[ChainConfiguration]:
    """Every admissible configuration, in `strata` order: one per stratum,
    with its inner counts as lengths, which is what `admissible` asks."""
    return [ChainConfiguration(s, s.inner_counts) for s in strata(n)]


def in_component_closure(config: ChainConfiguration, component: HilbertComponent) -> bool:
    """True iff the configuration's lengths split the component's generic
    lengths across the refined intervals."""
    if not component.stratum.vanishing <= config.stratum.vanishing:
        return False
    coarse = component.stratum.intervals
    fine = config.stratum.intervals
    sums = [0] * len(coarse)
    for k, interval in enumerate(fine):
        owner = next(c for c, ci in enumerate(coarse) if interval[0] in ci)
        sums[owner] += config.lengths[k]
    return tuple(sums) == component.lengths


def hilbert_components(n: int) -> HilbertIncidence:
    """Components indexed by point splits i + j = n, with their pairwise and
    deeper intersections realized by admissible configurations."""
    if not 1 <= n <= MAX_N:
        raise InputError(f"n must be between 1 and {MAX_N}, got {n}")
    components = tuple(
        HilbertComponent(Stratum(n, frozenset({i + 1})), (i, n - i))
        for i in range(n, -1, -1)
    )
    configs = admissible_configs(n)
    intersections = []
    for size in range(2, len(components) + 1):
        for group in combinations(components, size):
            witnesses = tuple(
                cfg
                for cfg in configs
                if all(in_component_closure(cfg, comp) for comp in group)
            )
            intersections.append((tuple(c.label for c in group), witnesses))
    return HilbertIncidence(components, tuple(intersections))


class SweepRow(namedtuple("SweepRow", "stratum lengths admissible verdict")):
    """One configuration of a sweep: its stratum and lengths, whether they
    are admissible, and its verdict."""

    stratum: Stratum
    lengths: tuple[int, ...]
    admissible: bool
    verdict: Verdict
    __slots__ = ()


class SweepReport(namedtuple("SweepReport", "rows")):
    rows: tuple[SweepRow, ...]
    __slots__ = ()

    @property
    def equivalence_holds(self) -> bool:
        return all(
            (row.verdict.status is StabilityStatus.STABLE) == row.admissible
            for row in self.rows
        )

    @property
    def strictly_semistable_count(self) -> int:
        return sum(
            row.verdict.status is StabilityStatus.STRICTLY_SEMISTABLE
            for row in self.rows
        )


def sweep_equivalence(table: WeightTable) -> SweepReport:
    """Classify every configuration over every stratum and compare with the
    admissibility criterion.

    Each stratum is one `_stratum_rows` step, the one `classify_config`
    takes.  The sweep walks the cube once, computes each (interval, point)
    pairing once for every stratum holding both, lists the compositions
    once per component count, so strata with as many components share
    their lengths tuples, and interns verdicts across strata; it builds no
    `ChainConfiguration`.  Rows come with strata in `strata` order and
    lengths in `compositions` order, and rows and witnesses are those of
    `classify_config` on every configuration alone.
    """
    n = table.n
    tagged = _tagged_cube(n)
    # Strata have 1 to n + 2 components.
    splits = {parts: compositions(n, parts) for parts in range(1, n + 3)}
    known: dict[tuple[Interval, tuple[int, ...]], int] = {}
    interned: dict[tuple[StabilityStatus, tuple[int, ...] | None, int | None], Verdict] = {}
    rows = []
    for stratum in strata(n):
        parts = len(stratum.intervals)
        rows += _stratum_rows(table, stratum, tagged, splits[parts], known, interned)
    return SweepReport(tuple(rows))
