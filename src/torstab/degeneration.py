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
vectors and the classifier's linear forms are both read off it.  The
subgroup weight of a configuration, `mu_config`, is minus the
lambda-pairing of the summed limit weights: a plain int, oriented so that
admissible configurations get positive weights, and piecewise linear in
lambda with one linear piece per sign orthant.  Classification hands one
cone per orthant to `classify.verdict_over_pieces`, restricted to the
subgroups whose limit exists on the base: t_i nonzero forces
s_i - s_{i-1} >= 0.

`sweep_equivalence` builds what the configurations of one stratum share (the
chain, the base-limit rows, and per orthant the sign rows and each
component's limit weights) once, in a dict of its own keyed by stratum, and
remembers every cone answer of the sweep under its row set in another, so a
system that recurs across configurations is solved once.  Both live for one
sweep.  Its rows and witnesses are those of `classify_config` run on each
configuration alone, and every witness's weight is still recomputed from the
configuration by `mu_config`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, product

from .classify import StabilityStatus, Verdict, verdict_over_pieces
from .errors import InputError
from .model import OnePS

Interval = tuple[int, ...]


class Stratum(namedtuple("Stratum", "n vanishing")):
    """Locus of A^{n+1} where t_i = 0 exactly for i in `vanishing`."""

    n: int
    vanishing: frozenset[int]
    __slots__ = ()

    def __new__(cls, n, vanishing) -> Stratum:
        if n < 1:
            raise InputError(f"n must be positive, got {n}")
        bad = [i for i in vanishing if not 1 <= i <= n + 1]
        if bad:
            raise InputError(
                f"vanishing indices {sorted(bad)} outside 1..{n + 1}"
            )
        return tuple.__new__(cls, (n, vanishing))


class ChainFibre(namedtuple("ChainFibre", "intervals")):
    """Ordered interval partition of {0, ..., n+1} describing the fibre chain."""

    intervals: tuple[Interval, ...]
    __slots__ = ()


def _chain_cuts(stratum: Stratum) -> list[int]:
    """Where the chain's intervals start, then n+2: {0, ..., n+1} is cut
    before every vanishing index, so there is one interval per cut."""
    return [0] + sorted(stratum.vanishing) + [stratum.n + 2]


def chain(stratum: Stratum) -> ChainFibre:
    """Interval partition: cut {0, ..., n+1} before every vanishing index."""
    cuts = _chain_cuts(stratum)
    intervals = tuple(
        tuple(range(cuts[k], cuts[k + 1])) for k in range(len(cuts) - 1)
    )
    return ChainFibre(intervals)


class ChainConfiguration(namedtuple("ChainConfiguration", "stratum lengths marked_points")):
    """Per-component lengths of a length-n subscheme, with optional marked
    interior coordinates used only for stabilizer computations."""

    stratum: Stratum
    lengths: tuple[int, ...]
    marked_points: tuple[tuple[int, Fraction], ...]
    __slots__ = ()

    def __new__(cls, stratum, lengths, marked_points=()) -> ChainConfiguration:
        components = len(_chain_cuts(stratum)) - 1
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
    inner = range(1, config.stratum.n + 1)
    intervals = chain(config.stratum).intervals
    return all(
        config.lengths[k] == sum(1 for i in intervals[k] if i in inner)
        for k in range(len(intervals))
    )


class WeightTable(namedtuple("WeightTable", "n multipliers")):
    """Per-bundle weight data of the polarization at torus-limit points.

    multipliers[i-1] is the twist a_i of the i-th hyperplane factor, with
    a_n = 1 for the leading untwisted factor.  The ample twist pulled back
    from the original surface is torus-fixed at every chain point and
    contributes no weight, so it has no field here.
    """

    n: int
    multipliers: tuple[int, ...]
    __slots__ = ()

    def u_weight(self, i: int) -> int:
        """Fibre weight when v_i = 0 at the limit (u-monomial generates)."""
        return self.multipliers[i - 1] * i

    def v_weight(self, i: int) -> int:
        """Fibre weight when u_i = 0 at the limit (v-monomial generates)."""
        return self.multipliers[i - 1] * (i - self.n - 1)

    def limit_weights(self, interval: Interval, signs: tuple[int, ...]) -> tuple[int, ...]:
        """Per-bundle fibre weights at the limit of an interior point of the
        component spanning `interval`, for a subgroup with these coordinate
        signs: u behind the point, v ahead of it, and on the point's own
        component v when the sign is > 0 and u otherwise."""
        first, last = interval[0], interval[-1]
        weights = []
        for i in range(1, self.n + 1):
            if i < first:
                weights.append(self.u_weight(i))
            elif i > last or signs[i - 1] > 0:
                weights.append(self.v_weight(i))
            else:
                weights.append(self.u_weight(i))
        return tuple(weights)

    def point_weight(self, intervals: tuple[Interval, ...], k: int, lam: OnePS) -> int:
        """Lambda-pairing of the fibre weight at the limit of an interior
        point of component k."""
        return sum(w * s for w, s in zip(self.limit_weights(intervals[k], lam), lam))

    def limit_vectors(
        self, fibre: ChainFibre, k: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Weight vectors at the two limit fixed points of component k:
        flowing down the chain (u coordinates vanish) and up (v vanish)."""
        interval = fibre.intervals[k]
        return (
            self.limit_weights(interval, (1,) * self.n),
            self.limit_weights(interval, (-1,) * self.n),
        )


def build_weight_table(n: int, a: tuple[int, ...] | list[int] | None = None) -> WeightTable:
    """Weight table for the rank-n torus; a = (a_1, ..., a_{n-1}) twists.

    Defaults follow a decade ladder (a_1 = 10^(n-1), ..., a_{n-1} = 10) so
    that every twist strictly dominates the next one, which the equivalence
    of admissibility and stability requires (a_i >> a_{i+1}, a_{n-1} > 1).
    """
    if not 1 <= n <= 3:
        raise InputError(f"n must be between 1 and 3, got {n}")
    if a is None:
        a = tuple(10 ** (n - i) for i in range(1, n))
    a = tuple(int(x) for x in a)
    if len(a) != n - 1:
        raise InputError(f"expected {n - 1} twist parameters, got {len(a)}")
    if any(x <= 1 for x in a) or any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
        raise InputError(f"twists must be strictly decreasing and > 1, got {a}")
    return WeightTable(n=n, multipliers=a + (1,))


def mu_config(table: WeightTable, config: ChainConfiguration, lam: OnePS) -> int:
    """Formal-sum subgroup weight of the configuration: minus the
    lambda-pairing of the count-weighted limit weights, oriented so that
    admissible configurations get positive weights.

    Piecewise linear in lambda, additive over configuration decomposition,
    and homogeneous under positive scaling.  Limit existence on the base is
    not checked here; the classifier restricts lambda accordingly.
    """
    if config.stratum.n != table.n:
        raise InputError("configuration and weight table have different n")
    lam = tuple(int(x) for x in lam)
    if len(lam) != table.n:
        raise InputError(f"lambda {lam} has length {len(lam)}, expected {table.n}")
    intervals = chain(config.stratum).intervals
    total = 0
    for k, count in enumerate(config.lengths):
        if count:
            total += count * table.point_weight(intervals, k, lam)
    return -total


def _limit_rows(stratum: Stratum) -> list[tuple[int, ...]]:
    """Constraints on lambda for the base limit to exist: each nonvanishing
    t_i has nonnegative weight s_i - s_{i-1}."""
    n = stratum.n
    rows = []
    for i in range(1, n + 2):
        if i in stratum.vanishing:
            continue
        row = [0] * n
        if i <= n:
            row[i - 1] += 1
        if i - 1 >= 1:
            row[i - 2] -= 1
        rows.append(tuple(row))
    return rows


def _orthant_pieces(table: WeightTable, stratum: Stratum) -> list[tuple[list, list]]:
    """What every configuration over the stratum shares, per sign orthant:
    the piece's weak rows (base-limit rows, then the orthant's sign rows)
    and the limit weights of each chain component."""
    n = table.n
    limit_rows = _limit_rows(stratum)
    intervals = chain(stratum).intervals
    out = []
    for orthant in product((1, -1), repeat=n):
        orthant_rows = [
            tuple(orthant[i] if j == i else 0 for j in range(n)) for i in range(n)
        ]
        weights = [table.limit_weights(interval, orthant) for interval in intervals]
        out.append((limit_rows + orthant_rows, weights))
    return out


def classify_config(table: WeightTable, config: ChainConfiguration) -> Verdict:
    """Stability verdict by exact cone analysis, one piece per sign orthant.

    Only subgroups whose base limit exists are tested; the rest have
    infinite weight and cannot destabilize.  On an orthant the weight is
    minus the pairing with the count-weighted sum of the components' limit
    weights, so that sum is the piece's strict row.  Each witness's weight
    is recomputed from the configuration itself by `mu_config`.
    """
    return _config_verdict(table, config, _orthant_pieces(table, config.stratum), None)


def _config_verdict(
    table: WeightTable,
    config: ChainConfiguration,
    orthant_pieces: list[tuple[list, list]],
    memo: dict | None,
) -> Verdict:
    """`classify_config` on the stratum's `_orthant_pieces`, keeping cone
    answers in `memo` (see `classify.verdict_over_pieces`)."""
    n = table.n
    counted = [(k, count) for k, count in enumerate(config.lengths) if count]

    def pieces():
        for weak, weights in orthant_pieces:
            form = [0] * n
            for k, count in counted:
                for i, w in enumerate(weights[k]):
                    form[i] += count * w
            yield weak, [tuple(form)]

    return verdict_over_pieces(
        pieces(), n, lambda lam: mu_config(table, config, lam), memo=memo
    )


def config_stabilizer(config: ChainConfiguration) -> int | None:
    """Order of the subtorus fixing the base point and the configuration as a
    set, or None when it is infinite.

    The subtorus fixing the base point acts on each middle chain component
    through one multiplicative coordinate and trivially on the two end
    components.  Marked coordinates are therefore required on every middle
    component carrying points; a middle component without points leaves a
    free one-parameter subgroup, so the stabilizer is infinite.
    """
    intervals = chain(config.stratum).intervals
    count = len(intervals)
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


class HilbertComponent(namedtuple("HilbertComponent", "i j stratum lengths")):
    """Irreducible component whose generic configuration puts i points on the
    first and j points on the last chain component."""

    i: int
    j: int
    stratum: Stratum
    lengths: tuple[int, ...]
    __slots__ = ()

    @property
    def label(self) -> str:
        return f"H{self.i}{self.j}"


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


def _all_configs(n: int) -> Iterator[ChainConfiguration]:
    """Every configuration over every stratum, strata in `strata` order and
    lengths in `compositions` order."""
    for stratum in strata(n):
        for lengths in compositions(n, len(chain(stratum).intervals)):
            yield ChainConfiguration(stratum, lengths)


def admissible_configs(n: int) -> list[ChainConfiguration]:
    """Every admissible configuration over every stratum."""
    return [config for config in _all_configs(n) if admissible(config)]


def in_component_closure(config: ChainConfiguration, component: HilbertComponent) -> bool:
    """True iff the configuration's lengths split the component's generic
    lengths across the refined intervals."""
    if not component.stratum.vanishing <= config.stratum.vanishing:
        return False
    coarse = chain(component.stratum).intervals
    fine = chain(config.stratum).intervals
    sums = [0] * len(coarse)
    for k, interval in enumerate(fine):
        owner = next(c for c, ci in enumerate(coarse) if interval[0] in ci)
        sums[owner] += config.lengths[k]
    return tuple(sums) == component.lengths


def hilbert_components(n: int) -> HilbertIncidence:
    """Components indexed by point splits i + j = n, with their pairwise and
    deeper intersections realized by admissible configurations."""
    if not 1 <= n <= 3:
        raise InputError(f"n must be between 1 and 3, got {n}")
    components = tuple(
        HilbertComponent(
            i=i,
            j=n - i,
            stratum=Stratum(n, frozenset({i + 1})),
            lengths=(i, n - i),
        )
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


class SweepRow(namedtuple("SweepRow", "config admissible verdict")):
    config: ChainConfiguration
    admissible: bool
    verdict: Verdict
    __slots__ = ()


class SweepReport(namedtuple("SweepReport", "table rows")):
    table: WeightTable
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

    Each stratum's orthant pieces are built once, for all its
    configurations, and one memo of cone answers serves the whole sweep, so
    a cone system that recurs across configurations, also under another
    stratum, is solved once.  Rows and witnesses are those of
    `classify_config` on every configuration alone.
    """
    memo: dict = {}
    orthant_pieces: dict[Stratum, list[tuple[list, list]]] = {}
    rows = []
    for config in _all_configs(table.n):
        stratum = config.stratum
        if stratum not in orthant_pieces:
            orthant_pieces[stratum] = _orthant_pieces(table, stratum)
        verdict = _config_verdict(table, config, orthant_pieces[stratum], memo)
        rows.append(SweepRow(config, admissible(config), verdict))
    return SweepReport(table, tuple(rows))
