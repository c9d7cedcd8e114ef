"""Independent oracles for the benchmark's output checks.

Nothing here imports torstab.  Each function re-derives an answer from the
generated weights alone, by a different method than the program uses:

* pattern statuses by scanning integral subgroups in a box;
* invariant monomials by enumerating exponent vectors, and minimal
  generators by looking for an invariant proper divisor;
* chain admissibility from the interval partition, and the chain weight of
  a subgroup from the per-bundle rule stated in the case-study model.
"""

from __future__ import annotations

from itertools import combinations, product

STABLE, SEMISTABLE, UNSTABLE = "stable", "strictly-semistable", "unstable"


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def pattern_mu(base_weights, fiber_weights, lam):
    """Weight of lam at a point with the given nonzero coordinates.

    None stands for an infinite weight: some nonzero base coordinate has
    negative lam-degree, so the limit leaves the affine base.
    """
    if any(dot(lam, w) < 0 for w in base_weights):
        return None
    return -min(dot(lam, w) for w in fiber_weights)


def box_statuses(rank, base_weights, fiber_weights, bound):
    """Status of every support pattern found by scanning lam in [-bound, bound]^r.

    Keys are (base mask, fiber mask) over the declaration order.  A found
    unstable or strictly semistable status is certified by a concrete lam;
    "stable" only means no certificate lies inside the box.
    """
    nb, nf = len(base_weights), len(fiber_weights)
    pos_by_neg: dict[int, set[int]] = {}
    nonneg_by_neg: dict[int, set[int]] = {}
    for lam in product(range(-bound, bound + 1), repeat=rank):
        if not any(lam):
            continue
        neg = sum(1 << i for i, w in enumerate(base_weights) if dot(lam, w) < 0)
        fdeg = [dot(lam, w) for w in fiber_weights]
        pos_by_neg.setdefault(neg, set()).add(
            sum(1 << j for j, d in enumerate(fdeg) if d >= 1)
        )
        nonneg_by_neg.setdefault(neg, set()).add(
            sum(1 << j for j, d in enumerate(fdeg) if d >= 0)
        )
    statuses = {}
    for bmask in range(1 << nb):
        pos = {m for neg, ms in pos_by_neg.items() if not neg & bmask for m in ms}
        nonneg = {m for neg, ms in nonneg_by_neg.items() if not neg & bmask for m in ms}
        for fmask in range(1, 1 << nf):
            if any(not fmask & ~m for m in pos):
                statuses[bmask, fmask] = UNSTABLE
            elif any(not fmask & ~m for m in nonneg):
                statuses[bmask, fmask] = SEMISTABLE
            else:
                statuses[bmask, fmask] = STABLE
    return statuses


def invariant_exponents(weights, max_degree):
    """Nonzero exponent vectors of total degree <= max_degree and weight 0,
    in canonical order: ascending total degree, then descending lexicographic."""
    rank = len(weights[0])

    def half(ws):
        """(exponents, total degree, weight) over one half of the variables."""
        out = []
        for vec in product(range(max_degree + 1), repeat=len(ws)):
            if sum(vec) <= max_degree:
                weight = tuple(sum(e * w[k] for e, w in zip(vec, ws)) for k in range(rank))
                out.append((vec, sum(vec), weight))
        return out

    # Meet in the middle: an invariant pairs a left half of weight w with a
    # right half of weight -w.
    split = len(weights) // 2
    right_by_weight: dict[tuple[int, ...], list] = {}
    for vec, degree, weight in half(weights[split:]):
        right_by_weight.setdefault(weight, []).append((vec, degree))
    found = []
    for left, degree, weight in half(weights[:split]):
        for right, rdegree in right_by_weight.get(tuple(-x for x in weight), ()):
            if degree + rdegree <= max_degree and (degree or rdegree):
                found.append(left + right)
    found.sort(key=lambda v: (sum(v), tuple(-e for e in v)))
    return found


def minimal_exponents(invariants):
    """Invariant vectors with no invariant proper nonzero divisor (order kept)."""
    present = set(invariants)
    minimal = []
    for vec in invariants:
        divisors = product(*(range(e + 1) for e in vec))
        if not any(d in present and d != vec for d in divisors):
            minimal.append(vec)
    return minimal


# --- degenerating-conic chain model ------------------------------------------


def chain_intervals(n, vanishing):
    """Cut {0, ..., n+1} before every vanishing index."""
    cuts = [0] + sorted(vanishing) + [n + 2]
    return [tuple(range(cuts[k], cuts[k + 1])) for k in range(len(cuts) - 1)]


def all_configurations(n):
    """Every (vanishing set, lengths) pair over every stratum of A^{n+1}."""
    configs = []
    for size in range(n + 2):
        for vanishing in combinations(range(1, n + 2), size):
            parts = len(vanishing) + 1
            for cut in combinations(range(n + parts - 1), parts - 1):
                bounds = (-1,) + cut + (n + parts - 1,)
                lengths = tuple(bounds[k + 1] - bounds[k] - 1 for k in range(parts))
                configs.append((vanishing, lengths))
    return configs


def is_admissible(n, vanishing, lengths):
    """Each component carries length equal to its count of inner positions 1..n."""
    return all(
        length == sum(1 for i in interval if 1 <= i <= n)
        for length, interval in zip(lengths, chain_intervals(n, vanishing))
    )


def chain_limit_exists(n, vanishing, lam):
    """Every nonvanishing t_i needs nonnegative weight s_i - s_{i-1} (s_0 = s_{n+1} = 0)."""
    padded = (0,) + tuple(lam) + (0,)
    return all(padded[i] - padded[i - 1] >= 0 for i in range(1, n + 2) if i not in vanishing)


def chain_mu(n, twists, vanishing, lengths, lam):
    """Engine-oriented weight of lam at a configuration.

    Bundle i has twist a_i (a_n = 1).  A bundle behind the point's component
    contributes its u-monomial weight a_i * i, one ahead its v-monomial weight
    a_i * (i - n - 1), and one of the component itself the v weight when
    s_i > 0 and the u weight when s_i < 0.
    """
    a = tuple(twists) + (1,)
    total = 0
    for length, interval in zip(lengths, chain_intervals(n, vanishing)):
        first, last = interval[0], interval[-1]
        for i in range(1, n + 1):
            s = lam[i - 1]
            u, v = a[i - 1] * i, a[i - 1] * (i - n - 1)
            if i < first or (first <= i <= last and s < 0):
                total += length * u * s
            elif i > last or s > 0:
                total += length * v * s
    return -total
