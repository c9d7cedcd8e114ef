"""Problem and point data model: parsing, validation, evaluation, support.

A problem bundles a split torus of rank r, affine base variables, projective
fiber variables (each with a weight in Z^r), a global linearization shift
added to every fiber weight, and an optional defining ideal.  Points carry
exact rational coordinates; every stability decision downstream depends on a
point only through its support pattern.

Downstream, a variable is addressed by its position in `var_names` (base
variables, then fiber variables, each in declaration order), where
`GitProblem.weights` holds its weight.  Names become positions in one
place: the cached map `GitProblem.positions`, and
`GitProblem.support_indices`, which turns a support pattern into its base
and fiber positions and refuses a name that is not a variable of its kind.

File format: JSON with integer weight vectors and rationals as "p/q" or "n"
strings (never floats).  See the README for the full grammar.  `parse_int`
is the one integer reader: of the command line's integer flags, of a JSON
integer too long for `int`, and of a rational's numerator and denominator.

The value types here and across the package are `collections.namedtuple`
subclasses: equal by value, hashable, with read-only fields.  A type with
checks runs them in `__new__`, and a type with no cached property declares
empty `__slots__`.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatchError, InputError, ZeroSectionError

WeightVector = tuple[int, ...]
OnePS = tuple[int, ...]

Monomial = tuple[tuple[str, int], ...]

# The most bits a power's numerator or denominator may take when a
# polynomial is evaluated at a point, so that checking a point on an ideal
# with a huge exponent is refused instead of building a gigabyte integer.
_MAX_POWER_BITS = 1 << 16


def _is_int(value: object) -> bool:
    """True for JSON integers; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


# The written form of an integer: an optional sign and ASCII digits, with
# blanks around them.  `int` alone also takes underscores and non-ASCII
# digits, reading "1_1" as 11 and an Arabic-Indic one (U+0661) as 1.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")

# The written form of a rational: an integer, optionally followed by "/" and
# digits.  `Fraction` alone also takes decimal, exponent and underscore
# forms, and builds 10**100000000 for "1e100000000".
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def quoted(text: str) -> str:
    """`text` as `repr` writes it, or, past 40 characters, its first 40 and
    its length, so that an error line quoting input stays short."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_int(text: str) -> int:
    """An integer written as an optional sign and ASCII digits.  Any other
    text, such as "1_0" or "1.0", is refused, and so is an integer with
    more digits than `int` converts, by its size."""
    if not _INTEGER.fullmatch(text):
        raise InputError(
            f"invalid integer {quoted(text)}: expected an optional sign and ASCII digits"
        )
    try:
        return int(text)
    except ValueError:
        digits = len(text.strip().lstrip("+-"))
        raise InputError(f"integer of {digits} digits is too long") from None


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or "n" into an exact rational; any other string, such as
    "0.5", "1e3" or "1_000", is refused."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rationals must be strings or integers, got {type(text).__name__}")
    if not _RATIONAL.fullmatch(text):
        raise InputError(
            f"invalid rational {quoted(text)}: expected an integer n or a fraction p/q"
        )
    try:
        return Fraction(*map(parse_int, text.split("/")))
    except ZeroDivisionError as exc:
        raise InputError(f"invalid rational {quoted(text)}: zero denominator") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _canonical_monomial(exponents: Mapping[str, int]) -> Monomial:
    items = []
    for name, exp in exponents.items():
        if exp < 0:
            raise InputError(f"negative exponent {exp} for variable {name!r}")
        if exp:
            items.append((name, int(exp)))
    return tuple(sorted(items))


class Polynomial(namedtuple("Polynomial", "terms")):
    """Sparse polynomial with exact rational coefficients.

    Terms are stored canonically: sorted monomials, no duplicates, no zero
    coefficients.
    """

    terms: tuple[tuple[Fraction, Monomial], ...]
    __slots__ = ()

    @classmethod
    def make(cls, terms: Iterable[tuple[Fraction | int | str, Mapping[str, int]]]) -> "Polynomial":
        combined: dict[Monomial, Fraction] = {}
        for coeff, exponents in terms:
            mono = _canonical_monomial(exponents)
            value = coeff if isinstance(coeff, Fraction) else parse_rational(coeff)
            combined[mono] = combined.get(mono, Fraction(0)) + value
        kept = tuple(
            (c, m) for m, c in sorted(combined.items(), key=lambda kv: kv[0]) if c != 0
        )
        return cls(kept)

    def term_dicts(self) -> list[dict]:
        """The terms as JSON-ready dicts, coefficient first: the form of a
        polynomial in problem files and in reports."""
        return [
            {"coeff": format_rational(c), "monomial": dict(mono)} for c, mono in self.terms
        ]

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """The exact value at `values`.  A power of a value other than 0
        and +-1 whose numerator or denominator could take more than
        `_MAX_POWER_BITS` bits, by the bound exponent times bit length, is
        refused with an InputError before it is computed."""
        total = Fraction(0)
        for coeff, mono in self.terms:
            prod = coeff
            for name, exp in mono:
                value = values[name]
                size = max(abs(value.numerator), value.denominator).bit_length()
                if size > 1 and exp * size > _MAX_POWER_BITS:
                    raise InputError(
                        f"{name}^{exp} at {name} = {format_rational(value)} would take "
                        f"more than {_MAX_POWER_BITS} bits"
                    )
                prod *= value**exp
            total += prod
        return total

    def variables(self) -> frozenset[str]:
        return frozenset(name for _, mono in self.terms for name, _ in mono)


class GitProblem(namedtuple("GitProblem", "torus_rank base_vars fiber_vars shift ideal")):
    """A linearized split-torus action on a projective-over-affine model.

    A shift of None stands for the zero shift; any other shift must have
    one entry per torus coordinate.  No ``__slots__``: the cached weight
    list and position map below live in the instance dict.
    """

    torus_rank: int
    base_vars: tuple[tuple[str, WeightVector], ...]
    fiber_vars: tuple[tuple[str, WeightVector], ...]
    shift: WeightVector
    ideal: tuple[Polynomial, ...]

    def __new__(cls, torus_rank, base_vars, fiber_vars, shift=None, ideal=()) -> GitProblem:
        r = torus_rank
        if r < 1:
            raise InputError(f"torus rank must be positive, got {r}")
        if not fiber_vars:
            raise InputError("at least one fiber variable is required")
        # Weights first: every variable's weight has length r, so a rank
        # that no weight matches is refused before the default shift of
        # length r is built.
        seen: set[str] = set()
        for name, weight in base_vars + fiber_vars:
            if name in seen:
                raise InputError(f"duplicate variable name {name!r}")
            seen.add(name)
            if len(weight) != r:
                raise DimensionMismatchError(
                    f"weight of {name!r} has length {len(weight)}, expected rank {r}"
                )
        if shift is None:
            shift = (0,) * r
        if len(shift) != r:
            raise DimensionMismatchError(
                f"linearization shift has length {len(shift)}, expected rank {r}"
            )
        # Each generator must be homogeneous, its terms of one fiber degree
        # and one torus weight: then the ideal is torus-stable, and whether
        # a point lies on it does not depend on which representative of the
        # projective point is given.
        weight_of = dict(base_vars + fiber_vars)
        fiber_names = {name for name, _ in fiber_vars}
        for poly in ideal:
            undeclared = poly.variables() - seen
            if undeclared:
                raise InputError(f"ideal uses undeclared variables {sorted(undeclared)}")
            grades = {
                (
                    sum(e for name, e in mono if name in fiber_names),
                    tuple(sum(e * weight_of[name][k] for name, e in mono) for k in range(r)),
                )
                for _, mono in poly.terms
            }
            if len(grades) > 1:
                raise InputError(
                    f"ideal generator {json.dumps(poly.term_dicts())} is not homogeneous: "
                    "its terms differ in fiber degree or in torus weight"
                )
        return tuple.__new__(cls, (torus_rank, base_vars, fiber_vars, shift, ideal))

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.base_vars)

    @property
    def fiber_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fiber_vars)

    @property
    def var_names(self) -> tuple[str, ...]:
        return self.base_names + self.fiber_names

    # Lookups built on first use.  They are cached properties, not fields,
    # so equality, hashing, repr and serialization see only the declared
    # data.
    @cached_property
    def weights(self) -> tuple[WeightVector, ...]:
        """Every variable's weight, indexed like `var_names`: the base
        weights, then the fiber weights plus the linearization shift."""
        return tuple(w for _, w in self.base_vars) + tuple(
            tuple(a + b for a, b in zip(w, self.shift)) for _, w in self.fiber_vars
        )

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each variable's position in `var_names`: the one map from names
        to positions."""
        return {name: i for i, name in enumerate(self.var_names)}

    def support_indices(
        self, pattern: SupportPattern
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions in `var_names` of a support's base variables and of
        its fiber variables, each ascending.  A name that is not a declared
        variable of its kind is refused with an InputError."""
        nbase = len(self.base_vars)
        found = []
        for kind, names, allowed in (
            ("base", pattern.base, range(nbase)),
            ("fiber", pattern.fiber, range(nbase, len(self.positions))),
        ):
            for name in sorted(names):
                if self.positions.get(name, -1) not in allowed:
                    raise InputError(f"unknown {kind} variable {name!r}")
            found.append(tuple(sorted(map(self.positions.__getitem__, names))))
        return found[0], found[1]

    def check_lambda(self, lam: OnePS) -> OnePS:
        lam = tuple(map(int, lam))
        if len(lam) != self.torus_rank:
            raise DimensionMismatchError(
                f"one-parameter subgroup {lam} has length {len(lam)}, "
                f"expected rank {self.torus_rank}"
            )
        return lam


class PointSample(namedtuple("PointSample", "base_values fiber_values")):
    """Exact rational coordinates for every declared variable."""

    base_values: tuple[tuple[str, Fraction], ...]
    fiber_values: tuple[tuple[str, Fraction], ...]
    __slots__ = ()

    @classmethod
    def for_problem(
        cls, problem: GitProblem, values: Mapping[str, Fraction | int | str]
    ) -> "PointSample":
        parsed = {name: parse_rational(v) if not isinstance(v, Fraction) else v
                  for name, v in values.items()}
        missing = set(problem.var_names) - set(parsed)
        extra = set(parsed) - set(problem.var_names)
        if missing:
            raise InputError(f"point is missing values for {sorted(missing)}")
        if extra:
            raise InputError(f"point sets undeclared variables {sorted(extra)}")
        return cls(
            tuple((n, parsed[n]) for n in problem.base_names),
            tuple((n, parsed[n]) for n in problem.fiber_names),
        )

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.base_values + self.fiber_values)


class SupportPattern(namedtuple("SupportPattern", "base fiber")):
    """Names of the nonvanishing coordinates of a point."""

    base: frozenset[str]
    fiber: frozenset[str]
    __slots__ = ()

    def __new__(cls, base, fiber) -> SupportPattern:
        if not fiber:
            raise ZeroSectionError("lift lies in the zero section: empty fiber support")
        return tuple.__new__(cls, (base, fiber))


def support(point: PointSample) -> SupportPattern:
    """Support pattern of a point; rejects lifts inside the zero section."""
    fiber = frozenset(n for n, v in point.fiber_values if v != 0)
    if not fiber:
        raise ZeroSectionError("lift lies in the zero section: all fiber values vanish")
    base = frozenset(n for n, v in point.base_values if v != 0)
    return SupportPattern(base, fiber)


def check_on_ideal(problem: GitProblem, point: PointSample) -> bool:
    """True iff every ideal generator vanishes at the point."""
    values = point.as_dict()
    return all(poly.evaluate(values) == 0 for poly in problem.ideal)


# --- file formats ----------------------------------------------------------


def _loads_strict(text: str) -> object:
    def no_duplicates(pairs: list[tuple[str, object]]) -> dict[str, object]:
        out: dict[str, object] = {}
        for key, value in pairs:
            if key in out:
                raise InputError(f"duplicate key {key!r}")
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=no_duplicates)
    except json.JSONDecodeError as exc:
        raise InputError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # an integer past the digit limit: parse again to name its size
        return json.loads(text, object_pairs_hook=no_duplicates, parse_int=parse_int)


def _parse_weight(raw: object, what: str) -> WeightVector:
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise InputError(f"{what} must be a list of integers, got {json.dumps(raw)}")
    return tuple(raw)


def _parse_vars(raw: object, section: str) -> tuple[tuple[str, WeightVector], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        raise InputError(f"{section} must be an object mapping names to weight vectors")
    return tuple((name, _parse_weight(w, f"weight of {name!r}")) for name, w in raw.items())


def _parse_polynomial(raw: object) -> Polynomial:
    if not isinstance(raw, list):
        raise InputError("each ideal generator must be a list of terms")
    terms = []
    for term in raw:
        if not isinstance(term, dict) or set(term) != {"coeff", "monomial"}:
            raise InputError(
                f"term must be an object with 'coeff' and 'monomial', got {json.dumps(term)}"
            )
        mono = term["monomial"]
        if not isinstance(mono, dict) or not all(_is_int(e) for e in mono.values()):
            raise InputError(f"monomial must map variable names to integers, got {json.dumps(mono)}")
        terms.append((term["coeff"], mono))
    return Polynomial.make(terms)


def parse_problem(text: str) -> GitProblem:
    """Parse and validate a problem file."""
    data = _loads_strict(text)
    if not isinstance(data, dict):
        raise InputError("problem file must contain a JSON object")
    known = {"torus_rank", "base_vars", "fiber_vars", "linearization_shift", "ideal", "group"}
    unknown = set(data) - known
    if unknown:
        raise InputError(f"unknown problem keys {sorted(unknown)}")
    group = data.get("group", "split-torus")
    if group != "split-torus":
        raise InputError(
            f"unsupported group {group!r}: only diagonalized split-torus actions are accepted"
        )
    rank = data.get("torus_rank")
    if not _is_int(rank):
        raise InputError("torus_rank must be an integer")
    shift_raw = data.get("linearization_shift")
    shift = _parse_weight(shift_raw, "linearization_shift") if shift_raw is not None else None
    ideal_raw = data.get("ideal", [])
    if not isinstance(ideal_raw, list):
        raise InputError(f"ideal must be a list of generators, got {json.dumps(ideal_raw)}")
    ideal = tuple(_parse_polynomial(p) for p in ideal_raw)
    return GitProblem(
        torus_rank=rank,
        base_vars=_parse_vars(data.get("base_vars"), "base_vars"),
        fiber_vars=_parse_vars(data.get("fiber_vars"), "fiber_vars"),
        shift=shift,
        ideal=ideal,
    )


def serialize_problem(problem: GitProblem) -> str:
    """Inverse of parse_problem, up to JSON formatting."""
    data: dict[str, object] = {
        "torus_rank": problem.torus_rank,
        "base_vars": {n: list(w) for n, w in problem.base_vars},
        "fiber_vars": {n: list(w) for n, w in problem.fiber_vars},
        "linearization_shift": list(problem.shift),
    }
    if problem.ideal:
        data["ideal"] = [poly.term_dicts() for poly in problem.ideal]
    return json.dumps(data, indent=2) + "\n"


def parse_point(problem: GitProblem, source: str) -> PointSample:
    """Parse a point from JSON text or an inline "x=1,y=0" string."""
    text = source.strip()
    if text.startswith(("{", "[")):
        data = _loads_strict(text)
        if not isinstance(data, dict):
            raise InputError("point file must contain a JSON object")
        return PointSample.for_problem(problem, data)
    values: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise InputError(f"expected name=value, got {quoted(chunk)}")
        name, _, raw = chunk.partition("=")
        name = name.strip()
        if name in values:
            raise InputError(f"duplicate variable {name!r} in point")
        values[name] = raw.strip()
    return PointSample.for_problem(problem, values)
