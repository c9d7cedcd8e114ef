"""Deterministic reports: one dict per command, two views of it.

Every CLI subcommand computes one JSON-ready result dict, and `build_report`
wraps it with the schema tag, the subcommand, the input digest and any
warnings.  `to_json` renders that report as canonical JSON, byte for byte
`json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)` plus a
newline, and `to_text` as the human-readable text.  `to_text` reads nothing
but what the JSON carries: names are printed in the order of the result's
`variables` list (the problem's `var_names`), a relation's generator names
and the pattern counts in sorted order, never in a dict's insertion order,
which `to_json` sorts away.  So `to_text(json.loads(to_json(r)))` equals
`to_text(r)`, and the two views cannot disagree.  `to_json` is written
out by hand because the standard library runs its C encoder only without
`indent`, and falls back to a generator-based pure-Python encoder with it.
It renders a row list, a list of dicts with one non-empty key set, one
string per row, and a list, tuple or dict that several of its rows hold,
such as the name tuples and verdict dicts of a `patterns` report, once per
list.  That cache, keyed by object id, is the one place the views rely on
shared objects, which the CLI's row builders make once per distinct value.
`to_text` formats each distinct name list and verdict of a `patterns`
table once, keyed by value, so a report parsed back from JSON, whose rows
share nothing, takes no more formatting than the one built in process.
Nothing time- or environment-dependent goes into a report, so repeated
runs on identical inputs are byte-identical; timing is printed to stderr by
the CLI instead.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii

SCHEMA = "torstab-report/1"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_report(
    subcommand: str,
    digest: str | None,
    result: dict,
    warnings: list[str] | None = None,
) -> dict:
    return {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "input_digest": digest,
        "result": result,
        "warnings": warnings or [],
    }


def to_json(report: dict) -> str:
    """The report as `json.dumps(report, sort_keys=True, separators=(",", ": "),
    indent=1) + "\n"`, byte for byte, in one pass.

    Under `indent` the standard library encodes through its pure-Python
    generators, one token at a time; this emitter pushes one string per
    output line and joins them once.  A row list, a list whose items are
    all dicts with the first item's key set, that set not empty, goes out
    one string per row instead (see `_put_rows`).  Reports hold only dicts
    with `str` keys, lists, tuples, `str`, `int`, `bool` and `None` (no
    floats: the arithmetic is exact), and each is matched by its exact
    type; any other value, or a non-`str` key, raises `TypeError`.
    """
    pieces: list[str] = []
    _put_value("", report, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


# Scalars by exact type, so that `bool` is never taken for `int`.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _put_value(lead: str, value, indent: str, put) -> None:
    """Push `lead` followed by `value` rendered at the depth whose line break
    and indentation is `indent`."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        put(lead + scalar(value))
        return
    if kind is dict:
        if not value:
            put(lead + "{}")
            return
        inner = indent + " "
        lead += "{" + inner
        sep = "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            head = lead + encode_basestring_ascii(key) + ": "
            # A scalar is rendered here, without a call, on the key's line.
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                put(head + scalar(item))
            else:
                _put_value(head, item, inner, put)
            lead = sep
        put(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            put(lead + "[]")
            return
        first = value[0]
        if (
            type(first) is dict
            and first
            and set(map(type, value)) == {dict}
            and all(map(first.keys().__eq__, map(dict.keys, value)))
        ):
            _put_rows(lead, value, indent, put)
            return
        inner = indent + " "
        lead += "[" + inner
        sep = "," + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                put(lead + scalar(item))
            else:
                _put_value(lead, item, inner, put)
            lead = sep
        put(indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _put_rows(lead: str, rows, indent: str, put) -> None:
    """Push `rows`, dicts that all have one non-empty key set, as
    `_put_value` would, one string per row.  The keys are sorted and
    encoded once.  Each list, tuple or dict in a row is rendered once, at
    the depth of a row's values, and reused wherever the same object recurs
    in this list, so a caller that wants a fragment rendered once shares
    it."""
    inner = indent + " "
    cell = inner + " "
    keys = sorted(rows[0])
    heads = []
    for key in keys:
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        heads.append("," + cell + encode_basestring_ascii(key) + ": ")
    heads[0] = "{" + heads[0][1:]
    columns = list(zip(heads, keys))
    close = inner + "}"
    rendered: dict[int, str] = {}  # by id; every row keeps its values alive
    lead += "[" + inner
    sep = "," + inner
    for row in rows:
        line = lead
        for head, key in columns:
            item = row[key]
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                line += head + scalar(item)
                continue
            text = rendered.get(id(item))
            if text is None:
                pieces: list[str] = []
                _put_value("", item, cell, pieces.append)
                text = rendered[id(item)] = "".join(pieces)
            line += head + text
        put(line + close)
        lead = sep
    put(indent + "]")


def to_text(report: dict) -> str:
    lines = [f"warning: {warning}" for warning in report["warnings"]]
    lines += _TEXT[report["subcommand"]](report["result"])
    return "".join(line + "\n" for line in lines)


# --- text pieces --------------------------------------------------------------


def _vec(values) -> str:
    return "(" + ",".join(map(str, values)) + ")"


def _braced(names) -> str:
    return "{" + ",".join(map(str, names)) + "}"


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _order(order: int | None) -> str:
    return "infinite" if order is None else str(order)


def _verdict(verdict: dict) -> str:
    if verdict["status"] == "stable":
        return "stable"
    return f"{verdict['status']} witness={_vec(verdict['witness'])} mu={verdict['witness_mu']}"


def _monomial(powers: dict, order) -> str:
    """The name -> exponent dict `powers` as a product, its names taken in
    `order`, which lists every name it holds."""
    return "*".join([n if e == 1 else f"{n}^{e}" for n in order if (e := powers.get(n))]) or "1"


def _poly(terms: list[dict]) -> str:
    parts = []
    for term in sorted(terms, key=lambda t: t["coeff"].startswith("-")):
        # A relation's factors are generator names, taken in sorted order.
        coeff, text = term["coeff"], _monomial(term["monomial"], sorted(term["monomial"]))
        if coeff == "1":
            parts.append(f"+ {text}")
        elif coeff == "-1":
            parts.append(f"- {text}")
        else:
            parts.append(f"+ {coeff}*{text}")
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def _relations(polys: list[list[dict]]) -> list[str]:
    return [f"  {_poly(p)} = 0" for p in polys] or ["  (none)"]


def _generators(gens: list[dict], order, degree: bool = False) -> list[str]:
    """One line per named generator, with its fiber degree if asked."""
    return [
        f"  {g['name']} = {_monomial(g['monomial'], order)}"
        + (f"  (degree {g['l_degree']})" if degree else "")
        for g in gens
    ] or ["  (none)"]


# --- one renderer per subcommand ----------------------------------------------


def _text_mu(r: dict) -> list[str]:
    return [f"mu(lambda={_vec(r['lambda'])}, p) = {r['mu']}"]


def _text_limit(r: dict) -> list[str]:
    if r["limit"] is None:
        return ["limit does not exist (mu is infinite)"]
    return ["limit point: " + ", ".join(f"{n}={r['limit'][n]}" for n in r["variables"])]


def _text_classify(r: dict) -> list[str]:
    return [_verdict(r)]


def _text_patterns(r: dict) -> list[str]:
    """One line per row.  The rows repeat a few hundred distinct name lists
    and verdicts, so each distinct value is formatted once: a name list
    keyed as a tuple, a verdict by its three fields.  Whether the rows
    share objects, as in process, or not, as when parsed from JSON, does
    not matter."""
    braced: dict[tuple, str] = {}
    shown: dict[tuple, str] = {}
    lines = []
    for row in r["rows"]:
        base, fiber, verdict = tuple(row["base"]), tuple(row["fiber"]), row["verdict"]
        key = (verdict["status"], tuple(verdict["witness"] or ()), verdict["witness_mu"])
        lines.append(
            f"base={braced.get(base) or braced.setdefault(base, _braced(base))} "
            f"fiber={braced.get(fiber) or braced.setdefault(fiber, _braced(fiber))}: "
            f"{shown.get(key) or shown.setdefault(key, _verdict(verdict))}"
        )
    lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(r["counts"].items())))
    return lines


def _text_invariants(r: dict) -> list[str]:
    monos = r["invariant_monomials"]
    lines = [f"{len(monos)} invariant monomials up to total degree {r['max_degree']}:"]
    order = r["variables"]
    lines += [f"  {_monomial(m['monomial'], order)}  (l_degree {m['l_degree']})" for m in monos]
    return lines


def _text_relations(r: dict) -> list[str]:
    lines = ["generators:"] + _generators(r["generators"], r["variables"])
    return lines + ["relations:"] + _relations(r["relations"])


def _text_quotient(r: dict) -> list[str]:
    lines = ["base coordinates (degree 0):"] + _generators(r["base_generators"], r["variables"])
    lines.append("projective coordinates (degree > 0):")
    lines += _generators(r["proj_generators"], r["variables"], degree=True)
    lines += ["relations:"] + _relations(r["relations"])
    lines.append(f"ambient: {r['ambient']}")
    if r["veronese_divisor"]:
        lines.append(
            f"projective degrees share the common divisor {r['veronese_divisor']}; "
            "a Veronese re-grading is available but not applied"
        )
    return lines


def _text_stabilizer(r: dict) -> list[str]:
    return [f"stabilizer order: {_order(r['stabilizer_order'])}"]


def _text_sections(r: dict) -> list[str]:
    section = r["section"]
    if section is None:
        return [f"no nonvanishing invariant section up to degree {r['max_degree']}"]
    return [
        f"nonvanishing invariant section: {_monomial(section['monomial'], r['variables'])} "
        f"(degree {section['l_degree']})"
    ]


def _text_conic(r: dict) -> list[str]:
    """The table's header line, each chain interval's limit weights, one
    line per row, then a sweep's summary or a single configuration's
    extras."""
    table = r["weight_table"]
    lines = [f"weight table: n={table['n']} twists={table['twists']} shift=none"]
    lines += [
        f"  interval {_braced(entry['interval'])}: "
        f"toward-start {_vec(entry['weight_toward_start'])}, "
        f"toward-end {_vec(entry['weight_toward_end'])}"
        for entry in r["interval_weights"]
    ]
    lines += [
        f"stratum {_braced(row['stratum'])} lengths {_vec(row['lengths'])}: "
        f"admissible={_yes_no(row['admissible'])} verdict={_verdict(row['verdict'])}"
        for row in r["rows"]
    ]
    if "equivalence_holds" in r:
        lines.append(
            f"equivalence holds: {r['equivalence_holds']}; "
            f"strictly semistable rows: {r['strictly_semistable_rows']}"
        )
    if "lambda" in r:
        lines.append(f"mu(lambda={_vec(r['lambda'])}) = {r['mu']}")
    if "stabilizer_order" in r:
        lines.append(f"stabilizer order: {_order(r['stabilizer_order'])}")
    if "components" in r:
        lines.append("components: " + ", ".join(c["label"] for c in r["components"]))
        for meet in r["intersections"]:
            witnesses = meet["witnesses"]
            lines.append(
                f"  {' * '.join(meet['components'])}: "
                + (f"{len(witnesses)} witness configuration(s)" if witnesses else "empty")
            )
    return lines


def _text_selftest(r: dict) -> list[str]:
    lines = [
        f"{'ok' if case['passed'] else 'FAIL'}: {' '.join(case['argv'])} ({case['detail']})"
        for case in r["cases"]
    ]
    passed = sum(case["passed"] for case in r["cases"])
    lines.append(f"{passed}/{len(r['cases'])} golden reports reproduced")
    return lines


_TEXT = {
    "mu": _text_mu,
    "limit": _text_limit,
    "classify": _text_classify,
    "patterns": _text_patterns,
    "invariants": _text_invariants,
    "relations": _text_relations,
    "quotient": _text_quotient,
    "stabilizer": _text_stabilizer,
    "sections": _text_sections,
    "conic": _text_conic,
    "selftest": _text_selftest,
}
