"""Command-line interface.

Exit codes: 0 success, 1 input error, 2 internal invariant violation (a
witness failed re-verification) or self-test failure.  Reports go to stdout
and are byte-identical across runs on identical inputs; timing goes to
stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import __version__
from .builtin import builtin_problem
from .classify import (
    PatternTable,
    StabilityStatus,
    Verdict,
    classify,
    classify_patterns,
    stabilizer_order,
)
from .degeneration import (
    ChainConfiguration,
    Stratum,
    build_weight_table,
    chain,
    classify_config,
    config_stabilizer,
    hilbert_components,
    mu_config,
    admissible,
    sweep_equivalence,
)
from .errors import InputError, InternalInvariantError
from .invariants import (
    invariant_monomials,
    quotient_presentation,
    relations,
    minimal_generators,
    semistable_via_sections,
)
from .model import (
    GitProblem,
    PointSample,
    check_on_ideal,
    format_rational,
    parse_point,
    parse_problem,
    parse_rational,
    serialize_problem,
)
from .mu import limit_point, mu
from .report import build_report, input_digest, jsonable, to_json
from .selftests import run_all


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise InputError(message)


def _load_problem(spec: str) -> tuple[GitProblem, str]:
    if spec.startswith("builtin:"):
        problem = builtin_problem(spec.split(":", 1)[1])
        return problem, input_digest(serialize_problem(problem).encode())
    try:
        data = open(spec, "rb").read()
    except OSError as exc:
        raise InputError(f"cannot read problem file {spec!r}: {exc}") from exc
    return parse_problem(data.decode("utf-8")), input_digest(data)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _load_point(problem: GitProblem, spec: str) -> PointSample:
    """Accept a file path, inline JSON, or inline name=value pairs."""
    import os

    if os.path.exists(spec):
        try:
            text = open(spec, "r", encoding="utf-8").read()
        except OSError as exc:
            raise InputError(f"cannot read point file {spec!r}: {exc}") from exc
        return parse_point(problem, text)
    return parse_point(problem, spec)


def _fmt_vec(vec) -> str:
    return "(" + ",".join(map(str, vec)) + ")"


def _fmt_names(names, order) -> str:
    return "{" + ",".join(n for n in order if n in names) + "}"


def _fmt_point(point: PointSample) -> str:
    return ", ".join(
        f"{n}={format_rational(v)}" for n, v in point.base_values + point.fiber_values
    )


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "status": verdict.status.value,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "witness_mu": str(verdict.witness_mu) if verdict.witness_mu is not None else None,
    }


def _fmt_verdict(verdict: Verdict) -> str:
    if verdict.status is StabilityStatus.STABLE:
        return "stable"
    return (
        f"{verdict.status.value} witness={_fmt_vec(verdict.witness)} "
        f"mu={verdict.witness_mu}"
    )


def _poly_dict(poly) -> list[dict]:
    return [
        {"coeff": format_rational(c), "monomial": {n: e for n, e in mono}}
        for c, mono in poly.terms
    ]


def _fmt_poly(poly) -> str:
    parts = []
    for coeff, mono in sorted(poly.terms, key=lambda term: term[0] < 0):
        text = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono) or "1"
        if coeff == 1:
            parts.append(f"+ {text}")
        elif coeff == -1:
            parts.append(f"- {text}")
        else:
            parts.append(f"+ {format_rational(coeff)}*{text}")
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def _mono_dict(mono) -> dict:
    return {"monomial": {n: e for n, e in mono.exponents}, "l_degree": mono.l_degree}


# --- subcommand handlers ----------------------------------------------------


def _cmd_mu(args) -> tuple[dict, list[str], str | None, list[str]]:
    problem, digest = _load_problem(args.problem)
    point = _load_point(problem, args.point)
    lam = _parse_ints(args.lam, "lambda")
    value = mu(problem, point, lam)
    lines = [f"mu(lambda={_fmt_vec(lam)}, p) = {value}"]
    return {"mu": str(value)}, lines, digest, []


def _cmd_limit(args):
    problem, digest = _load_problem(args.problem)
    point = _load_point(problem, args.point)
    lam = _parse_ints(args.lam, "lambda")
    limit = limit_point(problem, point, lam)
    if limit is None:
        return {"limit": None}, ["limit does not exist (mu is infinite)"], digest, []
    values = {n: format_rational(v) for n, v in limit.base_values + limit.fiber_values}
    return {"limit": values}, [f"limit point: {_fmt_point(limit)}"], digest, []


def _cmd_classify(args):
    problem, digest = _load_problem(args.problem)
    point = _load_point(problem, args.point)
    warnings = []
    if problem.ideal and not check_on_ideal(problem, point):
        raise InputError("point does not lie on the declared ideal")
    verdict = classify(problem, point)
    return _verdict_dict(verdict), [_fmt_verdict(verdict)], digest, warnings


def _cmd_patterns(args):
    problem, digest = _load_problem(args.problem)
    table: PatternTable = classify_patterns(problem, max_vars=args.max_vars)
    order = problem.var_names
    rows = []
    lines = []
    for pattern, verdict in table.rows:
        rows.append(
            {
                "base": sorted(pattern.base, key=order.index),
                "fiber": sorted(pattern.fiber, key=order.index),
                "verdict": _verdict_dict(verdict),
            }
        )
        lines.append(
            f"base={_fmt_names(pattern.base, order)} "
            f"fiber={_fmt_names(pattern.fiber, order)}: {_fmt_verdict(verdict)}"
        )
    counts = {
        status.value: sum(1 for _, v in table.rows if v.status is status)
        for status in StabilityStatus
    }
    lines.append(
        "summary: "
        + ", ".join(f"{k}={v}" for k, v in counts.items())
    )
    return {"rows": rows, "counts": counts}, lines, digest, list(table.warnings)


def _cmd_invariants(args):
    problem, digest = _load_problem(args.problem)
    monos = invariant_monomials(problem, args.max_degree)
    result = {"invariant_monomials": [_mono_dict(m) for m in monos]}
    lines = [f"{len(monos)} invariant monomials up to total degree {args.max_degree}:"]
    lines += [f"  {m}  (l_degree {m.l_degree})" for m in monos]
    return result, lines, digest, []


def _cmd_relations(args):
    problem, digest = _load_problem(args.problem)
    gens = minimal_generators(invariant_monomials(problem, args.max_degree))
    names = [f"g{i}" for i in range(len(gens))]
    rels = relations(gens, args.syzygy_degree, names)
    result = {
        "generators": [dict(_mono_dict(m), name=n) for n, m in zip(names, gens)],
        "relations": [_poly_dict(p) for p in rels],
    }
    lines = ["generators:"]
    lines += [f"  {n} = {m}" for n, m in zip(names, gens)]
    lines.append("relations:")
    lines += [f"  {_fmt_poly(p)} = 0" for p in rels] or ["  (none)"]
    return result, lines, digest, []


def _cmd_quotient(args):
    problem, digest = _load_problem(args.problem)
    pres = quotient_presentation(problem, args.max_degree, args.syzygy_degree)
    result = {
        "base_generators": [dict(_mono_dict(m), name=n) for n, m in pres.base_generators],
        "proj_generators": [
            dict(_mono_dict(m), name=n) for n, m, _ in pres.proj_generators
        ],
        "relations": [_poly_dict(p) for p in pres.relations],
        "ambient": pres.ambient,
        "veronese_divisor": pres.veronese_divisor,
    }
    lines = ["base coordinates (degree 0):"]
    lines += [f"  {n} = {m}" for n, m in pres.base_generators] or ["  (none)"]
    lines.append("projective coordinates (degree > 0):")
    lines += [f"  {n} = {m}  (degree {d})" for n, m, d in pres.proj_generators]
    lines.append("relations:")
    lines += [f"  {_fmt_poly(p)} = 0" for p in pres.relations] or ["  (none)"]
    lines.append(f"ambient: {pres.ambient}")
    if pres.veronese_divisor:
        lines.append(
            f"projective degrees share the common divisor {pres.veronese_divisor}; "
            "a Veronese re-grading is available but not applied"
        )
    return result, lines, digest, []


def _cmd_stabilizer(args):
    problem, digest = _load_problem(args.problem)
    point = _load_point(problem, args.point)
    order = stabilizer_order(problem, point)
    text = "infinite" if order is None else str(order)
    return {"stabilizer_order": order}, [f"stabilizer order: {text}"], digest, []


def _cmd_sections(args):
    problem, digest = _load_problem(args.problem)
    point = _load_point(problem, args.point)
    section = semistable_via_sections(problem, point, args.max_degree)
    if section is None:
        lines = [f"no nonvanishing invariant section up to degree {args.max_degree}"]
        return {"section": None}, lines, digest, []
    return (
        {"section": _mono_dict(section)},
        [f"nonvanishing invariant section: {section} (degree {section.l_degree})"],
        digest,
        [],
    )


def _parse_stratum(args) -> Stratum:
    if args.stratum is None:
        raise InputError("--stratum is required unless --sweep is given")
    text = args.stratum.strip()
    if text in ("", "none", "smooth"):
        vanishing: frozenset[int] = frozenset()
    else:
        try:
            vanishing = frozenset(int(x) for x in text.split(","))
        except ValueError as exc:
            raise InputError(f"bad stratum {args.stratum!r}: {exc}") from exc
    return Stratum(args.n, vanishing)


def _parse_marked(text: str | None) -> tuple[tuple[int, Fraction], ...]:
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise InputError(f"marked points use component:coordinate, got {chunk!r}")
        idx, _, coord = chunk.partition(":")
        try:
            component = int(idx)
        except ValueError as exc:
            raise InputError(f"marked point component must be an integer, got {idx!r}") from exc
        out.append((component, parse_rational(coord)))
    return tuple(out)


def _weight_table_dict(table, stratum) -> dict:
    fibre = chain(stratum)
    per_interval = []
    for k, interval in enumerate(fibre.intervals):
        down, up = table.limit_vectors(fibre, k)
        per_interval.append(
            {
                "interval": list(interval),
                "weight_toward_start": list(down),
                "weight_toward_end": list(up),
            }
        )
    return {
        "n": table.n,
        "twists": list(table.multipliers[:-1]),
        "a0": table.a0,
        "sign": table.sign,
        "shift_applied": None,
        "intervals": per_interval,
    }


def _weight_table_lines(table, stratum) -> list[str]:
    fibre = chain(stratum)
    lines = [
        f"weight table: n={table.n} twists={list(table.multipliers[:-1])} "
        f"a0={table.a0} sign={'engine(+1)' if table.sign == 1 else 'opposite(-1)'} "
        "shift=none"
    ]
    for k, interval in enumerate(fibre.intervals):
        down, up = table.limit_vectors(fibre, k)
        lines.append(
            f"  component {k} {set(interval) or '{}'}: "
            f"toward-start {_fmt_vec(down)}, toward-end {_fmt_vec(up)}"
        )
    return lines


def _cmd_conic(args):
    table = build_weight_table(args.n, a=_parse_twists(args), sign=args.sign_value)
    if args.sweep:
        report = sweep_equivalence(table)
        rows = []
        lines = []
        seen_strata = []
        for row in report.rows:
            stratum = row.config.stratum
            if stratum not in seen_strata:
                seen_strata.append(stratum)
                lines += _weight_table_lines(table, stratum)
            ok = (row.verdict.status is StabilityStatus.STABLE) == row.admissible
            rows.append(
                {
                    "stratum": sorted(stratum.vanishing),
                    "lengths": list(row.config.lengths),
                    "admissible": row.admissible,
                    "verdict": _verdict_dict(row.verdict),
                    "agreement": ok,
                }
            )
            lines.append(
                f"stratum {stratum.label()} lengths {_fmt_vec(row.config.lengths)}: "
                f"admissible={'yes' if row.admissible else 'no'} "
                f"verdict={_fmt_verdict(row.verdict)}"
                + ("" if ok else "  [DISAGREES]")
            )
        lines.append(
            f"equivalence holds: {report.equivalence_holds}; "
            f"strictly semistable rows: {report.strictly_semistable_count}"
        )
        result = {
            "weight_table": _weight_table_dict(table, Stratum(args.n, frozenset(range(1, args.n + 2)))),
            "rows": rows,
            "equivalence_holds": report.equivalence_holds,
            "strictly_semistable_rows": report.strictly_semistable_count,
        }
        if not report.equivalence_holds:
            raise InternalInvariantError("sweep disagrees with the admissibility criterion")
        return result, lines, None, []

    stratum = _parse_stratum(args)
    if args.lengths is None:
        raise InputError("--lengths is required unless --sweep is given")
    lengths = _parse_ints(args.lengths, "--lengths")
    config = ChainConfiguration(stratum, lengths, _parse_marked(args.marked))
    fibre = chain(stratum)
    verdict = classify_config(table, config)
    result = {
        "weight_table": _weight_table_dict(table, stratum),
        "intervals": [list(i) for i in fibre.intervals],
        "lengths": list(lengths),
        "admissible": admissible(config),
        "verdict": _verdict_dict(verdict),
    }
    lines = _weight_table_lines(table, stratum)
    lines.append(f"chain components: {[list(i) for i in fibre.intervals]}")
    lines.append(f"admissible: {'yes' if admissible(config) else 'no'}")
    lines.append(f"verdict: {_fmt_verdict(verdict)}")
    if args.lam:
        lam = _parse_ints(args.lam, "lambda")
        value = mu_config(table, config, lam)
        result["mu"] = format_rational(value)
        lines.append(f"mu(lambda={_fmt_vec(lam)}) = {format_rational(value)}")
    if config.marked_points:
        order = config_stabilizer(config)
        result["stabilizer_order"] = order
        lines.append(f"stabilizer order: {'infinite' if order is None else order}")
    if args.components:
        incidence = hilbert_components(args.n)
        result["components"] = [
            {"label": c.label, "stratum": sorted(c.stratum.vanishing), "lengths": list(c.lengths)}
            for c in incidence.components
        ]
        result["intersections"] = [
            {
                "components": list(labels),
                "witnesses": [
                    {"stratum": sorted(w.stratum.vanishing), "lengths": list(w.lengths)}
                    for w in witnesses
                ],
            }
            for labels, witnesses in incidence.intersections
        ]
        lines.append("components: " + ", ".join(c.label for c in incidence.components))
        for labels, witnesses in incidence.intersections:
            lines.append(
                f"  {' * '.join(labels)}: "
                + (f"{len(witnesses)} witness configuration(s)" if witnesses else "empty")
            )
    return result, lines, None, []


def _parse_twists(args) -> tuple[int, ...] | None:
    if args.twists is None:
        return None
    text = args.twists.strip()
    if not text:
        return ()
    return _parse_ints(text, "--twists")


def _cmd_selftest(args):
    results = run_all()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'ok' if ok else 'FAIL'}: {name} ({detail})")
    passed = all(ok for _, ok, _ in results)
    lines.append(f"{sum(ok for _, ok, _ in results)}/{len(results)} suites passed")
    result = {
        "suites": [{"name": n, "passed": ok, "detail": d} for n, ok, d in results],
        "all_passed": passed,
    }
    if not passed:
        # Raised after printing, so the report still reaches stdout.
        return result, lines, None, ["self-test failures"]
    return result, lines, None, []


# --- argument wiring --------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="torstab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"torstab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, point=False, lam=False):
        p.add_argument("--problem", required=True, help="problem file or builtin:<name>")
        if point:
            p.add_argument("--point", required=True, help='point file, JSON, or "x=1,y=0"')
        if lam:
            p.add_argument("--lambda", dest="lam", required=lam == "required",
                           help="one-parameter subgroup, comma-separated integers")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mu", help="subgroup weight at a point")
    common(p, point=True, lam="required")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("limit", help="limit point under a subgroup")
    common(p, point=True, lam="required")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("classify", help="stability verdict for a point")
    common(p, point=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("patterns", help="verdicts for all support patterns")
    common(p)
    p.add_argument("--max-vars", type=int, default=16)
    p.set_defaults(handler=_cmd_patterns)

    p = sub.add_parser("invariants", help="invariant monomials up to a degree bound")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("relations", help="binomial relations among minimal generators")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--syzygy-degree", type=int, default=8)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("quotient", help="quotient presentation")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--syzygy-degree", type=int, default=8)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("stabilizer", help="order of the torus stabilizer at a point")
    common(p, point=True)
    p.set_defaults(handler=_cmd_stabilizer)

    p = sub.add_parser("sections", help="nonvanishing invariant section at a point")
    common(p, point=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(handler=_cmd_sections)

    p = sub.add_parser("conic", help="degenerating-conic case study")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stratum", help='comma-separated vanishing indices, or "smooth"')
    p.add_argument("--lengths", help="per-component lengths, comma-separated")
    p.add_argument("--marked", help="marked points as component:coordinate,...")
    p.add_argument("--lambda", dest="lam", help="evaluate the weight at this subgroup")
    p.add_argument("--twists", help="override twist parameters a_1,...,a_{n-1}")
    p.add_argument("--sign", choices=("engine", "opposite"), default="engine")
    p.add_argument("--sweep", action="store_true", help="full equivalence sweep")
    p.add_argument("--components", action="store_true",
                   help="report component incidence")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_conic)

    p = sub.add_parser("selftest", help="run the built-in golden suites")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        args.sign_value = 1 if getattr(args, "sign", "engine") == "engine" else -1
        result, lines, digest, warnings = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2

    report = build_report(
        args.subcommand, ["torstab"] + argv, digest, jsonable(result), warnings
    )
    if args.format == "json":
        sys.stdout.write(to_json(report))
    else:
        for warning in warnings:
            print(f"warning: {warning}")
        for line in lines:
            print(line)
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)

    if args.subcommand == "selftest" and not result["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
