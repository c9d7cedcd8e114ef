"""Command-line interface.

`_run` parses a command line, loads its `--problem` and `--point` into
`args.problem` (a `GitProblem`) and `args.point` (a `PointSample`),
refusing a point off the problem's declared ideal, and hands `args` to the
subcommand's handler.  Each handler computes one JSON-ready result dict and
its warnings; `_run` wraps them in a report with the problem's digest, and
`main` prints it as text or JSON (see `report`).
The argument parser is built once per process, on the first call, and holds
no handler: the handler of subcommand `name` is the function `_cmd_<name>`,
looked up by that name when the command runs.  Exit codes: 0 success, 1
input error (or stdout closed before the report was written), 2 internal
invariant violation (a witness failed re-verification) or self-test
failure.  Reports go to stdout and are byte-identical across runs on
identical inputs; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .builtin import builtin_problem
from .classify import (
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
    classify_config,
    config_stabilizer,
    hilbert_components,
    mu_config,
    admissible,
    SweepRow,
    sweep_equivalence,
)
from .errors import InputError, InternalInvariantError
from .golden import GOLDEN_REPORTS
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
from .report import build_report, sha256_hex, to_json, to_text


# What `torstab --help` says; the module docstring is for maintainers.
_DESCRIPTION = (
    "Exact stability verdicts, invariant rings and quotient presentations for "
    "split-torus actions, and the degenerating-conic case study. Reports go to "
    "stdout as text or JSON. Exit codes: 0 success, 1 input error, 2 internal "
    "invariant violation or self-test failure."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise InputError(message)


def _load_problem(spec: str) -> tuple[GitProblem, str]:
    """The problem and its digest, the sha256 of its canonical serialization,
    so the digest depends neither on how the file is named nor on how it is
    formatted."""
    if spec.startswith("builtin:"):
        problem = builtin_problem(spec.split(":", 1)[1])
    else:
        try:
            with open(spec, "rb") as fh:
                text = fh.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read problem file {spec!r}: {exc}") from exc
        problem = parse_problem(text)
    return problem, sha256_hex(serialize_problem(problem).encode())


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _load_point(problem: GitProblem, spec: str) -> PointSample:
    """Accept a file path, inline JSON, or inline name=value pairs."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read point file {spec!r}: {exc}") from exc
        return parse_point(problem, text)
    return parse_point(problem, spec)


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "status": verdict.status.value,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "witness_mu": str(verdict.witness_mu) if verdict.witness_mu is not None else None,
    }


def _mono_dict(mono, names, **extra) -> dict:
    """An invariant monomial as its report dict, with the `extra` keys;
    `names` are the problem's `var_names`, the variables its exponent
    vector is over."""
    monomial = {n: e for n, e in zip(names, mono.exponents) if e}
    return {"monomial": monomial, "l_degree": mono.l_degree, **extra}


def _degree_bounded(max_degree: int) -> list[str]:
    """The warning of a report whose invariant monomials stop at a degree bound."""
    return [
        f"degree-bounded: invariant monomials of total degree > {max_degree} were not enumerated"
    ]


# --- subcommand handlers: (result, warnings) ----------------------------------


def _cmd_mu(args) -> tuple[dict, list[str]]:
    lam = _parse_ints(args.lam, "lambda")
    weight = mu(args.problem, args.point, lam)
    return {"mu": "inf" if weight is None else str(weight), "lambda": list(lam)}, []


def _cmd_limit(args):
    limit = limit_point(args.problem, args.point, _parse_ints(args.lam, "lambda"))
    if limit is not None:
        limit = {n: format_rational(v) for n, v in limit.as_dict().items()}
    return {"limit": limit, "variables": list(args.problem.var_names)}, []


def _cmd_classify(args):
    return _verdict_dict(classify(args.problem, args.point)), []


def _cmd_patterns(args):
    table = classify_patterns(args.problem, max_vars=args.max_vars)
    # The table is the product of its base and fiber subsets, each a name
    # tuple in declared order, and interns its verdicts, so keying by id
    # here gives every row its subsets' tuples and one dict per distinct
    # verdict, which `to_json` renders once per row list.
    ids = list(map(id, table.verdicts))
    objects = dict(zip(ids, table.verdicts))
    shown = {key: _verdict_dict(verdict) for key, verdict in objects.items()}
    counts = {status.value: 0 for status in StabilityStatus}
    for key, count in Counter(ids).items():
        counts[shown[key]["status"]] += count
    row_verdicts = map(shown.__getitem__, ids)
    rows = [
        {"base": base, "fiber": fiber, "verdict": next(row_verdicts)}
        for base in table.bases
        for fiber in table.fibers
    ]
    return {"rows": rows, "counts": counts}, list(table.warnings)


def _cmd_invariants(args):
    monos = invariant_monomials(args.problem, args.max_degree)
    variables = args.problem.var_names
    result = {
        "invariant_monomials": [_mono_dict(m, variables) for m in monos],
        "max_degree": args.max_degree,
        "variables": list(variables),
    }
    return result, _degree_bounded(args.max_degree)


def _cmd_relations(args):
    gens = minimal_generators(invariant_monomials(args.problem, args.max_degree))
    names = [f"g{i}" for i in range(len(gens))]
    warnings = _degree_bounded(args.max_degree)
    rels = relations(gens, args.syzygy_degree, names, warnings=warnings)
    variables = args.problem.var_names
    result = {
        "generators": [_mono_dict(m, variables, name=n) for n, m in zip(names, gens)],
        "relations": [p.term_dicts() for p in rels],
        "variables": list(variables),
    }
    return result, warnings


def _cmd_quotient(args):
    pres = quotient_presentation(args.problem, args.max_degree, args.syzygy_degree)
    variables = args.problem.var_names
    result = {
        "base_generators": [_mono_dict(m, variables, name=n) for n, m in pres.base_generators],
        "proj_generators": [_mono_dict(m, variables, name=n) for n, m in pres.proj_generators],
        "relations": [p.term_dicts() for p in pres.relations],
        "ambient": pres.ambient,
        "veronese_divisor": pres.veronese_divisor,
        "variables": list(variables),
    }
    return result, _degree_bounded(args.max_degree) + list(pres.warnings)


def _cmd_stabilizer(args):
    return {"stabilizer_order": stabilizer_order(args.problem, args.point)}, []


def _cmd_sections(args):
    section = semistable_via_sections(args.problem, args.point, args.max_degree)
    result = {
        "section": None if section is None else _mono_dict(section, args.problem.var_names),
        "max_degree": args.max_degree,
        "variables": list(args.problem.var_names),
    }
    # A section found certifies semistability whatever the bound.
    return result, _degree_bounded(args.max_degree) if section is None else []


def _parse_stratum(args) -> Stratum:
    if args.stratum is None:
        raise InputError("--stratum is required unless --sweep is given")
    text = args.stratum.strip()
    if text in ("", "none", "smooth"):
        vanishing: frozenset[int] = frozenset()
    else:
        try:
            indices = [int(x) for x in text.split(",")]
        except ValueError as exc:
            raise InputError(f"bad stratum {args.stratum!r}: {exc}") from exc
        vanishing = frozenset(indices)
        if len(vanishing) != len(indices):
            repeated = next(i for k, i in enumerate(indices) if i in indices[:k])
            raise InputError(f"duplicate vanishing index {repeated} in --stratum")
    return Stratum(args.n, vanishing)


def _parse_marked(text: str | None) -> tuple[tuple[int, Fraction], ...]:
    if text is None:
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


def _conic_result(table, sweep_rows) -> dict:
    """The part of every `conic` report: the table as `weight_table`, its
    size and twists; the limit weights of each distinct chain interval of
    the rows' strata once, in `interval_weights`, in order of first
    appearance, toward the start of the chain (every subgroup coordinate
    positive) and toward its end (every coordinate negative); and one dict
    per `SweepRow`, in `rows`."""
    # As in `_cmd_patterns`, each distinct stratum list and verdict dict is
    # built once and shared by the rows that have it, and so is each
    # lengths tuple, which the sweep shares across strata.
    toward_start, toward_end = (1,) * table.n, (-1,) * table.n
    vanishing: dict[Stratum, list[int]] = {}
    interval_weights: dict[tuple[int, ...], dict] = {}
    verdicts: dict[Verdict, dict] = {}
    rows = []
    for row in sweep_rows:
        stratum = row.config.stratum
        if stratum not in vanishing:
            vanishing[stratum] = sorted(stratum.vanishing)
            for interval in stratum.intervals:
                if interval not in interval_weights:
                    interval_weights[interval] = {
                        "interval": list(interval),
                        "weight_toward_start": list(table.limit_weights(interval, toward_start)),
                        "weight_toward_end": list(table.limit_weights(interval, toward_end)),
                    }
        if row.verdict not in verdicts:
            verdicts[row.verdict] = _verdict_dict(row.verdict)
        rows.append(
            {
                "stratum": vanishing[stratum],
                "lengths": row.config.lengths,
                "admissible": row.admissible,
                "verdict": verdicts[row.verdict],
            }
        )
    return {
        "weight_table": {"n": table.n, "twists": list(table.multipliers[:-1])},
        "interval_weights": list(interval_weights.values()),
        "rows": rows,
    }


def _cmd_conic(args):
    """A sweep of every configuration, with its summary, or one
    configuration as one row, with what its flags ask for."""
    table = build_weight_table(args.n, a=_parse_twists(args))
    if args.sweep:
        for flag, value in (
            ("--stratum", args.stratum),
            ("--lengths", args.lengths),
            ("--marked", args.marked),
            ("--lambda", args.lam),
            ("--components", args.components),
        ):
            if value not in (None, False):
                raise InputError(f"{flag} does not apply with --sweep")
        sweep = sweep_equivalence(table)
        if not sweep.equivalence_holds:
            raise InternalInvariantError("sweep disagrees with the admissibility criterion")
        result = _conic_result(table, sweep.rows)
        result["equivalence_holds"] = True
        result["strictly_semistable_rows"] = sweep.strictly_semistable_count
        return result, []

    stratum = _parse_stratum(args)
    if args.lengths is None:
        raise InputError("--lengths is required unless --sweep is given")
    lengths = _parse_ints(args.lengths, "--lengths")
    config = ChainConfiguration(stratum, lengths, _parse_marked(args.marked))
    row = SweepRow(config, admissible(config), classify_config(table, config))
    result = _conic_result(table, [row])
    if args.lam is not None:
        lam = _parse_ints(args.lam, "lambda")
        weight = mu_config(table, config, lam)
        result["lambda"] = list(lam)
        result["mu"] = "inf" if weight is None else str(weight)
    if config.marked_points:
        result["stabilizer_order"] = config_stabilizer(config)
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
    return result, []


def _parse_twists(args) -> tuple[int, ...] | None:
    if args.twists is None:
        return None
    text = args.twists.strip()
    if not text:
        return ()
    return _parse_ints(text, "--twists")


def _cmd_selftest(args):
    """Rebuild every golden report and compare both views with their digests."""
    cases = []
    for argv, json_digest, text_digest in GOLDEN_REPORTS:
        try:
            _, report = _run(list(argv))
        except (InputError, InternalInvariantError) as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            differ = [
                fmt
                for fmt, render, digest in (
                    ("json", to_json, json_digest),
                    ("text", to_text, text_digest),
                )
                if sha256_hex(render(report).encode()) != digest
            ]
            passed = not differ
            detail = " and ".join(differ) + " digest differs" if differ else "digests match"
        cases.append({"argv": list(argv), "passed": passed, "detail": detail})
    warnings = [
        "self-test failed: " + " ".join(case["argv"]) for case in cases if not case["passed"]
    ]
    return {"cases": cases, "all_passed": not warnings}, warnings


# --- argument wiring --------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use rather than at
    import; parsing a command line leaves it unchanged."""
    parser = _Parser(prog="torstab", description=_DESCRIPTION)
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

    p = sub.add_parser("limit", help="limit point under a subgroup")
    common(p, point=True, lam="required")

    p = sub.add_parser("classify", help="stability verdict for a point")
    common(p, point=True)

    p = sub.add_parser("patterns", help="verdicts for all support patterns")
    common(p)
    p.add_argument("--max-vars", type=int, default=16)

    p = sub.add_parser("invariants", help="invariant monomials up to a degree bound")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)

    p = sub.add_parser("relations", help="binomial relations among minimal generators")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--syzygy-degree", type=int, default=8)

    p = sub.add_parser("quotient", help="quotient presentation")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--syzygy-degree", type=int, default=8)

    p = sub.add_parser("stabilizer", help="order of the torus stabilizer at a point")
    common(p, point=True)

    p = sub.add_parser("sections", help="nonvanishing invariant section at a point")
    common(p, point=True)
    p.add_argument("--max-degree", type=int, default=4)

    p = sub.add_parser("conic", help="degenerating-conic case study")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stratum", help='comma-separated vanishing indices, or "smooth"')
    p.add_argument("--lengths", help="per-component lengths, comma-separated")
    p.add_argument("--marked", help="marked points as component:coordinate,...")
    p.add_argument("--lambda", dest="lam", help="evaluate the weight at this subgroup")
    p.add_argument("--twists", help="override twist parameters a_1,...,a_{n-1}")
    p.add_argument("--sweep", action="store_true", help="full equivalence sweep")
    p.add_argument("--components", action="store_true",
                   help="report component incidence")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("selftest", help="replay the golden reports")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _run(argv: list[str]) -> tuple[argparse.Namespace, dict]:
    """Parse one command line, load its problem and point (which must lie
    on the problem's ideal), and build its report."""
    args = _build_parser().parse_args(argv)
    digest = None
    if "problem" in args:
        args.problem, digest = _load_problem(args.problem)
        if "point" in args:
            args.point = _load_point(args.problem, args.point)
            if not check_on_ideal(args.problem, args.point):
                raise InputError("point does not lie on the declared ideal")
    # Looked up when called, not stored in the cached parser, so that
    # rebinding a `_cmd_*` name takes effect.
    handler = globals()[f"_cmd_{args.subcommand}"]
    result, warnings = handler(args)
    return args, build_report(args.subcommand, digest, result, warnings)


def _discard_stdout() -> None:
    """Point stdout's descriptor at /dev/null, so that the interpreter's final
    flush of whatever is still buffered cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        args, report = _run(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2

    try:
        sys.stdout.write(to_json(report) if args.format == "json" else to_text(report))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away, as with `| head`
        _discard_stdout()
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)

    if args.subcommand == "selftest" and not report["result"]["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
