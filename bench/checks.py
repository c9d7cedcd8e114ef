"""Output checks for the benchmark's tasks.

A check reads the JSON report a task printed and the inputs the benchmark
generated, and never calls torstab's decision code:

* every witness is substituted back into the generated weights;
* pattern statuses are compared with stored references when the problem is
  one of the default seeds' (see references.py);
* invariant monomials and minimal generators are compared with the
  independent enumeration in oracle.py, done when the input was generated;
* both sides of every relation must expand to the same monomial;
* a chain configuration must be stable exactly when it is admissible, with
  no strictly semistable row.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

import oracle
from oracle import SEMISTABLE, STABLE, UNSTABLE

STATUS_LETTER = {STABLE: "S", SEMISTABLE: "M", UNSTABLE: "U"}


class CheckFailed(Exception):
    pass


def require(condition, message) -> None:
    if not condition:
        raise CheckFailed(message)


def problem_text(problem: dict) -> str:
    """Contents of a generated problem file."""
    return json.dumps(problem, sort_keys=True) + "\n"


def problem_digest(problem: dict) -> str:
    return hashlib.sha256(problem_text(problem).encode()).hexdigest()[:16]


def status_digest(statuses: dict) -> str:
    """Digest of a pattern table: one letter per (base mask, fiber mask), in order."""
    text = "".join(STATUS_LETTER[statuses[key]] for key in sorted(statuses))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _int_vector(value, length, what):
    require(
        isinstance(value, list)
        and len(value) == length
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value),
        f"{what} is not a list of {length} integers: {value!r}",
    )
    return value


def support_mask(names, chosen, what):
    require(set(chosen) <= set(names) and len(set(chosen)) == len(chosen), f"bad {what} {chosen!r}")
    return sum(1 << i for i, name in enumerate(names) if name in chosen)


# --- pattern-table ----------------------------------------------------------


def pattern_statuses(problem: dict, result: dict) -> dict:
    """Validate every row of a pattern table; return status by (base, fiber) mask."""
    rank = problem["torus_rank"]
    base, fiber = problem["base_vars"], problem["fiber_vars"]
    statuses = {}
    for row in result["rows"]:
        key = (support_mask(list(base), row["base"], "base support"),
               support_mask(list(fiber), row["fiber"], "fiber support"))
        require(key[1] != 0, "pattern with empty fiber support")
        require(key not in statuses, f"pattern {row['base']}/{row['fiber']} listed twice")
        verdict = row["verdict"]
        status, witness = verdict["status"], verdict["witness"]
        if status == STABLE:
            require(witness is None and verdict["witness_mu"] is None, "stable row has a witness")
        else:
            _int_vector(witness, rank, "witness")
            mu = oracle.pattern_mu(
                [base[n] for n in row["base"]], [fiber[n] for n in row["fiber"]], witness
            )
            require(mu is not None, f"witness {witness} has no limit on {row}")
            if status == UNSTABLE:
                require(mu < 0, f"unstable witness {witness} has weight {mu}")
            else:
                require(status == SEMISTABLE, f"unknown status {status!r}")
                require(any(witness) and mu == 0, f"semistable witness {witness} has weight {mu}")
            require(verdict["witness_mu"] == str(mu), f"witness_mu {verdict['witness_mu']} != {mu}")
        statuses[key] = status
    expected = (1 << len(base)) * ((1 << len(fiber)) - 1)
    require(len(statuses) == expected, f"{len(statuses)} patterns, expected {expected}")
    tally = {s: 0 for s in STATUS_LETTER}
    for status in statuses.values():
        tally[status] += 1
    require(result["counts"] == tally, f"counts {result['counts']} != {tally}")
    return statuses


def check_pattern_table(task, result, references) -> None:
    statuses = pattern_statuses(task.problem, result)
    reference = references.get(problem_digest(task.problem))
    if reference is not None:
        require(status_digest(statuses) == reference, "pattern statuses differ from the reference")


# --- invariant-ring ---------------------------------------------------------


def _monomial(names, mono, what):
    require(set(mono) <= set(names), f"{what} uses unknown variables {sorted(mono)}")
    require(all(isinstance(e, int) and e > 0 for e in mono.values()), f"bad exponents in {what}")
    return tuple(mono.get(n, 0) for n in names)


def _check_l_degree(entry, vec, fiber_count, what):
    require(entry["l_degree"] == sum(vec[-fiber_count:]), f"wrong l_degree for {what}")


def _check_relations(relations, generators: dict, variables: int, max_factors: int) -> None:
    """Each relation is product - product = 0 with both sides the same monomial."""
    for poly in relations:
        require(len(poly) == 2 and sorted(t["coeff"] for t in poly) == ["-1", "1"],
                f"relation {poly} is not a binomial")
        sides = []
        for term in poly:
            powers = term["monomial"]
            require(set(powers) <= set(generators), f"relation uses unknown generators {powers}")
            require(all(isinstance(e, int) and e > 0 for e in powers.values()), "bad relation power")
            require(sum(powers.values()) <= max_factors, f"relation {poly} exceeds the syzygy degree")
            sides.append(tuple(
                sum(e * generators[g][i] for g, e in powers.items()) for i in range(variables)
            ))
        require(poly[0]["monomial"] != poly[1]["monomial"], f"relation {poly} is trivial")
        require(sides[0] == sides[1], f"relation {poly} does not balance")


def check_invariant_ring(task, result, references) -> None:
    problem = task.problem
    names = list(problem["base_vars"]) + list(problem["fiber_vars"])
    fiber_count = task.expect["fiber_count"]
    command = task.argv[0]
    if command == "invariants":
        entries = result["invariant_monomials"]
        vecs = [_monomial(names, e["monomial"], "invariant") for e in entries]
        require(vecs == task.expect["monomials"], "invariant monomials differ from the enumeration")
        for entry, vec in zip(entries, vecs):
            _check_l_degree(entry, vec, fiber_count, vec)
        return

    syzygy = int(task.argv[task.argv.index("--syzygy-degree") + 1])
    if command == "relations":
        entries = result["generators"]
        require([e["name"] for e in entries] == [f"g{i}" for i in range(len(entries))],
                "generator names are not g0, g1, ...")
        expected = task.expect["generators"]
    else:
        require(command == "quotient", f"unexpected subcommand {command}")
        entries = result["base_generators"] + result["proj_generators"]
        base_count = len(result["base_generators"])
        require([e["name"] for e in entries]
                == [f"T{i}" for i in range(base_count)]
                + [f"Z{i}" for i in range(len(entries) - base_count)],
                "quotient coordinate names are not T0.., Z0..")
        generators = task.expect["generators"]
        expected = [g for g in generators if not any(g[-fiber_count:])]
        expected += [g for g in generators if any(g[-fiber_count:])]
        require(all(e["l_degree"] == 0 for e in entries[:base_count]), "base coordinate of degree > 0")
        degrees = sorted(e["l_degree"] for e in entries[base_count:])
        parts = ([f"A^{base_count}"] if base_count else []) + (
            ["P(" + ",".join(map(str, degrees)) + ")"] if degrees else [])
        require(result["ambient"] == (" x ".join(parts) or "point"), "wrong ambient space")
        common = 0
        for d in degrees:
            common = gcd(common, d)
        require(result["veronese_divisor"] == (common if common > 1 else None),
                "wrong Veronese divisor")
    vecs = [_monomial(names, e["monomial"], "generator") for e in entries]
    require(vecs == expected, "minimal generators differ from the enumeration")
    for entry, vec in zip(entries, vecs):
        _check_l_degree(entry, vec, fiber_count, entry["name"])
    _check_relations(result["relations"], {e["name"]: v for e, v in zip(entries, vecs)},
                     len(names), syzygy)


# --- chain-sweep ------------------------------------------------------------


def check_chain_sweep(task, result, references) -> None:
    n, twists = task.expect["n"], task.expect["twists"]
    table = result["weight_table"]
    require(table["n"] == n and table["twists"] == twists, "weight table does not echo the input")
    expected = set(oracle.all_configurations(n))
    seen = set()
    for row in result["rows"]:
        vanishing, lengths = tuple(row["stratum"]), tuple(row["lengths"])
        key = (vanishing, lengths)
        require(key in expected and key not in seen, f"unexpected or repeated row {key}")
        seen.add(key)
        admissible = oracle.is_admissible(n, vanishing, lengths)
        require(row["admissible"] is admissible, f"row {key} misreports admissibility")
        verdict = row["verdict"]
        status = verdict["status"]
        require(status != SEMISTABLE, f"row {key} is strictly semistable")
        require((status == STABLE) == admissible, f"row {key}: {status} but admissible={admissible}")
        if status == STABLE:
            require(verdict["witness"] is None, f"stable row {key} has a witness")
            continue
        lam = _int_vector(verdict["witness"], n, "witness")
        require(oracle.chain_limit_exists(n, vanishing, lam), f"witness {lam} has no base limit")
        mu = oracle.chain_mu(n, twists, vanishing, lengths, lam)
        require(mu < 0 and verdict["witness_mu"] == str(mu), f"witness {lam} has weight {mu}")
    require(seen == expected, f"{len(expected - seen)} configurations missing")
    require(result["strictly_semistable_rows"] == 0 and result["equivalence_holds"] is True,
            "sweep summary disagrees with its rows")


CHECKS = {
    "pattern-table": check_pattern_table,
    "invariant-ring": check_invariant_ring,
    "chain-sweep": check_chain_sweep,
}


def check_output(workload: str, task, stdout: str, references: dict) -> str | None:
    """None when the task's output is right, else a description of the first fault."""
    try:
        report = json.loads(stdout)
        require(report["schema"] == "torstab-report/1", "unknown report schema")
        require(report["subcommand"] == task.argv[0], "report for another subcommand")
        CHECKS[workload](task, report["result"], references)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
