#!/usr/bin/env python3
"""Rebuild references.json: pattern-table statuses for the default seeds.

    python3 bench/references.py

For every problem in the pattern-table pools of DEFAULT_SEEDS this runs
`torstab patterns`, validates the report (every witness substituted back),
and cross-checks each status against the box-scan oracle in oracle.py:

* a box certificate of instability must meet an unstable verdict;
* a box certificate of weight 0 must meet a strictly semistable verdict, or
  an unstable one;
* where the box holds no certificate that the program's verdict has, the
  program's witness must lie outside the box (it was checked by substitution).

Only then is the problem's status digest stored, keyed by the digest of the
problem file, so a changed generator simply finds no reference.  Run it
again whenever workloads.py changes the pattern-table inputs.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import checks
import oracle
import run
import workloads

DEFAULT_SEEDS = range(11)
BOX_BOUND = {1: 12, 2: 8, 3: 6, 4: 4}

RANK_ORDER = {oracle.STABLE: 0, oracle.SEMISTABLE: 1, oracle.UNSTABLE: 2}


def cross_check(problem, report, statuses):
    """Return how many patterns the box could not confirm; raise on a contradiction."""
    rank = problem["torus_rank"]
    bound = BOX_BOUND[rank]
    base, fiber = list(problem["base_vars"].values()), list(problem["fiber_vars"].values())
    box = oracle.box_statuses(rank, base, fiber, bound)
    witnesses = {}
    for row in report["result"]["rows"]:
        key = (checks.support_mask(list(problem["base_vars"]), row["base"], "base"),
               checks.support_mask(list(problem["fiber_vars"]), row["fiber"], "fiber"))
        witnesses[key] = row["verdict"]["witness"]
    unconfirmed = 0
    for key, status in statuses.items():
        found = box[key]
        if RANK_ORDER[found] > RANK_ORDER[status]:
            raise SystemExit(f"oracle contradicts {status} at {key}: box finds {found}\n{problem}")
        if found != status:
            if max(abs(x) for x in witnesses[key]) <= bound:
                raise SystemExit(f"witness inside the box was missed at {key}\n{problem}")
            unconfirmed += 1
    return unconfirmed


def main() -> int:
    cli = run.import_cli()
    workload = workloads.WORKLOADS["pattern-table"]
    references = {}
    patterns = unconfirmed = 0
    workdir = run.BENCH / "_work" / "references"
    for seed in DEFAULT_SEEDS:
        workdir.mkdir(parents=True)
        try:
            pool = workloads.build_pool(workload, seed, workdir)
            for task in pool:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(list(task.argv))
                if code != 0:
                    raise SystemExit(f"seed {seed} task {task.index}: exit code {code}")
                report = json.loads(out.getvalue())
                statuses = checks.pattern_statuses(task.problem, report["result"])
                unconfirmed += cross_check(task.problem, report, statuses)
                patterns += len(statuses)
                references[checks.problem_digest(task.problem)] = checks.status_digest(statuses)
        finally:
            shutil.rmtree(workdir)
        print(f"seed {seed}: {len(pool)} problems checked", file=sys.stderr)
    data = {"pattern-table": dict(sorted(references.items()))}
    run.REFERENCES.write_text(json.dumps(data, indent=0) + "\n")
    print(f"{len(references)} problems, {patterns} patterns; {unconfirmed} patterns had "
          f"their witness outside the box and rest on substitution alone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
