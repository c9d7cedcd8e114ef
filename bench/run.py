#!/usr/bin/env python3
"""Benchmark for the torstab command line, run from the repository root.

    python3 bench/run.py --workload pattern-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --report --seed 1   # every workload, untraced and traced
    python3 bench/run.py --self-test         # tiny runs and a corrupted-output check

One run serves one workload in its own process.  Each task is one
in-process `torstab.cli.main(argv)` call with stdout and stderr captured, so
problem-file parsing, the decision layers and JSON rendering are timed as one
piece.  Tasks run as a closed loop with one client: the next task starts
when the previous one has returned and its output has been checked.  Every
output is checked (see checks.py); a task that exits non-zero, runs past the
per-task budget or fails its check counts as failed.

With --trace 0 the run reports the end-to-end metrics: set-up time (median
over fresh interpreters importing torstab.cli and parsing every generated
problem file), tasks per second, p50/p90 task latency and peak resident
memory.  Times are CPU times scaled to the reference speed of
calibration.py, so that they do not follow the shared host's speed; the
host's speed over the run is printed as host_speed.  With --trace 1 it
runs a fixed prefix of the pool, each task untraced and then traced (see
tracing.py), and reports per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit
and sample count, failed_share and host_speed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import calibration  # noqa: E402  (the bench directory is sys.path[0])
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TASK_BUDGET_S = 20.0  # over ten times the slowest task seen in probes (about 1.5 s)
MIN_TASKS = 100  # so that at least ten timed tasks lie beyond p90
SETUP_SAMPLES = 15  # fresh-interpreter set-up samples, reported as their median
WARMUP_TASKS = 3
RUN_LIMIT_S = 150.0  # stop issuing tasks after this much wall time
REFERENCES = BENCH / "references.json"

SETUP_CHILD = """\
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import torstab.cli
from torstab import parse_problem
for path in sorted(Path(sys.argv[2]).glob("*.json")):
    parse_problem(path.read_text(encoding="utf-8"))
print(time.process_time() - start)
"""


class TaskTimeout(BaseException):
    """Raised inside a task that outlives its budget; torstab never catches it."""


class Budget:
    """Per-task wall-clock budget from SIGALRM: no thread or process per task."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.active = False
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, signum, frame):
        if self.active:
            self.active = False
            raise TaskTimeout()

    def start(self):
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def stop(self):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Runs tasks of one workload and records their outcome."""

    def __init__(self, cli, workload, references, budget):
        self.cli = cli
        self.workload = workload
        self.references = references
        self.budget = budget
        self.attempted = 0
        self.failed = 0
        self.last_output_bytes = 0
        self.checked: dict[int, bytes] = {}  # task index -> digest of its checked output

    def run(self, task) -> tuple[float, float]:
        """Run and check one task; return its wall and CPU time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        fault = None
        cpu_start = time.process_time()
        start = time.perf_counter()
        self.budget.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(task.argv))
            self.budget.active = False
            elapsed = time.perf_counter() - start
            if code != 0:
                fault = f"exit code {code}: {err.getvalue().strip()[:300]}"
        except TaskTimeout:
            elapsed = time.perf_counter() - start
            fault = f"over the {self.budget.seconds:g} s budget"
        except Exception:  # a crash in the program is a failed task, not a failed run
            elapsed = time.perf_counter() - start
            fault = "raised\n" + traceback.format_exc()
        finally:
            self.budget.stop()
        cpu = time.process_time() - cpu_start
        data = out.getvalue().encode()
        self.last_output_bytes = len(data)
        if fault is None:
            # Reports are byte-identical across runs, so a repeat that matches
            # an output already checked needs no second check.
            digest = hashlib.sha256(data).digest()
            if self.checked.get(task.index) != digest:
                fault = checks.check_output(self.workload.name, task, data.decode(), self.references)
                if fault is None:
                    self.checked[task.index] = digest
        self.attempted += 1
        if fault is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"task {task.index} ({task.kind}) failed: {fault}\n  argv: {task.argv}",
                      file=sys.stderr)
        return elapsed, cpu


def import_cli():
    """Import torstab.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "torstab" / "__init__.py").is_file():
        sys.exit(f"error: no torstab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import torstab.cli

    if Path(torstab.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported torstab from {torstab.cli.__file__}, not from {SRC}")
    return torstab.cli


def load_references(workload_name: str) -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text()).get(workload_name, {})


def measure_setup(workdir: Path) -> float:
    """CPU seconds to import torstab.cli and parse every problem file in a fresh interpreter.

    This process has already imported torstab, so the bytecode cache is warm.
    """
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def end_to_end(runner, pool, workdir, args, deadline):
    """Time whole rounds of the pool for --seconds, at reference speed.

    Each task is timed by the CPU time of this process, which leaves out
    the time the host gives the CPU to others, and the reference kernel
    (calibration.py) is timed before and after it.  A task's reported time
    is its CPU time scaled by REFERENCE_S / (median of the six reference
    samples nearest to it): the host's speed drifts by a quarter or more
    within seconds, and the kernel drifts with it.  Set-up samples are
    scaled the same way and reported as their median.
    """
    tiny = args.tiny
    for task in pool[:WARMUP_TASKS]:
        runner.run(task)
    failed_before = runner.failed
    setup = []
    for _ in range(SETUP_SAMPLES):
        before = calibration.sample()
        seconds = measure_setup(workdir)
        setup.append(seconds * calibration.REFERENCE_S / statistics.median(
            [before, calibration.sample(), calibration.sample()]))
    round_len = 1 if tiny else len(runner.workload.slots)
    cpu, refs = [], [calibration.sample()]
    stop = time.monotonic() + args.seconds
    while (time.monotonic() < stop or len(cpu) < (5 if tiny else MIN_TASKS)
           or len(cpu) % round_len) and time.monotonic() < deadline:
        cpu.append(runner.run(pool[len(cpu) % len(pool)])[1])
        refs.append(calibration.sample())
    # refs[i] was taken just before task i and refs[i + 1] just after it.
    latencies = [seconds * calibration.REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 4])
                 for i, seconds in enumerate(cpu)]
    completed = len(latencies) if runner.failed == failed_before else 0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "tasks_per_s": (completed / sum(latencies), "1/s", len(latencies)),
        "task_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "task_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
                        "ms", len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {
        "failed_share": (runner.failed / runner.attempted, "ratio", runner.attempted),
        "host_speed": (calibration.REFERENCE_S / statistics.median(refs), "ratio", len(refs)),
    }
    return metrics, extra


def per_layer(runner, pool, args, deadline):
    """Run a fixed prefix of the pool, each task untraced and then traced."""
    count = 4 if args.tiny else runner.workload.trace_rounds * len(runner.workload.slots)
    sample = pool[:count]
    for task in pool[:WARMUP_TASKS]:
        runner.run(task)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    traced_bytes = 0
    for task in sample:
        if time.monotonic() >= deadline:
            break
        untraced += runner.run(task)[0]
        tracer.task = task.index
        tracer.install()
        try:
            traced += runner.run(task)[0]
        finally:
            tracer.remove()
        traced_bytes += runner.last_output_bytes
    totals = tracer.layer_totals()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tracer.write(results / f"trace-{args.workload}-seed{args.seed}.json.gz")

    self_s, calls, per_name = totals["self_s"], totals["calls"], totals["per_name"]
    counts = tracer.counts
    solves = per_name["solve_cone"]
    configs = per_name["classify_config"]
    candidates = counts["invariants.candidates"]
    metrics = {}
    for layer in ("cones", "classify", "mu", "invariants", "snf", "degeneration", "model"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics.update({
        "cones.solves": (solves, "count"),
        "cones.feasible_ratio": (counts["cones.feasible"] / solves if solves else 0.0, "ratio"),
        "cones.rows_max": (tracer.rows_max, "rows"),
        "cones.witness_bits_max": (tracer.witness_bits_max, "bits"),
        "classify.patterns": (per_name["classify_pattern"], "count"),
        "invariants.monomials": (counts["invariants.monomials"], "count"),
        "invariants.generators": (counts["invariants.generators"], "count"),
        "invariants.candidates": (candidates, "count"),
        "invariants.relation_yield": (
            counts["invariants.relations"] / candidates if candidates else 0.0, "ratio"),
        "snf.lattice_adds": (per_name["IntegerLattice.add"], "count"),
        "degeneration.configs": (configs, "count"),
        "degeneration.cone_calls_per_config": (
            totals["degeneration_solves"] / configs if configs else 0.0, "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "report.self_s": (self_s.get("report", 0.0), "s"),
        "report.bytes": (traced_bytes, "bytes"),
        "trace.tasks": (len(sample), "count"),
        "trace.task_s": (traced, "s"),
        "trace.self_sum_share": (sum(self_s.values()) / traced, "ratio"),
        "trace.overhead_share": (traced / untraced - 1, "ratio"),
    })
    # Layers without a metric of their own still count towards the sum.
    extra = {f"{layer}.self_s": (seconds, "s", len(sample))
             for layer, seconds in sorted(self_s.items()) if f"{layer}.self_s" not in metrics}
    return {k: (v, u, len(sample)) for k, (v, u) in metrics.items()}, extra


def print_table(title, metrics, extra):
    print(title)
    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"  {name:38s} {value:>16.6g} {unit:7s} n={samples}")


def run_workload(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    cli = import_cli()
    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool = workloads.build_pool(workload, args.seed, workdir, 1 if args.tiny else workloads.ROUNDS)
        runner = Runner(cli, workload, load_references(args.workload), Budget(TASK_BUDGET_S))
        if args.trace:
            metrics, extra = per_layer(runner, pool, args, deadline)
        else:
            metrics, extra = end_to_end(runner, pool, workdir, args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{args.workload} seed={args.seed} {kind}: {runner.attempted} tasks, "
                f"{runner.failed} failed", metrics, extra)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def child_run(workload, seed, seconds, trace, tiny=False):
    """Run one workload in its own process; return its stdout lines."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited with {done.returncode}")
    return done.stdout.splitlines()


def report(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            lines = child_run(name, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
    return 0


def self_test(args) -> int:
    """Tiny runs must emit every declared metric with its unit; a corrupted
    output must be counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = json.loads(child_run(name, 1, 0.5, trace, tiny=True)[-1])
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != declared {want}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} failed")
    problems += corruption_test()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _corrupt(workload, report):
    """Break one fact in a correct report, differently for each workload."""
    result = report["result"]
    if workload == "pattern-table":
        row = next(r for r in result["rows"] if r["verdict"]["status"] == "unstable")
        row["verdict"]["witness"] = [-x for x in row["verdict"]["witness"]]
    elif workload == "invariant-ring":
        key = "invariant_monomials" if "invariant_monomials" in result else "generators"
        monomial = result[key][-1]["monomial"]
        monomial[next(iter(monomial))] += 1
    else:
        n = result["weight_table"]["n"]
        row = next(r for r in result["rows"] if r["verdict"]["status"] == "stable")
        row["verdict"] = {"status": "unstable", "witness": [1] * n, "witness_mu": "-1"}
    return json.dumps(report)


class _Replay:
    """Stands in for torstab.cli and prints a fixed report."""

    def __init__(self, text):
        self.text = text

    def main(self, argv):
        sys.stdout.write(self.text)
        return 0


def corruption_test():
    """The first task of each workload passes; its corrupted report fails."""
    problems = []
    cli = import_cli()
    budget = Budget(TASK_BUDGET_S)
    for name, workload in workloads.WORKLOADS.items():
        workdir = BENCH / "_work" / f"selftest-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            task = workloads.build_pool(workload, 1, workdir, 1)[0]
            references = load_references(name)
            if name == "pattern-table" and checks.problem_digest(task.problem) not in references:
                problems.append("pattern-table: no reference for seed 1; run references.py")
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                cli.main(list(task.argv))
            for text, want in ((out.getvalue(), 0), (_corrupt(name, json.loads(out.getvalue())), 1)):
                runner = Runner(_Replay(text), workload, references, budget)
                with redirect_stderr(io.StringIO()):  # the expected failure report
                    runner.run(task)
                if runner.failed != want:
                    problems.append(f"{name}: {'corrupted' if want else 'correct'} report "
                                    f"counted {runner.failed} failed")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one-round pool (self-test size)")
    parser.add_argument("--report", action="store_true", help="run every workload, both modes")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload, --report or --self-test is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
