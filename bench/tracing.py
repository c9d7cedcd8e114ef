"""Spans around calls into torstab's layers, recorded from outside the package.

A layer is a module of ``src/torstab``.  `Tracer.install` replaces every
public function of every torstab module, in every torstab namespace that
holds a reference to it, with a wrapper that records a span; the public
methods of `IntegerLattice` are wrapped on the class.  Two private helpers
are hooked without spans to count work the public surface does not show:
rows per Fourier-Motzkin stage (`cones._eliminate`) and generator products
tried (`invariants._expand`).  `Tracer.remove` restores the originals.

Spans live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

WRAPPED_CLASSES = (("torstab.snf", "IntegerLattice"),)


def _torstab_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "torstab" or n.startswith("torstab.")]


def _bits(vector) -> int:
    return max((abs(x).bit_length() for x in vector), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # qualified function names, by id
        self.layers: list[str] = []  # layer of each name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.task = -1
        self.counts: Counter = Counter()
        self.rows_max = 0
        self.witness_bits_max = 0
        self.patches = self._plan()

    # --- installation -----------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch."""
        plan = []
        modules = _torstab_modules()
        for origin in modules:
            layer = origin.__name__.rpartition(".")[2]
            for attr, fn in list(vars(origin).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != origin.__name__:
                    continue
                wrapper = self._wrap(layer, attr, fn)
                for namespace in modules:
                    for key, value in vars(namespace).items():
                        if value is fn:
                            plan.append((namespace, key, fn, wrapper))
        for module_name, class_name in WRAPPED_CLASSES:
            cls = getattr(sys.modules[module_name], class_name)
            layer = module_name.rpartition(".")[2]
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    plan.append((cls, attr, fn, self._wrap(layer, f"{class_name}.{attr}", fn)))
        cones = sys.modules["torstab.cones"]
        if hasattr(cones, "_eliminate"):
            plan.append((cones, "_eliminate", cones._eliminate,
                         self._hook_eliminate(cones._eliminate)))
        invariants = sys.modules["torstab.invariants"]
        if hasattr(invariants, "_expand"):
            plan.append((invariants, "_expand", invariants._expand,
                         self._hook_expand(invariants._expand)))
        return plan

    def install(self) -> None:
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        observe = {
            "solve_cone": self._observe_solve,
            "invariant_monomials": self._observe_len("invariants.monomials"),
            "minimal_generators": self._observe_len("invariants.generators"),
            "relations": self._observe_len("invariants.relations"),
        }.get(name)
        stack = self.stack
        span_name, span_parent = self.span_name, self.span_parent
        span_task, span_start, span_end = self.span_task, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_task.append(self.task)
            span_end.append(0)
            stack.append(index)
            span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # --- counters read from arguments and results -------------------------

    def _observe_solve(self, args, result) -> None:
        problem = args[0]
        self.rows_max = max(self.rows_max, len(problem.nonneg_rows) + len(problem.strict_rows))
        if result.feasible:
            self.counts["cones.feasible"] += 1
            self.witness_bits_max = max(self.witness_bits_max, _bits(result.witness))

    def _observe_len(self, key):
        def observe(args, result):
            self.counts[key] += len(result)

        return observe

    def _hook_eliminate(self, fn):
        @functools.wraps(fn)
        def hooked(rows, j):
            out = fn(rows, j)
            self.rows_max = max(self.rows_max, len(out))
            return out

        return hooked

    def _hook_expand(self, fn):
        @functools.wraps(fn)
        def hooked(*args):
            self.counts["invariants.candidates"] += 1
            return fn(*args)

        return hooked

    # --- aggregation ------------------------------------------------------

    def layer_totals(self):
        """Per layer: self seconds and calls entered from another layer.

        Also per function name: span count.  A span's self time is its
        duration minus the durations of its direct children, so the self
        times of all spans add up to the durations of the root spans.
        """
        n = len(self.span_name)
        name_of, layers = self.span_name, self.layers
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        per_name: Counter = Counter()
        under_degeneration = 0
        for i in range(n):
            layer = layers[name_of[i]]
            name = self.names[name_of[i]]
            self_ns[layer] += end[i] - start[i] - child_ns[i]
            per_name[name] += 1
            p = parent[i]
            if p < 0 or layers[name_of[p]] != layer:
                calls[layer] += 1
            if name == "solve_cone":
                while p >= 0 and layers[name_of[p]] != "degeneration":
                    p = parent[p]
                under_degeneration += p >= 0
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "calls": calls,
            "per_name": per_name,
            "degeneration_solves": under_degeneration,
        }

    def write(self, path) -> None:
        """Write every span as columns of a gzip-compressed JSON object."""
        data = {
            "names": self.names,
            "layers": self.layers,
            "columns": ["name", "start_ns", "end_ns", "parent", "task"],
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "task": self.span_task.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
