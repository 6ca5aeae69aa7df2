"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``paretoscan`` from the outside: a
function is replaced at every module that binds it by name (``relax``
imports ``as_objectives`` by name, so a wrapper on ``core`` alone would
miss its calls), and a method is replaced on every class that defines it.
Each call records a span (name, start, end, parent) in memory; a span's
self time is its duration minus the time its child spans cover.  Values a
counter needs from a call (a returned flag, the task and candidate of an
oracle call) are kept as the call returns and tallied after the scan.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

#: (layer name, module, attribute): functions wrapped at every binding.
FUNCTIONS = (
    ("core.validate", "paretoscan.core", "as_objectives"),
    ("core.validate", "paretoscan.core", "as_weights"),
    ("core.dominates", "paretoscan.core", "dominates"),
    ("qp.solve", "paretoscan.qp", "solve_qp"),
    ("qp.profile.nonuniformity", "paretoscan.qp", "nonuniformity"),
    ("qp.profile.anchor", "paretoscan.qp", "anchor_direction"),
    ("qp.profile.active", "paretoscan.qp", "active_index_set"),
    ("qp.project_simplex", "paretoscan.qp", "project_simplex"),
    ("relax.inner_descent", "paretoscan.relax", "inner_descent"),
    ("relax.discretize_select", "paretoscan.relax", "discretize_select"),
    ("metrics.hypervolume", "paretoscan.metrics", "hypervolume"),
    ("metrics.coverage", "paretoscan.metrics", "front_coverage"),
    ("search.front_scan", "paretoscan.search", "front_scan"),
    ("search.theory_diagnostics", "paretoscan.search", "theory_diagnostics"),
)

#: (layer name, module, base class, method): methods wrapped on the base
#: class and on every subclass that defines them.
METHODS = (
    ("core.archive.insert", "paretoscan.core", "ParetoArchive", "insert"),
    ("core.archive.merge", "paretoscan.core", "ParetoArchive", "merge"),
    ("tasks.relaxed_losses", "paretoscan.relax", "TaskContract", "relaxed_losses"),
    ("tasks.gradients", "paretoscan.relax", "TaskContract", "gradients"),
    ("tasks.clamp", "paretoscan.relax", "TaskContract", "clamp"),
    ("tasks.neighborhood", "paretoscan.relax", "TaskContract", "neighborhood_discretize"),
    ("tasks.oracle", "paretoscan.relax", "TaskContract", "eval_discrete"),
    ("net.train", "paretoscan.net", "DualPathNet", "train"),
    ("net.logits", "paretoscan.net", "DualPathNet", "logits"),
    ("net.input_gradients", "paretoscan.net", "DualPathNet", "input_gradients"),
)


def _keep_result(result, args, kwargs):
    return result


def _keep_oracle(result, args, kwargs):
    return args[0], args[1]  # (task, candidate)


#: Layers whose calls keep something for the counters.
KEEP = {
    "core.archive.insert": _keep_result,
    "qp.solve": _keep_result,
    "relax.inner_descent": _keep_result,
    "search.front_scan": _keep_result,
    "tasks.oracle": _keep_oracle,
}


class Tracer:
    """In-memory span recorder that wraps and later restores functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and tallies of the previous traced call."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        keep = KEEP.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.span_end[sid] = end
                tracer.self_s[idx] += duration - frame[1]
                tracer.calls[idx] += 1
                if stack:
                    stack[-1][1] += duration
            if keep is not None:
                tracer.kept[name].append(keep(result, args, kwargs))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the traced functions and methods."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "paretoscan" or name.startswith("paretoscan.")
        ]
        for layer, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for layer, module, base, method in METHODS:
            root = getattr(sys.modules[module], base)
            classes, todo = [], [root]
            while todo:
                cls = todo.pop()
                classes.append(cls)
                todo.extend(cls.__subclasses__())
            for cls in classes:
                fn = cls.__dict__.get(method)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._patch(cls, method, self.wrap(layer, fn))

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per wrapped name."""
        calls = {self.names[i]: n for i, n in self.calls.items()}
        self_s = {self.names[i]: s for i, s in self.self_s.items()}
        return calls, self_s

    def total_s(self, name: str) -> float:
        """Summed duration of the spans of ``name``, children included."""
        idx = self._index.get(name)
        return sum(
            end - start
            for n, start, end in zip(self.span_name, self.span_start, self.span_end)
            if n == idx
        )

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV: id, name, parent, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,parent,start,end\n")
            for sid in range(len(self.span_start)):
                out.write(
                    f"{sid},{self.names[self.span_name[sid]]},{self.span_parent[sid]},"
                    f"{self.span_start[sid]!r},{self.span_end[sid]!r}\n"
                )
