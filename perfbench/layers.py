"""Layer trace of one fbmwalk CLI run, taken from outside the program.

Run as a script, this wraps the module-level names that ``fbmwalk.cli``,
``fbmwalk.aggregate`` and ``fbmwalk.gaussian`` look up at call time, calls
``fbmwalk.cli.main`` with the remaining arguments, and writes the recorded
spans to a JSON file::

    python3 perfbench/layers.py SPANS.json generate --hurst 0.7 --out x.csv ...

The program's sources are untouched, so the traced run computes the same
bytes as an untraced one.  A wrapped name the program no longer defines is
recorded as absent, and every layer metric that needs it reads ``None``:
a later change that fuses layers still gets a trace from this file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

# Names each module looks up at call time; wrapping them there times the call
# as the program makes it.  ``kernels`` is the lane object, wrapped by a proxy.
WRAPPED = {
    "fbmwalk.aggregate": (
        "_draw_target",
        "solve_p_batch",
        "persistence_from_p",
        "n_step_correlation",
        "draw_persistence",
        "_walk_levels",
        "kernels",
        "standardized_levels",
        "_pairwise_sum",
    ),
    "fbmwalk.cli": (
        "generate_fbm",
        "_write_path_csv",
        "_read_path_csv",
        "estimate_report",
        "cholesky_fbm",
    ),
    "fbmwalk.gaussian": ("fgn_cholesky_factor",),
}


def _kernel_counts(args, kwargs, result) -> dict:
    # bytes computed from array sizes (inputs read once, levels written once);
    # cache misses are not counted
    arrays = [a for a in (*args, *kwargs.values(), result) if hasattr(a, "nbytes")]
    return {"steps": len(result), "bytes": sum(a.nbytes for a in arrays)}


def _write_counts(args, kwargs, result) -> dict:
    out = kwargs.get("out", args[0] if args else None)
    return {"bytes": os.path.getsize(out)}


COUNTERS = {"_write_path_csv": _write_counts}


class Tracer:
    """Records a span per wrapped call: name, start, end, parent span, counts.

    The parent is the innermost open span on the calling thread.  A call on a
    worker thread with no open span of its own is parented to the innermost
    open span of the thread that created the tracer, the one that dispatched
    the work.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list] = {}
        self._ids = itertools.count()  # next() is atomic, so no lock is needed
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            opener = stack or self._main
            parent = opener[-1] if opener else None
            index = next(self._ids)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.rows[index] = [name, start, end, parent, None]
            if counter is not None:
                self.rows[index][4] = counter(args, kwargs, result)
            return result

        return traced


class _KernelsProxy:
    """Stands in for the kernel lane object; each kernel call is a span."""

    def __init__(self, tracer: Tracer, lane) -> None:
        self._tracer = tracer
        self._lane = lane
        self._wrapped: dict = {}

    def __getattr__(self, attr: str):
        if attr not in self._wrapped:
            fn = getattr(self._lane, attr)
            self._wrapped[attr] = self._tracer.wrap(f"kernels.{attr}", fn, _kernel_counts)
        return self._wrapped[attr]


def install(tracer: Tracer, wrapped: dict = WRAPPED) -> list[str]:
    """Wrap every name in ``wrapped`` that exists; return the absent ones."""
    absent = []
    for module_name, names in wrapped.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.extend(names)
            continue
        for name in names:
            if not hasattr(module, name):
                absent.append(name)
            elif name == "kernels":
                module.kernels = _KernelsProxy(tracer, module.kernels)
            else:
                setattr(module, name, tracer.wrap(name, getattr(module, name), COUNTERS.get(name)))
    return absent


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Trace:
    """Spans of one or more traced processes, with the names found absent."""

    def __init__(self, spans: list[Span], absent) -> None:
        self.spans = spans
        self.absent = set(absent)
        self._children: dict[int, list[Span]] = {}
        # a span is found by its name and by its first dotted part, so
        # "kernels" finds every kernel span ("kernels.paper_levels", ...)
        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            if span.parent is not None:
                self._children.setdefault(span.parent, []).append(span)
            for key in {span.name, span.name.split(".", 1)[0]}:
                self._by_name.setdefault(key, []).append(i)

    @classmethod
    def load(cls, paths) -> "Trace":
        """Merge span files; parent indices are offset per file."""
        spans: list[Span] = []
        absent: set[str] = set()
        for path in paths:
            with open(path) as fh:
                doc = json.load(fh)
            base = len(spans)
            for name, start, end, parent, counts in doc["spans"]:
                spans.append(Span(name, start, end, None if parent is None else base + parent, counts))
            absent.update(doc["absent"])
        return cls(spans, absent)

    def _matching(self, names):
        found = sorted({i for name in names for i in self._by_name.get(name, ())})
        return [(i, self.spans[i]) for i in found]

    def busy(self, *names: str) -> float:
        """Summed span durations; spans on parallel threads add up."""
        return sum(s.duration for _, s in self._matching(names))

    def calls(self, *names: str) -> int:
        return len(self._matching(names))

    def count(self, key: str, *names: str) -> float:
        return sum((s.counts or {}).get(key, 0) for _, s in self._matching(names))

    def self_time(self, *names: str) -> float:
        """Span durations minus the part of each interval its children cover."""
        total = 0.0
        for i, span in self._matching(names):
            covered = [
                (max(c.start, span.start), min(c.end, span.end))
                for c in self._children.get(i, ())
                if c.end > span.start and c.start < span.end
            ]
            total += span.duration - _union_length(covered)
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# (metric, unit, wrapped names it needs, value from a Trace and the worker count)
LAYER_METRICS = (
    ("sampling.draw_target_s", "s", ("_draw_target",), lambda t, w: t.busy("_draw_target")),
    ("sampling.draw_target_calls", "count", ("_draw_target",), lambda t, w: t.calls("_draw_target")),
    ("sampling.solve_p_batch_s", "s", ("solve_p_batch",), lambda t, w: t.busy("solve_p_batch")),
    (
        "link.s",
        "s",
        ("persistence_from_p", "n_step_correlation"),
        lambda t, w: t.busy("persistence_from_p", "n_step_correlation"),
    ),
    ("walk.levels_s", "s", ("_walk_levels",), lambda t, w: t.busy("_walk_levels")),
    ("walk.kernel_s", "s", ("kernels",), lambda t, w: t.busy("kernels")),
    ("walk.rng_s", "s", ("_walk_levels", "kernels"), lambda t, w: t.self_time("_walk_levels")),
    (
        "walk.kernel_steps_per_s",
        "steps/s",
        ("kernels",),
        lambda t, w: _ratio(t.count("steps", "kernels"), t.busy("kernels")),
    ),
    ("walk.kernel_bytes_computed", "bytes", ("kernels",), lambda t, w: t.count("bytes", "kernels")),
    ("walk.draw_persistence_s", "s", ("draw_persistence",), lambda t, w: t.busy("draw_persistence")),
    ("aggregate.standardise_s", "s", ("standardized_levels",), lambda t, w: t.busy("standardized_levels")),
    ("aggregate.reduce_s", "s", ("_pairwise_sum",), lambda t, w: t.busy("_pairwise_sum")),
    ("aggregate.generate_fbm.self_s", "s", ("generate_fbm",), lambda t, w: t.self_time("generate_fbm")),
    (
        "aggregate.worker_busy_frac",
        "ratio",
        ("_walk_levels", "standardized_levels", "generate_fbm"),
        lambda t, w: _ratio(
            t.busy("_walk_levels", "standardized_levels"), w * t.busy("generate_fbm")
        ),
    ),
    ("cli.write_csv_s", "s", ("_write_path_csv",), lambda t, w: t.busy("_write_path_csv")),
    ("cli.write_bytes", "bytes", ("_write_path_csv",), lambda t, w: t.count("bytes", "_write_path_csv")),
    ("cli.read_csv_s", "s", ("_read_path_csv",), lambda t, w: t.busy("_read_path_csv")),
    ("estimators.estimate_report_s", "s", ("estimate_report",), lambda t, w: t.busy("estimate_report")),
    ("gaussian.factor_s", "s", ("fgn_cholesky_factor",), lambda t, w: t.busy("fgn_cholesky_factor")),
    ("gaussian.draw_s", "s", ("cholesky_fbm", "fgn_cholesky_factor"), lambda t, w: t.self_time("cholesky_fbm")),
)


def layer_metrics(trace: Trace, workers: int) -> dict:
    """Every LAYER_METRICS value; ``None`` where a needed name is absent."""
    return {
        name: None if trace.absent.intersection(needs) else value(trace, workers)
        for name, _, needs, value in LAYER_METRICS
    }


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    import fbmwalk.cli

    tracer = Tracer()
    absent = install(tracer)
    code = fbmwalk.cli.main(cli_args)
    with open(spans_out, "w") as fh:
        json.dump({"absent": absent, "spans": [tracer.rows[i] for i in sorted(tracer.rows)]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
