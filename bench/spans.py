"""Spans and counters recorded around lilbound's public entry points.

The recorder wraps a function under the name its caller looks it up by
(``setattr(module, attr, wrapper)``), so nothing under ``src/`` changes.
Each call becomes a span with a name, start, end, parent span and thread;
the parent is the innermost open span on the same thread, so a span's
self time (its duration minus its children's) is computed per thread.
Worker threads start with an empty stack: their spans have no parent and
are attributed by name.

``install`` wires the recorder into the package; ``totals`` sums the
spans into additive quantities (seconds, calls, words, ...), and
``layer_metrics`` turns summed totals into the per-layer metrics the
benchmark reports.  Only the standard library is used here, so the
benchmark's parent process can import this module without importing
lilbound.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child_s",
                 "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.info = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Keeps every span in memory until the traced operation ends."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()

    def wrap(self, name, fn, info=None):
        """fn timed as span ``name``; info(bound_args, result) -> dict."""
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if info:
                bound = signature.bind(*args, **kwargs).arguments
                span.info = info(bound, result)
            return result

        return traced

    def count(self, name, fn, when):
        """fn counted (no span) under ``name`` whenever when(*args) holds."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if when(*args, **kwargs):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, name, info=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), info))


def _words(per_step_words):
    def info(a, _):
        return {"words": (a["path_hi"] - a["path_lo"])
                * per_step_words(a["n_steps"])}
    return info


def install(rec: Recorder) -> None:
    """Wrap lilbound's layer entry points, each under its caller's name."""
    from lilbound import cli, engine, models, phi, verify

    rec.patch(models, "rademacher_block", "rng.block",
              _words(lambda n: (n + 63) // 64))
    rec.patch(models, "uniform_symmetric_block", "rng.block",
              _words(lambda n: n))
    rec.patch(engine, "block_sum", "engine.block_sum",
              lambda a, r: {"converged": int(r.converged)})
    rec.patch(engine, "conjugate_many", "phi.conjugate_many",
              lambda a, r: {"points": int(getattr(a["u"], "size", 1))})
    phi.conjugate = rec.count(
        "phi.scalar_solves", phi.conjugate,
        lambda f, u, *rest, **kw: f.analytic_conjugate is None and u != 0)
    for module in (verify, cli):
        rec.patch(module, "optimized_bound", "engine.optimized_bound")
    rec.patch(cli, "empirical_sup_tail", "verify.empirical_sup_tail")
    rec.patch(cli, "exact_sup_tail", "verify.exact_sup_tail",
              lambda a, r: {"paths": 2 ** a["horizon"]})
    rec.patch(cli, "calibrate_constant", "verify.calibrate_constant")
    rec.patch(cli, "single_time_tail", "verify.single_time_tail")
    rec.patch(verify, "_chunk_maxima", "verify.chunk")
    rec.patch(cli, "_resolve", "cli.resolve")
    rec.patch(cli, "_atomic_write", "cli.write",
              lambda a, r: {"bytes": len(a["text"].encode("utf-8"))})

    prefix_info = (lambda a, r:
                   {"steps": int(a["noise_block"].shape[0]
                                 * a["noise_block"].shape[1])})
    model_from_id = cli.model_from_id

    def traced_model(model_id):
        model = model_from_id(model_id)
        return dataclasses.replace(
            model, prefix_values=rec.wrap("models.prefix_values",
                                          model.prefix_values, prefix_info))

    cli.model_from_id = traced_model


def totals(rec: Recorder, workers: int) -> dict:
    """Additive per-layer quantities of one traced operation.

    workers is the simulation's thread cap; worker utilization is chunk
    busy time over the simulation's wall time times the threads it could
    use.
    """
    out = defaultdict(float)

    def add(key, value):
        out[key] += value

    for s in rec.spans:
        n = s.name
        if n == "rng.block":
            add("rng.block_calls", 1)
            add("rng.block_s", s.duration)
            add("rng.words", s.info["words"])
        elif n == "models.prefix_values":
            add("models.prefix_values_calls", 1)
            add("models.prefix_values_s", s.duration)
            add("models.path_steps", s.info["steps"])
        elif n == "verify.chunk":
            add("verify.reduce_self_s", s.self_s)
            add("verify.chunk_busy_s", s.duration)
        elif n == "verify.empirical_sup_tail":
            add("verify.empirical_sup_tail_s", s.duration)
        elif n == "verify.exact_sup_tail":
            add("verify.exact_sup_tail_s", s.duration)
            add("verify.enumerated_paths", s.info["paths"])
        elif n == "verify.calibrate_constant":
            add("verify.calibrate_s", s.duration)
        elif n == "verify.single_time_tail":
            add("verify.single_time_s", s.duration)
        elif n == "engine.optimized_bound":
            add("engine.optimized_bound_calls", 1)
            add("engine.optimized_bound_s", s.duration)
            if s.parent is not None and \
                    s.parent.name == "verify.calibrate_constant":
                add("verify.calibrate_bound_calls", 1)
        elif n == "engine.block_sum":
            add("engine.block_sum_calls", 1)
            add("engine.block_sum_s", s.duration)
            add("engine.block_sum_self_s", s.self_s)
            add("engine.certified_block_sums", s.info["converged"])
        elif n == "phi.conjugate_many":
            add("phi.conjugate_many_calls", 1)
            add("phi.conjugate_many_s", s.duration)
            add("phi.conjugate_points", s.info["points"])
        elif n == "cli.resolve":
            add("cli.resolve_s", s.duration)
        elif n == "cli.write":
            add("cli.write_s", s.duration)
            add("cli.write_bytes", s.info["bytes"])
    for key, value in rec.counts.items():
        add(key, value)
    # one simulation per operation: its chunks share its worker pool
    chunks = sum(1 for s in rec.spans if s.name == "verify.chunk")
    out["verify.worker_capacity_s"] = (out["verify.empirical_sup_tail_s"]
                                       * max(1, min(workers, chunks)))
    return dict(out)


#: per-layer metric name -> (unit, better); the order is the print order
LAYER_METRICS = {
    "rng.block_calls": ("count", "lower"),
    "rng.block_s": ("s", "lower"),
    "rng.words": ("count", "lower"),
    "rng.words_per_s": ("1/s", "higher"),
    "models.prefix_values_calls": ("count", "lower"),
    "models.prefix_values_s": ("s", "lower"),
    "models.path_steps": ("count", "lower"),
    "models.path_steps_per_s": ("1/s", "higher"),
    "verify.empirical_sup_tail_s": ("s", "lower"),
    "verify.reduce_self_s": ("s", "lower"),
    "verify.worker_utilization": ("fraction", "higher"),
    "verify.exact_sup_tail_s": ("s", "lower"),
    "verify.enumerated_paths": ("count", "lower"),
    "verify.calibrate_s": ("s", "lower"),
    "verify.calibrate_bound_calls": ("count", "lower"),
    "verify.single_time_s": ("s", "lower"),
    "engine.optimized_bound_calls": ("count", "lower"),
    "engine.optimized_bound_s": ("s", "lower"),
    "engine.block_sum_calls": ("count", "lower"),
    "engine.block_sum_s": ("s", "lower"),
    "engine.block_sum_self_s": ("s", "lower"),
    "engine.certified_frac": ("fraction", "higher"),
    "phi.conjugate_many_calls": ("count", "lower"),
    "phi.conjugate_many_s": ("s", "lower"),
    "phi.conjugate_points": ("count", "lower"),
    "phi.scalar_solves": ("count", "lower"),
    "cli.resolve_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.write_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(t: dict, overhead_s: float) -> dict:
    """Per-layer metrics from summed totals; counts stay exact integers."""
    m = {}
    for name, (unit, _) in LAYER_METRICS.items():
        value = t.get(name, 0.0)
        m[name] = int(round(value)) if unit in ("count", "bytes") else value
    m["rng.words_per_s"] = _ratio(t.get("rng.words", 0),
                                  t.get("rng.block_s", 0))
    m["models.path_steps_per_s"] = _ratio(t.get("models.path_steps", 0),
                                          t.get("models.prefix_values_s", 0))
    m["verify.worker_utilization"] = _ratio(
        t.get("verify.chunk_busy_s", 0), t.get("verify.worker_capacity_s", 0))
    m["engine.certified_frac"] = _ratio(t.get("engine.certified_block_sums", 0),
                                        t.get("engine.block_sum_calls", 0))
    m["trace.overhead_s"] = overhead_s
    return m
