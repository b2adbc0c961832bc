"""Traced run: spans around every public mesocat function, recorded from outside.

`Tracer` wraps each public function of the eight layer modules on every
`mesocat` namespace that binds it.  Rebinding only the defining module
would miss calls made through names imported elsewhere: `protocol` imports
`expectation` and `bath` imports `overlap` by name.  Each wrapped call
becomes a span with its start, end, parent span and thread.  The current
span lives in a context variable, and pools built by the program copy the
submitter's context into their tasks, so a grid time evaluated on a worker
thread still has its runner span as parent.

`coherent.overlap` is counted but not timed: it is the scalar leaf called
about 270k times per `compare-cat` call, and a span per call would cost
more than the call.  Its time stays inside its callers' spans.

Spans are kept in memory while a call runs and analysed after it ends.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("config", "cli", "runner", "protocol", "coherent", "bath", "lindblad", "fock")
COUNT_ONLY = frozenset({"coherent.overlap"})

#: Inclusive busy time (summed over threads) is reported as `<name>_s`.
TIMED = (
    "config.load_scenario",
    "coherent.reduce",
    "coherent.occupations",
    "coherent.eigenvalues",
    "coherent.expectation",
    "coherent.purity",
    "bath.discretize_flat_band",
    "bath.evolve",
    "bath.propagate",
    "bath.gamma_b",
    "protocol.prepare",
    "protocol.conditional_probabilities",
    "lindblad.me_reduce",
    "fock.lindblad_evolve",
    "fock.fock_measure",
)
#: Self time, the part of a layer's spans its children do not cover, is
#: reported as `<layer>.self_s` for the layers whose own code is glue:
#: the CLI's write and read-back audit, the runner's row building and pools.
SELF_TIMED = ("cli", "runner")
#: Call counts are reported as `<name>_calls`.
CALLED = (
    "coherent.overlap",
    "coherent.reduce",
    "coherent.eigenvalues",
    "bath.propagate",
    "protocol.measurement_product",
    "lindblad.me_dyad_factor",
    "fock.lindblad_evolve",
)

PER_LAYER = (
    [("trace.run_s", "s", "lower"), ("trace.untraced_run_s", "s", "lower")]
    + [(f"{name}_s", "s", "lower") for name in TIMED]
    + [(f"{name}_calls", "count", "lower") for name in CALLED]
    + [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIMED]
    + [("bath.propagate_first_s", "s", "lower"), ("runner.threads_peak", "count", "lower")]
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    threads: int  # threading.active_count() at entry
    band: int | None  # bath.propagate at t > 0: id of the band it propagates


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Install with `start()`, run one call, collect its spans with `stop()`."""

    def __init__(self):
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._ids = itertools.count()
        self._spans: list[Span] = []
        self._counters: dict[str, itertools.count] = {}
        self._bands: dict[int, object] = {}
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mesocat.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._spanned
                wrappers[value] = wrap(value, name)
        self._patches = []
        for modname, module in list(sys.modules.items()):
            if modname != "mesocat" and not modname.startswith("mesocat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is concurrent.futures.ThreadPoolExecutor:
                    self._patches.append((module, attr, value, _ContextPool))
                elif inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value, wrappers[value]))

    def start(self) -> None:
        self._spans = []
        self._counters = {name: itertools.count() for name in COUNT_ONLY}
        self._bands = {}
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def stop(self) -> tuple[list[Span], dict[str, int]]:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        counts = {name: next(counter) for name, counter in self._counters.items()}
        self._bands = {}
        return self._spans, counts

    def _band(self, args, kwargs) -> int | None:
        spec = args[0] if args else kwargs["spec"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        if not t > 0.0:
            return None
        self._bands[id(spec)] = spec  # keeps the id unique for the whole call
        return id(spec)

    def _spanned(self, fn, name: str):
        current, ids = self._current, self._ids
        band = self._band if name == "bath.propagate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            threads = threading.active_count()
            tag = band(args, kwargs) if band else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                self._spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), threads, tag)
                )

        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(self._counters[name])
            return fn(*args, **kwargs)

        return counted


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced call (everything in PER_LAYER but trace.*).

    A span's self time is its duration minus the part covered by the union
    of its children's intervals, whichever threads the children ran on.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    busy, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    first_per_band: dict[int, Span] = {}
    for span in spans:
        duration = span.end - span.start
        busy[span.name] += duration
        calls[span.name] += 1
        layer = span.name.split(".", 1)[0]
        if layer in SELF_TIMED:
            self_time[layer] += duration - _covered(span.start, span.end, children[span.sid])
        if span.band is not None:
            known = first_per_band.get(span.band)
            if known is None or span.start < known.start:
                first_per_band[span.band] = span
    calls.update(counts)
    metrics = {f"{name}_s": busy[name] for name in TIMED}
    metrics.update({f"{name}_calls": calls[name] for name in CALLED})
    metrics.update({f"{layer}.self_s": self_time[layer] for layer in SELF_TIMED})
    metrics["bath.propagate_first_s"] = sum(s.end - s.start for s in first_per_band.values())
    metrics["runner.threads_peak"] = max((s.threads for s in spans), default=0)
    return metrics


def write_spans(path, spans: list[Span], origin: float) -> None:
    """Columnar JSON of one call's spans; times in seconds from `origin`."""
    spans = sorted(spans, key=lambda s: s.start)
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in spans))}
    doc = {
        "id": [s.sid for s in spans],
        "name": [s.name for s in spans],
        "start_s": [round(s.start - origin, 9) for s in spans],
        "end_s": [round(s.end - origin, 9) for s in spans],
        "parent": [s.parent for s in spans],
        "thread": [threads[s.thread] for s in spans],
        "active_threads": [s.threads for s in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
