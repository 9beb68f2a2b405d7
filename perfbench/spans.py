"""In-memory spans around the calls the benchmark makes into each layer.

:func:`instrument` wraps a fixed list of the program's layer entry
points (cost-model pricing, scheduling, fusion planning, graph
recording, the kernel stage bodies, checkpoint I/O and the service
loop) for the lifetime of a ``with`` block and records one
:class:`Span` per call.  Nothing in ``src/`` changes: the wrappers are
installed on the imported modules and classes of this process only,
and removed on exit.  Spans stay in memory; :meth:`Recorder.dump`
writes them out when the benchmark ends.

A layer's *self time* is the sum, over its spans, of each span's
duration minus the part of it covered by child spans — so a cost-model
call inside a kernel launch is charged to ``costmodel`` and not also to
the launch's caller.

Some calls are only counted, not timed: every page-locality lookup
(``UsmAllocation.locality``) made inside a ``costmodel`` span is one
visit of the cost model's chunk walk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Recorder", "instrument"]


@dataclass
class Span:
    """One timed call: layer name, host start/end, parent span index."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.child_seconds


class Recorder:
    """Collects nested spans of a single-threaded run, plus counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.end - span.start

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span, None outside every span."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) \
                + span.self_seconds
        return totals

    def dump(self, path: str) -> None:
        """Write every span as ``{name, start, end, parent}`` JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": [{"name": s.name, "start": s.start,
                                  "end": s.end, "parent": s.parent}
                                 for s in self.spans],
                       "counts": self.counts}, handle)


def _wrap(recorder: Recorder, name: str, func, after=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, result)
        return result
    return wrapper


def _counter(recorder: Recorder, name: str, inside: str, func):
    """Count calls of ``func`` made while ``inside`` is the innermost
    open span; no span of their own."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if recorder.innermost() == inside:
            recorder.count(name)
        return func(*args, **kwargs)
    return wrapper


def _count_launch(recorder: Recorder, args, timing) -> None:
    recorder.count("costmodel.launches")
    recorder.count("costmodel.sim_memory_s", timing.memory_seconds)
    recorder.count("costmodel.sim_compute_s", timing.compute_seconds)


def _count_plan(recorder: Recorder, args, plan) -> None:
    recorder.count("graph.kernels_eliminated", plan.kernels_eliminated)


def _count_checkpoint(recorder: Recorder, args, path) -> None:
    recorder.count("checkpoint.saves")
    recorder.count("checkpoint.bytes_written", path.stat().st_size)


def _points():
    """(owner, attribute, layer, counter) for every wrapped entry point.

    Module-level functions are wrapped where the engines look them up
    (the importing module), methods on their defining class.
    """
    from repro.core import boris
    from repro.oneapi import costmodel, graph, runtime, scheduler
    from repro.pic import engine as pic_engine
    from repro.pic import fdtd, montecarlo, spectral
    from repro.resilience import checkpoint
    from repro.service import scheduler as service

    points = [
        (costmodel.CostModel, "time_launch", "costmodel", _count_launch),
        (graph.FusionPass, "plan", "graph.plan", _count_plan),
        (runtime.PushEngine, "record_graph", "graph.record", None),
        (pic_engine.PicEngine, "record_graph", "graph.record", None),
        (runtime, "sample_fields", "fields.eval", None),
        (runtime, "boris_push_precalculated", "core.push", None),
        (runtime, "boris_push_analytical", "core.push", None),
        (boris.BorisPusher, "push", "core.push", None),
        (pic_engine, "interpolate_from_yee_grid", "fields.gather", None),
        (pic_engine, "deposit_current_esirkepov", "pic.deposit", None),
        (pic_engine, "deposit_current_direct", "pic.deposit", None),
        (fdtd.FdtdSolver, "step", "pic.advance", None),
        (spectral.SpectralSolver, "step", "pic.advance", None),
        (montecarlo.CollisionOperator, "apply", "pic.mc", None),
        (montecarlo.IonizationOperator, "apply", "pic.mc", None),
        (checkpoint.Checkpointer, "save_push", "checkpoint.save",
         _count_checkpoint),
        (checkpoint.Checkpointer, "load_push", "checkpoint.restore", None),
        (service.PushService, "run", "service.run", None),
    ]
    for cls in (scheduler.StaticScheduler, scheduler.DynamicScheduler,
                scheduler.NumaArenaScheduler, scheduler.GpuScheduler):
        points.append((cls, "schedule", "scheduler", None))
    return points


def _counted_points():
    """(owner, attribute, counter, enclosing layer) of counted calls."""
    from repro.oneapi import memory

    return [(memory.UsmAllocation, "locality", "costmodel.chunk_visits",
             "costmodel")]


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Record spans around every layer entry point inside the block."""
    saved = []
    try:
        for owner, attribute, layer, after in _points():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, layer, original,
                                            after))
        for owner, attribute, counter, inside in _counted_points():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _counter(recorder, counter, inside,
                                               original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
