"""Structured tracing and profiling for the simulated oneAPI stack.

The paper's results are *timing* claims — NSPS tables, a scaling
figure, a "first iteration is ~50% slower" observation.  This package
is the measurement substrate that lets you see where modelled and real
time go inside a run, the way VTune or ``sycl::event`` profiling would
on real oneAPI hardware:

* :mod:`~repro.observability.tracer` — the :class:`Tracer`: nestable
  wall-clock spans, instants and counters, a simulated-timeline event
  stream, and the process-wide no-op-by-default hook
  (:func:`tracing` / :func:`active_tracer`) that the instrumented
  runtime reports into.  Untraced runs pay a single ``None`` check per
  instrumentation site;
* :mod:`~repro.observability.counters` — per-kernel accumulators
  (launches, flops, bytes, modelled vs. wall seconds, JIT and
  first-touch penalties) keyed by the same kernel names
  :mod:`repro.oneapi.roofline` analyses;
* :mod:`~repro.observability.export` — Chrome ``trace_event`` JSON
  export, loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
* :mod:`~repro.observability.summary` — the flat per-kernel summary
  table and the steady-state NSPS recomputation that must agree with
  the bench harness exactly (the traced-vs-untraced regression guard).

Capture a trace around any code that drives the simulated runtime::

    from repro.observability import Tracer, tracing, write_chrome_trace

    tracer = Tracer()
    with tracing(tracer):
        ...  # run kernels / bench runners / PIC steps
    write_chrome_trace(tracer, "trace.json")

or from the command line: ``python -m repro bench table2 --trace t.json``.
See ``docs/PROFILING.md`` for the full guide and
``docs/ARCHITECTURE.md`` for how the instrumented modules fit together.
"""

from .tracer import (
    Span,
    SimSlice,
    TraceError,
    Tracer,
    active_tracer,
    install_tracer,
    trace_span,
    tracing,
)
from .counters import KernelStats, LaunchSample
from .export import chrome_trace_events, to_chrome_trace, write_chrome_trace
from .summary import format_kernel_summary, kernel_summary, steady_nsps

__all__ = [
    "Span",
    "SimSlice",
    "TraceError",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "trace_span",
    "tracing",
    "KernelStats",
    "LaunchSample",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "format_kernel_summary",
    "kernel_summary",
    "steady_nsps",
]
