"""Tests for the observability layer: tracer, exporters, NSPS guard."""

import json

import pytest

from repro.bench.harness import model_push_nsps
from repro.bench.scenarios import BenchmarkCase
from repro.errors import TraceError
from repro.fp import Precision
from repro.observability import (Tracer, active_tracer, chrome_trace_events,
                                 format_kernel_summary, install_tracer,
                                 kernel_summary, to_chrome_trace, trace_span,
                                 tracing, write_chrome_trace)
from repro.observability.counters import KernelStats
from repro.observability.summary import steady_nsps
from repro.particles import Layout

pytestmark = pytest.mark.trace

#: The Table 2 cell used throughout: the paper's best CPU configuration.
NUMA_CASE = BenchmarkCase("precalculated", Layout.SOA, Precision.SINGLE,
                          "DPC++ NUMA")
SMALL_N = 20_000


class TestSpanNesting:
    def test_begin_end_depth_and_parent(self):
        tracer = Tracer()
        outer = tracer.begin_span("outer", "host")
        inner = tracer.begin_span("inner", "host")
        assert outer.depth == 0 and inner.depth == 1
        assert inner.parent == "outer"
        assert tracer.open_depth == 2
        tracer.end_span(inner)
        tracer.end_span(outer)
        assert tracer.open_depth == 0
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert all(s.end >= s.start for s in tracer.spans)

    def test_context_manager_nesting_and_scope(self):
        tracer = Tracer()
        with tracer.span("a", "host"):
            assert tracer.current_scope == "a"
            with tracer.span("b", "host", flavour="nested"):
                assert tracer.current_scope == "b"
            assert tracer.current_scope == "a"
        assert tracer.current_scope == ""   # "" at top level
        b = next(s for s in tracer.spans if s.name == "b")
        assert b.args["flavour"] == "nested"

    def test_unbalanced_end_raises(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.end_span()
        outer = tracer.begin_span("outer", "host")
        tracer.begin_span("inner", "host")
        with pytest.raises(TraceError):
            tracer.end_span(outer)   # inner is still open

    def test_sim_slice_rejects_negative_duration(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.sim_slice("k", 2.0, 1.0, "track")

    def test_trace_span_is_noop_without_tracer(self):
        assert active_tracer() is None
        with trace_span("nothing", "host") as span:
            assert span is None

    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_install_tracer_returns_previous(self):
        tracer = Tracer()
        assert install_tracer(tracer) is None
        try:
            assert install_tracer(None) is tracer
        finally:
            install_tracer(None)

    def test_event_is_a_category_prefixed_instant(self):
        tracer = Tracer()
        tracer.event("recovery", "restore", step=3, device="cpu")
        (instant,) = tracer.instants
        assert instant.name == "recovery:restore"
        assert instant.category == "recovery"
        assert dict(instant.args) == {"step": 3, "device": "cpu"}


def traced_small_cell():
    """Run the small NUMA benchmark cell under a fresh tracer."""
    tracer = Tracer()
    with tracing(tracer):
        result = model_push_nsps(NUMA_CASE, n=SMALL_N, steps=6)
    return tracer, result


#: Required fields per Chrome trace_event phase, per the spec
#: (Trace Event Format document; "s" is the instant-scope field).
REQUIRED_FIELDS = {
    "X": {"name", "cat", "ph", "ts", "dur", "pid", "tid"},
    "i": {"name", "ph", "ts", "pid", "tid", "s"},
    "C": {"name", "ph", "ts", "pid"},
    "M": {"name", "ph", "pid"},
}


class TestChromeExport:
    def test_events_match_trace_event_schema(self):
        tracer, _ = traced_small_cell()
        events = chrome_trace_events(tracer)
        assert events, "expected a non-empty event stream"
        phases = {e["ph"] for e in events}
        assert {"X", "M"} <= phases
        for event in events:
            ph = event["ph"]
            assert ph in REQUIRED_FIELDS, f"unexpected phase {ph!r}"
            missing = REQUIRED_FIELDS[ph] - set(event)
            assert not missing, f"{ph} event missing {missing}"
            if ph in ("X", "i", "C"):
                assert isinstance(event["ts"], (int, float))
                assert event["ts"] >= 0.0
            if ph == "X":
                assert event["dur"] >= 0.0
            if ph == "i":
                assert event["s"] in ("g", "p", "t")
            if ph == "M":
                assert event["name"] in ("process_name", "thread_name")
                assert "name" in event["args"]

    def test_document_shape_and_serializability(self):
        tracer, _ = traced_small_cell()
        doc = to_chrome_trace(tracer)
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert "kernels" in doc["otherData"]
        json.dumps(doc)   # must be pure-JSON serializable

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer, _ = traced_small_cell()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_sim_slices_live_on_their_own_process(self):
        tracer, _ = traced_small_cell()
        events = chrome_trace_events(tracer)
        sim = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
        host = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
        assert len(sim) == 6        # one slice per modelled launch
        assert host                 # cell + kernel spans
        # the cost breakdown rides on the slice args
        assert {"bound", "jit_seconds", "cold_pages"} <= set(sim[0]["args"])


class TestNspsGuard:
    def test_traced_equals_untraced_exactly(self):
        untraced = model_push_nsps(NUMA_CASE, n=SMALL_N, steps=6)
        tracer, traced = traced_small_cell()
        assert traced.nsps == untraced.nsps
        assert traced.first_launch_nsps == untraced.first_launch_nsps
        assert traced.bound == untraced.bound

    def test_summary_reproduces_harness_nsps(self):
        tracer, result = traced_small_cell()
        rows = kernel_summary(tracer)
        assert len(rows) == 1
        row = rows[0]
        assert row["kernel"] == "boris-precalculated-SoA-float"
        assert row["scope"].startswith("cell:SoA/DPC++ NUMA")
        assert row["launches"] == 6
        assert abs(row["steady_nsps"] - result.nsps) < 1.0e-9
        assert abs(row["first_nsps"] - result.first_launch_nsps) < 1.0e-9

    def test_steady_nsps_skips_warmup_like_metrics(self):
        stats = KernelStats(name="k", scope="s")
        durations = [10.0e-6, 5.0e-6, 1.0e-6, 1.0e-6, 1.0e-6]
        for total in durations:

            class FakeTiming:
                total_seconds = total
                memory_seconds = total
                compute_seconds = 0.0
                scheduling_seconds = 0.0
                jit_seconds = 0.0
                cold_page_seconds = 0.0
                transfer_seconds = 0.0
                bytes_moved = 0.0
                remote_bytes = 0.0
                cold_pages = 0
                bound = "memory"

            stats.add_launch(1000, FakeTiming())
        # skip the first two launches, average the steady tail
        assert steady_nsps(stats.samples) == pytest.approx(1.0, abs=1e-12)
        # fewer launches than the warm-up window: average everything
        assert steady_nsps(stats.samples[:2]) == pytest.approx(7.5)

    def test_summary_table_formats(self):
        tracer, _ = traced_small_cell()
        text = format_kernel_summary(tracer)
        assert "steady NSPS" in text
        assert "boris-precalculated-SoA-float" in text


class TestRetryAccounting:
    """Recovery cost shows up on the simulated clock, and tracing
    still observes without perturbing (the PR-1 guard, now under
    fault injection)."""

    def _queue_and_spec(self, n=4096):
        from repro.bench.calibration import cost_model_for, device_by_name
        from repro.oneapi.queue import Queue, RuntimeConfig
        from repro.oneapi.runtime import build_virtual_push_spec
        device = device_by_name("cpu")
        queue = Queue(device, RuntimeConfig(runtime="dpcpp"),
                      cost_model_for(device))
        spec = build_virtual_push_spec(n, Layout.SOA, Precision.SINGLE,
                                       "precalculated", queue.memory)
        return queue, spec, n

    def test_two_failures_add_exactly_the_backoff_delays(self):
        from repro.resilience import (FaultPlan, FaultRule, RetryPolicy,
                                      fault_injection, launch_with_retry)
        plan = FaultPlan(name="fail-twice", rules=(
            FaultRule("launch-failure", at_ops=(0, 1)),))
        policy = RetryPolicy(seed=3)
        queue, spec, n = self._queue_and_spec()
        with fault_injection(plan, seed=0) as injector:
            record = launch_with_retry(queue, n, spec, policy=policy)
        assert [f.kind for f in injector.injected] == ["launch-failure"] * 2
        delays = policy.delay_sequence()
        expected = [next(delays), next(delays)]
        backoffs = [e for e in queue.timeline.events
                    if e.name == f"backoff:{spec.name}"]
        assert [e.duration for e in backoffs] == expected
        # ... and the penalty is folded into the surviving record, so
        # NSPS computed from records reflects the retries.
        assert record.timing.recovery_seconds == pytest.approx(
            sum(expected))
        clean_queue, clean_spec, _ = self._queue_and_spec()
        clean = clean_queue.parallel_for(n, clean_spec,
                                         precision=Precision.DOUBLE)
        assert record.timing.total_seconds == pytest.approx(
            clean.timing.total_seconds + sum(expected))

    def test_watchdog_burns_its_timeout_on_the_timeline(self):
        from repro.resilience import (FaultPlan, FaultRule, RetryPolicy,
                                      Watchdog, fault_injection,
                                      launch_with_retry)
        plan = FaultPlan(name="hang-once", rules=(
            FaultRule("launch-hang", at_ops=(0,)),))
        watchdog = Watchdog(timeout_seconds=0.25)
        queue, spec, n = self._queue_and_spec()
        with fault_injection(plan, seed=0):
            launch_with_retry(queue, n, spec, policy=RetryPolicy(),
                              watchdog=watchdog)
        burned = [e for e in queue.timeline.events
                  if e.name == f"watchdog:{spec.name}"]
        assert [e.duration for e in burned] == [0.25]

    def test_traced_nsps_equals_untraced_under_injection(self):
        # Same plan + seed => identical faults, so tracing must still
        # be a pure observer even while the injector is firing.
        from repro.resilience import fault_injection, named_plan

        def run():
            with fault_injection(named_plan("transient"), seed=11):
                return model_push_nsps(NUMA_CASE, n=SMALL_N, steps=6)

        untraced = run()
        tracer = Tracer()
        with tracing(tracer):
            traced = run()
        assert traced.nsps == untraced.nsps
        assert traced.first_launch_nsps == untraced.first_launch_nsps

    def test_fault_and_recovery_events_are_traced(self):
        from repro.resilience import (FaultPlan, FaultRule, RetryPolicy,
                                      fault_injection, launch_with_retry)
        plan = FaultPlan(name="fail-once", rules=(
            FaultRule("launch-failure", at_ops=(0,)),))
        queue, spec, n = self._queue_and_spec()
        tracer = Tracer()
        with tracing(tracer):
            with fault_injection(plan, seed=0):
                launch_with_retry(queue, n, spec, policy=RetryPolicy())
        names = [i.name for i in tracer.instants]
        assert "fault:launch-failure" in names
        assert "recovery:retry" in names


class TestCliTrace:
    def test_global_trace_flag_writes_chrome_trace(self, tmp_path,
                                                   capsys):
        from repro.cli import main
        from repro.observability.export import SIM_PID
        out = tmp_path / "t.json"
        assert main(["--particles", "100000", "bench", "first-iter",
                     "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        launches = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == SIM_PID]
        assert len(launches) >= 1
        assert doc["otherData"]["kernels"]
        assert f"trace written to {out}" in capsys.readouterr().out
