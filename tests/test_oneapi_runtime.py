"""Tests for spec builders and the PushEngine physics/timing bridge."""

import numpy as np
import pytest

from repro.core import advance
from repro.errors import ConfigurationError
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.oneapi import (Queue, RuntimeConfig, UsmMemoryManager,
                          build_push_spec, build_step_graph,
                          build_step_specs, PushEngine, PUSH_FLOPS)
from repro.oneapi.kernelspec import StreamKind
from repro.oneapi.runtime import particle_streams
from repro.particles import Layout
from repro.particles.initializers import paper_benchmark_ensemble
from tests.test_oneapi_device import make_device


R, W, RW = StreamKind.READ, StreamKind.WRITE, StreamKind.READ_WRITE


class TestParticleStreams:
    @pytest.mark.parametrize("access,kind", [
        ((("x", R), ("y", R)), R),
        ((("gamma", W),), W),
        ((("x", R), ("gamma", W)), RW),
        ((("x", RW), ("type", R)), RW),
    ])
    def test_aos_record_takes_the_strongest_kind(self, access, kind):
        [stream] = particle_streams(Layout.AOS, Precision.SINGLE, 10, access)
        assert stream.kind is kind
        assert stream.name == "particles-aos"
        assert not stream.contiguous

    def test_soa_keeps_the_listed_order(self):
        streams = particle_streams(Layout.SOA, Precision.DOUBLE, 10,
                                   (("type", R), ("x", RW)), suffix="@1")
        assert [(s.name, s.kind, s.bytes_per_item) for s in streams] == \
            [("soa-type@1", R, 2), ("soa-x@1", RW, 8)]

    def test_allocation_follows_memory_and_ensemble(self, layout):
        ensemble = paper_benchmark_ensemble(10, layout=layout)
        args = (layout, ensemble.precision, 10, (("x", R),))
        assert particle_streams(*args)[0].allocation is None
        memory = UsmMemoryManager()
        [virtual] = particle_streams(*args, memory)
        assert virtual.allocation.array is None
        assert virtual.allocation.nbytes == 10 * virtual.span_bytes_per_item
        [bound] = particle_streams(*args, memory, ensemble)
        assert bound.allocation.array is not None

    def test_ensemble_must_match_the_shape(self):
        ensemble = paper_benchmark_ensemble(10)
        with pytest.raises(ConfigurationError):
            particle_streams(Layout.SOA, ensemble.precision, 11,
                             (("x", R),), UsmMemoryManager(), ensemble)


class TestVirtualSpecs:
    def test_aos_single_stream(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(1000, Layout.AOS, Precision.SINGLE,
                               "analytical", manager,
                               field_flops=100)
        assert len(spec.streams) == 1
        stream = spec.streams[0]
        assert stream.span_bytes_per_item == 36
        assert stream.bytes_per_item == 34
        assert not stream.contiguous
        assert spec.flops_per_item == PUSH_FLOPS + 100

    def test_soa_has_one_stream_per_component(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(1000, Layout.SOA, Precision.DOUBLE,
                               "analytical", manager)
        names = [s.name for s in spec.streams]
        assert "soa-x" in names and "soa-gamma" in names \
            and "soa-type" in names
        assert len(spec.streams) == 8
        assert all(s.contiguous for s in spec.streams)

    def test_precalculated_adds_field_streams(self):
        manager = UsmMemoryManager()
        analytical = build_push_spec(
            1000, Layout.SOA, Precision.SINGLE, "analytical", manager)
        precalc = build_push_spec(
            1000, Layout.SOA, Precision.SINGLE, "precalculated", manager)
        field_streams = [s for s in precalc.streams
                         if s.name.startswith("fields")]
        assert len(field_streams) == 6
        assert all(s.kind is StreamKind.READ for s in field_streams)
        assert precalc.flops_per_item < analytical.flops_per_item \
            or precalc.flops_per_item == PUSH_FLOPS

    def test_aos_field_stream_interleaved(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(
            1000, Layout.AOS, Precision.SINGLE, "precalculated", manager)
        fields = [s for s in spec.streams if s.name == "fields-aos"]
        assert len(fields) == 1
        assert fields[0].bytes_per_item == 24
        assert not fields[0].contiguous

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build_push_spec(10, Layout.SOA, Precision.SINGLE,
                            "cached", UsmMemoryManager())

    def test_spec_name_identifies_configuration(self):
        manager = UsmMemoryManager()
        spec = build_push_spec(10, Layout.AOS, Precision.DOUBLE,
                               "analytical", manager)
        assert spec.name == "boris-analytical-AoS-double"


class TestBoundSpecs:
    def test_streams_reference_live_allocations(self, layout):
        ensemble = paper_benchmark_ensemble(100, layout=layout)
        manager = UsmMemoryManager()
        spec = build_push_spec(100, layout, ensemble.precision,
                               "analytical", manager, ensemble=ensemble,
                               field_flops=50)
        for stream in spec.streams:
            assert stream.allocation is not None
            assert stream.allocation.nbytes > 0

    def test_precalculated_requires_array(self):
        ensemble = paper_benchmark_ensemble(10)
        with pytest.raises(ConfigurationError):
            build_push_spec(10, Layout.SOA, ensemble.precision,
                            "precalculated", UsmMemoryManager(),
                            ensemble=ensemble)

    def test_precalc_layout_mismatch_rejected(self):
        from repro.fields import PrecalculatedField
        ensemble = paper_benchmark_ensemble(10, layout=Layout.SOA)
        wrong = PrecalculatedField(10, ensemble.precision, Layout.AOS)
        with pytest.raises(ConfigurationError):
            build_push_spec(10, Layout.SOA, ensemble.precision,
                            "precalculated", UsmMemoryManager(),
                            ensemble=ensemble, precalc=wrong)


def _node_shape(node):
    streams = tuple((s.name, s.kind, s.bytes_per_item, s.span_bytes_per_item,
                     s.contiguous) for s in node.spec.streams)
    return (node.tag, node.n_items, node.transient, node.spec.name,
            node.spec.flops_per_item, streams)


class TestStepGraph:
    @pytest.mark.parametrize("diagnostics", [False, True])
    @pytest.mark.parametrize("scenario", ["precalculated", "analytical"])
    def test_timing_graph_is_the_engine_graph(self, layout, precision,
                                              scenario, diagnostics):
        # The autotuner prices build_step_graph without bodies; it must
        # be, node for node, the graph the fused engine launches.
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(64, layout=layout,
                                            precision=precision)
        engine = PushEngine(Queue(make_device(), RuntimeConfig()), ensemble,
                            scenario, wave, 1e-16, fusion=True,
                            diagnostics=diagnostics)
        field_flops = wave.flops_per_evaluation \
            if scenario == "analytical" else 0.0
        specs = build_step_specs(64, layout, precision, scenario,
                                 field_flops, diagnostics)
        timing = build_step_graph(specs, 64, layout, precision).nodes
        launched = engine.record_graph().nodes
        assert [_node_shape(n) for n in timing] == \
            [_node_shape(n) for n in launched]
        assert len(timing) == (3 if diagnostics else 2)
        assert all(n.body is None for n in timing)
        assert all(n.body is not None for n in launched)


class TestPushEngine:
    def _queue(self):
        return Queue(make_device(), RuntimeConfig())

    @pytest.mark.parametrize("scenario", ["precalculated", "analytical"])
    def test_physics_matches_plain_advance(self, scenario):
        wave = MDipoleWave()
        period_fraction = 2.0 * np.pi / wave.omega / 100.0
        runner_ensemble = paper_benchmark_ensemble(64, seed=5)
        reference = runner_ensemble.copy()

        runner = PushEngine(self._queue(), runner_ensemble, scenario,
                            wave, period_fraction)
        runner.run(5)
        advance(reference, wave, period_fraction, 5)

        np.testing.assert_allclose(runner_ensemble.positions(),
                                   reference.positions(), rtol=1e-12)

    def test_records_one_launch_per_step(self):
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(32)
        runner = PushEngine(self._queue(), ensemble, "analytical", wave,
                            1e-16)
        records = runner.run(4)
        assert len(records) == 4
        assert records[0].timing.jit_seconds > 0.0
        assert records[1].timing.jit_seconds == 0.0

    def test_time_advances(self):
        wave = MDipoleWave()
        ensemble = paper_benchmark_ensemble(16)
        runner = PushEngine(self._queue(), ensemble, "analytical", wave,
                            2e-16)
        runner.run(3)
        assert runner.time == pytest.approx(6e-16)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            PushEngine(self._queue(), paper_benchmark_ensemble(8),
                       "magic", MDipoleWave(), 1e-16)
