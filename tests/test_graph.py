"""Kernel-graph fusion and the persistent JIT program cache.

Covers the tentpole layers end to end: fusion legality rules (layout /
precision / barrier / item-count), spec merging with transient-stream
elision, cost-model-driven planning, cold-vs-warm program-cache
accounting (including the on-disk persistence round trip and cache
sharing across a device group's shards), and the bit-exactness bar —
fused and unfused execution must produce byte-identical particle
state.
"""

import numpy as np
import pytest

from repro.bench import paper_time_step, paper_wave
from repro.bench.calibration import cost_model_for, device_by_name
from repro.bench.scenarios import paper_ensemble
from repro.core.stepping import state_digest
from repro.errors import ConfigurationError, GraphError
from repro.fp import Precision
from repro.oneapi.graph import (FusionPass, GraphExecutor, KernelGraph,
                                KernelNode, fuse_nodes, fusion_legal)
from repro.oneapi.kernelspec import KernelSpec, MemoryStream, StreamKind
from repro.oneapi.programcache import ProgramCache, ProgramKey
from repro.oneapi.queue import Queue, RuntimeConfig
from repro.oneapi.runtime import PushEngine
from repro.particles.ensemble import Layout


def _spec(name, streams, flops=10.0):
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def _stream(name, kind, nbytes=4.0, span=None, contiguous=True):
    return MemoryStream(name=name, kind=kind, bytes_per_item=nbytes,
                        span_bytes_per_item=span if span is not None
                        else nbytes, contiguous=contiguous)


def _node(name, *, reads=(), writes=(), n_items=1000, layout="SoA",
          precision=Precision.SINGLE, **kwargs):
    streams = [_stream(r, StreamKind.READ) for r in reads]
    streams += [_stream(w, StreamKind.WRITE) for w in writes]
    return KernelNode(spec=_spec(name, streams), n_items=n_items,
                      layout=layout, precision=precision, **kwargs)


def _queue(device_name="iris-xe-max", **kwargs):
    device = device_by_name(device_name)
    return Queue(device, RuntimeConfig(runtime="dpcpp"),
                 cost_model_for(device), **kwargs)


# -- legality -------------------------------------------------------------

class TestFusionLegality:
    def test_compatible_nodes_fuse(self):
        a = _node("a", reads=["x"], writes=["t"])
        b = _node("b", reads=["t"], writes=["y"])
        ok, reason = fusion_legal(a, b)
        assert ok and reason == ""

    def test_layout_mismatch_refused(self):
        ok, reason = fusion_legal(_node("a", layout="AoS"),
                                  _node("b", layout="SoA"))
        assert not ok and "layout" in reason

    def test_unknown_layout_never_fuses(self):
        # "" means layout-agnostic; fusion must not be assumed legal
        ok, reason = fusion_legal(_node("a", layout=""),
                                  _node("b", layout=""))
        assert not ok and "layout" in reason

    def test_precision_mismatch_refused(self):
        ok, reason = fusion_legal(
            _node("a", precision=Precision.SINGLE),
            _node("b", precision=Precision.DOUBLE))
        assert not ok and "precision" in reason

    def test_barrier_kernel_refused_both_sides(self):
        dep = _node("deposit", barrier=True)
        push = _node("push")
        for pair in ((dep, push), (push, dep)):
            ok, reason = fusion_legal(*pair)
            assert not ok and "barrier" in reason

    def test_non_elementwise_refused(self):
        ok, reason = fusion_legal(_node("sort", elementwise=False),
                                  _node("push"))
        assert not ok and "elementwise" in reason

    def test_item_count_mismatch_refused(self):
        ok, reason = fusion_legal(_node("a", n_items=100),
                                  _node("b", n_items=200))
        assert not ok and "item counts" in reason


class TestNodeValidation:
    def test_negative_items_rejected(self):
        with pytest.raises(GraphError):
            _node("bad", n_items=-1)

    def test_barrier_with_transient_rejected(self):
        with pytest.raises(GraphError):
            _node("bad", writes=["t"], barrier=True,
                  transient=frozenset(["t"]))

    def test_unknown_transient_rejected(self):
        with pytest.raises(GraphError):
            _node("bad", writes=["t"], transient=frozenset(["nope"]))


# -- spec merging ---------------------------------------------------------

class TestFuseNodes:
    def test_transient_intermediate_elided(self):
        a = _node("eval", reads=["pos"], writes=["fields"],
                  transient=frozenset(["fields"]))
        b = _node("push", reads=["fields", "pos"], writes=["mom"])
        spec, elided = fuse_nodes([a, b])
        assert elided == ("fields",)
        names = {s.name for s in spec.streams}
        assert names == {"pos", "mom"}
        assert spec.name == "fused:eval+push"
        assert spec.flops_per_item == pytest.approx(20.0)

    def test_unconsumed_transient_kept(self):
        # nothing downstream reads it, so it still reaches memory
        a = _node("eval", writes=["fields"],
                  transient=frozenset(["fields"]))
        b = _node("diag", reads=["pos"], writes=["energy"])
        spec, elided = fuse_nodes([a, b])
        assert elided == ()
        assert {s.name for s in spec.streams} == \
            {"fields", "pos", "energy"}

    def test_read_plus_write_becomes_read_write(self):
        a = _node("a", reads=["mom"])
        b = _node("b", writes=["mom"])
        spec, _ = fuse_nodes([a, b])
        (stream,) = spec.streams
        assert stream.kind is StreamKind.READ_WRITE

    def test_shared_read_deduplicated(self):
        a = _node("a", reads=["pos"])
        b = _node("b", reads=["pos"])
        spec, _ = fuse_nodes([a, b])
        assert len(spec.streams) == 1
        assert spec.streams[0].kind is StreamKind.READ

    def test_conflicting_stream_shapes_rejected(self):
        a = KernelNode(spec=_spec("a", [_stream("pos", StreamKind.READ,
                                                nbytes=4.0)]),
                       n_items=10, layout="SoA")
        b = KernelNode(spec=_spec("b", [_stream("pos", StreamKind.READ,
                                                nbytes=8.0)]),
                       n_items=10, layout="SoA")
        with pytest.raises(GraphError, match="declared differently"):
            fuse_nodes([a, b])

    def test_empty_group_rejected(self):
        with pytest.raises(GraphError):
            fuse_nodes([])

    def test_mixed_item_counts_rejected(self):
        with pytest.raises(GraphError):
            fuse_nodes([_node("a", n_items=10), _node("b", n_items=20)])


# -- planning -------------------------------------------------------------

class TestFusionPass:
    def _pass(self):
        return FusionPass(cost_model_for(device_by_name("iris-xe-max")))

    def test_chain_fuses_into_one_group(self):
        graph = KernelGraph()
        graph.add(_node("eval", reads=["pos"], writes=["f"],
                        transient=frozenset(["f"])))
        graph.add(_node("push", reads=["f", "pos"], writes=["mom"]))
        graph.add(_node("diag", reads=["mom"], writes=["energy"]))
        plan = self._pass().plan(graph)
        assert plan.groups == [[0, 1, 2]]
        assert plan.fused_group_count == 1
        assert plan.kernels_eliminated == 2
        assert plan.refusals == {}

    def test_barrier_cuts_the_chain(self):
        graph = KernelGraph()
        graph.add(_node("push", reads=["pos"], writes=["mom"]))
        graph.add(_node("deposit", reads=["mom"], writes=["current"],
                        barrier=True))
        graph.add(_node("diag", reads=["mom"], writes=["energy"]))
        plan = self._pass().plan(graph)
        assert plan.groups == [[0], [1], [2]]
        assert ("push", "deposit") in plan.refusals
        assert "barrier" in plan.refusals[("push", "deposit")]

    def test_layout_mismatch_recorded_as_refusal(self):
        graph = KernelGraph()
        graph.add(_node("a", layout="AoS"))
        graph.add(_node("b", layout="SoA"))
        plan = self._pass().plan(graph)
        assert plan.groups == [[0], [1]]
        assert "layout" in plan.refusals[("a", "b")]

    def test_negative_margin_rejected(self):
        with pytest.raises(GraphError):
            FusionPass(cost_model_for(device_by_name("cpu")), margin=-0.1)


# -- program cache --------------------------------------------------------

class TestProgramCache:
    KEY = ProgramKey(chain=("push",), device="gpu", layout="SoA",
                     precision="float")

    def test_cold_build_charges_jit_once(self):
        cache = ProgramCache()
        assert not cache.is_warm(self.KEY)
        assert cache.build(self.KEY, 0.3) == pytest.approx(0.3)
        assert cache.is_warm(self.KEY)
        assert cache.build(self.KEY, 0.3) == 0.0
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.jit_seconds_charged == pytest.approx(0.3)

    def test_clear_is_per_device(self):
        cache = ProgramCache()
        other = ProgramKey(chain=("push",), device="cpu", layout="SoA",
                           precision="float")
        cache.build(self.KEY, 0.3)
        cache.build(other, 0.1)
        assert cache.clear(device="gpu") == 1
        assert not cache.is_warm(self.KEY)
        assert cache.is_warm(other)

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "programs.json"
        warm = ProgramCache(persist_path=str(path))
        warm.build(self.KEY, 0.3)
        reloaded = ProgramCache(persist_path=str(path))
        assert reloaded.is_warm(self.KEY)
        assert reloaded.build(self.KEY, 0.3) == 0.0
        assert reloaded.stats.persisted_hits == 1
        assert reloaded.stats.jit_seconds_charged == 0.0

    def test_corrupt_persist_file_falls_back_cold(self, tmp_path):
        path = tmp_path / "programs.json"
        path.write_text("{not json")
        cache = ProgramCache(persist_path=str(path))
        assert not cache.is_warm(self.KEY)
        # The cold rebuild is charged and rewrites the file whole...
        assert cache.build(self.KEY, 0.3) == 0.3
        # ...so the next process loads it warm again.
        reloaded = ProgramCache(persist_path=str(path))
        assert reloaded.is_warm(self.KEY)

    def test_truncated_persist_file_falls_back_cold(self, tmp_path):
        path = tmp_path / "programs.json"
        warm = ProgramCache(persist_path=str(path))
        warm.build(self.KEY, 0.3)
        full = path.read_text()
        path.write_text(full[:len(full) // 2])  # torn write
        cache = ProgramCache(persist_path=str(path))
        assert not cache.is_warm(self.KEY)
        assert cache.build(self.KEY, 0.3) == 0.3

    def test_corrupt_persist_file_reported_to_tracer(self, tmp_path):
        from repro.observability import Tracer, tracing

        path = tmp_path / "programs.json"
        path.write_text('{"version": 1, "programs": [{"chain": []}]}')
        tracer = Tracer()
        with tracing(tracer):
            ProgramCache(persist_path=str(path))
        names = [e.name for e in tracer.instants]
        assert "program-cache:corrupt" in names

    def test_reset_warmup_clears_only_own_device(self):
        cache = ProgramCache()
        gpu_queue = _queue("iris-xe-max", program_cache=cache)
        cpu_key = ProgramKey(chain=("x",), device="some-other-model",
                             precision="float")
        cache.build(cpu_key, 0.2)
        key = ProgramKey(chain=("y",), device=gpu_queue.device.jit_key,
                         precision="float")
        cache.build(key, 0.3)
        gpu_queue.reset_warmup()
        assert cache.is_warm(cpu_key)
        assert not cache.is_warm(key)


class TestCacheSharingAcrossShards:
    def test_homogeneous_pair_compiles_once(self):
        from repro.distributed import DeviceGroup
        from repro.distributed.runner import ShardedPushEngine

        ensemble = paper_ensemble(8192, Layout.SOA, Precision.SINGLE)
        group = DeviceGroup.from_spec("2x iris-xe-max")
        engine = ShardedPushEngine(group, ensemble, "precalculated",
                                   paper_wave(), paper_time_step(),
                                   fusion=True)
        engine.run(3)
        # two shards, one device *model*: the second shard reuses the
        # first shard's compiled program (SYCL's per-context cache)
        assert group.program_cache.stats.misses == 1
        assert group.program_cache.stats.hits >= 1

    def test_heterogeneous_group_compiles_per_model(self):
        from repro.distributed import DeviceGroup
        from repro.distributed.runner import ShardedPushEngine

        ensemble = paper_ensemble(8192, Layout.SOA, Precision.SINGLE)
        group = DeviceGroup.from_spec("cpu, iris-xe-max")
        engine = ShardedPushEngine(group, ensemble, "precalculated",
                                   paper_wave(), paper_time_step(),
                                   fusion=True)
        engine.run(3)
        # CPU runs the openmp-free dpcpp runtime too? each *model*
        # compiles its own binary — exactly two misses
        assert group.program_cache.stats.misses == 2


# -- execution: bit-exactness and the fusion win --------------------------

def _engine(fusion, n=4096, scenario="precalculated", diagnostics=False,
            queue=None):
    ensemble = paper_ensemble(n, Layout.SOA, Precision.SINGLE)
    queue = queue if queue is not None else _queue()
    return PushEngine(queue, ensemble, scenario, paper_wave(),
                      paper_time_step(), fusion=fusion,
                      diagnostics=diagnostics)


class TestGraphExecution:
    @pytest.mark.parametrize("scenario", ["precalculated", "analytical"])
    def test_fused_unfused_bit_identical(self, scenario):
        digests = {}
        for mode in (False, True):
            engine = _engine(mode, scenario=scenario)
            engine.run(5)
            digests[mode] = state_digest(engine.ensemble)
        assert digests[True] == digests[False]

    def test_unfused_launches_every_node(self):
        engine = _engine(False, diagnostics=True)
        records = [engine.step() for _ in range(2)]
        assert len(engine.queue.records) == 6   # 3 nodes x 2 steps
        assert records[-1] is engine.queue.records[-1]

    def test_fused_collapses_to_one_launch_per_step(self):
        engine = _engine(True, diagnostics=True)
        engine.run(2)
        assert len(engine.queue.records) == 2
        assert engine.executor.last_plan.kernels_eliminated == 2

    def test_fused_warm_step_not_slower(self):
        fused = _engine(True)
        unfused = _engine(False)
        fused.run(5)
        unfused.run(5)
        # steady state: warm-cache fused steps must beat the unfused
        # graph (fewer launches, deduped particle streams, elided
        # field staging arrays)
        assert fused.step_seconds[-1] <= unfused.step_seconds[-1]

    def test_cold_step_pays_jit_once(self):
        engine = _engine(True)
        engine.run(4)
        jit = engine.queue.device.jit_compile_seconds
        assert engine.step_seconds[0] > engine.step_seconds[-1] + jit / 2
        assert engine.queue.program_cache.stats.misses == 1

    def test_diagnostics_output_is_gamma_minus_one(self):
        engine = _engine(True, diagnostics=True)
        engine.run(3)
        gamma = engine.ensemble.component("gamma")
        np.testing.assert_array_equal(engine.diag_energy,
                                      gamma - gamma.dtype.type(1.0))

    def test_empty_graph_is_noop(self):
        executor = GraphExecutor(_queue())
        assert executor.run(KernelGraph()) == []
