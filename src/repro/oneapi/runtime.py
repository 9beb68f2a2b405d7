"""Bridging kernels to the simulated runtime: spec builders and runners.

Builds :class:`~repro.oneapi.kernelspec.KernelSpec` objects for the
Boris push under the paper's two scenarios, in either layout and
precision, and provides :class:`PushEngine`, which drives the *real*
numpy kernels through a :class:`~repro.oneapi.queue.Queue` so each
step produces both physics and a simulated launch time.

Every kernel's particle streams come from one declaration,
:func:`particle_streams`, and every spec builder takes the particle
count, layout and precision plus what to attach to the streams:

* a live ``ensemble`` (with ``memory``) registers its arrays, enabling
  genuine first-touch NUMA accounting while the kernels run;
* ``memory`` alone gives virtual allocations — the paper's full
  1e7-particle working set with page state but no arrays, as the
  table/figure harnesses use;
* neither gives a pure traffic/flop description, enough for the
  planning estimators and the autotuner.

:func:`build_step_specs` and :func:`build_step_graph` describe one push
step; :meth:`PushEngine.record_graph` and the autotuner both build
their graphs with them, so the tuner prices the graph the engine
launches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.kernels import (BORIS_FLOPS, DIAGNOSTIC_FLOPS,
                            FIELD_STAGE_FLOPS, GAMMA_FLOPS, POSITION_FLOPS,
                            boris_push_precalculated,
                            kinetic_energy_diagnostic, sample_fields)
# Unused here; kept as a module global because perfbench/spans.py wraps it.
from ..core.kernels import boris_push_analytical  # noqa: F401
from ..errors import ConfigurationError
from ..fields.base import FieldSource
from ..fields.precalculated import PrecalculatedField
from ..fp import Precision
from ..observability.tracer import trace_span
from ..resilience.faults import active_fault_injector
from ..particles.ensemble import Layout, ParticleEnsemble
from .graph import GraphExecutor, KernelGraph, KernelNode
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .memory import UsmMemoryManager
from .queue import KernelLaunchRecord, Queue

__all__ = ["PUSH_FLOPS", "particle_streams", "build_push_spec",
           "build_field_eval_spec", "build_diagnostics_spec",
           "build_step_specs", "build_step_graph", "PushEngine"]

#: Arithmetic of the Boris push per particle-step (single-precision
#: equivalent flops): momentum update + two gamma evaluations +
#: position drift.
PUSH_FLOPS = BORIS_FLOPS + 2 * GAMMA_FLOPS + POSITION_FLOPS

#: Scenario labels (the paper's two benchmark problems).
PRECALCULATED = "precalculated"
ANALYTICAL = "analytical"
SCENARIOS = (PRECALCULATED, ANALYTICAL)

_R, _W, _RW = StreamKind.READ, StreamKind.WRITE, StreamKind.READ_WRITE

#: Particle accesses of each push-step kernel, in stream order.
_FIELD_EVAL_ACCESS = (("x", _R), ("y", _R), ("z", _R))
_PUSH_ACCESS = (("x", _RW), ("y", _RW), ("z", _RW), ("px", _RW),
                ("py", _RW), ("pz", _RW), ("gamma", _W), ("type", _R))
_DIAGNOSTICS_ACCESS = (("gamma", _R),)

#: Node tags of a push step, in recording order.
_STEP_TAGS = ("field-eval", "push", "diagnostics")


def _check_scenario(scenario: str) -> None:
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}")


def particle_streams(layout: Layout, precision: Precision, n: int,
                     access: Sequence[Tuple[str, StreamKind]],
                     memory: Optional[UsmMemoryManager] = None,
                     ensemble: Optional[ParticleEnsemble] = None,
                     suffix: str = "") -> List[MemoryStream]:
    """Memory streams of a kernel's particle accesses.

    ``access`` lists ``(component, kind)`` pairs in stream order.  In
    AoS every access touches the one strided record stream, declared
    with the strongest requested kind; in SoA each component is its own
    contiguous stream.  With an ``ensemble`` (and ``memory``) each
    stream registers the live array; with ``memory`` alone it walks a
    virtual allocation of ``n`` items; with neither it has no
    allocation.  ``suffix`` keeps multi-species stream names distinct.
    """
    if ensemble is not None and (ensemble.layout, ensemble.precision,
                                 ensemble.size) != (layout, precision, n):
        raise ConfigurationError(
            "ensemble must match the spec's layout, precision and size")

    def stream(name, kind, nbytes, span, contiguous, array):
        if memory is None:
            allocation = None
        elif ensemble is not None:
            allocation = memory.register(array(), name=name)
        else:
            allocation = memory.virtual(n * span, name=name)
        return MemoryStream(name=name, kind=kind, bytes_per_item=nbytes,
                            span_bytes_per_item=span, contiguous=contiguous,
                            allocation=allocation)

    if layout is Layout.AOS:
        kinds = {kind for _, kind in access}
        kind = kinds.pop() if len(kinds) == 1 else _RW
        return [stream(f"particles-aos{suffix}", kind,
                       precision.particle_bytes,
                       precision.particle_bytes_aligned, False,
                       lambda: ensemble.records)]  # type: ignore[attr-defined]
    streams = []
    for component, kind in access:
        nbytes = 2 if component == "type" else precision.itemsize
        streams.append(stream(
            f"soa-{component}{suffix}", kind, nbytes, nbytes, True,
            lambda c=component: (ensemble.type_ids if c == "type"
                                 else ensemble.component(c))))
    return streams


def _field_streams(layout: Layout, precision: Precision, n: int,
                   kind: StreamKind, memory: Optional[UsmMemoryManager],
                   ensemble: Optional[ParticleEnsemble],
                   precalc: Optional[PrecalculatedField]):
    """Memory streams for the per-particle (precalculated) field arrays.

    Registered from ``precalc`` on a bound spec (``ensemble`` given),
    virtual with ``memory`` alone, allocation-free otherwise.
    """
    bound = memory is not None and ensemble is not None
    if bound and precalc is None:
        raise ConfigurationError(
            "precalculated scenario needs the precalc field array")
    if precalc is not None and (precalc.layout is not layout
                                or precalc.size != n):
        raise ConfigurationError(
            "precalc array must match the ensemble's layout and size")
    fp = precision.itemsize
    # The AoS PrecalculatedField stores one structured array.
    components = ("ex",) if layout is Layout.AOS else \
        ("ex", "ey", "ez", "bx", "by", "bz")
    nbytes = 6 * fp if layout is Layout.AOS else fp
    streams = []
    for component in components:
        name = "fields-aos" if layout is Layout.AOS else f"fields-{component}"
        if bound:
            allocation = memory.register(precalc.component(component),
                                         name=name)
        elif memory is not None:
            allocation = memory.virtual(n * nbytes, name=name)
        else:
            allocation = None
        streams.append(MemoryStream(
            name=name, kind=kind, bytes_per_item=nbytes,
            contiguous=layout is not Layout.AOS, allocation=allocation))
    return streams


def build_push_spec(n: int, layout: Layout, precision: Precision,
                    scenario: str,
                    memory: Optional[UsmMemoryManager] = None, *,
                    ensemble: Optional[ParticleEnsemble] = None,
                    precalc: Optional[PrecalculatedField] = None,
                    field_flops: float = 0.0) -> KernelSpec:
    """Kernel spec of the Boris push over ``n`` particles.

    The precalculated scenario adds the six field-read streams (a bound
    spec needs the matching ``precalc`` array); the analytical scenario
    adds the source's ``flops_per_evaluation``, passed as
    ``field_flops``, to the arithmetic.
    """
    _check_scenario(scenario)
    streams = particle_streams(layout, precision, n, _PUSH_ACCESS,
                               memory, ensemble)
    flops = float(PUSH_FLOPS)
    if scenario == PRECALCULATED:
        streams += _field_streams(layout, precision, n, _R, memory,
                                  ensemble, precalc)
    else:
        flops += float(field_flops)
    name = f"boris-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_field_eval_spec(n: int, layout: Layout, precision: Precision,
                          scenario: str,
                          memory: Optional[UsmMemoryManager] = None, *,
                          ensemble: Optional[ParticleEnsemble] = None,
                          precalc: Optional[PrecalculatedField] = None,
                          field_flops: float = 0.0) -> KernelSpec:
    """Kernel spec of the field-evaluation graph node.

    Reads the particle positions, writes the six per-particle field
    components.  ``field_flops`` is the per-particle evaluation cost
    (the source's ``flops_per_evaluation`` in the analytical scenario;
    0 for the precalculated scenario, where the values are given and
    the node is pure staging traffic).

    The position streams are declared exactly as the push node declares
    them (same names, sizes, access shape — in AoS the full record span,
    since reading three members pulls the whole record anyway) so the
    fusion pass can merge the two nodes; the field streams are declared
    ``WRITE`` here and ``READ`` by the push — the pair fusion elides.
    """
    _check_scenario(scenario)
    streams = particle_streams(layout, precision, n, _FIELD_EVAL_ACCESS,
                               memory, ensemble)
    streams += _field_streams(layout, precision, n, _W, memory, ensemble,
                              precalc)
    name = f"field-eval-{scenario}-{layout.value}-{precision.value}"
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=(float(FIELD_STAGE_FLOPS)
                                      + float(field_flops)))


def build_diagnostics_spec(n: int, layout: Layout, precision: Precision,
                           memory: Optional[UsmMemoryManager] = None, *,
                           ensemble: Optional[ParticleEnsemble] = None,
                           energy: Optional[np.ndarray] = None) -> KernelSpec:
    """Kernel spec of the kinetic-energy diagnostics graph node.

    Reads the gamma component the push stored, writes the per-particle
    energy array (``energy`` on a bound spec) — elementwise, so it fuses
    onto the push.
    """
    fp = precision.itemsize
    streams = particle_streams(layout, precision, n, _DIAGNOSTICS_ACCESS,
                               memory, ensemble)
    if memory is None:
        allocation = None
    elif ensemble is not None:
        allocation = memory.register(energy, name="diag-energy")
    else:
        allocation = memory.virtual(n * fp, name="diag-energy")
    streams.append(MemoryStream(
        name="diag-energy", kind=_W, bytes_per_item=fp, contiguous=True,
        allocation=allocation))
    return KernelSpec(name=f"diag-energy-{layout.value}-{precision.value}",
                      streams=tuple(streams),
                      flops_per_item=float(DIAGNOSTIC_FLOPS))


def build_step_specs(n: int, layout: Layout, precision: Precision,
                     scenario: str, field_flops: float = 0.0,
                     diagnostics: bool = False,
                     memory: Optional[UsmMemoryManager] = None, *,
                     ensemble: Optional[ParticleEnsemble] = None,
                     precalc: Optional[PrecalculatedField] = None,
                     energy: Optional[np.ndarray] = None
                     ) -> Tuple[KernelSpec, ...]:
    """The specs of one push step, in recording order.

    Field-eval, push and (with ``diagnostics``) kinetic energy; built in
    this order so a bound step registers its allocations in it.  Both
    scenarios stage fields through the per-particle array, so the push
    is always the precalculated one; the scenarios differ only in the
    eval node's arithmetic (``field_flops``: the analytical source's
    ``flops_per_evaluation``, 0 for the precalculated scenario).
    """
    specs = [build_field_eval_spec(n, layout, precision, scenario, memory,
                                   ensemble=ensemble, precalc=precalc,
                                   field_flops=field_flops),
             build_push_spec(n, layout, precision, PRECALCULATED, memory,
                             ensemble=ensemble, precalc=precalc)]
    if diagnostics:
        specs.append(build_diagnostics_spec(n, layout, precision, memory,
                                            ensemble=ensemble,
                                            energy=energy))
    return tuple(specs)


def build_step_graph(specs: Sequence[KernelSpec], n: int, layout: Layout,
                     precision: Precision,
                     bodies: Sequence = (None, None, None)) -> KernelGraph:
    """The :class:`KernelGraph` of one push step.

    ``specs`` comes from :func:`build_step_specs`; ``bodies`` are the
    nodes' kernels in the same order (None for a timing-only graph).
    The field-eval node's written field streams are transient, so a
    fused group carries them in registers.
    """
    graph = KernelGraph()
    for tag, spec, body in zip(_STEP_TAGS, specs, bodies):
        transient = frozenset(
            stream.name for stream in spec.streams
            if stream.kind is _W) if tag == "field-eval" else frozenset()
        graph.add(KernelNode(spec=spec, n_items=n, body=body,
                             layout=layout.value, precision=precision,
                             transient=transient, tag=tag))
    return graph


class PushEngine:
    """Drives real Boris steps through a queue.

    Each step is recorded as a :class:`~repro.oneapi.graph.KernelGraph`
    — a timed field-eval node staging the six per-particle field
    components, the push node loading them, and (with
    ``diagnostics=True``) a kinetic-energy node — and executed through a
    :class:`~repro.oneapi.graph.GraphExecutor`.  With ``fusion=True``
    (the default) the cost-model-driven pass merges the nodes, eliding
    the staged field arrays; with ``False`` every node launches
    separately (the fusion baseline).  Both run identical kernel bodies
    in identical order, so fused and unfused state is bit-identical.

    Args:
        queue: The simulated queue (device + runtime + scheduling).
        ensemble: The particle ensemble to advance.
        scenario: "precalculated" or "analytical".
        source: The analytical field source, sampled into the
            per-particle field array by the field-eval node.
        dt: Time step [s].
        fusion: Run the fusion pass over each step's graph.
        diagnostics: Record the kinetic-energy node.
    """

    def __init__(self, queue: Queue, ensemble: ParticleEnsemble,
                 scenario: str, source: FieldSource, dt: float,
                 fusion: bool = True,
                 diagnostics: bool = False) -> None:
        _check_scenario(scenario)
        self.queue = queue
        self.ensemble = ensemble
        self.scenario = scenario
        self.source = source
        self.dt = float(dt)
        self.time = 0.0
        self.fusion = bool(fusion)
        self.diagnostics = bool(diagnostics)
        #: Simulated seconds of each completed step — a step can span
        #: several launches, so per-record NSPS would undercount it;
        #: consumers (the facade, the fusion bench) average this instead.
        self.step_seconds: List[float] = []
        # Both scenarios stage fields through the per-particle array;
        # they differ only in the eval node's arithmetic.
        self.precalc = PrecalculatedField(ensemble.size, ensemble.precision,
                                          ensemble.layout)
        self.diag_energy: Optional[np.ndarray] = np.zeros(
            ensemble.size, dtype=ensemble.precision.dtype) \
            if self.diagnostics else None
        field_flops = (source.flops_per_evaluation
                       if scenario == ANALYTICAL else 0.0)
        self._specs = build_step_specs(
            ensemble.size, ensemble.layout, ensemble.precision, scenario,
            field_flops, self.diagnostics, queue.memory, ensemble=ensemble,
            precalc=self.precalc, energy=self.diag_energy)
        self.spec = self._specs[1]
        self.executor = GraphExecutor(queue, fusion=self.fusion)

    # -- graph recording ---------------------------------------------------

    def record_graph(self) -> KernelGraph:
        """Record this step's kernel graph."""
        ensemble = self.ensemble
        time_now = self.time
        bodies = (
            lambda: sample_fields(self.precalc, self.source, ensemble,
                                  time_now),
            lambda: boris_push_precalculated(ensemble, self.precalc,
                                             self.dt),
            lambda: kinetic_energy_diagnostic(ensemble, self.diag_energy))
        return build_step_graph(self._specs, ensemble.size, ensemble.layout,
                                ensemble.precision, bodies)

    def step(self, depends_on=None) -> KernelLaunchRecord:
        """One timed push step; returns the step's last launch record.

        ``depends_on`` (a list of :class:`~repro.oneapi.events.SimEvent`)
        orders the step after other commands on an out-of-order queue
        — the sharded runner uses it to serialize a shard's successive
        pushes while letting exchange commands overlap them.

        Under an active tracer the step appears as a ``runner``-category
        span around its graph launches.

        Under an active fault injector the step is a device-loss
        opportunity: the injector may kill the whole device here
        (:class:`~repro.errors.DeviceLostError`), *before* any particle
        state changes, so a fallback runner can resume cleanly.
        """
        injector = active_fault_injector()
        if injector is not None:
            injector.on_device_step(self.queue.device.name)
        with trace_span(f"push-step:{self.scenario}", "runner",
                        step_time=self.time):
            records = self.executor.run(self.record_graph(),
                                        depends_on=depends_on)
        self.time += self.dt
        self.step_seconds.append(sum(r.simulated_seconds for r in records))
        # The last record's event is the step's completion — what
        # dependency chaining (the sharded runner) needs.
        return records[-1]

    def run(self, steps: int):
        """Run ``steps`` pushes; returns the list of launch records."""
        return [self.step() for _ in range(steps)]

    def queues(self) -> tuple:
        """Every queue this engine submits to (uniform across engines).

        The validation layer replays each returned queue's command log
        through the hazard detector; all three engines expose the same
        method so callers need not know the engine shape.
        """
        return (self.queue,)
