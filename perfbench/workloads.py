"""The three benchmark workloads, each driven through public entry points.

Every workload builds its inputs from the seed, times set-up apart from
steady work, measures on two clocks (host wall seconds and the
simulated device clock), and gates correctness untimed after the
measured work:

* ``push-cpu`` — the paper's Table 2 cell: Boris push, precalculated
  fields, SoA, float, 100 000 particles on the two-socket ``cpu``
  device, fused graph.  Host time is dominated by the cost model's
  NUMA chunk walk; ``repro.pic`` is never touched.
* ``pic-laser-slab`` — the laser-slab PIC scenario at 65 536 particles
  (32x its default), Esirkepov deposition, FDTD, CIC, ionization,
  double, fused, on ``iris-xe-max``.  Host time is dominated by the
  deposition scatter; the single NUMA domain collapses the chunk walk.
* ``service-mix`` — seeded batches of small push jobs through
  :class:`~repro.service.scheduler.PushService` on the default fleet,
  arriving as a Poisson process on the simulated clock (an open loop
  in simulated time, a batch on the host).  The only workload where the
  service, program-cache reuse and checkpoint I/O do real work.

Push and PIC runs keep a fixed *window* of steps after warm-up: the
simulated metrics, digests and correctness checks are taken over that
window, so they are identical on every run of a seed however many more
steps the host clock allows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from spans import Recorder, instrument

__all__ = ["Result", "WORKLOADS", "PushCpu", "PicLaserSlab", "ServiceMix",
           "scale_ulp_distance", "tail_percentile"]


@dataclass
class Result:
    """What one workload run produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)

    def check(self, ok: bool, description: str) -> bool:
        self.checks.append(("ok    " if ok else "FAILED ") + description)
        return ok


def tail_percentile(values: Sequence[float]):
    """(percentile, value) of the highest percentile with >= 10 beyond.

    Nearest-rank: the sample of rank ``n - 10`` (1-based) has ten
    samples above it.  With fewer than 11 samples no percentile
    qualifies and the maximum (p100) is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    rank = n - 10
    return math.floor(100 * rank / n), ordered[rank - 1]


#: Particle components the reference comparison covers (the weight
#: never changes).
COMPARED = ("x", "y", "z", "px", "py", "pz", "gamma")


def scale_ulp_distance(result, reference) -> float:
    """Worst ``|a - b|`` in ULPs of the component's scale.

    The scale is the largest magnitude of either array.  Each element of
    a component is computed from terms about as large as that scale, so
    arithmetic in storage precision leaves every element an absolute
    error of a few ULPs of the scale, however close to zero the element
    itself ends up; this is the measure that error is bounded in.
    """
    a = np.asarray(result)
    b = np.asarray(reference, dtype=a.dtype)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))),
                float(np.finfo(a.dtype).tiny))
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
    return float(np.max(diff) / np.spacing(a.dtype.type(scale)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_step(recorder: Recorder, steps: int) -> Dict[str, float]:
    """Host self seconds per step of every layer the recorder saw."""
    own = recorder.self_seconds()
    return {layer: seconds / steps for layer, seconds in own.items()}


def layer_metrics(recorder: Recorder, steps: int,
                  cache_stats: Dict[str, float]) -> Dict[str, float]:
    """Per-step host self times and program-cache totals."""
    per_step = _per_step(recorder, steps)
    return {
        "costmodel.host_s_per_step": per_step.get("costmodel", 0.0),
        "scheduler.host_s_per_step": per_step.get("scheduler", 0.0),
        "graph.record_host_s_per_step": per_step.get("graph.record", 0.0),
        "graph.plan_host_s_per_step": per_step.get("graph.plan", 0.0),
        "programcache.hits": float(cache_stats["hits"]),
        "programcache.misses": float(cache_stats["misses"]),
        "programcache.jit_sim_s": float(cache_stats["jit_seconds_charged"]),
        "core.push_host_s_per_step": per_step.get("core.push", 0.0),
        "fields.eval_host_s_per_step": per_step.get("fields.eval", 0.0),
        "fields.gather_host_s_per_step": per_step.get("fields.gather", 0.0),
        "pic.deposit_host_s_per_step": per_step.get("pic.deposit", 0.0),
        "pic.advance_host_s_per_step": per_step.get("pic.advance", 0.0),
        "pic.mc_host_s_per_step": per_step.get("pic.mc", 0.0),
    }


def count_metrics(counts: Dict[str, float], steps: int) -> Dict[str, float]:
    """Exact launch counts of ``steps`` steps from the recorder's counts."""
    launches = counts.get("costmodel.launches", 0.0)
    return {
        "costmodel.chunk_visits_per_launch":
            counts.get("costmodel.chunk_visits", 0.0) / launches
            if launches else 0.0,
        "graph.launches_per_step": launches / steps,
        "graph.kernels_eliminated":
            counts.get("graph.kernels_eliminated", 0.0) / steps,
    }


# -- push and PIC: a stepped engine -----------------------------------------

class SteppedWorkload:
    """Shared driver of the push and PIC workloads.

    Subclasses build one engine (:meth:`build`), digest its state, and
    re-derive the expected digest through an independent execution path
    when none is recorded for the seed (:meth:`recompute_digest`).
    """

    name = ""
    warmup = 2
    window = 20
    setups = 5

    def __init__(self, n_particles: int, window: Optional[int] = None,
                 setups: Optional[int] = None) -> None:
        self.n = n_particles
        self.recorder: Optional[Recorder] = None
        if window is not None:
            self.window = window
        if setups is not None:
            self.setups = setups

    # -- subclass hooks ------------------------------------------------------

    def build(self, seed: int, fusion: bool = True, device: str = ""):
        raise NotImplementedError

    def digest(self, state) -> str:
        raise NotImplementedError

    def recompute_digest(self, seed: int) -> str:
        raise NotImplementedError

    def observe(self, state) -> None:
        """Untimed bookkeeping before the window and after each of its
        steps."""

    def check_window(self, state, seed: int, result: Result) -> bool:
        """Workload-specific correctness gate over the window."""
        return True

    # -- the run -------------------------------------------------------------

    def _setup(self, seed: int, result: Result):
        times = []
        state = None
        for _ in range(self.setups):
            state = None
            gc.collect()
            start = time.perf_counter()
            state = self.build(seed)
            state.engine.run(self.warmup)
            times.append(time.perf_counter() - start)
        result.metrics["setup_s"] = statistics.median(times)
        result.samples["setup_s"] = len(times)
        return state

    def _timed_step(self, state, result: Result) -> float:
        result.attempted += 1
        start = time.perf_counter()
        state.engine.step()
        return time.perf_counter() - start

    def run(self, seed: int, seconds: float, trace: bool,
            expected: Dict[str, str]) -> Result:
        result = Result()
        try:
            self._measure(seed, seconds, trace, expected, result)
        except Exception as exc:    # an exception is a failed operation
            _abort(result, exc)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        return result

    def _measure(self, seed: int, seconds: float, trace: bool,
                 expected: Dict[str, str], result: Result) -> None:
        state = self._setup(seed, result)
        self.observe(state)
        budget = seconds / 2.0 if trace else seconds
        step_times: List[float] = []
        records = state.engine.queue.records
        first_launch = len(records)
        start = time.perf_counter()
        while len(step_times) < self.window:
            step_times.append(self._timed_step(state, result))
            self.observe(state)
        self._window_metrics(state, records[first_launch:], result)
        window_digest = self.digest(state)
        window_cache = dict(state.cache.stats.as_dict())
        while time.perf_counter() - start < budget:
            step_times.append(self._timed_step(state, result))
        median = statistics.median(step_times)
        result.metrics["host_mpps"] = self.n / median / 1.0e6
        result.samples["host_mpps"] = len(step_times)
        if trace:
            self._traced(state, median, budget, window_cache, result)
        if not self._gate(state, window_digest, seed, expected, result):
            # The window state feeds every later step: all of them fail.
            result.failed = result.attempted

    def _gate(self, state, window_digest, seed, expected, result) -> bool:
        want = expected.get(str(seed))
        source = "recorded"
        if want is None:
            want = self.recompute_digest(seed)
            source = "recomputed (unfused path)"
        ok = result.check(window_digest == want,
                          f"digest after {self.warmup}+{self.window} steps "
                          f"equals the {source} one "
                          f"({window_digest[:16]})")
        return self.check_window(state, seed, result) and ok

    def _window_metrics(self, state, launches, result: Result) -> None:
        """Simulated metrics over the window (``launches``: its launch
        records)."""
        self.window_layers = {
            "costmodel.sim_memory_s_per_step": sum(
                r.timing.memory_seconds for r in launches) / self.window,
            "costmodel.sim_compute_s_per_step": sum(
                r.timing.compute_seconds for r in launches) / self.window,
        }
        seconds = state.engine.step_seconds
        steady = seconds[self.warmup:self.warmup + self.window]
        result.metrics["sim_nsps"] = \
            statistics.fmean(steady) * 1.0e9 / self.n
        result.metrics["sim_cold_nsps"] = seconds[0] * 1.0e9 / self.n
        # A step stands in for a job here: these two figures restate the
        # per-step simulated time that sim_nsps already gives.  The tail
        # is the slowest window step, as 20 steps leave no percentile
        # with ten beyond it above the median.
        result.metrics["turnaround_sim_p50_s"] = statistics.median(steady)
        result.metrics["turnaround_sim_tail_s"] = max(steady)
        result.metrics["makespan_sim_s"] = \
            state.engine.queue.timeline.makespan
        for name in ("sim_nsps", "turnaround_sim_p50_s"):
            result.samples[name] = len(steady)
        result.samples["sim_cold_nsps"] = 1
        result.samples["turnaround_sim_tail_s"] = len(steady)
        result.samples["makespan_sim_s"] = 1
        result.checks.append(f"note  turnaround tail is p100 of "
                             f"{len(steady)} steps (per-step sim time)")

    def _traced(self, state, untraced_median: float, budget: float,
                window_cache: Dict[str, float], result: Result) -> None:
        recorder = Recorder()
        self.recorder = recorder
        traced: List[float] = []
        with instrument(recorder):
            start = time.perf_counter()
            while len(traced) < 3 or time.perf_counter() - start < budget:
                traced.append(self._timed_step(state, result))
        steps = len(traced)
        metrics = layer_metrics(recorder, steps, window_cache)
        metrics.update(count_metrics(recorder.counts, steps))
        metrics.update(self.window_layers)
        metrics.update(_idle_service_metrics())
        metrics["trace.overhead_frac"] = \
            statistics.median(traced) / untraced_median - 1.0
        result.metrics.update(metrics)
        result.samples.update({name: steps for name in metrics})


def _abort(result: Result, exc: Exception) -> None:
    """An exception ends the run: every operation attempted so far,
    and the one that raised, fails.  Metrics not yet measured are
    left out (the report prints them as 0)."""
    result.check(False, f"run raised {exc!r}")
    result.attempted = max(result.attempted, 1)
    result.failed = result.attempted


def _idle_service_metrics() -> Dict[str, float]:
    """Layers a push or PIC run never enters."""
    return {"checkpoint.save_host_s": 0.0, "checkpoint.saves": 0.0,
            "checkpoint.bytes_written": 0.0,
            "service.sched_self_host_s": 0.0,
            "service.queue_wait_sim_p50_s": 0.0,
            "service.preemptions": 0.0}


@dataclass
class _EngineState:
    engine: object
    cache: object
    ensemble: object = None
    simulation: object = None
    history: object = None


class PushCpu(SteppedWorkload):
    """Table 2 cell: fused Boris push on the two-socket ``cpu`` device."""

    name = "push-cpu"
    device = "cpu"
    sample = 64

    def __init__(self, n_particles: int = 100_000, **kwargs) -> None:
        super().__init__(n_particles, **kwargs)

    def build(self, seed: int, fusion: bool = True,
              device: str = "") -> _EngineState:
        from repro.backends.registry import resolve_device
        from repro.bench.scenarios import (paper_ensemble, paper_time_step,
                                           paper_wave)
        from repro.fp import Precision
        from repro.oneapi.programcache import ProgramCache
        from repro.oneapi.runtime import PushEngine
        from repro.particles.ensemble import Layout

        ensemble = paper_ensemble(self.n, Layout.SOA, Precision.SINGLE,
                                  seed=seed)
        backend, descriptor = resolve_device(device or self.device)
        cache = ProgramCache()
        queue = backend.make_queue(descriptor, program_cache=cache)
        engine = PushEngine(queue, ensemble, "precalculated", paper_wave(),
                            paper_time_step(), fusion=fusion)
        return _EngineState(engine=engine, cache=cache, ensemble=ensemble)

    def digest(self, state) -> str:
        from repro.core.stepping import state_digest
        return state_digest(state.ensemble)

    def observe(self, state) -> None:
        # The sample is taken after warm-up + window, the schedule the
        # digest covers; later steps depend on the time budget.
        if len(state.engine.step_seconds) == self.warmup + self.window:
            ensemble = state.ensemble
            self._sample = ensemble.select(
                np.arange(ensemble.size) < min(self.sample, ensemble.size))

    def recompute_digest(self, seed: int) -> str:
        # The graph runs the same bodies fused or not, on any device:
        # unfused on a single-domain GPU is the cheap independent path.
        state = self.build(seed, fusion=False, device="iris-xe-max")
        state.engine.run(self.warmup + self.window)
        return self.digest(state)

    def check_window(self, state, seed: int, result: Result) -> bool:
        from repro.bench.scenarios import (paper_ensemble, paper_time_step,
                                           paper_wave)
        from repro.validation import (ULP_TOLERANCES, compare_ensembles,
                                      reference_push)

        sample = self._sample
        initial = paper_ensemble(self.n, sample.layout, sample.precision,
                                 seed=seed)
        reference = initial.select(np.arange(initial.size) < sample.size)
        reference_push(reference, paper_wave(), paper_time_step(),
                       self.warmup + self.window)
        worst, name = max((scale_ulp_distance(sample.component(c),
                                              reference.component(c)), c)
                          for c in COMPARED)
        tolerance = ULP_TOLERANCES[sample.precision]
        element_ulp, element_name, _ = compare_ensembles(sample, reference)
        result.checks.append(
            f"note  repro.validation.ulp_distance (near-zero entries "
            f"against 1e-3 of the scale) reads {element_ulp:.1f} ULP on "
            f"{element_name}; not gated")
        return result.check(
            worst <= tolerance,
            f"{sample.size} particles after {self.warmup}+{self.window} "
            f"steps within {tolerance:.0f} ULP of each component's scale "
            f"of reference_push (worst {name}: {worst:.2f} ULP)")


class PicLaserSlab(SteppedWorkload):
    """Laser-slab PIC at 32x its default particle count, on a GPU."""

    name = "pic-laser-slab"
    device = "iris-xe-max"
    scenario = "laser-slab"

    def __init__(self, n_particles: int = 65_536, **kwargs) -> None:
        super().__init__(n_particles, **kwargs)

    def build(self, seed: int, fusion: bool = True,
              device: str = "") -> _EngineState:
        from repro.backends.registry import resolve_device
        from repro.fp import Precision
        from repro.oneapi.programcache import ProgramCache
        from repro.particles.ensemble import Layout
        from repro.pic.engine import PicEngine
        from repro.pic.scenarios import build_scenario

        simulation = build_scenario(self.scenario, self.n, seed=seed,
                                    layout=Layout.SOA,
                                    precision=Precision.DOUBLE)
        backend, descriptor = resolve_device(device or self.device)
        cache = ProgramCache()
        queue = backend.make_queue(descriptor, program_cache=cache)
        engine = PicEngine(queue, simulation, fusion=fusion)
        return _EngineState(engine=engine, cache=cache,
                            simulation=simulation)

    def observe(self, state) -> None:
        from repro.pic.diagnostics import EnergyHistory

        simulation = state.simulation
        if state.history is None:
            state.history = EnergyHistory()
        state.history.record(simulation.time, simulation.grid,
                             simulation.ensembles)

    def digest(self, state) -> str:
        from repro.pic.engine import pic_state_digest
        return pic_state_digest(state.simulation)

    def recompute_digest(self, seed: int) -> str:
        state = self.build(seed, fusion=False)
        state.engine.run(self.warmup + self.window)
        return self.digest(state)

    def check_window(self, state, seed: int, result: Result) -> bool:
        from repro.pic.scenarios import get_scenario

        drift = state.history.relative_drift()
        tolerance = get_scenario(self.scenario).energy_tolerance
        return result.check(
            math.isfinite(drift) and drift <= tolerance,
            f"energy drift {drift:.3e} over the window within "
            f"{tolerance:.0e}")


# -- the service batch -------------------------------------------------------

#: The job shapes a batch cycles through: (layout, precision, field
#: scenario, placement; None = free placement).  Every dimension varies,
#: but only six (program, device model) pairs can occur, so most jobs of
#: a batch reuse a compiled program.  Freely placed jobs share one
#: profile whose simulated cost differs little between devices, so the
#: seed-dependent placement moves the simulated metrics little.  SoA
#: jobs stay off the two-socket ``cpu``: its every cost-model launch
#: walks ~1 300 chunks per stream, and a SoA job there would swamp the
#: batch with the NUMA walk that ``push-cpu`` already measures.
_SHAPES = (
    ("SoA", "float", "precalculated", "iris-xe-max"),
    ("AoS", "float", "precalculated", None),
    ("SoA", "double", "analytical", "p630"),
    ("AoS", "float", "precalculated", None),
    ("SoA", "double", "analytical", "p630"),
    ("AoS", "float", "precalculated", None),
    ("SoA", "double", "analytical", "p630"),
    ("AoS", "double", "analytical", "cpu"),
)


@dataclass
class _BatchRun:
    """One sub-batch as run: inputs, report, host seconds, and the
    recorder's counts after it when traced."""

    batch: int
    specs: list
    report: object
    setups: List[float]
    wall: float
    counts: Optional[Dict[str, float]] = None


class ServiceMix:
    """Seeded open-loop batches of push jobs through ``PushService``.

    A run repeats a cycle of ``batches`` sub-batches (each a fresh
    service on the default fleet, seeded by ``(seed, batch)``) until its
    time is up.  Host throughput is taken over whole cycles; the
    simulated metrics pool the jobs of the first cycle, so they are
    identical on every run of a seed.
    """

    name = "service-mix"
    fleet = "2x iris-xe-max, 1x p630, 1x cpu"
    setups = 5
    warmup = 1
    steps = 1
    #: Arrivals per simulated second.
    rate = 2.0

    def __init__(self, jobs: int = 40, batches: int = 4,
                 min_particles: int = 8192, max_particles: int = 32768,
                 workdir: Optional[Path] = None) -> None:
        self.jobs = jobs
        self.batches = batches
        self.min_particles = min_particles
        self.max_particles = max_particles
        self.recorder: Optional[Recorder] = None
        self.workdir = Path(workdir) if workdir is not None \
            else Path(__file__).resolve().parent.parent / ".perfbench-work"

    def job_specs(self, seed: int, batch: int) -> list:
        """One sub-batch: the shape cycle, sizes and arrivals from the seed.

        Sizes are log-uniform over [min, max) particles, one draw per
        stratum so every batch carries about the same work.  Arrivals
        are a Poisson process of ``rate`` jobs per simulated second
        conditioned on ``jobs`` arrivals: sorted uniform times over
        ``jobs / rate`` seconds, dealt to the shapes in shuffled order.
        """
        from repro.api import RunConfig
        from repro.service.job import JobSpec

        rng = np.random.default_rng([seed, batch])
        count = self.jobs
        ratio = self.max_particles / self.min_particles
        arrivals = np.sort(rng.uniform(0.0, count / self.rate, count))
        order = rng.permutation(count)
        # The first arrival is freely placed, so it compiles its program
        # on an idle iris-xe-max (the fleet's first node) in every
        # sub-batch; otherwise the draw decides whether the two-socket
        # cpu becomes the warm home of the free profile, and with it a
        # quarter of the free jobs and up to a fifth more host time.
        first = next(slot for slot, i in enumerate(order)
                     if _SHAPES[i % len(_SHAPES)][3] is None)
        order[[0, first]] = order[[first, 0]]
        specs = []
        for slot, i in enumerate(order):
            i = int(i)
            layout, precision, scenario, device = _SHAPES[i % len(_SHAPES)]
            # Entry i draws from size stratum i, so each shape spans the
            # whole size range.
            size = self.min_particles * ratio ** ((i + rng.random())
                                                  / count)
            config = RunConfig(
                layout=layout, precision=precision, scenario=scenario,
                n_particles=int(size), steps=self.steps,
                warmup=self.warmup, device=device, fusion=True)
            specs.append(JobSpec(
                name=f"job-{slot:03d}", config=config,
                tenant=f"tenant-{i % 3}", priority=(i // 2) % 4,
                arrival=float(arrivals[slot])))
        return specs

    def _batch(self, seed: int, batch: int):
        """Set up (``setups`` times) and run one sub-batch.

        Returns ``(specs, report, set-up seconds of each set-up, run
        seconds)``.
        """
        from repro.service.queue import JobQueue
        from repro.service.scheduler import PushService

        setups = []
        for _ in range(self.setups):
            gc.collect()
            start = time.perf_counter()
            specs = self.job_specs(seed, batch)
            service = PushService(
                fleet=self.fleet,
                queue=JobQueue(capacity=len(specs), per_tenant_share=1.0),
                workdir=str(self.workdir / f"batch-{batch}"))
            for spec in specs:
                service.submit(spec)
            setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        report = service.run()
        return specs, report, setups, time.perf_counter() - start

    def _cycle(self, seed: int, budget: float, result: Result,
               recorder: Optional[Recorder] = None) -> List["_BatchRun"]:
        """Run whole cycles of sub-batches until ``budget`` is spent.

        Only whole cycles run, because the sub-batches of a cycle differ
        in make-up.  Under a recorder, each run keeps a snapshot of the
        recorder's counts after it.
        """
        runs: List[_BatchRun] = []
        start = time.perf_counter()
        while not runs or len(runs) % self.batches \
                or time.perf_counter() - start < budget:
            batch = len(runs) % self.batches
            result.attempted += self.jobs
            with instrument(recorder) if recorder is not None \
                    else contextlib.nullcontext():
                specs, report, setups, wall = self._batch(seed, batch)
            runs.append(_BatchRun(
                batch, specs, report, setups, wall,
                dict(recorder.counts) if recorder is not None else None))
        return runs

    @staticmethod
    def _host_mpps(runs) -> float:
        """Completed particle-steps over the summed ``PushService.run``
        wall time, in millions per second."""
        particle_steps = sum(
            spec.config.n_particles * job.steps for run in runs
            for spec, job in zip(run.specs, run.report.jobs.values())
            if job.completed)
        if not particle_steps:
            return 0.0
        return particle_steps / sum(run.wall for run in runs) / 1.0e6

    def run(self, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict[str, str]] = None) -> Result:
        result = Result()
        try:
            self._measure(seed, seconds, trace, result)
        except Exception as exc:    # an exception is a failed operation
            _abort(result, exc)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        return result

    def _measure(self, seed: int, seconds: float, trace: bool,
                 result: Result) -> None:
        budget = seconds / 2.0 if trace else seconds
        runs = self._cycle(seed, budget, result)
        result.metrics["host_mpps"] = self._host_mpps(runs)
        result.samples["host_mpps"] = len(runs)
        setups = [setup for run in runs for setup in run.setups]
        result.metrics["setup_s"] = statistics.median(setups)
        result.samples["setup_s"] = len(setups)
        self._sim_metrics(runs[:self.batches], result)
        if trace:
            traced = self._traced(seed, budget, result)
            traced_mpps = self._host_mpps(traced)
            if traced_mpps:
                result.metrics["trace.overhead_frac"] = \
                    result.metrics["host_mpps"] / traced_mpps - 1.0
            runs += traced
        result.failed = self._gate(runs, result)

    def _sim_metrics(self, cycle, result: Result) -> None:
        turnaround, nsps = [], []
        device_seconds = particle_steps = 0.0
        for run in cycle:
            for spec, job in zip(run.specs, run.report.jobs.values()):
                if not job.completed:
                    continue
                turnaround.append(job.finished - job.submitted)
                nsps.append(job.nsps)
                device_seconds += job.device_seconds
                particle_steps += spec.config.n_particles * job.steps
        if not turnaround:
            return      # no job completed: the gate fails them all
        percentile, tail = tail_percentile(turnaround)
        result.metrics.update({
            "turnaround_sim_p50_s": statistics.median(turnaround),
            "turnaround_sim_tail_s": tail,
            "makespan_sim_s": statistics.fmean(
                run.report.makespan for run in cycle),
            "sim_nsps": statistics.median(nsps),
            "sim_cold_nsps": device_seconds * 1.0e9 / particle_steps,
        })
        for name in ("turnaround_sim_p50_s", "turnaround_sim_tail_s",
                     "sim_nsps", "sim_cold_nsps"):
            result.samples[name] = len(turnaround)
        result.samples["makespan_sim_s"] = len(cycle)
        result.checks.append(f"note  turnaround tail is p{percentile} of "
                             f"{len(turnaround)} jobs")

    def _traced(self, seed: int, budget: float,
                result: Result) -> List["_BatchRun"]:
        """Per-layer metrics from traced cycles; returns their runs.

        Host self times cover every traced run; counts and simulated
        sums cover the first cycle, so they repeat exactly.
        """
        recorder = Recorder()
        self.recorder = recorder
        runs = self._cycle(seed, budget, result, recorder)
        cycle = runs[:self.batches]
        counts = cycle[-1].counts
        jobs = [job for run in cycle for job in run.report.jobs.values()
                if job.completed]
        if not jobs:
            return runs     # no job completed: the gate fails them all
        steps = sum(job.steps for job in jobs)
        all_steps = sum(job.steps for run in runs
                        for job in run.report.jobs.values())
        cache = {key: statistics.fmean(run.report.cache_stats[key]
                                       for run in cycle)
                 for key in ("hits", "misses", "jit_seconds_charged")}
        metrics = layer_metrics(recorder, all_steps, cache)
        metrics.update(count_metrics(counts, steps))
        own = recorder.self_seconds()
        metrics.update({
            "costmodel.sim_memory_s_per_step":
                counts["costmodel.sim_memory_s"] / steps,
            "costmodel.sim_compute_s_per_step":
                counts["costmodel.sim_compute_s"] / steps,
            "checkpoint.save_host_s":
                own.get("checkpoint.save", 0.0) / len(runs),
            "checkpoint.saves":
                counts.get("checkpoint.saves", 0.0) / len(cycle),
            "checkpoint.bytes_written":
                counts.get("checkpoint.bytes_written", 0.0) / len(cycle),
            "service.sched_self_host_s":
                own.get("service.run", 0.0) / len(runs),
            "service.queue_wait_sim_p50_s": statistics.median(
                job.queue_wait_seconds for job in jobs),
            "service.preemptions": float(sum(job.preemptions
                                             for job in jobs)),
        })
        result.metrics.update(metrics)
        result.samples.update({name: len(runs) for name in metrics})
        result.samples["trace.overhead_frac"] = len(runs)
        return runs

    def _gate(self, runs, result: Result) -> int:
        """Jobs that did not complete with their solo run's digest.

        The solo reference is ``run_push`` of the job's own
        ``RunConfig``; a freely placed job (``device=None``) runs solo
        on ``iris-xe-max`` — the physics is device-independent.
        """
        from repro.api import run_push

        solo: Dict[tuple, Optional[str]] = {}
        failed = 0
        for run in runs:
            for spec, job in zip(run.specs, run.report.jobs.values()):
                key = (run.batch, spec.name)
                if key not in solo:
                    config = dataclasses.replace(
                        spec.config,
                        device=spec.config.device or "iris-xe-max")
                    try:
                        solo[key] = run_push(config).digest
                    except Exception as exc:    # a failed reference
                        result.check(False, f"solo {spec.name}: {exc!r}")
                        solo[key] = None
                if not (job.completed and job.digest == solo[key]):
                    failed += 1
        result.check(failed == 0,
                     f"{len(runs)} batches of {self.jobs} jobs completed "
                     f"with their solo run_push digests ({failed} failed)")
        return failed


WORKLOADS: Dict[str, Callable[[], object]] = {
    "push-cpu": PushCpu,
    "pic-laser-slab": PicLaserSlab,
    "service-mix": ServiceMix,
}
