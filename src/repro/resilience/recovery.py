"""Recovery primitives: bounded retries, backoff, the launch watchdog.

The counterpart of :mod:`~repro.resilience.faults`: faults make the
simulated runtime fail, this module makes workloads survive it.  All
recovery cost is charged to the *simulated* clock — a backoff sleeps on
the queue's timeline, a watchdog kill burns its timeout there — so
retries show up in makespans and NSPS exactly the way lost wall time
would on real hardware.

Error classification (see :mod:`repro.errors`):

* **transient** — ``KernelError`` (failed submit, failed JIT),
  ``LaunchTimeoutError`` (watchdog kill), ``AllocationFailedError`` and
  poisoned-read ``MemoryModelError``: bounded retry with exponential
  backoff + deterministic jitter;
* **fatal** — ``DeviceLostError``: never retried here; it propagates to
  the device-fallback logic in
  :class:`~repro.resilience.runner.ResilientPushEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ..errors import (AllocationFailedError, ConfigurationError,
                      DeviceLostError, KernelError, LaunchTimeoutError,
                      MemoryModelError)
from ..observability.tracer import active_tracer
from .faults import active_fault_injector

__all__ = ["RetryPolicy", "Watchdog", "RecoveryStats", "run_with_retry",
           "launch_with_retry", "allocate_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: Total tries (first attempt + retries).
        base_backoff: Simulated seconds before the first retry.
        multiplier: Backoff growth factor per retry.
        jitter: Relative jitter amplitude; the delay for retry ``k`` is
            ``base * multiplier**k * (1 + jitter * (2u - 1))`` with
            ``u`` drawn from a ``default_rng(seed)`` stream that is
            re-created per retried operation — two runs (and an
            expectation computed via :meth:`delay_sequence`) see the
            same delays.
        seed: Seed of the jitter stream.
    """

    max_attempts: int = 4
    base_backoff: float = 1.0e-3
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff < 0.0 or self.multiplier < 1.0:
            raise ConfigurationError(
                "base_backoff must be >= 0 and multiplier >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def delay_sequence(self) -> Iterator[float]:
        """Fresh, deterministic iterator of backoff delays [sim s]."""
        rng = np.random.default_rng(self.seed)
        attempt = 0
        while True:
            jitter = self.jitter * (2.0 * rng.random() - 1.0)
            yield self.base_backoff * self.multiplier ** attempt \
                * (1.0 + jitter)
            attempt += 1


@dataclass(frozen=True)
class Watchdog:
    """Kernel-launch watchdog: how long a hung launch burns before the
    runtime kills it (charged to the simulated timeline)."""

    timeout_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_seconds <= 0.0:
            raise ConfigurationError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}")


@dataclass
class RecoveryStats:
    """Mutable tally of recovery actions (shared across operations)."""

    retries: int = 0
    backoff_seconds: float = 0.0
    watchdog_seconds: float = 0.0
    scrubbed_allocations: int = 0
    giveups: int = 0


def _scrub_poison(spec) -> int:
    """Clear poison from every allocation feeding ``spec``; returns the
    number scrubbed (0 means the failure was not a poisoned read)."""
    scrubbed = 0
    for stream in spec.streams:
        allocation = stream.allocation
        if allocation is not None and allocation.poisoned:
            allocation.scrub()
            scrubbed += 1
    return scrubbed


def _trace_recovery(action: str, **args) -> None:
    tracer = active_tracer()
    if tracer is not None:
        tracer.event("recovery", action, **args)


def run_with_retry(operation: Callable[[], object], queue, spec,
                   policy: Optional[RetryPolicy] = None,
                   watchdog: Optional[Watchdog] = None,
                   stats: Optional[RecoveryStats] = None):
    """Run ``operation`` under the retry policy, on ``queue``'s clock.

    ``operation`` is any no-argument callable whose failure modes are
    the runtime's (it typically wraps ``queue.parallel_for`` or one
    :meth:`~repro.oneapi.runtime.PushEngine.step`); ``spec`` is the
    kernel spec it launches (used to scrub poisoned allocations and to
    label timeline slices).  Transient failures charge the simulated
    timeline — ``watchdog:<kernel>`` for the burned timeout of a hung
    launch, ``backoff:<kernel>`` for each retry delay — then retry, at
    most ``policy.max_attempts`` times.  The recovery cost of all
    failed attempts is also folded into the returned launch record's
    ``timing.recovery_seconds`` (and its total), so NSPS computed from
    records reflects the faults.  :class:`~repro.errors.DeviceLostError`
    is fatal and propagates immediately.
    """
    policy = policy if policy is not None else RetryPolicy()
    watchdog = watchdog if watchdog is not None else Watchdog()
    delays = policy.delay_sequence()
    penalty = 0.0
    for attempt in range(policy.max_attempts):
        try:
            result = operation()
        except DeviceLostError:
            raise
        except (KernelError, LaunchTimeoutError, MemoryModelError) as exc:
            if isinstance(exc, MemoryModelError):
                scrubbed = _scrub_poison(spec)
                if scrubbed == 0:
                    raise    # a genuine memory-model bug, not a fault
                if stats is not None:
                    stats.scrubbed_allocations += scrubbed
                _trace_recovery("scrub", kernel=spec.name, count=scrubbed)
            if isinstance(exc, LaunchTimeoutError):
                # the hung launch burned the whole watchdog window
                queue.timeline.schedule(f"watchdog:{spec.name}",
                                        watchdog.timeout_seconds)
                penalty += watchdog.timeout_seconds
                if stats is not None:
                    stats.watchdog_seconds += watchdog.timeout_seconds
            if attempt + 1 >= policy.max_attempts:
                if stats is not None:
                    stats.giveups += 1
                _trace_recovery("giveup", kernel=spec.name,
                                attempts=policy.max_attempts,
                                error=type(exc).__name__)
                raise
            delay = next(delays)
            queue.timeline.schedule(f"backoff:{spec.name}", delay)
            penalty += delay
            if stats is not None:
                stats.retries += 1
                stats.backoff_seconds += delay
            _trace_recovery("retry", kernel=spec.name, attempt=attempt,
                            delay_seconds=delay,
                            error=type(exc).__name__)
        else:
            timing = getattr(result, "timing", None)
            if penalty > 0.0 and timing is not None:
                timing.recovery_seconds += penalty
                timing.total_seconds += penalty
            return result
    raise AssertionError("unreachable: retry loop neither returned "
                         "nor raised")


def launch_with_retry(queue, n_items: int, spec, kernel=None,
                      precision=None, *,
                      policy: Optional[RetryPolicy] = None,
                      watchdog: Optional[Watchdog] = None,
                      stats: Optional[RecoveryStats] = None):
    """``queue.parallel_for`` with recovery; a 1:1 drop-in when faults
    are off.

    Fast path: with no installed fault injector this is exactly one
    ``queue.parallel_for`` call — no retry machinery, no timeline
    writes — so fault-free callers (the bench harness) keep their
    behaviour bit-identical.
    """
    kwargs = {} if precision is None else {"precision": precision}
    if active_fault_injector() is None:
        return queue.parallel_for(n_items, spec, kernel=kernel, **kwargs)
    return run_with_retry(
        lambda: queue.parallel_for(n_items, spec, kernel=kernel, **kwargs),
        queue, spec, policy=policy, watchdog=watchdog, stats=stats)


def allocate_with_retry(build: Callable[[], object], queue,
                        *, policy: Optional[RetryPolicy] = None,
                        stats: Optional[RecoveryStats] = None):
    """Run an allocating ``build`` callable, retrying USM exhaustion.

    Spec construction (:func:`repro.oneapi.runtime.build_virtual_push_spec`)
    registers USM allocations *before* any launch exists, so an injected
    ``alloc-failure`` there cannot be caught by :func:`run_with_retry`
    — it has no spec to scrub and no launch record to charge.  This
    wrapper retries only :class:`~repro.errors.AllocationFailedError`,
    charging each backoff to ``queue``'s timeline as ``backoff:alloc``.
    Fast path: with no installed fault injector, exactly one ``build()``
    call.
    """
    if active_fault_injector() is None:
        return build()
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delay_sequence()
    for attempt in range(policy.max_attempts):
        try:
            return build()
        except AllocationFailedError as exc:
            if attempt + 1 >= policy.max_attempts:
                if stats is not None:
                    stats.giveups += 1
                _trace_recovery("giveup", kernel="alloc",
                                attempts=policy.max_attempts,
                                error=type(exc).__name__)
                raise
            delay = next(delays)
            queue.timeline.schedule("backoff:alloc", delay)
            if stats is not None:
                stats.retries += 1
                stats.backoff_seconds += delay
            _trace_recovery("retry", kernel="alloc", attempt=attempt,
                            delay_seconds=delay,
                            error=type(exc).__name__)
    raise AssertionError("unreachable: retry loop neither returned "
                         "nor raised")
