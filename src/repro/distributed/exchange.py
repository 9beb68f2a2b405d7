"""Cost-modeled inter-shard exchange: halos over the interconnect.

A particle decomposition needs its neighbours' boundary particles (and
in the precalculated scenario their field values) once per step.  The
simulated exchange follows the classic ring pattern of
domain-decomposed PIC: shard *i* trades a halo with shards *i±1*, and
each transfer is priced by the composed
:class:`~repro.distributed.links.LinkDescriptor` of the two endpoints
and placed on the *sending member's* out-of-order queue with
``memcpy_async`` — so with the right dependency wiring it overlaps the
next push kernel instead of extending it.

The halo is modeled as a fixed fraction of the shard's particles
(default 2%, the boundary-layer share of a mildly relativistic
ensemble crossing a cell per step); each halo particle moves its full
record (phase space + fields in the precalculated scenario).

Exchange is also the distributed layer's fault surface: under an
active injector ``memcpy_async`` may raise
:class:`~repro.errors.ExchangeTimeoutError`.  The model charges the
stalled watchdog window to the member's simulated timeline and
re-issues the copy, up to a bounded number of attempts — the same
burn-the-window-then-retry contract the resilience layer applies to
hung kernel launches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ExchangeTimeoutError
from ..observability.tracer import active_tracer
from ..oneapi.events import SimEvent
from .group import DeviceGroup

__all__ = ["ExchangePolicy", "ExchangeReport", "ExchangeModel"]


@dataclass(frozen=True)
class ExchangePolicy:
    """Tunables of the exchange cost model.

    Attributes:
        halo_fraction: Fraction of a shard's particles exchanged with
            *each* ring neighbour per step.
        bytes_per_particle_extra: Extra payload bytes per halo particle
            on top of the particle record (e.g. interpolated field
            values in the precalculated scenario).
        watchdog_seconds: Simulated window charged to the timeline when
            an exchange stalls before it is re-issued.
        max_attempts: Total tries per transfer (first issue + retries)
            before the stall is re-raised to the caller.
    """

    halo_fraction: float = 0.02
    bytes_per_particle_extra: int = 0
    watchdog_seconds: float = 5.0e-4
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.halo_fraction <= 1.0:
            raise ConfigurationError(
                f"halo_fraction must be in [0, 1], got {self.halo_fraction!r}")
        if self.bytes_per_particle_extra < 0:
            raise ConfigurationError("bytes_per_particle_extra must be >= 0")
        if self.watchdog_seconds < 0.0:
            raise ConfigurationError("watchdog_seconds must be >= 0")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    def halo_count(self, shard_size: int) -> int:
        """Halo particles per neighbour for a shard of ``shard_size``."""
        if shard_size <= 0:
            return 0
        return max(1, math.ceil(self.halo_fraction * shard_size))


@dataclass
class ExchangeReport:
    """Accumulated exchange accounting over a run."""

    transfers: int = 0
    total_bytes: int = 0
    #: Sum of simulated transfer durations [s] (overlap not deducted).
    total_seconds: float = 0.0
    stalls: int = 0
    #: Stall-window seconds charged to timelines by retries.
    stalled_seconds: float = 0.0
    per_member_bytes: Dict[str, int] = field(default_factory=dict)


class ExchangeModel:
    """Prices and schedules the per-step ring exchange of a group.

    Args:
        group: The device group (link lookups + member queues).
        policy: Exchange tunables.
        bytes_per_particle: Size of one halo particle's record
            [bytes] — the ensemble's per-particle footprint, plus the
            policy's extra payload.
    """

    def __init__(self, group: DeviceGroup, policy: ExchangePolicy,
                 bytes_per_particle: int) -> None:
        if bytes_per_particle <= 0:
            raise ConfigurationError(
                f"bytes_per_particle must be positive, "
                f"got {bytes_per_particle}")
        self.group = group
        self.policy = policy
        self.bytes_per_particle = (bytes_per_particle
                                   + policy.bytes_per_particle_extra)
        self.report = ExchangeReport()

    def _neighbours(self, index: int) -> List[int]:
        """Ring neighbours of shard ``index`` (deduplicated)."""
        n = len(self.group)
        if n < 2:
            return []
        left = (index - 1) % n
        right = (index + 1) % n
        return [left] if left == right else [left, right]

    def _issue(self, member_index: int, neighbour_index: int,
               nbytes: int, step: int,
               depends_on: Optional[Sequence[SimEvent]]) -> SimEvent:
        """One transfer with stall-retry, charged to the member's queue."""
        member = self.group.members[member_index]
        link = self.group.link_between(member_index, neighbour_index)
        name = (f"exchange:{member_index}->{neighbour_index}"
                f":step{step}")
        deps = list(depends_on) if depends_on else None
        tracer = active_tracer()
        for attempt in range(self.policy.max_attempts):
            try:
                event = member.queue.memcpy_async(
                    name, nbytes, bandwidth=link.bandwidth,
                    latency=link.latency, depends_on=deps)
            except ExchangeTimeoutError:
                # Burn the watchdog window on the simulated clock, then
                # serialize the re-issue after it.
                self.report.stalls += 1
                self.report.stalled_seconds += self.policy.watchdog_seconds
                stall = member.queue.timeline.schedule(
                    f"{name}:stall{attempt}", self.policy.watchdog_seconds,
                    depends_on=deps,
                    trace_args={"bytes": nbytes, "stalled": True})
                deps = [stall]
                if tracer is not None:
                    tracer.event("fault", "exchange-stall",
                                 device=member.name, detail=name,
                                 attempt=attempt)
                if attempt == self.policy.max_attempts - 1:
                    raise
            else:
                if tracer is not None:
                    tracer.exchange(name, event.duration, nbytes,
                                    link=link.name, attempt=attempt)
                return event
        raise AssertionError("unreachable")  # pragma: no cover

    def exchange_step(self, step: int, shard_sizes: Sequence[int],
                      depends_on: Sequence[Optional[List[SimEvent]]]
                      ) -> List[Optional[SimEvent]]:
        """Schedule one step's halo exchange for every shard.

        Args:
            step: Step index (event naming only).
            shard_sizes: Current particle count per shard.
            depends_on: Per-shard dependency lists — normally the
                shard's just-issued push event, so the exchange starts
                when the push finishes.

        Returns:
            Per-shard completion event of the *last* transfer the shard
            issued (None for shards with nothing to exchange — empty
            shards or a single-member group).  A shard's next
            non-overlapped push should depend on this event.
        """
        if len(shard_sizes) != len(self.group):
            raise ConfigurationError(
                f"got {len(shard_sizes)} shard sizes for "
                f"{len(self.group)} members")
        last_events: List[Optional[SimEvent]] = []
        for index, size in enumerate(shard_sizes):
            halo = self.policy.halo_count(int(size))
            nbytes = halo * self.bytes_per_particle
            event: Optional[SimEvent] = None
            if nbytes > 0:
                for neighbour in self._neighbours(index):
                    event = self._issue(index, neighbour, nbytes, step,
                                        depends_on[index])
                    self.report.transfers += 1
                    self.report.total_bytes += nbytes
                    self.report.total_seconds += event.duration
                    member_name = self.group.members[index].name
                    self.report.per_member_bytes[member_name] = \
                        self.report.per_member_bytes.get(member_name, 0) \
                        + nbytes
            last_events.append(event)
        return last_events
