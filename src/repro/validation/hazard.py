"""Memory-hazard detection over a simulated queue's command log.

DPC++'s out-of-order queues make ordering the *programmer's* problem:
two submitted kernels run concurrently unless an event
(``handler.depends_on``) or an accessor chain orders them.  Drop one
edge and the program is racy — and, because the simulator executes
kernel bodies eagerly on the host, the physics here would still come
out right while the *declared* schedule silently stopped being a valid
execution order.  This module closes that gap: it replays what every
command declared it touches and verifies the declared dependency edges
are enough.

The evidence is :attr:`repro.oneapi.queue.Queue.commands` — one
:class:`~repro.oneapi.queue.CommandRecord` per kernel launch or async
copy, carrying the stream names it reads/writes (derived from its
:class:`~repro.oneapi.kernelspec.KernelSpec`, the same sets the kernel
graph's :class:`~repro.oneapi.graph.KernelNode` exposes) and the
events it depended on.  Two commands *conflict* when they touch a
shared stream and at least one writes:

* **RAW** — the earlier command writes what the later reads;
* **WAR** — the earlier reads what the later writes;
* **WAW** — both write the same stream.

A conflicting pair is a :class:`Hazard` unless a ``depends_on`` path
(transitively) orders the earlier command before the later one.
In-order queues serialize every pair by construction and can never
hazard.  Each queue owns its own address space (a sharded run's member
queues touch *different* ensembles under the same stream names), so
logs are checked per queue, never concatenated across queues.

Found hazards are reported through the active tracer as
``hazard:<kind>`` events
(:meth:`~repro.observability.tracer.Tracer.event`) before
:func:`assert_hazard_free` raises :class:`~repro.errors.HazardError`,
so a traced run keeps the evidence even when the exception is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set

from ..errors import HazardError
from ..observability.tracer import active_tracer

__all__ = ["Hazard", "find_hazards", "check_queue", "assert_hazard_free"]


@dataclass(frozen=True)
class Hazard:
    """One conflicting command pair no ``depends_on`` path orders.

    Attributes:
        kind: "RAW", "WAR" or "WAW".
        earlier / later: The two commands' names, in submission order.
        streams: The shared stream names the pair conflicts on.
        earlier_index / later_index: Positions in the replayed log.
    """

    kind: str
    earlier: str
    later: str
    streams: FrozenSet[str]
    earlier_index: int
    later_index: int

    def describe(self) -> str:
        """Human-readable one-liner naming the racing pair."""
        return (f"{self.kind} hazard on {sorted(self.streams)}: "
                f"command #{self.earlier_index} ({self.earlier!r}) and "
                f"command #{self.later_index} ({self.later!r}) are not "
                f"ordered by any depends_on path")


def find_hazards(commands: Sequence, in_order: bool = False
                 ) -> List[Hazard]:
    """Replay a command log; return every unordered conflicting pair.

    ``commands`` are :class:`~repro.oneapi.queue.CommandRecord`-shaped
    objects in submission order (duck-typed: ``name``, ``event.seq``,
    ``reads``, ``writes``, ``depends_on``).  ``in_order`` short-circuits
    to no hazards — an in-order queue serializes every pair regardless
    of declared edges.  Dependency edges pointing at events outside the
    log (a previous epoch, another queue) order nothing *within* it and
    are ignored.

    A pair conflicting in several ways (e.g. two read-modify-write
    kernels) yields one :class:`Hazard` per kind.  Every hazard is also
    reported through the active tracer.
    """
    if in_order:
        return []
    commands = list(commands)
    index_of = {c.event.seq: i for i, c in enumerate(commands)}
    # ancestors[i]: log indices with a depends_on path into command i.
    ancestors: List[Set[int]] = []
    for i, command in enumerate(commands):
        reachable: Set[int] = set()
        for dep in command.depends_on:
            j = index_of.get(dep.seq)
            if j is not None and j < i:
                reachable.add(j)
                reachable |= ancestors[j]
        ancestors.append(reachable)
    tracer = active_tracer()
    hazards: List[Hazard] = []
    for j, later in enumerate(commands):
        for i in range(j):
            if i in ancestors[j]:
                continue
            earlier = commands[i]
            for kind, shared in (("RAW", earlier.writes & later.reads),
                                 ("WAR", earlier.reads & later.writes),
                                 ("WAW", earlier.writes & later.writes)):
                if not shared:
                    continue
                hazards.append(Hazard(kind, earlier.name, later.name,
                                      frozenset(shared), i, j))
                if tracer is not None:
                    tracer.event("hazard", kind, earlier=earlier.name,
                                 later=later.name,
                                 streams=",".join(sorted(shared)),
                                 earlier_index=i, later_index=j)
    return hazards


def check_queue(queue) -> List[Hazard]:
    """Replay one queue's own command log with its ordering semantics."""
    return find_hazards(queue.commands, in_order=queue.timeline.in_order)


def assert_hazard_free(commands_or_queue, in_order: Optional[bool] = None,
                       label: str = "") -> int:
    """Raise :class:`~repro.errors.HazardError` on any detected hazard.

    Accepts either a :class:`~repro.oneapi.queue.Queue` (its command
    log and in-order flag are used, and its timeline label names the
    failure) or a plain command sequence with an explicit ``in_order``.
    Returns the number of commands checked when clean.
    """
    commands = getattr(commands_or_queue, "commands", commands_or_queue)
    if in_order is None:
        timeline = getattr(commands_or_queue, "timeline", None)
        in_order = bool(timeline.in_order) if timeline is not None else False
        if not label and timeline is not None:
            label = timeline.label
    hazards = find_hazards(commands, in_order=in_order)
    if hazards:
        first = hazards[0]
        where = f" on {label}" if label else ""
        raise HazardError(
            f"{len(hazards)} unordered conflicting command pair(s)"
            f"{where}; first: {first.describe()}")
    return len(list(commands))
