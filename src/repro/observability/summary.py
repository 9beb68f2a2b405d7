"""The flat per-kernel summary table and steady-state NSPS agreement.

:func:`kernel_summary` reduces a tracer's per-kernel statistics to one
row per ``(scope, kernel)`` pair; :func:`steady_nsps` applies *exactly*
the warm-up-skipping average that
:func:`repro.bench.metrics.nsps_from_records` applies to queue records,
so the NSPS printed from a trace is bit-identical to the NSPS the bench
harness reports for the same launches — the invariant the
``--trace`` CLI flag and the regression-guard test rely on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..errors import ConfigurationError
from .counters import KernelStats, LaunchSample
from .tracer import Tracer

__all__ = ["steady_nsps", "kernel_summary", "format_kernel_summary"]


def steady_nsps(samples: Sequence[LaunchSample],
                skip_warmup: int = 2) -> float:
    """Steady-state modelled NSPS over launch samples.

    Mirrors :func:`repro.bench.metrics.nsps_from_records`: drop the
    first ``skip_warmup`` launches (JIT + cold pages) when more than
    that many exist, then average per-launch NSPS.
    """
    if not samples:
        raise ConfigurationError("no launch samples to average")
    steady = samples[skip_warmup:] if len(samples) > skip_warmup else samples
    return sum(s.nsps() for s in steady) / len(steady)


def kernel_summary(tracer: Tracer,
                   skip_warmup: int = 2) -> List[Dict[str, Any]]:
    """One summary row per (scope, kernel), sorted by scope then name.

    Each row carries: ``scope``, ``kernel``, ``launches``, ``items``,
    ``steady_nsps`` (modelled ns/item/step after warm-up),
    ``first_nsps`` (the cold first launch), ``modelled_seconds``,
    ``wall_seconds``, ``warmup_seconds`` (JIT + first-touch),
    ``bytes_moved``, ``remote_fraction``, ``cold_pages`` and ``bound``.
    """
    rows: List[Dict[str, Any]] = []
    for (scope, name), stats in sorted(tracer.kernel_stats.items()):
        rows.append(_row(scope, name, stats, skip_warmup))
    return rows


def _row(scope: str, name: str, stats: KernelStats,
         skip_warmup: int) -> Dict[str, Any]:
    first = stats.samples[0] if stats.samples else None
    return {
        "scope": scope,
        "kernel": name,
        "launches": stats.launches,
        "items": stats.items,
        "steady_nsps": steady_nsps(stats.samples, skip_warmup)
        if stats.samples else 0.0,
        "first_nsps": first.nsps() if first is not None else 0.0,
        "modelled_seconds": stats.modelled_seconds,
        "wall_seconds": stats.wall_seconds,
        "warmup_seconds": stats.warmup_seconds,
        "bytes_moved": stats.bytes_moved,
        "remote_fraction": (stats.remote_bytes / stats.bytes_moved
                            if stats.bytes_moved else 0.0),
        "cold_pages": stats.cold_pages,
        "bound": stats.samples[-1].bound if stats.samples else "-",
    }


_COLUMNS = (
    ("scope", "scope", "{}"),
    ("kernel", "kernel", "{}"),
    ("launches", "launches", "{}"),
    ("steady_nsps", "steady NSPS", "{:.3f}"),
    ("first_nsps", "first NSPS", "{:.3f}"),
    ("warmup_seconds", "warm-up s", "{:.4f}"),
    ("wall_seconds", "wall s", "{:.4f}"),
    ("remote_fraction", "remote", "{:.0%}"),
    ("bound", "bound", "{}"),
)


def format_kernel_summary(tracer: Tracer, skip_warmup: int = 2,
                          title: str = "Per-kernel trace summary") -> str:
    """Render :func:`kernel_summary` as an aligned text table.

    Deliberately self-contained (no :mod:`repro.bench.tables` import)
    so the observability package stays dependency-free of the layers it
    measures.
    """
    rows = kernel_summary(tracer, skip_warmup)
    cells = [[fmt.format(row[key]) for key, _, fmt in _COLUMNS]
             for row in rows]
    headers = [header for _, header, _ in _COLUMNS]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells))
              if cells else len(headers[i]) for i in range(len(headers))]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
