"""Versioned baseline files: one schema over every committed reference.

PR 3 grew ``benchmarks/BENCH_<scenario>.json`` trajectory files (v0:
``{"scenario": ..., "snapshots": [...]}`` with flat per-snapshot cell
lists) and PR 8 added a portability baseline in a third, flat shape
(``{"pp": ..., "devices": [...]}``).  This module unifies them:

**Schema v1** — one JSON object per suite::

    {"schema_version": 1,
     "suite": "fusion",
     "snapshots": [
        {"git_sha": "...", "date": "2026-08-08", "n_particles": 200000,
         "params": {"steps": 8, "warmup": 2},
         "cells": [
            {"suite": "fusion", "backend": "oneapi",
             "device": "iris-xe-max", "config": "fused",
             "layout": "SoA", "precision": "float",
             "scenario": "precalculated",
             "metrics": {"nsps": 1.0417, "cold_nsps": 1548.08},
             "tolerance": 0.10,
             "extra": {"digest": "bdb5e35b..."}},
            ...]},
        ...]}

* ``snapshots`` stays append-only: the file is the committed
  performance trajectory, and the latest snapshot is the regression
  reference.
* Every cell carries the three required key fields (``backend``,
  ``device``, ``config``), the optional axes (``layout``,
  ``precision``, ``scenario``), a named ``metrics`` mapping, and its
  own ``tolerance`` — per-cell references, so one file can mix a 10%
  NSPS band with a 2% PP-score band.

**Loading** accepts v0 files of both legacy shapes and migrates them
in memory (``backend`` inferred from the device spec, the single
``nsps`` value moved under ``metrics``), so a checkout that still
carries v0 baselines regresses fine.  **Writing** only ever emits v1,
through :func:`append_snapshot`, the only writer: appending a
snapshot to a v0 file first migrates its whole history.
"""

from __future__ import annotations

import datetime
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ConfigurationError, ValidationError
from .base import REQUIRED_KEY_FIELDS, cell_key

__all__ = ["SCHEMA_VERSION", "BaselineCell", "BaselineSnapshot",
           "Baseline", "backend_of_device", "baseline_path",
           "load_baseline", "append_snapshot", "migrate_document",
           "baseline_suites", "git_sha"]

#: The only schema version the writer emits.
SCHEMA_VERSION = 1

#: Default directory of the committed baseline files.
DEFAULT_DIRECTORY = "benchmarks"

#: Cell fields that are identity, not payload (see base.KEY_FIELDS).
_CELL_KEY_FIELDS = ("suite", "backend", "device", "config", "layout",
                    "precision", "scenario")


def backend_of_device(device_spec: str) -> str:
    """Backend name a device spec belongs to (``cuda:gpu0`` → cuda).

    Bare keys and group specs (``"2x iris-xe-max"``) are oneAPI — the
    registry's own convention (:mod:`repro.backends.registry`).
    """
    from ..backends.registry import parse_device_spec
    try:
        backend, _ = parse_device_spec(str(device_spec))
    except Exception:
        return "oneapi"
    return backend


@dataclass
class BaselineCell:
    """One reference cell: identity keys, metrics, its tolerance."""

    keys: Dict[str, str]
    metrics: Dict[str, float]
    tolerance: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def identity(self):
        return cell_key(self.keys)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.keys)
        data["metrics"] = {k: float(v) for k, v in self.metrics.items()}
        if self.tolerance is not None:
            data["tolerance"] = self.tolerance
        if self.extra:
            data["extra"] = dict(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BaselineCell":
        missing = [k for k in REQUIRED_KEY_FIELDS if k not in data]
        if missing or "metrics" not in data:
            raise ValidationError(
                f"baseline cell missing required fields "
                f"{missing + (['metrics'] if 'metrics' not in data else [])}"
                f": {sorted(data)}")
        keys = {k: str(data[k]) for k in _CELL_KEY_FIELDS if k in data}
        metrics = {str(k): float(v)
                   for k, v in dict(data["metrics"]).items()}
        tolerance = data.get("tolerance")
        return cls(keys=keys, metrics=metrics,
                   tolerance=None if tolerance is None
                   else float(tolerance),
                   extra=dict(data.get("extra", {})))

    @classmethod
    def from_flat(cls, suite: str, flat: Dict[str, object],
                  tolerance: Optional[float] = None) -> "BaselineCell":
        """Migrate one v0 trajectory cell (flat dict, bare ``nsps``)."""
        keys = {"suite": suite}
        metrics: Dict[str, float] = {}
        extra: Dict[str, object] = {}
        for key, value in flat.items():
            if key in ("config", "layout", "precision", "scenario",
                       "device"):
                keys[key] = str(value)
            elif isinstance(value, bool):
                extra[key] = value
            elif isinstance(value, (int, float)):
                metrics[key] = float(value)
            else:
                extra[key] = value
        keys.setdefault("config", "default")
        keys.setdefault("device", "unknown")
        keys["backend"] = backend_of_device(keys["device"])
        if "nsps" not in metrics:
            raise ValidationError(
                f"v0 cell has no nsps metric: {sorted(flat)}")
        return cls(keys=keys, metrics=metrics, tolerance=tolerance,
                   extra=extra)


@dataclass
class BaselineSnapshot:
    """One recorded run: provenance plus its cell list."""

    git_sha: str
    date: str
    n_particles: int
    cells: List[BaselineCell] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "git_sha": self.git_sha, "date": self.date,
            "n_particles": self.n_particles,
        }
        if self.params:
            data["params"] = dict(self.params)
        data["cells"] = [cell.as_dict() for cell in self.cells]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BaselineSnapshot":
        return cls(git_sha=str(data.get("git_sha", "unknown")),
                   date=str(data.get("date", "")),
                   n_particles=int(data.get("n_particles", 0)),
                   cells=[BaselineCell.from_dict(c)
                          for c in data.get("cells", [])],
                   params=dict(data.get("params", {})))


@dataclass
class Baseline:
    """A suite's whole committed trajectory (v1 in memory)."""

    suite: str
    snapshots: List[BaselineSnapshot] = field(default_factory=list)

    @property
    def latest(self) -> Optional[BaselineSnapshot]:
        return self.snapshots[-1] if self.snapshots else None

    def as_dict(self) -> Dict[str, object]:
        return {"schema_version": SCHEMA_VERSION, "suite": self.suite,
                "snapshots": [s.as_dict() for s in self.snapshots]}


def baseline_path(suite: str, directory=None) -> Path:
    """Path of a suite's baseline file (``BENCH_<suite>.json``)."""
    if not suite or any(c in suite for c in "/\\"):
        raise ConfigurationError(f"bad suite name {suite!r}")
    base = Path(directory) if directory is not None \
        else Path(DEFAULT_DIRECTORY)
    return base / f"BENCH_{suite}.json"


def baseline_suites(directory=None) -> List[str]:
    """Suites with a baseline file present in ``directory``."""
    base = Path(directory) if directory is not None \
        else Path(DEFAULT_DIRECTORY)
    return sorted(p.stem[len("BENCH_"):]
                  for p in base.glob("BENCH_*.json"))


# -- migration: the two v0 shapes -> v1 ---------------------------------

def _migrate_trajectory_v0(suite: str,
                           document: Dict[str, object]) -> Baseline:
    """v0 trajectory files: {"scenario": ..., "snapshots": [...]}."""
    snapshots = []
    for snap in document.get("snapshots", []):
        snapshots.append(BaselineSnapshot(
            git_sha=str(snap.get("git_sha", "unknown")),
            date=str(snap.get("date", "")),
            n_particles=int(snap.get("n_particles", 0)),
            cells=[BaselineCell.from_flat(suite, cell)
                   for cell in snap.get("cells", [])]))
    return Baseline(suite=suite, snapshots=snapshots)


def _migrate_portability_v0(suite: str,
                            document: Dict[str, object]) -> Baseline:
    """v0 portability baseline: the flat PortabilityReport dump.

    Becomes one snapshot: one cell per device (efficiency metrics) plus
    the ``pp`` summary cell the performance stage compares — matching
    the legacy check, which compared the PP score and the device set
    but not per-device NSPS.
    """
    from ..backends.portability import PP_DRIFT_TOLERANCE
    cells = []
    for row in document.get("devices", []):
        device = str(row.get("device", "unknown"))
        metrics = {k: float(row[k])
                   for k in ("best_nsps", "portable_nsps", "efficiency")
                   if k in row and row[k] is not None}
        if row.get("predicted_nsps") is not None:
            metrics["predicted_nsps"] = float(row["predicted_nsps"])
        cells.append(BaselineCell(
            keys={"suite": suite,
                  "backend": str(row.get("backend")
                                 or backend_of_device(device)),
                  "device": device, "config": "efficiency"},
            metrics=metrics, tolerance=None,
            extra={"best_label": row.get("best_label", "")}))
    cells.append(BaselineCell(
        keys={"suite": suite, "backend": "*", "device": "*",
              "config": "pp"},
        metrics={"pp": float(document.get("pp", 0.0))},
        tolerance=PP_DRIFT_TOLERANCE,
        extra={"portable_config": dict(document.get("portable_config",
                                                    {}))}))
    snapshot = BaselineSnapshot(
        git_sha="unknown", date="",
        n_particles=int(document.get("n_particles", 0)),
        cells=cells,
        params={k: document[k] for k in ("steps", "warmup")
                if k in document})
    return Baseline(suite=suite, snapshots=[snapshot])


def migrate_document(suite: str, document: Dict[str, object]) -> Baseline:
    """Parse any schema version into an in-memory v1 :class:`Baseline`."""
    if not isinstance(document, dict):
        raise ValidationError(
            f"baseline for {suite!r} is not a JSON object")
    version = document.get("schema_version")
    if version is not None:
        if int(version) != SCHEMA_VERSION:
            raise ValidationError(
                f"baseline for {suite!r} has unsupported schema_version "
                f"{version} (this build reads v0 and v{SCHEMA_VERSION})")
        if document.get("suite") != suite:
            raise ValidationError(
                f"baseline file claims suite "
                f"{document.get('suite')!r}, expected {suite!r}")
        return Baseline(
            suite=suite,
            snapshots=[BaselineSnapshot.from_dict(s)
                       for s in document.get("snapshots", [])])
    if "snapshots" in document:           # v0 trajectory
        if document.get("scenario") != suite:
            raise ValidationError(
                f"v0 trajectory claims scenario "
                f"{document.get('scenario')!r}, expected {suite!r}")
        return _migrate_trajectory_v0(suite, document)
    if "pp" in document and "devices" in document:   # v0 portability
        return _migrate_portability_v0(suite, document)
    raise ValidationError(
        f"unrecognised baseline shape for {suite!r}: {sorted(document)}")


# -- file I/O -----------------------------------------------------------

def load_baseline(suite: str, directory=None) -> Optional[Baseline]:
    """Load a suite's baseline, migrating v0 shapes in memory.

    Returns None when no file exists (a missing baseline skips the
    performance stage; a *corrupt* one raises
    :class:`~repro.errors.ValidationError` — the drift check must not
    silently pass).
    """
    path = baseline_path(suite, directory)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValidationError(
            f"unreadable baseline {path}: "
            f"{type(exc).__name__}: {exc}") from exc
    return migrate_document(suite, document)


def git_sha() -> str:
    """Current commit sha, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _write(baseline: Baseline, directory=None) -> Path:
    """Write a whole baseline file — always schema v1, pretty-printed
    with a trailing newline (diff-friendly, like every committed
    artefact)."""
    path = baseline_path(baseline.suite, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline.as_dict(), handle, indent=1)
        handle.write("\n")
    return path


def append_snapshot(suite: str, cells: List[Dict[str, object]],
                    n_particles: int, directory=None,
                    sha: Optional[str] = None,
                    params: Optional[Dict[str, object]] = None) -> Path:
    """Append one recorded snapshot; the file comes out v1.

    ``cells`` are v1 cell dicts (:meth:`RegressionTest.make_cell`).  An
    existing v0 file is migrated wholesale first, so its recorded
    history survives the schema change.
    """
    if not cells:
        raise ConfigurationError("refusing to record an empty snapshot")
    parsed = [BaselineCell.from_dict(cell) for cell in cells]
    baseline = load_baseline(suite, directory) or Baseline(suite=suite)
    baseline.snapshots.append(BaselineSnapshot(
        git_sha=sha if sha is not None else git_sha(),
        date=datetime.date.today().isoformat(),
        n_particles=int(n_particles), cells=parsed,
        params=dict(params or {})))
    return _write(baseline, directory)
