"""Seeded Monte Carlo operators for the PIC loop.

Following "Multi-GPU Hybrid Particle-in-Cell Monte Carlo Simulations
for Exascale Computing Systems", collisions and field ionization enter
the device loop as first-class kernels between the push and the
deposit.  Two operators are provided:

* :class:`CollisionOperator` — elastic small-angle scattering against
  a stationary background (a Takizuka–Abe-style pitch-angle kick):
  each particle's momentum vector is rotated by a random polar angle
  drawn from the collision frequency, preserving ``|p|`` — and hence
  kinetic energy — exactly up to round-off.
* :class:`IonizationOperator` — field ionization with an ADK-like
  exponential rate in the *gathered* per-particle electric field:
  macroparticles sitting in strong fields grow their weight (newly
  freed physical electrons joining the macroparticle), which is why
  the operator invalidates the deposition layer's cached ``q·w``.

**Determinism contract.**  Every random draw comes from a
*counter-based* generator (:func:`step_generator`, numpy's Philox)
keyed on ``(seed, operator tag)`` with the counter set from
``(step index, ensemble stream)``.  Draws therefore depend only on the
logical step — never on how kernels were grouped into launches — so
fused and unfused engine modes and the host reference are bit-exact,
and two runs with the same seed are bit-exact across processes.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..fields.base import FieldValues
from ..particles.ensemble import ParticleEnsemble
from .deposition import invalidate_charge_weight

__all__ = ["step_generator", "PicOperator", "CollisionOperator",
           "IonizationOperator"]

#: Floating-point work per particle of each operator (single-precision
#: equivalent flops) — what their kernel specs declare.
COLLISION_FLOPS = 60
IONIZATION_FLOPS = 25


def step_generator(seed: int, tag: str, step: int,
                   stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one (operator, step, stream) cell.

    Philox is a counter-based RNG: the key is ``(seed, crc32(tag))``
    and the counter encodes ``(step, stream)``, so the draw sequence is
    a pure function of those four values — no hidden state advances
    between steps, which is what keeps fused and unfused executions of
    the same logical step bit-exact.
    """
    if step < 0:
        raise ConfigurationError(f"step must be >= 0, got {step}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(zlib.crc32(tag.encode("utf-8")))],
                   dtype=np.uint64)
    counter = np.array([np.uint64(step), np.uint64(stream),
                        np.uint64(0), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class PicOperator:
    """Interface of a Monte Carlo operator in the PIC loop.

    Operators run after the push and before the deposit, once per
    ensemble per step.  Subclasses declare:

    * ``tag`` — the RNG key component and the kernel-node tag;
    * ``reads_fields`` — whether :meth:`apply` consumes the gathered
      per-particle field arrays (decides whether the operator's kernel
      node reads the gather stage's transient streams);
    * ``mutates_weight`` — whether weights change (decides whether the
      node declares the weight stream and must invalidate the
      deposition ``q·w`` cache);
    * ``flops_per_item`` — the arithmetic its kernel spec declares.
    """

    tag: str = "operator"
    reads_fields: bool = False
    mutates_weight: bool = False
    flops_per_item: float = 10.0

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def apply(self, ensemble: ParticleEnsemble,
              fields: Optional[FieldValues], step: int, dt: float,
              stream: int = 0) -> None:
        """Apply the operator in place for one logical step."""
        raise NotImplementedError


class CollisionOperator(PicOperator):
    """Elastic pitch-angle scattering against a stationary background.

    ``frequency`` [1/s] is the momentum-transfer collision frequency
    ``nu``; each step every particle's momentum direction is rotated by
    a polar angle with variance ``2 nu dt`` (the small-angle Lorentz
    limit) and a uniform azimuth.  ``|p|`` is preserved, so the
    operator conserves kinetic energy to round-off — the property the
    scenario energy-drift tests lean on.
    """

    tag = "collide"
    reads_fields = False
    mutates_weight = False
    flops_per_item = float(COLLISION_FLOPS)

    def __init__(self, frequency: float, seed: int = 0) -> None:
        super().__init__(seed)
        if frequency < 0.0:
            raise ConfigurationError(
                f"collision frequency must be >= 0, got {frequency!r}")
        self.frequency = float(frequency)

    def apply(self, ensemble: ParticleEnsemble,
              fields: Optional[FieldValues], step: int, dt: float,
              stream: int = 0) -> None:
        n = ensemble.size
        if n == 0 or self.frequency == 0.0:
            return
        rng = step_generator(self.seed, self.tag, step, stream)
        # Fixed draw order: polar kick first, then azimuth.
        theta = rng.standard_normal(n) * np.sqrt(
            2.0 * self.frequency * float(dt))
        phi = rng.random(n) * (2.0 * np.pi)

        px = ensemble.component("px").astype(np.float64)
        py = ensemble.component("py").astype(np.float64)
        pz = ensemble.component("pz").astype(np.float64)
        p = np.sqrt(px * px + py * py + pz * pz)
        moving = p > 0.0
        safe = np.where(moving, p, 1.0)
        ux, uy, uz = px / safe, py / safe, pz / safe

        # An orthonormal frame about the momentum direction: pick the
        # seed axis least aligned with u so the cross product is stable.
        ax = np.where(np.abs(ux) < 0.9, 1.0, 0.0)
        ay = 1.0 - ax
        e1x = uy * 0.0 - uz * ay
        e1y = uz * ax - ux * 0.0
        e1z = ux * ay - uy * ax
        norm = np.sqrt(e1x * e1x + e1y * e1y + e1z * e1z)
        norm = np.where(norm > 0.0, norm, 1.0)
        e1x, e1y, e1z = e1x / norm, e1y / norm, e1z / norm
        e2x = uy * e1z - uz * e1y
        e2y = uz * e1x - ux * e1z
        e2z = ux * e1y - uy * e1x

        sin_t, cos_t = np.sin(theta), np.cos(theta)
        sin_p, cos_p = np.sin(phi), np.cos(phi)
        kick = sin_t * cos_p
        lift = sin_t * sin_p
        nx = cos_t * ux + kick * e1x + lift * e2x
        ny = cos_t * uy + kick * e1y + lift * e2y
        nz = cos_t * uz + kick * e1z + lift * e2z

        ensemble.component("px")[:] = np.where(moving, p * nx, px)
        ensemble.component("py")[:] = np.where(moving, p * ny, py)
        ensemble.component("pz")[:] = np.where(moving, p * nz, pz)


class IonizationOperator(PicOperator):
    """Field ionization feeding the macroparticle weights.

    The per-particle ionization rate is the tunnelling-style
    exponential ``rate0 * exp(-critical_field / |E|)`` evaluated in the
    *gathered* electric field (the operator's kernel node reads the
    gather stage's per-particle field streams).  A macroparticle
    ionizes with probability ``1 - exp(-rate dt)`` per step; an
    ionizing macroparticle's weight grows by ``yield_fraction`` —
    newly freed physical electrons joining it — so the operator
    invalidates the deposition layer's cached ``q·w``.
    """

    tag = "ionize"
    reads_fields = True
    mutates_weight = True
    flops_per_item = float(IONIZATION_FLOPS)

    def __init__(self, rate: float, critical_field: float,
                 yield_fraction: float = 0.02, seed: int = 0) -> None:
        super().__init__(seed)
        if rate < 0.0:
            raise ConfigurationError(
                f"ionization rate must be >= 0, got {rate!r}")
        if critical_field <= 0.0:
            raise ConfigurationError(
                f"critical_field must be positive, got {critical_field!r}")
        if yield_fraction < 0.0:
            raise ConfigurationError(
                f"yield_fraction must be >= 0, got {yield_fraction!r}")
        self.rate = float(rate)
        self.critical_field = float(critical_field)
        self.yield_fraction = float(yield_fraction)

    def apply(self, ensemble: ParticleEnsemble,
              fields: Optional[FieldValues], step: int, dt: float,
              stream: int = 0) -> None:
        if fields is None:
            raise ConfigurationError(
                "IonizationOperator needs the gathered per-particle "
                "fields (reads_fields is True)")
        n = ensemble.size
        if n == 0 or self.rate == 0.0:
            return
        ex = np.asarray(fields.ex, dtype=np.float64)
        ey = np.asarray(fields.ey, dtype=np.float64)
        ez = np.asarray(fields.ez, dtype=np.float64)
        magnitude = np.sqrt(ex * ex + ey * ey + ez * ez)
        rate = np.where(magnitude > 0.0,
                        self.rate * np.exp(-self.critical_field
                                           / np.where(magnitude > 0.0,
                                                      magnitude, 1.0)),
                        0.0)
        probability = -np.expm1(-rate * float(dt))
        rng = step_generator(self.seed, self.tag, step, stream)
        draws = rng.random(n)
        ionized = draws < probability
        if np.any(ionized):
            weight = ensemble.component("weight")
            weight[ionized] = weight[ionized] * (1.0 + self.yield_fraction)
            invalidate_charge_weight(ensemble)
