"""Uniform interval schedules for piecewise constant arguments.

A schedule fixes nodes theta_k = origin + k*omega and per-interval
argument points zeta_k = theta_k + zeta_fraction*omega, so on
[theta_k, theta_{k+1}) the deviated argument is frozen at zeta_k.
Intervals are half open on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadFractionError, BadStepError


@dataclass(frozen=True)
class Schedule:
    omega: float
    origin: float
    zeta_fraction: float

    def node(self, k: int) -> float:
        return self.origin + k * self.omega

    def zeta(self, k: int) -> float:
        return self.origin + k * self.omega + self.zeta_fraction * self.omega


def _real(x) -> bool:
    """x is a finite real number and not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def make_schedule(omega, origin: float = 0.0, zeta_fraction: float = 0.0) -> Schedule:
    """A checked schedule: omega > 0, origin finite, zeta_fraction in [0, 1];
    all three real numbers, not bools."""
    if not (_real(omega) and omega > 0):
        raise BadStepError(f"omega must be a positive finite number, got {omega!r}")
    if not _real(origin):
        raise BadStepError(f"origin must be finite, got {origin!r}")
    if not (_real(zeta_fraction) and 0.0 <= zeta_fraction <= 1.0):
        raise BadFractionError(
            f"zeta_fraction must lie in [0, 1], got {zeta_fraction!r}"
        )
    return Schedule(float(omega), float(origin), float(zeta_fraction))
