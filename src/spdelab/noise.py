"""Projected cylindrical Wiener increments with replayable coupling.

Increments are always generated at one fixed reference resolution (the fine
mesh level and fine time grid of a study).  Entry ``i`` of an increment is
the pairing of the i-th fine hat function with the projected Wiener
increment, realized as ``sqrt(dt) * L_M @ rho`` for keyed standard normals
``rho``.  Coarser time resolutions are obtained by summing consecutive fine
increments and coarser space resolutions by applying the hat-function
restriction matrix; both transfers are exact per path, not merely in law,
so coarse and reference solutions see the same driving noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .rng import WIENER_TAG, keyed_normal_rows

# unused here, but perfbench/tracing.py wraps the keyed draw under this name,
# so the binding stays
from .rng import keyed_normals  # noqa: F401


@dataclass(frozen=True)
class NoiseStream:
    """Keyed source of reference-resolution Wiener increments."""

    seed: int
    fine_level: int
    fine_steps: int

    def __post_init__(self):
        if self.fine_steps < 1:
            raise DomainError(f"fine_steps must be >= 1, got {self.fine_steps}")

    @property
    def fine_dt(self) -> float:
        return 1.0 / self.fine_steps

    def normals(self, start: int, stop: int, size: int) -> np.ndarray:
        """Standard normals of fine steps ``start .. stop - 1`` as rows; row
        ``i`` is pure in (seed, start + i), whatever block it is drawn in."""
        if not 0 <= start < stop <= self.fine_steps:
            raise DomainError(f"steps [{start}, {stop}) outside [0, {self.fine_steps})")
        return keyed_normal_rows(self.seed, WIENER_TAG, start, stop, size)


def fine_increments(
    stream: NoiseStream, start: int, stop: int, l_mass: sp.spmatrix
) -> np.ndarray:
    """``fine_increment`` of fine steps ``start .. stop - 1`` as columns,
    bit for bit, from one multi-column product."""
    rho = stream.normals(start, stop, l_mass.shape[1])
    return math.sqrt(stream.fine_dt) * (l_mass @ rho.T)


def fine_increment(stream: NoiseStream, n: int, l_mass: sp.spmatrix) -> np.ndarray:
    """Load vector of one fine step's increment: sqrt(fine_dt) * L_M @ rho_n."""
    return fine_increments(stream, n, n + 1, l_mass)[:, 0]


def aggregate_increment(
    stream: NoiseStream, coarse_step: int, ratio: int, l_mass: sp.spmatrix
) -> np.ndarray:
    """Sum of the ``ratio`` fine increments making up one coarse step.

    Summation is in fine-step order, so the result is bit-identical to
    adding the individual ``fine_increment`` outputs.
    """
    if ratio < 1 or stream.fine_steps % ratio != 0:
        raise DomainError(
            f"ratio {ratio} does not divide fine_steps {stream.fine_steps}"
        )
    n_coarse = stream.fine_steps // ratio
    if not 0 <= coarse_step < n_coarse:
        raise DomainError(f"coarse step {coarse_step} outside [0, {n_coarse})")
    start = coarse_step * ratio
    values = fine_increment(stream, start, l_mass)
    for m in range(start + 1, start + ratio):
        values = values + fine_increment(stream, m, l_mass)
    return values


def restrict_increment(a: sp.spmatrix, g_fine: np.ndarray) -> np.ndarray:
    """Transfer a fine-level increment to the coarse level: A @ g_fine."""
    if a.shape[1] != g_fine.shape[0]:
        raise DomainError(
            f"restriction has {a.shape[1]} columns, increment has "
            f"{g_fine.shape[0]} entries"
        )
    return a @ g_fine
