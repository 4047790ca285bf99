"""Rough scalar process scaling the noise: b = exp(f^2).

``f`` is a Gaussian process given by a cosine expansion with rapidly
decaying coefficients; it is almost surely smoother than any Brownian path
(Hölder exponent arbitrarily close to 1) while ``exp(f^2)`` has no finite
second moment, which is exactly the regime the solver is exercised in.

Evaluation is pointwise spectral and therefore consistent across time
resolutions: sampling b on a fine grid and subsampling equals sampling b on
the coarse grid directly, with zero discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .rng import DRIVER_TAG, keyed_normals

DEFAULT_N_MODES = 1000

#: Grid points per block of ``eval_f_grid``: a block's cosine matrix is
#: 16 x 1000 doubles (128 KB) at the default modes.  Larger temporaries
#: raise glibc's mmap threshold, after which freed blocks stay in the heap
#: and the peak resident size grows.
BLOCK_ROWS = 16


@dataclass(frozen=True)
class ScalarDriver:
    """Truncated spectral representation of one trajectory of f."""

    seed: int
    n_modes: int
    coeffs: np.ndarray  # xi_0 .. xi_{n_modes}, iid standard normal


def sample_driver(seed: int, n_modes: int = DEFAULT_N_MODES) -> ScalarDriver:
    """Draw the spectral coefficients for one trajectory.

    Deterministic in ``seed`` and prefix-stable in ``n_modes``: asking for
    more modes extends the coefficient vector without changing the earlier
    entries.  The key domain is disjoint from the Wiener noise streams.
    """
    if n_modes < 1:
        raise DomainError(f"n_modes must be >= 1, got {n_modes}")
    coeffs = keyed_normals(seed, DRIVER_TAG, 0, n_modes + 1)
    return ScalarDriver(seed=seed, n_modes=n_modes, coeffs=coeffs)


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")


def eval_f(driver: ScalarDriver, t: float) -> float:
    """Evaluate f(t) = xi_0 + sum_n (1 + pi^2 n^2)^-1 xi_n sqrt(2) cos(pi n t)."""
    _check_time(t)
    n = np.arange(1, driver.n_modes + 1)
    modes = math.sqrt(2.0) * np.cos(math.pi * n * t) / (1.0 + math.pi**2 * n**2)
    return float(driver.coeffs[0] + driver.coeffs[1:] @ modes)


def eval_f_grid(driver: ScalarDriver, times: np.ndarray) -> np.ndarray:
    """Vectorized ``eval_f`` over a time grid in [0, 1].

    The cosine matrix is built ``BLOCK_ROWS`` grid points at a time, so
    memory stays bounded on any grid.  With single-threaded BLAS every
    value is bit-identical to the dense
    ``cos(pi * outer(times, n)) * weights @ coeffs`` product.
    """
    times = np.asarray(times, dtype=float).ravel()
    if times.size and (times.min() < 0.0 or times.max() > 1.0):
        raise DomainError("times must lie in [0, 1]")
    n = np.arange(1, driver.n_modes + 1)
    weights = math.sqrt(2.0) / (1.0 + math.pi**2 * n**2)
    # a lone last row would be a dot product, not BLAS gemv, and round
    # differently; it joins the block before it
    edges = [*range(0, max(times.size - 1, 1), BLOCK_ROWS), times.size]
    out = np.empty(times.size)
    for lo, hi in zip(edges, edges[1:]):
        basis = np.outer(times[lo:hi], n)
        basis *= math.pi
        np.cos(basis, out=basis)
        basis *= weights
        out[lo:hi] = basis @ driver.coeffs[1:]
    return driver.coeffs[0] + out


def eval_b(driver: ScalarDriver, t: float) -> float:
    """Evaluate b(t) = exp(f(t)^2); always >= 1."""
    return math.exp(eval_f(driver, t) ** 2)


def eval_b_grid(driver: ScalarDriver, times: np.ndarray) -> np.ndarray:
    return np.exp(eval_f_grid(driver, times) ** 2)
