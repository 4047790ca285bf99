"""Rough scalar process scaling the noise: b = exp(f^2).

``f`` is a Gaussian process given by a cosine expansion with rapidly
decaying coefficients; it is almost surely smoother than any Brownian path
(Hölder exponent arbitrarily close to 1) while ``exp(f^2)`` has no finite
second moment, which is exactly the regime the solver is exercised in.

f(t) = xi_0 + sum_n (1 + pi^2 n^2)^-1 xi_n sqrt(2) cos(pi n t) is evaluated
on a whole uniform grid at once, by one DCT-I of the folded coefficients.
A sweep evaluates b once, on its finest grid, and every coarser time grid
takes every ``ratio``-th value, so all runs of a path see the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .rng import DRIVER_TAG, keyed_normals

DEFAULT_N_MODES = 1000


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


def eval_f_grid(driver: ScalarDriver, steps: int) -> np.ndarray:
    """f at the ``steps + 1`` grid times ``t_j = j / steps``, by one DCT-I.

    ``cos(pi n j / N)`` depends on ``n`` only through ``r = n mod 2N``, and
    equals its value at ``2N - r``, so every mode lands in one of the N + 1
    bins of a DCT-I; ``xi_0`` joins bin 0.  The DCT-I is the real part of the
    FFT of the even extension, with the inner bins halved.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    n = np.arange(1, driver.n_modes + 1)
    weights = math.sqrt(2.0) / (1.0 + math.pi**2 * n**2)
    r = n % (2 * steps)
    r = np.where(r > steps, 2 * steps - r, r)
    x = np.bincount(r, weights * driver.coeffs[1:], minlength=steps + 1)
    x[0] += driver.coeffs[0]
    x[1:steps] *= 0.5
    return np.fft.rfft(np.concatenate([x, x[-2:0:-1]])).real


def eval_b_grid(driver: ScalarDriver, steps: int) -> np.ndarray:
    """b = exp(f^2) at the ``steps + 1`` grid times ``t_j = j / steps``."""
    return np.exp(eval_f_grid(driver, steps) ** 2)
