"""Counter-based random number generation with keyed replay.

All randomness in the package flows through Philox generators keyed by
``(seed, stream tag)`` with an explicit 256-bit counter.  A draw is a pure
function of its key and counter start, so any increment can be regenerated
in any order, on any worker, without storing a noise tape.  Distinct tags
give statistically independent streams under one master seed; in particular
the spatial Wiener noise and the scalar driver never share key material.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags (arbitrary distinct 64-bit constants).
WIENER_TAG = 0x5749454E45523031  # spatial cylindrical Wiener increments
DRIVER_TAG = 0x4452495645523031  # scalar driver spectral coefficients
L0_WIENER_TAG = 0x4C30574945523031  # finite-dimensional Wiener paths (analysis)
L0_MARK_TAG = 0x4C304D41524B3031  # time-zero marks for analysis integrands


def keyed_generator(seed: int, tag: int) -> np.random.Generator:
    """Return a Generator whose output depends only on (seed, tag)."""
    # uint64 key: numpy converts a Python int word >= 2^63 through float64,
    # which would make distinct seeds (e.g. -1 and -2) share a key
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def keyed_normal_rows(seed: int, tag: int, start: int, stop: int, n: int) -> np.ndarray:
    """``keyed_normals`` of counter blocks ``start .. stop - 1`` as rows.

    A block index is the third 64-bit Philox counter word, leaving 2^128
    draws of headroom per block, so blocks never overlap.  One Philox is
    reset to each block in turn, which is cheaper than one Philox per block.
    """
    gen = keyed_generator(seed, tag)
    state = gen.bit_generator.state  # fresh: counter 0, empty buffer
    counter = state["state"]["counter"]
    out = np.empty((stop - start, n))
    for i in range(stop - start):
        counter[2] = (start + i) & _MASK64
        gen.bit_generator.state = state
        gen.standard_normal(out=out[i])
    return out


def keyed_normals(seed: int, tag: int, counter: int, n: int) -> np.ndarray:
    """Draw ``n`` standard normals for the given key block.

    Replay-invariant: the same arguments always return the identical vector,
    and a longer draw from the same block extends a shorter one
    (prefix-stable).  The one-row case of ``keyed_normal_rows``.
    """
    return keyed_normal_rows(seed, tag, counter, counter + 1, n)[0]
