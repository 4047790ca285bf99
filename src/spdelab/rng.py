"""Counter-based random number generation with keyed replay.

All randomness in the package flows through Philox generators keyed by
``(seed, stream tag)`` with an explicit 256-bit counter.  A draw is a pure
function of its key and counter start, so any increment can be regenerated
in any order, on any worker, without storing a noise tape.  Distinct tags
give statistically independent streams under one master seed; in particular
the spatial Wiener noise and the scalar driver never share key material.
Because a draw depends on nothing but its key and counter, it gives the same
bits wherever it runs: a helper thread draws the next chunk of a Monte Carlo
batch while the caller integrates the current one (``drawn_ahead``), and a
forked child process draws the blocks of a sweep and hands over their raw
bytes through a pipe (``drawn_in_child``), without taking the caller's GIL.
"""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .exceptions import DomainError

_MASK64 = (1 << 64) - 1

# Stream tags (arbitrary distinct 64-bit constants).
WIENER_TAG = 0x5749454E45523031  # spatial cylindrical Wiener increments
DRIVER_TAG = 0x4452495645523031  # scalar driver spectral coefficients
L0_WIENER_TAG = 0x4C30574945523031  # finite-dimensional Wiener paths (analysis)
L0_MARK_TAG = 0x4C304D41524B3031  # time-zero marks for analysis integrands
DP_SAMPLE_TAG = 0xD0  # |N(0, 1)| samples of verify's d_p metric check


def keyed_generator(seed: int, tag: int) -> np.random.Generator:
    """Return a Generator whose output depends only on (seed, tag)."""
    if not 0 <= seed <= _MASK64:  # a 64-bit key word: any other seed would alias one
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    # uint64 key: numpy converts a Python int word >= 2^63 through float64,
    # which would make distinct seeds (e.g. 2^64 - 1 and 2^64 - 2) share a key
    key = np.array([seed, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def keyed_normal_rows(seed: int, tag: int, start: int, stop: int, n: int) -> np.ndarray:
    """``keyed_normals`` of counter blocks ``start .. stop - 1`` as rows.

    A block index is the third 64-bit Philox counter word, leaving 2^128
    draws of headroom per block, so blocks never overlap.  One Philox is
    reset to each block in turn, which is cheaper than one Philox per block.
    """
    gen = keyed_generator(seed, tag)
    bits = gen.bit_generator
    state = bits.state  # fresh: counter 0, empty buffer
    # the same words as Python ints, which the state setter reads in a third
    # of the time it takes for the entries of uint64 arrays
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"]
    out = np.empty((stop - start, n))
    for i in range(stop - start):
        counter[2] = (start + i) & _MASK64
        bits.state = state
        gen.standard_normal(out=out[i])
    return out


def keyed_normals(seed: int, tag: int, counter: int, n: int) -> np.ndarray:
    """Draw ``n`` standard normals for the given key block.

    Replay-invariant: the same arguments always return the identical vector,
    and a longer draw from the same block extends a shorter one
    (prefix-stable).  The one-row case of ``keyed_normal_rows``.
    """
    return keyed_normal_rows(seed, tag, counter, counter + 1, n)[0]


@contextmanager
def drawn_ahead(draw, items):
    """Yield an iterator of ``draw(item)`` for each of ``items``, in order.

    One helper thread draws item k + 1 while the caller uses item k: it is
    submitted only once the caller has taken item k, so at most one item is
    drawn ahead, and no result is kept once it is handed over.  An exception
    raised by ``draw`` reaches the caller when it takes that item.  Leaving
    the ``with`` block, however it is left, joins the helper.
    """

    def one_ahead(helper):
        pending = None
        for item in items:
            if pending is not None:
                drawn = pending.result()
                pending = helper.submit(draw, item)
                yield drawn
                del drawn
            else:
                pending = helper.submit(draw, item)
        if pending is not None:
            yield pending.result()

    with ThreadPoolExecutor(max_workers=1) as helper:
        yield one_ahead(helper)


@contextmanager
def drawn_in_child(draw, items, shape):
    """Yield an iterator of ``draw(item)`` for each of ``items``, in order,
    each drawn in one forked child process.

    ``draw(item)`` returns a C-ordered float64 array of ``shape(item)``.  The
    child draws every item in turn and writes its raw bytes into a pipe,
    whose capacity keeps it about one item ahead of the caller; the caller
    reads each into a fresh array, with no pickling.  An exception raised by
    ``draw`` reaches the caller, with its type and message, when it takes
    that item.  Leaving the ``with`` block, however it is left, kills and
    reaps the child; the child leaves by ``os._exit``, running no handler.
    The child runs nothing but ``draw``, so ``draw`` must take no lock that
    another thread of the caller may hold at the fork.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as out:
                for item in items:
                    try:
                        values = draw(item)
                    except Exception as exc:
                        failure = _pickled(exc)
                        out.write(b"E" + len(failure).to_bytes(8, "little") + failure)
                        break
                    out.write(b"D")
                    out.write(values.data)
                    out.flush()  # the whole item, not its tail, before the next draw
        finally:
            os._exit(0)
    os.close(w)
    src = open(r, "rb")
    try:
        yield _read_draws(src, items, shape)
    finally:  # a child that has ended waits to be reaped, so its pid is its own
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        src.close()


def _pickled(exc: Exception) -> bytes:
    """``exc`` pickled, or a ``RuntimeError`` naming it where it does not round-trip."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _read_draws(src, items, shape):
    """The draws of ``items`` as ``drawn_in_child``'s child wrote them to ``src``."""
    for item in items:
        kind = src.read(1)
        if kind == b"E":
            raise pickle.loads(src.read(int.from_bytes(src.read(8), "little")))
        values = np.empty(shape(item))
        if kind != b"D" or src.readinto(values) != values.nbytes:
            raise RuntimeError("the draw child ended before its last item")
        yield values
