"""Counter-based random number generation with keyed replay.

All randomness in the package flows through Philox generators keyed by
``(seed, stream tag)`` with an explicit 256-bit counter.  A draw is a pure
function of its key and counter start, so any increment can be regenerated
in any order, on any worker, without storing a noise tape.  Distinct tags
give statistically independent streams under one master seed; in particular
the spatial Wiener noise and the scalar driver never share key material.
Path ``i`` of a run is keyed by its master seed + ``i`` (``path_keys``).
A draw depends on nothing but its key and counter, so it gives the same bits
wherever it runs: a helper thread draws the next chunk of a Monte Carlo batch
while the caller integrates the current one (``drawn_ahead``), and a forked
child draws the blocks of a large sweep and hands over their raw bytes through
a pipe (``drawn_in_child``), without taking the caller's GIL.
"""

from __future__ import annotations

import math
import os
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

# values of all the items (a sweep: fine steps x normals a step) from which
# drawn_in_child draws them in a forked child: below it the fork, the reap and
# the parent's copy-on-write faults cost about what the overlapped draw saves
# (a 1-d level-9 final-time sweep of 2^18 normals, 14.8 -> 15.8 ms); from 2^19
# on the child pays (27.3 -> 23.0 ms, and 69.9 -> 63.4 ms in 2-d at level 5)
FORK_VALUES = 2**19


def keyed_generator(seed: int, tag: int) -> np.random.Generator:
    """Return a Generator whose output depends only on (seed, tag)."""
    if not 0 <= seed <= _MASK64:  # a 64-bit key word: any other seed would alias one
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    # uint64 key: numpy converts a Python int word >= 2^63 through float64,
    # which would make distinct seeds (e.g. 2^64 - 1 and 2^64 - 2) share a key
    key = np.array([seed, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_keys(master_seed: int, n: int) -> range:
    """The keys of ``n`` paths under ``master_seed``: path ``i`` is keyed by
    ``master_seed + i``.  Every key is a 64-bit word (``keyed_generator``), so
    keys outside [0, 2^64) are refused here, before any path runs."""
    if not 0 <= master_seed <= 2**64 - n:
        raise DomainError(f"path seeds {master_seed} + i, i < {n}, are negative or pass 2^64")
    return range(master_seed, master_seed + n)


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
    """Yield an iterator of ``draw(item)`` for each of the sequence ``items``,
    in order, drawn ahead in one forked child process if they hold at least
    ``FORK_VALUES`` values in all and ``os.fork`` exists, else by the caller.

    ``draw(item)`` returns a C-ordered float64 array of ``shape(item)``, and
    must be a pure function of ``item``: the child draws every item in turn
    and writes its raw bytes into a pipe, which the caller reads into fresh
    arrays.  The child draws item k + 1 while the caller uses item k, and as
    an item may be larger than the pipe (64 KiB), hands it over only as the
    caller reads it.  From the first item that does not arrive whole (a draw
    that failed in the child, or a child killed from outside) the caller
    draws that item and every later one itself, so a failed draw raises its
    exception in the caller.  Leaving the ``with`` block, however it is left,
    kills and reaps the child; the child leaves by ``os._exit``, running no
    handler.  The child runs nothing but ``draw``, so ``draw`` must take no
    lock that another thread of the caller may hold at the fork.
    """
    if not hasattr(os, "fork") or sum(math.prod(shape(item)) for item in items) < FORK_VALUES:
        yield map(draw, items)
        return
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
                    out.write(draw(item).data)
                    out.flush()  # the whole item, not its tail, before the next draw
        finally:
            os._exit(0)
    os.close(w)
    src = open(r, "rb")
    try:
        yield _read_draws(src, draw, items, shape)
    finally:  # a child that has ended waits to be reaped, so its pid is its own
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        src.close()


def _read_draws(src, draw, items, shape):
    """The draws of ``items`` as ``drawn_in_child``'s child wrote them to
    ``src``, and ``draw``'s own from the first that does not arrive whole."""
    rest = iter(items)
    for item in rest:
        values = np.empty(shape(item))
        # taking the first few kB first lets a child whose item is a little
        # larger than the pipe finish writing it, where reading the item in one
        # call waits for its tail (1-d level 9, 65,664 B: a sweep 3-10% slower)
        src.peek(1)
        if src.readinto(values) != values.nbytes:
            yield draw(item)
            yield from map(draw, rest)
            return
        yield values
