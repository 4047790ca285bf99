import os
import signal
import threading
import time
import warnings
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from spdelab import l0
from spdelab.convergence import path_errors, plan_study
from spdelab.exceptions import DomainError
from spdelab.rng import (
    DRIVER_TAG,
    L0_MARK_TAG,
    L0_WIENER_TAG,
    WIENER_TAG,
    drawn_ahead,
    drawn_in_child,
    keyed_generator,
    keyed_normal_rows,
    keyed_normals,
)
from spdelab.stepper import SchemeConfig


def test_replay_identical():
    a = keyed_normals(123, WIENER_TAG, 7, 64)
    b = keyed_normals(123, WIENER_TAG, 7, 64)
    np.testing.assert_array_equal(a, b)


def test_prefix_stable():
    short = keyed_normals(123, WIENER_TAG, 7, 16)
    long = keyed_normals(123, WIENER_TAG, 7, 64)
    np.testing.assert_array_equal(short, long[:16])


def test_counter_blocks_disjoint():
    a = keyed_normals(1, WIENER_TAG, 0, 32)
    b = keyed_normals(1, WIENER_TAG, 1, 32)
    assert not np.allclose(a, b)


def test_tags_disjoint():
    tags = (WIENER_TAG, DRIVER_TAG, L0_WIENER_TAG, L0_MARK_TAG)
    assert len(set(tags)) == 4
    draws = [keyed_normals(5, tag, 0, 32) for tag in tags]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.allclose(draws[i], draws[j])


def test_seeds_disjoint():
    assert not np.allclose(
        keyed_normals(1, WIENER_TAG, 0, 32), keyed_normals(2, WIENER_TAG, 0, 32)
    )


def test_generator_is_standard_normal():
    # moment sanity on a large block
    draws = keyed_generator(9, WIENER_TAG).standard_normal(200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02
    assert abs((draws**3).mean()) < 0.03


def test_seeds_beyond_int64_disjoint():
    # key words >= 2^63 once went through float64, so these seeds collided
    seeds = (2**64 - 1, 2**64 - 2, 2**63, 2**63 + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [keyed_normals(seed, WIENER_TAG, 0, 32) for seed in seeds]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.allclose(draws[i], draws[j])


def _space_plan():
    base = SchemeConfig(dim=1, gamma=0.5, space_level=4, time_steps=2**6, master_seed=0)
    return plan_study(base, "space", [2, 3], 4)


@pytest.mark.parametrize("draw", [
    lambda: keyed_generator(2**64, WIENER_TAG),
    lambda: keyed_normals(-1, WIENER_TAG, 0, 4),
    lambda: path_errors(_space_plan(), 2**64),
    lambda: l0.ito_integral_elementary(
        l0.ElementaryIntegrand(dim_q=1, partition=np.array([0.0, 1.0]),
                               family="deterministic_const"), -1, 4),
    lambda: l0.brownian_path(-1, 4),
], ids=["keyed_generator", "keyed_normals", "path_errors", "ito_integral", "brownian_path"])
def test_a_key_outside_64_bits_is_refused(draw):
    # keys were masked to 64 bits: seed 2^64 drew seed 0's path, -1 that of 2^64 - 1
    with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\^64\)"):
        draw()


def fresh_philox_normals(seed, tag, counter, n):
    """One Philox per counter block, as every draw was made before blocks."""
    words = [0, 0, counter, 0]
    bg = np.random.Philox(
        counter=np.array(words, dtype=np.uint64),
        key=np.array([seed % 2**64, tag], dtype=np.uint64),
    )
    return np.random.Generator(bg).standard_normal(n)


def test_rows_are_the_keyed_draws():
    # each row equals its own freshly keyed Philox's draw, also right after
    # a block for another seed and for an odd row length
    for seed, start, stop, n in ((99, 0, 3, 8), (5, 10, 26, 41), (2**63, 7, 8, 16)):
        rows = keyed_normal_rows(seed, WIENER_TAG, start, stop, n)
        assert rows.shape == (stop - start, n)
        for i, row in enumerate(rows):
            want = fresh_philox_normals(seed, WIENER_TAG, start + i, n)
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(
                keyed_normals(seed, WIENER_TAG, start + i, n), want
            )


# drawn_ahead with a helper thread, which is all that bounds the chunks of a
# Monte Carlo batch in flight: each test lets the helper run for a while
# (PAUSE) wherever it could break the bound


PAUSE = 0.02


def test_drawn_ahead_draws_one_item_ahead():
    # item k + 2 starts only once item k + 1 is asked for: the caller has
    # asked for at least k + 2 items when it starts
    asked = 0
    started = []

    def draw(k):
        started.append((k, asked, threading.current_thread()))
        return k

    with drawn_ahead(draw, range(6)) as drawn:
        for k in range(6):
            asked += 1
            assert next(drawn) == k
            time.sleep(PAUSE)
            assert len(started) <= k + 2  # one item ahead at most
    assert [(k, max(k, 1)) for k in range(6)] == [(k, n) for k, n, _ in started]
    assert threading.main_thread() not in {t for _, _, t in started}


def test_drawn_ahead_keeps_no_item_it_handed_over():
    # by the next take, every item the caller dropped has died
    refs = []
    with drawn_ahead(lambda k: np.full(4, k), range(5)) as drawn:
        for k in range(5):
            item = next(drawn)
            assert item[0] == k
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(item))
            del item
            time.sleep(PAUSE)
        assert next(drawn, None) is None
    assert len(refs) == 5 and all(ref() is None for ref in refs)


@pytest.mark.parametrize("n_items", [4, 7])
def test_drawn_ahead_raises_a_failed_draw_where_it_is_taken(n_items):
    # item 3 fails, the last item or not: items 0-2 are handed over first
    def draw(k):
        if k == 3:
            raise RuntimeError("item 3")
        return k

    taken = []
    with pytest.raises(RuntimeError, match="item 3"):
        with drawn_ahead(draw, range(n_items)) as drawn:
            for item in drawn:
                taken.append(item)
                time.sleep(PAUSE)
    assert taken == [0, 1, 2]


@pytest.mark.parametrize("leave", ["break", "raise"])
def test_leaving_drawn_ahead_early_joins_the_helper(leave):
    # leaving after item 0 lets item 1, already asked of the helper, finish,
    # and starts no other
    threads = []

    def draw(k):
        threads.append(threading.current_thread())
        time.sleep(PAUSE)
        return k

    before = threading.active_count()
    with pytest.raises(KeyError) if leave == "raise" else nullcontext():
        with drawn_ahead(draw, range(10)) as drawn:
            for _ in drawn:
                if leave == "raise":
                    raise KeyError("caller")
                break
    assert len(threads) == 2
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == before


# drawn_in_child, which draws a sweep's blocks in a forked child: every test
# ends with the child reaped


def block(k):
    return np.arange(6.0).reshape(2, 3) + k


def test_drawn_in_child_hands_over_each_item_in_order():
    items = list(range(40))  # 40 x 48 bytes, far within a pipe's capacity
    with drawn_in_child(block, items, lambda k: (2, 3)) as drawn:
        taken = list(drawn)
    assert [x.tolist() for x in taken] == [block(k).tolist() for k in items]
    assert all(x.flags.c_contiguous and x.flags.owndata for x in taken)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_drawn_in_child_draws_in_another_process():
    parent = os.getpid()
    with drawn_in_child(lambda k: np.full(1, float(os.getpid())), range(3),
                        lambda k: (1,)) as drawn:
        pids = {int(x[0]) for x in drawn}
    assert len(pids) == 1 and parent not in pids


class LocalError(Exception):
    def __init__(self, code, where):  # pickles, but does not unpickle
        super().__init__(f"code {code} at {where}")


@pytest.mark.parametrize("error, want, message", [
    (DomainError("item 3"), DomainError, "^item 3$"),
    (KeyError("item 3"), KeyError, "item 3"),
    (LocalError(7, "item 3"), LocalError, "^code 7 at item 3$"),
])
def test_drawn_in_child_raises_a_failed_draw_where_it_is_taken(error, want, message):
    # items 0-2 are handed over first; item 3 never arrives, so the caller
    # draws it itself and raises its exception, of any class
    def draw(k):
        if k == 3:
            raise error
        return block(k)

    taken = []
    with pytest.raises(want, match=message) as failure:
        with drawn_in_child(draw, range(6), lambda k: (2, 3)) as drawn:
            for item in drawn:
                taken.append(item[0, 0])
    assert type(failure.value) is want
    assert taken == [0, 1, 2]


@pytest.mark.parametrize("leave", ["break", "raise"])
def test_leaving_drawn_in_child_early_kills_the_child(leave, monkeypatch):
    # 200 blocks of 80 kB do not fit in the pipe, so the child still runs
    # when the caller leaves after block 0: it is killed, then reaped
    waited = []
    waitpid = os.waitpid

    def recorded(pid, options):
        waited.append(waitpid(pid, options))
        return waited[-1]

    monkeypatch.setattr(os, "waitpid", recorded)
    with pytest.raises(KeyError) if leave == "raise" else nullcontext():
        with drawn_in_child(lambda k: np.zeros((100, 100)), range(200),
                            lambda k: (100, 100)) as drawn:
            for _ in drawn:
                if leave == "raise":
                    raise KeyError("caller")
                break
    [(_pid, status)] = waited
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
