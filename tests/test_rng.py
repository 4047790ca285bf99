import warnings

import numpy as np

from spdelab.rng import (
    DRIVER_TAG,
    L0_MARK_TAG,
    L0_WIENER_TAG,
    WIENER_TAG,
    keyed_generator,
    keyed_normal_rows,
    keyed_normals,
)


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
    seeds = (-1, -2, 2**63, 2**63 + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [keyed_normals(seed, WIENER_TAG, 0, 32) for seed in seeds]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.allclose(draws[i], draws[j])


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
