import math
import tracemalloc

import numpy as np
import pytest

from spdelab.driver import (
    BLOCK_ROWS,
    ScalarDriver,
    eval_b,
    eval_b_grid,
    eval_f,
    eval_f_grid,
    sample_driver,
)
from spdelab.exceptions import DomainError


class TestSampleDriver:
    def test_deterministic(self):
        a = sample_driver(99, 50)
        b = sample_driver(99, 50)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_prefix_stable(self):
        short = sample_driver(5, 100)
        long = sample_driver(5, 200)
        np.testing.assert_array_equal(short.coeffs, long.coeffs[:101])

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(sample_driver(1, 20).coeffs, sample_driver(2, 20).coeffs)

    def test_coefficient_variance(self):
        # xi_3 across many seeds is standard normal
        vals = np.array([sample_driver(s, 4).coeffs[3] for s in range(10_000)])
        assert np.var(vals) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(vals)) < 0.05

    def test_independent_of_wiener_stream(self):
        from spdelab.rng import WIENER_TAG, keyed_normals

        drv = sample_driver(42, 10)
        wiener = keyed_normals(42, WIENER_TAG, 0, 11)
        assert not np.allclose(drv.coeffs, wiener)

    def test_rejects_zero_modes(self):
        with pytest.raises(DomainError):
            sample_driver(1, 0)


class TestEvalF:
    def test_zero_coeffs(self):
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=np.zeros(6))
        assert all(eval_f(drv, t) == 0.0 for t in (0.0, 0.3, 1.0))

    def test_constant_mode(self):
        coeffs = np.zeros(6)
        coeffs[0] = 1.0
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=coeffs)
        assert eval_f(drv, 0.7) == 1.0

    def test_first_cosine_mode_at_zero(self):
        coeffs = np.zeros(6)
        coeffs[1] = 1.0
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=coeffs)
        expected = math.sqrt(2.0) / (1.0 + math.pi**2)
        assert eval_f(drv, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_grid_matches_pointwise(self):
        drv = sample_driver(3, 40)
        ts = np.linspace(0.0, 1.0, 17)
        grid = eval_f_grid(drv, ts)
        np.testing.assert_allclose(grid, [eval_f(drv, t) for t in ts], atol=1e-14)

    @pytest.mark.parametrize("tail", [1, 5])
    def test_blocked_grid_matches_dense(self, tail):
        # several full blocks and a partial last one
        drv = sample_driver(8, 1000)
        ts = np.linspace(0.0, 1.0, 3 * BLOCK_ROWS + tail)
        n = np.arange(1, drv.n_modes + 1)
        weights = math.sqrt(2.0) / (1.0 + math.pi**2 * n**2)
        basis = np.cos(math.pi * np.outer(ts, n)) * weights
        dense = drv.coeffs[0] + basis @ drv.coeffs[1:]
        grid = eval_f_grid(drv, ts)
        np.testing.assert_allclose(grid, dense, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(grid, [eval_f(drv, t) for t in ts], atol=1e-14)

    def test_grid_memory_is_bounded(self):
        # the dense cosine matrix at 2^14 points and 1000 modes is 131 MB
        drv = sample_driver(9, 1000)
        ts = np.arange(2**14) / 2**14
        tracemalloc.start()
        try:
            eval_f_grid(drv, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_domain_check(self):
        drv = sample_driver(1, 5)
        with pytest.raises(DomainError):
            eval_f(drv, -0.1)
        with pytest.raises(DomainError):
            eval_f(drv, 1.5)


class TestEvalB:
    def test_zero_driver(self):
        drv = ScalarDriver(seed=0, n_modes=3, coeffs=np.zeros(4))
        assert eval_b(drv, 0.5) == 1.0

    def test_unit_f(self):
        coeffs = np.zeros(4)
        coeffs[0] = 1.0
        drv = ScalarDriver(seed=0, n_modes=3, coeffs=coeffs)
        assert eval_b(drv, 0.2) == pytest.approx(math.e)

    def test_lower_bound(self):
        for seed in range(10):
            drv = sample_driver(seed, 100)
            assert eval_b_grid(drv, np.linspace(0, 1, 33)).min() >= 1.0


class TestResolutionConsistency:
    def test_subsampled_grid_is_exact(self):
        # spectral evaluation: coarse-grid values equal subsampled fine-grid values
        drv = sample_driver(11, 200)
        fine = eval_b_grid(drv, np.linspace(0.0, 1.0, 257))
        coarse = eval_b_grid(drv, np.linspace(0.0, 1.0, 17))
        np.testing.assert_array_equal(coarse, fine[::16])

    def test_truncation_tail_bound(self):
        # the mode weights beyond the default 1000 modes sum to below 1.5e-4,
        # under the bound sqrt(2) / (pi^2 n_modes)
        n = np.arange(1001, 100_000)
        tail = np.sum(math.sqrt(2.0) / (1.0 + math.pi**2 * n**2))
        assert tail < math.sqrt(2.0) / (math.pi**2 * 1000) < 1.5e-4


def test_driver_paths_are_smooth():
    # empirical dyadic-increment exponent of f is near 1 (trajectories are C^1)
    from spdelab.l0 import holder_exponent

    grid = np.linspace(0.0, 1.0, 2**10 + 1)
    exps = [
        holder_exponent(eval_f_grid(sample_driver(seed, 1000), grid), 2).exponent
        for seed in range(20)
    ]
    assert np.mean(exps) >= 0.9
