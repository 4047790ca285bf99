import math
import tracemalloc

import numpy as np
import pytest

from spdelab import stepper
from spdelab.convergence import path_errors, plan_study
from spdelab.driver import ScalarDriver, eval_b_grid, eval_f_grid, sample_driver
from spdelab.exceptions import DomainError
from spdelab.mesh import MAX_MODES
from spdelab.stepper import SchemeConfig


def eval_f(driver, t):
    """Pointwise oracle for ``eval_f_grid``:
    f(t) = xi_0 + sum_n (1 + pi^2 n^2)^-1 xi_n sqrt(2) cos(pi n t)."""
    n = np.arange(1, driver.n_modes + 1)
    modes = math.sqrt(2.0) * np.cos(math.pi * n * t) / (1.0 + math.pi**2 * n**2)
    return float(driver.coeffs[0] + driver.coeffs[1:] @ modes)


def eval_b(driver, t):
    """Pointwise oracle for ``eval_b_grid``: b(t) = exp(f(t)^2)."""
    return math.exp(eval_f(driver, t) ** 2)


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

    def test_rejects_modes_beyond_the_guard(self):
        # the memory guard of the schema's n_modes holds for library callers too
        with pytest.raises(DomainError, match=rf"\[1, {MAX_MODES}\], got {MAX_MODES + 1}"):
            sample_driver(1, MAX_MODES + 1)
        assert sample_driver(1, MAX_MODES).coeffs.size == MAX_MODES + 1


class TestEvalF:
    def test_zero_coeffs(self):
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=np.zeros(6))
        np.testing.assert_array_equal(eval_f_grid(drv, 10), 0.0)

    def test_constant_mode(self):
        coeffs = np.zeros(6)
        coeffs[0] = 1.0
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=coeffs)
        np.testing.assert_array_equal(eval_f_grid(drv, 10), 1.0)

    def test_first_cosine_mode_at_zero(self):
        coeffs = np.zeros(6)
        coeffs[1] = 1.0
        drv = ScalarDriver(seed=0, n_modes=5, coeffs=coeffs)
        expected = math.sqrt(2.0) / (1.0 + math.pi**2)
        assert eval_f_grid(drv, 4)[0] == pytest.approx(expected, abs=1e-15)

    def test_grid_matches_pointwise(self):
        # 1: one step; 16: the modes above 16 fold back into the bins;
        # 24: not a power of two
        drv = sample_driver(8, 1000)
        for steps in (1, 16, 24, 2**10, 2**14):
            grid = eval_f_grid(drv, steps)
            assert grid.shape == (steps + 1,)
            expected = [eval_f(drv, j / steps) for j in range(steps + 1)]
            np.testing.assert_allclose(grid, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("tail", [1, 5])
    def test_blocked_grid_matches_dense(self, tail):
        # the folded DCT-I against the dense steps x n_modes cosine product
        # it replaces, at step counts that are not powers of two
        drv = sample_driver(8, 1000)
        steps = 3 * 16 + tail
        ts = np.arange(steps + 1) / steps
        n = np.arange(1, drv.n_modes + 1)
        weights = math.sqrt(2.0) / (1.0 + math.pi**2 * n**2)
        basis = np.cos(math.pi * np.outer(ts, n)) * weights
        dense = drv.coeffs[0] + basis @ drv.coeffs[1:]
        np.testing.assert_allclose(eval_f_grid(drv, steps), dense, rtol=1e-14, atol=0.0)

    def test_grid_memory_is_bounded(self):
        # the dense cosine matrix at 2^14 points and 1000 modes is 131 MB
        drv = sample_driver(9, 1000)
        tracemalloc.start()
        try:
            eval_f_grid(drv, 2**14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_domain_check(self):
        drv = sample_driver(1, 5)
        for steps in (0, -4):
            with pytest.raises(DomainError):
                eval_f_grid(drv, steps)


class TestEvalB:
    def test_zero_driver(self):
        drv = ScalarDriver(seed=0, n_modes=3, coeffs=np.zeros(4))
        np.testing.assert_array_equal(eval_b_grid(drv, 8), 1.0)

    def test_unit_f(self):
        coeffs = np.zeros(4)
        coeffs[0] = 1.0
        drv = ScalarDriver(seed=0, n_modes=3, coeffs=coeffs)
        np.testing.assert_allclose(eval_b_grid(drv, 8), math.e, rtol=1e-15)

    def test_grid_matches_pointwise(self):
        drv = sample_driver(4, 1000)
        expected = [eval_b(drv, j / 24) for j in range(25)]
        np.testing.assert_allclose(eval_b_grid(drv, 24), expected, rtol=1e-13)

    def test_lower_bound(self):
        for seed in range(10):
            drv = sample_driver(seed, 100)
            assert eval_b_grid(drv, 32).min() >= 1.0


class TestResolutionConsistency:
    def test_grids_agree_at_shared_times(self):
        # two DCT-I sizes round differently, so a coarse grid matches the
        # subsampled fine grid to rounding only
        drv = sample_driver(11, 200)
        fine = eval_b_grid(drv, 256)
        coarse = eval_b_grid(drv, 16)
        np.testing.assert_allclose(coarse, fine[::16], rtol=1e-14, atol=0.0)

    def test_subsampled_grid_is_exact(self, monkeypatch):
        # coupling needs every run of a path to see the same driver values:
        # in one time-axis sweep, each time grid takes the noise grid's
        # values subsampled, bit for bit
        fine, groups = [], []

        def recording(driver, steps):
            fine.append(eval_b_grid(driver, steps))
            return fine[-1]

        class RecordingGroup(stepper._Group):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                groups.append(self)

        monkeypatch.setattr(stepper, "eval_b_grid", recording)
        monkeypatch.setattr(stepper, "_Group", RecordingGroup)
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=2**6, master_seed=0,
            mode="final_time", n_modes=200,
        )
        path_errors(plan_study(base, "time", [2, 3, 4], 7), 11)
        assert len(fine) == 1
        assert sorted(g.ratio for g in groups) == [1, 8, 16, 32]
        for group in groups:
            assert group.b.shape == (2**7 // group.ratio,)
            np.testing.assert_array_equal(group.b, fine[0][:-1 : group.ratio])

    def test_truncation_tail_bound(self):
        # the mode weights beyond the default 1000 modes sum to below 1.5e-4,
        # under the bound sqrt(2) / (pi^2 n_modes)
        n = np.arange(1001, 100_000)
        tail = np.sum(math.sqrt(2.0) / (1.0 + math.pi**2 * n**2))
        assert tail < math.sqrt(2.0) / (math.pi**2 * 1000) < 1.5e-4


def test_driver_paths_are_smooth():
    # empirical dyadic-increment exponent of f is near 1 (trajectories are C^1)
    from spdelab.l0 import holder_exponent

    exps = [
        holder_exponent(eval_f_grid(sample_driver(seed, 1000), 2**10), 2).exponent
        for seed in range(20)
    ]
    assert np.mean(exps) >= 0.9
