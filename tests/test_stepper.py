import numpy as np
import pytest
import scipy.sparse as sp

from spdelab.driver import ScalarDriver, sample_driver
from spdelab.exceptions import DomainError
from spdelab.fracpow import make_spec
from spdelab.mesh import assemble, build_mesh
from spdelab.noise import NoiseStream
from spdelab.stepper import (
    PathState,
    SchemeConfig,
    evolve,
    evolve_fast,
    simulate_path,
    step,
)


@pytest.fixture(scope="module")
def ops3():
    return assemble(build_mesh(1, 3))


def zero_l_mass(n):
    return sp.csr_matrix((n, n))


def flat_driver(value=0.0):
    coeffs = np.zeros(2)
    coeffs[0] = value
    return ScalarDriver(seed=0, n_modes=1, coeffs=coeffs)


class TestSchemeConfig:
    def test_gamma_admissibility(self):
        SchemeConfig(dim=1, gamma=0.0, space_level=2, time_steps=2, master_seed=0)
        with pytest.raises(DomainError):
            SchemeConfig(dim=2, gamma=0.0, space_level=2, time_steps=2, master_seed=0)
        with pytest.raises(DomainError):
            SchemeConfig(dim=1, gamma=1.2, space_level=2, time_steps=2, master_seed=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=0, mode="x"
            )


class TestStep:
    def test_zero_noise_zero_state(self, ops3):
        spec = make_spec(0.5, 0.5)
        state = PathState(alpha=np.zeros(ops3.n_dof), n=0, t=0.0)
        g = np.zeros(ops3.n_dof)
        out = step(state, ops3, spec, 1.0, g, 0.125)
        np.testing.assert_array_equal(out.alpha, 0.0)
        assert out.n == 1

    def test_constants_invariant(self, ops3):
        # T 1 = 0, so (M + dt T) 1 = M 1 and the constant survives each step
        spec = make_spec(0.5, 0.5)
        state = PathState(alpha=np.ones(ops3.n_dof), n=0, t=0.0)
        g = np.zeros(ops3.n_dof)
        for _ in range(4):
            state = step(state, ops3, spec, 2.0, g, 0.25)
        np.testing.assert_allclose(state.alpha, 1.0, atol=1e-12)

    def test_single_step_dense_oracle(self):
        # gamma = 0: alpha' = (M + dt T)^{-1} (M alpha + b g), cross-checked densely
        ops = assemble(build_mesh(1, 2))
        spec = make_spec(0.0, 0.5)
        rng = np.random.default_rng(8)
        alpha = rng.standard_normal(ops.n_dof)
        g = rng.standard_normal(ops.n_dof)
        dt = 0.125
        out = step(PathState(alpha=alpha, n=0, t=0.0), ops, spec, 1.0, g, dt)
        dense = np.linalg.solve(
            (ops.mass + dt * ops.stiffness).toarray(), ops.mass @ alpha + g
        )
        np.testing.assert_allclose(out.alpha, dense, atol=1e-10)

    def test_non_expansive_in_mass_norm(self, ops3):
        spec = make_spec(0.5, 0.5)
        rng = np.random.default_rng(3)
        state = PathState(alpha=rng.standard_normal(ops3.n_dof), n=0, t=0.0)
        g = np.zeros(ops3.n_dof)
        norms = [ops3.m_norm(state.alpha)]
        for _ in range(6):
            state = step(state, ops3, spec, 1.0, g, 1.0 / 6.0)
            norms.append(ops3.m_norm(state.alpha))
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))


class TestEvolve:
    def test_single_homogeneous_step(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=1, master_seed=0)
        stream = NoiseStream(seed=0, fine_level=3, fine_steps=1)
        out = evolve(
            cfg,
            stream,
            flat_driver(),
            ops=ops3,
            fine_l_mass=zero_l_mass(ops3.n_dof),
        )
        np.testing.assert_array_equal(out.alpha, 0.0)
        assert out.t == 1.0

    def test_deterministic_in_master_seed(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=4)
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=8)
        drv = sample_driver(4)
        a = evolve(cfg, stream, drv, ops=ops3)
        b = evolve(cfg, stream, drv, ops=ops3)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_linear_in_noise(self, ops3):
        # doubling the mass factor doubles the (zero-initial-data) path exactly
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=6)
        stream = NoiseStream(seed=6, fine_level=3, fine_steps=8)
        drv = sample_driver(6)
        base = evolve(cfg, stream, drv, ops=ops3, fine_l_mass=ops3.mass_chol)
        scaled = evolve(cfg, stream, drv, ops=ops3, fine_l_mass=2.0 * ops3.mass_chol)
        np.testing.assert_allclose(scaled.alpha, 2.0 * base.alpha, rtol=1e-12)

    def test_initial_data_propagates(self, ops3):
        cfg = SchemeConfig(
            dim=1,
            gamma=0.5,
            space_level=3,
            time_steps=4,
            master_seed=0,
            initial=np.ones(ops3.n_dof),
        )
        stream = NoiseStream(seed=0, fine_level=3, fine_steps=4)
        out = evolve(
            cfg, stream, flat_driver(), ops=ops3, fine_l_mass=zero_l_mass(ops3.n_dof)
        )
        np.testing.assert_allclose(out.alpha, 1.0, atol=1e-12)

    def test_mean_zero(self):
        ops = assemble(build_mesh(1, 2))
        finals = []
        for seed in range(1000):
            cfg = SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=4, master_seed=seed,
                mode="final_time",
            )
            stream = NoiseStream(seed=seed, fine_level=2, fine_steps=4)
            finals.append(evolve_fast(cfg, stream, sample_driver(seed, 50), ops=ops).alpha)
        finals = np.array(finals)
        se = finals.std(axis=0) / np.sqrt(len(finals))
        assert np.all(np.abs(finals.mean(axis=0)) <= 3.0 * se)

    def test_snapshot_times(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=1)
        stream = NoiseStream(seed=1, fine_level=3, fine_steps=8)
        out = evolve(cfg, stream, sample_driver(1), ops=ops3, snapshot_level=2)
        assert out.snapshots.shape == (5, ops3.n_dof)
        np.testing.assert_array_equal(out.snapshots[0], 0.0)
        np.testing.assert_array_equal(out.snapshots[-1], out.alpha)

    def test_snapshot_level_must_divide(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=6, master_seed=1)
        stream = NoiseStream(seed=1, fine_level=3, fine_steps=6)
        with pytest.raises(DomainError):
            evolve(cfg, stream, sample_driver(1), ops=ops3, snapshot_level=2)

    def test_time_steps_must_divide_fine(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=3, master_seed=1)
        stream = NoiseStream(seed=1, fine_level=3, fine_steps=8)
        with pytest.raises(DomainError):
            evolve(cfg, stream, sample_driver(1), ops=ops3)


class TestFastPath:
    def test_gamma_zero_identical(self, ops3):
        cfg = SchemeConfig(
            dim=1, gamma=0.0, space_level=3, time_steps=8, master_seed=9
        )
        stream = NoiseStream(seed=9, fine_level=3, fine_steps=8)
        drv = sample_driver(9)
        slow = evolve(cfg, stream, drv, ops=ops3)
        fast = evolve_fast(cfg, stream, drv, ops=ops3)
        np.testing.assert_array_equal(slow.alpha, fast.alpha)

    @pytest.mark.parametrize(
        "dim,gamma,level,steps",
        [(1, 0.5, 3, 8), (2, 0.5, 3, 8), (1, 1.0, 3, 8)],
    )
    def test_equivalence(self, dim, gamma, level, steps):
        ops = assemble(build_mesh(dim, level))
        cfg = SchemeConfig(
            dim=dim, gamma=gamma, space_level=level, time_steps=steps, master_seed=13
        )
        stream = NoiseStream(seed=13, fine_level=level, fine_steps=steps)
        drv = sample_driver(13)
        slow = evolve(cfg, stream, drv, ops=ops)
        fast = evolve_fast(cfg, stream, drv, ops=ops)
        rel = ops.m_norm(slow.alpha - fast.alpha) / ops.m_norm(slow.alpha)
        assert rel <= 1e-8

    def test_snapshots_match(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.75, space_level=3, time_steps=16, master_seed=2)
        stream = NoiseStream(seed=2, fine_level=3, fine_steps=16)
        drv = sample_driver(2)
        slow = evolve(cfg, stream, drv, ops=ops3, snapshot_level=3)
        fast = evolve_fast(cfg, stream, drv, ops=ops3, snapshot_level=3)
        np.testing.assert_allclose(slow.snapshots, fast.snapshots, atol=1e-12)

    def test_initial_data_not_colored(self, ops3):
        init = np.cos(np.linspace(0.0, 3.0, ops3.n_dof))
        cfg = SchemeConfig(
            dim=1, gamma=0.75, space_level=3, time_steps=8, master_seed=3,
            initial=init,
        )
        stream = NoiseStream(seed=3, fine_level=3, fine_steps=8)
        drv = sample_driver(3)
        slow = evolve(cfg, stream, drv, ops=ops3)
        fast = evolve_fast(cfg, stream, drv, ops=ops3)
        rel = ops3.m_norm(slow.alpha - fast.alpha) / ops3.m_norm(slow.alpha)
        assert rel <= 1e-8

    def test_simulate_path_dispatch(self, ops3):
        cfg = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=4,
            mode="final_time",
        )
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=8)
        drv = sample_driver(4)
        out = simulate_path(cfg, stream, drv, ops=ops3)
        fast = evolve_fast(cfg, stream, drv, ops=ops3)
        np.testing.assert_array_equal(out.alpha, fast.alpha)


class TestCoupledRuns:
    def test_no_coupled_runs_by_default(self, ops3):
        cfg = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=5
        )
        stream = NoiseStream(seed=5, fine_level=3, fine_steps=8)
        assert evolve_fast(cfg, stream, sample_driver(5, 50), ops=ops3).coupled == ()

    def test_coupled_run_matches_its_own_run(self, ops3):
        # a coupled run of another gamma on a coarser time grid gets its own
        # quadrature and driver grid; the main run is unaffected by it
        drv = sample_driver(6, 50)
        stream = NoiseStream(seed=6, fine_level=3, fine_steps=16)
        main = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=16, master_seed=6
        )
        other = SchemeConfig(
            dim=1, gamma=0.75, space_level=3, time_steps=4, master_seed=6
        )
        out = evolve_fast(main, stream, drv, ops=ops3, coupled=((other, ops3, None),))
        np.testing.assert_array_equal(
            out.alpha, evolve_fast(main, stream, drv, ops=ops3).alpha
        )
        np.testing.assert_array_equal(
            out.coupled[0], evolve_fast(other, stream, drv, ops=ops3).alpha
        )

    def test_coupled_run_checks(self, ops3):
        drv = sample_driver(7, 50)
        stream = NoiseStream(seed=7, fine_level=3, fine_steps=8)
        main = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=7
        )
        bad = {
            "initial data": SchemeConfig(
                dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=7,
                initial=np.ones(ops3.n_dof),
            ),
            "grid not dividing": SchemeConfig(
                dim=1, gamma=0.5, space_level=3, time_steps=3, master_seed=7
            ),
            "other mesh, no restriction": SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=8, master_seed=7
            ),
        }
        for what, cfg in bad.items():
            with pytest.raises(DomainError):
                evolve_fast(main, stream, drv, ops=ops3, coupled=((cfg, ops3, None),))
