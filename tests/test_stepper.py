import functools
import importlib
import importlib.util
import os
import signal
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from spdelab import convergence, noise, stepper
from spdelab.driver import ScalarDriver, eval_b_grid, sample_driver
from spdelab.exceptions import DomainError, NumericalError
from spdelab.fracpow import apply_qgamma, make_spec
from spdelab.mesh import MAX_TIME_EXP, SOLVER_TOL, assemble, build_mesh
from spdelab.noise import NoiseStream, aggregate_increment, fine_increment
from spdelab.stepper import MODES, SchemeConfig, evolve, evolve_fast


@pytest.fixture(scope="module")
def ops3():
    return assemble(build_mesh(1, 3))


@pytest.fixture(scope="module")
def quiet3():
    """Level-3 operators with a zero mass factor: every noise increment is 0."""
    ops = assemble(build_mesh(1, 3))
    ops.mass_chol = sp.csr_matrix(ops.mass_chol.shape)
    return ops


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

    @pytest.mark.parametrize("k", [0.0, -0.5, float("inf"), float("nan")])
    def test_rejects_bad_k(self, k):
        with pytest.raises(DomainError, match="k must be"):
            SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=0, k=k
            )

    def test_rejects_too_many_quadrature_nodes(self):
        # gamma 0.5 at k 0.01 needs 197,395 nodes, above MAX_NODES
        with pytest.raises(DomainError, match="quadrature nodes"):
            SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=0, k=0.01
            )

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            SchemeConfig(
                dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=0, mode="x"
            )

    @pytest.mark.parametrize("steps", [0, -4])
    def test_rejects_no_time_steps(self, steps):
        with pytest.raises(DomainError, match=f"time_steps must be >= 1, got {steps}"):
            SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=steps, master_seed=0)

    @pytest.mark.parametrize("steps", [2**MAX_TIME_EXP + 1, 2**40])
    def test_rejects_a_time_grid_beyond_the_guard(self, steps):
        # the memory guard of the schema's time_exp holds for library callers too
        with pytest.raises(DomainError, match=f"time_steps {steps} exceed the guard of 2"):
            SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=steps, master_seed=0)
        SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=2**MAX_TIME_EXP,
                     master_seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejects_a_seed_beyond_64_bits(self, seed):
        # rng keys are 64-bit: 2^64 is refused when the config is made, not at a draw
        with pytest.raises(DomainError, match=rf"\[0, 2\^64\), got {seed}"):
            SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=seed)
        SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=2, master_seed=2**64 - 1)


class TestStep:
    def test_zero_noise_zero_state(self, quiet3):
        # whatever the driver, zero increments keep the zero state
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=0)
        stream = NoiseStream(seed=0, fine_level=3, fine_steps=8)
        out = evolve(cfg, stream, sample_driver(0, 50), ops=quiet3, snapshot_level=3)
        np.testing.assert_array_equal(out.snapshots, 0.0)
        assert out.snapshots.shape == (9, quiet3.n_dof)

    def test_constants_invariant(self, ops3):
        # T 1 = 0, so (M + dt T) 1 = M 1 and the propagator (M + dt T)^{-1} M
        # keeps a constant, also on a stack of levels as the sweep solves them
        coarse = assemble(build_mesh(1, 2))
        for system in (ops3.system(0.25), ops3.system(0.125, (coarse,))):
            x = np.ones(system.offsets[-1])
            for _ in range(4):
                x = system.solve(system.mass @ x)
                np.testing.assert_allclose(x, 1.0, atol=1e-12)

    def test_single_step_dense_oracle(self):
        # gamma = 0 from the zero state: alpha_1 = (M + dt T)^{-1} b_0 g_0,
        # cross-checked densely
        ops = assemble(build_mesh(1, 2))
        cfg = SchemeConfig(dim=1, gamma=0.0, space_level=2, time_steps=8, master_seed=8)
        stream = NoiseStream(seed=8, fine_level=2, fine_steps=8)
        drv = sample_driver(8, 50)
        out = evolve(cfg, stream, drv, ops=ops, snapshot_level=3)
        dt = 0.125
        b0 = eval_b_grid(drv, 1)[0]
        g = fine_increment(stream, 0, ops.mass_chol)
        dense = np.linalg.solve((ops.mass + dt * ops.stiffness).toarray(), b0 * g)
        np.testing.assert_array_equal(out.snapshots[0], 0.0)
        np.testing.assert_allclose(out.snapshots[1], dense, atol=1e-10)

    def test_non_expansive_in_mass_norm(self, ops3):
        # the propagator (M + dt T)^{-1} M never grows the mass norm
        x = np.random.default_rng(3).standard_normal(ops3.n_dof)
        norms = [ops3.m_norm(x)]
        for _ in range(8):
            x = ops3.system_solve(0.125, ops3.mass @ x)
            norms.append(ops3.m_norm(x))
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]


class TestEvolve:
    def test_single_homogeneous_step(self, quiet3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=1, master_seed=0)
        stream = NoiseStream(seed=0, fine_level=3, fine_steps=1)
        out = evolve(cfg, stream, flat_driver(), ops=quiet3)
        np.testing.assert_array_equal(out.alpha, 0.0)

    def test_deterministic_in_master_seed(self, ops3):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=4)
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=8)
        drv = sample_driver(4)
        a = evolve(cfg, stream, drv, ops=ops3)
        b = evolve(cfg, stream, drv, ops=ops3)
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_linear_in_noise(self, ops3):
        # doubling the mass factor doubles the path exactly
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=6)
        stream = NoiseStream(seed=6, fine_level=3, fine_steps=8)
        drv = sample_driver(6)
        doubled = assemble(build_mesh(1, 3))
        doubled.mass_chol = 2.0 * doubled.mass_chol
        base = evolve(cfg, stream, drv, ops=ops3)
        scaled = evolve(cfg, stream, drv, ops=doubled)
        np.testing.assert_allclose(scaled.alpha, 2.0 * base.alpha, rtol=1e-12)

    def test_initial_data_propagates(self, ops3):
        # every run starts from u(0) = 0: both modes put the zero initial
        # datum first, and only the noise moves the path off it
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=4)
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=8)
        drv = sample_driver(4)
        for run in (evolve, evolve_fast):
            out = run(cfg, stream, drv, ops=ops3, snapshot_level=3)
            assert out.snapshots.shape == (9, ops3.n_dof)
            np.testing.assert_array_equal(out.snapshots[0], 0.0)
            assert all(ops3.m_norm(snap) > 0.0 for snap in out.snapshots[1:])

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

    @pytest.mark.parametrize("run", [evolve, evolve_fast])
    def test_snapshot_level_must_be_nonnegative(self, ops3, run):
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=1)
        stream = NoiseStream(seed=1, fine_level=3, fine_steps=8)
        with pytest.raises(DomainError, match="snapshot_level must be >= 0, got -1"):
            run(cfg, stream, sample_driver(1), ops=ops3, snapshot_level=-1)

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

    @pytest.mark.parametrize("run", [evolve, evolve_fast])
    def test_snapshots_do_not_round_by_layout(self, run):
        # row-wise BLAS products round by stride: the snapshots come in C
        # order, so a Hölder estimate on them equals one on a C-ordered copy
        from spdelab.l0 import holder_exponent

        ops = assemble(build_mesh(1, 5))
        cfg = SchemeConfig(
            dim=1, gamma=0.5, space_level=5, time_steps=2**8, master_seed=0
        )
        for seed in range(4):
            stream = NoiseStream(seed=seed, fine_level=5, fine_steps=2**8)
            out = run(cfg, stream, sample_driver(seed), ops=ops, snapshot_level=8)
            snaps = out.snapshots
            assert snaps.flags.c_contiguous
            est = holder_exponent(snaps, 2, norm=ops.m_norm)
            copy = holder_exponent(np.copy(snaps, order="C"), 2, norm=ops.m_norm)
            np.testing.assert_array_equal(est.increments, copy.increments)
            assert est.exponent == copy.exponent

    def test_modes_dispatch(self, ops3):
        assert MODES == {"per_step": evolve, "final_time": evolve_fast}
        cfg = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=4,
            mode="final_time",
        )
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=8)
        drv = sample_driver(4)
        out = MODES[cfg.mode](cfg, stream, drv, ops=ops3)
        fast = evolve_fast(cfg, stream, drv, ops=ops3)
        np.testing.assert_array_equal(out.alpha, fast.alpha)


def per_step_loop(cfg, stream, drv, ops, snapshot_level):
    """Per-step mode as a plain loop over coarse steps: aggregate, color, solve."""
    spec = make_spec(cfg.gamma, cfg.k)
    ratio = stream.fine_steps // cfg.time_steps
    stride = cfg.time_steps // 2**snapshot_level
    b = eval_b_grid(drv, stream.fine_steps)[:-1:ratio]  # as the sweep takes it
    alpha = np.zeros(ops.n_dof)
    snaps = [alpha]
    for n in range(cfg.time_steps):
        g = aggregate_increment(stream, n, ratio, ops.mass_chol)
        if not spec.is_identity:
            g = ops.mass @ apply_qgamma(spec, ops, g)
        alpha = ops.system_solve(cfg.dt, ops.mass @ alpha + float(b[n]) * g)
        if (n + 1) % stride == 0:
            snaps.append(alpha)
    return alpha, np.array(snaps)


def raw_step_loop(cfg, stream, drv, ops):
    """Raw states of final-time mode at every step, as a plain loop."""
    ratio = stream.fine_steps // cfg.time_steps
    b = eval_b_grid(drv, stream.fine_steps)[:-1:ratio]  # as the sweep takes it
    states = [np.zeros(ops.n_dof)]
    for n in range(cfg.time_steps):
        g = aggregate_increment(stream, n, ratio, ops.mass_chol)
        rhs = ops.mass @ states[-1] + float(b[n]) * g
        states.append(ops.system_solve(cfg.dt, rhs))
    return np.array(states)


# snapshots: whether the run records them; without, only alpha is compared
@pytest.mark.parametrize(
    "dim,gamma,level,snapshots",
    [(1, 0.0, 3, False), (1, 0.5, 3, True), (1, 0.0, 3, True), (2, 0.5, 2, True)],
)
# 8 steps on 8, 24, 32 or 256 fine steps: ratio 3 puts step edges inside the
# sweep's 16-step blocks and leaves a short last block; ratio 32 carries each
# step's partial sum across two blocks
@pytest.mark.parametrize("noise_mult", [1, 3, 4, 32])
@pytest.mark.usefixtures("blocks_of_16")
def test_per_step_matches_step_loop(dim, gamma, level, snapshots, noise_mult):
    ops = assemble(build_mesh(dim, level))
    cfg = SchemeConfig(
        dim=dim, gamma=gamma, space_level=level, time_steps=8, master_seed=21
    )
    stream = NoiseStream(seed=21, fine_level=level, fine_steps=8 * noise_mult)
    drv = sample_driver(21, 50)
    out = evolve(cfg, stream, drv, ops=ops, snapshot_level=2 if snapshots else None)
    alpha, snaps = per_step_loop(cfg, stream, drv, ops, snapshot_level=2)
    np.testing.assert_array_equal(out.alpha, alpha)
    if snapshots:
        np.testing.assert_array_equal(out.snapshots, snaps)
    else:
        assert out.snapshots is None


# 4,097 snapshots of 65 values (1-d level 6), 2.1 MB, or of 81 (2-d level 3):
# per-step mode holds the one array it fills; final-time mode colors it in
# place, adding the load vectors and solves of one chunk at a time (1.49
# arrays in all at gamma 0.75; 1.24 in 1-d and 1.19 in 2-d at gamma 1).  513
# snapshots of 513 values (1-d level 9) are two chunks, whose DCT-I
# temporaries weigh more against the array: 4.0 arrays at gamma 0.75
@pytest.mark.parametrize(
    "dim,level,gamma,mode,snapshot_level,arrays",
    [
        pytest.param(1, 6, 0.75, "final_time", 12, 2.0, id="final_time-2.0"),
        pytest.param(1, 6, 0.75, "per_step", 12, 1.5, id="per_step-1.5"),
        pytest.param(1, 6, 1.0, "final_time", 12, 2.0, id="1d-gamma1-final_time-2.0"),
        pytest.param(2, 3, 1.0, "final_time", 12, 2.0, id="2d-gamma1-final_time-2.0"),
        pytest.param(1, 9, 0.75, "final_time", 9, 4.25, id="1d-513-final_time-4.25"),
    ],
)
def test_snapshot_memory_is_bounded(dim, level, gamma, mode, snapshot_level, arrays):
    ops = assemble(build_mesh(dim, level))
    steps = 2**snapshot_level
    cfg = SchemeConfig(
        dim=dim, gamma=gamma, space_level=level, time_steps=steps, master_seed=5,
        mode=mode,
    )

    def run():
        stream = NoiseStream(seed=5, fine_level=level, fine_steps=steps)
        return MODES[mode](cfg, stream, sample_driver(5), ops=ops,
                           snapshot_level=snapshot_level)

    run()  # factors the systems and the quadrature
    # less what outlives the run once its snapshots are dropped: a SuperLU
    # solve may leave scipy-internal memory allocated, by a size that depends
    # on the process's history (2.5 MB after the sweep properties, none alone)
    tracemalloc.start()
    try:
        snapshots = run().snapshots
        shape, nbytes = snapshots.shape, snapshots.nbytes
        del snapshots
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shape == (steps + 1, ops.n_dof)
    assert peak - kept < arrays * nbytes


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.usefixtures("blocks_of_16")
def test_per_step_colors_a_1d_block_in_one_call(dim, monkeypatch):
    # 64 steps are 4 blocks of 16: one coloring per block in 1-d, one per
    # step in 2-d, whose multi-column solves round differently
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_qgamma(*args)

    monkeypatch.setattr(stepper, "apply_qgamma", counted)
    cfg = SchemeConfig(dim=dim, gamma=0.5, space_level=2, time_steps=64, master_seed=3)
    stream = NoiseStream(seed=3, fine_level=2, fine_steps=64)
    evolve(cfg, stream, sample_driver(3, 50))
    assert len(calls) == (4 if dim == 1 else 64)


def _study_errors(dim, axis, coarse, ref, level, steps):
    base = SchemeConfig(dim=dim, gamma=0.5, space_level=level, time_steps=steps,
                        master_seed=3, mode="final_time")
    return convergence.path_errors(convergence.plan_study(base, axis, coarse, ref), 3)


def _states(dim, gamma, level, steps, mode, snapshot_level):
    cfg = SchemeConfig(dim=dim, gamma=gamma, space_level=level, time_steps=steps,
                       master_seed=4, mode=mode)
    out = MODES[mode](cfg, NoiseStream(4, level, steps), sample_driver(4, 50),
                      snapshot_level=snapshot_level)
    return np.vstack([out.alpha, out.snapshots])


# blocks by default: 1-d level 5, 33 normals a step, 248 steps (the 2^10
# steps end in a short block, and steps of the 2^3 and 2^5 time grids
# straddle block edges); level 4, 481; 2-d level 3, 101
VALUE_SIZED_RUNS = {
    "space1d": lambda: _study_errors(1, "space", [2, 3, 4], 5, 5, 2**10),
    "time1d": lambda: _study_errors(1, "time", [3, 5, 7], 10, 5, 2**10),
    "per_step1d": lambda: _states(1, 0.5, 4, 2**11, "per_step", 7),
    # the shape of criterion 09: final time, a snapshot at every step
    "every_step1d": lambda: _states(1, 0.75, 5, 2**10, "final_time", 10),
    "per_step2d": lambda: _states(2, 0.5, 3, 2**8, "per_step", 5),
}


@pytest.mark.parametrize("name", sorted(VALUE_SIZED_RUNS))
def test_value_sized_blocks_give_the_same_bits(name, monkeypatch):
    run = VALUE_SIZED_RUNS[name]
    default = run()
    monkeypatch.setattr(stepper, "BLOCK_VALUES", 0)
    np.testing.assert_array_equal(run(), default)


@pytest.mark.usefixtures("draws_on_the_caller")
def test_blocks_grow_only_where_a_step_is_small(monkeypatch):
    sizes = []  # steps of every block drawn
    real = noise.fine_increments

    def recorded(stream, start, stop, l_mass):
        sizes.append(stop - start)
        return real(stream, start, stop, l_mass)

    monkeypatch.setattr(noise, "fine_increments", recorded)
    for dim, level, blocks_of_16 in ((1, 5, False), (1, 9, True), (2, 6, True)):
        sizes.clear()
        cfg = SchemeConfig(dim=dim, gamma=1.0, space_level=level, time_steps=2**9,
                           master_seed=2, mode="final_time")
        evolve_fast(cfg, NoiseStream(2, level, 2**9), sample_driver(2, 50))
        assert (sizes[0] == 16) == blocks_of_16 and sizes[0] >= 16


# a 1-d run of level ``level`` on the operators of another level, and of
# another dimension at the same level
@pytest.mark.parametrize("level,ops_dim,ops_level", [(4, 1, 3), (2, 2, 2)])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_operators_must_be_those_of_the_run_mesh(level, ops_dim, ops_level, mode):
    cfg = SchemeConfig(
        dim=1, gamma=0.5, space_level=level, time_steps=8, master_seed=2, mode=mode
    )
    stream = NoiseStream(seed=2, fine_level=level, fine_steps=8)
    ops = assemble(build_mesh(ops_dim, ops_level))
    with pytest.raises(DomainError, match="operators"):
        MODES[mode](cfg, stream, sample_driver(2, 50), ops=ops)


def coupled_sweep(runs, stream, drv, ops, snapshot_level=None):
    """One sweep of ``runs[0]`` with ``runs[1:]`` coupled, each final state
    colored at its own run's gamma and k on its level's operators and the
    snapshots at the main run's, as a convergence study colors them."""
    out = stepper._sweep(runs[0], stream, drv, ops, snapshot_level, tuple(runs[1:]))
    for cfg, raw in zip(runs, (out.alpha, *out.coupled)):
        stepper._color(cfg, ops.coarse(cfg.space_level)[0], raw)
    if out.snapshots is not None:
        stepper._color(runs[0], ops, out.snapshots.T)
    return out


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
        out = coupled_sweep([main, other], stream, drv, ops3)
        np.testing.assert_array_equal(
            out.alpha, evolve_fast(main, stream, drv, ops=ops3).alpha
        )
        np.testing.assert_array_equal(
            out.coupled[0], evolve_fast(other, stream, drv, ops=ops3).alpha
        )

    @pytest.mark.usefixtures("blocks_of_16")
    def test_straddling_steps_match_a_step_loop(self, ops3):
        # on 48 fine steps, grids of 16, 12 and 3 steps (ratios 3, 4 and 16)
        # put step edges inside the 16-step blocks and carry open sums
        # across them; every run equals a loop over aggregate_increment
        drv = sample_driver(8, 50)
        stream = NoiseStream(seed=8, fine_level=3, fine_steps=48)
        grids = ((0.75, 16), (0.5, 48), (0.25, 24), (0.75, 12), (0.5, 3))
        runs = [
            SchemeConfig(
                dim=1, gamma=gamma, space_level=3, time_steps=steps,
                master_seed=8, mode="final_time",
            )
            for gamma, steps in grids
        ]
        out = coupled_sweep(runs, stream, drv, ops3, snapshot_level=4)
        states = [raw_step_loop(cfg, stream, drv, ops3) for cfg in runs]
        colored = [
            apply_qgamma(make_spec(cfg.gamma, cfg.k), ops3, ops3.mass @ raw.T).T
            for cfg, raw in zip(runs, states)
        ]
        np.testing.assert_array_equal(out.snapshots, colored[0])
        np.testing.assert_array_equal(out.alpha, colored[0][-1])
        for got, expected in zip(out.coupled, colored[1:]):
            np.testing.assert_array_equal(got, expected[-1])

    @pytest.mark.usefixtures("blocks_of_16")
    def test_the_sweep_returns_raw_states(self, ops3):
        # the sweep knows no gamma: at gamma 0.75, with coupled runs of other
        # gammas on coarser grids and meshes, it returns the states that
        # coloring leaves at gamma 0, where it is the identity
        drv = sample_driver(9, 50)
        stream = NoiseStream(seed=9, fine_level=3, fine_steps=48)
        runs = [
            SchemeConfig(dim=1, gamma=gamma, space_level=level, time_steps=steps,
                         master_seed=9, mode="final_time")
            for gamma, level, steps in ((0.75, 3, 48), (0.5, 3, 12), (1.0, 2, 16),
                                        (0.25, 2, 48))
        ]
        raw = stepper._sweep(runs[0], stream, drv, ops3, 3, tuple(runs[1:]))
        zero = [replace(cfg, gamma=0.0) for cfg in runs]
        expected = coupled_sweep(zero, stream, drv, ops3, snapshot_level=3)
        np.testing.assert_array_equal(raw.alpha, expected.alpha)
        np.testing.assert_array_equal(raw.snapshots, expected.snapshots)
        assert len(raw.coupled) == len(expected.coupled) == 3
        for got, want in zip(raw.coupled, expected.coupled):
            np.testing.assert_array_equal(got, want)

    def test_coupled_run_checks(self, ops3):
        drv = sample_driver(7, 50)
        stream = NoiseStream(seed=7, fine_level=3, fine_steps=8)
        main = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=7
        )
        bad = {
            "grid not dividing": SchemeConfig(
                dim=1, gamma=0.5, space_level=3, time_steps=3, master_seed=7
            ),
            "finer than the stream": SchemeConfig(
                dim=1, gamma=0.5, space_level=4, time_steps=8, master_seed=7
            ),
        }
        for what, cfg in bad.items():
            with pytest.raises(DomainError):
                stepper._sweep(main, stream, drv, ops3, None, (cfg,))

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_main_run_must_be_on_the_stream_level(self, ops3, mode):
        # a level-3 run on a level-4 noise stream: the stream's increments
        # would need a restriction, which only coupled runs get
        cfg = SchemeConfig(
            dim=1, gamma=0.5, space_level=3, time_steps=8, master_seed=7, mode=mode
        )
        stream = NoiseStream(seed=7, fine_level=4, fine_steps=8)
        with pytest.raises(DomainError, match="stream's fine level"):
            MODES[mode](cfg, stream, sample_driver(7, 50), ops=ops3)


class SpoiledSolve:
    """A solve whose call number ``bad`` (from 0) is off by a relative ``eps``
    on the entries ``span`` (say one run's slice of a stacked state)."""

    def __init__(self, solve, bad, span=slice(None), eps=1e-6):
        self.solve, self.bad, self.span, self.eps, self.calls = solve, bad, span, eps, 0

    def __call__(self, rhs):
        y = self.solve(rhs)
        self.calls += 1
        if self.calls == self.bad + 1:
            y[self.span] *= 1.0 + self.eps
        return y


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("bad", [0, 5, 15, 16, 31])
@pytest.mark.usefixtures("blocks_of_16")
def test_guard_checks_every_solve_of_a_block(mode, bad, monkeypatch):
    # 32 steps are two blocks of 16; solve 5 is the 6th of the first block
    ops = assemble(build_mesh(1, 3))
    cfg = SchemeConfig(
        dim=1, gamma=0.5, space_level=3, time_steps=32, master_seed=8, mode=mode
    )
    system = ops.system(cfg.dt)  # cached: the run solves with this object
    spoiled = SpoiledSolve(system.solve, bad)
    monkeypatch.setattr(system, "solve", spoiled)
    stream = NoiseStream(seed=8, fine_level=3, fine_steps=32)
    with pytest.raises(NumericalError):
        MODES[mode](cfg, stream, sample_driver(8, 50), ops=ops)
    assert spoiled.calls > bad


@pytest.mark.parametrize("mode", sorted(MODES))
def test_guard_skips_zero_right_hand_sides(mode, quiet3):
    # zero noise from the zero state: every right-hand side of every block
    # is 0, whose relative residual is undefined and not checked
    cfg = SchemeConfig(
        dim=1, gamma=0.5, space_level=3, time_steps=32, master_seed=9, mode=mode
    )
    stream = NoiseStream(seed=9, fine_level=3, fine_steps=32)
    out = MODES[mode](cfg, stream, flat_driver(), ops=quiet3)
    assert not np.any(out.alpha)


@pytest.mark.parametrize("spoiled", [False, True])
@pytest.mark.usefixtures("blocks_of_16")
def test_guard_checks_each_run_of_a_group(spoiled, monkeypatch):
    # a level-6 run with coupled levels 2..5 on its time grid is one stacked
    # group; solve 21 is the 6th of the second block of 16.  Spoiling the
    # level-5 run's slice by 2e-10 puts its own relative residual above
    # SOLVER_TOL but the stacked vector's below it: the guard must use the
    # run's own norm
    ops = assemble(build_mesh(1, 6))
    # the coarser levels' operators that the sweep steps on
    others = tuple(ops.coarse(lv)[0] for lv in (2, 3, 4, 5))
    cfg = {
        lv: SchemeConfig(
            dim=1, gamma=0.5, space_level=lv, time_steps=32,
            master_seed=8, mode="final_time",
        )
        for lv in (2, 3, 4, 5, 6)
    }
    coupled = tuple(cfg[lv] for lv in (2, 3, 4, 5))
    system = ops.system(cfg[6].dt, others)
    starts = system.offsets
    level5 = slice(starts[4], starts[5])
    spoiled_solve = SpoiledSolve(system.solve, 21 if spoiled else -1, level5, 2e-10)
    monkeypatch.setattr(system, "solve", spoiled_solve)
    blocks = []  # (states, right-hand sides) of each guard check
    check = system.check

    def recording(x, rhs):
        blocks.append((x.copy(), rhs.copy()))
        check(x, rhs)

    monkeypatch.setattr(system, "check", recording)

    def run():
        stream = NoiseStream(seed=8, fine_level=6, fine_steps=32)
        stepper._sweep(cfg[6], stream, sample_driver(8, 50), ops, None, coupled)

    def rel(x, rhs, part=slice(None)):
        res = system.matrix @ x - rhs
        return np.linalg.norm(res[part]) / np.linalg.norm(rhs[part])

    if not spoiled:
        run()
        assert len(blocks) == 2 and spoiled_solve.calls == 32
        for x, rhs in blocks:
            for j in range(16):
                for s0, s1 in zip(starts, starts[1:]):
                    assert rel(x[j], rhs[j], slice(s0, s1)) <= SOLVER_TOL
        return
    with pytest.raises(NumericalError, match="n=33,"):
        run()
    assert len(blocks) == 2 and spoiled_solve.calls == 32
    x, rhs = blocks[1][0][5], blocks[1][1][5]
    assert rel(x, rhs, level5) > SOLVER_TOL
    assert rel(x, rhs) <= SOLVER_TOL


@pytest.mark.usefixtures("blocks_of_16")
class TestDrawAhead:
    """A sweep of at least ``FORK_NORMALS`` normals (fine steps times normals a
    step) draws its blocks in a forked child while it steps them; the tests
    force the child on small meshes by lowering the threshold to 0.  Whatever
    a child records reaches the test through a file opened for appending."""

    @staticmethod
    def record_draws(monkeypatch, log):
        # the process of every block drawn, in the order drawn
        real = noise.fine_increments

        def recorded(*args):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(noise, "fine_increments", recorded)
        return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []

    @staticmethod
    def record_forks(monkeypatch):
        # the pid of every child forked, seen in the parent
        children = []
        fork = os.fork

        def recorded():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return children

    @staticmethod
    def runs():
        # a coupled 1-d and 2-d space study path, and a per-step and a
        # final-time 2-d run with snapshots, 4 blocks of 16 steps each
        errors = []
        for dim, level in ((1, 5), (2, 4)):
            plan = convergence.plan_study(
                SchemeConfig(dim=dim, gamma=0.5, space_level=level, time_steps=64,
                             master_seed=3, mode="final_time"),
                "space", [1, 2, 3], level,
            )
            errors.append(convergence.path_errors(plan, 3).tobytes())
        cfg = SchemeConfig(dim=2, gamma=0.5, space_level=3, time_steps=64, master_seed=3)
        # looked up in stepper at call time, where perfbench/tracing.py wraps them
        runs = [run(replace(cfg, mode=mode), NoiseStream(3, 3, 64), sample_driver(3, 50),
                    snapshot_level=4)
                for mode, run in (("per_step", stepper.evolve),
                                  ("final_time", stepper.evolve_fast))]
        return [*errors, *(x.tobytes() for out in runs for x in (out.alpha, out.snapshots))]

    def test_the_helper_gives_the_same_bits(self, monkeypatch, tmp_path):
        drawn = self.record_draws(monkeypatch, tmp_path / "draws")
        children = self.record_forks(monkeypatch)
        on_caller = self.runs()  # at most 64 x 289 normals: below the threshold
        assert len(drawn()) == 16 and set(drawn()) == {os.getpid()} and not children
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        in_child = self.runs()
        assert len(children) == 4  # one child a sweep, each drawing its 4 blocks
        assert drawn()[16:] == [pid for pid in children for _ in range(4)]
        assert in_child == on_caller

    def test_the_threshold_counts_the_normals_of_a_sweep(self, monkeypatch, tmp_path):
        drawn = self.record_draws(monkeypatch, tmp_path / "draws")
        children = self.record_forks(monkeypatch)
        ops = assemble(build_mesh(2, 3))  # 81 normals a step
        for steps, threshold, forked in ((32, 2593, False), (32, 2592, True),
                                         (64, 2592, True), (16, 2592, False)):
            monkeypatch.setattr(stepper, "FORK_NORMALS", threshold)
            cfg = SchemeConfig(dim=2, gamma=0.5, space_level=3, time_steps=steps,
                               master_seed=4, mode="final_time")
            children.clear()
            before = len(drawn())
            evolve_fast(cfg, NoiseStream(4, 3, steps), sample_driver(4, 50), ops=ops)
            assert len(children) == forked
            assert drawn()[before:] == [children[0] if forked else os.getpid()] * (steps // 16)

    def test_a_failed_draw_reaches_the_caller(self, monkeypatch, tmp_path):
        # the third block fails in the child, which hands over two: the caller
        # draws the third itself, and its DomainError, with its message, is raised
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        drawn = self.record_draws(monkeypatch, tmp_path / "draws")
        recorded = noise.fine_increments

        def failing_third(*args):
            if len(drawn()) == 2:
                raise DomainError("third block")
            return recorded(*args)

        monkeypatch.setattr(noise, "fine_increments", failing_third)
        children = self.record_forks(monkeypatch)
        cfg = SchemeConfig(dim=2, gamma=0.5, space_level=3, time_steps=80,
                           master_seed=5, mode="final_time")
        with pytest.raises(DomainError, match="^third block$") as failure:
            evolve_fast(cfg, NoiseStream(5, 3, 80), sample_driver(5, 50))
        assert type(failure.value) is DomainError
        assert drawn() == children * 2 and len(children) == 1

    def test_a_killed_child_leaves_the_bits(self, monkeypatch, tmp_path):
        # each child kills itself at its third block, as a signal from outside
        # would: the caller draws that block and the fourth itself, and reaps it
        on_caller = self.runs()
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        drawn = self.record_draws(monkeypatch, tmp_path / "draws")
        recorded = noise.fine_increments
        test = os.getpid()

        def killed_third(*args):
            if os.getpid() != test and drawn().count(os.getpid()) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return recorded(*args)

        monkeypatch.setattr(noise, "fine_increments", killed_third)
        children = self.record_forks(monkeypatch)
        reaped = []
        waitpid = os.waitpid

        def reaping(pid, options):
            reaped.append(waitpid(pid, options))
            return reaped[-1]

        monkeypatch.setattr(os, "waitpid", reaping)
        assert self.runs() == on_caller
        assert len(children) == 4
        assert drawn() == [pid for child in children for pid in (child, child, test, test)]
        assert [pid for pid, _status in reaped] == children
        assert all(os.WTERMSIG(status) == signal.SIGKILL for _pid, status in reaped)

    def test_without_fork_the_sweep_draws_itself(self, monkeypatch, tmp_path):
        on_caller = self.runs()
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        monkeypatch.delattr(os, "fork")
        drawn = self.record_draws(monkeypatch, tmp_path / "draws")
        assert self.runs() == on_caller
        assert drawn() == [os.getpid()] * 16

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_a_failed_solve_reaps_the_child(self, mode, monkeypatch):
        # solve 5 of the first block fails its guard while the child, 16
        # blocks of 10 kB ahead of a 64 kB pipe, waits to write: it is killed
        # and reaped before the error reaches the caller
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        children = self.record_forks(monkeypatch)
        reaped = []
        waitpid = os.waitpid

        def recorded(pid, options):
            reaped.append(waitpid(pid, options))
            return reaped[-1]

        monkeypatch.setattr(os, "waitpid", recorded)
        ops = assemble(build_mesh(2, 3))
        cfg = SchemeConfig(dim=2, gamma=0.5, space_level=3, time_steps=256,
                           master_seed=8, mode=mode)
        system = ops.system(cfg.dt)
        monkeypatch.setattr(system, "solve", SpoiledSolve(system.solve, 5))
        with pytest.raises(NumericalError):
            MODES[mode](cfg, NoiseStream(8, 3, 256), sample_driver(8, 50), ops=ops)
        [(pid, status)] = reaped
        assert [pid] == children
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    def test_one_block_is_drawn_ahead(self, monkeypatch):
        # 64 blocks of 16 x 1,025 values (131 kB); drawing in the child leaves
        # the parent one fresh block at a time to hold, where keeping every
        # drawn block would add 60 to its peak
        ops = assemble(build_mesh(1, 10))
        cfg = SchemeConfig(dim=1, gamma=0.5, space_level=10, time_steps=2**10,
                           master_seed=6, mode="final_time")

        def peak(threshold):
            monkeypatch.setattr(stepper, "FORK_NORMALS", threshold)
            tracemalloc.start()
            try:
                evolve_fast(cfg, NoiseStream(6, 10, 2**10), sample_driver(6, 50), ops=ops)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0)  # factors the system and the quadrature
        block = stepper.BLOCK_STEPS * ops.n_dof * 8
        assert peak(0) < peak(2**62) + 4 * block

    def test_traced_functions_stay_in_the_calling_process(self, monkeypatch, tmp_path):
        # perfbench/tracing.py keeps its spans in the calling process, so a
        # function it wraps must not run in the draw child
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing_targets", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        log = tmp_path / "calls"

        def recorded(name, fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                with open(log, "a") as out:
                    out.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return call

        for name, module, attr in tracing.TARGETS:
            owner = importlib.import_module(module)
            *parts, leaf = attr.split(".")
            for part in parts:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, leaf, recorded(name, getattr(owner, leaf)))
        monkeypatch.setattr(stepper, "FORK_NORMALS", 0)
        children = self.record_forks(monkeypatch)
        self.runs()
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len(children) == 4
        assert {"driver.eval_b_grid", "noise.restrict_increment", "fracpow.apply_qgamma",
                "stepper.evolve_fast"} <= {name for name, _pid in calls}
        assert {int(pid) for _name, pid in calls} == {os.getpid()}
