"""Properties of the sweep, the coloring and the Monte Carlo chunks on
generated runs.

Plans, runs and blocks are drawn small, so that every example takes a few
milliseconds: 1-d meshes up to level 5, 2-d up to level 3, at most 40 time
steps, every admissible gamma of {0, 0.25, 0.5, 0.75, 1} and k 0.5 or 1.
The sweep's block length is drawn too, from 1 to 8 steps, so that the steps
of coarser runs straddle block edges; no bit depends on it.  Likewise an
``l0`` batch is drawn in chunks of 1 to 64 paths, and a Hölder level's
increments a few rows at a time; no bit depends on either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_convergence import _per_level_path_errors
from test_l0 import (
    whole_batch_bdg_ratio,
    whole_batch_draw,
    whole_batch_integral,
    whole_batch_sum_ratio,
)

from spdelab import l0, stepper
from spdelab.convergence import path_errors, plan_study
from spdelab.driver import sample_driver
from spdelab.fracpow import apply_qgamma, make_spec
from spdelab.mesh import assemble, build_mesh
from spdelab.noise import NoiseStream
from spdelab.stepper import SchemeConfig, evolve, evolve_fast

GAMMAS = [0.0, 0.25, 0.5, 0.75, 1.0]
MAX_LEVEL = {1: 5, 2: 3}
K = st.sampled_from([0.5, 1.0])
SEED = st.integers(0, 2**32)
# fine steps per sweep block; BLOCK_VALUES 0 keeps every mesh at this length
BLOCK = st.integers(1, 8)


@st.composite
def dim_and_gamma(draw):
    dim = draw(st.sampled_from([1, 2]))
    # gamma 0 is inadmissible in 2-d
    return dim, draw(st.sampled_from(GAMMAS[dim - 1 :]))


@st.composite
def plans(draw):
    """A study of 1-4 coarse runs against a reference of at most 40 steps."""
    dim, gamma = draw(dim_and_gamma())
    axis = draw(st.sampled_from(["space", "time"]))
    if axis == "space":
        ref = draw(st.integers(0, MAX_LEVEL[dim]))
        space_level, time_steps = ref, draw(st.integers(1, 40))
    else:  # dyadic time exponents: 2^5 = 32 steps at most
        ref = draw(st.integers(0, 5))
        space_level, time_steps = draw(st.integers(0, MAX_LEVEL[dim])), 2**ref
    n_coarse = draw(st.integers(1, min(4, ref + 1)))
    coarse = sorted(draw(st.lists(st.integers(0, ref), min_size=n_coarse,
                                  max_size=n_coarse, unique=True)))
    base = SchemeConfig(dim=dim, gamma=gamma, space_level=space_level,
                        time_steps=time_steps, master_seed=0, k=draw(K), n_modes=20)
    return plan_study(base, axis, coarse, ref)


@given(plan=plans(), seed=SEED, block=BLOCK)
@settings(max_examples=200)
def test_path_errors_equal_per_level_runs(plan, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "BLOCK_STEPS", block)
        mp.setattr(stepper, "BLOCK_VALUES", 0)
        swept = path_errors(plan, seed)
    np.testing.assert_array_equal(
        swept, _per_level_path_errors(plan, seed, plan.ref.time_steps)
    )


@st.composite
def runs(draw):
    """A run, the fine steps of its noise and its snapshot level or None."""
    dim, gamma = draw(dim_and_gamma())
    snapshot_level = draw(st.one_of(st.none(), st.integers(0, 3)))
    time_steps = 2 ** (snapshot_level or 0) * draw(st.integers(1, 5))
    cfg = SchemeConfig(dim=dim, gamma=gamma,
                       space_level=draw(st.integers(1, MAX_LEVEL[dim])),
                       time_steps=time_steps, master_seed=0, k=draw(K), n_modes=20)
    return cfg, time_steps * draw(st.integers(1, 3)), snapshot_level


@given(run=runs(), seed=SEED, block=BLOCK)
@settings(max_examples=200)
def test_per_step_and_final_time_agree(run, seed, block):
    # criterion 06's tolerance, on the final state and on every snapshot
    cfg, fine_steps, snapshot_level = run
    ops = assemble(build_mesh(cfg.dim, cfg.space_level))
    stream = NoiseStream(seed=seed, fine_level=cfg.space_level, fine_steps=fine_steps)
    drv = sample_driver(seed, cfg.n_modes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "BLOCK_STEPS", block)
        mp.setattr(stepper, "BLOCK_VALUES", 0)
        slow, fast = (mode(cfg, stream, drv, ops=ops, snapshot_level=snapshot_level)
                      for mode in (evolve, evolve_fast))
    assert ops.m_norm(slow.alpha - fast.alpha) <= 1e-8 * ops.m_norm(slow.alpha)
    if snapshot_level is None:
        assert slow.snapshots is None and fast.snapshots is None
    else:  # row 0, the zero initial state, is zero in both
        err = ops.m_norm(slow.snapshots - fast.snapshots)
        assert np.all(err <= 1e-8 * ops.m_norm(slow.snapshots))


@given(dim_gamma=dim_and_gamma(), level=st.integers(1, 3), k=K, seed=SEED,
       width=st.sampled_from([1, 255, 256, 257, 511, 512, 513]))
@settings(max_examples=120)
def test_in_place_coloring_equals_the_load_product(dim_gamma, level, k, seed, width):
    # both chunk the block alike, and the mass product acts column by column
    dim, gamma = dim_gamma
    ops = assemble(build_mesh(dim, level))
    spec = make_spec(gamma, k)
    coef = np.random.default_rng(seed).standard_normal((ops.n_dof, width))
    expected = apply_qgamma(spec, ops, ops.mass @ coef)
    apply_qgamma(spec, ops, coef, in_place=True)
    np.testing.assert_array_equal(coef, expected)


@st.composite
def chunked_batches(draw):
    """A chunk size, a path count within one path of k chunks (k = 1..4) and
    the integrand of the batch: any family, dim_q 1 or 2, 1-16 steps and a
    support window of whole steps or none."""
    chunk = draw(st.integers(1, 64))
    n_paths = max(1, draw(st.integers(1, 4)) * chunk + draw(st.sampled_from([-1, 0, 1])))
    steps = draw(st.integers(1, 16))
    support = None
    if draw(st.booleans()):
        lo = draw(st.integers(0, steps - 1))
        support = (lo / steps, draw(st.integers(lo + 1, steps)) / steps)
    phi = l0.ElementaryIntegrand(
        draw(st.sampled_from([1, 2])), np.linspace(0.0, 1.0, steps + 1),
        draw(st.sampled_from(l0.FAMILIES)), 1.3, support,
    )
    return chunk, n_paths, phi


@given(batch=chunked_batches(), seed=SEED, n_blocks=st.integers(1, 4),
       block_steps=st.integers(1, 4))
@settings(max_examples=800)
def test_a_chunked_batch_equals_the_whole_batch(batch, seed, n_blocks, block_steps):
    chunk, n_paths, phi = batch
    phis = l0.block_integrands(phi.family, n_blocks, block_steps, phi.dim_q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "CHUNK_PATHS", chunk)
        mp.setattr(l0, "MIN_PATHS", 1)
        sample = l0.ito_integral_elementary(phi, seed, n_paths)
        ratios = l0.bdg_ratios(phi, [1.0, 2.0, 4.0], n_paths, seed)
        sum_ratio = l0.bdg_sum_ratio(phis, 2.0, n_paths, seed)
    x, sup, quad_var = whole_batch_integral(phi, *whole_batch_draw(phi, seed, n_paths))
    np.testing.assert_array_equal(sample.terminal, x[:, -1])
    np.testing.assert_array_equal(sample.sup_norm, sup)
    np.testing.assert_array_equal(sample.quad_var, quad_var)
    assert ratios == [whole_batch_bdg_ratio(phi, p, n_paths, seed) for p in (1.0, 2.0, 4.0)]
    assert sum_ratio == whole_batch_sum_ratio(phis, 2.0, n_paths, seed)


@st.composite
def dyadic_paths(draw):
    """2^m + 1 snapshots (m = 3..7) of scalars, or of the 2, 3 or 5 values of
    a 1-d mesh of level 0-2, with the lowest level of a Hölder fit."""
    m_max = draw(st.integers(3, 7))
    level = draw(st.sampled_from([None, 0, 1, 2]))
    shape = (2**m_max + 1,) if level is None else (2**m_max + 1, 2**level + 1)
    path = np.random.default_rng(draw(SEED)).standard_normal(shape)
    return path, draw(st.integers(0, m_max - 3)), level


@given(run=dyadic_paths(), rows=st.integers(1, 4), spare=st.integers(0, 4),
       with_norm=st.booleans())
@settings(max_examples=500)
def test_holder_chunks_equal_the_whole_level(run, rows, spare, with_norm):
    # chunks of a few rows, and a few values more than whole rows
    path, m_min, level = run
    width = path[0].size
    norm = assemble(build_mesh(1, level)).m_norm if with_norm and level is not None else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "INCREMENT_VALUES", rows * width + spare % width)
        est = l0.holder_exponent(path, m_min, norm=norm)
    m_max = path.shape[0].bit_length() - 1
    whole = []
    for m in est.levels:
        diffs = np.diff(path[:: 2 ** (m_max - m)], axis=0)
        if norm is not None:
            whole.append(norm(diffs).max())
        else:
            whole.append(np.abs(diffs).max() if diffs.ndim == 1
                         else np.linalg.norm(diffs, axis=1).max())
    np.testing.assert_array_equal(est.increments, whole)
    slope, _ = np.polyfit(est.levels, np.log2(whole), 1)
    assert est.exponent == -slope
