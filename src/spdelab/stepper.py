"""Fully discrete scheme: backward Euler + P1 FEM + fractional noise coloring.

One step advances the nodal coefficient vector alpha by

    (M + dt T) alpha^{n+1} = M alpha^n + b_n * M Q(g_n),

where ``g_n`` is the projected Wiener increment for the step (already
carrying its sqrt(dt) scaling), ``b_n`` the scalar driver sampled at the
left endpoint, and ``Q`` the fractional-inverse quadrature.

Both modes run one sweep over the fine steps of the noise stream in blocks
of ``max(BLOCK_STEPS, BLOCK_VALUES // n)`` steps, for the ``n`` normals of a
fine step.  A block draws its fine increments, each from its own key, in one
``L_M @ R`` product, and sums them into the steps of every coarser time grid
in one running sum (in fine-step order, bit-identical to
``aggregate_increment``; a step still open at the end of a block carries
over).  ``rng.drawn_in_child`` decides whether a forked child draws the
blocks; the keyed draw and the sparse product give the same bits in any
process.  The runs sharing a time grid advance as one group, whose state
stacks theirs: it restricts its completed sums to every run's mesh in one
product, takes their backward Euler steps one by one with one block-diagonal
solve each (``BlockSystem.advance``) and checks all their residuals at once,
per run, so it holds at most one block of states.  Each row of a block is
keyed by its step, the products and the restriction act column by column,
open sums carry over and the 1-d coloring takes each column on its own, so
no bit depends on the block size.  The sweep knows no gamma: it returns raw
states, and the modes differ only in where ``Q`` is applied:

* ``evolve`` (``per_step``) hands the sweep its loads, each completed
  increment colored, ``M Q g_n``, one at a time before its solve.
* ``evolve_fast`` (``final_time``) colors what the sweep returns, the load
  representation of each state once, in place (``_color``).  Because
  K = M + T, ``Q`` commutes with the time stepping, and a step costs one
  backward Euler solve, not one shifted solve per quadrature node.  A
  convergence study sweeps its coarse runs (``coupled``) with its reference
  and colors their raw final states at each of its gammas the same way.

Every run starts from u(0) = 0, the model's initial condition.

``path_inputs`` makes the noise and driver of one path from its key, and
``MODES`` maps ``SchemeConfig.mode`` to its entry point.  A run checks itself
before it sweeps: both modes and every study path first call ``checked_ops``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import noise
from .driver import DEFAULT_N_MODES, ScalarDriver, eval_b_grid, sample_driver
from .exceptions import DomainError
from .fracpow import apply_qgamma, make_spec, pencil_factors
from .mesh import MAX_TIME_EXP, FemOperators, assemble, build_mesh
from .noise import NoiseStream, restrict_increment
from .rng import drawn_in_child

# unused here, but perfbench/tracing.py wraps the per-step aggregation under
# this name, so the binding stays
from .noise import aggregate_increment  # noqa: F401

# a block of the sweep draws, colors and solves max(BLOCK_STEPS, BLOCK_VALUES
# // n) fine steps of n normals each: on a small mesh its fixed costs (a keyed
# generator, sparse products, a residual check) would outweigh its steps, while
# larger blocks slowed the sweeps of 1-d from level 9 and 2-d from level 5,
# which keep 16 steps (64-step blocks: a 1-d level-9 path 0.55 -> 0.68 s)
BLOCK_STEPS = 16
BLOCK_VALUES = 2**13
# values of the snapshot array (512 MiB); coloring it in place adds chunk-sized
# temporaries at every gamma
MAX_SNAPSHOT_VALUES = 2**26


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one fully discrete solver run."""

    dim: int
    gamma: float
    space_level: int
    time_steps: int
    master_seed: int
    k: float = 0.5
    mode: str = "per_step"  # a key of MODES
    n_modes: int = DEFAULT_N_MODES

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError(f"dim must be 1 or 2, got {self.dim}")
        lo = self.dim / 4.0 - 0.5
        if not (self.gamma > lo and 0.0 <= self.gamma <= 1.0):
            raise DomainError(
                f"gamma {self.gamma} not admissible for dim {self.dim}: "
                f"requires gamma in ({lo}, 1] and [0, 1]"
            )
        if self.time_steps < 1:
            raise DomainError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.time_steps > 2**MAX_TIME_EXP:  # a memory guard
            raise DomainError(f"time_steps {self.time_steps} exceed the guard of 2^{MAX_TIME_EXP}")
        if not 0 <= self.master_seed < 2**64:  # 64-bit rng keys (keyed_generator)
            raise DomainError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        make_spec(self.gamma, self.k)  # the rule for k and the node guard
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.time_steps


@dataclass(frozen=True)
class PathState:
    """What one run produced: its nodal coefficients at t = 1 and, where
    asked for, its snapshots and (``_sweep`` only) its coupled runs' raw finals."""

    alpha: np.ndarray
    snapshots: np.ndarray | None = None  # (n_snapshots, n_dof) at dyadic times
    coupled: tuple[np.ndarray, ...] = ()  # in the order the runs were given


def path_inputs(config: SchemeConfig, seed: int) -> tuple[NoiseStream, ScalarDriver]:
    """The noise on ``config``'s mesh and time grid and the driver of the path
    keyed by ``seed``; every run of the path, coarse or not, is driven by them."""
    return (NoiseStream(seed, config.space_level, config.time_steps),
            sample_driver(seed, config.n_modes))


def _snapshot_stride(
    config: SchemeConfig, snapshot_level: int | None, n_dof: int
) -> int | None:
    if snapshot_level is None:
        return None
    if snapshot_level < 0:
        raise DomainError(f"snapshot_level must be >= 0, got {snapshot_level}")
    n_snap = 2**snapshot_level
    if config.time_steps % n_snap != 0:
        raise DomainError(
            f"time_steps {config.time_steps} not divisible by 2^{snapshot_level}"
        )
    if (n_snap + 1) * n_dof > MAX_SNAPSHOT_VALUES:
        raise DomainError(
            f"{n_snap + 1} snapshots of {n_dof} values exceed the guard of "
            f"{MAX_SNAPSHOT_VALUES} values"
        )
    return config.time_steps // n_snap


def checked_ops(config: SchemeConfig, snapshot_level: int | None = None,
                ops: FemOperators | None = None) -> FemOperators:
    """``ops``, or the operators of ``config``'s mesh assembled anew, after every
    guard that a run of ``config`` would otherwise meet only in its sweep: they
    must be its mesh's, and its snapshots and pencil factors must fit; the first
    factor (``pencil_factors``) is fetched and stays cached in them for the run."""
    ops = ops or assemble(build_mesh(config.dim, config.space_level))
    if (ops.mesh.dim, ops.mesh.level) != (config.dim, config.space_level):
        raise DomainError(f"a {config.dim}-d level-{config.space_level} run got the "
                          f"operators of a {ops.mesh.dim}-d level {ops.mesh.level}")
    _snapshot_stride(config, snapshot_level, ops.n_dof)
    next(pencil_factors(ops, make_spec(config.gamma, config.k)), None)
    return ops


class _Group:
    """The runs of one sweep on one time grid, each on ``ops.coarse`` of its
    level, advanced as one state that stacks theirs in the order of its
    ``system``, starting from zero.  ``b`` is the driver on the noise's grid,
    ``fine_steps + 1`` values."""

    def __init__(self, runs: list[SchemeConfig], ops: FemOperators,
                 stream: NoiseStream, b: np.ndarray):
        cfg = runs[0]
        if stream.fine_steps % cfg.time_steps != 0:
            raise DomainError(f"time_steps {cfg.time_steps} does not divide "
                              f"reference fine_steps {stream.fine_steps}")
        levels = [ops.coarse(c.space_level) for c in runs]
        # None: one run, on the stream's mesh; an identity block restricts exactly
        self.a = levels[0][1] if len(runs) == 1 else sp.vstack(
            [sp.identity(o.n_dof) if a is None else a for o, a in levels], "csr")
        self.ratio = stream.fine_steps // cfg.time_steps
        self.b = b[:-1 : self.ratio]  # at the left end of every step
        main, *others = (run_ops for run_ops, _a in levels)
        self.system = main.system(cfg.dt, tuple(others))
        self.beta = np.zeros(self.system.offsets[-1])

    def take(self, m0: int, g: np.ndarray, load=None) -> np.ndarray:
        """Advance over the steps that fine steps ``m0`` on complete, whose
        summed increments are the columns of ``g``, each mapped by ``load``
        if given; returns their stacked states."""
        n0 = m0 // self.ratio
        n1 = n0 + g.shape[1]
        if n1 == n0:
            return np.empty((0, self.system.offsets[-1]))
        if self.a is not None:
            g = restrict_increment(self.a, g)
        if load is not None:
            g = load(g)
        states, rhs = self.system.advance(self.beta, g * self.b[n0:n1])
        self.system.check(states, rhs)
        self.beta = states[-1].copy()
        return states


def _sweep(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    ops: FemOperators,
    snapshot_level: int | None,
    coupled: tuple,
    load=None,
) -> PathState:
    """Advance the main run and its coupled runs to t = 1 in one pass; each
    step's load is its summed increment, mapped by ``load`` if given (no
    coupled runs).  Returns their states as they are, colored by no gamma."""
    if stream.fine_level != config.space_level:
        raise DomainError("the main run must be on the stream's fine level")
    stride = _snapshot_stride(config, snapshot_level, ops.n_dof)
    runs = [config, *coupled]
    grids: dict[int, list[int]] = {}  # time steps -> its runs, the main run first
    for i, cfg in enumerate(runs):
        grids.setdefault(cfg.time_steps, []).append(i)
    b = eval_b_grid(driver, stream.fine_steps)
    groups = [_Group([runs[i] for i in m], ops, stream, b) for m in grids.values()]
    main = groups[0]

    # the running sum of the open step of every group coarser than the noise
    summed = [g for g in groups if g.ratio > 1]
    acc = np.zeros((len(summed), ops.n_dof))
    # row k holds the state after k * stride steps, row 0 the zero initial state
    snaps = np.zeros((config.time_steps // stride + 1, ops.n_dof)) if stride else None
    steps = max(BLOCK_STEPS, BLOCK_VALUES // ops.mass_chol.shape[1])
    blocks = [(m0, min(m0 + steps, stream.fine_steps))
              for m0 in range(0, stream.fine_steps, steps)]

    def draw(block):
        return noise.fine_increments(stream, *block, ops.mass_chol)

    with drawn_in_child(draw, blocks, lambda block: (ops.n_dof, block[1] - block[0])) as drawn:
        for (m0, m1), f in zip(blocks, drawn):
            sums = {
                g: np.empty((ops.n_dof, m1 // g.ratio - m0 // g.ratio)) for g in summed
            }
            for m, row in enumerate(np.ascontiguousarray(f.T) if summed else (), m0):
                acc += row  # a row whose step starts here is overwritten below
                for a, g in enumerate(summed):
                    if m % g.ratio == 0:  # a copy, so never 0.0 + the increment
                        acc[a] = row
                    elif (m + 1) % g.ratio == 0:
                        sums[g][:, m // g.ratio - m0 // g.ratio] = acc[a]
            states = main.take(m0, sums.get(main, f), load)[:, : ops.n_dof]
            for group in groups[1:]:
                group.take(m0, sums.get(group, f))
            if stride:  # the states after a multiple of stride steps
                n0 = m0 // main.ratio  # the block's first step
                k0 = n0 // stride + 1  # the first row after it
                rows = states[k0 * stride - 1 - n0 :: stride]
                snaps[k0 : k0 + len(rows)] = rows

    final = [None] * len(runs)  # run i -> its final state
    for g, m in zip(groups, grids.values()):
        for i, lo, hi in zip(m, g.system.offsets, g.system.offsets[1:]):
            final[i] = g.beta[lo:hi].copy()
    return PathState(alpha=final[0], snapshots=snaps, coupled=tuple(final[1:]))


def evolve(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    *,
    ops: FemOperators | None = None,
    snapshot_level: int | None = None,
) -> PathState:
    """Run the scheme to t = 1, handing the sweep each step's colored load
    ``M Q g_n`` (at gamma 0, ``g_n`` itself).

    Optionally records the state at all dyadic times ``j * 2**-snapshot_level``
    (including t = 0) for trajectory regularity estimates.
    """
    ops = checked_ops(config, snapshot_level, ops)
    spec = make_spec(config.gamma, config.k)

    def load(g):
        # 1-d colors each column on its own (DCT-I, or dpttrs at gamma 1): a block
        # at once; 2-d multi-column supernodal solves round differently: by column
        cols = [g] if ops.mesh.dim == 1 else g.T
        return np.column_stack([ops.mass @ apply_qgamma(spec, ops, c) for c in cols])

    return _sweep(config, stream, driver, ops, snapshot_level, (),
                  None if spec.is_identity else load)


def evolve_fast(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    *,
    ops: FemOperators | None = None,
    snapshot_level: int | None = None,
) -> PathState:
    """Run the scheme on raw increments and color the states the sweep returns.

    Valid because K = M + T exactly: the quadrature commutes with the
    backward Euler propagator, so the colored state at any step is the
    quadrature of the raw state's load vector.  Snapshots are as in ``evolve``.
    """
    ops = checked_ops(config, snapshot_level, ops)
    state = _sweep(config, stream, driver, ops, snapshot_level, ())
    _color(config, ops, state.alpha)
    if state.snapshots is not None:  # as columns, so no row is rounded by layout
        _color(config, ops, state.snapshots.T)
    return state


def _color(config: SchemeConfig, ops: FemOperators, raw: np.ndarray) -> None:
    """Color ``raw`` (a raw state, or states as columns) in place at ``config``'s Q."""
    spec = make_spec(config.gamma, config.k)
    if not spec.is_identity:
        apply_qgamma(spec, ops, raw, in_place=True)


# SchemeConfig.mode -> the entry point that runs it
MODES = {"per_step": evolve, "final_time": evolve_fast}
