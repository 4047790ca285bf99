"""Fully discrete scheme: backward Euler + P1 FEM + fractional noise coloring.

One step advances the nodal coefficient vector alpha by

    (M + dt T) alpha^{n+1} = M alpha^n + b_n * M Q(g_n),

where ``g_n`` is the projected Wiener increment for the step (already
carrying its sqrt(dt) scaling), ``b_n`` the scalar driver sampled at the
left endpoint, and ``Q`` the fractional-inverse quadrature.

Both modes run one sweep over the fine steps of the noise stream in blocks
of ``BLOCK_STEPS``.  A block draws its fine increments, each from its own
key, in one ``L_M @ R`` product, and sums them into the steps of every
coarser time grid in one running sum (in fine-step order, bit-identical to
``aggregate_increment``; a step still open at the end of a block carries
over).  The runs sharing a time grid advance as one group, whose state
stacks theirs: it restricts its completed sums to every run's mesh in one
product, takes their backward Euler steps one by one with one
block-diagonal solve each and checks all their residuals at once, per run,
so it holds at most ``BLOCK_STEPS`` states.  The modes differ only in
where ``Q`` is applied:

* ``evolve`` (``per_step``) colors each completed increment, ``M Q g_n``,
  one at a time before its solve.
* ``evolve_fast`` (``final_time``) runs on raw increments and applies ``Q``
  once to the load representation of each state it returns.  Because
  K = M + T here, the coloring commutes with the time stepping; this cuts
  the per-step cost from one shifted solve per quadrature node to a single
  backward Euler solve.  ``evolve_fast`` also advances further runs on the
  same noise in the same sweep (``coupled``), as a coupled convergence
  study needs.

Every run starts from u(0) = 0, the model's initial condition.

``MODES`` maps ``SchemeConfig.mode`` to its entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import noise
from .driver import DEFAULT_N_MODES, ScalarDriver, eval_b_grid
from .exceptions import DomainError
from .fracpow import apply_qgamma, make_spec
from .mesh import FemOperators, assemble, build_mesh
from .noise import NoiseStream, restrict_increment

# unused here, but perfbench/tracing.py wraps the per-step aggregation under
# this name, so the binding stays
from .noise import aggregate_increment  # noqa: F401

# fine steps drawn, colored and solved per block of the sweep
BLOCK_STEPS = 16


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
        if self.k <= 0.0:
            raise DomainError(f"k must be positive, got {self.k}")
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.time_steps


@dataclass(frozen=True)
class PathState:
    """What one run produced: its nodal coefficients at t = 1 and, where
    asked for, its snapshots and the final states of its coupled runs."""

    alpha: np.ndarray
    snapshots: np.ndarray | None = None  # (n_snapshots, n_dof) at dyadic times
    # final states of the runs coupled to this one, in the order given
    coupled: tuple[np.ndarray, ...] = ()


def _snapshot_stride(config: SchemeConfig, snapshot_level: int | None) -> int | None:
    if snapshot_level is None:
        return None
    if snapshot_level < 0:
        raise DomainError(f"snapshot_level must be >= 0, got {snapshot_level}")
    n_snap = 2**snapshot_level
    if config.time_steps % n_snap != 0:
        raise DomainError(
            f"time_steps {config.time_steps} not divisible by 2^{snapshot_level}"
        )
    return config.time_steps // n_snap


class _Group:
    """The runs ``(config, ops, a)`` of one sweep on one time grid, advanced
    as one state that stacks theirs in the order of its ``system``, starting
    from zero; ``per_step`` colors each increment before its solve (one run
    only).  ``b`` is the driver on the noise's grid, ``fine_steps + 1``
    values."""

    def __init__(self, runs: list, stream: NoiseStream, b: np.ndarray,
                 per_step: bool = False):
        cfg = runs[0][0]
        if stream.fine_steps % cfg.time_steps != 0:
            raise DomainError(
                f"time_steps {cfg.time_steps} does not divide reference "
                f"fine_steps {stream.fine_steps}"
            )
        if any(a is None and stream.fine_level != c.space_level for c, _o, a in runs):
            raise DomainError(
                "restriction matrix required when the run level differs "
                "from the stream's fine level"
            )
        self.ops = tuple(run_ops for _c, run_ops, _a in runs)
        self.specs = tuple(make_spec(c.gamma, c.k) for c, _o, _a in runs)
        self.a = runs[0][2]  # None: one run, on the stream's mesh
        if len(runs) > 1:  # an identity block restricts exactly
            blocks = [sp.identity(o.n_dof) if a is None else a for _c, o, a in runs]
            self.a = sp.vstack(blocks, "csr")
        self.ratio = stream.fine_steps // cfg.time_steps
        self.b = b[:-1 : self.ratio]  # at the left end of every step
        self.system = self.ops[0].system(cfg.dt, self.ops[1:])
        self.beta = np.zeros(self.system.offsets[-1])
        self.per_step = per_step

    def take(self, m0: int, g: np.ndarray) -> np.ndarray:
        """Advance over the steps that fine steps ``m0`` on complete, whose
        summed increments are the columns of ``g``; returns their stacked
        states."""
        n0 = m0 // self.ratio
        n1 = n0 + g.shape[1]
        system = self.system
        states = np.empty((n1 - n0, system.offsets[-1]))
        if n1 == n0:
            return states
        if self.a is not None:
            g = restrict_increment(self.a, g)
        if self.per_step and not self.specs[0].is_identity:
            # one column at a time: in 2-d, multi-column supernodal solves
            # go through BLAS and can round differently
            main = self.ops[0]
            g = np.column_stack(
                [main.mass @ apply_qgamma(self.specs[0], main, c) for c in g.T]
            )
        bg = g * self.b[n0:n1]
        rhs = np.empty_like(states)
        beta = self.beta
        for j in range(n1 - n0):
            rhs[j] = system.mass @ beta + bg[:, j]
            beta = states[j] = system.solve(rhs[j])
        system.check(states, rhs)
        self.beta = beta
        return states

    def color(self, i: int, raw: np.ndarray | None = None) -> np.ndarray:
        # run i's raw states as columns (default: its final state), colored at once
        if raw is None:
            raw = self.beta[self.system.offsets[i] : self.system.offsets[i + 1]]
        if self.per_step or self.specs[i].is_identity:
            return raw
        return apply_qgamma(self.specs[i], self.ops[i], self.ops[i].mass @ raw)


def _sweep(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    ops: FemOperators | None,
    snapshot_level: int | None,
    coupled: tuple,
    per_step: bool,
) -> PathState:
    """Advance the main run and its coupled runs to t = 1 in one pass."""
    if ops is None:
        ops = assemble(build_mesh(config.dim, config.space_level))
    stride = _snapshot_stride(config, snapshot_level)
    runs = [(config, ops, None), *coupled]
    grids: dict[int, list[int]] = {}  # time steps -> its runs, the main run first
    for i, (cfg, _o, _a) in enumerate(runs):
        grids.setdefault(cfg.time_steps, []).append(i)
    main_runs, *other_runs = ([runs[i] for i in m] for m in grids.values())
    b = eval_b_grid(driver, stream.fine_steps)
    main = _Group(main_runs, stream, b, per_step)
    groups = [main, *(_Group(r, stream, b) for r in other_runs)]

    # the running sum of the open step of every group coarser than the noise
    summed = [g for g in groups if g.ratio > 1]
    acc = np.zeros((len(summed), ops.n_dof))
    snaps = [main.beta[: ops.n_dof]] if stride else None
    for m0 in range(0, stream.fine_steps, BLOCK_STEPS):
        m1 = min(m0 + BLOCK_STEPS, stream.fine_steps)
        f = noise.fine_increments(stream, m0, m1, ops.mass_chol)
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
        states = main.take(m0, sums.get(main, f))[:, : ops.n_dof]
        for group in groups[1:]:
            group.take(m0, sums.get(group, f))
        for j, n in enumerate(range(m0 // main.ratio, m1 // main.ratio)):
            if stride and (n + 1) % stride == 0:
                snaps.append(states[j].copy())  # a view would keep the block

    alpha = main.color(0)
    snapshots = None
    if stride:  # in C order, so row-wise products do not round by layout
        snapshots = np.ascontiguousarray(main.color(0, np.array(snaps).T).T)
    place = {i: (g, k) for g, m in zip(groups, grids.values()) for k, i in enumerate(m)}
    return PathState(
        alpha=alpha,
        snapshots=snapshots,
        coupled=tuple(g.color(k) for g, k in map(place.get, range(1, len(runs)))),
    )


def evolve(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    *,
    ops: FemOperators | None = None,
    snapshot_level: int | None = None,
) -> PathState:
    """Run the scheme to t = 1, coloring the noise at every step.

    Optionally records the state at all dyadic times ``j * 2**-snapshot_level``
    (including t = 0) for trajectory regularity estimates.
    """
    return _sweep(config, stream, driver, ops, snapshot_level, (), per_step=True)


def evolve_fast(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    *,
    ops: FemOperators | None = None,
    snapshot_level: int | None = None,
    coupled: tuple[tuple[SchemeConfig, FemOperators, sp.spmatrix | None], ...] = (),
) -> PathState:
    """Run the scheme on raw increments and color only where states are read.

    Valid because K = M + T exactly, so the fractional-inverse quadrature
    commutes with the backward Euler propagator; the colored state at any
    step equals the quadrature applied to the raw state's load vector.
    Snapshots are taken as in ``evolve``.

    ``coupled`` lists further runs ``(config, ops, a)`` driven by the same
    fine increments and driver, each restricted by its own ``a`` (``None``
    on the stream's mesh); all runs advance in one sweep that draws every
    fine increment once.  Their colored final states are returned in
    ``PathState.coupled``.  Snapshots belong to the main run only.
    """
    return _sweep(config, stream, driver, ops, snapshot_level, coupled, per_step=False)


# SchemeConfig.mode -> the entry point that runs it
MODES = {"per_step": evolve, "final_time": evolve_fast}
