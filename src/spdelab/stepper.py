"""Fully discrete scheme: backward Euler + P1 FEM + fractional noise coloring.

One step advances the nodal coefficient vector alpha by

    (M + dt T) alpha^{n+1} = M alpha^n + b_n * M Q(g_n),

where ``g_n`` is the projected Wiener increment for the step (already
carrying its sqrt(dt) scaling), ``b_n`` the scalar driver sampled at the
left endpoint, and ``Q`` the fractional-inverse quadrature.

Both modes run one sweep over the fine steps of the noise stream in blocks
of ``BLOCK_STEPS``.  A block draws its fine increments, each from its own
key, in one ``L_M @ R`` product.  Each run sums them into its steps in
fine-step order (bit-identical to ``aggregate_increment``; a step still open
at the end of a block carries over), restricts the completed sums in one
product, takes their backward Euler steps one by one and checks all their
residuals at once, so it holds at most ``BLOCK_STEPS`` states.  The modes
differ only in where ``Q`` is applied:

* ``evolve`` (``per_step``) colors each completed increment, ``M Q g_n``,
  one at a time before its solve, starting from the initial data.
* ``evolve_fast`` (``final_time``) runs on raw increments and applies ``Q``
  once to the load representation of each state it returns.  Because
  K = M + T here, the coloring commutes with the time stepping; this cuts
  the per-step cost from one shifted solve per quadrature node to a single
  backward Euler solve.  Initial data follow a separate homogeneous
  recursion, so they are never colored.  ``evolve_fast`` also advances
  further runs on the same noise in the same sweep (``coupled``), as a
  coupled convergence study needs; the driver is evaluated once per
  distinct time grid.

``MODES`` maps ``SchemeConfig.mode`` to its entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import noise
from .driver import ScalarDriver, eval_b_grid
from .exceptions import DomainError
from .fracpow import QuadratureSpec, apply_qgamma, make_spec
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
    n_modes: int = 1000
    initial: np.ndarray | None = None

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
    """Nodal coefficients of the discrete solution at one time."""

    alpha: np.ndarray
    n: int
    t: float
    snapshots: np.ndarray | None = None  # (n_snapshots, n_dof) at dyadic times
    # final states of the runs coupled to this one, in the order given
    coupled: tuple[np.ndarray, ...] = ()


def _ratio(config: SchemeConfig, stream: NoiseStream, a: sp.spmatrix | None) -> int:
    """Fine steps per step of a run; checks that the run fits the stream."""
    if stream.fine_steps % config.time_steps != 0:
        raise DomainError(
            f"time_steps {config.time_steps} does not divide reference "
            f"fine_steps {stream.fine_steps}"
        )
    if a is None and stream.fine_level != config.space_level:
        raise DomainError(
            "restriction matrix required when the run level differs "
            "from the stream's fine level"
        )
    return stream.fine_steps // config.time_steps


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


@dataclass
class _Run:
    """State of one run during the sweep over fine steps."""

    ops: FemOperators
    spec: QuadratureSpec
    a: sp.spmatrix | None  # restriction to this run's mesh; None on the stream's
    ratio: int  # fine steps per step of this run
    dt: float
    b: np.ndarray  # driver on this run's time grid
    beta: np.ndarray
    per_step: bool = False  # color each increment before its solve
    acc: np.ndarray | None = None  # fine increments of an open step so far

    def _step_sums(self, m0: int, f: np.ndarray) -> np.ndarray:
        """Sums of the steps that the fine increments ``f`` complete, as columns."""
        if self.ratio == 1:
            return f
        sums = []
        for c in range(f.shape[1]):
            m = m0 + c
            # fine-step order, bit-identical to aggregate_increment
            self.acc = f[:, c] if m % self.ratio == 0 else self.acc + f[:, c]
            if (m + 1) % self.ratio == 0:
                sums.append(self.acc)
        return np.column_stack(sums) if sums else f[:, :0]

    def take(self, m0: int, f: np.ndarray) -> np.ndarray:
        """Advance over the fine increments ``f``, the columns of fine steps
        ``m0`` on; returns the states of the steps they complete, as rows."""
        g = self._step_sums(m0, f)
        n0 = m0 // self.ratio
        n1 = n0 + g.shape[1]
        states = np.empty((n1 - n0, self.ops.n_dof))
        if n1 == n0:
            return states
        mass = self.ops.mass
        if self.a is not None:
            g = restrict_increment(self.a, g)
        if self.per_step and not self.spec.is_identity:
            # one column at a time: batched pencil solves can round differently
            g = np.column_stack(
                [mass @ apply_qgamma(self.spec, self.ops, c) for c in g.T]
            )
        bg = g * self.b[n0:n1]
        lu = self.ops.system_factor(self.dt)[0]
        rhs = np.empty_like(states)
        beta = self.beta
        for j in range(n1 - n0):
            rhs[j] = mass @ beta + bg[:, j]
            beta = states[j] = lu.solve(rhs[j])
        self.ops.check_solves(self.dt, states, rhs)
        self.beta = beta
        return states

    def color(self, raw: np.ndarray) -> np.ndarray:
        # raw states stacked as columns; one batched quadrature application
        if self.per_step or self.spec.is_identity:
            return raw
        return apply_qgamma(self.spec, self.ops, self.ops.mass @ raw)


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
    initial = (
        np.zeros(ops.n_dof)
        if config.initial is None
        else np.asarray(config.initial, dtype=float)
    )
    if initial.shape[0] != ops.n_dof:
        raise DomainError(
            f"initial data has {initial.shape[0]} entries, mesh has {ops.n_dof}"
        )
    stride = _snapshot_stride(config, snapshot_level)
    grids: dict[int, np.ndarray] = {}

    def run(cfg: SchemeConfig, run_ops: FemOperators, a) -> _Run:
        ratio = _ratio(cfg, stream, a)
        # the driver once per distinct time grid
        b = grids.get(cfg.time_steps)
        if b is None:
            b = grids[cfg.time_steps] = eval_b_grid(
                driver, cfg.dt * np.arange(cfg.time_steps)
            )
        spec = make_spec(cfg.gamma, cfg.k)
        return _Run(run_ops, spec, a, ratio, cfg.dt, b, np.zeros(run_ops.n_dof))

    main = run(config, ops, None)
    hom = None  # homogeneous part of the final-time mode, never colored
    if per_step:
        main.per_step, main.beta = True, initial
    elif np.any(initial):
        hom = initial
    runs = [main]
    for cfg, run_ops, a in coupled:
        if cfg.initial is not None:
            raise DomainError("initial data belongs to the main run only")
        runs.append(run(cfg, run_ops, a))

    snaps = [main.beta] if stride else None
    hom_snaps = [hom] if stride and hom is not None else None
    for m0 in range(0, stream.fine_steps, BLOCK_STEPS):
        m1 = min(m0 + BLOCK_STEPS, stream.fine_steps)
        f = noise.fine_increments(stream, m0, m1, ops.mass_chol)
        states = main.take(m0, f)
        for r in runs[1:]:
            r.take(m0, f)
        for j, n in enumerate(range(m0 // main.ratio, m1 // main.ratio)):
            if hom is not None:
                hom = ops.system_solve(config.dt, ops.mass @ hom)
            if stride and (n + 1) % stride == 0:
                snaps.append(states[j].copy())  # a view would keep the block
                if hom is not None:
                    hom_snaps.append(hom)

    alpha = main.color(main.beta)
    if hom is not None:
        alpha = alpha + hom
    snapshots = None
    if stride:
        snapshots = main.color(np.array(snaps).T).T
        if hom_snaps is not None:
            snapshots = snapshots + np.array(hom_snaps)
    return PathState(
        alpha=alpha,
        n=config.time_steps,
        t=1.0,
        snapshots=snapshots,
        coupled=tuple(r.color(r.beta) for r in runs[1:]),
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
    Nonzero initial data is propagated by a separate homogeneous recursion
    so it is never colored.  Snapshots are taken as in ``evolve``.

    ``coupled`` lists further runs ``(config, ops, a)`` driven by the same
    fine increments and driver, each restricted by its own ``a`` (``None``
    on the stream's mesh); all runs advance in one sweep that draws every
    fine increment once.  Their colored final states are returned in
    ``PathState.coupled``.  Initial data and snapshots belong to the main
    run only.
    """
    return _sweep(config, stream, driver, ops, snapshot_level, coupled, per_step=False)


# SchemeConfig.mode -> the entry point that runs it
MODES = {"per_step": evolve, "final_time": evolve_fast}
