"""Fully discrete scheme: backward Euler + P1 FEM + fractional noise coloring.

One step advances the nodal coefficient vector alpha by

    (M + dt T) alpha^{n+1} = M alpha^n + b_n * M Q(g_n),

where ``g_n`` is the projected Wiener increment for the step (already
carrying its sqrt(dt) scaling), ``b_n`` the scalar driver sampled at the
left endpoint, and ``Q`` the fractional-inverse quadrature.

Because K = M + T here, the coloring operator commutes with the time
stepping, so a path can equivalently be run on raw increments with ``Q``
applied once to the final load representation (``evolve_fast``).  That cuts
the per-step cost from one shifted solve per quadrature node to a single
backward Euler solve.

``evolve_fast`` also advances further runs on the same noise in the same
sweep (``coupled=((config, ops, a), ...)``), as a coupled convergence study
needs: each fine increment is drawn once, every run sums the increments of
its current coarse step in fine-step order (bit-identical to
``aggregate_increment``), restricts the sum to its mesh when the coarse step
completes and takes its backward Euler step.  The driver is evaluated once
per distinct time grid.
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
from .noise import NoiseStream, aggregate_increment, restrict_increment


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one fully discrete solver run."""

    dim: int
    gamma: float
    space_level: int
    time_steps: int
    master_seed: int
    k: float = 0.5
    mode: str = "per_step"  # or "final_time" (commuting fast path)
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
        if self.mode not in ("per_step", "final_time"):
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


def step(
    state: PathState,
    ops: FemOperators,
    spec: QuadratureSpec,
    b_n: float,
    g_n: np.ndarray,
    dt: float,
) -> PathState:
    """One backward Euler step with colored noise from the load vector ``g_n``."""
    if g_n.shape[0] != ops.n_dof:
        raise DomainError(f"increment has {g_n.shape[0]} entries, mesh has {ops.n_dof}")
    if spec.is_identity:
        load = b_n * g_n
    else:
        load = b_n * (ops.mass @ apply_qgamma(spec, ops, g_n))
    rhs = ops.mass @ state.alpha + load
    alpha = ops.system_solve(dt, rhs)
    return PathState(alpha=alpha, n=state.n + 1, t=state.t + dt)


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


def _prepare(
    config: SchemeConfig,
    stream: NoiseStream,
    ops: FemOperators | None,
    spec: QuadratureSpec | None,
    a: sp.spmatrix | None,
    fine_l_mass: sp.spmatrix | None,
):
    if ops is None:
        ops = assemble(build_mesh(config.dim, config.space_level))
    if spec is None:
        spec = make_spec(config.gamma, config.k)
    ratio = _ratio(config, stream, a)
    if a is None:
        if fine_l_mass is None:
            fine_l_mass = ops.mass_chol
    elif fine_l_mass is None:
        raise DomainError("fine_l_mass required together with a restriction matrix")
    initial = (
        np.zeros(ops.n_dof)
        if config.initial is None
        else np.asarray(config.initial, dtype=float)
    )
    if initial.shape[0] != ops.n_dof:
        raise DomainError(
            f"initial data has {initial.shape[0]} entries, mesh has {ops.n_dof}"
        )
    return ops, spec, fine_l_mass, ratio, initial


def _coarse_increment(
    stream: NoiseStream,
    n: int,
    ratio: int,
    fine_l_mass: sp.spmatrix,
    a: sp.spmatrix | None,
) -> np.ndarray:
    g = aggregate_increment(stream, n, ratio, fine_l_mass)
    return g if a is None else restrict_increment(a, g)


def _snapshot_stride(config: SchemeConfig, snapshot_level: int | None) -> int | None:
    if snapshot_level is None:
        return None
    n_snap = 2**snapshot_level
    if config.time_steps % n_snap != 0:
        raise DomainError(
            f"time_steps {config.time_steps} not divisible by 2^{snapshot_level}"
        )
    return config.time_steps // n_snap


def evolve(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    a: sp.spmatrix | None = None,
    *,
    ops: FemOperators | None = None,
    spec: QuadratureSpec | None = None,
    fine_l_mass: sp.spmatrix | None = None,
    snapshot_level: int | None = None,
) -> PathState:
    """Run the scheme to t = 1, coloring the noise at every step.

    Optionally records the state at all dyadic times ``j * 2**-snapshot_level``
    (including t = 0) for trajectory regularity estimates.
    """
    ops, spec, fine_l_mass, ratio, alpha = _prepare(
        config, stream, ops, spec, a, fine_l_mass
    )
    stride = _snapshot_stride(config, snapshot_level)
    dt = config.dt
    b = eval_b_grid(driver, dt * np.arange(config.time_steps))
    state = PathState(alpha=alpha, n=0, t=0.0)
    snaps = [alpha.copy()] if stride else None
    for n in range(config.time_steps):
        g = _coarse_increment(stream, n, ratio, fine_l_mass, a)
        state = step(state, ops, spec, float(b[n]), g, dt)
        if stride and state.n % stride == 0:
            snaps.append(state.alpha)
    if stride:
        state = PathState(
            alpha=state.alpha, n=state.n, t=state.t, snapshots=np.array(snaps)
        )
    return state


@dataclass
class _Run:
    """Raw state of one run of the fast path during the sweep over fine steps."""

    ops: FemOperators
    spec: QuadratureSpec
    a: sp.spmatrix | None
    ratio: int  # fine steps per step of this run
    dt: float
    b: np.ndarray  # driver on this run's time grid
    beta: np.ndarray
    acc: np.ndarray | None = None  # fine increments of the current step so far

    def take(self, m: int, f: np.ndarray) -> None:
        """Add fine increment ``m``; step once it completes a coarse step."""
        # summed in fine-step order, bit-identical to aggregate_increment
        self.acc = f if m % self.ratio == 0 else self.acc + f
        if (m + 1) % self.ratio == 0:
            g = self.acc if self.a is None else restrict_increment(self.a, self.acc)
            n = m // self.ratio
            self.beta = self.ops.system_solve(
                self.dt, self.ops.mass @ self.beta + float(self.b[n]) * g
            )

    def color(self, raw: np.ndarray) -> np.ndarray:
        # raw states stacked as columns; one batched quadrature application
        if self.spec.is_identity:
            return raw
        return apply_qgamma(self.spec, self.ops, self.ops.mass @ raw)


def evolve_fast(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    a: sp.spmatrix | None = None,
    *,
    ops: FemOperators | None = None,
    spec: QuadratureSpec | None = None,
    fine_l_mass: sp.spmatrix | None = None,
    snapshot_level: int | None = None,
    coupled: tuple[tuple[SchemeConfig, FemOperators, sp.spmatrix | None], ...] = (),
) -> PathState:
    """Run the scheme on raw increments and color only where states are read.

    Valid because K = M + T exactly, so the fractional-inverse quadrature
    commutes with the backward Euler propagator; the colored state at any
    step equals the quadrature applied to the raw state's load vector.
    Nonzero initial data is propagated by a separate homogeneous recursion
    so it is never colored.

    ``coupled`` lists further runs ``(config, ops, a)`` driven by the same
    fine increments and driver, each restricted by its own ``a`` (``None``
    on the stream's mesh); all runs advance in one sweep that draws every
    fine increment once.  Their colored final states are returned in
    ``PathState.coupled``.  Initial data and snapshots belong to the main
    run only.
    """
    ops, spec, fine_l_mass, ratio, initial = _prepare(
        config, stream, ops, spec, a, fine_l_mass
    )
    stride = _snapshot_stride(config, snapshot_level)
    grids: dict[int, np.ndarray] = {}

    def run(cfg: SchemeConfig, run_ops, run_spec, run_a, run_ratio) -> _Run:
        # the driver once per distinct time grid
        b = grids.get(cfg.time_steps)
        if b is None:
            b = grids[cfg.time_steps] = eval_b_grid(
                driver, cfg.dt * np.arange(cfg.time_steps)
            )
        return _Run(
            run_ops, run_spec, run_a, run_ratio, cfg.dt, b, np.zeros(run_ops.n_dof)
        )

    runs = [run(config, ops, spec, a, ratio)]
    for cfg, run_ops, run_a in coupled:
        if cfg.initial is not None:
            raise DomainError("initial data belongs to the main run only")
        run_spec = make_spec(cfg.gamma, cfg.k)
        runs.append(run(cfg, run_ops, run_spec, run_a, _ratio(cfg, stream, run_a)))
    main = runs[0]

    hom = initial if np.any(initial) else None
    raw_snaps = [main.beta.copy()] if stride else None
    hom_snaps = [hom.copy()] if stride and hom is not None else None
    for m in range(stream.fine_steps):
        f = noise.fine_increment(stream, m, fine_l_mass)
        for r in runs:
            r.take(m, f)
        if (m + 1) % ratio:
            continue
        if hom is not None:
            hom = ops.system_solve(config.dt, ops.mass @ hom)
        if stride and ((m + 1) // ratio) % stride == 0:
            raw_snaps.append(main.beta)
            if hom is not None:
                hom_snaps.append(hom)

    alpha = main.color(main.beta)
    if hom is not None:
        alpha = alpha + hom
    snapshots = None
    if stride:
        snapshots = main.color(np.array(raw_snaps).T).T
        if hom_snaps is not None:
            snapshots = snapshots + np.array(hom_snaps)
    return PathState(
        alpha=alpha,
        n=config.time_steps,
        t=1.0,
        snapshots=snapshots,
        coupled=tuple(r.color(r.beta) for r in runs[1:]),
    )


def simulate_path(
    config: SchemeConfig,
    stream: NoiseStream,
    driver: ScalarDriver,
    a: sp.spmatrix | None = None,
    **kwargs,
) -> PathState:
    """Dispatch on ``config.mode`` between the per-step and fast paths."""
    if config.mode == "final_time":
        return evolve_fast(config, stream, driver, a, **kwargs)
    return evolve(config, stream, driver, a, **kwargs)
