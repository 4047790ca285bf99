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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
        noise = b_n * g_n
    else:
        noise = b_n * (ops.mass @ apply_qgamma(spec, ops, g_n))
    rhs = ops.mass @ state.alpha + noise
    alpha = ops.system_solve(dt, rhs)
    return PathState(alpha=alpha, n=state.n + 1, t=state.t + dt)


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
    if stream.fine_steps % config.time_steps != 0:
        raise DomainError(
            f"time_steps {config.time_steps} does not divide reference "
            f"fine_steps {stream.fine_steps}"
        )
    if a is None:
        if stream.fine_level != config.space_level:
            raise DomainError(
                "restriction matrix required when the run level differs "
                "from the stream's fine level"
            )
        if fine_l_mass is None:
            fine_l_mass = ops.mass_chol
    elif fine_l_mass is None:
        raise DomainError("fine_l_mass required together with a restriction matrix")
    ratio = stream.fine_steps // config.time_steps
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
) -> PathState:
    """Run the scheme on raw increments and color only where states are read.

    Valid because K = M + T exactly, so the fractional-inverse quadrature
    commutes with the backward Euler propagator; the colored state at any
    step equals the quadrature applied to the raw state's load vector.
    Nonzero initial data is propagated by a separate homogeneous recursion
    so it is never colored.
    """
    ops, spec, fine_l_mass, ratio, initial = _prepare(
        config, stream, ops, spec, a, fine_l_mass
    )
    stride = _snapshot_stride(config, snapshot_level)
    dt = config.dt
    b = eval_b_grid(driver, dt * np.arange(config.time_steps))
    beta = np.zeros(ops.n_dof)
    hom = initial if np.any(initial) else None
    raw_snaps = [beta.copy()] if stride else None
    hom_snaps = [hom.copy()] if stride and hom is not None else None
    for n in range(config.time_steps):
        g = _coarse_increment(stream, n, ratio, fine_l_mass, a)
        beta = ops.system_solve(dt, ops.mass @ beta + float(b[n]) * g)
        if hom is not None:
            hom = ops.system_solve(dt, ops.mass @ hom)
        if stride and (n + 1) % stride == 0:
            raw_snaps.append(beta)
            if hom is not None:
                hom_snaps.append(hom)

    def color(raw: np.ndarray) -> np.ndarray:
        # raw states stacked as columns; one batched quadrature application
        return raw if spec.is_identity else apply_qgamma(spec, ops, ops.mass @ raw)

    alpha = color(beta)
    if hom is not None:
        alpha = alpha + hom
    snapshots = None
    if stride:
        snapshots = color(np.array(raw_snaps).T).T
        if hom_snaps is not None:
            snapshots = snapshots + np.array(hom_snaps)
    return PathState(alpha=alpha, n=config.time_steps, t=1.0, snapshots=snapshots)


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
