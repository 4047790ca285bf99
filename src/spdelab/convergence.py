"""Coupled coarse-vs-reference error studies and rate extraction.

A study fixes a reference resolution, simulates each path once at the
reference and once per coarse level on the *same* driving noise, drawn on
the reference's mesh and time grid (``stepper.path_inputs``) and summed and
restricted to every coarse run, and measures the relative error at t = 1 in
the reference mass norm.  One path is one sweep (``stepper._sweep``) of the
reference with every coarse run ``coupled``, so each fine increment is drawn
and the driver evaluated once; as K = M + T, its raw states serve every gamma,
each coloring copies of them.  Every run starts from u(0) = 0.  Rates are
least-squares slopes in log2-log2 coordinates of the mean error against the
resolution.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .exceptions import DomainError
from .mesh import MAX_PATHS, SOLVER_TOL, assemble, build_mesh
# unused, but perfbench/tracing.py wraps the restriction under this name
from .mesh import restriction_matrix  # noqa: F401
from .rng import path_keys
from .stepper import SchemeConfig, _color, _sweep, checked_ops, path_inputs
# unused, but perfbench/tracing.py wraps the final-time run under this name
from .stepper import evolve_fast  # noqa: F401

#: Mean errors below this are attributed to solver tolerance, not discretization.
SATURATION_FLOOR = 10.0 * SOLVER_TOL


def relative_error(
    alpha_coarse: np.ndarray,
    alpha_ref: np.ndarray,
    a: sp.spmatrix | None,
    m_ref: sp.spmatrix,
) -> float:
    """Relative pathwise error of a coarse run against the reference run.

    The coarse coefficients are prolonged to the reference mesh with the
    transpose of the restriction matrix; the quotient is measured in the
    reference mass norm.  ``a = None`` means both runs share the mesh.
    """
    diff = (alpha_coarse if a is None else a.T @ alpha_coarse) - alpha_ref
    denom = float(alpha_ref @ (m_ref @ alpha_ref))
    if denom <= 0.0:
        raise DomainError("reference solution has zero mass norm")
    return float(math.sqrt(float(diff @ (m_ref @ diff)) / denom))


def theoretical_rates(gamma: float, dim: int) -> tuple[float, float]:
    """Theoretical (space, time) convergence rates for the scheme.

    The spatial rate is the supremum of admissible error exponents,
    min(2, 2 gamma + 1 - dim/2); the temporal rate is half of that.
    """
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    if not gamma > dim / 4.0 - 0.5:
        raise DomainError(f"gamma {gamma} not admissible for dim {dim}")
    space_rate = min(2.0, 2.0 * gamma + 1.0 - dim / 2.0)
    return space_rate, space_rate / 2.0


def fit_rate(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log2(error) against log2(resolution)."""
    if len(points) < 3:
        raise DomainError(f"rate fit needs >= 3 points, got {len(points)}")
    res = np.array([p[0] for p in points], dtype=float)
    err = np.array([p[1] for p in points], dtype=float)
    if np.any(res <= 0.0) or np.any(err <= 0.0):
        raise DomainError("rate fit needs positive resolutions and errors")
    slope, _ = np.polyfit(np.log2(res), np.log2(err), 1)
    return float(slope)


@dataclass(frozen=True)
class StudyPlan:
    """Picklable description of one convergence study."""

    axis: str  # "space" or "time"
    # the reference run; each coarse run is this run at its own resolution
    ref: SchemeConfig
    # one (space_level, time_steps, resolution, label) per coarse run
    coarse: tuple[tuple[int, int, float, int], ...]

    # copies of fields of ref, read only by perfbench/workloads.py
    @property
    def gamma(self) -> float:
        return self.ref.gamma

    @property
    def noise_steps(self) -> int:
        return self.ref.time_steps


@dataclass(frozen=True)
class LevelResult:
    resolution: float
    errors: tuple[float, ...]  # one per path, in seed order
    mean_error: float
    saturated: bool


@dataclass(frozen=True)
class ConvergenceReport:
    plan: StudyPlan
    levels: tuple[LevelResult, ...]  # in the order of plan.coarse
    fitted_rate: float | None
    theoretical_rate: float
    seeds: tuple[int, ...]


def plan_study(
    base: SchemeConfig,
    axis: str,
    coarse_levels: list[int],
    ref_level: int,
) -> StudyPlan:
    """Resolve a study request into explicit per-run resolutions.

    For ``axis="space"`` the coarse entries are mesh levels sharing the time
    grid of ``base``; ``ref_level`` is the reference mesh level.  For
    ``axis="time"`` the coarse entries and ``ref_level`` are dyadic time
    exponents (time step 2**-level) at the fixed mesh level of ``base``.
    Every run is ``base`` in final-time mode at its own resolution; the
    mesh level guard is checked here, the shared quadrature by ``base``.
    """
    if axis not in ("space", "time"):
        raise DomainError(f"axis must be 'space' or 'time', got {axis!r}")
    if not coarse_levels:
        raise DomainError("no coarse levels given")
    if not all(0 <= lv <= ref_level for lv in coarse_levels):
        raise DomainError(f"coarse levels must lie in [0, ref_level {ref_level}]")
    if any(lo >= hi for lo, hi in zip(coarse_levels, coarse_levels[1:])):
        raise DomainError("coarse levels must increase strictly, coarse to fine")

    if axis == "space":
        ref_space, ref_steps = ref_level, base.time_steps
        coarse = tuple(
            (lv, base.time_steps, build_mesh(base.dim, lv).h, lv)
            for lv in coarse_levels
        )
    else:
        ref_space, ref_steps = base.space_level, 2**ref_level
        coarse = tuple(
            (base.space_level, 2**lv, 2.0**-lv, lv) for lv in coarse_levels
        )
    ref = replace(base, space_level=ref_space, time_steps=ref_steps, mode="final_time")
    build_mesh(ref.dim, ref.space_level)  # the level guard of the finest mesh
    return StudyPlan(axis=axis, ref=ref, coarse=coarse)


# Per-process cache of the reference operators, which keep each coarser level's
# operators and restriction; worker processes build each level only once.
@functools.cache
def _cached_ops(dim: int, level: int):
    return assemble(build_mesh(dim, level))


def _one_sweep(plans: tuple[StudyPlan, ...]) -> StudyPlan:
    """The first of ``plans``; one sweep serves them if they differ only in gamma, k."""
    if len({(p.axis, p.coarse, replace(p.ref, gamma=1.0, k=1.0)) for p in plans}) != 1:
        raise DomainError("a sweep needs plans, differing only in ref.gamma and ref.k")
    return plans[0]


def _seed_errors(plans: tuple[StudyPlan, ...], seed: int) -> np.ndarray:
    """Relative errors of every coarse run of one path against its reference,
    ``(len(plans), n_levels)``: one raw ``_sweep`` advances every run, each on
    the cached reference operators' ``coarse`` level, and each plan colors
    copies of their final states."""
    ref = _one_sweep(plans).ref
    ref_ops = _cached_ops(ref.dim, ref.space_level)
    for plan in plans:  # every guard of its run, before the sweep
        checked_ops(plan.ref, ops=ref_ops)
    coupled = tuple(replace(ref, space_level=space_level, time_steps=time_steps)
                    for space_level, time_steps, _res, _label in plans[0].coarse)
    raw = _sweep(ref, *path_inputs(ref, seed), ref_ops, None, coupled)
    runs = [ref_ops.coarse(c.space_level) for c in (ref, *coupled)]  # (ops, a) each
    rows = []
    for plan in plans:  # the raw states are shared: color copies
        alpha, *states = finals = [x.copy() for x in (raw.alpha, *raw.coupled)]
        for (ops, _a), x in zip(runs, finals):
            _color(plan.ref, ops, x)
        rows.append([relative_error(x, alpha, a, ref_ops.mass)
                     for x, (_ops, a) in zip(states, runs[1:])])
    return np.array(rows)


def path_errors(plan: StudyPlan, seed: int) -> np.ndarray:
    """Relative errors of every coarse run of one path of ``plan``."""
    return _seed_errors((plan,), seed)[0]


def convergence_study(
    plans: tuple[StudyPlan, ...], n_paths: int, n_workers: int = 1
) -> list[ConvergenceReport]:
    """Run the coupled convergence study of each of ``plans`` on one sweep per
    path (``_seed_errors``) and fit its empirical rate; one report per plan.

    Path seeds are ``rng.path_keys(ref.master_seed, n_paths)``, refused
    before the first path if any leaves [0, 2^64); results are reduced in
    seed order, so reruns with the same master seed are bit-identical.
    Levels whose mean error sits at the solver-tolerance floor are flagged as
    saturated and excluded from the fit.
    """
    if not 1 <= n_paths <= MAX_PATHS or n_workers < 1:
        raise DomainError(f"n_paths {n_paths} not in [1, {MAX_PATHS}] or n_workers {n_workers} < 1")
    seeds = tuple(path_keys(_one_sweep(plans).ref.master_seed, n_paths))

    # a fork pool starts all its workers at once on the CPUs this process may run
    # on, and a large sweep in a worker forks a draw child; outputs depend on neither
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_workers, n_paths, cpus or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_seed_errors, [plans] * n_paths, seeds))
    else:
        per_seed = [_seed_errors(plans, s) for s in seeds]

    reports = []
    for i, plan in enumerate(plans):
        errors = np.array([rows[i] for rows in per_seed])  # (n_paths, n_levels)
        levels = []
        for (_sl, _ts, resolution, _label), per_level in zip(plan.coarse, errors.T):
            mean = float(per_level.mean())
            levels.append(LevelResult(resolution, tuple(per_level.tolist()), mean,
                                      saturated=mean < SATURATION_FLOOR))
        usable = [(lv.resolution, lv.mean_error) for lv in levels if not lv.saturated]
        rates = theoretical_rates(plan.ref.gamma, plan.ref.dim)  # (space, time)
        reports.append(ConvergenceReport(
            plan, tuple(levels), fit_rate(usable) if len(usable) >= 3 else None,
            rates[0 if plan.axis == "space" else 1], seeds))
    return reports
