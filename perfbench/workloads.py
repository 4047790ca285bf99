"""The four benchmark workloads: the acceptance experiments as single operations.

Each workload is a closed loop with one caller in one process: operation
``i`` runs after operation ``i - 1`` has returned, on path seed
``master_seed + i``.  Operation 0 runs cold (fresh interpreter, empty
operator caches); the rest run warm.  Every operation checks its own output
and raises ``OutputError`` when a correct realization could not have
produced it.  Rate tolerances are not checked here: at a handful of paths a
correct program misses them (criterion 02 needs 12 paths for +-0.25), so
the fitted rates are reported and the acceptance suite gates them.

Why these four (each layer does most of the work in one and little in
another):

- ``space1d`` (criterion 01): 2^14 backward Euler steps in every coarse
  run, so mesh solves, the stepper loop and the dense driver evaluation
  weigh most; keyed noise is regenerated once per level (6x per path).
- ``time1d`` (criterion 02): coarse runs take 16..512 steps but still draw
  and sum all 2^14 fine increments (7x per path), so rng and noise dominate
  and solves are few.  Against ``space1d`` it separates a noise-layer gain
  from a solver-layer gain.
- ``space2d`` (criterion 03): the banded mass Cholesky fill-in makes the
  ``L_M @ rho`` product and 2-d solves dominate, and assembly plus the
  81-node pencil factorization make its set-up the only large one.
- ``analysis`` (criteria 08 and 09): the only user of ``l0``, and the only
  heavy ``apply_qgamma`` (one batched 33 x 8193 coloring per trajectory);
  the stepper runs uncoupled (ratio 1, no restriction), so a coupling
  change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from spdelab import convergence, driver, l0, mesh, stepper
from spdelab.noise import NoiseStream


class OutputError(Exception):
    """An operation returned a value no correct realization can produce."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise OutputError(what)


def digest(values) -> str:
    """Short hash of float64 outputs in operation order.

    Reported, never gated: a change that alters realizations shows up as a
    changed digest rather than as a failed operation.
    """
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class Study:
    """Coupled convergence study; one operation is one coupled path.

    A path is the reference run plus every coarse run on the same noise
    (``convergence.path_errors``).  Paths alternate over the study's
    exponents gamma.
    """

    def __init__(self, master_seed, dim, axis, gammas, coarse, ref_level,
                 space_level, time_exp):
        self.master_seed = master_seed
        self.plans = [
            convergence.plan_study(
                stepper.SchemeConfig(
                    dim=dim, gamma=gamma, space_level=space_level,
                    time_steps=2**time_exp, master_seed=master_seed,
                    mode="final_time",
                ),
                axis, list(coarse), ref_level,
            )
            for gamma in gammas
        ]
        self.fine_steps = self.plans[0].noise_steps
        self.kinds = len(self.plans)  # operation i does the work of i + kinds
        self.errors: list[tuple[float, np.ndarray]] = []

    def run(self, i: int) -> None:
        plan = self.plans[i % len(self.plans)]
        errors = convergence.path_errors(plan, self.master_seed + i)
        _check(
            errors.shape == (len(plan.coarse),)
            and bool(np.all(np.isfinite(errors)))
            and bool(np.all(errors > 0.0)),
            f"path {i} (gamma {plan.gamma}): errors {errors!r}",
        )
        self.errors.append((plan.gamma, errors))

    def summary(self) -> dict:
        """Fitted rate per gamma over the paths run; checks that each is finite."""
        rates = {}
        for plan in self.plans:
            runs = [e for gamma, e in self.errors if gamma == plan.gamma]
            if not runs:
                continue
            mean = np.mean(runs, axis=0)
            rate = convergence.fit_rate(
                [(res, m) for (_, _, res, _), m in zip(plan.coarse, mean)]
            )
            _check(math.isfinite(rate), f"gamma {plan.gamma}: fitted rate {rate}")
            rates[str(plan.gamma)] = {"fitted": rate, "paths": len(runs)}
        return {
            "fitted_rates": rates,
            "digest": digest(e for _, e in self.errors),
        }


class Analysis:
    """Truncated BDG ratios (criterion 08) and SPDE Hölder trajectories (09).

    One operation is one Hölder trajectory; the BDG ratios are a phase of
    their own, one operation per (family, p).
    """

    GAMMA = 0.75
    kinds = 1  # every Hölder trajectory does the same work
    # the nine (family, p) calls run twice, so the BDG phase spans about
    # 10 s of a run and its throughput averages the host's drift
    BDG_ROUNDS = 2

    def __init__(self, master_seed, level, time_exp, m_min, bdg_paths, bdg_steps):
        self.master_seed = master_seed
        self.level = level
        self.time_exp = time_exp
        self.m_min = m_min
        self.bdg_paths = bdg_paths
        self.partition = np.linspace(0.0, 1.0, bdg_steps + 1)
        self.fine_steps = 2**time_exp
        self.ops = None
        self.exponents: list[float] = []
        self.ratios: list[float] = []

    def run(self, i: int) -> None:
        if self.ops is None:
            self.ops = mesh.assemble(mesh.build_mesh(1, self.level))
        seed = self.master_seed + i
        cfg = stepper.SchemeConfig(
            dim=1, gamma=self.GAMMA, space_level=self.level,
            time_steps=self.fine_steps, master_seed=seed, mode="final_time",
        )
        stream = NoiseStream(seed=seed, fine_level=self.level, fine_steps=self.fine_steps)
        state = stepper.evolve_fast(
            cfg, stream, driver.sample_driver(seed), ops=self.ops,
            snapshot_level=self.time_exp,
        )
        est = l0.holder_exponent(state.snapshots, self.m_min, norm=self.ops.m_norm)
        _check(
            not est.degenerate and math.isfinite(est.exponent),
            f"trajectory {i}: exponent {est.exponent}, degenerate {est.degenerate}",
        )
        self.exponents.append(est.exponent)

    def bdg_cases(self) -> list[tuple[str, float]]:
        cases = [(family, p) for family in l0.FAMILIES for p in (1.0, 2.0, 4.0)]
        return cases * self.BDG_ROUNDS

    def bdg(self, family: str, p: float) -> None:
        phi = l0.ElementaryIntegrand(dim_q=1, partition=self.partition, family=family)
        ratio = l0.bdg_ratio(phi, p, self.bdg_paths, seed=self.master_seed)
        _check(math.isfinite(ratio) and ratio >= 0.0, f"{family}, p={p}: ratio {ratio}")
        self.ratios.append(ratio)

    def summary(self) -> dict:
        return {
            "holder_exponents": self.exponents,
            "bdg_ratios": self.ratios,
            "digest": digest([self.exponents, self.ratios]),
        }


@dataclass(frozen=True)
class Spec:
    build: type
    # measurement seconds budgeted per warm operation: a run makes
    # round(--seconds / budget_s) warm operations, so two commits measured
    # with one setting run the same paths
    budget_s: float
    full: dict
    smoke: dict


WORKLOADS = {
    "space1d": Spec(
        Study, 10.0,
        full=dict(dim=1, axis="space", gammas=(0.25, 0.75), coarse=(2, 3, 4, 5, 6),
                  ref_level=9, space_level=9, time_exp=14),
        smoke=dict(dim=1, axis="space", gammas=(0.25, 0.75), coarse=(2, 3, 4),
                   ref_level=5, space_level=5, time_exp=6),
    ),
    "time1d": Spec(
        Study, 10.0,
        full=dict(dim=1, axis="time", gammas=(0.25, 0.75), coarse=(4, 5, 6, 7, 8, 9),
                  ref_level=14, space_level=9, time_exp=14),
        smoke=dict(dim=1, axis="time", gammas=(0.25, 0.75), coarse=(2, 3, 4),
                   ref_level=6, space_level=4, time_exp=6),
    ),
    "space2d": Spec(
        Study, 20.0,
        full=dict(dim=2, axis="space", gammas=(0.5,), coarse=(2, 3, 4),
                  ref_level=6, space_level=6, time_exp=12),
        smoke=dict(dim=2, axis="space", gammas=(0.5,), coarse=(1, 2, 3),
                   ref_level=4, space_level=4, time_exp=5),
    ),
    "analysis": Spec(
        Analysis, 3.3,
        full=dict(level=5, time_exp=13, m_min=6, bdg_paths=100_000, bdg_steps=64),
        smoke=dict(level=3, time_exp=6, m_min=2, bdg_paths=1000, bdg_steps=8),
    ),
}
