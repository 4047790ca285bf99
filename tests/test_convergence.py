import collections
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from spdelab import convergence, noise, stepper
from spdelab.convergence import (
    ConvergenceReport,
    convergence_study,
    fit_rate,
    path_errors,
    plan_study,
    relative_error,
    theoretical_rates,
)
from spdelab.exceptions import DomainError
from spdelab.driver import eval_b_grid, sample_driver
from spdelab.fracpow import apply_qgamma, make_spec
from spdelab.mesh import MAX_PATHS, FemOperators, assemble, build_mesh, restriction_matrix
from spdelab.noise import NoiseStream, aggregate_increment, restrict_increment
from spdelab.rng import keyed_normal_rows
from spdelab.stepper import SchemeConfig


class TestRelativeError:
    def test_equal_fields_give_zero(self):
        coarse, fine = build_mesh(1, 1), build_mesh(1, 2)
        a = restriction_matrix(coarse, fine)
        m_ref = assemble(fine).mass
        # an affine function is exactly representable on both levels
        alpha_c = 1.0 + coarse.vertices.sum(axis=1)
        alpha_f = 1.0 + fine.vertices.sum(axis=1)
        assert relative_error(alpha_c, alpha_f, a, m_ref) <= 1e-14

    def test_zero_against_reference_is_one(self):
        fine = build_mesh(1, 2)
        m_ref = assemble(fine).mass
        ref = np.sin(1.0 + np.arange(fine.n_vertices, dtype=float))
        got = relative_error(np.zeros_like(ref), ref, None, m_ref)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_dense_oracle_level_1_vs_2(self):
        # 3-vector against 5-vector case, fully dense arithmetic
        coarse, fine = build_mesh(1, 1), build_mesh(1, 2)
        a = restriction_matrix(coarse, fine)
        ops_f = assemble(fine)
        alpha = np.array([1.0, -2.0, 0.5])
        ref = np.array([0.9, -0.3, -1.8, -0.6, 0.4])
        diff = a.T.toarray() @ alpha - ref
        m = ops_f.mass.toarray()
        expected = np.sqrt((diff @ m @ diff) / (ref @ m @ ref))
        got = relative_error(alpha, ref, a, ops_f.mass)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_degenerate_reference(self):
        m_ref = assemble(build_mesh(1, 1)).mass
        with pytest.raises(DomainError, match="zero mass norm"):
            relative_error(np.ones(3), np.zeros(3), None, m_ref)


class TestTheoreticalRates:
    @pytest.mark.parametrize(
        "gamma,dim,space,time",
        [
            (0.75, 1, 2.0, 1.0),
            (0.5, 2, 1.0, 0.5),
            (0.25, 1, 1.0, 0.5),
            (0.0, 1, 0.5, 0.25),
            (1.0, 2, 2.0, 1.0),
        ],
    )
    def test_fig1_rate_ladder(self, gamma, dim, space, time):
        got_space, got_time = theoretical_rates(gamma, dim)
        assert got_space == pytest.approx(space)
        assert got_time == pytest.approx(time)

    def test_inadmissible_gamma(self):
        with pytest.raises(DomainError):
            theoretical_rates(0.0, 2)

    def test_rejects_dim_3(self):
        with pytest.raises(DomainError, match="dim must be 1 or 2, got 3"):
            theoretical_rates(0.75, 3)


class TestFitRate:
    def test_exact_slope_one(self):
        assert fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)]) == pytest.approx(1.0)

    def test_exact_slope_two(self):
        assert fit_rate([(1.0, 1.0), (0.5, 0.25), (0.25, 1.0 / 16.0)]) == pytest.approx(2.0)

    def test_synthetic_dyadic_decay(self):
        points = [(2.0**-lv, 2.0 ** (-2 * lv)) for lv in range(2, 7)]
        assert fit_rate(points) == pytest.approx(2.0, abs=1e-12)

    def test_noisy_slope(self):
        rng = np.random.default_rng(12)
        points = [
            (2.0**-lv, 2.0 ** (-1.5 * lv) * (1.0 + 0.05 * rng.standard_normal()))
            for lv in range(1, 7)
        ]
        assert 1.4 <= fit_rate(points) <= 1.6

    def test_requires_three_points(self):
        with pytest.raises(DomainError, match="needs >= 3 points"):
            fit_rate([(1.0, 1.0), (0.5, 0.5)])

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            fit_rate([(1.0, 1.0), (0.5, 0.0), (0.25, 0.1)])


class TestPlanStudy:
    def test_space_plan(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=5, time_steps=64, master_seed=0
        )
        plan = plan_study(base, "space", [2, 3], 5)
        assert plan.ref.space_level == 5
        assert plan.ref.time_steps == 64
        assert plan.ref.mode == "final_time"
        assert plan.coarse[0][:2] == (2, 64)
        assert plan.coarse[0][2] == pytest.approx(0.25)

    def test_time_plan(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=256, master_seed=0
        )
        plan = plan_study(base, "time", [3, 4, 5], 8)
        assert (plan.ref.space_level, plan.ref.time_steps) == (4, 256)
        assert plan.coarse[1][:3] == (4, 16, 0.0625)

    def test_rejects_finer_than_reference(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=16, master_seed=0
        )
        with pytest.raises(DomainError):
            plan_study(base, "space", [3, 5], 4)
        with pytest.raises(DomainError):
            plan_study(base, "space", [], 4)

    def test_rejects_an_unknown_axis(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=16, master_seed=0
        )
        with pytest.raises(DomainError, match="axis must be 'space' or 'time', got 'mesh'"):
            plan_study(base, "mesh", [2, 3], 4)

    @pytest.mark.parametrize("coarse", [[2, 2, 3], [3, 2, 4]])
    def test_levels_must_increase_strictly(self, coarse):
        # a repeated level would weigh one resolution twice in the rate fit
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=16, master_seed=0
        )
        with pytest.raises(DomainError, match="increase strictly"):
            plan_study(base, "space", coarse, 4)


@pytest.fixture(scope="module")
def small_space_report() -> ConvergenceReport:
    base = SchemeConfig(
        dim=1, gamma=0.75, space_level=6, time_steps=2**8,
        master_seed=424242, mode="final_time",
    )
    [report] = convergence_study([plan_study(base, "space", [2, 3, 4], 6)], 2)
    return report


class TestConvergenceStudy:

    def test_errors_positive_and_complete(self, small_space_report):
        rep = small_space_report
        assert len(rep.levels) == 3
        assert all(e > 0.0 for lv in rep.levels for e in lv.errors)
        assert len(rep.seeds) == 2
        assert rep.seeds == (424242, 424243)

    def test_monotone_mean_errors(self, small_space_report):
        means = [lv.mean_error for lv in small_space_report.levels]
        drops = sum(a > b for a, b in zip(means, means[1:]))
        assert drops >= len(means) - 2  # at most one Monte Carlo inversion

    def test_reference_level_is_saturated_and_excluded(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=5, time_steps=2**6,
            master_seed=11, mode="final_time",
        )
        [rep] = convergence_study([plan_study(base, "space", [2, 3, 4, 5], 5)], 1)
        assert rep.levels[-1].saturated
        assert rep.levels[-1].mean_error <= 1e-9
        assert rep.fitted_rate is not None  # fit used the three coarse levels

    def test_coupling_sanity(self):
        # doubling only the reference time resolution, on the same driving
        # noise, moves coarse errors by less than the errors themselves; both
        # references and the coarse runs advance on one stream of 2^9 steps
        ref = SchemeConfig(
            dim=1, gamma=0.5, space_level=5, time_steps=2**9,
            master_seed=5, mode="final_time",
        )
        coarse = [replace(ref, time_steps=2**exp) for exp in (2, 3, 4)]
        ops = assemble(build_mesh(1, 5))
        raw = stepper._sweep(
            ref, *stepper.path_inputs(ref, 5), ops, None,
            (replace(ref, time_steps=2**8), *coarse),
        )
        full, half, *runs = (raw.alpha, *raw.coupled)
        for x in (full, half, *runs):  # every run on the reference mesh
            stepper._color(ref, ops, x)
        errs = {
            exp: np.array([relative_error(a, alpha, None, ops.mass) for a in runs])
            for exp, alpha in ((8, half), (9, full))
        }
        assert np.all(np.abs(errs[9] - errs[8]) < errs[8])

    def test_deterministic_rerun(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=5, time_steps=2**6,
            master_seed=77, mode="final_time",
        )
        a = convergence_study([plan_study(base, "space", [2, 3], 5)], 2)
        b = convergence_study([plan_study(base, "space", [2, 3], 5)], 2)
        assert a == b

    def test_error_rows_shape(self, small_space_report):
        rep = small_space_report
        rows = [
            (lv.resolution, seed, err)
            for lv in rep.levels for seed, err in zip(rep.seeds, lv.errors)
        ]
        assert len(rows) == 6  # one per run: levels x paths
        assert rep.plan.axis == "space" and rep.plan.ref.gamma == 0.75
        resolution, seed, err = rows[0]
        assert resolution == pytest.approx(0.25)
        assert seed == 424242

    def test_two_gammas_factor_each_shift_once_per_level(self, monkeypatch):
        # at k 0.5, gamma 0.25 and 0.75 have 107 quadrature nodes each and
        # 55 in common: 159 pencil factors per 2-d level, not 214, and one
        # factor of the backward Euler stack of levels 4, 2 and 3
        convergence._cached_ops.cache_clear()
        sizes = []
        factor = FemOperators.factor
        monkeypatch.setattr(
            FemOperators, "factor",
            lambda self, a, **options: sizes.append(a.shape[0])
            or factor(self, a, **options),
        )
        base = SchemeConfig(
            dim=2, gamma=0.25, space_level=4, time_steps=2**4,
            master_seed=3, mode="final_time",
        )
        convergence_study(
            [plan_study(replace(base, gamma=g), "space", [2, 3], 4) for g in (0.25, 0.75)], 1
        )
        assert collections.Counter(sizes) == {25: 159, 81: 159, 289: 159, 395: 1}

    def test_worker_pool_matches_serial(self):
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=2**5,
            master_seed=31, mode="final_time",
        )
        plans = [plan_study(replace(base, gamma=g), "space", [2, 3], 4) for g in (0.5, 1.0)]
        serial = convergence_study(plans, 2, n_workers=1)
        parallel = convergence_study(plans, 2, n_workers=2)
        assert serial == parallel

    @pytest.mark.parametrize(
        "n_workers, n_paths, cpus, pool_size",
        [(1_000_000, 2, 8, 2), (1_000_000, 5, 3, 3), (4, 5, 8, 4), (8, 3, None, None)],
    )
    def test_worker_pool_is_bounded_by_paths_and_cpus(
        self, monkeypatch, n_workers, n_paths, cpus, pool_size
    ):
        # a fork pool starts every worker at the first submit; this one
        # records its size, starts no process and maps in this one.  ``cpus``
        # is the size of this process's CPU affinity, on a host of 64 CPUs;
        # None: neither the affinity nor the host's count is known
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(convergence, "ProcessPoolExecutor", RecordingPool)
        if cpus is None:
            monkeypatch.delattr("os.sched_getaffinity", raising=False)
            monkeypatch.setattr("os.cpu_count", lambda: None)
        else:
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr("os.cpu_count", lambda: 64)
        base = SchemeConfig(
            dim=1, gamma=0.5, space_level=4, time_steps=2**4,
            master_seed=5, mode="final_time",
        )
        plans = [plan_study(base, "space", [2, 3], 4)]
        reports = convergence_study(plans, n_paths, n_workers=n_workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert reports == convergence_study(plans, n_paths)


# name -> (dim, axis, coarse levels, ref level, space level, time steps) and
# the (gamma, k) of each plan of one study, gamma 0 and 1 included where
# admissible (gamma 0 is not in 2-d)
MULTI_GAMMA_STUDIES = {
    "space1d": ((1, "space", [2, 3, 4], 5, 5, 2**5),
                ((0.0, 0.5), (0.25, 0.5), (0.75, 1.0), (1.0, 0.5))),
    "time1d": ((1, "time", [2, 3, 4], 6, 4, 2**6), ((1.0, 1.0), (0.5, 0.5), (0.0, 0.5))),
    "space2d": ((2, "space", [1, 2, 3], 3, 3, 2**4), ((0.25, 0.5), (1.0, 0.5), (0.5, 1.0))),
}


def _multi_gamma_plans(name):
    (dim, axis, coarse, ref, space_level, time_steps), specs = MULTI_GAMMA_STUDIES[name]
    return [
        plan_study(
            SchemeConfig(dim=dim, gamma=gamma, space_level=space_level,
                         time_steps=time_steps, master_seed=40, k=k,
                         mode="final_time", n_modes=100),
            axis, coarse, ref,
        )
        for gamma, k in specs
    ]


@pytest.mark.parametrize("name", sorted(MULTI_GAMMA_STUDIES))
def test_a_multi_gamma_study_equals_per_gamma_path_errors(name):
    plans = _multi_gamma_plans(name)
    reports = convergence_study(plans, 2)
    assert [rep.plan for rep in reports] == plans  # one report per plan, in order
    for plan, rep in zip(plans, reports):
        assert rep.seeds == (40, 41)
        per_path = np.array([path_errors(plan, seed) for seed in rep.seeds])
        np.testing.assert_array_equal([lv.errors for lv in rep.levels], per_path.T)
        assert rep == convergence_study([plan], 2)[0]


def test_a_two_gamma_study_sweeps_each_path_once(monkeypatch):
    seeds = []  # the noise seed of every sweep
    sweep = convergence._sweep

    def counting(config, stream, *args):
        seeds.append(stream.seed)
        return sweep(config, stream, *args)

    monkeypatch.setattr(convergence, "_sweep", counting)
    reports = convergence_study(_multi_gamma_plans("space1d")[1:3], 3)
    assert len(reports) == 2
    assert seeds == [40, 41, 42]


def _one_gamma_plan(**changes):
    base = SchemeConfig(dim=1, gamma=0.5, space_level=4, time_steps=2**4,
                        master_seed=0, mode="final_time")
    axis, coarse = changes.pop("axis", "space"), changes.pop("coarse", [2, 3])
    return plan_study(replace(base, **changes), axis, coarse, 4)


# name -> plans that no one sweep serves
NOT_ONE_SWEEP = {
    "none": [],
    "coarse levels": [_one_gamma_plan(), _one_gamma_plan(gamma=0.25, coarse=[2, 4])],
    "master seed": [_one_gamma_plan(), _one_gamma_plan(gamma=0.25, master_seed=1)],
    "axis": [_one_gamma_plan(), _one_gamma_plan(gamma=0.25, axis="time")],
}


@pytest.mark.parametrize("name", sorted(NOT_ONE_SWEEP))
def test_a_study_takes_plans_that_differ_only_in_gamma_and_k(name, monkeypatch):
    monkeypatch.setattr(convergence, "_sweep", None)  # raises before any sweep
    plans = NOT_ONE_SWEEP[name]
    for run in (lambda: convergence_study(plans, 2),
                lambda: convergence._seed_errors(tuple(plans), 0)):
        with pytest.raises(DomainError, match="differing only in ref.gamma and ref.k"):
            run()


def test_path_errors_shares_noise_across_levels():
    # with the coarse level equal to the reference, the coupled run must
    # reproduce the reference path exactly up to solver roundoff
    base = SchemeConfig(
        dim=1, gamma=0.25, space_level=4, time_steps=2**5,
        master_seed=3, mode="final_time",
    )
    plan = plan_study(base, "space", [3, 4], 4)
    errs = path_errors(plan, 3)
    assert errs[1] <= 1e-12
    assert errs[0] > 1e-6


def _per_level_path_errors(plan, seed, noise_steps):
    """Reference for ``path_errors`` on a stream of ``noise_steps`` fine steps:
    every level run on its own.

    Each run builds its coarse increments with ``aggregate_increment`` and
    ``restrict_increment`` and colors its final raw state, as ``evolve_fast``
    did before runs were coupled into one sweep.
    """
    ref_mesh = build_mesh(plan.ref.dim, plan.ref.space_level)
    ref_ops = assemble(ref_mesh)
    spec = make_spec(plan.ref.gamma, plan.ref.k)
    drv = sample_driver(seed, plan.ref.n_modes)
    stream = NoiseStream(
        seed=seed, fine_level=plan.ref.space_level, fine_steps=noise_steps
    )
    fine_b = eval_b_grid(drv, noise_steps)

    def final_state(time_steps, ops, a):
        ratio = noise_steps // time_steps
        dt = 1.0 / time_steps
        b = fine_b[:-1:ratio]  # every run takes the driver on the noise's grid
        beta = np.zeros(ops.n_dof)
        for n in range(time_steps):
            g = aggregate_increment(stream, n, ratio, ref_ops.mass_chol)
            if a is not None:
                g = restrict_increment(a, g)
            beta = ops.system_solve(dt, ops.mass @ beta + float(b[n]) * g)
        if spec.is_identity:
            return beta
        return apply_qgamma(spec, ops, ops.mass @ beta)

    ref = final_state(plan.ref.time_steps, ref_ops, None)
    errors = []
    for space_level, time_steps, _res, _label in plan.coarse:
        if space_level == plan.ref.space_level:
            ops, a = ref_ops, None
        else:
            mesh = build_mesh(plan.ref.dim, space_level)
            ops, a = assemble(mesh), restriction_matrix(mesh, ref_mesh)
        alpha = final_state(time_steps, ops, a)
        errors.append(relative_error(alpha, ref, a, ref_ops.mass))
    return np.array(errors)


def _sweep_plan(dim, axis, coarse, ref, space_level, time_steps, gamma):
    base = SchemeConfig(
        dim=dim, gamma=gamma, space_level=space_level, time_steps=time_steps,
        master_seed=0, mode="final_time", n_modes=100,
    )
    return plan_study(base, axis, coarse, ref)


def _sweep_cases(table):
    return [
        (name, gamma)
        for name in sorted(table)
        for gamma in (0.0, 0.5, 1.0)
        if not (table[name][0] == 2 and gamma == 0.0)  # inadmissible in 2-d
    ]


# name -> (dim, axis, coarse levels, ref level, space level, time steps); the
# noise runs on the reference's grid; the space lists end at the reference
# level, a run on the noise's own mesh (no restriction)
SWEEP_STUDIES = {
    "space1d": (1, "space", [2, 3, 5], 5, 5, 2**5),
    "time1d": (1, "time", [2, 3, 4], 5, 4, 2**5),
    "space2d": (2, "space", [1, 2, 3], 3, 3, 2**4),
    # ratios 32, 16 and 8: a step of the coarsest run spans two blocks of
    # the sweep, so its partial sum is carried from one block to the next
    "time1d_long_steps": (1, "time", [2, 3, 4], 7, 4, 2**7),
    # 24 steps, so the last block of the sweep is short
    "space1d_short_blocks": (1, "space", [2, 3, 4], 4, 4, 24),
    # mixed groups: the coupled run on the reference grid stacks with it,
    # the two coarser ones advance alone
    "time1d_mixed_groups": (1, "time", [3, 4, 5], 5, 4, 2**5),
}


@pytest.mark.parametrize("name,gamma", _sweep_cases(SWEEP_STUDIES))
@pytest.mark.usefixtures("blocks_of_16")
def test_one_sweep_matches_per_level_runs(name, gamma):
    plan = _sweep_plan(*SWEEP_STUDIES[name], gamma)
    for seed in (17, 18):
        np.testing.assert_array_equal(
            path_errors(plan, seed),
            _per_level_path_errors(plan, seed, plan.ref.time_steps),
        )


# name -> a study laid out as in SWEEP_STUDIES and the fine steps of a stream
# finer than its reference, which evolve_fast accepts: the reference sums its
# noise too
FINER_STREAMS = {
    "time1d": (1, "time", [2, 3, 4], 5, 4, 2**5, 2**6),
    # every run both sums and restricts
    "space2d": (2, "space", [1, 2, 3], 3, 3, 2**4, 2**5),
    # ratio 3, so the step of fine steps 15-17 straddles the first block edge
    "space1d_ratio_3": (1, "space", [2, 3, 4], 4, 4, 8, 24),
}


@pytest.mark.parametrize("name,gamma", _sweep_cases(FINER_STREAMS))
@pytest.mark.usefixtures("blocks_of_16")
def test_sweep_on_a_finer_stream_matches_per_level_runs(name, gamma):
    *study, noise_steps = FINER_STREAMS[name]
    plan = _sweep_plan(*study, gamma)
    for seed in (17, 18):
        (fine, ref), *runs = _final_states(plan, seed, noise_steps)
        swept = [
            relative_error(alpha, ref, fine.coarse(ops.mesh.level)[1], fine.mass)
            for ops, alpha in runs
        ]
        np.testing.assert_array_equal(
            swept, _per_level_path_errors(plan, seed, noise_steps)
        )


@pytest.mark.usefixtures("draws_on_the_caller")
def test_path_draws_each_fine_increment_once(monkeypatch):
    draws = []  # the key block (fine step) of every row drawn

    def counting(seed, tag, start, stop, n):
        draws.extend(range(start, stop))
        return keyed_normal_rows(seed, tag, start, stop, n)

    monkeypatch.setattr(noise, "keyed_normal_rows", counting)
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=3, time_steps=2**5, master_seed=0,
        mode="final_time", n_modes=50,
    )
    plan = plan_study(base, "time", [2, 3, 4], 6)
    path_errors(plan, 9)
    assert sorted(draws) == list(range(2**6))


def test_path_evaluates_the_driver_once(monkeypatch):
    # a time study of 7 time grids evaluates b once, on the noise's grid
    calls = []

    def counting(driver, steps):
        calls.append(steps)
        return eval_b_grid(driver, steps)

    monkeypatch.setattr(stepper, "eval_b_grid", counting)
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=3, time_steps=2**7, master_seed=0,
        mode="final_time", n_modes=50,
    )
    plan = plan_study(base, "time", [1, 2, 3, 4, 5, 6], 7)
    path_errors(plan, 9)
    path_errors(plan, 10)
    assert calls == [2**7] * 2


def test_paths_of_a_plan_assemble_each_level_once(monkeypatch):
    # the cached reference operators build each coarser level and its
    # restriction on the first path and keep them for the next
    convergence._cached_ops.cache_clear()
    levels = []

    def counting(dyadic):
        levels.append(dyadic.level)
        return assemble(dyadic)

    monkeypatch.setattr(convergence, "assemble", counting)
    monkeypatch.setattr("spdelab.mesh.assemble", counting)
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=4, time_steps=2**4, master_seed=0,
        mode="final_time", n_modes=50,
    )
    plan = plan_study(base, "space", [2, 3], 4)
    path_errors(plan, 11)
    path_errors(plan, 12)
    assert collections.Counter(levels) == {4: 1, 2: 1, 3: 1}


def _final_states(plan, seed, noise_steps):
    """(operators, colored final state) of the reference and of every coupled
    run of one path on a stream of ``noise_steps`` fine steps, on operators
    assembled afresh: one raw sweep, each final state colored on its own
    level's operators."""
    ref = plan.ref
    fine = assemble(build_mesh(ref.dim, ref.space_level))
    coupled = tuple(
        replace(ref, space_level=lv, time_steps=steps)
        for lv, steps, _res, _label in plan.coarse
    )
    stream = NoiseStream(seed=seed, fine_level=ref.space_level, fine_steps=noise_steps)
    drv = sample_driver(seed, ref.n_modes)
    raw = stepper._sweep(ref, stream, drv, fine, None, coupled)
    runs = [(fine, raw.alpha),
            *zip((fine.coarse(c.space_level)[0] for c in coupled), raw.coupled)]
    for ops, alpha in runs:
        stepper._color(ref, ops, alpha)
    return runs


# axis -> (coarse levels, reference level) of a level-9 path of 2^12 fine steps
SUPERLU_PATHS = {"space": ([2, 3, 4, 5, 6], 9), "time": ([4, 5, 6, 7, 8, 9], 12)}


@pytest.mark.parametrize("axis", sorted(SUPERLU_PATHS))
def test_1d_paths_match_a_superlu_reference(monkeypatch, axis):
    # every 1-d system factored by SuperLU instead of as an LDLᵀ: both are
    # backward stable, so the final states of the reference and of every
    # coupled run agree to cond(M + dt T) eps sqrt(steps), far inside 1e-10
    coarse, ref_level = SUPERLU_PATHS[axis]
    for gamma in (0.25, 0.75):
        base = SchemeConfig(
            dim=1, gamma=gamma, space_level=9, time_steps=2**12,
            master_seed=5, mode="final_time",
        )
        plan = plan_study(base, axis, coarse, ref_level)
        with monkeypatch.context() as m:
            m.setattr(
                FemOperators, "factor",
                lambda self, a, **options: splu(a.tocsc(), **options),
            )
            want = _final_states(plan, 5, plan.ref.time_steps)
        got = _final_states(plan, 5, plan.ref.time_steps)
        assert len(got) == len(coarse) + 1
        for (ops, x), (_ops, y) in zip(got, want):
            assert ops.m_norm(x - y) <= 1e-10 * ops.m_norm(y)


def test_study_needs_a_path():
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=4, time_steps=2**4, master_seed=0,
        mode="final_time",
    )
    with pytest.raises(DomainError):
        convergence_study([plan_study(base, "space", [2, 3], 4)], 0)


@pytest.mark.parametrize("n_workers", [0, -4])
def test_study_needs_a_worker(n_workers):
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=4, time_steps=2**4, master_seed=0,
        mode="final_time",
    )
    with pytest.raises(DomainError):
        convergence_study([plan_study(base, "space", [2, 3], 4)], 1, n_workers=n_workers)


def _seed_plan(master_seed):
    base = SchemeConfig(
        dim=1, gamma=0.5, space_level=4, time_steps=2**6, master_seed=master_seed,
        mode="final_time",
    )
    return plan_study(base, "space", [2, 3], 4)


@pytest.mark.parametrize(
    "master_seed,n_paths", [(2**64 - 1, 2), (2**64 - 3, 5), (0, MAX_PATHS + 1)]
)
def test_study_refuses_aliasing_path_seeds_before_any_path(master_seed, n_paths, monkeypatch):
    # path keys are 64-bit: path seed 2^64 is refused before the first path, not at it
    def no_path(plans, seed):
        pytest.fail(f"path seed {seed} ran")

    monkeypatch.setattr(convergence, "_seed_errors", no_path)
    with pytest.raises(DomainError):
        convergence_study([_seed_plan(master_seed)], n_paths)


def test_study_takes_the_last_64_bit_path_seeds():
    [rep] = convergence_study([_seed_plan(2**64 - 2)], 2)
    assert rep.seeds == (2**64 - 2, 2**64 - 1)


def _refused_sweep(*args, **kwargs):
    raise AssertionError("the run swept")


# 1,995 level-6 pencil factors: the guard fires on the first, before any sweep
_NO_PENCILS = SchemeConfig(dim=2, gamma=0.01, space_level=6, time_steps=2**4,
                           master_seed=1, mode="final_time")


@pytest.mark.parametrize("run", [
    lambda: stepper.evolve(_NO_PENCILS, *stepper.path_inputs(_NO_PENCILS, 1)),
    lambda: stepper.evolve_fast(_NO_PENCILS, *stepper.path_inputs(_NO_PENCILS, 1)),
    lambda: path_errors(plan_study(_NO_PENCILS, "space", [4, 5], 6), 1),
    lambda: convergence_study([plan_study(_NO_PENCILS, "space", [4, 5], 6)], 1),
], ids=["evolve", "evolve_fast", "path_errors", "convergence_study"])
def test_a_refused_run_does_no_sweep(run, monkeypatch):
    monkeypatch.setattr(stepper, "_sweep", _refused_sweep)
    monkeypatch.setattr(convergence, "_sweep", _refused_sweep)
    with pytest.raises(DomainError, match="1995 pencil factors of"):
        run()
