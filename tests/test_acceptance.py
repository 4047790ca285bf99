"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the configurations are desk-scaled but the tolerances are not
adjusted to fit, so a red line means the criterion genuinely failed.
"""

import json
import math

import numpy as np

from spdelab import l0
from spdelab.checks import expected_1d_matrices
from spdelab.cli import main as cli_main
from spdelab.convergence import convergence_study
from spdelab.driver import sample_driver
from spdelab.fracpow import make_spec, scalar_qgamma
from spdelab.mesh import assemble, build_mesh, restriction_matrix
from spdelab.noise import NoiseStream
from spdelab.stepper import SchemeConfig, evolve, evolve_fast

ACCEPT_SEED = 20260810


def record(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_spatial_rates_1d():
    # reference level 9, dt = 2^-14, coarse levels 2..6, 4 paths
    results = {}
    for gamma, target in ((0.25, 1.0), (0.75, 2.0)):
        base = SchemeConfig(
            dim=1, gamma=gamma, space_level=9, time_steps=2**14,
            master_seed=ACCEPT_SEED, mode="final_time",
        )
        rep = convergence_study(base, "space", [2, 3, 4, 5, 6], 9, 4)
        results[gamma] = (rep.fitted_rate, target)
    ok = all(abs(fit - target) <= 0.25 for fit, target in results.values())
    detail = ", ".join(
        f"gamma={g}: fitted {fit:.3f} vs {t}" for g, (fit, t) in results.items()
    )
    record(1, "spatial rates d=1 within +-0.25 of theory", ok, detail)


def test_criterion_02_temporal_rates_1d():
    # reference dt = 2^-14, coarse dt in {2^-4 .. 2^-9}, mesh level 9
    results = {}
    for gamma, target in ((0.25, 0.5), (0.75, 1.0)):
        base = SchemeConfig(
            dim=1, gamma=gamma, space_level=9, time_steps=2**14,
            master_seed=ACCEPT_SEED, mode="final_time",
        )
        rep = convergence_study(base, "time", [4, 5, 6, 7, 8, 9], 14, 12)
        results[gamma] = (rep.fitted_rate, target)
    ok = all(abs(fit - target) <= 0.25 for fit, target in results.values())
    detail = ", ".join(
        f"gamma={g}: fitted {fit:.3f} vs {t}" for g, (fit, t) in results.items()
    )
    record(2, "temporal rates d=1 within +-0.25 of theory", ok, detail)


def test_criterion_03_spatial_rate_2d():
    base = SchemeConfig(
        dim=2, gamma=0.5, space_level=6, time_steps=2**12,
        master_seed=ACCEPT_SEED, mode="final_time",
    )
    rep = convergence_study(base, "space", [2, 3, 4], 6, 2)
    ok = abs(rep.fitted_rate - 1.0) <= 0.3
    record(
        3,
        "spatial rate d=2 gamma=0.5 within +-0.3 of 1",
        ok,
        f"fitted {rep.fitted_rate:.3f}",
    )


def test_criterion_04_quadrature_error_law():
    ks = (1.0, 0.5, 0.25)
    ok = True
    worst = ""
    for gamma in (0.25, 0.5, 0.75):
        for a in (0.5, 1.0, 10.0):
            errs = [abs(scalar_qgamma(make_spec(gamma, k), a) - a**-gamma) for k in ks]
            if not errs[0] > errs[1] > errs[2]:
                ok = False
                worst = f"not decreasing at gamma={gamma}, a={a}"
                continue
            for k, e_k, e_half in zip(ks, errs, errs[1:]):
                predicted = math.pi**2 / (2.0 * k)
                measured = math.log(e_k / e_half)
                if not predicted / 3.0 <= measured <= predicted * 3.0:
                    ok = False
                    worst = (
                        f"gamma={gamma}, a={a}, k={k}: drop {measured:.2f} vs "
                        f"predicted {predicted:.2f}"
                    )
    record(4, "sinc quadrature follows the exponential error law", ok, worst)


def test_criterion_05_exact_oracles():
    ok = True
    details = []
    for level in range(4):
        ops = assemble(build_mesh(1, level))
        exp_mass, exp_stiff = expected_1d_matrices(level)
        m_err = np.abs(ops.mass.toarray() - exp_mass).max()
        t_err = np.abs(ops.stiffness.toarray() - exp_stiff).max()
        if m_err > 1e-12 or t_err > 1e-12:
            ok = False
            details.append(f"level {level}: matrix diff {max(m_err, t_err):.1e}")
    for dim, lc, lf in ((1, 2, 5), (1, 4, 6), (2, 1, 3), (2, 3, 4)):
        a = restriction_matrix(build_mesh(dim, lc), build_mesh(dim, lf))
        col_err = np.abs(np.asarray(a.sum(axis=0)).ravel() - 1.0).max()
        if col_err > 1e-14:
            ok = False
            details.append(f"columns d={dim} {lc}->{lf}: {col_err:.1e}")
    for dim, level in ((1, 6), (2, 4)):
        ops = assemble(build_mesh(dim, level))
        kernel = np.abs(ops.stiffness @ np.ones(ops.n_dof)).max()
        if kernel > 1e-12:
            ok = False
            details.append(f"T@1 d={dim} level {level}: {kernel:.1e}")
    record(5, "assembled operators match closed forms", ok, "; ".join(details))


def test_criterion_06_fast_path_equivalence():
    ok = True
    details = []
    for dim, gamma, level, steps in ((1, 0.5, 3, 8), (2, 0.5, 3, 8), (1, 1.0, 3, 8)):
        ops = assemble(build_mesh(dim, level))
        cfg = SchemeConfig(
            dim=dim, gamma=gamma, space_level=level, time_steps=steps,
            master_seed=ACCEPT_SEED,
        )
        stream = NoiseStream(seed=ACCEPT_SEED, fine_level=level, fine_steps=steps)
        drv = sample_driver(ACCEPT_SEED)
        slow = evolve(cfg, stream, drv, ops=ops)
        fast = evolve_fast(cfg, stream, drv, ops=ops)
        rel = ops.m_norm(slow.alpha - fast.alpha) / ops.m_norm(slow.alpha)
        details.append(f"(d={dim}, g={gamma}): {rel:.2e}")
        ok &= rel <= 1e-8
    record(6, "per-step and final-time coloring agree to 1e-8", ok, ", ".join(details))


def test_criterion_07_ito_isometry():
    phi = l0.ElementaryIntegrand(
        dim_q=1, partition=np.array([0.0, 1.0]), family="deterministic_const"
    )
    sample = l0.ito_integral_elementary(phi, seed=ACCEPT_SEED, n_paths=100_000)
    var = float(np.var(sample.terminal[:, 0]))
    ok = abs(var - 1.0) <= 0.03
    record(7, "Ito isometry variance within 3% over 1e5 paths", ok, f"var {var:.4f}")


def test_criterion_08_bdg_finiteness_and_stability():
    partition = np.linspace(0.0, 1.0, 65)
    ok = True
    worst = ""
    for family in l0.FAMILIES:
        phi = l0.ElementaryIntegrand(dim_q=1, partition=partition, family=family)
        # one batch per seed serves every p
        ratios = [l0.bdg_ratios(phi, [1.0, 2.0, 4.0], 100_000, seed=seed)
                  for seed in (ACCEPT_SEED, ACCEPT_SEED + 101)]
        for p, r1, r2 in zip((1.0, 2.0, 4.0), *ratios):
            spread = abs(r1 - r2) / max(abs(r1), abs(r2))
            if not (np.isfinite(r1) and np.isfinite(r2) and spread <= 0.10):
                ok = False
                worst = f"{family}, p={p}: ratios {r1:.3f}/{r2:.3f}"
    record(
        8,
        "truncated BDG ratios finite and seed-stable for all families",
        ok,
        worst or "max spread within 10%",
    )


def test_criterion_09_holder_exponents():
    # SPDE trajectories, d=1, gamma=0.75, M-norm, dyadic levels 6..13
    ops = assemble(build_mesh(1, 5))
    spde = []
    for i in range(20):
        seed = ACCEPT_SEED + i
        cfg = SchemeConfig(
            dim=1, gamma=0.75, space_level=5, time_steps=2**13,
            master_seed=seed, mode="final_time",
        )
        stream = NoiseStream(seed=seed, fine_level=5, fine_steps=2**13)
        state = evolve_fast(
            cfg, stream, sample_driver(seed), ops=ops, snapshot_level=13
        )
        spde.append(l0.holder_exponent(state.snapshots, 6, norm=ops.m_norm).exponent)
    spde_mean = float(np.mean(spde))

    bm = [
        l0.holder_exponent(l0.brownian_path(ACCEPT_SEED + i, 16), 8).exponent
        for i in range(20)
    ]
    bm_mean = float(np.mean(bm))
    ok = 0.35 <= spde_mean <= 0.60 and 0.40 <= bm_mean <= 0.55
    record(
        9,
        "Holder exponents: SPDE in [0.35, 0.60], Brownian control in [0.40, 0.55]",
        ok,
        f"spde {spde_mean:.3f}, brownian {bm_mean:.3f}",
    )


def test_criterion_10_deterministic_csv(tmp_path):
    config = {
        "dim": 1,
        "gammas": [0.25, 0.75],
        "axis": "space",
        "coarse_levels": [2, 3, 4],
        "ref_level": 6,
        "time_exp": 8,
        "n_paths": 2,
        "master_seed": ACCEPT_SEED,
        "n_modes": 500,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    payloads = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main(["convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
        payloads.append(
            (out / "errors.csv").read_bytes() + (out / "summary.csv").read_bytes()
        )
    ok = payloads[0] == payloads[1]
    record(10, "same master seed gives byte-identical CSV payloads", ok)
