"""Golden outputs of small coupled studies, single paths and their analysis,
pinned exactly: JSON keeps each float's exact value, and every entry gives the
same bits on 1 and 2 BLAS threads.

A change that is meant to preserve realizations must keep this green.  A
change that is meant to alter them regenerates the fixture once, and says
so in CHANGES.md::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdelab import l0
from spdelab.convergence import convergence_study, plan_study
from spdelab.driver import sample_driver
from spdelab.mesh import assemble, build_mesh
from spdelab.noise import NoiseStream
from spdelab.stepper import MODES, SchemeConfig

FIXTURE = Path(__file__).parent / "data" / "golden_errors.json"
MASTER_SEED = 20261018
N_PATHS = 2

# name -> (dim, axis, gammas, coarse levels, ref level, space level, time exponent)
STUDIES = {
    "space1d": (1, "space", (0.25, 0.75), (2, 3, 4), 6, 6, 7),
    "time1d": (1, "time", (0.25, 0.75), (2, 3, 4), 7, 4, 7),
    "space2d": (2, "space", (0.5,), (1, 2, 3), 4, 4, 5),
}

# name -> (mode, gamma, space level, time exponent, snapshot level)
PATHS = {
    "per_step": ("per_step", 0.5, 3, 5, 2),
    "final_time": ("final_time", 0.75, 3, 8, 8),
}

# Monte Carlo paths and steps of the BDG ratios of analysis_outputs
BDG_PATHS = 2000
BDG_STEPS = 64
# Monte Carlo paths of the BDG batches compared on 1 and 2 BLAS threads:
# enough for OpenBLAS to share a whole-batch product between threads
BLAS_PATHS = 12_293


def study_errors(name: str) -> dict:
    """Per-path errors, one list per coarse level, keyed by gamma; the gammas
    of a study run in one ``convergence_study``, one sweep per path."""
    dim, axis, gammas, coarse, ref_level, space_level, time_exp = STUDIES[name]
    base = SchemeConfig(
        dim=dim,
        gamma=gammas[0],
        space_level=space_level,
        time_steps=2**time_exp,
        master_seed=MASTER_SEED,
        mode="final_time",
    )
    plans = [plan_study(replace(base, gamma=g), axis, list(coarse), ref_level)
             for g in gammas]
    return {
        repr(report.plan.ref.gamma): [list(lv.errors) for lv in report.levels]
        for report in convergence_study(plans, N_PATHS)
    }


def path_outputs(name: str) -> dict:
    """Final state and snapshots of one 1-d path."""
    mode, gamma, level, time_exp, snapshot_level = PATHS[name]
    config = SchemeConfig(
        dim=1,
        gamma=gamma,
        space_level=level,
        time_steps=2**time_exp,
        master_seed=MASTER_SEED,
        mode=mode,
        n_modes=200,
    )
    stream = NoiseStream(seed=MASTER_SEED, fine_level=level, fine_steps=2**time_exp)
    state = MODES[mode](
        config, stream, sample_driver(MASTER_SEED, 200), snapshot_level=snapshot_level
    )
    snaps = None if state.snapshots is None else state.snapshots.tolist()
    return {"alpha": state.alpha.tolist(), "snapshots": snaps}


def analysis_outputs() -> dict:
    """The mass-norm Hölder exponent of the final-time path, the BDG ratio at
    p = 2 of every integrand family and one sum over 4 blocks."""
    level = PATHS["final_time"][2]
    snapshots = np.array(path_outputs("final_time")["snapshots"])
    norm = assemble(build_mesh(1, level)).m_norm
    partition = np.linspace(0.0, 1.0, BDG_STEPS + 1)
    blocks = l0.block_integrands("wiener_functional", 4, BDG_STEPS // 4)
    return {
        "holder_exponent": l0.holder_exponent(snapshots, 4, norm=norm).exponent,
        "bdg_ratio": {
            family: l0.bdg_ratio(
                l0.ElementaryIntegrand(dim_q=1, partition=partition, family=family),
                2.0,
                BDG_PATHS,
                MASTER_SEED,
            )
            for family in l0.FAMILIES
        },
        "bdg_sum_ratio": l0.bdg_sum_ratio(blocks, 2.0, BDG_PATHS, MASTER_SEED),
    }


def bdg_digests() -> dict:
    """Digests of the bytes of one BDG batch of each kind at BLAS_PATHS paths:
    an integral's quad_var and sup_norm, bdg_ratios of every family and a
    sum over 4 blocks."""
    partition = np.linspace(0.0, 1.0, BDG_STEPS + 1)
    phis = {f: l0.ElementaryIntegrand(1, partition, f) for f in l0.FAMILIES}
    sample = l0.ito_integral_elementary(phis["wiener_functional"], MASTER_SEED, BLAS_PATHS)
    blocks = l0.block_integrands("wiener_functional", 4, BDG_STEPS // 4)
    arrays = {
        "quad_var": sample.quad_var,
        "sup_norm": sample.sup_norm,
        "bdg_ratios": [
            l0.bdg_ratios(phi, [1.0, 2.0, 4.0], BLAS_PATHS, MASTER_SEED)
            for phi in phis.values()
        ],
        "bdg_sum_ratio": l0.bdg_sum_ratio(blocks, 2.0, BLAS_PATHS, MASTER_SEED),
    }
    return {k: hashlib.sha256(np.array(v).tobytes()).hexdigest() for k, v in arrays.items()}


def generate() -> dict:
    return {
        "studies": {name: study_errors(name) for name in STUDIES},
        "paths": {name: path_outputs(name) for name in PATHS},
        "analysis": analysis_outputs(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_errors_match_golden(golden, name):
    want = golden["studies"][name]
    got = study_errors(name)
    assert sorted(got) == sorted(want)
    for gamma, levels in want.items():
        np.testing.assert_array_equal(got[gamma], levels)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_matches_golden(golden, name):
    want = golden["paths"][name]
    got = path_outputs(name)
    np.testing.assert_array_equal(got["alpha"], want["alpha"])
    assert (got["snapshots"] is None) == (want["snapshots"] is None)
    if want["snapshots"] is not None:
        np.testing.assert_array_equal(got["snapshots"], want["snapshots"])


def test_analysis_matches_golden(golden):
    want = golden["analysis"]
    got = analysis_outputs()
    assert sorted(got["bdg_ratio"]) == sorted(want["bdg_ratio"]) == sorted(l0.FAMILIES)
    for key in ("holder_exponent", "bdg_sum_ratio"):
        assert got[key] == want[key], key
    for family, ratio in want["bdg_ratio"].items():
        assert got["bdg_ratio"][family] == ratio, family


def _study_bytes(blas_threads: int) -> str:
    """The 1-d study errors and the per-step path as hex bytes, and the BDG
    batch digests, run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    code = (
        "import runpy, numpy as np\n"
        f"golden = runpy.run_path({str(Path(__file__))!r})\n"
        "for name in ('space1d', 'time1d'):\n"
        "    errs = golden['study_errors'](name)\n"
        "    print(name, np.array([errs[g] for g in sorted(errs)]).tobytes().hex())\n"
        "out = golden['path_outputs']('per_step')\n"
        "print('per_step', np.array([out['alpha'], *out['snapshots']]).tobytes().hex())\n"
        "for key, digest in golden['bdg_digests']().items():\n"
        "    print(key, digest)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_1d_studies_do_not_depend_on_blas_threads():
    # the two-gamma space and time studies, the per-step path, which colors
    # every step through numpy's FFT, and the BDG batches give the same bytes
    # on 1 and 2 BLAS threads
    one = _study_bytes(1)
    assert [line.split()[0] for line in one.splitlines()] == [
        "space1d", "time1d", "per_step", "quad_var", "sup_norm", "bdg_ratios",
        "bdg_sum_ratio",
    ]
    assert one == _study_bytes(2)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
