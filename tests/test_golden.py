"""Golden outputs of small coupled studies and single paths, pinned at rtol 1e-12.

A change that is meant to preserve realizations must keep this green.  A
change that is meant to alter them regenerates the fixture once, and says
so in CHANGES.md::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spdelab.convergence import convergence_study
from spdelab.driver import sample_driver
from spdelab.noise import NoiseStream
from spdelab.stepper import SchemeConfig, simulate_path

FIXTURE = Path(__file__).parent / "data" / "golden_errors.json"
MASTER_SEED = 20261018
N_PATHS = 2

# name -> (dim, axis, gammas, coarse levels, ref level, space level, time exponent)
STUDIES = {
    "space1d": (1, "space", (0.25, 0.75), (2, 3, 4), 6, 6, 7),
    "time1d": (1, "time", (0.25, 0.75), (2, 3, 4), 7, 4, 7),
    "space2d": (2, "space", (0.5,), (1, 2, 3), 4, 4, 5),
}

# name -> (mode, gamma, space level, time exponent, snapshot level, initial data)
PATHS = {
    "per_step": ("per_step", 0.5, 3, 5, 2, False),
    "per_step_initial": ("per_step", 0.25, 3, 5, None, True),
    "final_time_initial": ("final_time", 0.75, 3, 5, 3, True),
}


def study_errors(name: str) -> dict:
    """Per-path errors, one list per coarse level, keyed by gamma."""
    dim, axis, gammas, coarse, ref_level, space_level, time_exp = STUDIES[name]
    out = {}
    for gamma in gammas:
        base = SchemeConfig(
            dim=dim,
            gamma=gamma,
            space_level=space_level,
            time_steps=2**time_exp,
            master_seed=MASTER_SEED,
            mode="final_time",
        )
        report = convergence_study(base, axis, list(coarse), ref_level, N_PATHS)
        out[repr(gamma)] = [list(lv.errors) for lv in report.levels]
    return out


def path_outputs(name: str) -> dict:
    """Final state and snapshots of one 1-d path."""
    mode, gamma, level, time_exp, snapshot_level, with_initial = PATHS[name]
    n_dof = 2**level + 1
    initial = np.cos(np.linspace(0.0, 3.0, n_dof)) if with_initial else None
    config = SchemeConfig(
        dim=1,
        gamma=gamma,
        space_level=level,
        time_steps=2**time_exp,
        master_seed=MASTER_SEED,
        mode=mode,
        n_modes=200,
        initial=initial,
    )
    stream = NoiseStream(seed=MASTER_SEED, fine_level=level, fine_steps=2**time_exp)
    state = simulate_path(
        config, stream, sample_driver(MASTER_SEED, 200), snapshot_level=snapshot_level
    )
    snaps = None if state.snapshots is None else state.snapshots.tolist()
    return {"alpha": state.alpha.tolist(), "snapshots": snaps}


def generate() -> dict:
    return {
        "studies": {name: study_errors(name) for name in STUDIES},
        "paths": {name: path_outputs(name) for name in PATHS},
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
        np.testing.assert_allclose(got[gamma], levels, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_matches_golden(golden, name):
    want = golden["paths"][name]
    got = path_outputs(name)
    np.testing.assert_allclose(got["alpha"], want["alpha"], rtol=1e-12, atol=0.0)
    assert (got["snapshots"] is None) == (want["snapshots"] is None)
    if want["snapshots"] is not None:
        np.testing.assert_allclose(
            got["snapshots"], want["snapshots"], rtol=1e-12, atol=0.0
        )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
