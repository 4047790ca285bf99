"""Properties of the command-line contract on configs drawn from ``cli.SCHEMAS``.

Each key of a command's schema is drawn inside a small box of its range, so
that a run takes a fraction of a second, or, for up to two keys, just outside
it: a value of the wrong type, a JSON ``true``, a negative count, ``null``, a
large integer, or, for a required key, no value; an unknown key may join
them.  ``out_dir`` is a fresh directory, a nested new path or a path under a
regular file.  Every example runs ``cli.main`` in-process, in a temporary
working directory of its own.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from spdelab import cli
from spdelab.stepper import MODES

# Hypothesis caches what it reads of local modules in its home directory,
# .hypothesis in the working directory unless set, while it collects the tests
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HOME.name)

ABSENT = object()  # the key is left out of the config

SEED = st.integers(0, 2**64 - 2**20)
DIM = st.sampled_from([1, 2])
# the edges of gamma's range, as floats and as JSON integers, and 1e-300,
# whose quadrature needs too many nodes
GAMMA = st.one_of(st.floats(0.3, 1.0), st.sampled_from([0, 1, 0.0, 1.0, 1e-300]))
# a large k has three nodes, the middle one scaled by about k; 10**154 is just
# below the largest k, whose square is finite
K = st.one_of(st.just(ABSENT), st.floats(0.4, 2.0),
              st.sampled_from([1, 2, 1e3, 2**64, 1e150, 10**154]))
N_MODES = st.one_of(st.just(ABSENT), st.integers(1, 8))
LEVEL = st.integers(0, 3)
TIME_EXP = st.integers(0, 5)
SMALL_COUNT = st.integers(1, 2)


# Each small box draws every key of its command's schema but out_dir, ABSENT
# for a key left out.  Some convergence draws put a coarse level above
# ref_level, and some simulate draws a snapshot_level above time_exp.
@st.composite
def _convergence(draw):
    axis = draw(st.sampled_from(["space", "time"]))
    gammas = draw(st.lists(GAMMA, min_size=1, max_size=2, unique=True))
    single = len(gammas) == 1 and draw(st.booleans())  # given as "gamma"
    return {
        "dim": draw(DIM),
        "axis": axis,
        "gamma": gammas[0] if single else ABSENT,
        "gammas": ABSENT if single else gammas,
        "coarse_levels": sorted(draw(st.lists(LEVEL, min_size=1, max_size=3,
                                              unique=True))),
        "ref_level": draw(LEVEL),
        "time_exp": draw(TIME_EXP) if axis == "space" else ABSENT,
        "space_level": draw(LEVEL) if axis == "time" else ABSENT,
        "n_paths": draw(SMALL_COUNT),
        "master_seed": draw(SEED),
        "k": draw(K),
        "n_modes": draw(N_MODES),
        "n_workers": 1,
    }


@st.composite
def _verify(draw):
    positive = st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.integers(1, 2**80),
    )
    return {
        "n_paths": draw(st.integers(1000, 2000)),
        "master_seed": draw(SEED),
        "p_values": draw(st.lists(positive, min_size=1, max_size=3)),
        "steps": draw(st.integers(1, 8)),
        "dim_q": draw(SMALL_COUNT),
    }


@st.composite
def _holder(draw):
    m_max, bm_m_max = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    return {
        "dim": draw(DIM),
        "gamma": draw(GAMMA),
        "k": draw(K),
        "space_level": draw(LEVEL),
        "time_exp": draw(st.integers(m_max, 5)),
        "m_max": m_max,
        "m_min": draw(st.integers(0, m_max - 3)),
        "bm_m_max": bm_m_max,
        "bm_m_min": draw(st.integers(0, bm_m_max - 3)),
        "n_seeds": draw(SMALL_COUNT),
        "n_modes": draw(N_MODES),
        "master_seed": draw(SEED),
    }


@st.composite
def _simulate(draw):
    return {
        "dim": draw(DIM),
        "gamma": draw(GAMMA),
        "space_level": draw(LEVEL),
        "time_exp": draw(TIME_EXP),
        "master_seed": draw(SEED),
        "k": draw(K),
        "n_modes": draw(N_MODES),
        "mode": draw(st.one_of(st.just(ABSENT), st.sampled_from(sorted(MODES)))),
        "snapshot_level": draw(st.one_of(st.just(ABSENT), TIME_EXP)),
    }


SMALL = {"convergence": _convergence, "verify": _verify, "holder": _holder,
         "simulate": _simulate}
# 10**400 is past every range, a float's too
OUTSIDE = st.sampled_from([True, "x", -1, 1.5, None, 2**64, 10**400])
UNKNOWN_KEY = "no_such_key"
# a fresh directory, a nested new path, a path under the regular file "file"
OUT_DIRS = st.sampled_from(["o", "new/deeper/o", "file/o"])


@st.composite
def configs(draw, command):
    """A config document of ``command``, ``out_dir`` included."""
    schema = cli.SCHEMAS[command]
    doc = {**draw(SMALL[command]()), "out_dir": draw(OUT_DIRS)}
    for key in draw(st.lists(st.sampled_from([*schema, UNKNOWN_KEY]), max_size=2,
                             unique=True)):
        if key == UNKNOWN_KEY:
            doc[key] = 1
        elif schema[key][1] is cli.REQUIRED:
            doc[key] = draw(st.one_of(OUTSIDE, st.just(ABSENT)))
        else:
            doc[key] = draw(OUTSIDE)
    return {key: val for key, val in doc.items() if val is not ABSENT}


def _paths(root: Path) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


@contextlib.contextmanager
def _workdir():
    """A fresh working directory holding the regular file ``file``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "file").write_text("")
        os.chdir(root)
        try:
            yield root
        finally:
            os.chdir(cwd)


def _main(root: Path, command: str, doc: dict, *flags: str) -> int:
    """``cli.main`` on ``doc``; the code must be documented, and a refused
    config or a dry run leaves no new path behind.  The one other exit 1 is
    a ``verify`` check that ran and failed, which writes its report."""
    (root / "config.json").write_text(json.dumps(doc))
    before = _paths(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", "config.json", *flags])
    assert code in (0, 1, 2, 3)
    event(f"{command} {' '.join(flags)} exit {code}")
    if code == 1 and not err.getvalue().startswith("validation error: "):
        assert command == "verify" and "FAIL: " in out.getvalue()
    elif code == 1 or "--dry-run" in flags:
        assert _paths(root) == before
    return code


def _settings(max_examples: int) -> settings:
    """Deterministic, with no example database written into the tree."""
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples,
                    suppress_health_check=[HealthCheck.too_slow])


@given(data=st.data())
@_settings(max_examples=len(cli.SCHEMAS))
def test_every_small_box_draws_its_schema(data):
    for command, schema in cli.SCHEMAS.items():
        assert set(data.draw(SMALL[command]())) == set(schema) - {"out_dir"}


@given(doc=configs("convergence"))
@_settings(max_examples=100)
def test_a_convergence_config_that_dry_run_accepts_runs(doc):
    with _workdir() as root:
        dry = _main(root, "convergence", doc, "--dry-run")
        code = _main(root, "convergence", doc)
        if dry == 0:
            assert code != 1


@given(command=st.sampled_from(["verify", "holder", "simulate"]), data=st.data())
@_settings(max_examples=150)
def test_a_config_exits_with_a_documented_code(command, data):
    doc = data.draw(configs(command))
    with _workdir() as root:
        _main(root, command, doc)


def _run(root: Path, command: str, doc: dict, out: str) -> tuple[dict, dict] | None:
    """The payload files and the manifest that a run of ``doc`` into ``out``
    wrote, or None if it wrote no manifest; the manifest drops the facts of
    the host and the output directory."""
    _main(root, command, doc, "--out", out)
    manifest = root / out / cli.COMMANDS[command][2]
    if not manifest.exists():
        return None
    facts = json.loads(manifest.read_text())
    del facts["wall_time_s"], facts["peak_rss_mb"], facts["config"]["out_dir"]
    payload = {path.name: path.read_bytes()
               for path in sorted((root / out).iterdir()) if path != manifest}
    return payload, facts


def _draws(payload: dict) -> dict:
    """Each file of ``payload`` as rows, without the columns that name a seed."""
    rows = {}
    for name, data in payload.items():
        rows[name] = data.decode().splitlines()
        if name.endswith(".csv"):
            table = list(csv.reader(rows[name]))
            keep = [j for j, col in enumerate(table[0]) if col not in ("seed", "path_seed")]
            rows[name] = [[row[j] for j in keep] for row in table]
    return rows


def _in_box(command: str):
    """A config of ``command`` from its small box, with no ``out_dir``."""
    return SMALL[command]().map(
        lambda doc: {key: val for key, val in doc.items() if val is not ABSENT})


@given(command=st.sampled_from(sorted(cli.SCHEMAS)), data=st.data())
@_settings(max_examples=60)
def test_a_rerun_writes_the_same_bytes(command, data):
    doc = data.draw(_in_box(command))
    with _workdir() as root:
        first = _run(root, command, doc, "a")
        assume(first is not None)
        assert _run(root, command, doc, "b") == first


@given(command=st.sampled_from(sorted(cli.SCHEMAS)), data=st.data())
@_settings(max_examples=60)
def test_another_master_seed_draws_other_payloads(command, data):
    doc = data.draw(_in_box(command))
    # every error of a study run only at its reference level is 0
    assume(command != "convergence" or doc["coarse_levels"] != [doc["ref_level"]])
    # path keys are master_seed + i; seeds 2^32 apart must not share their draws
    delta = data.draw(st.one_of(st.sampled_from([1, 2**32]), st.integers(1, 2**62)))
    seed = doc["master_seed"]
    other = seed + delta if seed + delta <= 2**64 - 2**20 else seed - delta
    with _workdir() as root:
        first = _run(root, command, doc, "a")
        second = _run(root, command, {**doc, "master_seed": other}, "b")
        assume(first is not None and second is not None)
        assert _draws(first[0]) != _draws(second[0])
