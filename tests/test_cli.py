import dataclasses
import importlib
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import spdelab
from spdelab import cli, convergence, fracpow, l0
from spdelab.cli import main
from spdelab.driver import sample_driver
from spdelab.exceptions import DomainError, NumericalError, SpdeLabError, StatisticalAlarm
from spdelab.fracpow import make_spec
from spdelab.mesh import assemble, build_mesh
from spdelab.noise import NoiseStream
from spdelab.stepper import SchemeConfig, evolve, evolve_fast


def run_cli(*argv):
    """``python -m spdelab.cli *argv`` in a child process that imports this
    package, with or without ``PYTHONPATH`` set."""
    src = str(Path(spdelab.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "spdelab.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_CONVERGENCE = {
    "dim": 1,
    "gammas": [0.5],
    "axis": "space",
    "coarse_levels": [2, 3, 4],
    "ref_level": 5,
    "time_exp": 6,
    "n_paths": 2,
    "master_seed": 99,
    "n_modes": 100,
}


SMALL_SIMULATE = {
    "dim": 1,
    "gamma": 0.5,
    "space_level": 2,
    "time_exp": 3,
    "master_seed": 1,
}


class TestAssembleCheck:
    def test_default_passes(self, capsys):
        assert main(["assemble-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corruption_fails(self, capsys):
        assert main(["assemble-check", "--dim", "1", "--level", "2",
                     "--inject-corruption"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_2d_level_3(self, capsys):
        assert main(["assemble-check", "--dim", "2", "--level", "3"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--level", "5"],  # a level needs its dimension
            ["--dim", "1", "--level", "12"],  # dense oracles of 4097 vertices
            ["--dim", "2", "--level", "6"],  # dense oracles of 4225 vertices
        ],
    )
    def test_rejected(self, argv, capsys, monkeypatch):
        from spdelab import checks

        def oracle_ran(*args, **kwargs):
            raise AssertionError("an oracle ran")

        for name in ("assemble", "expected_1d_matrices", "expected_2d_matrices"):
            monkeypatch.setattr(checks, name, oracle_ran)
        assert main(["assemble-check", *argv]) == 1
        assert capsys.readouterr().err.startswith("validation error: ")


class TestConvergenceCommand:
    def test_dry_run_echoes_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        assert main(["convergence", "--config", cfg, "--dry-run"]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["coarse_levels"] == [2, 3, 4]

    def test_dry_run_echo_of_gamma_replays(self, tmp_path, capsys):
        cfg = write_config(tmp_path, _with(SMALL_CONVERGENCE, gammas=_DROP, gamma=0.5))
        assert main(["convergence", "--config", cfg, "--dry-run"]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["gamma"] == 0.5 and echoed["gammas"] == [0.5]
        replay = write_config(tmp_path, echoed, name="replay.json")
        assert main(["convergence", "--config", replay, "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out) == echoed

    def test_dry_run_checks_the_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, _with(SMALL_CONVERGENCE, axis="spaec"))
        assert main(["convergence", "--config", cfg, "--dry-run"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert BAD_CONFIG_MESSAGES["misspelled_axis"] in captured.err

    def test_axis_flag_takes_the_schema_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out = tmp_path / "o"
        assert main(["convergence", "--config", cfg, "--axis", "spaec",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert BAD_CONFIG_MESSAGES["misspelled_axis"] in err
        assert not out.exists()

    def test_each_study_is_planned_once(self, tmp_path, monkeypatch):
        # the check's plans are the ones the studies run
        calls = []
        plan_study = convergence.plan_study

        def counted(*args):
            calls.append(args)
            return plan_study(*args)

        monkeypatch.setattr(cli, "plan_study", counted)
        monkeypatch.setattr(convergence, "plan_study", counted)
        doc = _with(SMALL_CONVERGENCE, gammas=[0.25, 0.75], coarse_levels=[0, 1],
                    ref_level=1, time_exp=1, n_paths=1)
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 2

    def test_missing_key_is_validation_error(self, tmp_path, capsys):
        doc = dict(SMALL_CONVERGENCE)
        del doc["ref_level"]
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg]) == 1

    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["convergence", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["convergence", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("errors.csv", "summary.csv", "convergence.svg", "manifest.json"):
            assert (out_a / name).exists()
        assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_seed_override_changes_errors(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["convergence", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(
            ["convergence", "--config", cfg, "--out", str(out_b), "--seed", "123"]
        ) == 0
        assert (out_a / "errors.csv").read_bytes() != (out_b / "errors.csv").read_bytes()

    def test_csv_headers(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out = tmp_path / "o"
        main(["convergence", "--config", cfg, "--out", str(out)])
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[0] == "axis,gamma,resolution,path_seed,error"
        assert len(lines) == 1 + 3 * 2  # header + levels x paths
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][:2] == ["space", "0.5"]
        # fit-input order: levels coarse to fine, path seeds within a level
        assert [(float(r[2]), int(r[3])) for r in rows] == [
            (h, seed) for h in (0.25, 0.125, 0.0625) for seed in (99, 100)
        ]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("axis,dim,gamma,fitted_rate,theoretical_rate")

    def test_svg_contains_dashed_guides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out = tmp_path / "o"
        main(["convergence", "--config", cfg, "--out", str(out)])
        svg = (out / "convergence.svg").read_text()
        assert "stroke-dasharray" in svg
        assert "rate" in svg

    def test_manifest_records_stream_tags(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONVERGENCE)
        out = tmp_path / "o"
        main(["convergence", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stream_tags"]) == {
            "wiener", "driver", "analysis_wiener", "analysis_mark", "verify_dp",
        }
        assert manifest["config"]["master_seed"] == 99


class TestVerifyCommand:
    def test_reduced_paths_policy(self, tmp_path, capsys):
        # statistical power warning, pass/fail suppressed, exit 0
        assert main(
            ["verify", "--paths", "100", "--out", str(tmp_path), "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert (tmp_path / "verify_bdg.csv").exists()
        assert (tmp_path / "alarms.log").read_text() == ""

    def test_alarm_exit_code(self, tmp_path, monkeypatch):
        from spdelab import l0
        from spdelab.exceptions import StatisticalAlarm

        def boom(*args, **kwargs):
            raise StatisticalAlarm("synthetic alarm")

        monkeypatch.setattr(l0, "bdg_ratios", boom)
        assert main(
            ["verify", "--paths", "1000", "--out", str(tmp_path), "--seed", "1"]
        ) == 3
        assert "synthetic alarm" in (tmp_path / "alarms.log").read_text()

    def test_one_draw_per_family_and_seed(self, tmp_path, monkeypatch):
        # every p of a (family, seed) comes from one batch: 6 family draws,
        # plus the isometry's unit integrand
        integral = l0.ito_integral_elementary
        draws = []

        def counted(phi, seed, n_paths=1):
            draws.append((phi.family, phi.partition.size, seed, n_paths))
            return integral(phi, seed, n_paths)

        monkeypatch.setattr(l0, "ito_integral_elementary", counted)
        tracemalloc.start()
        try:
            assert main(["verify", "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws == [("deterministic_const", 2, 1, 100_000)] + [
            (family, 65, seed, 100_000) for family in l0.FAMILIES for seed in (1, 102)
        ]
        # per-path results of one batch at a time, never whole paths: 6.3 MB
        assert peak < 9e6

    def test_a_degenerate_batch_logs_each_p_and_seed(self, tmp_path, monkeypatch):
        # quad_var = 0 with sup > 0 at both attempts: each wiener_functional
        # batch raises, and alarms.log keeps the order (family, p, seed)
        integral = l0.ito_integral_elementary

        def degenerate(phi, seed, n_paths=1):
            sample = integral(phi, seed, n_paths)
            if phi.family != "wiener_functional":
                return sample
            return dataclasses.replace(sample, quad_var=np.zeros(n_paths))

        monkeypatch.setattr(l0, "ito_integral_elementary", degenerate)
        args = ["verify", "--paths", "1000", "--out", str(tmp_path), "--seed", "1"]
        assert main(args) == 3
        alarm = "bdg_ratio degenerate at 10000 paths: lhs > 0 with rhs = 0"
        assert (tmp_path / "alarms.log").read_text().splitlines() == [
            f"bdg_ratio wiener_functional p={p}: {alarm}"
            for p in (1.0, 2.0, 4.0) for _ in range(2)
        ]
        rows = (tmp_path / "verify_bdg.csv").read_text().splitlines()
        wiener = [row for row in rows if row.startswith("wiener_functional")]
        assert len(wiener) == 3 and all(",nan,nan," in row for row in wiener)

    def test_isometry_band_scales_with_paths(self, tmp_path, capsys):
        # seed 1 at 1000 paths has variance 0.9497: 5% off, well inside the
        # 22.4% band of 5 standard deviations, sqrt(2 / 1000) each
        args = ["verify", "--paths", "1000", "--out", str(tmp_path), "--seed", "1"]
        assert main(args) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_isometry_band_catches_a_wrong_variance(
        self, tmp_path, monkeypatch, capsys
    ):
        integral = l0.ito_integral_elementary

        def scaled(*args, **kwargs):
            sample = integral(*args, **kwargs)
            return dataclasses.replace(sample, terminal=1.5 * sample.terminal)

        monkeypatch.setattr(l0, "ito_integral_elementary", scaled)
        args = ["verify", "--paths", "1000", "--out", str(tmp_path), "--seed", "1"]
        assert main(args) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
        assert len(fails) == 1
        assert re.fullmatch(
            r"FAIL: isometry variance 2\.1\d+ off by more than 22\.4%", fails[0]
        )

    @pytest.mark.parametrize(
        "name,fake,fail",
        [
            # the spot value at p = 2, and the trend of the p = 1 values
            ("dp_metric", lambda real: lambda s, p: real(s, p) + (p == 2.0) * 1e-9,
             "dp_metric spot value"),
            ("dp_metric", lambda real: lambda s, p: real(s, p) if p == 2.0 else 0.5,
             "dp_metric monotone trend"),
            # the block sums of 4 integrands only
            ("bdg_sum_ratio",
             lambda real: lambda phis, *a: float("inf") if len(phis) == 4 else real(phis, *a),
             "bdg_sum_ratio not finite for m=4"),
        ],
        ids=["dp_spot", "dp_trend", "block_sum_not_finite"],
    )
    def test_each_failed_check_exits_1(self, tmp_path, monkeypatch, capsys, name, fake, fail):
        monkeypatch.setattr(l0, name, fake(getattr(l0, name)))
        args = ["verify", "--paths", "1000", "--out", str(tmp_path), "--seed", "1"]
        assert main(args) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
        assert fails == [f"FAIL: {fail}"]
        assert (tmp_path / "verify_bdg.csv").exists()

    def test_seeds_beyond_int64_draw_distinct_samples(self, tmp_path):
        # seeds 2^63 and 2^63 + 5 share no Philox key
        rows = []
        for seed in (2**63, 2**63 + 5):
            out = tmp_path / str(seed)
            args = ["verify", "--paths", "10", "--out", str(out), "--seed", str(seed)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(args) == 0
            lines = (out / "verify_metric.csv").read_text().splitlines()
            rows.append([ln for ln in lines if ln.startswith("dp_convergence")])
        assert len(rows[0]) == 3
        assert rows[0] != rows[1]

    def test_huge_p_raises_no_overflow_warning(self, tmp_path):
        # sup**p overflowed before the truncation at 1; clipped first, the
        # wiener_functional ratios are 0 / 0 at 1,000 and 10,000 paths, an alarm
        cfg = write_config(tmp_path, {"n_paths": 1000, "p_values": [1e308]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "wiener_functional p=1e+308" in (tmp_path / "o" / "alarms.log").read_text()


class TestHolderCommand:
    def test_small_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "space_level": 3,
                "time_exp": 6,
                "m_max": 4,
                "m_min": 1,
                "n_seeds": 2,
                "n_modes": 50,
                "master_seed": 5,
            },
        )
        assert main(["holder", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "holder.csv").read_text().splitlines()
        assert lines[0] == "kind,seed,exponent"
        assert len(lines) == 1 + 4  # 2 seeds x (spde + brownian)

    def test_snapshot_resolution_validated(self, tmp_path):
        cfg = write_config(tmp_path, {"time_exp": 4, "m_max": 6})
        assert main(["holder", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestSimulateCommand:
    def test_writes_state(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "dim": 1,
                "gamma": 0.5,
                "space_level": 3,
                "time_exp": 5,
                "master_seed": 17,
                "n_modes": 50,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "final_state.txt").read_text().splitlines()
        assert len(lines) == 9  # one line per vertex
        float(lines[0])  # parses
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate"

    def test_snapshot_dump(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "dim": 1,
                "gamma": 0.5,
                "space_level": 2,
                "time_exp": 4,
                "snapshot_level": 2,
                "master_seed": 17,
                "n_modes": 50,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "snapshots.txt").read_text().splitlines()
        headers = [ln for ln in text if ln.startswith("# t = ")]
        assert len(headers) == 5  # dyadic times 0, 1/4, ..., 1
        assert len(text) == 5 * (1 + 5)  # header + one line per vertex

    def test_capacity_guard_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "dim": 1,
                "gamma": 0.5,
                "space_level": 15,
                "time_exp": 3,
                "master_seed": 1,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from spdelab.exceptions import NumericalError
    from spdelab.stepper import MODES

    def explode(*args, **kwargs):
        raise NumericalError("synthetic solver failure")

    # the config below runs in the default per-step mode
    monkeypatch.setitem(MODES, "per_step", explode)
    cfg = write_config(
        tmp_path,
        {"dim": 1, "gamma": 0.5, "space_level": 2, "time_exp": 3, "master_seed": 1},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_1d_factor_failure_exit_code(tmp_path, monkeypatch, capsys):
    import spdelab.mesh as mesh_module

    assemble = mesh_module._assemble

    def lopsided(mesh):  # T no longer exactly symmetric
        mass, stiffness = assemble(mesh)
        stiffness = stiffness.tolil()
        stiffness[0, 1] *= 1.0 + 2.0**-50
        return mass, stiffness.tocsr()

    monkeypatch.setattr(mesh_module, "_assemble", lopsided)
    cfg = write_config(
        tmp_path,
        {"dim": 1, "gamma": 0.5, "space_level": 2, "time_exp": 3, "master_seed": 1},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "not exactly symmetric" in capsys.readouterr().err


# the documented exit code and stderr prefix of each error class
EXIT_CODES = {
    DomainError: (1, "validation error: "),
    NumericalError: (2, "numerical error: "),
    StatisticalAlarm: (3, "statistical alarm: "),
}


@pytest.mark.parametrize(
    "error", SpdeLabError.__subclasses__(), ids=lambda cls: cls.__name__
)
def test_each_error_class_exits_with_its_code(error, tmp_path, capsys, monkeypatch):
    # one class per exit code: a new class needs its own except clause in main
    assert set(SpdeLabError.__subclasses__()) == set(EXIT_CODES)

    returned = []

    def check(cfg):
        returned.append(simulate_check(cfg))
        return returned[-1]

    def fail(cfg, checked, out):  # a run takes what its check returned
        config = SchemeConfig(dim=1, gamma=0.5, space_level=2, time_steps=8, master_seed=1)
        assert checked is returned[0] and checked[0] == config
        assert (checked[1].mesh.dim, checked[1].mesh.level) == (1, 2)  # its operators
        raise error("synthetic failure")

    simulate_check, _run, _manifest = cli.COMMANDS["simulate"]
    monkeypatch.setitem(cli.COMMANDS, "simulate", (check, fail, "m.json"))
    cfg = write_config(tmp_path, SMALL_SIMULATE)
    code, prefix = EXIT_CODES[error]
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{prefix}synthetic failure\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry_run"])
@pytest.mark.parametrize("out", ["file/o", "file"], ids=["under_a_file", "a_file"])
def test_an_unwritable_out_dir_exits_1_before_the_study(
    out, dry_run, tmp_path, capsys, monkeypatch
):
    def study_ran(*args, **kwargs):
        raise NumericalError("the study ran")

    monkeypatch.setattr(cli, "convergence_study", study_ran)
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, SMALL_CONVERGENCE)
    before = sorted(tmp_path.rglob("*"))
    argv = ["convergence", "--config", cfg, "--out", str(tmp_path / out), *dry_run]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: out_dir ")
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before


# malformed command lines: a flag value of the wrong type, an unknown flag, a
# value outside a flag's choices, and an axis that no config allows
USAGE_ERRORS = [
    ["verify", "--paths", "many"],
    ["simulate", "--bogus"],
    ["assemble-check", "--dim", "3"],
    ["convergence", "--axis", "spaec"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exits_1(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits from parse_args
        code = exc.code
    assert code == 1
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert "error: " in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["convergence", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: spdelab" in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    proc = run_cli("assemble-check", "--dim", "1", "--level", "2")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


_DROP = object()


def _with(base, **changes):
    doc = dict(base)
    for key, val in changes.items():
        if val is _DROP:
            del doc[key]
        else:
            doc[key] = val
    return doc


# (command, config document or a raw file body); every one is a user error
BAD_CONFIGS = {
    "bool_dim": ("convergence", _with(SMALL_CONVERGENCE, dim=True)),
    "bool_n_paths": ("convergence", _with(SMALL_CONVERGENCE, n_paths=True)),
    "misspelled_n_path": ("convergence", _with(SMALL_CONVERGENCE, n_path=3)),
    "misspelled_refe_level": (
        "convergence", _with(SMALL_CONVERGENCE, ref_level=_DROP, refe_level=5)
    ),
    "misspelled_gama": ("holder", {"gama": 0.5}),
    "scalar_gammas": ("convergence", _with(SMALL_CONVERGENCE, gammas=0.5)),
    "mixed_coarse_levels": (
        "convergence", _with(SMALL_CONVERGENCE, coarse_levels=[2, "3"])
    ),
    "string_n_modes": ("convergence", _with(SMALL_CONVERGENCE, n_modes="100")),
    "no_gamma": ("convergence", _with(SMALL_CONVERGENCE, gammas=_DROP)),
    "gamma_and_gammas": (
        "convergence", _with(SMALL_CONVERGENCE, gamma=0.5, gammas=[0.25])
    ),
    "space_axis_without_time_exp": (
        "convergence", _with(SMALL_CONVERGENCE, time_exp=_DROP)
    ),
    "string_verify_n_paths": ("verify", {"n_paths": "100"}),
    "zero_verify_n_paths": ("verify", {"n_paths": 0}),
    "negative_verify_n_paths": ("verify", {"n_paths": -5}),
    "scalar_p_values": ("verify", {"p_values": 2.0}),
    "string_holder_n_seeds": ("holder", {"n_seeds": "2"}),
    "zero_n_paths": ("convergence", _with(SMALL_CONVERGENCE, n_paths=0)),
    "zero_n_workers": ("convergence", _with(SMALL_CONVERGENCE, n_workers=0)),
    "negative_beta": ("convergence", _with(SMALL_CONVERGENCE, beta=-1)),  # unknown key
    "zero_holder_n_seeds": ("holder", {"n_seeds": 0}),
    "string_snapshot_level": ("simulate", _with(SMALL_SIMULATE, snapshot_level="2")),
    "negative_snapshot_level": ("simulate", _with(SMALL_SIMULATE, snapshot_level=-1)),
    "snapshot_level_above_20": ("simulate", _with(SMALL_SIMULATE, snapshot_level=21)),
    "empty_gammas": ("convergence", _with(SMALL_CONVERGENCE, gammas=[])),
    "empty_p_values": ("verify", {"p_values": []}),
    "zero_p_values": ("verify", {"p_values": [1.0, 0]}),
    "misspelled_axis": ("convergence", _with(SMALL_CONVERGENCE, axis="spaec")),
    "bool_simulate_gamma": ("simulate", _with(SMALL_SIMULATE, gamma=False)),
    "list_root": ("simulate", [SMALL_SIMULATE]),
    # sizes outside the value ranges, rejected before any array is allocated
    "huge_time_exp": ("simulate", _with(SMALL_SIMULATE, time_exp=62)),
    "huge_n_modes": ("simulate", _with(SMALL_SIMULATE, n_modes=2**62)),
    "huge_time_ref_level": (
        "convergence",
        _with(SMALL_CONVERGENCE, axis="time", space_level=3, ref_level=62,
              time_exp=_DROP),
    ),
    "huge_bm_m_max": ("holder", {"bm_m_max": 62}),
    "verify_huge_steps": ("verify", {"n_paths": 1000, "steps": 2**62}),
    "verify_huge_n_paths": ("verify", {"n_paths": 2**62}),
    # json.load reads Infinity; quadratures of 2e15 and 2e13 nodes
    "infinite_k": ("simulate", _with(SMALL_SIMULATE, k=float("inf"))),
    "tiny_k": ("simulate", _with(SMALL_SIMULATE, k=1e-7)),
    "tiny_gamma": ("simulate", _with(SMALL_SIMULATE, gamma=1e-12)),
    # k**2 overflows, for a float and for an integer k; an integer past the
    # largest float is not a number
    "huge_k": ("simulate", _with(SMALL_SIMULATE, k=1e300)),
    "huge_integer_k": ("simulate", _with(SMALL_SIMULATE, k=10**400)),
    "huge_integer_gamma": (
        "convergence", _with(SMALL_CONVERGENCE, gammas=[0.5, 10**400])
    ),
    "huge_integer_p_value": ("verify", {"p_values": [2.0, 10**400]}),
    # path keys master_seed + i must lie in [0, 2^64): seeds 2^64 apart alias
    "negative_seed": ("simulate", _with(SMALL_SIMULATE, master_seed=-1)),
    "seed_2_64": ("verify", {"master_seed": 2**64}),
    "seed_above_the_range": (
        "convergence", _with(SMALL_CONVERGENCE, master_seed=2**64 - 2**20 + 1)
    ),
    "huge_holder_n_seeds": ("holder", {"n_seeds": 2**20 + 1}),
    # 1,995 pencil factors of about 203k entries each
    "pencil_factors_too_large": (
        "simulate", _with(SMALL_SIMULATE, dim=2, gamma=0.01, space_level=6, time_exp=1)
    ),
    "malformed_json": ("convergence", '{"dim": 1,'),
    "missing_file": ("simulate", None),
}

# the validation message of a case, where the exit code alone does not show
# which check rejected it
BAD_CONFIG_MESSAGES = {
    "gamma_and_gammas": "'gamma' and 'gammas' disagree",
    "misspelled_axis": """config key 'axis' must be "space" or "time", got 'spaec'""",
    "zero_p_values": "'p_values' must be a non-empty list of positive finite numbers",
    "snapshot_level_above_20": "'snapshot_level' must be an integer in [0, 20]",
    "huge_k": "k must be positive, with a finite square, got 1e+300",
    "huge_integer_k": "config key 'k' must be a finite number, got 1000",
    "huge_integer_gamma": "'gammas' must be a non-empty list of finite numbers",
    "huge_integer_p_value": "'p_values' must be a non-empty list of positive finite",
    "seed_2_64": "'master_seed' must be an integer in [0, 18446744073708503040]",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_validation_error(case, tmp_path, capsys):
    command, doc = BAD_CONFIGS[case]
    path = tmp_path / "config.json"
    if isinstance(doc, str):
        path.write_text(doc)
    elif doc is not None:
        path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert BAD_CONFIG_MESSAGES.get(case, "") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# configs that a run rejects, by the schema or by itself; the verify ones are
# rejected before its first write
REJECTED_RUNS = {
    "verify_zero_steps": ("verify", {"steps": 0}),
    "verify_zero_dim_q": ("verify", {"dim_q": 0}),
    "verify_negative_p": ("verify", {"p_values": [-1]}),
    "negative_time_exp": ("simulate", _with(SMALL_SIMULATE, time_exp=-1)),
    "zero_n_modes": ("simulate", _with(SMALL_SIMULATE, n_modes=0)),
    "negative_n_modes": ("simulate", _with(SMALL_SIMULATE, n_modes=-3)),
    "negative_space_level": ("simulate", _with(SMALL_SIMULATE, space_level=-1)),
    "2d_space_level_9": ("simulate", _with(SMALL_SIMULATE, dim=2, space_level=9)),
    "holder_m_min_above_m_max": (
        "holder",
        {"space_level": 2, "time_exp": 4, "m_max": 4, "m_min": 5, "n_seeds": 1,
         "n_modes": 10},
    ),
    "holder_three_levels": (
        "holder",
        {"space_level": 2, "time_exp": 4, "m_max": 4, "m_min": 2, "n_seeds": 1,
         "n_modes": 10},
    ),
    "holder_negative_m_min": (
        "holder",
        {"space_level": 2, "time_exp": 4, "m_max": 4, "m_min": -1, "n_seeds": 1,
         "n_modes": 10},
    ),
    "holder_three_bm_levels": (
        "holder",
        {"space_level": 2, "time_exp": 4, "m_max": 4, "m_min": 1, "n_seeds": 1,
         "n_modes": 10, "bm_m_min": 9, "bm_m_max": 10},
    ),
    # 1,995 level-6 pencil factors: the guard fires on the first, which the
    # check fetches before a dry run ends
    "holder_pencil_factors_beyond_the_guard": (
        "holder",
        {"dim": 2, "gamma": 0.01, "space_level": 6, "time_exp": 4, "m_max": 4,
         "m_min": 1, "n_seeds": 1, "n_modes": 10},
    ),
    # 4,097 snapshots of 16,385 values, just above 2**26
    "holder_snapshots_beyond_the_guard": (
        "holder",
        {"space_level": 14, "time_exp": 12, "m_max": 12, "n_seeds": 1, "n_modes": 10},
    ),
    # a study's own checks: its runs, its plan, its mesh levels, its quadrature
    "convergence_dim_3": ("convergence", _with(SMALL_CONVERGENCE, dim=3)),
    "convergence_negative_gamma": (
        "convergence", _with(SMALL_CONVERGENCE, gammas=[-0.9])
    ),
    "convergence_unordered_levels": (
        "convergence", _with(SMALL_CONVERGENCE, coarse_levels=[3, 2, 4])
    ),
    "convergence_repeated_level": (
        "convergence", _with(SMALL_CONVERGENCE, coarse_levels=[2, 2, 3])
    ),
    "convergence_too_many_nodes": ("convergence", _with(SMALL_CONVERGENCE, k=0.001)),
    # each repeat would run the same study again and write its rows twice
    "convergence_repeated_gamma": (
        "convergence", _with(SMALL_CONVERGENCE, gammas=[0.5, 0.5])
    ),
    "convergence_time_study_at_level_15": (
        "convergence",
        _with(SMALL_CONVERGENCE, axis="time", space_level=15, time_exp=_DROP),
    ),
    # ref_level sets the resolution on the study's axis, so a key for it is an error
    "convergence_time_study_with_time_exp": (
        "convergence",
        {"dim": 1, "gammas": [0.5], "axis": "time", "coarse_levels": [2, 3, 4],
         "ref_level": 6, "time_exp": 9, "space_level": 3, "n_paths": 1,
         "master_seed": 1},
    ),
    "convergence_space_study_with_space_level": (
        "convergence", _with(SMALL_CONVERGENCE, space_level=3)
    ),
    # 2**40 seeds would be laid out before the first path
    "convergence_n_paths_beyond_the_guard": (
        "convergence", _with(SMALL_CONVERGENCE, n_paths=2**40)
    ),
    # 1,995 level-6 pencil factors: the guard fires on the first, which the
    # check fetches before a dry run ends
    "convergence_pencil_factors_beyond_the_guard": (
        "convergence",
        {"dim": 2, "gamma": 0.01, "axis": "space", "coarse_levels": [4, 5],
         "ref_level": 6, "time_exp": 1, "n_paths": 1, "master_seed": 1},
    ),
    # coarse time level -1 would run 2**-1 steps
    "convergence_negative_time_level": (
        "convergence",
        {"dim": 1, "axis": "time", "gammas": [0.5], "coarse_levels": [-1, 1, 2],
         "ref_level": 4, "space_level": 2, "n_paths": 1, "master_seed": 1},
    ),
    "simulate_pencil_factors_beyond_the_guard": (
        "simulate", _with(SMALL_SIMULATE, dim=2, gamma=0.01, space_level=6, time_exp=1)
    ),
    # 2**20 + 1 snapshots of 16,385 values: 128 GiB
    "simulate_snapshots_beyond_the_guard": (
        "simulate",
        {"dim": 1, "gamma": 0.5, "space_level": 14, "time_exp": 20,
         "snapshot_level": 20, "mode": "final_time", "master_seed": 1},
    ),
}


# the validation message of a study's rejection, where the exit code alone does
# not show which check rejected it
REJECTED_RUN_MESSAGES = {
    "convergence_time_study_at_level_15": "level 15 exceeds guard 14",
    "convergence_time_study_with_time_exp": "axis 'time' sets 'time_exp' from",
    "convergence_space_study_with_space_level": "axis 'space' sets 'space_level' from",
    "convergence_n_paths_beyond_the_guard": "'n_paths' must be an integer in [1, 1048576]",
    "convergence_repeated_gamma": "repeats a gamma",
    "convergence_pencil_factors_beyond_the_guard": "1995 pencil factors of",
    "holder_pencil_factors_beyond_the_guard": "1995 pencil factors of",
    "simulate_pencil_factors_beyond_the_guard": "1995 pencil factors of",
    "holder_snapshots_beyond_the_guard": "4097 snapshots of 16385 values exceed",
    "simulate_snapshots_beyond_the_guard": "1048577 snapshots of 16385 values exceed",
}


@pytest.mark.parametrize("case", sorted(REJECTED_RUNS))
def test_rejected_run_creates_no_out_dir(case, tmp_path):
    command, doc = REJECTED_RUNS[case]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "case", sorted(case for case in REJECTED_RUNS if case.startswith("holder"))
)
def test_holder_checks_levels_before_the_first_path(case, tmp_path, monkeypatch):
    def path_ran(*args, **kwargs):
        raise NumericalError("a path ran")

    monkeypatch.setattr(cli, "_run_path", path_ran)
    command, doc = REJECTED_RUNS[case]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("case", sorted(REJECTED_RUNS))
def test_dry_run_rejects_what_the_study_rejects(case, tmp_path, capsys):
    command, doc = REJECTED_RUNS[case]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert REJECTED_RUN_MESSAGES.get(case, "") in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,doc",
    [
        ("simulate", _with(SMALL_SIMULATE, dim=2)),
        ("simulate", _with(SMALL_SIMULATE, dim=2, mode="final_time", snapshot_level=2)),
        ("holder", {"dim": 2, "gamma": 0.5, "space_level": 2, "time_exp": 4,
                    "m_max": 4, "m_min": 1, "n_seeds": 2, "n_modes": 10}),
    ],
    ids=["simulate_per_step", "simulate_final_time", "holder"],
)
def test_a_2d_run_factors_each_node_once(command, doc, tmp_path, monkeypatch):
    # the check fetches the first node's factor on the operators the run takes
    nodes = []
    shift_factor = fracpow._shift_factor

    def counted(ops, y):
        nodes.append(y)
        return shift_factor(ops, y)

    monkeypatch.setattr(fracpow, "_shift_factor", counted)
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert nodes == make_spec(0.5, 0.5).nodes.tolist()  # 81, in node order


def test_the_highest_seed_keeps_every_path_key_below_2_64(tmp_path, capsys):
    # keys 2^64 - 2^20 .. 2^64 - 1 of the most paths a study may run
    doc = _with(SMALL_CONVERGENCE, master_seed=2**64 - 2**20, n_paths=2**20)
    assert main(["convergence", "--config", write_config(tmp_path, doc), "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["master_seed"] == 2**64 - 2**20


def test_bad_config_exits_1_without_traceback(tmp_path):
    cfg = write_config(tmp_path, _with(SMALL_SIMULATE, dim=True))
    proc = run_cli("simulate", "--config", cfg)
    assert proc.returncode == 1
    assert proc.stderr.startswith("validation error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("levels, outputs", [
    ([2, 3], ["errors.csv", "summary.csv", "convergence.svg"]),
    # coarse level = reference level: every error is 0, so there is no plot
    ([3], ["errors.csv", "summary.csv"]),
], ids=["plotted", "saturated"])
def test_study_writes_what_its_manifest_lists(levels, outputs, tmp_path):
    doc = _with(SMALL_CONVERGENCE, coarse_levels=levels, ref_level=3, time_exp=3,
                n_paths=1)
    out = tmp_path / "o"
    proc = run_cli("convergence", "--config", write_config(tmp_path, doc), "--out", str(out))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


def test_package_root_binds_only_its_version():
    # every name is imported from its module: spdelab.<module>.<name>
    code = ("import sys, spdelab; print(sorted(n for n in vars(spdelab) if n[0] != '_'),"
            " sorted(m for m in sys.modules if m.startswith('spdelab.')))")
    src = str(Path(spdelab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[] []\n"


def test_command_tables_agree():
    assert set(cli.COMMANDS) == set(cli.SCHEMAS)
    parser = cli.build_parser()
    for name in [*cli.SCHEMAS, "assemble-check"]:
        assert parser.parse_args([name]).command == name
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-command"])


# a smoke-size config per config command
SMOKE_CONFIGS = {
    "convergence": SMALL_CONVERGENCE,
    "verify": {"n_paths": 10, "steps": 4},
    "holder": {"space_level": 2, "time_exp": 4, "m_max": 4, "m_min": 1,
               "bm_m_max": 4, "bm_m_min": 1, "n_seeds": 1, "n_modes": 10},
    "simulate": SMALL_SIMULATE,
}


@pytest.mark.parametrize("command", sorted(SMOKE_CONFIGS))
def test_manifest_records_the_run_facts(command, tmp_path):
    cfg = write_config(tmp_path, SMOKE_CONFIGS[command])
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / cli.COMMANDS[command][2]).read_text())
    assert manifest["command"] == command
    assert SMOKE_CONFIGS[command].items() <= manifest["config"].items()
    assert manifest["stream_tags"] == cli.STREAM_TAGS
    assert manifest["wall_time_s"] > 0
    assert manifest["versions"] == {
        "spdelab": spdelab.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    assert 1 < manifest["peak_rss_mb"] < 4096


def test_readme_gives_every_config_default():
    # each key with a default is named with it in parentheses, `key` (default,
    # ...), in the text of verify, holder and simulate, and with a comment,
    # "key": ... // default ..., in the documented convergence config
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    given = {"convergence": dict(re.findall(r'^\s*"(\w+)":.*// default ([^,:]+)', block,
                                            re.M))}
    for command in ("verify", "holder", "simulate"):
        (text,) = re.findall(rf"^`{command}`(?: \(every key optional\))?:(.*?)\n\n", readme,
                             re.S | re.M)
        given[command] = dict(re.findall(r"`(\w+)`\s+\((\[[^\]]*\]|[^,)]+)", text))
    for command, schema in cli.SCHEMAS.items():
        for key, (_type, default) in schema.items():
            if default is None or default is cli.REQUIRED:  # out_dir stays absent
                continue
            assert key in given[command], (command, key)
            # through JSON, as a config file gives it: a tuple reads as a list
            expected = json.loads(json.dumps(default))
            assert json.loads(given[command][key]) == expected, (command, key)


def test_readme_names_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    for command, schema in cli.SCHEMAS.items():
        for key in schema:
            assert f"`{key}`" in readme or f'"{key}"' in readme, (command, key)
    # the documented convergence config, the one jsonc block
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    keys = re.findall(r'^\s*"(\w+)":', block, re.M)
    assert "dim" in keys
    assert set(keys) <= set(cli.SCHEMAS["convergence"])


# the suffixes of the file names that README puts in backticks, as `name.suffix`
FILE_SUFFIXES = {"csv", "json", "log", "md", "py", "svg", "toml", "txt"}


def test_readme_names_resolve():
    # every backticked `module.NAME`, a call or an index after it allowed, is
    # an attribute of that spdelab module, so a deleted name cannot stay
    # documented
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    names = set()
    for span in re.findall(r"`([^`\n]+)`", readme):
        name = re.fullmatch(r"([a-z_]\w*(?:\.[A-Za-z_]\w*)+)(\(.*\)|\[.*\])?", span)
        if name and name[1].rsplit(".", 1)[1] not in FILE_SUFFIXES:
            names.add(name[1])
    assert {"fracpow.COLOR_COLUMNS", "cli.SCHEMAS", "spdelab.exceptions"} <= names
    for name in sorted(names):
        module, *attrs = name.removeprefix("spdelab.").split(".")
        obj = importlib.import_module(f"spdelab.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def test_manifest_config_round_trip(tmp_path):
    # the one-gamma form too, whose manifest records both gamma and gammas
    one_gamma = _with(SMALL_CONVERGENCE, gammas=_DROP, gamma=0.5)
    for i, doc in enumerate([SMALL_CONVERGENCE, one_gamma]):
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(["convergence", "--config", cfg, "--out", str(out_a)]) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        replay = write_config(tmp_path, manifest["config"], name="replay.json")
        assert main(["convergence", "--config", replay, "--out", str(out_b)]) == 0
        assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()


def _values(path):
    return np.array([float(ln) for ln in path.read_text().splitlines()
                     if not ln.startswith("#")])


# non-default gamma, k and n_modes, so every value changes if one of them
# does not reach the run
SCHEME = {"dim": 1, "gamma": 0.6, "k": 0.7, "n_modes": 40, "space_level": 3}


@pytest.mark.parametrize(
    "mode,run", [("per_step", evolve), ("final_time", evolve_fast)]
)
def test_simulate_runs_its_scheme_config(mode, run, tmp_path):
    doc = {**SCHEME, "time_exp": 6, "master_seed": 5, "mode": mode,
           "snapshot_level": 3}
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    config = SchemeConfig(dim=1, gamma=0.6, space_level=3, time_steps=64,
                          master_seed=5, k=0.7, mode=mode, n_modes=40)
    stream = NoiseStream(seed=5, fine_level=3, fine_steps=64)
    state = run(config, stream, sample_driver(5, 40), snapshot_level=3)
    np.testing.assert_array_equal(_values(tmp_path / "final_state.txt"), state.alpha)
    np.testing.assert_array_equal(
        _values(tmp_path / "snapshots.txt"), state.snapshots.ravel()
    )


def test_holder_runs_its_scheme_config(tmp_path):
    doc = {**SCHEME, "time_exp": 6, "m_max": 5, "m_min": 1, "bm_m_max": 6,
           "bm_m_min": 2, "n_seeds": 2, "master_seed": 8}
    assert main(["holder", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    ops = assemble(build_mesh(1, 3))
    expected = []
    for seed in (8, 9):
        config = SchemeConfig(dim=1, gamma=0.6, space_level=3, time_steps=64,
                              master_seed=seed, k=0.7, mode="final_time", n_modes=40)
        stream = NoiseStream(seed=seed, fine_level=3, fine_steps=64)
        state = evolve_fast(config, stream, sample_driver(seed, 40), ops=ops,
                            snapshot_level=5)
        spde = l0.holder_exponent(state.snapshots, 1, norm=ops.m_norm)
        bm = l0.holder_exponent(l0.brownian_path(seed, 6), 2)
        expected += [f"spde,{seed},{spde.exponent!r}",
                     f"brownian,{seed},{bm.exponent!r}"]
    assert (tmp_path / "holder.csv").read_text().splitlines()[1:] == expected
