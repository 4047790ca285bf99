"""Command-line front end: experiment orchestration and artifact emission.

Commands
--------
assemble-check   run the closed-form operator oracles
convergence      coupled coarse-vs-reference rate study (CSV + SVG + manifest)
verify           Monte Carlo inequality and metric checks (CSV + alarm log)
holder           dyadic Hölder-exponent estimates for solution paths
simulate         one path of the scheme, final state dumped as text

Configuration is a JSON document checked against the command's table in
``SCHEMAS`` (see README), which rejects unknown keys; a flag overrides the
config key that is its argparse ``dest``.  ``run_command`` runs every config
command of ``COMMANDS`` and writes its manifest; its check returns what the
run takes, after all of the run's guards (``stepper.checked_ops``).  Exit
codes: 0 success, 1 validation failure or malformed command line, 2
numerical failure, 3 statistical alarm.  Runs are reproducible from their
manifest: the same config and master seed yield byte-identical CSV payloads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, l0, rng
from .checks import assembly_checks
from .convergence import StudyPlan, _cached_ops, convergence_study, plan_study
from .exceptions import DomainError, NumericalError, StatisticalAlarm
from .mesh import MAX_MODES, MAX_PATHS, MAX_TIME_EXP, FemOperators
from .stepper import MODES, SchemeConfig, checked_ops, path_inputs
from .svgplot import GuideLine, Series, loglog_svg

STREAM_TAGS = {
    "wiener": f"{rng.WIENER_TAG:#x}",
    "driver": f"{rng.DRIVER_TAG:#x}",
    "analysis_wiener": f"{rng.L0_WIENER_TAG:#x}",
    "analysis_mark": f"{rng.L0_MARK_TAG:#x}",
    "verify_dp": f"{rng.DP_SAMPLE_TAG:#x}",
}
VERSIONS = {
    "spdelab": __version__,
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "python": platform.python_version(),
}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_ALARM = 3

REQUIRED = object()  # schema default of a key that must be given


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    # json.load reads Infinity and NaN as floats, and integers of any size
    return (_is_int(val) or isinstance(val, float)) and abs(val) <= sys.float_info.max


def _list_of(check):
    return lambda val: isinstance(val, list) and len(val) > 0 and all(map(check, val))


def _int_in(lo: int, hi: int):
    return (lambda val: _is_int(val) and lo <= val <= hi, f"an integer in [{lo}, {hi}]")


# (check, description) per value type; JSON true/false is never a number
INT = (_is_int, "an integer")
COUNT = (lambda val: _is_int(val) and val >= 1, "a positive integer")
NUMBER = (_is_number, "a finite number")
STR = (lambda val: isinstance(val, str), "a string")
INTS = (_list_of(_is_int), "a non-empty list of integers")
NUMBERS = (_list_of(_is_number), "a non-empty list of finite numbers")
POSITIVES = (_list_of(lambda val: _is_number(val) and val > 0),
             "a non-empty list of positive finite numbers")
AXIS = (lambda val: val in ("space", "time"), '"space" or "time"')
TIME_EXP = _int_in(0, MAX_TIME_EXP)  # a dyadic time grid of 2**val steps
N_MODES = _int_in(1, MAX_MODES)
N_PATHS = _int_in(1, MAX_PATHS)
SEED = _int_in(0, 2**64 - MAX_PATHS)  # path keys seed + i, i < MAX_PATHS, < 2^64

# SchemeConfig field -> its default; a config key of that name sets the field
RUN_FIELDS = {f.name: f.default for f in dataclasses.fields(SchemeConfig)}

# command -> config key -> (type, default); a None default marks an optional
# key that stays absent.  Keys outside the table are rejected.
SCHEMAS = {
    "convergence": {
        "dim": (INT, REQUIRED),
        "axis": (AXIS, REQUIRED),
        "gamma": (NUMBER, None),  # one of gamma / gammas is required
        "gammas": (NUMBERS, None),
        "coarse_levels": (INTS, REQUIRED),
        # a time exponent (axis "time") or a mesh level, which MAX_LEVEL bounds
        "ref_level": (TIME_EXP, REQUIRED),
        "time_exp": (TIME_EXP, None),  # axis "space" only, where it is required
        "space_level": (INT, None),  # axis "time" only, where it is required
        "n_paths": (N_PATHS, REQUIRED),
        "master_seed": (SEED, REQUIRED),
        "k": (NUMBER, RUN_FIELDS["k"]),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "n_workers": (COUNT, 1),
    },
    "verify": {
        "n_paths": (COUNT, 100_000),
        "master_seed": (SEED, 1),
        "p_values": (POSITIVES, (1.0, 2.0, 4.0)),
        "steps": (COUNT, 64),
        "dim_q": (COUNT, 1),
    },
    "holder": {
        "dim": (INT, 1),
        "gamma": (NUMBER, 0.75),
        "k": (NUMBER, RUN_FIELDS["k"]),
        "space_level": (INT, 5),
        "time_exp": (TIME_EXP, 13),  # must be >= m_max
        "m_max": (TIME_EXP, 13),
        "m_min": (INT, 6),
        "bm_m_max": (TIME_EXP, 16),
        "bm_m_min": (INT, 8),
        "n_seeds": (N_PATHS, 20),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "master_seed": (SEED, 3),
    },
    "simulate": {
        "dim": (INT, REQUIRED),
        "gamma": (NUMBER, REQUIRED),
        "space_level": (INT, REQUIRED),
        "time_exp": (TIME_EXP, REQUIRED),
        "master_seed": (SEED, REQUIRED),
        "k": (NUMBER, RUN_FIELDS["k"]),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "mode": (STR, RUN_FIELDS["mode"]),
        "snapshot_level": (TIME_EXP, None),
    },
}
for _schema in SCHEMAS.values():  # every command writes into out_dir, its last key
    _schema["out_dir"] = (STR, None)


def _load_config(args) -> dict:
    """The command's config file with flags applied, checked against its schema."""
    schema = SCHEMAS[args.command]
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise DomainError("config root must be a JSON object")
    for key, val in vars(args).items():  # a flag sets the config key of its dest
        if key in schema and val is not None:
            cfg[key] = val
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise DomainError(f"unknown config keys {unknown}; known: {sorted(schema)}")
    for key, ((check, what), default) in schema.items():
        if key not in cfg:
            if default is REQUIRED:
                raise DomainError(f"config missing required key {key!r} ({what})")
            if default is not None:
                cfg[key] = default
        elif not check(cfg[key]):
            raise DomainError(f"config key {key!r} must be {what}, got {cfg[key]!r}")
    return cfg


def _scheme(cfg: dict, **fields) -> SchemeConfig:
    """The run that the validated ``cfg`` describes, with ``fields`` set on top."""
    keys = {key: cfg[key] for key in RUN_FIELDS if key in cfg}
    if "time_exp" in cfg:  # the one key that is not a field of its name
        keys["time_steps"] = 2 ** cfg["time_exp"]
    return SchemeConfig(**{**keys, **fields})


def _run_path(config: SchemeConfig, seed: int, **kw):
    """One path of ``config`` on the noise and driver of ``seed``."""
    return MODES[config.mode](config, *path_inputs(config, seed), **kw)


def _check_out_dir(out: Path) -> None:
    """Raise ``DomainError`` unless the nearest existing path among ``out`` and
    its parents is a writable directory, in which a run can create ``out``."""
    for base in (out, *out.parents):
        try:
            base.lstat()
        except FileNotFoundError:
            continue  # not there yet: its nearest existing parent decides
        except (OSError, ValueError):  # a regular file on the way, a NUL byte
            break
        if base.is_dir() and os.access(base, os.W_OK):
            return
        break
    raise DomainError(f"out_dir {str(out)!r} cannot be a writable directory")


def _create(path: Path) -> Path:
    """``path``, after creating the directory it goes in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(_create(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_assemble_check(args) -> int:
    cases = [(1, 3), (2, 2)]
    if args.dim is not None:
        cases = [(args.dim, 3 if args.level is None else args.level)]
    elif args.level is not None:
        raise DomainError("--level needs --dim")
    failed = False
    for dim, level in cases:
        results = assembly_checks(dim, level, corrupt=args.inject_corruption)
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] dim={dim} level={level} {res.name}: {res.detail}")
            failed |= not res.passed
    return EXIT_VALIDATION if failed else EXIT_OK


def check_convergence(cfg: dict) -> list[StudyPlan]:
    """The plan of each gamma's study, after every check that its run makes
    before the first path and the pencil-memory guard of that path."""
    if "gamma" not in cfg and "gammas" not in cfg:
        raise DomainError("config needs 'gamma' (a number) or 'gammas'")
    # a manifest's config records both, as [gamma] == gammas
    if "gamma" in cfg and cfg.setdefault("gammas", [cfg["gamma"]]) != [cfg["gamma"]]:
        raise DomainError("config 'gamma' and 'gammas' disagree; give one of them")
    if len(set(cfg["gammas"])) < len(cfg["gammas"]):  # each would run the same study
        raise DomainError(f"config 'gammas' {cfg['gammas']} repeats a gamma")
    # a study's reference sets the resolution of its axis from ref_level
    need, own = ("time_exp", "space_level")
    ref = {"space_level": cfg["ref_level"]}
    if cfg["axis"] == "time":
        need, own = own, need
        ref = {"time_steps": 2 ** cfg["ref_level"]}
    if need not in cfg:
        raise DomainError(f"axis {cfg['axis']!r} needs config key {need!r}")
    if own in cfg:
        raise DomainError(f"axis {cfg['axis']!r} sets {own!r} from 'ref_level'; drop it")
    plans = [plan_study(_scheme(cfg, gamma=float(gamma), **ref), cfg["axis"],
                        cfg["coarse_levels"], cfg["ref_level"]) for gamma in cfg["gammas"]]
    for plan in plans:  # on the operators that the study's paths take
        checked_ops(plan.ref, ops=_cached_ops(plan.ref.dim, plan.ref.space_level))
    return plans


def cmd_convergence(cfg: dict, plans: list[StudyPlan], out: Path) -> tuple[int, dict]:
    axis, dim = cfg["axis"], cfg["dim"]
    reports = convergence_study(plans, cfg["n_paths"], cfg["n_workers"])

    _write_csv(
        out / "errors.csv",
        ["axis", "gamma", "resolution", "path_seed", "error"],
        [(axis, rep.plan.ref.gamma, lv.resolution, seed, err)  # one per run, in fit order
         for rep in reports for lv in rep.levels
         for seed, err in zip(rep.seeds, lv.errors)],
    )
    _write_csv(
        out / "summary.csv",
        ["axis", "dim", "gamma", "fitted_rate", "theoretical_rate", "n_paths", "n_levels"],
        [(axis, dim, rep.plan.ref.gamma,
          "" if rep.fitted_rate is None else rep.fitted_rate,
          rep.theoretical_rate, len(rep.seeds), len(rep.levels)) for rep in reports],
    )

    series, guides = [], []
    for rep in reports:
        xs = [lv.resolution for lv in rep.levels if not lv.saturated]
        ys = [lv.mean_error for lv in rep.levels if not lv.saturated]
        if not xs:
            continue
        series.append(Series(label=f"gamma = {rep.plan.ref.gamma:g}", x=xs, y=ys))
        guides.append(
            GuideLine(
                label=f"rate {rep.theoretical_rate:g}",
                slope=rep.theoretical_rate,
                anchor_x=xs[0],
                anchor_y=ys[0] * 1.4,
            )
        )
    outputs = ["errors.csv", "summary.csv"]
    if series:  # empty when every level of every gamma is saturated
        svg = loglog_svg(
            series,
            guides,
            title=f"Relative pathwise error at t = 1 ({axis}, d = {dim})",
            xlabel="mesh size h" if axis == "space" else "time step",
            ylabel="relative error",
        )
        (out / "convergence.svg").write_text(svg, encoding="utf-8")
        outputs.append("convergence.svg")

    for rep in reports:
        fitted = "n/a" if rep.fitted_rate is None else f"{rep.fitted_rate:.3f}"
        print(
            f"{axis} d={dim} gamma={rep.plan.ref.gamma:g}: fitted rate {fitted}, "
            f"theoretical {rep.theoretical_rate:g}"
        )
    return EXIT_OK, {"seeds": list(reports[0].seeds), "outputs": outputs}


def check_verify(cfg: dict) -> int:
    """The Monte Carlo path count of every batch, checked for its largest."""
    mc_paths = max(cfg["n_paths"], l0.MIN_PATHS)
    # the largest first batches: the BDG families, and block sums of >= 64 steps
    l0.check_draws(mc_paths, max(cfg["steps"], 64), cfg["dim_q"])
    return mc_paths


def cmd_verify(cfg: dict, mc_paths: int, out: Path) -> tuple[int, dict]:
    seed = cfg["master_seed"]
    n_paths = cfg["n_paths"]
    enforce = n_paths >= l0.MIN_PATHS
    if not enforce:
        print(
            f"warning: {n_paths} paths gives too little statistical power; "
            f"estimators run at the {l0.MIN_PATHS}-path minimum and "
            "pass/fail is suppressed"
        )

    failures: list[str] = []
    alarms: list[str] = []
    metric_rows: list[tuple] = []

    def outcome(ratios, *args):
        # ratios(*args), or the alarm it raises
        try:
            return ratios(*args)
        except StatisticalAlarm as exc:
            return exc

    def or_nan(label: str, ratios, j: int | None = None) -> float:
        # ratios (or ratios[j]), or NaN and an alarms.log line in place of an alarm
        if isinstance(ratios, StatisticalAlarm):
            alarms.append(f"{label}: {ratios}")
            return float("nan")
        return ratios if j is None else ratios[j]

    # metric spot checks (exact arithmetic)
    spot = l0.dp_metric(np.array([0.5, 0.5]), 2.0)
    metric_rows.append(("dp_spot_half", 2.0, spot))
    if abs(spot - 0.5) > 1e-12:
        failures.append("dp_metric spot value")
    # convergence in probability: x_n = |N(0,1)| / n
    gen = rng.keyed_generator(seed, rng.DP_SAMPLE_TAG)
    base_samples = np.abs(gen.standard_normal(10_000))
    dps = [l0.dp_metric(base_samples / n, 1.0) for n in (1, 10, 100)]
    for n, val in zip((1, 10, 100), dps):
        metric_rows.append(("dp_convergence_in_probability", float(n), val))
    if not (dps[0] > dps[1] > dps[2]):
        failures.append("dp_metric monotone trend")

    # Itô isometry for the unit integrand
    unit = l0.ElementaryIntegrand(
        dim_q=1, partition=np.array([0.0, 1.0]), family="deterministic_const"
    )
    var = float(np.var(l0.ito_integral_elementary(unit, seed, mc_paths).terminal[:, 0]))
    metric_rows.append(("ito_isometry_variance", 1.0, var))
    # 5 standard deviations, sqrt(2 / n) each, of the variance estimate; 3% from
    # 55,556 paths on
    band = max(0.03, 5 * math.sqrt(2 / mc_paths))
    if enforce and abs(var - 1.0) > band:
        failures.append(f"isometry variance {var:.4f} off by more than {band:.1%}")
    _write_csv(out / "verify_metric.csv", ["check", "parameter", "value"], metric_rows)

    # truncated BDG ratios: finite and stable across independent seeds
    partition = np.linspace(0.0, 1.0, cfg["steps"] + 1)
    bdg_rows: list[tuple] = []
    for family in l0.FAMILIES:
        phi = l0.ElementaryIntegrand(
            dim_q=cfg["dim_q"], partition=partition, family=family
        )
        # one batch per seed serves every p; an alarm of a batch stands for each p
        batches = [outcome(l0.bdg_ratios, phi, [float(p) for p in cfg["p_values"]],
                           mc_paths, seed + 101 * i) for i in range(2)]
        for j, p in enumerate(cfg["p_values"]):
            ratios = [or_nan(f"bdg_ratio {family} p={p}", b, j) for b in batches]
            spread = abs(ratios[0] - ratios[1]) / max(abs(r) for r in ratios)
            bdg_rows.append((family, p, ratios[0], ratios[1], spread))
            if enforce and not all(np.isfinite(ratios)):
                failures.append(f"bdg_ratio not finite for {family}, p={p}")
            elif enforce and spread > 0.10:
                failures.append(
                    f"bdg_ratio unstable for {family}, p={p}: spread {spread:.3f}"
                )
    # summed inequality over disjoint blocks
    for m in (1, 4, 16):
        phis = l0.block_integrands("wiener_functional", m, max(4, cfg["steps"] // m))
        ratio = or_nan(f"bdg_sum_ratio m={m}",
                       outcome(l0.bdg_sum_ratio, phis, 2.0, mc_paths, seed))
        bdg_rows.append(("block_sum", float(m), ratio, ratio, 0.0))
        if enforce and not np.isfinite(ratio):
            failures.append(f"bdg_sum_ratio not finite for m={m}")
    _write_csv(
        out / "verify_bdg.csv",
        ["family", "p", "ratio_seed_a", "ratio_seed_b", "relative_spread"],
        bdg_rows,
    )

    with open(out / "alarms.log", "w", encoding="utf-8") as fh:
        for line in alarms:
            fh.write(line + "\n")

    facts = {"failures": failures, "alarms": alarms}
    if alarms:
        return EXIT_ALARM, facts
    if enforce and failures:
        for f in failures:
            print(f"FAIL: {f}")
        return EXIT_VALIDATION, facts
    print("verify: all checks passed" if enforce else "verify: completed (informational)")
    return EXIT_OK, facts


def check_holder(cfg: dict) -> tuple[SchemeConfig, FemOperators]:
    """The run of every seed and its checked operators (``checked_ops``: its
    snapshots need time_exp >= m_max), after the checks of its dyadic levels."""
    for lo, hi in (("m_min", "m_max"), ("bm_m_min", "bm_m_max")):
        if not 0 <= cfg[lo] <= cfg[hi] - 3:
            raise DomainError(
                f"{lo} must lie in [0, {hi} - 3] to span 4 dyadic levels, "
                f"got {lo} {cfg[lo]} and {hi} {cfg[hi]}"
            )
    config = _scheme(cfg, mode="final_time")
    return config, checked_ops(config, cfg["m_max"])


def cmd_holder(cfg: dict, checked: tuple, out: Path) -> tuple[int, dict]:
    config, ops = checked
    rows: list[tuple] = []
    spde_exps, bm_exps = [], []
    for i in range(cfg["n_seeds"]):
        seed = cfg["master_seed"] + i
        state = _run_path(config, seed, ops=ops, snapshot_level=cfg["m_max"])
        est = l0.holder_exponent(state.snapshots, cfg["m_min"], norm=ops.m_norm)
        rows.append(("spde", seed, est.exponent))
        spde_exps.append(est.exponent)
        bm = l0.brownian_path(seed, cfg["bm_m_max"])
        est_bm = l0.holder_exponent(bm, cfg["bm_m_min"])
        rows.append(("brownian", seed, est_bm.exponent))
        bm_exps.append(est_bm.exponent)
    _write_csv(out / "holder.csv", ["kind", "seed", "exponent"], rows)
    print(
        f"holder: spde mean {np.mean(spde_exps):.3f}, "
        f"brownian mean {np.mean(bm_exps):.3f} over {cfg['n_seeds']} seeds"
    )
    return EXIT_OK, {}


def check_simulate(cfg: dict) -> tuple[SchemeConfig, FemOperators]:
    """The run and its checked operators (``checked_ops``)."""
    config = _scheme(cfg)
    return config, checked_ops(config, cfg.get("snapshot_level"))


def cmd_simulate(cfg: dict, checked: tuple, out: Path) -> tuple[int, dict]:
    config, ops = checked
    state = _run_path(config, config.master_seed, ops=ops,
                      snapshot_level=cfg.get("snapshot_level"))
    with open(_create(out / "final_state.txt"), "w", encoding="utf-8") as fh:
        fh.write("%.17g\n" * state.alpha.size % tuple(state.alpha.tolist()))
    outputs = ["final_state.txt"]
    if state.snapshots is not None:
        dt_snap = 1.0 / (state.snapshots.shape[0] - 1)
        lines = "# t = %.17g\n" + "%.17g\n" * state.snapshots.shape[1]
        with open(out / "snapshots.txt", "w", encoding="utf-8") as fh:
            for j, snap in enumerate(state.snapshots):  # one format call per snapshot
                fh.write(lines % (j * dt_snap, *snap.tolist()))
        outputs.append("snapshots.txt")
    print(f"simulate: wrote {len(state.alpha)} nodal values")
    return EXIT_OK, {"outputs": outputs}


# command -> (check(cfg), returning what the run takes; run(cfg, checked, out),
# writing the payload and returning (exit code, manifest facts); manifest name)
COMMANDS = {
    "convergence": (check_convergence, cmd_convergence, "manifest.json"),
    "verify": (check_verify, cmd_verify, "verify_manifest.json"),
    "holder": (check_holder, cmd_holder, "holder_manifest.json"),
    "simulate": (check_simulate, cmd_simulate, "simulate_manifest.json"),
}


def run_command(args) -> int:
    """Load and check the config of a ``COMMANDS`` entry, run it, write its manifest."""
    check, run, manifest = COMMANDS[args.command]
    cfg = _load_config(args)
    checked = check(cfg)
    # created by the first write (_create), so a rejected run leaves nothing
    out = Path(cfg.get("out_dir", "."))
    _check_out_dir(out)
    if args.dry_run:
        print(json.dumps(cfg, indent=2))
        return EXIT_OK
    t0 = time.perf_counter()
    code, facts = run(cfg, checked, out)
    doc = {
        "command": args.command,
        "config": cfg,
        "stream_tags": STREAM_TAGS,
        **facts,
        "wall_time_s": time.perf_counter() - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": VERSIONS,
    }
    with open(_create(out / manifest), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")
    return code


class _Parser(argparse.ArgumentParser):  # usage errors exit 1, in subparsers too
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdelab",
        description="Numerical laboratory for a parabolic SPDE with fractional noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("assemble-check", help="run the operator oracles")
    p_check.add_argument("--dim", type=int, choices=(1, 2), default=None)
    p_check.add_argument("--level", type=int, default=None)  # 3 with --dim
    p_check.add_argument("--inject-corruption", action="store_true")
    p_check.set_defaults(func=cmd_assemble_check)

    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int)
        p.add_argument("--out", dest="out_dir", metavar="OUT", type=str)
        p.add_argument("--dry-run", action="store_true")
        if name == "convergence":
            p.add_argument("--workers", dest="n_workers", metavar="WORKERS", type=int)
            p.add_argument("--axis", metavar="{space,time}", type=str)
        if name == "verify":
            p.add_argument("--paths", dest="n_paths", metavar="PATHS", type=int)
        p.set_defaults(func=run_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StatisticalAlarm as exc:
        print(f"statistical alarm: {exc}", file=sys.stderr)
        return EXIT_ALARM


if __name__ == "__main__":
    sys.exit(main())
