"""Command-line front end: experiment orchestration and artifact emission.

Commands
--------
assemble-check   run the closed-form operator oracles
convergence      coupled coarse-vs-reference rate study (CSV + SVG + manifest)
verify           Monte Carlo inequality and metric checks (CSV + alarm log)
holder           dyadic Hölder-exponent estimates for solution paths
simulate         one path of the scheme, final state dumped as text

Configuration is a JSON document checked against the command's table in
``SCHEMAS`` (see README), which rejects unknown keys; flags override file
values.  ``run_command`` runs every config command of ``COMMANDS`` and
writes its manifest.  Exit codes: 0 success, 1 validation failure, 2
numerical failure, 3 statistical alarm.  Runs are reproducible from their
manifest: the same config and master seed yield byte-identical CSV payloads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, l0
from .checks import assembly_checks
from .convergence import convergence_study
from .driver import sample_driver
from .exceptions import (
    CapacityError,
    DomainError,
    FactorizationError,
    NumericalError,
    SpdeLabError,
    StatisticalAlarm,
)
from .mesh import MAX_MODES, MAX_TIME_EXP, assemble, build_mesh
from .noise import NoiseStream
from .rng import DRIVER_TAG, L0_MARK_TAG, L0_WIENER_TAG, WIENER_TAG, keyed_generator
from .stepper import MODES, SchemeConfig
from .svgplot import GuideLine, Series, loglog_svg

STREAM_TAGS = {
    "wiener": f"{WIENER_TAG:#x}",
    "driver": f"{DRIVER_TAG:#x}",
    "analysis_wiener": f"{L0_WIENER_TAG:#x}",
    "analysis_mark": f"{L0_MARK_TAG:#x}",
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
    # json.load reads Infinity and NaN as floats
    return _is_int(val) or (isinstance(val, float) and math.isfinite(val))


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
TIME_EXP = _int_in(0, MAX_TIME_EXP)  # a dyadic time grid of 2**val steps
N_MODES = _int_in(1, MAX_MODES)

# SchemeConfig field -> its default; a config key of that name sets the field
RUN_FIELDS = {f.name: f.default for f in dataclasses.fields(SchemeConfig)}

# command -> config key -> (type, default); a None default marks an optional
# key that stays absent.  Keys outside the table are rejected.
SCHEMAS = {
    "convergence": {
        "dim": (INT, REQUIRED),
        "axis": (STR, REQUIRED),
        "gamma": (NUMBER, None),  # one of gamma / gammas is required
        "gammas": (NUMBERS, None),
        "coarse_levels": (INTS, REQUIRED),
        # a time exponent (axis "time") or a mesh level, which MAX_LEVEL bounds
        "ref_level": (TIME_EXP, REQUIRED),
        "time_exp": (TIME_EXP, None),  # required for axis "space"
        "space_level": (INT, None),  # required for axis "time"
        "n_paths": (COUNT, REQUIRED),
        "master_seed": (INT, REQUIRED),
        "k": (NUMBER, RUN_FIELDS["k"]),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "n_workers": (COUNT, 1),
        "out_dir": (STR, None),
    },
    "verify": {
        "n_paths": (COUNT, 100_000),
        "master_seed": (INT, 1),
        "p_values": (NUMBERS, (1.0, 2.0, 4.0)),
        "steps": (COUNT, 64),
        "dim_q": (COUNT, 1),
        "out_dir": (STR, None),
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
        "n_seeds": (COUNT, 20),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "master_seed": (INT, 3),
        "out_dir": (STR, None),
    },
    "simulate": {
        "dim": (INT, REQUIRED),
        "gamma": (NUMBER, REQUIRED),
        "space_level": (INT, REQUIRED),
        "time_exp": (TIME_EXP, REQUIRED),
        "master_seed": (INT, REQUIRED),
        "k": (NUMBER, RUN_FIELDS["k"]),
        "n_modes": (N_MODES, RUN_FIELDS["n_modes"]),
        "mode": (STR, RUN_FIELDS["mode"]),
        "snapshot_level": (TIME_EXP, None),
        "out_dir": (STR, None),
    },
}

# command-line flag (argparse dest) -> the config key it overrides
FLAG_KEYS = {
    "seed": "master_seed",
    "out": "out_dir",
    "workers": "n_workers",
    "axis": "axis",
    "paths": "n_paths",
}


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
    for dest, key in FLAG_KEYS.items():
        if getattr(args, dest, None) is not None:
            cfg[key] = getattr(args, dest)
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
    stream = NoiseStream(
        seed=seed, fine_level=config.space_level, fine_steps=config.time_steps
    )
    driver = sample_driver(seed, config.n_modes)
    return MODES[config.mode](config, stream, driver, **kw)


def _create(path: Path) -> Path:
    """``path``, after creating the directory it goes in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(_create(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _gnuplot_script(series: list, guides: list, xlabel: str) -> str:
    """Self-contained gnuplot script mirroring the SVG figure."""
    lines = [
        "set logscale xy",
        "set key bottom right",
        f'set xlabel "{xlabel}"',
        'set ylabel "relative error"',
    ]
    for i, s in enumerate(series):
        lines.append(f"$curve{i} << EOD")
        lines.extend(f"{x:.17g} {y:.17g}" for x, y in zip(s.x, s.y))
        lines.append("EOD")
    plots = [f'$curve{i} using 1:2 with linespoints title "{s.label}"'
             for i, s in enumerate(series)]
    for g in guides:
        scale = g.anchor_y / g.anchor_x**g.slope
        plots.append(
            f'{scale:.6g} * x**{g.slope:g} with lines dashtype 2 title "{g.label}"'
        )
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


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


def check_convergence(cfg: dict) -> None:
    if "gamma" not in cfg and "gammas" not in cfg:
        raise DomainError("config needs 'gamma' (a number) or 'gammas'")
    # a manifest's config records both, as [gamma] == gammas
    if "gamma" in cfg and cfg.setdefault("gammas", [cfg["gamma"]]) != [cfg["gamma"]]:
        raise DomainError("config 'gamma' and 'gammas' disagree; give one of them")
    need = "time_exp" if cfg["axis"] == "space" else "space_level"
    if need not in cfg:
        raise DomainError(f"axis {cfg['axis']!r} needs config key {need!r}")


def cmd_convergence(cfg: dict, out: Path) -> tuple[int, dict]:
    axis = cfg["axis"]
    # the reference resolution on the study's axis (plan_study sets it too)
    if axis == "space":
        ref = {"space_level": cfg["ref_level"]}
    else:
        ref = {"time_steps": 2 ** cfg["ref_level"]}
    reports = [
        convergence_study(
            _scheme(cfg, gamma=float(gamma), **ref),
            axis,
            list(cfg["coarse_levels"]),
            cfg["ref_level"],
            cfg["n_paths"],
            n_workers=cfg["n_workers"],
        )
        for gamma in cfg["gammas"]
    ]

    _write_csv(
        out / "errors.csv",
        ["axis", "gamma", "resolution", "path_seed", "error"],
        [(axis, rep.gamma, lv.resolution, seed, err)  # one per run, in fit-input order
         for rep in reports for lv in rep.levels
         for seed, err in zip(rep.seeds, lv.errors)],
    )
    _write_csv(
        out / "summary.csv",
        ["axis", "dim", "gamma", "fitted_rate", "theoretical_rate", "n_paths", "n_levels"],
        [(axis, rep.dim, rep.gamma,
          "" if rep.fitted_rate is None else rep.fitted_rate,
          rep.theoretical_rate, rep.n_paths, len(rep.levels)) for rep in reports],
    )

    series, guides = [], []
    for rep in reports:
        xs = [lv.resolution for lv in rep.levels if not lv.saturated]
        ys = [lv.mean_error for lv in rep.levels if not lv.saturated]
        if not xs:
            continue
        series.append(Series(label=f"gamma = {rep.gamma:g}", x=xs, y=ys))
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
        xlabel = "mesh size h" if axis == "space" else "time step"
        svg = loglog_svg(
            series,
            guides,
            title=f"Relative pathwise error at t = 1 ({axis}, d = {cfg['dim']})",
            xlabel=xlabel,
            ylabel="relative error",
        )
        (out / "convergence.svg").write_text(svg, encoding="utf-8")
        (out / "convergence.gp").write_text(_gnuplot_script(series, guides, xlabel))
        outputs += ["convergence.svg", "convergence.gp"]

    for rep in reports:
        fitted = "n/a" if rep.fitted_rate is None else f"{rep.fitted_rate:.3f}"
        print(
            f"{axis} d={rep.dim} gamma={rep.gamma:g}: fitted rate {fitted}, "
            f"theoretical {rep.theoretical_rate:g}"
        )
    return EXIT_OK, {"seeds": list(reports[0].seeds), "outputs": outputs}


def check_verify(cfg: dict) -> None:
    if not all(p > 0 for p in cfg["p_values"]):
        raise DomainError(f"p_values must be positive, got {cfg['p_values']}")


def cmd_verify(cfg: dict, out: Path) -> tuple[int, dict]:
    seed = cfg["master_seed"]
    n_paths = cfg["n_paths"]
    mc_paths = max(n_paths, l0.MIN_PATHS)
    # the largest first batches: the BDG families, and block sums of >= 64 steps
    l0.check_draws(mc_paths, max(cfg["steps"], 64), cfg["dim_q"])
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

    # metric spot checks (exact arithmetic)
    spot = l0.dp_metric(np.array([0.5, 0.5]), 2.0)
    metric_rows.append(("dp_spot_half", 2.0, spot))
    if abs(spot - 0.5) > 1e-12:
        failures.append("dp_metric spot value")
    # convergence in probability: x_n = |N(0,1)| / n
    gen = keyed_generator(seed, 0xD0)
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
    sample = l0.ito_integral_elementary(unit, seed, mc_paths)
    var = float(np.var(sample.values[:, -1, 0]))
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
        for p in cfg["p_values"]:
            ratios = []
            for i in range(2):
                try:
                    ratios.append(l0.bdg_ratio(phi, float(p), mc_paths, seed + 101 * i))
                except StatisticalAlarm as exc:
                    alarms.append(f"bdg_ratio {family} p={p}: {exc}")
                    ratios.append(float("nan"))
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
        try:
            ratio = l0.bdg_sum_ratio(phis, 2.0, mc_paths, seed)
        except StatisticalAlarm as exc:
            alarms.append(f"bdg_sum_ratio m={m}: {exc}")
            ratio = float("nan")
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


def check_holder(cfg: dict) -> None:
    if cfg["time_exp"] < cfg["m_max"]:
        raise DomainError("time_exp must be >= m_max to snapshot dyadic times")
    for lo, hi in (("m_min", "m_max"), ("bm_m_min", "bm_m_max")):
        if not 0 <= cfg[lo] <= cfg[hi] - 3:
            raise DomainError(
                f"{lo} must lie in [0, {hi} - 3] to span 4 dyadic levels, "
                f"got {lo} {cfg[lo]} and {hi} {cfg[hi]}"
            )


def cmd_holder(cfg: dict, out: Path) -> tuple[int, dict]:
    config = _scheme(cfg, mode="final_time")
    ops = assemble(build_mesh(config.dim, config.space_level))
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


def cmd_simulate(cfg: dict, out: Path) -> tuple[int, dict]:
    state = _run_path(
        _scheme(cfg), cfg["master_seed"], snapshot_level=cfg.get("snapshot_level")
    )
    with open(_create(out / "final_state.txt"), "w", encoding="utf-8") as fh:
        for value in state.alpha:
            fh.write(f"{value:.17g}\n")
    outputs = ["final_state.txt"]
    if state.snapshots is not None:
        dt_snap = 1.0 / (state.snapshots.shape[0] - 1)
        with open(out / "snapshots.txt", "w", encoding="utf-8") as fh:
            for j, snap in enumerate(state.snapshots):
                fh.write(f"# t = {j * dt_snap:.17g}\n")
                for value in snap:
                    fh.write(f"{value:.17g}\n")
        outputs.append("snapshots.txt")
    print(f"simulate: wrote {len(state.alpha)} nodal values")
    return EXIT_OK, {"outputs": outputs}


# command -> (check of the loaded config, run writing the payload into the
# output directory and returning (exit code, manifest facts), manifest name)
COMMANDS = {
    "convergence": (check_convergence, cmd_convergence, "manifest.json"),
    "verify": (check_verify, cmd_verify, "verify_manifest.json"),
    "holder": (check_holder, cmd_holder, "holder_manifest.json"),
    "simulate": (lambda cfg: None, cmd_simulate, "simulate_manifest.json"),
}


def run_command(args) -> int:
    """Load and check the config of a ``COMMANDS`` entry, run it, write its manifest."""
    check, run, manifest = COMMANDS[args.command]
    cfg = _load_config(args)
    check(cfg)
    if getattr(args, "dry_run", False):
        print(json.dumps(cfg, indent=2))
        return EXIT_OK
    # created by the first write (_create), so a rejected run leaves nothing
    out = Path(cfg.get("out_dir", "."))
    t0 = time.perf_counter()
    code, facts = run(cfg, out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if name == "convergence":
            p.add_argument("--workers", type=int, default=None)
            p.add_argument("--axis", type=str, choices=("space", "time"), default=None)
            p.add_argument("--dry-run", action="store_true")
        if name == "verify":
            p.add_argument("--paths", type=int, default=None)
        p.set_defaults(func=run_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CapacityError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, FactorizationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StatisticalAlarm as exc:
        print(f"statistical alarm: {exc}", file=sys.stderr)
        return EXIT_ALARM
    except SpdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
