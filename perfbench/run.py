"""spdelab benchmark: the acceptance experiments as closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload space1d --seed 1 --seconds 20 --trace 0

One process, one caller, one path after another, ``n_workers=1``; every
run starts in a fresh interpreter because the operator caches and
``ru_maxrss`` live per process.  BLAS/OpenMP threads are pinned to 1.

Untraced runs scale times to nominal host speed by a fixed kernel sampled
all through the run (``hostspeed.py``), because a shared host's speed drifts
over seconds to minutes; the raw wall times go into the report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see ``tracing.py``), alternates traced and
untraced warm operations, and prints the per-layer metrics per warm
operation plus the tracing overhead.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, path counts, samples, fitted rates, output
digest and computed counts, also written to ``.bench_out/``.
"""

import os
import sys
import time

T0 = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def import_program():
    """Import spdelab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spdelab
    except ImportError as exc:
        raise SystemExit(f"cannot import spdelab from {src}: {exc}")
    if Path(spdelab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"spdelab imported from {spdelab.__file__}, not {src}")


def environment(seed, master_seed, counts) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "master_seed": master_seed,
        "operations": counts,
    }


def percentile_with_tail(samples, tail=10):
    """Highest of p50/p90/p99/p99.9 with at least ``tail`` samples above it."""
    ordered = sorted(samples)
    for q in (99.9, 99.0, 90.0, 50.0):
        k = math.ceil(len(ordered) * q / 100.0) - 1
        if k >= 0 and len(ordered) - 1 - k >= tail:
            return {"q": q, "value": ordered[k]}
    return None


def attempt(tracer, phase, fn, *args):
    """Run one operation; return its wall time, or None if it failed."""
    t = time.perf_counter()
    try:
        with tracer.op(phase):
            fn(*args)
    except Exception:  # a failed operation is counted, and the loop goes on
        traceback.print_exc()
        return None
    return time.perf_counter() - t


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result, report)."""
    import hostspeed

    sampler = hostspeed.Sampler()
    if not trace:  # a traced run's spans and times stay as measured
        sampler.start()
    try:
        return sampled_run(sampler, workload, seed, seconds, trace, smoke)
    finally:
        sampler.stop()


def sampled_run(sampler, workload, seed, seconds, trace, smoke):
    """The body of ``run``, with the host-speed sampler set up."""
    # imported here: both import spdelab, which import_program puts on the path
    import hostspeed
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    master_seed = random.Random(seed).randrange(1, 2**31)
    tracer = tracing.Tracer(tracing.TARGETS if trace else tracing.PATH_COUNTER)
    tracer.install()

    wl = spec.build(master_seed, **(spec.smoke if smoke else spec.full))
    n_warm = max(1, round(seconds / spec.budget_s))
    if trace:
        # traced runs alternate blocks of wl.kinds traced and untraced
        # operations, so both sides run the same mix of work
        n_warm = max(2 * wl.kinds, n_warm)
    bdg_cases = wl.bdg_cases() if isinstance(wl, workloads.Analysis) else []
    failed = int(attempt(tracer, "cold", wl.run, 0) is None)
    setup_wall = time.perf_counter() - T0
    # scaled by every sample since the timer started, before the imports above
    setup_s = setup_wall if trace else sampler.scaled(setup_wall, (0, 0.0))
    wall = {"bdg": [], "warm": [], "bare": []}

    def timed(phase, fn, *args):
        """Scaled seconds of one operation, or None if it failed."""
        mark = sampler.mark()
        t = attempt(tracer, phase, fn, *args)
        if t is None:
            return None
        wall[phase].append(t)
        return t if trace else sampler.scaled(t, mark)

    bdg_s = []

    def bdg(case):
        nonlocal failed
        t = timed("bdg", wl.bdg, *case)
        failed += t is None
        if t is not None:
            bdg_s.append(t)

    # BDG calls interleave with the warm operations, so the Monte Carlo
    # throughput and path_s sample the same stretch of the run
    pending = list(bdg_cases)
    per_op = math.ceil(len(pending) / n_warm)
    warm_s, bare_s = [], []
    for i in range(1, n_warm + 1):
        for case in pending[:per_op]:
            bdg(case)
        del pending[:per_op]
        bare = trace and (i - 1) // wl.kinds % 2 == 1
        if bare:
            tracer.uninstall()
        t = timed("bare" if bare else "warm", wl.run, i)
        if bare:
            tracer.install()
        failed += t is None
        if t is not None:
            (bare_s if bare else warm_s).append(t)
    tracer.uninstall()

    attempted = 1 + len(bdg_cases) + n_warm
    try:
        summary = wl.summary()
    except workloads.OutputError:
        traceback.print_exc()
        summary = None
    correct = failed == 0 and summary is not None
    report = {
        "workload": workload,
        "trace": trace,
        "smoke": smoke,
        "environment": environment(
            seed, master_seed,
            {"cold": 1, "warm": n_warm, "bdg": len(bdg_cases),
             "bdg_paths": wl.bdg_paths if bdg_cases else 0},
        ),
        "summary": summary,
        "host": {
            "nominal_s": hostspeed.NOMINAL_S,
            "interval_s": hostspeed.INTERVAL_S,
            "samples": len(sampler.samples),
            "mean_sample_s": statistics.fmean(sampler.samples) if sampler.samples else None,
            "handler_s": sampler.busy_s,
            "setup_wall_s": setup_wall,
            "wall_s": wall,
        },
    }

    if trace:
        if warm_s and bare_s:
            metrics, absent = tracing.layer_metrics(
                tracer, len(warm_s), wl.fine_steps, warm_s, bare_s
            )
        else:
            metrics, absent = {}, {"all": "no successful traced and untraced warm pair"}
        for metric, reason in absent.items():
            print(f"per-layer metric {metric} absent: {reason}", file=sys.stderr)
        report["absent"] = absent
        report["counts"] = {
            k: metrics[k]["value"] for k in tracing.EXACT_COUNTS if k in metrics
        }
        report["spans"] = len(tracer.start)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.npz")
    else:
        if bdg_s:
            # requested paths only if the path counter's target is gone
            paths = tracer.counts.get(("bdg", "l0.paths"), len(bdg_s) * wl.bdg_paths)
            throughput = paths / sum(bdg_s)
        else:
            throughput = len(warm_s) / sum(warm_s) if warm_s else None
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "path_s": {"value": statistics.median(warm_s) if warm_s else None, "unit": "s"},
            "mc_paths_per_s": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        report["path_s"] = {
            "samples": warm_s,
            "n": len(warm_s),
            "tail": percentile_with_tail(warm_s),
        }
        report["bdg_s"] = bdg_s
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("space1d", "time1d", "space2d", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    import_program()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"result": result, "report": report}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
