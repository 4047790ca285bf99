"""Run one workload over several seeds and summarize the run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload time1d --seeds 1-10 [--trace 1]

Each seed is one fresh ``run.py`` process, run one after another.  Prints,
per metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to a third of the metric's
bound from ``BENCHMARK.json``.  With ``--trace 1`` it also checks that the
computed counts repeat exactly.  The summary is written to ``.bench_out/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results, reports = [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *_, report_line, result_line = proc.stdout.strip().splitlines()
        results.append(json.loads(result_line))
        reports.append(json.loads(report_line))
        print(seed, result_line, flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    summary = {"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
               "all_correct": ok, "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound}
        limit = f"  bound/3 {bound / 3:.3f}" if bound else ""
        print(f"{name:36s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{limit}")
    if args.trace:
        counts = [rep["counts"] for rep in reports]
        summary["counts_repeat"] = all(c == counts[0] for c in counts)
        summary["counts"] = counts[0]
        print("counts repeat exactly:", summary["counts_repeat"], counts[0])
    print("all correct:", ok)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
