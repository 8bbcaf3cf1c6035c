"""Measure the benchmark's baseline: sets of runs with distinct seeds.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --sets 2 --out perfbench/baseline.json

Each set runs every workload ``--runs`` times, each run in its own
``run.py`` process with its own seed (set k uses seeds k*100+1 ...).  For each
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over median) against a third of the metric's bound, and how far each
later set's median moved from the first set's.  The raw wall-clock figures
that ``run.py`` prints beside the reference-second times get the same
summary, so the effect of the speed scaling can be checked.  One traced run
per workload adds the per-layer numbers.  Runs are sequential: one busy
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """The result of one run, its raw wall figures, and how long it took."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    took = time.monotonic() - started
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    wall = next((json.loads(line[5:]) for line in lines if line.startswith("wall {")), {})
    return result, wall, took


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sets, wall_sets, run_wall = [], [], {}
    for k in range(1, args.sets + 1):
        summary, wall_summary = {}, {}
        for w in args.workloads:
            runs = [bench_run(w, 100 * k + i, seconds, 0) for i in range(1, args.runs + 1)]
            summary[w] = {m: summarize([r["metrics"][m]["value"] for r, _, _ in runs]) for m in bounds}
            wall_summary[w] = {m: summarize([raw[m] for _, raw, _ in runs]) for m in runs[0][1]}
            for m, s in summary[w].items():
                flag = "" if m == "setup_s" or s["spread"] < bounds[m] / 3 else "  SPREAD >= bound/3"
                raw = f"; wall spread {wall_summary[w][m]['spread']:.4f}" if m in wall_summary[w] else ""
                print(f"set {k} {w:<13} {m:<13} median {s['median']:<10.5g} q1 {s['q1']:<10.5g} "
                      f"q3 {s['q3']:<10.5g} spread {s['spread']:.4f} (bound {bounds[m]}){flag}{raw}")
            took = [t for _, _, t in runs]
            run_wall.setdefault(w, []).extend(took)
            print(f"set {k} {w}: {args.runs} runs in {sum(took):.0f} s, longest {max(took):.1f} s", flush=True)
        sets.append(summary)
        wall_sets.append(wall_summary)
    drift = {
        w: {m: sets[k][w][m]["median"] / sets[0][w][m]["median"] - 1 for m in bounds}
        for k in range(1, len(sets)) for w in args.workloads
    }
    for w, row in drift.items():
        print(f"drift of later set vs set 1, {w}: " + ", ".join(f"{m} {v:+.4f}" for m, v in row.items()))
    per_layer = {}
    for w in args.workloads:
        per_layer[w] = {m: v["value"] for m, v in bench_run(w, 1, seconds, 1)[0]["metrics"].items()}
    if args.out:
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        except OSError:
            commit = ""
        record = {
            "commit": commit or None,
            "measured": time.strftime("%Y-%m-%d"),
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "runs_per_set": args.runs,
            "end_to_end_sets": sets,
            "wall_clock_sets": wall_sets,
            "run_wall_s": {w: {"median": statistics.median(t), "max": max(t)} for w, t in run_wall.items()},
            "median_drift_set2_vs_set1": drift,
            "per_layer_traced_seed1": per_layer,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
