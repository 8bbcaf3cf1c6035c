"""Query benchmark for the monoid-orders CLI.

Run from the repository root:

    python3 perfbench/run.py --workload enum-routes --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Each pass is a fresh interpreter
(``worker.py``) that sends every query of the workload's catalog once, the
next only after the previous returned; the seed sets the query order and
never the amount of work.  Passes run one at a time, so the benchmark never
has more than one busy process.  The number of passes is fixed by the
workload and ``--seconds``, so runs with different seeds do the same work.
A query that runs work on other threads or in child processes fails.

``--trace 0`` reports the end-to-end metrics, with times in reference
seconds: wall seconds scaled by the host's speed, probed during each query
(see speed.py); raw wall times are printed beside them, and the line before
the last holds them as JSON after ``wall ``.  ``--trace 1`` runs untraced and
traced passes alternately and reports the per-layer metrics, also in
reference seconds.  The last line of stdout is one JSON object; every other
line is for people.
``--workload all`` runs the three benchmark workloads one after another.
The exit code is nonzero when any query failed: wrong exit code, wrong
output, an exception or a missed deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CATALOG = os.path.join(HERE, "catalog.json")
OUT_DIR = ".perfbench-out"
BENCHMARK_WORKLOADS = ("enum-routes", "closed-forms", "lattice-scan")
# Setup time is the median over this many launches that only import the CLI.
SETUP_PROBES = 10
# Speed probes the parent takes just before and just after each such launch.
EDGE_PROBES = 3
# No pass starts after this many seconds, and a running one is killed at it,
# so a run ends well within three minutes even when queries hang.
RUN_CAP_S = 150.0
ENUM_BOUND_VAR = "MONOID_ORDERS_ENUM_BOUND"


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no sources, broken worker)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pass_env(root: str) -> tuple[dict[str, str], str | None]:
    """Environment for pass interpreters, and the enum bound it removed."""
    env = dict(os.environ)
    removed = env.pop(ENUM_BOUND_VAR, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def launch(args: list[str], env: dict[str, str], timeout: float) -> tuple[float, list[str], bool]:
    """Run one worker; return launch-to-ready seconds, its stdout lines, and
    whether it was killed at the timeout."""
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
        stdout, killed = proc.stdout, False
        if proc.returncode != 0 and not stdout.startswith("ready"):
            raise BenchmarkError(f"pass interpreter failed to start:\n{proc.stderr.strip()}")
    except subprocess.TimeoutExpired as exc:
        stdout, killed = exc.stdout or "", True
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise BenchmarkError("pass interpreter never reported ready")
    return float(lines[0].split()[1]) - start, lines[1:], killed


class Run:
    """One benchmark run of one workload: setup probes, then passes."""

    def __init__(self, workload: str, seed: int, seconds: float, root: str):
        with open(CATALOG, encoding="utf-8") as fh:
            catalog = json.load(fh)
        if workload not in catalog["workloads"]:
            raise BenchmarkError(f"unknown workload {workload!r}")
        self.workload = workload
        self.spec = catalog["workloads"][workload]
        self.queries = self.spec["queries"]
        self.seed = seed
        self.root = root
        self.env, self.removed_bound = pass_env(root)
        self.deadline = catalog["default_deadline_s"]
        self.passes = max(2, round(seconds / self.spec["nominal_pass_s"]))
        self.started = _now()
        self.setup_samples: list[float] = []
        self.setup_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check_sources(self) -> None:
        if not os.path.isfile(os.path.join(self.root, "src", "monoid_orders", "cli.py")):
            raise BenchmarkError(f"no src/monoid_orders under {self.root}")

    def probe_setup(self) -> None:
        """One uncounted warm-up launch (it compiles bytecode), then timed
        launches, each scaled by speed probes taken around it."""
        launch(["probe"], self.env, 60)
        for _ in range(SETUP_PROBES):
            probes = [speed.probe() for _ in range(EDGE_PROBES)]
            wall = launch(["probe"], self.env, 60)[0]
            probes += [speed.probe() for _ in range(EDGE_PROBES)]
            self.setup_wall.append(wall)
            self.setup_samples.append(wall * speed.factor(probes))

    def order(self, index: int) -> list[int]:
        order = list(range(len(self.queries)))
        random.Random(f"{self.workload}/{self.seed}/{index}").shuffle(order)
        return order

    def run_pass(self, index: int, trace: bool, spans_path: str | None = None) -> dict | None:
        """Run one pass; return its report, or None if it did not complete."""
        order = self.order(index)
        self.attempted += len(order)
        remaining = RUN_CAP_S - (_now() - self.started)
        if remaining <= 1:
            self.failed += len(order)
            self.failures.append(f"pass {index}: not started, run cap of {RUN_CAP_S} s reached")
            return None
        spec = {
            "catalog": CATALOG,
            "workload": self.workload,
            "order": order,
            "trace": trace,
            "spans_path": spans_path,
        }
        budget = len(order) * self.deadline + 10
        _, lines, killed = launch(["pass", json.dumps(spec)], self.env, min(budget, remaining))
        records = [json.loads(line) for line in lines if line.startswith("{")]
        done = next((r for r in records if r.get("done")), None)
        results = {r["query"]: r for r in records if "query" in r}
        for i in order:
            argv = " ".join(self.queries[i]["argv"])
            if i not in results:
                why = "killed at the pass deadline" if killed else "pass interpreter died"
                self.failed += 1
                self.failures.append(f"pass {index}: {argv}: {why}")
                continue
            r, ref = results[i], self.queries[i]
            problems = list(r["problems"])
            if r["rc"] != ref.get("exit"):
                problems.append(f"exit code {r['rc']}, expected {ref.get('exit')}")
            if r["sha256"] != ref.get("sha256"):
                problems.append("stdout differs from the reference digest")
            self.failed += bool(problems)
            for p in problems:
                self.failures.append(f"pass {index}: {argv}: {p}")
        if done is None or len(results) != len(order):
            return None
        if done["tracer_loaded"] != trace:
            raise BenchmarkError(f"tracer loaded = {done['tracer_loaded']} in a pass with trace = {trace}")
        if os.path.dirname(done["package"]) != os.path.join(self.root, "src"):
            raise BenchmarkError(f"imported monoid_orders from {done['package']}")
        for key, field in (("latencies", "s"), ("wall_latencies", "wall_s")):
            done[key] = [results[i][field] for i in order]
        done["pass_s"] = sum(done["latencies"])
        done["pass_wall_s"] = sum(done["wall_latencies"])
        return done


def time_figures(passes: list[dict], key: str) -> tuple[float, float, float]:
    """Median pass time, median query latency, and the tail: the median over
    passes of each pass's slowest query, from per-query times under ``key``."""
    pass_times = [sum(p[key]) for p in passes]
    pooled = [s for p in passes for s in p[key]]
    slowest = [max(p[key]) for p in passes]
    return statistics.median(pass_times), statistics.median(pooled), statistics.median(slowest)


def end_to_end(run: Run, passes: list[dict]) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, with times in reference seconds (see speed.py);
    the same figures in raw wall seconds; and the report lines, which print
    each wall figure beside its scaled one."""
    pass_s, p50, tail = time_figures(passes, "latencies")
    wall = dict(zip(("pass_s", "query_p50_s", "query_tail_s"), time_figures(passes, "wall_latencies")))
    wall["setup_s"] = statistics.median(run.setup_wall)
    n = len(passes) * len(run.queries)
    metrics = {
        "setup_s": (statistics.median(run.setup_samples), "s", f"median of {len(run.setup_samples)} launches"),
        "pass_s": (pass_s, "s", "median of " + " ".join(f"{p['pass_s']:.3f}" for p in passes)),
        "query_p50_s": (p50, "s", f"median of {n} queries"),
        "query_tail_s": (tail, "s", f"median over {len(passes)} passes of each pass's slowest query"),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in passes) / 1024, "MB", "max ru_maxrss of pass interpreters"),
    }
    lines = []
    for name, (v, unit, note) in metrics.items():
        raw = f"; wall {wall[name]:.6g} s" if name in wall else ""
        lines.append(f"{name:<16} {v:<12.6g} {unit:<6} {note}{raw}")
    return {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()}, wall, lines


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    metrics, lines = {}, []
    for m in declared:
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = statistics.median(p["pass_s"] for p in traced) / statistics.median(
                p["pass_s"] for p in untraced
            )
        elif name.startswith("qpoly.max_"):
            value = max(p["layers"][name] for p in traced)
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"{name:<40} {value:<12.6g} {m['unit']}")
    return metrics, lines


def share_lines(run: Run, traced: list[dict]) -> list[str]:
    """Each query's traced time and the self-time share of each layer in it."""
    lines = []
    for i, query in enumerate(run.queries):
        rows = [p["shares"][str(i)] for p in traced if str(i) in p["shares"]]
        total = statistics.median(r["query_s"] for r in rows)
        layers = sorted({k for r in rows for k in r} - {"query_s", "qpoly.mul_s"})

        def share(key: str) -> str:
            return f"{statistics.median(r.get(key, 0.0) for r in rows) / total:.0%}"

        parts = ", ".join(f"{layer} {share(layer)}" for layer in layers)
        lines.append(f"  {' '.join(query['argv'])}: {total:.3f} s; self time {parts}; qpoly.mul_s {share('qpoly.mul_s')}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str):
    """Run one workload, print its report; return (metrics, wall, attempted,
    failed), where wall holds the raw wall figures of an untraced run."""
    run = Run(workload, seed, seconds, root)
    run.check_sources()
    run.probe_setup()
    note = f"removed {ENUM_BOUND_VAR}={run.removed_bound!r}" if run.removed_bound is not None else f"{ENUM_BOUND_VAR} not set"
    print(f"workload {workload}  seed {seed}  {run.passes} passes x {len(run.queries)} queries  ({note})")
    if not trace:
        passes = [p for p in (run.run_pass(i, False) for i in range(run.passes)) if p]
        metrics, wall, lines = end_to_end(run, passes) if passes else ({}, {}, [])
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        untraced, traced = [], []
        for i in range(max(1, run.passes // 2)):
            untraced.append(run.run_pass(i, False))
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-pass{i}.jsonl")
            traced.append(run.run_pass(i, True, spans))
        untraced = [p for p in untraced if p]
        traced = [p for p in traced if p]
        metrics, wall, lines = {}, {}, []
        if untraced and traced:
            metrics, lines = per_layer(traced, untraced)
            lines += ["per-query self-time shares (traced):"] + share_lines(run, traced)
            lines.append(f"spans written to {OUT_DIR}/spans-{workload}-seed{seed}-pass*.jsonl")
    failed = run.failed
    lines.append(f"{'fail_ratio':<16} {failed / run.attempted:<12.6g} {'ratio':<6} {failed} failed / {run.attempted} attempted")
    for f in run.failures:
        lines.append(f"FAIL {f}")
    for line in lines:
        print(line)
    return metrics, wall, run.attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    workloads = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, wall, attempted, failed = {}, {}, 0, 0
    try:
        for w in workloads:
            m, raw, a, f = run_workload(w, args.seed, args.seconds, bool(args.trace), root)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            wall.update({prefix + k: v for k, v in raw.items()})
            attempted += a
            failed += f
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if wall:
        print("wall " + json.dumps(wall))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
