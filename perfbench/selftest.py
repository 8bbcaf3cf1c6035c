"""Self-test of the benchmark on the tiny A2/C2/C3 catalog; takes seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric is printed with its unit, that a corrupted
reference digest and a missed deadline count as failures with a nonzero
exit, that MONOID_ORDERS_ENUM_BOUND is removed from the pass environment,
that traced child spans nest inside their parents with self times >= 0,
that parallel work in a query is caught, and that the benchmark refuses to
run where the package sources are missing.  Runs on an edited catalog use a
copy of the benchmark under .perfbench-out/selftest, with ``src`` linked in.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import subprocess
import sys

import run
import speed
import tracer

ROOT = os.path.dirname(run.HERE)
SCRATCH = os.path.join(run.OUT_DIR, "selftest")


def bench(*args: str, env_extra: dict | None = None, cwd: str = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seconds", "1", *args]
    env = {**os.environ, **(env_extra or {})}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def copy_bench(name: str, edit=None, with_src: bool = True) -> str:
    """A fresh root holding BENCHMARK.json and a copy of the benchmark, its
    catalog changed by ``edit``, and ``src`` linked in unless ``with_src`` is
    false.  Returns the root."""
    root = os.path.join(SCRATCH, name)
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(root, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if edit is not None:
        path = os.path.join(root, "perfbench", "catalog.json")
        with open(path, encoding="utf-8") as fh:
            catalog = json.load(fh)
        edit(catalog)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(catalog, fh)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), os.path.join(root, "src"))
    return root


def printed_with_units(lines: list[str], declared: list[dict]) -> list[str]:
    missing = []
    for m in declared:
        pattern = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)"
        if not any(re.match(pattern, line) for line in lines):
            missing.append(m["name"])
    return missing


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    rc, lines, result = bench("--seed", "1", "--trace", "0", env_extra={run.ENUM_BOUND_VAR: "10"})
    wall = next((json.loads(line[5:]) for line in lines if line.startswith("wall {")), {})
    check(rc == 0 and result["correct"] and result["failed"] == 0, "untraced tiny run passes")
    e2e = declared["end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in e2e), "untraced run reports every end-to-end metric")
    check(all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in e2e), "end-to-end units match BENCHMARK.json")
    check(not printed_with_units(lines, e2e + [{"name": "fail_ratio", "unit": "ratio"}]), "every end-to-end metric printed with its unit")
    check(sorted(wall) == ["pass_s", "query_p50_s", "query_tail_s", "setup_s"] and all(v > 0 for v in wall.values()),
          "raw wall times printed as JSON before the result")
    check(any(f"removed {run.ENUM_BOUND_VAR}='10'" in line for line in lines), "enum bound removed from the pass environment")

    for old in glob.glob(os.path.join(run.OUT_DIR, "spans-tiny-seed2-*")):
        os.remove(old)
    rc, lines, result = bench("--seed", "2", "--trace", "1")
    layer = declared["per_layer"]
    check(rc == 0 and result["correct"], "traced tiny run passes")
    check(sorted(result["metrics"]) == sorted(m["name"] for m in layer), "traced run reports every per-layer metric")
    check(not printed_with_units(lines, layer), "every per-layer metric printed with its unit")
    span_files = glob.glob(os.path.join(run.OUT_DIR, "spans-tiny-seed2-*"))
    problems = []
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            problems += tracer.nesting_problems([tuple(json.loads(line)) for line in fh])
    check(bool(span_files) and not problems, f"child spans nest in their parents, self times >= 0 {problems[:3]}")

    def corrupt(catalog):
        catalog["workloads"]["tiny"]["queries"][0]["sha256"] = "0" * 64

    rc, lines, result = bench("--seed", "3", cwd=copy_bench("corrupt", corrupt))
    check(rc != 0 and result is not None and result["failed"] > 0, "corrupted digest gives failures and a nonzero exit")
    check(any(re.match(r"^fail_ratio\s+0\.\d*[1-9]", line) for line in lines), "corrupted digest gives fail_ratio > 0")

    def hang(catalog):
        # The tiny queries finish far below one second; two passes.
        catalog["default_deadline_s"] = 1
        catalog["workloads"]["tiny"]["nominal_pass_s"] = 100
        catalog["workloads"]["tiny"]["queries"].append(
            {"argv": ["lattice", "--type", "A40", "--j0", ""], "exit": 0, "sha256": ""}
        )

    rc, lines, result = bench("--seed", "4", cwd=copy_bench("hang", hang))
    check(rc != 0 and result is not None and result["failed"] == 2, "a hanging query misses its deadline in each pass")
    check(any("missed the 1 s deadline" in line for line in lines), "missed deadline is reported")

    check(not speed.concurrency_problems(1.0, 0.99, 0, False, 0.0), "a single-threaded query passes the concurrency check")
    check(bool(speed.concurrency_problems(1.0, 1.9, 0, False, 0.0)), "CPU time beyond wall time (native parallel work) fails")
    check(bool(speed.concurrency_problems(1.0, 0.5, 1, False, 0.0)), "an extra thread fails")
    check(bool(speed.concurrency_problems(1.0, 0.5, 0, True, 0.0)), "a child process fails")
    check(bool(speed.concurrency_problems(1.0, 0.5, 0, False, 0.3)), "CPU time of waited-for children fails")

    bare = copy_bench("bare", with_src=False)
    rc, lines, result = bench("--seed", "1", "--trace", "0", cwd=bare)
    check(rc != 0 and result is None, "refuses to run without the package sources")
    for name in ("corrupt", "hang", "bare"):
        shutil.rmtree(os.path.join(SCRATCH, name))

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
