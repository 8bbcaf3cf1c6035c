"""Record the reference exit code and stdout digest of every catalog query.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_references.py

Each workload's queries run once, in catalog order, in a fresh pass
interpreter (the same one the benchmark uses); their exit codes and the
SHA-256 of their stdout are written back into catalog.json.  Queries that
fail their output checks or miss their deadline are reported and not recorded.
"""

import json
import os
import sys

import run


def main() -> int:
    with open(run.CATALOG, encoding="utf-8") as fh:
        catalog = json.load(fh)
    env, _ = run.pass_env(os.getcwd())
    bad = 0
    for name, workload in catalog["workloads"].items():
        spec = {
            "catalog": run.CATALOG,
            "workload": name,
            "order": list(range(len(workload["queries"]))),
            "trace": False,
        }
        _, lines, _ = run.launch(["pass", json.dumps(spec)], env, run.RUN_CAP_S)
        for line in lines:
            record = json.loads(line)
            if "query" not in record:
                continue
            query = workload["queries"][record["query"]]
            if record["problems"]:
                print(f"{name}: {query['argv']}: {record['problems']}", file=sys.stderr)
                bad += 1
                continue
            query["exit"] = record["rc"]
            query["sha256"] = record["sha256"]
            print(f"{name}: {' '.join(query['argv'])}: exit {record['rc']}, {record['bytes']} bytes, {record['s']:.3f} s")
    with open(run.CATALOG, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=2)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
