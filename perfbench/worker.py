"""One pass interpreter: imports the CLI, then replays queries in-process.

Usage: ``python3 worker.py probe`` or ``python3 worker.py pass <json spec>``,
with ``src`` on ``PYTHONPATH``.  The ``ready`` line is written as soon as
``monoid_orders.cli`` is imported, so the parent can time launch to ready.
Each query then runs under ``cli.main(argv)`` with stdout and stderr
captured.  A SIGALRM every ``speed.PERIOD_S`` samples the machine's speed
(see speed.py) and enforces the query's deadline.  One JSON line per query
reports its exit code, stdout digest, wall and reference-speed latency and
any problem the output checks found; a query that ran work on other threads
or in child processes fails, since the speed probe cannot tell its own
parallel work from host contention.
"""

import sys
import time

from monoid_orders import cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)
sys.stdout.write(f"ready {READY!r}\n")
sys.stdout.flush()

# Everything below is harness, imported after the ready mark.
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import threading  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402

# A runaway query fails with MemoryError instead of exhausting shared memory.
ADDRESS_SPACE_LIMIT = 4 << 30


# Speed probes taken just before and just after each query.
EDGE_PROBES = 5


# Idents of threads started through ``threading`` since the last query began.
STARTED_THREADS: set[int] = set()


def _note_thread(frame, event, arg) -> None:
    """Profile hook every new ``threading`` thread runs first: note it, unhook."""
    STARTED_THREADS.add(threading.get_ident())
    sys.setprofile(None)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the package eats it."""


class Sampler:
    """SIGALRM handler: probes the machine's speed and enforces the deadline."""

    def __init__(self):
        self.samples: list[float] = []
        self.deadline = float("inf")

    def __call__(self, signum, frame):
        if time.perf_counter() > self.deadline:
            raise DeadlineExceeded
        self.samples.append(speed.probe())


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _has_children() -> bool:
    """Whether this process has a child, running or exited (an exited one is reaped)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _concurrency_problems(wall_s: float, cpu_s: float, children_cpu_s: float) -> list[str]:
    main = threading.main_thread()
    threads = STARTED_THREADS | {t.ident for t in threading.enumerate() if t is not main}
    return speed.concurrency_problems(wall_s, cpu_s, len(threads), _has_children(), _child_cpu_s() - children_cpu_s)


def run_query(sampler: Sampler, argv: list[str], deadline_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, problems = None, []
    # A CLI user starts each query in a fresh process; collecting the previous
    # query's garbage here keeps one query from paying for another.
    gc.collect()
    sampler.samples = [speed.probe() for _ in range(EDGE_PROBES)]
    STARTED_THREADS.clear()
    children = _child_cpu_s()
    cpu = time.process_time()
    start = time.perf_counter()
    sampler.deadline = start + deadline_s
    signal.setitimer(signal.ITIMER_REAL, speed.PERIOD_S, speed.PERIOD_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except DeadlineExceeded:
        problems.append(f"missed the {deadline_s} s deadline")
    except Exception as exc:  # any crash of the CLI is a failed query
        problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        sampler.deadline = float("inf")
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    problems += _concurrency_problems(elapsed, time.process_time() - cpu, children)
    probes = sampler.samples[EDGE_PROBES:]
    elapsed -= sum(probes)
    probes += [speed.probe() for _ in range(EDGE_PROBES)] + sampler.samples[:EDGE_PROBES]
    scale = speed.factor(probes)
    text = out.getvalue()
    data = text.encode()
    if not problems:
        try:
            problems += checks.check_output(argv, rc, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return {
        "rc": rc,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "wall_s": elapsed,
        "s": elapsed * scale,
        "factor": scale,
        "probes": len(probes),
        "problems": problems,
    }


def run_pass(spec: dict, sampler: Sampler) -> None:
    with open(spec["catalog"], encoding="utf-8") as fh:
        catalog = json.load(fh)
    queries = catalog["workloads"][spec["workload"]]["queries"]
    deadline = catalog["default_deadline_s"]
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    output_bytes = 0
    factors = {}
    try:
        for index in spec["order"]:
            query = queries[index]
            if tracer is not None:
                tracer.query = index
            record = run_query(sampler, query["argv"], deadline)
            output_bytes += record["bytes"]
            factors[index] = record["factor"]
            _emit({"query": index, **record})
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = {
        "done": True,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tracer_loaded": "tracer" in sys.modules,
        "package": os.path.dirname(cli.__file__),
    }
    if tracer is not None:
        layers = tracer_mod.layer_metrics(tracer, factors)
        layers["cli.output_bytes"] = output_bytes
        done["layers"] = layers
        done["shares"] = tracer_mod.query_shares(tracer.spans, factors)
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    _emit(done)


def main() -> None:
    sampler = Sampler()
    signal.signal(signal.SIGALRM, sampler)
    threading.setprofile(_note_thread)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    if sys.argv[1] == "pass":
        run_pass(json.loads(sys.argv[2]), sampler)


if __name__ == "__main__":
    main()
