"""Speed probe: converts wall time on a shared, noisy host to reference seconds.

On the host this benchmark was built on (2 vCPUs shared with other tenants),
everything runs about 1.5x slower for stretches of a fraction of a second to
minutes, so wall times of identical runs spread far more than a useful
regression bound allows (``baseline.json`` records the spread of the raw wall
figures next to that of the scaled ones).  So the benchmark samples the
machine's current speed with a fixed kernel, every PERIOD_S during each query
(from a SIGALRM handler in the pass interpreter) and around it, and reports
times scaled to the speed at which the kernel takes REFERENCE_S:

    reference seconds = wall seconds * mean(REFERENCE_S / probe seconds) ** EXPONENT

The kernel is float arithmetic on locals.  Floats come from the
interpreter's free list, so the kernel touches almost no memory and its
speed does not depend on what the program has allocated.  The kernel imports
nothing from the package, so a change to the package cannot move it.  The
probes' own time is subtracted from each query, and raw wall times are
printed beside every scaled one.

Because it touches so little memory, the kernel slows less under host load
than the package's big-integer and enumeration code: a query's wall time
grew about as the kernel's slowdown to the power 1.25.  EXPONENT corrects for
that.  It was fitted on the per-query times of 16 untraced runs of the
enum-routes and closed-forms workloads (seeds 11-18) on the build host,
where it took the quartile spread of pass_s from 3.0-3.5% (exponent 1) to
1.0-1.8%, and that of query_p50_s from 5.9-7.1% to 3.3-4.3%.  On an idle
host the factor is 1 whatever the exponent.

The probe runs in the query's own thread, so it reads any slowdown as host
contention.  A query that ran work in parallel (other threads or child
processes) would slow its own probe and be credited with less time than it
took; ``concurrency_problems`` makes such a query fail instead.
"""

from time import perf_counter

PERIOD_S = 0.005
# Time of one probe on an uncontended 2-vCPU Xeon host with Python 3.11.
REFERENCE_S = 75e-6
EXPONENT = 1.25
# CPU time a single-threaded query may show beyond its wall time: clock
# granularity only.
CPU_SLACK = 1.05
CPU_SLACK_S = 0.02


def probe() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    start = perf_counter()
    x = 1.0
    for _ in range(1500):
        x = x * 1.0000001 + 0.5
        x = x - 0.49999
    return perf_counter() - start


def factor(samples: list[float]) -> float:
    """Scale from wall seconds to reference seconds over these probe times."""
    return (sum(REFERENCE_S / s for s in samples) / len(samples)) ** EXPONENT


def concurrency_problems(wall_s: float, cpu_s: float, threads: int, children: bool, child_cpu_s: float) -> list[str]:
    """Signs that a query did not run on one thread of one process.

    ``cpu_s`` is the process's CPU time over the query (all its threads, so
    it exceeds ``wall_s`` under native parallel work), ``threads`` the number
    of Python threads other than the main one that ran during the query or
    are still alive, ``children`` whether the process has child processes
    after it, and ``child_cpu_s`` the CPU time of children that ended and
    were waited for during it.
    """
    problems = []
    if threads:
        problems.append(f"ran {threads} extra thread(s)")
    if cpu_s > wall_s * CPU_SLACK + CPU_SLACK_S:
        problems.append(f"used {cpu_s:.3f} s of CPU in {wall_s:.3f} s of wall time (parallel work)")
    if children or child_cpu_s > 0:
        problems.append(f"ran child processes ({child_cpu_s:.3f} s of CPU in waited-for children)")
    return problems
