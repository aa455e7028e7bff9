"""One measured run of a workload, in a fresh interpreter started by run.py.

The worker imports qbrauer from the ``src/`` tree next to the benchmark,
builds the workload's first pass (the set-up), notes the scaled CPU time the
process has used so far as ``ready_s``, runs whole passes and prints one
JSON line with what it measured.  With ``--setup-only`` it prints only
``ready_s``; with ``--trace`` it runs under the tracer and reports per-layer
metrics of the set-up and the first pass.  The output checks run untraced,
so the per-layer metrics hold only the library's work for the tasks.

Times are process CPU time scaled to the machine's full speed.  The library
is single-threaded, CPU-bound and starts no processes, so on a machine of
its own its CPU time is its wall time.  On a shared virtual machine the wall
clock also counts the time the hypervisor gives the CPU to others, and for
a minute or more at a time other tenants slow the CPU itself by up to 1.7x.
So every second of measuring the worker times a fixed pure-Python kernel
(best of REFERENCE_REPEATS) and multiplies task times by REFERENCE_S over
that best time; the kernel uses no qbrauer code, so no change to the library
moves it.  A task is scaled by the mean of the readings before and after it,
and its time is the median of its scaled times over the passes.  The
unscaled CPU and wall times are reported too.  The worker reports the CPU
time of any child process it waited for, so a library that starts processes
is noticed instead of measured wrongly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parents[1] / "src"

# best CPU seconds of the reference kernel at full speed on a 2-core x86-64
# box with Python 3.11
REFERENCE_S = 0.0047
REFERENCE_REPEATS = 10
REFERENCE_EVERY_S = 1.0


def _reference_kernel():
    d = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i * 7 % 13
    return d


def speed_scale():
    """REFERENCE_S over the kernel's best CPU time now; below 1 while other
    tenants slow the CPU."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t = time.process_time()
        _reference_kernel()
        best = min(best, time.process_time() - t)
    return REFERENCE_S / best


def run(wl, passes, tracer=None):
    """Run ``passes`` whole passes; return the measurements as a dict.

    ``task_s`` maps each attempted task to the median of its scaled CPU
    times over the passes, ``ok`` lists the tasks that succeeded and passed
    their checks in every pass, and ``ok_samples`` holds every pass's time
    of those tasks.
    """
    expected = workloads.load_expected(wl.name)
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    times = {}
    failed_keys = set()
    raised = Counter()
    raised_example = {}
    problems = []
    attempted = failed = excluded = check_failures = newly_ok = 0
    first_pass = []
    layers = None
    clock = time.process_time
    scales = []
    unscaled = []  # (task, CPU seconds) since the last kernel reading
    next_scale = 0.0

    def read_scale():
        # a task's scale is the mean of the readings before and after it
        scales.append(speed_scale())
        for key, dt in unscaled:
            times.setdefault(key, []).append(dt * (scales[-2] + scales[-1]) / 2)
        unscaled.clear()

    t_start = clock()
    wall_start = time.perf_counter()
    for i in range(passes):
        for key, task in wl.next_pass():
            if clock() >= next_scale:
                read_scale()
                next_scale = clock() + REFERENCE_EVERY_S
            t = clock()
            try:
                result = task()
            except Exception as exc:  # every raise is a failed task, and the run goes on
                dt = clock() - t
                name = type(exc).__name__
                raised[name] += 1
                raised_example.setdefault(name, f"{key}: {exc}"[:200])
                outcome, bad = f"error:{name}", []
            else:
                dt = clock() - t
                with untraced():
                    outcome, bad = wl.check(key, result)
                if outcome != workloads.EXCLUDED:
                    outcome = workloads.digest(outcome)
            want = expected.get(key)
            if want is None:
                bad.append(f"{key}: no recorded output")
            elif want.startswith("error:") and not outcome.startswith("error:"):
                # a recorded failure that now succeeds is a fix, checked by
                # the oracles alone
                newly_ok += 1
            elif want != outcome:
                bad.append(f"{key}: outcome {outcome}, recorded {want}")
            if outcome == workloads.EXCLUDED and not bad:
                excluded += 1
                continue
            check_failures += bool(bad)
            problems.extend(bad)
            attempted += 1
            if bad or outcome.startswith("error:"):
                failed += 1
                failed_keys.add(key)
            unscaled.append((key, dt))
            if i == 0:
                first_pass.append(f"{key}={outcome}")
        with untraced():
            bad = wl.finish_pass()
        check_failures += len(bad)
        problems.extend(bad)
        if i == 0 and tracer is not None:
            layers = tracer.layer_metrics()
    read_scale()
    ok = sorted(times.keys() - failed_keys)
    return {
        "attempted": attempted,
        "failed": failed,
        "raised": dict(raised),
        "raised_example": raised_example,
        "check_failures": check_failures,
        "problems": problems[:20],
        "excluded": excluded,
        "newly_ok": newly_ok,
        "passes": passes,
        "cpu_s": clock() - t_start,
        "wall_s": time.perf_counter() - wall_start,
        "scales": scales,
        "task_s": {key: statistics.median(ts) for key, ts in times.items()},
        "ok": ok,
        "ok_samples": [dt for key in ok for dt in times[key]],
        "first_pass_digest": workloads.digest("\n".join(first_pass)),
        "layers": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import qbrauer

    if SRC not in Path(qbrauer.__file__).resolve().parents:
        print(f"qbrauer was imported from {qbrauer.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        import tracer

        tracing = tracer.Tracer()
    else:
        tracing = contextlib.nullcontext()
    with tracing as tr:
        wl.setup()
        ready_s = time.process_time() * speed_scale()
        if args.setup_only:
            print(json.dumps({"ready_s": ready_s}))
            return 0
        out = run(wl, args.passes, tr)
    out["ready_s"] = ready_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["children_cpu_s"] = children.ru_utime + children.ru_stime
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
