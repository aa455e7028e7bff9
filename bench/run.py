"""The qbrauer benchmark: one command for every workload and metric.

    python3 bench/run.py --workload grid_fp --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it measures the qbrauer package
under ``src/`` of that checkout and nothing installed elsewhere.  Each
measurement runs in a fresh interpreter (``worker.py``), so lru_cache tables
and rewrite memos start cold, as they do for a user.  The workloads, their
tasks and their output checks are described in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics:

  setup_s       interpreter start to the first task being ready (import plus
                the first pass's algebras and process-wide tables), median
                over SETUP_RUNS set-up-only interpreters and the measured one
  tasks_per_s   tasks in a pass over the sum of their latencies
  task_p50_ms   median latency of the tasks that succeeded
  task_tail_ms  the highest percentile of those latencies with at least 10
                samples beyond it
  ok_ratio      tasks that succeeded and passed their checks / tasks attempted
  peak_rss_mb   ru_maxrss of the measuring interpreter

A run is a number of passes that each repeat the same tasks, and a task's
latency is the median of its times over the passes.  When a pass has too
few successful tasks for their tail to lie above their median, as the 20
cells of cells_n5_fp, the tail is taken over every pass's time of those
tasks instead.  All times are CPU time of the worker scaled to the
machine's full speed by a reference kernel (see ``worker.py`` for why); the
unscaled CPU time and the wall time of the run are printed next to them.

``--trace 1`` makes two runs of half the length, untraced and then traced
(``tracer.py``), and reports the per-layer metrics of the traced set-up and
first pass, plus ``trace.tasks_per_s_ratio``, the traced over the untraced
task rate.  The output checks run untraced, so the per-layer metrics hold
only the library's work for the tasks.  The two runs must produce identical
outputs.

``--seconds`` sets the size of a run: whole passes, as many as take that
long at the workload's nominal pass time, so every run with the same
``--seconds`` does the same work.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the lines before it give
the sample counts and the run's context.  The exit code is 1 when an output
check fails (an output, or an exception, that differs from the recorded
one, or an oracle that disagrees), 2 when the source tree or the recorded
outputs are missing, and 3 when a worker fails or runs out of time.

Left out on purpose: the ``cli`` module, which only parses arguments and
prints (0.013 s of a 17 s ``semisimple --grid all`` profile); ``Cyclo``
coefficients, which no workload uses; and the tier-1 test time (85 s) and
``QBrAlgebra(6)`` (39 s), too long to repeat in every run.  The n = 5 set-up
of cells_n5_fp carries the same brauerdiag length-table cost as the latter.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# scaled CPU seconds one untraced pass takes on a 2-core x86-64 box with
# Python 3.11
PASS_S = {"grid_fp": 4.0, "gram_generic": 3.0, "cells_n5_fp": 15.0}
# a median over passes needs a repeat
MIN_PASSES = 2

SETUP_RUNS = 8
TAIL_BEYOND = 10
DEADLINE_S = 170

EXIT_CHECK = 1
EXIT_MISSING = 2
EXIT_WORKER = 3


class WorkerError(RuntimeError):
    pass


def passes_for(workload, seconds, fewest):
    return max(fewest, round(seconds / PASS_S[workload]))


def spawn(args, deadline):
    """Run worker.py with ``args``; return the JSON object it printed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QBR_")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(0.1, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran out of time") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if result.get("children_cpu_s"):
        raise WorkerError("the library started processes; CPU time misses them")
    return result


def tail(latencies):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    i = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - i - 1


def tasks_per_s(res):
    task_s = res["task_s"]
    return len(task_s) / sum(task_s.values())


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "qbrauer").glob("*.py"))
        ),
    }


def end_to_end(args, deadline):
    n = passes_for(args.workload, args.seconds, MIN_PASSES)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--passes", str(n)]
    setups = [spawn([*common, "--setup-only"], deadline)["ready_s"] for _ in range(SETUP_RUNS)]
    res = spawn(common, deadline)
    setups.append(res["ready_s"])
    task_s = res["task_s"]
    lat = [task_s[k] for k in res["ok"]]
    if not lat:
        raise WorkerError("no task succeeded, so there are no latencies to report")
    # a tail with 10 beyond it lies above the median only with 22 samples
    samples = lat if len(lat) > 2 * TAIL_BEYOND + 1 else res["ok_samples"]
    tail_s, pct, beyond = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (tasks_per_s(res), "1/s"),
        "task_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "task_tail_ms": (1e3 * tail_s, "ms"),
        "ok_ratio": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"setup_s is the median of {len(setups)} set-ups",
        f"task_tail_ms is p{pct:.1f} of {len(samples)} times of"
        f" {len(lat)} successful tasks, {beyond} beyond it",
        f"{len(task_s)} tasks a pass; the passes took {res['cpu_s']:.2f} CPU s"
        f" in {res['wall_s']:.2f} s of wall time",
        f"speed scale median {statistics.median(res['scales']):.3f},"
        f" range {min(res['scales']):.3f}-{max(res['scales']):.3f}",
    ]
    return res, metrics, notes, []


def per_layer(args, deadline):
    n = passes_for(args.workload, args.seconds / 2, 1)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--passes", str(n)]
    plain = spawn(common, deadline)
    traced = spawn([*common, "--trace"], deadline)
    problems = []
    if traced["first_pass_digest"] != plain["first_pass_digest"]:
        problems.append("traced and untraced runs gave different outputs")
    rate, plain_rate = tasks_per_s(traced), tasks_per_s(plain)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.tasks_per_s_ratio"] = (rate / plain_rate, "ratio")
    notes = [
        f"per-layer metrics cover the set-up and first pass of the traced run,"
        f" in unscaled CPU time; traced {rate:.4g} tasks/s, untraced {plain_rate:.4g}"
    ]
    return traced, metrics, notes, problems


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    missing = [
        p for p in (SRC / "qbrauer" / "__init__.py", BENCH / "expected" / f"{args.workload}.json")
        if not p.is_file()
    ]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return EXIT_MISSING

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, notes, problems = measure(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER

    problems = res["problems"] + problems
    correct = res["check_failures"] == 0 and not problems
    print(
        f"{args.workload} seed {args.seed}: {res['attempted']} tasks in"
        f" {res['passes']} passes, {res['failed']} failed"
        f" (raised {res['raised']}, {res['check_failures']} failed checks),"
        f" {res['excluded']} excluded points, {res['newly_ok']} recorded failures now succeed"
    )
    for name, example in res["raised_example"].items():
        print(f"  first {name}: {example}")
    for p in problems:
        print(f"  check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"context": context(args)}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
