"""Record the expected task outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/record.py [workload ...]

Runs every input each workload can draw once and writes the digest of each
output (or ``excluded``, or ``error:<exception>``) to
``bench/expected/<workload>.json``.  Outputs are exact, so a later source
tree that changes any of them fails the benchmark's checks.  Nothing is
written for a workload whose oracle checks fail.
"""

from __future__ import annotations

import json
import sys

import workloads


def record(name):
    wl = workloads.WORKLOADS[name](seed=0)
    out = {}
    problems = []
    for tasks in wl.every_input():
        for key, task in tasks:
            try:
                result = task()
            except Exception as exc:  # recorded as the expected outcome
                out[key] = f"error:{type(exc).__name__}"
                continue
            outcome, bad = wl.check(key, result)
            problems.extend(bad)
            out[key] = outcome if outcome == workloads.EXCLUDED else workloads.digest(outcome)
        problems.extend(wl.finish_pass())
    if problems:
        print(f"{name}: not recorded, checks failed:", *problems, sep="\n  ")
        return False
    path = workloads.EXPECTED_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    counts = {}
    for v in out.values():
        kind = v if v == workloads.EXCLUDED or v.startswith("error:") else "output"
        counts[kind] = counts.get(kind, 0) + 1
    print(f"{name}: {len(out)} inputs recorded {counts}")
    return True


def main(argv):
    names = argv or sorted(workloads.WORKLOADS)
    ok = all([record(name) for name in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
