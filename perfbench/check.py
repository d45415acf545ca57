"""Checks of the benchmark itself, separate from the timed runs.

    python3 perfbench/check.py    # all three checks (a few minutes)

1. Span arithmetic: on synthetic spans, self time is duration minus child
   coverage (nested, back-to-back, overlapping and overhanging children) and
   inclusive time counts each group's outermost spans once.
2. Tracer parity: for every query the benchmark can run, the stdout and exit
   code under the tracer equal those of the plain process and the reference.
3. Count repeat: two traced passes of every workload at seed 0 give exactly
   the same per-layer counts (every per-layer metric that is not a time).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import run
import spans
import workloads


def check_span_arithmetic() -> list:
    errors = []

    def expect(label, got, want):
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)) or len(got) != len(want):
            errors.append(f"{label}: got {got}, want {want}")

    # root [0,10]; back-to-back children [1,3] and [3,5]; child [6,9] holding
    # a grandchild [7,8] of the root's group
    starts = [0.0, 1.0, 3.0, 6.0, 7.0]
    ends = [10.0, 3.0, 5.0, 9.0, 8.0]
    parents = [-1, 0, 0, 0, 3]
    got = spans.self_times(starts, ends, parents)
    expect("nested and back-to-back", got, [3.0, 2.0, 2.0, 2.0, 1.0])
    groups = [0, 1, 1, 2, 0]
    expect("inclusive", spans.inclusive_times(starts, ends, parents, groups, 3), [10.0, 4.0, 3.0])
    # overlapping children [1,4] and [2,6] cover [1,6]; a child [8,12] sticks
    # out of its parent [0,10] and covers only [8,10]; given out of order
    starts = [2.0, 0.0, 8.0, 1.0]
    ends = [6.0, 10.0, 12.0, 4.0]
    parents = [1, -1, 1, 1]
    got = spans.self_times(starts, ends, parents)
    expect("overlapping and overhanging", got, [4.0, 3.0, 4.0, 3.0])
    expect("empty", spans.self_times([], [], []), [])
    return errors


def check_parity(workdir: str) -> list:
    errors = []
    ref = run.Reference(run.REFERENCE)
    jobs = [workloads.WARMUP, workloads.verify_job(0), *workloads.pool_queries()]
    for k, job in enumerate(jobs):
        deadline = time.monotonic() + 2 * run.JOB_TIMEOUT_S
        plain = run.cli_job(job, workdir, deadline)
        traced = run.cli_job(job, workdir, deadline, os.path.join(workdir, f"parity{k}"))
        name = " ".join(job)
        if (plain.stdout, plain.exit_code) != (traced.stdout, traced.exit_code):
            errors.append(f"{name}: traced output differs from plain output")
        errors += ref.check(plain)[1] + ref.check(traced)[1]
        print(f"parity {'ok' if not errors else 'FAIL'}: {name}", flush=True)
    return errors


def check_count_repeat(workdir: str) -> list:
    errors = []
    ref = run.Reference(run.REFERENCE)
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs_for(workload, 0)
        seen = []
        for rep in range(2):
            trace_dir = os.path.join(workdir, f"{workload}{rep}")
            os.mkdir(trace_dir)
            deadline = time.monotonic() + run.RUN_DEADLINE_S
            p = run.run_pass(jobs, ref, workdir, deadline, trace_dir)
            errors += p.failures
            paths = [os.path.join(trace_dir, f"job{k}") for k in range(len(jobs))]
            metrics = spans.layer_metrics(paths, [r.speed for r in p.results])
            seen.append({k: v for k, v in metrics.items() if run.PER_LAYER_UNITS[k] != "s"})
        for key in seen[0]:
            if seen[0][key] != seen[1][key]:
                errors.append(f"{workload} {key}: {seen[0][key]} then {seen[1][key]}")
        print(f"count repeat {workload}: {len(seen[0])} counts compared", flush=True)
    return errors


def main() -> int:
    errors = check_span_arithmetic()
    print(f"span arithmetic: {'ok' if not errors else 'FAIL'}")
    os.chdir(run.ROOT)
    run.build()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        errors += check_parity(workdir)
        errors += check_count_repeat(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("all checks passed" if not errors else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
