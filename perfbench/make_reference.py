"""Record the reference output of every job the benchmark can run.

    python3 perfbench/make_reference.py

Run from the root of a source checkout at the commit whose answers are the
reference.  Writes perfbench/reference/queries.json: for every pool query,
the warm-up job and `verify --suite all --format json`, the exact stdout and
exit code of a cold `python -m qgue.cli` process.  Verify jobs with other
suite orders are checked suite by suite against the `--suite all` report.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    run.build()
    jobs = [workloads.WARMUP, workloads.verify_job(0), *workloads.pool_queries()]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    out = {}
    try:
        for job in jobs:
            res = run.cli_job(job, workdir, time.monotonic() + run.JOB_TIMEOUT_S)
            if res.timed_out:
                print(f"timed out: {' '.join(job)}", file=sys.stderr)
                return 1
            out[" ".join(job)] = {"exit_code": res.exit_code, "stdout": res.stdout.decode()}
            print(f"{res.wall_s:7.2f} s  exit {res.exit_code}  {' '.join(job)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
