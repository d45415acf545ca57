"""Cold-process benchmark of the qgue command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh
`python -m qgue.cli ...` process started from this one runner process; jobs
run back to back, one at a time (a closed loop with one client), with a fixed
environment, so each starts with empty caches.  A pass runs the workload's job
list once; passes repeat until the next one would end after S seconds, with at
least MIN_PASSES passes.  Every job's stdout and exit code are compared byte
for byte with the reference recorded in perfbench/reference/.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent within minutes, so while a job runs the runner
times a tiny fixed kernel (`probe`) every PROBE_INTERVAL_S and integrates
dt * PROBE_REF_S / probe_time over the job (probe_time being the median of
the last three probes).  On a machine where the probe
takes PROBE_REF_S this equals the wall time; elsewhere it is the wall time
the job would take there.  Raw wall and CPU times are printed on the `#`
lines.  The runner pins itself to one CPU and every job inherits that CPU, so
the probe always measures the core the job runs on.  cpu_s is the jobs' user
+ system CPU time, rescaled with the same factor.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1 runs
one plain pass and one pass under perfbench/tracer.py and prints the
per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # every job is killed by then, inside the 180 s limit
SETUP_REPS_FIRST = 8  # set-up measurements before the first pass
SETUP_REPS_PER_PASS = 3  # and before each pass, to spread them over the run
SETUP_CODE = "import qgue.cli; qgue.cli.build_parser()"
TRACER = os.path.join("perfbench", "tracer.py")
REFERENCE = os.path.join(HERE, "reference", "queries.json")
PROBE_INTERVAL_S = 0.01
PROBE_REF_S = 0.0003  # probe time that defines one reference second

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "exactq.self_s": "s",
    "exactq.poly_mul_calls": "count",
    "exactq.poly_mul_coeff_products": "count",
    "exactq.poly_max_degree": "degree",
    "exactq.coeff_max_bits": "bits",
    "exactq.exact_div_calls": "count",
    "exactq.exact_div_hit_ratio": "ratio",
    "exactq.gcd_calls": "count",
    "exactq.gcd_fallback_calls": "count",
    "exactq.scalar_ops": "count",
    "exactq.cache_hit_ratio": "ratio",
    "qxpoly.self_s": "s",
    "qxpoly.incl_s": "s",
    "qxpoly.gaussian_op_calls": "count",
    "qxpoly.gaussian_op_max_degree": "degree",
    "qxpoly.hermite_incl_s": "s",
    "qxpoly.hermite_max_n": "degree",
    "symschur.self_s": "s",
    "symschur.incl_s": "s",
    "symschur.det_calls": "count",
    "symschur.det_max_order": "rows",
    "symschur.monomial_term_products": "count",
    "symschur.oracle_calls": "count",
    "symschur.cache_hit_ratio": "ratio",
    "moments.self_s": "s",
    "moments.incl_s": "s",
    "moments.integrate_calls": "count",
    "moments.cache_hit_ratio": "ratio",
    "verify.self_s": "s",
    "verify.incl_s": "s",
    "verify.points": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Fatal(Exception):
    """The program cannot be benchmarked at all; no result is printed."""


def job_env() -> Dict[str, str]:
    """The fixed environment of every job: QGUE_THREADS unset, hash seed 0."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "PYTHONDONTWRITEBYTECODE": "1",
    }


_PROBE_A = [(i * 7919) ** 20 for i in range(1, 31)]
_PROBE_B = [(i * 104729) ** 18 for i in range(1, 31)]


def probe() -> float:
    """Time a fixed pure-Python kernel: a schoolbook product of two lists of
    30 big integers (about 300 bits), the kind of work qgue's kernels do."""
    t0 = time.perf_counter()
    out = [0] * 59
    for i, x in enumerate(_PROBE_A):
        for j, y in enumerate(_PROBE_B):
            out[i + j] += x * y
    return time.perf_counter() - t0


@dataclass
class JobResult:
    job: Tuple[str, ...]
    start: float
    end: float
    ref_s: float  # wall time in reference seconds
    cpu_s: float  # raw user + system CPU
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def speed(self) -> float:
        """Reference seconds per wall second while the job ran."""
        return self.ref_s / self.wall_s


def run_job(job, argv: List[str], workdir: str, deadline: float) -> JobResult:
    """Spawn `python ARGV`, probe the machine's speed until it exits, reap it."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
    ]
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    # each interval uses the median of the last three probe times, so one
    # preempted probe is not read as a slow machine
    recent = [probe(), probe(), probe()]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], job_env(), file_actions=actions)
    ref_s, last, timed_out = 0.0, start, False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                if time.perf_counter() - start > timeout:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                    break
                recent = recent[1:] + [probe()]
                now = time.perf_counter()
                ref_s += (now - last) * PROBE_REF_S / sorted(recent)[1]
                last = now
        finally:
            os.close(pidfd)
    except BaseException:  # interrupted: stop the job before reaping it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    ref_s += (end - last) * PROBE_REF_S / sorted(recent)[1]
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return JobResult(
        job,
        start,
        end,
        ref_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        os.waitstatus_to_exitcode(status),
        timed_out,
        stdout,
        stderr,
    )


def cli_job(job, workdir: str, deadline: float, trace_out: Optional[str] = None) -> JobResult:
    if trace_out is None:
        argv = ["-m", "qgue.cli", *job]
    else:
        argv = [TRACER, trace_out, "--", *job]
    return run_job(job, argv, workdir, deadline)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class Reference:
    """Stdout and exit code of every pool query at the reference commit."""

    def __init__(self, path: str):
        with open(path) as fh:
            self.queries = json.load(fh)
        full = self.queries[" ".join(workloads.verify_job(0))]
        report = json.loads(full["stdout"])
        self.verify_exit = full["exit_code"]
        self.suites = {s["identity"]: s for s in report["suites"]}
        self.summary = report["summary"]

    def check(self, res: JobResult) -> Tuple[int, List[str]]:
        """(units checked, failure messages); a verify job has one unit per suite."""
        name = " ".join(res.job)
        if res.job[0] == "verify":
            return self._check_verify(res, name)
        ref = self.queries.get(name)
        if ref is None:
            return 1, [f"{name}: no reference output"]
        problem = _status_problem(res, ref["exit_code"])
        if problem is None and res.stdout != ref["stdout"].encode():
            problem = "stdout differs from reference"
        return 1, [] if problem is None else [f"{name}: {problem}"]

    def _check_verify(self, res: JobResult, name: str) -> Tuple[int, List[str]]:
        args = res.job
        picked = [args[i + 1] for i in range(len(args) - 1) if args[i] == "--suite"]
        order = list(workloads.SUITES) if "all" in picked else picked
        problem = _status_problem(res, self.verify_exit)
        if problem is not None:
            return len(order), [f"{name} [{suite}]: {problem}" for suite in order]
        expected = {"suites": [self.suites[s] for s in order], "summary": self.summary}
        if res.stdout == _render(expected).encode():
            return len(order), []
        try:
            got = json.loads(res.stdout)["suites"]
        except (ValueError, KeyError, TypeError):
            return len(order), [f"{name} [{suite}]: report is not valid JSON" for suite in order]
        failures = [
            f"{name} [{suite}]: suite report differs from reference"
            for pos, suite in enumerate(order)
            if pos >= len(got) or got[pos] != self.suites[suite]
        ]
        if not failures:  # suites equal, so the difference is in layout or summary
            failures.append(f"{name} [summary]: report bytes differ from reference")
        return len(order), failures


def _render(report) -> str:
    """The byte layout of `qgue verify --format json`."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _status_problem(res: JobResult, want_exit: int) -> Optional[str]:
    if res.timed_out:
        return f"timed out after {res.wall_s:.1f} s"
    if res.exit_code != want_exit:
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {res.exit_code}, expected {want_exit} {tail}"
    return None


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    results: List[JobResult]
    attempted: int
    failures: List[str]

    @property
    def raw_wall_s(self) -> float:
        return self.results[-1].end - self.results[0].start

    @property
    def wall_s(self) -> float:
        """First spawn to last exit, in reference seconds."""
        raw_jobs = sum(r.wall_s for r in self.results)
        return self.raw_wall_s * sum(r.ref_s for r in self.results) / raw_jobs


def run_pass(
    jobs, ref: Reference, workdir: str, deadline: float, trace_dir: Optional[str] = None
) -> Pass:
    results, attempted, failures = [], 0, []
    for k, job in enumerate(jobs):
        trace_out = None if trace_dir is None else os.path.join(trace_dir, f"job{k}")
        res = cli_job(job, workdir, deadline, trace_out)
        n, fails = ref.check(res)
        results.append(res)
        attempted += n
        failures += fails
    return Pass(results, attempted, failures)


def setup_time(workdir: str, deadline: float) -> float:
    """One fresh interpreter importing the CLI and building its parser."""
    res = run_job(("setup",), ["-c", SETUP_CODE], workdir, deadline)
    if res.exit_code != 0 or res.timed_out:
        raise Fatal(f"`{SETUP_CODE}` failed: {res.stderr.decode(errors='replace').strip()}")
    return res.ref_s


def end_to_end(passes: List[Pass], setups: List[float]) -> Dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    med = statistics.median
    return {
        "wall_s": med(p.wall_s for p in passes),
        "cpu_s": med(sum(r.cpu_s * r.speed for r in p.results) for p in passes),
        "slowest_job_s": med(max(r.ref_s for r in p.results) for p in passes),
        "setup_s": med(setups),
        "peak_rss_mb": med(max(r.rss_mb for r in p.results) for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }


def timed_run(jobs, ref, workdir, deadline, seconds):
    setups = [setup_time(workdir, deadline) for _ in range(SETUP_REPS_FIRST)]
    passes: List[Pass] = []
    t0 = time.monotonic()
    while True:
        setups += [setup_time(workdir, deadline) for _ in range(SETUP_REPS_PER_PASS)]
        passes.append(run_pass(jobs, ref, workdir, deadline))
        next_end = time.monotonic() + passes[-1].raw_wall_s
        if len(passes) >= MIN_PASSES and (next_end - t0 > seconds or next_end > deadline - 10):
            break
    for p in passes:
        walls = " ".join(f"{r.wall_s:.3f}" for r in p.results)
        cpu = sum(r.cpu_s for r in p.results)
        print(
            f"# pass raw wall: {walls} = {p.raw_wall_s:.3f} s; reference: {p.wall_s:.3f} s; "
            f"cpu: {cpu:.3f} s"
        )
    return passes, end_to_end(passes, setups)


def traced_run(jobs, ref, workdir, deadline):
    plain = run_pass(jobs, ref, workdir, deadline)
    trace_dir = os.path.join(workdir, "trace")
    os.mkdir(trace_dir)
    traced = run_pass(jobs, ref, workdir, deadline, trace_dir)
    found = [
        (os.path.join(trace_dir, f"job{k}"), r.speed)
        for k, r in enumerate(traced.results)
        if os.path.exists(os.path.join(trace_dir, f"job{k}.json"))  # a crashed job writes none
    ]
    if not found:
        raise Fatal("no traced job wrote a trace")
    metrics = spans.layer_metrics([p for p, _ in found], [s for _, s in found])
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    return [plain, traced], metrics


# ---------------------------------------------------------------------------
# build, host record, main
# ---------------------------------------------------------------------------


def build() -> None:
    """Compile the program's bytecode so no job pays for it."""
    src = os.path.join(ROOT, "src", "qgue")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        where = os.path.relpath(src, ROOT)
        raise Fatal(f"no qgue sources under {where}; run from a source checkout")
    env = dict(job_env())
    del env["PYTHONDONTWRITEBYTECODE"]
    argv = [sys.executable, "-m", "compileall", "-q", src]
    done = subprocess.run(argv, env=env, capture_output=True)
    if done.returncode != 0:
        raise Fatal("compileall failed:\n" + done.stdout.decode(errors="replace"))


def host_record(when: str) -> str:
    with open("/proc/loadavg") as fh:
        loadavg = " ".join(fh.read().split()[:3])
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        capture_output=True,
        text=True,
    )
    commit = git.stdout.strip() if git.returncode == 0 else "none"
    probe_s = statistics.median(probe() for _ in range(20))
    return (
        f"# host {when}: python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={commit} loadavg={loadavg} probe={probe_s * 1e6:.0f}us"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so the running job is killed and reaped and the
    # working directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    # one CPU for the runner, its probe and every job it spawns
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_DEADLINE_S
    jobs = workloads.jobs_for(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        build()
        ref = Reference(REFERENCE)
        print(host_record("start"))
        for job in jobs:
            print(f"# job: {' '.join(job)}")
        warm = cli_job(workloads.WARMUP, workdir, deadline)
        if warm.exit_code != 0 or warm.timed_out:
            raise Fatal(f"warm-up job failed: {warm.stderr.decode(errors='replace').strip()}")
        if args.trace:
            passes, metrics = traced_run(jobs, ref, workdir, deadline)
        else:
            passes, metrics = timed_run(jobs, ref, workdir, deadline, args.seconds)
        print(host_record("end"))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"# FAILED {f}")
    print(
        f"# {args.workload} seed={args.seed} passes={len(passes)} attempted={attempted} "
        f"failed={len(failures)} fail_ratio={len(failures) / attempted:.4g}"
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"# {name:34s} {value:>16.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
