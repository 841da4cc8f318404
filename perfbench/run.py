"""availkit benchmark: closed-loop CLI jobs over seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact-shared --seed 1 --seconds 25 --trace 0

One process runs one workload with one client on one thread.  Set-up
(a fresh import of availkit, writing the seeded inputs, computing their
references and a warm-up) is repeated SETUP_REPEATS times and its median
reported.  The loop then calls `availkit.cli.main(argv)` in-process, so
interpreter start-up is not timed, one job after another over the
workload's pass of jobs until --seconds have passed.  Latency and
throughput come from completed passes only, so every job weighs the same
however many passes fit.  Every job's output is checked.

All reported times are scaled to a reference machine speed measured by
`speed_probe` around each pass and each set-up, because the speed of the
shared machines this runs on drifts by tens of percent within minutes.
The unscaled throughput and the mean scale factor are printed in the
environment block.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 untraced and traced passes take turns until --seconds have
passed; the last line reports the per-layer metrics of the traced passes
(per pass of the job list) and their cost against the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples above the reported tail latency


class Phase:
    """Timings and outcomes of the completed passes run in one mode.

    Times are scaled to the reference speed (see `speed_probe`); `raw_busy`
    keeps the unscaled wall time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.successes = 0
        self.passes = 0
        self.busy = 0.0
        self.raw_busy = 0.0


# Seconds the speed probe takes at the reference speed; about its time on a
# 2.1 GHz Xeon sandbox at its fastest.
PROBE_REFERENCE_S = 0.014


def _probe_work() -> None:
    x = Fraction(1)
    for i in range(1, 1200):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % 10**60, x.denominator % 10**60 + 1)
    counts: dict = {}
    for i in range(30000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    a = numpy.arange(20000.0)
    for _ in range(20):
        a = numpy.sqrt(a * a + 1.0)


def speed_probe() -> float:
    """Scale factor to the reference speed: reference time / probe time.

    The sandbox's speed drifts by 20-45 % within minutes, so each pass and
    each set-up is timed between two probes of fixed interpreter,
    big-integer and numpy work, and its times are multiplied by this
    factor.  The fastest of three probes is taken, so one stall does not
    count.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return PROBE_REFERENCE_S / best


def fresh_import():
    """Import availkit from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "availkit" or m.startswith("availkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("availkit.cli")


def call(cli, argv: tuple) -> tuple:
    """Run one CLI job; a raised exception is a failed job, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # the loop must go on; the job counts as failed
            code = None
            err.write(traceback.format_exc(limit=1))
    return code, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, workload: workloads.Workload) -> None:
        self.jobs = workload.jobs
        self.memo: dict = {}
        self.first_digest: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.last_probe = None  # speed factor measured at the end of the last pass

    def run_pass(self, phase: Phase, deadline: float = math.inf, tracer=None) -> bool:
        """One pass over the jobs; False when the deadline cut it short.

        Only a completed pass adds its timings to `phase`.
        """
        cli = sys.modules["availkit.cli"]
        before = self.last_probe or speed_probe()
        latencies, successes = [], 0
        start = perf_counter()
        for index, job in enumerate(self.jobs):
            if perf_counter() >= deadline:
                self.last_probe = None
                return False
            if tracer is not None:
                tracer.job = self.attempted
            t0 = perf_counter()
            code, out, err = call(cli, job.argv)
            latencies.append(perf_counter() - t0)
            successes += self.judge(index, job, code, out, err)
        raw = perf_counter() - start
        self.last_probe = speed_probe()
        scale = (before + self.last_probe) / 2
        phase.latencies += [t * scale for t in latencies]
        phase.successes += successes
        phase.passes += 1
        phase.busy += raw * scale
        phase.raw_busy += raw
        return True

    def loop(self, seconds: float) -> Phase:
        """Untraced passes until `seconds` have passed; at least one completes."""
        phase = Phase()
        deadline = perf_counter() + seconds
        self.run_pass(phase)
        while self.run_pass(phase, deadline):
            pass
        return phase

    def traced_loop(self, seconds: float, tracer) -> tuple:
        """Untraced and traced passes in turn, so drift in machine speed
        affects both alike; returns (untraced, traced)."""
        plain, traced = Phase(), Phase()
        deadline = perf_counter() + seconds
        while True:
            self.run_pass(plain)
            tracer.install()
            try:
                self.run_pass(traced, tracer=tracer)
            finally:
                tracer.remove()
            if perf_counter() >= deadline:
                return plain, traced

    def judge(self, index: int, job, code, out: str, err: str) -> bool:
        self.attempted += 1
        try:
            reason = checks.check(job, code, out, self.memo)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"malformed report ({type(exc).__name__}: {exc})"
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if reason is None and self.first_digest.setdefault(index, digest) != digest:
            reason = "output differs from this job's first run"
        if reason is not None:
            first_err = err.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(job.argv)}: {reason} {first_err[0]}".strip())
        return reason is None

    def stdout_digest(self) -> str:
        """Digest of the first pass's stdout, job by job; same seed, same digest."""
        whole = hashlib.sha256()
        for index in range(len(self.jobs)):
            whole.update(self.first_digest.get(index, "-").encode())
        return whole.hexdigest()


def jobs_per_s(phase: Phase) -> float:
    """Successful jobs per second of scaled wall time, over completed passes."""
    return phase.successes / phase.busy


def end_to_end(phase: Phase, jobs_per_pass: int, setup_s: float) -> tuple:
    ordered = sorted(phase.latencies)
    n = len(ordered)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s(phase), "1/s"),
        "job_ms_p50": (1000.0 * statistics.median(ordered), "ms"),
        "job_ms_tail": (1000.0 * ordered[tail_index], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    basis = {
        "latency_samples": n,
        "passes": phase.passes,
        "jobs_per_pass": jobs_per_pass,
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 2),
        "tail_samples_beyond": n - tail_index - 1,
        "unscaled_jobs_per_s": phase.successes / phase.raw_busy,
        "speed_scale": phase.busy / phase.raw_busy,
    }
    return metrics, basis


def environment(seed: int, root: Path) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((root / "src" / "availkit").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "git_commit": _git_commit(root),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    return None


def setup(name: str, seed: int, work: Path) -> tuple:
    """Import, inputs, references and warm-up; returns (scaled seconds, workload)."""
    before = speed_probe()
    t0 = perf_counter()
    cli = fresh_import()
    workload = workloads.build(name, seed)
    for path, text in workload.files.items():
        (work / path).write_text(text, encoding="utf-8")
    warmed = set()
    for job in workload.jobs:
        if job.argv[0] not in warmed:
            warmed.add(job.argv[0])
            call(cli, job.argv)
    seconds = perf_counter() - t0
    return seconds * (before + speed_probe()) / 2, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "availkit" / "cli.py").is_file():
        print(f"no availkit sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("AVAILKIT_THREADS", None)  # every job at the CLI default of one thread

    out_dir = BENCH_DIR / "out"
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workload = setup(args.workload, args.seed, work)
            setups.append(seconds)
        setup_s = statistics.median(setups)
        runner = Runner(workload)
        per_pass = len(workload.jobs)
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = runner.traced_loop(args.seconds, tracer)
            metrics = tracing.layer_metrics(tracer.spans, traced.passes)
            overhead = jobs_per_s(plain) / jobs_per_s(traced) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            basis = {"traced_passes": traced.passes, "untraced_passes": plain.passes, "spans": len(tracer.spans)}
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            metrics, basis = end_to_end(runner.loop(args.seconds), per_pass, setup_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, root)
    env.update(basis, workload=args.workload, setup_runs_s=setups)
    failed = len(runner.failures)
    digest = runner.stdout_digest()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs)")
    print(f"stdout_sha256 = {digest}")
    print("environment = " + json.dumps(env, sort_keys=True))
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, environment=env, stdout_sha256=digest, failures=runner.failures)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
