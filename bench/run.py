"""Benchmark of the `blowdown` CLI: timed end-to-end runs and a traced run.

    python3 bench/run.py --workload blowup --seed 0 --seconds 25 --trace 0

Timed mode (--trace 0) launches one `blowdown.cli` process at a time (a
closed loop with a single client) and repeats the workload's invocation list
for --seconds.  It reports wall_s, cpu_s, peak_rss_mb and setup_s, with
the times rescaled to a reference host speed (SpeedGauge), and prints the
unscaled times and fail_ratio besides.  Traced mode (--trace 1) calls
`blowdown.cli.main` in-process on the same list with the tracer installed
and reports the per-layer metrics of tracing.py.  Both modes check every output against the
digests in references.json.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 when
every invocation succeeded, 1 when any failed and 2 on a usage error.

    python3 bench/run.py --record    # re-record references.json

--record confirms each output by an independent route (workloads.confirm)
before it stores the output's digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import tracing
import workloads
from workloads import SETUP_PROBE, WORKLOADS, Args

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
SETUP_PROBES = 15
SMOKE_SETUP_PROBES = 3
DEFAULT_TIMEOUT_S = 120.0
DROP_WARNING = "dropping class"
GAUGE_PERIOD_S = 0.05
GAUGE_ITERATIONS = 300
# gauge_sample() on a 2-vCPU Xeon VM at its faster speed; it only sets the
# scale of the reported times.
GAUGE_REFERENCE_S = 0.0013

# Runs `python -m blowdown.cli ARGS...` and, at exit, writes the process's own
# peak RSS in KiB (VmHWM) to the file named by its first argument.  ru_maxrss
# from wait4 cannot give this: posix_spawn runs the child on the parent's
# address space until exec, and Linux carries that space's peak into the
# child's maxrss, so it would read at least the benchmark's own peak.
CLI_SHIM = """\
import atexit, runpy, sys
hwm_path = sys.argv.pop(1)
def write_hwm():
    with open('/proc/self/status') as status:
        kib = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
    with open(hwm_path, 'w') as out:
        out.write(kib)
atexit.register(write_hwm)
runpy.run_module('blowdown.cli', run_name='__main__', alter_sys=True)
"""


def key(args: Args) -> str:
    return shlex.join(args)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# One CLI process


class Child(NamedTuple):
    """Outcome of one CLI process: exit code, output, wall time, CPU and peak RSS."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: Optional[float]  # None when the child was killed before it exited
    timed_out: bool


def run_child(args: Args, timeout: float) -> Child:
    """Run the CLI on `args` (through CLI_SHIM) to completion or until `timeout`.

    The child is reaped with os.wait4, so its own rusage gives user+sys CPU.
    A timer kills it at the deadline; the kill can only reach the child or its
    zombie, because the child is reaped after the timer has finished.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    killed = threading.Event()
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err, \
            tempfile.NamedTemporaryFile(dir=OUT) as hwm:
        argv = [sys.executable, "-c", CLI_SHIM, hwm.name, *args]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])

        def kill():
            killed.set()
            os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        exited = False
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            exited = True
        finally:
            timer.cancel()
            timer.join()
            if not exited:
                # waitid was interrupted: never leave the child behind
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        out.seek(0)
        err.seek(0)
        hwm_kib = hwm.read()
        return Child(
            os.waitstatus_to_exitcode(status),
            out.read(),
            err.read(),
            wall,
            usage.ru_utime + usage.ru_stime,
            int(hwm_kib) / 1024 if hwm_kib else None,
            killed.is_set(),
        )


def subprocess_runner(timeout: float):
    def run(args: Args) -> tuple[int, bytes]:
        child = run_child(args, timeout)
        return child.code, child.stdout

    return run


# ---------------------------------------------------------------------------
# Correctness accounting


class Checker:
    """Compares outputs with the recorded digests and counts the failures."""

    def __init__(self, references: dict[str, str], timeout: float):
        self.references = references
        self.timeout = timeout
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}

    def record(self, args: Args, code: int, stdout: bytes, timed_out: bool) -> None:
        self.attempted += 1
        k = key(args)
        if timed_out:
            self.fail(f"{k}: timed out after {self.timeout} s")
        elif code != 0:
            self.fail(f"{k}: exit code {code}")
        elif k not in self.references:
            self.fail(f"{k}: no reference; run --record")
        elif digest(stdout) != self.references[k]:
            self.fail(f"{k}: stdout differs from the reference")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems[problem] = self.problems.get(problem, 0) + 1


def load_references(path: Path) -> dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())["stdout_sha256"]


# ---------------------------------------------------------------------------
# Timed mode


def gauge_sample() -> float:
    """CPU time of a fixed loop of Fraction arithmetic, the kind of work blowdown does."""
    start = time.thread_time()
    acc = Fraction(0)
    for i in range(1, GAUGE_ITERATIONS):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    return time.thread_time() - start


class SpeedGauge:
    """Samples the host's speed while the children run, as a factor to the reference.

    The CPU speed of a shared VM flips by ~1.7x every few seconds, and a
    child's wall and user+sys time flip with it.  While the gauge is entered,
    a thread on the children's CPU takes gauge_sample() every GAUGE_PERIOD_S
    (about 3% of that CPU).  A child's times are scaled by GAUGE_REFERENCE_S /
    (mean of the samples taken while it ran, and one period either side).
    The samples are thread CPU time, so the share of the CPU the child takes
    does not read as slowness.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(GAUGE_PERIOD_S):
            cpu = gauge_sample()
            self.samples.append((time.perf_counter(), cpu))

    def factor(self, start: float, end: float) -> float:
        """Scale for a child that ran from `start` to `end` (perf_counter)."""
        window = [cpu for t, cpu in self.samples
                  if start - GAUGE_PERIOD_S <= t <= end + GAUGE_PERIOD_S]
        if not window:
            window = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return GAUGE_REFERENCE_S / statistics.fmean(window)


def _median_sum(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


def timed(workload: str, seconds: float, smoke: bool, checker: Checker,
          timeout: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, plus what stands behind them."""
    # Children inherit the affinity, so the gauge reads the CPU they run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    invs = workloads.invocations(workload, smoke)

    def launch(args: Args) -> tuple[Args, float, float, Child]:
        start = time.perf_counter()
        child = run_child(args, timeout)
        end = time.perf_counter()
        checker.record(args, child.code, child.stdout, child.timed_out)
        return args, start, end, child

    with SpeedGauge() as gauge:
        probe_runs = [launch(SETUP_PROBE)
                      for _ in range(SMOKE_SETUP_PROBES if smoke else SETUP_PROBES)]
        runs = []
        passes = 0
        start = time.perf_counter()
        last = 0.0
        while passes == 0 or time.perf_counter() - start + last <= seconds:
            pass_start = time.perf_counter()
            runs.extend(launch(args) for args in invs)
            passes += 1
            last = time.perf_counter() - pass_start

    probes = [child.wall_s * gauge.factor(begun, ended) for _, begun, ended, child in probe_runs]
    raw_probes = [child.wall_s for _, _, _, child in probe_runs]
    series = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")
    samples: dict[str, dict[str, list[float]]] = {m: {key(a): [] for a in invs} for m in series}
    rss = 0.0
    drops: dict[str, int] = {}
    for args, begun, ended, child in runs:
        factor = gauge.factor(begun, ended)
        k = key(args)
        for name, value in zip(series, (child.wall_s * factor, child.cpu_s * factor,
                                        child.wall_s, child.cpu_s)):
            samples[name][k].append(value)
        if child.peak_rss_mb is not None:
            rss = max(rss, child.peak_rss_mb)
        drops[k] = child.stderr.decode(errors="replace").count(DROP_WARNING)
    metrics = {
        "wall_s": _median_sum(samples["wall_s"]),
        "cpu_s": _median_sum(samples["cpu_s"]),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(probes),
    }
    detail = {
        "invocations": [list(a) for a in invs],
        "samples": {"wall_s": passes, "cpu_s": passes, "setup_s": len(probes),
                    "raw_wall_s": passes, "raw_cpu_s": passes, "raw_setup_s": len(probes)},
        "raw": {
            "raw_wall_s": _median_sum(samples["raw_wall_s"]),
            "raw_cpu_s": _median_sum(samples["raw_cpu_s"]),
            "raw_setup_s": statistics.median(raw_probes),
        },
        "gauge_sample_s": {"median": statistics.median(cpu for _, cpu in gauge.samples),
                           "min": min(cpu for _, cpu in gauge.samples),
                           "max": max(cpu for _, cpu in gauge.samples),
                           "samples": len(gauge.samples)},
        "time_samples": {**samples, "setup_s": probes, "raw_setup_s": raw_probes},
        "stderr_drop_warnings": drops,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced mode


def _in_process_pass(invs: list[Args], tracer, checker: Checker) -> tuple[float, int]:
    """Run the invocation list in-process; returns wall time and warnings seen."""
    from blowdown import cli

    dropped = 0
    start = time.perf_counter()
    for i, args in enumerate(invs):
        buf = io.StringIO()
        if tracer is not None:
            tracer.invocation = i
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                code = cli.main(list(args))
        except Exception as exc:
            checker.attempted += 1
            checker.fail(f"{key(args)}: raised {type(exc).__name__}: {exc}")
            continue
        dropped += sum(1 for w in caught if DROP_WARNING in str(w.message))
        checker.record(args, code, buf.getvalue().encode(), False)
    return time.perf_counter() - start, dropped


def traced(workload: str, seconds: float, smoke: bool, checker: Checker,
           spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced in-process passes."""
    sys.path.insert(0, str(SRC))
    invs = workloads.invocations(workload, smoke)
    tracer = tracing.Tracer()
    self_s: list[list[float]] = []
    ratios: list[float] = []
    calls = counts = None
    start = time.perf_counter()
    last = 0.0
    while not ratios or time.perf_counter() - start + last <= seconds:
        pair_start = time.perf_counter()
        plain, _ = _in_process_pass(invs, None, checker)
        tracer.reset()
        tracer.install()
        try:
            with_trace, dropped = _in_process_pass(invs, tracer, checker)
        finally:
            tracer.uninstall()
        pass_calls, pass_self = tracer.self_times()
        pass_counts = tracer.counts(dropped)
        if calls is None:
            calls, counts = pass_calls, pass_counts
        elif (pass_calls, pass_counts) != (calls, counts):
            checker.fail("traced counts differ between passes of one run")
        self_s.append(pass_self)
        ratios.append(with_trace / plain)
        last = time.perf_counter() - pair_start
    tracer.write_spans(spans_path)
    metrics: dict[str, float] = {}
    for i, name in enumerate(tracing.NAMES):
        metrics[f"{name}.calls"] = calls[i]
        metrics[f"{name}.self_s"] = statistics.median(s[i] for s in self_s)
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    detail = {
        "invocations": [list(a) for a in invs],
        "samples": {"self_s": len(self_s), "trace.overhead_ratio": len(ratios)},
        "spans_per_pass": len(tracer.starts),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Record mode


def record(timeout: float, path: Path) -> int:
    run = subprocess_runner(timeout)
    refs: dict[str, str] = {}
    bad = 0
    for args in workloads.all_invocations():
        code, stdout = run(args)
        problem = f"exit code {code}" if code != 0 else workloads.confirm(args, stdout, run)
        if problem is not None:
            print(f"NOT RECORDED {key(args)}: {problem}", file=sys.stderr)
            bad += 1
            continue
        refs[key(args)] = digest(stdout)
        print(f"recorded {key(args)}")
    path.write_text(json.dumps({"stdout_sha256": refs}, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Entry point


def metadata(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    sha, dirty = None, None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(workload: str, opts, references: dict[str, str]) -> tuple[dict, Checker]:
    checker = Checker(references, opts.timeout)
    stem = f"{workload}-seed{opts.seed}-trace{opts.trace}{'-smoke' if opts.smoke else ''}"
    if opts.trace:
        values, detail = traced(workload, opts.seconds, opts.smoke, checker,
                                OUT / f"spans-{stem}.tsv.gz")
        units = tracing.metric_units()
    else:
        values, detail = timed(workload, opts.seconds, opts.smoke, checker, opts.timeout)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        **metadata(workload, opts.seed, opts.trace, opts.smoke),
        **detail,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_ratio": checker.failed / checker.attempted,
        "problems": checker.problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem, count in checker.problems.items():
        print(f"FAIL {problem} ({count}x)")
    samples = detail["samples"]
    for metric, m in metrics.items():
        n = samples.get(metric, samples.get(metric.rsplit(".", 1)[-1]))
        tail = f"  (median of {n})" if n else ""
        print(f"{workload}  {metric} = {m['value']!r} {m['unit']}{tail}")
    for name, value in detail.get("raw", {}).items():
        print(f"{workload}  {name} = {value!r} s  (median of {samples[name]}, not speed-adjusted)")
    print(f"{workload}  fail_ratio = {result['fail_ratio']!r} 1  "
          f"({checker.failed} of {checker.attempted} invocations failed)")
    return metrics, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the metadata; every seed runs the same invocations")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for self-tests")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="seconds before one CLI process is killed and counted failed")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record", action="store_true",
                        help="confirm every invocation and rewrite the references")
    opts = parser.parse_args(argv)
    if not (SRC / "blowdown" / "cli.py").is_file():
        print(f"error: no blowdown sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if opts.record:
        return record(opts.timeout, opts.references)
    if opts.workload is None:
        parser.error("--workload is required")
    references = load_references(opts.references)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    attempted = failed = 0
    metrics = {}
    for workload in names:
        wl_metrics, checker = run_workload(workload, opts, references)
        attempted += checker.attempted
        failed += checker.failed
        prefix = "" if len(names) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
