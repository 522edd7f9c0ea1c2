"""Run one benchmark workload against the phekit source in this checkout.

    python3 perfbench/run.py --workload tally --seed 1 --seconds 20 --trace 0

Builds the workload's state (`setup_s` is the median over several builds),
runs ops in a closed loop for --seconds, checks every output, and prints the
environment, one line per metric, and, as the last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the package is instrumented from
`tracing.py` and the metrics are the per-layer ones. Exits 2 without a result
when the checkout holds no phekit source.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_kernel(base=0xC0FFEE ** 40, exponent=(1 << 127) + 12345,
                     modulus=(1 << 1023) + 1155) -> int:
    """Fixed work, about 1 ms: a modular power and an interpreter loop."""
    x = pow(base, exponent, modulus)
    for i in range(3000):
        x = (x * 31 + i) % 1000003
    return x


class SpeedProbe:
    """Measures how fast this machine runs, while the workload runs.

    Shared machines drift: on the 2-vCPU VM this benchmark was tuned on, one
    Paillier ballot took 13 ms in some seconds and 21 ms a few seconds later.
    Every PERIOD seconds a SIGALRM handler times `reference_kernel`.
    `scaled(start, end)` turns a wall-clock interval into reference seconds:
    the interval minus the kernel time inside it, times NOMINAL over the
    kernel time measured around it. NOMINAL is the kernel's time on that VM
    when quiet, so reference seconds read close to its wall seconds.
    """

    PERIOD = 0.2
    NOMINAL = 0.9e-3

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.speeds: list[float] = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        # a median of three damps a sample hit by an interrupt
        d = self.durations
        self.speeds = [self.NOMINAL / statistics.median(d[max(0, j - 1):j + 2])
                       for j in range(len(d))]

    def scaled(self, start: float, end: float) -> float:
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        inside = sum(self.durations[first:last])
        near = self.speeds[max(0, first - 1):last + 1]
        return (end - start - inside) * statistics.fmean(near)

    def machine_speed(self) -> float:
        return statistics.median(self.speeds)


def closed_loop(workload, seconds: float, tracer) -> tuple[list, int, tuple, list]:
    """Run ops back to back until `seconds` have passed and at least
    `workload.min_ops` ops are done. Returns each op's (start, end) and the
    (start, end) of each op's untimed follow-up (`workload.after_op`)."""
    intervals: list[tuple[float, float]] = []
    untimed: list[tuple[float, float]] = []
    failed = 0
    start = time.perf_counter()
    while (len(intervals) < workload.min_ops
           or time.perf_counter() - start < seconds):
        i = len(intervals)
        if tracer is not None:
            tracer.op = i
        t0, t1 = time.perf_counter(), None
        try:
            ok = workload.op(i)
            t1 = time.perf_counter()
            ok &= workload.after_op(i)
        except Exception:
            traceback.print_exc()
            ok = False
        t2 = time.perf_counter()
        if t1 is None:  # the op itself raised
            t1 = t2
        intervals.append((t0, t1))
        untimed.append((t1, t2))
        failed += not ok
    return intervals, failed, (start, time.perf_counter()), untimed


def run_checks(workload) -> list[tuple[str, bool]]:
    results = list(workload.setup_checks)
    for name, check in workload.checks():
        try:
            ok = bool(check())
        except Exception:
            traceback.print_exc()
            ok = False
        results.append((name, ok))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phekit" / "__init__.py").is_file():
        print(f"error: no phekit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phekit

    if Path(phekit.__file__).resolve().parent != SRC / "phekit":
        print(f"error: imported phekit from {phekit.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_class, workdir: Path) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument, per_layer_metrics

        tracer = Tracer()
        instrument(tracer)
    workload = workload_class(ROOT, workdir, args.seed, bool(args.trace))
    print("env " + json.dumps(environment(args, workload)), flush=True)

    builds = []
    with SpeedProbe() as probe:
        for index in range(1 if tracer else workload.setups):
            start = time.perf_counter()
            state = workload.build(index)
            builds.append((start, time.perf_counter()))
            if index == 0:
                workload.state = state
        intervals, failed, loop, untimed = closed_loop(workload, args.seconds, tracer)
    latencies = [probe.scaled(*i) for i in intervals]
    wall = probe.scaled(*loop) - sum(probe.scaled(*u) for u in untimed)
    if tracer is not None:
        tracer.op = "check"
    checks = run_checks(workload)
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")

    ops = len(latencies)
    attempted = ops + len(checks)
    failed += sum(not ok for _, ok in checks)
    samples = {}
    raw = [end - start for start, end in intervals]
    info = {
        "machine_speed": (probe.machine_speed(), "ratio", len(probe.speeds)),
        "wall.op_p50_ms": (statistics.median(raw) * 1e3, "ms", ops),
        "wall.ops_per_s": (ops / (loop[1] - loop[0] - sum(b - a for a, b in untimed)),
                           "1/s", ops),
    }
    if tracer is None:
        setup_times = [probe.scaled(*b) for b in builds]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops / wall, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
        samples = {"setup_s": len(setup_times), "ops_per_s": ops,
                   "op_p50_ms": ops, "peak_rss_mb": 1}
        info["wall.setup_s"] = (statistics.median(b - a for a, b in builds), "s",
                                len(builds))
        info.update(workload.info(probe.scaled))
        # the highest percentile with at least ten samples beyond it
        if ops >= 100:
            info["op_p90_ms"] = (percentile(latencies, 90) * 1e3, "ms", ops)
    else:
        metrics = per_layer_metrics(tracer, workload.trace_extra(),
                                    workload.count_ops)
        metrics["trace.op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["trace.ops_per_s"] = (ops / wall, "1/s")

    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"metric {name:<46} {value:>14.6g} {unit:<6}"
              + (f" n={n}" if n is not None else ""))
    for name, (value, unit, n) in info.items():
        print(f"info   {name:<46} {value:>14.6g} {unit:<6} n={n}")
    print(f"ops attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
