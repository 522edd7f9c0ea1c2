"""Run every workload and print one report.

    python3 perfbench/report.py                      # all workloads, seed 1
    python3 perfbench/report.py --seeds 1-10 --no-trace
    python3 perfbench/report.py --seeds 1-10 --repeat

Every workload listed in BENCHMARK.json runs for its run_seconds. For each
workload and seed this runs `run.py --trace 0` and prints every end-to-end
metric with its unit and sample count, the workload's extra figures, and the
ops attempted and failed. With several seeds it prints each metric's median,
quartiles and spread (IQR / median). For the first seed it also runs
`run.py --trace 1` and prints the traced end-to-end numbers beside the
untraced ones with their ratio (the tracing overhead).

`--repeat` makes every run twice: once more the whole set of seeds, after
the first set of every workload has finished, and once more the traced run.
It prints, per workload and gated metric, how far the second set's median
moved from the first against the metric's bound, and whether every count
metric of the traced run repeated exactly. `--trajectory FILE` appends the
summary to FILE as one more point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SECONDS = CONFIG["run_seconds"]
BOUNDS = {m["name"]: m for m in CONFIG["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0].removeprefix("env "))
    result["info"] = {}
    result["samples"] = {}
    for line in lines:
        fields = line.split()
        if fields[0] in ("metric", "info") and fields[-1].startswith("n="):
            result["samples"][fields[1]] = int(fields[-1][2:])
            if fields[0] == "info":
                result["info"][fields[1]] = {"value": float(fields[2]),
                                             "unit": fields[3]}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_set(workload: str, seeds: list[int], label: str) -> list[dict]:
    print(f"== {workload}{label}")
    runs = []
    for seed in seeds:
        r = run(workload, seed, 0)
        runs.append(r)
        print(f"  seed {seed}: attempted={r['attempted']} failed={r['failed']} "
              f"correct={r['correct']}")
        for name, m in {**r["metrics"], **r["info"]}.items():
            print(f"    {name:<22} {m['value']:>14.6g} {m['unit']:<6} "
                  f"n={r['samples'].get(name, 1)}")
    return runs


def summarize(runs: list[dict]) -> dict:
    summary = {}
    print("  across seeds: median [q1, q3] spread")
    first = runs[0]
    for name, m in {**first["metrics"], **first["info"]}.items():
        values = [(r["metrics"] | r["info"])[name]["value"] for r in runs
                  if name in r["metrics"] | r["info"]]
        q1, median, q3 = quartiles(values)
        summary[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "runs": len(values)}
        print(f"    {name:<22} {median:>14.6g} [{q1:.6g}, {q3:.6g}] "
              f"{(q3 - q1) / median:.3f}")
    return summary


def agreement(first: dict, second: dict) -> dict:
    """How much worse the second set's median is than the first's, as a share
    of the first, per gated metric, against the metric's bound."""
    result = {}
    print("  second set against first: median, worse by (bound)")
    for name, metric in BOUNDS.items():
        a, b = first[name]["median"], second[name]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        result[name] = {"first": a, "second": b, "worse_by": worse,
                        "bound": metric["bound"], "within": worse <= metric["bound"]}
        print(f"    {name:<22} {a:>14.6g} -> {b:<14.6g} {worse:+.3f} "
              f"({metric['bound']}){'' if worse <= metric['bound'] else ' OUT'}")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1,2,5 or 1-10")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--trajectory", help="append a summary point to this file")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report: dict = {"seconds": SECONDS, "seeds": seeds,
                    "workloads": {w: {} for w in WORKLOADS}}

    for workload, entry in report["workloads"].items():
        entry["runs"] = run_set(workload, seeds, "")
        entry["summary"] = summarize(entry["runs"])
    if args.repeat:
        for workload, entry in report["workloads"].items():
            runs = run_set(workload, seeds, " (second set)")
            entry["summary_second_set"] = summarize(runs)
            entry["agreement"] = agreement(entry["summary"],
                                           entry["summary_second_set"])
    if not args.no_trace:
        for workload, entry in report["workloads"].items():
            trace(workload, seeds[0], entry, args.repeat)
    if args.trajectory:
        append_point(Path(args.trajectory), report)


def trace(workload: str, seed: int, entry: dict, repeat: bool) -> None:
    traced = [run(workload, seed, 1) for _ in range(2 if repeat else 1)]
    entry["traced"] = traced
    plain = entry["runs"][0]["metrics"]
    overhead = {}
    print(f"== {workload} traced run, seed {seed}: traced / untraced")
    for name in ("op_p50_ms", "ops_per_s"):
        t = traced[0]["metrics"][f"trace.{name}"]["value"]
        overhead[name] = t / plain[name]["value"]
        print(f"    {name:<22} {t:>14.6g} / {plain[name]['value']:<14.6g} "
              f"= {overhead[name]:.3f}")
    entry["trace_overhead"] = overhead
    if repeat:
        counts = {n for n, m in traced[0]["metrics"].items() if m["unit"] == "count"}
        differ = sorted(n for n in counts
                        if traced[0]["metrics"][n] != traced[1]["metrics"][n])
        entry["counts_repeat"] = {n: n not in differ for n in sorted(counts)}
        print(f"    counts repeated exactly: {len(counts) - len(differ)}"
              f"/{len(counts)}" + (f"; differ: {', '.join(differ)}"
                                   if differ else ""))


def append_point(path: Path, report: dict) -> None:
    env = next(iter(report["workloads"].values()))["runs"][0]["env"]
    kept = ("summary", "summary_second_set", "agreement", "trace_overhead",
            "counts_repeat")
    point = {
        "git_sha": env["git_sha"],
        "environment": {k: env[k] for k in
                        ("python", "implementation", "machine", "nproc",
                         "usable_cpus")},
        "run_seconds": report["seconds"],
        "seeds": report["seeds"],
        "workloads": {
            name: {key: entry[key] for key in kept if key in entry}
            | {"per_layer": {n: m["value"] for n, m in
                             entry["traced"][0]["metrics"].items() if m["value"]}
               if "traced" in entry else {},
               "params": entry["runs"][0]["env"]["params"],
               "loadavg_start": [r["env"]["loadavg_start"][0] for r in entry["runs"]],
               "failed": sum(r["failed"] for r in entry["runs"]),
               "attempted": sum(r["attempted"] for r in entry["runs"])}
            for name, entry in report["workloads"].items()
        },
    }
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")


if __name__ == "__main__":
    main()
