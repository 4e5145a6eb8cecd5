"""Run every workload over several seeds, twice, and summarise each metric.

    python3 bench/summary.py --runs 10

This makes two sets of untraced runs, one run per seed and workload in
each set, and then one traced run per workload. It prints every metric
with its unit, median, quartiles, spread (interquartile range over
median) and sample count, and checks each end-to-end metric against its
bound in BENCHMARK.json: in each set its spread must stay below a third
of the bound, and the second set's median must not be worse than the
first's by more than the bound. The results, with the Python version,
the CPU count and the git commit, are written to
``bench/results/BENCH_<commit>.json``. The exit code is 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def bench_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    sha = git_sha()
    seeds = list(range(workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + args.runs))
    report: dict = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {workload: {"sets": []} for workload in workloads.WORKLOADS},
    }
    steady = True
    for number in (1, 2):
        for workload, entry in report["workloads"].items():
            runs = [bench_once(workload, seed, seconds, False) for seed in seeds]
            stats = {}
            for name in runs[0]["metrics"]:
                stats[name] = describe([r["metrics"][name]["value"] for r in runs])
                stats[name]["unit"] = runs[0]["metrics"][name]["unit"]
            entry["sets"].append({"runs": runs, "end_to_end": stats})
            print(f"\n{workload}, set {number}: {args.runs} runs of {seconds} s; "
                  f"attempted per run {[r['attempted'] for r in runs]}")
            print(f"  {'metric':16s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>7s}  n  bound  worse than set 1")
            for name, stat in stats.items():
                bound = metrics[name]["bound"]
                flags = []
                if stat["spread"] >= bound / 3:
                    flags.append("spread not below a third of the bound")
                    steady = False
                change = ""
                if number == 2:
                    first = entry["sets"][0]["end_to_end"][name]["median"]
                    worse = worse_by(first, stat["median"], metrics[name]["better"])
                    stat["worse_than_set_1"] = worse
                    change = f"{worse:+.3f}"
                    if worse > bound:
                        flags.append("median worse than set 1 by more than the bound")
                        steady = False
                print(
                    f"  {name:16s} {stat['unit']:8s} {stat['median']:12.6g} {stat['q1']:12.6g} "
                    f"{stat['q3']:12.6g} {stat['spread']:7.3f} {stat['n']:2d}  {bound:<5} {change:>7s}"
                    + "".join(f"  <- {flag}" for flag in flags)
                )
            if not all(r["correct"] for r in runs):
                print("  some runs failed their output checks")
                steady = False
    for workload, entry in report["workloads"].items():
        traced = bench_once(workload, workloads.DEFAULT_SEED, seconds, True)
        entry["traced"] = traced
        print(f"\n{workload}, traced run (seed {workloads.DEFAULT_SEED}, correct={traced['correct']}):")
        for name, metric in sorted(traced["metrics"].items()):
            print(f"    {name:40s} {metric['value']:14.6g} {metric['unit']}")
        if not traced["correct"]:
            steady = False
    out = run.BENCH_DIR / "results" / f"BENCH_{sha[:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
