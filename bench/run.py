"""The gridcarbon benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload year-cli --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` of that checkout. The run writes its seeded inputs under
``.bench_work/``, runs the workload as a closed loop (one client, one
operation at a time) for whole passes that take about ``--seconds``,
checks every operation's output, and removes the inputs again. It pins
itself and the processes it starts to one CPU and reports every timing
scaled to a reference speed (see speed.py).

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics of the untraced run; with ``--trace 1`` it carries the per-layer
metrics of its traced operations (see worker.py). Workloads and checks are in
workloads.py, inputs in gen.py. The exit code is 0 when the run
completed, whatever its checks found, and 2 when there is no program to
measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OP_TIMEOUT_S = 120
IMPORT_REPEATS = 7
MAX_ERRORS = 5


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.pop("GRIDCARBON_CEF_TABLE", None)  # it would change every pinned output
    return env


def run_cli(argv: list[str], work: Path, env: dict) -> tuple[float, int, bytes, bytes]:
    """One CLI invocation as the console script runs it, with its latency
    at the reference speed."""
    return speed.run_timed([sys.executable, "-c", workloads.CLI_ENTRY, *argv], work, env, OP_TIMEOUT_S)


def run_worker(mode: str, work: Path, env: dict, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), mode, "manifest.json", "--seconds", str(seconds)],
        cwd=work,
        env=env,
        capture_output=True,
        timeout=OP_TIMEOUT_S + seconds,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def measure_cli(manifest: dict, work: Path, env: dict, seconds: float) -> dict:
    """Whole passes of subprocess operations, with a set-up invocation before
    every few operations.

    Set-up is sampled throughout the run, not only once at the start, so
    that its median covers the same stretch of time as the operations.
    """
    setups = []
    errors: list[str] = []
    failed = 0
    golden = workloads.load_golden().get(manifest["workload"], {})
    passes = manifest["passes"]
    latencies: list[float] = []
    items = 0
    began = perf_counter()
    done = 0
    while True:
        for index, op in enumerate(passes[done % len(passes)]):
            if index % workloads.OPS_PER_SETUP == 0:
                latency, code, _, err = run_cli(list(workloads.SETUP_ARGV), work, env)
                setups.append(latency)
                if code != 0:
                    failed += 1
                    errors.append(f"set-up exit code {code}: {err[-300:]!r}")
            latency, code, out, err = run_cli(op["argv"], work, env)
            latencies.append(latency)
            reason = workloads.check_op(op, code, out, err, manifest["seed"], golden)
            if reason is None:
                items += op["items"] if op["items"] is not None else workloads.consumers_in(out, op)
            else:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{op['key']}: {reason}")
        done += 1
        elapsed = perf_counter() - began
        # Stop before a pass that would end more than half a pass after
        # the run's time, so that runs last ``seconds`` on average.
        if elapsed * (done + 0.5) / done > seconds:
            break
    return {
        "setup_s": setups,
        "latencies": latencies,
        "items": items,
        "attempted": len(setups) + len(latencies),
        "failed": failed,
        "errors": errors,
    }


def end_to_end(raw: dict, peak_rss_kib: int) -> dict:
    latencies = raw["latencies"]
    deciles = statistics.quantiles([x * 1000.0 for x in latencies], n=10)
    attempted = raw["attempted"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "items_per_s": (raw["items"] / sum(latencies), "items/s"),
        "op_ms.p50": (deciles[4], "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
        "success_ratio": (1.0 - raw["failed"] / attempted, "ratio"),
    }


def import_ms(env: dict, work: Path) -> float:
    """Median cost of ``import gridcarbon`` over a bare interpreter start."""
    bare, loaded = [], []
    for _ in range(IMPORT_REPEATS):
        for code, samples in (("pass", bare), ("import gridcarbon", loaded)):
            started = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=work, env=env, check=True, timeout=OP_TIMEOUT_S)
            samples.append(perf_counter() - started)
    return (statistics.median(loaded) - statistics.median(bare)) * 1000.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    env = program_env()
    try:
        manifest = workloads.prepare(workload, seed, work)
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        if trace:
            raw = run_worker("traced", work, env, seconds)
            metrics = raw["metrics"]
            metrics["import.ms"] = {"value": import_ms(env, work), "unit": "ms"}
        else:
            if workload == "schedule-queries":
                raw = run_worker("queries", work, env, seconds)
            else:
                raw = measure_cli(manifest, work, env, seconds)
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in end_to_end(raw, peak).items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for error in raw["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one gridcarbon benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridcarbon" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'gridcarbon'} is missing", file=sys.stderr)
        return 2
    speed.pin_to_one_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
