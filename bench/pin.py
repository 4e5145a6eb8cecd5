"""Pin the outputs of the default seed in golden.json.

    python3 bench/pin.py

Runs every operation of every workload once on the inputs of the default
seed and records the SHA-256 of each operation's stdout, and a digest of
the first schedule queries' results. The checks in workloads.py compare
against these. Re-pin only when a change to the program's output is
intended.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import warnings

import run
import worker
import workloads


def main() -> int:
    env = run.program_env()
    sys.path.insert(0, str(run.ROOT / "src"))
    warnings.simplefilter("ignore")  # unrecognised CSV columns warn by design
    golden: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        work = run.WORK_DIR / f"pin-{workload}"
        try:
            manifest = workloads.prepare(workload, workloads.DEFAULT_SEED, work)
            pinned = golden.setdefault(workload, {})
            if workload == "schedule-queries":
                api = importlib.import_module("gridcarbon")
                manifest["csvs"] = [str(work / path) for path in manifest["csvs"]]
                signals = worker.setup_signals(api, manifest)
                stream = worker.query_stream(manifest, signals)
                results = [
                    workloads.run_query(api, signals, next(stream))
                    for _ in range(workloads.PINNED_QUERIES)
                ]
                pinned["queries"] = workloads.query_digest(results)
                continue
            for ops in manifest["passes"]:
                for op in ops:
                    if op["key"] in pinned:
                        continue
                    _, code, out, err = run.run_cli(op["argv"], work, env)
                    if code != 0:
                        print(f"{op['key']}: exit code {code}: {err.decode()}", file=sys.stderr)
                        return 1
                    pinned[op["key"]] = workloads.digest(out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.WORK_DIR.rmdir()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(len(v) for v in golden.values())} outputs in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
