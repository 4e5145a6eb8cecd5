"""In-process half of the benchmark, run in a fresh interpreter by run.py.

    python3 bench/worker.py queries manifest.json --seconds 40
    python3 bench/worker.py traced manifest.json

``queries`` runs the untraced schedule-queries loop, with its timings
scaled to the reference speed of speed.py. ``traced`` runs each kind
of the workload's operations once in this process with every public
function of the program wrapped, and reports the per-layer metrics of
those operations and the trace's overhead. The working directory is the
workload's input directory and the program's source is on
``PYTHONPATH``. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import traceback
import warnings
from itertools import islice
from pathlib import Path
from time import perf_counter

import gen
import spans
import speed
import workloads

# Set-up is sampled again whenever this much time has passed, so that its
# median covers the same stretch of time as the queries.
SETUP_EVERY_S = 6.0
QUERY_ROUND = len(gen.QUERY_DURATIONS) * 2 * len(gen.QUERY_SPANS)
MAX_ERRORS = 5


def setup_signals(api, manifest: dict) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Load each region CSV and compute its total and residual signals."""
    signals = []
    for path in manifest["csvs"]:
        dataset = api.load_region_csv(path)
        signals.append(
            (api.total_signal(dataset), api.residual_signal(dataset, manifest["fraction"]))
        )
    return signals


def query_stream(manifest: dict, signals: list):
    hours = min(len(total) for total, _ in signals)
    return gen.schedule_queries(manifest["seed"], len(signals), hours)


def run_queries(api, manifest: dict, seconds: float) -> dict:
    setups: list[float] = []

    def setup():
        elapsed, signals = speed.timed(setup_signals, api, manifest)
        setups.append(elapsed)
        return signals

    began = perf_counter()
    signals = setup()
    stream = query_stream(manifest, signals)
    latencies: list[float] = []
    results: list[tuple] = []
    errors: list[str] = []
    failed = 0
    next_setup = began + SETUP_EVERY_S
    while perf_counter() - began < seconds:
        if perf_counter() >= next_setup:
            signals = setup()
            next_setup += SETUP_EVERY_S
        # A query is too short to probe the host's speed around each one,
        # so a round of queries is scaled by the probes around the round.
        measured = []
        before = speed.probe()
        for _ in range(QUERY_ROUND):
            query = next(stream)
            started = perf_counter()
            try:
                result = workloads.run_query(api, signals, query)
            except Exception as exc:  # a failed query is counted, not fatal
                result, reason = None, f"{query}: {exc!r}"
            else:
                reason = workloads.check_query(result)
            measured.append(perf_counter() - started)
            if len(results) < workloads.PINNED_QUERIES:
                results.append(result)
            if reason is not None:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(reason)
        after = speed.probe()
        latencies.extend(speed.scale(x, [before, after]) for x in measured)
    if manifest["seed"] == workloads.DEFAULT_SEED:
        pinned = workloads.load_golden()["schedule-queries"]["queries"]
        if workloads.query_digest(results) != pinned:
            failed += 1
            errors.append("query results differ from the pinned digest")
    return {
        "setup_s": setups,
        "latencies": latencies,
        "items": len(latencies) - failed,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
    }


def call_cli(cli, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Run ``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported like the console script would
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _records_hook(tracer, index, args, kwargs, result) -> None:
    tracer.count("cli.records", len(result))


def _rows_hook(tracer, index, args, kwargs, result) -> None:
    tracer.count("ingest.rows", result.summary.rows_read)


def _contracts_hook(tracer, index, args, kwargs, result) -> None:
    tracer.count("contracts.contracts_built", len(result))


def _signal_hook(tracer, index, args, kwargs, result) -> None:
    tracer.count("scheduler.signal_steps", len(result))


def _report_hook(tracer, index, args, kwargs, result) -> None:
    tracer.count("attribution.consumers", len(result.consumers))
    tracer.count("attribution.regions", len(result.regions))
    tracer.tags[index] = len(result.consumers)


def _window_hook(tracer, index, args, kwargs, result) -> None:
    signal, load = args[:2]
    if load.duration_hours == 168 and load.contiguous and load.window is None:
        tracer.tags[index] = "year-d168"


def make_hooks(cli) -> dict:
    hooks = {f"cli.{name}": _records_hook for name in dir(cli) if name.startswith("cmd_")}
    hooks.update(
        {
            "ingest.load_region_csv": _rows_hook,
            "contracts.contracts_for_fraction": _contracts_hook,
            "scheduler.total_signal": _signal_hook,
            "scheduler.residual_signal": _signal_hook,
            "attribution.build_report": _report_hook,
            "scheduler.best_window": _window_hook,
        }
    )
    return hooks


# The modules under src/gridcarbon whose public functions the workloads
# call (``fixtures`` is never called, ``errors`` defines no functions). The
# per-layer self times plus ``other`` make up the traced wall time.
LAYERS = ("attribution", "cli", "contracts", "factors", "grid", "ingest", "scenarios", "scheduler", "stats")
# Rows of the baseline table in ROADMAP.md: the median duration of one call
# (a traced span, children included), optionally only calls with one tag.
BASELINE = {
    "ingest.load_region_csv_ms": ("ingest.load_region_csv", None),
    "scheduler.total_signal_ms": ("scheduler.total_signal", None),
    "scheduler.residual_signal_ms": ("scheduler.residual_signal", None),
    "stats.period_residual_ci_ms": ("stats.period_residual_ci", None),
    "scheduler.best_window_d168_ms": ("scheduler.best_window", "year-d168"),
    "attribution.build_report_100_ms": ("attribution.build_report", 100),
    "attribution.build_report_1000_ms": ("attribution.build_report", 1000),
}


def layer_metrics(tracer: spans.Tracer, bytes_out: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    selves = tracer.self_times()
    self_ms = dict.fromkeys((*LAYERS, spans.OTHER), 0.0)
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    in_report = {"contracts.compute_residual_mix": 0, "contracts.contracted_cfe_for_buyer": 0}
    decode_ms = validate_ms = 0.0
    for index in range(len(tracer)):
        name = tracer.span_name(index)
        layer = tracer.layer(index)
        self_ms[layer] = self_ms.get(layer, 0.0) + selves[index] * 1000.0
        calls[name] = calls.get(name, 0) + 1
        if name in ("scenarios.load_scenario", "scenarios.load_builtin_scenario"):
            decode_ms += selves[index] * 1000.0
        elif name == "scenarios.parse_scenario":
            validate_ms += selves[index] * 1000.0
        if name in in_report and tracer.has_ancestor(index, "attribution.build_report"):
            in_report[name] += 1
        for metric, (span_name, tag) in BASELINE.items():
            if name == span_name and (tag is None or tracer.tags.get(index) == tag):
                durations.setdefault(metric, []).append(tracer.duration(index) * 1000.0)
    counts = tracer.counts
    rows = counts.get("ingest.rows", 0)
    regions = counts.get("attribution.regions", 0)
    consumers = counts.get("attribution.consumers", 0)
    wall_ms = sum(tracer.duration(i) for i in range(len(tracer)) if tracer.parent[i] < 0) * 1000.0
    metrics = {
        "ingest.calls": (calls.get("ingest.load_region_csv", 0), "count"),
        "ingest.rows": (rows, "count"),
        "ingest.us_per_row": (self_ms["ingest"] * 1000.0 / rows if rows else 0.0, "us"),
        "grid.average_ci_calls": (calls.get("grid.compute_average_ci", 0), "count"),
        "grid.emissions_calls": (calls.get("grid.total_emissions", 0), "count"),
        "contracts.fraction_calls": (calls.get("contracts.contracts_for_fraction", 0), "count"),
        "contracts.contracts_built": (counts.get("contracts.contracts_built", 0), "count"),
        "contracts.residual_mix_calls": (calls.get("contracts.compute_residual_mix", 0), "count"),
        "contracts.cfe_for_buyer_calls": (calls.get("contracts.contracted_cfe_for_buyer", 0), "count"),
        "contracts.residual_mix_per_region": (
            in_report["contracts.compute_residual_mix"] / regions if regions else 0.0,
            "ratio",
        ),
        "contracts.cfe_for_buyer_per_consumer": (
            in_report["contracts.contracted_cfe_for_buyer"] / consumers if consumers else 0.0,
            "ratio",
        ),
        "attribution.reports": (calls.get("attribution.build_report", 0), "count"),
        "attribution.consumers": (consumers, "count"),
        "scenarios.decode_ms": (decode_ms, "ms"),
        "scenarios.validate_ms": (validate_ms, "ms"),
        "stats.period_calls": (calls.get("stats.period_ci", 0), "count"),
        "stats.period_residual_calls": (calls.get("stats.period_residual_ci", 0), "count"),
        "scheduler.window_calls": (
            calls.get("scheduler.best_window", 0) + calls.get("scheduler.worst_window", 0),
            "count",
        ),
        "scheduler.signal_steps": (counts.get("scheduler.signal_steps", 0), "count"),
        "cli.records": (counts.get("cli.records", 0), "count"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "trace.wall_ms": (wall_ms, "ms"),
        "trace.spans": (len(tracer), "count"),
    }
    for layer, value in self_ms.items():
        metrics[f"{layer}.self_ms"] = (value, "ms")
    for metric in BASELINE:
        values = durations.get(metric)
        metrics[metric] = (statistics.median(values) if values else 0.0, "ms")
    return metrics


def partition_error_ms(tracer: spans.Tracer) -> float:
    """Largest gap, over operations, between the summed self times and the root span."""
    selves = tracer.self_times()
    totals: dict[int, float] = {}
    roots: dict[int, float] = {}
    for index in range(len(tracer)):
        op = tracer.op[index]
        totals[op] = totals.get(op, 0.0) + selves[index]
        if tracer.parent[index] < 0:
            roots[op] = tracer.duration(index)
    return max(abs(totals[op] - roots[op]) for op in roots) * 1000.0


def run_traced(api, manifest: dict) -> dict:
    """The workload's traced operations, with the trace's own overhead.

    Each operation is a (run, check) pair; only ``run`` is timed, so the
    output checks stay out of the spans. The overhead is the span count
    times the measured cost of one span, over the traced time less that
    cost. It is not the difference between a traced and an untraced pass:
    the host's speed drifts more from one pass to the next than the trace
    costs, so that difference can come out negative.
    """
    cli = importlib.import_module("gridcarbon.cli")
    workload = manifest["workload"]
    golden = workloads.load_golden().get(workload, {})
    seed = manifest["seed"]
    state: dict = {}

    if workload == "schedule-queries":
        queries = islice(query_stream(manifest, setup_signals(api, manifest)), workloads.PINNED_QUERIES)

        def setup():
            state["signals"] = setup_signals(api, manifest)

        def query_op(query):
            return (
                lambda: workloads.run_query(api, state["signals"], query),
                lambda result: (workloads.check_query(result), 0),
            )

        ops = [(setup, lambda _: (None, 0)), *(query_op(q) for q in queries)]
    else:

        def cli_op(spec):
            def check(result):
                code, out, err = result
                return workloads.check_op(spec, code, out, err, seed, golden), len(out)

            return lambda: call_cli(cli, spec["argv"]), check

        def setup_check(result):
            return (None if result[0] == 0 else f"set-up exit code {result[0]}"), 0

        ops = [
            (lambda: call_cli(cli, list(workloads.SETUP_ARGV)), setup_check),
            *(cli_op(spec) for spec in manifest["traced"]),
        ]

    errors: list[str] = []
    tracer = spans.Tracer("gridcarbon", make_hooks(cli))
    tracer.install()
    bytes_out = 0
    try:
        for op_id, (run, check) in enumerate(ops):
            with tracer.operation(op_id):
                result = run()
            reason, size = check(result)
            bytes_out += size
            if reason is not None:
                errors.append(reason)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, bytes_out)
    cost = spans.span_cost_s()
    if cost <= 0:
        errors.append(f"the cost of a span is not resolved: {cost * 1e9:.1f} ns")
    traced_ms = metrics["trace.wall_ms"][0]
    spans_ms = len(tracer) * cost * 1000.0
    metrics["trace.overhead_pct"] = (100.0 * spans_ms / (traced_ms - spans_ms), "%")
    metrics["trace.span_cost_ns"] = (cost * 1e9, "ns")
    gap = partition_error_ms(tracer)
    if gap > 1e-6:
        errors.append(f"self times miss the traced wall time by {gap} ms")
    return {
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:MAX_ERRORS],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("queries", "traced"))
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    # Unrecognised CSV columns warn by design; the warning is not output.
    warnings.simplefilter("ignore")
    api = importlib.import_module("gridcarbon")
    if args.mode == "queries":
        result = run_queries(api, manifest, args.seconds)
    else:
        result = run_traced(api, manifest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
