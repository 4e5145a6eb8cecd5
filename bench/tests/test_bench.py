"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _tracer_with(rows: list[tuple[str, float, float, int, int]]) -> spans.Tracer:
    """A tracer holding the given (name, start, end, parent, op) spans."""
    tracer = spans.Tracer("pkg")
    for name, start, end, parent, op in rows:
        if name not in tracer.names:
            tracer.names.append(name)
        tracer.name.append(tracer.names.index(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(op)
    return tracer


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        tracer = _tracer_with(
            [
                (spans.ROOT, 0.0, 10.0, -1, 0),
                ("cli.main", 1.0, 9.0, 0, 0),
                ("ingest.load_region_csv", 2.0, 5.0, 1, 0),
                ("grid.compute_average_ci", 3.0, 4.0, 2, 0),
                ("stats.period_ci", 6.0, 8.5, 1, 0),
            ]
        )
        self.assertEqual(tracer.self_times(), [2.0, 2.5, 2.0, 1.0, 2.5])
        self.assertEqual(sum(tracer.self_times()), 10.0)
        self.assertEqual(worker.partition_error_ms(tracer), 0.0)
        self.assertEqual([tracer.layer(i) for i in range(5)], ["other", "cli", "ingest", "grid", "stats"])
        self.assertTrue(tracer.has_ancestor(3, "cli.main"))
        self.assertFalse(tracer.has_ancestor(4, "ingest.load_region_csv"))

    def test_layer_self_times_sum_to_traced_wall_time(self):
        tracer = _tracer_with(
            [
                (spans.ROOT, 0.0, 4.0, -1, 0),
                ("scheduler.best_window", 0.5, 3.0, 0, 0),
                ("scheduler.worst_window", 1.0, 2.0, 1, 0),
                (spans.ROOT, 5.0, 6.0, -1, 1),
                ("contracts.compute_residual_mix", 5.25, 5.75, 3, 1),
            ]
        )
        metrics = worker.layer_metrics(tracer, bytes_out=0)
        layers = sum(value for name, (value, _) in metrics.items() if name.endswith(".self_ms"))
        self.assertAlmostEqual(layers, metrics["trace.wall_ms"][0], places=9)
        self.assertEqual(metrics["trace.wall_ms"][0], 5000.0)
        self.assertEqual(metrics["scheduler.self_ms"][0], 2500.0)
        self.assertEqual(metrics["other.self_ms"][0], 2000.0)
        self.assertEqual(metrics["scheduler.window_calls"][0], 2)


class InstallTest(unittest.TestCase):
    def bindings(self) -> dict:
        modules = [m for n, m in sys.modules.items() if n == "gridcarbon" or n.startswith("gridcarbon.")]
        return {
            (module.__name__, name): value
            for module in modules
            for name, value in vars(module).items()
            if inspect.isfunction(value)
        }

    def test_wraps_every_binding_and_unwraps_after_the_run(self):
        api = importlib.import_module("gridcarbon")
        importlib.import_module("gridcarbon.cli")
        before = self.bindings()
        tracer = spans.Tracer("gridcarbon")
        self.assertGreater(tracer.install(), 0)
        try:
            wrapped = self.bindings()
            # The defining module and an importing module share one wrapper.
            self.assertIs(
                wrapped[("gridcarbon.contracts", "compute_residual_mix")],
                wrapped[("gridcarbon.attribution", "compute_residual_mix")],
            )
            self.assertIsNot(
                wrapped[("gridcarbon.contracts", "compute_residual_mix")],
                before[("gridcarbon.contracts", "compute_residual_mix")],
            )
            self.assertIs(wrapped[("gridcarbon.cli", "_emit")], before[("gridcarbon.cli", "_emit")])
            with tracer.operation(0):
                api.build_report(mixes=api.toy_mix(), contracts=[], consumers=[api.Consumer("c", "toy-grid", 10.0)])
        finally:
            tracer.uninstall()
        self.assertEqual(self.bindings(), before)
        names = {tracer.span_name(i) for i in range(len(tracer))}
        self.assertIn("attribution.build_report", names)
        self.assertIn("attribution.attribute_market_based", names)
        self.assertIn("contracts.compute_residual_mix", names)
        self.assertLess(worker.partition_error_ms(tracer), 1e-9)
        # Unwrapped calls record nothing.
        spans_after = len(tracer)
        api.compute_average_ci(api.toy_mix())
        self.assertEqual(len(tracer), spans_after)


class SpanCostTest(unittest.TestCase):
    def test_a_traced_call_costs_more_than_a_bare_one(self):
        cost = spans.span_cost_s(calls=2_000, rounds=4)
        self.assertGreater(cost, 0.0)
        self.assertLess(cost, 1e-3)


class SpeedTest(unittest.TestCase):
    def test_scale_divides_by_the_mean_loop_time(self):
        at_reference = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scale(2.0, [at_reference, at_reference]), 2.0)
        # Twice as slow a host, sampled before, during and after: half the time.
        self.assertAlmostEqual(speed.scale(2.0, [2 * at_reference] * 3), 1.0)
        self.assertAlmostEqual(speed.scale(2.0, [at_reference, 3 * at_reference]), 1.0)

    def test_run_timed_returns_the_output_and_leaves_no_file(self):
        code = "import sys, time; time.sleep(0.3); print('out'); print('err', file=sys.stderr); sys.exit(3)"
        with tempfile.TemporaryDirectory() as tmp:
            latency, returncode, out, err = speed.run_timed([sys.executable, "-c", code], tmp, dict(os.environ), 60)
            self.assertEqual(os.listdir(tmp), [])
        self.assertEqual((returncode, out, err), (3, b"out\n", b"err\n"))
        self.assertGreater(latency, 0.0)

    def test_run_timed_kills_a_process_past_its_timeout(self):
        code = "import time; time.sleep(60)"
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(subprocess.TimeoutExpired):
                speed.run_timed([sys.executable, "-c", code], tmp, dict(os.environ), 0.3)
            self.assertEqual(os.listdir(tmp), [])


class GoldenTest(unittest.TestCase):
    def test_every_operation_of_the_default_seed_is_pinned(self):
        golden = workloads.load_golden()
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS:
                manifest = workloads.prepare(workload, workloads.DEFAULT_SEED, Path(tmp) / workload)
                keys = {op["key"] for ops in manifest.get("passes", []) for op in ops}
                if workload == "schedule-queries":
                    keys = {"queries"}
                self.assertEqual(keys, set(golden[workload]), workload)

    def test_an_unpinned_operation_fails_its_check(self):
        op = {"key": "ci@nowhere", "check": {"kind": "ci", "residual": False, "rows": 0}}
        out = b'{"timestamp": "aggregate", "ci_g_per_kwh": 1.0}\n'
        self.assertIsNone(workloads.check_op(op, 0, out, b"", 2, {}))
        self.assertEqual(
            workloads.check_op(op, 0, out, b"", workloads.DEFAULT_SEED, {}),
            "no pinned output for this operation",
        )


class GeneratorTest(unittest.TestCase):
    def write_fleet(self, seed: int, directory: Path) -> list[bytes]:
        return [f.path.read_bytes() for f in gen.write_year_fleet(seed, directory, regions=2)]

    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            first = self.write_fleet(5, Path(tmp) / "a")
            second = self.write_fleet(5, Path(tmp) / "b")
            other = self.write_fleet(6, Path(tmp) / "c")
        self.assertEqual(first, second)
        self.assertNotEqual(first, other)
        self.assertEqual(gen.scenario_yaml(5, 40, 40).text, gen.scenario_yaml(5, 40, 40).text)
        self.assertNotEqual(gen.scenario_yaml(5, 40, 40).text, gen.scenario_yaml(6, 40, 40).text)
        self.assertEqual(
            list(islice(gen.schedule_queries(5, 3, 8760), 50)),
            list(islice(gen.schedule_queries(5, 3, 8760), 50)),
        )

    def test_fleet_has_the_documented_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            (region,) = gen.write_year_fleet(3, Path(tmp), regions=1)
            lines = region.path.read_text(encoding="utf-8").splitlines()
        self.assertEqual(len(lines), 1 + gen.HOURS_PER_YEAR)
        self.assertIn(gen.UNRECOGNISED_COLUMN, lines[0])
        self.assertLess(len(region.kept), gen.HOURS_PER_YEAR)  # some rows have blank cells
        self.assertTrue(any(row[4] == row[5] == 0.0 for row in region.kept))  # carbon-free hours

    def test_scenario_sizes(self):
        scenario = gen.scenario_yaml(2, 300, 300)
        self.assertEqual(scenario.contracts, 300)
        self.assertEqual(scenario.text.count("  - {id: c"), 300)
        self.assertTrue(scenario.fully_contracted)


if __name__ == "__main__":
    unittest.main()
