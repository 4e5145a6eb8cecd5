"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL
line (visible with ``pytest -s``); the assertions carry the stated
tolerances. Random checks use fixed seeds so reruns are identical.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections.abc import Callable
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from gridcarbon import (
    Consumer,
    Contract,
    FlexibleLoad,
    GridMix,
    RegionDataset,
    SourceRegistry,
    build_report,
    best_window,
    compute_average_ci,
    compute_residual_mix,
    contracts_for_fraction,
    detect_double_counting,
    duck_curve_fixture,
    evaluate_schedule,
    fleet_fixtures,
    load_builtin_scenario,
    load_region_csv,
    penetration,
    penetration_fleet,
    period_ci,
    period_residual_ci,
    residual_signal,
    run_scenario,
    shift_savings,
    south_australia_fixture,
    total_emissions,
    total_signal,
    write_region_csv,
)
from gridcarbon.cli import main as cli_main
from gridcarbon.stats import inflation_pct

SOURCES = SourceRegistry.default()


def _criterion(number: int, label: str, checks: Callable[[], None]) -> None:
    try:
        checks()
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _residual_ci(mix: GridMix, contracts) -> float:
    return compute_average_ci(compute_residual_mix(mix, contracts, SOURCES).mix, SOURCES)


def _random_mix(rng: random.Random, region: str = "r") -> GridMix:
    generation = {
        "solar": rng.uniform(0.0, 500.0),
        "wind": rng.uniform(0.0, 500.0),
        "hydro": rng.uniform(0.0, 300.0),
        "coal": rng.uniform(1.0, 800.0),
        "gas": rng.uniform(1.0, 800.0),
    }
    return GridMix(region=region, generation=generation)


def test_criterion_1_bundled_cases() -> None:
    def checks() -> None:
        started = time.perf_counter()

        report = run_scenario(load_builtin_scenario("residential-case-1"))
        for home in ("H1", "H2"):
            assert report.consumer(home).selected.attributed_cfe_kwh == pytest.approx(
                10.0, rel=1e-9
            )

        report = run_scenario(load_builtin_scenario("residential-case-2"))
        assert report.consumer("H2").market_based.attributed_cfe_kwh == pytest.approx(
            15.0, rel=1e-9
        )
        assert report.consumer("H1").market_based.attributed_cfe_kwh == pytest.approx(
            10.0, rel=1e-9
        )
        for home in ("H1", "H2"):
            assert report.consumer(home).location_based.attributed_cfe_kwh == pytest.approx(
                10.0002, rel=1e-9
            )

        report = run_scenario(load_builtin_scenario("residential-case-3"))
        assert report.consumer("H1").cfe_claim_kwh == pytest.approx(10.0, rel=1e-9)
        assert report.consumer("H1").market_based.attributed_cfe_kwh == pytest.approx(
            15.0, rel=1e-9
        )
        assert report.consumer("H2").market_based.attributed_cfe_kwh == pytest.approx(
            10.0, rel=1e-9
        )

        report = run_scenario(load_builtin_scenario("commercial-case-1"))
        assert report.consumer("C1").selected.ci_g_per_kwh == pytest.approx(500.0, rel=1e-9)

        report = run_scenario(load_builtin_scenario("commercial-case-2"))
        c1, h1 = report.consumer("C1"), report.consumer("H1")
        assert c1.market_based.ci_g_per_kwh == 0.0
        assert report.region("local").ci_res_g_per_kwh == pytest.approx(
            480_000.0 / 980.0, rel=1e-9
        )
        share_pct = 100.0 * h1.market_based.attributed_cfe_kwh / h1.demand_kwh
        assert share_pct == pytest.approx(51.02, abs=0.1)

        report = run_scenario(load_builtin_scenario("commercial-case-3"))
        local, remote = report.region("local"), report.region("remote")
        assert local.ci_res_g_per_kwh == pytest.approx(local.ci_loc_g_per_kwh, rel=1e-9)
        assert remote.ci_res_g_per_kwh > remote.ci_loc_g_per_kwh

        assert time.perf_counter() - started < 1.0

    _criterion(1, "bundled residential/commercial cases", checks)


def test_criterion_2_high_renewables_aggregate() -> None:
    def checks() -> None:
        started = time.perf_counter()
        dataset = south_australia_fixture()
        assert penetration(dataset).solar_wind_pct == pytest.approx(66.07, rel=1e-9)
        assert float(period_ci(dataset)) == pytest.approx(125.67, rel=1e-9)
        assert float(period_residual_ci(dataset, 1.0)) == pytest.approx(370.22, rel=0.01)
        inflation = inflation_pct(period_ci(dataset), period_residual_ci(dataset, 1.0))
        assert inflation == pytest.approx(194.0, abs=2.0)
        assert time.perf_counter() - started < 1.0

    _criterion(2, "high-renewables aggregate fixture", checks)


def test_criterion_3_closed_form_residual() -> None:
    def checks() -> None:
        rng = random.Random(20220601)
        cf_categories = ("solar", "wind", "hydro")
        for _ in range(1000):
            fraction = rng.uniform(0.0, 0.95)
            cf_share = rng.uniform(fraction, 0.999)
            total = rng.uniform(10.0, 10_000.0)
            cf_split = rng.uniform(0.0, 1.0)
            fossil_split = rng.uniform(0.0, 1.0)
            cf_energy = cf_share * total
            fossil_energy = total - cf_energy
            mix = GridMix(
                region="r",
                generation={
                    "solar": cf_energy * cf_split,
                    "wind": cf_energy * (1.0 - cf_split) * 0.5,
                    "hydro": cf_energy * (1.0 - cf_split) * 0.5,
                    "coal": fossil_energy * fossil_split,
                    "gas": fossil_energy * (1.0 - fossil_split),
                },
            )
            # Removing `fraction/cf_share` of every carbon-free source takes
            # exactly `fraction` of the total out of the mix.
            contracts = contracts_for_fraction(
                mix, fraction / cf_share, cf_categories, SOURCES
            )
            ci_loc = compute_average_ci(mix, SOURCES)
            ci_res = _residual_ci(mix, contracts)
            assert ci_res == pytest.approx(ci_loc / (1.0 - fraction), rel=1e-9)

    _criterion(3, "closed-form residual-CI oracle, 1000 mixes", checks)


def test_criterion_4_scheduler_brute_force() -> None:
    def checks() -> None:
        rng = random.Random(7321)
        for case in range(500):
            length = rng.randint(1, 168)
            duration = rng.randint(1, min(24, length))
            if case % 2 == 0:
                signal = [rng.uniform(0.0, 1000.0) for _ in range(length)]
            else:
                # Integer-valued signals force frequent cost ties.
                signal = [float(rng.randint(0, 40)) for _ in range(length)]
            load = FlexibleLoad(energy_per_hour_kwh=1.0, duration_hours=duration)
            expected_start = min(
                range(length - duration + 1),
                key=lambda s: (sum(signal[s : s + duration]), s),
            )
            expected = tuple(range(expected_start, expected_start + duration))
            assert best_window(signal, load) == expected

    _criterion(4, "scheduler vs brute force, 500 series", checks)


def test_criterion_5_discrepancy_arithmetic() -> None:
    def checks() -> None:
        reported = [75.7] * 10
        actual = [194.5] * 10
        load = FlexibleLoad(energy_per_hour_kwh=7000.0, duration_hours=10)
        result = evaluate_schedule(tuple(range(10)), load, reported, actual)
        assert result.difference_g_per_kwh == pytest.approx(118.8, rel=1e-12)
        assert result.discrepancy_pct == pytest.approx(156.9, abs=0.5)

        dataset = duck_curve_fixture()
        one_hour = FlexibleLoad(energy_per_hour_kwh=7000.0, duration_hours=1)
        seeming = shift_savings(total_signal(dataset, SOURCES), one_hour)
        true_savings = shift_savings(residual_signal(dataset, 1.0), one_hour)
        assert seeming == pytest.approx(39.5, abs=1e-9)
        assert true_savings == pytest.approx(3.0, abs=1e-9)

    _criterion(5, "reported-vs-actual discrepancy arithmetic", checks)


def test_criterion_6_invariants() -> None:
    def checks() -> None:
        rng = random.Random(99)

        for _ in range(100):
            mix = _random_mix(rng)
            lo = rng.uniform(0.0, 0.9)
            hi = rng.uniform(lo, 0.9)
            ci_lo = _residual_ci(mix, contracts_for_fraction(mix, lo, sources=SOURCES))
            ci_hi = _residual_ci(mix, contracts_for_fraction(mix, hi, sources=SOURCES))
            assert ci_hi >= ci_lo - 1e-9  # residual CI monotone in contracting

            residual = compute_residual_mix(
                mix, contracts_for_fraction(mix, hi, sources=SOURCES), SOURCES
            )
            assert total_emissions(residual.mix, SOURCES) == pytest.approx(
                total_emissions(mix, SOURCES), rel=1e-9
            )  # carbon-free removal conserves emissions

            consumers = [
                Consumer(id="a", region="r", demand_kwh=rng.uniform(1.0, 1e4)),
                Consumer(id="b", region="r", demand_kwh=rng.uniform(1.0, 1e4),
                         method="market_based"),
            ]
            report = build_report(mix, [], consumers, SOURCES)
            for entry in report.consumers:
                assert entry.market_based.ci_g_per_kwh == pytest.approx(
                    entry.location_based.ci_g_per_kwh, rel=1e-12
                )  # methods agree at zero contracts

            wind = mix.generation["wind"]
            contracts = []
            if wind > 0:
                contracts = [Contract(id="w", buyer="b", kind="financial", source_id="wind",
                                      source_region="r", energy_mwh=wind * rng.uniform(0, 1))]
            counted = detect_double_counting(mix, contracts, consumers, False, SOURCES)
            assert counted >= 0.0
            assert detect_double_counting(mix, contracts, consumers, True, SOURCES) == 0.0
            market_only = [c for c in consumers if c.method == "market_based"]
            assert detect_double_counting(mix, contracts, market_only, False, SOURCES) == 0.0
            assert detect_double_counting(mix, [], consumers, False, SOURCES) == 0.0

        with tempfile.TemporaryDirectory() as tmp:
            start = datetime(2022, 6, 1, tzinfo=timezone.utc)
            steps = tuple(
                GridMix(
                    region="rt",
                    generation={
                        "wind": rng.uniform(0.0, 777.7),
                        "coal": rng.uniform(0.0, 777.7),
                    },
                    timestamp=start + timedelta(hours=h),
                )
                for h in range(24)
            )
            dataset = RegionDataset(region="rt", mixes=steps)
            csv_path = Path(tmp) / "rt.csv"
            write_region_csv(dataset, csv_path)
            reloaded = load_region_csv(csv_path)
            for a, b in zip(dataset.mixes, reloaded.mixes):
                assert a.generation == b.generation  # CSV round-trip is value-identical

            first = Path(tmp) / "first.jsonl"
            second = Path(tmp) / "second.jsonl"
            argv = ["ci", "--mix", str(csv_path), "--contracts", "solar-wind:0.4"]
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()  # CLI determinism

    _criterion(6, "cross-module invariant suite", checks)


def test_criterion_7_fleet_cdf() -> None:
    def checks() -> None:
        fleet = penetration_fleet(fleet_fixtures())
        assert len(fleet.stats) >= 3
        shares = {stat.region: stat.solar_wind_pct for stat in fleet.stats}
        assert shares["aurora"] == pytest.approx(10.0, rel=1e-9)
        assert shares["boreal"] == pytest.approx(30.0, rel=1e-9)
        assert shares["cinder"] == pytest.approx(50.0, rel=1e-9)
        values = [value for value, _ in fleet.cdf]
        fractions = [fraction for _, fraction in fleet.cdf]
        assert values == sorted(values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert all(0.0 < f <= 1.0 for f in fractions)

    _criterion(7, "fleet penetration CDF", checks)
