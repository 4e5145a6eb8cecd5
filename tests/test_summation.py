"""Results do not depend on the built-in sum(): every quantity adds its floats
by the one rule in gridcarbon.grid (a left fold from 0, as Python 3.11's sum()
adds them), so running with the built-in sum() compensated, as it is from
Python 3.12 on, gives the same floats as running with it a left fold.

The inputs are MWh such as 0.1, 0.2 and 0.3, on which the two rules differ:
0.1 + 0.2 + 0.3 is 0.6000000000000001 as a left fold and 0.6 compensated."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from gridcarbon import (
    Consumer,
    Contract,
    GridMix,
    RegionDataset,
    allocate_contracts,
    build_report,
    compute_residual_mix,
    penetration,
    period_ci,
    period_residual_ci,
)

from reference_sum import folded_sum, neumaier_sum, under_each_sum

# Region "a" adds 0.1 + 0.2 + 0.3 MWh of carbon-free generation; region "b"
# has three contracts of 0.1, 0.2 and 0.3 MWh on its solar.
MIXES = {
    "a": GridMix(region="a", generation={"wind": 0.1, "solar": 0.2, "hydro": 0.3, "coal": 0.1}),
    "b": GridMix(region="b", generation={"solar": 1.0, "wind": 1.0, "coal": 1.0}),
}
CONTRACTS = (
    Contract("c1", "x", "financial", "solar", "b", 0.1),
    Contract("c2", "y", "financial", "solar", "b", 0.2),
    Contract("c3", "x", "financial", "solar", "b", 0.3),
    Contract("c4", "x", "financial", "wind", "b", 0.1),
)
CONSUMERS = (
    Consumer("x", "b", 10.0, "market_based"),
    Consumer("y", "b", 5.0, "market_based"),
    Consumer("z", "a", 7.0),
)



def _series() -> RegionDataset:
    """Three hours of 0.1 + 0.3 + 1.1 + 0.2 MWh: 1.7 as a left fold, and
    1.7000000000000002 compensated."""
    generation = {"wind": 0.1, "solar": 0.3, "coal": 1.1, "gas": 0.2}
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    mixes = tuple(GridMix(region="s", generation=generation, timestamp=start + timedelta(hours=h)) for h in range(3))
    return RegionDataset(region="s", mixes=mixes, published_ci=(100.0,) * 3)


CASES = {
    "build_report": lambda: build_report(MIXES, CONTRACTS, CONSUMERS),
    "compute_residual_mix": lambda: compute_residual_mix(MIXES["b"], CONTRACTS),
    "allocate_contracts": lambda: allocate_contracts(MIXES, CONTRACTS),
    "penetration": lambda: penetration(_series()),
    "penetration per-hour mean": lambda: penetration(_series(), per_hour_mean=True),
    "period_ci cef": lambda: period_ci(_series()),
    "period_ci published": lambda: period_ci(_series(), basis="published"),
    "period_residual_ci cef": lambda: period_residual_ci(_series(), 0.5),
    "period_residual_ci published": lambda: period_residual_ci(_series(), 0.5, basis="published"),
}


def test_inputs_tell_the_rules_apart() -> None:
    for values in ([0.1, 0.2, 0.3], [0.1, 0.3, 1.1, 0.2]):
        assert folded_sum(values) != neumaier_sum(values)


@pytest.mark.parametrize("case", CASES)
def test_results_do_not_depend_on_builtin_sum(case: str) -> None:
    """The result, with the type of every field, under either built-in sum()."""
    folded, compensated = under_each_sum(CASES[case])
    assert repr(compensated) == repr(folded)
