from __future__ import annotations

import copy
import itertools
import math
import pickle
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcarbon import (
    EmptyResidual,
    FlexibleLoad,
    GridCarbonError,
    GridMix,
    RegionDataset,
    SignalMismatch,
    SourceRegistry,
    WindowTooShort,
    ZeroBaseline,
    best_window,
    contracts_for_fraction,
    duck_curve_fixture,
    evaluate_schedule,
    load_region_csv,
    residual_signal,
    shift_savings,
    total_signal,
    worst_window,
)

from gridcarbon import scheduler
from gridcarbon.contracts import _residual_dataset
from gridcarbon.scheduler import _ci_steps, _Series

import reference_scheduler
from reference_sum import folded_sum, neumaier_sum, under_each_sum


def _load(duration: int = 1, energy: float = 1000.0, window=None,
          contiguous: bool = True) -> FlexibleLoad:
    return FlexibleLoad(energy_per_hour_kwh=energy, duration_hours=duration,
                        window=window, contiguous=contiguous)


def test_load_validation() -> None:
    with pytest.raises(ValueError):
        FlexibleLoad(energy_per_hour_kwh=-1.0, duration_hours=1)
    for energy in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be a finite number"):
            FlexibleLoad(energy_per_hour_kwh=energy, duration_hours=1)
    with pytest.raises(ValueError):
        FlexibleLoad(energy_per_hour_kwh=1.0, duration_hours=0)
    for duration in (2.5, True):
        with pytest.raises(ValueError, match="duration_hours must be an integer"):
            FlexibleLoad(energy_per_hour_kwh=1.0, duration_hours=duration)  # type: ignore[arg-type]
    for window in ((0.5, 3.7), (1,), (0, 1, 2), (True, 3), (0, False), "03", 3):
        with pytest.raises(ValueError, match="window must be a pair of integer start hours"):
            FlexibleLoad(energy_per_hour_kwh=1.0, duration_hours=1, window=window)  # type: ignore[arg-type]
    assert FlexibleLoad(energy_per_hour_kwh=1.0, duration_hours=1, window=[0, 3]).window == (0, 3)


# --- window selection ---------------------------------------------------------

def test_best_single_hour() -> None:
    assert best_window([100.0, 50.0, 200.0], _load(1)) == (1,)


def test_best_contiguous_pair() -> None:
    assert best_window([5.0, 4.0, 3.0, 2.0, 1.0], _load(2)) == (3, 4)


def test_best_non_contiguous_pair() -> None:
    assert best_window([1.0, 9.0, 1.0], _load(2, contiguous=False)) == (0, 2)


def test_ties_go_to_earliest_start() -> None:
    assert best_window([1.0, 1.0, 1.0], _load(1)) == (0,)
    assert best_window([2.0, 1.0, 1.0, 2.0], _load(2)) == (1, 2)


def test_non_contiguous_ties_go_to_earlier_hour() -> None:
    assert best_window([5.0, 3.0, 3.0, 5.0], _load(1, contiguous=False)) == (1,)


def test_worst_single_hour() -> None:
    assert worst_window([100.0, 50.0, 200.0], _load(1)) == (2,)


def test_window_restricts_starts() -> None:
    signal = [9.0, 1.0, 9.0, 1.0, 9.0]
    assert best_window(signal, _load(2, window=(1, 2))) == (1, 2)  # tie -> earliest
    assert best_window(signal, _load(1, window=(0, 0))) == (0,)


def test_non_contiguous_window_spans_placements() -> None:
    # Starts 1..2 with duration 2 may touch hours 1..3 only.
    signal = [0.0, 9.0, 9.0, 0.0, 0.0]
    hours = best_window(signal, _load(2, window=(1, 2), contiguous=False))
    assert hours == (1, 3)


@pytest.mark.parametrize(
    ("signal", "load"),
    [
        ([1.0, 2.0], _load(3)),                 # duration exceeds signal
        ([1.0, 2.0, 3.0], _load(2, window=(0, 2))),  # last start overruns
        ([1.0, 2.0], _load(1, window=(-1, 0))),
        ([1.0, 2.0], _load(1, window=(1, 0))),
        ([], _load(1)),
        ([1.0, 2.0, 3.0], _load(10**20)),       # no window: the duration is named
    ],
)
def test_window_too_short(signal, load) -> None:
    with pytest.raises(WindowTooShort) as raised:
        best_window(signal, load)
    if load.window is None:
        assert str(raised.value) == f"duration {load.duration_hours} exceeds signal length {len(signal)}"


@given(
    signal=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30),
    duration=st.integers(min_value=1, max_value=6),
)
def test_contiguous_matches_brute_force(signal, duration) -> None:
    if duration > len(signal):
        return
    load = _load(duration)
    expected = min(
        range(len(signal) - duration + 1),
        key=lambda s: (folded_sum(signal[s : s + duration]), s),
    )
    assert best_window(signal, load) == tuple(range(expected, expected + duration))


@pytest.mark.differential
@given(
    # Integer-valued signals keep sums exact, so tie-breaks are well defined.
    signal=st.lists(st.integers(min_value=0, max_value=100).map(float),
                    min_size=1, max_size=10),
    duration=st.integers(min_value=1, max_value=4),
)
def test_non_contiguous_matches_brute_force(signal, duration) -> None:
    if duration > len(signal):
        return
    load = _load(duration, contiguous=False)
    expected = min(
        itertools.combinations(range(len(signal)), duration),
        key=lambda hours: (folded_sum(signal[h] for h in hours), hours),
    )
    assert best_window(signal, load) == expected


@given(
    signal=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=48),
    duration=st.integers(min_value=1, max_value=8),
)
def test_best_never_beaten(signal, duration) -> None:
    if duration > len(signal):
        return
    chosen = best_window(signal, _load(duration))
    chosen_cost = sum(signal[h] for h in chosen)
    for start in range(len(signal) - duration + 1):
        assert chosen_cost <= sum(signal[start : start + duration]) + 1e-9


@st.composite
def _search_cases(draw):
    """A signal, a load duration and a start window (``None``: any start).

    Signals mix magnitudes from 1e-6 to 1e16, so prefix sums lose the small
    values; or come near the float limit, so window sums overflow; or draw
    from a small alphabet, or repeat one value, so many windows tie
    exactly or nearly.
    """
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(min_value=1, max_value=500))
    kind = draw(st.sampled_from(["magnitudes", "huge", "alphabet", "constant"]))
    if kind == "magnitudes":
        signal = [rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-6, 15) for _ in range(length)]
    elif kind == "huge":
        signal = [rng.uniform(0.0, 1.5e308) for _ in range(length)]
    elif kind == "alphabet":
        alphabet = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.7]),
                                 min_size=1, max_size=4))
        signal = [rng.choice(alphabet) for _ in range(length)]
    else:
        signal = [draw(st.sampled_from([0.0, 0.1, 1.0, 1e16]))] * length
    duration = draw(st.integers(min_value=1, max_value=length))
    window = None
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=0, max_value=length - duration))
        window = (lo, draw(st.integers(min_value=lo, max_value=length - duration)))
    return signal, duration, window


@pytest.mark.differential
# At least 300 examples; a profile that asks for more (``thorough``) gets them.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=_search_cases())
def test_search_matches_reference(case) -> None:
    signal, duration, window = case
    for contiguous in (True, False):
        load = _load(duration, window=window, contiguous=contiguous)
        for search, worst in ((best_window, False), (worst_window, True)):
            expected = reference_scheduler._extreme_window(signal, load, worst)
            assert search(signal, load) == expected, (search.__name__, contiguous)


def _reference_hours(signal, load, policy) -> tuple[int, ...]:
    """The placement of one policy: ``reference_scheduler``'s search, or a
    fixed start, after the checks ``shift_savings`` makes, in its order."""
    if policy in ("best_window", "worst_window"):
        lo, hi = reference_scheduler._start_bounds(signal, load)
        hours = range(lo, hi + load.duration_hours)
    else:
        start, duration = policy, load.duration_hours
        if start < 0 or start + duration > len(signal):
            raise WindowTooShort(f"fixed start {start} with duration {duration} "
                                 f"exceeds signal length {len(signal)}")
        if load.window is not None:
            lo, hi = reference_scheduler._start_bounds(signal, load)
            if not lo <= start <= hi:
                raise WindowTooShort(f"fixed start {start} outside start window ({lo}, {hi})")
        if not load.contiguous:
            raise ValueError(f"fixed start {start} needs a contiguous load")
        hours = range(start, start + duration)
    for hour in hours:
        if not math.isfinite(signal[hour]):
            raise ValueError(f"signal value at hour {hour} is not finite: {signal[hour]}")
    if policy in ("best_window", "worst_window"):
        return reference_scheduler._extreme_window(signal, load, policy == "worst_window")
    return tuple(hours)


def _reference_savings(signal, load, from_policy, to_policy) -> float:
    from_hours = _reference_hours(signal, load, from_policy)
    to_hours = _reference_hours(signal, load, to_policy)
    emissions = []
    for hours in (from_hours, to_hours):
        ci_sum = folded_sum(signal[h] for h in hours)
        if not math.isfinite(ci_sum):
            raise ValueError("the signal values at the placed hours overflow their sum")
        emissions.append(load.energy_per_hour_kwh * ci_sum)
        if not math.isfinite(emissions[-1]):
            raise ValueError("energy_per_hour_kwh: emissions of the load overflow")
    if emissions[0] == 0:
        raise ZeroBaseline("baseline placement emits nothing; savings undefined")
    return 100.0 * (emissions[0] - emissions[1]) / emissions[0]


def _outcome(compute, *args):
    try:
        return compute(*args)
    except (ValueError, WindowTooShort, ZeroBaseline) as exc:
        return type(exc), str(exc)


@pytest.mark.differential
@settings(deadline=None)
@given(
    case=_search_cases(),
    energy=st.sampled_from([1.0, 1000.0, 1e300]),
    start=st.integers(min_value=-1, max_value=500),
    bad=st.none() | st.tuples(st.integers(min_value=0, max_value=499),
                              st.sampled_from([math.nan, math.inf, -math.inf])),
)
def test_shift_savings_matches_reference(case, energy, start, bad) -> None:
    """shift_savings against the reference search and the pricing rule: the
    same saving, or the same exception class and message, for every pair
    of policies."""
    signal, duration, window = case
    if bad is not None:
        signal = list(signal)
        signal[bad[0] % len(signal)] = bad[1]
    policies = ("best_window", "worst_window", start)
    for contiguous in (True, False):
        load = _load(duration, energy=energy, window=window, contiguous=contiguous)
        for from_policy, to_policy in itertools.product(policies, repeat=2):
            expected = _outcome(_reference_savings, signal, load, from_policy, to_policy)
            actual = _outcome(shift_savings, signal, load, from_policy, to_policy)
            assert actual == expected, (from_policy, to_policy, contiguous)


@st.composite
def _series_cases(draw):
    """A ``_search_cases`` case placed after a block of other values, so
    that its window lies anywhere in the series; some values negated, and
    a NaN or inf injected. The block may hold values 2⁴⁰ to 2⁵⁶ times the
    case's largest, so that prefix sums from hour 0 round the window's
    values off to a few bits and only the whole series' scale bounds that."""
    signal, duration, window = draw(_search_cases())
    before = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1e16]), max_size=20))
    big = max(signal) * 2.0 ** draw(st.integers(min_value=40, max_value=56))
    if math.isfinite(big):
        before += [big] * draw(st.integers(min_value=0, max_value=3))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        signal = [-v if rng.random() < 0.3 else v for v in signal]
    if window is not None:
        window = (window[0] + len(before), window[1] + len(before))
    signal = before + signal
    bad = draw(st.none() | st.tuples(st.integers(min_value=0, max_value=519),
                                     st.sampled_from([math.nan, math.inf, -math.inf])))
    if bad is not None:
        signal[bad[0] % len(signal)] = bad[1]
    return signal, duration, window


@pytest.mark.differential
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=_series_cases(), start=st.integers(min_value=-1, max_value=520))
def test_series_memo_matches_tuple_and_reference(case, start) -> None:
    """best_window, worst_window and shift_savings (every pair of policies)
    on a _Series, which keeps its prefix sums from one call to the next,
    give what they give on a plain tuple and what the reference gives: the
    same hours or saving, or the same exception class and message."""
    values, duration, window = case
    series, plain = _Series(values), tuple(values)
    policies = ("best_window", "worst_window", start)
    for contiguous in (True, False):
        load = _load(duration, window=window, contiguous=contiguous)
        for search in (best_window, worst_window):
            expected = _outcome(_reference_hours, values, load, search.__name__)
            assert _outcome(search, series, load) == _outcome(search, plain, load) == expected
        for pair in itertools.product(policies, repeat=2):
            expected = _outcome(_reference_savings, values, load, *pair)
            actual = _outcome(shift_savings, series, load, *pair)
            assert actual == _outcome(shift_savings, plain, load, *pair) == expected, pair
    whole = window is None or window == (0, len(values) - duration)
    assert ("_order" in series.__dict__) == (whole and series._memo is not None)


@st.composite
def _order_cases(draw):
    """A signal of values that tie often (0.0 beside -0.0, negatives), a
    duration from 1 to its length, the duration of a contiguous search, and
    maybe a NaN or inf at some hour."""
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, -2.5]), min_size=1, max_size=60))
    duration = draw(st.integers(min_value=1, max_value=len(values)))
    between = draw(st.integers(min_value=1, max_value=len(values)))
    bad = draw(st.none() | st.tuples(st.integers(min_value=0, max_value=len(values) - 1),
                                     st.sampled_from([math.nan, math.inf, -math.inf])))
    if bad is not None:
        values[bad[0]] = bad[1]
    return values, duration, between


@pytest.mark.differential
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=_order_cases())
def test_series_order_matches_reference(case) -> None:
    """Non-contiguous best_window, worst_window and shift_savings over the
    whole of a _Series, which keeps its hour order from the first such search,
    searched twice with a contiguous search between: the same hours or
    saving as on a plain tuple and from the reference, or the same exception
    class and message."""
    values, duration, between = case
    series, plain = _Series(values), tuple(values)
    load = _load(duration, contiguous=False)
    for _ in range(2):
        for search in (best_window, worst_window):
            expected = _outcome(_reference_hours, values, load, search.__name__)
            assert _outcome(search, series, load) == _outcome(search, plain, load) == expected
        for pair in itertools.product(("best_window", "worst_window"), repeat=2):
            expected = _outcome(_reference_savings, values, load, *pair)
            actual = _outcome(shift_savings, series, load, *pair)
            assert actual == _outcome(shift_savings, plain, load, *pair) == expected, pair
        contiguous = _load(between)
        expected = _outcome(_reference_hours, values, contiguous, "best_window")
        assert _outcome(best_window, series, contiguous) == expected
    # Only a series of finite values keeps (and reads) an order.
    assert ("_order" in series.__dict__) == all(map(math.isfinite, values))


@st.composite
def _block_cases(draw):
    """A block size, a signal of up to five blocks (or shorter than one), and
    a list of (duration, start window) searches: more durations than a series
    keeps, then the first ones again, each with windows whose edges sit one
    before, at or one after a block boundary. Signals are random, or a
    constant with bumps of a few ulps in several blocks, so that windows
    nearly tie across blocks."""
    block = draw(st.sampled_from([3, 5, scheduler._BLOCK]))
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(min_value=1, max_value=5 * block + 2))
    if draw(st.booleans()):
        signal = [rng.uniform(0.0, 1000.0) for _ in range(length)]
    else:
        base = rng.choice([0.1, 1.0, 0.7, 123.456])
        signal = [base] * length
        for hour in rng.sample(range(length), min(length, rng.randint(1, 6))):
            signal[hour] = base + rng.choice([-2, -1, 1, 2]) * math.ulp(base)
    edges = sorted({k * block + offset for k in range(length // block + 2) for offset in (-1, 0, 1)})
    searches = []
    durations = list(range(1, min(length, scheduler._KEPT_DURATIONS + 3) + 1))
    rng.shuffle(durations)
    for duration in durations + durations[:3]:
        fits = [edge for edge in edges if 0 <= edge <= length - duration]
        lo = draw(st.sampled_from(fits))
        hi = draw(st.sampled_from([edge for edge in fits if edge >= lo]))
        searches.append((duration, draw(st.sampled_from([None, (lo, hi)]))))
    return block, signal, searches


@pytest.mark.differential
@settings(deadline=None)
@given(case=_block_cases())
def test_block_boundaries_match_reference(case) -> None:
    """best_window and worst_window against the reference on a _Series (after
    a first search, so that its prefix and block extremes are kept, and
    across their eviction) and on a plain tuple, at block edges."""
    block, values, searches = case
    with mock.patch.object(scheduler, "_BLOCK", block):
        series, plain = _Series(values), tuple(values)
        best_window(series, _load(1))
        assert "_memo" in series.__dict__
        for duration, window in searches:
            load = _load(duration, window=window)
            for search, worst in ((best_window, False), (worst_window, True)):
                expected = reference_scheduler._extreme_window(values, load, worst)
                assert search(series, load) == search(plain, load) == expected, (duration, window, worst)
        assert len(series._memo.blocks) <= scheduler._KEPT_DURATIONS


def _scheduler_results():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ by a left fold and tie when
    # compensated, and so do ten times 0.1 and 1.0, so each result below
    # changes with the rule; so does this mix's total of 1.7 MWh.
    signal = [0.1, 0.2, 0.3, 0.2, 0.1] + [0.1] * 10
    mixes = tuple(GridMix(region="r", generation={"wind": 0.1, "solar": 0.3, "coal": 1.1, "gas": 0.2},
                          timestamp=datetime(2022, 6, 1, h, tzinfo=timezone.utc)) for h in range(3))
    return (
        best_window(signal, _load(3, window=(0, 2))),
        worst_window(_Series([0.3, 0.2, 0.1, 0.2, 0.3]), _load(3)),
        evaluate_schedule(tuple(range(5, 15)), _load(10), signal, [0.3] * 15),
        shift_savings(signal, _load(10), from_policy=5, to_policy=0),
        total_signal(RegionDataset(region="r", mixes=mixes)),
    )


def test_results_do_not_depend_on_builtin_sum() -> None:
    """The scheduler adds floats as Python 3.11's sum() does, on every Python:
    with the built-in sum() compensated, as from 3.12 on, its results are
    those it gives with sum() a plain left fold."""
    assert folded_sum([0.1] * 10) != neumaier_sum([0.1] * 10)
    folded, compensated = under_each_sum(_scheduler_results)
    assert compensated == folded


def test_list_signal_changed_between_searches() -> None:
    """A list is searched as it is at each call; nothing of it is kept."""
    signal = [5.0, 1.0, 5.0, 5.0]
    load = _load(2)
    assert best_window(signal, load) == (0, 1)
    signal[1], signal[3] = 5.0, 0.0
    assert best_window(signal, load) == (2, 3)
    signal[2] = math.nan
    with pytest.raises(ValueError, match="signal value at hour 2 is not finite"):
        best_window(signal, load)


def test_searched_series_copies_are_plain_tuples() -> None:
    """A searched series copies and pickles as the tuple of its values,
    without its prefix sums or hour order, and reads as that tuple."""
    series = total_signal(duck_curve_fixture())
    assert repr(series) == repr(tuple(series))
    best_window(series, _load(3, contiguous=False))
    best_window(series, _load(3))
    assert "_order" in series.__dict__ and "_memo" in series.__dict__
    for copied in (pickle.loads(pickle.dumps(series)), copy.deepcopy(series), copy.copy(series)):
        assert type(copied) is tuple and copied == series
    assert hash(series) == hash(tuple(series)) and isinstance(series, tuple)


# Non-contiguous placements whose extreme values tie: (signal, duration,
# window, best hours, worst hours). Ties go to the earlier hour.
NON_CONTIGUOUS_TIES = {
    "d-th ties (d+1)-th": ([5.0, 1.0, 3.0, 9.0, 3.0, 5.0, 3.0], 2, None, (1, 2), (0, 3)),
    "all equal": ([4.0] * 6, 3, None, (0, 1, 2), (0, 1, 2)),
    "zero beside minus zero": ([1.0, 0.0, -0.0, 0.0, 1.0], 2, None, (1, 2), (0, 4)),
    "minus zero first": ([-0.0, 0.0, 2.0, 2.0], 1, None, (0,), (2,)),
    "ties at the window edges": ([0.0, 2.0, 5.0, 5.0, 2.0, 0.0], 1, (1, 4), (1,), (2,)),
    "ties beyond the window": ([1.0, 3.0, 2.0, 2.0, 3.0, 1.0], 2, (1, 3), (2, 3), (1, 4)),
    "d equals the span": ([3.0, 1.0, 3.0, 1.0], 4, None, (0, 1, 2, 3), (0, 1, 2, 3)),
    "d equals a window's span": ([9.0, 2.0, 2.0, 9.0], 2, (1, 1), (1, 2), (1, 2)),
}


def _searched_series(values) -> _Series:
    """A _Series searched once, so that it keeps its prefix sums."""
    series = _Series(values)
    best_window(series, _load(1))
    return series


# On a plain list, and on a searched series, where a search of its whole span
# reads its kept hour order.
@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for kind in (list, _searched_series) for name in NON_CONTIGUOUS_TIES],
    ids=[name + suffix for suffix in ("", " (searched series)") for name in NON_CONTIGUOUS_TIES],
)
def test_non_contiguous_ties(name, kind) -> None:
    values, duration, window, best, worst = NON_CONTIGUOUS_TIES[name]
    signal = kind(values)
    load = _load(duration, window=window, contiguous=False)
    assert best_window(signal, load) == best
    assert worst_window(signal, load) == worst
    for hours, worst_flag in ((best, False), (worst, True)):
        assert reference_scheduler._extreme_window(signal, load, worst_flag) == hours


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_signal_rejected(contiguous, bad) -> None:
    signal = [1.0, 2.0, bad, 3.0, bad]
    load = _load(1, contiguous=contiguous)
    for search in (best_window, worst_window, shift_savings):
        with pytest.raises(ValueError, match="signal value at hour 2 is not finite"):
            search(signal, load)
    # Only the hours a placement may use are read.
    assert best_window(signal, _load(1, window=(0, 1), contiguous=contiguous)) == (0,)


def test_non_finite_fixed_start_rejected() -> None:
    signal = [1.0, 2.0, float("nan")]
    with pytest.raises(ValueError, match="signal value at hour 2 is not finite"):
        shift_savings(signal, _load(2), from_policy=1, to_policy=0)


# --- schedule evaluation --------------------------------------------------------

def test_identical_signals_zero_discrepancy() -> None:
    signal = [100.0, 200.0, 50.0]
    result = evaluate_schedule((0, 1), _load(2), signal, signal)
    assert result.discrepancy_pct == 0.0
    assert result.difference_g_per_kwh == 0.0
    assert result.reported_emissions_g == result.actual_emissions_g


def test_reported_vs_actual_constants() -> None:
    reported = [75.7] * 10
    actual = [194.5] * 10
    result = evaluate_schedule(tuple(range(10)), _load(10), reported, actual)
    assert result.reported_ci_avg == pytest.approx(75.7, rel=1e-12)
    assert result.actual_ci_avg == pytest.approx(194.5, rel=1e-12)
    assert result.difference_g_per_kwh == pytest.approx(118.8, rel=1e-12)
    assert result.discrepancy_pct == pytest.approx(100.0 * 118.8 / 75.7, rel=1e-12)
    assert result.discrepancy_pct == pytest.approx(156.9, abs=0.5)


def test_single_hour_emissions() -> None:
    result = evaluate_schedule((0,), _load(1, energy=7000.0), [100.0], [100.0])
    assert result.reported_emissions_g == 7000.0 * 100.0
    assert result.actual_emissions_g == result.reported_emissions_g


def test_signal_length_mismatch() -> None:
    with pytest.raises(SignalMismatch):
        evaluate_schedule((0,), _load(1), [1.0, 2.0], [1.0])


def test_hour_outside_signal() -> None:
    with pytest.raises(SignalMismatch):
        evaluate_schedule((5,), _load(1), [1.0, 2.0], [1.0, 2.0])


def test_no_hours() -> None:
    with pytest.raises(ValueError):
        evaluate_schedule((), _load(1), [1.0], [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("which", ["reported", "actual"])
def test_evaluate_rejects_non_finite_chosen_hour(bad, which) -> None:
    signals = {"reported": [1.0, 2.0, 3.0, 4.0], "actual": [5.0, 6.0, 7.0, 8.0]}
    signals[which][1] = signals[which][3] = bad
    with pytest.raises(ValueError, match=f"signal value at hour 3 is not finite: {bad}"):
        evaluate_schedule((0, 3, 1), _load(3), signals["reported"], signals["actual"])
    # Only the chosen hours are read.
    result = evaluate_schedule((0, 2), _load(2), signals["reported"], signals["actual"])
    assert result.reported_ci_avg == 2.0 and result.actual_ci_avg == 6.0
    with pytest.raises(ValueError, match="hour 0 is not finite: nan"):
        evaluate_schedule((0,), _load(1), [float("nan"), 1.0], [5.0, 1.0])


def test_zero_reported_average() -> None:
    assert evaluate_schedule((0,), _load(1), [0.0], [0.0]).discrepancy_pct == 0.0
    assert evaluate_schedule((0,), _load(1), [0.0], [5.0]).discrepancy_pct == float("inf")


@given(energy=st.floats(min_value=0.1, max_value=1e6))
def test_discrepancy_ignores_energy_scale(energy: float) -> None:
    reported = [80.0, 90.0, 100.0]
    actual = [160.0, 150.0, 140.0]
    base = evaluate_schedule((0, 2), _load(2, energy=1.0), reported, actual)
    scaled = evaluate_schedule((0, 2), _load(2, energy=energy), reported, actual)
    assert scaled.discrepancy_pct == base.discrepancy_pct
    assert scaled.difference_g_per_kwh == base.difference_g_per_kwh


@given(
    reported=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=3, max_size=24),
    bumps=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=3, max_size=24),
)
def test_actual_above_reported_never_saves(reported, bumps) -> None:
    n = min(len(reported), len(bumps))
    reported = reported[:n]
    actual = [r + b for r, b in zip(reported, bumps)]
    result = evaluate_schedule(tuple(range(n)), _load(n), reported, actual)
    assert result.actual_emissions_g >= result.reported_emissions_g


# --- shift savings ---------------------------------------------------------------

def test_shift_savings_two_hours() -> None:
    assert shift_savings([100.0, 50.0], _load(1)) == pytest.approx(50.0, rel=1e-12)


def test_shift_savings_constant_signal() -> None:
    assert shift_savings([42.0] * 6, _load(2)) == 0.0


def test_shift_savings_fixed_starts() -> None:
    savings = shift_savings([10.0, 20.0, 30.0], _load(1), from_policy=2, to_policy=0)
    assert savings == pytest.approx(100.0 * (30.0 - 10.0) / 30.0, rel=1e-12)


def test_shift_savings_zero_baseline() -> None:
    with pytest.raises(ZeroBaseline):
        shift_savings([0.0, 0.0], _load(1))


def test_emissions_overflow_names_the_energy() -> None:
    """energy_per_hour_kwh times a placement's CI sum overflows: an error
    naming the energy, not an infinite emission or a NaN saving."""
    load = FlexibleLoad(energy_per_hour_kwh=1e307, duration_hours=1)
    message = "^energy_per_hour_kwh: emissions of the load overflow$"
    with pytest.raises(ValueError, match=message):
        shift_savings([500.0, 100.0], load)
    with pytest.raises(ValueError, match=message):
        evaluate_schedule((1,), load, [1.0, 1.0], [5.0, 100.0])
    # Finite values whose sum overflows are named as such, whatever the energy.
    message = "^the signal values at the placed hours overflow their sum$"
    with pytest.raises(ValueError, match=message):
        evaluate_schedule((0, 1), FlexibleLoad(1.0, 2), [1e308, 1e308], [1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        shift_savings([1e308, 1e308, 1.0], FlexibleLoad(1.0, 2))


def test_shift_savings_bad_policy() -> None:
    with pytest.raises(ValueError):
        shift_savings([1.0, 2.0], _load(1), from_policy="vibes")
    with pytest.raises(ValueError):
        shift_savings([1.0, 2.0], _load(1), from_policy=True)


def test_shift_savings_fixed_start_out_of_range() -> None:
    with pytest.raises(WindowTooShort):
        shift_savings([1.0, 2.0], _load(1), from_policy=5)


def test_fixed_start_respects_window() -> None:
    signal = [10.0, 20.0, 30.0, 40.0]
    load = _load(1, window=(1, 2))
    savings = shift_savings(signal, load, from_policy=2, to_policy=1)
    assert savings == pytest.approx(100.0 / 3.0, rel=1e-12)
    with pytest.raises(WindowTooShort, match=r"fixed start 3 outside start window \(1, 2\)"):
        shift_savings(signal, load, from_policy=3)
    with pytest.raises(WindowTooShort, match=r"window \(0, 3\) with duration 2 exceeds"):
        shift_savings(signal, _load(2, window=(0, 3)), from_policy=0)


def test_fixed_start_needs_contiguous_load() -> None:
    with pytest.raises(ValueError, match="fixed start 0 needs a contiguous load"):
        shift_savings([1.0, 2.0, 3.0], _load(2, contiguous=False), from_policy=0)


# --- CI signals from datasets ------------------------------------------------------

def _flat_dataset(hours: int = 3) -> RegionDataset:
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    steps = tuple(
        GridMix(region="r", generation={"wind": 50.0, "coal": 50.0},
                timestamp=start + timedelta(hours=h))
        for h in range(hours)
    )
    return RegionDataset(
        region="r",
        mixes=steps,
        published_ci=(123.0,) * hours,
    )


def test_total_signal_cef_basis() -> None:
    assert total_signal(_flat_dataset()) == (500.0, 500.0, 500.0)


def test_total_signal_published_basis() -> None:
    assert total_signal(_flat_dataset(), basis="published") == (123.0, 123.0, 123.0)
    with pytest.raises(ValueError):
        total_signal(_flat_dataset(), basis="vibes")


def test_residual_signal_fraction_zero_is_total() -> None:
    dataset = duck_curve_fixture()
    assert residual_signal(dataset, 0.0) == total_signal(dataset)


def test_residual_signal_all_contracted() -> None:
    assert residual_signal(_flat_dataset(), 1.0) == (1000.0, 1000.0, 1000.0)


def test_residual_signal_fully_contracted_step() -> None:
    flat = _flat_dataset()
    steps = list(flat.mixes)
    steps[1] = GridMix(region="r", generation={"wind": 80.0}, timestamp=steps[1].timestamp)
    dataset = RegionDataset(region="r", mixes=tuple(steps))
    with pytest.raises(EmptyResidual, match="step 1 of region 'r' is fully contracted"):
        residual_signal(dataset, 1.0)


def test_duck_curve_signal_shapes() -> None:
    dataset = duck_curve_fixture()
    total = total_signal(dataset)
    residual = residual_signal(dataset, 1.0)
    assert min(total) == pytest.approx(121.0, rel=1e-9)
    assert total.index(min(total)) == 12
    assert max(total) == pytest.approx(200.0, rel=1e-9)
    assert total.index(max(total)) == 19
    assert min(residual) == pytest.approx(582.0, rel=1e-9)
    assert max(residual) == pytest.approx(600.0, rel=1e-9)
    # Contracting the renewables flattens the curve.
    assert max(residual) - min(residual) < max(total) - min(total)


def test_duck_curve_savings_contrast() -> None:
    dataset = duck_curve_fixture()
    load = _load(1, energy=7000.0)
    seeming = shift_savings(total_signal(dataset), load)
    actual = shift_savings(residual_signal(dataset, 1.0), load)
    assert seeming == pytest.approx(39.5, abs=1e-9)
    assert actual == pytest.approx(3.0, abs=1e-9)


# --- the Σ MWh·CEF a dataset keeps for its total and residual signals --------


def test_signal_of_steps_whose_sum_overflows() -> None:
    """Only a step whose own sums overflow is an error, not a series whose
    per-step totals add up past the float limit."""
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    huge = RegionDataset(region="r", timestamps=(start, start + timedelta(hours=1)),
                         source_ids=("wind",), columns=((1e308, 1e308),))
    assert total_signal(huge) == (0.0, 0.0)


def test_total_and_residual_signal_compute_the_weighted_sums_once(monkeypatch) -> None:
    """A dataset's total and residual signals, in either order and each with
    a registry of its own, compute Σ MWh·CEF once for one CEF table; a
    table with other CEFs computes it again."""
    calls = []
    weighted = scheduler._weighted
    monkeypatch.setattr(scheduler, "_weighted", lambda *args: calls.append(args) or weighted(*args))
    signals = {
        "total": lambda dataset: total_signal(dataset, SourceRegistry.default()),
        "residual": lambda dataset: residual_signal(dataset, 1.0, sources=SourceRegistry.default()),
    }
    for order in [("total", "residual"), ("residual", "total")]:
        calls.clear()
        dataset = duck_curve_fixture()
        shared = [signals[name](dataset) for name in (*order, *order)]
        assert len(calls) == 1
        total_signal(dataset, SourceRegistry.default({"gas": 1.0}))
        assert len(calls) == 2
        assert shared[:2] == [signals[name](duck_curve_fixture()) for name in order]


_KEPT_SOURCES = ("solar", "wind", "coal", "gas")
# Built again for every call, as a caller may: the kept sums are keyed by the
# CEFs themselves, not by a registry object.
_REGISTRIES = {
    "default": SourceRegistry.default,
    "dirty solar": lambda: SourceRegistry.default({"solar": 5.0}),  # solar not carbon-free
}


@st.composite
def _kept_sum_cases(draw):
    """Generation columns of cells at the edges of the float range, and a
    sequence of signal calls on one dataset."""
    steps = draw(st.integers(min_value=1, max_value=5))
    cells = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1e300])
    columns = [draw(st.lists(cells, min_size=steps, max_size=steps)) for _ in _KEPT_SOURCES]
    call = st.tuples(
        st.sampled_from(["total", "residual", "ci"]),
        st.sampled_from(sorted(_REGISTRIES)),  # the signal's registry
        st.sampled_from(sorted(_REGISTRIES)),  # the contracts' registry, for "ci"
        st.sampled_from([0.5, 1.0]),
        st.sampled_from([("solar", "wind"), ("wind",), ("solar",)]),
    )
    return columns, draw(st.lists(call, min_size=1, max_size=8))


def _kept_sum_call(dataset, call, fresh: bool):
    """One call on ``dataset``: its total or residual signal, or the residual
    CI steps of ``ci --contracts`` (contracts under the second registry,
    priced under the first). A fresh dataset's residual CI steps take
    nothing from it, so they are computed from the residual's own columns."""
    kind, registry, contracts_registry, fraction, categories = call
    sources = _REGISTRIES[registry]()
    try:
        if kind == "total":
            result = total_signal(dataset, sources)
        elif kind == "residual":
            result = residual_signal(dataset, fraction, categories, sources)
        else:
            contracts_sources = _REGISTRIES[contracts_registry]()
            contracts = contracts_for_fraction(dataset, fraction, categories, contracts_sources)
            residual = _residual_dataset(dataset, contracts, contracts_sources)
            result = _ci_steps(residual, sources, None if fresh else dataset)
    except GridCarbonError as exc:
        return type(exc), str(exc)
    return [None if ci is None else float.hex(ci) for ci in result]


@pytest.mark.differential
@settings(deadline=None)
@given(case=_kept_sum_cases())
def test_kept_sums_do_not_depend_on_call_order(tmp_path_factory, case) -> None:
    """Whatever calls came before on the same dataset, and under whichever
    registry, each total signal, residual signal and ``ci --contracts``
    residual column is, bit for bit, the same call's result on a freshly
    loaded dataset."""
    columns, calls = case
    path = tmp_path_factory.mktemp("kept") / "r.csv"
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    rows = [
        ",".join([(start + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%SZ"), *map(repr, row)])
        for h, row in enumerate(zip(*columns))
    ]
    path.write_text("\n".join([",".join(["timestamp", *_KEPT_SOURCES]), *rows]) + "\n", encoding="utf-8")
    dataset = load_region_csv(path)
    for call in calls:
        assert _kept_sum_call(dataset, call, False) == _kept_sum_call(load_region_csv(path), call, True), call
