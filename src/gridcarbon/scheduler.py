"""Carbon-aware scheduling of flexible loads against hourly CI signals.

A flexible load draws constant power for a fixed number of hours and may
start anywhere inside an allowed window. :func:`best_window` picks the
cheapest placement against a carbon-intensity signal; running
:func:`evaluate_schedule` against a second signal quantifies how wrong
the choice looks when the signal the consumer saw (the total grid mix)
differs from the one that actually prices their residual demand.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import ge, le, sub, truediv

from ._record import _frozen
from .contracts import _fully_contracted, _residual_dataset, contracts_for_fraction
from .errors import EmptyMix, SignalMismatch, WindowTooShort, ZeroBaseline
from .grid import SourceRegistry, _cefs, _column_sums, _sum, _weighted
from .ingest import RegionDataset, check_basis, check_overflow

Signal = Sequence[float]

# Below this sum of absolute values no prefix or window sum can overflow;
# at or above it every start of a contiguous load is summed.
_MAX_SCALE = sys.float_info.max / 4
# The window search keeps, per load duration, the least and the greatest
# window sum of each block of this many consecutive starts.
_BLOCK = 64
# A searched series keeps the block extremes of this many durations at most;
# the oldest goes first.
_KEPT_DURATIONS = 8


class _Series(tuple):
    """A CI series of finite values >= 0 that keeps, from its first search,
    its prefix sums, scale and block extremes, and from its first
    non-contiguous search over all its hours, its hour order; its copies
    and pickles are plain tuples.

    The prefix sums take about the series' own size (280 KB for a year of
    hours). The block extremes take about 9 KB per load duration for a
    year at B = ``_BLOCK`` = 64; they are kept for up to
    ``_KEPT_DURATIONS`` = 8 durations, and a new one drops the one kept
    longest. A contiguous search over the kept prefix costs O(T/B + B) for
    T hours, plus O(d) for each further start within rounding error of the
    extreme (usually none). The hour order (its hours sorted by value)
    takes 8 bytes an hour, about 70 KB for a year; a non-contiguous search
    of d hours over all the hours of a series that keeps it costs
    O(d log d), where one over a span of s hours sorts them, O(s log s).
    """

    def __reduce__(self):
        return tuple, (tuple(self),)

    @cached_property
    def _memo(self) -> _Prefix | None:
        """The prefix sums from hour 0, if the sum of ``|value|`` is below ``_MAX_SCALE``."""
        try:
            scale = _finite_scale(self, 0)
        except ValueError:  # a value that is not finite; a search reports it if it reads it
            return None
        return _Prefix(self, 0, scale) if scale < _MAX_SCALE else None

    @cached_property
    def _order(self) -> Sequence[int]:
        """The hours sorted by value, the earlier first among equal values; read
        only when ``_memo`` is not None, so that every value is finite."""
        from array import array  # here, not at the top: CLI start-up never needs it

        return array("q", sorted(range(len(self)), key=self.__getitem__))


class _Prefix:
    """The prefix sums of the values of a signal from hour ``first`` on, their
    scale (the sum of ``|value|``), and the block extremes of the window sums
    of each duration searched: ``blocks[d]`` is (minima, maxima) over the
    starts 0..B-1, B..2B-1, ... counted from ``first``, B = ``_BLOCK``."""

    __slots__ = ("first", "scale", "prefix", "blocks")

    def __init__(self, values: Signal, first: int, scale: float) -> None:
        self.first, self.scale = first, scale
        self.prefix = list(accumulate(values, initial=0.0))
        self.blocks: dict[int, tuple[list[float], list[float]]] = {}

    def _sums(self, i: int, j: int, d: int) -> list[float]:
        """The window sums of duration ``d`` at the starts ``first + i`` to ``first + j - 1``."""
        prefix = self.prefix
        return list(map(sub, prefix[i + d : j + d], prefix[i:j]))

    def _extremes(self, d: int) -> tuple[list[float], list[float]]:
        extremes = self.blocks.get(d)
        if extremes is None:
            sums = self._sums(0, len(self.prefix) - d, d)
            blocks = [sums[i : i + _BLOCK] for i in range(0, len(sums), _BLOCK)]
            extremes = (list(map(min, blocks)), list(map(max, blocks)))
            # Evict from a copy and bind it in one step, so a search in another
            # thread sees either dict whole and never deletes a key twice.
            kept = dict(self.blocks)
            while len(kept) >= _KEPT_DURATIONS:
                del kept[next(iter(kept))]
            kept[d] = extremes
            self.blocks = kept
        return extremes

    def extreme_start(self, signal: Signal, lo: int, hi: int, d: int, worst: bool) -> int:
        """The start in ``lo..hi`` whose ``d`` hours of ``signal`` have the least
        (``worst`` False) or greatest ``_sum``, the earliest of equal sums."""
        # A prefix difference over these n = len(prefix) - 1 values rounds off
        # by at most about 2n·2⁻⁵³·scale and the _sum() of the same window by
        # d·2⁻⁵³·scale, so the two differ by less than (2n + d + 1)·2⁻⁵³·scale,
        # and the start that _sum() ranks first lies within twice that (tol)
        # of the prefix extreme. Only the starts that close are summed again,
        # in start order; min and max keep the first of equal sums, as a scan
        # of every start does, so ties go to the earliest. The extreme is read
        # from the window sums of the partial blocks at either edge and the
        # kept extremes of the whole blocks between them, and a whole block's
        # sums are taken again only if its extreme lies within tol.
        tol = 2 * (2 * (len(self.prefix) - 1) + d + 1) * 2.0**-53 * self.scale
        pick, close = (max, ge) if worst else (min, le)
        first, sums = self.first, self._sums
        a, b = lo - first, hi - first
        inner, last = a // _BLOCK + 1, b // _BLOCK  # the whole blocks: inner..last-1
        if inner < last:
            left, right = sums(a, inner * _BLOCK, d), sums(last * _BLOCK, b + 1, d)
            middle = self._extremes(d)[worst][inner:last]
            extreme = pick(pick(left), pick(right), pick(middle))
        else:
            left, right, middle = sums(a, b + 1, d), [], []
            extreme = pick(left)
        bound = extreme - tol if worst else extreme + tol
        starts = list(compress(range(lo, hi + 1), map(close, left, repeat(bound))))
        for k in compress(range(inner, last), map(close, middle, repeat(bound))):
            block = sums(k * _BLOCK, k * _BLOCK + _BLOCK, d)
            starts += compress(range(first + k * _BLOCK, hi + 1), map(close, block, repeat(bound)))
        starts += compress(range(first + last * _BLOCK, hi + 1), map(close, right, repeat(bound)))
        if len(starts) == 1:
            return starts[0]
        return pick(starts, key=lambda s: _sum(signal[s : s + d]))


@_frozen
class FlexibleLoad:
    """A constant-draw load needing ``duration_hours`` consecutive-or-not hours.

    ``window`` bounds the allowed *start* indices (inclusive); ``None``
    allows any feasible start. A non-contiguous load may use any hours an
    allowed contiguous placement could have touched.
    """

    energy_per_hour_kwh: float
    duration_hours: int
    window: tuple[int, int] | None = None
    contiguous: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.energy_per_hour_kwh < math.inf:
            raise ValueError("energy_per_hour_kwh must be a finite number >= 0")
        if not _is_int(self.duration_hours) or self.duration_hours < 1:
            raise ValueError(f"duration_hours must be an integer >= 1, got {self.duration_hours}")
        if self.window is not None:
            window = tuple(self.window) if isinstance(self.window, (tuple, list)) else ()
            if len(window) != 2 or not all(map(_is_int, window)):
                raise ValueError(f"window must be a pair of integer start hours, got {self.window!r}")
            object.__setattr__(self, "window", window)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _start_bounds(signal: Signal, load: FlexibleLoad) -> tuple[int, int]:
    n = len(signal)
    duration = load.duration_hours
    if load.window is None and duration > n:
        raise WindowTooShort(f"duration {duration} exceeds signal length {n}")
    lo, hi = load.window if load.window is not None else (0, n - duration)
    if lo < 0 or hi < lo:
        raise WindowTooShort(f"invalid start window ({lo}, {hi})")
    if hi + duration > n:
        raise WindowTooShort(
            f"window ({lo}, {hi}) with duration {duration} exceeds signal length {n}"
        )
    return lo, hi


def _finite_scale(span: Signal, first_hour: int) -> float:
    """The sum of ``|value|`` over a signal slice, ``inf`` if it overflows.

    Raises:
        ValueError: naming the first hour of the slice, counted from
            ``first_hour``, whose value is not finite.
    """
    try:
        scale = math.fsum(map(abs, span))
    except OverflowError:  # finite values whose sum exceeds the float range
        scale = math.inf
    if not math.isfinite(scale):
        for hour, value in enumerate(span, first_hour):
            if not math.isfinite(value):
                raise ValueError(f"signal value at hour {hour} is not finite: {value}")
    return scale


def _extreme_windows(signal: Signal, load: FlexibleLoad, *worst: bool) -> list[tuple[int, ...]]:
    """The placement minimizing (``False``) or maximizing (``True``) the
    load's total CI for each flag, from one bounds check and one pass."""
    lo, hi = _start_bounds(signal, load)
    duration = load.duration_hours
    memo = signal._memo if isinstance(signal, _Series) else None
    span = signal[lo : hi + duration] if memo is None else None
    scale = _finite_scale(span, lo) if memo is None else memo.scale
    if not load.contiguous:
        # The span's hours in value order, the earlier first among equal
        # values (kept for the whole of a series): its d least values are the
        # first d hours. Its d greatest are the hours above the d-th greatest
        # value and, of the hours tied at it, the earliest.
        from bisect import bisect_left, bisect_right

        value = signal.__getitem__
        if memo is not None and lo == 0 and hi + duration == len(signal):
            order = signal._order
        else:
            order = sorted(range(lo, hi + duration), key=value)
        placements = []
        for w in worst:
            if w:
                kth = value(order[-duration])
                left, right = bisect_left(order, kth, key=value), bisect_right(order, kth, key=value)
                hours = order[right:] + order[left : left + duration - (len(order) - right)]
            else:
                hours = order[:duration]
            placements.append(tuple(sorted(hours)))
        return placements
    if scale < _MAX_SCALE:
        prefix = _Prefix(span, lo, scale) if memo is None else memo
        starts = [prefix.extreme_start(signal, lo, hi, duration, w) for w in worst]
    else:
        starts = [
            (max if w else min)(range(lo, hi + 1), key=lambda s: _sum(signal[s : s + duration])) for w in worst
        ]
    return [tuple(range(start, start + duration)) for start in starts]


def best_window(signal: Signal, load: FlexibleLoad) -> tuple[int, ...]:
    """Hours minimizing total CI for the load.

    Contiguous loads get the minimum-sum start (ties go to the earliest
    start); non-contiguous loads get the individually cheapest hours
    (ties go to the earlier hour). For a contiguous load the search is
    O(T) in the T allowed hours: one prefix-sum pass, then a sum over
    only the starts within rounding error of the minimum (one, unless
    windows nearly tie). A series from :func:`total_signal` or
    :func:`residual_signal` keeps, from its first search, its prefix sums
    and, per duration, the least and greatest window sum of each block of
    ``_BLOCK`` starts (sizes and bound in ``_Series``); a contiguous search
    of it then costs O(T/B + B) in its T hours. A non-contiguous load reads
    the hours of its span sorted by value, the earlier first among equal
    values, which costs O(s log s) for a span of s hours; over the whole of
    such a series, which keeps that order from the first such search, it
    costs O(d log d); both read the order by the rule that
    ``tests/reference_scheduler.py`` applies. Contiguous and non-contiguous
    searches pick the same hours as summing every window and keeping the
    first.

    Raises:
        WindowTooShort: if the window cannot fit the load.
        ValueError: if a value in the hours the load may use is not
            finite; the message names the first such hour.
    """
    return _extreme_windows(signal, load, False)[0]


def worst_window(signal: Signal, load: FlexibleLoad) -> tuple[int, ...]:
    """Hours maximizing total CI for the load (the shift-from baseline).

    The mirror of :func:`best_window`, with the same ties, cost and errors.
    """
    return _extreme_windows(signal, load, True)[0]


@_frozen
class ScheduleResult:
    """A scheduled load evaluated against reported and actual CI signals."""

    hours: tuple[int, ...]
    reported_ci_avg: float
    actual_ci_avg: float
    reported_emissions_g: float
    actual_emissions_g: float
    difference_g_per_kwh: float
    discrepancy_pct: float


def evaluate_schedule(
    hours: Sequence[int],
    load: FlexibleLoad,
    reported_signal: Signal,
    actual_signal: Signal,
) -> ScheduleResult:
    """Price the chosen hours under both signals and quantify the gap.

    ``difference_g_per_kwh`` is actual minus reported average CI;
    ``discrepancy_pct`` expresses it relative to the reported average.

    Raises:
        SignalMismatch: if the signals differ in length or do not cover
            every chosen hour.
        ValueError: if a signal value at a chosen hour is not finite (the
            message names the first such hour), or the load's emissions
            overflow (naming ``energy_per_hour_kwh``).
    """
    if len(reported_signal) != len(actual_signal):
        raise SignalMismatch(
            f"reported signal has {len(reported_signal)} steps, actual has {len(actual_signal)}"
        )
    if not hours:
        raise ValueError("schedule has no hours")
    for hour in hours:
        if not 0 <= hour < len(reported_signal):
            raise SignalMismatch(f"hour {hour} outside signal of length {len(reported_signal)}")
    reported_sum = _sum(reported_signal[h] for h in hours)
    actual_sum = _sum(actual_signal[h] for h in hours)
    if not math.isfinite(reported_sum + actual_sum):  # finite sums need no scan
        for hour in hours:
            for value in (reported_signal[hour], actual_signal[hour]):
                if not math.isfinite(value):
                    raise ValueError(f"signal value at hour {hour} is not finite: {value}")
    reported_avg = reported_sum / len(hours)
    actual_avg = actual_sum / len(hours)
    if reported_avg > 0:
        discrepancy = 100.0 * (actual_avg - reported_avg) / reported_avg
    else:
        discrepancy = 0.0 if actual_avg == 0 else float("inf")
    return ScheduleResult(
        hours=tuple(hours),
        reported_ci_avg=reported_avg,
        actual_ci_avg=actual_avg,
        reported_emissions_g=_emissions(load, reported_sum),
        actual_emissions_g=_emissions(load, actual_sum),
        difference_g_per_kwh=actual_avg - reported_avg,
        discrepancy_pct=discrepancy,
    )


def _emissions(load: FlexibleLoad, ci_sum: float) -> float:
    """Emissions of the load over hours whose (finite) CIs sum to ``ci_sum``;
    a ValueError when that sum overflows, or naming ``energy_per_hour_kwh``
    when the emissions do."""
    if not math.isfinite(ci_sum):
        raise ValueError("the signal values at the placed hours overflow their sum")
    emissions = load.energy_per_hour_kwh * ci_sum
    if not math.isfinite(emissions):
        raise ValueError("energy_per_hour_kwh: emissions of the load overflow")
    return emissions


def _policy_hours(signal: Signal, load: FlexibleLoad, policy: str | int) -> tuple[int, ...]:
    if policy == "best_window":
        return best_window(signal, load)
    if policy == "worst_window":
        return worst_window(signal, load)
    if _is_int(policy):
        start = policy
        if start < 0 or start + load.duration_hours > len(signal):
            raise WindowTooShort(
                f"fixed start {start} with duration {load.duration_hours} "
                f"exceeds signal length {len(signal)}"
            )
        if load.window is not None:
            lo, hi = _start_bounds(signal, load)
            if not lo <= start <= hi:
                raise WindowTooShort(f"fixed start {start} outside start window ({lo}, {hi})")
        if not load.contiguous:
            raise ValueError(f"fixed start {start} needs a contiguous load")
        _finite_scale(signal[start : start + load.duration_hours], start)
        return tuple(range(start, start + load.duration_hours))
    raise ValueError(f"policy must be 'best_window', 'worst_window' or a start index, got {policy!r}")


def shift_savings(
    signal: Signal,
    load: FlexibleLoad,
    from_policy: str | int = "worst_window",
    to_policy: str | int = "best_window",
) -> float:
    """Percentage emissions saved by moving the load between two placements.

    Both placements are priced on the same ``signal``; to reproduce a
    reported-vs-actual contrast, call this once on each signal and
    compare the two percentages.

    A fixed start must lie in the load's window, and the load must be
    contiguous. Two searched placements share one search pass, which
    costs about as much as one :func:`best_window` call.

    Raises:
        ZeroBaseline: if the from-placement has zero emissions.
        WindowTooShort: if a placement does not fit the signal or a fixed
            start lies outside the window.
        ValueError: if a fixed start is given for a non-contiguous load,
            a value in the hours a placement may use is not finite, or a
            placement's emissions overflow (naming ``energy_per_hour_kwh``).
    """
    policies = (from_policy, to_policy)
    if all(policy in ("best_window", "worst_window") for policy in policies):
        worst = [policy == "worst_window" for policy in policies]
        from_hours, to_hours = _extreme_windows(signal, load, *worst)
    else:
        from_hours, to_hours = (_policy_hours(signal, load, p) for p in policies)
    from_emissions = _emissions(load, _sum(signal[h] for h in from_hours))
    to_emissions = _emissions(load, _sum(signal[h] for h in to_hours))
    if from_emissions == 0:
        raise ZeroBaseline("baseline placement emits nothing; savings undefined")
    return 100.0 * (from_emissions - to_emissions) / from_emissions


def _ci_steps(dataset: RegionDataset, sources: SourceRegistry) -> tuple[float | None, ...]:
    """:func:`~gridcarbon.grid.compute_average_ci` of each step (one ``map`` when every step
    has energy), ``None`` for a step without; a ValueError names the first step whose sums overflow."""
    totals = _column_sums(dataset.columns, len(dataset))
    weighted = _weighted(dataset.columns, _cefs(dataset.source_ids, sources), len(dataset))
    check_overflow(dataset, _sum(totals) + _sum(weighted), map(max, totals, weighted))
    if all(totals):
        return tuple(map(truediv, weighted, totals))
    return tuple(w / total if total > 0 else None for w, total in zip(weighted, totals))


def _signal(
    dataset: RegionDataset, sources: SourceRegistry, uncontracted: RegionDataset | None = None
) -> tuple[float, ...]:
    """The per-step CI series of a dataset.

    Raises:
        EmptyMix: at the first step without energy, or EmptyResidual
            there when ``dataset`` is the residual of ``uncontracted``
            and that step had generation.
    """
    signal = _ci_steps(dataset, sources)
    if None in signal:
        step = signal.index(None)
        if uncontracted is not None and _sum(c[step] for c in uncontracted.columns) > 0:
            raise _fully_contracted(dataset.region, step)
        raise EmptyMix(f"carbon intensity undefined for empty mix in region {dataset.region!r}")
    return _Series(signal)


def total_signal(
    dataset: RegionDataset,
    sources: SourceRegistry | None = None,
    basis: str = "cef",
) -> tuple[float, ...]:
    """Per-step total-mix CI series (the public, unadjusted signal). From its
    first search it keeps its prefix sums and block extremes, whose sizes
    the ``_Series`` docstring gives."""
    check_basis(dataset, basis)
    if basis == "published":
        return _Series(dataset.published_ci)
    return _signal(dataset, SourceRegistry.default() if sources is None else sources)


def residual_signal(
    dataset: RegionDataset,
    contract_fraction: float | Mapping[str, float],
    categories: Sequence[str] = ("solar", "wind"),
    sources: SourceRegistry | None = None,
) -> tuple[float, ...]:
    """Per-step residual CI series with a fraction of generation contracted.
    It keeps what a searched :func:`total_signal` keeps.

    Raises:
        EmptyResidual: if any step becomes fully contracted.
        EmptyMix: if a step has no generation.
    """
    sources = SourceRegistry.default() if sources is None else sources
    contracts = contracts_for_fraction(dataset, contract_fraction, categories, sources)
    return _signal(_residual_dataset(dataset, contracts, sources), sources, dataset)
