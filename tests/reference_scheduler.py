"""The window search as it stood before the prefix-sum search replaced it:
``_start_bounds`` and ``_extreme_window`` from ``gridcarbon.scheduler``,
copied verbatim but for the built-in ``sum``, which is :func:`folded_sum`,
the sum() of Python 3.11 they were written on.

It sums every allowed window and keeps the first extreme, so
``test_scheduler`` pins ``best_window`` and ``worst_window`` to it choice
for choice.
"""

from __future__ import annotations

from collections.abc import Sequence

from gridcarbon.errors import WindowTooShort
from gridcarbon.scheduler import FlexibleLoad

from reference_sum import folded_sum

Signal = Sequence[float]


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


def _extreme_window(signal: Signal, load: FlexibleLoad, worst: bool) -> tuple[int, ...]:
    lo, hi = _start_bounds(signal, load)
    duration = load.duration_hours
    if load.contiguous:
        best_start = None
        best_sum = None
        for start in range(lo, hi + 1):
            cost = folded_sum(signal[start : start + duration])
            better = best_sum is None or (cost > best_sum if worst else cost < best_sum)
            if better:
                best_start, best_sum = start, cost
        return tuple(range(best_start, best_start + duration))
    hours = range(lo, hi + duration)
    ranked = sorted(hours, key=lambda h: (-signal[h], h) if worst else (signal[h], h))
    return tuple(sorted(ranked[:duration]))
