"""The built-in ``sum()`` of floats as each Python adds them, to run code
under either rule: a left fold from ``start`` up to Python 3.11, and
Neumaier's compensated sum from 3.12 on."""

from __future__ import annotations

import builtins
import math
from collections.abc import Callable
from functools import reduce
from operator import add
from typing import TypeVar
from unittest import mock

T = TypeVar("T")


def folded_sum(values, start=0):
    """The built-in sum() of Python 3.11: a left fold from ``start``."""
    return reduce(add, values, start)


def neumaier_sum(values, start=0):
    """The built-in sum() of Python 3.12 and later: floats added with
    Neumaier's compensation."""
    total, compensation, floats = start, 0.0, False
    for value in values:
        if not floats:
            total = total + value
            floats = isinstance(total, float)
            continue
        sum_ = total + value
        if abs(total) >= abs(value):
            compensation += (total - sum_) + value
        else:
            compensation += (value - sum_) + total
        total = sum_
    return total + compensation if floats and compensation and math.isfinite(compensation) else total


def under_each_sum(compute: Callable[[], T]) -> tuple[T, T]:
    """``compute()`` with the built-in sum() a left fold, then compensated."""
    with mock.patch.object(builtins, "sum", folded_sum):
        folded = compute()
    with mock.patch.object(builtins, "sum", neumaier_sum):
        compensated = compute()
    return folded, compensated
