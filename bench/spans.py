"""Spans around calls into the program's layers, recorded from outside it.

:meth:`Tracer.install` replaces every public module-level function of the
package at every name binding: in the module that defines it and in each
module that imports the name. A call then records one span with its name,
start, end, parent span and operation id. Spans stay in memory, in flat
arrays, until the run ends. :meth:`Tracer.uninstall` puts every original
binding back.

A span's self time is its duration minus the durations of its direct
children. Over the spans of one operation the self times add up to the
duration of the operation's root span, so the per-layer sums partition
the operation's traced wall time.

:func:`span_cost_s` measures what recording one span adds to a call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from time import perf_counter

ROOT = "op"
OTHER = "other"

# A hook sees (tracer, span index, args, kwargs, result) after a call returns.
Hook = Callable[["Tracer", int, tuple, dict, object], None]


class Tracer:
    """Records spans for the calls into one package's public functions."""

    def __init__(self, package: str, hooks: dict[str, Hook] | None = None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.names: list[str] = [ROOT]  # span name id -> "layer.function"
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counts: dict[str, float] = {}
        self.tags: dict[int, object] = {}
        self._stack: list[int] = [-1]
        self._op_id = -1
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(self._op_id)
        self._stack.append(index)
        return index

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, func, span_name: str):
        tracer = self
        name_id = len(self.names)
        self.names.append(span_name)
        hook = self.hooks.get(span_name)
        clock = perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            started = clock()
            try:
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(tracer, index, args, kwargs, result)
                return result
            finally:
                tracer.end[index] = clock()
                tracer.start[index] = started
                tracer._stack.pop()

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; its self time is the ``other`` layer."""
        self._op_id = op_id
        index = self._open(0)
        self.start[index] = perf_counter()
        try:
            yield index
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()
            self._op_id = -1

    # -- installing ------------------------------------------------------

    def install(self) -> int:
        """Wrap the package's public functions at every binding; return the count."""
        prefix = self.package + "."
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(prefix):
                    continue
                if id(value) not in wrappers:
                    layer = home[len(prefix) :]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._bindings.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return len(self._bindings)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer(self, index: int) -> str:
        name = self.names[self.name[index]]
        return OTHER if name == ROOT else name.split(".", 1)[0]

    def span_name(self, index: int) -> str:
        return self.names[self.name[index]]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        selves = [end - start for start, end in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                selves[parent] -= self.end[index] - self.start[index]
        return selves

    def has_ancestor(self, index: int, span_name: str) -> bool:
        parent = self.parent[index]
        while parent >= 0:
            if self.names[self.name[parent]] == span_name:
                return True
            parent = self.parent[parent]
        return False


def _noop() -> None:
    return None


def span_cost_s(calls: int = 20_000, rounds: int = 16) -> float:
    """Median time one traced call adds over a bare call, in seconds.

    Each round times a block of bare calls to a no-op and a block of the
    same calls through a tracer's wrapper, bare first in half of the
    rounds, and takes their difference per call. Adjacent blocks last a
    few milliseconds, so a drift in the host's speed moves both alike.
    """
    bare = _noop
    costs = []
    for round_ in range(rounds):
        traced = Tracer("calibration")._wrap(_noop, "calibration.noop")
        times = {}
        for func in (bare, traced) if round_ % 2 == 0 else (traced, bare):
            started = perf_counter()
            for _ in range(calls):
                func()
            times[func] = perf_counter() - started
        costs.append((times[traced] - times[bare]) / calls)
    return statistics.median(costs)
