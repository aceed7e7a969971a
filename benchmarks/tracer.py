"""Span tracer for the benchmark's traced run.

The tracer wraps named public functions of the ``sla`` modules from the
outside, so the package itself carries no tracing code.  Each call becomes
one span (name, start, end, parent) kept in memory; a function may also
have a count hook that adds work counts (rows, trees, classes, ...) taken
from its arguments and result.

A wrapped function is rebound everywhere it is bound among the loaded
``sla`` modules, matched by object identity, so calls through an imported
alias (``sla.pipeline.predict_gbt_batch`` for ``sla.learners``'s function)
are traced too.  A target whose module or name no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

CountHook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One function to trace: ``sla.<layer>.<name>``.

    ``count`` is called after each call as ``count(state, args, kwargs,
    result)`` and accumulates whatever it likes into ``state``, a dict
    kept per target.
    """

    layer: str
    name: str
    count: CountHook | None = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span ``(name, start, end, parent_index)``: its
    duration minus the part of its interval covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Context manager that traces ``targets`` while it is entered.

    Use one tracer for one traced run: enter it, make the calls, leave it,
    then read ``stats()``, ``state`` and ``absent``.
    """

    def __init__(
        self,
        targets: list[Target],
        package: str = "sla",
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.targets = list(targets)
        self.package = package
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.state: dict[str, dict] = {t.key: {} for t in self.targets}
        self.absent: list[str] = []
        self.count_errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ------------------------------

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def __enter__(self) -> "Tracer":
        modules = self._package_modules()
        for target in self.targets:
            home = sys.modules.get(f"{self.package}.{target.layer}")
            original = getattr(home, target.name, None) if home is not None else None
            if not callable(original):
                self.absent.append(target.key)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        key, count, state = target.key, target.count, self.state[target.key]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (key, start, clock(), parent)
                stack.pop()
            if count is not None:
                try:
                    count(state, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the function's signature or result changed under us
                    self.count_errors[key] = self.count_errors.get(key, 0) + 1
            return result

        return traced

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time and self time per traced function."""
        done = [s for s in self.spans if s is not None]
        out = {t.key: SpanStats() for t in self.targets}
        for span, own in zip(done, self_times(done)):
            entry = out[span[0]]
            entry.calls += 1
            entry.total_s += span[2] - span[1]
            entry.self_s += own
        return out
