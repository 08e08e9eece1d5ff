"""Per-layer spans for the traced benchmark run.

A :class:`Tracer` replaces selected harosgraph functions with timing
wrappers, in every harosgraph module that holds a reference to them, so a
call made through ``verify.interval_form_value`` is caught as surely as one
made through ``distribution.interval_form_value``.  Spans nest: each one
subtracts the time of the spans it encloses, which leaves the function's
self time.  A generator function is timed per ``next()``, not at creation,
so the work it does lazily lands on the right layer.

Spans are folded into per-function counters as they close and kept in
memory; the benchmark prints the counters when the run ends.  A sweep pass
closes about a million spans, which is why the raw spans are not stored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Iterator, Sequence


class SpanStats:
    """Counters for one traced function."""

    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Times the named functions (``"<module>.<function>"``) while installed."""

    def __init__(self, names: Sequence[str]) -> None:
        self.stats = {name: SpanStats() for name in names}
        # One entry per open span: the time its child spans have used so far.
        self._open: list[list[float]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for name in names:
            module_name, func_name = name.split(".")
            original = getattr(
                importlib.import_module(f"harosgraph.{module_name}"), func_name
            )
            self._wrappers[id(original)] = (original, self._wrap(name, original))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the wrappers into every loaded harosgraph module, then back."""
        patched = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "harosgraph" or name.startswith("harosgraph.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, name: str, func):
        stats = self.stats[name]
        open_spans = self._open

        def close(start: float, children: list[float]) -> None:
            elapsed = perf_counter() - start
            open_spans.pop()
            stats.calls += 1
            stats.self_s += elapsed - children[0]
            if open_spans:
                open_spans[-1][0] += elapsed

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def traced_generator(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    children = [0.0]
                    open_spans.append(children)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        close(start, children)
                        return
                    except BaseException:
                        stats.errors += 1
                        close(start, children)
                        raise
                    close(start, children)
                    yield item

            return traced_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                close(start, children)

        return traced
