"""In-memory call tracer used by the benchmark's traced run.

Two kinds of wrapper are installed from outside the program, around calls
into its modules:

* a span wrapper, for functions whose calls are few enough to time one by
  one.  It keeps, per name, the call count, the inclusive time and the self
  time, which is the inclusive time minus the part covered by nested spans;
* a counting wrapper, for hot tiny functions (millions of calls), which only
  increments a counter.  Its cost lands in the enclosing span's self time.

Spans are aggregated per name as they close instead of being stored, so the
traced run holds a few numbers per function however many calls it makes.
"""

from __future__ import annotations

import functools
import time


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}     # name -> SpanStats
        self._cells = {}    # name -> one-element list holding a count
        self._open = []     # child time accumulated by each open span

    def _cell(self, name):
        return self._cells.setdefault(name, [0])

    def add(self, name, amount=1):
        self._cell(name)[0] += amount

    def count(self, name):
        return self._cells[name][0] if name in self._cells else 0

    def stats(self, name):
        return self.spans.get(name) or SpanStats()

    def span(self, name, fn, observe=None):
        """Wrap fn in a span.  observe(tracer, args, kwargs, result) runs
        after a successful call, outside the span's own clock."""
        stats = self.spans.setdefault(name, SpanStats())
        clock = self.clock
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call only bumps the count of ``name``."""
        cell = self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def rebind(modules, original, wrapper):
    """Replace every module-level binding of ``original`` by ``wrapper``.

    A function imported with ``from .x import f`` is a separate binding in
    each importing module, so wrapping only the defining module would miss
    the calls made through those names.  Returns the number of bindings
    replaced."""
    replaced = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                replaced += 1
    return replaced
