"""In-memory span and counter recorder, attached from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing one of
the layer's public entry points (a module function or a class method)
with a wrapper that records a span around the original call.
:meth:`Tracer.patch` installs such a wrapper and :meth:`Tracer.restore`
puts every original back.

A span aggregate keeps the total time, the call count and the time its
direct child spans covered, so a layer's self time is
``total - child`` (see :func:`perfbench.stats.self_time`). Nesting is tracked
per thread. With ``enabled`` false a wrapper costs one attribute check.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class SpanStat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("total_s", "calls", "child_s")

    def __init__(self):
        self.total_s = 0.0
        self.calls = 0
        self.child_s = 0.0


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Spans, counters and latency samples of one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> float:
        self._stack().append(_Frame(name))
        return self.clock()

    def end(self, start: float) -> float:
        elapsed = self.clock() - start
        stack = self._stack()
        frame = stack.pop()
        with self._lock:
            stat = self.spans.get(frame.name)
            if stat is None:
                stat = self.spans[frame.name] = SpanStat()
            stat.total_s += elapsed
            stat.calls += 1
            stat.child_s += frame.child_s
        if stack:
            stack[-1].child_s += elapsed
        return elapsed

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(float(value))

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.samples.clear()

    def span(self, name: str):
        """Context manager recording one span (used around whole loops)."""
        return _SpanContext(self, name)

    # -- attaching to the program ----------------------------------------

    def record(self, name: str, elapsed: float) -> None:
        """Add one span without nesting (for coroutines, which interleave
        on one thread and so cannot share a per-thread stack)."""
        with self._lock:
            stat = self.spans.get(name)
            if stat is None:
                stat = self.spans[name] = SpanStat()
            stat.total_s += elapsed
            stat.calls += 1

    def replace(self, owner, attr: str, new) -> object:
        """Install ``new`` as ``owner.attr``; returns the original."""
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if isinstance(original, staticmethod):
            new = staticmethod(new)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original))
        return func

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``after(result, args, kwargs, elapsed)``, when given, runs once
        the call returned and may record counters derived from it.
        """
        func = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                start = tracer.clock()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    elapsed = tracer.clock() - start
                    tracer.record(name, elapsed)
                if after is not None:
                    after(result, args, kwargs, elapsed)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                start = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = tracer.end(start)
                if after is not None:
                    after(result, args, kwargs, elapsed)
                return result

        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self._start = None

    def __enter__(self):
        if self.tracer.enabled:
            self._start = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        if self._start is not None:
            self.tracer.end(self._start)
            self._start = None
