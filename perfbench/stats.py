"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

* percentiles: nearest rank, and the rule that a tail percentile is
  reported only when at least :data:`MIN_BEYOND` samples lie beyond it;
* open-loop timing: latency counts from a request's due time, so a
  stalled generator or server charges its wait to every later request;
* self time and coverage of a traced span.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail(values, p: float) -> float:
    """The ``p``-th percentile, refusing a sample too small to support it."""
    n = len(values)
    if beyond(n, p) < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {n} samples has only {beyond(n, p)} "
                         f"beyond it (need {MIN_BEYOND})")
    return percentile(values, p)


def median(values) -> float:
    return float(statistics.median(values))


# -- open loop ----------------------------------------------------------


def latencies_ms(due, done) -> list[float]:
    """Per-request latency from its due time; ``None`` (never answered or
    failed) becomes infinity, so it misses every latency limit."""
    return [math.inf if d is None else (d - t) * 1e3
            for t, d in zip(due, done)]


def late_ms_max(due, sent) -> float:
    """How far behind its schedule the generator ran, at worst."""
    return max(((s - t) * 1e3 for t, s in zip(due, sent)), default=0.0)


# -- traced spans -------------------------------------------------------


def self_time(stat) -> float:
    """Span time not covered by its direct child spans."""
    return max(stat.total_s - stat.child_s, 0.0)


def coverage(stat) -> float:
    """Share of a span's time its direct child spans account for."""
    if stat.total_s <= 0:
        return 0.0
    return min(stat.child_s / stat.total_s, 1.0)
