"""The benchmark's own arithmetic, checked with fake timings.

    python3 -m pytest perfbench/tests -q
"""

import math

import pytest

from perfbench import stats
from perfbench.tracing import Tracer


# -- percentiles --------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))            # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7.0], 99) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9
    values = [float(i) for i in range(1000)]
    assert stats.tail(values, 99) == 989.0
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.tail(values[:999], 99)


# -- open loop ----------------------------------------------------------


def test_latency_counts_from_due_time():
    # Requests due every 10 ms; the server stalls 50 ms on the first, so
    # the next ones are answered late although each took no time once
    # read. Their latency must include the wait the stall imposed.
    due = [0.00, 0.01, 0.02, 0.03]
    done = [0.05, 0.05, 0.05, 0.031]
    lat = stats.latencies_ms(due, done)
    assert lat == pytest.approx([50.0, 40.0, 30.0, 1.0])


def test_unanswered_requests_miss_every_limit():
    lat = stats.latencies_ms([0.0, 0.01], [0.001, None])
    assert lat[0] == pytest.approx(1.0)
    assert math.isinf(lat[1])


def test_generator_lateness():
    due = [0.0, 0.01, 0.02]
    sent = [0.0005, 0.0132, 0.0201]
    assert stats.late_ms_max(due, sent) == pytest.approx(3.2)
    assert stats.late_ms_max([], []) == 0.0


# -- self time and coverage ---------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_and_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("loop"):
        clock.now += 1.0                    # loop's own work
        with tracer.span("train"):
            clock.now += 6.0
            with tracer.span("conv"):       # grandchild: not loop's
                clock.now += 2.0
        with tracer.span("score"):
            clock.now += 3.0
    loop = tracer.spans["loop"]
    assert loop.total_s == pytest.approx(12.0)
    assert stats.self_time(loop) == pytest.approx(1.0)
    assert stats.coverage(loop) == pytest.approx(11.0 / 12.0)
    assert stats.self_time(tracer.spans["train"]) == pytest.approx(6.0)
    assert stats.coverage(tracer.spans["conv"]) == 0.0


def test_patched_function_records_spans_and_restores():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Layer:
        def work(self, seconds):
            clock.now += seconds
            return seconds

    original = Layer.work
    tracer.patch(Layer, "work", "layer.work")
    assert Layer().work(2.0) == 2.0
    tracer.enabled = False
    Layer().work(5.0)                       # not recorded
    assert tracer.spans["layer.work"].calls == 1
    assert tracer.spans["layer.work"].total_s == pytest.approx(2.0)
    tracer.restore()
    assert Layer.work is original
