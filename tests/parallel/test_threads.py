"""BLAS thread budget: arithmetic, worker and parent caps, no-BLAS no-op.

The process tests first set the parent to 2 BLAS threads and pin the
usable CPUs to 2 (``two_threads``), so the budget of a 2-seat pool (1
thread) differs from what a process would otherwise inherit — on a 1-CPU
runner as on a many-core one.
"""

import json
import os
import socket
import time

import numpy as np
import pytest

from repro.core import Trainer, TrainingConfig
from repro.core.surgery import group_sizes, prune_groups
from repro.data import make_cifar_like
from repro.models import build_model
from repro.parallel import (EchoService, ParallelExecutionError,
                            SupervisedWorkerPool, SupervisionConfig, reaper,
                            threads)
from repro.parallel.bench import _blas_threads_record
from repro.parallel.shard import TrainingService
from repro.resilience import worker_fault
from repro.serve import ReplicaConfig, ReplicaSet

pytestmark = pytest.mark.skipif(threads.blas_threads() is None,
                                reason="numpy has no bundled OpenBLAS")

FAST = dict(poll_seconds=0.02, heartbeat_seconds=0.05,
            respawn_delay=0.01, respawn_jitter=0.0,
            task_deadline_seconds=30.0)


class BlasThreadsService:
    def handle(self, task):
        return threads.blas_threads()


class Broken:
    def __init__(self):
        raise RuntimeError("cannot construct")


@pytest.fixture
def two_threads(monkeypatch):
    """Parent at 2 BLAS threads on a pretend 2-CPU host; restored after."""
    before = threads.blas_threads()
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    threads.set_blas_threads(2)
    yield
    threads.set_blas_threads(before)


class TestBudget:
    @pytest.mark.parametrize("cpus, seats, inherited, expected", [
        (8, 2, 8, 4),        # CPUs shared between the seats
        (8, 1, 8, 8),
        (8, 3, 8, 2),        # rounded down
        (8, 2, 3, 3),        # inherited limit stays an upper bound
        (8, 2, 1, 1),
        (2, 4, 2, 1),        # more seats than CPUs: floor of 1
        (1, 2, 1, 1),
        (6, 2, None, 3),     # unknown BLAS: the CPU share alone
    ])
    def test_arithmetic(self, monkeypatch, cpus, seats, inherited,
                        expected):
        monkeypatch.setattr(threads, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(threads, "blas_threads", lambda: inherited)
        assert threads.budget(seats) == expected

    def test_usable_cpus_is_the_affinity_mask(self):
        assert threads.usable_cpus() == len(os.sched_getaffinity(0))


class TestPool:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_report_the_budget(self, two_threads, start_method):
        expected = threads.budget(2)
        assert expected == 1
        with SupervisedWorkerPool(2, BlasThreadsService, (),
                                  start_method=start_method,
                                  supervision=SupervisionConfig(**FAST)) as pool:
            assert pool.blas_threads == expected
            assert pool.run_tasks([None, None]) == [expected, expected]

    def test_parent_capped_while_open_and_restored_on_close(self,
                                                            two_threads):
        pool = SupervisedWorkerPool(2, EchoService, (),
                                    supervision=SupervisionConfig(**FAST))
        try:
            assert threads.blas_threads() == 1
        finally:
            pool.close()
        assert threads.blas_threads() == 2

    def test_parent_restored_after_failed_start_up(self, two_threads):
        with pytest.raises(ParallelExecutionError, match="initialise"):
            SupervisedWorkerPool(2, Broken, (),
                                 supervision=SupervisionConfig(**FAST))
        assert threads.blas_threads() == 2

    def test_overlapping_pools_closed_out_of_order(self, two_threads):
        cfg = SupervisionConfig(**FAST)
        first = SupervisedWorkerPool(2, EchoService, (), supervision=cfg)
        second = SupervisedWorkerPool(1, EchoService, (), supervision=cfg)
        try:
            assert second.blas_threads == 1
            first.close()
            assert threads.blas_threads() == 1   # second still open
        finally:
            first.close()
            second.close()
        assert threads.blas_threads() == 2

    def test_missing_blas_symbol_is_a_no_op(self, two_threads):
        real = threads._GET
        threads._GET = "no_such_openblas_symbol"
        threads._openblas.cache_clear()
        try:
            assert threads.blas_threads() is None
            assert threads.set_blas_threads(1) is None
            assert threads.budget(2) == 1
            with SupervisedWorkerPool(
                    2, BlasThreadsService, (),
                    supervision=SupervisionConfig(**FAST)) as pool:
                assert pool.run_tasks([None, None]) == [None, None]
        finally:
            threads._GET = real
            threads._openblas.cache_clear()
        assert threads.blas_threads() == 2       # never touched


def _pruned_model():
    """vgg11 with 7 of every 8 filters kept: at 8x8 its deep convolutions
    run at 1x1 with 119-channel inputs, GEMM shapes whose OpenBLAS result
    depends on the thread count (found by probing; round shapes are
    stable)."""
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                        seed=0)
    groups = model.prunable_groups()
    prune_groups(model, groups, {
        g.name: np.arange(n - n // 8) for g, n in
        zip(groups, group_sizes(model, groups).values())})
    return model


def test_degraded_shard_in_parent_is_bitwise(two_threads):
    """A killed worker's shard completed by the parent under the budget
    matches an undisturbed run bit for bit."""
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=12, seed=0)
    tcfg = TrainingConfig(epochs=1, batch_size=32, lr=0.05, seed=0,
                          workers=2)

    def trained(supervision=None, on_event=None):
        model = _pruned_model()
        trainer = Trainer(model, train, None, tcfg, supervision=supervision,
                          on_worker_event=on_event)
        trainer.train(epochs=1)              # closes its pool on return
        return model

    clean = trained()
    assert threads.blas_threads() == 2

    events = []
    with worker_fault(TrainingService, mode="kill", at_call=0,
                      method="run_shard") as marker:
        faulted = trained(SupervisionConfig(**dict(FAST, max_respawns=0)),
                          events.append)
    assert marker.exists(), "kill fault never fired"
    marker.unlink()
    assert "degrade" in [e.kind for e in events]
    ref, got = clean.state_dict(), faulted.state_dict()
    assert sorted(ref) == sorted(got)
    for key in ref:
        np.testing.assert_array_equal(ref[key], got[key])
    assert not reaper.live_segments()


def _replica_stats(socket_path, timeout_s=15.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(socket_path))
            break
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    sock.settimeout(timeout_s)
    with sock, sock.makefile("rwb") as stream:
        stream.write(b'{"op": "stats", "rid": 1}\n')
        stream.flush()
        return json.loads(stream.readline())["stats"]


def test_replicas_report_their_budget(two_threads, tmp_path):
    rset = ReplicaSet(ReplicaConfig(replicas=2, socket_dir=str(tmp_path)))
    try:
        for handle in rset.handles:
            stats = _replica_stats(handle.socket_path)
            assert stats["blas_threads"] == threads.budget(2) == 1
    finally:
        rset.close()


def test_bench_records_blas_threads(two_threads):
    assert _blas_threads_record(2) == {
        "parent": 2, "parent_with_pool": 1, "workers": [1, 1]}
