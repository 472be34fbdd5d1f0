"""Supervised pool: respawn, deadlines, degrade, and bit-determinism."""

import numpy as np
import pytest

from repro.core import (ClassAwarePruningFramework, FrameworkConfig,
                        ImportanceConfig, Trainer, TrainingConfig)
from repro.core.importance import ImportanceEvaluator
from repro.data import make_cifar_like
from repro.models import build_model
from repro.parallel import (CRASH_TASK, EchoService, ParallelExecutionError,
                            SupervisedWorkerPool, SupervisionConfig,
                            TaskFailedError, WorkerEvent, reaper,
                            resolve_processes, threads)
from repro.parallel.scoring import ScoringService
from repro.parallel.shard import TrainingService
from repro.resilience import RunJournal, worker_fault
from repro.resilience.chaos import SimulatedCrash

# Tight timings so fault drills finish in well under a second each. The
# 30s task deadline (vs the 120s default) bounds the stall if a loaded CI
# host makes a respawned worker miss its start-up deadline.
FAST = dict(poll_seconds=0.02, heartbeat_seconds=0.05,
            respawn_delay=0.01, respawn_jitter=0.0,
            task_deadline_seconds=30.0)


def _tiny_model(seed=0):
    return build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                       seed=seed)


def _tiny_data(seed=0):
    return make_cifar_like(num_classes=3, image_size=8, samples_per_class=12,
                           seed=seed)


class TestHealthyPool:
    def test_results_in_task_order_and_pool_reusable(self):
        with SupervisedWorkerPool(2, EchoService, ("tag",),
                                  supervision=SupervisionConfig(**FAST)) as pool:
            tasks = list(range(7))
            assert pool.run_tasks(tasks) == [("tag", t) for t in tasks]
            assert pool.run_tasks(["again"]) == [("tag", "again")]
            assert not pool.degraded
            assert pool.events == []

    def test_closed_pool_rejects_work(self):
        pool = SupervisedWorkerPool(1, EchoService, (),
                                    supervision=SupervisionConfig(**FAST))
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelExecutionError, match="closed"):
            pool.run_tasks(["x"])

    def test_initial_construction_failure_raises(self):
        class Broken:
            def __init__(self):
                raise RuntimeError("cannot construct")

        with pytest.raises(ParallelExecutionError, match="initialise"):
            SupervisedWorkerPool(1, Broken, (),
                                 supervision=SupervisionConfig(**FAST))

    def test_invalid_process_count_rejected(self):
        with pytest.raises(ValueError):
            SupervisedWorkerPool(0, EchoService, ())


class TestFaultRecovery:
    def test_sigkill_mid_task_heals_without_degrading(self):
        supervision = SupervisionConfig(**FAST)
        with worker_fault(EchoService, mode="kill", at_call=0) as marker:
            with SupervisedWorkerPool(2, EchoService, ("t",),
                                      supervision=supervision) as pool:
                out = pool.run_tasks(["a", "b", "c", "d"])
                kinds = [e.kind for e in pool.events]
                degraded = pool.degraded
        assert marker.exists(), "kill fault never fired"
        marker.unlink()
        assert out == [("t", t) for t in ("a", "b", "c", "d")]
        assert not degraded
        assert "crash" in kinds
        assert "retry" in kinds
        assert "respawn" in kinds

    def test_hang_caught_by_task_deadline(self):
        supervision = SupervisionConfig(
            **{**FAST, "task_deadline_seconds": 0.8})
        with worker_fault(EchoService, mode="hang", at_call=0) as marker:
            with SupervisedWorkerPool(2, EchoService, ("t",),
                                      supervision=supervision) as pool:
                out = pool.run_tasks(["a", "b", "c"])
                kinds = [e.kind for e in pool.events]
                degraded = pool.degraded
        assert marker.exists(), "hang fault never fired"
        marker.unlink()
        assert out == [("t", t) for t in ("a", "b", "c")]
        assert not degraded
        assert "hang" in kinds
        assert "respawn" in kinds

    def test_frozen_process_caught_by_stale_heartbeat(self):
        supervision = SupervisionConfig(stale_after_seconds=0.5, **FAST)
        with worker_fault(EchoService, mode="freeze", at_call=0) as marker:
            with SupervisedWorkerPool(2, EchoService, ("t",),
                                      supervision=supervision) as pool:
                out = pool.run_tasks(["a", "b", "c"])
                kinds = [e.kind for e in pool.events]
                degraded = pool.degraded
        assert marker.exists(), "freeze fault never fired"
        marker.unlink()
        assert out == [("t", t) for t in ("a", "b", "c")]
        assert not degraded
        assert "stale" in kinds

    def test_worker_exception_raises_immediately_without_retry(self):
        # A raising task is a deterministic bug: retrying would fail the
        # same way, so the remote traceback must surface on the spot.
        pool = SupervisedWorkerPool(2, EchoService, (),
                                    supervision=SupervisionConfig(**FAST))
        with pytest.raises(TaskFailedError, match="boom"):
            pool.run_tasks(["ok", {"raise": "boom"}])
        assert not any(e.kind == "retry" for e in pool.events)
        pool.close()


class TestGracefulDegrade:
    def test_poison_task_degrades_to_serial_completion(self):
        supervision = SupervisionConfig(max_respawns=2, max_task_retries=1,
                                        **FAST)
        with SupervisedWorkerPool(2, EchoService, ("t",),
                                  supervision=supervision) as pool:
            out = pool.run_tasks(["a", CRASH_TASK, "b", "c"])
            assert pool.degraded
            assert pool.degrade_reason
            # The serial fallback runs the service directly (the crash
            # sentinel lives in the worker loop), so every task completes.
            assert out == [("t", t) for t in ("a", CRASH_TASK, "b", "c")]
            assert any(e.kind == "degrade" for e in pool.events)
            # A degraded pool keeps serving, serially.
            assert pool.run_tasks(["d", "e"]) == [("t", "d"), ("t", "e")]


class TestZeroBudgetPool:
    """No respawn and no retry: the first fault degrades the pool."""

    ZERO = SupervisionConfig(**{**FAST, "max_respawns": 0,
                                "max_task_retries": 0})

    def test_task_failure_closes_the_pool(self):
        pool = SupervisedWorkerPool(2, EchoService, (), supervision=self.ZERO)
        # The message carries the remote traceback, exception type included.
        with pytest.raises(TaskFailedError, match="ValueError: boom"):
            pool.run_tasks(["ok", {"raise": "boom"}])
        with pytest.raises(ParallelExecutionError, match="pool is closed"):
            pool.run_tasks(["after"])
        pool.close()  # idempotent after the failure path closed it

    def test_crash_degrades_once_without_respawn(self):
        with SupervisedWorkerPool(2, EchoService, ("t",),
                                  supervision=self.ZERO) as pool:
            out = pool.run_tasks(["a", CRASH_TASK, "b"])
            kinds = [e.kind for e in pool.events]
        assert kinds == ["crash", "degrade"]
        assert out == [("t", t) for t in ("a", CRASH_TASK, "b")]

    def test_fresh_pool_works_after_a_degraded_one(self):
        pool = SupervisedWorkerPool(1, EchoService, (), supervision=self.ZERO)
        assert pool.run_tasks([CRASH_TASK]) == [("", CRASH_TASK)]
        assert pool.degraded
        pool.close()
        with SupervisedWorkerPool(1, EchoService, (),
                                  supervision=self.ZERO) as fresh:
            assert fresh.run_tasks(["x"]) == [("", "x")]
            assert not fresh.degraded

    def test_one_degrade_event_per_degrade(self):
        # Retries left but no respawn: the retried task finds no seat.
        supervision = SupervisionConfig(**{**FAST, "max_respawns": 0})
        with SupervisedWorkerPool(1, EchoService, ("t",),
                                  supervision=supervision) as pool:
            out = pool.run_tasks(["a", CRASH_TASK, "b"])
            assert pool.degrade("asked again") is False
            assert pool.run_tasks(["c"]) == [("t", "c")]
            kinds = [e.kind for e in pool.events]
        assert out == [("t", t) for t in ("a", CRASH_TASK, "b")]
        assert kinds == ["crash", "retry", "degrade"]
        assert "respawn budget exhausted" in pool.degrade_reason


def test_resolve_processes_caps_at_workers(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL_PROCESSES", raising=False)
    assert resolve_processes(4, processes=8) == 4
    assert resolve_processes(4, processes=2) == 2
    assert resolve_processes(4, processes=0) == 1
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    assert resolve_processes(4) == 2        # the usable CPUs
    assert resolve_processes(1) == 1        # never more than the workers
    monkeypatch.setenv("REPRO_PARALLEL_PROCESSES", "3")
    assert resolve_processes(8) == 3
    assert resolve_processes(2) == 2
    assert resolve_processes(8, processes=5) == 5   # argument beats env


class TestBitIdentity:
    """Acceptance: a SIGKILLed worker must not change a single bit."""

    def test_scoring_session_bit_identical_after_sigkill(self):
        model = _tiny_model()
        train, _ = _tiny_data()
        cfg = ImportanceConfig(images_per_class=3)
        groups = [g.conv for g in model.prunable_groups()]

        with ImportanceEvaluator(model, train, 3, cfg, workers=2) as ev:
            clean = ev.evaluate(groups)

        events = []
        with worker_fault(ScoringService, mode="kill", at_call=0) as marker:
            with ImportanceEvaluator(
                    model, train, 3, cfg, workers=2,
                    supervision=SupervisionConfig(**FAST),
                    on_worker_event=events.append) as ev:
                faulted = ev.evaluate(groups)
                assert not ev.degraded
        assert marker.exists(), "kill fault never fired"
        marker.unlink()
        assert any(e.kind == "respawn" for e in events)
        for path in clean.total:
            np.testing.assert_array_equal(clean.total[path],
                                          faulted.total[path])
        assert not reaper.live_segments()

    def test_sharded_training_bit_identical_after_sigkill(self):
        train, _ = _tiny_data()
        tcfg = TrainingConfig(epochs=1, batch_size=16, lr=0.05, seed=0,
                              workers=2)

        clean = _tiny_model()
        trainer = Trainer(clean, train, None, tcfg)
        try:
            trainer.train(epochs=1)
        finally:
            trainer.close()

        events = []
        faulted = _tiny_model()
        # The standing pipeline calls `handle` once per dispatch, so the
        # kill is planted on the per-shard inner method: it fires between
        # the bucket publications of two shards of the same step.
        with worker_fault(TrainingService, mode="kill", at_call=1,
                          method="run_shard") as marker:
            trainer = Trainer(faulted, train, None, tcfg,
                              supervision=SupervisionConfig(**FAST),
                              on_worker_event=events.append)
            try:
                trainer.train(epochs=1)
                assert not trainer.degraded
            finally:
                trainer.close()
        assert marker.exists(), "kill fault never fired"
        marker.unlink()
        assert any(e.kind == "respawn" for e in events)
        ref, got = clean.state_dict(), faulted.state_dict()
        assert sorted(ref) == sorted(got)
        for key in ref:
            np.testing.assert_array_equal(ref[key], got[key])
        assert not reaper.live_segments()


class TestFrameworkIntegration:
    def _framework(self, seed=0):
        model = _tiny_model(seed)
        train, test = _tiny_data(seed)
        return ClassAwarePruningFramework(
            model, train, test, num_classes=3, input_shape=(3, 8, 8),
            config=FrameworkConfig(
                score_threshold=1.0, max_fraction_per_iteration=0.2,
                finetune_epochs=1, accuracy_drop_tolerance=0.5,
                max_iterations=1,
                importance=ImportanceConfig(images_per_class=3)),
            training=TrainingConfig(epochs=1, batch_size=32, lr=0.05,
                                    seed=seed))

    def test_degrade_event_sets_stop_reason_and_journals(self, tmp_path):
        fw = self._framework()
        run_dir = tmp_path / "run"

        def degrade(iteration):
            fw._on_worker_event(WorkerEvent(
                kind="crash", worker_id=1, task_index=3,
                detail="process died with exit code -9"))
            fw._on_worker_event(WorkerEvent(
                kind="degrade", worker_id=-1,
                detail="respawn budget exhausted (injected)"))

        result = fw.run(run_dir=run_dir, post_iteration=degrade)
        assert result.stop_reason == "parallel-degraded"
        assert "degraded to serial" in result.termination
        assert fw.degraded
        assert len(fw.worker_events) == 2

        journal = RunJournal(run_dir / "journal.jsonl")
        fault = journal.last_event("worker_fault")
        assert fault is not None and fault["kind"] == "crash"
        degrade_rec = journal.last_event("parallel_degrade")
        assert degrade_rec is not None
        assert degrade_rec["detail"] == "respawn budget exhausted (injected)"

    def test_resume_replays_degraded_stop_reason(self, tmp_path):
        fw = self._framework()
        run_dir = tmp_path / "run"

        def degrade_then_crash(iteration):
            fw._on_worker_event(WorkerEvent(
                kind="degrade", worker_id=-1, detail="injected"))
            raise SimulatedCrash("killed mid-run")

        with pytest.raises(SimulatedCrash):
            fw.run(run_dir=run_dir, post_iteration=degrade_then_crash)

        resumed = self._framework().run(resume_from=run_dir)
        assert resumed.stop_reason == "parallel-degraded"

    def test_clean_run_does_not_degrade(self, tmp_path):
        fw = self._framework()
        result = fw.run(run_dir=tmp_path / "run")
        assert result.stop_reason != "parallel-degraded"
        assert not fw.degraded
        assert fw.worker_events == []
