"""Persistent worker-process pool with crash detection.

The pool separates two notions that are usually conflated:

* **logical workers** — how the *caller* shards its work (the ``workers=N``
  knob). This is part of the determinism contract: the shard boundaries
  and reduction order follow from N, never from scheduling.
* **physical processes** — how many OS processes actually execute the
  shards: ``min(workers, usable CPUs)`` by default (override with the
  ``REPRO_PARALLEL_PROCESSES`` environment variable or the ``processes=``
  argument). On an oversubscribed or single-CPU host the same N-way
  sharding runs on fewer processes with bit-identical results, because
  task results are reassembled by task index, not by arrival order.

Workers run a *service*: a picklable class instantiated once per process
(``service(*init_args)``) whose ``handle(task)`` method is called per
task. Heavy state (model weights, image banks) travels through
:mod:`repro.parallel.shm` specs inside ``init_args``, so it is mapped
once per process, not per task.

Any worker-side exception, unexpected death, or failed initialisation
surfaces in the parent as :class:`ParallelExecutionError` with the remote
traceback or exit code; the parent's own state is never corrupted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import traceback

from . import threads
from .errors import ParallelExecutionError

__all__ = ["WorkerPool", "EchoService", "CRASH_TASK", "resolve_processes"]

#: Sentinel task that makes a worker die without reporting a result.
#: Used by the resilience drills and tests to exercise crash detection.
CRASH_TASK = "__repro.parallel.crash__"

_READY, _OK, _ERR, _INIT_ERR = "ready", "ok", "err", "init-err"


def resolve_processes(workers: int, processes: int | None = None) -> int:
    """Physical process count for ``workers`` logical shards.

    Defaults to ``min(workers, usable CPUs)`` where "usable" honours the
    CPU affinity mask when available. Results do not depend on this
    number — only wall-clock does.
    """
    if processes is None:
        env = os.environ.get("REPRO_PARALLEL_PROCESSES")
        if env:
            processes = int(env)
    if processes is None:
        processes = min(workers, threads.usable_cpus())
    return max(1, min(int(processes), workers))


class EchoService:
    """Trivial service returning its tasks verbatim (tests and drills)."""

    def __init__(self, tag: str = ""):
        self.tag = tag

    def handle(self, task):
        if isinstance(task, dict) and task.get("raise"):
            raise ValueError(task["raise"])
        return (self.tag, task)


def _worker_main(worker_id, start_method, service_cls, init_args, task_q,
                 result_q):
    try:
        from . import shm
        # Spawn workers own a private resource tracker that must not tear
        # shared segments down on worker exit; fork workers share the
        # parent's tracker, which must be left alone (see shm module doc).
        shm._UNTRACK_ON_ATTACH = start_method == "spawn"
        service = service_cls(*init_args)
    except BaseException:  # noqa: BLE001 - report any init failure
        result_q.put((_INIT_ERR, worker_id, traceback.format_exc()))
        return
    result_q.put((_READY, worker_id, None))
    while True:
        message = task_q.get()
        if message is None:
            return
        index, task = message
        if task == CRASH_TASK:
            os._exit(17)
        try:
            result_q.put((_OK, index, service.handle(task)))
        except BaseException:  # noqa: BLE001 - ship traceback to parent
            result_q.put((_ERR, index, traceback.format_exc()))


class WorkerPool:
    """Fixed set of worker processes running one service each.

    Parameters
    ----------
    processes:
        Number of worker processes (see :func:`resolve_processes`).
    service_cls / init_args:
        Service class and its constructor arguments; both must be
        picklable (shared-memory state goes in as :class:`ShmSpec`).
    start_method:
        ``"fork"`` (default where available — instant start, inherits
        loaded modules) or ``"spawn"``.
    poll_seconds:
        Liveness-check interval while waiting for results.
    """

    def __init__(self, processes: int, service_cls, init_args: tuple = (),
                 start_method: str | None = None, poll_seconds: float = 0.2):
        if processes <= 0:
            raise ValueError("processes must be positive")
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        ctx = mp.get_context(start_method)
        self.processes = processes
        self._poll = poll_seconds
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._closed = False
        self._procs = [
            ctx.Process(target=_worker_main,
                        args=(i, start_method, service_cls, init_args,
                              self._task_q, self._result_q),
                        daemon=True, name=f"repro-worker-{i}")
            for i in range(processes)
        ]
        for proc in self._procs:
            proc.start()
        self._await_ready()

    # ------------------------------------------------------------------
    def _await_ready(self) -> None:
        ready = 0
        while ready < self.processes:
            kind, _, payload = self._collect_one()
            if kind == _INIT_ERR:
                self.close()
                raise ParallelExecutionError(
                    f"worker failed to initialise:\n{payload}")
            if kind == _READY:
                ready += 1

    def _collect_one(self):
        """Next result-queue message, watching for silent worker deaths."""
        while True:
            try:
                return self._result_q.get(timeout=self._poll)
            except queue_mod.Empty:
                for proc in self._procs:
                    if proc.exitcode is not None:
                        self.close()
                        raise ParallelExecutionError(
                            f"worker {proc.name} died with exit code "
                            f"{proc.exitcode} before reporting a result")

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: list) -> list:
        """Execute ``tasks`` across the pool; results in task order.

        Tasks are pulled greedily by whichever process is free, so the
        schedule is nondeterministic but the returned list is not: slot
        ``i`` always holds the result of ``tasks[i]``.
        """
        if self._closed:
            raise ParallelExecutionError("pool is closed")
        for index, task in enumerate(tasks):
            self._task_q.put((index, task))
        results: list = [None] * len(tasks)
        pending = len(tasks)
        while pending:
            kind, index, payload = self._collect_one()
            if kind == _ERR:
                self.close()
                raise ParallelExecutionError(
                    f"task {index} raised in worker:\n{payload}")
            if kind == _INIT_ERR:  # pragma: no cover - init races a task
                self.close()
                raise ParallelExecutionError(
                    f"worker failed to initialise:\n{payload}")
            results[index] = payload
            pending -= 1
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate the workers and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                break
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            q.close()
            q.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
