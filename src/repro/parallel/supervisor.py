"""Supervised, self-healing worker pool.

:class:`~repro.parallel.pool.WorkerPool` treats any worker fault as
terminal: a crash raises :class:`ParallelExecutionError` and the whole
run dies. This module wraps the same worker/service contract in a
supervision layer that *recovers* instead:

* **heartbeats** — every worker runs a daemon thread stamping a shared
  timestamp slot; a frozen process (SIGSTOP, livelock outside the
  interpreter) goes silent and is detected even when idle;
* **watchdog** — a parent-side thread enforces two deadlines: heartbeat
  staleness and per-task wall-clock. Violators are SIGKILLed, which
  funnels every fault (crash, hang, freeze) into one observable — a dead
  process — handled by the dispatch loop;
* **respawn + deterministic retry** — dead workers are respawned (bounded
  by ``max_respawns``, paced by a seeded
  :class:`~repro.resilience.retry.RetryPolicy` backoff) and their
  in-flight task is re-dispatched (bounded by ``max_task_retries``).
  Tasks are *idempotent by construction* in this codebase: each task is a
  pure function of shared-memory inputs that writes only its own output
  slots, so a re-run — even a double run when a killed worker already
  delivered — produces bit-identical results;
* **graceful serial fallback** — when a budget is exhausted (a poison
  task that kills every host, or more faults than ``max_respawns``), the
  supervisor stops the pool and finishes the remaining tasks *serially in
  the parent* with a parent-side service instance. The run completes,
  ``degraded`` flips to True, and callers surface
  ``stop_reason="parallel-degraded"`` instead of an exception.

Worker-raised exceptions (``_ERR``) are *not* retried: a deterministic
task raises identically on every host, so the remote traceback surfaces
immediately as :class:`~repro.parallel.errors.TaskFailedError`.

Fault drills use the task sentinels :data:`CRASH_TASK` (from the plain
pool), :data:`HANG_TASK` (busy-sleep forever, heartbeat healthy — only
the task deadline can catch it) and :data:`STALL_HEARTBEAT_TASK` (stop
heartbeating, then sleep — only the staleness deadline can catch it).

Every lifecycle decision is emitted as a :class:`WorkerEvent` through the
``on_event`` callback, which the framework writes into the CRC-framed
resilience journal.

Results travel over a **per-worker pipe** (:class:`_ResultChannel`), not
a shared ``mp.Queue``. A shared queue serialises writers through one
cross-process write lock, and a worker SIGKILLed between acquiring that
lock and releasing it (its queue feeder thread dies mid-``put``) leaves
the semaphore held forever — every surviving writer then blocks, which
reads as a spurious pool-wide hang. With one pipe per worker the blast
radius of a kill is the dying worker's own channel, which the supervisor
discards on respawn; a partially written frame simply never parses.
"""

from __future__ import annotations

import collections
import multiprocessing as mp
import os
import pickle
import select
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field

from ..resilience.retry import RetryPolicy
from . import reaper, threads
from .errors import ParallelExecutionError, TaskFailedError
from .pool import _ERR, _INIT_ERR, _OK, _READY, CRASH_TASK

__all__ = ["SupervisionConfig", "WorkerEvent", "SupervisedWorkerPool",
           "TaskPipeline", "HANG_TASK", "STALL_HEARTBEAT_TASK"]

#: Sentinel task making a worker loop forever while its heartbeat stays
#: healthy — detectable only through the per-task deadline.
HANG_TASK = "__repro.parallel.hang__"

#: Sentinel task that silences the worker's heartbeat thread and then
#: sleeps — detectable only through heartbeat staleness.
STALL_HEARTBEAT_TASK = "__repro.parallel.stall-heartbeat__"

_IDLE, _STARTING, _BUSY, _DEAD = "idle", "starting", "busy", "dead"


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the supervision layer (flat scalars — journals as JSON).

    Attributes
    ----------
    heartbeat_seconds:
        Interval at which each worker stamps its heartbeat slot.
    stale_after_seconds:
        Heartbeat silence after which a live process counts as frozen
        and is killed by the watchdog.
    task_deadline_seconds:
        Wall-clock limit for one task (and for worker start-up). A task
        still running past it is treated as hung: the worker is killed
        and the task re-dispatched. Size it to a comfortable multiple of
        the slowest expected task.
    max_respawns:
        Pool-lifetime budget of worker respawns; exhausting it degrades
        the pool to serial execution.
    max_task_retries:
        Re-dispatch budget of a single task. A task that keeps killing
        its host (a poison task) degrades the pool once the budget is
        spent, instead of burning every respawn.
    respawn_delay / respawn_factor / respawn_jitter / seed:
        Parameters of the deterministic respawn backoff (see
        :class:`~repro.resilience.retry.RetryPolicy`).
    poll_seconds:
        Parent result-channel poll and watchdog scan interval.
    """

    heartbeat_seconds: float = 0.2
    stale_after_seconds: float = 10.0
    task_deadline_seconds: float = 120.0
    max_respawns: int = 3
    max_task_retries: int = 2
    respawn_delay: float = 0.05
    respawn_factor: float = 2.0
    respawn_jitter: float = 0.1
    seed: int = 0
    poll_seconds: float = 0.05

    def retry_policy(self) -> RetryPolicy:
        """Backoff schedule pacing the respawns (deterministic jitter)."""
        return RetryPolicy(max_attempts=self.max_respawns + 1,
                           base_delay=self.respawn_delay,
                           factor=self.respawn_factor,
                           max_delay=max(self.respawn_delay * 8, 1.0),
                           jitter=self.respawn_jitter, seed=self.seed)


@dataclass
class WorkerEvent:
    """One supervision decision, shaped for the resilience journal."""

    kind: str           # crash | hang | stale | respawn | retry | degrade
    worker_id: int
    task_index: int | None = None
    attempt: int = 0
    detail: str = ""
    wallclock: float = field(default_factory=time.time)

    def payload(self) -> dict:
        """JSON-serialisable form for journal records."""
        return {"kind": self.kind, "worker_id": self.worker_id,
                "task_index": self.task_index, "attempt": self.attempt,
                "detail": self.detail, "wallclock": self.wallclock}


class _ResultChannel:
    """Crash-tolerant one-way result stream (worker → parent).

    A plain ``os.pipe`` with length-prefixed pickle frames. There is no
    lock anywhere in the path: each channel has exactly one writer (its
    worker), so a SIGKILL mid-write can only truncate that worker's own
    last frame. The parent reads non-blockingly and reassembles frames
    from a buffer, so a truncated frame is silently pending forever and
    dies with the channel — it can never wedge the parent or a sibling.
    """

    def __init__(self):
        self.r, self.w = os.pipe()
        os.set_blocking(self.r, False)
        self._buf = bytearray()

    def __getstate__(self):
        # Only reached under the "spawn" start method (fork inherits the
        # fds directly): ship a duplicate of the write end to the child.
        from multiprocessing import reduction
        return {"w": reduction.DupFd(self.w)}

    def __setstate__(self, state):
        self.w = state["w"].detach()
        self.r = -1
        self._buf = bytearray()

    # -- worker side ---------------------------------------------------
    def bind_worker(self) -> None:
        """Drop the read end in the child; the write end stays blocking."""
        if self.r != -1:
            os.close(self.r)
            self.r = -1

    def send(self, obj) -> None:
        payload = pickle.dumps(obj)
        data = struct.pack("!I", len(payload)) + payload
        while data:
            written = os.write(self.w, data)
            data = data[written:]

    # -- parent side ---------------------------------------------------
    def after_spawn(self) -> None:
        """Drop the parent's write end once the child holds its copy.

        This must run right after ``Process.start()`` so workers forked
        *later* never inherit this channel's write end — the write end
        must live in exactly one process for the crash analysis above to
        hold.
        """
        if self.w != -1:
            os.close(self.w)
            self.w = -1

    def drain(self) -> list:
        """Return every *complete* frame currently in the pipe."""
        try:
            while True:
                chunk = os.read(self.r, 1 << 16)
                if not chunk:        # EOF: writer gone; buffered frames
                    break            # below are still returned
                self._buf += chunk
        except BlockingIOError:
            pass
        frames = []
        while len(self._buf) >= 4:
            size = struct.unpack_from("!I", self._buf)[0]
            if len(self._buf) < 4 + size:
                break                # truncated frame: wait (or never)
            frames.append(pickle.loads(bytes(self._buf[4:4 + size])))
            del self._buf[:4 + size]
        return frames

    def close(self) -> None:
        for fd in (self.r, self.w):
            if fd != -1:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover
                    pass
        self.r = self.w = -1
        self._buf.clear()


def _supervised_worker_main(worker_id, start_method, service_cls, init_args,
                            task_q, channel, heartbeats, beat_interval,
                            blas_threads):
    """Worker body: heartbeat thread + the plain service loop."""
    threads.set_blas_threads(blas_threads)
    stop_beat = threading.Event()

    def beat():
        while not stop_beat.is_set():
            heartbeats[worker_id] = time.monotonic()
            stop_beat.wait(beat_interval)

    threading.Thread(target=beat, daemon=True,
                     name=f"repro-heartbeat-{worker_id}").start()
    channel.bind_worker()
    try:
        from . import shm
        shm._UNTRACK_ON_ATTACH = start_method == "spawn"
        service = service_cls(*init_args)
    except BaseException:  # noqa: BLE001 - report any init failure
        channel.send((_INIT_ERR, worker_id, traceback.format_exc()))
        return
    channel.send((_READY, worker_id, None))
    while True:
        message = task_q.get()
        if message is None:
            return
        index, task = message
        if task == CRASH_TASK:
            os._exit(17)
        if task == HANG_TASK:
            while True:          # heartbeat stays healthy: a true hang
                time.sleep(3600)
        if task == STALL_HEARTBEAT_TASK:
            stop_beat.set()      # go silent: a frozen-process stand-in
            heartbeats[worker_id] = -1e18
            time.sleep(3600)
        try:
            channel.send((_OK, index, service.handle(task)))
        except BaseException:  # noqa: BLE001 - ship traceback to parent
            channel.send((_ERR, index, traceback.format_exc()))


class _Slot:
    """Parent-side state of one worker seat (process may be replaced)."""

    __slots__ = ("worker_id", "proc", "task_q", "channel", "state",
                 "task_index", "deadline_at", "kill_reason")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.proc = None
        self.task_q = None
        self.channel: _ResultChannel | None = None
        self.state = _DEAD
        self.task_index: int | None = None
        self.deadline_at: float = float("inf")
        self.kill_reason: str | None = None


class _Watchdog(threading.Thread):
    """Scans worker liveness; kills hung or frozen workers.

    The watchdog never respawns or re-dispatches — it only converts the
    two invisible failure modes (hang, freeze) into the visible one (a
    dead process), which the dispatch loop then handles. The kill reason
    is recorded on the slot so the event is labelled correctly.
    """

    def __init__(self, pool: "SupervisedWorkerPool"):
        super().__init__(daemon=True, name="repro-supervisor-watchdog")
        self._pool = pool
        # Not ``_stop``: that would shadow ``Thread._stop()``, which
        # CPython's ``threading._after_fork`` calls in forked children —
        # respawned workers would inherit a corrupted threading state.
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        pool = self._pool
        cfg = pool.supervision
        while not self._halt.wait(cfg.poll_seconds):
            now = time.monotonic()
            with pool._lock:
                for slot in pool._slots:
                    proc = slot.proc
                    if (proc is None or slot.state == _DEAD
                            or proc.exitcode is not None):
                        continue
                    beat = pool._heartbeats[slot.worker_id]
                    if now - beat > cfg.stale_after_seconds:
                        slot.kill_reason = (
                            f"heartbeat silent for {now - beat:.2f}s "
                            f"(stale_after={cfg.stale_after_seconds}s)")
                        proc.kill()
                    elif (slot.state in (_BUSY, _STARTING)
                          and now > slot.deadline_at):
                        what = ("task" if slot.state == _BUSY
                                else "start-up")
                        slot.kill_reason = (
                            f"{what} exceeded the "
                            f"{cfg.task_deadline_seconds}s deadline")
                        proc.kill()


class SupervisedWorkerPool:
    """Self-healing drop-in for :class:`~repro.parallel.pool.WorkerPool`.

    Same constructor contract (``processes`` seats, a picklable service
    class, shared-memory state in ``init_args``) plus the supervision
    knobs. ``run_tasks`` keeps the task-index result ordering — and with
    it the bit-determinism contract of the scoring and sharding layers —
    across crashes, hangs, respawns and the serial fallback.
    """

    def __init__(self, processes: int, service_cls, init_args: tuple = (),
                 start_method: str | None = None,
                 supervision: SupervisionConfig | None = None,
                 on_event=None):
        if processes <= 0:
            raise ValueError("processes must be positive")
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        # A fresh pool is the natural moment to reclaim segments a
        # previous SIGKILLed run left behind (see repro.parallel.reaper).
        reaper.sweep_orphans()
        self.supervision = supervision or SupervisionConfig()
        self.on_event = on_event
        self.processes = processes
        self.events: list[WorkerEvent] = []
        self.degraded = False
        self.degrade_reason = ""
        self._start_method = start_method
        self._ctx = mp.get_context(start_method)
        self._service_cls = service_cls
        self._init_args = tuple(init_args)
        self._retry = self.supervision.retry_policy()
        self._respawns_used = 0
        self._closed = False
        self._serial_service = None
        self._lock = threading.Lock()
        self._heartbeats = self._ctx.Array("d", processes, lock=False)
        self._slots = [_Slot(i) for i in range(processes)]
        self._watchdog = _Watchdog(self)
        #: BLAS threads of every worker and, while the pool is open, of
        #: the parent — whose degrade path must compute like a worker
        #: (see :mod:`repro.parallel.threads`).
        self.blas_threads = threads.budget(processes)
        threads.hold(self.blas_threads)
        try:
            for slot in self._slots:
                self._spawn(slot)
            self._watchdog.start()
            self._await_ready()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _emit(self, kind: str, worker_id: int, task_index=None, attempt=0,
              detail: str = "") -> None:
        event = WorkerEvent(kind=kind, worker_id=worker_id,
                            task_index=task_index, attempt=attempt,
                            detail=detail)
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 - observers must not kill runs
                pass

    def _spawn(self, slot: _Slot) -> None:
        """Start (or restart) the process occupying ``slot``."""
        now = time.monotonic()
        with self._lock:
            self._heartbeats[slot.worker_id] = now
            slot.task_q = self._ctx.Queue()
            slot.channel = _ResultChannel()
            slot.proc = self._ctx.Process(
                target=_supervised_worker_main,
                args=(slot.worker_id, self._start_method, self._service_cls,
                      self._init_args, slot.task_q, slot.channel,
                      self._heartbeats, self.supervision.heartbeat_seconds,
                      self.blas_threads),
                daemon=True,
                name=f"repro-supervised-worker-{slot.worker_id}")
            slot.state = _STARTING
            slot.task_index = None
            slot.kill_reason = None
            slot.deadline_at = now + self.supervision.task_deadline_seconds
            slot.proc.start()
            slot.channel.after_spawn()

    def _collect_messages(self, timeout: float | None = None) -> list:
        """Wait up to ``timeout`` (default ``poll_seconds``), then drain
        every live channel.

        Returns ``(slot, message)`` pairs for each complete frame. An
        empty return is the supervisor's cue to scan for dead processes.
        """
        if timeout is None:
            timeout = self.supervision.poll_seconds
        fds = [s.channel.r for s in self._slots
               if s.state != _DEAD and s.channel is not None
               and s.channel.r != -1]
        if fds:
            select.select(fds, [], [], timeout)
        elif timeout:
            time.sleep(timeout)
        messages = []
        for slot in self._slots:
            if (slot.state == _DEAD or slot.channel is None
                    or slot.channel.r == -1):
                continue
            for message in slot.channel.drain():
                messages.append((slot, message))
        return messages

    def _await_ready(self) -> None:
        """Block until every seat reported READY (initial start-up only).

        Unlike mid-run faults, an initial failure is almost certainly a
        configuration bug (the service cannot construct anywhere), so it
        raises instead of degrading.
        """
        while any(s.state == _STARTING for s in self._slots):
            messages = self._collect_messages()
            if not messages:
                for slot in self._slots:
                    if (slot.state == _STARTING
                            and slot.proc.exitcode is not None):
                        raise ParallelExecutionError(
                            f"worker {slot.worker_id} died during start-up "
                            f"(exit code {slot.proc.exitcode}"
                            + (f"; {slot.kill_reason}" if slot.kill_reason
                               else "") + ")")
                continue
            for slot, (kind, _wid, payload) in messages:
                if kind == _INIT_ERR:
                    raise ParallelExecutionError(
                        f"worker failed to initialise:\n{payload}")
                if kind == _READY:
                    with self._lock:
                        slot.state = _IDLE
                        slot.deadline_at = float("inf")

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _serial_handle(self, task):
        if self._serial_service is None:
            self._serial_service = self._service_cls(*self._init_args)
        return self._serial_service.handle(task)

    def _degrade(self, reason: str) -> None:
        """Give up on the pool; later work runs serially in the parent."""
        self.degraded = True
        self.degrade_reason = reason
        self._emit("degrade", worker_id=-1, detail=reason)
        self._watchdog.stop()
        with self._lock:
            for slot in self._slots:
                if slot.proc is not None and slot.proc.exitcode is None:
                    slot.proc.kill()
                slot.state = _DEAD
                if slot.channel is not None:
                    slot.channel.close()
                    slot.channel = None

    # ------------------------------------------------------------------
    # Fault accounting
    # ------------------------------------------------------------------
    def _classify_death(self, slot: _Slot) -> str:
        reason = slot.kill_reason or ""
        if "deadline" in reason:
            return "hang"
        if "heartbeat" in reason:
            return "stale"
        return "crash"

    def _handle_death(self, slot: _Slot, pending: collections.deque,
                      attempts: dict, need_more_work: bool) -> str | None:
        """Account a dead worker; respawn or return a degrade reason."""
        kind = self._classify_death(slot)
        exitcode = slot.proc.exitcode
        index = slot.task_index
        detail = (slot.kill_reason
                  or f"process died with exit code {exitcode}")
        with self._lock:
            slot.state = _DEAD
            slot.task_index = None
            slot.deadline_at = float("inf")
            if slot.task_q is not None:
                # The dead worker's queue may still hold its task; a
                # fresh queue per respawn keeps stale dispatches from
                # reaching the replacement. (A double *delivery* of an
                # already-finished task would be harmless — results are
                # slotted by index — but why pay for the re-run.)
                slot.task_q.close()
                slot.task_q.cancel_join_thread()
                slot.task_q = None
            if slot.channel is not None:
                # Discard the result channel with the process: anything
                # it still holds is at best a duplicate of a retried
                # (idempotent) task, at worst a truncated frame.
                slot.channel.close()
                slot.channel = None
        self._emit(kind, slot.worker_id, task_index=index,
                   attempt=attempts.get(index, 0) if index is not None else 0,
                   detail=detail)

        if index is not None:
            attempts[index] = attempts.get(index, 0) + 1
            if attempts[index] > self.supervision.max_task_retries:
                return (f"task {index} failed {attempts[index]} times "
                        f"(max_task_retries="
                        f"{self.supervision.max_task_retries}); "
                        f"last fault: {detail}")
            pending.appendleft(index)
            self._emit("retry", slot.worker_id, task_index=index,
                       attempt=attempts[index],
                       detail=f"re-dispatching after {kind}")
            need_more_work = True

        if not need_more_work and not pending:
            return None              # nothing left for this seat to do
        if self._respawns_used >= self.supervision.max_respawns:
            return (f"respawn budget exhausted "
                    f"(max_respawns={self.supervision.max_respawns}); "
                    f"last fault: worker {slot.worker_id} {kind} ({detail})")
        delay = self._retry.delay(self._respawns_used)
        self._respawns_used += 1
        time.sleep(delay)
        self._spawn(slot)
        self._emit("respawn", slot.worker_id,
                   attempt=self._respawns_used,
                   detail=f"respawned after {kind} (backoff {delay:.3f}s)")
        return None

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: list) -> list:
        """Execute ``tasks``; results in task order, faults self-healed.

        Raises :class:`TaskFailedError` when a task *raises* in a worker
        (deterministic bug — retrying or degrading would fail the same
        way for honest services, and the remote traceback matters more),
        and :class:`ParallelExecutionError` only for unusable-pool states.
        Worker deaths and hangs never raise: they respawn, retry, and
        ultimately degrade to serial execution.
        """
        if self._closed:
            raise ParallelExecutionError("pool is closed")
        results: list = [None] * len(tasks)
        if self.degraded:
            for index, task in enumerate(tasks):
                results[index] = self._serial_handle(task)
            return results

        pending = collections.deque(range(len(tasks)))
        done = [False] * len(tasks)
        remaining = len(tasks)
        attempts: dict[int, int] = {}

        while remaining:
            # Fill every idle seat (deterministic order: seat id).
            with self._lock:
                for slot in self._slots:
                    if slot.state == _IDLE and pending:
                        index = pending.popleft()
                        slot.state = _BUSY
                        slot.task_index = index
                        slot.deadline_at = (
                            time.monotonic()
                            + self.supervision.task_deadline_seconds)
                        slot.task_q.put((index, tasks[index]))

            messages = self._collect_messages()
            if not messages:
                degrade_reason = None
                for slot in self._slots:
                    if (slot.state in (_BUSY, _IDLE, _STARTING)
                            and slot.proc.exitcode is not None):
                        degrade_reason = self._handle_death(
                            slot, pending, attempts,
                            need_more_work=remaining > 0)
                        if degrade_reason:
                            break
                if degrade_reason is None and remaining and not any(
                        s.state != _DEAD for s in self._slots):
                    degrade_reason = "no live workers remain"
                if degrade_reason:
                    self._degrade(degrade_reason)
                    for index in range(len(tasks)):
                        if not done[index]:
                            results[index] = self._serial_handle(tasks[index])
                            done[index] = True
                            remaining -= 1
                continue

            for slot, (kind, index, payload) in messages:
                if self.degraded:
                    break            # a degrade mid-batch finished the run
                if kind == _OK:
                    with self._lock:
                        if slot.task_index == index:
                            slot.state = _IDLE
                            slot.task_index = None
                            slot.deadline_at = float("inf")
                    if not done[index]:   # late duplicates are harmless
                        results[index] = payload
                        done[index] = True
                        remaining -= 1
                elif kind == _ERR:
                    self.close()
                    raise TaskFailedError(
                        f"task {index} raised in worker:\n{payload}")
                elif kind == _READY:
                    with self._lock:
                        if slot.state == _STARTING:
                            slot.state = _IDLE
                            slot.deadline_at = float("inf")
                elif kind == _INIT_ERR:
                    # A respawned worker failed to construct the service;
                    # treat like a death of that seat (budgeted).
                    if slot.proc.exitcode is None:
                        slot.proc.kill()
                        slot.proc.join(timeout=1.0)
                    degrade_reason = self._handle_death(
                        slot, pending, attempts, need_more_work=remaining > 0)
                    if degrade_reason:
                        self._degrade(degrade_reason)
                        for index in range(len(tasks)):
                            if not done[index]:
                                results[index] = self._serial_handle(
                                    tasks[index])
                                done[index] = True
                                remaining -= 1
        return results

    # ------------------------------------------------------------------
    # Standing pipeline
    # ------------------------------------------------------------------
    def start_pipeline(self, tasks: list) -> "TaskPipeline":
        """Dispatch one *standing* task per seat and return the pipeline.

        A standing task is a long-running ``service.handle`` call that
        coordinates with the parent through shared memory (the sharded
        trainer's per-epoch worker loop) instead of returning per step.
        The pipeline keeps the supervision guarantees alive for such
        tasks: the caller ``pump()``\\ s it from its own wait loops (death
        detection, respawn + re-dispatch, budget accounting) and
        ``bump_deadlines()`` whenever it observes progress, which turns
        the per-task deadline into a per-step deadline.

        Unlike :meth:`run_tasks` there is **no serial fallback here**:
        running a standing task synchronously in the parent would
        deadlock on the parent-driven control state it waits for. On an
        exhausted budget the pipeline degrades the pool (events,
        ``degraded`` flag) and the *caller* completes the remaining work
        through its own serial path.
        """
        if self._closed:
            raise ParallelExecutionError("pool is closed")
        if self.degraded:
            raise ParallelExecutionError(
                "cannot start a pipeline on a degraded pool")
        if len(tasks) > self.processes:
            raise ValueError(
                f"a pipeline is one standing task per seat: got "
                f"{len(tasks)} tasks for {self.processes} seats")
        return TaskPipeline(self, tasks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the watchdog, kill the workers, release queues/channels."""
        if self._closed:
            return
        self._closed = True
        threads.release(self.blas_threads)
        self._watchdog.stop()
        for slot in self._slots:
            if slot.proc is None:
                continue
            if slot.state != _DEAD and slot.proc.exitcode is None:
                try:
                    slot.task_q.put(None)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=1.0)
            if slot.task_q is not None:
                slot.task_q.close()
                slot.task_q.cancel_join_thread()
            if slot.channel is not None:
                slot.channel.close()
                slot.channel = None
        if self._serial_service is not None:
            close = getattr(self._serial_service, "close", None)
            if callable(close):
                close()
            self._serial_service = None

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TaskPipeline:
    """Parent-side handle of a set of standing tasks (one per seat).

    Created by :meth:`SupervisedWorkerPool.start_pipeline`. The caller
    owns the pacing: it calls :meth:`pump` (non-blocking by default)
    from its shared-memory wait loops so deaths are noticed while it
    waits on data, :meth:`bump_deadlines` once per observed step, and
    :meth:`finish` after it has signalled its own stop condition through
    whatever channel the standing tasks watch.

    Fault handling mirrors :meth:`SupervisedWorkerPool.run_tasks`: a
    SIGKILLed/hung/frozen worker is respawned (respawn budget) and its
    standing task re-dispatched (retry budget). Standing tasks must be
    idempotent *mid-flight*: a replacement re-enters the same task and
    re-derives where the computation stands from shared state — which
    the sharded trainer's seqlock protocol guarantees (a recomputed step
    republishes bit-identical bytes). Exhausted budgets degrade the pool
    and leave completion to the caller's serial path.
    """

    def __init__(self, pool: SupervisedWorkerPool, tasks: list):
        self._pool = pool
        self.tasks = list(tasks)
        self.results: list = [None] * len(self.tasks)
        self._done = [False] * len(self.tasks)
        self._remaining = len(self.tasks)
        self._pending = collections.deque(range(len(self.tasks)))
        self._attempts: dict[int, int] = {}
        self._stopping = False
        self._dispatch()

    @property
    def degraded(self) -> bool:
        return self._pool.degraded

    @property
    def finished(self) -> bool:
        return self._remaining == 0

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        pool = self._pool
        with pool._lock:
            for slot in pool._slots:
                if slot.state == _IDLE and self._pending:
                    index = self._pending.popleft()
                    slot.state = _BUSY
                    slot.task_index = index
                    slot.deadline_at = (
                        time.monotonic()
                        + pool.supervision.task_deadline_seconds)
                    slot.task_q.put((index, self.tasks[index]))

    def bump_deadlines(self) -> None:
        """Re-arm the task deadline of every busy seat.

        Called by the driver once per observed step, so the watchdog's
        ``task_deadline_seconds`` bounds one *step* of a standing task
        rather than its whole (epoch-long) lifetime.
        """
        pool = self._pool
        deadline = (time.monotonic()
                    + pool.supervision.task_deadline_seconds)
        with pool._lock:
            for slot in pool._slots:
                if slot.state == _BUSY:
                    slot.deadline_at = deadline

    def _on_death(self, slot: _Slot) -> str | None:
        pool = self._pool
        if not self._stopping:
            return pool._handle_death(slot, self._pending, self._attempts,
                                      need_more_work=self._remaining > 0)
        # During shutdown a standing task's purpose (the steps) is
        # already served; its final summary is advisory. Account the
        # death, but spend no respawn on it.
        kind = pool._classify_death(slot)
        index = slot.task_index
        detail = (slot.kill_reason
                  or f"process died with exit code {slot.proc.exitcode}")
        with pool._lock:
            slot.state = _DEAD
            slot.task_index = None
            slot.deadline_at = float("inf")
            if slot.task_q is not None:
                slot.task_q.close()
                slot.task_q.cancel_join_thread()
                slot.task_q = None
            if slot.channel is not None:
                slot.channel.close()
                slot.channel = None
        pool._emit(kind, slot.worker_id, task_index=index,
                   detail=detail + " (during pipeline stop; not retried)")
        if index is not None and not self._done[index]:
            self._done[index] = True
            self._remaining -= 1
        return None

    def pump(self, wait: float = 0.0) -> None:
        """Process supervisor traffic; never blocks longer than ``wait``.

        Raises :class:`TaskFailedError` if a standing task raised in its
        worker (deterministic bug; the remote traceback matters more
        than recovery). Worker deaths respawn/re-dispatch; exhausted
        budgets degrade the pool — check :attr:`degraded` after pumping.
        """
        pool = self._pool
        if pool.degraded or pool._closed or self._remaining == 0:
            return
        messages = pool._collect_messages(timeout=wait)
        degrade_reason = None
        for slot, (kind, index, payload) in messages:
            if pool.degraded:
                return
            if kind == _OK:
                with pool._lock:
                    if slot.task_index == index:
                        slot.state = _IDLE
                        slot.task_index = None
                        slot.deadline_at = float("inf")
                if not self._done[index]:
                    self.results[index] = payload
                    self._done[index] = True
                    self._remaining -= 1
            elif kind == _ERR:
                pool.close()
                raise TaskFailedError(
                    f"pipeline task {index} raised in worker:\n{payload}")
            elif kind == _READY:
                with pool._lock:
                    if slot.state == _STARTING:
                        slot.state = _IDLE
                        slot.deadline_at = float("inf")
            elif kind == _INIT_ERR:
                if slot.proc.exitcode is None:
                    slot.proc.kill()
                    slot.proc.join(timeout=1.0)
                degrade_reason = self._on_death(slot)
                if degrade_reason:
                    break
        if degrade_reason is None:
            for slot in pool._slots:
                if (slot.state in (_BUSY, _IDLE, _STARTING)
                        and slot.proc is not None
                        and slot.proc.exitcode is not None):
                    degrade_reason = self._on_death(slot)
                    if degrade_reason:
                        break
        if degrade_reason is None and self._remaining and not any(
                s.state != _DEAD for s in pool._slots):
            degrade_reason = "no live workers remain"
        if degrade_reason:
            pool._degrade(degrade_reason)
            return
        self._dispatch()

    def finish(self, timeout: float | None = None) -> list:
        """Drain the final task results after the stop signal.

        The caller must already have signalled its stop condition (the
        sharded trainer flips its control block to STOP), so workers
        return promptly. Deaths during the drain are not retried. With a
        ``timeout`` the drain is abandoned after that many seconds — the
        pool's ``close()`` will kill the stragglers.
        """
        self._stopping = True
        pool = self._pool
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while self._remaining and not pool.degraded and not pool._closed:
            self.pump(wait=pool.supervision.poll_seconds)
            if deadline is not None and time.monotonic() > deadline:
                break
        return list(self.results)
