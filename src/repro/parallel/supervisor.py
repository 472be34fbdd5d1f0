"""Process supervision: one seat lifecycle for worker pools and replicas.

:class:`ProcessSupervisor` keeps a fixed number of *seats*, each
occupied by one child process that may be replaced. It is the one
supervision core of the package; two subclasses add only what is their
own:

* :class:`SupervisedWorkerPool` — the task pool under class-parallel
  scoring and sharded fine-tuning: task queues, result channels, the
  parent's BLAS thread hold, the serial fallback and
  :class:`TaskPipeline`;
* :class:`~repro.serve.replica.ReplicaSet` — the replica processes of
  the serving tier: the socket directory and each generation's socket
  and pid file in the reaper ledger.

The core turns every fault into one observable and recovers from it:

* **heartbeats** — every child runs a daemon thread (:func:`heartbeat`)
  stamping its slot of a shared array; a frozen process (SIGSTOP,
  livelock outside the interpreter) goes silent and is detected even
  when idle;
* **watchdog** — one parent-side thread enforces heartbeat staleness for
  every seat, and the deadline of a seat that arms one (a pool seat's
  task or start-up). Violators are SIGKILLed through
  :meth:`ProcessSupervisor.kill`, which records the fault kind (``stale``,
  ``hang``; ``crash`` for other kills) on the seat. That funnels every
  fault — crash, hang, freeze — into one observable, a dead process;
* **respawn budget** — dead seats are respawned within a set-wide
  ``max_respawns`` budget, paced by a seeded
  :class:`~repro.resilience.retry.RetryPolicy` backoff;
* **degrade** — once the budget is spent, :meth:`ProcessSupervisor.degrade`
  flips ``degraded`` and emits exactly one ``degrade`` event, however
  many callers ask for it.

What the pool adds on top:

* **deterministic retry** — a dead worker's in-flight task is
  re-dispatched (bounded by ``max_task_retries``). Tasks are *idempotent
  by construction* in this codebase: each task is a pure function of
  shared-memory inputs that writes only its own output slots, so a
  re-run — even a double run when a killed worker already delivered —
  produces bit-identical results;
* **graceful serial fallback** — when a budget is exhausted (a poison
  task that kills every host, or more faults than ``max_respawns``), the
  pool stops its workers and finishes the remaining tasks *serially in
  the parent* with a parent-side service instance. The run completes,
  ``degraded`` flips to True, and callers surface
  ``stop_reason="parallel-degraded"`` instead of an exception.

Worker-raised exceptions (``_ERR``) are *not* retried: a deterministic
task raises identically on every host, so the remote traceback surfaces
immediately as :class:`~repro.parallel.errors.TaskFailedError`.

Fault drills use the task sentinels :data:`CRASH_TASK` (exit without a
result), :data:`HANG_TASK` (busy-sleep forever, heartbeat healthy — only
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

__all__ = ["SupervisionConfig", "WorkerEvent", "ProcessSupervisor", "Seat",
           "SupervisedWorkerPool", "TaskPipeline", "EchoService", "heartbeat",
           "resolve_processes", "CRASH_TASK", "HANG_TASK",
           "STALL_HEARTBEAT_TASK"]

#: Sentinel task that makes a worker die without reporting a result.
#: Used by the resilience drills and tests to exercise crash detection.
CRASH_TASK = "__repro.parallel.crash__"

#: Sentinel task making a worker loop forever while its heartbeat stays
#: healthy — detectable only through the per-task deadline.
HANG_TASK = "__repro.parallel.hang__"

#: Sentinel task that silences the worker's heartbeat thread and then
#: sleeps — detectable only through heartbeat staleness.
STALL_HEARTBEAT_TASK = "__repro.parallel.stall-heartbeat__"

_READY, _OK, _ERR, _INIT_ERR = "ready", "ok", "err", "init-err"
_IDLE, _STARTING, _BUSY, _DEAD = "idle", "starting", "busy", "dead"


def resolve_processes(workers: int, processes: int | None = None) -> int:
    """Physical process count for ``workers`` logical shards.

    Logical workers are how the *caller* shards its work (the
    ``workers=N`` knob, part of the determinism contract); physical
    processes are how many OS processes execute the shards. Defaults to
    ``min(workers, usable CPUs)`` where "usable" honours the CPU affinity
    mask; the ``REPRO_PARALLEL_PROCESSES`` environment variable or the
    ``processes`` argument overrides it. Results do not depend on this
    number — only wall-clock does, because results are reassembled by
    task index, not by arrival order.
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


def heartbeat(heartbeats, seat_id: int, interval: float,
              stop: threading.Event) -> None:
    """Child side of the heartbeat: stamp ``heartbeats[seat_id]`` every
    ``interval`` seconds from a daemon thread until ``stop`` is set."""

    def beat():
        while not stop.is_set():
            heartbeats[seat_id] = time.monotonic()
            stop.wait(interval)

    threading.Thread(target=beat, daemon=True,
                     name=f"repro-heartbeat-{seat_id}").start()


def _supervised_worker_main(worker_id, start_method, service_cls, init_args,
                            task_q, channel, heartbeats, beat_interval,
                            blas_threads):
    """Worker body: heartbeat thread + the service loop."""
    threads.set_blas_threads(blas_threads)
    stop_beat = threading.Event()
    heartbeat(heartbeats, worker_id, beat_interval, stop_beat)
    channel.bind_worker()
    try:
        from . import shm

        # Spawn workers own a private resource tracker that must not tear
        # shared segments down on worker exit; fork workers share the
        # parent's tracker, which must be left alone (see shm module doc).
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


class Seat:
    """Parent-side state of one supervised seat (its process may be
    replaced): the current process, its generation, why it was killed,
    and its armed deadline."""

    def __init__(self, seat_id: int):
        self.seat_id = seat_id
        self.proc = None
        self.generation = 0              # incarnations started so far
        self.kill_reason: str | None = None
        self.kill_kind: str | None = None
        self.deadline_at: float = float("inf")
        self.deadline_note = ""

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def restarts(self) -> int:
        return max(0, self.generation - 1)

    def arm(self, seconds: float, what: str) -> None:
        """Give the current incarnation ``seconds`` to finish ``what``;
        the watchdog kills it as hung past that."""
        self.deadline_at = time.monotonic() + seconds
        self.deadline_note = f"{what} exceeded the {seconds}s deadline"

    def disarm(self) -> None:
        self.deadline_at = float("inf")


class ProcessSupervisor:
    """Seat lifecycle shared by :class:`SupervisedWorkerPool` and
    :class:`~repro.serve.replica.ReplicaSet`.

    Owns the seats, the shared heartbeat array, the watchdog, the
    set-wide respawn budget, the one idempotent :meth:`degrade`, event
    emission and :meth:`close`. A subclass says what process occupies a
    seat (:meth:`_seat_process`) and what a seat's incarnation holds
    beyond its process (:meth:`_seat_started`, :meth:`_release`), then
    calls :meth:`_start` once its own state is ready.
    """

    seat_cls = Seat

    def __init__(self, seats: int, *, name: str, retry: RetryPolicy,
                 max_respawns: int, stale_after: float, scan_seconds: float,
                 on_event=None, start_method: str | None = None):
        if seats <= 0:
            raise ValueError("the seat count must be positive")
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        # A fresh set is the natural moment to reclaim what a previous
        # SIGKILLed run left behind (see repro.parallel.reaper).
        reaper.sweep_orphans()
        self.on_event = on_event
        self.events: list[WorkerEvent] = []
        self.degraded = False
        self.degrade_reason = ""
        self.respawns_used = 0
        self.seats = [self.seat_cls(i) for i in range(seats)]
        self._name = name
        self._start_method = start_method
        self._ctx = mp.get_context(start_method)
        self._retry = retry
        self._max_respawns = max_respawns
        self._stale_after = stale_after
        self._scan_seconds = scan_seconds
        self._closed = False
        self._lock = threading.RLock()
        self._heartbeats = self._ctx.Array("d", seats, lock=False)
        self._halt = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True,
                                          name=f"{name}-watchdog")

    def _start(self) -> None:
        """Start every seat's first process, then the watchdog."""
        for seat in self.seats:
            self._spawn(seat)
        self._watchdog.start()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _seat_process(self, seat: Seat) -> tuple:
        """``(target, args)`` of the next process to occupy ``seat``."""
        raise NotImplementedError

    def _seat_started(self, seat: Seat) -> None:
        """Runs right after ``seat``'s new process started."""

    def _release(self, seat: Seat) -> None:
        """Frees what ``seat``'s ended incarnation held besides its
        process (idempotent)."""

    def _retire(self, seat: Seat) -> None:
        """Asks ``seat``'s live process to exit before :meth:`close`
        kills it."""

    def _on_close(self) -> None:
        """Runs once, at the end of :meth:`close`."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def emit(self, kind: str, seat_id: int, *, task_index=None, attempt=0,
             detail: str = "") -> None:
        """Record one :class:`WorkerEvent` and pass it to ``on_event``."""
        event = WorkerEvent(kind=kind, worker_id=seat_id,
                            task_index=task_index, attempt=attempt,
                            detail=detail)
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 - observers must not kill runs
                pass

    def _spawn(self, seat: Seat) -> None:
        """Start (or restart) the process occupying ``seat``."""
        with self._lock:
            seat.generation += 1
            seat.kill_reason = seat.kill_kind = None
            seat.disarm()
            self._heartbeats[seat.seat_id] = time.monotonic()
            target, args = self._seat_process(seat)
            seat.proc = self._ctx.Process(
                target=target, args=args, daemon=True,
                name=f"{self._name}-{seat.seat_id}")
            seat.proc.start()
            self._seat_started(seat)

    def kill(self, seat_id: int, reason: str, kind: str = "hang") -> None:
        """SIGKILL one seat's process and record why.

        ``kind`` (``hang``, ``stale`` or ``crash``) labels the fault
        event emitted when the death is accounted; the first reason
        recorded for an incarnation wins.
        """
        seat = self.seats[seat_id]
        with self._lock:
            if seat.kill_kind is None:
                seat.kill_reason, seat.kill_kind = reason, kind
            if seat.proc is not None and seat.proc.exitcode is None:
                seat.proc.kill()

    def _watch(self) -> None:
        """Watchdog thread: kill frozen and hung seats.

        It never respawns — it only converts the two invisible failure
        modes (freeze, hang) into the visible one (a dead process), which
        the owner of the seat then accounts.
        """
        while not self._halt.wait(self._scan_seconds):
            now = time.monotonic()
            with self._lock:
                for seat in self.seats:
                    if seat.proc is None or seat.proc.exitcode is not None:
                        continue
                    silent = now - self._heartbeats[seat.seat_id]
                    if silent > self._stale_after:
                        self.kill(seat.seat_id,
                                  f"heartbeat silent for {silent:.2f}s "
                                  f"(stale_after={self._stale_after}s)",
                                  kind="stale")
                    elif now > seat.deadline_at:
                        self.kill(seat.seat_id, seat.deadline_note,
                                  kind="hang")

    def _reap(self, seat: Seat, note: str = "", **fields) -> tuple[str, str]:
        """Account one dead incarnation: release it, emit its fault event.

        Returns the fault ``(kind, detail)``; ``fields`` and ``note``
        extend the event.
        """
        seat.proc.join(timeout=5.0)
        kind = seat.kill_kind or "crash"
        detail = (seat.kill_reason
                  or f"process died with exit code {seat.proc.exitcode}")
        with self._lock:
            seat.disarm()
            self._release(seat)
        self.emit(kind, seat.seat_id, detail=detail + note, **fields)
        return kind, detail

    def _respawn(self, seat: Seat, fault: str) -> bool:
        """Replace ``seat``'s dead process within the set-wide budget.

        Sleeps the RetryPolicy backoff first. Returns False when the set
        is closed or degraded; a spent budget degrades it.
        """
        with self._lock:
            if self._closed or self.degraded:
                return False
            attempt = self.respawns_used
            exhausted = attempt >= self._max_respawns
            if not exhausted:
                self.respawns_used += 1
        if exhausted:
            self.degrade(f"respawn budget exhausted "
                         f"(max_respawns={self._max_respawns}); "
                         f"last fault: {fault}")
            return False
        delay = self._retry.delay(attempt)
        time.sleep(delay)
        with self._lock:
            if self._closed or self.degraded:
                return False
            self._spawn(seat)
        self.emit("respawn", seat.seat_id, attempt=attempt + 1,
                  detail=f"generation {seat.generation} after {fault} "
                         f"(backoff {delay:.3f}s)")
        return True

    def degrade(self, reason: str) -> bool:
        """Give up on the processes (idempotent).

        The first call sets ``degraded`` and ``degrade_reason``, stops
        the watchdog and emits the one ``degrade`` event; later calls
        change nothing and return False.
        """
        with self._lock:
            if self.degraded:
                return False
            self.degraded = True
            self.degrade_reason = reason
        self._halt.set()
        self.emit("degrade", -1, detail=reason)
        return True

    def close(self) -> None:
        """Stop the watchdog, end every seat's process and release what
        it held (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._halt.set()
        if self._watchdog.is_alive():
            self._watchdog.join(timeout=5.0)
        for seat in self.seats:
            if seat.proc is not None:
                self._retire(seat)
                if seat.proc.is_alive():
                    seat.proc.kill()
                seat.proc.join(timeout=5.0)
            self._release(seat)
        self._on_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Slot(Seat):
    """A worker seat: its task queue, result channel and dispatch state."""

    def __init__(self, seat_id: int):
        super().__init__(seat_id)
        self.task_q = None
        self.channel: _ResultChannel | None = None
        self.state = _DEAD
        self.task_index: int | None = None


class SupervisedWorkerPool(ProcessSupervisor):
    """Self-healing pool of worker processes running one service each.

    ``processes`` seats each run a picklable service class
    (``service_cls(*init_args)``, shared-memory state as
    :class:`~repro.parallel.shm.ShmSpec` in ``init_args``) whose
    ``handle(task)`` is called per task. ``run_tasks`` keeps the
    task-index result ordering — and with it the bit-determinism contract
    of the scoring and sharding layers — across crashes, hangs, respawns
    and the serial fallback.
    """

    seat_cls = _Slot

    def __init__(self, processes: int, service_cls, init_args: tuple = (),
                 start_method: str | None = None,
                 supervision: SupervisionConfig | None = None,
                 on_event=None):
        self.supervision = supervision or SupervisionConfig()
        cfg = self.supervision
        super().__init__(processes, retry=cfg.retry_policy(),
                         max_respawns=cfg.max_respawns,
                         stale_after=cfg.stale_after_seconds,
                         scan_seconds=cfg.poll_seconds, on_event=on_event,
                         start_method=start_method,
                         name="repro-supervised-worker")
        self.processes = processes
        self._service_cls = service_cls
        self._init_args = tuple(init_args)
        self._serial_service = None
        #: BLAS threads of every worker and, while the pool is open, of
        #: the parent — whose degrade path must compute like a worker
        #: (see :mod:`repro.parallel.threads`).
        self.blas_threads = threads.budget(processes)
        threads.hold(self.blas_threads)
        try:
            self._start()
            self._await_ready()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Seats
    # ------------------------------------------------------------------
    def _seat_process(self, slot: _Slot) -> tuple:
        slot.task_q = self._ctx.Queue()
        slot.channel = _ResultChannel()
        slot.state = _STARTING
        slot.task_index = None
        slot.arm(self.supervision.task_deadline_seconds, "start-up")
        return _supervised_worker_main, (
            slot.seat_id, self._start_method, self._service_cls,
            self._init_args, slot.task_q, slot.channel, self._heartbeats,
            self.supervision.heartbeat_seconds, self.blas_threads)

    def _seat_started(self, slot: _Slot) -> None:
        slot.channel.after_spawn()

    def _release(self, slot: _Slot) -> None:
        slot.state = _DEAD
        slot.task_index = None
        if slot.task_q is not None:
            # The dead worker's queue may still hold its task; a fresh
            # queue per respawn keeps stale dispatches from reaching the
            # replacement. (A double *delivery* of an already-finished
            # task would be harmless — results are slotted by index — but
            # why pay for the re-run.)
            slot.task_q.close()
            slot.task_q.cancel_join_thread()
            slot.task_q = None
        if slot.channel is not None:
            # Discard the result channel with the process: anything it
            # still holds is at best a duplicate of a retried
            # (idempotent) task, at worst a truncated frame.
            slot.channel.close()
            slot.channel = None

    def _retire(self, slot: _Slot) -> None:
        if slot.state != _DEAD and slot.proc.exitcode is None:
            try:
                slot.task_q.put(None)
            except (ValueError, OSError):  # pragma: no cover
                pass
            slot.proc.join(timeout=1.0)

    def _on_close(self) -> None:
        threads.release(self.blas_threads)
        if self._serial_service is not None:
            close = getattr(self._serial_service, "close", None)
            if callable(close):
                close()
            self._serial_service = None

    def _collect_messages(self, timeout: float | None = None) -> list:
        """Wait up to ``timeout`` (default ``poll_seconds``), then drain
        every live channel.

        Returns ``(slot, message)`` pairs for each complete frame. An
        empty return is the supervisor's cue to scan for dead processes.
        """
        if timeout is None:
            timeout = self.supervision.poll_seconds
        fds = [s.channel.r for s in self.seats
               if s.state != _DEAD and s.channel is not None
               and s.channel.r != -1]
        if fds:
            select.select(fds, [], [], timeout)
        elif timeout:
            time.sleep(timeout)
        messages = []
        for slot in self.seats:
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
        while any(s.state == _STARTING for s in self.seats):
            messages = self._collect_messages()
            if not messages:
                for slot in self.seats:
                    if (slot.state == _STARTING
                            and slot.proc.exitcode is not None):
                        raise ParallelExecutionError(
                            f"worker {slot.seat_id} died during start-up "
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
                        slot.disarm()

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _serial_handle(self, task):
        if self._serial_service is None:
            self._serial_service = self._service_cls(*self._init_args)
        return self._serial_service.handle(task)

    def degrade(self, reason: str) -> bool:
        """Give up on the workers; later work runs serially in the parent."""
        if not super().degrade(reason):
            return False
        with self._lock:
            for slot in self.seats:
                if slot.proc is not None and slot.proc.exitcode is None:
                    slot.proc.kill()
                self._release(slot)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: list) -> list:
        """Execute ``tasks``; results in task order, faults self-healed.

        Raises :class:`TaskFailedError` when a task *raises* in a worker
        (deterministic bug — retrying or degrading would fail the same
        way for honest services, and the remote traceback matters more),
        and :class:`ParallelExecutionError` only for unusable-pool states.
        Worker deaths and hangs never raise: they respawn, retry, and
        ultimately degrade to serial execution, which finishes every task
        the workers did not.
        """
        if self._closed:
            raise ParallelExecutionError("pool is closed")
        pipeline = TaskPipeline(self, tasks)
        while not (pipeline.finished or self.degraded):
            pipeline.pump(wait=self.supervision.poll_seconds)
        for index, task in enumerate(pipeline.tasks):
            if not pipeline.done[index]:
                pipeline.results[index] = self._serial_handle(task)
        return pipeline.results

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


class TaskPipeline:
    """Parent-side dispatch of a list of tasks over a pool's seats.

    :meth:`SupervisedWorkerPool.run_tasks` pumps one until it finishes;
    :meth:`SupervisedWorkerPool.start_pipeline` hands one of *standing*
    tasks (one per seat) to a caller that owns the pacing: it calls
    :meth:`pump` (non-blocking by default) from its shared-memory wait
    loops so deaths are noticed while it waits on data,
    :meth:`bump_deadlines` once per observed step, and :meth:`finish`
    after it has signalled its own stop condition through whatever
    channel the standing tasks watch.

    A SIGKILLed/hung/frozen worker is respawned (respawn budget) and its
    task re-dispatched (retry budget). Standing tasks must be idempotent
    *mid-flight*: a replacement re-enters the same task and re-derives
    where the computation stands from shared state — which the sharded
    trainer's seqlock protocol guarantees (a recomputed step republishes
    bit-identical bytes). Exhausted budgets degrade the pool and leave
    completion to the caller's serial path.
    """

    def __init__(self, pool: SupervisedWorkerPool, tasks: list):
        self._pool = pool
        self.tasks = list(tasks)
        self.results: list = [None] * len(self.tasks)
        self.done = [False] * len(self.tasks)
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
        """Hand pending tasks to idle seats (deterministic order: seat
        id)."""
        pool = self._pool
        with pool._lock:
            for slot in pool.seats:
                if slot.state == _IDLE and self._pending:
                    index = self._pending.popleft()
                    slot.state = _BUSY
                    slot.task_index = index
                    slot.arm(pool.supervision.task_deadline_seconds, "task")
                    slot.task_q.put((index, self.tasks[index]))

    def bump_deadlines(self) -> None:
        """Re-arm the task deadline of every busy seat.

        Called by the driver once per observed step, so the watchdog's
        ``task_deadline_seconds`` bounds one *step* of a standing task
        rather than its whole (epoch-long) lifetime.
        """
        pool = self._pool
        with pool._lock:
            for slot in pool.seats:
                if slot.state == _BUSY:
                    slot.arm(pool.supervision.task_deadline_seconds, "task")

    def _complete(self, index: int, result=None) -> None:
        if not self.done[index]:     # late duplicates are harmless
            self.results[index] = result
            self.done[index] = True
            self._remaining -= 1

    def _on_death(self, slot: _Slot) -> None:
        """Account a dead worker: re-queue its task, respawn or degrade."""
        pool = self._pool
        index = slot.task_index
        attempt = self._attempts.get(index, 0) if index is not None else 0
        if self._stopping:
            # During shutdown a standing task's purpose (the steps) is
            # already served; its final summary is advisory. Account the
            # death, but spend no respawn on it.
            pool._reap(slot, note=" (during pipeline stop; not retried)",
                       task_index=index, attempt=attempt)
            if index is not None:
                self._complete(index)
            return
        kind, detail = pool._reap(slot, task_index=index, attempt=attempt)
        if index is not None:
            self._attempts[index] = attempt + 1
            if attempt + 1 > pool.supervision.max_task_retries:
                pool.degrade(f"task {index} failed {attempt + 1} times "
                             f"(max_task_retries="
                             f"{pool.supervision.max_task_retries}); "
                             f"last fault: {detail}")
                return
            self._pending.appendleft(index)
            pool.emit("retry", slot.seat_id, task_index=index,
                      attempt=attempt + 1,
                      detail=f"re-dispatching after {kind}")
        if self._remaining:
            pool._respawn(slot, f"worker {slot.seat_id} {kind} ({detail})")

    def pump(self, wait: float = 0.0) -> None:
        """Process supervisor traffic; never blocks longer than ``wait``.

        Raises :class:`TaskFailedError` if a task raised in its worker
        (deterministic bug; the remote traceback matters more than
        recovery). Worker deaths respawn/re-dispatch; exhausted budgets
        degrade the pool — check :attr:`degraded` after pumping.
        """
        pool = self._pool
        if pool.degraded or pool._closed or self._remaining == 0:
            return
        for slot, (kind, index, payload) in pool._collect_messages(wait):
            if kind == _OK:
                with pool._lock:
                    if slot.task_index == index:
                        slot.state = _IDLE
                        slot.task_index = None
                        slot.disarm()
                self._complete(index, payload)
            elif kind == _ERR:
                pool.close()
                raise TaskFailedError(
                    f"task {index} raised in worker:\n{payload}")
            elif kind == _READY:
                with pool._lock:
                    if slot.state == _STARTING:
                        slot.state = _IDLE
                        slot.disarm()
            elif kind == _INIT_ERR:
                # A respawned worker failed to construct the service;
                # its death is accounted like any other (budgeted).
                pool.kill(slot.seat_id, "service failed to initialise",
                          kind="crash")
        for slot in pool.seats:
            if slot.state != _DEAD and slot.proc.exitcode is not None:
                self._on_death(slot)
                if pool.degraded:
                    return
        if self._remaining and all(s.state == _DEAD for s in pool.seats):
            pool.degrade("no live workers remain")
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
