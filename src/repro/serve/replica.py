"""Replica worker processes: the compute tier behind the router.

One :class:`ReplicaSet` owns N worker *processes*. Each hosts an
:class:`~repro.serve.server.InferenceServer` over its own
:class:`~repro.serve.registry.ModelRegistry` with no TCP listener,
behind a short asyncio link on a private unix socket. The asyncio
frontend (:class:`~repro.serve.router.ReplicaRouter`) dials those
sockets and spreads traffic across them, so a crash, hang, or GIL-bound
compute spike in one replica costs 1/N capacity instead of the whole
service.

The link speaks the public protocol of :mod:`repro.serve.server` and
runs each line through the server's dispatch as its own task, so the
router's one pipelined connection still fills the replica's batches.
Both tiers therefore share one implementation of request validation,
deadlines, fault containment (retry → eager), swaps and stats. A
replica differs from the front door only in that its admission bounds
are off (the front door already admitted the request), its ``stats``
add the ``latency_samples`` and ``blas_threads`` the fleet roll-up
reads, and, with ``allow_chaos=True``, ``{"op": "chaos"}`` wedges its
serving path for the hang drill.

Replica seats run on the same supervision core as the worker pool's
seats (:class:`~repro.parallel.supervisor.ProcessSupervisor`): each
replica stamps a heartbeat slot in the shared array; the one watchdog
SIGKILLs any replica whose heartbeat goes stale, funnelling *every*
fault — crash, freeze, kill -9 — into one detection path (process death,
seen by the router as EOF on the replica socket). :meth:`ReplicaSet.respawn`
accounts the death (one fault event) and respawns within the set-wide
:class:`~repro.resilience.retry.RetryPolicy` budget; once it is spent the
set degrades (one ``degrade`` event) and the router falls back to the
in-process single-runner path with ``stop_reason="replicas-degraded"``
instead of flapping. Unlike the pool, the set takes no parent BLAS
hold: on a 2-CPU host the compiled engine gave bitwise-equal outputs at
1 and 2 BLAS threads (vgg11 with 7/8 of its filters kept, batch 1 and
8), so the local fallback has no shown need for one.

Replica-owned filesystem artifacts (the socket directory, each
incarnation's socket and pid file) are ledgered with
:func:`repro.parallel.reaper.register_path`, so a SIGKILLed serve run
leaves nothing behind that the next run's orphan sweep won't reclaim.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from ..parallel import reaper, threads
from ..parallel.supervisor import ProcessSupervisor, Seat, heartbeat
from ..resilience.retry import RetryPolicy
from .registry import ModelRegistry
from .server import InferenceServer
from .shedding import SheddingConfig

__all__ = ["ReplicaSpec", "ReplicaConfig", "ReplicaSet"]


@dataclass(frozen=True)
class ReplicaSpec:
    """One ``name@version`` a replica must serve, and where to load it."""

    name: str
    version: str
    checkpoint: str | None = None
    artifact: str | None = None

    def deploy_payload(self) -> dict:
        payload = {"op": "swap", "name": self.name, "version": self.version}
        if self.checkpoint is not None:
            payload["checkpoint"] = str(self.checkpoint)
        if self.artifact is not None:
            payload["artifact"] = str(self.artifact)
        return payload

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


@dataclass(frozen=True)
class ReplicaConfig:
    """Sizing, supervision, and routing knobs of the replica tier."""

    replicas: int = 2
    max_batch: int = 8                  # per-replica engine batch
    socket_dir: str | None = None       # default: fresh ledgered tmpdir
    heartbeat_s: float = 0.05           # replica stamp + watchdog scan
    stale_after_s: float = 2.0          # heartbeat age ⇒ SIGKILL
    start_deadline_s: float = 30.0      # socket connect budget per spawn
    deploy_timeout_s: float = 120.0     # compile+validate budget
    probe_interval_s: float = 0.25      # router liveness ping period
    probe_timeout_s: float = 2.0        # unanswered ping ⇒ SIGKILL
    max_respawns: int = 3               # set-wide respawn budget
    respawn_base_delay_s: float = 0.05  # RetryPolicy backoff knobs
    respawn_max_delay_s: float = 1.0
    respawn_seed: int = 0
    max_dispatch_retries: int = 2       # re-dispatches per request
    hedge_after_ms: float | None = None  # None ⇒ hedging off
    breaker_failures: int = 3           # per-replica circuit breaker
    breaker_cooldown_s: float = 0.5
    request_timeout_s: float = 30.0     # router-side wait per request
    drain_poll_s: float = 0.01          # rolling-deploy drain poll
    rolling_drain_timeout_s: float = 10.0
    allow_chaos: bool = False           # enable the "chaos" op (drills)
    engine_delay_ms: float = 0.0        # slow the engine down (drills)

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.max_respawns + 1,
                           base_delay=self.respawn_base_delay_s,
                           factor=2.0, max_delay=self.respawn_max_delay_s,
                           jitter=0.1, seed=self.respawn_seed)


# ---------------------------------------------------------------------------
# replica process body
# ---------------------------------------------------------------------------


# Admission is the front door's job: a replica never sheds a request the
# front door already admitted, so its queue-depth and SLO gates are off.
_UNBOUNDED = SheddingConfig(max_pending=sys.maxsize, p99_budget_ms=None)


class _ReplicaServer(InferenceServer):
    """The front door's request path inside one replica process.

    No TCP listener: :meth:`serve_link` reads the router's lines off a
    unix socket and runs each through :meth:`_dispatch` as its own task,
    so one pipelined connection still fills the replica's batches.
    """

    def __init__(self, config: ReplicaConfig):
        super().__init__(ModelRegistry(max_batch=config.max_batch,
                                       shedding=_UNBOUNDED))
        self.replica_config = config
        self._wedged = False
        self._tasks: set[asyncio.Task] = set()

    def stats(self) -> dict:
        payload = super().stats()
        # What the router's fleet roll-up merges across replicas.
        payload["latency_samples"] = self.metrics.latency_samples()
        payload["blas_threads"] = threads.blas_threads()
        return payload

    async def _swap(self, msg: dict) -> dict:
        reply = await super()._swap(msg)
        delay_ms = self.replica_config.engine_delay_ms
        if reply["ok"] and delay_ms > 0:
            from .drills import SlowEngine
            _, active = self.registry.resolve(msg["name"])
            active.runner.engine = SlowEngine(active.engine, delay_ms / 1e3)
        return reply

    async def _other_op(self, op: str, msg: dict) -> dict:
        if op == "chaos" and self.replica_config.allow_chaos:
            # Freeze the serving path: the heartbeat keeps beating, so
            # only the router's liveness probe can tell.
            self._wedged = True
            return {"id": msg.get("id"), "ok": True, "wedged": True}
        return await super()._other_op(op, msg)

    async def serve_link(self, socket_path: str) -> None:
        link = await asyncio.start_unix_server(
            self._link, socket_path, limit=self.config.max_line_bytes)
        async with link:
            await link.serve_forever()

    async def _link(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    if not await self._reject_oversized(reader, writer):
                        break
                    continue
                if self._wedged:
                    await asyncio.Event().wait()    # never answers again
                task = asyncio.create_task(self._answer(line, writer))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _answer(self, line: bytes, writer: asyncio.StreamWriter
                      ) -> None:
        response = await self._dispatch(line)
        try:
            await self._send(writer, response)
        except (ConnectionError, OSError):
            pass                        # router gone; it re-dispatches


def _replica_main(replica_id: int, socket_path: str, heartbeats,
                  config: ReplicaConfig) -> None:
    """Process entry point: heartbeat thread + the replica's server."""
    threads.set_blas_threads(threads.budget(config.replicas))
    heartbeat(heartbeats, replica_id, config.heartbeat_s, threading.Event())
    server = _ReplicaServer(config)
    try:
        asyncio.run(server.serve_link(socket_path))
    finally:
        server.registry.close()


# ---------------------------------------------------------------------------
# parent-side process management
# ---------------------------------------------------------------------------


class ReplicaHandle(Seat):
    """Parent-side view of one replica seat (survives respawns)."""

    def __init__(self, replica_id: int):
        super().__init__(replica_id)
        self.socket_path: Path | None = None
        self.pid_path: Path | None = None

    @property
    def replica_id(self) -> int:
        return self.seat_id


class ReplicaSet(ProcessSupervisor):
    """Spawns, watches, SIGKILLs, and respawns the replica processes.

    Pure process lifecycle — routing and request state live in
    :class:`~repro.serve.router.ReplicaRouter`. Heartbeats, the watchdog,
    :meth:`kill`, the set-wide respawn budget and :meth:`degrade` are the
    shared :class:`~repro.parallel.supervisor.ProcessSupervisor` core;
    this class adds the socket directory and each generation's socket
    and pid file.
    """

    seat_cls = ReplicaHandle

    def __init__(self, config: ReplicaConfig | None = None, *,
                 on_event=None):
        self.config = config or ReplicaConfig()
        super().__init__(self.config.replicas,
                         retry=self.config.retry_policy(),
                         max_respawns=self.config.max_respawns,
                         stale_after=self.config.stale_after_s,
                         scan_seconds=self.config.heartbeat_s,
                         on_event=on_event, name="repro-replica")
        if self.config.socket_dir is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-replicas-"))
            self._own_dir = True
        else:
            self._dir = Path(self.config.socket_dir)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._own_dir = False
        reaper.register_path(self._dir)
        self._start()

    @property
    def handles(self) -> list[ReplicaHandle]:
        return self.seats

    # -- seats ----------------------------------------------------------

    def _seat_process(self, handle: ReplicaHandle) -> tuple:
        stem = f"r{handle.replica_id}.{handle.generation}"
        handle.socket_path = self._dir / f"{stem}.sock"
        handle.pid_path = self._dir / f"{stem}.pid"
        reaper.register_path(handle.socket_path)
        reaper.register_path(handle.pid_path)
        return _replica_main, (handle.replica_id, str(handle.socket_path),
                               self._heartbeats, self.config)

    def _seat_started(self, handle: ReplicaHandle) -> None:
        handle.pid_path.write_text(str(handle.proc.pid))

    def _release(self, handle: ReplicaHandle) -> None:
        """Remove (and unledger) one incarnation's socket + pid file."""
        for path in (handle.socket_path, handle.pid_path):
            if path is None:
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            reaper.unregister_path(path)

    def _on_close(self) -> None:
        if self._own_dir:
            try:
                self._dir.rmdir()
            except OSError:
                pass
        reaper.unregister_path(self._dir)

    # -- supervision ----------------------------------------------------

    def respawn(self, replica_id: int) -> bool:
        """Account a dead replica and replace it, within the set-wide
        budget.

        Blocking (reaps the process, sleeps the RetryPolicy backoff,
        starts the replacement) — callers on an event loop run it via
        ``asyncio.to_thread``. Emits the death's fault event (the kind
        :meth:`kill` recorded, else ``crash``). Returns False once the
        set is closed or degraded; a spent budget degrades it.
        """
        handle = self.seats[replica_id]
        if self._closed or self.degraded:
            return False
        kind, detail = self._reap(handle)
        return self._respawn(handle, f"replica {replica_id} {kind} ({detail})")
