"""Replica worker processes: the compute tier behind the router.

One :class:`ReplicaSet` owns N worker *processes*, each running its own
:class:`~repro.serve.registry.ModelRegistry` (compiled engine + its own
:class:`~repro.infer.BatchRunner`) behind a private unix-domain NDJSON
socket. The asyncio frontend (:class:`~repro.serve.router.ReplicaRouter`)
dials those sockets and spreads traffic across them, so a crash, hang,
or GIL-bound compute spike in one replica costs 1/N capacity instead of
the whole service.

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

Replica wire protocol (one JSON object per line, same framing as the
public server):

* ``{"op": "ping", "rid": r}`` → ``{"rid": r, "ok": true, "pong": true}``
  — the router's liveness probe; answered from a connection thread, so a
  wedged serving path (not just a dead process) fails to answer.
* ``{"op": "deploy", "rid": r, "name": ..., "version": ...,
  "checkpoint"|"artifact": path}`` — runs the full compile+probe-validate
  deploy gate of the replica's own registry, off-thread so probes keep
  flowing during a long compile. A rejected artifact answers
  ``error: "swap-rejected"`` and leaves the old version serving.
* ``{"op": "infer", "rid": r, "model": ..., "input": [...],
  "deadline_ms": ...}`` — batched inference; replies may arrive out of
  order (the ticket callback writes the response under a write lock).
* ``{"op": "stats"}`` — counters + retained latency samples for
  fleet-wide aggregation, and the replica's BLAS thread count (each
  replica takes ``budget(replicas)`` from
  :mod:`repro.parallel.threads` at spawn); ``{"op": "chaos"}`` (only when
  ``allow_chaos=True``) wedges the service for hang drills.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..parallel import reaper, threads
from ..parallel.supervisor import ProcessSupervisor, Seat, heartbeat
from ..resilience.retry import RetryPolicy

__all__ = ["ReplicaSpec", "ReplicaConfig", "ReplicaSet"]


@dataclass(frozen=True)
class ReplicaSpec:
    """One ``name@version`` a replica must serve, and where to load it."""

    name: str
    version: str
    checkpoint: str | None = None
    artifact: str | None = None

    def deploy_payload(self) -> dict:
        payload = {"op": "deploy", "name": self.name, "version": self.version}
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


class _DelayedEngine:
    """Chaos shim: a compiled engine with an artificial per-run delay."""

    def __init__(self, engine, delay_s: float):
        self._engine = engine
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run(self, batch):
        time.sleep(self._delay_s)
        return self._engine.run(batch)


class _ReplicaService:
    """Everything that runs *inside* one replica process."""

    def __init__(self, replica_id: int, config: ReplicaConfig):
        # Imported here (not module top level) purely for clarity that
        # these objects live in the child: each replica owns a private
        # registry/metrics pair, never shared memory with the parent.
        from .metrics import ServerMetrics
        from .registry import ModelRegistry
        self.replica_id = replica_id
        self.config = config
        self.metrics = ServerMetrics()
        self.registry = ModelRegistry(max_batch=config.max_batch,
                                      metrics=self.metrics)
        self._deploy_lock = threading.Lock()
        self._stop = threading.Event()
        self._wedged = False            # chaos: hang the serving path

    # -- socket loop ----------------------------------------------------

    def serve(self, socket_path: str) -> None:
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        listener.bind(socket_path)
        listener.listen(8)
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True,
                             name=f"repro-replica-{self.replica_id}").start()
        listener.close()
        self.registry.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        write_lock = threading.Lock()

        def send(payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8") + b"\n"
            try:
                with write_lock:
                    conn.sendall(data)
            except OSError:
                pass                    # peer gone; router re-dispatches

        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                while self._wedged and not self._stop.is_set():
                    time.sleep(0.01)    # chaos: probes go unanswered
                try:
                    msg = json.loads(line)
                except ValueError:
                    send({"ok": False, "error": "bad-request",
                          "message": "malformed JSON line"})
                    continue
                if not self._dispatch(msg, send):
                    break
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, msg: dict, send) -> bool:
        op = msg.get("op", "infer")
        rid = msg.get("rid")
        if op == "ping":
            send({"rid": rid, "ok": True, "pong": True,
                  "replica": self.replica_id})
        elif op == "infer":
            self._infer(msg, send)
        elif op == "deploy":
            # Off-thread: a long compile must not block probe replies on
            # this connection (a false hang-kill mid-deploy would defeat
            # the rolling deploy's N−1 capacity guarantee).
            threading.Thread(target=self._deploy, args=(msg, send),
                             daemon=True).start()
        elif op == "stats":
            send({"rid": rid, "ok": True, "stats": self._stats()})
        elif op == "chaos" and self.config.allow_chaos:
            self._wedged = bool(msg.get("wedged", True))
            send({"rid": rid, "ok": True, "wedged": self._wedged})
        elif op == "shutdown":
            send({"rid": rid, "ok": True, "bye": True})
            self._stop.set()
            return False
        else:
            send({"rid": rid, "ok": False, "error": "unknown-op",
                  "message": f"unknown op {op!r}"})
        return True

    # -- ops ------------------------------------------------------------

    def _deploy(self, msg: dict, send) -> None:
        from .registry import SwapValidationError
        rid = msg.get("rid")
        name, version = msg.get("name"), msg.get("version")
        if not name or not version:
            send({"rid": rid, "ok": False, "error": "bad-request",
                  "message": "deploy needs name and version"})
            return
        try:
            with self._deploy_lock:
                report = self.registry.deploy(
                    name, version, checkpoint=msg.get("checkpoint"),
                    artifact=msg.get("artifact"))
                if self.config.engine_delay_ms > 0:
                    _, active = self.registry.resolve(name)
                    active.runner.engine = active.engine = _DelayedEngine(
                        active.engine, self.config.engine_delay_ms / 1e3)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            kind = ("swap-rejected" if isinstance(exc, SwapValidationError)
                    else "deploy-failed")
            send({"rid": rid, "ok": False, "error": kind,
                  "message": f"{type(exc).__name__}: {exc}"})
            return
        send({"rid": rid, "ok": True, "swap": report.as_dict()})

    def _infer(self, msg: dict, send) -> None:
        from ..infer.batcher import DeadlineExpired
        from .registry import NoSuchModelError
        rid = msg.get("rid")
        ref = msg.get("model")
        if not ref or "input" not in msg:
            send({"rid": rid, "ok": False, "error": "bad-request",
                  "message": "infer needs model and input"})
            return
        start = time.monotonic()
        try:
            _, version = self.registry.resolve(ref)
        except NoSuchModelError as exc:
            send({"rid": rid, "ok": False, "error": "no-such-model",
                  "message": str(exc.args[0])})
            return
        try:
            sample = np.asarray(msg["input"], dtype=np.float32)
        except (TypeError, ValueError) as exc:
            send({"rid": rid, "ok": False, "error": "bad-request",
                  "message": str(exc)})
            return
        deadline_ms = msg.get("deadline_ms")
        deadline = (None if deadline_ms is None
                    else start + float(deadline_ms) / 1e3)
        try:
            ticket = version.runner.submit(sample, deadline=deadline)
        except RuntimeError as exc:     # runner closed (shutdown race)
            self.metrics.incr("errors")
            send({"rid": rid, "ok": False, "error": "replica-fault",
                  "message": str(exc)})
            return

        def resolved(t) -> None:
            if t._error is not None:
                if isinstance(t._error, DeadlineExpired):
                    self.metrics.incr("expired")
                    send({"rid": rid, "ok": False, "error": "expired",
                          "message": str(t._error)})
                else:
                    self.metrics.incr("errors")
                    send({"rid": rid, "ok": False, "error": "replica-fault",
                          "message": f"{type(t._error).__name__}: "
                                     f"{t._error}"})
                return
            latency_ms = (time.monotonic() - start) * 1e3
            self.metrics.record_completion(version.ref, latency_ms)
            send({"rid": rid, "ok": True, "model": version.ref,
                  "output": t._value.tolist(),
                  "latency_ms": round(latency_ms, 3),
                  "replica": self.replica_id})

        ticket.add_done_callback(resolved)

    def _stats(self) -> dict:
        return {
            "replica": self.replica_id,
            "pid": os.getpid(),
            "blas_threads": threads.blas_threads(),
            "counters": dict(self.metrics.counters),
            "latency": self.metrics.snapshot()["latency"],
            "latency_samples": self.metrics.latency_samples(),
            "models": {name: info["active"]
                       for name, info in self.registry.models().items()},
        }


def _replica_main(replica_id: int, socket_path: str, heartbeats,
                  config: ReplicaConfig) -> None:
    """Process entry point: heartbeat thread + threaded socket service."""
    threads.set_blas_threads(threads.budget(config.replicas))
    service = _ReplicaService(replica_id, config)
    heartbeat(heartbeats, replica_id, config.heartbeat_s, service._stop)
    service.serve(socket_path)


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
