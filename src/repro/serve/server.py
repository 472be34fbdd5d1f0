"""Asyncio NDJSON inference server: the front door.

Wire protocol — one JSON object per ``\\n``-terminated line, one JSON
object back per request, stdlib only:

* ``{"op": "infer", "model": "name[@version]", "input": [...], "id": x}``
  (``op`` may be omitted; ``infer`` is the default) →
  ``{"id": x, "ok": true, "model": "name@vN", "output": [...],
  "latency_ms": ..., "served_by": "batch" | "eager"}``. Rejections are
  explicit and immediate: ``{"id": x, "ok": false, "error": "overloaded",
  "reason": "queue-full" | "slo"}``.
* ``{"op": "stats"}`` → the full :class:`~.metrics.ServerMetrics`
  snapshot plus per-model registry state (the ``/stats`` endpoint).
* ``{"op": "swap", "name": ..., "version": ..., "checkpoint"|"artifact":
  path}`` → hot-swap through :meth:`~.registry.ModelRegistry.deploy`;
  traffic keeps flowing while the replacement compiles and validates
  off-loop. A candidate that fails its gate (or a corrupt checkpoint)
  answers ``error: "swap-rejected"`` and the old version keeps serving.
* ``{"op": "models"}``, ``{"op": "ping"}`` — introspection.

Each connection is served sequentially (one in-flight request per
connection; open more connections for concurrency — the closed-loop load
model). Admission control runs *before* any compute or queueing, so an
overloaded server answers rejections in event-loop time, not model time.

Request lifecycle (PR 7): an ``infer`` request may carry ``deadline_ms``
(its remaining latency budget). A request that cannot meet its deadline
is shed at admission (``overloaded``/``deadline``); one that expires
while queued is evicted before its batch runs and answered with
``error: "expired"`` — either way no engine time is spent on an answer
nobody will read. ``aclose(drain=True)`` (and SIGTERM under ``repro
serve``) drains gracefully: the listening socket closes, new requests
get an explicit ``error: "draining"``, and every already-accepted
request completes before the loop shuts down. Requests carrying an
idempotency key (``rid``) are answered from a bounded replay cache on
retry, so a reconnecting client never double-counts work.

Fault containment mirrors the PR 5 supervisor: a request whose batched
ticket fails is retried on the current engine (covers the swap race,
where the old runner closed under it) and then falls back to a serial
eager forward; repeated faults mark the line degraded (all-eager) rather
than dropping accepted requests. See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..clock import SYSTEM_CLOCK, Clock
from ..infer.batcher import DeadlineExpired
from ..io.checkpoint import CheckpointCorruptError
from .metrics import ServerMetrics
from .registry import ModelRegistry, NoSuchModelError, SwapValidationError

__all__ = ["ServeConfig", "InferenceServer", "ServerThread"]


@dataclass(frozen=True)
class ServeConfig:
    """Socket + per-request limits of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 → ephemeral, see server.port
    request_timeout_s: float = 30.0     # ticket wait before cancel
    max_line_bytes: int = 8 * 2 ** 20   # readline limit per request
    drain_grace_s: float = 30.0         # in-flight budget for drain=True
    replay_cache_size: int = 1024       # idempotent-rid responses kept


class InferenceServer:
    """Routes NDJSON requests into a :class:`~.registry.ModelRegistry`."""

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None, *,
                 metrics: ServerMetrics | None = None,
                 clock: Clock = SYSTEM_CLOCK,
                 router=None):
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics or ServerMetrics()
        self.clock = clock
        # Replicated tier (optional): a ReplicaRouter dispatches accepted
        # requests across worker processes; the local registry stays as
        # the validated fallback path (and the degrade target).
        self.router = router
        if router is not None and router.metrics is None:
            router.metrics = self.metrics
        if getattr(registry, "metrics", None) is None:
            registry.metrics = self.metrics
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._replay: OrderedDict[str, dict] = OrderedDict()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        if self.router is not None:
            # Replicas must be connected and deployed before the socket
            # opens: the frontend never accepts traffic it cannot serve.
            await self.router.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=self.config.max_line_bytes)
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self, drain: bool = False,
                     grace: float | None = None) -> None:
        """Stop the server; with ``drain=True``, finish accepted work first.

        Drain order: the listening socket closes (no new connections),
        new requests on live connections are answered ``draining``, and
        the loop waits — up to ``grace`` seconds (default: the config's
        ``drain_grace_s``) — until every already-accepted request has
        been answered. Only then are the connections torn down, so a
        drain drops zero accepted requests.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            self._draining = True
            if self._inflight > 0 and self._idle is not None:
                grace = self.config.drain_grace_s if grace is None else grace
                try:
                    await asyncio.wait_for(self._idle.wait(), grace)
                except asyncio.TimeoutError:
                    pass        # grace spent; the rest is cancelled below
        for writer in list(self._writers):
            writer.close()
        if self.router is not None:
            # After the drain wait: accepted requests have been answered
            # (replicated or locally), so tearing the replicas down now
            # drops nothing.
            await self.router.aclose()

    def run_forever(self) -> None:
        """Blocking entry point used by ``repro serve``.

        SIGTERM and SIGINT trigger a graceful drain (see :meth:`aclose`)
        instead of killing in-flight requests.
        """
        async def main():
            await self.start()
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass        # non-main thread / exotic platform
            print(f"repro.serve listening on "
                  f"{self.config.host}:{self.port}")
            await stop.wait()
            print(f"repro.serve draining ({self._inflight} in flight, "
                  f"grace {self.config.drain_grace_s:.0f}s)")
            await self.aclose(drain=True)
            print("repro.serve drained; bye")
        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    # -- connection loop ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    # readuntil, not readline: on an over-limit line
                    # readline consumes an unpredictable amount of the
                    # buffer before raising, while readuntil leaves it
                    # intact — which is what lets _discard_oversized
                    # resynchronise on the newline.
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        break               # clean EOF
                    line = exc.partial      # final request, no newline
                except asyncio.LimitOverrunError:
                    if not await self._reject_oversized(reader, writer):
                        break
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                response = await self._dispatch(line)
                await self._send(writer, response)
                if response.get("bye"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler mid-read. Absorb it
            # and return normally: a task that finishes *cancelled* makes
            # the stream protocol's completion callback raise when it
            # polls task.exception() during loop teardown.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _reject_oversized(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> bool:
        """Consume and answer a line that overran ``max_line_bytes``
        (reading is what unblocks a client still writing it); True if
        the connection can read on — an oversized request is the
        client's bug, not a reason to hang up mid-stream."""
        self.metrics.incr("received")
        recovered = await self._discard_oversized(reader)
        await self._send(writer, {
            "ok": False, "error": "bad-request", "reason": "line-too-long",
            "message": (f"request line exceeds "
                        f"{self.config.max_line_bytes} bytes")})
        return recovered

    async def _discard_oversized(self, reader: asyncio.StreamReader) -> bool:
        """Eat the remainder of an over-limit line; True once its newline
        is reached (the connection can then resync on the next request).

        ``readuntil`` raises ``LimitOverrunError`` without consuming the
        buffer, in two flavours: separator *found* past the limit
        (``consumed`` = its index — dropping that many bytes puts the
        newline next) and separator *not yet seen* (``consumed`` = the
        searched length — drop it and keep reading). Either way the
        first ``consumed`` bytes are guaranteed part of the bad line.
        """
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                try:
                    await reader.readexactly(exc.consumed)
                    if await reader.readexactly(1) == b"\n":
                        return True
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return False
            except (asyncio.IncompleteReadError, ConnectionResetError,
                    ValueError):
                return False

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: dict) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(self, raw: bytes) -> dict:
        self.metrics.incr("received")
        try:
            msg = json.loads(raw)
            if not isinstance(msg, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return {"ok": False, "error": "bad-request", "message": str(exc)}
        op = msg.get("op", "infer")
        rid = msg.get("id")
        try:
            if op == "infer":
                return await self._infer(msg)
            if op == "stats":
                payload = self.stats()
                if self.router is not None:
                    payload["replicas"] = await self.router.fleet_snapshot()
                return {"id": rid, "ok": True, "stats": payload}
            if op == "models":
                return {"id": rid, "ok": True,
                        "models": self.registry.models()}
            if op == "ping":
                return {"id": rid, "ok": True, "pong": True}
            if op == "swap":
                return await self._swap(msg)
            return await self._other_op(op, msg)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self.metrics.incr("errors")
            return {"id": rid, "ok": False, "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}

    # -- ops ------------------------------------------------------------

    async def _other_op(self, op: str, msg: dict) -> dict:
        """Answer an op the public protocol does not define."""
        return {"id": msg.get("id"), "ok": False, "error": "unknown-op",
                "message": f"unknown op {op!r}"}

    def stats(self) -> dict:
        lifecycle = {"draining": self._draining, "inflight": self._inflight}
        if self.router is not None:
            lifecycle["replicas_degraded"] = self.router.degraded
            lifecycle["stop_reason"] = self.router.stop_reason
        return self.metrics.snapshot(extra={
            "models": self.registry.models(),
            "lifecycle": lifecycle})

    async def _swap(self, msg: dict) -> dict:
        rid = msg.get("id")
        if self._draining:
            return {"id": rid, "ok": False, "error": "draining",
                    "message": "server is draining; no new deployments"}
        name, version = msg.get("name"), msg.get("version")
        source = {key: msg[key] for key in ("checkpoint", "artifact")
                  if msg.get(key)}
        if not name or not version or len(source) != 1:
            return {"id": rid, "ok": False, "error": "bad-request",
                    "message": "swap needs name, version, and one of "
                               "checkpoint or artifact"}
        rolling = None
        if self.router is not None and self.router.usable:
            # Rolling deploy: one replica at a time through its own
            # compile+probe-validate gate. A rejection aborts with every
            # replica still on the old version — the local registry is
            # then never touched, so frontend and fleet stay consistent.
            rolling = await self.router.rolling_deploy(name, version,
                                                       **source)
            if not rolling.get("ok"):
                return {"id": rid, "ok": False, "error": "swap-rejected",
                        "message": rolling.get("message", ""),
                        "rolling": rolling}
        try:
            # Compile + validate off-loop so traffic keeps flowing.
            report = await asyncio.to_thread(
                self.registry.deploy, name, version, **source)
        except (SwapValidationError, CheckpointCorruptError) as exc:
            return {"id": rid, "ok": False, "error": "swap-rejected",
                    "message": str(exc), "rolling": rolling}
        self.metrics.incr("swaps")
        response = {"id": rid, "ok": True, "swap": report.as_dict()}
        if rolling is not None:
            response["rolling"] = rolling
        return response

    async def _infer(self, msg: dict) -> dict:
        rid = msg.get("id")
        if self._draining:
            self.metrics.record_rejection("draining")
            return {"id": rid, "ok": False, "error": "draining",
                    "message": "server is draining; no new requests"}
        idem = msg.get("rid")
        if idem is not None:
            cached = self._replay.get(idem)
            if cached is not None:
                # A retried idempotent request: answer from the cache so
                # the work (and every metric) is counted exactly once.
                self.metrics.incr("replayed")
                return {**cached, "id": rid, "replayed": True}
        ref = msg.get("model")
        if not ref or "input" not in msg:
            return {"id": rid, "ok": False, "error": "bad-request",
                    "message": "infer needs model and input"}
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) \
                    or not isinstance(deadline_ms, (int, float)) \
                    or not deadline_ms > 0:
                return {"id": rid, "ok": False, "error": "bad-request",
                        "message": "deadline_ms must be a positive number"}
            deadline_ms = float(deadline_ms)
        try:
            line, version = self.registry.resolve(ref)
        except NoSuchModelError as exc:
            return {"id": rid, "ok": False, "error": "no-such-model",
                    "message": str(exc.args[0])}
        admitted, reason = line.admission.try_admit(remaining_ms=deadline_ms)
        if not admitted:
            # The load-shedding fast path: no parse of the input payload
            # beyond this point, no queueing, no compute.
            self.metrics.record_rejection(reason)
            return {"id": rid, "ok": False, "error": "overloaded",
                    "reason": reason}
        start = self.clock.monotonic()
        deadline = None if deadline_ms is None else start + deadline_ms / 1e3
        self._inflight += 1
        if self._idle is not None:
            self._idle.clear()
        try:
            sample = np.asarray(msg["input"], dtype=np.float32)
            routed = None
            if self.router is not None and self.router.usable:
                routed = await self._route_replicated(ref, msg["input"],
                                                      deadline)
            if routed is not None:
                output_list, served_by, active_ref = routed
            else:
                output, served_by, active = await self._run(line, version,
                                                            sample, deadline)
                output_list, active_ref = output.tolist(), active.ref
            latency_ms = (self.clock.monotonic() - start) * 1e3
            self.metrics.record_completion(active_ref, latency_ms)
            response = {"id": rid, "ok": True, "model": active_ref,
                        "output": output_list, "served_by": served_by,
                        "latency_ms": round(latency_ms, 3)}
            if idem is not None:
                self._remember(idem, response)
            return response
        except DeadlineExpired as exc:
            self.metrics.incr("expired")
            return {"id": rid, "ok": False, "error": "expired",
                    "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - answer, don't drop
            self.metrics.incr("errors")
            kind = ("bad-request" if isinstance(exc, ValueError)
                    else "timeout" if isinstance(exc, TimeoutError)
                    else "internal")
            return {"id": rid, "ok": False, "error": kind,
                    "message": f"{type(exc).__name__}: {exc}"}
        finally:
            line.admission.on_complete(
                (self.clock.monotonic() - start) * 1e3)
            self._inflight -= 1
            if self._inflight == 0 and self._idle is not None:
                self._idle.set()

    async def _route_replicated(self, ref: str, raw_input, deadline):
        """Dispatch one request to the replica tier.

        Returns ``(output_list, served_by, model_ref)``, or ``None`` when
        the request should be served on the local in-process path instead
        (no routable replica, re-dispatch budget spent, the tier just
        degraded, or any answer but ``ok``, ``expired``, ``bad-request``
        and ``timeout``). A replica runs this same request path, so it
        has already been through the retry → eager ladder. Its output
        list is passed through verbatim — no numpy round-trip — so the
        bytes the replica computed are the bytes the client decodes.
        """
        from .router import ReplicasUnavailable
        try:
            replica, reply = await self.router.dispatch_infer(
                ref, raw_input, deadline)
        except ReplicasUnavailable:
            self.metrics.incr("replica_fallbacks")
            return None
        if reply.get("ok"):
            return (reply["output"], f"replica:{replica}",
                    reply.get("model", ref))
        error = reply.get("error")
        message = reply.get("message", f"{error} on replica {replica}")
        if error == "expired":
            raise DeadlineExpired(message)
        if error == "bad-request":
            raise ValueError(message)
        if error == "timeout":
            raise TimeoutError(message)
        # A fault the replica could not contain (an artifact line has no
        # eager model) or version skew: the local path still owns a
        # validated copy of every line — answer there, never drop.
        self.metrics.incr("replica_fallbacks")
        return None

    def _remember(self, idem: str, response: dict) -> None:
        """Cache one successful response under its idempotency key."""
        self._replay[idem] = response
        while len(self._replay) > self.config.replay_cache_size:
            self._replay.popitem(last=False)

    async def _run(self, line, version, sample, deadline=None):
        """Batched path with supervisor-style containment.

        Returns ``(output_row, served_by, version_served)``. Raises only
        when the request itself cannot be served — a client error from
        the eager path, a timeout, or an expired deadline; engine-side
        faults degrade, they do not drop.
        """
        if line.degraded:
            if deadline is not None and self.clock.monotonic() >= deadline:
                raise DeadlineExpired("request deadline passed before the "
                                      "eager path could run")
            out = await asyncio.to_thread(self.registry.eager_infer,
                                          line, version, sample)
            return out, "eager", version

        failure: BaseException | None = None
        for attempt in range(2):
            try:
                ticket = version.runner.submit(sample, deadline=deadline)
            except RuntimeError:
                # Runner closed under us (hot-swap race): re-resolve and
                # retry on whatever is active now.
                line, version = self.registry.resolve(version.name)
                continue
            outcome = await self._await_ticket(ticket, deadline)
            if outcome is _EXPIRED:
                raise DeadlineExpired("request deadline passed while "
                                      "waiting for its batch")
            if outcome is _TIMED_OUT:
                self.metrics.incr("cancelled")
                raise TimeoutError(
                    f"inference exceeded "
                    f"{self.config.request_timeout_s:.1f}s budget")
            value, failure = outcome
            if failure is None:
                return value, "batch", version
            if isinstance(failure, DeadlineExpired):
                # Evicted from the queue before its batch ran: final.
                raise failure
            if isinstance(failure, RuntimeError) and attempt == 0:
                # "BatchRunner is closed" surfaced through the ticket.
                line, version = self.registry.resolve(version.name)
                continue
            break

        # Batched path is faulty — serial eager fallback, then maybe
        # degrade the line. A ValueError here means the *request* was bad
        # (shape mismatch); that propagates to the client and is not a
        # serving fault.
        try:
            out = await asyncio.to_thread(self.registry.eager_infer,
                                          line, version, sample)
        except ValueError:
            raise
        except Exception:
            if failure is not None:
                raise failure
            raise
        self.metrics.incr("fallbacks")
        self.registry.note_fallback(line, version)
        return out, "eager", version

    async def _await_ticket(self, ticket, deadline=None):
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def resolved(t):
            def finish():
                if not future.done():
                    future.set_result((t._value, t._error))
            loop.call_soon_threadsafe(finish)

        ticket.add_done_callback(resolved)
        timeout = self.config.request_timeout_s
        deadline_bound = False
        if deadline is not None:
            remaining = max(deadline - self.clock.monotonic(), 0.0)
            if remaining < timeout:
                timeout, deadline_bound = remaining, True
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            ticket.cancel()
            return _EXPIRED if deadline_bound else _TIMED_OUT


_TIMED_OUT = object()
_EXPIRED = object()


class ServerThread:
    """Run an :class:`InferenceServer` on a background event loop.

    Tests, drills, and the load generator use this to host a real socket
    server inside the current process::

        with ServerThread(registry, ServeConfig()) as srv:
            client = ServeClient("127.0.0.1", srv.port)
    """

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None, **server_kwargs):
        self.server = InferenceServer(registry, config, **server_kwargs)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve")

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server.port is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.aclose())
            # Connection handlers parked on readline() survive loop.stop();
            # cancel and drain them so the loop closes without orphans.
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            self._loop.close()

    def drain(self, grace: float | None = None, timeout: float = 60.0) -> None:
        """Gracefully drain the hosted server from the calling thread.

        Blocks until every accepted request has been answered (or
        ``grace`` seconds passed); the event loop keeps running so the
        draining responses still flow — call :meth:`stop` afterwards.
        """
        if self._loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.aclose(drain=True, grace=grace), self._loop)
        future.result(timeout)

    def stop(self) -> None:
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
