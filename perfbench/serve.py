"""Workload ``serve_local``: socket serving, in bursts and saturated.

The in-process server (:mod:`perfbench.serve_child`) runs in a child
process and serves the ``bench_serve`` models ``vgg11-dense``,
``vgg11-pruned`` and ``vgg11-int8`` in equal shares. The load generator
is this process: one asyncio thread, two connections, requests
pre-encoded as NDJSON.

Phases of a run, all checked for correct outputs:

1. warm-up at :data:`FIXED_RATE`;
2. traced runs only: an open loop at :data:`FIXED_RATE` (requests
   written on their due times whatever the server does) for
   :data:`FIXED_SHARE` of the run's seconds, untraced and then traced;
   latency counts from a request's due time, a failed request counted
   as :data:`ANSWER_TIMEOUT_S`;
3. :data:`ROUNDS` rounds, so that both figures spread over the whole
   run, of

   * :data:`BURSTS` bursts of :data:`BURST` requests sent at once —
     ``loop_s`` is the median server CPU time to answer one;
   * a closed loop that keeps :data:`WINDOW` requests outstanding, for
     :data:`SATURATE_SHARE` of the run's seconds over all rounds —
     ``capacity_rps`` is the requests answered ok per second of the
     server process's CPU time.

The end-to-end figures divide by the server's CPU time, not wall time,
because on a shared host the hypervisor gives the guest's CPUs to other
guests in bursts (``cpu_steal_share`` in the host block). Over 22
saturated phases of 4 s on a 2-CPU VM the answers per wall second (per
1 s window) ranged from 219 to 531 while the server's CPU time per
answer ranged from 2.1 to 2.9 ms, and the p50 at 100 rps read 4.9 ms in
quiet runs and 7.9 ms in runs with a fifth of the CPU stolen. The
wall-clock figures are reported per layer.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from repro.serve.bench import _BENCH_MODEL as MODEL

from . import stats

SAMPLE_SHAPE = (3, MODEL["image_size"], MODEL["image_size"])
MAX_BATCH = 16
REFS = {"dense": "vgg11-dense", "pruned": "vgg11-pruned",
        "int8": "vgg11-int8"}
VARIANTS = tuple(REFS)
#: The network each variant serves (int8 quantizes the pruned one).
SOURCE = {"dense": "dense", "pruned": "pruned", "int8": "pruned"}

CONNECTIONS = 2
DISTINCT = 16                 # distinct payloads per model
#: The open-loop rate of the latency phase: well below the capacity of
#: a slow, shared 2-CPU host (about 150-450 rps), so that the phase times
#: the path of a request and not a queue that the host's speed of the
#: moment lets grow or not.
FIXED_RATE = 100.0
FIXED_SHARE = 0.5
#: Requests of the fixed-rate phase at the least, so that its p99 has
#: ten samples beyond it.
FIXED_REQUESTS = 1000
#: Requests outstanding in the saturated phase, split over the
#: connections: the server never runs out of work, and stays well below
#: its pending bound (256), so nothing is shed.
WINDOW = 64
ROUNDS = 3
SATURATE_SHARE = 0.5
#: The saturated phase sends at most this many requests a second.
MAX_RATE = 5000.0
BURST = 240
BURSTS = 5
WARMUP = 200
#: Outputs must match the engine run directly within the compile
#: tolerance of :func:`repro.infer.compile_model`.
RTOL, ATOL = 1e-4, 1e-5
#: Server set-ups timed at start and after each round, with a pause
#: after each. They are spread over the run because the host's speed
#: changes from one second to the next.
SETUPS = 4
SETUP_GAP_S = 0.15
ANSWER_TIMEOUT_S = 10.0


def payloads(seed: int) -> dict[str, np.ndarray]:
    """The distinct request inputs of each model, from the seed."""
    rng = np.random.default_rng([seed, 1])
    return {v: rng.normal(size=(DISTINCT, *SAMPLE_SHAPE)).astype(np.float32)
            for v in VARIANTS}


def schedule(rng, n: int, rate: float) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Due offsets (s), model index and payload index of ``n`` requests
    at ``rate``; a rate of ``inf`` makes every request due at once.

    Requests fall due evenly spaced (a constant-rate open loop). With
    Poisson arrivals the tail latency of a phase varied so much more
    between seeds that it hid the program's own changes.
    """
    due = np.zeros(n) if math.isinf(rate) else np.arange(n) / rate
    which = rng.permutation(np.arange(n) % len(VARIANTS))
    sample = rng.integers(DISTINCT, size=n)
    return due, which, sample


class Phase:
    """What one phase sent and got back."""

    def __init__(self, n: int):
        self.start = 0.0
        self.due = [0.0] * n
        self.sent: list = [None] * n
        self.done: list = [None] * n
        self.ok = [False] * n
        self.output: list = [None] * n
        self.which = None
        self.sample = None
        self.count = 0          # requests actually sent

    def trim(self) -> None:
        n = self.count
        for name in ("due", "sent", "done", "ok", "output"):
            setattr(self, name, getattr(self, name)[:n])
        self.which = self.which[:n]
        self.sample = self.sample[:n]


class Client:
    """The generator: pre-encoded lines, pipelined writes."""

    def __init__(self, port: int, seed: int, reference: dict):
        self.port = port
        self.reference = {v: np.asarray(reference[v], dtype=np.float32)
                          for v in VARIANTS}
        inputs = payloads(seed)
        self.prefix = {
            (k, j): (f'{{"model": "{REFS[v]}", "input": '
                     f'{json.dumps(inputs[v][j].tolist())}, "id": ')
            .encode()
            for k, v in enumerate(VARIANTS) for j in range(DISTINCT)}
        self.readers = []
        self.writers = []
        self.wrong = 0
        self.failed = 0
        self.attempted = 0
        self.ok_by_variant = collections.Counter()
        self.errors = collections.Counter()

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=2 ** 22)
            self.readers.append(reader)
            self.writers.append(writer)

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def stats(self) -> dict:
        """The server's ``stats`` op, on a connection of its own."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=2 ** 24)
        try:
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()
        return reply["stats"]

    async def run(self, rng, n: int, rate: float,
                  window: int | None = None,
                  seconds: float | None = None) -> Phase:
        """Send ``n`` requests and wait for every answer.

        Without ``window`` the loop is open: request ``i`` is written on
        its due time at ``rate`` whatever the server does. With
        ``window`` it is closed: a request is written as soon as fewer
        than ``window`` are outstanding (its due time is when it is
        written), and sending stops after ``seconds``. Requests not
        answered within :data:`ANSWER_TIMEOUT_S` of the last send count
        as failed, and the connections are replaced.
        """
        due_offsets, which, sample = schedule(rng, n, rate)
        phase = Phase(n)
        phase.which, phase.sample = which, sample
        fifos = [collections.deque() for _ in range(CONNECTIONS)]
        answered = 0
        all_answered = asyncio.Event()
        room = asyncio.Event()
        clock = time.perf_counter

        async def read(c: int) -> None:
            nonlocal answered
            reader = self.readers[c]
            while True:
                line = await reader.readline()
                now = clock()
                if not line:
                    return
                i = fifos[c].popleft()
                phase.done[i] = now
                msg = json.loads(line)
                good = msg.get("ok") is True and msg.get("id") == i
                phase.ok[i] = good
                phase.output[i] = msg.get("output") if good else None
                if not good:
                    self.errors[f"{msg.get('error')}: "
                                f"{msg.get('message', '')}"[:120]] += 1
                answered += 1
                room.set()
                if answered == phase.count and sending_done:
                    all_answered.set()

        def send(i: int, due: float) -> None:
            c = i % CONNECTIONS
            fifos[c].append(i)
            phase.due[i] = due
            phase.sent[i] = clock()
            self.writers[c].write(
                self.prefix[(int(which[i]), int(sample[i]))]
                + str(i).encode() + b"}\n")

        sending_done = False
        readers = [asyncio.create_task(read(c)) for c in range(CONNECTIONS)]
        try:
            start = phase.start = clock() + 0.005
            i = 0
            while i < n:
                if window is None:
                    wait = start + due_offsets[i] - clock()
                    if wait > 0:
                        await asyncio.sleep(wait)
                        continue
                    while i < n and start + due_offsets[i] <= clock():
                        send(i, start + due_offsets[i])
                        i += 1
                else:
                    if clock() >= start + seconds:
                        break
                    if i - answered >= window:
                        room.clear()
                        await room.wait()
                        continue
                    while i < n and i - answered < window:
                        send(i, clock())
                        i += 1
                phase.count = i
            phase.count = i
            sending_done = True
            if answered == phase.count:
                all_answered.set()
            try:
                await asyncio.wait_for(all_answered.wait(),
                                       ANSWER_TIMEOUT_S)
            except asyncio.TimeoutError:
                timed_out = True
            else:
                timed_out = False
        finally:
            for task in readers:
                task.cancel()
            for result in await asyncio.gather(*readers,
                                               return_exceptions=True):
                if isinstance(result, Exception):
                    self.errors[f"reader: {result!r}"[:120]] += 1
        if timed_out:
            self.errors["unanswered"] += phase.count - answered
            # Late answers would pair with the next phase's requests.
            await self.close()
            self.readers, self.writers = [], []
            await self.connect()
        phase.trim()
        self._check(phase)
        return phase

    def _check(self, phase: Phase) -> None:
        """Count failures and compare every ok output to the engine's."""
        self.attempted += phase.count
        for i in range(phase.count):
            if not phase.ok[i]:
                self.failed += 1
                continue
            variant = VARIANTS[int(phase.which[i])]
            ref = self.reference[variant][int(phase.sample[i])]
            out = np.asarray(phase.output[i], dtype=np.float32)
            if out.shape != ref.shape or not np.allclose(
                    out, ref, rtol=RTOL, atol=ATOL) \
                    or int(np.argmax(out)) != int(np.argmax(ref)):
                self.wrong += 1
            else:
                self.ok_by_variant[variant] += 1


class ServerProcess:
    """The child process hosting the server; always stopped and reaped."""

    def __init__(self, root: Path, seed: int, trace: bool):
        cmd = [sys.executable, "-m", "perfbench.serve_child",
               "--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server child exited before it was ready "
                               f"(exit code {self.proc.returncode})")
        self.ready = json.loads(line)

    def command(self, cmd: str, reply: bool = False):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        if reply:
            return json.loads(self.proc.stdout.readline())
        return None

    def cpu_s(self) -> float:
        """CPU time the server process has used, all threads."""
        return self.command("cpu", reply=True)["cpu_s"]

    def setups(self) -> list[float]:
        """Times of more set-ups, made beside the serving server."""
        return self.command("setup", reply=True)["setup_s"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.command("quit")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run(seed: int, seconds: float, traced: bool, root: Path, log) -> dict:
    server = ServerProcess(root, seed, traced)
    try:
        return asyncio.run(_measure(server, seed, seconds, traced, log))
    finally:
        server.stop()


async def _measure(server: ServerProcess, seed: int, seconds: float,
                   traced: bool, log) -> dict:
    ready = server.ready
    client = Client(ready["port"], seed, ready["reference"])
    rng = np.random.default_rng([seed, 2])
    await client.connect()
    out = {"setup": ready["setup_s"], "flops": ready["flops"]}
    late = []

    async def phase(n: int, rate: float, **closed) -> Phase:
        # The generator's own collector must not stall the schedule.
        gc.disable()
        try:
            result = await client.run(rng, n, rate, **closed)
        finally:
            gc.enable()
            gc.collect()
        late.append(stats.late_ms_max(result.due, result.sent))
        return result

    async def fixed_phase() -> list[float]:
        result = await phase(max(FIXED_REQUESTS, round(
            seconds * FIXED_SHARE * FIXED_RATE)), FIXED_RATE)
        # A failed request is charged the longest the generator waits
        # for an answer.
        return [min(ms, ANSWER_TIMEOUT_S * 1e3) for ms in stats.latencies_ms(
            result.due, [d if ok else None
                         for d, ok in zip(result.done, result.ok)])]

    async def bursts() -> tuple[list[float], list[float]]:
        cpu, wall = [], []
        for _ in range(BURSTS):
            cpu_s = server.cpu_s()
            burst = await phase(BURST, math.inf)
            cpu.append(server.cpu_s() - cpu_s)
            wall.append(max(d for d in burst.done if d is not None)
                        - min(burst.sent))
        return cpu, wall

    async def saturate() -> tuple[int, float, float]:
        span = seconds * SATURATE_SHARE / ROUNDS
        cpu_s = server.cpu_s()
        result = await phase(math.ceil(span * MAX_RATE), math.inf,
                             window=WINDOW, seconds=span)
        cpu_s = server.cpu_s() - cpu_s
        wall_s = max(d for d in result.done if d is not None) - result.start
        return sum(result.ok), cpu_s, wall_s

    try:
        await phase(WARMUP, FIXED_RATE)
        if traced:
            plain = await fixed_phase()
            server.command("on")
            lat = await fixed_phase()
            out["p50_ms"] = stats.median(lat)
            out["p90_ms"] = stats.tail(lat, 90)
            out["p99_ms"] = stats.tail(lat, 99)
            log(f"fixed {FIXED_RATE:.0f} rps, {len(lat)} requests: p50 "
                f"{out['p50_ms']:.3f} ms, p90 {out['p90_ms']:.3f} ms, "
                f"p99 {out['p99_ms']:.3f} ms")
            # Queue wait and server latency belong to the fixed phase;
            # engine and batcher spans to the bursts and saturation.
            server.command("off")
            out["trace_fixed"] = server.command("report", reply=True)
            out["server_stats"] = await client.stats()
            out["trace_overhead"] = out["p50_ms"] / stats.median(plain) - 1
            server.command("reset")
            server.command("on")
        burst_cpu, burst_wall = [], []
        answered, cpu_s, wall_s = 0, 0.0, 0.0
        for _ in range(ROUNDS):
            cpu, wall = await bursts()
            burst_cpu += cpu
            burst_wall += wall
            log(f"bursts of {BURST}: server CPU {[round(t, 4) for t in cpu]}"
                f" s, wall {[round(t, 4) for t in wall]} s")
            n, cpu, wall = await saturate()
            answered, cpu_s, wall_s = answered + n, cpu_s + cpu, wall_s + wall
            log(f"{WINDOW} outstanding: {n} answers in {cpu:.3f} s of server "
                f"CPU, {wall:.3f} s")
            out["setup"] += server.setups()
        out["loop_s"] = stats.median(burst_cpu)
        out["burst_s"] = stats.median(burst_wall)
        out["capacity_rps"] = answered / cpu_s
        out["saturated_rps"] = answered / wall_s
        if traced:
            server.command("off")
            out["trace"] = server.command("report", reply=True)
        out["late_ms_max"] = max(late)
        if client.failed:
            stats_now = await client.stats()
            log(f"server counters after failures: {stats_now['counters']}")
    finally:
        await client.close()
    for error, count in client.errors.items():
        log(f"{count} requests failed with {error}")
    out.update(attempted=client.attempted, failed=client.failed + client.wrong,
               wrong=client.wrong, ok_by_variant=dict(client.ok_by_variant))
    return out
