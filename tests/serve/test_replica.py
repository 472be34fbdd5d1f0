"""Replicated serving tier: replica processes, health-probed router.

Three layers, cheapest first:

* pure-unit coverage of :class:`ReplicaSpec` / :class:`ReplicaConfig`
  and the router's ``probe_scan`` (fake peers, no sockets, no clock);
* :class:`ReplicaSet` process lifecycle — spawn, ledgered artifacts,
  kill/respawn within budget, budget exhaustion;
* end-to-end through a real server + fleet: bitwise answers, SIGKILL
  failover, degrade-to-local with ``stop_reason``, rolling deploy.
"""

import asyncio
import json
import multiprocessing as mp
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.infer import compile_model
from repro.io import load_model, save_model
from repro.models import build_model
from repro.infer.runtime import InferenceEngine
from repro.parallel import reaper
from repro.qinfer import save_plan
from repro.serve import (ModelRegistry, ReplicaConfig, ReplicaRouter,
                         ReplicaSet, ReplicaSpec, ServeConfig, ServerThread,
                         SheddingConfig)
from repro.serve.client import ServeClient
from repro.verify.invariants import perturb_batchnorm_stats


def _tiny_model(seed=0, pruned=False):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    if pruned:
        from repro.infer.bench import _prune_model
        _prune_model(model, seed)
    model.eval()
    return model


def _checkpoint(tmp_path, name="m.npz", seed=0, pruned=False) -> Path:
    path = Path(tmp_path) / name
    save_model(_tiny_model(seed, pruned=pruned), path)
    return path


def _ref_engine(checkpoint, seed=0):
    model = load_model(str(checkpoint))
    model.eval()
    probe = np.random.default_rng(seed).normal(
        size=(4, 3, 8, 8)).astype(np.float32)
    return compile_model(model, probe, max_batch=1)


def _artifact(tmp_path, checkpoint, name="m.rplan") -> Path:
    """A compiled fp32 plan of ``checkpoint``'s model, saved as an
    artifact (its top-1 answers agree with the checkpoint's)."""
    path = Path(tmp_path) / name
    save_plan(_ref_engine(checkpoint).plan, path)
    return path


def _poll(predicate, timeout_s=15.0, interval_s=0.01) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True


class TestSpecAndConfig:
    def test_spec_ref_and_deploy_payload(self):
        spec = ReplicaSpec("m", "v2", checkpoint="/tmp/m.npz")
        assert spec.ref == "m@v2"
        payload = spec.deploy_payload()
        assert payload["op"] == "swap"
        assert payload["name"] == "m"
        assert payload["version"] == "v2"
        assert payload["checkpoint"] == "/tmp/m.npz"

    def test_retry_policy_is_bounded_by_the_respawn_budget(self):
        config = ReplicaConfig(max_respawns=2, respawn_base_delay_s=0.5,
                               respawn_max_delay_s=1.0)
        policy = config.retry_policy()
        assert policy.max_attempts == 3          # budget + the first spawn
        assert policy.delay(5) <= 1.0 * 1.1      # capped (plus jitter)


class _FakeWriter:
    def __init__(self):
        self.lines = []

    def is_closing(self):
        return False

    def write(self, data):
        self.lines.append(data)


class _FakeHandle:
    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.generation = 1
        self.restarts = 0
        self.kill_reason = None


class _FakeSet:
    """Just enough ReplicaSet surface for the router's probe machinery."""

    def __init__(self, config, seats=2):
        self.config = config
        self.handles = [_FakeHandle(i) for i in range(seats)]
        self.killed = []

    def kill(self, replica_id, reason, kind="hang"):
        self.killed.append((replica_id, kind))


class TestProbeScanDeterministic:
    """probe_scan(now) is pure state-machine: drive it with bare floats."""

    def _router(self, **config_kw):
        config_kw.setdefault("probe_timeout_s", 1.0)
        fake = _FakeSet(ReplicaConfig(**config_kw))
        router = ReplicaRouter(fake, [])
        for peer in router._peers:
            peer.alive = True
            peer.routable = True
            peer.writer = _FakeWriter()
        return router, fake

    def test_scan_sends_one_ping_per_routable_peer(self):
        router, fake = self._router()
        router._peers[1].routable = False
        router.probe_scan(now=100.0)
        assert router._peers[0].probe_rid is not None
        assert router._peers[0].probe_sent_at == 100.0
        assert len(router._peers[0].writer.lines) == 1
        assert b'"ping"' in router._peers[0].writer.lines[0]
        assert router._peers[1].probe_rid is None   # unroutable: skipped

    def test_answered_probe_closes_the_loop_and_rearms(self):
        router, fake = self._router()
        peer = router._peers[0]
        router.probe_scan(now=0.0)
        rid = peer.probe_rid
        router._on_reply(peer, {"id": rid, "pong": True})
        assert peer.probe_rid is None
        assert peer.breaker.state == "closed"
        router.probe_scan(now=0.5)                  # re-arms immediately
        assert peer.probe_rid is not None
        assert peer.probe_rid != rid
        assert fake.killed == []

    def test_unanswered_probe_past_timeout_kills_as_hang(self):
        router, fake = self._router(probe_timeout_s=1.0)
        peer = router._peers[0]
        router._peers[1].routable = False       # isolate peer 0
        router.probe_scan(now=0.0)
        router.probe_scan(now=0.999)                # within budget: waits
        assert fake.killed == []
        router.probe_scan(now=1.0)                  # at the limit: hang
        assert fake.killed == [(0, "hang")]
        assert peer.breaker.consecutive_failures == 1

    def test_in_flight_probe_is_not_doubled(self):
        router, fake = self._router(probe_timeout_s=10.0)
        peer = router._peers[0]
        router.probe_scan(now=0.0)
        router.probe_scan(now=1.0)
        assert len(peer.writer.lines) == 1          # one outstanding ping


class TestReplicaSetLifecycle:
    def _config(self, tmp_path, **kw):
        kw.setdefault("replicas", 2)
        kw.setdefault("max_batch", 1)
        kw.setdefault("respawn_base_delay_s", 0.01)
        kw.setdefault("respawn_max_delay_s", 0.02)
        return ReplicaConfig(**kw)

    def test_spawn_registers_artifacts_and_close_reclaims(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path))
        try:
            assert _poll(lambda: all(
                h.socket_path.exists() and h.pid_path.exists()
                for h in rset.handles))
            entries = {e for e in reaper.live_segments()
                       if e.startswith("path:")}
            # Socket dir + per-replica socket and pid file, all ledgered
            # so a crashed parent's sweep can reclaim them.
            assert len(entries) >= 1 + 2 * len(rset.handles)
            paths = [h.socket_path for h in rset.handles]
        finally:
            rset.close()
        assert all(not p.exists() for p in paths)
        assert not any(e.startswith("path:") for e in reaper.live_segments())
        assert all(not h.alive for h in rset.handles)

    def test_kill_and_respawn_replaces_the_seat(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path))
        try:
            assert _poll(lambda: rset.handles[0].socket_path.exists())
            old_generation = rset.handles[0].generation
            rset.kill(0, reason="test kill", kind="crash")
            assert _poll(lambda: not rset.handles[0].alive)
            assert rset.respawn(0) is True
            handle = rset.handles[0]
            assert handle.generation > old_generation
            assert _poll(lambda: handle.alive and
                         handle.socket_path.exists())
            assert rset.respawns_used == 1
            kinds = [e.kind for e in rset.events]
            assert "crash" in kinds and "respawn" in kinds
        finally:
            rset.close()

    def test_respawn_budget_exhaustion_emits_degrade(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path, max_respawns=0))
        try:
            rset.kill(0, reason="test kill", kind="crash")
            assert _poll(lambda: not rset.handles[0].alive)
            assert rset.respawn(0) is False
            assert rset.respawns_used == 0
            assert [e.kind for e in rset.events] == ["crash", "degrade"]
            assert rset.respawn(1) is False      # degraded: no second event
            assert rset.degrade("asked again") is False
            assert [e.kind for e in rset.events] == ["crash", "degrade"]
        finally:
            rset.close()


class TestReplicatedServing:
    """End-to-end: client -> server -> router -> replica fleet."""

    def _stack(self, tmp_path, **config_kw):
        checkpoint = _checkpoint(tmp_path)
        config_kw.setdefault("replicas", 2)
        config_kw.setdefault("max_batch", 1)
        config_kw.setdefault("respawn_base_delay_s", 0.01)
        config_kw.setdefault("probe_interval_s", 0.1)
        rset = ReplicaSet(ReplicaConfig(**config_kw))
        router = ReplicaRouter(
            rset, [ReplicaSpec("m", "v1", checkpoint=str(checkpoint))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=0)
        return checkpoint, rset, router, registry

    def test_replicated_answers_are_bitwise_and_attributed(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(tmp_path)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(7)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    for _ in range(6):
                        sample = rng.normal(size=(3, 8, 8)).astype(
                            np.float32)
                        response = client.infer_verbose("m", sample)
                        assert response["served_by"].startswith("replica:")
                        assert response["model"] == "m@v1"
                        out = np.asarray(response["output"], np.float32)
                        assert np.array_equal(
                            out, reference.run(sample[None])[0])
                    stats = client.stats()
                fleet = stats["replicas"]
                assert fleet["degraded"] is False
                assert fleet["fleet"]["counters"]["completed"] == 6
                assert stats["counters"]["completed"] == 6
        finally:
            rset.close()

    def test_sigkill_failover_serves_every_request_once(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(
            tmp_path, engine_delay_ms=5.0)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(11)
        answered = []
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    for i in range(8):
                        if i == 2:
                            rset.handles[0].proc.kill()
                        sample = rng.normal(size=(3, 8, 8)).astype(
                            np.float32)
                        answered.append((sample, c.infer("m", sample)))
                    stats = c.stats()
        finally:
            rset.close()
        assert len(answered) == 8
        for sample, out in answered:
            assert np.array_equal(out, reference.run(sample[None])[0])
        assert stats["counters"]["completed"] == 8       # exactly once
        assert "respawn" in [e.kind for e in rset.events]
        assert stats["replicas"]["degraded"] is False

    def test_degrade_to_local_sets_stop_reason(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(
            tmp_path, max_respawns=0)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(13)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                    first = c.infer_verbose("m", sample)
                    assert first["served_by"].startswith("replica:")

                    rset.handles[0].proc.kill()
                    assert _poll(lambda: router.degraded)
                    after = c.infer_verbose("m", sample)
                    # Served, correctly, by the in-process fallback path.
                    assert not after["served_by"].startswith("replica:")
                    assert np.array_equal(
                        np.asarray(after["output"], np.float32),
                        reference.run(sample[None])[0])
                    stats = c.stats()
                assert stats["lifecycle"]["replicas_degraded"] is True
                assert stats["lifecycle"]["stop_reason"] == \
                    "replicas-degraded"
        finally:
            rset.close()
        # One degrade, one event: the set's budget check and the router's
        # fallback share the set's idempotent degrade().
        assert [e["kind"] for e in stats["replicas"]["events"]] == \
            ["crash", "degrade"]
        assert [e.kind for e in rset.events] == ["crash", "degrade"]
        assert rset.degraded

    def test_rolling_deploy_moves_the_whole_fleet(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(tmp_path)
        ckpt_v2 = _checkpoint(tmp_path, name="v2.npz", pruned=True)
        reference_v2 = _ref_engine(ckpt_v2)
        rng = np.random.default_rng(17)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    response = c.request(
                        {"op": "swap", "name": "m", "version": "v2",
                         "checkpoint": str(ckpt_v2)})
                    assert response["rolling"]["ok"] is True
                    assert sorted(response["rolling"]["updated"]) == [0, 1]
                    sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                    after = c.infer_verbose("m", sample)
                    assert after["model"] == "m@v2"
                    assert np.array_equal(
                        np.asarray(after["output"], np.float32),
                        reference_v2.run(sample[None])[0])
                    stats = c.stats()
                models = {rid: entry.get("models", {}).get("m")
                          for rid, entry in
                          stats["replicas"]["per_replica"].items()}
                assert models == {"0": "m@v2", "1": "m@v2"}
                assert stats["models"]["m"]["active"] == "m@v2"
                assert "rolling" in [e.kind for e in rset.events]
        finally:
            rset.close()

    def test_line_past_the_link_limit_is_served_locally(self, tmp_path,
                                                        monkeypatch):
        from repro.serve import router as router_module
        checkpoint, rset, router, registry = self._stack(tmp_path)
        reference = _ref_engine(checkpoint)
        sample = np.random.default_rng(19).normal(
            size=(3, 8, 8)).astype(np.float32)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    # Links are up; from here on an infer line is longer
                    # than a replica would read.
                    monkeypatch.setattr(router_module, "_LINE_LIMIT", 512)
                    response = c.infer_verbose("m", sample)
                    stats = c.stats()
        finally:
            rset.close()
        assert response["served_by"] == "batch"
        assert np.array_equal(np.asarray(response["output"], np.float32),
                              reference.run(sample[None])[0])
        assert stats["counters"]["replica_fallbacks"] == 1
        assert stats["replicas"]["degraded"] is False

    def test_burst_past_the_replica_default_bound_is_never_shed(
            self, tmp_path):
        # 160 concurrent requests, ~80 per replica: past the replica
        # registry's default max_pending (64), inside the front door's 256.
        checkpoint, rset, router, _ = self._stack(tmp_path,
                                                   engine_delay_ms=5.0)
        registry = ModelRegistry(max_batch=1, shedding=SheddingConfig(
            max_pending=256, p99_budget_ms=None))
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=0)
        sample = [[[0.5] * 8] * 8] * 3
        burst = 160

        async def one(port, i):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(json.dumps({"id": i, "model": "m",
                                     "input": sample}).encode() + b"\n")
            reply = json.loads(await reader.readline())
            writer.close()
            return reply

        async def fire(port):
            return await asyncio.gather(*(one(port, i)
                                          for i in range(burst)))

        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                replies = asyncio.run(fire(srv.port))
                with ServeClient("127.0.0.1", srv.port) as c:
                    stats = c.stats()
        finally:
            rset.close()
        assert [r.get("error") for r in replies
                if not r["ok"]] == []                   # no "overloaded"
        assert all(r["served_by"].startswith("replica:") for r in replies)
        assert stats["counters"].get("replica_fallbacks", 0) == 0
        assert stats["replicas"]["fleet"]["counters"]["rejected"] == 0
        assert stats["replicas"]["fleet"]["counters"]["completed"] == burst


class _Link:
    """Blocking NDJSON client on one replica's unix socket."""

    def __init__(self, socket_path, timeout_s=60.0):
        assert _poll(lambda: Path(socket_path).exists())
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(str(socket_path))
        self.stream = self.sock.makefile("rwb")
        self.seq = 0

    def send_line(self, line: bytes) -> dict:
        self.stream.write(line + b"\n")
        self.stream.flush()
        return json.loads(self.stream.readline())

    def request(self, payload: dict) -> dict:
        self.seq += 1
        reply = self.send_line(json.dumps({**payload, "id": self.seq})
                               .encode())
        assert reply.get("id") == self.seq
        return reply

    def close(self):
        self.stream.close()
        self.sock.close()


class TestReplicaLink:
    """A replica answers the public protocol in the front door's shapes."""

    def test_ops_answer_in_front_door_shapes(self, tmp_path):
        checkpoint = _checkpoint(tmp_path)
        artifact = _artifact(tmp_path, checkpoint)
        corrupt = Path(tmp_path) / "bad.rplan"
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        corrupt.write_bytes(bytes(raw))
        reference = _ref_engine(checkpoint)
        sample = np.random.default_rng(3).normal(
            size=(3, 8, 8)).astype(np.float32)
        rset = ReplicaSet(ReplicaConfig(replicas=1, max_batch=1))
        link = _Link(rset.handles[0].socket_path)
        try:
            assert link.request({"op": "ping"}) == {
                "id": link.seq, "ok": True, "pong": True}

            swapped = link.request({"op": "swap", "name": "m",
                                    "version": "v1",
                                    "checkpoint": str(checkpoint)})
            assert swapped["ok"] is True
            assert swapped["swap"]["version"] == "v1"
            assert swapped["swap"]["swapped_from"] is None

            reply = link.request({"op": "infer", "model": "m",
                                  "input": sample.tolist()})
            assert set(reply) == {"id", "ok", "model", "output",
                                  "served_by", "latency_ms"}
            assert reply["model"] == "m@v1"
            assert reply["served_by"] == "batch"
            assert np.array_equal(np.asarray(reply["output"], np.float32),
                                  reference.run(sample[None])[0])

            swapped = link.request({"op": "swap", "name": "m",
                                    "version": "v2",
                                    "artifact": str(artifact)})
            assert swapped["ok"] is True
            assert swapped["swap"]["swapped_from"] == "v1"
            assert swapped["swap"]["artifact"] == str(artifact)

            rejected = link.request({"op": "swap", "name": "m",
                                     "version": "v3",
                                     "artifact": str(corrupt)})
            assert rejected["ok"] is False
            assert rejected["error"] == "swap-rejected"
            after = link.request({"model": "m", "input": sample.tolist()})
            assert after["ok"] is True and after["model"] == "m@v2"

            stats = link.request({"op": "stats"})["stats"]
            assert stats["counters"]["completed"] == 2
            assert stats["counters"]["swaps"] == 2
            assert stats["models"]["m"]["active"] == "m@v2"
            assert stats["lifecycle"]["draining"] is False
            assert len(stats["latency_samples"]) == 2
            assert "blas_threads" in stats

            for op in ("deploy", "shutdown"):
                gone = link.request({"op": op, "name": "m", "version": "v4",
                                     "checkpoint": str(checkpoint)})
                assert gone["ok"] is False and gone["error"] == "unknown-op"
            assert link.request({"op": "ping"})["pong"] is True
        finally:
            link.close()
            rset.close()

    def test_link_reads_lines_past_64_kib(self, tmp_path):
        checkpoint = _checkpoint(tmp_path)
        rset = ReplicaSet(ReplicaConfig(replicas=1, max_batch=1))
        link = _Link(rset.handles[0].socket_path)
        try:
            assert link.request({"op": "swap", "name": "m", "version": "v1",
                                 "checkpoint": str(checkpoint)})["ok"]
            sample = np.zeros((3, 8, 8), np.float32).tolist()
            line = json.dumps({"id": "big", "model": "m", "input": sample,
                               "pad": "x" * 70_000}).encode()
            assert len(line) > 64 * 1024
            reply = link.send_line(line)
            assert reply["id"] == "big" and reply["ok"] is True
        finally:
            link.close()
            rset.close()


_BATCHER = "repro-infer-batcher"


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the fault is planted in the parent before fork")
class TestReplicaFaultContainment:
    """A replica contains its own batched-path faults with the front
    door's retry -> eager ladder; only what it cannot contain comes back
    to the front door's local path."""

    def test_batched_fault_is_contained_inside_the_replica(
            self, tmp_path, monkeypatch):
        checkpoint = _checkpoint(tmp_path)
        artifact = _artifact(tmp_path, checkpoint)
        reference = _ref_engine(checkpoint)
        clean_run = InferenceEngine.run

        def faulty_run(self, batch):
            # Only the batch worker faults; deploy-gate probes (run on
            # other threads) still compile and validate.
            if threading.current_thread().name == _BATCHER:
                raise RuntimeError("planted batched-path fault")
            return clean_run(self, batch)

        monkeypatch.setattr(InferenceEngine, "run", faulty_run)
        rset = ReplicaSet(ReplicaConfig(replicas=1, max_batch=1))
        monkeypatch.setattr(InferenceEngine, "run", clean_run)   # parent
        router = ReplicaRouter(rset, [
            ReplicaSpec("m", "v1", checkpoint=str(checkpoint)),
            ReplicaSpec("a", "v1", artifact=str(artifact))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=0)
        registry.deploy("a", "v1", artifact=str(artifact))
        sample = np.random.default_rng(5).normal(
            size=(3, 8, 8)).astype(np.float32)
        expected = reference.run(sample[None])[0]
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    eager = c.infer_verbose("m", sample)
                    local = c.infer_verbose("a", sample)
                    stats = c.stats()
        finally:
            rset.close()
        # The checkpoint line has an eager model: the replica answers.
        assert eager["ok"] is True and eager["served_by"] == "replica:0"
        np.testing.assert_allclose(np.asarray(eager["output"], np.float32),
                                   expected, rtol=1e-4, atol=1e-5)
        replica = stats["replicas"]["per_replica"]["0"]
        assert replica["counters"]["fallbacks"] == 1
        assert replica["models"] == {"m": "m@v1", "a": "a@v1"}
        # The artifact line has none: the front door's local path answers.
        assert local["ok"] is True and local["served_by"] == "batch"
        assert np.array_equal(np.asarray(local["output"], np.float32),
                              expected)
        assert stats["counters"]["replica_fallbacks"] == 1
        assert stats["counters"]["fallbacks"] == 0
