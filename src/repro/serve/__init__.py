"""Async inference service over the compiled engine.

The front door of the repo: an asyncio newline-delimited-JSON server that
feeds an adaptively micro-batched :class:`repro.infer.BatchRunner` per
deployed model, sheds load explicitly once its pending queue or latency
budget is exceeded, exports per-request metrics through a ``stats`` verb,
and hot-swaps pruned checkpoints mid-traffic with zero dropped requests
(load → validate on a probe batch → atomic swap → drain the old engine).

Pieces (each importable on its own):

``scheduler``   adaptive batching window (widens under load, shrinks idle)
``shedding``    admission control: queue depth + p99 SLO + deadline gates
``metrics``     latency reservoirs, counters, the ``stats`` snapshot
``registry``    name@version model registry, hot-swap, degrade-to-eager
``manifest``    journaled deploy manifest + warm restart (``--resume``)
``server``      the asyncio NDJSON frontend (deadlines, graceful drain)
``replica``     replica worker processes: a per-process ``server`` with
                no TCP listener, behind a unix-socket link, heartbeats,
                bounded respawn
``router``      health-aware dispatch across replicas: least-outstanding
                routing, liveness probes, id-keyed failover, hedging,
                circuit breakers, rolling deploys, degrade
``client``      minimal blocking client (tests, drills, load generator)
``resilient``   self-healing client: reconnect, backoff, circuit breaker
``loadgen``     closed-loop load generator behind ``repro serve-bench``
``bench``       the BENCH_serve.json lane
``drills``      ``serve.shed`` / ``serve.swap`` / ``serve.drain`` /
                ``serve.restart`` / ``replica.kill`` / ``replica.hang`` /
                ``replica.rolling`` fault drills for
                ``python -m repro.verify --drills serve``

Typical use::

    from repro.serve import ModelRegistry, InferenceServer, ServeConfig

    registry = ModelRegistry()
    registry.deploy("vgg16", "v1", model=model)
    server = InferenceServer(registry, ServeConfig(port=7071))
    server.run_forever()        # or: ServerThread(server) in tests

See ``docs/serving.md`` for the wire protocol, shedding policy, hot-swap
lifecycle, and the BENCH_serve.json schema.
"""

from .manifest import RestoreReport, ServeManifest, restore_registry
from .metrics import LatencyReservoir, ServerMetrics, sum_counters
from .registry import (DeployReport, ModelRegistry, ModelVersion,
                       NoSuchModelError, SwapValidationError)
from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
from .resilient import CircuitBreaker, CircuitOpenError, ResilientClient
from .router import ReplicaRouter, ReplicasUnavailable
from .scheduler import AdaptiveWindow, WindowConfig
from .server import InferenceServer, ServeConfig, ServerThread
from .shedding import AdmissionController, SheddingConfig

__all__ = [
    "AdaptiveWindow", "WindowConfig",
    "AdmissionController", "SheddingConfig",
    "LatencyReservoir", "ServerMetrics", "sum_counters",
    "DeployReport", "ModelRegistry", "ModelVersion", "NoSuchModelError",
    "SwapValidationError",
    "ServeManifest", "RestoreReport", "restore_registry",
    "ReplicaConfig", "ReplicaSet", "ReplicaSpec",
    "ReplicaRouter", "ReplicasUnavailable",
    "CircuitBreaker", "CircuitOpenError", "ResilientClient",
    "InferenceServer", "ServeConfig", "ServerThread",
]
