"""Multi-process execution layer: class-parallel scoring, sharded training.

Three pillars, all exposed through knobs on the existing APIs
(``ImportanceEvaluator(workers=N)``, ``TrainingConfig(workers=N)``,
``ClassAwarePruningFramework.run(workers=N)``, ``repro run --workers N``):

* :mod:`~repro.parallel.scoring` — per-class Taylor evaluations fanned
  across a persistent worker pool, bit-identical to serial;
* :mod:`~repro.parallel.shard` — data-parallel fine-tuning: batch shards
  are evaluated in workers and their gradients all-reduced into the
  parent's SGD step;
* :mod:`~repro.parallel.supervisor` — the one process supervisor
  (:class:`ProcessSupervisor`: heartbeats, watchdog deadlines, respawn
  budget, degrade) and the self-healing worker pool built on it
  (:class:`SupervisedWorkerPool`: deterministic task retry, graceful
  serial fallback); the serving tier's replica processes run on the
  same core;
* :mod:`~repro.parallel.shm` / :mod:`~repro.parallel.reaper` — the
  shared-memory ndarray transport, and the ledger that reclaims
  segments after crashes (including SIGKILL);
* :mod:`~repro.parallel.threads` — the BLAS thread budget of the
  supervised pools and the replica tier: processes × BLAS threads ≤
  usable CPUs.

See ``docs/performance.md`` for the architecture and the determinism
contract, and ``docs/supervision.md`` for the fault model and tuning
knobs of the supervision layer.
"""

from .bucket import BucketPlan
from .errors import ParallelExecutionError, TaskFailedError
from .scoring import (FusedTaylorScorer, ScoringService, ScoringSession,
                      aggregate_scores_fast)
from .shm import SharedArrayBundle, ShmSpec
from .supervisor import (CRASH_TASK, HANG_TASK, STALL_HEARTBEAT_TASK,
                         EchoService, ProcessSupervisor,
                         SupervisedWorkerPool, SupervisionConfig,
                         WorkerEvent, resolve_processes)

__all__ = [
    "ParallelExecutionError",
    "TaskFailedError",
    "ProcessSupervisor",
    "SupervisedWorkerPool",
    "SupervisionConfig",
    "WorkerEvent",
    "EchoService",
    "CRASH_TASK",
    "HANG_TASK",
    "STALL_HEARTBEAT_TASK",
    "resolve_processes",
    "SharedArrayBundle",
    "ShmSpec",
    "FusedTaylorScorer",
    "ScoringService",
    "ScoringSession",
    "aggregate_scores_fast",
    "BucketPlan",
    "ShardedTrainingSession",
]


def __getattr__(name):
    # shard.py imports trainer-adjacent modules; load it lazily so
    # importing repro.parallel stays cheap for scoring-only users.
    if name == "ShardedTrainingSession":
        from .shard import ShardedTrainingSession
        return ShardedTrainingSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
