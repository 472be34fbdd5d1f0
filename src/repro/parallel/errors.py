"""Error types of the multi-process execution layer."""

from __future__ import annotations

__all__ = ["ParallelExecutionError", "TaskFailedError"]


class ParallelExecutionError(RuntimeError):
    """A worker pool is unusable: it is closed, or it failed to start.

    Raised by :class:`repro.parallel.SupervisedWorkerPool` for a closed
    pool and for a start-up failure (a worker died during start-up, with
    its exit code in the message, or the worker-side service failed to
    initialise, with the remote traceback). Worker deaths and hangs
    after start-up are self-healed instead; the parent process and its
    model state are never affected.
    """


class TaskFailedError(ParallelExecutionError):
    """A task *raised* inside a healthy worker (deterministic bug).

    Distinguished from infrastructure faults because retrying or
    degrading to serial execution would fail identically: the remote
    traceback, carried in the message, is the actionable signal. The
    supervised pool surfaces these immediately instead of burning its
    respawn budget on them.
    """
