"""Shared-memory ndarray transport between parent and worker processes.

A :class:`SharedArrayBundle` packs a ``{name: ndarray}`` mapping into one
``multiprocessing.shared_memory`` segment. The parent creates the bundle
(one copy of the data), ships the picklable :class:`ShmSpec` descriptor to
the workers, and each worker attaches zero-copy numpy views onto the same
physical pages. Model weights therefore cross the process boundary once at
pool start-up and are *refreshed in place* (``copy_from``) between steps,
never re-pickled.

Layout: entries are packed back to back, each offset rounded up to 64
bytes so every view is cache-line aligned. The spec records name, dtype,
shape and offset per entry; attaching is just ``np.ndarray(shape, dtype,
buffer=shm.buf, offset=off)``.

Lifetime: the creating process owns the segment and must call
:meth:`SharedArrayBundle.unlink` when done; workers only :meth:`close`
their mapping. On attach the segment is deregistered from the child's
``resource_tracker`` — otherwise the first worker to exit would tear the
segment down under everyone else (Python 3.11 has no ``track=False``).
Every created segment is additionally recorded in the
:mod:`repro.parallel.reaper` ledger, so a crash (even SIGKILL) between
``create`` and ``unlink`` leaves a reclaimable record instead of a
permanent kernel-object leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from . import reaper

__all__ = ["ShmSpec", "SharedArrayBundle"]

_ALIGN = 64

#: Whether :meth:`SharedArrayBundle.attach` deregisters the segment from
#: this process's resource tracker. Needed in *spawn* workers, whose own
#: tracker would otherwise destroy the segment when the worker exits.
#: Harmful everywhere else: fork workers share the parent's tracker
#: daemon, so unregistering there would strip the parent's legitimate
#: registration. ``SupervisedWorkerPool`` sets this per worker at start-up.
_UNTRACK_ON_ATTACH = False


@dataclass(frozen=True)
class ShmSpec:
    """Picklable description of one shared segment and the arrays in it."""

    name: str
    entries: tuple[tuple[str, str, tuple[int, ...], int], ...]
    total_bytes: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Stop the attaching process's resource tracker from owning ``shm``."""
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SharedArrayBundle:
    """A set of named ndarrays living in one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, spec: ShmSpec,
                 owner: bool):
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self.arrays: dict[str, np.ndarray] = {}
        for key, dtype, shape, offset in spec.entries:
            self.arrays[key] = np.ndarray(shape, dtype=np.dtype(dtype),
                                          buffer=shm.buf, offset=offset)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Allocate a segment holding copies of ``arrays`` (parent side)."""
        entries = []
        offset = 0
        for key, value in arrays.items():
            value = np.ascontiguousarray(value)
            offset = _aligned(offset)
            entries.append((key, value.dtype.str, value.shape, offset))
            offset += value.nbytes
        total = max(offset, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        reaper.register(shm.name)
        spec = ShmSpec(name=shm.name, entries=tuple(entries),
                       total_bytes=total)
        try:
            bundle = cls(shm, spec, owner=True)
            bundle.copy_from(arrays)
        except BaseException:
            # A failure between allocation and handing the bundle to the
            # caller must not leak the segment: nobody else can unlink it.
            try:
                shm.close()
                shm.unlink()
            finally:
                reaper.unregister(shm.name)
            raise
        return bundle

    @classmethod
    def create_empty(cls, layout: dict[str, tuple[tuple[int, ...], str]]
                     ) -> "SharedArrayBundle":
        """Allocate a zero-filled segment from ``{name: (shape, dtype)}``.

        Unlike :meth:`create` no source arrays are materialised or copied:
        freshly mapped shared pages are already zero-filled by the kernel.
        Used for the gradient-bucket and result blocks of the sharded
        trainer, which workers overwrite every step anyway.
        """
        entries = []
        offset = 0
        for key, (shape, dtype) in layout.items():
            dt = np.dtype(dtype)
            offset = _aligned(offset)
            entries.append((key, dt.str, tuple(int(s) for s in shape),
                            offset))
            offset += int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        total = max(offset, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        reaper.register(shm.name)
        spec = ShmSpec(name=shm.name, entries=tuple(entries),
                       total_bytes=total)
        try:
            return cls(shm, spec, owner=True)
        except BaseException:
            try:
                shm.close()
                shm.unlink()
            finally:
                reaper.unregister(shm.name)
            raise

    @classmethod
    def attach(cls, spec: ShmSpec,
               untrack: bool | None = None) -> "SharedArrayBundle":
        """Map an existing segment from its spec (worker side).

        ``untrack`` defaults to the process-wide ``_UNTRACK_ON_ATTACH``
        policy, which the worker pool configures per start method.
        """
        shm = shared_memory.SharedMemory(name=spec.name)
        if untrack if untrack is not None else _UNTRACK_ON_ATTACH:
            _untrack(shm)
        try:
            return cls(shm, spec, owner=False)
        except BaseException:
            # A malformed spec (stale entry offsets after a crashed
            # producer, say) raises while building the views; without
            # this close the mapping leaks — and in a spawn worker the
            # still-registered segment would be torn down under the
            # owner when the worker's resource tracker exits.
            try:
                shm.close()
            except BufferError:  # pragma: no cover - partial view alive
                pass
            raise

    # ------------------------------------------------------------------
    def copy_from(self, arrays: dict[str, np.ndarray]) -> None:
        """Refresh the shared views in place from same-shaped arrays."""
        for key, view in self.arrays.items():
            np.copyto(view, arrays[key], casting="same_kind")

    def close(self) -> None:
        """Drop this process's mapping (the views become invalid)."""
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray view still alive
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; implies :meth:`close`)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            reaper.unregister(self.spec.name)
