"""BLAS thread budget: processes × BLAS threads ≤ usable CPUs.

Every process that imports numpy starts OpenBLAS with one thread per CPU.
A pool of N workers plus its parent therefore runs N+1 full thread pools
on the same cores, and they oversubscribe them: on a 2-CPU host the
sharded fine-tuning epoch ran about 2× slower than with one BLAS thread
per process. :func:`budget` sizes the per-process share, and the pools
apply it — each worker on start-up, the parent for as long as a pool is
open (:func:`hold` / :func:`release`).

Holding the parent at the workers' count matters for results, not only
speed: some OpenBLAS kernels reduce in a different order at 1 and 2
threads (float64 ``dot``, and GEMMs of some skinny, unround shapes such
as the 1x1 convolutions of a pruned network). A shard that a degraded
pool completes in the parent must see the same thread count as the
worker it replaces to stay bitwise.

The count is read and set through ``ctypes`` on the scipy-openblas
library bundled with numpy wheels. When that library or its symbols are
absent (another BLAS, a source build) every function here is a no-op
that reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading

__all__ = ["usable_cpus", "blas_threads", "set_blas_threads", "budget",
           "hold", "release"]

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


def usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where available)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """``(get, set)`` of the numpy-bundled OpenBLAS, or ``None``."""
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """The BLAS thread count of this process, or ``None`` if unknown."""
    funcs = _openblas()
    return None if funcs is None else int(funcs[0]())


def set_blas_threads(n: int) -> int | None:
    """Set the BLAS thread count; returns the new count, ``None`` if unknown."""
    funcs = _openblas()
    if funcs is None:
        return None
    n = max(1, int(n))
    # Skip a call that changes nothing: in a forked child it would restart
    # OpenBLAS's thread server, whose idle threads spin for a while (about
    # 20 ms of CPU per worker start-up on a 2-CPU host).
    if funcs[0]() != n:
        funcs[1](n)
    return int(funcs[0]())


def budget(seats: int) -> int:
    """BLAS threads per process when ``seats`` processes share the CPUs.

    ``usable_cpus() // seats``, floored at 1 and never above the count the
    process already has — so ``OPENBLAS_NUM_THREADS`` and friends, which
    OpenBLAS reads at start-up, stay an upper bound.
    """
    share = usable_cpus() // max(1, seats)
    inherited = blas_threads()
    if inherited is not None:
        share = min(share, inherited)
    return max(1, share)


# The BLAS thread count is process-wide, and pools may be open at the same
# time and close in any order, so the parent's caps are kept here: the
# count is the smallest cap held, or the pre-cap count once none is.
_lock = threading.Lock()
_held: list[int] = []
_before: int | None = None


def hold(n: int) -> None:
    """Cap this process at ``n`` BLAS threads until :func:`release`."""
    global _before
    with _lock:
        if not _held:
            _before = blas_threads()
        _held.append(n)
        set_blas_threads(min(_held))


def release(n: int) -> None:
    """Drop one :func:`hold` of ``n``; restore the count the caps replaced."""
    with _lock:
        _held.remove(n)
        target = min(_held) if _held else _before
        if target is not None:
            set_blas_threads(target)
