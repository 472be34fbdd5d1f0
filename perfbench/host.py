"""Host block recorded with every result: what the numbers were measured on."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: Thread-count variables of the BLAS and OpenMP runtimes. The benchmark
#: records them as inherited and never sets them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _blas() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "openblas_configuration": blas.get("openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def _commit(root) -> str:
    """The checkout's commit, when it is a git checkout at all."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_steal_ticks() -> int | None:
    """CPU time the hypervisor gave to other guests (clock ticks), or
    None where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def steal_share(ticks: int | None, seconds: float) -> float | None:
    """Share of all CPUs' time over the last ``seconds`` that the
    hypervisor gave to other guests, ``ticks`` being
    :func:`cpu_steal_ticks` at their start."""
    now = cpu_steal_ticks()
    if ticks is None or now is None or seconds <= 0:
        return None
    return ((now - ticks) / os.sysconf("SC_CLK_TCK")
            / (seconds * (os.cpu_count() or 1)))


def host_block(root) -> dict:
    import numpy as np
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "commit": _commit(Path(root)),
    }
