"""What every bench lane shares: the host record and the JSON writer.

Each ``BENCH_*.json`` payload (:mod:`repro.infer.bench`,
:mod:`repro.serve.bench`, :mod:`repro.parallel.bench`) records the host
it ran on — usable CPUs, BLAS threads per process, numpy version — so
numbers from different machines or thread budgets are not compared
blind.
"""

from __future__ import annotations

import json

import numpy as np

from .parallel import threads

__all__ = ["host_record", "format_host", "write_bench"]


def host_record(**blas_threads) -> dict:
    """``usable_cpus``, ``blas_threads`` and ``numpy`` of this host.

    ``blas_threads`` holds the parent's count under ``parent``; keyword
    arguments add what other processes report (a pool's ``workers``, a
    fleet's ``replicas``) or replace the parent's own entry.
    """
    return {"usable_cpus": threads.usable_cpus(),
            "blas_threads": {"parent": threads.blas_threads(),
                             **blas_threads},
            "numpy": np.__version__}


def format_host(results: dict) -> str:
    """One table-header line naming the host of ``results``."""
    blas = " ".join(f"{k}={v}" for k, v in results["blas_threads"].items())
    return (f"host: usable cpus={results['usable_cpus']}, "
            f"blas threads: {blas}, numpy {results['numpy']}")


def write_bench(results: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
