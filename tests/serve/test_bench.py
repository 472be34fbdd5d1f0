"""Serving bench lane: smoke payload and its host record."""

import json

import numpy as np

from repro.parallel import threads
from repro.serve.bench import format_table, run_bench, write_bench


def test_smoke_records_the_host(tmp_path):
    results = run_bench(smoke=True, variants=("dense",), connections=(1,),
                        requests_per_connection=4)
    assert results["usable_cpus"] == threads.usable_cpus()
    assert results["blas_threads"] == {"parent": threads.blas_threads()}
    assert results["numpy"] == np.__version__
    assert format_table(results).startswith("host: usable cpus=")
    out = tmp_path / "serve.json"
    write_bench(results, out)
    assert json.loads(out.read_text()) == results


def test_replicated_smoke_lists_each_replica_count():
    results = run_bench(smoke=True, variants=("dense",), connections=(1,),
                        requests_per_connection=4, replicas=2)
    assert [e["replicas"] for e in results["entries"]] == [2]
    # Each replica takes budget(replicas) at spawn and reports it (None
    # where numpy bundles no OpenBLAS).
    parent = threads.blas_threads()
    per_replica = threads.budget(2) if parent is not None else None
    assert results["blas_threads"] == {"parent": parent,
                                       "replicas": [per_replica] * 2}
