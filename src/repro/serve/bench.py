"""Serving benchmark lane: latency/throughput vs offered load.

Boots a real :class:`~repro.serve.InferenceServer` on an ephemeral port
with a dense and a channel-pruned variant of the bench model, then sweeps
closed-loop offered load (concurrent connections) against each variant
with :func:`repro.serve.loadgen.run_load`. The payload lands in
``BENCH_serve.json``; schema in ``docs/serving.md``.

This is where pruning pays off operationally: the pruned variant runs the
same protocol, the same batching, the same shedding — and serves more
requests per second per box purely because each batch is cheaper. The
``int8`` variant deploys the pruned model through the quantized compile
path (:mod:`repro.qinfer` — percentile calibration, top-1 swap gate), so
the sweep also measures the fused prune+quantize deployable.

Smoke mode (CI) shrinks the model and the sweep and *asserts* the serving
contract: finite p99, zero errors, zero dropped requests.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..bench import format_host, host_record, write_bench
from ..models import build_model
from ..verify.invariants import perturb_batchnorm_stats
from .client import ServeClient
from .loadgen import run_load
from .registry import ModelRegistry
from .server import ServeConfig, ServerThread
from .shedding import SheddingConfig

__all__ = ["run_bench", "write_bench", "format_table"]


# Mirrors repro.infer.bench sizing: big enough to show batching wins,
# small enough for a laptop sweep.
_BENCH_MODEL = dict(name="vgg11", num_classes=10, image_size=16,
                    width=0.25, seed=0)
_SMOKE_MODEL = dict(name="vgg11", num_classes=3, image_size=8,
                    width=0.125, seed=0)
_PRUNE_FRACTION = 0.5


def _build_variant(spec: dict, pruned: bool):
    from ..infer.bench import _prune_model

    kwargs = dict(spec)
    name = kwargs.pop("name")
    model = build_model(name, **kwargs)
    perturb_batchnorm_stats(model, seed=kwargs.get("seed", 0))
    if pruned:
        _prune_model(model, kwargs.get("seed", 0))
    model.eval()
    return model


_VARIANTS = ("dense", "pruned", "int8")


def run_bench(smoke: bool = False, seed: int = 0,
              connections=(1, 4, 16), requests_per_connection: int = 40,
              max_batch: int = 16, max_pending: int = 256,
              variants=_VARIANTS, replicas: int = 0) -> dict:
    """Serve the variant sweep under offered load, return the payload.

    ``variants`` selects columns from ``("dense", "pruned", "int8")``;
    the int8 variant is the pruned model deployed through the quantized
    compile path, so dense→pruned→int8 reads as cumulative optimisation.

    ``replicas > 0`` runs the replicated tier: the same variants are
    deployed to ``replicas`` worker processes behind the health-aware
    router (dense/pruned from checkpoints, int8 from its compiled plan
    artifact), and the sweep measures the fleet. Every entry carries a
    ``replicas`` column so the two topologies stay distinguishable in
    ``BENCH_serve.json``, and the host record's ``blas_threads`` lists
    each replica's count as its ``stats`` op reports it.
    """
    unknown = [v for v in variants if v not in _VARIANTS]
    if unknown:
        raise ValueError(f"unknown serve-bench variant(s): {unknown} "
                         f"(choose from {_VARIANTS})")
    spec = _SMOKE_MODEL if smoke else _BENCH_MODEL
    if smoke:
        connections = tuple(c for c in connections if c <= 4) or (1, 4)
        requests_per_connection = min(requests_per_connection, 12)
    image_size = spec["image_size"]
    sample_shape = (3, image_size, image_size)

    # The bench measures capacity, not the shed policy: pending headroom
    # and no SLO gate, so every request completes and percentiles cover
    # the full distribution.
    registry = ModelRegistry(
        max_batch=max_batch,
        shedding=SheddingConfig(max_pending=max_pending,
                                p99_budget_ms=None))
    entries = []
    rng = np.random.default_rng(seed)
    models: dict[str, object] = {}
    with registry:
        for variant in variants:
            model = _build_variant(spec, pruned=(variant != "dense"))
            models[variant] = model
            kwargs = {}
            if variant == "int8":
                kwargs = dict(quantize="int8", calibrate=[
                    rng.normal(size=(max_batch, *sample_shape)
                               ).astype(np.float32) for _ in range(3)])
            registry.deploy(f"{spec['name']}-{variant}", "v1", model=model,
                            input_shape=sample_shape, seed=seed, **kwargs)
        router = rset = tmpdir = None
        if replicas:
            from ..io import save_model
            from ..qinfer.artifact import save_plan
            from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
            from .router import ReplicaRouter
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
            specs = []
            for variant in variants:
                ref = f"{spec['name']}-{variant}"
                if variant == "int8":
                    # Replicas must serve the *same* int8 engine, not a
                    # requantisation — ship the compiled plan artifact.
                    _, active = registry.resolve(ref)
                    path = Path(tmpdir.name) / f"{ref}.rplan"
                    save_plan(active.engine.plan, path)
                    specs.append(ReplicaSpec(ref, "v1", artifact=str(path)))
                else:
                    path = Path(tmpdir.name) / f"{ref}.npz"
                    save_model(models[variant], path)
                    specs.append(ReplicaSpec(ref, "v1",
                                             checkpoint=str(path)))
            rset = ReplicaSet(ReplicaConfig(replicas=int(replicas),
                                            max_batch=max_batch))
            router = ReplicaRouter(rset, specs)
        blas_threads = {}
        try:
            with ServerThread(registry, ServeConfig(), router=router) as srv:
                for variant in variants:
                    ref = f"{spec['name']}-{variant}"
                    for conns in connections:
                        report = run_load(srv.host, srv.port, ref,
                                          sample_shape,
                                          connections=conns,
                                          requests_per_connection=
                                          requests_per_connection,
                                          seed=seed)
                        entry = {"variant": variant,
                                 "replicas": int(replicas),
                                 **report.as_dict()}
                        entries.append(entry)
                        if smoke:
                            _assert_smoke_contract(entry)
                if replicas:
                    # Each replica's count, as its stats op reports it.
                    with ServeClient(srv.host, srv.port) as client:
                        fleet = client.stats()["replicas"]["per_replica"]
                    blas_threads["replicas"] = [
                        fleet[str(i)].get("blas_threads")
                        for i in range(int(replicas))]
        finally:
            if rset is not None:
                rset.close()            # idempotent; server closes it too
            if tmpdir is not None:
                tmpdir.cleanup()

    return {
        "benchmark": "repro.serve closed-loop latency/throughput",
        "smoke": bool(smoke),
        "replicas": int(replicas),
        "seed": int(seed),
        "model": spec["name"],
        "max_batch": int(max_batch),
        "requests_per_connection": int(requests_per_connection),
        "connection_sweep": [int(c) for c in connections],
        "variants": list(variants),
        **host_record(**blas_threads),
        "entries": entries,
    }


def _assert_smoke_contract(entry: dict) -> None:
    """CI tripwire: the serving contract must hold even at smoke scale."""
    if entry["dropped"] != 0:
        raise AssertionError(f"serve bench dropped requests: {entry}")
    if entry["errors"] != 0:
        raise AssertionError(f"serve bench saw request errors: {entry}")
    p99 = entry["p99_ms"]
    if p99 is None or not np.isfinite(p99) or p99 <= 0:
        raise AssertionError(f"serve bench p99 not finite/positive: {entry}")


def format_table(results: dict) -> str:
    header = (f"{'model':<14} {'variant':<7} {'repl':>4} {'conns':>5} "
              f"{'rps':>8} {'p50 ms':>8} {'p99 ms':>8} "
              f"{'rejected':>8} {'dropped':>7}")
    lines = [format_host(results), header, "-" * len(header)]
    for e in results["entries"]:
        p50 = f"{e['p50_ms']:.2f}" if e["p50_ms"] is not None else "-"
        p99 = f"{e['p99_ms']:.2f}" if e["p99_ms"] is not None else "-"
        lines.append(
            f"{e['model']:<14} {e['variant']:<7} "
            f"{e.get('replicas', 0):>4} {e['connections']:>5} "
            f"{e['throughput_rps']:>8.1f} {p50:>8} {p99:>8} "
            f"{e['rejected']:>8} {e['dropped']:>7}")
    return "\n".join(lines)
