"""Latency/throughput benchmark lane: eager vs compiled inference.

Benchmarks every configured model in dense form and after class-aware
channel pruning (random victims at a fixed fraction — the benchmark
measures execution speed, not accuracy), across a sweep of batch sizes.
Timing is median-of-repeats with a warmup pass, so one-off page faults and
lazy numpy initialisation do not pollute the numbers.

With ``quant=True`` (``repro infer-bench --quant``) the sweep covers the
full ``{dense, pruned} × {fp32, int8}`` grid: each variant is also
compiled through :mod:`repro.qinfer` (percentile calibration over a
synthetic loader), timed on the same batches, and annotated with its
serialized artifact size and top-1 agreement against eager execution —
the numbers behind the compression/throughput claims in
``docs/quantization.md``.

Entry point: :func:`run_bench`, used by both the ``repro infer-bench`` CLI
command and the standalone ``benchmarks/bench_infer.py`` script that
refreshes ``BENCH_infer.json`` at the repo root.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..bench import format_host, host_record, write_bench
from ..core.surgery import group_sizes, prune_groups
from ..models import build_model
from ..tensor import Tensor, no_grad
from .runtime import compile_model

__all__ = ["BENCH_MODELS", "SMOKE_MODELS", "run_bench", "write_bench",
           "format_table"]


# Sized so the full sweep stays under a couple of minutes on a laptop
# while batch-32 conv workloads are large enough to show the compiled
# engine's advantage.
BENCH_MODELS: dict[str, dict] = {
    "vgg11": dict(num_classes=10, image_size=16, width=0.25, seed=0),
    "resnet20": dict(num_classes=10, image_size=16, width=0.5, seed=0),
    "mlp": dict(num_classes=10, image_size=16, width=1.0, seed=0),
}

# CI smoke variant: tiny models, few repeats, still exercises every path.
SMOKE_MODELS: dict[str, dict] = {
    "vgg11": dict(num_classes=3, image_size=8, width=0.125, seed=0),
    "resnet20": dict(num_classes=3, image_size=8, width=0.25, seed=0),
    "mlp": dict(num_classes=3, image_size=8, width=0.125, seed=0),
}

_PRUNE_FRACTION = 0.5


def _median_ms(fn, repeats: int) -> float:
    fn()                                    # warmup
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def _prune_model(model, seed: int) -> None:
    """Remove ~half of every prunable group's channels in place."""
    rng = np.random.default_rng(seed + 7)
    groups = model.prunable_groups()
    sizes = group_sizes(model, groups)
    keep = {}
    for group in groups:
        n = sizes[group.name]
        k = max(n - max(int(round(n * _PRUNE_FRACTION)), 1), 1)
        keep[group.name] = np.sort(rng.choice(n, size=k, replace=False))
    prune_groups(model, groups, keep)


def _artifact_bytes(plan) -> int:
    """On-disk size of a plan serialized with :func:`repro.qinfer.save_plan`."""
    from ..qinfer import save_plan

    fd, path = tempfile.mkstemp(suffix=".rplan")
    os.close(fd)
    try:
        save_plan(plan, path)
        return os.path.getsize(path)
    finally:
        os.unlink(path)


def _bench_variant(name: str, kwargs: dict, variant: str, batch_sizes,
                   repeats: int, rng, quant: bool = False) -> list[dict]:
    from ..verify.invariants import perturb_batchnorm_stats

    model = build_model(name, **kwargs)
    perturb_batchnorm_stats(model, seed=kwargs.get("seed", 0))
    if variant == "pruned":
        _prune_model(model, kwargs.get("seed", 0))
    model.eval()

    in_channels = kwargs.get("in_channels", 3)
    image_size = kwargs.get("image_size", 16)
    max_n = max(batch_sizes)
    example = rng.normal(size=(max_n, in_channels, image_size,
                               image_size)).astype(np.float32)
    # Bench models are wider/deeper than the verify cases, so BN-folding
    # float32 reordering noise can exceed the strict default atol; every
    # entry records its max_abs_diff, so validation here only needs to
    # catch real miscompiles.
    engine = compile_model(model, example, max_batch=max_n, atol=1e-3)

    engines = [("fp32", engine, None)]
    fp32_bytes = None
    if quant:
        loader = [rng.normal(size=example.shape).astype(np.float32)
                  for _ in range(3)]
        qengine = compile_model(model, example, max_batch=max_n,
                                quantize="int8", calibrate=loader)
        fp32_bytes = _artifact_bytes(engine.plan)
        engines.append(("int8", qengine, _artifact_bytes(qengine.plan)))

    entries = []
    for kind, eng, art_bytes in engines:
        for batch in batch_sizes:
            x = example[:batch]
            xt = Tensor(x)

            def eager():
                with no_grad():
                    return model(xt).data

            eager_out = eager()
            compiled_out = eng.run(x)
            max_diff = float(np.max(np.abs(eager_out - compiled_out)))

            eager_ms = _median_ms(eager, repeats)
            compiled_ms = _median_ms(lambda: eng.run(x), repeats)
            entry = dict(
                model=name, variant=variant, engine=kind, batch=int(batch),
                eager_ms=round(eager_ms, 4),
                compiled_ms=round(compiled_ms, 4),
                speedup=round(eager_ms / compiled_ms, 3)
                if compiled_ms else None,
                eager_throughput=round(batch / (eager_ms / 1e3), 1),
                compiled_throughput=round(batch / (compiled_ms / 1e3), 1),
                max_abs_diff=max_diff,
                plan_steps=len(eng.plan),
                optimization=eng.optimization.summary()
                if eng.optimization else None,
            )
            if quant:
                entry["artifact_bytes"] = int(art_bytes if kind == "int8"
                                              else fp32_bytes)
                if kind == "int8":
                    entry["size_ratio"] = round(fp32_bytes / art_bytes, 3)
                    entry["top1_agreement"] = round(float(np.mean(
                        np.argmax(compiled_out, -1)
                        == np.argmax(eager_out, -1))), 4)
            entries.append(entry)
    return entries


def run_bench(models: dict[str, dict] | None = None,
              batch_sizes=(1, 8, 32), repeats: int = 10,
              smoke: bool = False, seed: int = 0,
              quant: bool = False) -> dict:
    """Benchmark eager vs compiled inference; returns the results payload.

    ``quant=True`` extends the sweep to the int8 engine, producing the
    ``{dense, pruned} × {fp32, int8}`` grid with artifact sizes and top-1
    agreement per int8 entry.
    """
    if models is None:
        models = SMOKE_MODELS if smoke else BENCH_MODELS
    if smoke:
        batch_sizes = tuple(b for b in batch_sizes if b <= 8) or (1, 8)
        repeats = min(repeats, 3)
    rng = np.random.default_rng(seed)
    entries = []
    for name, kwargs in models.items():
        for variant in ("dense", "pruned"):
            entries.extend(_bench_variant(name, kwargs, variant,
                                          tuple(batch_sizes), repeats, rng,
                                          quant=quant))
    if smoke and quant:
        # CI tripwire: the quantization contract (artifact shrinkage and
        # accuracy agreement) must hold at every grid point.
        for e in entries:
            if e.get("engine") != "int8":
                continue
            where = f"{e['model']}/{e['variant']}@{e['batch']}"
            # The smoke mlp is small enough that the fixed manifest
            # bytes keep it a hair under 3x; conv models must clear it.
            gate = 3.0 if e["model"] != "mlp" else 2.8
            assert e["size_ratio"] >= gate, \
                f"{where}: artifact only shrank {e['size_ratio']}x"
            assert e["top1_agreement"] >= 0.9, \
                f"{where}: top-1 agreement {e['top1_agreement']}"
    return {
        "benchmark": "repro.infer eager-vs-compiled",
        "smoke": bool(smoke),
        "quantization": bool(quant),
        "repeats": int(repeats),
        "batch_sizes": [int(b) for b in batch_sizes],
        "prune_fraction": _PRUNE_FRACTION,
        **host_record(),
        "entries": entries,
    }


def format_table(results: dict) -> str:
    quant = results.get("quantization")
    header = (f"{'model':<10} {'variant':<7} {'engine':<6} {'batch':>5} "
              f"{'eager ms':>9} {'compiled ms':>12} {'speedup':>8} "
              f"{'max|Δ|':>9}")
    if quant:
        header += f" {'bytes':>9} {'ratio':>6} {'top1':>5}"
    lines = [format_host(results), header, "-" * len(header)]
    for e in results["entries"]:
        row = (f"{e['model']:<10} {e['variant']:<7} "
               f"{e.get('engine', 'fp32'):<6} {e['batch']:>5} "
               f"{e['eager_ms']:>9.3f} {e['compiled_ms']:>12.3f} "
               f"{e['speedup']:>7.2f}x {e['max_abs_diff']:>9.2e}")
        if quant:
            ratio = (f"{e['size_ratio']:.2f}" if "size_ratio" in e else "-")
            top1 = (f"{e['top1_agreement']:.2f}"
                    if "top1_agreement" in e else "-")
            row += f" {e.get('artifact_bytes', 0):>9} {ratio:>6} {top1:>5}"
        lines.append(row)
    return "\n".join(lines)
