"""Training-side benchmark lane: parallel scoring and fused fine-tuning.

Two workloads, mirroring the two halves of :mod:`repro.parallel`:

* **scoring** — the per-class Taylor importance evaluation, serial
  (:class:`~repro.core.importance.ImportanceEvaluator` loop) vs fanned
  across a persistent worker pool. The parallel path must return a
  bit-identical :class:`~repro.core.importance.ImportanceReport`; the
  benchmark *asserts* this before reporting any timing.
* **finetune** — one training epoch under the modified objective, in
  three flavours: the autograd penalty graph, the fused closed-form
  regularizer gradients, and the sharded data-parallel loop.

Timing is best-of-``repeats`` with a warmup pass (the warmup also
amortises worker-pool start-up into session setup, where it belongs —
the pool is persistent across evaluations in real runs). Entry point:
:func:`run_bench`, shared by ``repro train-bench`` and the standalone
``benchmarks/bench_train.py`` script that refreshes ``BENCH_train.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ..bench import format_host, host_record, write_bench
from . import threads

__all__ = ["BENCH_CONFIG", "SMOKE_CONFIG", "run_bench", "write_bench",
           "format_table"]


# The acceptance workload: resnet20 on a 100-class task, M=10 images per
# class — enough classes that per-class evaluation dominates pool
# overhead, and images sized so the benchmark stays in CI budget on a
# one-CPU container (the fused path's win — amortising 100 small
# per-class passes into a handful of large ones — is what is measured).
BENCH_CONFIG: dict = {
    "scoring": dict(model="resnet20", num_classes=100, image_size=8,
                    width=0.25, images_per_class=10, samples_per_class=12),
    "finetune": dict(model="vgg11", num_classes=10, image_size=12,
                     width=0.5, samples_per_class=16, batch_size=32),
}

# CI smoke variant: tiny everything, still exercises every path.
SMOKE_CONFIG: dict = {
    "scoring": dict(model="vgg11", num_classes=6, image_size=8,
                    width=0.25, images_per_class=4, samples_per_class=6),
    "finetune": dict(model="vgg11", num_classes=3, image_size=8,
                     width=0.25, samples_per_class=8, batch_size=8),
}


# Parent-side per-step overhead of the pre-bucketing sharded loop on the
# 1-core reference container (ms/step on the full finetune workload):
# full weight broadcast 17.315 + blocking wait on worker publication
# 13.300 + allocating monolithic reduction 20.354. The overlapped
# bucketed all-reduce is asserted against this baseline on machines too
# small for a wall-clock speedup (see run_bench).
PRE_BUCKETING_OVERHEAD_MS = {"broadcast": 17.315, "publish": 13.300,
                             "reduce": 20.354}
PRE_BUCKETING_TOTAL_MS = round(sum(PRE_BUCKETING_OVERHEAD_MS.values()), 3)

#: Phases counted as parallel-path overhead (everything the parent does
#: per step that the serial loop would not do at all).
OVERHEAD_PHASES = ("broadcast", "publish", "reduce")


def _best_seconds(fn, repeats: int) -> float:
    fn()                                    # warmup
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(min(samples))


class _BlasThreadsProbe:
    """Pool service answering each task with its worker's BLAS threads."""

    def handle(self, task):
        return threads.blas_threads()


def _blas_threads_record(processes: int) -> dict:
    """BLAS threads of the parent (alone and with a pool open) and of
    each worker of a ``processes``-seat pool, as the processes report
    them."""
    from .supervisor import SupervisedWorkerPool
    alone = threads.blas_threads()
    with SupervisedWorkerPool(processes, _BlasThreadsProbe) as pool:
        return {"parent": alone, "parent_with_pool": threads.blas_threads(),
                "workers": pool.run_tasks([None] * processes)}


def _reports_identical(a, b) -> bool:
    return (set(a.total) == set(b.total)
            and all(np.array_equal(a.total[k], b.total[k]) for k in a.total)
            and all(np.array_equal(a.per_class[k], b.per_class[k])
                    for k in a.per_class))


def _bench_scoring(cfg: dict, workers: int, repeats: int, seed: int) -> dict:
    from ..core.importance import ImportanceConfig, ImportanceEvaluator
    from ..data import make_cifar_like
    from ..models import build_model

    model = build_model(cfg["model"], num_classes=cfg["num_classes"],
                        image_size=cfg["image_size"], width=cfg["width"],
                        seed=seed)
    train, _ = make_cifar_like(num_classes=cfg["num_classes"],
                               image_size=cfg["image_size"],
                               samples_per_class=cfg["samples_per_class"],
                               seed=seed)
    groups = [g.conv for g in model.prunable_groups()]
    icfg = ImportanceConfig(images_per_class=cfg["images_per_class"],
                            tau_mode="quantile", tau_quantile=0.9, seed=seed)

    serial = ImportanceEvaluator(model, train, cfg["num_classes"], icfg)
    serial_report = serial.evaluate(groups)
    serial_s = _best_seconds(lambda: serial.evaluate(groups), repeats)

    parallel = ImportanceEvaluator(model, train, cfg["num_classes"], icfg,
                                   workers=workers)
    try:
        parallel_report = parallel.evaluate(groups)  # warmup builds the pool
        if not _reports_identical(serial_report, parallel_report):
            raise AssertionError(
                "parallel importance report differs from serial — the "
                "bit-identity contract of repro.parallel.scoring is broken")
        parallel_s = _best_seconds(lambda: parallel.evaluate(groups), repeats)
    finally:
        parallel.close()

    return dict(cfg, workers=workers,
                groups=len(groups),
                serial_s=round(serial_s, 4),
                parallel_s=round(parallel_s, 4),
                speedup=round(serial_s / parallel_s, 3) if parallel_s else None,
                bit_identical=True)


def _bench_finetune(cfg: dict, workers: int, repeats: int, seed: int,
                    transport: str = "fp32") -> dict:
    from ..core.trainer import Trainer, TrainingConfig
    from ..data import make_cifar_like
    from ..models import build_model

    train, _ = make_cifar_like(num_classes=cfg["num_classes"],
                               image_size=cfg["image_size"],
                               samples_per_class=cfg["samples_per_class"],
                               seed=seed)
    base = TrainingConfig(epochs=1, batch_size=cfg["batch_size"], lr=0.01,
                          seed=seed)

    def epoch_seconds(**overrides) -> float:
        import dataclasses
        model = build_model(cfg["model"], num_classes=cfg["num_classes"],
                            image_size=cfg["image_size"], width=cfg["width"],
                            seed=seed)
        trainer = Trainer(model, train,
                          config=dataclasses.replace(base, **overrides))
        try:
            return _best_seconds(lambda: trainer.train(epochs=1), repeats)
        finally:
            trainer.close()

    def sharded_epoch(**overrides) -> tuple[float, dict, int]:
        """Best epoch wall time plus that epoch's phase split and steps."""
        import dataclasses
        model = build_model(cfg["model"], num_classes=cfg["num_classes"],
                            image_size=cfg["image_size"], width=cfg["width"],
                            seed=seed)
        trainer = Trainer(model, train,
                          config=dataclasses.replace(base, **overrides))
        try:
            trainer.train(epochs=1)            # warmup
            samples = []
            for _ in range(repeats):
                before = dict(trainer.phase_totals)
                steps_before = trainer.steps_run
                start = time.perf_counter()
                trainer.train(epochs=1)
                elapsed = time.perf_counter() - start
                samples.append((
                    elapsed,
                    {k: trainer.phase_totals[k] - before[k] for k in before},
                    trainer.steps_run - steps_before))
        finally:
            trainer.close()
        return min(samples, key=lambda sample: sample[0])

    autograd_s = epoch_seconds()
    fused_s = epoch_seconds(fused_reg=True)
    sharded_s, phases, steps = sharded_epoch(workers=workers,
                                             grad_transport=transport)
    overhead_ms = sum(phases[k] for k in OVERHEAD_PHASES) / steps * 1e3
    return dict(cfg, workers=workers, grad_transport=transport,
                autograd_s=round(autograd_s, 4),
                fused_s=round(fused_s, 4),
                sharded_s=round(sharded_s, 4),
                fused_speedup=round(autograd_s / fused_s, 3) if fused_s
                else None,
                sharded_speedup=round(autograd_s / sharded_s, 3) if sharded_s
                else None,
                steps=int(steps),
                phases_s={k: round(v, 4) for k, v in phases.items()},
                phase_sum_s=round(sum(phases.values()), 4),
                overhead_ms_per_step=round(overhead_ms, 3),
                pre_bucketing_overhead_ms_per_step=PRE_BUCKETING_TOTAL_MS)


def _assert_finetune_healthy(finetune: dict, cpus: int,
                             smoke: bool) -> None:
    """Acceptance gates of the overlapped all-reduce (run by every bench).

    * The phase breakdown must account for the measured epoch (within
      5%) — otherwise the per-step numbers are leaking time somewhere
      unattributed and cannot be trusted.
    * On machines with real parallelism (≥4 CPUs) the sharded epoch must
      beat the serial autograd epoch outright. On smaller machines a
      wall-clock speedup is physically unavailable, so the gate is the
      thing this implementation actually controls: per-step parent-side
      overhead must be at least 3× below the pre-bucketing baseline, and
      the sharded epoch may not collapse below 0.5× autograd (2-3 CPUs,
      full workload) or 0.25× (one CPU, or the smoke workload).
    """
    sharded_s = finetune["sharded_s"]
    drift = abs(finetune["phase_sum_s"] - sharded_s)
    if drift > 0.05 * sharded_s:
        raise AssertionError(
            f"sharded phase breakdown ({finetune['phase_sum_s']}s) drifts "
            f"{drift / sharded_s:.1%} from the measured epoch "
            f"({sharded_s}s) — per-step accounting is leaking time")
    if cpus >= 4:
        floor = 0.5 if smoke else 2.0
        if finetune["sharded_speedup"] < floor:
            raise AssertionError(
                f"sharded_speedup {finetune['sharded_speedup']} below the "
                f"{floor}x floor on a {cpus}-CPU machine")
    else:
        cap = PRE_BUCKETING_TOTAL_MS / 3.0
        if finetune["overhead_ms_per_step"] > cap:
            raise AssertionError(
                f"parallel-path overhead {finetune['overhead_ms_per_step']}"
                f"ms/step exceeds {cap:.1f}ms — less than the required 3x "
                f"reduction vs the pre-bucketing baseline "
                f"({PRE_BUCKETING_TOTAL_MS}ms/step)")
        # With the BLAS thread budget two cores no longer oversubscribe:
        # ten full 2-CPU runs read 0.70-0.86x. The smoke workload is too
        # small to amortise the per-step coordination (0.28-0.39x).
        floor = 0.5 if cpus >= 2 and not smoke else 0.25
        if finetune["sharded_speedup"] < floor:
            raise AssertionError(
                f"sharded_speedup {finetune['sharded_speedup']} collapsed "
                f"below {floor}x even for a small machine")


def run_bench(workers: int = 4, repeats: int = 3, smoke: bool = False,
              seed: int = 0, transport: str = "fp32") -> dict:
    """Benchmark parallel scoring + fused/sharded fine-tuning.

    Raises ``AssertionError`` if the parallel importance report is not
    bit-identical to the serial one, if the sharded phase accounting does
    not sum to the measured epoch, or if the sharded path misses its
    machine-appropriate performance floor — the benchmark doubles as an
    end-to-end determinism and performance check.
    """
    from .supervisor import resolve_processes

    config = SMOKE_CONFIG if smoke else BENCH_CONFIG
    if smoke:
        workers = min(workers, 2)
        repeats = min(repeats, 2)
    cpus = threads.usable_cpus()
    processes = resolve_processes(workers)
    finetune = _bench_finetune(config["finetune"], workers, repeats, seed,
                               transport=transport)
    _assert_finetune_healthy(finetune, cpus, smoke)
    return {
        "benchmark": "repro.parallel scoring + fine-tuning",
        "smoke": bool(smoke),
        "workers": int(workers),
        "physical_processes": processes,
        "repeats": int(repeats),
        **host_record(**_blas_threads_record(processes)),
        "scoring": _bench_scoring(config["scoring"], workers, repeats, seed),
        "finetune": finetune,
    }


def format_table(results: dict) -> str:
    s = results["scoring"]
    f = results["finetune"]
    lines = [
        format_host(results),
        f"workers={results['workers']} "
        f"(physical processes={results['physical_processes']})",
        "",
        f"scoring   {s['model']:<10} classes={s['num_classes']:<4} "
        f"M={s['images_per_class']:<3} serial={s['serial_s']:.3f}s "
        f"parallel={s['parallel_s']:.3f}s speedup={s['speedup']:.2f}x "
        f"bit_identical={s['bit_identical']}",
        f"finetune  {f['model']:<10} batch={f['batch_size']:<4} "
        f"autograd={f['autograd_s']:.3f}s fused={f['fused_s']:.3f}s "
        f"sharded={f['sharded_s']:.3f}s "
        f"fused_speedup={f['fused_speedup']:.2f}x "
        f"sharded_speedup={f['sharded_speedup']:.2f}x",
        "          phases/step: " + " ".join(
            f"{k}={f['phases_s'][k] / f['steps'] * 1e3:.2f}ms"
            for k in ("broadcast", "compute", "publish", "reduce", "step")),
        f"          parallel-path overhead="
        f"{f['overhead_ms_per_step']:.2f}ms/step "
        f"(pre-bucketing baseline: "
        f"{f['pre_bucketing_overhead_ms_per_step']:.2f}ms/step)",
    ]
    return "\n".join(lines)
