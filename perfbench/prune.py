"""Workloads ``prune_serial`` and ``prune_sharded``: the Fig. 5 loop.

One *pass* builds a fresh model and dataset from the seed (set-up), then
runs ``pretrain()`` followed by ``run()`` of
:class:`repro.core.ClassAwarePruningFramework` (the loop). The accuracy
tolerance is wide and ``max_iterations`` fixed, so every pass does the
same work: three iterations that each remove 10% of the remaining
filters. A run repeats the pass until ``--seconds`` are spent (at least
twice) and reports medians; every pass must end in the same state.

Besides ``loop_s``, a pass gives ``capacity_rps``, the images the loop
trains on (pretraining and every fine-tuning epoch) per second of the
loop, over the untraced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import weakref

import numpy as np

from . import stats

#: The workload: vgg11 on 10 synthetic classes at 12x12, paper strategy.
CONFIG = dict(model="vgg11", num_classes=10, image_size=12, width=0.25,
              samples_per_class=36, test_per_class=40, noise=0.25,
              pretrain_epochs=3, lr=0.05, finetune_epochs=1,
              finetune_lr=0.01, batch_size=32, images_per_class=4,
              tau_quantile=0.9, score_threshold=3.0, max_fraction=0.1,
              max_iterations=3, tolerance=1.0)

#: Extra set-ups timed before every pass and after the last, with a
#: pause after each. They are spread over the run because the host's
#: speed changes from one second to the next: timed all at once, the
#: median of one run read 0.05 or 0.075 s depending on the second it
#: fell in.
SETUPS_PER_PASS = 8
SETUP_GAP_S = 0.15

PHASES = ("compute", "publish", "reduce", "step", "setup", "broadcast")


def build(seed: int, workers: int):
    """Set-up of one pass: data, model and framework from the seed."""
    from repro.core import ClassAwarePruningFramework, FrameworkConfig
    from repro.core.importance import ImportanceConfig
    from repro.core.trainer import TrainingConfig
    from repro.data import SyntheticConfig, SyntheticImageClassification
    from repro.models import build_model

    c = CONFIG

    def data(per_class: int, train: bool):
        cfg = SyntheticConfig(num_classes=c["num_classes"],
                              image_size=c["image_size"],
                              samples_per_class=per_class,
                              noise=c["noise"], seed=seed)
        return SyntheticImageClassification(cfg, train=train)

    model = build_model(c["model"], num_classes=c["num_classes"],
                        image_size=c["image_size"], width=c["width"],
                        seed=seed)
    return ClassAwarePruningFramework(
        model, data(c["samples_per_class"], True),
        data(c["test_per_class"], False), num_classes=c["num_classes"],
        input_shape=(3, c["image_size"], c["image_size"]),
        config=FrameworkConfig(
            score_threshold=c["score_threshold"],
            max_fraction_per_iteration=c["max_fraction"],
            strategy="percentage+threshold",
            finetune_epochs=c["finetune_epochs"],
            accuracy_drop_tolerance=c["tolerance"],
            max_iterations=c["max_iterations"],
            finetune_lr=c["finetune_lr"],
            importance=ImportanceConfig(
                images_per_class=c["images_per_class"], tau_mode="quantile",
                tau_quantile=c["tau_quantile"], seed=seed)),
        training=TrainingConfig(epochs=c["pretrain_epochs"],
                                batch_size=c["batch_size"], lr=c["lr"],
                                seed=seed, workers=workers))


def digest(result) -> str:
    """Hash of everything a pass produces: weights, accuracy, structure."""
    h = hashlib.sha256()
    for name, array in sorted(result.model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr((result.baseline_accuracy, result.final_accuracy,
                   result.stop_reason,
                   [sorted(it.removed_per_group.items())
                    for it in result.iterations])).encode())
    return h.hexdigest()


def attach(tracer) -> None:
    """Wrap the layers the loop runs through (see README for the map)."""
    import repro.core.framework as framework
    import repro.tensor.conv as conv
    from repro.core.trainer import Trainer
    from repro.tensor.tensor import Tensor

    seen = weakref.WeakKeyDictionary()

    def phase_totals(_, args, kwargs, elapsed):
        # Trainer.phase_totals is cumulative per trainer; count deltas.
        trainer = args[0]
        last = seen.get(trainer, {})
        for phase in PHASES:
            now = trainer.phase_totals.get(phase, 0.0)
            tracer.count(f"parallel.phase.{phase}_s",
                         now - last.get(phase, 0.0))
        seen[trainer] = dict(trainer.phase_totals)

    tracer.patch(Trainer, "train", "core.trainer.train", after=phase_totals)
    tracer.patch(framework.ClassAwarePruningFramework, "evaluate_importance",
                 "core.importance.evaluate")
    tracer.patch(framework, "apply_pruning", "core.pruner.apply")
    tracer.patch(framework, "evaluate_model", "core.evaluate")
    tracer.patch(framework, "profile_model", "flops.profile")
    tracer.patch(conv, "conv2d", "tensor.conv2d")
    tracer.patch(Tensor, "backward", "tensor.backward")


def run(workload: str, seed: int, seconds: float, tracer, reference: dict,
        log) -> dict:
    """Run passes for ``seconds`` (at least two, three when traced)."""
    workers = 2 if workload == "prune_sharded" else 0
    traced = tracer is not None
    if traced:
        attach(tracer)
    passes = []
    failures = []
    # Set-up is cheap next to a pass: time a few more for a steady median.
    setups = []

    def time_setups():
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            build(seed, workers)
            setups.append(time.perf_counter() - t0)
            time.sleep(SETUP_GAP_S)

    # A traced run alternates untraced and traced passes, so the loop
    # time of both is measured in the same process; the first pass runs
    # cold and is left out of the comparison.
    min_passes = 3 if traced else 2
    begin = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - begin < seconds:
        tracing = traced and len(passes) % 2 == 1
        time_setups()
        if traced:
            tracer.enabled = tracing
        t0 = time.perf_counter()
        fw = build(seed, workers)
        t1 = time.perf_counter()
        with tracer.span("core.framework") if tracing \
                else contextlib.nullcontext():
            fw.pretrain()
            result = fw.run()
        t2 = time.perf_counter()
        one = {"setup_s": t1 - t0, "loop_s": t2 - t1, "traced": tracing,
               "train_rate": ((CONFIG["pretrain_epochs"]
                               + CONFIG["finetune_epochs"]
                               * len(result.iterations))
                              * len(fw.train_dataset) / (t2 - t1)),
               "digest": digest(result),
               "final_accuracy": result.final_accuracy,
               "flops_reduction": result.flops_reduction,
               "removed": [it.num_removed for it in result.iterations],
               "stop_reason": result.stop_reason,
               "worker_events": len(fw.worker_events),
               "degraded": int(fw.degraded)}
        one["gates"] = check_pass(one, reference)
        passes.append(one)
        failures.extend(one["gates"])
        if traced:
            tracer.enabled = False
        log(f"pass {len(passes)}: setup {one['setup_s']:.3f} s, loop "
            f"{one['loop_s']:.3f} s{' (traced)' if tracing else ''}, "
            f"acc {one['final_accuracy']:.4f}, flops_red "
            f"{one['flops_reduction']:.4f}, removed {one['removed']}")
    time_setups()
    if len({p["digest"] for p in passes}) != 1:
        failures.append("passes of one seed ended in different states: "
                        + ", ".join(p["digest"][:12] for p in passes))
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        "setup_s": stats.median(setups + [p["setup_s"] for p in passes]),
        "loop_s": stats.median([p["loop_s"] for p in plain]),
        "final_accuracy": passes[-1]["final_accuracy"],
        "flops_reduction": passes[-1]["flops_reduction"],
        "capacity_rps": stats.median([p["train_rate"] for p in plain]),
    }
    return {"passes": passes, "metrics": metrics, "failures": failures,
            "attempted": len(passes),
            "failed": sum(1 for p in passes if p["gates"])}


def check_pass(one: dict, reference: dict) -> list[str]:
    """Gates on one pass against the workload's recorded structure."""
    out = []
    if one["removed"] != reference["removed"]:
        out.append(f"filters removed per iteration {one['removed']} != "
                   f"reference {reference['removed']}")
    if one["stop_reason"] != reference["stop_reason"]:
        out.append(f"stop reason {one['stop_reason']!r} != reference "
                   f"{reference['stop_reason']!r}")
    return out


def layer_metrics(tracer, passes: list[dict]) -> dict:
    """Per-pass averages of the traced passes' spans and counters."""
    n = sum(1 for p in passes if p["traced"]) or 1
    spans = tracer.spans

    def total(name):
        stat = spans.get(name)
        return stat.total_s / n if stat else 0.0

    def calls(name):
        stat = spans.get(name)
        return stat.calls / n if stat else 0.0

    loop = spans.get("core.framework")
    out = {
        "core.trainer.train_s": total("core.trainer.train"),
        "core.trainer.calls": calls("core.trainer.train"),
        "core.importance.evaluate_s": total("core.importance.evaluate"),
        "core.pruner.apply_s": total("core.pruner.apply"),
        "core.evaluate.s": total("core.evaluate"),
        "flops.profile_s": total("flops.profile"),
        "core.framework.self_s": (stats.self_time(loop) / n
                                  if loop else 0.0),
        "tensor.conv2d.s": total("tensor.conv2d"),
        "tensor.conv2d.calls": calls("tensor.conv2d"),
        "tensor.backward.s": total("tensor.backward"),
        "parallel.worker_events": sum(p["worker_events"]
                                      for p in passes) / len(passes),
        "parallel.degraded": max(p["degraded"] for p in passes),
        "trace.coverage": stats.coverage(loop) if loop else 0.0,
    }
    for phase in PHASES:
        key = f"parallel.phase.{phase}_s"
        out[key] = tracer.counters.get(key, 0.0) / n
    traced = [p["loop_s"] for p in passes if p["traced"]]
    plain = [p["loop_s"] for p in passes[1:] if not p["traced"]]
    out["trace.overhead"] = stats.median(traced) / stats.median(plain) - 1
    return out
