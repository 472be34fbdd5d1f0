"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in ``BENCHMARK.json`` at the repository
root and explained in ``perfbench/README.md``. The command prints a
human-readable log and table, the host block as one JSON line, and as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. It exits 1 when a correctness gate fails and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.host import (cpu_steal_ticks, host_block,  # noqa: E402
                            steal_share)

#: Workloads and metrics, with their units, as ``BENCHMARK.json`` lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers each workload family leaves idle; their metrics read 0 there.
IDLE_LAYERS = {"prune": ("infer.", "serve.", "loadgen."),
               "serve": ("core.", "tensor.", "flops.", "parallel.")}

#: ROADMAP rule: child spans cover at least this share of the loop.
MIN_COVERAGE = 0.95


def log(msg: str) -> None:
    print(msg, flush=True)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def stop_resource_tracker() -> None:
    """Stop and reap the process multiprocessing started to track shared
    memory for the worker pools, instead of leaving it to exit after us."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_prune(args) -> tuple[dict, list[str], int, int]:
    from perfbench import prune
    from perfbench.tracing import Tracer

    reference = json.loads((Path(__file__).parent / "reference.json")
                           .read_text())[args.workload]
    tracer = Tracer() if args.trace else None
    out = prune.run(args.workload, args.seed, args.seconds, tracer,
                    reference, log)
    failures = list(out["failures"])
    if args.trace:
        metrics = prune.layer_metrics(tracer, out["passes"])
        tracer.restore()
        covered = metrics["trace.coverage"]
        if covered < MIN_COVERAGE:
            failures.append(f"child spans cover {covered:.3f} of the loop "
                            f"(< {MIN_COVERAGE})")
        prune_table(tracer, out["passes"])
    else:
        metrics = dict(out["metrics"], peak_rss_mb=peak_rss_mb())
    return metrics, failures, out["attempted"], out["failed"]


def prune_table(tracer, passes) -> None:
    n = sum(1 for p in passes if p["traced"]) or 1
    loop = tracer.spans.get("core.framework")
    total = loop.total_s / n if loop else 0.0
    log(f"\ntraced spans, per pass (loop {total:.3f} s):")
    log(f"{'span':<28} {'total s':>9} {'calls':>9} {'self s':>9} "
        f"{'of loop':>8}")
    for name, stat in sorted(tracer.spans.items(),
                             key=lambda kv: -kv[1].total_s):
        share = stat.total_s / n / total if total else 0.0
        log(f"{name:<28} {stat.total_s / n:>9.3f} {stat.calls / n:>9.0f} "
            f"{stats.self_time(stat) / n:>9.3f} {share:>8.1%}")


def _pct(values, p: float) -> float:
    return stats.percentile(values, p) if values else 0.0


def serve_layers(out: dict) -> dict:
    trace = out["trace"]
    spans, counters, samples = (trace["spans"], trace["counters"],
                                trace["samples"])
    server = out["server_stats"]
    engine = spans.get("infer.engine.run", [0.0, 0, 0.0])
    metrics = {
        "infer.engine.run_s": engine[0], "infer.engine.calls": engine[1],
        "infer.engine.samples": counters.get("infer.engine.samples", 0),
    }
    sizes = samples.get("infer.batcher.batch_size", [])
    metrics["infer.batcher.batch_size_mean"] = (sum(sizes) / len(sizes)
                                                if sizes else 0.0)
    for variant in ("dense", "pruned", "int8"):
        n = counters.get(f"infer.engine.{variant}.samples", 0)
        metrics[f"infer.engine.{variant}.ms_per_sample"] = (
            counters[f"infer.engine.{variant}.s"] / n * 1e3 if n else 0.0)
    latency = server["latency"]
    queue = server.get("queue_wait") or {}
    wait = out["trace_fixed"]["samples"].get("serve.queue_wait_ms", [])
    metrics.update({
        "serve.server.latency_p50_ms": latency["p50_ms"],
        "serve.server.latency_p99_ms": latency["p99_ms"],
        # The stats op's queue-wait reservoir is only filled when the
        # server records it; otherwise the batcher wrappers measure it.
        "serve.server.queue_wait_p50_ms": (queue.get("p50_ms")
                                           or _pct(wait, 50)),
        "serve.server.queue_wait_p99_ms": (queue.get("p99_ms")
                                           or _pct(wait, 99)),
        "serve.outside_p50_ms": out["p50_ms"] - latency["p50_ms"],
    })
    metrics.update({
        "trace.coverage": latency["p50_ms"] / out["p50_ms"],
        "trace.overhead": out["trace_overhead"],
    })
    return metrics


def run_serve(args) -> tuple[dict, list[str], int, int]:
    from perfbench import serve

    out = serve.run(args.seed, args.seconds, bool(args.trace), ROOT, log)
    failures = []
    if out["wrong"]:
        failures.append(f"{out['wrong']} ok responses differ from the "
                        "engine run directly")
    ok = sum(out["ok_by_variant"].values())
    if args.trace:
        metrics = serve_layers(out)
        metrics.update({"loadgen.sent": out["attempted"],
                        "loadgen.ok": out["attempted"] - out["failed"],
                        "loadgen.failed": out["failed"],
                        "loadgen.late_ms_max": out["late_ms_max"],
                        "loadgen.p50_ms": out["p50_ms"],
                        "loadgen.p90_ms": out["p90_ms"],
                        "loadgen.p99_ms": out["p99_ms"],
                        "loadgen.burst_s": out["burst_s"],
                        "loadgen.saturated_rps": out["saturated_rps"]})
        log(f"\nclient p50 {out['p50_ms']:.3f} ms = server "
            f"{metrics['serve.server.latency_p50_ms']:.3f} ms + outside "
            f"{metrics['serve.outside_p50_ms']:.3f} ms")
    else:
        flops = out["flops"]
        served = sum(out["ok_by_variant"][v] * flops[v]
                     for v in out["ok_by_variant"])
        metrics = {
            "setup_s": stats.median(out["setup"]),
            "peak_rss_mb": peak_rss_mb(),
            "loop_s": out["loop_s"],
            # A request that failed or was never answered counts
            # against accuracy like a wrong answer.
            "final_accuracy": ok / out["attempted"],
            "flops_reduction": 1 - served / (ok * flops["dense"])
            if ok else 0.0,
            "capacity_rps": out["capacity_rps"],
        }
    return metrics, failures, out["attempted"], out["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # Everything the program writes to temporary storage stays in the
    # checkout and is removed at the end.
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    os.environ["REPRO_SHM_LEDGER_DIR"] = str(workdir / "ledger")
    tempfile.tempdir = None
    steal = cpu_steal_ticks()
    start = time.perf_counter()
    try:
        runner = run_prune if args.workload.startswith("prune") else run_serve
        metrics, failures, attempted, failed = runner(args)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        idle = IDLE_LAYERS[args.workload.split("_")[0]]
        metrics.update({k: 0.0 for k in names if k.startswith(idle)})
    missing = [k for k in names if k not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    for failure in failures:
        log(f"GATE FAILED: {failure}")
    log("\n" + "\n".join(f"{name:<36} {metrics.get(name, float('nan')):>14.6g}"
                         f" {unit}" for name, unit in names.items()))
    host = host_block(ROOT)
    stolen = steal_share(steal, time.perf_counter() - start)
    if stolen is not None:
        # Share of the run's CPU time the hypervisor gave to other guests:
        # when it is high, every timing of the run is.
        host["cpu_steal_share"] = round(stolen, 4)
    log(json.dumps({"host": host, "workload": args.workload,
                    "seed": args.seed, "trace": args.trace}))
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in names.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
