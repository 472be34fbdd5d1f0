"""Server side of the serve workloads, run as a child process.

    python3 -m perfbench.serve_child --seed N [--trace]

Sets the server up :data:`perfbench.serve.SETUPS` times (each time:
build the three bench models, deploy them through the registry's compile
+ validate gate and start the socket server), keeps the last one and
prints one JSON line::

    {"port": ..., "setup_s": [...], "reference": {...}, "flops": {...}}

``reference`` holds, per model, the outputs of the deployed engine run
directly on the workload's payloads. The child then reads commands from
stdin, one per line: ``cpu`` prints ``{"cpu_s": ...}``, the CPU time the
process has used; ``setup`` sets up and closes :data:`SETUPS` more
servers beside the one serving and prints ``{"setup_s": [...]}``;
``on`` / ``off`` switch tracing, ``reset`` clears it, ``report`` prints
the trace aggregate as one JSON line; ``quit`` shuts everything down.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def build_models() -> dict:
    """The ``bench_serve`` models, dense and pruned (the int8 variant
    quantizes the pruned one)."""
    from repro.serve.bench import _BENCH_MODEL, _build_variant

    return {variant: _build_variant(_BENCH_MODEL, pruned=variant == "pruned")
            for variant in ("dense", "pruned")}


class Stack:
    """One set-up server: registry and socket server."""

    def __init__(self, on_batch):
        from repro.serve import ModelRegistry, SheddingConfig
        from repro.serve.server import ServeConfig, ServerThread

        from .serve import MAX_BATCH, MODEL, REFS, SAMPLE_SHAPE, SOURCE

        self.models = build_models()
        # Capacity, not the shed policy, is measured: pending headroom
        # and no SLO gate, as in bench_serve.
        self.registry = ModelRegistry(
            max_batch=MAX_BATCH, on_batch=on_batch,
            shedding=SheddingConfig(max_pending=256, p99_budget_ms=None))
        rng = np.random.default_rng(MODEL["seed"])
        for variant, ref in REFS.items():
            kwargs = {}
            if variant == "int8":
                kwargs = dict(quantize="int8", calibrate=[
                    rng.normal(size=(MAX_BATCH, *SAMPLE_SHAPE))
                    .astype(np.float32) for _ in range(3)])
            model = self.models[SOURCE[variant]]
            self.registry.deploy(ref, "v1", model=model,
                                 input_shape=SAMPLE_SHAPE,
                                 seed=MODEL["seed"], **kwargs)
        self.server = ServerThread(self.registry, ServeConfig()).start()

    def engines(self) -> dict:
        from .serve import REFS
        return {variant: self.registry.resolve(ref)[1].engine
                for variant, ref in REFS.items()}

    def close(self) -> None:
        self.server.stop()
        self.registry.close()


def timed_stack(on_batch) -> tuple[Stack, float]:
    start = time.perf_counter()
    stack = Stack(on_batch)
    return stack, time.perf_counter() - start


def spare_setups(n: int, on_batch) -> list[float]:
    """Set-up times of ``n`` servers, each closed right after and
    followed by a pause, so that they sample more than one second of
    the host's changing speed."""
    from .serve import SETUP_GAP_S

    times = []
    for _ in range(n):
        stack, took = timed_stack(on_batch)
        stack.close()
        times.append(took)
        time.sleep(SETUP_GAP_S)
    return times


def attach(tracer, engine_names: dict) -> None:
    """Wrap the engine and the batcher's submit."""
    from repro.infer import BatchRunner, InferenceEngine

    batch_start = threading.local()

    def run(self, x, *args, **kwargs):
        if not tracer.enabled:
            return original_run(self, x, *args, **kwargs)
        batch_start.t = start = tracer.begin("infer.engine.run")
        try:
            return original_run(self, x, *args, **kwargs)
        finally:
            elapsed = tracer.end(start)
            n = x.shape[0] if np.ndim(x) == 4 else 1
            tracer.count("infer.engine.samples", n)
            variant = engine_names.get(id(self))
            if variant is not None:
                tracer.count(f"infer.engine.{variant}.s", elapsed)
                tracer.count(f"infer.engine.{variant}.samples", n)

    def submit(self, *args, **kwargs):
        queued = tracer.clock()
        ticket = original_submit(self, *args, **kwargs)
        if tracer.enabled:

            def waited(t):
                # Fires on the batcher thread right after the engine
                # run that answered this ticket.
                start = getattr(batch_start, "t", None)
                if tracer.enabled and start is not None \
                        and not t.cancelled():
                    tracer.sample("serve.queue_wait_ms",
                                  (start - queued) * 1e3)
            ticket.add_done_callback(waited)
        return ticket

    original_run = tracer.replace(InferenceEngine, "run", run)
    original_submit = tracer.replace(BatchRunner, "submit", submit)


def report(tracer) -> dict:
    return {"spans": {name: [s.total_s, s.calls, s.child_s]
                      for name, s in tracer.spans.items()},
            "counters": dict(tracer.counters),
            "samples": {k: list(v) for k, v in tracer.samples.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    from repro.flops import profile_model

    from .serve import REFS, SAMPLE_SHAPE, SETUPS, SOURCE, payloads
    from .tracing import Tracer

    tracer = engine_names = on_batch = None
    if args.trace:
        tracer = Tracer()
        tracer.enabled = False
        engine_names = {}
        attach(tracer, engine_names)

        def on_batch(name, version, batch, outputs):
            if tracer.enabled:
                tracer.sample("infer.batcher.batch_size", len(batch))

    setup_s = spare_setups(SETUPS - 1, on_batch)
    stack, took = timed_stack(on_batch)
    setup_s.append(took)
    try:
        engines = stack.engines()
        if engine_names is not None:
            engine_names.update({id(e): v for v, e in engines.items()})
        inputs = payloads(args.seed)
        reference = {v: engines[v].run(inputs[v]).tolist() for v in REFS}
        flops = {v: profile_model(stack.models[SOURCE[v]],
                                  SAMPLE_SHAPE).total_flops for v in REFS}
        print(json.dumps({"port": stack.server.port, "setup_s": setup_s,
                          "reference": reference, "flops": flops}),
              flush=True)
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "quit":
                break
            if cmd == "cpu":
                print(json.dumps({"cpu_s": time.process_time()}),
                      flush=True)
            elif cmd == "setup":
                # The spare servers' deploy gates run the engine: keep
                # them out of the trace.
                tracing = tracer is not None and tracer.enabled
                if tracing:
                    tracer.enabled = False
                times = spare_setups(SETUPS, on_batch)
                if tracing:
                    tracer.enabled = True
                print(json.dumps({"setup_s": times}), flush=True)
            elif tracer is None:
                continue
            elif cmd == "on":
                tracer.enabled = True
            elif cmd == "reset":
                tracer.reset()
            elif cmd == "off":
                tracer.enabled = False
            elif cmd == "report":
                print(json.dumps(report(tracer)), flush=True)
    finally:
        stack.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
