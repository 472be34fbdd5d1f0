"""Sharded data-parallel fine-tuning with an overlapped bucketed all-reduce.

Architecture (one session = one worker pool + one set of shared segments):

* **Weights** live in one shared segment. The *parent model's parameters
  are bound to the views* and the optimizer updates them in place, so the
  optimizer step itself is the broadcast — no per-step weight copy. A
  full re-copy happens only when something rebinds the parameters away
  from the views (sentinel rewind via ``load_state_dict``; filter surgery
  closes the session entirely).
* **Control block** (parent → workers): ``step``, ``mode``, batch size
  and shard ``bounds``. The parent writes the step payload first and the
  step counter last; a worker reacts to the counter changing, which makes
  the counter the control block's publication barrier.
* **Gradient buckets** (workers → parent): per shard, one flat float32
  array laid out by a :class:`~repro.parallel.bucket.BucketPlan`, plus a
  per-bucket seqlock word. Backward accumulates *directly into the
  bucket views* (``Tensor.grad_sink``) and an ``on_leaf`` hook marks each
  bucket ready the moment its last parameter's gradient is final — so
  the parent reduces bucket *i* while workers are still backpropagating
  bucket *i+1*. Reduction is in-place into a preallocated parent-side
  accumulator; ``param.grad`` is a view into it.
* **Standing pipeline**: the pool dispatches one long-running task per
  seat (:meth:`~repro.parallel.supervisor.SupervisedWorkerPool.start_pipeline`);
  each seat loops over the control block for the life of the session,
  computing its *group* of logical shards in ascending shard order. Every
  batch costs one control-block write instead of a ``run_tasks``
  round-trip. Supervision still applies: the parent pumps the pipeline
  from its reduction wait loop, a killed worker is respawned and re-enters
  the loop (recomputing the in-flight step from the unchanged shared
  weights — bit-identical bytes), and an exhausted budget degrades the
  pool, after which the *session* completes steps serially in the parent
  through the same publish/reduce code path.
* Optional **int8 gradient transport** (``transport="int8"``): workers
  additionally publish each bucket as int8 codes under a power-of-two
  scale whose float32 dequantization is bit-exact (see
  :mod:`repro.parallel.bucket`); lossy only through quantization
  rounding, still deterministic, off by default.

Per step the parent reduces ``g = Σ_k (n_k/n) · g_k`` in shard order,
folds the per-shard batch-norm statistics into the running stats (exact
pooling via ``E[x²]``, over the *union* of shards that produced stats),
and leaves ``param.grad`` pointing into the reduction accumulator for
the fused regularizer and SGD step in the parent.

Determinism contract
--------------------
``workers`` is a *logical* shard count and part of the numerics: shard
boundaries, gradient reduction order, bucket layout and batch-norm
pooling all follow from it. Fixed ``(workers, seed)`` ⇒ bit-reproducible
training history, regardless of how many physical processes execute the
shards, which seat a shard lands on, how workers die and respawn, or
whether the pool degrades to the serial path. With ``workers=1`` the
scaling and pooling collapse to identities, making the run bitwise equal
to the serial fused-regularizer path (pinned by
``tests/parallel/test_sharded_trainer.py``). Different worker counts are
*different* (equally valid) numerics, exactly like changing the device
count under DDP with unsynced batch norm.
"""

from __future__ import annotations

import time

import numpy as np

from .bucket import (DEFAULT_BUCKET_BYTES, MODE_RAW, BucketPlan,
                     dequantize_bucket, mark_ready, mark_writing,
                     quantize_bucket, seq_ready, seq_writing)

__all__ = ["TrainingService", "ShardedTrainingSession", "PIPELINE_TASK"]

#: Tag of the standing per-seat task dispatched through the supervisor.
PIPELINE_TASK = "__repro.parallel.shard-pipeline__"

GRAD_TRANSPORTS = ("fp32", "int8")


def _bn_layout(sizes: list[int]) -> tuple[list[tuple[int, int]], int]:
    """Concatenated per-module channel slices of the BN stat arrays."""
    slices = []
    offset = 0
    for size in sizes:
        slices.append((offset, offset + size))
        offset += size
    return slices, offset


class TrainingService:
    """Worker-side service: the standing per-seat training loop.

    The model parameters are bound to the shared weight views, so the
    parent's in-place optimizer updates are visible without any message
    passing; shard gradients leave through the per-shard bucket segments
    while backward is still running. Only the end-of-session telemetry
    summary travels over the result channel.
    """

    def __init__(self, arch: dict, weight_spec, input_shape, batch_spec,
                 control_spec, shard_specs, bucket_bytes: int,
                 transport: str):
        from ..models import build_model
        from .scoring import _bind_state_views
        from .shm import SharedArrayBundle

        arch = dict(arch)
        model = build_model(arch.pop("name"), **arch)
        self._weights = SharedArrayBundle.attach(weight_spec)
        state = self._weights.arrays
        try:
            _bind_state_views(model, state)
        except ValueError:
            from ..io.checkpoint import conform_to_state
            conform_to_state(model, dict(state), tuple(input_shape))
            _bind_state_views(model, state)
        model.train()
        self.model = model
        self.transport = transport
        self._batch = SharedArrayBundle.attach(batch_spec)
        self._control = SharedArrayBundle.attach(control_spec)
        self._shards = [SharedArrayBundle.attach(spec)
                        for spec in shard_specs]
        from ..nn import BatchNorm2d
        self._bn_modules = [(path, module)
                            for path, module in model.named_modules()
                            if isinstance(module, BatchNorm2d)]
        self._bn_slices, _ = _bn_layout(
            [m.num_features for _, m in self._bn_modules])
        self._params = list(model.named_parameters())
        self.plan = BucketPlan([(name, p.data.shape)
                                for name, p in self._params],
                               target_bytes=bucket_bytes)
        # Per (shard, param): the bucket-region view backward writes into.
        self._sinks = [
            {name: self.plan.param_view(bundle.arrays["grads"], name)
             for name, _ in self._params}
            for bundle in self._shards
        ]
        self._bucket_of = {id(param): self.plan.bucket_of(name)
                           for name, param in self._params}

    def close(self) -> None:
        """Drop this process's shared-memory mappings (parent-side use)."""
        self._weights.close()
        self._batch.close()
        self._control.close()
        for bundle in self._shards:
            bundle.close()

    # ------------------------------------------------------------------
    def handle(self, task):
        if isinstance(task, tuple) and task and task[0] == PIPELINE_TASK:
            return self._run_loop(tuple(task[1]))
        raise ValueError(f"unexpected training task {task!r}; the sharded "
                         "trainer dispatches standing pipeline tasks only")

    def _run_loop(self, shard_ids: tuple[int, ...]) -> dict:
        """The standing per-seat loop: one iteration per control step.

        Idempotent mid-flight by construction: a respawned replacement
        re-enters here, observes the current control step and recomputes
        it from the unchanged shared weights, republishing bit-identical
        bytes (the seqlock words make any half-published predecessor
        state invisible to the parent).
        """
        control = self._control.arrays
        step_word = control["step"]
        steps = 0
        compute_s = 0.0
        publish_s = 0.0
        last = 0
        idle = 0
        while True:
            step = int(step_word[0])
            if step <= last:
                # Short sleeps while a step is expected imminently, longer
                # ones when idle (epoch boundaries, parent-side eval) so a
                # waiting seat doesn't steal cycles on small machines.
                idle += 1
                time.sleep(0.0002 if idle < 50 else 0.002)
                continue
            idle = 0
            if int(control["mode"][0]) == 1:
                return {"steps": steps, "compute_s": round(compute_s, 4),
                        "publish_s": round(publish_s, 4)}
            last = step
            n = int(control["n"][0])
            n_shards = int(control["n_shards"][0])
            bounds = control["bounds"]
            for shard in shard_ids:
                if shard >= n_shards:
                    continue
                c_s, p_s = self.run_shard(shard, step, int(bounds[shard]),
                                          int(bounds[shard + 1]), n)
                compute_s += c_s
                publish_s += p_s
            steps += 1

    # ------------------------------------------------------------------
    def run_shard(self, shard: int, step: int, start: int, stop: int,
                  n: int) -> tuple[float, float]:
        """Compute and publish one shard of one step (idempotent).

        Returns ``(compute_seconds, publish_seconds)`` telemetry. Also
        the serial execution path after a pool degrade: the parent calls
        it directly on a parent-side service instance, flowing through
        the exact same publish/reduce bytes as the workers.
        """
        from ..nn import cross_entropy
        from ..tensor import Tensor

        t0 = time.perf_counter()
        bundle = self._shards[shard].arrays
        seq = bundle["seq"]
        writing = seq_writing(step)
        bundle["done"][0] = writing
        bundle["compute_done"][0] = writing
        for index in range(len(self.plan)):
            mark_writing(seq, index, step)

        sinks = self._sinks[shard]
        countdown = [len(b.names) for b in self.plan.buckets]
        model = self.model
        for name, param in self._params:
            param.grad_sink = sinks[name]
        model.zero_grad()
        for _, module in self._bn_modules:
            object.__setattr__(module, "last_batch_stats", None)

        images = self._batch.arrays["images"][start:stop]
        labels = np.array(self._batch.arrays["labels"][start:stop],
                          copy=True)
        logits = model(Tensor(images))
        ce = cross_entropy(logits, labels)

        publish_box = [0.0]
        bucket_of = self._bucket_of

        def on_leaf(tensor):
            index = bucket_of.get(id(tensor))
            if index is None:
                return
            countdown[index] -= 1
            if countdown[index] == 0:
                t_pub = time.perf_counter()
                self._publish_bucket(bundle, seq, index, step)
                publish_box[0] += time.perf_counter() - t_pub

        ce.backward(on_leaf=on_leaf)
        t1 = time.perf_counter()
        bundle["compute_done"][0] = seq_ready(step)

        # Tail publish: parameters outside the backward graph still owe
        # their (zero) region to the bucket countdowns.
        for name, param in self._params:
            if param.grad is None:
                sinks[name][:] = 0.0
                index = self.plan.bucket_of(name)
                countdown[index] -= 1
                if countdown[index] == 0:
                    self._publish_bucket(bundle, seq, index, step)

        mean_view = bundle["bn_mean"]
        var_view = bundle["bn_var"]
        count_view = bundle["bn_count"]
        present = bundle["bn_present"]
        for i, (_, module) in enumerate(self._bn_modules):
            stats = module.last_batch_stats
            if stats is None:
                present[i] = 0
                continue
            lo, hi = self._bn_slices[i]
            mean_view[lo:hi] = stats[0]
            var_view[lo:hi] = stats[1]
            count_view[i] = stats[2]
            present[i] = 1
        bundle["ce"][0] = float(ce.data)
        bundle["correct"][0] = int(
            (logits.data.argmax(axis=1) == labels).sum())
        bundle["done"][0] = seq_ready(step)
        t2 = time.perf_counter()
        return (t1 - t0) - publish_box[0], publish_box[0] + (t2 - t1)

    def _publish_bucket(self, bundle, seq, index: int, step: int) -> None:
        """Seal one bucket: optional int8 encode, then the ready mark."""
        if self.transport == "int8":
            flat = self.plan.bucket_view(bundle["grads"], index)
            codes = self.plan.bucket_view(bundle["q"], index)
            mode, scale = quantize_bucket(flat, codes)
            bundle["qmode"][index] = mode
            bundle["qscale"][index] = scale
        mark_ready(seq, index, step)


class ShardedTrainingSession:
    """Parent-side handle owning the pool, pipeline and shared buffers.

    Created lazily by the :class:`~repro.core.trainer.Trainer` on the
    first batch (when the batch geometry is known) and reused for the
    whole ``train()`` call. ``run_batch`` leaves ``param.grad`` as views
    into the session's preallocated reduction accumulator — callers must
    treat the gradients as borrowed until the next ``run_batch``.
    """

    def __init__(self, model, workers: int, capacity: int,
                 sample_shape: tuple[int, ...],
                 processes: int | None = None, supervision=None,
                 on_event=None, bucket_bytes: int = DEFAULT_BUCKET_BYTES,
                 transport: str = "fp32"):
        from ..nn import BatchNorm2d
        from .scoring import _bind_state_views
        from .shm import SharedArrayBundle
        from .supervisor import SupervisedWorkerPool, resolve_processes

        arch = getattr(model, "arch", None)
        if not isinstance(arch, dict) or "name" not in arch:
            raise ValueError(
                "sharded training rebuilds the model inside each worker "
                "and needs an architecture recipe: build the model via "
                "repro.models.build_model or set model.arch")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if transport not in GRAD_TRANSPORTS:
            raise ValueError(f"unknown grad transport {transport!r}; "
                             f"expected one of {GRAD_TRANSPORTS}")
        self.model = model
        self.workers = workers
        self.capacity = capacity
        self.sample_shape = tuple(sample_shape)
        self.transport = transport
        self._arch = dict(arch)
        self._bucket_bytes = int(bucket_bytes)

        self._named_params = list(model.named_parameters())
        self.plan = BucketPlan([(name, p.data.shape)
                                for name, p in self._named_params],
                               target_bytes=self._bucket_bytes)
        self._bn_modules = [(path, module)
                            for path, module in model.named_modules()
                            if isinstance(module, BatchNorm2d)]
        self._bn_slices, bn_total = _bn_layout(
            [m.num_features for _, m in self._bn_modules])

        n_buckets = len(self.plan)
        total = self.plan.total_floats
        max_bucket = max(b.size for b in self.plan.buckets)
        # Preallocated reduction state: the accumulator the reduced
        # gradients land in (param.grad views into it) and the scratch
        # buffers of the in-place bucket ops. Nothing per-step allocates.
        self._acc = np.zeros(total, np.float32)
        self._scratch = np.zeros(max_bucket, np.float32)
        self._dequant = (np.zeros(max_bucket, np.float32)
                         if transport == "int8" else None)
        self._grad_views = {name: self.plan.param_view(self._acc, name)
                            for name, _ in self._named_params}
        self.step = 0
        self.steps_run = 0
        #: Cumulative parent-side per-phase seconds across run_batch calls
        #: (the trainer adds its own "step" phase on top).
        self.phase_totals = {"broadcast": 0.0, "compute": 0.0,
                             "publish": 0.0, "reduce": 0.0}

        self._weights = None
        self._batch = None
        self._control = None
        self._shards = []
        self.pool = None
        self.pipeline = None
        self._serial = None
        self._bound = False
        try:
            state = model.state_dict()
            self._weights = SharedArrayBundle.create(state)
            # Zero-broadcast weights: the parent parameters become views
            # of the shared segment; every in-place optimizer update is
            # immediately visible to all workers.
            _bind_state_views(model, self._weights.arrays)
            self._bound = True
            self._batch = SharedArrayBundle.create({
                "images": np.zeros((capacity,) + self.sample_shape,
                                   np.float32),
                "labels": np.zeros(capacity, np.intp),
            })
            self._control = SharedArrayBundle.create_empty({
                "step": ((1,), "<i8"),
                "mode": ((1,), "<i8"),
                "n": ((1,), "<i8"),
                "n_shards": ((1,), "<i8"),
                "bounds": ((workers + 1,), "<i8"),
            })
            layout = {
                "grads": ((total,), "<f4"),
                "seq": ((n_buckets,), "<i8"),
                "bn_mean": ((bn_total,), "<f4"),
                "bn_var": ((bn_total,), "<f4"),
                "bn_count": ((len(self._bn_modules),), "<i8"),
                "bn_present": ((len(self._bn_modules),), "<i8"),
                "ce": ((1,), "<f8"),
                "correct": ((1,), "<i8"),
                "compute_done": ((1,), "<i8"),
                "done": ((1,), "<i8"),
            }
            if transport == "int8":
                layout["q"] = ((total,), "|i1")
                layout["qscale"] = ((n_buckets,), "<f8")
                layout["qmode"] = ((n_buckets,), "<i8")
            self._shards = [SharedArrayBundle.create_empty(layout)
                            for _ in range(workers)]
            self.physical_processes = resolve_processes(workers, processes)
            seats = self.physical_processes
            # Round-robin shard groups: every seat gets one of the
            # earliest shards, so shard-ordered reduction can start as
            # soon as possible; each seat computes its group in ascending
            # shard order. Results are independent of the grouping.
            groups = [tuple(range(seat, workers, seats))
                      for seat in range(seats)]
            self.pool = SupervisedWorkerPool(
                seats, TrainingService,
                (self._arch, self._weights.spec, self.sample_shape,
                 self._batch.spec, self._control.spec,
                 tuple(s.spec for s in self._shards),
                 self._bucket_bytes, transport),
                supervision=supervision, on_event=on_event)
            self.pipeline = self.pool.start_pipeline(
                [(PIPELINE_TASK, group) for group in groups])
        except BaseException:
            # Don't leak the segments when pool start-up fails (e.g. a
            # worker raises during attach): no other owner exists.
            self.close()
            raise

    # ------------------------------------------------------------------
    def compatible(self, batch_shape: tuple[int, ...]) -> bool:
        return (batch_shape[0] <= self.capacity
                and tuple(batch_shape[1:]) == self.sample_shape)

    def _ensure_bound(self) -> None:
        """Re-establish the weight-view binding if something broke it.

        ``load_state_dict`` (sentinel rewind) rebinds ``param.data`` to
        private arrays; the identity check notices and re-broadcasts the
        full state once — the only remaining full weight copy, paid at
        rewind points instead of every step.
        """
        from .scoring import _bind_state_views
        views = self._weights.arrays
        for name, param in self._named_params:
            if param.data is not views[name]:
                self._weights.copy_from(self.model.state_dict())
                _bind_state_views(self.model, views)
                return

    def run_batch(self, images: np.ndarray, labels: np.ndarray) -> dict:
        """One overlapped forward/backward/all-reduce over the pipeline.

        Returns ``{"ce", "correct", "count", "phases"}`` where ``ce`` is
        the shard-weighted mean cross entropy and ``phases`` the
        parent-side wall-clock split of this step (``broadcast`` /
        ``compute`` / ``publish`` / ``reduce`` seconds).
        """
        t0 = time.perf_counter()
        n = len(images)
        self._ensure_bound()
        np.copyto(self._batch.arrays["images"][:n], images)
        self._batch.arrays["labels"][:n] = labels
        n_shards = min(self.workers, n)
        bounds = [n * i // n_shards for i in range(n_shards + 1)]
        control = self._control.arrays
        control["n"][0] = n
        control["n_shards"][0] = n_shards
        control["bounds"][:n_shards + 1] = bounds
        self.step += 1
        step = self.step
        control["step"][0] = step       # publication barrier: written last
        if self.pipeline is not None and not self.degraded:
            self.pipeline.bump_deadlines()
        phases = {"broadcast": time.perf_counter() - t0,
                  "compute": 0.0, "publish": 0.0, "reduce": 0.0}

        scales = [np.float32((bounds[k + 1] - bounds[k]) / n)
                  for k in range(n_shards)]
        self._reduce(step, n_shards, bounds, n, scales, phases)
        t_tail = time.perf_counter()
        ce_values, correct, shard_stats = self._read_results(
            step, n_shards, bounds, n)
        self._reduce_batchnorm(shard_stats)
        for name, param in self._named_params:
            param.grad = self._grad_views[name]
        phases["reduce"] += time.perf_counter() - t_tail

        if n_shards == 1:
            ce = ce_values[0]
        else:
            ce = sum(((bounds[k + 1] - bounds[k]) / n) * ce_values[k]
                     for k in range(n_shards))
        self.steps_run += 1
        for key, value in phases.items():
            self.phase_totals[key] += value
        return {"ce": ce, "correct": int(sum(correct)), "count": n,
                "phases": phases}

    # ------------------------------------------------------------------
    def _reduce(self, step: int, n_shards: int, bounds: list[int], n: int,
                scales, phases: dict) -> None:
        """Incremental shard-ordered all-reduce overlapping the workers.

        For every bucket a ``next_shard`` pointer walks the shards in
        order; shard ``k`` is consumed the moment its seqlock says ready
        *and* ``k-1`` has been consumed — preserving the exact reduction
        order (and bytes) of the old monolithic loop while letting the
        parent work during backward. Wait time is attributed to the
        ``compute`` phase until every shard flagged compute-done, to
        ``publish`` after; the in-place bucket ops land in ``reduce``.
        """
        target = seq_ready(step)
        if self.degraded:
            t_serial = time.perf_counter()
            self._serial_complete(step, n_shards, bounds, n)
            phases["compute"] += time.perf_counter() - t_serial
        n_buckets = len(self.plan)
        next_shard = [0] * n_buckets
        seqs = [self._shards[k].arrays["seq"] for k in range(n_shards)]
        compute_flags = [self._shards[k].arrays["compute_done"]
                         for k in range(n_shards)]
        done_flags = [self._shards[k].arrays["done"]
                      for k in range(n_shards)]
        computing = True
        idle = 0
        next_pump = time.perf_counter() + 0.005
        while True:
            progress = False
            for index in range(n_buckets):
                k = next_shard[index]
                while k < n_shards and int(seqs[k][index]) == target:
                    t_op = time.perf_counter()
                    clean = self._consume(index, k, n_shards, scales, step)
                    phases["reduce"] += time.perf_counter() - t_op
                    if not clean:
                        break       # torn read: the writer restarted it
                    k += 1
                    next_shard[index] = k
                    progress = True
            if (all(p == n_shards for p in next_shard)
                    and all(int(flag[0]) == target for flag in done_flags)):
                break
            if computing:
                computing = any(int(flag[0]) != target
                                for flag in compute_flags)
            if progress:
                idle = 0
                continue
            t_wait = time.perf_counter()
            if (self.pipeline is not None and not self.degraded
                    and t_wait > next_pump):
                self.pipeline.pump(wait=0.0)
                next_pump = time.perf_counter() + 0.005
                if self.degraded:
                    self._serial_complete(step, n_shards, bounds, n)
                    phases["compute"] += time.perf_counter() - t_wait
                    continue
            idle += 1
            time.sleep(0.0002 if idle < 5 else 0.001)
            phases["compute" if computing else "publish"] += (
                time.perf_counter() - t_wait)

    def _consume(self, index: int, k: int, n_shards: int, scales,
                 step: int) -> bool:
        """Fold shard ``k``'s bucket into the accumulator, torn-read safe.

        Returns False when the seqlock reread shows the bucket was being
        rewritten underneath us (a respawned worker recomputing the
        step); the caller retries — every in-place op below is safe to
        redo because the accumulator region is only *read* after the
        reread passed.
        """
        bucket = self.plan.buckets[index]
        bundle = self._shards[k].arrays
        seq = bundle["seq"]
        acc_bucket = self._acc[bucket.start:bucket.stop]
        shm_read_done = False
        if (self.transport == "int8"
                and int(bundle["qmode"][index]) != MODE_RAW):
            scale = float(bundle["qscale"][index])
            codes = self.plan.bucket_view(bundle["q"], index)
            source = self._dequant[:bucket.size]
            dequantize_bucket(codes, scale, source)
            if int(seq[index]) != seq_ready(step):
                return False
            shm_read_done = True
        else:
            source = self.plan.bucket_view(bundle["grads"], index)
        if n_shards == 1:
            # copyto, not multiply-by-1.0: preserves -0.0 and NaN
            # payloads, keeping workers=1 bitwise equal to the serial
            # fused loop.
            np.copyto(acc_bucket, source)
            return shm_read_done or int(seq[index]) == seq_ready(step)
        if k == 0:
            np.multiply(source, scales[0], out=acc_bucket)
            return shm_read_done or int(seq[index]) == seq_ready(step)
        scratch = self._scratch[:bucket.size]
        np.multiply(source, scales[k], out=scratch)
        if not (shm_read_done or int(seq[index]) == seq_ready(step)):
            return False
        np.add(acc_bucket, scratch, out=acc_bucket)
        return True

    def _read_results(self, step: int, n_shards: int, bounds: list[int],
                      n: int):
        """Read the per-shard scalars and BN stats (done-flag seqlock).

        ``_reduce`` only returns once every done flag reads ready, so the
        loop normally runs once; it re-runs when a respawned replacement
        is recomputing the current step underneath us (same bytes, but
        the flag is transiently odd), and falls back to the serial path
        if that replacement dies too.
        """
        target = seq_ready(step)
        attempts = 0
        while True:
            attempts += 1
            if attempts > 3:
                if self.pipeline is not None and not self.degraded:
                    self.pipeline.pump(wait=0.001)
                if self.degraded:
                    self._serial_complete(step, n_shards, bounds, n)
            ce_values = []
            correct = []
            shard_stats = []
            for k in range(n_shards):
                arrays = self._shards[k].arrays
                ce_values.append(float(arrays["ce"][0]))
                correct.append(int(arrays["correct"][0]))
                stats = {}
                for i, (path, _) in enumerate(self._bn_modules):
                    if int(arrays["bn_present"][i]):
                        lo, hi = self._bn_slices[i]
                        stats[path] = (
                            np.array(arrays["bn_mean"][lo:hi], copy=True),
                            np.array(arrays["bn_var"][lo:hi], copy=True),
                            int(arrays["bn_count"][i]))
                shard_stats.append(stats)
            if all(int(self._shards[k].arrays["done"][0]) == target
                   for k in range(n_shards)):
                return ce_values, correct, shard_stats

    def _reduce_batchnorm(self, shard_stats: list[dict]) -> None:
        """Fold per-shard batch statistics into the parent running stats.

        One shard present: its statistics apply verbatim, exactly
        replicating the in-forward update of ``BatchNorm2d`` (bitwise).
        Several: means pool linearly and variances pool through
        ``E[x²] − E[x]²`` — exact in real arithmetic for the full batch.
        A module's stats are pooled over the *union* of shards that
        produced them; shards missing a path are simply skipped.
        """
        for path, module in self._bn_modules:
            present = [stats[path] for stats in shard_stats
                       if path in stats]
            if not present:
                continue
            total = sum(s[2] for s in present)
            if len(present) == 1:
                mean_c, var_c, _ = present[0]
            else:
                weights = [s[2] / total for s in present]
                mean64 = sum(w * s[0].astype(np.float64)
                             for w, s in zip(weights, present))
                sq64 = sum(w * (s[1].astype(np.float64)
                                + s[0].astype(np.float64) ** 2)
                           for w, s in zip(weights, present))
                mean_c = mean64.astype(np.float32)
                var_c = np.maximum(sq64 - mean64 ** 2,
                                   0.0).astype(np.float32)
            m = module.momentum
            unbiased = var_c * total / max(total - 1, 1)
            object.__setattr__(module, "last_batch_stats",
                               (mean_c, var_c, total))
            object.__setattr__(module, "running_mean",
                               (1 - m) * module.running_mean + m * mean_c)
            object.__setattr__(module, "running_var",
                               (1 - m) * module.running_var + m * unbiased)

    # ------------------------------------------------------------------
    # Serial completion after a pool degrade
    # ------------------------------------------------------------------
    def _serial_service(self) -> TrainingService:
        if self._serial is None:
            self._serial = TrainingService(
                self._arch, self._weights.spec, self.sample_shape,
                self._batch.spec, self._control.spec,
                tuple(s.spec for s in self._shards),
                self._bucket_bytes, self.transport)
        return self._serial

    def _serial_complete(self, step: int, n_shards: int,
                         bounds: list[int], n: int) -> None:
        """Compute every unpublished shard of ``step`` in the parent.

        Runs the identical :meth:`TrainingService.run_shard` publish path
        on a parent-side service instance, so a degraded run stays
        bit-identical to a healthy one — partially published shards from
        a dead worker are simply recomputed in full (same bytes; the
        weights cannot have changed mid-step).
        """
        service = self._serial_service()
        for k in range(n_shards):
            if int(self._shards[k].arrays["done"][0]) != seq_ready(step):
                service.run_shard(k, step, bounds[k], bounds[k + 1], n)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to parent-side serial execution."""
        return self.pool is not None and self.pool.degraded

    def close(self) -> None:
        if (self.pipeline is not None and self.pool is not None
                and not self.pool.degraded and not self.pool._closed
                and self._control is not None):
            try:
                # Flip the control block to STOP so the standing tasks
                # return their summaries, then drain them; stragglers are
                # killed by pool.close() below.
                self._control.arrays["mode"][0] = 1
                self.step += 1
                self._control.arrays["step"][0] = self.step
                self.pipeline.finish(timeout=5.0)
            except Exception:   # noqa: BLE001 - teardown must not raise
                pass
        self.pipeline = None
        if self.pool is not None:
            self.pool.close()
        if self._serial is not None:
            self._serial.close()
            self._serial = None
        if self._bound:
            # Un-alias the parent model from the shared views before the
            # segment is unlinked — any later touch of a view of an
            # unlinked segment is a SIGBUS. state_dict() copies, and
            # load_state_dict rebinds onto private arrays.
            self.model.load_state_dict(self.model.state_dict())
            self._bound = False
        if self._weights is not None:
            self._weights.unlink()
        if self._batch is not None:
            self._batch.unlink()
        if self._control is not None:
            self._control.unlink()
        for bundle in self._shards:
            bundle.unlink()

    def __enter__(self) -> "ShardedTrainingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
