"""Class-parallel importance scoring (the Eq. 5–7 pipeline, sharded).

Serial :meth:`ImportanceEvaluator.evaluate` runs ``num_classes`` strictly
sequential forward+backward passes. This module fans those per-class
evaluations across a persistent
:class:`~repro.parallel.SupervisedWorkerPool` and reduces the per-class
score columns into the same
:class:`~repro.core.importance.ImportanceReport`, **bit-identical** to the
serial result under a fixed seed. Three independent properties make the
bit-identity structural rather than lucky:

1. The parent draws the per-class image indices with the *same* rng
   consumption sequence as the serial loop and ships the sampled images
   to the workers, so every class scores the exact arrays serial scores.
2. Per-class score columns never interact: each column is produced by one
   worker from one (fused) pass and written into its own slot of the
   ``(F, num_classes)`` matrix, so neither the worker count nor the task
   schedule can reorder any floating-point reduction.
3. The per-class pass itself is exact: summed cross entropy makes each
   sample's activation gradient independent of its batch neighbours, so
   fusing K classes into one forward+backward yields bitwise the same
   ``|a · ∂L/∂a|`` slices as K separate passes (verified per model in
   ``tests/parallel``).

The workers additionally apply two algebraic speedups that the serial
path cannot (cheaply) use, which is where the measured >2× comes from on
top of — not instead of — any multi-core scaling:

* **rooted backward**: all parameters are frozen and the graph is rooted
  at the first monitored layer's own parameters (probed once; fallback is
  rooting at the input). Backward then skips every weight-gradient GEMM —
  scoring only needs *activation* gradients — without changing them.
* **fused class chunks**: several classes share one forward+backward
  (capped so the fused batch stays cache-resident), amortising the
  Python/graph overhead of a pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..tensor import Tensor

__all__ = ["FusedTaylorScorer", "ScoringService", "ScoringSession",
           "aggregate_scores_fast"]

#: Cap on images per fused forward+backward; larger batches thrash the
#: cache and run *slower* than serial per-class passes on small CPUs
#: (measured optimum ~256 on the benchmark workloads; chunk size never
#: affects the scores, only wall-clock).
_FUSE_IMAGE_CAP = 256


def aggregate_scores_fast(taylor_scores: np.ndarray, tau: float,
                          aggregation: str = "max") -> np.ndarray:
    """Bitwise-identical fast path of :func:`repro.core.importance.aggregate_scores`.

    The serial form materialises the Eq. 5 indicator as a float64 array
    and averages it; here the average is ``count_nonzero / M``. Both are
    exact: the indicator sum is an integer far below 2**53, so numpy's
    (pairwise) float64 summation and the integer count produce the same
    value, and both divide it by the same float64 ``M``. The Eq. 7
    reduction then operates on an identical ``s_ave`` array.
    """
    if taylor_scores.ndim < 2:
        raise ValueError("expected at least (M, C) scores")
    m = taylor_scores.shape[0]
    if m == 0:
        raise ValueError(
            "aggregate_scores received scores for zero images (M=0); the "
            "Eq. 6 average would silently be NaN")
    s_ave = np.count_nonzero(taylor_scores > tau, axis=0) / np.float64(m)
    if s_ave.ndim == 1:                                     # linear layer
        return s_ave
    flat = s_ave.reshape(s_ave.shape[0], -1)
    if aggregation == "max":
        return flat.max(axis=1)                             # Eq. 7
    return flat.mean(axis=1)


class FusedTaylorScorer:
    """Taylor scores for a batch mixing several classes, weight-grad free.

    Numerically identical to running
    :class:`~repro.core.taylor.TaylorScoreEngine` on each class slice
    (summed CE keeps per-sample gradients independent), but a single pass
    scores the whole batch, parameters are frozen so backward never
    computes a weight gradient, and with ``root_path`` the graph starts at
    that layer's parameters so even the input gradient of the stem layers
    is skipped.
    """

    def __init__(self, model, layer_paths: list[str], loss_fn=None):
        from ..core.taylor import _per_sample_ce
        self.model = model
        self.layer_paths = list(layer_paths)
        self.loss_fn = loss_fn or _per_sample_ce

    def scores(self, images: np.ndarray, targets: np.ndarray,
               root_path: str | None = None) -> dict[str, np.ndarray]:
        from ..core.hooks import ActivationRecorder
        model = self.model
        was_training = model.training
        model.eval()
        params = [p for _, p in model.named_parameters()]
        saved = [p.requires_grad for p in params]
        try:
            for p in params:
                p.requires_grad = False
            if root_path is not None:
                for p in model.get_module(root_path).parameters():
                    p.requires_grad = True
            x = Tensor(np.asarray(images, dtype=np.float32),
                       requires_grad=root_path is None)
            model.zero_grad()
            with ActivationRecorder(model, self.layer_paths) as recorder:
                logits = model(x)
                loss = self.loss_fn(logits, np.asarray(targets, dtype=np.intp))
                loss.backward()
                result = {}
                for path in self.layer_paths:
                    act = recorder.activations[path]
                    if act.grad is None:
                        raise RuntimeError(
                            f"activation of {path!r} received no gradient; "
                            "is the layer on the path to the loss?")
                    result[path] = np.abs(act.data * act.grad)
            model.zero_grad()
            return result
        finally:
            for p, s in zip(params, saved):
                p.requires_grad = s
            model.train(was_training)


class ScoringService:
    """Worker-side service: score class shards against shared weights.

    Construction happens once per worker process: the model is rebuilt
    from its architecture recipe, shrunk to the checkpointed shapes when
    the parent model has been pruned, and its parameters/buffers are
    *bound* to the shared-memory views — a parent-side
    :meth:`ScoringSession.refresh` is instantly visible here.
    """

    def __init__(self, arch: dict, weight_spec, input_shape, group_paths,
                 config_dict: dict, scores_spec=None):
        from ..core.importance import ImportanceConfig
        from ..core.taylor import ExactZeroingEngine
        from ..models import build_model
        from .shm import SharedArrayBundle

        self.config = ImportanceConfig(**config_dict)
        self.group_paths = list(group_paths)
        self.input_shape = tuple(input_shape)
        # Output matrices (F, num_classes) live in shared memory too:
        # workers write disjoint columns in place, so per-class score
        # vectors never travel through the (pickling) result queue.
        self._out = (SharedArrayBundle.attach(scores_spec)
                     if scores_spec is not None else None)

        arch = dict(arch)
        model = build_model(arch.pop("name"), **arch)
        self._bundle = SharedArrayBundle.attach(weight_spec)
        state = self._bundle.arrays
        try:
            _bind_state_views(model, state)
        except ValueError:
            # Parent model was pruned: shrink the fresh build to match.
            from ..io.checkpoint import conform_to_state
            conform_to_state(model, dict(state), self.input_shape)
            _bind_state_views(model, state)
        model.eval()
        self.model = model

        if self.config.use_exact:
            self._engine = ExactZeroingEngine(model, self.group_paths)
            self._scorer = None
            self.root_path = None
        else:
            self._engine = None
            self._scorer = FusedTaylorScorer(model, self.group_paths)
            self.root_path = self._probe_root()
        self._fuse = max(1, _FUSE_IMAGE_CAP // self.config.images_per_class)

    def close(self) -> None:
        """Drop this process's shared-memory mappings (parent-side use)."""
        self._bundle.close()
        if self._out is not None:
            self._out.close()

    # ------------------------------------------------------------------
    def _probe_root(self) -> str | None:
        """Check whether rooting at the first monitored layer reaches all.

        Every monitored activation must be downstream of that layer for
        the rooted fast path to be exact; exotic topologies fall back to
        rooting at the input (which is always correct, and still skips
        all weight gradients).
        """
        from ..core.hooks import ActivationRecorder
        candidate = self.group_paths[0]
        model = self.model
        params = [p for _, p in model.named_parameters()]
        saved = [p.requires_grad for p in params]
        try:
            for p in params:
                p.requires_grad = False
            for p in model.get_module(candidate).parameters():
                p.requires_grad = True
            probe = Tensor(np.zeros((1,) + self.input_shape, np.float32))
            with ActivationRecorder(model, self.group_paths) as rec:
                model(probe)
                ok = all(rec.activations[p].requires_grad
                         for p in self.group_paths)
        except Exception:  # noqa: BLE001 - any probe failure means fallback
            ok = False
        finally:
            for p, s in zip(params, saved):
                p.requires_grad = s
        return candidate if ok else None

    # ------------------------------------------------------------------
    def handle(self, task: dict) -> list:
        """Score the task's ``(class, start, stop)`` entries.

        Score columns are written straight into the shared output
        matrices; only the list of completed class indices returns
        through the queue. (Without an output bundle — direct use in
        tests — the columns come back as
        ``[(class_index, {path: column}), ...]`` instead.)
        """
        from .shm import SharedArrayBundle
        bundle = SharedArrayBundle.attach(task["images"])
        try:
            bank = bundle.arrays["images"]
            entries = task["entries"]
            out: list = []
            if self._engine is not None:          # exact-zeroing mode
                for class_index, start, stop in entries:
                    images = np.array(bank[start:stop], copy=True)
                    targets = np.full(stop - start, class_index, np.intp)
                    taylor = self._engine.scores(images, targets)
                    out.append(self._emit(class_index, self._reduce(taylor)))
                return out
            for i in range(0, len(entries), self._fuse):
                out.extend(self._score_chunk(bank, entries[i:i + self._fuse]))
            return out
        finally:
            bundle.close()

    def _emit(self, class_index: int, cols: dict[str, np.ndarray]):
        if self._out is None:
            return (class_index, cols)
        for path, col in cols.items():
            self._out.arrays[path][:, class_index] = col
        return class_index

    def _score_chunk(self, bank: np.ndarray, chunk: list) -> list:
        # Session-built entries tile the bank back to back, so the fused
        # batch is a zero-copy view; arbitrary (test-supplied) entries
        # fall back to an explicit gather. Same values either way.
        if all(s == chunk[i][2] for i, (_, s, _) in enumerate(chunk[1:])):
            images = bank[chunk[0][1]:chunk[-1][2]]
        else:
            images = np.concatenate([bank[s:e] for _, s, e in chunk], axis=0)
        targets = np.repeat(np.array([c for c, _, _ in chunk], np.intp),
                            [e - s for _, s, e in chunk])
        taylor = self._scorer.scores(images, targets,
                                     root_path=self.root_path)
        results = []
        offset = 0
        for class_index, start, stop in chunk:
            m = stop - start
            sliced = {p: taylor[p][offset:offset + m]
                      for p in self.group_paths}
            offset += m
            results.append(self._emit(class_index, self._reduce(sliced)))
        return results

    def _reduce(self, taylor: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        cfg = self.config
        if cfg.tau_mode == "quantile":
            pooled = np.concatenate(
                [taylor[p].reshape(-1) for p in self.group_paths])
            tau = float(np.quantile(pooled, cfg.tau_quantile))
        else:
            tau = cfg.tau
        return {p: aggregate_scores_fast(taylor[p], tau, cfg.aggregation)
                for p in self.group_paths}


def _group_width(model, path: str) -> int:
    """Number of prunable units (filters/neurons) of a monitored layer."""
    module = model.get_module(path)
    for attr in ("out_channels", "out_features", "num_features"):
        width = getattr(module, attr, None)
        if width is not None:
            return int(width)
    raise ValueError(f"cannot determine the filter count of {path!r} "
                     f"({type(module).__name__})")


def _bind_state_views(model, state: dict[str, np.ndarray]) -> None:
    """Point every parameter/buffer of ``model`` at the shared views."""

    def bind(module, prefix: str) -> None:
        for name, param in module._parameters.items():
            view = state[f"{prefix}{name}"]
            if view.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {prefix}{name}: shared "
                    f"{view.shape} vs model {param.data.shape}")
            param.data = view
        for name in module._buffers:
            view = state[f"{prefix}{name}"]
            if view.shape != getattr(module, name).shape:
                raise ValueError(
                    f"shape mismatch for buffer {prefix}{name}")
            object.__setattr__(module, name, view)
        for name, sub in module._modules.items():
            bind(sub, f"{prefix}{name}.")

    bind(model, "")


class ScoringSession:
    """Parent-side handle: weights in shared memory + a persistent pool.

    Created lazily by :class:`~repro.core.importance.ImportanceEvaluator`
    and reused across ``evaluate`` calls while the model's shapes are
    unchanged; the weights cross the process boundary once and are
    refreshed in place per evaluation.
    """

    def __init__(self, model, dataset, num_classes: int, config,
                 group_paths: list[str], workers: int,
                 processes: int | None = None, supervision=None,
                 on_event=None):
        from .shm import SharedArrayBundle
        from .supervisor import SupervisedWorkerPool, resolve_processes

        arch = getattr(model, "arch", None)
        if not isinstance(arch, dict) or "name" not in arch:
            raise ValueError(
                "parallel importance scoring rebuilds the model inside "
                "each worker and needs an architecture recipe: build the "
                "model via repro.models.build_model or set model.arch = "
                "{'name': ..., **kwargs}")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.model = model
        self.num_classes = num_classes
        self.config = config
        self.group_paths = list(group_paths)
        self.workers = workers
        state = model.state_dict()
        self._signature = tuple((k, state[k].shape) for k in sorted(state))
        self._weights = SharedArrayBundle.create(state)
        self._scores = None
        self.pool = None
        try:
            self._scores = SharedArrayBundle.create(
                {p: np.zeros((_group_width(model, p), num_classes),
                             np.float64)
                 for p in self.group_paths})
            input_shape = tuple(np.asarray(dataset[0][0]).shape)
            self.physical_processes = resolve_processes(workers, processes)
            self.pool = SupervisedWorkerPool(
                self.physical_processes, ScoringService,
                (dict(arch), self._weights.spec, input_shape,
                 self.group_paths, dataclasses.asdict(config),
                 self._scores.spec),
                supervision=supervision, on_event=on_event)
        except BaseException:
            # A failed start-up (e.g. a worker raising during attach)
            # must not leak the segments created above: nothing else
            # holds a reference that could ever unlink them.
            self.close()
            raise

    # ------------------------------------------------------------------
    def compatible(self, model, group_paths: list[str], workers: int) -> bool:
        """Can this session score ``model`` without a rebuild?"""
        if (model is not self.model or workers != self.workers
                or list(group_paths) != self.group_paths):
            return False
        state = model.state_dict()
        return self._signature == tuple(
            (k, state[k].shape) for k in sorted(state))

    def refresh(self) -> None:
        """Push the parent model's current weights into shared memory."""
        self._weights.copy_from(self.model.state_dict())

    # ------------------------------------------------------------------
    def evaluate(self, dataset):
        """Parallel equivalent of the serial per-class scoring loop."""
        from ..core.importance import ImportanceReport
        from ..data import EmptyDatasetError, per_class_images
        from .shm import SharedArrayBundle

        cfg = self.config
        self.refresh()
        rng = np.random.default_rng(cfg.seed)
        class_arrays = []
        entries: list[tuple[int, int, int]] = []
        start = 0
        for class_index in range(self.num_classes):
            try:
                images = per_class_images(dataset, class_index,
                                          cfg.images_per_class, rng)
            except EmptyDatasetError as exc:
                raise EmptyDatasetError(
                    f"importance evaluation needs samples of every class "
                    f"(Eq. 6 averages over M images per class): {exc}"
                ) from exc
            class_arrays.append(images)
            entries.append((class_index, start, start + len(images)))
            start += len(images)

        bank = SharedArrayBundle.create(
            {"images": np.concatenate(class_arrays, axis=0)})
        try:
            # Unlike sharded training, scoring is per-class independent:
            # task granularity is pure scheduling and cannot change the
            # report. Coalesce to one task per physical process so a
            # CPU-starved box does not pay queue round-trips for logical
            # workers it cannot run concurrently.
            n_shards = min(self.workers, len(entries),
                           max(self.physical_processes, 1))
            bounds = [len(entries) * i // n_shards
                      for i in range(n_shards + 1)]
            tasks = [{"images": bank.spec, "entries": entries[a:b]}
                     for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            results = self.pool.run_tasks(tasks)
        finally:
            bank.unlink()

        done = sorted(c for shard in results for c in shard)
        if done != list(range(self.num_classes)):  # pragma: no cover
            raise RuntimeError(
                f"parallel scoring covered classes {done} instead of all "
                f"{self.num_classes}")
        per_class = {p: np.array(self._scores.arrays[p], copy=True)
                     for p in self.group_paths}
        report = ImportanceReport(num_classes=self.num_classes)
        report.per_class = per_class
        report.total = {p: m.sum(axis=1) for p, m in per_class.items()}
        return report

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to serial execution (see supervisor)."""
        return self.pool is not None and self.pool.degraded

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self._weights.unlink()
        if self._scores is not None:
            self._scores.unlink()

    def __enter__(self) -> "ScoringSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
