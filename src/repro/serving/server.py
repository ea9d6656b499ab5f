"""Thread-pool inference server over the batched pipeline kernels.

:class:`InferenceServer` turns an
:class:`~repro.pipeline.EdgePCPipeline` (or a
:class:`~repro.robustness.guard.GuardedPipeline`) into a request/
response service: callers :meth:`~InferenceServer.submit` single
``(N, 3)`` clouds and get back per-request futures, while a
:class:`~repro.serving.batcher.MicroBatcher` coalesces the traffic
into ``(B, N, 3)`` micro-batches that ride the PR-4 batched kernel
path in one dispatch.

Two execution modes share one dispatch routine:

- **threaded** — :meth:`~InferenceServer.start` spawns a worker pool;
  each worker blocks on the batcher and dispatches with its own
  thread-local :class:`~repro.core.workspace.Workspace` (claimed via
  the owning-thread assertion) swapped into the model for the
  duration of the forward pass.  Model forwards are serialized by a
  dispatch lock — the model and the guard's breakers are shared
  mutable state — while admission, batching, cancellation, and future
  completion run concurrently.
- **virtual** — :meth:`~InferenceServer.pump` forms and dispatches
  every due batch inline on the caller's thread.  Driven by the
  deterministic load generator under a
  :class:`~repro.observability.clock.FixedClock`.

Shutdown is graceful by default: :meth:`~InferenceServer.stop` closes
the queue (new submissions get a typed
:class:`~repro.serving.queue.QueueClosedError`), lets the workers
flush every buffered request through the batcher's drain trigger, and
joins them — zero admitted requests are ever left without a terminal
future outcome.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability.clock import Clock, wall_clock
from repro.observability.context import TraceContext
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.core.workspace import Workspace
from repro.serving.batcher import MicroBatch, MicroBatcher
from repro.serving.queue import (
    QueueClosedError,
    RequestQueue,
    ServingRequest,
    emit_request_trace,
)

#: Histogram buckets for end-to-end request latency (seconds).
REQUEST_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class InferenceRejectedError(RuntimeError):
    """The pipeline refused the batch (guard rejection, bad input)."""


class DrainTimeoutError(RuntimeError):
    """A worker thread failed to join within ``stop()``'s timeout.

    A thread that outlives the join may still hold requests whose
    futures will never resolve; surfacing that as a typed error (with
    the stuck thread names) beats silently dropping the thread and
    letting the loss go unnoticed.
    """


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (see ``docs/serving.md``).

    Attributes:
        max_queue_depth: admission bound of the request queue.
        max_batch_size: clouds coalesced per dispatched batch.
        max_wait_ms: micro-batching window — how long the oldest
            queued request may wait for co-batchable traffic.
        workers: dispatch worker threads (threaded mode) or modeled
            parallel servers (virtual mode).
        default_deadline_ms: deadline applied to requests submitted
            without one; ``None`` disables the default.
    """

    max_queue_depth: int = 64
    max_batch_size: int = 8
    max_wait_ms: float = 50.0
    workers: int = 2
    default_deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms <= 0
        ):
            raise ValueError("default_deadline_ms must be positive")


@dataclass(frozen=True)
class ServedResult:
    """Per-request slice of one batched inference.

    Attributes:
        request_id: the request this slice answers.
        logits: this cloud's logits (class axis last).
        prediction: argmax over the class axis.
        batch_size: clouds in the dispatch that served this request.
        trigger: what flushed the batch (full/timeout/drain).
        queue_wait_s: admission-to-dispatch wait on the serving clock.
        simulated_batch_s: the whole batch's simulated device seconds.
        degraded_stages: guard fallbacks applied to the batch, if any.
        trace_id: the request's trace id (empty when tracing was off),
            so callers can join a result against the exported trace.
    """

    request_id: str
    logits: np.ndarray
    prediction: np.ndarray
    batch_size: int
    trigger: str
    queue_wait_s: float
    simulated_batch_s: float
    degraded_stages: Tuple[str, ...] = ()
    trace_id: str = ""


@dataclass(frozen=True)
class DispatchRecord:
    """Bookkeeping for one dispatched batch (load-generator input)."""

    dispatched_s: float
    trigger: str
    size: int
    n_points: int
    simulated_s: float
    request_ids: Tuple[str, ...]
    arrivals_s: Tuple[float, ...]
    ok: bool
    error: str = ""


@contextmanager
def swapped_workspace(model, workspace: Workspace):
    """Temporarily point a model (and submodules) at ``workspace``.

    Models read ``self.workspace`` per forward call, so an attribute
    swap gives each serving worker its own scratch pool without
    rebuilding the module tree (mirrors
    :func:`~repro.robustness.guard.swapped_config`).
    """
    targets = (
        list(model.modules()) if hasattr(model, "modules") else [model]
    )
    saved = []
    try:
        for module in targets:
            if hasattr(module, "workspace"):
                saved.append((module, module.workspace))
                module.workspace = workspace
        yield
    finally:
        for module, previous in saved:
            module.workspace = previous


class InferenceServer:
    """Micro-batching worker-pool server around one pipeline.

    Args:
        pipeline: an :class:`~repro.pipeline.EdgePCPipeline` or
            :class:`~repro.robustness.guard.GuardedPipeline`; batches
            go through its ``infer`` so validation, telemetry, and
            guard fallbacks all apply to served traffic.
        config: serving knobs; defaults are tuned for the demo models.
        clock: injectable clock; pass a
            :class:`~repro.observability.clock.FixedClock` for
            deterministic virtual-time serving.
        tracer: optional tracer (defaults to the pipeline's).
        metrics: optional registry (defaults to the pipeline's).
    """

    def __init__(
        self,
        pipeline,
        config: Optional[ServingConfig] = None,
        clock: Clock = wall_clock,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.clock = clock
        if tracer is None:
            tracer = getattr(pipeline, "tracer", None) or NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            metrics = getattr(pipeline, "metrics", None)
        self.metrics = metrics
        self.queue = RequestQueue(
            max_depth=self.config.max_queue_depth,
            clock=clock,
            metrics=metrics,
        )
        self.batcher = MicroBatcher(
            self.queue,
            max_batch_size=self.config.max_batch_size,
            max_wait_s=self.config.max_wait_ms / 1e3,
            clock=clock,
            metrics=metrics,
            tracer=self.tracer,
        )
        self.records: List[DispatchRecord] = []
        self.completed = 0
        self.failed = 0
        self._sequence = 0
        self._threads: List[threading.Thread] = []
        self._dispatch_lock = threading.Lock()
        self._records_lock = threading.Lock()
        self._local = threading.local()

    # Submission ------------------------------------------------------

    def submit(
        self,
        cloud: np.ndarray,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
        ctx: Optional[TraceContext] = None,
    ) -> ServingRequest:
        """Admit one ``(N, 3)`` cloud; returns the queued request.

        ``deadline_s`` is relative to now on the serving clock (the
        config's ``default_deadline_ms`` applies when omitted).
        ``ctx`` carries an upstream trace context (the fleet passes
        one per attempt); when omitted and tracing is on, the server
        mints a root context here so even standalone submissions get a
        stitched trace.  Raises a typed
        :class:`~repro.serving.queue.AdmissionError` when the queue
        is full or the server is draining; full sanitization happens
        later, inside the pipeline, where its policy and metrics
        apply.
        """
        with self.tracer.span("serving.submit", "serving") as span:
            cloud = np.asarray(cloud, dtype=np.float64)
            if cloud.ndim != 2 or cloud.shape[-1] != 3:
                raise ValueError(
                    f"submit() takes one (N, 3) cloud, got shape "
                    f"{cloud.shape}"
                )
            now = self.clock()
            if deadline_s is None and (
                self.config.default_deadline_ms is not None
            ):
                deadline_s = self.config.default_deadline_ms / 1e3
            rid = (
                request_id
                if request_id is not None
                else self._next_id()
            )
            if ctx is None:
                ctx = self.tracer.mint_context(rid)
            request = ServingRequest(
                request_id=rid,
                cloud=cloud,
                arrival_s=now,
                deadline_s=(
                    None if deadline_s is None else now + deadline_s
                ),
                ctx=ctx,
            )
            span.set("request_id", request.request_id)
            span.set("points", request.n_points)
            if ctx is not None:
                span.set("trace_id", ctx.trace_id)
            self.queue.put(request)
            return request

    def _next_id(self) -> str:
        with self._records_lock:
            self._sequence += 1
            return f"r{self._sequence:06d}"

    # Dispatch (shared by workers and the virtual pump) ---------------

    def _workspace(self) -> Workspace:
        """This thread's owned scratch workspace, created on first use.

        Sized from the pipeline config's ``workspace_scratch_bytes``
        so serving threads honor the same scratch budget as the
        model's own pool (a GuardedPipeline is unwrapped first).
        """
        workspace = getattr(self._local, "workspace", None)
        if workspace is None:
            config = getattr(self.pipeline, "config", None)
            if config is None:  # GuardedPipeline wraps the pipeline
                config = self.pipeline.pipeline.config
            workspace = Workspace(config.workspace_scratch_bytes)
            workspace.claim_owner()
            self._local.workspace = workspace
        return workspace

    def _infer(self, xyz: np.ndarray):
        model = getattr(self.pipeline, "model", None)
        if model is None:  # GuardedPipeline wraps the real pipeline
            model = self.pipeline.pipeline.model
        # The one blocking call deliberately made under a lock: callers
        # hold _dispatch_lock because the workspace swap mutates shared
        # model state, so concurrent forwards would corrupt each
        # other's scratch.  Worker forwards serialize here by design.
        with swapped_workspace(model, self._workspace()):
            return self.pipeline.infer(xyz)  # repro: allow[CONC-505]

    def _fail_batch(
        self, batch: MicroBatch, error: Exception, reason: str
    ) -> None:
        now = self.clock()
        for request in batch.requests:
            emit_request_trace(
                self.tracer, request, now, "failed", detail=reason
            )
            request.future.set_exception(error)
        self.record_failed(batch.size, reason)

    def _count_failed(self, count: int, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "serving_failed_total", reason=reason
            ).inc(count)

    def record_failed(self, count: int, reason: str) -> None:
        """Fold ``count`` terminal failures into the guarded tally.

        Thread-safe by design: worker threads and the fleet's
        maintenance thread (shedding a dead replica's backlog) all
        account failures here, so the counter write stays under
        ``_records_lock`` like every other ``failed``/``completed``
        mutation.
        """
        with self._records_lock:
            self.failed += count
        self._count_failed(count, reason)

    def _dispatch(self, batch: MicroBatch) -> DispatchRecord:
        """Run one micro-batch and resolve its futures."""
        with self.tracer.span("serving.dispatch", "serving") as span:
            span.set("batch", batch.size)
            span.set("points", batch.n_points)
            span.set("trigger", batch.trigger)
            for request in batch.requests:
                if request.ctx is not None:
                    # Fan out one link per coalesced request so the
                    # wall-clock batch span references every request
                    # trace it served (and vice versa via the
                    # request.batch projection below).
                    span.add_link(
                        request.ctx.trace_id, request.ctx.span_id
                    )
            started = self.clock()
            ok, error_text = True, ""
            simulated_s = 0.0
            degraded: Tuple[str, ...] = ()
            try:
                with self._dispatch_lock:
                    # Serialized forward by design; see _infer for the
                    # workspace-swap rationale behind the lock.
                    result = self._infer(batch.xyz)  # repro: allow[CONC-505]
            except Exception as err:
                # Surface the original typed error (e.g. a
                # CloudValidationError) on every affected future and
                # make the failure observable before moving on.
                ok, error_text = False, f"{type(err).__name__}: {err}"
                now = self.clock()
                for request in batch.requests:
                    emit_request_trace(
                        self.tracer,
                        request,
                        now,
                        "failed",
                        detail=type(err).__name__,
                    )
                    request.future.set_exception(err)
                self.record_failed(batch.size, reason="pipeline_error")
            else:
                rejected = bool(getattr(result, "rejected", False))
                if rejected:
                    error_text = getattr(
                        result, "rejection_reason", "rejected"
                    )
                    ok = False
                    self._fail_batch(
                        batch,
                        InferenceRejectedError(
                            f"guard rejected the batch: {error_text}"
                        ),
                        reason="guard_rejected",
                    )
                else:
                    degraded = tuple(
                        getattr(result, "degraded_stages", ())
                    )
                    inner = getattr(result, "result", None)
                    profiled = inner if inner is not None else result
                    simulated_s = profiled.breakdown.total_s
                    self._complete(
                        batch, profiled, degraded, started,
                        dispatch_span_id=span.span_id,
                    )
            span.set("ok", ok)
            record = DispatchRecord(
                dispatched_s=batch.formed_s,
                trigger=batch.trigger,
                size=batch.size,
                n_points=batch.n_points,
                simulated_s=simulated_s,
                request_ids=tuple(
                    r.request_id for r in batch.requests
                ),
                arrivals_s=tuple(
                    r.arrival_s for r in batch.requests
                ),
                ok=ok,
                error=error_text,
            )
            with self._records_lock:
                self.records.append(record)
            return record

    def _complete(
        self,
        batch: MicroBatch,
        profiled,
        degraded: Tuple[str, ...],
        started: float,
        dispatch_span_id: int = 0,
    ) -> None:
        registry = self.metrics
        total_s = profiled.breakdown.total_s
        for index, request in enumerate(batch.requests):
            wait_s = max(0.0, started - request.arrival_s)
            trace_id = (
                request.ctx.trace_id if request.ctx is not None else ""
            )
            request.future.set_result(
                ServedResult(
                    request_id=request.request_id,
                    logits=profiled.logits[index],
                    prediction=profiled.predictions[index],
                    batch_size=batch.size,
                    trigger=batch.trigger,
                    queue_wait_s=wait_s,
                    simulated_batch_s=total_s,
                    degraded_stages=degraded,
                    trace_id=trace_id,
                )
            )
            if registry is not None:
                registry.counter("serving_completed_total").inc()
                registry.histogram(
                    "serving_queue_wait_seconds"
                ).observe(wait_s)
                # Device time is priced from the cost model; lane
                # queueing behind busy workers is not included here.
                registry.histogram(
                    "serving_request_latency_seconds",
                    buckets=REQUEST_LATENCY_BUCKETS,
                ).observe(
                    wait_s + total_s, trace_id=trace_id or None
                )
            self._emit_request_spans(
                request, batch, profiled, started, dispatch_span_id
            )
        with self._records_lock:
            self.completed += batch.size

    def _emit_request_spans(
        self,
        request: ServingRequest,
        batch: MicroBatch,
        profiled,
        started: float,
        dispatch_span_id: int,
    ) -> None:
        """Project one served request into its trace.

        Emits ``request.queue`` (admission → dispatch) and
        ``request.batch`` (the batch's simulated device time, linked
        to the wall-clock dispatch span) under the request's context,
        with one child span per kernel stage tiled from the profiled
        breakdown — so a single trace shows where the request's
        latency went, across replicas.
        """
        ctx = request.ctx
        if ctx is None or not self.tracer.enabled:
            return
        tracer = self.tracer
        breakdown = profiled.breakdown
        start = tracer.rel(request.arrival_s)
        dispatch = tracer.rel(started)
        tracer.emit_span(
            "request.queue",
            start_s=start,
            duration_s=max(0.0, dispatch - start),
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            thread="requests",
            attrs={"trigger": batch.trigger},
        )
        batch_span = tracer.emit_span(
            "request.batch",
            start_s=dispatch,
            duration_s=breakdown.total_s,
            trace_id=ctx.trace_id,
            parent_id=ctx.span_id,
            thread="requests",
            attrs={
                "batch_size": batch.size,
                "points": batch.n_points,
                "trigger": batch.trigger,
            },
            links=(
                [("", dispatch_span_id)] if dispatch_span_id else None
            ),
        )
        offset = dispatch
        for stage, seconds in (
            ("sample", breakdown.sample_s),
            ("neighbor_search", breakdown.neighbor_s),
            ("grouping", breakdown.grouping_s),
            ("feature_compute", breakdown.feature_s),
        ):
            tracer.emit_span(
                f"request.{stage}",
                start_s=offset,
                duration_s=seconds,
                category="stage",
                trace_id=ctx.trace_id,
                parent_id=batch_span,
                thread="requests",
            )
            offset += seconds
        if ctx.is_root:
            end = dispatch + breakdown.total_s
            tracer.emit_span(
                "request",
                start_s=start,
                duration_s=max(0.0, end - start),
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                thread="requests",
                attrs={
                    "request_id": request.request_id,
                    "outcome": "ok",
                },
            )

    # Threaded mode ---------------------------------------------------

    def start(self) -> "InferenceServer":
        """Spawn the worker pool (idempotent); returns ``self``."""
        with self.tracer.span("serving.start", "serving") as span:
            span.set("workers", self.config.workers)
            if self._threads:
                return self
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"serving-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
            if self.metrics is not None:
                self.metrics.gauge("serving_workers").set(
                    float(len(self._threads))
                )
            return self

    def _worker_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            try:
                self._dispatch(batch)
            except Exception:
                # _dispatch already resolves futures for pipeline
                # errors; anything escaping here is a serving bug —
                # count it and keep the worker alive so the queue
                # never deadlocks behind a dead consumer.
                if self.metrics is not None:
                    self.metrics.counter(
                        "serving_failed_total",
                        reason="worker_error",
                    ).inc(batch.size)
                now = self.clock()
                for request in batch.requests:
                    if not request.future.done():
                        emit_request_trace(
                            self.tracer,
                            request,
                            now,
                            "failed",
                            detail="worker_error",
                        )
                        request.future.set_exception(
                            InferenceRejectedError(
                                "serving worker failed while "
                                f"dispatching {request.request_id!r}"
                            )
                        )

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Close admission and shut the workers down.

        With ``drain=True`` every buffered request is still dispatched
        (the batcher's drain trigger flushes partial buckets); with
        ``drain=False`` undispatched requests fail fast with a typed
        :class:`~repro.serving.queue.QueueClosedError`.

        Raises :class:`DrainTimeoutError` when a worker thread is
        still alive after its join timed out — requests it held may
        never resolve, which must not pass silently.
        """
        with self.tracer.span("serving.stop", "serving") as span:
            span.set("drain", drain)
            self.queue.close()
            if not drain:
                self._cancel_pending()
            for thread in self._threads:
                thread.join(timeout=timeout_s)
            stuck = [
                thread.name
                for thread in self._threads
                if thread.is_alive()
            ]
            self._threads = []
            span.set("stuck", len(stuck))
            if self.metrics is not None:
                self.metrics.gauge("serving_workers").set(0.0)
            if stuck:
                if self.metrics is not None:
                    self.metrics.counter(
                        "serving_drain_timeouts_total"
                    ).inc(len(stuck))
                raise DrainTimeoutError(
                    f"{len(stuck)} worker thread(s) failed to join "
                    f"within {timeout_s:.1f}s: {', '.join(stuck)}; "
                    "their in-flight requests may never resolve"
                )

    def _cancel_pending(self) -> None:
        with self.queue.condition:
            pending = self.queue.pop_pending()
        pending.extend(self.batcher.cancel_buffered())
        now = self.clock()
        for request in pending:
            emit_request_trace(
                self.tracer, request, now, "cancelled", detail="stop"
            )
            request.future.set_exception(
                QueueClosedError(
                    f"request {request.request_id!r} cancelled: "
                    "server stopped without draining"
                )
            )
        if pending:
            self.record_failed(len(pending), "cancelled")

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # Virtual mode ----------------------------------------------------

    def pump(
        self, limit: Optional[int] = None
    ) -> List[DispatchRecord]:
        """Dispatch up to ``limit`` due batches inline (all, if
        ``None``); returns their records.

        The virtual-time path: no workers run; the caller advances the
        injected clock between calls and uses ``limit`` to model how
        many simulated servers are free (see
        :class:`~repro.serving.loadgen.LoadGenerator`).
        """
        records: List[DispatchRecord] = []
        while limit is None or len(records) < limit:
            batch = self.batcher.poll()
            if batch is None:
                break
            records.append(self._dispatch(batch))
        return records

    # Introspection ---------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet resolved either way."""
        return (
            self.queue.admitted
            - self.completed
            - self.failed
            - self.batcher.requests_expired
        )

    def stats(self) -> Dict[str, float]:
        """Snapshot of the serving counters (also exported as
        ``serving_*`` metrics when a registry is attached)."""
        with self._records_lock:
            batch_sizes = [r.size for r in self.records]
        mean = (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        )
        if self.metrics is not None:
            self.metrics.gauge("serving_mean_batch_size").set(mean)
        return {
            "admitted": float(self.queue.admitted),
            "rejected": float(self.queue.rejected),
            "expired": float(self.batcher.requests_expired),
            "completed": float(self.completed),
            "failed": float(self.failed),
            "batches": float(len(batch_sizes)),
            "mean_batch_size": mean,
            "outstanding": float(self.outstanding),
        }
