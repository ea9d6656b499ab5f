"""High-level orchestration: model + config + simulated device.

:class:`EdgePCPipeline` is the convenience entry point a downstream
application would use: wrap any of the library's models and get
inference, per-batch device profiling, and baseline comparison in one
object, without touching recorders or the cost model directly.  Input
batches pass through the :mod:`repro.robustness.validate` boundary
before touching the model; wrap the pipeline in a
:class:`~repro.robustness.guard.GuardedPipeline` for quality-triggered
exact-kernel fallback on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.pipeline import EdgePCConfig
from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module
from repro.nn.recorder import StageRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import (
    NULL_TRACER,
    Tracer,
    emit_stage_spans,
)
from repro.robustness.validate import (
    CloudValidationError,
    ValidationPolicy,
    ValidationReport,
    sanitize_batch,
)
from repro.runtime.device import DeviceSpec
from repro.runtime.profiler import (
    ComparisonReport,
    EnergyReport,
    PipelineProfiler,
    StageBreakdown,
    compare,
)


class EmptyTraceError(ValueError):
    """A pass recorded no priced work, so no rate can be derived.

    Subclasses :class:`ValueError` for backwards compatibility, but is
    distinct from input-validation failures
    (:class:`~repro.robustness.validate.CloudValidationError`) so
    callers can tell "your input was bad" from "the model did
    nothing".
    """


class ThroughputEstimate(NamedTuple):
    """Simulated-device throughput of one profiled batch.

    A named tuple, so legacy ``batches, clouds = estimate`` unpacking
    keeps working.
    """

    batches_per_second: float
    clouds_per_second: float

    @property
    def latency_ms(self) -> float:
        """Milliseconds per batch; ``inf`` at zero throughput (a rate
        of 0 means the batch never completes, not a crash)."""
        if self.batches_per_second == 0:
            return float("inf")
        return 1e3 / self.batches_per_second


@dataclass(frozen=True)
class InferenceResult:
    """Predictions plus the simulated device profile of the pass."""

    logits: np.ndarray
    predictions: np.ndarray
    breakdown: StageBreakdown
    energy: EnergyReport
    #: Priced operation names of the pass (e.g. ``"fps"`` vs
    #: ``"morton_sort"``) — lets callers verify which kernels ran.
    stage_ops: Tuple[str, ...] = ()
    #: Per-cloud sanitization reports from the validation boundary.
    validation: Tuple[ValidationReport, ...] = ()

    @property
    def latency_ms(self) -> float:
        return self.breakdown.total_s * 1e3

    @property
    def energy_j(self) -> float:
        return self.energy.total_j


class EdgePCPipeline:
    """Wraps a model and profiles every inference on the edge device.

    Args:
        model: any library model whose ``forward(xyz, recorder=...)``
            returns logits (class axis last) — both PointNet++ and
            DGCNN variants qualify.
        config: the model's :class:`EdgePCConfig`; defaults to the
            model's own ``edgepc`` attribute.
        device: simulated device; defaults to the Xavier-like spec.
        validation: sanitization policy applied to every batch
            entering :meth:`infer` / :meth:`record`; defaults to the
            strict ``reject`` policy (raise
            :class:`~repro.robustness.validate.CloudValidationError`
            on NaN/Inf, undersized, or malformed input).
        tracer: optional :class:`~repro.observability.tracing.Tracer`;
            every inference becomes a ``pipeline.infer`` span with
            validate/forward children plus simulated per-stage spans.
            Defaults to the no-op tracer (zero per-batch allocation).
        metrics: optional
            :class:`~repro.observability.metrics.MetricsRegistry`;
            when given, batch counts, per-stage latency histograms,
            and validation repair/reject counters are recorded.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[EdgePCConfig] = None,
        device: Optional[DeviceSpec] = None,
        validation: Optional[ValidationPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        config = config if config is not None else getattr(
            model, "edgepc", None
        )
        if config is None:
            raise ValueError(
                "pass a config or use a model with an .edgepc attribute"
            )
        self.model = model
        self.config = config
        self.profiler = PipelineProfiler(device)
        self.validation = validation or ValidationPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # Last-seen (hits, misses) of the model's scratch workspace, so
        # per-batch counter increments report deltas, not totals.
        self._workspace_seen = (0, 0)

    def _count_validation(
        self, reports: List[ValidationReport]
    ) -> None:
        """Fold sanitization outcomes into the metrics registry."""
        registry = self.metrics
        if registry is None:
            return
        for report in reports:
            for issue in report.issues:
                registry.counter(
                    "validation_issues_total",
                    kind=issue.kind, action=issue.action,
                ).inc(issue.count)
            # sanitize_batch pads repaired clouds back to N, so
            # `report.dropped` is 0 here; a repair is any issue the
            # sanitizer acted on rather than just flagged.
            if any(
                issue.action in ("dropped", "clamped")
                for issue in report.issues
            ):
                registry.counter("validation_repairs_total").inc()

    def _sanitize(
        self, xyz: np.ndarray
    ) -> Tuple[np.ndarray, List[ValidationReport]]:
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim == 2 and xyz.shape[-1] == 3:
            # A single (N, 3) cloud rides the batch path at B=1, so
            # direct calls and the serving micro-batcher share one
            # code path (and each pass emits its metrics exactly
            # once).  Outputs keep the leading batch axis.
            xyz = xyz[np.newaxis, ...]
        try:
            xyz, reports = sanitize_batch(xyz, self.validation)
        except CloudValidationError:
            if self.metrics is not None:
                self.metrics.counter("validation_rejects_total").inc()
            raise
        self._count_validation(reports)
        return xyz, reports

    def _forward(self, xyz: np.ndarray, recorder: StageRecorder):
        """One eval-mode forward pass, training mode restored after."""
        was_training = self.model.training
        self.model.eval()
        try:
            with self.tracer.span("pipeline.forward", "pipeline"):
                with no_grad():
                    return self.model(xyz, recorder=recorder)
        finally:
            if was_training:
                self.model.train()

    def infer(self, xyz: np.ndarray) -> InferenceResult:
        """Sanitize and run one batch in eval mode, and profile it.

        Accepts a ``(B, N, 3)`` batch or a single ``(N, 3)`` cloud —
        the latter is routed through the same batch path at ``B=1``
        (outputs keep the leading batch axis).
        """
        tracer = self.tracer
        with tracer.span("pipeline.infer", "pipeline") as span:
            with tracer.span("pipeline.validate", "pipeline"):
                xyz, reports = self._sanitize(xyz)
            recorder = StageRecorder()
            logits = self._forward(xyz, recorder)
            data = (
                logits.numpy() if isinstance(logits, Tensor) else logits
            )
            breakdown = self.profiler.breakdown(recorder, self.config)
            energy = self.profiler.energy(recorder, self.config)
            span.set("batch", int(xyz.shape[0]))
            span.set("points", int(xyz.shape[1]))
            span.set("ops", len(recorder))
            span.add_cost(breakdown.total_s)
            emit_stage_spans(tracer, breakdown)
            self._record_batch_metrics(
                xyz.shape[0], breakdown, energy, recorder
            )
            return InferenceResult(
                logits=data,
                predictions=data.argmax(axis=-1),
                breakdown=breakdown,
                energy=energy,
                stage_ops=tuple(recorder.op_names()),
                validation=tuple(reports),
            )

    def _record_batch_metrics(
        self,
        batch: int,
        breakdown: StageBreakdown,
        energy: EnergyReport,
        recorder: StageRecorder,
    ) -> None:
        registry = self.metrics
        if registry is None:
            return
        reuse_hits = sum(1 for e in recorder if e.op == "reuse")
        if reuse_hits:
            registry.counter("neighbor_reuse_hits_total").inc(
                reuse_hits
            )
        self._record_exact_fast_metrics(registry, recorder)
        registry.counter("pipeline_batches_total").inc()
        registry.counter("pipeline_clouds_total").inc(batch)
        for stage, seconds in (
            ("sample", breakdown.sample_s),
            ("neighbor_search", breakdown.neighbor_s),
            ("grouping", breakdown.grouping_s),
            ("feature_compute", breakdown.feature_s),
        ):
            registry.histogram(
                "pipeline_stage_latency_seconds", stage=stage
            ).observe(seconds)
        registry.histogram(
            "pipeline_batch_latency_seconds"
        ).observe(breakdown.total_s)
        registry.counter("pipeline_simulated_seconds_total").inc(
            breakdown.total_s
        )
        registry.counter("pipeline_energy_joules_total").inc(
            energy.total_j
        )
        self._record_workspace_metrics(registry)

    def _record_exact_fast_metrics(
        self,
        registry: MetricsRegistry,
        recorder: StageRecorder,
    ) -> None:
        """Export fast exact-engine effectiveness (large-N fallback).

        Each fast-engine event contributes one observation to the
        ``exact_fast_scan_ratio`` histogram — the fraction of the brute
        kernel's all-pairs work the pruning / grid probe actually
        performed — and pruned-FPS events also increment the
        ``exact_fast_blocks_pruned_total`` counter.
        """
        for event in recorder:
            c = event.counts
            batch = c.get("batch", 1)
            if event.op == "fps_fast":
                pruned = c.get("blocks_pruned", 0.0) * batch
                if pruned:
                    registry.counter(
                        "exact_fast_blocks_pruned_total"
                    ).inc(pruned)
                worst = c.get("worst_case", 0.0)
                scanned = c.get("points_scanned", 0.0)
                ratio = scanned / worst if worst else 1.0
            elif event.op in (
                "knn_grid", "ball_query_grid", "interp_grid"
            ):
                worst = c["n_queries"] * c["n_candidates"]
                scanned = c.get("pairs_scanned", 0.0)
                ratio = scanned / worst if worst else 1.0
            else:
                continue
            registry.histogram(
                "exact_fast_scan_ratio", op=event.op
            ).observe(ratio)

    def _record_workspace_metrics(
        self, registry: MetricsRegistry
    ) -> None:
        """Export the model's scratch-pool state (batched kernels)."""
        workspace = getattr(self.model, "workspace", None)
        if workspace is None:
            return
        registry.gauge("workspace_bytes_allocated").set(
            float(workspace.bytes_allocated)
        )
        registry.gauge("workspace_budget_bytes").set(
            float(workspace.scratch_bytes)
        )
        registry.gauge("workspace_buffers").set(
            float(workspace.num_buffers)
        )
        seen_hits, seen_misses = self._workspace_seen
        hit_delta = max(0, workspace.hits - seen_hits)
        miss_delta = max(0, workspace.misses - seen_misses)
        if hit_delta:
            registry.counter("workspace_buffer_hits_total").inc(
                hit_delta
            )
        if miss_delta:
            registry.counter("workspace_buffer_misses_total").inc(
                miss_delta
            )
        self._workspace_seen = (workspace.hits, workspace.misses)

    def record(self, xyz: np.ndarray) -> StageRecorder:
        """Run one batch and return the raw stage trace."""
        with self.tracer.span("pipeline.record", "pipeline") as span:
            xyz, _ = self._sanitize(xyz)
            recorder = StageRecorder()
            self._forward(xyz, recorder)
            span.set("ops", len(recorder))
        return recorder

    def compare_with(
        self, baseline: "EdgePCPipeline", xyz: np.ndarray
    ) -> ComparisonReport:
        """Fig. 13-style comparison of this pipeline vs a baseline on
        the same input batch."""
        with self.tracer.span("pipeline.compare", "pipeline"):
            return compare(
                self.profiler,
                baseline.record(xyz), baseline.config,
                self.record(xyz), self.config,
            )

    def throughput_estimate(
        self, xyz: np.ndarray
    ) -> ThroughputEstimate:
        """Batches/second and clouds/second on the simulated device.

        Raises:
            EmptyTraceError: the model recorded no priced work, so no
                throughput can be derived.
        """
        result = self.infer(xyz)
        if result.breakdown.total_s == 0:
            raise EmptyTraceError(
                "empty trace; model recorded no work"
            )
        batches_per_s = 1.0 / result.breakdown.total_s
        return ThroughputEstimate(
            batches_per_second=batches_per_s,
            clouds_per_second=batches_per_s * xyz.shape[0],
        )
