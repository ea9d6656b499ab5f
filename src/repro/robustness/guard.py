"""Quality-triggered fallback from Morton approximations to exact kernels.

EdgePC's speedups come from replacing FPS and brute kNN with
Morton-order approximations whose quality depends on the input's
geometry (FlashFPS, arXiv 2604.17720, makes the same point for
approximate samplers generally).  :class:`GuardedPipeline` wraps an
:class:`~repro.pipeline.EdgePCPipeline` and, before each batch, runs
two cheap probes on a seeded subsample:

- **sampling probe** — Morton-stride sample the probe set and measure
  :func:`~repro.sampling.quality.density_uniformity`; a high
  coefficient of variation means the stride pick is leaving holes;
- **neighbor probe** — compare the Morton index-window search against
  exact kNN on the probe set via
  :func:`~repro.neighbors.metrics.false_neighbor_ratio`.

A probe exceeding its threshold degrades *only the affected stage* to
its exact kernel (FPS / brute kNN) for that batch, by swapping an
:class:`~repro.core.pipeline.EdgePCConfig` with that stage's layers
cleared into the model.  A per-stage circuit breaker pins the stage to
exact mode after ``trip_limit`` consecutive trips and re-probes after
a ``cooldown``-batch quarantine.  Every degradation is recorded in the
returned :class:`GuardedInferenceResult`.

Degrading to exact kernels is no longer a large-N latency cliff: at or
above :attr:`~repro.core.pipeline.EdgePCConfig.exact_fast_threshold`
points the exact stages dispatch to the pruning-FPS / grid
neighbor-search fast engines (``fps_fast`` / ``knn_grid`` /
``ball_query_grid`` / ``interp_grid`` in the stage trace), which
return the brute kernels' neighbors at a fraction of their all-pairs
cost.  A breaker
pinned open on a 40k-point stream therefore burns far less of the
latency SLO than the brute fallback used to.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import MortonSampler
from repro.neighbors.brute import knn
from repro.neighbors.metrics import false_neighbor_ratio
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.robustness.validate import (
    CloudValidationError,
    ValidationPolicy,
    ValidationReport,
    sanitize_batch,
)
from repro.sampling.quality import density_uniformity

#: Stage names the guard manages.
STAGE_SAMPLING = "sampling"
STAGE_NEIGHBOR = "neighbor"


@dataclass(frozen=True)
class GuardThresholds:
    """Probe configuration and trip thresholds.

    Attributes:
        max_density_cv: sampling probe trips when the Voronoi-cell
            population CV of the Morton sample exceeds this (FPS on
            well-behaved clouds sits well under 1).
        max_false_neighbor_rate: neighbor probe trips above this FNR
            (the paper reports ~23% at ``W = k``, ~5% at ``W = 8k``).
        probe_points: probe-set size subsampled from the first cloud.
        probe_samples: samples drawn by the sampling probe.
        probe_k: neighbors per query in the neighbor probe.
        trip_limit: consecutive trips before a stage is pinned exact.
        cooldown: batches a pinned stage stays exact before re-probing.
    """

    max_density_cv: float = 1.5
    max_false_neighbor_rate: float = 0.45
    probe_points: int = 256
    probe_samples: int = 32
    probe_k: int = 8
    trip_limit: int = 3
    cooldown: int = 5

    def __post_init__(self) -> None:
        if self.probe_points < 4:
            raise ValueError("probe_points must be >= 4")
        if not 2 <= self.probe_samples <= self.probe_points:
            raise ValueError(
                "probe_samples must be in [2, probe_points]"
            )
        if self.probe_k < 1:
            raise ValueError("probe_k must be positive")
        if self.trip_limit < 1:
            raise ValueError("trip_limit must be positive")
        if self.cooldown < 1:
            raise ValueError("cooldown must be positive")


class CircuitBreaker:
    """Three-state breaker guarding one pipeline stage.

    ``closed``: the approximation runs, probes watch it.  After
    ``trip_limit`` consecutive probe trips the breaker opens.
    ``open``: the stage is pinned to its exact kernel, probes are
    skipped, for ``cooldown`` batches.  ``half_open``: the quarantine
    elapsed; one probe decides — pass closes the breaker, trip
    re-opens it for another full cooldown.
    """

    def __init__(self, trip_limit: int = 3, cooldown: int = 5) -> None:
        if trip_limit < 1 or cooldown < 1:
            raise ValueError("trip_limit and cooldown must be positive")
        self.trip_limit = trip_limit
        self.cooldown = cooldown
        self.state = "closed"
        self.consecutive_trips = 0
        self.remaining_cooldown = 0
        self.total_trips = 0

    @property
    def forces_exact(self) -> bool:
        return self.state == "open"

    def before_batch(self) -> str:
        """Advance the breaker one batch; returns ``"probe"`` when the
        stage should be probed or ``"forced"`` when it stays exact."""
        if self.state == "open":
            self.remaining_cooldown -= 1
            if self.remaining_cooldown <= 0:
                self.state = "half_open"
                return "probe"
            return "forced"
        return "probe"

    def record_trip(self) -> None:
        self.total_trips += 1
        self.consecutive_trips += 1
        if (
            self.state == "half_open"
            or self.consecutive_trips >= self.trip_limit
        ):
            self.state = "open"
            self.remaining_cooldown = self.cooldown

    def record_pass(self) -> None:
        self.state = "closed"
        self.consecutive_trips = 0


@dataclass(frozen=True)
class StageDegradation:
    """One recorded fallback from approximate to exact."""

    stage: str
    reason: str  # "probe_tripped" | "circuit_open" | "non_finite_logits"
    metric: float
    threshold: float
    batch_index: int

    def __str__(self) -> str:
        return (
            f"batch {self.batch_index}: {self.stage} -> exact "
            f"({self.reason}, metric {self.metric:.3f} vs "
            f"threshold {self.threshold:.3f})"
        )


@dataclass
class GuardedInferenceResult:
    """Outcome of one guarded batch: a profiled result or a rejection.

    Attributes:
        result: the wrapped pipeline's result; ``None`` on rejection.
        rejected: True when the batch could not be served.
        rejection_reason: human-readable cause of the rejection.
        degradations: stage fallbacks applied to this batch.
        validation: per-cloud sanitization reports.
        effective_config: the config the batch actually ran under.
    """

    result: Optional[object]
    rejected: bool = False
    rejection_reason: str = ""
    degradations: List[StageDegradation] = field(default_factory=list)
    validation: List[ValidationReport] = field(default_factory=list)
    effective_config: Optional[EdgePCConfig] = None

    @property
    def ok(self) -> bool:
        return not self.rejected

    @property
    def logits(self) -> np.ndarray:
        if self.result is None:
            raise ValueError(
                f"batch was rejected: {self.rejection_reason}"
            )
        return self.result.logits

    @property
    def predictions(self) -> np.ndarray:
        if self.result is None:
            raise ValueError(
                f"batch was rejected: {self.rejection_reason}"
            )
        return self.result.predictions

    @property
    def degraded_stages(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(d.stage for d in self.degradations)
        )


def degraded_config(
    config: EdgePCConfig, exact_stages: Tuple[str, ...]
) -> EdgePCConfig:
    """Clear the approximated layers of each stage in ``exact_stages``.

    Clearing ``sample_layers`` also clears ``upsample_layers``: the
    Morton up-sampler consumes the sampler's stride structure, so it
    cannot outlive it.  Clearing ``neighbor_layers`` also zeroes the
    DGCNN reuse distance (reuse is a neighbor-stage approximation).
    """
    if STAGE_SAMPLING in exact_stages:
        config = replace(
            config,
            sample_layers=frozenset(),
            upsample_layers=frozenset(),
        )
    if STAGE_NEIGHBOR in exact_stages:
        config = replace(
            config, neighbor_layers=frozenset(), reuse_distance=0
        )
    return config


@contextmanager
def swapped_config(model, config: EdgePCConfig):
    """Temporarily point a model (and all submodules) at ``config``.

    Models consult their ``edgepc`` attribute per forward call, so an
    attribute swap is equivalent to the rebuild-and-``load_state_dict``
    move (docs/architecture.md, "Strategy selection") at zero copy
    cost.
    """
    targets = (
        list(model.modules()) if hasattr(model, "modules") else [model]
    )
    saved = []
    try:
        for module in targets:
            if hasattr(module, "edgepc"):
                saved.append((module, module.edgepc))
                module.edgepc = config
        yield
    finally:
        for module, previous in saved:
            module.edgepc = previous


def probe_sampling_uniformity(
    points: np.ndarray,
    num_samples: int,
    code_bits: int,
) -> float:
    """Density-uniformity CV of a Morton-stride sample of ``points``."""
    result = MortonSampler(code_bits).sample(points, num_samples)
    return density_uniformity(points, result.indices)


def probe_false_neighbor_rate(
    points: np.ndarray,
    k: int,
    window: int,
    code_bits: int,
) -> float:
    """FNR of the Morton window search vs exact kNN on ``points``."""
    approx = MortonNeighborSearch(k, window, code_bits).search(points)
    exact = knn(points, points, k)
    return false_neighbor_ratio(approx, exact)


class GuardedPipeline:
    """Wraps a pipeline with sanitization, probes, and fallback.

    Args:
        pipeline: the :class:`~repro.pipeline.EdgePCPipeline` to guard.
        policy: sanitization policy applied to every incoming batch.
        thresholds: probe configuration and trip thresholds.
        seed: seeds the probe subsampling.
        tracer: optional tracer; every probe, fallback, and cooldown
            re-probe becomes a ``guard.*`` span.  Defaults to the
            wrapped pipeline's tracer so guard spans nest into the
            same timeline.
        metrics: optional registry for guard counters (probes, trips,
            fallbacks, rejections, breaker transitions) and probe-score
            gauges.  Defaults to the wrapped pipeline's registry.

    The guard never raises on bad input: sanitization failures and
    irrecoverably non-finite outputs come back as structured
    rejections (``result.rejected``), and everything else comes back
    with finite logits plus a log of any stage degradations.
    """

    def __init__(
        self,
        pipeline,
        policy: Optional[ValidationPolicy] = None,
        thresholds: Optional[GuardThresholds] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.pipeline = pipeline
        self.policy = policy or ValidationPolicy()
        self.thresholds = thresholds or GuardThresholds()
        self._rng = np.random.default_rng(seed)
        if tracer is None:
            tracer = getattr(pipeline, "tracer", None) or NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            metrics = getattr(pipeline, "metrics", None)
        self.metrics = metrics
        self.breakers: Dict[str, CircuitBreaker] = {
            stage: CircuitBreaker(
                self.thresholds.trip_limit, self.thresholds.cooldown
            )
            for stage in (STAGE_SAMPLING, STAGE_NEIGHBOR)
        }
        self.degradation_log: List[StageDegradation] = []
        self.batches_served = 0
        self.batches_rejected = 0

    # Telemetry helpers -------------------------------------------------

    _BREAKER_LEVELS = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

    def _note_breaker(self, stage: str, before: str) -> None:
        """Count a breaker state transition and refresh its gauge."""
        registry = self.metrics
        if registry is None:
            return
        after = self.breakers[stage].state
        if after != before:
            registry.counter(
                "guard_breaker_transitions_total",
                stage=stage, from_state=before, to_state=after,
            ).inc()
        registry.gauge("guard_breaker_state", stage=stage).set(
            self._BREAKER_LEVELS[after]
        )

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # Stage discovery ---------------------------------------------------

    def _guarded_stages(self) -> Tuple[str, ...]:
        """Stages whose approximation is both configured and reachable
        by the wrapped model."""
        config = self.pipeline.config
        stages = []
        samples = bool(config.sample_layers or config.upsample_layers)
        if samples and hasattr(self.pipeline.model, "sa_modules"):
            stages.append(STAGE_SAMPLING)
        neighbors = bool(
            config.neighbor_layers or config.reuse_distance
        )
        if neighbors:
            stages.append(STAGE_NEIGHBOR)
        return tuple(stages)

    # Probes ------------------------------------------------------------

    def _probe_set(self, cloud: np.ndarray) -> np.ndarray:
        n = cloud.shape[0]
        size = min(self.thresholds.probe_points, n)
        if size == n:
            return cloud
        picked = self._rng.choice(n, size=size, replace=False)
        return cloud[picked]

    def _run_probe(
        self, stage: str, probe: np.ndarray
    ) -> Tuple[float, float]:
        """Returns ``(metric, threshold)`` for one stage probe."""
        config = self.pipeline.config
        if stage == STAGE_SAMPLING:
            num_samples = min(
                self.thresholds.probe_samples, probe.shape[0]
            )
            metric = probe_sampling_uniformity(
                probe, num_samples, config.code_bits
            )
            return metric, self.thresholds.max_density_cv
        k = min(self.thresholds.probe_k, probe.shape[0])
        window = min(probe.shape[0], config.window_for(k))
        metric = probe_false_neighbor_rate(
            probe, k, window, config.code_bits
        )
        return metric, self.thresholds.max_false_neighbor_rate

    # Inference ---------------------------------------------------------

    def _run(self, xyz: np.ndarray, config: EdgePCConfig):
        """One pass of the wrapped pipeline under ``config``."""
        if config == self.pipeline.config:
            return self.pipeline.infer(xyz)
        saved = self.pipeline.config
        self.pipeline.config = config
        try:
            with swapped_config(self.pipeline.model, config):
                return self.pipeline.infer(xyz)
        finally:
            self.pipeline.config = saved

    def _reject(
        self,
        reason: str,
        degradations: List[StageDegradation],
        validation: List[ValidationReport],
    ) -> GuardedInferenceResult:
        self.batches_rejected += 1
        self._count("guard_rejections_total")
        return GuardedInferenceResult(
            result=None,
            rejected=True,
            rejection_reason=reason,
            degradations=degradations,
            validation=validation,
        )

    def infer(self, xyz: np.ndarray) -> GuardedInferenceResult:
        """Sanitize, probe, and run one batch — never raises on bad
        input; returns a structured rejection instead."""
        with self.tracer.span("guard.infer", "guard") as span:
            result = self._guarded_infer(xyz)
            span.set("rejected", result.rejected)
            span.set(
                "degraded_stages", list(result.degraded_stages)
            )
            return result

    def _probe_stage(
        self,
        stage: str,
        probe: np.ndarray,
        batch_index: int,
        degradations: List[StageDegradation],
    ) -> bool:
        """Probe one stage; returns True when it must run exact."""
        breaker = self.breakers[stage]
        reprobe = breaker.state == "open"
        before = breaker.state
        decision = breaker.before_batch()
        self._note_breaker(stage, before)
        if decision == "forced":
            self._count(
                "guard_fallbacks_total", stage=stage,
                reason="circuit_open",
            )
            degradations.append(
                StageDegradation(
                    stage, "circuit_open", float("nan"),
                    float("nan"), batch_index,
                )
            )
            return True
        # A half-open breaker means this probe is the cooldown
        # re-probe that decides whether the stage rejoins the
        # approximate path.
        reprobe = reprobe or before == "half_open"
        self._count("guard_probes_total", stage=stage)
        if reprobe:
            self._count("guard_reprobes_total", stage=stage)
        min_probe = max(2, self.thresholds.probe_k)
        if probe.shape[0] < min_probe:
            # Too few points for a meaningful probe; the exact
            # kernels are cheap at this size anyway.
            before = breaker.state
            breaker.record_trip()
            self._note_breaker(stage, before)
            self._count(
                "guard_fallbacks_total", stage=stage,
                reason="probe_underpopulated",
            )
            degradations.append(
                StageDegradation(
                    stage, "probe_tripped", float("nan"),
                    float(probe.shape[0]), batch_index,
                )
            )
            return True
        with self.tracer.span("guard.probe", "guard") as probe_span:
            probe_span.set("stage", stage)
            probe_span.set("reprobe", reprobe)
            metric, threshold = self._run_probe(stage, probe)
            probe_span.set("metric", metric)
            probe_span.set("threshold", threshold)
        if self.metrics is not None:
            self.metrics.gauge(
                "guard_probe_score", stage=stage
            ).set(metric)
        before = breaker.state
        if metric > threshold:
            breaker.record_trip()
            self._note_breaker(stage, before)
            self._count("guard_probe_trips_total", stage=stage)
            self._count(
                "guard_fallbacks_total", stage=stage,
                reason="probe_tripped",
            )
            degradations.append(
                StageDegradation(
                    stage, "probe_tripped", metric, threshold,
                    batch_index,
                )
            )
            return True
        breaker.record_pass()
        self._note_breaker(stage, before)
        return False

    def _guarded_infer(self, xyz: np.ndarray) -> GuardedInferenceResult:
        batch_index = self.batches_served + self.batches_rejected
        try:
            xyz, validation = sanitize_batch(xyz, self.policy)
        except CloudValidationError as err:
            return self._reject(str(err), [], [err.report])

        degradations: List[StageDegradation] = []
        exact: List[str] = []
        probe = self._probe_set(xyz[0])
        for stage in self._guarded_stages():
            if self._probe_stage(
                stage, probe, batch_index, degradations
            ):
                exact.append(stage)

        config = degraded_config(self.pipeline.config, tuple(exact))
        result = self._run(xyz, config)
        if not np.isfinite(result.logits).all():
            # Last-ditch: retry the whole batch on exact kernels.
            full_exact = degraded_config(
                self.pipeline.config,
                (STAGE_SAMPLING, STAGE_NEIGHBOR),
            )
            if config != full_exact:
                self._count(
                    "guard_fallbacks_total", stage="all",
                    reason="non_finite_logits",
                )
                degradations.append(
                    StageDegradation(
                        "all", "non_finite_logits", float("nan"),
                        float("nan"), batch_index,
                    )
                )
                config = full_exact
                with self.tracer.span("guard.retry_exact", "guard"):
                    result = self._run(xyz, config)
            if not np.isfinite(result.logits).all():
                self.degradation_log.extend(degradations)
                return self._reject(
                    "model produced non-finite logits even on exact "
                    "kernels",
                    degradations,
                    validation,
                )
        self.degradation_log.extend(degradations)
        self.batches_served += 1
        self._count("guard_batches_served_total")
        return GuardedInferenceResult(
            result=result,
            degradations=degradations,
            validation=validation,
            effective_config=config,
        )

    @property
    def breaker_states(self) -> Dict[str, str]:
        return {
            stage: breaker.state
            for stage, breaker in self.breakers.items()
        }
