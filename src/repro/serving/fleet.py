"""Multi-replica serving fleet with health-aware failover.

A :class:`ServerFleet` fronts N
:class:`~repro.serving.server.InferenceServer` replicas with a
consistent-hash :class:`Router` keyed on stream/tenant id, and layers
the fault-tolerance policy the single-replica server cannot express:

- **Health-aware routing** — each replica carries a
  :class:`~repro.serving.health.ReplicaHealth` state machine fed by
  attempt outcomes, queue depth, and the guard's breaker state.
  Ejected replicas receive no traffic; degraded ones fall behind
  healthy peers in the ring-walk preference order; probation replicas
  stay routable so re-admission happens through real traffic.
- **Deadline-aware retries** — a failed retryable attempt
  (:class:`~repro.serving.chaos.ReplicaFaultError`, admission
  refusals) is re-dispatched to the next replica in preference order
  after a deterministic jittered backoff
  (:class:`~repro.serving.retry.RetryPolicy`), but never when the
  backoff alone would outlive the request's remaining deadline.
- **Hedging** — with a :class:`~repro.serving.retry.HedgePolicy`, a
  primary attempt still pending past the observed latency quantile
  earns one duplicate dispatch on another replica; first result wins
  and the loser is cancelled.
- **Brownout** — when the routable fraction drops below
  ``brownout_healthy_fraction``, requests below
  ``brownout_min_priority`` are shed at the door with a typed
  :class:`BrownoutError` instead of queueing forever.

The fleet runs in the same two modes as the server: **threaded**
(:meth:`ServerFleet.start` starts every replica's worker pool plus a
maintenance thread that processes attempt outcomes and due timers) and
**virtual** (:meth:`ServerFleet.pump_replica` +
:meth:`ServerFleet.service` under a
:class:`~repro.observability.clock.FixedClock`, driven by the
deterministic :class:`~repro.serving.loadgen.FleetLoadGenerator` and
the chaos harness).  Every decision is recorded in
:attr:`ServerFleet.trace` as
:class:`~repro.serving.retry.RetryEvent` rows, byte-identical across
same-seed runs.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import zlib
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.observability.clock import Clock, wall_clock
from repro.observability.context import TraceContext
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.serving.chaos import ChaosGate, ReplicaFaultError
from repro.serving.health import (
    HealthPolicy,
    ReplicaHealth,
)
from repro.serving.queue import (
    AdmissionError,
    DeadlineExceededError,
    ServingRequest,
    emit_request_trace,
)
from repro.serving.retry import (
    HedgePolicy,
    RetryEvent,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.partition.partitioner import PartitionPlan, ScenePartitioner
from repro.serving.server import (
    DispatchRecord,
    DrainTimeoutError,
    InferenceServer,
    ServedResult,
    ServingConfig,
)


class NoHealthyReplicaError(AdmissionError):
    """Rejected because no routable replica exists right now."""

    reason = "no_healthy_replica"


class BrownoutError(AdmissionError):
    """Shed at the door: fleet in brownout, priority too low."""

    reason = "brownout"


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-replica knobs live in
    :class:`~repro.serving.server.ServingConfig`).

    Attributes:
        ring_points: virtual nodes per replica on the hash ring.
        default_deadline_ms: deadline applied to requests submitted
            without one; ``None`` disables the default.
        brownout_healthy_fraction: when the routable replica fraction
            drops below this, brownout mode sheds low-priority
            traffic.
        brownout_min_priority: minimum priority admitted during
            brownout (higher numbers are more important).
        retry: the deadline-aware retry policy.
        hedge: optional hedged-dispatch policy; ``None`` disables
            hedging.
        health: per-replica health thresholds.
    """

    ring_points: int = 32
    default_deadline_ms: Optional[float] = None
    brownout_healthy_fraction: float = 0.5
    brownout_min_priority: int = 1
    retry: RetryPolicy = RetryPolicy()
    hedge: Optional[HedgePolicy] = None
    health: HealthPolicy = HealthPolicy()

    def __post_init__(self) -> None:
        if self.ring_points < 1:
            raise ValueError("ring_points must be positive")
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms <= 0
        ):
            raise ValueError("default_deadline_ms must be positive")
        if not 0.0 <= self.brownout_healthy_fraction <= 1.0:
            raise ValueError(
                "brownout_healthy_fraction must be within [0, 1]"
            )


class Router:
    """Consistent-hash ring mapping tenant keys to replica indices.

    Each replica owns ``ring_points`` virtual nodes hashed with
    :func:`zlib.crc32` (deterministic across processes, unlike
    ``hash()``).  :meth:`preference` walks the ring clockwise from the
    key's position and returns every replica once, in encounter
    order — the natural failover order that keeps a tenant pinned to
    its primary replica while spreading its retries.
    """

    def __init__(self, replicas: int, ring_points: int = 32) -> None:
        if replicas < 1:
            raise ValueError("replicas must be positive")
        if ring_points < 1:
            raise ValueError("ring_points must be positive")
        self.replicas = int(replicas)
        self.ring_points = int(ring_points)
        ring: List[Tuple[int, int]] = []
        for replica in range(self.replicas):
            for vnode in range(self.ring_points):
                token = f"replica-{replica}-vnode-{vnode}"
                ring.append(
                    (zlib.crc32(token.encode("utf-8")), replica)
                )
        ring.sort()
        self._ring = ring
        self._hashes = [h for h, _ in ring]

    def preference(self, key: str) -> Tuple[int, ...]:
        """All replica indices in ring-walk (failover) order."""
        point = zlib.crc32(str(key).encode("utf-8"))
        start = bisect.bisect_left(self._hashes, point) % len(
            self._ring
        )
        order: List[int] = []
        seen: Set[int] = set()
        for offset in range(len(self._ring)):
            _, replica = self._ring[(start + offset) % len(self._ring)]
            if replica not in seen:
                seen.add(replica)
                order.append(replica)
                if len(order) == self.replicas:
                    break
        return tuple(order)

    def replica_for(self, key: str) -> int:
        """The primary replica for ``key``."""
        return self.preference(key)[0]


@dataclass
class FleetRequest:
    """One fleet-level request; its future survives replica failures.

    Attributes:
        request_id: fleet-level id (``f000001``); attempt ids append
            ``.aK``.
        tenant: routing key (stream/tenant id).
        priority: brownout priority (higher is more important).
        cloud: the ``(N, 3)`` cloud.
        arrival_s: fleet admission instant.
        deadline_s: absolute deadline shared by every attempt.
        future: resolves exactly once — to a
            :class:`~repro.serving.server.ServedResult` or a typed
            error.
        attempts: dispatch attempts made so far.
        tried: replica indices attempted, in order.
        hedges: hedged dispatches issued (at most one).
        inflight: attempt ids not yet resolved.
        winner: attempt id that resolved the future, if successful.
        ctx: root trace context minted at fleet admission; every
            attempt's spans — on whichever replica they land — join
            ``ctx.trace_id``, and the fleet emits the root span when
            the request reaches its terminal state.
        parent_span_id: set on scatter/gather sub-requests (see
            :meth:`ServerFleet.submit_scene`): the scene root span to
            parent this request's terminal span under.  Sub-request
            terminal spans are named ``request.chunk`` so each scene
            trace keeps exactly one ``request`` root.
    """

    request_id: str
    tenant: str
    priority: int
    cloud: np.ndarray
    arrival_s: float
    deadline_s: Optional[float] = None
    future: Future = field(default_factory=Future)
    attempts: int = 0
    tried: List[int] = field(default_factory=list)
    hedges: int = 0
    inflight: Set[str] = field(default_factory=set)
    winner: Optional[str] = None
    ctx: Optional[TraceContext] = None
    parent_span_id: Optional[int] = None


@dataclass
class SceneRequest:
    """One scene-scale request scattered over many fleet requests.

    Minted by :meth:`ServerFleet.submit_scene`: the scene owns the
    trace root; each chunk rides the ordinary fleet path (routing,
    retries, hedging) as a sub-request joined to the scene's trace,
    and the gather step stitches the chunk results into one
    :class:`~repro.serving.server.ServedResult` resolved on
    :attr:`future`.

    Attributes:
        request_id: scene-level id; chunk sub-requests append ``.cJ``.
        tenant: routing key shared by every chunk.
        priority: brownout priority shared by every chunk.
        arrival_s: scene admission instant.
        plan: the partition plan the scene was scattered with.
        future: resolves once — to the stitched result or the first
            chunk error.
        chunks: the chunk sub-requests, aligned with ``plan.chunks``.
        ctx: scene root trace context (``None`` with tracing off).
        pending: chunk outcomes not yet gathered.
        finalized: whether the gather step already ran.
        submit_error: admission error hit while scattering, if any.
    """

    request_id: str
    tenant: str
    priority: int
    arrival_s: float
    plan: PartitionPlan
    future: Future = field(default_factory=Future)
    chunks: List[FleetRequest] = field(default_factory=list)
    ctx: Optional[TraceContext] = None
    pending: int = 0
    finalized: bool = False
    submit_error: Optional[Exception] = None

    @property
    def num_chunks(self) -> int:
        return self.plan.num_chunks


@dataclass
class _Attempt:
    """One dispatch of a fleet request onto one replica."""

    attempt_id: str
    request: FleetRequest
    replica: int
    submitted_s: float
    serving_request: ServingRequest
    hedge: bool = False
    cancelled: bool = False
    ctx: Optional[TraceContext] = None


@dataclass
class Replica:
    """One fleet member: server + health + chaos gate."""

    index: int
    server: InferenceServer
    health: ReplicaHealth
    gate: ChaosGate = field(default_factory=ChaosGate)


#: Errors worth re-dispatching to another replica.  Guard rejections,
#: validation errors, and deadline expiries are terminal.
RETRYABLE_ERRORS = (ReplicaFaultError, AdmissionError)


class ServerFleet:
    """N replicas behind a consistent-hash router (see module doc).

    Args:
        pipelines: one pipeline per replica (each replica needs its
            own model instance — workers swap workspaces into it).
        config: fleet-level policy knobs.
        serving_config: per-replica serving knobs.
        clock: injectable clock shared by every replica; pass a
            :class:`~repro.observability.clock.FixedClock` for
            deterministic virtual-time operation.
        tracer: optional tracer (defaults to the first pipeline's).
        metrics: optional registry (defaults to the first pipeline's).
    """

    def __init__(
        self,
        pipelines: Sequence,
        config: Optional[FleetConfig] = None,
        serving_config: Optional[ServingConfig] = None,
        clock: Clock = wall_clock,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not pipelines:
            raise ValueError("a fleet needs at least one pipeline")
        self.config = config or FleetConfig()
        self.serving_config = serving_config or ServingConfig()
        self.clock = clock
        first = pipelines[0]
        if tracer is None:
            tracer = getattr(first, "tracer", None) or NULL_TRACER
        self.tracer = tracer
        if metrics is None:
            metrics = getattr(first, "metrics", None)
        self.metrics = metrics
        self.replicas: List[Replica] = []
        for index, pipeline in enumerate(pipelines):
            server = InferenceServer(
                pipeline,
                config=self.serving_config,
                clock=clock,
                tracer=tracer,
                metrics=metrics,
            )
            health = ReplicaHealth(
                str(index),
                policy=self.config.health,
                metrics=metrics,
            )
            self.replicas.append(
                Replica(index=index, server=server, health=health)
            )
        self.router = Router(
            len(self.replicas), self.config.ring_points
        )
        self._cond = threading.Condition()
        self._attempts: Dict[str, _Attempt] = {}
        self._resolved: Deque[str] = deque()
        self._retries: List[Tuple[float, int, FleetRequest]] = []
        self._hedge_timers: List[Tuple[float, int, str]] = []
        self._timer_seq = 0
        self._sequence = 0
        self._attempt_latencies: Deque[float] = deque(maxlen=256)
        self._requests: Dict[str, FleetRequest] = {}
        #: Byte-identical-per-seed decision log (RetryEvent rows).
        self.trace: List[RetryEvent] = []
        self.submitted = 0
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_cancelled = 0
        self.submit_rejected = 0
        self.rejection_reasons: Dict[str, int] = {}
        self._maintenance: Optional[threading.Thread] = None
        self._stopping = False

    # Submission ------------------------------------------------------

    def submit(
        self,
        cloud: np.ndarray,
        tenant: str = "default",
        priority: int = 1,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
        parent_ctx: Optional[TraceContext] = None,
    ) -> FleetRequest:
        """Admit one cloud under a tenant key; returns the request.

        ``deadline_s`` is relative to now on the fleet clock and
        bounds the *whole* request including retries and hedges.
        ``parent_ctx`` joins the request to an existing trace as a
        sub-request (:meth:`submit_scene` passes the scene root):
        instead of minting a new trace, the request's terminal span is
        emitted as ``request.chunk`` under the parent span.  Raises a
        typed :class:`~repro.serving.queue.AdmissionError` subclass
        when the fleet sheds the request at the door (brownout, no
        routable replica, every candidate queue full/closed).
        """
        with self.tracer.span("serving.fleet.submit", "serving") as span:
            cloud = np.asarray(cloud, dtype=np.float64)
            if cloud.ndim != 2 or cloud.shape[-1] != 3:
                raise ValueError(
                    f"submit() takes one (N, 3) cloud, got shape "
                    f"{cloud.shape}"
                )
            now = self.clock()
            with self._cond:
                self.submitted += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_submitted_total"
                ).inc()
            if deadline_s is None and (
                self.config.default_deadline_ms is not None
            ):
                deadline_s = self.config.default_deadline_ms / 1e3
            rid = (
                request_id
                if request_id is not None
                else self._next_id()
            )
            span.set("request_id", rid)
            span.set("tenant", str(tenant))
            parent_span_id: Optional[int] = None
            if parent_ctx is not None:
                ctx = parent_ctx.child(
                    self.tracer.next_span_id()
                ).with_baggage(request_id=rid)
                parent_span_id = parent_ctx.span_id
            else:
                ctx = self.tracer.mint_context(rid, tenant=str(tenant))
            if ctx is not None:
                span.set("trace_id", ctx.trace_id)
            if priority < self.config.brownout_min_priority and (
                self.brownout_active(now)
            ):
                self._reject(
                    now, rid, "brownout", ctx=ctx,
                    parent_span_id=parent_span_id,
                )
                raise BrownoutError(
                    f"request {rid!r} shed: fleet in brownout "
                    f"({self.healthy_count(now)}/"
                    f"{len(self.replicas)} replicas routable) and "
                    f"priority {priority} < "
                    f"{self.config.brownout_min_priority}"
                )
            request = FleetRequest(
                request_id=rid,
                tenant=str(tenant),
                priority=int(priority),
                cloud=cloud,
                arrival_s=now,
                deadline_s=(
                    None if deadline_s is None else now + deadline_s
                ),
                ctx=ctx,
                parent_span_id=parent_span_id,
            )
            index, refusal = self._dispatch_attempt(
                request, now, hedge=False, exclude=set()
            )
            if index is None:
                if refusal is None:
                    self._reject(
                        now, rid, "no_healthy_replica", ctx=ctx,
                        parent_span_id=parent_span_id,
                    )
                    raise NoHealthyReplicaError(
                        f"request {rid!r} rejected: no routable "
                        "replica in the fleet"
                    )
                self._reject(
                    now, rid, refusal.reason, ctx=ctx,
                    parent_span_id=parent_span_id,
                )
                raise refusal
            with self._cond:
                self.accepted += 1
                self._requests[rid] = request
            return request

    def submit_scene(
        self,
        cloud: np.ndarray,
        partitioner: ScenePartitioner,
        tenant: str = "default",
        priority: int = 1,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> SceneRequest:
        """Scatter one ``(N, 3)`` scene over the fleet and gather.

        The scene is split by ``partitioner`` into uniform chunks;
        each chunk is submitted as an ordinary fleet sub-request
        (``{rid}.cJ``) sharing the scene's trace, so routing, retries,
        hedging, and brownout all apply per chunk.  When the last
        chunk settles, the per-chunk results are stitched back into
        scene order with owner-chunk priority and the scene future
        resolves to one :class:`~repro.serving.server.ServedResult`
        with ``trigger="scatter_gather"``.  A chunk's terminal error
        (or a scatter-time admission refusal) fails the whole scene
        with that error once every in-flight chunk settles.
        """
        with self.tracer.span(
            "serving.fleet.submit_scene", "serving"
        ) as span:
            cloud = np.asarray(cloud, dtype=np.float64)
            if cloud.ndim != 2 or cloud.shape[-1] != 3:
                raise ValueError(
                    f"submit_scene() takes one (N, 3) scene, got "
                    f"shape {cloud.shape}"
                )
            now = self.clock()
            rid = (
                request_id
                if request_id is not None
                else self._next_id()
            )
            ctx = self.tracer.mint_context(rid, tenant=str(tenant))
            plan = partitioner.plan(cloud)
            span.set("request_id", rid)
            span.set("points", plan.num_points)
            span.set("chunks", plan.num_chunks)
            if ctx is not None:
                span.set("trace_id", ctx.trace_id)
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_scenes_total"
                ).inc()
                self.metrics.counter(
                    "serving_fleet_scene_chunks_total"
                ).inc(plan.num_chunks)
            scene = SceneRequest(
                request_id=rid,
                tenant=str(tenant),
                priority=int(priority),
                arrival_s=now,
                plan=plan,
                ctx=ctx,
                pending=plan.num_chunks,
            )
            for chunk in plan.chunks:
                try:
                    request = self.submit(
                        cloud[chunk.indices],
                        tenant=tenant,
                        priority=priority,
                        deadline_s=deadline_s,
                        request_id=f"{rid}.c{chunk.index}",
                        parent_ctx=ctx,
                    )
                except AdmissionError as err:
                    scene.submit_error = err
                    break
                scene.chunks.append(request)
                request.future.add_done_callback(
                    lambda fut, s=scene: self._settle_scene_chunks(
                        s, 1
                    )
                )
            unscattered = plan.num_chunks - len(scene.chunks)
            if unscattered:
                self._settle_scene_chunks(scene, unscattered)
            return scene

    def _settle_scene_chunks(
        self, scene: SceneRequest, count: int
    ) -> None:
        """Count ``count`` chunk outcomes toward the scene's gather;
        the caller that retires the last one runs the gather (outside
        the fleet lock — it emits spans and resolves the future)."""
        with self._cond:
            scene.pending -= count
            if scene.pending > 0 or scene.finalized:
                return
            scene.finalized = True
        self._gather_scene(scene)

    def _gather_scene(self, scene: SceneRequest) -> None:
        """Stitch chunk results (or fail with the first chunk error)
        and close the scene trace; runs exactly once per scene."""
        now = self.clock()
        error: Optional[BaseException] = None
        results: List[ServedResult] = []
        for request in scene.chunks:
            chunk_error = request.future.exception()
            if chunk_error is not None:
                error = error or chunk_error
            else:
                results.append(request.future.result())
        if error is None and scene.submit_error is not None:
            error = scene.submit_error
        if error is not None:
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_scene_failed_total",
                    reason=type(error).__name__,
                ).inc()
            self._close_scene_trace(
                scene, now, "failed", detail=type(error).__name__
            )
            scene.future.set_exception(error)
            return
        stitched = self._stitch_scene(scene, results)
        if self.metrics is not None:
            self.metrics.counter(
                "serving_fleet_scene_completed_total"
            ).inc()
        self._close_scene_trace(scene, now, "ok")
        scene.future.set_result(stitched)

    def _stitch_scene(
        self, scene: SceneRequest, results: List[ServedResult]
    ) -> ServedResult:
        """Owner-chunk-priority stitch of per-chunk logits back into
        scene point order (context rows are discarded)."""
        plan = scene.plan
        first = results[0]
        logits = np.empty(
            (plan.num_points, first.logits.shape[-1]),
            dtype=first.logits.dtype,
        )
        degraded: Set[str] = set()
        for chunk, served in zip(plan.chunks, results):
            logits[chunk.core_indices] = served.logits[
                : chunk.num_core
            ]
            degraded.update(served.degraded_stages)
        return ServedResult(
            request_id=scene.request_id,
            logits=logits,
            prediction=logits.argmax(axis=-1),
            batch_size=plan.num_chunks,
            trigger="scatter_gather",
            queue_wait_s=max(r.queue_wait_s for r in results),
            simulated_batch_s=sum(
                r.simulated_batch_s for r in results
            ),
            degraded_stages=tuple(sorted(degraded)),
            trace_id=(
                scene.ctx.trace_id if scene.ctx is not None else ""
            ),
        )

    def _close_scene_trace(
        self,
        scene: SceneRequest,
        now: float,
        outcome: str,
        detail: str = "",
    ) -> None:
        """Emit the scene's root span: the single ``request`` root the
        per-chunk ``request.chunk`` spans parent under."""
        ctx = scene.ctx
        if ctx is None:
            return
        attrs: Dict[str, object] = {
            "request_id": scene.request_id,
            "tenant": scene.tenant,
            "outcome": outcome,
            "chunks": scene.num_chunks,
            "points": scene.plan.num_points,
            "scatter_gather": True,
        }
        if detail:
            attrs["detail"] = detail
        self.tracer.emit_span(
            "request",
            start_s=self.tracer.rel(scene.arrival_s),
            duration_s=max(0.0, now - scene.arrival_s),
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            thread="requests",
            attrs=attrs,
        )

    def _next_id(self) -> str:
        with self._cond:
            self._sequence += 1
            return f"f{self._sequence:06d}"

    def _reject(
        self,
        now: float,
        rid: str,
        reason: str,
        ctx: Optional[TraceContext] = None,
        parent_span_id: Optional[int] = None,
    ) -> None:
        with self._cond:
            self.submit_rejected += 1
            self._count_reason(reason)
        if self.metrics is not None:
            self.metrics.counter(
                "serving_fleet_rejected_total", reason=reason
            ).inc()
        self._note(
            RetryEvent(
                now,
                rid,
                0,
                -1,
                "rejected",
                reason,
                trace_id=ctx.trace_id if ctx is not None else "",
            )
        )
        if ctx is not None:
            # Shed-at-the-door requests still close their trace: a
            # zero-length root span records the rejection.  Scene
            # sub-requests close as request.chunk under the scene
            # root instead, keeping one root per trace.
            self.tracer.emit_span(
                "request"
                if parent_span_id is None
                else "request.chunk",
                start_s=self.tracer.rel(now),
                duration_s=0.0,
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=parent_span_id,
                thread="requests",
                attrs={
                    "request_id": rid,
                    "outcome": "rejected",
                    "reason": reason,
                },
            )

    def _count_reason(self, reason: str) -> None:
        """Tally one rejection reason; callers hold :attr:`_cond`."""
        self.rejection_reasons[reason] = (
            self.rejection_reasons.get(reason, 0) + 1
        )

    def _note(self, event: RetryEvent) -> None:
        """Append one decision-log row under the fleet lock.

        Submitter threads (rejections) and the maintenance thread
        (outcomes, timers) both write the trace; readers snapshot it
        via ``list(self.trace)``.
        """
        with self._cond:
            self.trace.append(event)

    # Routing and dispatch --------------------------------------------

    def _candidates(
        self, tenant: str, now: float, exclude: Set[int]
    ) -> List[int]:
        """Routable replicas in failover order, avoiding ``exclude``
        (already-tried) unless that would leave nowhere to go."""
        order = self.router.preference(tenant)
        routable = [
            index
            for index in order
            if not self.replicas[index].gate.killed
            and self.replicas[index].health.routable(now)
        ]
        # Degraded replicas stay routable but fall behind healthy
        # peers; probation replicas keep their ring position so
        # re-admission happens through real traffic.
        routable.sort(
            key=lambda index: (
                1
                if self.replicas[index].health.state == "degraded"
                else 0
            )
        )
        fresh = [index for index in routable if index not in exclude]
        return fresh or routable

    def _dispatch_attempt(
        self,
        request: FleetRequest,
        now: float,
        hedge: bool,
        exclude: Set[int],
    ) -> Tuple[Optional[int], Optional[AdmissionError]]:
        """Try each candidate replica once; returns ``(replica,
        last_refusal)`` where ``replica`` is ``None`` if nobody
        accepted."""
        candidates = self._candidates(request.tenant, now, exclude)
        last_refusal: Optional[AdmissionError] = None
        for index in candidates:
            replica = self.replicas[index]
            remaining = (
                None
                if request.deadline_s is None
                else request.deadline_s - now
            )
            attempt_number = request.attempts + 1
            attempt_id = f"{request.request_id}.a{attempt_number}"
            attempt_ctx: Optional[TraceContext] = None
            if request.ctx is not None:
                # Re-anchor the request's trace on a pre-reserved
                # attempt span id; the replica's queue/batch/stage
                # spans parent under it, and the fleet emits the
                # attempt span itself once the outcome is known.
                attempt_ctx = request.ctx.child(
                    self.tracer.next_span_id()
                ).with_baggage(attempt=str(attempt_number))
            try:
                serving_request = replica.server.submit(
                    request.cloud,
                    deadline_s=remaining,
                    request_id=attempt_id,
                    ctx=attempt_ctx,
                )
            except AdmissionError as err:
                last_refusal = err
                self._note(
                    RetryEvent(
                        now,
                        request.request_id,
                        request.attempts,
                        index,
                        "refused",
                        type(err).__name__,
                        trace_id=self._trace_of(request),
                    )
                )
                continue
            request.attempts = attempt_number
            request.tried.append(index)
            request.inflight.add(attempt_id)
            attempt = _Attempt(
                attempt_id=attempt_id,
                request=request,
                replica=index,
                submitted_s=now,
                serving_request=serving_request,
                hedge=hedge,
                ctx=attempt_ctx,
            )
            with self._cond:
                self._attempts[attempt_id] = attempt
            if hedge:
                request.hedges += 1
                with self._cond:
                    self.hedges += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "serving_fleet_hedges_total"
                    ).inc()
            self._note(
                RetryEvent(
                    now,
                    request.request_id,
                    attempt_number,
                    index,
                    "hedge" if hedge else "dispatch",
                    trace_id=self._trace_of(request),
                )
            )
            if not hedge and self.config.hedge is not None:
                with self._cond:
                    latencies = list(self._attempt_latencies)
                delay = self.config.hedge.delay_s(latencies)
                with self._cond:
                    self._timer_seq += 1
                    heapq.heappush(
                        self._hedge_timers,
                        (now + delay, self._timer_seq, attempt_id),
                    )
                    # Submitter threads schedule hedges while the
                    # maintenance thread may be parked on a longer
                    # wait; wake it so it re-derives its deadline.
                    self._cond.notify_all()
            serving_request.future.add_done_callback(
                lambda fut, aid=attempt_id: self._attempt_resolved(
                    aid
                )
            )
            # Keep the replica's next_flush_at current for the
            # virtual-time event loop; harmless under workers.
            replica.server.batcher.ingest()
            return index, None
        return None, last_refusal

    def _attempt_resolved(self, attempt_id: str) -> None:
        with self._cond:
            self._resolved.append(attempt_id)
            self._cond.notify_all()

    # Outcome processing ----------------------------------------------

    def service(
        self, now: Optional[float] = None, force: bool = False
    ) -> None:
        """Process resolved attempts and due timers at ``now``.

        The fleet's heartbeat: called by the maintenance thread
        (threaded mode) and by the virtual-time event loop after every
        clock advance.  With ``force=True`` (shutdown) due times are
        ignored: pending retries dispatch immediately or fail typed.
        """
        if now is None:
            now = self.clock()
        self._process_resolved(now)
        self._fire_hedges(now, force)
        self._fire_retries(now, force)
        self._process_resolved(now)
        self._observe_health(now)

    def _process_resolved(self, now: float) -> None:
        while True:
            with self._cond:
                if not self._resolved:
                    return
                attempt_id = self._resolved.popleft()
                attempt = self._attempts.pop(attempt_id, None)
            if attempt is not None:
                self._handle_outcome(attempt, now)

    def _trace_of(self, request: FleetRequest) -> str:
        return request.ctx.trace_id if request.ctx is not None else ""

    def _emit_attempt_span(
        self, attempt: _Attempt, now: float, error: Optional[BaseException]
    ) -> None:
        """Emit the attempt span reserved at dispatch time.

        Parented under the request's root span; the replica-side
        queue/batch/stage spans already point at this id via the
        attempt's child context, so the stitched trace has no orphans
        even though the span is written after its children.
        """
        ctx = attempt.ctx
        root = attempt.request.ctx
        if ctx is None or root is None:
            return
        attrs: Dict[str, object] = {
            "replica": attempt.replica,
            "hedge": attempt.hedge,
            "outcome": (
                "ok" if error is None else type(error).__name__
            ),
        }
        if attempt.cancelled:
            attrs["cancelled"] = True
        self.tracer.emit_span(
            "request.attempt",
            start_s=self.tracer.rel(attempt.submitted_s),
            duration_s=max(0.0, now - attempt.submitted_s),
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=root.span_id,
            thread="requests",
            attrs=attrs,
        )

    def _close_request_trace(
        self,
        request: FleetRequest,
        now: float,
        outcome: str,
        detail: str = "",
    ) -> None:
        """Emit the span reserved at fleet admission: the trace root
        for ordinary requests, a ``request.chunk`` child of the scene
        root for scatter/gather sub-requests."""
        ctx = request.ctx
        if ctx is None:
            return
        attrs: Dict[str, object] = {
            "request_id": request.request_id,
            "tenant": request.tenant,
            "outcome": outcome,
            "attempts": request.attempts,
            "hedges": request.hedges,
        }
        if detail:
            attrs["detail"] = detail
        self.tracer.emit_span(
            "request"
            if request.parent_span_id is None
            else "request.chunk",
            start_s=self.tracer.rel(request.arrival_s),
            duration_s=max(0.0, now - request.arrival_s),
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=request.parent_span_id,
            thread="requests",
            attrs=attrs,
        )

    def _handle_outcome(self, attempt: _Attempt, now: float) -> None:
        request = attempt.request
        request.inflight.discard(attempt.attempt_id)
        replica = self.replicas[attempt.replica]
        error = attempt.serving_request.future.exception()
        self._emit_attempt_span(attempt, now, error)
        if error is None:
            latency = max(0.0, now - attempt.submitted_s)
            replica.health.record_success(now, latency)
            with self._cond:
                self._attempt_latencies.append(latency)
            if request.future.done():
                return  # a sibling already won
            request.winner = attempt.attempt_id
            request.future.set_result(
                attempt.serving_request.future.result()
            )
            with self._cond:
                self.completed += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_completed_total"
                ).inc()
            if attempt.hedge:
                with self._cond:
                    self.hedge_wins += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "serving_fleet_hedge_wins_total"
                    ).inc()
                self._note(
                    RetryEvent(
                        now,
                        request.request_id,
                        request.attempts,
                        attempt.replica,
                        "hedge_win",
                        trace_id=self._trace_of(request),
                    )
                )
            self._close_request_trace(request, now, "ok")
            self._cancel_siblings(request, now)
            return
        failure_kind = (
            "deadline"
            if isinstance(error, DeadlineExceededError)
            else type(error).__name__
        )
        replica.health.record_failure(now, failure_kind)
        if request.future.done() or attempt.cancelled:
            return
        if request.inflight:
            return  # a sibling attempt may still win
        if isinstance(error, DeadlineExceededError):
            self._expire_request(request, now, attempt.replica, error)
            return
        if not isinstance(error, RETRYABLE_ERRORS):
            self._fail_request(request, now, attempt.replica, error)
            return
        self._schedule_retry(request, now, attempt.replica, error)

    def _expire_request(
        self,
        request: FleetRequest,
        now: float,
        replica: int,
        error: Exception,
    ) -> None:
        with self._cond:
            self.expired += 1
            self._count_reason("deadline")
        if self.metrics is not None:
            self.metrics.counter("serving_fleet_expired_total").inc()
        self._note(
            RetryEvent(
                now,
                request.request_id,
                request.attempts,
                replica,
                "expired",
                trace_id=self._trace_of(request),
            )
        )
        self._close_request_trace(request, now, "expired")
        request.future.set_exception(error)

    def _fail_request(
        self,
        request: FleetRequest,
        now: float,
        replica: int,
        error: Exception,
    ) -> None:
        with self._cond:
            self.failed += 1
        if self.metrics is not None:
            self.metrics.counter(
                "serving_fleet_failed_total",
                reason=type(error).__name__,
            ).inc()
        self._note(
            RetryEvent(
                now,
                request.request_id,
                request.attempts,
                replica,
                "failed",
                type(error).__name__,
                trace_id=self._trace_of(request),
            )
        )
        self._close_request_trace(
            request, now, "failed", detail=type(error).__name__
        )
        request.future.set_exception(error)

    def _exhaust_request(
        self,
        request: FleetRequest,
        now: float,
        replica: int,
        cause: Exception,
    ) -> None:
        with self._cond:
            self.failed += 1
            self._count_reason("retry_exhausted")
        if self.metrics is not None:
            self.metrics.counter(
                "serving_fleet_failed_total",
                reason="retry_exhausted",
            ).inc()
        self._note(
            RetryEvent(
                now,
                request.request_id,
                request.attempts,
                replica,
                "exhausted",
                type(cause).__name__,
                trace_id=self._trace_of(request),
            )
        )
        self._close_request_trace(
            request, now, "exhausted", detail=type(cause).__name__
        )
        exhausted = RetryExhaustedError(
            f"request {request.request_id!r} exhausted after "
            f"{request.attempts} attempt(s); last error: "
            f"{type(cause).__name__}: {cause}"
        )
        exhausted.__cause__ = cause
        request.future.set_exception(exhausted)

    def _schedule_retry(
        self,
        request: FleetRequest,
        now: float,
        replica: int,
        error: Exception,
    ) -> None:
        remaining = (
            None
            if request.deadline_s is None
            else request.deadline_s - now
        )
        backoff = self.config.retry.next_backoff(
            request.attempts, request.request_id, remaining
        )
        if backoff is None:
            self._exhaust_request(request, now, replica, error)
            return
        with self._cond:
            self.retries += 1
        if self.metrics is not None:
            self.metrics.counter("serving_fleet_retries_total").inc()
        self._note(
            RetryEvent(
                now,
                request.request_id,
                request.attempts,
                replica,
                "retry",
                type(error).__name__,
                backoff_s=backoff,
                trace_id=self._trace_of(request),
            )
        )
        with self._cond:
            self._timer_seq += 1
            heapq.heappush(
                self._retries,
                (now + backoff, self._timer_seq, request),
            )
            self._cond.notify_all()

    def _cancel_siblings(
        self, request: FleetRequest, now: float
    ) -> None:
        for attempt_id in sorted(request.inflight):
            with self._cond:
                sibling = self._attempts.get(attempt_id)
            if sibling is None or sibling.cancelled:
                continue
            sibling.cancelled = True
            with self._cond:
                self.hedge_cancelled += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_hedge_cancelled_total"
                ).inc()
            self._note(
                RetryEvent(
                    now,
                    request.request_id,
                    request.attempts,
                    sibling.replica,
                    "hedge_cancel",
                    trace_id=self._trace_of(request),
                )
            )

    # Timers ----------------------------------------------------------

    def _fire_retries(self, now: float, force: bool) -> None:
        while True:
            with self._cond:
                if not self._retries:
                    return
                due, _, request = self._retries[0]
                if not force and due > now:
                    return
                heapq.heappop(self._retries)
            if request.future.done():
                continue
            if (
                request.deadline_s is not None
                and now >= request.deadline_s
            ):
                self._expire_request(
                    request,
                    now,
                    -1,
                    DeadlineExceededError(
                        f"request {request.request_id!r} deadline "
                        "passed before its retry could dispatch"
                    ),
                )
                continue
            index, _ = self._dispatch_attempt(
                request, now, hedge=False, exclude=set(request.tried)
            )
            if index is not None:
                continue
            # Nowhere to go right now: a failed placement consumes an
            # attempt, so the loop terminates at max_attempts even
            # while every queue refuses.
            request.attempts += 1
            remaining = (
                None
                if request.deadline_s is None
                else request.deadline_s - now
            )
            backoff = self.config.retry.next_backoff(
                request.attempts, request.request_id, remaining
            )
            if backoff is None:
                self._exhaust_request(
                    request,
                    now,
                    -1,
                    NoHealthyReplicaError(
                        f"request {request.request_id!r}: no replica "
                        "accepted the retry"
                    ),
                )
                continue
            with self._cond:
                self.retries += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "serving_fleet_retries_total"
                ).inc()
            self._note(
                RetryEvent(
                    now,
                    request.request_id,
                    request.attempts,
                    -1,
                    "retry",
                    "placement",
                    backoff_s=backoff,
                    trace_id=self._trace_of(request),
                )
            )
            with self._cond:
                self._timer_seq += 1
                heapq.heappush(
                    self._retries,
                    (now + backoff, self._timer_seq, request),
                )

    def _fire_hedges(self, now: float, force: bool) -> None:
        while True:
            with self._cond:
                if not self._hedge_timers:
                    return
                due, _, attempt_id = self._hedge_timers[0]
                if not force and due > now:
                    return
                heapq.heappop(self._hedge_timers)
                attempt = self._attempts.get(attempt_id)
            if force:
                continue  # shutting down: no new hedges
            if attempt is None or attempt.cancelled:
                continue
            request = attempt.request
            if request.future.done() or request.hedges >= 1:
                continue
            self._dispatch_attempt(
                request, now, hedge=True, exclude={attempt.replica}
            )

    @property
    def next_timer_at(self) -> Optional[float]:
        """Earliest instant the fleet has scheduled work, if any."""
        with self._cond:
            candidates = []
            if self._retries:
                candidates.append(self._retries[0][0])
            if self._hedge_timers:
                candidates.append(self._hedge_timers[0][0])
            if self._resolved:
                candidates.append(self.clock())
        return min(candidates) if candidates else None

    # Health and brownout ---------------------------------------------

    def healthy_count(self, now: float) -> int:
        """Replicas the router may currently send traffic to."""
        return sum(
            1
            for replica in self.replicas
            if not replica.gate.killed
            and replica.health.routable(now)
        )

    def brownout_active(self, now: float) -> bool:
        """Whether low-priority traffic is being shed."""
        fraction = self.healthy_count(now) / len(self.replicas)
        return fraction < self.config.brownout_healthy_fraction

    def _observe_health(self, now: float) -> None:
        for replica in self.replicas:
            breakers = getattr(
                replica.server.pipeline, "breakers", None
            )
            breaker_open = bool(breakers) and any(
                breaker.state == "open"
                for breaker in breakers.values()
            )
            replica.health.observe(
                now,
                queue_depth=replica.server.queue.depth,
                breaker_open=breaker_open,
            )
        if self.metrics is not None:
            self.metrics.gauge("serving_fleet_healthy_replicas").set(
                float(self.healthy_count(now))
            )
            self.metrics.gauge("serving_fleet_brownout").set(
                1.0 if self.brownout_active(now) else 0.0
            )

    # Chaos controls (driven by the harness; also CLI-accessible) -----

    def kill_replica(
        self, index: int, now: Optional[float] = None
    ) -> int:
        """Kill a replica: fail its backlog, force-eject its health.

        Returns the number of shed attempts (each fails with a
        retryable :class:`~repro.serving.chaos.ReplicaFaultError`, so
        the fleet re-dispatches them elsewhere).
        """
        if now is None:
            now = self.clock()
        replica = self.replicas[index]
        replica.gate.killed = True
        shed = self.shed_replica_backlog(index, "killed", now=now)
        replica.health.force_eject(now, "killed")
        return shed

    def stall_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Stall a replica: it stops dispatching but keeps its
        backlog (deadlines still expire)."""
        self.replicas[index].gate.stalled = True

    def slow_replica(
        self,
        index: int,
        factor: float = 4.0,
        now: Optional[float] = None,
    ) -> None:
        """Slow a replica's simulated device by ``factor``."""
        self.replicas[index].gate.slow_factor = float(factor)

    def error_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Make every dispatched batch on a replica fail retryably."""
        self.replicas[index].gate.erroring = True

    def recover_replica(
        self, index: int, now: Optional[float] = None
    ) -> None:
        """Clear chaos state; health still walks EJECTED ->
        PROBATION -> HEALTHY on its own clock."""
        self.replicas[index].gate.reset()

    def shed_replica_backlog(
        self, index: int, reason: str, now: Optional[float] = None
    ) -> int:
        """Fail every queued/buffered attempt on a replica with a
        retryable :class:`~repro.serving.chaos.ReplicaFaultError`;
        returns the count."""
        if now is None:
            now = self.clock()
        replica = self.replicas[index]
        server = replica.server
        with server.queue.condition:
            pending = server.queue.pop_pending()
            if pending:
                server.queue.release(len(pending))
        pending.extend(server.batcher.cancel_buffered())
        if not pending:
            return 0
        for serving_request in pending:
            emit_request_trace(
                self.tracer, serving_request, now, "shed",
                detail=reason,
            )
            serving_request.future.set_exception(
                ReplicaFaultError(
                    f"attempt {serving_request.request_id!r} shed: "
                    f"replica {index} {reason}"
                )
            )
        server.record_failed(len(pending), "replica_fault")
        return len(pending)

    # Virtual mode ----------------------------------------------------

    def pump_replica(
        self, index: int, limit: Optional[int] = None
    ) -> List[DispatchRecord]:
        """Dispatch up to ``limit`` due batches on one replica.

        Chaos-aware: a stalled replica only expires deadlines; a
        killed/erroring replica pops due batches and fails them with
        a retryable fault instead of running inference.
        """
        replica = self.replicas[index]
        if replica.gate.stalled:
            replica.server.batcher.expire_due()
            return []
        if replica.gate.failing:
            records: List[DispatchRecord] = []
            while limit is None or len(records) < limit:
                batch = replica.server.batcher.poll()
                if batch is None:
                    break
                error = ReplicaFaultError(
                    f"replica {index} is {replica.gate.describe()}"
                )
                now = self.clock()
                for serving_request in batch.requests:
                    emit_request_trace(
                        self.tracer, serving_request, now, "failed",
                        detail="replica_fault",
                    )
                    serving_request.future.set_exception(error)
                replica.server.record_failed(
                    batch.size, "replica_fault"
                )
                records.append(
                    DispatchRecord(
                        dispatched_s=batch.formed_s,
                        trigger=batch.trigger,
                        size=batch.size,
                        n_points=batch.n_points,
                        simulated_s=0.0,
                        request_ids=tuple(
                            r.request_id for r in batch.requests
                        ),
                        arrivals_s=tuple(
                            r.arrival_s for r in batch.requests
                        ),
                        ok=False,
                        error="ReplicaFaultError: chaos",
                    )
                )
            return records
        return replica.server.pump(limit=limit)

    def close(self) -> None:
        """Close every replica's admission queue (drain begins)."""
        for replica in self.replicas:
            replica.server.queue.close()

    # Threaded mode ---------------------------------------------------

    def start(self) -> "ServerFleet":
        """Start every replica's worker pool plus the maintenance
        thread (idempotent); returns ``self``."""
        with self.tracer.span("serving.fleet.start", "serving") as span:
            span.set("replicas", len(self.replicas))
            for replica in self.replicas:
                replica.server.start()
            if self._maintenance is None:
                with self._cond:
                    self._stopping = False
                thread = threading.Thread(
                    target=self._maintenance_loop,
                    name="fleet-maintenance",
                    daemon=True,
                )
                thread.start()
                self._maintenance = thread
            return self

    def _maintenance_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopping and not self._resolved:
                    return
                if not self._resolved:
                    # Sleep until the next due retry/hedge timer, but
                    # never longer than the bounded tick — that keeps
                    # timers serviced even if a notify is missed, and
                    # keeps sub-tick hedge delays honest instead of
                    # quantizing them up to the tick.
                    timeout = 0.005
                    due = []
                    if self._retries:
                        due.append(self._retries[0][0])
                    if self._hedge_timers:
                        due.append(self._hedge_timers[0][0])
                    if due:
                        timeout = min(
                            timeout, max(0.0, min(due) - self.clock())
                        )
                    self._cond.wait(timeout=timeout)
            self.service()

    def stop(
        self, drain: bool = True, timeout_s: float = 30.0
    ) -> None:
        """Stop every replica and settle every fleet future.

        After the replicas drain, remaining retries are forced
        against closed queues, so they resolve to typed
        :class:`~repro.serving.retry.RetryExhaustedError` instead of
        hanging.  Re-raises the first
        :class:`~repro.serving.server.DrainTimeoutError` once the
        fleet is otherwise settled.
        """
        with self.tracer.span("serving.fleet.stop", "serving") as span:
            span.set("drain", drain)
            drain_errors: List[DrainTimeoutError] = []
            for replica in self.replicas:
                try:
                    replica.server.stop(
                        drain=drain, timeout_s=timeout_s
                    )
                except DrainTimeoutError as err:
                    drain_errors.append(err)
            while True:
                self.service(force=True)
                with self._cond:
                    settled = not (
                        self._resolved
                        or self._retries
                        or self._hedge_timers
                    )
                if settled:
                    break
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            thread = self._maintenance
            if thread is not None:
                thread.join(timeout=timeout_s)
                self._maintenance = None
            if drain_errors:
                raise drain_errors[0]

    def __enter__(self) -> "ServerFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # Introspection ---------------------------------------------------

    def replica_states(self, now: Optional[float] = None) -> Dict[
        str, str
    ]:
        """Current health state per replica index."""
        if now is None:
            now = self.clock()
        states = {}
        for replica in self.replicas:
            replica.health.tick(now)
            states[str(replica.index)] = replica.health.state
        return states

    def stats(self) -> Dict[str, float]:
        """Snapshot of the fleet counters (also exported as
        ``serving_fleet_*`` metrics when a registry is attached)."""
        now = self.clock()
        if self.metrics is not None:
            self.metrics.gauge("serving_fleet_healthy_replicas").set(
                float(self.healthy_count(now))
            )
        return {
            "replicas": float(len(self.replicas)),
            "submitted": float(self.submitted),
            "accepted": float(self.accepted),
            "rejected": float(self.submit_rejected),
            "completed": float(self.completed),
            "failed": float(self.failed),
            "expired": float(self.expired),
            "retries": float(self.retries),
            "hedges": float(self.hedges),
            "hedge_wins": float(self.hedge_wins),
            "hedge_cancelled": float(self.hedge_cancelled),
            "healthy": float(self.healthy_count(now)),
        }
