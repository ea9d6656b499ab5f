"""The benchmark's four workloads: inputs, set-up, timed loop, checks.

Every workload builds its inputs from the seed with the repo's
synthetic dataset generators, hands the program only the generated
arrays, and checks every op's output:

- non-finite or wrongly shaped logits fail the op;
- labels must equal the reference labels, and the logits must match
  the reference's fingerprint (see :class:`Reference`).  The
  reference is the one recorded in ``refs/<workload>.json`` for a
  published seed, else the output of the untimed reference pass made
  before timing; for serving it is always a direct
  ``GuardedPipeline.infer`` of each cloud, checked against the
  recorded one on a published seed.

An op also fails when it raises, or, for serving, when its request is
refused, expires or is never answered.
"""

from __future__ import annotations

import base64
import json
import math
import os
import statistics
import threading
import time
import tracemalloc
import zlib
from collections import Counter
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import STAGE_OF_SPAN, STAGES, SPAN_NAMES, SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

#: Seeds with recorded reference outputs: the default seed and one held
#: out, so a later claim can be re-checked on a seed it was not tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
PUBLISHED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: serve_guarded ladder: rung ``i`` offers ``BASE * STEP**i`` req/s.
LADDER_BASE_RPS = 20.0
LADDER_STEP = 1.15
LADDER_RUNGS = 9
NAMED_RUNGS = {"low": 0, "mid": 3, "high": 5}
#: A rung meets the limit when its tail latency is below this and its
#: backlog does not grow.
LATENCY_LIMIT_MS = 150.0
TAIL_MIN_BEYOND = 10

#: Per-layer metric names of spans whose self time is better named by
#: what is left once the children are taken out.
METRIC_OF_SPAN = {"partition.infer": "partition.stitch"}


# Output checks --------------------------------------------------------


class OpCounter:
    """Attempted and failed ops, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, reason: str = "") -> None:
        """Count one op; ``reason`` non-empty marks it failed."""
        with self._lock:
            self.attempted += 1
            if reason:
                self.failed += 1
                self.reasons[reason] += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Relative tolerance of the logits check: far above the rounding
#: differences between batch sizes or BLAS kernels, far below any
#: change in what the model computes.
LOGITS_RTOL = 1e-6


def fingerprint(array, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's projection onto a fixed random unit vector, and its
    L2 norm: a compact stand-in for an array that any change beyond
    rounding moves."""
    flat = np.asarray(array, dtype=np.float64).reshape(rows, -1)
    weights = np.random.default_rng(20230617).standard_normal(flat.shape[1])
    return flat @ (weights / np.linalg.norm(weights)), np.linalg.norm(
        flat, axis=1
    )


def same_fingerprint(got, expected, rtol: float) -> bool:
    """Whether two ``fingerprint`` results agree within ``rtol`` of the
    expected norms."""
    tolerance = rtol * np.asarray(expected[1])
    return bool(
        np.all(np.abs(np.asarray(got[0]) - expected[0]) <= tolerance)
        and np.all(np.abs(np.asarray(got[1]) - expected[1]) <= tolerance)
    )


@dataclass(frozen=True)
class Reference:
    """The expected output of an op: its labels, and each row's logits
    as their projection onto a fixed random unit vector plus their L2
    norm.  The untrained models predict nearly one class everywhere,
    so labels alone would let most wrong outputs through."""

    labels: np.ndarray
    projection: np.ndarray
    norm: np.ndarray

    @classmethod
    def of(cls, logits, labels, rows: int) -> "Reference":
        return cls(np.asarray(labels), *fingerprint(logits, rows))

    def row(self, index: int) -> "Reference":
        """The reference of row ``index`` alone (one served cloud)."""
        return Reference(
            self.labels[index],
            self.projection[index : index + 1],
            self.norm[index : index + 1],
        )

    def differs(self, other: "Reference") -> str:
        """Why ``other`` differs from this, or ``""``."""
        if (
            other.labels.shape != self.labels.shape
            or other.norm.shape != self.norm.shape
        ):
            return "shape"
        if not np.array_equal(other.labels, self.labels):
            return "labels"
        if not same_fingerprint(
            (other.projection, other.norm), (self.projection, self.norm),
            LOGITS_RTOL,
        ):
            return "logits"
        return ""

    def mismatch(self, logits, labels) -> str:
        """Why ``(logits, labels)`` differ from this, or ``""``."""
        labels = np.asarray(labels)
        if labels.shape != self.labels.shape:
            return "shape"
        return self.differs(Reference.of(logits, labels, len(self.norm)))

    def to_json(self) -> Dict[str, object]:
        return {
            "labels": encode_labels(self.labels),
            "logits_projection": self.projection.tolist(),
            "logits_norm": self.norm.tolist(),
        }

    @classmethod
    def from_json(cls, entry: Dict[str, object]) -> "Reference":
        return cls(
            decode_labels(entry["labels"]),
            np.asarray(entry["logits_projection"], dtype=np.float64),
            np.asarray(entry["logits_norm"], dtype=np.float64),
        )


def check_output(
    logits: np.ndarray,
    predictions: np.ndarray,
    shape: Sequence[int],
    reference: Reference,
) -> str:
    """Why an op's output is wrong, or ``""`` when it is right."""
    logits = np.asarray(logits)
    if tuple(logits.shape) != tuple(shape):
        return "shape"
    if not np.isfinite(logits).all():
        return "non_finite"
    return reference.mismatch(logits, predictions)


#: Relative tolerance of the recorded-inputs check: generated inputs
#: may differ in the last bits between CPUs, never by more.
INPUTS_RTOL = 1e-9


def inputs_fingerprint(inputs: np.ndarray) -> Dict[str, list]:
    projection, norm = fingerprint(inputs, len(inputs))
    return {"projection": projection.tolist(), "norm": norm.tolist()}


def encode_labels(labels: np.ndarray) -> Dict[str, object]:
    labels = np.asarray(labels)
    packed = zlib.compress(labels.astype(np.uint8).tobytes(), 9)
    return {
        "shape": list(labels.shape),
        "uint8_zlib_b64": base64.b64encode(packed).decode("ascii"),
    }


def decode_labels(entry: Dict[str, object]) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(entry["uint8_zlib_b64"]))
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return labels.reshape(entry["shape"])


def recorded_reference(
    workload: str, seed: int, inputs: np.ndarray
) -> Optional[List[Reference]]:
    """The recorded references for ``seed``, one per distinct input, or
    ``None`` if the seed is not published.

    Raises when the seed is published but the generated inputs differ
    from the recorded ones: the references would no longer apply.
    """
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)["seeds"].get(str(seed))
    if entry is None:
        return None
    recorded = entry["inputs"]
    if not same_fingerprint(
        fingerprint(inputs, len(inputs)),
        (np.asarray(recorded["projection"]), np.asarray(recorded["norm"])),
        INPUTS_RTOL,
    ):
        raise RuntimeError(
            f"{workload} inputs for published seed {seed} differ from "
            "the recorded ones; the reference outputs no longer apply"
        )
    return [Reference.from_json(ref) for ref in entry["references"]]


# Statistics -----------------------------------------------------------


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it: ``{"value", "percentile", "samples"}``; ``nan`` when the
    sample is too small."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_MIN_BEYOND:
        return {"value": math.nan, "percentile": math.nan, "samples": count}
    index = count - TAIL_MIN_BEYOND - 1
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / count,
        "samples": count,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; misses recorded as ``inf`` stay
    ``inf`` instead of turning into ``nan`` by interpolation."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def traced_peak_mib(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` under tracemalloc; returns ``(result, peak MiB)``."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


# Workload plumbing ----------------------------------------------------


@dataclass
class RunResult:
    """What one run reports: metrics keyed by name, plus notes printed
    for a reader (sample counts, percentiles, environment)."""

    ops: OpCounter
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None

    def add(
        self, name: str, value: float, unit: str, samples: int
    ) -> None:
        self.metrics[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }


def timed_setup(
    build: Callable[[], object],
    import_s: float,
    dispose: Optional[Callable[[object], None]] = None,
):
    """Run ``build`` ``SETUP_REPEATS`` times; keep the last product and
    ``dispose`` of the others.

    Returns ``(product, setup_s)``: import time plus the median build.
    """
    times = []
    product = None
    for _ in range(SETUP_REPEATS):
        if product is not None and dispose is not None:
            dispose(product)
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
    return product, import_s + statistics.median(times)


def closed_loop(
    op: Callable[[int], float], seconds: float, min_ops: int = 2
) -> List[float]:
    """Call ``op(i)`` back to back; returns the latencies it reports.

    Stops before an op that would likely end past ``seconds``, after at
    least ``min_ops`` ops.
    """
    latencies: List[float] = []
    start = time.perf_counter()
    while len(latencies) < min_ops or (
        time.perf_counter() - start + statistics.median(latencies)
        <= seconds
    ):
        latencies.append(op(len(latencies)))
    return latencies


# Per-layer metrics ----------------------------------------------------


def registry_ratio(registry, hits: str, misses: str) -> float:
    h = sum(m.value for (n, _), m in registry.items() if n == hits)
    m = sum(m.value for (n, _), m in registry.items() if n == misses)
    return h / (h + m) if h + m else 0.0


def histogram_mean(registry, name: str, **labels: str) -> float:
    total = count = 0.0
    for (metric_name, items), metric in registry.items():
        if metric_name != name:
            continue
        if any(dict(items).get(k) != v for k, v in labels.items()):
            continue
        total += metric.sum
        count += metric.count
    return total / count if count else 0.0


@dataclass
class TraceTaps:
    """Values read off results as the traced run goes."""

    sim_stage_s: Dict[str, float] = field(
        default_factory=lambda: {s: 0.0 for s in STAGES}
    )
    guard_batches: int = 0
    guard_degraded: int = 0
    halo_ratios: List[float] = field(default_factory=list)
    chunks: List[int] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def attach(self, recorder: SpanRecorder) -> None:
        recorder.result_hooks["pipeline.infer"] = self._on_infer
        recorder.result_hooks["robustness.guard"] = self._on_guard
        recorder.result_hooks["partition.infer"] = self._on_scene

    def _on_infer(self, result) -> None:
        b = result.breakdown
        with self.lock:
            self.sim_stage_s["sample"] += b.sample_s
            self.sim_stage_s["neighbor"] += b.neighbor_s
            self.sim_stage_s["grouping"] += b.grouping_s
            self.sim_stage_s["feature"] += b.feature_s

    def _on_guard(self, result) -> None:
        with self.lock:
            self.guard_batches += 1
            self.guard_degraded += bool(result.degraded_stages)

    def _on_scene(self, result) -> None:
        with self.lock:
            self.halo_ratios.append(result.plan.halo_ratio)
            self.chunks.append(result.plan.num_chunks)


def layer_metrics(
    recorder: SpanRecorder,
    taps: TraceTaps,
    registry,
    root: str,
    ops: int,
    op_wall_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced phase (0 where a layer
    did not run).  Times and calls are per op; an op is one call of the
    root span ``root``."""
    self_s, calls = recorder.totals()
    per_op = max(ops, 1)
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        key = METRIC_OF_SPAN.get(name, name)
        out[f"{key}_s"] = self_s.get(name, 0.0) / per_op
        out[f"{key}_calls"] = calls.get(name, 0) / per_op
    out["core.workspace_hit_ratio"] = registry_ratio(
        registry, "workspace_buffer_hits_total",
        "workspace_buffer_misses_total",
    )
    out["sampling.fps_fast_scan_ratio"] = histogram_mean(
        registry, "exact_fast_scan_ratio", op="fps_fast"
    )
    grid = [
        histogram_mean(registry, "exact_fast_scan_ratio", op=op)
        for op in ("ball_query_grid", "knn_grid")
    ]
    grid = [g for g in grid if g]
    out["neighbors.grid_scan_ratio"] = (
        sum(grid) / len(grid) if grid else 0.0
    )
    batches = max(calls.get("pipeline.infer", 0), 1)
    out["pipeline.validate_calls_per_batch"] = (
        calls.get("pipeline.validate", 0) / batches
    )
    out["robustness.probes_per_batch"] = (
        calls.get("robustness.probe", 0) / max(taps.guard_batches, 1)
    )
    out["robustness.fallback_frac"] = (
        taps.guard_degraded / taps.guard_batches
        if taps.guard_batches else 0.0
    )
    out["partition.halo_ratio"] = (
        statistics.mean(taps.halo_ratios) if taps.halo_ratios else 0.0
    )
    out["partition.chunks"] = (
        statistics.mean(taps.chunks) if taps.chunks else 0.0
    )
    measured = {s: 0.0 for s in STAGES}
    for name, stage in STAGE_OF_SPAN.items():
        measured[stage] += self_s.get(name, 0.0)
    measured_total = sum(measured.values())
    sim_total = sum(taps.sim_stage_s.values())
    for stage in STAGES:
        out[f"runtime.measured_share.{stage}"] = (
            measured[stage] / measured_total if measured_total else 0.0
        )
        out[f"runtime.sim_share.{stage}"] = (
            taps.sim_stage_s[stage] / sim_total if sim_total else 0.0
        )
    roots = {span[0] for span in recorder.roots(root)}
    covered = sum(span[7] for span in recorder.spans if span[2] in roots)
    out["bench.self_time_coverage"] = (
        covered / op_wall_s if op_wall_s else 0.0
    )
    return out


# Offline workloads (closed loop, one caller) --------------------------


@dataclass
class Offline:
    """A closed-loop workload: ``build()`` returns ``(call, model,
    pipeline)`` where ``call(x)`` returns ``(logits, predictions)``."""

    name: str
    make_inputs: Callable[[int], List[np.ndarray]]
    build: Callable[[], tuple]
    out_shape: Callable[[np.ndarray], tuple]
    root_span: str
    check_inputs: Optional[Callable[[object], None]] = None


def _indoor_batches(seed: int) -> List[np.ndarray]:
    from repro.datasets import S3DISLike

    rooms = S3DISLike(num_clouds=16, points_per_cloud=4096, seed=seed)
    clouds = np.stack([rooms[i].xyz for i in range(16)])
    return [clouds[:8], clouds[8:]]


def modelnet_clouds(seed: int, count: int) -> np.ndarray:
    from repro.datasets import ModelNetLike

    shapes = ModelNetLike(
        num_clouds=count, points_per_cloud=1024, num_classes=40,
        seed=seed,
    )
    return np.stack([shapes[i].xyz for i in range(count)])


def _modelnet_batches(seed: int) -> List[np.ndarray]:
    clouds = modelnet_clouds(seed, 16)
    return [clouds[:8], clouds[8:]]


#: scene_exact: one fixed floor of 2048-point rooms whose 16384 points
#: split into two Morton chunks of 8192 core points plus halo, so every
#: chunk is above the 8192-point ``exact_fast_threshold``.  The seed
#: draws the sensor noise: the floor plan, and so the chunk sizes and
#: the cost of an op, stay the same from seed to seed.
SCENE_POINTS = 16384
SCENE_ROOM_POINTS = 2048
SCENE_FLOOR_SEED = 0
SCENE_NOISE_SIGMA = 0.005
SCENE_CHUNK_POINTS = 8192
SCENE_HALO = 0.12


def _scene_inputs(seed: int) -> List[np.ndarray]:
    from repro.datasets import make_scene

    floor = make_scene(
        SCENE_POINTS, seed=SCENE_FLOOR_SEED, room_points=SCENE_ROOM_POINTS
    ).xyz
    noise = np.random.default_rng(seed).normal(
        0.0, SCENE_NOISE_SIGMA, floor.shape
    )
    return [floor + noise]


def _warm(pipeline, points: int = 1024) -> None:
    """The set-up warm-up forward: one small cloud."""
    cloud = np.random.default_rng(0).uniform(-1, 1, (1, points, 3))
    pipeline.infer(cloud)


def _infer_call(pipeline):
    def call(x):
        result = pipeline.infer(x)
        return result.logits, result.predictions
    return call


def _build_seg():
    from repro import EdgePCConfig, EdgePCPipeline, PointNet2Segmentation

    model = PointNet2Segmentation(
        13, edgepc=EdgePCConfig.paper_default()
    )
    pipeline = EdgePCPipeline(model)
    _warm(pipeline)
    return _infer_call(pipeline), model, pipeline


def _build_dgcnn():
    from repro import DGCNNClassifier, EdgePCConfig, EdgePCPipeline

    model = DGCNNClassifier(40, edgepc=EdgePCConfig.paper_default())
    pipeline = EdgePCPipeline(model)
    _warm(pipeline)
    return _infer_call(pipeline), model, pipeline


def _build_scene():
    from repro import EdgePCConfig, EdgePCPipeline, PointNet2Segmentation
    from repro.nn.pointnet2 import SAConfig
    from repro.partition import PartitionedPipeline, ScenePartitioner

    # The scene-tuned model of the partition suite: SA radii summing to
    # the halo width, so the halo covers the receptive field.
    sa_configs = (
        SAConfig(0.25, 16, SCENE_HALO / 3.0, (16, 16, 32)),
        SAConfig(0.25, 16, 2.0 * SCENE_HALO / 3.0, (32, 32, 64)),
    )
    model = PointNet2Segmentation(
        13, sa_configs=sa_configs, edgepc=EdgePCConfig.baseline(),
        rng=np.random.default_rng(0),
    )
    inner = EdgePCPipeline(model)
    scenes = PartitionedPipeline(
        inner,
        ScenePartitioner(
            chunk_points=SCENE_CHUNK_POINTS, halo_width=SCENE_HALO
        ),
    )
    _warm(inner)

    def call(x):
        result = scenes.infer(x)
        return result.logits, result.predictions
    return call, model, inner


def _check_scene_plan(scene: np.ndarray) -> None:
    from repro.partition import ScenePartitioner

    plan = ScenePartitioner(
        chunk_points=SCENE_CHUNK_POINTS, halo_width=SCENE_HALO
    ).plan(scene)
    threshold = SCENE_CHUNK_POINTS
    if plan.num_chunks < 2 or plan.chunk_size <= threshold:
        raise RuntimeError(
            f"scene plan of {plan.num_chunks} chunk(s) of "
            f"{plan.chunk_size} points; the workload needs several "
            f"chunks above {threshold} points"
        )


OFFLINE = {
    "seg_indoor": Offline(
        "seg_indoor", _indoor_batches, _build_seg,
        lambda x: (x.shape[0], x.shape[1], 13), "pipeline.infer",
    ),
    "cls_dgcnn": Offline(
        "cls_dgcnn", _modelnet_batches, _build_dgcnn,
        lambda x: (x.shape[0], 40), "pipeline.infer",
    ),
    "scene_exact": Offline(
        "scene_exact", _scene_inputs, _build_scene,
        lambda x: (x.shape[0], 13), "partition.infer",
        _check_scene_plan,
    ),
}


def rows_of(x: np.ndarray) -> int:
    """Reference rows of an op: one per cloud, one for a scene."""
    return x.shape[0] if x.ndim == 3 else 1


def reference_pass(
    spec: Offline, seed: int, inputs: List[np.ndarray], call
) -> tuple:
    """The untimed reference pass: one cold op per distinct input, the
    first under tracemalloc.  Returns ``(references, peak MiB,
    recorded)``; for a published seed the references are the recorded
    ones and ``recorded`` is true."""
    references = []
    peak_mib = 0.0
    for index, x in enumerate(inputs):
        if index == 0:
            (logits, predictions), peak_mib = traced_peak_mib(
                lambda: call(x)
            )
        else:
            logits, predictions = call(x)
        reference = Reference.of(logits, predictions, rows_of(x))
        reason = check_output(
            logits, predictions, spec.out_shape(x), reference
        )
        if reason:
            raise RuntimeError(
                f"{spec.name} reference pass produced {reason} output"
            )
        references.append(reference)
    if spec.check_inputs is not None:
        spec.check_inputs(inputs[0])
    recorded = recorded_reference(spec.name, seed, np.stack(inputs))
    if recorded is not None:
        return recorded, peak_mib, True
    return references, peak_mib, False


def run_offline(
    spec: Offline, seed: int, seconds: float, trace: bool,
    import_s: float,
) -> RunResult:
    from repro.observability.metrics import MetricsRegistry

    inputs = spec.make_inputs(seed)
    (call, model, pipeline), setup_s = timed_setup(spec.build, import_s)
    refs, peak_mib, recorded = reference_pass(spec, seed, inputs, call)
    ops = OpCounter()
    run = RunResult(ops)
    points_per_op = int(np.prod(inputs[0].shape[:-1]))

    def op(i: int) -> float:
        x = inputs[i % len(inputs)]
        start = time.perf_counter()
        try:
            logits, predictions = call(x)
        except Exception as err:  # an op that raises is a failed op
            run.notes.append(f"op {i} raised {type(err).__name__}: {err}")
            ops.record("raised")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        ops.record(check_output(
            logits, predictions, spec.out_shape(x), refs[i % len(refs)]
        ))
        return elapsed

    run.notes.append(
        f"reference outputs: {'recorded' if recorded else 'reference pass'}"
        f" (seed {seed})"
    )
    if not trace:
        latencies = closed_loop(op, seconds)
        median = statistics.median(latencies)
        run.notes.append(
            "op latency ms: " + " ".join(f"{1e3 * t:.0f}" for t in latencies)
        )
        run.add("setup_s", setup_s, "s", SETUP_REPEATS)
        run.add(
            "points_per_s", points_per_op / median, "points/s",
            len(latencies),
        )
        run.add("peak_traced_mib", peak_mib, "MiB", 1)
        run.add("latency_p50_ms", 1e3 * median, "ms", len(latencies))
        run.add("error_rate", ops.error_rate, "ratio", ops.attempted)
        return run
    untraced = closed_loop(op, seconds / 4.0, min_ops=1)
    recorder = SpanRecorder()
    taps = TraceTaps()
    taps.attach(recorder)
    registry = MetricsRegistry()
    pipeline.metrics = registry
    tracemalloc.start()
    try:
        with recorder.installed([model]):
            traced = closed_loop(op, seconds)
        traced_peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        pipeline.metrics = None
    layer = layer_metrics(
        recorder, taps, registry, spec.root_span, len(traced),
        sum(traced),
    )
    layer.update(_serving_zeros())
    layer["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    layer["bench.traced_peak_mib"] = traced_peak
    layer["bench.error_rate"] = ops.error_rate
    for name, value in layer.items():
        run.add(name, value, _unit(name), len(traced))
    run.recorder = recorder
    return run


def _serving_zeros() -> Dict[str, float]:
    """Serving-layer metrics of a workload with no server: 0."""
    return {
        "serving.queue_wait_p50_ms": 0.0,
        "serving.batch_size_mean": 0.0,
        "serving.forward_busy_frac": 0.0,
        "serving.refused": 0.0,
        "serving.expired": 0.0,
        "loadgen.send_lag_p99_ms": 0.0,
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_calls") or name in (
        "serving.refused", "serving.expired", "partition.chunks",
        "robustness.probes_per_batch",
        "pipeline.validate_calls_per_batch",
        "serving.batch_size_mean",
    ):
        return "count"
    return "ratio"


# serve_guarded (open loop, Poisson arrivals, rate ladder) -------------

SERVE_POOL = 48
SERVE_POINTS = 1024


def _build_server():
    from repro import (
        EdgePCConfig, EdgePCPipeline, GuardedPipeline,
        PointNet2Classifier,
    )
    from repro.serving import InferenceServer, ServingConfig

    model = PointNet2Classifier(40, edgepc=EdgePCConfig.paper_default())
    server = InferenceServer(
        GuardedPipeline(EdgePCPipeline(model)), ServingConfig()
    )
    server.start()
    warm = np.random.default_rng(0).uniform(-1, 1, (SERVE_POINTS, 3))
    server.submit(warm).future.result(timeout=60)
    return server


def ladder_rates() -> List[float]:
    return [
        LADDER_BASE_RPS * LADDER_STEP**i for i in range(LADDER_RUNGS)
    ]


#: Relative time on each rung: most on ``mid``, whose median latency
#: is the gated end-to-end number, and more on the other named rungs.
RUNG_WEIGHTS = (2.0, 1.0, 1.0, 4.0, 1.0, 2.0, 1.0, 1.0, 1.0)


def rung_durations(seconds: float) -> List[float]:
    """Seconds per rung; the ladder fills ``seconds``."""
    return [w * seconds / sum(RUNG_WEIGHTS) for w in RUNG_WEIGHTS]


class _Request:
    __slots__ = ("phase", "due", "done", "reason", "wait_s")

    def __init__(self, phase: int, due: float) -> None:
        self.phase = phase
        self.due = due
        self.done = math.nan
        self.reason = ""
        self.wait_s = math.nan


class OpenLoop:
    """One generator thread sending Poisson arrivals on a schedule.

    Each request is timed from the moment it was due, so a stalled
    generator or server charges its wait to every later request; the
    generator's own lateness is kept as ``lags``.
    """

    def __init__(self, server, clouds, refs, rng, ops: OpCounter):
        self.server = server
        self.clouds = clouds
        self.refs = refs
        self.rng = rng
        self.ops = ops
        self.requests: List[_Request] = []
        self.lags: List[float] = []
        self.backlog: List[tuple] = []
        self.futures = []
        self.started = math.nan

    def _resolve(self, request: _Request, future, cloud_index: int):
        request.done = time.perf_counter()
        try:
            served = future.result()
        except Exception as err:  # refused, expired or failed request
            request.reason = type(err).__name__
        else:
            request.wait_s = served.queue_wait_s
            request.reason = check_output(
                served.logits, served.prediction, (40,),
                self.refs.row(cloud_index),
            )
        self.ops.record(request.reason)

    def outstanding(self) -> int:
        return sum(1 for f in self.futures if not f.done())

    def run(self, schedule) -> None:
        """Send each phase ``(rate, seconds)`` in turn, then wait for
        every answer.

        A phase sends ``round(rate * seconds)`` requests at uniformly
        drawn times, i.e. Poisson arrivals conditioned on their count,
        so every seed offers the same load.
        """
        from repro.serving.queue import AdmissionError

        start = time.perf_counter() + 0.01
        self.started = start
        for phase, (rate, length) in enumerate(schedule):
            count = max(1, round(rate * length))
            dues = start + np.sort(self.rng.uniform(0.0, length, count))
            picks = self.rng.integers(len(self.clouds), size=count)
            before = self.outstanding()
            for due, index in zip(dues.tolist(), picks.tolist()):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lags.append(max(0.0, time.perf_counter() - due))
                request = _Request(phase, due)
                self.requests.append(request)
                try:
                    submitted = self.server.submit(self.clouds[index])
                except AdmissionError as err:
                    request.done = time.perf_counter()
                    request.reason = type(err).__name__
                    self.ops.record(request.reason)
                    continue
                self.futures.append(submitted.future)
                submitted.future.add_done_callback(
                    lambda f, r=request, i=index: self._resolve(r, f, i)
                )
            start += length
            delay = start - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.backlog.append((before, self.outstanding()))
        wait_futures(self.futures, timeout=120)
        for request in self.requests:
            if math.isnan(request.done) and not request.reason:
                request.reason = "unanswered"
                self.ops.record(request.reason)

    def latencies_ms(self, phase: int) -> List[float]:
        """Latencies of one phase; failed requests count as misses."""
        return [
            1e3 * (r.done - r.due) if not r.reason else math.inf
            for r in self.requests if r.phase == phase
        ]

    def grew(self, phase: int, max_batch: int) -> bool:
        before, after = self.backlog[phase]
        return after > before + 2 * max_batch


def direct_reference(clouds: np.ndarray):
    """The serving reference: a separately built guarded pipeline over
    an identically constructed model, one cloud per call.  Returns
    ``(Reference over all clouds, guarded pipeline)``."""
    from repro import EdgePCConfig, EdgePCPipeline, GuardedPipeline
    from repro import PointNet2Classifier

    guarded = GuardedPipeline(EdgePCPipeline(
        PointNet2Classifier(40, edgepc=EdgePCConfig.paper_default())
    ))
    results = [guarded.infer(cloud[None]) for cloud in clouds]
    logits = np.concatenate([r.logits for r in results])
    labels = np.concatenate([r.predictions for r in results])
    return Reference.of(logits, labels, len(clouds)), guarded


def _serve_setup(seed: int, import_s: float):
    clouds = modelnet_clouds(seed, SERVE_POOL)
    server, setup_s = timed_setup(
        _build_server, import_s, lambda old: old.stop()
    )
    refs, guarded = direct_reference(clouds)
    recorded = recorded_reference("serve_guarded", seed, clouds)
    reason = recorded[0].differs(refs) if recorded is not None else ""
    if reason:
        server.stop()
        raise RuntimeError(
            f"direct guarded outputs differ from the recorded ones: {reason}"
        )
    _, peak_mib = traced_peak_mib(lambda: guarded.infer(clouds[:8]))
    return clouds, server, refs, setup_s, peak_mib, recorded is not None


def _check_threads(server) -> None:
    """The load generator is this one thread; the server may not have
    more workers than cores."""
    workers = server.config.workers
    if workers > (os.cpu_count() or 1):
        raise RuntimeError(f"{workers} workers on {os.cpu_count()} cores")
    alive = threading.active_count()
    if alive != 1 + workers:
        raise RuntimeError(
            f"{alive} threads alive, expected the generator plus "
            f"{workers} server workers"
        )


def run_serve(
    seed: int, seconds: float, trace: bool, import_s: float
) -> RunResult:
    from repro.observability.metrics import MetricsRegistry

    clouds, server, refs, setup_s, peak_mib, recorded = _serve_setup(
        seed, import_s
    )
    ops = OpCounter()
    run = RunResult(ops)
    run.notes.append(
        f"reference outputs: direct GuardedPipeline.infer per cloud"
        f"{', equal to the recorded ones' if recorded else ''}"
    )
    rng = np.random.default_rng((seed, 1))
    try:
        _check_threads(server)
        if not trace:
            _serve_ladder(run, server, clouds, refs, rng, seconds)
            run.add("setup_s", setup_s, "s", SETUP_REPEATS)
            run.add("peak_traced_mib", peak_mib, "MiB", 1)
            return run
        rate = ladder_rates()[NAMED_RUNGS["mid"]]
        untraced = OpenLoop(server, clouds, refs, rng, ops)
        untraced.run([(rate, seconds / 4.0)])
        recorder = SpanRecorder()
        taps = TraceTaps()
        taps.attach(recorder)
        registry = MetricsRegistry()
        guard = server.pipeline
        guard.pipeline.metrics = registry
        before = server.stats()
        traced = OpenLoop(server, clouds, refs, rng, ops)
        tracemalloc.start()
        try:
            with recorder.installed([guard.pipeline.model]):
                began = time.perf_counter()
                traced.run([(rate, seconds)])
                wall = time.perf_counter() - began
            traced_peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            guard.pipeline.metrics = None
        after = server.stats()
    finally:
        server.stop()
    roots = recorder.roots("robustness.guard")
    busy = sum(end - start for (_, _, _, _, _, start, end, _) in roots)
    layer = layer_metrics(
        recorder, taps, registry, "robustness.guard", len(roots), busy
    )
    done = [r for r in traced.requests if not r.reason]
    layer["serving.queue_wait_p50_ms"] = 1e3 * percentile(
        [r.wait_s for r in done], 50
    )
    layer["serving.batch_size_mean"] = (
        len(done) / len(roots) if roots else 0.0
    )
    layer["serving.forward_busy_frac"] = busy / wall
    layer["serving.refused"] = after["rejected"] - before["rejected"]
    layer["serving.expired"] = after["expired"] - before["expired"]
    layer["loadgen.send_lag_p99_ms"] = 1e3 * percentile(traced.lags, 99)
    layer["bench.trace_overhead_frac"] = (
        _service_ms(traced) / _service_ms(untraced) - 1.0
    )
    layer["bench.traced_peak_mib"] = traced_peak
    layer["bench.error_rate"] = ops.error_rate
    for name, value in layer.items():
        run.add(name, value, _unit(name), len(traced.requests))
    run.recorder = recorder
    return run


def _service_ms(loop: OpenLoop) -> float:
    """Median time from dispatch to answer: latency less queue wait."""
    return 1e3 * statistics.median(
        r.done - r.due - r.wait_s for r in loop.requests if not r.reason
    )


def _serve_ladder(run, server, clouds, refs, rng, seconds) -> None:
    """Send the whole rate ladder and add the serving metrics to
    ``run``: each rung's latencies, the named rungs' p50 and tail, and
    the highest rung of the ladder's passing prefix."""
    rates = ladder_rates()
    loop = OpenLoop(server, clouds, refs, rng, run.ops)
    max_batch = server.config.max_batch_size
    loop.run(list(zip(rates, rung_durations(seconds))))
    rows, oks = [], []
    for phase in range(len(rates)):
        lat = loop.latencies_ms(phase)
        t = tail(lat)
        ok = (
            not loop.grew(phase, max_batch)
            and t["value"] < LATENCY_LIMIT_MS
        )
        oks.append(ok)
        rows.append(
            f"rung {phase:2d} {rates[phase]:6.1f} req/s  n={len(lat):4d}  "
            f"p50={percentile(lat, 50):7.1f} ms  "
            f"p{t['percentile']:.1f}={t['value']:7.1f} ms  "
            f"backlog {loop.backlog[phase][0]}->{loop.backlog[phase][1]}"
            f"  {'ok' if ok else 'miss'}"
        )
    passed = 0
    while passed < len(oks) and oks[passed]:
        passed += 1
    max_rate = rates[passed - 1] if passed else 0.0
    run.notes.extend(rows)
    for label, phase in NAMED_RUNGS.items():
        lat = loop.latencies_ms(phase)
        t = tail(lat)
        run.add(f"latency_p50_ms.{label}", percentile(lat, 50), "ms", len(lat))
        run.add(f"latency_tail_ms.{label}", t["value"], "ms", len(lat))
        run.notes.append(
            f"latency_tail_ms.{label} is p{t['percentile']:.1f} of "
            f"{t['samples']} requests at {rates[phase]:.1f} req/s"
        )
    run.add("max_rate_rps", max_rate, "req/s", len(rates))
    finished = max(r.done for r in loop.requests)
    served = sum(1 for r in loop.requests if not r.reason)
    run.add(
        "points_per_s",
        served * SERVE_POINTS / (finished - loop.started),
        "points/s", served,
    )
    run.add(
        "latency_p50_ms", run.metrics["latency_p50_ms.mid"]["value"], "ms",
        run.metrics["latency_p50_ms.mid"]["samples"],
    )
    run.add(
        "loadgen.send_lag_p99_ms", 1e3 * percentile(loop.lags, 99), "ms",
        len(loop.lags),
    )
    run.add("error_rate", run.ops.error_rate, "ratio", run.ops.attempted)
