"""Timing wrappers around the public entry points of each repro layer.

The traced run installs these wrappers from outside the program: each
public function or method named in :data:`FUNCTION_SPANS` and
:data:`METHOD_SPANS` is replaced, where its caller binds it, by a
wrapper that records a span (id, parent, op id, name, start, end) on a
per-thread stack.  A span's self time is its duration minus the time
its direct child spans cover, so the self times of one op's span tree
add up to the root span's duration.

Spans marked opaque (the guard's quality probes) swallow the spans of
everything they call, so a probe's Morton sample or exact kNN counts
as probe time rather than as kernel time of the model.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: ``(module, attribute, span name)``: functions replaced in the
#: namespace of the module that calls them.
FUNCTION_SPANS = (
    ("repro.nn.pointnet2", "farthest_point_sample_batch", "sampling.fps"),
    (
        "repro.nn.pointnet2",
        "farthest_point_sample_fast_batch",
        "sampling.fps_fast",
    ),
    ("repro.nn.pointnet2", "ball_query_batch", "neighbors.ball_query"),
    (
        "repro.nn.pointnet2",
        "ball_query_grid_batch",
        "neighbors.ball_query_grid",
    ),
    ("repro.nn.dgcnn", "knn_batch", "neighbors.knn"),
    ("repro.nn.dgcnn", "knn_grid_batch", "neighbors.knn_grid"),
    ("repro.pipeline", "sanitize_batch", "pipeline.validate"),
    ("repro.robustness.guard", "sanitize_batch", "pipeline.validate"),
    (
        "repro.robustness.guard",
        "probe_sampling_uniformity",
        "robustness.probe",
    ),
    (
        "repro.robustness.guard",
        "probe_false_neighbor_rate",
        "robustness.probe",
    ),
)

#: ``(module, class, method, span name)``: methods replaced on their
#: class, so every caller sees the wrapper.
METHOD_SPANS = (
    ("repro.core.sampler", "MortonSampler", "sample_batch",
     "core.morton_sample"),
    ("repro.core.neighbor", "MortonNeighborSearch", "search_batch",
     "core.window_search"),
    ("repro.core.sampler", "MortonUpsampler",
     "interpolation_weights_batch", "core.upsample"),
    ("repro.nn.pointnet2", "SetAbstraction", "forward", "nn.group"),
    ("repro.nn.pointnet2", "FeaturePropagation", "forward", "nn.interp"),
    ("repro.nn.dgcnn", "EdgeConv", "forward", "nn.group"),
    ("repro.pipeline", "EdgePCPipeline", "infer", "pipeline.infer"),
    ("repro.runtime.profiler", "PipelineProfiler", "breakdown",
     "pipeline.price"),
    ("repro.runtime.profiler", "PipelineProfiler", "energy",
     "pipeline.price"),
    ("repro.robustness.guard", "GuardedPipeline", "infer",
     "robustness.guard"),
    ("repro.serving.server", "InferenceServer", "submit",
     "serving.submit"),
    ("repro.partition.pipeline", "PartitionedPipeline", "infer",
     "partition.infer"),
    ("repro.partition.partitioner", "ScenePartitioner", "plan",
     "partition.plan"),
)

OPAQUE_SPANS = frozenset({"robustness.probe"})

#: Every span name a wrapper can record; the last two wrap model
#: objects (see :meth:`SpanRecorder.install`).
SPAN_NAMES = tuple(dict.fromkeys(
    [spec[-1] for spec in FUNCTION_SPANS + METHOD_SPANS]
    + ["nn.feature", "nn.model"]
))

#: Which cost-model stage each span's self time belongs to, for the
#: measured-vs-simulated shares.  The cost model prices both
#: interpolation kinds under the sampling stage.
STAGE_OF_SPAN = {
    "core.morton_sample": "sample",
    "core.upsample": "sample",
    "sampling.fps": "sample",
    "sampling.fps_fast": "sample",
    "nn.interp": "sample",
    "core.window_search": "neighbor",
    "neighbors.ball_query": "neighbor",
    "neighbors.ball_query_grid": "neighbor",
    "neighbors.knn": "neighbor",
    "neighbors.knn_grid": "neighbor",
    "nn.group": "grouping",
    "nn.feature": "feature",
    "nn.model": "feature",
}
STAGES = ("sample", "neighbor", "grouping", "feature")


class _Frame:
    __slots__ = ("span_id", "op_id", "name", "child_s")

    def __init__(self, span_id: int, op_id: int, name: str) -> None:
        self.span_id = span_id
        self.op_id = op_id
        self.name = name
        self.child_s = 0.0


class SpanRecorder:
    """In-memory span store fed by the wrappers, one stack per thread.

    ``spans`` holds ``(span_id, parent_id, op_id, thread, name, start,
    end, self_s)`` tuples; a root span (parent 0) starts a new op whose
    id is its own span id.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(owner, attribute, original, is_instance)`` to undo.
        self._patched: List[Tuple[object, str, object, bool]] = []
        self.result_hooks: Dict[str, Callable[[object], None]] = {}

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as span ``name``."""
        recorder = self

        def timed(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name in OPAQUE_SPANS:
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            frame = _Frame(
                span_id, parent.op_id if parent else span_id, name
            )
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                with recorder._lock:
                    recorder.spans.append((
                        span_id,
                        parent.span_id if parent else 0,
                        frame.op_id,
                        threading.get_ident(),
                        name,
                        start,
                        end,
                        end - start - frame.child_s,
                    ))
            hook = recorder.result_hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return timed

    def _patch(self, owner: object, attribute: str, name: str) -> None:
        """Wrap a module function or a class method in place."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original, False))
        setattr(owner, attribute, self.wrap(original, name))

    def _patch_instance(self, module, name: str) -> None:
        """Wrap one model object's ``forward`` (instance attribute)."""
        original = module.forward
        self._patched.append((module, "forward", original, True))
        module.__dict__["forward"] = self.wrap(original, name)

    def install(self, models=()) -> None:
        """Wrap every layer entry point, plus the feature modules of
        ``models``: each SA/FP/EdgeConv ``mlp``, each Linear head, and
        the model's own ``forward`` (pooling and activation glue)."""
        for module_name, attribute, name in FUNCTION_SPANS:
            self._patch(
                importlib.import_module(module_name), attribute, name
            )
        for module_name, cls_name, method, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, method, name)
        for model in models:
            self._patch_instance(model, "nn.model")
            for module in model.modules():
                mlp = getattr(module, "mlp", None)
                if mlp is not None:
                    self._patch_instance(mlp, "nn.feature")
                for head in ("embedding", "head_hidden", "head_out"):
                    layer = getattr(module, head, None)
                    if layer is not None:
                        self._patch_instance(layer, "nn.feature")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attribute, original, instance = self._patched.pop()
            if instance:
                owner.__dict__.pop(attribute, None)
            else:
                setattr(owner, attribute, original)

    @contextmanager
    def installed(self, models=()):
        self.install(models)
        try:
            yield self
        finally:
            self.uninstall()

    # Aggregation -----------------------------------------------------

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Summed self seconds and call counts per span name."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            self_s[span[4]] += span[7]
            calls[span[4]] += 1
        return self_s, calls

    def roots(self, name: str) -> List[Tuple]:
        """Root spans called ``name``."""
        with self._lock:
            return [s for s in self.spans if s[1] == 0 and s[4] == name]

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span as JSON lines after one metadata line."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for sid, parent, op, thread, name, start, end, self_s in spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "op": op,
                    "thread": thread, "name": name, "start": start,
                    "end": end, "self_s": self_s,
                }) + "\n")
