"""Tests of the benchmark itself: output checks, statistics, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.serving.server import ServedResult  # noqa: E402


def _tiny_spec(corrupt_call: int, corrupt: str = "labels"):
    """A two-cloud classifier workload whose ``corrupt_call``-th call
    returns one wrong label, or logits off by 1e-3 with right labels."""
    from repro import EdgePCConfig, EdgePCPipeline, PointNet2Classifier
    from repro.nn.pointnet2 import SAConfig

    def build():
        model = PointNet2Classifier(
            num_classes=3,
            sa_configs=(SAConfig(0.5, 4, 1.0, (8, 8)),),
            head_hidden=8,
            edgepc=EdgePCConfig.paper_default(),
        )
        pipeline = EdgePCPipeline(model)
        calls = [0]

        def call(x):
            result = pipeline.infer(x)
            calls[0] += 1
            logits = result.logits.copy()
            predictions = result.predictions.copy()
            if calls[0] == corrupt_call and corrupt == "labels":
                predictions[0] = (predictions[0] + 1) % 3
            elif calls[0] == corrupt_call:
                logits[0] += 1e-3
            return logits, predictions

        return call, model, pipeline

    def make_inputs(seed):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1, 1, (2, 64, 3))]

    return workloads.Offline(
        "tiny", make_inputs, build, lambda x: (x.shape[0], 3),
        "pipeline.infer",
    )


@pytest.mark.parametrize("corrupt", ["labels", "logits"])
def test_corrupted_prediction_is_a_failed_op(corrupt):
    # Call 1 is the reference pass; calls 2.. are timed ops.  Every
    # build makes a fresh counter, so the last build's third call is
    # the second timed op.
    run = workloads.run_offline(
        _tiny_spec(corrupt_call=3, corrupt=corrupt), seed=0,
        seconds=0.05, trace=False, import_s=0.0,
    )
    assert run.ops.attempted >= 2
    assert run.ops.failed == 1
    assert run.ops.reasons == {corrupt: 1}


def test_clean_run_has_no_failed_ops():
    run = workloads.run_offline(
        _tiny_spec(corrupt_call=-1), seed=0, seconds=0.05, trace=False,
        import_s=0.0,
    )
    assert run.ops.failed == 0 and run.ops.attempted >= 2
    assert set(run.metrics) >= {
        "setup_s", "points_per_s", "latency_p50_ms", "peak_traced_mib",
    }


def test_check_output_rejects_bad_shapes_values_and_logits():
    logits = np.arange(6, dtype=float).reshape(2, 3)
    labels = np.array([2, 2])
    ref = workloads.Reference.of(logits, labels, 2)
    check = workloads.check_output
    assert check(logits, labels, (2, 3), ref) == ""
    assert check(logits, labels, (2, 4), ref) == "shape"
    bad = logits.copy()
    bad[1, 2] = np.nan
    assert check(bad, labels, (2, 3), ref) == "non_finite"
    assert check(logits, np.array([2, 1]), (2, 3), ref) == "labels"
    # Same labels, different logits: the fingerprint catches it.
    bad = logits.copy()
    bad[0, 0] += 1e-3
    assert check(bad, labels, (2, 3), ref) == "logits"
    # Rounding-level differences pass.
    assert check(logits * (1 + 1e-12), labels, (2, 3), ref) == ""


class _FakeServer:
    """Resolves every submit at once with a fixed label."""

    def __init__(self, label: int) -> None:
        self.label = label

    def submit(self, cloud):
        future = Future()
        logits = np.zeros(40)
        logits[self.label] = 1.0
        future.set_result(ServedResult(
            request_id="r", logits=logits, prediction=np.int64(self.label),
            batch_size=1, trigger="full", queue_wait_s=0.0,
            simulated_batch_s=0.0,
        ))
        return type("Submitted", (), {"future": future})()


@pytest.mark.parametrize("label, failed", [(5, 0), (6, 4)])
def test_served_label_is_checked_against_the_direct_reference(
    label, failed
):
    clouds = np.zeros((4, 8, 3))
    logits = np.zeros((4, 40))
    logits[:, 5] = 1.0
    refs = workloads.Reference.of(logits, np.full(4, 5), 4)
    ops = workloads.OpCounter()
    loop = workloads.OpenLoop(
        _FakeServer(label), clouds, refs, np.random.default_rng(0), ops
    )
    loop.run([(400.0, 0.01)])
    assert ops.attempted == 4
    assert ops.failed == failed
    latencies = loop.latencies_ms(0)
    assert all(math.isinf(x) for x in latencies) == bool(failed)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    t = workloads.tail(values)
    assert t["value"] == 90 and t["percentile"] == 90.0
    assert t["samples"] == 100
    assert math.isnan(workloads.tail(range(10))["value"])


def test_percentile_keeps_misses_infinite():
    assert workloads.percentile([1.0, math.inf], 50) == 1.0
    assert workloads.percentile([1.0, math.inf, math.inf], 50) == math.inf


def test_reference_round_trips_through_json():
    logits = np.random.default_rng(0).normal(size=(5, 10, 13))
    ref = workloads.Reference.of(logits, logits.argmax(-1), 5)
    back = workloads.Reference.from_json(ref.to_json())
    assert back.differs(ref) == ""
    assert np.array_equal(back.labels, ref.labels)


class _Toy:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.003)


def test_self_times_add_up_and_patches_are_undone(monkeypatch):
    recorder = layers.SpanRecorder()
    original_outer, original_inner = _Toy.outer, _Toy.inner
    monkeypatch.setattr(layers, "FUNCTION_SPANS", ())
    monkeypatch.setattr(layers, "METHOD_SPANS", (
        (__name__, "_Toy", "outer", "toy.outer"),
        (__name__, "_Toy", "inner", "toy.inner"),
    ))
    with recorder.installed():
        assert _Toy().outer() == "done"
    assert _Toy.outer is original_outer and _Toy.inner is original_inner
    (root,) = recorder.roots("toy.outer")
    self_s, calls = recorder.totals()
    assert calls == {"toy.outer": 1, "toy.inner": 1}
    assert sum(self_s.values()) == pytest.approx(root[6] - root[5])
    assert self_s["toy.inner"] >= 0.003


def test_opaque_span_swallows_its_children(monkeypatch):
    recorder = layers.SpanRecorder()
    monkeypatch.setattr(layers, "OPAQUE_SPANS", frozenset({"toy.outer"}))
    outer = recorder.wrap(_Toy.outer, "toy.outer")
    monkeypatch.setattr(_Toy, "inner", recorder.wrap(_Toy.inner, "x"))
    monkeypatch.setattr(_Toy, "outer", outer)
    _Toy().outer()
    _, calls = recorder.totals()
    assert calls == {"toy.outer": 1}


def test_recorded_inputs_match_to_rounding_only(tmp_path, monkeypatch):
    inputs = np.random.default_rng(1).uniform(-1, 1, (2, 8, 3))
    ref = workloads.Reference.of(np.ones((2, 4)), np.zeros(2), 2)
    (tmp_path / "toy.json").write_text(json.dumps({"seeds": {"5": {
        "inputs": workloads.inputs_fingerprint(inputs),
        "references": [ref.to_json()],
    }}}))
    monkeypatch.setattr(workloads, "REFS_DIR", str(tmp_path))
    assert workloads.recorded_reference("toy", 4, inputs) is None
    (got,) = workloads.recorded_reference("toy", 5, np.nextafter(inputs, 2))
    assert got.differs(ref) == ""
    with pytest.raises(RuntimeError, match="differ from the recorded"):
        workloads.recorded_reference("toy", 5, inputs + 1e-6)
