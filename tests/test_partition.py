"""Tests for million-point scene partitioning (PR 10).

Covers the Morton-chunked scatter plan (cores partition the scene,
uniform chunk sizes, voxel-dilation halo coverage), stitch identity
(single-chunk byte-identity against the direct pipeline; multi-chunk
bit-exact equality against a monolithic run for an order-independent
local model once the halo covers its receptive field — property-tested
across chunk boundaries, duplicated points, and adversarial halo
widths), the partition cost projection, the deterministic bench suite
and its ratio gate, and the fleet scatter/gather path: one stitched
trace per scene with zero orphan spans, chunk failures failing the
scene, and admission refusals surfacing mid-scatter.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import (
    compare_with_baseline,
    format_results,
    run_partition_suite,
)
from repro.core import EdgePCConfig
from repro.datasets import SceneSegmentation, make_scene
from repro.nn import PointNet2Segmentation, SAConfig
from repro.observability import Tracer, find_orphans
from repro.observability.clock import FixedClock
from repro.observability.metrics import MetricsRegistry
from repro.partition import (
    PartitionedPipeline,
    PartitionRejectedError,
    ScenePartitioner,
    halo_width_for,
    price_partition,
)
from repro.pipeline import EdgePCPipeline
from repro.serving import (
    FleetConfig,
    NoHealthyReplicaError,
    RetryExhaustedError,
    RetryPolicy,
    ServerFleet,
    ServingConfig,
)


def _scene_model(halo_width=0.12, num_classes=5, seed=0):
    """A small two-level model whose receptive field is exactly
    ``halo_width`` (the SA radii sum to it)."""
    from dataclasses import replace

    config = replace(
        EdgePCConfig.paper_default(), exact_fast_threshold=1024
    )
    return PointNet2Segmentation(
        num_classes=num_classes,
        sa_configs=(
            SAConfig(0.25, 4, halo_width / 3, (8, 8)),
            SAConfig(0.25, 4, 2 * halo_width / 3, (8, 8)),
        ),
        edgepc=config,
        head_hidden=8,
        rng=np.random.default_rng(seed),
    )


def _scene_pipeline(halo_width=0.12, seed=0, metrics=None):
    return EdgePCPipeline(
        _scene_model(halo_width=halo_width, seed=seed),
        metrics=metrics,
    )


class _NeighborStatsPipeline:
    """Order-independent stand-in pipeline for stitch-identity proofs.

    Per point, the "logits" are purely local neighborhood statistics
    within ``radius``: the inclusive neighbor count and the
    coordinate-wise max and min over those neighbors.  Max/min/count
    are exactly order- and subset-independent, so the monolithic
    answer for a point depends only on the scene within ``radius`` of
    it — the receptive-field model the halo contract is stated for.
    """

    tracer = None
    metrics = None

    def __init__(self, radius):
        self.radius = float(radius)
        self.calls = 0

    def infer(self, batch):
        self.calls += 1
        batch = np.asarray(batch, dtype=np.float64)
        outputs = []
        for cloud in batch:
            delta = cloud[:, None, :] - cloud[None, :, :]
            near = (delta * delta).sum(-1) <= self.radius**2
            count = near.sum(axis=1).astype(np.float64)
            stats = []
            for axis in range(3):
                coord = np.broadcast_to(
                    cloud[None, :, axis], near.shape
                )
                stats.append(
                    np.where(near, coord, -np.inf).max(axis=1)
                )
                stats.append(
                    np.where(near, coord, np.inf).min(axis=1)
                )
            outputs.append(np.stack([count] + stats, axis=-1))
        logits = np.stack(outputs)

        class _Result:
            pass

        result = _Result()
        result.logits = logits
        result.predictions = logits.argmax(axis=-1)
        result.breakdown = None
        result.energy = None
        result.degraded_stages = ()
        return result


class TestHaloWidthFor:
    def test_sums_sa_radii(self):
        model = _scene_model(halo_width=0.3)
        assert halo_width_for(model.sa_configs) == pytest.approx(0.3)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            halo_width_for(())
        with pytest.raises(ValueError):
            halo_width_for((SAConfig(0.25, 4, 0.0, (8,)),))

    def test_for_model_requires_sa_configs(self):
        partitioner = ScenePartitioner.for_model(
            _scene_model(halo_width=0.3)
        )
        assert partitioner.halo_width == pytest.approx(0.3)
        with pytest.raises(ValueError):
            ScenePartitioner.for_model(object())


class TestPartitionPlan:
    def test_cores_partition_the_scene(self, rng):
        points = rng.random((500, 3)) * 4.0
        plan = ScenePartitioner(64, halo_width=0.3).plan(points)
        plan.validate_cover()
        assert plan.num_chunks == 8
        owners = np.full(500, -1)
        for chunk in plan.chunks:
            assert np.all(owners[chunk.core_indices] == -1)
            owners[chunk.core_indices] = chunk.index
        assert np.all(owners >= 0)

    def test_uniform_chunk_size_with_core_first_layout(self, rng):
        points = rng.random((400, 3)) * 4.0
        plan = ScenePartitioner(64, halo_width=0.3).plan(points)
        for chunk in plan.chunks:
            assert chunk.size == plan.chunk_size
            assert chunk.indices.shape == (plan.chunk_size,)
            assert np.array_equal(
                chunk.indices[: chunk.num_core], chunk.core_indices
            )
            # Core and context never overlap.
            assert not np.intersect1d(
                chunk.core_indices, chunk.halo_indices
            ).size

    def test_halo_covers_the_receptive_field(self, rng):
        """Every point within halo_width of a core point is in the
        chunk — the guarantee the stitch-identity claim rests on."""
        points = rng.random((300, 3)) * 3.0
        halo_width = 0.4
        plan = ScenePartitioner(48, halo_width=halo_width).plan(
            points
        )
        for chunk in plan.chunks:
            member = np.zeros(300, dtype=bool)
            member[chunk.indices] = True
            core = points[chunk.core_indices]
            delta = points[:, None, :] - core[None, :, :]
            near = (
                (delta * delta).sum(-1).min(axis=1)
                <= halo_width**2
            )
            assert member[near].all()

    def test_small_scene_is_one_chunk_in_original_order(self, rng):
        points = rng.random((100, 3))
        plan = ScenePartitioner(128, halo_width=0.5).plan(points)
        assert plan.num_chunks == 1
        chunk = plan.chunks[0]
        assert np.array_equal(
            chunk.core_indices, np.arange(100)
        )
        assert chunk.num_halo == 0
        assert plan.chunk_size == 100

    def test_zero_halo_width_yields_no_halo(self, rng):
        points = rng.random((200, 3)) * 3.0
        plan = ScenePartitioner(64, halo_width=0.0).plan(points)
        # Only uniform-size padding remains (array_split imbalance).
        assert plan.halo_points_total <= plan.num_chunks
        plan.validate_cover()

    def test_plan_is_deterministic(self, rng):
        points = rng.random((300, 3)) * 3.0
        partitioner = ScenePartitioner(48, halo_width=0.3)
        plan_a = partitioner.plan(points)
        plan_b = partitioner.plan(points)
        for left, right in zip(plan_a.chunks, plan_b.chunks):
            assert np.array_equal(
                left.core_indices, right.core_indices
            )
            assert np.array_equal(
                left.halo_indices, right.halo_indices
            )

    def test_input_validation(self, rng):
        partitioner = ScenePartitioner(64, halo_width=0.1)
        with pytest.raises(ValueError):
            partitioner.plan(np.empty((0, 3)))
        with pytest.raises(ValueError):
            partitioner.plan(rng.random((10, 2)))
        bad = rng.random((10, 3))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            partitioner.plan(bad)
        with pytest.raises(ValueError):
            ScenePartitioner(0)
        with pytest.raises(ValueError):
            ScenePartitioner(64, halo_width=-0.1)
        with pytest.raises(ValueError):
            ScenePartitioner(64, halo_width=float("inf"))

    def test_halo_grid_guard_rejects_vanishing_width(self, rng):
        points = rng.random((70, 3)) * 1e9
        with pytest.raises(ValueError, match="halo grid"):
            ScenePartitioner(32, halo_width=1e-9).plan(points)

    def test_halo_ratio_accounts_context_rows(self, rng):
        points = rng.random((300, 3)) * 3.0
        plan = ScenePartitioner(48, halo_width=0.3).plan(points)
        total_context = sum(c.num_halo for c in plan.chunks)
        assert plan.halo_points_total == total_context
        assert plan.halo_ratio == pytest.approx(
            total_context / 300
        )


def _halo_by_isin(points, halo_width, refine, core):
    """Reference halo: the voxel dilation by ``np.unique``/``np.isin``
    over the scene's linearized cell ids."""
    pitch = halo_width / refine
    coords = np.floor((points - points.min(axis=0)) / pitch).astype(
        np.int64
    ) + refine
    dims = coords.max(axis=0) + refine + 1
    linear = (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]
    steps = np.arange(-refine, refine + 1)
    offsets = (
        (steps[:, None, None] * dims[1] + steps[None, :, None]) * dims[2]
        + steps[None, None, :]
    ).ravel()
    dilated = np.unique(
        (np.unique(linear[core])[:, None] + offsets[None, :]).ravel()
    )
    inside = np.isin(linear, dilated)
    inside[core] = False
    return np.flatnonzero(inside)


class TestHaloMembership:
    """The sorted-cells halo equals the ``unique``/``isin`` one."""

    def _assert_halos_match(self, points, chunk_points, halo_width):
        partitioner = ScenePartitioner(chunk_points, halo_width=halo_width)
        plan = partitioner.plan(points)
        assert plan.num_chunks > 1
        cells = partitioner._cells(points)
        for chunk in plan.chunks:
            core = chunk.core_indices
            halo = partitioner._halo_of(cells, core)
            expected = _halo_by_isin(
                points, halo_width, partitioner._HALO_GRID_REFINE, core
            )
            assert halo.dtype == np.int64
            assert np.array_equal(halo, expected)
            assert np.array_equal(halo, chunk.halo_indices[: halo.size])

    def test_benchmark_floor(self):
        floor = make_scene(16384, seed=0, room_points=2048).xyz
        floor = floor + np.random.default_rng(0).normal(
            0.0, 0.005, floor.shape
        )
        self._assert_halos_match(floor, 8192, 0.12)

    def test_sparse_wide_scene(self, rng):
        """A few tight clusters kilometres apart: the halo grid spans
        ~1e16 cells, so only tables sized by N can hold it."""
        centers = rng.uniform(-5000.0, 5000.0, (6, 3))
        points = (
            centers[:, None, :] + rng.normal(0.0, 0.05, (6, 200, 3))
        ).reshape(-1, 3)
        self._assert_halos_match(points, 256, 0.05)


class TestStitchIdentity:
    def test_single_chunk_is_byte_identical_to_direct(self, rng):
        pipeline = _scene_pipeline()
        partitioned = PartitionedPipeline(
            pipeline,
            partitioner=ScenePartitioner(512, halo_width=0.12),
        )
        xyz = make_scene(256, seed=3).xyz
        chunked = partitioned.infer(xyz)
        direct = pipeline.infer(xyz[np.newaxis])
        assert np.array_equal(chunked.logits, direct.logits[0])
        assert np.array_equal(
            chunked.predictions, direct.predictions[0]
        )
        assert chunked.plan.num_chunks == 1

    def test_multi_chunk_matches_monolithic_local_model(self, rng):
        radius = 0.35
        fake = _NeighborStatsPipeline(radius)
        partitioned = PartitionedPipeline(
            fake,
            partitioner=ScenePartitioner(48, halo_width=radius),
            max_chunks_per_batch=3,
        )
        points = rng.random((300, 3)) * 3.0
        chunked = partitioned.infer(points)
        monolithic = fake.infer(points[np.newaxis]).logits[0]
        assert chunked.plan.num_chunks > 1
        assert np.array_equal(chunked.logits, monolithic)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(60, 160),
        chunk_points=st.integers(16, 48),
        radius=st.floats(0.05, 0.6),
        duplicates=st.integers(0, 20),
        scale=st.floats(0.5, 4.0),
    )
    def test_stitch_identity_property(
        self, seed, n, chunk_points, radius, duplicates, scale
    ):
        """Halo >= receptive field => chunked output of the local
        model is bit-exact against the monolithic run, across chunk
        boundaries, duplicated points, and clustered geometry."""
        gen = np.random.default_rng(seed)
        points = gen.random((n, 3)) * scale
        if duplicates:
            picks = gen.integers(0, n, size=duplicates)
            points = np.concatenate([points, points[picks]])
        fake = _NeighborStatsPipeline(radius)
        partitioned = PartitionedPipeline(
            fake,
            partitioner=ScenePartitioner(
                chunk_points, halo_width=radius
            ),
        )
        chunked = partitioned.infer(points)
        monolithic = fake.infer(points[np.newaxis]).logits[0]
        assert np.array_equal(chunked.logits, monolithic)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        halo_factor=st.floats(1.0, 3.0),
    )
    def test_oversized_halo_changes_nothing(
        self, seed, halo_factor
    ):
        """Any halo at or above the receptive field gives the same
        stitched answer — extra context rows are discarded."""
        radius = 0.3
        gen = np.random.default_rng(seed)
        points = gen.random((120, 3)) * 2.0
        fake = _NeighborStatsPipeline(radius)
        partitioned = PartitionedPipeline(
            fake,
            partitioner=ScenePartitioner(
                32, halo_width=radius * halo_factor
            ),
        )
        chunked = partitioned.infer(points)
        monolithic = fake.infer(points[np.newaxis]).logits[0]
        assert np.array_equal(chunked.logits, monolithic)

    def test_undersized_halo_diverges_on_boundaries(self, rng):
        """Sanity check that the identity above is not vacuous: a
        halo far below the receptive field breaks equality."""
        radius = 0.8
        points = rng.random((240, 3)) * 2.0
        fake = _NeighborStatsPipeline(radius)
        partitioned = PartitionedPipeline(
            fake,
            partitioner=ScenePartitioner(32, halo_width=0.01),
        )
        chunked = partitioned.infer(points)
        monolithic = fake.infer(points[np.newaxis]).logits[0]
        assert not np.array_equal(chunked.logits, monolithic)


class TestPartitionedPipeline:
    def test_real_model_multi_chunk_end_to_end(self):
        metrics = MetricsRegistry()
        pipeline = _scene_pipeline(metrics=metrics)
        partitioned = PartitionedPipeline(
            pipeline,
            partitioner=ScenePartitioner(256, halo_width=0.12),
            max_chunks_per_batch=2,
            metrics=metrics,
        )
        scene = make_scene(900, seed=1)
        result = partitioned.infer(scene.xyz)
        assert result.plan.num_chunks == 4
        assert result.logits.shape == (900, 5)
        assert result.predictions.shape == (900,)
        assert 0 <= result.predictions.min()
        assert result.predictions.max() < 5
        assert result.simulated_s > 0
        assert result.energy_j > 0
        names = {
            m["name"] for m in metrics.snapshot()["metrics"]
        }
        assert "partition_scenes_total" in names
        assert "partition_chunks_total" in names
        assert "partition_halo_points_ratio" in names
        assert "partition_chunk_size_points" in names

    def test_default_partitioner_uses_model_receptive_field(self):
        pipeline = _scene_pipeline(halo_width=0.3)
        partitioned = PartitionedPipeline(pipeline)
        assert partitioned.partitioner.halo_width == pytest.approx(
            0.3
        )

    def test_rejected_batch_raises_typed_error(self, rng):
        class _Rejecting:
            tracer = None
            metrics = None

            def infer(self, batch):
                class _Result:
                    rejected = True
                    rejection_reason = "validation: nan rows"

                return _Result()

        partitioned = PartitionedPipeline(
            _Rejecting(),
            partitioner=ScenePartitioner(32, halo_width=0.1),
        )
        with pytest.raises(PartitionRejectedError) as err:
            partitioned.infer(rng.random((100, 3)))
        assert err.value.chunk_indices == (0, 1, 2, 3)
        assert "nan rows" in str(err.value)

    def test_scene_shape_validation(self, rng):
        partitioned = PartitionedPipeline(
            _NeighborStatsPipeline(0.2),
            partitioner=ScenePartitioner(32, halo_width=0.2),
        )
        with pytest.raises(ValueError):
            partitioned.infer(rng.random((4, 10, 3)))
        with pytest.raises(ValueError):
            PartitionedPipeline(
                _NeighborStatsPipeline(0.2),
                partitioner=ScenePartitioner(32),
                max_chunks_per_batch=0,
            )


class TestPartitionCost:
    def test_price_partition_shape_and_consistency(self):
        pipeline = _scene_pipeline()
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=2).xyz
        plan = partitioner.plan(xyz)
        report = price_partition(pipeline, xyz, plan)
        assert report.scene_points == 900
        assert report.num_chunks == plan.num_chunks
        assert report.per_chunk_s > 0
        assert report.chunked_s == pytest.approx(
            report.per_chunk_s * plan.num_chunks
        )
        assert report.monolithic_s > 0
        assert report.speedup == pytest.approx(
            report.monolithic_s / report.chunked_s
        )
        assert 0 <= report.halo_overhead_s < report.chunked_s

    def test_pricing_is_deterministic(self):
        xyz = make_scene(700, seed=5).xyz
        partitioner = ScenePartitioner(256, halo_width=0.12)
        plan = partitioner.plan(xyz)
        first = price_partition(_scene_pipeline(), xyz, plan)
        second = price_partition(_scene_pipeline(), xyz, plan)
        assert first == second


class TestPartitionBench:
    def _suite(self):
        return run_partition_suite(
            sizes=(700,), chunk_points=256, halo_width=0.12, seed=0
        )

    def test_suite_structure_and_determinism(self):
        results = self._suite()
        assert results["params"]["chunk_points"] == 256
        entry = results["kernels"]["scene/700"]
        for key in (
            "chunked_s",
            "monolithic_s",
            "speedup",
            "per_chunk_s",
            "num_chunks",
            "chunk_size",
            "halo_ratio",
        ):
            assert key in entry
        assert json.dumps(results, sort_keys=True) == json.dumps(
            self._suite(), sort_keys=True
        )

    def test_suite_validates_params(self):
        with pytest.raises(ValueError):
            run_partition_suite(sizes=(100,), chunk_points=256)
        with pytest.raises(ValueError):
            run_partition_suite(sizes=(700,), chunk_points=16)
        with pytest.raises(ValueError):
            run_partition_suite(
                sizes=(700,), chunk_points=256, halo_width=0.0
            )

    def test_gate_passes_against_itself_and_catches_regression(
        self,
    ):
        current = {"partition": self._suite()}
        assert (
            compare_with_baseline(current, current, tolerance=0.0)
            == []
        )
        regressed = json.loads(json.dumps(current))
        regressed["partition"]["kernels"]["scene/700"][
            "speedup"
        ] *= 0.4
        problems = compare_with_baseline(
            regressed, current, tolerance=0.1
        )
        assert len(problems) == 1
        assert "scene/700" in problems[0]

    def test_gate_skips_sizes_the_run_did_not_request(self):
        baseline = {"partition": self._suite()}
        other = json.loads(json.dumps(baseline))
        other["partition"]["kernels"]["scene/9999"] = dict(
            other["partition"]["kernels"]["scene/700"]
        )
        assert (
            compare_with_baseline(baseline, other, tolerance=0.0)
            == []
        )

    def test_format_results_renders_partition_section(self):
        text = format_results({"partition": self._suite()})
        assert "scene/700" in text
        assert "halo" in text

    def test_committed_baseline_gate_is_green(self):
        """The repo's committed BENCH_partition.json must stay
        reproducible: regenerate the matching sizes and gate."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / (
            "BENCH_partition.json"
        )
        baseline = json.loads(path.read_text())
        assert "partition" in baseline
        params = baseline["partition"]["params"]
        sizes = tuple(params["sizes"])
        current = {
            "partition": run_partition_suite(
                sizes=sizes[:1],
                chunk_points=params["chunk_points"],
                halo_width=params["halo_width"],
                seed=params["seed"],
            )
        }
        assert compare_with_baseline(current, baseline) == []


def _scene_fleet(replicas=2, tracer=None, metrics=None, config=None):
    clock = FixedClock(0.0)
    if tracer is None:
        tracer = Tracer(clock=clock)
    fleet = ServerFleet(
        [_scene_pipeline(seed=0) for _ in range(replicas)],
        config=config or FleetConfig(),
        serving_config=ServingConfig(
            max_batch_size=2, max_wait_ms=5.0, workers=1,
            max_queue_depth=64,
        ),
        clock=clock,
        tracer=tracer,
        metrics=metrics,
    )
    return fleet, clock, tracer


def _drive_scene(fleet, clock, scene, step_s=0.01, max_steps=800):
    for _ in range(max_steps):
        if scene.future.done():
            return
        clock.advance(step_s)
        now = clock()
        for index in range(len(fleet.replicas)):
            fleet.pump_replica(index)
        fleet.service(now)
    raise AssertionError("scene did not resolve in virtual time")


class TestFleetScatterGather:
    def test_scene_stitches_to_the_direct_result(self):
        fleet, clock, tracer = _scene_fleet()
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=4).xyz
        scene = fleet.submit_scene(
            xyz, partitioner, tenant="scene-1"
        )
        assert scene.num_chunks == 4
        _drive_scene(fleet, clock, scene)
        served = scene.future.result()
        direct = PartitionedPipeline(
            _scene_pipeline(seed=0), partitioner=partitioner
        ).infer(xyz)
        assert np.array_equal(served.logits, direct.logits)
        assert np.array_equal(
            served.prediction, direct.predictions
        )
        assert served.trigger == "scatter_gather"
        assert served.batch_size == 4
        assert served.request_id == scene.request_id
        assert fleet.completed == 4  # the chunk sub-requests

    def test_one_stitched_trace_per_scene_no_orphans(self):
        fleet, clock, tracer = _scene_fleet()
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=4).xyz
        scene = fleet.submit_scene(xyz, partitioner, tenant="t")
        _drive_scene(fleet, clock, scene)
        scene.future.result()
        records = [s.to_dict() for s in tracer.finished()]
        assert find_orphans(records) == []
        trace_id = scene.ctx.trace_id
        spans = [
            r for r in records if r.get("trace_id") == trace_id
        ]
        roots = [
            r
            for r in spans
            if r["name"] == "request" and r.get("parent") is None
        ]
        assert len(roots) == 1
        root = roots[0]
        assert root["attrs"]["scatter_gather"] is True
        assert root["attrs"]["outcome"] == "ok"
        assert root["attrs"]["chunks"] == scene.num_chunks
        chunk_spans = [
            r for r in spans if r["name"] == "request.chunk"
        ]
        assert len(chunk_spans) == scene.num_chunks
        for span in chunk_spans:
            assert span["parent"] == root["id"]
        names = {r["name"] for r in spans}
        assert "request.attempt" in names
        assert "request.batch" in names

    def test_scene_results_are_deterministic_across_runs(self):
        outputs = []
        for _ in range(2):
            fleet, clock, _ = _scene_fleet()
            partitioner = ScenePartitioner(256, halo_width=0.12)
            xyz = make_scene(900, seed=4).xyz
            scene = fleet.submit_scene(xyz, partitioner)
            _drive_scene(fleet, clock, scene)
            outputs.append(scene.future.result().logits)
        assert np.array_equal(outputs[0], outputs[1])

    def test_chunk_failure_fails_the_scene(self):
        fleet, clock, tracer = _scene_fleet(
            config=FleetConfig(
                retry=RetryPolicy(max_attempts=2)
            )
        )
        for index in range(len(fleet.replicas)):
            fleet.error_replica(index)
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=4).xyz
        scene = fleet.submit_scene(xyz, partitioner, tenant="t")
        _drive_scene(fleet, clock, scene)
        with pytest.raises(RetryExhaustedError):
            scene.future.result()
        records = [s.to_dict() for s in tracer.finished()]
        assert find_orphans(records) == []
        roots = [
            r
            for r in records
            if r["name"] == "request"
            and r.get("trace_id") == scene.ctx.trace_id
        ]
        assert len(roots) == 1
        assert roots[0]["attrs"]["outcome"] == "failed"

    def test_admission_refusal_fails_the_scene_at_the_door(self):
        fleet, clock, tracer = _scene_fleet()
        for index in range(len(fleet.replicas)):
            fleet.kill_replica(index)
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=4).xyz
        scene = fleet.submit_scene(xyz, partitioner)
        assert scene.future.done()
        with pytest.raises(NoHealthyReplicaError):
            scene.future.result()
        assert scene.submit_error is not None

    def test_scene_metrics_are_recorded(self):
        metrics = MetricsRegistry()
        fleet, clock, _ = _scene_fleet(metrics=metrics)
        partitioner = ScenePartitioner(256, halo_width=0.12)
        xyz = make_scene(900, seed=4).xyz
        scene = fleet.submit_scene(xyz, partitioner)
        _drive_scene(fleet, clock, scene)
        scene.future.result()
        names = {
            m["name"] for m in metrics.snapshot()["metrics"]
        }
        assert "serving_fleet_scenes_total" in names
        assert "serving_fleet_scene_chunks_total" in names
        assert "serving_fleet_scene_completed_total" in names

    def test_scene_shape_validation(self, rng):
        fleet, clock, _ = _scene_fleet()
        with pytest.raises(ValueError):
            fleet.submit_scene(
                rng.random((2, 10, 3)),
                ScenePartitioner(256, halo_width=0.12),
            )


class TestSceneDataset:
    def test_make_scene_shapes_and_determinism(self):
        scene = make_scene(1000, seed=7)
        again = make_scene(1000, seed=7)
        assert scene.xyz.shape == (1000, 3)
        assert scene.labels.shape == (1000,)
        assert scene.xyz.dtype == np.float64
        assert np.array_equal(scene.xyz, again.xyz)
        assert np.array_equal(scene.labels, again.labels)
        assert not np.array_equal(
            scene.xyz, make_scene(1000, seed=8).xyz
        )

    def test_scene_prefix_stability_across_sizes(self):
        """Growing a scene appends rooms; the shared prefix of the
        same seed at a larger size is unchanged."""
        small = make_scene(500, seed=3, room_points=256)
        large = make_scene(900, seed=3, room_points=256)
        assert np.array_equal(small.xyz, large.xyz[:500])

    def test_make_scene_validation(self):
        with pytest.raises(ValueError):
            make_scene(0)
        with pytest.raises(ValueError):
            make_scene(100, room_points=8)
        with pytest.raises(ValueError):
            make_scene(100, noise_sigma=-1.0)

    def test_dataset_boundary(self):
        dataset = SceneSegmentation(
            num_clouds=2, points_per_cloud=600, room_points=256
        )
        first = dataset[0]
        assert first.xyz.shape == (600, 3)
        assert first.labels.min() >= 0
        assert first.labels.max() < (
            SceneSegmentation.num_semantic_classes
        )
        assert not np.array_equal(first.xyz, dataset[1].xyz)
        assert np.array_equal(dataset[0].xyz, first.xyz)
