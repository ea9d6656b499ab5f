"""Large-N exact fast engines: identity, dispatch, pricing.

The pruning FPS and grid neighbor engines promise *bit-identical*
results to the brute kernels they displace above
``EdgePCConfig.exact_fast_threshold``.  These tests pin that promise
property-style (duplicated points, integer lattices, Morton-sorted
clouds, block-width boundaries), check the dispatch wiring end to end
(models, guard breaker, metrics, cost model), and bound the grid
path's memory to a workspace-sized footprint at 40k points.

The exact-kNN seam (``repro.neighbors.batched.exact_knn``) also serves
the FP decoder's 3-NN interpolation.  Its brute engine reproduces the
pre-seam ``argsort`` interpolation bit for bit; its grid engine picks
the same anchors, but scores distances with an einsum instead of a
GEMM, so FP outputs agree with brute only to within
``GRID_FP_TOLERANCE`` of the output's largest magnitude.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import EdgePCConfig
from repro.core.structurize import structurize
from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
    exact_knn,
    knn_batch,
    knn_grid_batch,
)
from repro.neighbors.grid import GridQueryStats, suggest_cell_size
from repro.nn.autograd import Tensor, concatenate
from repro.nn.functional import group_points
from repro.nn.pointnet2 import (
    FeaturePropagation,
    PointNet2Classifier,
    PointNet2Segmentation,
    SAConfig,
    _LevelState,
)
from repro.nn.recorder import StageEvent
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import EdgePCPipeline
from repro.robustness.guard import GuardedPipeline, GuardThresholds
from repro.runtime.cost import EXACT_OPS, CostModel
from repro.runtime.device import xavier
from repro.sampling.fps import (
    FastFpsStats,
    farthest_point_sample,
    farthest_point_sample_fast,
    farthest_point_sample_fast_batch,
)


def _cloud(seed: int, n: int, mode: str) -> np.ndarray:
    """Adversarial clouds: ties and degeneracy on purpose."""
    rng = np.random.default_rng(seed)
    if mode == "random":
        return rng.normal(size=(n, 3))
    if mode == "duplicated":
        base = rng.normal(size=(max(2, n // 4), 3))
        return base[rng.integers(base.shape[0], size=n)]
    if mode == "lattice":
        return rng.integers(0, 8, size=(n, 3)).astype(np.float64)
    if mode == "lattice_duplicated":
        # Exact duplicates whose distance expansions are exact too, so
        # the canonical index tie-break decides every duplicate.
        base = rng.integers(0, 8, size=(max(2, n // 4), 3))
        return base[rng.integers(base.shape[0], size=n)].astype(
            np.float64
        )
    if mode == "morton_sorted":
        pts = rng.normal(size=(n, 3))
        return pts[structurize(pts).permutation]
    raise AssertionError(mode)


CLOUD_MODES = ("random", "duplicated", "lattice", "morton_sorted")


class TestFastFpsIdentity:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(17, 400),
        mode=st.sampled_from(CLOUD_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_to_reference(self, seed, n, mode):
        pts = _cloud(seed, n, mode)
        num = max(1, n // 3)
        ref = farthest_point_sample(pts, num, start_index=0)
        fast = farthest_point_sample_fast(pts, num, start_index=0)
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 48, 64])
    def test_block_width_boundaries(self, n):
        pts = _cloud(7, n, "duplicated")
        ref = farthest_point_sample(pts, n, start_index=0)
        fast = farthest_point_sample_fast(pts, n, start_index=0)
        assert np.array_equal(fast, ref)

    def test_batch_accumulates_stats(self, rng):
        pts = rng.normal(size=(3, 256, 3))
        stats = FastFpsStats()
        out = farthest_point_sample_fast_batch(
            pts, 64, start_index=0, stats=stats
        )
        assert out.shape == (3, 64)
        assert stats.num_points == 3 * 256
        assert stats.num_samples == 3 * 64
        assert 0 < stats.points_scanned <= stats.worst_case
        assert 0.0 < stats.scan_fraction <= 1.0


class TestGridIdentity:
    # "duplicated" Gaussian clouds are excluded here: BLAS rounds the
    # d2 expansion differently per candidate column (~1e-16 jitter on
    # exact duplicates), so the brute kernel's own tie order among
    # coincident points is unspecified.  Integer lattices keep the
    # expansion exact, so duplicates tie-break canonically by index in
    # both engines and are covered below.
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(32, 500),
        k=st.integers(1, 24),
        mode=st.sampled_from(("random", "lattice", "morton_sorted")),
    )
    @settings(max_examples=40, deadline=None)
    def test_knn_grid_matches_brute(self, seed, n, k, mode):
        pts = _cloud(seed, n, mode)[None]
        k = min(k, n)
        brute = knn_batch(pts, pts, k)
        grid = knn_grid_batch(pts, pts, k)
        assert grid.tobytes() == brute.tobytes()

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(32, 400),
        k=st.integers(1, 12),
        radius=st.sampled_from([1.0, 2.0, 3.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_ball_grid_matches_brute(self, seed, n, k, radius):
        # Integer lattices make distances exact, so near-tie rounding
        # cannot differ between engines; ties are everywhere instead.
        pts = _cloud(seed, n, "lattice")[None]
        rng = np.random.default_rng(seed + 1)
        queries = pts[:, rng.integers(n, size=max(1, n // 4))]
        brute = ball_query_batch(queries, pts, radius, k)
        grid = ball_query_grid_batch(queries, pts, radius, k)
        assert grid.tobytes() == brute.tobytes()

    def test_stats_accounting(self, rng):
        pts = rng.normal(size=(1, 512, 3))
        stats = GridQueryStats()
        knn_grid_batch(pts, pts, 8, stats=stats)
        assert stats.num_queries == 512
        # The grid engine's whole point: scan fewer pairs than Q * N.
        assert 0 < stats.pairs_scanned < 512 * 512
        assert stats.rounds >= 1

    def test_suggest_cell_size_degenerate(self):
        coincident = np.zeros((64, 3))
        assert suggest_cell_size(coincident, 8) == 1.0
        flat = np.zeros((64, 3))
        flat[:, 0] = np.linspace(0.0, 4.0, 64)
        assert suggest_cell_size(flat, 8) > 0.0


class TestGridMemoryBudget:
    def test_40k_knn_stays_workspace_sized(self, rng):
        # Brute would materialize 2560 x 40960 float64 tiles chunked
        # by the workspace; the grid path must also stay bounded — far
        # under the ~840 MB an unchunked (Q, N) matrix would take.
        pts = rng.normal(size=(1, 40960, 3))
        queries = pts[:, ::16]
        workspace = Workspace()
        knn_grid_batch(queries, pts, 16, workspace=workspace)  # warm
        tracemalloc.start()
        knn_grid_batch(queries, pts, 16, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 64 * 1024 * 1024


#: Largest grid-vs-brute FP output difference allowed, as a fraction
#: of the brute output's largest magnitude.  The grid's einsum dot and
#: the brute GEMM round ``||q||^2 - 2 q.c + ||c||^2`` differently, by
#: about ``2e-16 * ||q||^2`` in absolute terms; on unit-scale clouds
#: that moves an inverse-distance weight by ~1e-13 (measured up to
#: 1.5e-13 on Gaussian clouds of 500-6000 points).
GRID_FP_TOLERANCE = 1e-12


def _argsort_interpolate(fine_xyz, sampled_indices, features):
    """The FP decoder's interpolation before the exact-kNN seam: one
    untiled (B, N, n) distance matrix and a full stable argsort.  Kept
    here only as the bit-identity oracle."""
    sampled_xyz = np.take_along_axis(
        fine_xyz, sampled_indices[:, :, None], axis=1
    )
    d2 = (
        np.sum(fine_xyz**2, axis=2)[:, :, None]
        - 2.0 * fine_xyz @ sampled_xyz.transpose(0, 2, 1)
        + np.sum(sampled_xyz**2, axis=2)[:, None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    k = min(3, sampled_xyz.shape[1])
    pick = np.argsort(d2, axis=2, kind="stable")[:, :, :k]
    inv = 1.0 / np.maximum(np.take_along_axis(d2, pick, axis=2), 1e-10)
    weights = inv / inv.sum(axis=2, keepdims=True)
    picked = group_points(features, pick)
    return (picked * Tensor(weights[:, :, :, None])).sum(axis=2)


def _fp_case(seed, batch, n_fine, n_coarse, mode):
    """A FP module input: fine cloud, sampled subset, features."""
    rng = np.random.default_rng(seed)
    fine = np.stack([_cloud(seed + b, n_fine, mode) for b in range(batch)])
    idx = np.stack(
        [rng.choice(n_fine, n_coarse, replace=False) for _ in range(batch)]
    )
    state = _LevelState(
        xyz=np.take_along_axis(fine, idx[:, :, None], axis=1),
        features=Tensor(rng.normal(size=(batch, n_coarse, 4))),
        sampled_indices=idx,
    )
    skip = Tensor(rng.normal(size=(batch, n_fine, 2)))
    return fine, skip, state


def _fp_module(threshold, workspace=None):
    config = replace(EdgePCConfig.baseline(), exact_fast_threshold=threshold)
    return FeaturePropagation(
        0, 4, 2, (8,), config, np.random.default_rng(0), workspace
    )


class TestExactKnnSeam:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(16, 400),
        ratio=st.sampled_from([1, 2, 4, 16]),
        k=st.integers(1, 8),
        mode=st.sampled_from(("random", "lattice_duplicated", "lattice")),
    )
    @settings(max_examples=40, deadline=None)
    def test_brute_and_grid_pick_identical_neighbors(
        self, seed, n, ratio, k, mode
    ):
        pts = _cloud(seed, n, mode)[None]
        candidates = pts[:, :: ratio]
        k = min(k, candidates.shape[1])
        brute = exact_knn(pts, candidates, k, "brute")
        grid = exact_knn(pts, candidates, k, "fast")
        assert (brute.engine, grid.engine) == ("brute", "grid")
        assert grid.indices.tobytes() == brute.indices.tobytes()
        # Same pairs, distances equal up to the einsum/GEMM rounding
        # (exactly equal on integer lattices).
        np.testing.assert_allclose(grid.d2, brute.d2, rtol=0, atol=1e-12)
        if mode != "random":
            assert grid.d2.tobytes() == brute.d2.tobytes()

    def test_brute_distances_come_from_the_selection_tile(self, rng):
        queries = rng.normal(size=(2, 300, 3))
        candidates = rng.normal(size=(2, 70, 3))
        # A tiny budget forces many tiles.
        out = exact_knn(queries, candidates, 5, "brute", Workspace(4096))
        full = (
            np.sum(queries**2, axis=2)[:, :, None]
            - 2.0 * queries @ candidates.transpose(0, 2, 1)
            + np.sum(candidates**2, axis=2)[:, None, :]
        )
        expected = np.take_along_axis(full, out.indices, axis=2)
        np.testing.assert_allclose(out.d2, expected, rtol=1e-12)
        assert np.all(np.diff(out.d2, axis=2) >= 0)
        assert np.array_equal(
            out.indices, knn_batch(queries, candidates, 5)
        )

    def test_feature_space_fast_request_runs_brute(self, rng):
        feats = rng.normal(size=(2, 128, 8))
        stats = GridQueryStats()
        out = exact_knn(feats, feats, 4, "fast", stats=stats)
        assert out.engine == "brute"
        assert stats.num_queries == 0
        assert np.array_equal(out.indices, knn_batch(feats, feats, 4))

    def test_grid_fills_stats(self, rng):
        pts = rng.normal(size=(1, 512, 3))
        stats = GridQueryStats()
        exact_knn(pts, pts[:, ::4], 3, "fast", stats=stats)
        assert stats.num_queries == 512
        assert 0 < stats.pairs_scanned < 512 * 128

    def test_rejects_unknown_engine(self, rng):
        pts = rng.normal(size=(1, 16, 3))
        with pytest.raises(ValueError):
            exact_knn(pts, pts, 3, "grid")


class TestFeaturePropagationSeam:
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        n_fine=st.integers(4, 300),
        ratio=st.sampled_from([1, 2, 4, 8]),
        mode=st.sampled_from(CLOUD_MODES),
    )
    @settings(max_examples=30, deadline=None)
    def test_brute_fp_bit_identical_to_argsort_oracle(
        self, seed, batch, n_fine, ratio, mode
    ):
        n_coarse = max(1, n_fine // ratio)
        fine, skip, state = _fp_case(seed, batch, n_fine, n_coarse, mode)
        fp = _fp_module(threshold=10**9)
        out = fp(fine, skip, state.features, state)
        upsampled = _argsort_interpolate(
            fine, state.sampled_indices, state.features
        )
        expected = fp.mlp(concatenate([upsampled, skip], axis=2))
        assert out.data.tobytes() == expected.data.tobytes()

    def test_brute_fp_bit_identical_across_tiles(self):
        # (2, 4096) fine points over 1024 samples: the 4 MiB model
        # budget tiles the query axis into 32 tiles of 128 rows.
        fine, skip, state = _fp_case(3, 2, 4096, 1024, "random")
        fp = _fp_module(threshold=10**9, workspace=Workspace())
        out = fp(fine, skip, state.features, state)
        upsampled = _argsort_interpolate(
            fine, state.sampled_indices, state.features
        )
        expected = fp.mlp(concatenate([upsampled, skip], axis=2))
        assert out.data.tobytes() == expected.data.tobytes()

    @given(
        seed=st.integers(0, 2**16),
        n_fine=st.integers(16, 600),
        ratio=st.sampled_from([2, 4, 16]),
        # Gaussian duplicates are left out for the reason given in
        # TestGridIdentity: the brute GEMM's own tie order among
        # coincident candidates is unspecified.
        mode=st.sampled_from(
            ("random", "lattice", "lattice_duplicated", "morton_sorted")
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_fp_within_tolerance_of_brute(
        self, seed, n_fine, ratio, mode
    ):
        fine, skip, state = _fp_case(seed, 2, n_fine, n_fine // ratio, mode)
        grid = _fp_module(threshold=1)(fine, skip, state.features, state)
        brute = _fp_module(threshold=10**9)(
            fine, skip, state.features, state
        )
        scale = np.abs(brute.data).max()
        assert np.abs(grid.data - brute.data).max() <= (
            GRID_FP_TOLERANCE * scale
        )

    def test_fp_records_the_serving_engine(self, rng):
        from repro.nn.recorder import StageRecorder

        fine, skip, state = _fp_case(5, 2, 256, 64, "random")
        ops = {}
        for threshold in (1, 10**9):
            recorder = StageRecorder()
            _fp_module(threshold)(
                fine, skip, state.features, state, recorder
            )
            ops[threshold] = [e for e in recorder if e.stage == "sample"]
        (grid,) = ops[1]
        (brute,) = ops[10**9]
        assert (grid.op, brute.op) == ("interp_grid", "interp_exact")
        assert grid.counts["n_queries"] == 256
        assert grid.counts["n_candidates"] == 64
        assert 0 < grid.counts["pairs_scanned"] < 256 * 64


class TestConfigDispatch:
    def test_exact_engine_for(self):
        config = EdgePCConfig(exact_fast_threshold=1000)
        assert config.exact_engine_for(999) == "brute"
        assert config.exact_engine_for(1000) == "fast"
        assert config.exact_engine_for(0) == "brute"
        with pytest.raises(ValueError):
            config.exact_engine_for(-1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EdgePCConfig(exact_fast_threshold=0)

    def test_default_threshold_keeps_small_inputs_brute(self):
        config = EdgePCConfig.baseline()
        assert config.exact_engine_for(1024) == "brute"
        assert config.exact_engine_for(40960) == "fast"


class TestModelWiring:
    def test_fast_engines_bit_identical_logits(self, rng):
        xyz = rng.normal(size=(2, 1024, 3))
        fast_cfg = replace(
            EdgePCConfig.baseline(), exact_fast_threshold=64
        )
        sa = (SAConfig(0.25, 16, 0.2, (8, 8)),)
        fast_model = PointNet2Classifier(
            num_classes=4, sa_configs=sa, edgepc=fast_cfg
        )
        brute_model = PointNet2Classifier(
            num_classes=4, sa_configs=sa, edgepc=EdgePCConfig.baseline()
        )
        brute_model.load_state_dict(fast_model.state_dict())
        fast_res = EdgePCPipeline(fast_model).infer(xyz)
        brute_res = EdgePCPipeline(brute_model).infer(xyz)
        assert "fps_fast" in fast_res.stage_ops
        assert "ball_query_grid" in fast_res.stage_ops
        assert "fps" in brute_res.stage_ops
        assert fast_res.logits.tobytes() == brute_res.logits.tobytes()

    def test_exact_fast_metrics_emitted(self, rng):
        xyz = rng.normal(size=(1, 512, 3))
        cfg = replace(EdgePCConfig.baseline(), exact_fast_threshold=64)
        model = PointNet2Classifier(
            num_classes=4,
            sa_configs=(SAConfig(0.25, 8, 0.2, (8,)),),
            edgepc=cfg,
        )
        registry = MetricsRegistry()
        EdgePCPipeline(model, metrics=registry).infer(xyz)
        rendered = registry.to_prometheus()
        assert "exact_fast_blocks_pruned_total" in rendered
        assert 'exact_fast_scan_ratio_bucket{op="fps_fast"' in rendered
        assert (
            'exact_fast_scan_ratio_bucket{op="ball_query_grid"'
            in rendered
        )


class TestGuardRoutesThroughFastEngine:
    def test_breaker_trip_at_40k_uses_fast_exact_kernels(self, rng):
        # A 40960-point stream whose probes always trip: the guard
        # degrades sampling + neighbor search to exact kernels, and
        # those exact kernels must be the fast engines — the breaker
        # being pinned open no longer implies brute O(N^2) latency.
        xyz = rng.normal(size=(1, 40960, 3))
        model = PointNet2Classifier(
            num_classes=4,
            sa_configs=(SAConfig(0.0625, 16, 0.1, (8,)),),
            edgepc=EdgePCConfig.paper_default(),
        )
        registry = MetricsRegistry()
        pipeline = EdgePCPipeline(model, metrics=registry)
        guard = GuardedPipeline(
            pipeline,
            thresholds=GuardThresholds(
                max_density_cv=1e-9,
                max_false_neighbor_rate=1e-9,
                trip_limit=1,
            ),
        )
        first = guard.infer(xyz)
        assert not first.rejected
        assert first.degradations
        ops = first.result.stage_ops
        assert "fps_fast" in ops and "fps" not in ops
        assert "ball_query_grid" in ops and "ball_query" not in ops
        second = guard.infer(xyz)
        assert not second.rejected
        assert "fps_fast" in second.result.stage_ops
        assert "open" in guard.breaker_states.values()
        rendered = registry.to_prometheus()
        assert "exact_fast_blocks_pruned_total" in rendered
        assert "exact_fast_scan_ratio" in rendered


class TestSegmentationAt40k:
    def test_tripped_guard_fp_decoder_runs_grid_under_budget(self, rng):
        # A full 2 SA / 2 FP segmentation net on a 40960-point cloud,
        # guard tripped: every exact stage at level 0 — FPS, ball
        # query and now FP interpolation — runs a fast engine.  The
        # untiled (N, n) float64 interpolation matrix alone used to be
        # 40960 x 2560 x 8 B = 0.84 GB, plus as much for its argsort.
        xyz = rng.normal(size=(1, 40960, 3))

        def guarded(threshold):
            model = PointNet2Segmentation(
                num_classes=4,
                sa_configs=(
                    SAConfig(0.0625, 16, 0.1, (8,)),
                    SAConfig(0.25, 8, 0.2, (8,)),
                ),
                edgepc=replace(
                    EdgePCConfig.paper_default(),
                    exact_fast_threshold=threshold,
                ),
                head_hidden=8,
                rng=np.random.default_rng(0),
            )
            return GuardedPipeline(
                EdgePCPipeline(model),
                thresholds=GuardThresholds(
                    max_density_cv=1e-9,
                    max_false_neighbor_rate=1e-9,
                    trip_limit=1,
                ),
            )

        tracemalloc.start()
        try:
            fast = guarded(8192).infer(xyz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not fast.rejected and fast.degradations
        ops = fast.result.stage_ops
        assert "interp_grid" in ops
        assert "fps_fast" in ops and "ball_query_grid" in ops
        assert peak < 256 * 1024 * 1024
        brute = guarded(10**9).infer(xyz)
        assert "interp_grid" not in brute.result.stage_ops
        assert "interp_exact" in brute.result.stage_ops
        got, want = fast.result.logits, brute.result.logits
        assert np.array_equal(
            fast.result.predictions, brute.result.predictions
        )
        assert np.abs(got - want).max() <= (
            GRID_FP_TOLERANCE * np.abs(want).max()
        )


class TestCostModelPricing:
    def _model(self):
        return CostModel(xavier())

    def test_new_ops_are_exact_family(self):
        assert {"fps_fast", "knn_grid", "ball_query_grid"} <= EXACT_OPS

    def test_fps_fast_cheaper_when_pruned(self):
        model = self._model()
        brute = StageEvent(
            "sample", "fps", 0,
            {"n_points": 40960, "n_samples": 2560, "batch": 1},
        )
        pruned = StageEvent(
            "sample", "fps_fast", 0,
            {
                "n_points": 40960,
                "n_samples": 2560,
                "batch": 1,
                # ~3% of the worst case, as measured at 40k.
                "points_scanned": 0.03 * 40960 * 2560,
            },
        )
        assert model.price(pruned) < model.price(brute)

    def test_grid_query_scales_with_pairs_scanned(self):
        model = self._model()

        def event(pairs):
            return StageEvent(
                "neighbor_search", "knn_grid", 0,
                {
                    "n_queries": 2560,
                    "n_candidates": 40960,
                    "k": 16,
                    "batch": 2,
                    "pairs_scanned": pairs,
                },
            )

        cheap = model.price(event(1e5))
        costly = model.price(event(1e7))
        assert 0 < cheap < costly
        brute = StageEvent(
            "neighbor_search", "knn", 0,
            {
                "n_queries": 2560,
                "n_candidates": 40960,
                "k": 16,
                "batch": 2,
            },
        )
        # At the measured ~3% scan fraction the grid op must price
        # below the all-pairs kernel it displaces.
        grid = model.price(event(0.03 * 2560 * 40960))
        assert grid < model.price(brute)

    def test_ball_query_grid_priced(self):
        model = self._model()
        event = StageEvent(
            "neighbor_search", "ball_query_grid", 0,
            {
                "n_queries": 2560,
                "n_candidates": 40960,
                "k": 16,
                "batch": 1,
                "pairs_scanned": 3e6,
            },
        )
        assert model.price(event) > 0

    def test_interp_grid_priced_from_pairs_scanned(self):
        model = self._model()
        assert "interp_grid" in EXACT_OPS

        def event(op, **counts):
            return StageEvent("sample", op, 1, dict(batch=1, **counts))

        brute = model.price(
            event("interp_exact", n_points=40960, n_samples=2560)
        )
        grid = model.price(
            event(
                "interp_grid", n_queries=40960, n_candidates=2560, k=3,
                pairs_scanned=40960 * 60.0,
            )
        )
        assert 0 < grid < brute

    def test_unknown_op_still_raises(self):
        with pytest.raises(ValueError):
            self._model().price(
                StageEvent("sample", "warp_drive", 0, {})
            )
