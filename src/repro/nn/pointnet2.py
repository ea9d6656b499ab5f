"""PointNet++ (Qi et al., NeurIPS 2017) over the NumPy substrate.

The architecture follows the paper's Fig. 2a: a stack of SetAbstraction
(SA) modules that down-sample and aggregate local neighborhoods,
mirrored by FeaturePropagation (FP) modules that interpolate features
back up, with skip connections between matching levels, and a per-point
segmentation head (or a global classification head).

EdgePC integration: each SA/FP module consults an
:class:`~repro.core.pipeline.EdgePCConfig` to decide whether its
sampling, neighbor-search, and interpolation stages run the exact SOTA
kernels (FPS / ball query / full 3-NN interpolation) or the Morton
approximations.  Every priced operation is reported to a
:class:`~repro.nn.recorder.StageRecorder`, which the runtime package
converts into simulated edge-GPU latency/energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import BatchedSampleResult
from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import (
    MortonSampler,
    MortonUpsampler,
    exact_interpolation_weights,
)
from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
)
from repro.neighbors.grid import GridQueryStats
from repro.nn.autograd import Tensor, concatenate
from repro.nn.functional import (
    gather_points,
    group_points,
    max_pool_neighbors,
    relative_neighborhoods,
)
from repro.nn.layers import Dropout, Linear, Module, shared_mlp
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    NullRecorder,
    StageRecorder,
)
from repro.sampling.fps import (
    FastFpsStats,
    farthest_point_sample_batch,
    farthest_point_sample_fast_batch,
)


@dataclass(frozen=True)
class SAConfig:
    """Hyper-parameters of one SetAbstraction module.

    Attributes:
        ratio: down-sampling ratio (``n = max(1, N * ratio)``).
        k: neighbors grouped per sampled point.
        radius: ball-query radius of the exact searcher.
        mlp: shared-MLP output channels (input inferred).
    """

    ratio: float
    k: int
    radius: float
    mlp: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not self.mlp:
            raise ValueError("mlp must have at least one stage")


#: A compact PointNet++(s) configuration: 4 SA levels that each keep a
#: quarter of the points, as in the original semantic-segmentation net.
DEFAULT_SA_CONFIGS = (
    SAConfig(0.25, 16, 0.1, (16, 16, 32)),
    SAConfig(0.25, 16, 0.2, (32, 32, 64)),
    SAConfig(0.25, 16, 0.4, (64, 64, 128)),
    SAConfig(0.25, 16, 0.8, (128, 128, 256)),
)


def _record_matmuls(
    recorder: StageRecorder,
    layer: int,
    mlp_channels: Sequence[int],
    rows: int,
) -> None:
    """Price each Linear stage of a shared MLP for the cost model."""
    for c_in, c_out in zip(mlp_channels[:-1], mlp_channels[1:]):
        recorder.record(
            STAGE_FEATURE,
            "matmul",
            layer,
            rows=rows,
            c_in=c_in,
            c_out=c_out,
            flops=2.0 * rows * c_in * c_out,
        )


@dataclass
class _LevelState:
    """Forward-pass bookkeeping for one resolution level."""

    xyz: np.ndarray  # (B, N_l, 3)
    features: Tensor  # (B, N_l, C_l)
    sample_result: Optional[BatchedSampleResult] = None
    sampled_indices: Optional[np.ndarray] = None  # (B, n) into parent


class SetAbstraction(Module):
    """One SA module: sample -> neighbor search -> group -> MLP -> pool."""

    def __init__(
        self,
        layer_index: int,
        in_channels: int,
        config: SAConfig,
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.config = config
        self.edgepc = edgepc
        # +3 for the relative xyz channel prepended to grouped features.
        channels = (in_channels + 3,) + tuple(config.mlp)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        self.out_channels = channels[-1]
        self._morton_sampler = MortonSampler(edgepc.code_bits)
        self.workspace = workspace or Workspace()

    # Index computation (NumPy, outside autograd) -----------------------

    def _sample(
        self, xyz: np.ndarray, recorder: StageRecorder
    ) -> Tuple[np.ndarray, Optional[BatchedSampleResult]]:
        batch, n_points, _ = xyz.shape
        n_out = max(1, int(round(n_points * self.config.ratio)))
        if self.edgepc.uses_morton_sampling(self.layer_index):
            result: Optional[BatchedSampleResult] = (
                self._morton_sampler.sample_batch(xyz, n_out)
            )
            indices = result.indices
            recorder.record(
                STAGE_SAMPLE, "morton_gen", self.layer_index,
                n_points=n_points, batch=batch,
            )
            recorder.record(
                STAGE_SAMPLE, "morton_sort", self.layer_index,
                n_points=n_points, batch=batch,
            )
            recorder.record(
                STAGE_SAMPLE, "uniform_pick", self.layer_index,
                n_samples=n_out, batch=batch,
            )
        elif self.edgepc.exact_engine_for(n_points) == "fast":
            # Large-N exact path: pruning FPS, bit-identical picks.
            result = None
            stats = FastFpsStats()
            indices = farthest_point_sample_fast_batch(
                xyz, n_out, start_index=0, stats=stats
            )
            recorder.record(
                STAGE_SAMPLE, "fps_fast", self.layer_index,
                n_points=n_points, n_samples=n_out, batch=batch,
                points_scanned=stats.points_scanned / batch,
                blocks_applied=stats.block_updates_applied / batch,
                blocks_pruned=stats.block_updates_pruned / batch,
                worst_case=stats.worst_case / batch,
            )
        else:
            result = None
            indices = farthest_point_sample_batch(
                xyz, n_out, start_index=0
            )
            recorder.record(
                STAGE_SAMPLE, "fps", self.layer_index,
                n_points=n_points, n_samples=n_out, batch=batch,
            )
        return indices, result

    def _neighbors(
        self,
        xyz: np.ndarray,
        sampled: np.ndarray,
        sample_result: Optional[BatchedSampleResult],
        recorder: StageRecorder,
    ) -> np.ndarray:
        batch, n_points, _ = xyz.shape
        n_out = sampled.shape[1]
        k = self.config.k
        if self.edgepc.uses_morton_neighbors(self.layer_index):
            window = min(n_points, self.edgepc.window_for(k))
            searcher = MortonNeighborSearch(
                k, window, self.edgepc.code_bits, self.workspace
            )
            if sample_result is not None:
                # Reuse the sampler's Morton codes (Sec. 5.2.3).
                out = searcher.search_batch(
                    xyz, sampled, sample_result.order
                )
            else:
                out = searcher.search_batch(xyz, sampled)
                recorder.record(
                    STAGE_NEIGHBOR, "morton_gen", self.layer_index,
                    n_points=n_points, batch=batch,
                )
                recorder.record(
                    STAGE_NEIGHBOR, "morton_sort", self.layer_index,
                    n_points=n_points, batch=batch,
                )
            recorder.record(
                STAGE_NEIGHBOR, "morton_window", self.layer_index,
                n_queries=n_out, window=window, k=k, batch=batch,
            )
        elif self.edgepc.exact_engine_for(n_points) == "fast":
            # Large-N exact path: grid cell-list ball query, identical
            # output rows.
            centers = np.take_along_axis(
                xyz, sampled[:, :, None], axis=1
            )
            stats = GridQueryStats()
            out = ball_query_grid_batch(
                centers, xyz, self.config.radius, k,
                workspace=self.workspace, stats=stats,
            )
            recorder.record(
                STAGE_NEIGHBOR, "ball_query_grid", self.layer_index,
                n_queries=n_out, n_candidates=n_points, k=k, batch=batch,
                pairs_scanned=stats.pairs_scanned / batch,
                rounds=stats.rounds,
            )
        else:
            centers = np.take_along_axis(
                xyz, sampled[:, :, None], axis=1
            )
            out = ball_query_batch(
                centers, xyz, self.config.radius, k, self.workspace
            )
            recorder.record(
                STAGE_NEIGHBOR, "ball_query", self.layer_index,
                n_queries=n_out, n_candidates=n_points, k=k, batch=batch,
            )
        return out

    # Forward ------------------------------------------------------------

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        recorder: Optional[StageRecorder] = None,
    ) -> Tuple[np.ndarray, Tensor, _LevelState]:
        """Run the module.

        Args:
            xyz: ``(B, N, 3)`` input coordinates (data, not Tensor).
            features: ``(B, N, C)`` input features.
            recorder: optional stage recorder.

        Returns:
            ``(new_xyz, new_features, state)`` where ``state`` carries
            the sample results the matching FP module may reuse.
        """
        recorder = NullRecorder() if recorder is None else recorder
        sampled, sample_result = self._sample(xyz, recorder)
        neighbor_idx = self._neighbors(
            xyz, sampled, sample_result, recorder
        )
        if self.edgepc.sorted_grouping:
            # Sec. 5.4.2: row-sorting is a no-op for the max-pooled
            # aggregation but coalesces the gather's memory accesses.
            neighbor_idx = np.sort(neighbor_idx, axis=-1)
        batch, n_out, k = neighbor_idx.shape
        rel = relative_neighborhoods(xyz, sampled, neighbor_idx)
        grouped = group_points(features, neighbor_idx)
        recorder.record(
            STAGE_GROUPING, "gather", self.layer_index,
            n_groups=n_out, k=k,
            channels=features.shape[2] + 3, batch=batch,
            sorted=float(self.edgepc.sorted_grouping),
        )
        grouped = concatenate([Tensor(rel), grouped], axis=3)
        out = self.mlp(grouped)  # (B, n, k, C_out)
        _record_matmuls(
            recorder, self.layer_index, self.mlp_channels,
            rows=batch * n_out * k,
        )
        pooled = max_pool_neighbors(out)
        new_xyz = np.take_along_axis(xyz, sampled[:, :, None], axis=1)
        state = _LevelState(
            xyz=new_xyz,
            features=pooled,
            sample_result=sample_result,
            sampled_indices=sampled,
        )
        return new_xyz, pooled, state


class FeaturePropagation(Module):
    """One FP module: interpolate coarse features up, concat skip, MLP."""

    def __init__(
        self,
        layer_index: int,
        coarse_channels: int,
        skip_channels: int,
        mlp: Tuple[int, ...],
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.edgepc = edgepc
        channels = (coarse_channels + skip_channels,) + tuple(mlp)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng)
        self.out_channels = channels[-1]
        self._upsampler = MortonUpsampler()
        self.workspace = workspace or Workspace()

    def forward(
        self,
        fine_xyz: np.ndarray,
        fine_features: Tensor,
        coarse_features: Tensor,
        sa_state: _LevelState,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Propagate ``coarse_features`` onto the fine level.

        Args:
            fine_xyz: ``(B, N, 3)`` coordinates of the fine level.
            fine_features: ``(B, N, C_skip)`` skip features.
            coarse_features: ``(B, n, C_coarse)`` features to upsample.
            sa_state: the matching SA module's state (sampled
                coordinates and, if it ran the Morton sampler, the
                sample results).
        """
        recorder = NullRecorder() if recorder is None else recorder
        batch, n_fine, _ = fine_xyz.shape
        n_coarse = coarse_features.shape[1]
        use_morton = self.edgepc.uses_morton_upsampling(self.layer_index)
        result = sa_state.sample_result
        if use_morton and result is not None:
            anchors, weights = (
                self._upsampler.interpolation_weights_batch(
                    fine_xyz, result
                )
            )
            mixed = _interpolate(coarse_features, anchors, weights)
            # interpolation_weights rows follow sorted order; gather by
            # rank to restore the original order.
            upsampled = gather_points(mixed, result.order.ranks)
            recorder.record(
                STAGE_SAMPLE, "interp_morton", self.layer_index,
                n_points=n_fine, batch=batch,
            )
        else:
            stats = GridQueryStats()
            anchors, weights, engine = exact_interpolation_weights(
                fine_xyz,
                sa_state.xyz,
                engine=self.edgepc.exact_engine_for(n_fine),
                workspace=self.workspace,
                stats=stats,
            )
            upsampled = _interpolate(coarse_features, anchors, weights)
            if engine == "grid":
                recorder.record(
                    STAGE_SAMPLE, "interp_grid", self.layer_index,
                    n_queries=n_fine, n_candidates=n_coarse,
                    k=anchors.shape[2], batch=batch,
                    pairs_scanned=stats.pairs_scanned / batch,
                    rounds=stats.rounds,
                )
            else:
                recorder.record(
                    STAGE_SAMPLE, "interp_exact", self.layer_index,
                    n_points=n_fine, n_samples=n_coarse, batch=batch,
                )
        merged = concatenate([upsampled, fine_features], axis=2)
        out = self.mlp(merged)
        _record_matmuls(
            recorder,
            self.layer_index,
            self.mlp_channels,
            rows=batch * n_fine,
        )
        return out


def _interpolate(
    features: Tensor, anchors: np.ndarray, weights: np.ndarray
) -> Tensor:
    """Differentiable inverse-distance mix: ``(B, n, C)`` features,
    ``(B, N, A)`` anchor rows and weights to ``(B, N, C)``."""
    picked = group_points(features, anchors)  # (B, N, A, C)
    return (picked * Tensor(weights[:, :, :, None])).sum(axis=2)


class PointNet2Segmentation(Module):
    """PointNet++(s): hierarchical encoder + FP decoder + per-point head.

    Args:
        num_classes: per-point label count.
        in_channels: input feature channels (0 for xyz-only input, in
            which case a constant 1-channel feature is synthesized).
        sa_configs: per-level hyper-parameters.
        edgepc: the approximation configuration.
    """

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 0,
        sa_configs: Sequence[SAConfig] = DEFAULT_SA_CONFIGS,
        edgepc: Optional[EdgePCConfig] = None,
        head_hidden: int = 32,
        dropout: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.sa_configs = tuple(sa_configs)
        self.sa_modules: List[SetAbstraction] = []
        self.workspace = Workspace(self.edgepc.workspace_scratch_bytes)
        channels = max(in_channels, 1)
        skip_channels = [channels]
        for i, cfg in enumerate(self.sa_configs):
            module = SetAbstraction(
                i, channels, cfg, self.edgepc, rng, self.workspace
            )
            setattr(self, f"sa{i}", module)
            self.sa_modules.append(module)
            channels = module.out_channels
            skip_channels.append(channels)
        self.fp_modules: List[FeaturePropagation] = []
        num_levels = len(self.sa_configs)
        for j in range(num_levels):
            coarse = skip_channels[num_levels - j]
            skip = skip_channels[num_levels - j - 1]
            out = max(skip_channels[num_levels - j - 1], 32)
            module = FeaturePropagation(
                j, coarse, skip, (out, out), self.edgepc, rng,
                self.workspace,
            )
            setattr(self, f"fp{j}", module)
            self.fp_modules.append(module)
            skip_channels[num_levels - j - 1] = module.out_channels
        head_in = self.fp_modules[-1].out_channels
        self.head_hidden = Linear(head_in, head_hidden, rng=rng)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        features: Optional[Tensor] = None,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-point logits ``(B, N, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        if features is None:
            if self.in_channels not in (0, 1):
                raise ValueError(
                    "model expects input features but none were given"
                )
            features = Tensor(np.ones(xyz.shape[:2] + (1,)))
        levels: List[_LevelState] = [
            _LevelState(xyz=xyz, features=features)
        ]
        for module in self.sa_modules:
            new_xyz, new_features, state = module(
                levels[-1].xyz, levels[-1].features, recorder
            )
            levels.append(state)
        coarse = levels[-1].features
        num_levels = len(self.sa_modules)
        for j, module in enumerate(self.fp_modules):
            fine_state = levels[num_levels - j - 1]
            sa_state = levels[num_levels - j]
            coarse = module(
                fine_state.xyz,
                fine_state.features,
                coarse,
                sa_state,
                recorder,
            )
        hidden = self.head_hidden(coarse).relu()
        hidden = self.head_dropout(hidden)
        logits = self.head_out(hidden)
        _record_matmuls(
            recorder,
            len(self.sa_modules) + len(self.fp_modules),
            (
                self.head_hidden.in_features,
                self.head_hidden.out_features,
                self.num_classes,
            ),
            rows=xyz.shape[0] * xyz.shape[1],
        )
        return logits


class PointNet2Classifier(Module):
    """PointNet++ classification variant: SA stack + global pool + MLP."""

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 0,
        sa_configs: Sequence[SAConfig] = DEFAULT_SA_CONFIGS[:3],
        edgepc: Optional[EdgePCConfig] = None,
        head_hidden: int = 64,
        dropout: float = 0.4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.sa_modules: List[SetAbstraction] = []
        self.workspace = Workspace(self.edgepc.workspace_scratch_bytes)
        channels = max(in_channels, 1)
        for i, cfg in enumerate(sa_configs):
            module = SetAbstraction(
                i, channels, cfg, self.edgepc, rng, self.workspace
            )
            setattr(self, f"sa{i}", module)
            self.sa_modules.append(module)
            channels = module.out_channels
        self.head_hidden = Linear(channels, head_hidden, rng=rng)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        features: Optional[Tensor] = None,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-cloud logits ``(B, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        recorder = NullRecorder() if recorder is None else recorder
        if features is None:
            features = Tensor(np.ones(xyz.shape[:2] + (1,)))
        current_xyz, current = xyz, features
        for module in self.sa_modules:
            current_xyz, current, _ = module(
                current_xyz, current, recorder
            )
        pooled = current.max(axis=1)  # (B, C)
        hidden = self.head_hidden(pooled).relu()
        hidden = self.head_dropout(hidden)
        logits = self.head_out(hidden)
        _record_matmuls(
            recorder,
            len(self.sa_modules),
            (
                self.head_hidden.in_features,
                self.head_hidden.out_features,
                self.num_classes,
            ),
            rows=xyz.shape[0],
        )
        return logits
