"""DGCNN (Wang et al.) over the NumPy substrate.

Architecture per the paper's Fig. 2b: a chain of EdgeConv (EC) modules.
Each EC finds k nearest neighbors — the *first* module in coordinate
space, later modules in *feature* space — builds edge features
``[x_i, x_j - x_i]``, applies a shared MLP, and max-pools over
neighbors.  The point count never changes, so DGCNN has no sampling
stage (paper Sec. 3.1).

EdgePC integration (Sec. 5.2.3):

- EC module 0 queries in 3-D coordinate space, so its kNN can be
  replaced by the Morton index-window search.
- Later modules measure distance between high-dimensional features,
  which Morton codes cannot index; EdgePC instead interleaves *reuse*
  of the previous module's neighbor indices with exact recomputation,
  governed by :class:`~repro.core.reuse.NeighborReusePolicy`.

Inference form (Sec. 5.4's shifted bottleneck): with sampling and
neighbor search cheap, the per-edge MLP over ``(B, N, k, 2C)`` edge
tensors dominates measured time.  :meth:`EdgeConv.forward` therefore
runs a delayed-aggregation kernel (Mesorasi-style, Feng et al. MICRO
2020) whenever it is exact — see :meth:`EdgeConv.uses_inference_form`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.reuse import NeighborCache
from repro.core.workspace import Workspace
from repro.neighbors.batched import exact_knn
# Bound but not called here: perfbench/layers.py wraps these two names
# in this module's namespace for its traced per-layer run.
from repro.neighbors.batched import knn_batch, knn_grid_batch  # noqa: F401
from repro.neighbors.grid import GridQueryStats
from repro.nn.autograd import Tensor, concatenate, is_grad_enabled
from repro.nn.functional import edge_features, max_pool_neighbors
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    fold_batch_norm,
    shared_mlp,
)
from repro.nn.recorder import (
    STAGE_FEATURE,
    STAGE_GROUPING,
    STAGE_NEIGHBOR,
    NullRecorder,
    StageRecorder,
)


class EdgeConv(Module):
    """One EdgeConv module: kNN graph -> edge features -> MLP -> max."""

    def __init__(
        self,
        layer_index: int,
        in_channels: int,
        out_channels: Tuple[int, ...],
        k: int,
        edgepc: EdgePCConfig,
        rng: Optional[np.random.Generator] = None,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be positive")
        self.layer_index = layer_index
        self.k = k
        self.edgepc = edgepc
        channels = (2 * in_channels,) + tuple(out_channels)
        self.mlp_channels = channels
        self.mlp = shared_mlp(channels, rng=rng, activation="leaky_relu")
        self.out_channels = channels[-1]
        self.workspace = workspace or Workspace()

    def _graph(
        self,
        xyz: np.ndarray,
        features: Tensor,
        cache: NeighborCache,
        recorder: StageRecorder,
    ) -> np.ndarray:
        """Compute or reuse the ``(B, N, k)`` neighbor graph."""
        batch, n_points = features.shape[0], features.shape[1]
        policy = self.edgepc.reuse_policy()
        if self.layer_index > 0 and policy.should_reuse(self.layer_index):
            if not cache.is_empty:
                recorder.record(
                    STAGE_NEIGHBOR, "reuse", self.layer_index,
                    n_queries=n_points, k=self.k, batch=batch,
                )
                return cache.load()
        if (
            self.layer_index == 0
            and self.edgepc.uses_morton_neighbors(0)
        ):
            window = min(n_points, self.edgepc.window_for(self.k))
            searcher = MortonNeighborSearch(
                self.k, window, self.edgepc.code_bits, self.workspace
            )
            out = searcher.search_batch(xyz)
            recorder.record(
                STAGE_NEIGHBOR, "morton_gen", 0,
                n_points=n_points, batch=batch,
            )
            recorder.record(
                STAGE_NEIGHBOR, "morton_sort", 0,
                n_points=n_points, batch=batch,
            )
            recorder.record(
                STAGE_NEIGHBOR, "morton_window", 0,
                n_queries=n_points, window=window, k=self.k, batch=batch,
            )
        else:
            space = (
                xyz
                if self.layer_index == 0
                else features.data
            )
            dim = space.shape[2]
            # The seam serves xyz graphs from the grid engine at large
            # N; feature-space graphs (dim > 3) always run brute.
            stats = GridQueryStats()
            out, _, engine = exact_knn(
                space, space, self.k,
                self.edgepc.exact_engine_for(n_points),
                self.workspace, stats,
            )
            if engine == "grid":
                recorder.record(
                    STAGE_NEIGHBOR, "knn_grid", self.layer_index,
                    n_queries=n_points, n_candidates=n_points,
                    k=self.k, dim=dim, batch=batch,
                    pairs_scanned=stats.pairs_scanned / batch,
                    rounds=stats.rounds,
                )
            else:
                recorder.record(
                    STAGE_NEIGHBOR, "knn", self.layer_index,
                    n_queries=n_points, n_candidates=n_points,
                    k=self.k, dim=dim, batch=batch,
                )
        cache.store(out)
        return out

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        cache: NeighborCache,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        recorder = NullRecorder() if recorder is None else recorder
        neighbor_idx = self._graph(xyz, features, cache, recorder)
        if self.edgepc.sorted_grouping:
            # Sec. 5.4.2: order within a neighborhood is irrelevant to
            # the max-pooled edge aggregation.
            neighbor_idx = np.sort(neighbor_idx, axis=-1)
        batch, n_points, k = neighbor_idx.shape
        if self.uses_inference_form():
            out = self.delayed_aggregation(features.data, neighbor_idx)
        else:
            out = max_pool_neighbors(
                self.mlp(edge_features(features, neighbor_idx))
            )
        # Both forms record the per-edge kernels: the cost model prices
        # the paper's GPU implementation, not this host's NumPy one.
        recorder.record(
            STAGE_GROUPING, "gather", self.layer_index,
            n_groups=n_points, k=k,
            channels=2 * features.shape[2], batch=batch,
            sorted=float(self.edgepc.sorted_grouping),
        )
        for c_in, c_out in zip(
            self.mlp_channels[:-1], self.mlp_channels[1:]
        ):
            recorder.record(
                STAGE_FEATURE, "matmul", self.layer_index,
                rows=batch * n_points * k,
                c_in=c_in, c_out=c_out,
                flops=2.0 * batch * n_points * k * c_in * c_out,
            )
        return out

    def uses_inference_form(self) -> bool:
        """Whether :meth:`forward` takes the delayed-aggregation kernel.

        All three must hold: eval mode (BatchNorm uses its running
        statistics), gradients disabled (no tape to build), and a
        single ``Linear -> BatchNorm -> LeakyReLU`` MLP stage with a
        non-negative slope, so the activation is non-decreasing and
        commutes with the neighbor max.  Otherwise the per-edge path
        runs — training, grad-enabled eval and multi-stage MLPs.
        """
        layers = self.mlp.layers
        return (
            not self.training
            and not is_grad_enabled()
            and len(layers) == 3
            and isinstance(layers[0], Linear)
            and isinstance(layers[1], BatchNorm)
            and isinstance(layers[2], LeakyReLU)
            and layers[2].negative_slope >= 0
        )

    def delayed_aggregation(
        self, x: np.ndarray, neighbor_idx: np.ndarray
    ) -> Tensor:
        """``leaky_relu(max_j P_j + Q_i)`` without any edge tensor.

        With ``W = [W_c; W_d]`` split into the rows for ``x_i`` and for
        ``x_j - x_i`` and the eval BatchNorm scale
        ``s = gamma / sqrt(var + eps)``, the pre-activation of edge
        ``(i, j)`` is ``P_j + Q_i`` where ``P = x (W_d s)`` and
        ``Q = x ((W_c - W_d) s) + (b - mean) s + beta``.  ``Q_i`` is
        constant over the neighborhood and LeakyReLU is non-decreasing,
        so the max moves inside: exact up to float reassociation for
        any sign of ``gamma``.  The max is ``k`` in-place folds of
        ``(B*N, C')`` gathers, so memory stays ``O(N C')``.
        """
        linear, bn, act = self.mlp.layers
        batch, n_points, channels = x.shape
        k = neighbor_idx.shape[2]
        weight, shift = fold_batch_norm(linear, bn)
        w_center, w_diff = weight[:channels], weight[channels:]
        rows = x.reshape(batch * n_points, channels)
        neighbor_term = rows @ w_diff
        center_term = rows @ (w_center - w_diff) + shift
        # Release the folded weights before the k-way max peaks.
        del weight, w_center, w_diff
        # Flat row ids, one contiguous (B*N,) column per neighbor slot.
        offsets = np.arange(batch)[:, None, None] * n_points
        flat = (neighbor_idx + offsets).reshape(-1, k).T.copy()
        best = neighbor_term[flat[0]]
        gathered = np.empty_like(best)
        for j in range(1, k):
            np.take(neighbor_term, flat[j], axis=0, out=gathered)
            np.maximum(best, gathered, out=best)
        best += center_term
        return act(Tensor(best.reshape(batch, n_points, -1)))


class _DGCNNBackbone(Module):
    """The shared EC chain + per-point concat used by every variant."""

    def __init__(
        self,
        in_channels: int,
        ec_channels: Sequence[Tuple[int, ...]],
        k: int,
        edgepc: EdgePCConfig,
        rng: np.random.Generator,
        workspace: Optional[Workspace] = None,
    ) -> None:
        super().__init__()
        self.ec_modules: List[EdgeConv] = []
        workspace = workspace or Workspace()
        channels = in_channels
        for i, out_channels in enumerate(ec_channels):
            module = EdgeConv(
                i, channels, out_channels, k, edgepc, rng, workspace
            )
            setattr(self, f"ec{i}", module)
            self.ec_modules.append(module)
            channels = module.out_channels
        self.concat_channels = sum(m.out_channels for m in self.ec_modules)

    def forward(
        self,
        xyz: np.ndarray,
        features: Tensor,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        cache = NeighborCache()
        outputs: List[Tensor] = []
        current = features
        for module in self.ec_modules:
            current = module(xyz, current, cache, recorder)
            outputs.append(current)
        return concatenate(outputs, axis=2)  # (B, N, sum C)


class DGCNNClassifier(Module):
    """DGCNN(c): EC chain -> global max pool -> MLP head."""

    def __init__(
        self,
        num_classes: int,
        k: int = 16,
        ec_channels: Sequence[Tuple[int, ...]] = ((32,), (32,), (64,)),
        emb_channels: int = 128,
        head_hidden: int = 64,
        dropout: float = 0.4,
        edgepc: Optional[EdgePCConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.workspace = Workspace(self.edgepc.workspace_scratch_bytes)
        self.backbone = _DGCNNBackbone(
            3, ec_channels, k, self.edgepc, rng, self.workspace
        )
        self.embedding = Linear(
            self.backbone.concat_channels, emb_channels, rng=rng
        )
        self.head_hidden = Linear(emb_channels, head_hidden, rng=rng)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-cloud logits ``(B, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        features = Tensor(xyz)
        per_point = self.backbone(xyz, features, recorder)
        embedded = self.embedding(per_point).leaky_relu(0.2)
        recorder.record(
            STAGE_FEATURE, "matmul", len(self.backbone.ec_modules),
            rows=xyz.shape[0] * xyz.shape[1],
            c_in=self.embedding.in_features,
            c_out=self.embedding.out_features,
            flops=2.0 * xyz.shape[0] * xyz.shape[1]
            * self.embedding.in_features * self.embedding.out_features,
        )
        pooled = embedded.max(axis=1)
        hidden = self.head_hidden(pooled).leaky_relu(0.2)
        hidden = self.head_dropout(hidden)
        return self.head_out(hidden)


class DGCNNSegmentation(Module):
    """DGCNN(s) / DGCNN(p): EC chain -> global context -> per-point head.

    The part-segmentation and semantic-segmentation variants share this
    structure; they differ only in dataset and class count.
    """

    def __init__(
        self,
        num_classes: int,
        k: int = 16,
        ec_channels: Sequence[Tuple[int, ...]] = ((32,), (32,), (64,)),
        emb_channels: int = 128,
        head_hidden: int = 64,
        dropout: float = 0.4,
        edgepc: Optional[EdgePCConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.edgepc = edgepc or EdgePCConfig.baseline()
        self.num_classes = num_classes
        self.workspace = Workspace(self.edgepc.workspace_scratch_bytes)
        self.backbone = _DGCNNBackbone(
            3, ec_channels, k, self.edgepc, rng, self.workspace
        )
        self.embedding = Linear(
            self.backbone.concat_channels, emb_channels, rng=rng
        )
        head_in = self.backbone.concat_channels + emb_channels
        self.head_hidden = Linear(head_in, head_hidden, rng=rng)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(head_hidden, num_classes, rng=rng)

    def forward(
        self,
        xyz: np.ndarray,
        recorder: Optional[StageRecorder] = None,
    ) -> Tensor:
        """Per-point logits ``(B, N, num_classes)``."""
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 3 or xyz.shape[2] != 3:
            raise ValueError(f"xyz must be (B, N, 3), got {xyz.shape}")
        recorder = NullRecorder() if recorder is None else recorder
        n_points = xyz.shape[1]
        features = Tensor(xyz)
        per_point = self.backbone(xyz, features, recorder)
        embedded = self.embedding(per_point).leaky_relu(0.2)
        recorder.record(
            STAGE_FEATURE, "matmul", len(self.backbone.ec_modules),
            rows=xyz.shape[0] * n_points,
            c_in=self.embedding.in_features,
            c_out=self.embedding.out_features,
            flops=2.0 * xyz.shape[0] * n_points
            * self.embedding.in_features * self.embedding.out_features,
        )
        global_context = embedded.max(axis=1, keepdims=True)
        tiled = global_context.broadcast_to(
            (xyz.shape[0], n_points, global_context.shape[2])
        )
        merged = concatenate([per_point, tiled], axis=2)
        hidden = self.head_hidden(merged).leaky_relu(0.2)
        hidden = self.head_dropout(hidden)
        return self.head_out(hidden)
