"""Exact neighbor-search baselines and quality metrics."""

from repro.neighbors.batched import (
    ExactKnn,
    ball_query_batch,
    ball_query_grid_batch,
    exact_knn,
    knn_batch,
    knn_grid_batch,
)
from repro.neighbors.brute import ball_query, knn, pairwise_operation_count
from repro.neighbors.grid import (
    GridQueryStats,
    UniformGridIndex,
    canonical_top_k,
    suggest_cell_size,
)
from repro.neighbors.kdtree import KDTree
from repro.neighbors.zorder_ann import ZOrderApproxNN
from repro.neighbors.metrics import (
    false_neighbor_ratio,
    mean_neighbor_distance,
    recall,
)

__all__ = [
    "ExactKnn",
    "exact_knn",
    "ball_query",
    "ball_query_batch",
    "ball_query_grid_batch",
    "knn",
    "knn_batch",
    "knn_grid_batch",
    "pairwise_operation_count",
    "canonical_top_k",
    "suggest_cell_size",
    "GridQueryStats",
    "KDTree",
    "UniformGridIndex",
    "ZOrderApproxNN",
    "false_neighbor_ratio",
    "recall",
    "mean_neighbor_distance",
]
