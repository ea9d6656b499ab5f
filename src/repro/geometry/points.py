"""The :class:`PointCloud` container used throughout the library.

A point cloud is an unordered set of 3-D points, optionally carrying
per-point features (RGB, normals, ...) and per-point labels (semantic or
part labels).  The container is intentionally a thin, validated wrapper
around NumPy arrays: every algorithm in the library operates on the raw
arrays, and the container only guarantees that their shapes stay
consistent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.bbox import BoundingBox


class PointCloud:
    """An immutable-by-convention set of ``N`` points with attributes.

    Attributes:
        xyz: ``(N, 3)`` float64 coordinates.
        features: optional ``(N, C)`` float per-point features.
        labels: optional ``(N,)`` integer per-point labels.
    """

    __slots__ = ("xyz", "features", "labels")

    def __init__(
        self,
        xyz: np.ndarray,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        if not np.all(np.isfinite(xyz)):
            raise ValueError("xyz contains non-finite coordinates")
        n = xyz.shape[0]
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != n:
                raise ValueError(
                    f"features must be (N, C) with N={n}, got {features.shape}"
                )
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise ValueError(
                    f"labels must be (N,) with N={n}, got {labels.shape}"
                )
            labels = labels.astype(np.int64)
        self.xyz = xyz
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def __repr__(self) -> str:
        parts = [f"PointCloud(n={len(self)}"]
        if self.features is not None:
            parts.append(f", features={self.features.shape[1]}d")
        if self.labels is not None:
            parts.append(", labelled")
        return "".join(parts) + ")"

    @property
    def num_feature_channels(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.of_points(self.xyz)

    def select(self, indices: np.ndarray) -> "PointCloud":
        """Return a new cloud with the points at ``indices`` (in order)."""
        indices = np.asarray(indices)
        return PointCloud(
            self.xyz[indices],
            None if self.features is None else self.features[indices],
            None if self.labels is None else self.labels[indices],
        )

    def permuted(self, permutation: np.ndarray) -> "PointCloud":
        """Reorder the cloud by a full permutation of its indices."""
        permutation = np.asarray(permutation)
        if sorted(permutation.tolist()) != list(range(len(self))):
            raise ValueError("not a permutation of the point indices")
        return self.select(permutation)

    def concatenated_with(self, other: "PointCloud") -> "PointCloud":
        """Concatenate two clouds; attributes must match in presence."""
        if (self.features is None) != (other.features is None):
            raise ValueError("cannot concatenate: feature presence differs")
        if (self.labels is None) != (other.labels is None):
            raise ValueError("cannot concatenate: label presence differs")
        features = None
        if self.features is not None:
            if self.features.shape[1] != other.features.shape[1]:
                raise ValueError("feature channel counts differ")
            features = np.concatenate([self.features, other.features])
        labels = None
        if self.labels is not None:
            labels = np.concatenate([self.labels, other.labels])
        return PointCloud(
            np.concatenate([self.xyz, other.xyz]), features, labels
        )

    def copy(self) -> "PointCloud":
        return PointCloud(
            self.xyz.copy(),
            None if self.features is None else self.features.copy(),
            None if self.labels is None else self.labels.copy(),
        )
