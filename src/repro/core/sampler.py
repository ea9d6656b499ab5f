"""EdgePC's Morton-code-based sampler (paper Sec. 5.1, Algorithm 1).

Down-sampling replaces FPS with three steps: Morton code generation
(``O(N)``, fully parallel), a sort (``O(N log N)``), and a uniform
stride pick over the sorted order (``O(n)``, fully parallel).  The
up-sampler replaces the interpolation stage's nearest-sampled-point
search (``O(n)`` per point) with a constant-size candidate set derived
from stride arithmetic: the 4 sampled points at strides ``-2, -1, +1,
+2`` around a point's own stride block.  The exact interpolation it
replaces (:func:`exact_interpolation_weights`) searches the whole
sampled set through the exact-kNN seam
:func:`repro.neighbors.batched.exact_knn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core import morton
from repro.core.batched import (
    BatchedMortonOrder,
    BatchedSampleResult,
    sample_batch,
)
from repro.core.structurize import MortonOrder, structurize
from repro.core.workspace import Workspace
from repro.geometry.bbox import BoundingBox
from repro.neighbors.batched import exact_knn
from repro.neighbors.grid import GridQueryStats
from repro.robustness.validate import ensure_finite
from repro.sampling.uniform import uniform_stride_indices


@dataclass(frozen=True)
class MortonSampleResult:
    """Output of the Morton sampler.

    Attributes:
        indices: ``(n,)`` original-point indices of the samples.
        order: the :class:`MortonOrder` built (reusable by the neighbor
            searcher on the same layer at zero extra cost, Sec. 5.2.3).
        sampled_ranks: ``(n,)`` sorted-order ranks that were picked.
    """

    indices: np.ndarray
    order: MortonOrder
    sampled_ranks: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


class MortonSampler:
    """Approximate down-sampler: uniform stride over the Morton order.

    Args:
        code_bits: Morton code width ``a`` (default 32, Sec. 5.1.3).
        bounding_box: optional fixed quantization domain shared across
            frames; defaults to each cloud's tight box.
    """

    def __init__(
        self,
        code_bits: int = morton.DEFAULT_CODE_BITS,
        bounding_box: Optional[BoundingBox] = None,
    ) -> None:
        morton.bits_per_axis(code_bits)  # validate early
        self.code_bits = code_bits
        self.bounding_box = bounding_box

    def sample(
        self,
        points: np.ndarray,
        num_samples: int,
        order: Optional[MortonOrder] = None,
    ) -> MortonSampleResult:
        """Sample ``num_samples`` of ``(N, 3)`` points (Algorithm 1).

        Pass a precomputed ``order`` to skip code generation + sort when
        the cloud was already structurized (e.g. by an earlier layer).
        """
        points = np.asarray(points, dtype=np.float64)
        if order is None:
            order = structurize(
                points, self.code_bits, self.bounding_box
            )
        elif len(order) != points.shape[0]:
            raise ValueError("Morton order does not match the point count")
        else:
            # structurize() validates its own input; a precomputed
            # order bypasses it, so check here.
            ensure_finite(points, "sample")
        ranks = uniform_stride_indices(len(order), num_samples)
        return MortonSampleResult(
            indices=order.original_index_of(ranks),
            order=order,
            sampled_ranks=ranks,
        )

    def sample_batch(
        self,
        points: np.ndarray,
        num_samples: int,
        order: Optional[BatchedMortonOrder] = None,
    ) -> BatchedSampleResult:
        """Batched :meth:`sample`: Algorithm 1 over a ``(B, N, 3)``
        batch in single NumPy dispatches, bit-identical to looping
        :meth:`sample` per cloud."""
        return sample_batch(
            points,
            num_samples,
            self.code_bits,
            self.bounding_box,
            order,
        )


class MortonUpsampler:
    """Approximate interpolation for FP modules (paper 'Optimizing
    Up-sampling').

    Given a cloud of ``N`` points down-sampled by the Morton sampler to
    ``n`` points at stride ``step = N / n``, the 3 interpolation anchors
    of point ``j`` (sorted rank) are chosen among the 4 samples at ranks
    ``j' - 2*step, j' - step, j' + step, j' + 2*step`` with
    ``j' = j - j % step``, instead of searched over all ``n`` samples.
    """

    def __init__(self, num_candidates: int = 4, num_anchors: int = 3):
        if num_anchors > num_candidates:
            raise ValueError("cannot pick more anchors than candidates")
        if num_anchors < 1:
            raise ValueError("need at least one anchor")
        self.num_candidates = num_candidates
        self.num_anchors = num_anchors

    def candidate_sample_slots(
        self,
        num_points: int,
        sample_result: MortonSampleResult | BatchedSampleResult,
    ) -> np.ndarray:
        """``(N, num_candidates)`` int64 sample slots per sorted rank.

        Slot ``s`` means "the s-th sampled point" (row into the sampled
        feature matrix).  Out-of-range candidates are clamped to the
        valid slot range, mirroring the edge handling of the reference
        implementation (the first/last stride blocks see their nearest
        in-range samples instead).
        """
        num_samples = len(sample_result)
        if num_samples < 1:
            raise ValueError("sample result is empty")
        step = num_points / num_samples
        ranks = np.arange(num_points, dtype=np.float64)
        block = np.floor(ranks / step)  # j' / step, the owning slot
        half = self.num_candidates // 2
        offsets = np.array(
            [o for o in range(-half, half + 1) if o != 0][
                : self.num_candidates
            ],
            dtype=np.float64,
        )
        slots = block[:, None] + offsets[None, :]
        return np.clip(slots, 0, num_samples - 1).astype(np.int64)

    def interpolation_weights(
        self,
        points: np.ndarray,
        sample_result: MortonSampleResult,
    ) -> tuple:
        """Anchors and inverse-distance weights for feature propagation.

        Returns:
            ``(anchor_slots, weights)`` where ``anchor_slots`` is
            ``(N, num_anchors)`` rows into the sampled set and
            ``weights`` is the matching ``(N, num_anchors)`` convex
            weights (inverse-distance, as in PointNet++ FP).

        Rows follow the *sorted* order of ``points``; use
        ``sample_result.order`` to map back if original order is needed.
        """
        points = np.asarray(points, dtype=np.float64)
        order = sample_result.order
        n_points = points.shape[0]
        if len(order) != n_points:
            raise ValueError("order does not match point count")
        slots = self.candidate_sample_slots(n_points, sample_result)
        sorted_points = order.sorted_points(points)
        sampled_xyz = points[sample_result.indices]  # (n, 3) slot order
        candidates = sampled_xyz[slots]  # (N, C, 3)
        d2 = np.sum(
            (candidates - sorted_points[:, None, :]) ** 2, axis=2
        )
        pick = np.argsort(d2, axis=1, kind="stable")[:, : self.num_anchors]
        rows = np.arange(n_points)[:, None]
        anchor_slots = slots[rows, pick]
        return anchor_slots, inverse_distance_weights(d2[rows, pick])

    def interpolation_weights_batch(
        self,
        points: np.ndarray,
        sample_result: BatchedSampleResult,
    ) -> tuple:
        """Batched :meth:`interpolation_weights` over ``(B, N, 3)``.

        Returns:
            ``(anchor_slots, weights)`` of shape
            ``(B, N, num_anchors)``, bit-identical to looping
            :meth:`interpolation_weights` per cloud.  Rows follow each
            cloud's *sorted* order, as in the per-cloud method.
        """
        points = np.asarray(points, dtype=np.float64)
        order = sample_result.order
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(
                f"expected (B, N, 3) points, got {points.shape}"
            )
        if (
            order.num_clouds != points.shape[0]
            or len(order) != points.shape[1]
        ):
            raise ValueError("order does not match point count")
        n_points = points.shape[1]
        slots = self.candidate_sample_slots(n_points, sample_result)
        sorted_points = order.sorted_points(points)
        sampled_xyz = np.take_along_axis(
            points, sample_result.indices[:, :, None], axis=1
        )
        candidates = sampled_xyz[:, slots]  # (B, N, C, 3)
        d2 = np.sum(
            (candidates - sorted_points[:, :, None, :]) ** 2, axis=3
        )
        pick = np.argsort(d2, axis=2, kind="stable")
        pick = pick[:, :, : self.num_anchors]
        anchor_slots = np.take_along_axis(
            np.broadcast_to(slots, d2.shape), pick, axis=2
        )
        anchor_d2 = np.take_along_axis(d2, pick, axis=2)
        return anchor_slots, inverse_distance_weights(anchor_d2)

    def interpolate(
        self,
        points: np.ndarray,
        sample_result: MortonSampleResult,
        sampled_features: np.ndarray,
    ) -> np.ndarray:
        """Propagate ``(n, C)`` sampled features back to ``(N, C)``.

        Output rows are float64, in the *original* point order.
        """
        sampled_features = np.asarray(sampled_features, dtype=np.float64)
        if sampled_features.shape[0] != len(sample_result):
            raise ValueError("feature rows must match the sample count")
        anchor_slots, weights = self.interpolation_weights(
            points, sample_result
        )
        gathered = sampled_features[anchor_slots]  # (N, A, C)
        sorted_out = np.einsum("nac,na->nc", gathered, weights)
        out = np.empty_like(sorted_out)
        out[sample_result.order.permutation] = sorted_out
        return out


def inverse_distance_weights(anchor_d2: np.ndarray) -> np.ndarray:
    """PointNet++ FP weights from anchor squared distances.

    Args:
        anchor_d2: ``(..., A)`` float64 squared distances of each
            point's ``A`` anchors.

    Returns:
        ``(..., A)`` float64 convex weights proportional to
        ``1 / max(d2, 1e-10)`` (the floor keeps a coincident anchor
        finite; it then takes nearly all the weight).
    """
    inv = 1.0 / np.maximum(anchor_d2, 1e-10)
    return inv / inv.sum(axis=-1, keepdims=True)


def exact_interpolation_weights(
    points: np.ndarray,
    sampled_xyz: np.ndarray,
    num_anchors: int = 3,
    engine: str = "brute",
    workspace: Optional[Workspace] = None,
    stats: Optional[GridQueryStats] = None,
) -> Tuple[np.ndarray, np.ndarray, str]:
    """Anchors and weights of the SOTA interpolation: 3-NN over the
    full sampled set, batched.

    The exact counterpart of
    :meth:`MortonUpsampler.interpolation_weights_batch`.  The search
    runs through :func:`repro.neighbors.batched.exact_knn`, so no
    ``(B, N, n)`` distance matrix is built: the brute engine tiles the
    query axis to the workspace budget, the grid engine probes cell
    rings.

    Args:
        points: ``(B, N, 3)`` points to interpolate onto.
        sampled_xyz: ``(B, n, 3)`` sampled points carrying features.
        num_anchors: anchors per point (capped at ``n``).
        engine: ``"brute"`` or ``"fast"``, normally
            ``config.exact_engine_for(N)``.
        workspace: scratch pool for the search.
        stats: grid scan accounting, filled when the grid serves.

    Returns:
        ``(anchors, weights, engine)``: ``(B, N, A)`` int64 rows into
        the sampled set in canonical ``(distance, index)`` order, the
        matching ``(B, N, A)`` float64 inverse-distance weights, and
        the engine that served (``"brute"`` or ``"grid"``).
    """
    k = min(num_anchors, sampled_xyz.shape[1])
    knn = exact_knn(points, sampled_xyz, k, engine, workspace, stats)
    return knn.indices, inverse_distance_weights(knn.d2), knn.engine


def exact_interpolate(
    points: np.ndarray,
    sampled_indices: np.ndarray,
    sampled_features: np.ndarray,
    num_anchors: int = 3,
) -> np.ndarray:
    """The SOTA interpolation: 3-NN over the full sampled set.

    Baseline counterpart of :meth:`MortonUpsampler.interpolate`: a
    ``B=1`` wrapper over :func:`exact_interpolation_weights` on the
    brute engine, used by tests as the exactness oracle.  Returns an
    ``(N, C)`` float64 feature array in original point order.
    """
    points = np.asarray(points, dtype=np.float64)
    sampled_features = np.asarray(sampled_features, dtype=np.float64)
    sampled_xyz = points[np.asarray(sampled_indices)]
    anchors, weights, _ = exact_interpolation_weights(
        points[None], sampled_xyz[None], num_anchors
    )
    return np.einsum(
        "nac,na->nc", sampled_features[anchors[0]], weights[0]
    )
