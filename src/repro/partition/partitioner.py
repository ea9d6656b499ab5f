"""Scene partitioning: Morton-contiguous chunks with halo regions.

The scatter side of the scene-scale pipeline.  A global Morton sort
(:func:`repro.core.structurize.structurize`) lays the scene out along
a space-filling curve; contiguous rank ranges are then spatially
compact by construction, so splitting the sorted permutation into
near-equal ranges yields compact chunks.  Each chunk is augmented
with a **halo**: the scene is voxelized at ``halo_width`` cell pitch
and every point whose cell is within one cell (Chebyshev) of a
core-occupied cell joins the chunk as context.  Cell adjacency covers
every point within ``halo_width`` of *some* core point (a grid
dilation, not an AABB blow-up — a chunk straddling a curve jump pulls
in only the surroundings of its occupied regions), so with a halo
width at or above the model's receptive field (the summed ball-query
radii of its SA stack, :func:`halo_width_for`), every neighborhood a
core point's features depend on is fully contained in the chunk.

Chunks are finally padded to one uniform size with the Morton-rank
nearest points not already included, so a plan stacks directly into
the rectangular ``(B, S, 3)`` batches the rest of the library prices
and serves.  Core indices always come first in a chunk's point list —
the stitch step only ever reads back the first ``num_core`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core import morton
from repro.core.structurize import structurize


def halo_width_for(sa_configs: Iterable) -> float:
    """Receptive-field bound of an SA stack: the summed query radii.

    Each set-abstraction layer gathers features from a ball of its
    ``radius`` around every centroid, so after ``L`` layers a point's
    features depend on scene geometry at most ``sum(radii)`` away.  A
    halo at least this wide makes chunked inference see exactly the
    neighborhoods the monolithic run sees for every core point.
    """
    radii = [float(cfg.radius) for cfg in sa_configs]
    if not radii:
        raise ValueError("sa_configs must name at least one layer")
    if any(r <= 0 for r in radii):
        raise ValueError("every SA radius must be positive")
    return float(sum(radii))


@dataclass(frozen=True)
class SceneChunk:
    """One Morton-contiguous chunk of a partitioned scene.

    Attributes:
        index: position of the chunk in the plan (also its Morton-rank
            order along the curve).
        core_indices: original scene indices this chunk *owns*; every
            scene point is core to exactly one chunk.
        halo_indices: original scene indices included for context only
            (halo points plus any uniform-size padding); their outputs
            are discarded at stitch time.
    """

    index: int
    core_indices: np.ndarray
    halo_indices: np.ndarray

    @property
    def num_core(self) -> int:
        return int(self.core_indices.size)

    @property
    def num_halo(self) -> int:
        return int(self.halo_indices.size)

    @property
    def size(self) -> int:
        return self.num_core + self.num_halo

    @property
    def indices(self) -> np.ndarray:
        """All scene indices of the chunk, core first: ``(size,)``
        int64 — the row order of the chunk's ``(size, 3)`` batch."""
        return np.concatenate([self.core_indices, self.halo_indices])


@dataclass(frozen=True)
class PartitionPlan:
    """A full scatter plan: uniform-size chunks covering the scene."""

    num_points: int
    chunk_points: int
    halo_width: float
    chunk_size: int
    chunks: Tuple[SceneChunk, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def halo_points_total(self) -> int:
        """Context points across all chunks (halo plus padding)."""
        return sum(chunk.num_halo for chunk in self.chunks)

    @property
    def halo_ratio(self) -> float:
        """Halo overhead as a fraction of the scene size — the extra
        work the chunked run pays relative to one monolithic pass."""
        return self.halo_points_total / self.num_points

    def validate_cover(self) -> None:
        """Raise unless the cores partition ``range(num_points)``."""
        cores = np.concatenate(
            [chunk.core_indices for chunk in self.chunks]
        )
        if cores.size != self.num_points or not np.array_equal(
            np.sort(cores), np.arange(self.num_points)
        ):
            raise AssertionError(
                "chunk cores do not partition the scene"
            )


class ScenePartitioner:
    """Splits an ``(N, 3)`` scene into uniform Morton chunks.

    Args:
        chunk_points: target core size per chunk.  Scenes at or below
            this run as a single chunk **in original point order**, so
            the partitioned result is byte-identical to the direct
            pipeline on small inputs.
        halo_width: metric width of the context band pulled in around
            every chunk; derive it from the model with
            :func:`halo_width_for` for stitch-identity on interior
            points.
        code_bits: Morton code width for the global sort.
    """

    def __init__(
        self,
        chunk_points: int = 8192,
        halo_width: float = 0.0,
        code_bits: int = morton.DEFAULT_CODE_BITS,
    ) -> None:
        if chunk_points < 1:
            raise ValueError("chunk_points must be positive")
        if halo_width < 0 or not math.isfinite(halo_width):
            raise ValueError("halo_width must be finite and >= 0")
        morton.bits_per_axis(code_bits)
        self.chunk_points = int(chunk_points)
        self.halo_width = float(halo_width)
        self.code_bits = int(code_bits)

    @classmethod
    def for_model(
        cls,
        model,
        chunk_points: int = 8192,
        code_bits: int = morton.DEFAULT_CODE_BITS,
    ) -> "ScenePartitioner":
        """A partitioner whose halo covers ``model``'s receptive field
        (the model must expose ``sa_configs``, e.g. PointNet++)."""
        sa_configs = getattr(model, "sa_configs", None)
        if sa_configs is None:
            raise ValueError(
                "model exposes no sa_configs; pass halo_width "
                "explicitly to ScenePartitioner instead"
            )
        return cls(
            chunk_points=chunk_points,
            halo_width=halo_width_for(sa_configs),
            code_bits=code_bits,
        )

    def plan(self, points: np.ndarray) -> PartitionPlan:
        """Build the scatter plan for one scene.

        Deterministic for a given input: the Morton sort is stable,
        halo membership is a vectorized box test, and padding walks
        Morton ranks outward from each chunk (nearer rank first, left
        of the range before right on ties).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(
                f"expected an (N, 3) scene, got {points.shape}"
            )
        n = points.shape[0]
        if n == 0:
            raise ValueError("cannot partition an empty scene")
        if not np.isfinite(points).all():
            raise ValueError("scene contains non-finite coordinates")
        if n <= self.chunk_points:
            # Single chunk, original order: byte-identical to the
            # direct pipeline by construction.
            chunk = SceneChunk(
                index=0,
                core_indices=np.arange(n, dtype=np.int64),
                halo_indices=np.empty(0, dtype=np.int64),
            )
            return PartitionPlan(
                num_points=n,
                chunk_points=self.chunk_points,
                halo_width=self.halo_width,
                chunk_size=n,
                chunks=(chunk,),
            )
        order = structurize(points, code_bits=self.code_bits)
        perm = order.permutation.astype(np.int64)
        num_chunks = math.ceil(n / self.chunk_points)
        cores = np.array_split(perm, num_chunks)
        cells = self._cells(points)
        halos = [
            self._halo_of(cells, core) for core in cores
        ]
        chunk_size = max(
            core.size + halo.size
            for core, halo in zip(cores, halos)
        )
        chunks: List[SceneChunk] = []
        start = 0
        for index, (core, halo) in enumerate(zip(cores, halos)):
            pad = chunk_size - core.size - halo.size
            if pad:
                halo = np.concatenate(
                    [
                        halo,
                        self._rank_pad(
                            order.ranks, perm, core, halo,
                            start, start + core.size, pad,
                        ),
                    ]
                )
            chunks.append(
                SceneChunk(
                    index=index,
                    core_indices=core,
                    halo_indices=halo,
                )
            )
            start += core.size
        return PartitionPlan(
            num_points=n,
            chunk_points=self.chunk_points,
            halo_width=self.halo_width,
            chunk_size=chunk_size,
            chunks=tuple(chunks),
        )

    #: Halo grid refinement: cells have pitch ``halo_width / REFINE``
    #: and the dilation stencil spans ``±REFINE`` cells.  Any point
    #: within ``halo_width`` of a core point lands within the stencil
    #: (cell deltas are at most ``ceil(h / pitch) = REFINE`` per
    #: axis), while the over-approximation shrinks from ``2 h`` per
    #: axis at REFINE=1 to ``(REFINE + 1) / REFINE * h``.
    _HALO_GRID_REFINE = 2

    def _cells(self, points: np.ndarray):
        """``(scene_cells, slot, run_lo, run_hi)``: the sorted distinct
        linearized voxel ids of the scene, each point's index into
        them, and per ``(dx, dy)`` row of the dilation stencil the
        linear offsets of its first and last cell (a row is one
        contiguous id run along z); ``None`` when the halo is disabled
        (zero width).  Every table is sized by the scene or the
        stencil, never by the grid's extent."""
        if self.halo_width == 0:
            return None
        refine = self._HALO_GRID_REFINE
        pitch = self.halo_width / refine
        coords = np.floor(
            (points - points.min(axis=0)) / pitch
        ).astype(np.int64)
        coords += refine  # margin so the stencil stays in range
        dims = coords.max(axis=0) + refine + 1
        if int(dims[0]) * int(dims[1]) * int(dims[2]) >= 2**62:
            raise ValueError(
                "halo_width is too small relative to the scene "
                "extent; the halo grid does not fit 64-bit cell ids"
            )
        linear = (
            coords[:, 0] * dims[1] + coords[:, 1]
        ) * dims[2] + coords[:, 2]
        steps = np.arange(-refine, refine + 1, dtype=np.int64)
        rows = (
            (steps[:, None] * dims[1] + steps[None, :]) * dims[2]
        ).ravel()
        scene_cells, slot = np.unique(linear, return_inverse=True)
        return scene_cells, slot.reshape(-1), rows - refine, rows + refine

    @staticmethod
    def _halo_of(cells, core: np.ndarray) -> np.ndarray:
        """Scene indices within one halo cell of the core (a grid
        dilation — covers every point within ``halo_width`` of some
        core point), excluding the core (ascending index order)."""
        if cells is None:
            return np.empty(0, dtype=np.int64)
        scene_cells, slot, run_lo, run_hi = cells
        size = scene_cells.size
        occupied = np.zeros(size, dtype=bool)
        occupied[slot[core]] = True
        centers = scene_cells[occupied][:, None]
        # Each stencil row covers the scene-cell slots [lo, hi); a
        # difference array marks their union.
        lo = np.searchsorted(scene_cells, (centers + run_lo).ravel())
        hi = np.searchsorted(
            scene_cells, (centers + run_hi).ravel(), side="right"
        )
        runs = np.bincount(lo, minlength=size + 1) - np.bincount(
            hi, minlength=size + 1
        )
        dilated = np.cumsum(runs[:size]) > 0
        inside = dilated[slot]
        inside[core] = False
        return np.flatnonzero(inside).astype(np.int64)

    @staticmethod
    def _rank_pad(
        ranks: np.ndarray,
        perm: np.ndarray,
        core: np.ndarray,
        halo: np.ndarray,
        rank_lo: int,
        rank_hi: int,
        pad: int,
    ) -> np.ndarray:
        """The ``pad`` Morton-rank-nearest scene indices outside the
        chunk: walk ranks outward from ``[rank_lo, rank_hi)``, nearer
        distance first, the left side winning ties.  Padding points
        are ordinary context (like halo) and every chunk has enough
        non-members available because ``chunk_size <= N``.
        """
        n = ranks.size
        left = np.arange(rank_lo - 1, -1, -1, dtype=np.int64)
        right = np.arange(rank_hi, n, dtype=np.int64)
        depth = max(left.size, right.size)
        ladder = np.full((depth, 2), -1, dtype=np.int64)
        ladder[: left.size, 0] = left
        ladder[: right.size, 1] = right
        candidates = ladder.ravel()
        candidates = candidates[candidates >= 0]
        member = np.zeros(n, dtype=bool)
        member[core] = True
        member[halo] = True
        original = perm[candidates]
        original = original[~member[original]]
        return original[:pad]
