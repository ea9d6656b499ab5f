"""Uniform-grid (cell list) neighbor search.

The grid-based strategy the paper's related work discusses ([22, 26, 39,
50] in Sec. 3.2): hash points into cubic cells of side ``cell_size``,
then answer fixed-radius queries by scanning only the cells around the
query.  Exact for ``radius <= cell_size``; used as a second exact
oracle, as a fast generator of ground-truth neighbor sets on large
clouds where brute force is slow, and — through
:meth:`UniformGridIndex.query_knn_batch` — as the large-N exact engine
behind :func:`repro.neighbors.batched.knn_grid_batch`.

The index is a sparse CSR cell list built with one stable argsort: no
dense ``(dx, dy, dz)`` cell array is ever materialized, so degenerate
clouds (outliers, planes) cannot blow up memory, and per-cell candidate
runs keep ascending point order — which the canonical ``(distance,
index)`` tie-break relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.workspace import Workspace


def canonical_top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` smallest values, canonically
    ordered by ``(value, column index)``.

    This is the exact-kNN tie-break contract every neighbor engine in
    :mod:`repro.neighbors` shares: neighbors sort by ascending
    distance, and equal distances by ascending candidate index — so
    two engines that compute bit-identical distances return
    byte-identical index arrays regardless of how they enumerate
    candidates.

    Args:
        d2: ``(..., N)`` float distance rows.
        k: selection width (``1 <= k <= N``).

    Returns:
        ``(..., k)`` int64 column indices into the last axis.
    """
    n = d2.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return np.argsort(d2, axis=-1, kind="stable")
    # Hot path: argpartition narrows each row to *some* k smallest,
    # then a (value, column) lexsort orders the selection canonically.
    part = np.argpartition(d2, k - 1, axis=-1)[..., :k]
    pvals = np.take_along_axis(d2, part, axis=-1)
    order = np.lexsort((part, pvals), axis=-1)
    sel = np.take_along_axis(part, order, axis=-1)
    svals = np.take_along_axis(pvals, order, axis=-1)
    # Boundary ties: if more columns share the k-th value than the
    # selection holds, argpartition chose an arbitrary subset of them;
    # re-derive those rare rows from a full stable argsort (stable ==
    # ascending column among equal values == the canonical order).
    kth = svals[..., -1:]
    ambiguous = np.count_nonzero(d2 == kth, axis=-1) > np.count_nonzero(
        svals == kth, axis=-1
    )
    if np.any(ambiguous):
        for idx in zip(*np.nonzero(ambiguous)):
            sel[idx] = np.argsort(d2[idx], kind="stable")[:k]
    return sel


def _canonical_top_k_ids(
    d2: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of padded score rows, ordered by ``(d2, id)``.

    The ragged-row variant of :func:`canonical_top_k`: each ``(m,
    width)`` row carries explicit candidate ids (pad lanes hold
    ``+inf`` distances and an out-of-range id), and ties break on the
    *id*, not the column — gathered runs interleave cells, so column
    order is meaningless.

    Returns:
        ``(sel_ids, sel_d2)``: ``(m, k)`` int64 ids in canonical order
        and their ``(m, k)`` squared distances (pad lanes ``+inf``
        when a row holds fewer than ``k`` candidates).
    """
    width = d2.shape[1]
    if width <= k:
        order = np.lexsort((ids, d2), axis=-1)
        sids = np.take_along_axis(ids, order, axis=-1)
        svals = np.take_along_axis(d2, order, axis=-1)
        return sids, svals
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    pvals = np.take_along_axis(d2, part, axis=1)
    pids = np.take_along_axis(ids, part, axis=1)
    order = np.lexsort((pids, pvals), axis=-1)
    svals = np.take_along_axis(pvals, order, axis=1)
    sids = np.take_along_axis(pids, order, axis=1)
    # Boundary ties: argpartition may have chosen an arbitrary subset
    # of the candidates sharing the k-th distance; repair those rare
    # rows with a full-row canonical sort.
    kth = svals[:, -1:]
    ambiguous = np.count_nonzero(d2 == kth, axis=1) > np.count_nonzero(
        svals == kth, axis=1
    )
    for row in np.flatnonzero(ambiguous):
        full = np.lexsort((ids[row], d2[row]))[:k]
        sids[row] = ids[row][full]
        svals[row] = d2[row][full]
    return sids, svals


def suggest_cell_size(points: np.ndarray, k: int) -> float:
    """Cell side so one ring of cells holds roughly the ``k`` nearest.

    Sizes cells for a mean occupancy of ``~max(k / 8, 1.5)`` points —
    small enough that the dense regions of non-uniform clouds don't
    drown each ring in candidates, large enough that the expanding
    rings of :meth:`UniformGridIndex.query_knn_batch` resolve most
    queries within a round or two.  Degenerate extents (planar or
    linear clouds, or a single repeated point) fall back to the
    largest finite extent so the cell count stays ``O(N)``.

    Returns:
        A positive scalar float cell side.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    extents = points.max(axis=0) - points.min(axis=0)
    longest = float(extents.max()) if extents.size else 0.0
    if longest <= 0.0:
        return 1.0  # every point coincides; one cell holds them all
    # Flat axes contribute one cell layer; pricing them at the longest
    # extent keeps the volume estimate finite.
    extents = np.where(extents > 0.0, extents, longest)
    volume = float(np.prod(extents))
    occupancy = max(k / 8.0, 1.5)
    cell = (volume * occupancy / points.shape[0]) ** (1.0 / 3.0)
    return max(cell, longest * 1e-6)


class UniformGridIndex:
    """A cell-list index over ``(N, 3)`` points.

    Cells are identified by collision-free linear ids and stored as a
    CSR structure: ``_sorted_ids`` groups point indices by cell (each
    run ascending), ``_cell_ids`` / ``_cell_starts`` / ``_cell_ends``
    delimit the runs.  Lookups are ``searchsorted`` probes — no Python
    dict, no dense cell volume.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = points
        self.cell_size = float(cell_size)
        self.origin = points.min(axis=0)
        cells = np.floor((points - self.origin) / self.cell_size).astype(
            np.int64
        )
        self._dims = cells.max(axis=0) + 1
        linear = self._linearize(cells)
        order = np.argsort(linear, kind="stable")
        self._sorted_ids = order
        sorted_linear = linear[order]
        cell_ids, starts = np.unique(sorted_linear, return_index=True)
        self._cell_ids = cell_ids
        self._cell_starts = starts
        self._cell_ends = np.append(starts[1:], linear.shape[0])
        # ||c||^2 in the reference full-shape expression, computed once
        # and gathered per query round (gathering preserves bits).
        self._points_sq = np.sum(points[None] ** 2, axis=2)[0]

    def _linearize(self, cells: np.ndarray) -> np.ndarray:
        """Collision-free linear cell ids for ``(..., 3)`` int cells."""
        dims = self._dims
        return (
            cells[..., 0] * dims[1] + cells[..., 1]
        ) * dims[2] + cells[..., 2]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def num_occupied_cells(self) -> int:
        return int(self._cell_ids.shape[0])

    def _ring_runs(
        self, base_cells: np.ndarray, reach: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate runs for each query's ``(2 reach + 1)^3`` cell
        ring.

        Args:
            base_cells: ``(Q, 3)`` integer cell coordinates.
            reach: ring half-width in cells (``>= 1``).

        Returns:
            ``(starts, ends)`` int64 arrays of shape ``(Q, C)`` (``C``
            = ring cell count) delimiting runs in ``_sorted_ids``;
            empty/out-of-grid cells have ``starts == ends``.  Ring
            cells enumerate in ``dx, dy, dz`` nesting order, matching
            the scalar ``_candidates`` scan.
        """
        span = np.arange(-reach, reach + 1, dtype=np.int64)
        ox, oy, oz = np.meshgrid(span, span, span, indexing="ij")
        offsets = np.stack(
            [ox.ravel(), oy.ravel(), oz.ravel()], axis=1
        )  # (C, 3)
        ring = base_cells[:, None, :] + offsets[None, :, :]  # (Q, C, 3)
        valid = np.all((ring >= 0) & (ring < self._dims), axis=2)
        linear = self._linearize(ring)
        pos = np.searchsorted(self._cell_ids, linear)
        pos[pos == self._cell_ids.shape[0]] = 0
        occupied = (self._cell_ids[pos] == linear) & valid
        starts = np.where(occupied, self._cell_starts[pos], 0)
        ends = np.where(occupied, self._cell_ends[pos], 0)
        return starts, ends

    def _score_rows(
        self,
        query_rows: np.ndarray,
        q_sq_rows: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        workspace: Workspace,
        stats: Optional["GridQueryStats"] = None,
    ):
        """Score ring candidates for query rows, tiled to the scratch
        budget.

        Args:
            query_rows: ``(R, 3)`` query coordinates.
            q_sq_rows: ``(R,)`` precomputed ``||q||^2`` (reference
                expression, gathered).
            starts, ends: ``(R, C)`` candidate-run bounds from
                :meth:`_ring_runs`.
            workspace: scratch pool bounding each padded tile.
            stats: optional scan accounting.

        Yields:
            ``(lo, ids, d2, totals)`` tiles covering rows ``lo ..
            lo + m``: ``ids`` is ``(m, width)`` int64 candidate indices
            (pad lanes hold ``len(self)``), ``d2`` the matching
            squared distances (pad lanes ``+inf``), ``totals`` the
            ``(m,)`` real-candidate counts.  Buffers are reused across
            tiles — consume one tile before advancing.
        """
        n_candidates = len(self)
        lengths = ends - starts
        counts = lengths.sum(axis=1)
        num_rows = query_rows.shape[0]
        lo = 0
        while lo < num_rows:
            width = int(counts[lo:].max(initial=1))
            # Padded row bytes: ids + distances (8 each) + xyz (24).
            chunk = workspace.chunk_rows(
                max(width, 1) * 40, num_rows - lo
            )
            sl = slice(lo, lo + chunk)
            run_len = lengths[sl]
            totals = counts[sl]
            m = run_len.shape[0]
            width = int(totals.max(initial=1))
            ids = workspace.buffer("grid.ids", (m, width), dtype=np.int64)
            d2 = workspace.buffer("grid.d2", (m, width))
            ids[:] = n_candidates  # pad sentinel
            total = int(totals.sum())
            if total:
                # Column of each gathered candidate inside its padded
                # row: running position of its run plus offset in run.
                run_pos = np.cumsum(run_len, axis=1) - run_len
                flat_len = run_len.ravel()
                flat_cum = np.cumsum(flat_len) - flat_len
                seq = np.arange(total, dtype=np.int64)
                within = seq - np.repeat(flat_cum, flat_len)
                cols = np.repeat(run_pos.ravel(), flat_len) + within
                src = np.repeat(starts[sl].ravel(), flat_len) + within
                rows_of = np.repeat(
                    np.arange(m, dtype=np.int64), totals
                )
                ids[rows_of, cols] = self._sorted_ids[src]
            if stats is not None:
                stats.pairs_scanned += total
            cand_ids = np.minimum(ids, n_candidates - 1)
            coords = self.points[cand_ids]  # (m, width, 3)
            qblock = query_rows[sl]
            # The reference distance expression of the brute kernels,
            # with the dot as a shape-stable einsum.
            np.einsum("qmc,qc->qm", coords, qblock, out=d2)
            d2 *= -2.0
            d2 += q_sq_rows[sl][:, None]
            d2 += self._points_sq[cand_ids]
            np.maximum(d2, 0.0, out=d2)
            d2[ids == n_candidates] = np.inf
            yield lo, ids, d2, totals
            lo += chunk

    def _candidates(self, point: np.ndarray, reach: int) -> np.ndarray:
        base = np.floor((point - self.origin) / self.cell_size).astype(
            np.int64
        )
        starts, ends = self._ring_runs(base[None, :], reach)
        starts, ends = starts[0], ends[0]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        run_offsets = np.cumsum(lengths) - lengths
        flat = np.arange(total, dtype=np.int64)
        flat += np.repeat(starts - run_offsets, lengths)
        return self._sorted_ids[flat]

    def query_radius(self, point: np.ndarray, radius: float) -> np.ndarray:
        """All indices within ``radius`` of ``point``.

        Returns a sorted 1-D int64 index array.
        """
        point = np.asarray(point, dtype=np.float64)
        if radius <= 0:
            raise ValueError("radius must be positive")
        reach = int(np.ceil(radius / self.cell_size))
        candidates = self._candidates(point, reach)
        if candidates.size == 0:
            return candidates
        d2 = np.sum((self.points[candidates] - point) ** 2, axis=1)
        return np.sort(candidates[d2 <= radius * radius])

    def query_knn(self, point: np.ndarray, k: int) -> np.ndarray:
        """k nearest indices (1-D int64), expanding the cell reach
        until enough candidates are *provably* inside the searched
        shell."""
        point = np.asarray(point, dtype=np.float64)
        if not 1 <= k <= len(self):
            raise ValueError("k out of range")
        reach = 1
        while True:
            candidates = self._candidates(point, reach)
            if candidates.size >= k:
                d2 = np.sum(
                    (self.points[candidates] - point) ** 2, axis=1
                )
                order = np.argsort(d2, kind="stable")[:k]
                # The shell of `reach` cells is guaranteed to contain the
                # true k-NN only if the k-th distance fits inside it.
                safe = (reach * self.cell_size) ** 2
                if d2[order[-1]] <= safe or candidates.size == len(self):
                    return candidates[order]
            if candidates.size == len(self):
                d2 = np.sum(
                    (self.points[candidates] - point) ** 2, axis=1
                )
                return candidates[np.argsort(d2, kind="stable")[:k]]
            reach += 1

    def query_knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        workspace: Optional[Workspace] = None,
        stats: Optional["GridQueryStats"] = None,
    ) -> np.ndarray:
        """Exact k-nearest candidates for a whole query block.

        Probes expanding cell rings round by round: every still-open
        query gathers the candidates of its current ring, scores them
        with the reference distance expression, and closes once its
        k-th distance provably fits inside the searched shell.  Scratch
        (padded id / coordinate / distance blocks) comes from the
        shared workspace pool and is bounded by its budget — the
        ``(Q, N)`` distance matrix is never materialized.

        Neighbor rows follow the canonical ``(distance, index)`` order
        of :func:`canonical_top_k`.

        Args:
            queries: ``(Q, 3)`` float query coordinates.
            k: neighbors per query (``1 <= k <= N``).
            workspace: scratch pool; a fresh default-budget
                :class:`Workspace` when omitted.
            stats: optional :class:`GridQueryStats` accumulator.

        Returns:
            ``(Q, k)`` int64 candidate indices, ascending ``(distance,
            index)`` per row.
        """
        return self.query_knn_d2_batch(queries, k, workspace, stats)[0]

    def query_knn_d2_batch(
        self,
        queries: np.ndarray,
        k: int,
        workspace: Optional[Workspace] = None,
        stats: Optional["GridQueryStats"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`query_knn_batch` plus the squared distances it scored.

        Returns:
            ``(indices, d2)``: ``(Q, k)`` int64 candidate indices in
            canonical ``(distance, index)`` order and their ``(Q, k)``
            float64 squared distances, as the grid scored them (the
            reference expression with an einsum dot, so a distance may
            differ from the brute GEMM's in the last bit).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 3:
            raise ValueError(
                f"expected (Q, 3) queries, got {queries.shape}"
            )
        n_candidates = len(self)
        if not 1 <= k <= n_candidates:
            raise ValueError(f"k must be in [1, {n_candidates}], got {k}")
        workspace = workspace or Workspace()
        num_queries = queries.shape[0]
        out = np.empty((num_queries, k), dtype=np.int64)
        out_d2 = np.empty((num_queries, k), dtype=np.float64)
        if stats is not None:
            stats.num_queries += num_queries
        # Reference-shape ||q||^2, gathered per round (bit-preserving).
        q_sq_all = np.sum(queries[None] ** 2, axis=2)[0]
        base_cells = np.floor(
            (queries - self.origin) / self.cell_size
        ).astype(np.int64)
        active = np.arange(num_queries, dtype=np.int64)
        reach = 1
        while active.size:
            starts, ends = self._ring_runs(base_cells[active], reach)
            counts = (ends - starts).sum(axis=1)
            safe = (reach * self.cell_size) ** 2
            still_open = np.zeros(active.shape[0], dtype=bool)
            # Queries whose ring cannot hold k candidates yet (and has
            # not swallowed the whole cloud) expand without scoring.
            scoreable = (counts >= k) | (counts >= n_candidates)
            still_open[~scoreable] = True
            rows = np.flatnonzero(scoreable)
            # Grouping rows of similar candidate count keeps each
            # padded tile tight: tiles pad to their widest row, and
            # non-uniform clouds mix narrow and wide rings.
            rows = rows[np.argsort(counts[rows], kind="stable")]
            if stats is not None:
                stats.rounds += 1
                stats.cells_probed += int(
                    starts.shape[0] * starts.shape[1]
                )
            row_queries = queries[active[rows]]
            row_q_sq = q_sq_all[active[rows]]
            for lo, ids, d2, totals in self._score_rows(
                row_queries,
                row_q_sq,
                starts[rows],
                ends[rows],
                workspace,
                stats,
            ):
                block = rows[lo : lo + totals.shape[0]]
                # Canonical (distance, candidate index) order — ids,
                # not columns, break ties (runs interleave cells).
                sel, sel_d2 = _canonical_top_k_ids(d2, ids, k)
                # Strict < keeps boundary ties exact: a candidate just
                # outside the shell could tie the k-th distance, and
                # the canonical order must then consider its index.
                done = (sel_d2[:, -1] < safe) | (totals >= n_candidates)
                out[active[block[done]]] = sel[done]
                out_d2[active[block[done]]] = sel_d2[done]
                still_open[block[~done]] = True
            active = active[still_open]
            reach += 1
        return out, out_d2


@dataclass
class GridQueryStats:
    """Scan accounting for the grid neighbor engines.

    Attributes:
        num_queries: total queries answered.
        pairs_scanned: query-candidate distance evaluations performed.
        rounds: ring-expansion rounds executed.
        cells_probed: (query, cell) lookups issued.
    """

    num_queries: int = 0
    pairs_scanned: int = 0
    rounds: int = 0
    cells_probed: int = 0

    def merge(self, other: "GridQueryStats") -> None:
        self.num_queries += other.num_queries
        self.pairs_scanned += other.pairs_scanned
        self.rounds += other.rounds
        self.cells_probed += other.cells_probed
