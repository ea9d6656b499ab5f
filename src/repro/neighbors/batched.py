"""Batched, memory-bounded exact neighbor search.

The brute-force baselines in :mod:`repro.neighbors.brute` scan the full
candidate set per query; a batched model forward that loops them per
cloud pays one Python-level dispatch per cloud *and* risks
materializing per-cloud ``(Q, N)`` distance blocks back to back.  The
kernels here make the batch axis an ordinary vectorized dimension and
tile the query axis so the transient distance block never exceeds a
configurable scratch budget (:class:`~repro.core.workspace.Workspace`),
instead of building ``(B, Q, N)`` — or worse, ``(N, N)`` — matrices.

Both kernels are **bit-identical** to looping their per-cloud
counterparts over the batch: the distance expression keeps the exact
per-element accumulation order (the inner dimension is a single GEMM
panel), and selection runs per 1-D lane.  The per-cloud functions in
:mod:`repro.neighbors.brute` are thin ``B=1`` wrappers over these.

:func:`exact_knn` is the one engine-dispatch seam for exact kNN: model
code hands it the engine name
:meth:`~repro.core.pipeline.EdgePCConfig.exact_engine_for` picked and
gets back canonical indices, their squared distances, and the engine
that actually served the query.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.workspace import Workspace
from repro.neighbors.grid import (
    GridQueryStats,
    UniformGridIndex,
    canonical_top_k,
    suggest_cell_size,
)


def _validate_batch(
    queries: np.ndarray, candidates: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    queries = np.asarray(queries, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if queries.ndim != 3 or candidates.ndim != 3:
        raise ValueError("queries and candidates must be 3-D arrays")
    if queries.shape[0] != candidates.shape[0]:
        raise ValueError("batch size mismatch")
    if queries.shape[2] != candidates.shape[2]:
        raise ValueError("dimensionality mismatch")
    if not 1 <= k <= candidates.shape[1]:
        raise ValueError(
            f"k must be in [1, {candidates.shape[1]}], got {k}"
        )
    return queries, candidates


def _distance_chunks(
    queries: np.ndarray,
    candidates: np.ndarray,
    workspace: Workspace,
    extra_row_bytes: int = 0,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(lo, d2_block)`` tiles of the ``(B, Q, N)`` distance
    tensor, sized so each tile fits the workspace scratch budget.

    ``extra_row_bytes`` accounts for per-query-row scratch the caller
    allocates on top of the distance block itself (e.g. selection
    index arrays), so the budget covers the kernel's true peak.

    The block is a reused workspace buffer — consumers must finish
    with one tile before requesting the next.
    """
    num_clouds, num_queries, _ = queries.shape
    num_candidates = candidates.shape[1]
    c_sq = np.sum(candidates**2, axis=2)  # (B, N)
    cand_t = candidates.transpose(0, 2, 1)  # (B, D, N) view
    # Per query row: the float64 distance block plus the caller's
    # selection scratch, both spanning all B * N candidates.
    row_bytes = num_clouds * num_candidates * 8 + extra_row_bytes
    chunk = workspace.chunk_rows(row_bytes, num_queries)
    for lo in range(0, num_queries, chunk):
        block = queries[:, lo : lo + chunk]
        rows = block.shape[1]
        q_sq = np.sum(block**2, axis=2)  # (B, rows)
        d2 = workspace.buffer(
            "exact.d2", (num_clouds, rows, num_candidates)
        )
        np.matmul(block, cand_t, out=d2)
        # In-place ((q_sq - 2 m) + c_sq): bit-identical to the
        # per-cloud expression — IEEE addition is commutative and the
        # sign flip of 2*m is exact.
        d2 *= -2.0
        d2 += q_sq[:, :, None]
        d2 += c_sq[:, None, :]
        np.maximum(d2, 0.0, out=d2)
        yield lo, d2


#: Engine names :func:`exact_knn` accepts: the values of
#: :meth:`repro.core.pipeline.EdgePCConfig.exact_engine_for`.
EXACT_ENGINES = ("brute", "fast")


#: Largest ``k`` :func:`exact_knn` selects by ``k`` argmin sweeps
#: instead of :func:`~repro.neighbors.grid.canonical_top_k`.  Each
#: sweep is one pass over the distance tile, against argpartition's
#: one pass plus a lexsort and gathers, so sweeps win at small ``k``.
#: Measured on a 2-vCPU x86 VM, NumPy 2.4: one 8192 x 256 block at
#: k=3 takes 9 ms against 29 ms; at N=1024 in 4 MiB-budget tiles the
#: sweeps take 0.30x / 0.54x / 0.75x / 0.95x / 1.15x of the
#: argpartition time at k = 4 / 8 / 12 / 16 / 20.  8 keeps a clear
#: margin, and DGCNN's k=20 stays on argpartition.
ARGMIN_SWEEP_MAX_K = 8


class ExactKnn(NamedTuple):
    """The answer of :func:`exact_knn`.

    Attributes:
        indices: ``(B, Q, k)`` int64 candidate indices in canonical
            ``(distance, index)`` order.
        d2: ``(B, Q, k)`` float64 squared distances of those
            candidates, as the serving engine scored them.
        engine: ``"brute"`` or ``"grid"``, the engine that served.
    """

    indices: np.ndarray
    d2: np.ndarray
    engine: str


def exact_knn(
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
    engine: str = "brute",
    workspace: Optional[Workspace] = None,
    stats: Optional[GridQueryStats] = None,
) -> ExactKnn:
    """Exact k-nearest neighbors and their squared distances, served
    by the engine ``engine`` names.

    ``"brute"`` tiles the query axis to the workspace budget and
    selects with :func:`~repro.neighbors.grid.canonical_top_k`, taking
    each distance from the same tile it selected on.  ``"fast"`` runs
    the uniform-grid engine for xyz queries (``D == 3``) and falls
    back to brute in feature space, where a 3-D cell list does not
    apply.  Both engines return the same indices; grid distances come
    from an einsum rather than a GEMM and may differ from brute ones
    in the last bit.

    Args:
        queries: ``(B, Q, D)`` query points.
        candidates: ``(B, N, D)`` candidate points.
        k: neighbors per query (``1 <= k <= N``).
        engine: one of :data:`EXACT_ENGINES`, normally
            ``config.exact_engine_for(N)``.
        workspace: scratch pool carrying the tiling budget; a fresh
            default-budget :class:`Workspace` when omitted.
        stats: optional grid scan accounting, filled only when the
            grid engine serves.

    Returns:
        An :class:`ExactKnn` of ``(B, Q, k)`` indices and distances
        plus the serving engine's name.
    """
    queries, candidates = _validate_batch(queries, candidates, k)
    if engine not in EXACT_ENGINES:
        raise ValueError(
            f"engine must be one of {EXACT_ENGINES}, got {engine!r}"
        )
    workspace = workspace or Workspace()
    if engine == "fast" and queries.shape[2] == 3:
        indices, d2 = _knn_grid(
            queries, candidates, k, workspace, None, stats
        )
        return ExactKnn(indices, d2, "grid")
    num_clouds, num_queries, _ = queries.shape
    num_candidates = candidates.shape[1]
    indices = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    d2_out = np.empty((num_clouds, num_queries, k), dtype=np.float64)
    sweep = k <= ARGMIN_SWEEP_MAX_K
    # argpartition materializes a full-width int64 index block.  The
    # sweeps need none but keep the same tiles: GEMM rounding can
    # depend on the tile height, and distances must not depend on k.
    extra = num_clouds * num_candidates * 8
    for lo, d2 in _distance_chunks(queries, candidates, workspace, extra):
        rows = slice(lo, lo + d2.shape[1])
        if sweep:
            indices[:, rows], d2_out[:, rows] = _argmin_sweeps(d2, k)
        else:
            sel = canonical_top_k(d2, k)
            indices[:, rows] = sel
            d2_out[:, rows] = np.take_along_axis(d2, sel, axis=2)
    return ExactKnn(indices, d2_out, "brute")


def _argmin_sweeps(
    d2: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, d2)`` of the ``k`` smallest entries per row of the
    scratch block ``d2``, in canonical ``(value, column)`` order.

    ``argmin`` returns the lowest column among equal values, so ``k``
    passes that each mask their pick with ``+inf`` emit the canonical
    order with no sort and no tie repair.  Overwrites the picks in
    ``d2``.  A row that picked a non-finite value (``+inf`` masking
    is ambiguous there, and ``argmin`` ranks NaN first) is restored
    and reselected by :func:`~repro.neighbors.grid.canonical_top_k`.
    """
    lead = d2.shape[:-1]
    sel = np.empty(lead + (k,), dtype=np.int64)
    vals = np.empty(lead + (k,), dtype=d2.dtype)
    for j in range(k):
        pick = np.argmin(d2, axis=-1)[..., None]
        sel[..., j : j + 1] = pick
        vals[..., j : j + 1] = np.take_along_axis(d2, pick, axis=-1)
        np.put_along_axis(d2, pick, np.inf, axis=-1)
    bad = ~np.isfinite(vals).all(axis=-1)
    if np.any(bad):
        rows, picked, values = d2[bad], sel[bad], vals[bad]
        # Undo the masks newest first: a column picked twice holds its
        # real value at its first pick.
        for j in reversed(range(k)):
            np.put_along_axis(
                rows, picked[:, j : j + 1], values[:, j : j + 1], axis=-1
            )
        picked = canonical_top_k(rows, k)
        sel[bad] = picked
        vals[bad] = np.take_along_axis(rows, picked, axis=-1)
    return sel, vals


def knn_batch(
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Exact k-nearest neighbors over a batch, tiled to a scratch
    budget.

    Works in any dimensionality — DGCNN's later EdgeConv modules run
    kNN in feature space (paper Sec. 5.2.3), not just on xyz.

    Args:
        queries: ``(B, Q, D)`` query points.
        candidates: ``(B, N, D)`` candidate points.
        k: neighbors per query (``1 <= k <= N``).
        workspace: scratch pool carrying the tiling budget; a fresh
            default-budget :class:`Workspace` when omitted.

    Returns:
        ``(B, Q, k)`` int64 candidate indices in the canonical
        ``(distance, candidate index)`` order of
        :func:`repro.neighbors.grid.canonical_top_k`, bit-identical to
        looping :func:`repro.neighbors.brute.knn` per cloud.
    """
    return exact_knn(queries, candidates, k, "brute", workspace).indices


def ball_query_batch(
    queries: np.ndarray,
    candidates: np.ndarray,
    radius: float,
    k: int,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Fixed-width ball query over a batch, tiled to a scratch budget.

    Follows the PointNet++ SA-module convention: up to ``k`` candidate
    indices with distance ``<= radius`` per query, in candidate-scan
    order; short rows are padded by repeating the first in-radius hit
    (or the nearest candidate if the ball is empty).

    Args:
        queries: ``(B, Q, D)`` query points.
        candidates: ``(B, N, D)`` candidate points.
        radius: ball radius (``> 0``).
        k: maximum neighbors per query (``1 <= k <= N``).
        workspace: scratch pool carrying the tiling budget; a fresh
            default-budget :class:`Workspace` when omitted.

    Returns:
        ``(B, Q, k)`` int64 candidate indices, bit-identical to
        looping :func:`repro.neighbors.brute.ball_query` per cloud.
    """
    queries, candidates = _validate_batch(queries, candidates, k)
    if radius <= 0:
        raise ValueError("radius must be positive")
    workspace = workspace or Workspace()
    r2 = radius * radius
    num_clouds, num_queries, _ = queries.shape
    num_candidates = candidates.shape[1]
    out = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    pad_width = np.arange(k)
    # The inside mask (bool) plus the stable argsort over it (int64).
    extra = num_clouds * num_candidates * 9
    for lo, d2 in _distance_chunks(queries, candidates, workspace, extra):
        inside = d2 <= r2
        counts = inside.sum(axis=2)  # (B, rows)
        # Stable argsort of the negated mask lists in-radius hits in
        # candidate-scan order, then the misses — so the first
        # min(count, k) slots are exactly the scan-order hits.
        first = np.argsort(~inside, axis=2, kind="stable")[:, :, :k]
        padded = np.where(
            pad_width < counts[:, :, None], first, first[:, :, :1]
        )
        nearest = np.argmin(d2, axis=2)  # (B, rows)
        out[:, lo : lo + d2.shape[1]] = np.where(
            counts[:, :, None] > 0, padded, nearest[:, :, None]
        )
    return out


def _validate_grid_batch(
    queries: np.ndarray, candidates: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    queries, candidates = _validate_batch(queries, candidates, k)
    if queries.shape[2] != 3:
        raise ValueError(
            "grid kernels index Euclidean xyz space; expected "
            f"(B, Q, 3) queries, got {queries.shape}"
        )
    return queries, candidates


def knn_grid_batch(
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
    workspace: Optional[Workspace] = None,
    cell_size: Optional[float] = None,
    stats: Optional[GridQueryStats] = None,
) -> np.ndarray:
    """Exact k-nearest neighbors via a uniform-grid cell list.

    The large-N exact engine: bins each cloud's candidates into a
    sparse cell list and probes expanding cell rings per query
    (:meth:`repro.neighbors.grid.UniformGridIndex.query_knn_batch`),
    so the scan touches ``O(k)`` candidates per query instead of all
    ``N`` and the transient scratch stays inside the workspace budget
    — no ``(Q, N)`` block is ever materialized.  xyz-space only
    (``D == 3``); feature-space kNN keeps :func:`knn_batch`.

    Matches :func:`knn_batch` row for row — including exact distance
    ties, which both engines break by ascending candidate index.
    (Candidates whose distances are *computed* differently by the two
    engines' accumulation orders can differ only when two true
    distances land within one rounding step of each other.)

    Args:
        queries: ``(B, Q, 3)`` query points.
        candidates: ``(B, N, 3)`` candidate points.
        k: neighbors per query (``1 <= k <= N``).
        workspace: scratch pool carrying the tiling budget; a fresh
            default-budget :class:`Workspace` when omitted.
        cell_size: grid cell side; auto-sized per cloud via
            :func:`repro.neighbors.grid.suggest_cell_size` when
            omitted.
        stats: optional :class:`~repro.neighbors.grid.GridQueryStats`
            scan accounting, accumulated across the batch.

    Returns:
        ``(B, Q, k)`` int64 candidate indices in canonical
        ``(distance, index)`` order per row.
    """
    queries, candidates = _validate_grid_batch(queries, candidates, k)
    workspace = workspace or Workspace()
    return _knn_grid(
        queries, candidates, k, workspace, cell_size, stats
    )[0]


def _knn_grid(
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
    workspace: Workspace,
    cell_size: Optional[float],
    stats: Optional[GridQueryStats],
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid kNN over validated ``(B, Q, 3)`` / ``(B, N, 3)`` arrays:
    ``(B, Q, k)`` int64 indices and their float64 squared distances."""
    num_clouds, num_queries, _ = queries.shape
    out = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    out_d2 = np.empty((num_clouds, num_queries, k), dtype=np.float64)
    for b in range(num_clouds):
        cell = (
            cell_size
            if cell_size is not None
            else suggest_cell_size(candidates[b], k)
        )
        index = UniformGridIndex(candidates[b], cell)
        out[b], out_d2[b] = index.query_knn_d2_batch(
            queries[b], k, workspace=workspace, stats=stats
        )
    return out, out_d2


def ball_query_grid_batch(
    queries: np.ndarray,
    candidates: np.ndarray,
    radius: float,
    k: int,
    workspace: Optional[Workspace] = None,
    cell_size: Optional[float] = None,
    stats: Optional[GridQueryStats] = None,
) -> np.ndarray:
    """Fixed-width ball query via a uniform-grid cell list.

    Grid counterpart of :func:`ball_query_batch` with identical
    output semantics: up to ``k`` in-radius candidate indices per
    query in candidate-scan (ascending index) order, short rows padded
    with the first hit, empty balls filled with the nearest candidate.
    Only the cells overlapping each query's radius are scanned, tiled
    through the workspace scratch pool.

    Args:
        queries: ``(B, Q, 3)`` query points.
        candidates: ``(B, N, 3)`` candidate points.
        radius: ball radius (``> 0``).
        k: maximum neighbors per query (``1 <= k <= N``).
        workspace: scratch pool carrying the tiling budget; a fresh
            default-budget :class:`Workspace` when omitted.
        cell_size: grid cell side; defaults to ``radius`` so one ring
            of cells covers the ball.
        stats: optional :class:`~repro.neighbors.grid.GridQueryStats`
            scan accounting, accumulated across the batch.

    Returns:
        ``(B, Q, k)`` int64 candidate indices, matching
        :func:`ball_query_batch` (same rounding caveat as
        :func:`knn_grid_batch` for radius-boundary candidates).
    """
    queries, candidates = _validate_grid_batch(queries, candidates, k)
    if radius <= 0:
        raise ValueError("radius must be positive")
    workspace = workspace or Workspace()
    r2 = radius * radius
    num_clouds, num_queries, _ = queries.shape
    out = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    pad_width = np.arange(k)
    for b in range(num_clouds):
        cloud_q = queries[b]
        cloud_c = candidates[b]
        cell = cell_size if cell_size is not None else float(radius)
        index = UniformGridIndex(cloud_c, cell)
        reach = int(np.ceil(radius / index.cell_size))
        q_sq = np.sum(cloud_q[None] ** 2, axis=2)[0]
        base_cells = np.floor(
            (cloud_q - index.origin) / index.cell_size
        ).astype(np.int64)
        starts, ends = index._ring_runs(base_cells, reach)
        if stats is not None:
            stats.num_queries += num_queries
            stats.rounds += 1
            stats.cells_probed += int(starts.shape[0] * starts.shape[1])
        # Order rows by candidate count so padded tiles stay tight
        # (see UniformGridIndex.query_knn_batch).
        row_order = np.argsort(
            (ends - starts).sum(axis=1), kind="stable"
        )
        empties = []
        for lo, ids, d2, _totals in index._score_rows(
            cloud_q[row_order],
            q_sq[row_order],
            starts[row_order],
            ends[row_order],
            workspace,
            stats,
        ):
            inside = d2 <= r2  # pad lanes are +inf -> excluded
            counts = inside.sum(axis=1)
            # Hits first, each group in ascending candidate index —
            # the candidate-scan order of the reference kernel.
            order = np.lexsort((ids, ~inside), axis=-1)[:, :k]
            first = np.take_along_axis(ids, order, axis=-1)
            if first.shape[1] < k:
                # Ring narrower than k slots: the missing columns are
                # beyond every row's hit count and pad like the rest.
                first = np.concatenate(
                    [
                        first,
                        np.broadcast_to(
                            first[:, :1],
                            (first.shape[0], k - first.shape[1]),
                        ),
                    ],
                    axis=1,
                )
            padded = np.where(
                pad_width < counts[:, None], first, first[:, :1]
            )
            # Empty rows get a placeholder; the 1-NN fallback below
            # overwrites them.
            padded = np.where(counts[:, None] > 0, padded, 0)
            out[b, row_order[lo : lo + d2.shape[0]]] = padded
            empty_rows = np.flatnonzero(counts == 0)
            if empty_rows.size:
                empties.append(row_order[lo + empty_rows])
        if empties:
            # Empty balls fall back to the global nearest candidate —
            # a 1-NN query (ties by index, matching np.argmin).
            empty_idx = np.concatenate(empties)
            out[b, empty_idx] = index.query_knn_batch(
                cloud_q[empty_idx], 1, workspace=workspace, stats=stats
            )
    return out
