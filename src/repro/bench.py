"""Kernel micro-benchmarks: the batched engine vs per-cloud loops.

``repro bench`` times every hot kernel both ways — one batched NumPy
dispatch over ``(B, N, 3)`` versus the pre-batching shape, a Python
loop of per-cloud calls — at a fixed paper-scale workload, and writes
the results to ``BENCH_kernels.json``.  CI re-runs the suite and fails
when a kernel's batched-vs-looped *speedup ratio* drops below the
committed baseline by more than the tolerance band.  Ratios, not
absolute seconds, are compared: both variants run on the same machine
in the same process, so the ratio cancels host speed and stays
meaningful across CI runners.

Several per-cloud wrappers (``farthest_point_sample``, ``knn``,
``MortonNeighborSearch.search_ranks``) now delegate to the batched
kernels, so looping them would time the new code twice.  For those the
looped side is a ``_reference_*`` function below that preserves the
pre-batching per-cloud algorithm verbatim — the bench keeps measuring
the real before/after delta.

The ``edgeconv`` row compares two forms of one eval-mode EdgeConv
feature kernel rather than a batch against a loop: "batched" is the
delayed-aggregation inference form, "looped" the per-edge MLP over
``(B, N, k, 2C)`` edge tensors it replaces.  Their outputs are checked
against :data:`EDGECONV_TOLERANCE` on every run.

Timing uses ``time.perf_counter`` best-of-``repeats`` — the standard
micro-benchmark estimator, robust to one-off scheduler noise.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.core import morton
from repro.core.batched import structurize_batch
from repro.core.neighbor import MortonNeighborSearch, window_ranks
from repro.core.pipeline import EdgePCConfig
from repro.core.sampler import MortonSampler, exact_interpolation_weights
from repro.core.structurize import MortonOrder
from repro.core.workspace import Workspace
from repro.neighbors.batched import (
    ball_query_batch,
    ball_query_grid_batch,
    knn_batch,
    knn_grid_batch,
)
from repro.nn.autograd import Tensor, no_grad
from repro.nn.dgcnn import EdgeConv
from repro.nn.functional import edge_features, max_pool_neighbors
from repro.nn.layers import BatchNorm
from repro.sampling.fps import (
    farthest_point_sample_batch,
    farthest_point_sample_fast_batch,
)
from repro.sampling.uniform import uniform_stride_indices

SCHEMA_VERSION = 1

#: Default fraction a kernel's speedup may fall below the committed
#: baseline before the regression gate fails.  Micro-benchmark ratios
#: on shared CI runners are noisy; half the baseline ratio is a real
#: regression, not jitter.
DEFAULT_TOLERANCE = 0.5

#: Max |difference| between the two EdgeConv forms, relative to the
#: largest |output|: they differ only by float reassociation.
EDGECONV_TOLERANCE = 1e-12

#: Channels of the benched EdgeConv (DGCNN's last module: 32 -> 64).
EDGECONV_CHANNELS = (32, 64)


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# Pre-batching reference implementations ------------------------------
#
# These are the per-cloud algorithms the repo shipped before the
# batched kernel layer, kept verbatim so the bench's "looped" column
# stays an honest before/after comparison.


def _reference_window_search(
    points: np.ndarray, order: MortonOrder, query_ranks: np.ndarray,
    k: int, window: int,
) -> np.ndarray:
    candidates = window_ranks(query_ranks, window, len(order))
    sorted_xyz = order.sorted_points(points)
    cand_xyz = sorted_xyz[candidates]  # (Q, W, 3)
    query_xyz = sorted_xyz[np.asarray(query_ranks)]
    d2 = np.sum((cand_xyz - query_xyz[:, None, :]) ** 2, axis=2)
    pick = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.arange(candidates.shape[0])[:, None]
    return order.original_index_of(candidates[rows, pick])


def _reference_fps(
    points: np.ndarray, num_samples: int, start_index: int
) -> np.ndarray:
    selected = np.empty(num_samples, dtype=np.int64)
    selected[0] = start_index
    distance = np.sum((points - points[start_index]) ** 2, axis=1)
    distance[start_index] = -1.0
    for i in range(1, num_samples):
        farthest = int(np.argmax(distance))
        selected[i] = farthest
        delta = np.sum((points - points[farthest]) ** 2, axis=1)
        np.minimum(distance, delta, out=distance)
        distance[selected[: i + 1]] = -1.0
    return selected


def _reference_knn(
    queries: np.ndarray, candidates: np.ndarray, k: int
) -> np.ndarray:
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    c_sq = np.sum(candidates**2, axis=1)[None, :]
    for lo in range(0, queries.shape[0], 2048):
        block = queries[lo : lo + 2048]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ candidates.T
            + c_sq
        )
        np.maximum(d2, 0.0, out=d2)
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        row = np.arange(d2.shape[0])[:, None]
        sort = np.argsort(d2[row, part], axis=1, kind="stable")
        out[lo : lo + d2.shape[0]] = part[row, sort]
    return out


def _edgeconv_pair(
    pts: np.ndarray, k: int, workspace: Workspace,
    rng: np.random.Generator,
) -> tuple:
    """The two forms of one eval-mode feature-space EdgeConv kernel on
    a fixed kNN graph, BatchNorm statistics randomized (any sign of
    gamma).  Asserts they agree to :data:`EDGECONV_TOLERANCE`."""
    c_in, c_out = EDGECONV_CHANNELS
    module = EdgeConv(
        1, c_in, (c_out,), k, EdgePCConfig.baseline(), rng, workspace
    ).eval()
    for layer in module.mlp.layers:
        if isinstance(layer, BatchNorm):
            layer.gamma.data[:] = rng.normal(size=c_out)
            layer.beta.data[:] = rng.normal(size=c_out)
            layer.running_mean = rng.normal(size=c_out)
            layer.running_var = rng.uniform(0.1, 2.0, size=c_out)
    features = pts @ rng.normal(size=(3, c_in))
    graph = knn_batch(features, features, k, workspace)

    def delayed():
        return module.delayed_aggregation(features, graph).data

    def per_edge():
        with no_grad():
            edges = edge_features(Tensor(features), graph)
            return max_pool_neighbors(module.mlp(edges)).data

    reference = per_edge()
    error = np.abs(delayed() - reference).max()
    if error > EDGECONV_TOLERANCE * np.abs(reference).max():
        raise AssertionError(
            f"edgeconv inference form diverged from per-edge by {error}"
        )
    return delayed, per_edge


def run_suite(
    batch: int = 8,
    points: int = 1024,
    k: int = 16,
    repeats: int = 5,
    seed: int = 0,
) -> Dict[str, object]:
    """Time the batched kernels against per-cloud loops.

    Returns the result document written to ``BENCH_kernels.json``:
    per-kernel best-of-``repeats`` wall-clock for both variants and
    their ratio (``looped_s / batched_s``).
    """
    if batch < 1 or points < 8:
        raise ValueError("need batch >= 1 and points >= 8")
    if not 1 <= k <= points:
        raise ValueError(f"k must be in [1, {points}], got {k}")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(batch, points, 3))
    cells = rng.integers(0, 1 << 10, size=(batch, points, 3))
    codes = morton.encode(cells)
    num_samples = max(1, points // 4)
    num_fps = max(1, points // 8)
    sampler = MortonSampler()
    window = min(points, 2 * k)
    workspace = Workspace()
    searcher = MortonNeighborSearch(k, window, workspace=workspace)
    batch_order = structurize_batch(pts)
    cloud_orders = [batch_order.cloud(b) for b in range(batch)]
    query_ranks = uniform_stride_indices(points, num_samples)

    pairs: Dict[str, tuple] = {
        "morton_encode": (
            lambda: morton.encode(cells),
            lambda: [morton.encode(cells[b]) for b in range(batch)],
        ),
        "morton_sort": (
            lambda: np.argsort(codes, axis=1, kind="stable"),
            lambda: [
                np.argsort(codes[b], kind="stable")
                for b in range(batch)
            ],
        ),
        "morton_sample": (
            lambda: sampler.sample_batch(pts, num_samples),
            lambda: [
                sampler.sample(pts[b], num_samples)
                for b in range(batch)
            ],
        ),
        "window_search": (
            lambda: searcher.search_ranks_batch(
                pts, batch_order, query_ranks
            ),
            lambda: [
                _reference_window_search(
                    pts[b], cloud_orders[b], query_ranks, k, window
                )
                for b in range(batch)
            ],
        ),
        "fps": (
            lambda: farthest_point_sample_batch(
                pts, num_fps, start_index=0
            ),
            lambda: [
                _reference_fps(pts[b], num_fps, 0)
                for b in range(batch)
            ],
        ),
        "knn": (
            lambda: knn_batch(pts, pts, k, workspace),
            lambda: [
                _reference_knn(pts[b], pts[b], k)
                for b in range(batch)
            ],
        ),
        "edgeconv": _edgeconv_pair(pts, k, workspace, rng),
    }

    kernels: Dict[str, Dict[str, float]] = {}
    for name, (batched, looped) in pairs.items():
        batched()  # warm up caches and the workspace pool
        batched_s = _best_of(batched, repeats)
        looped_s = _best_of(looped, repeats)
        kernels[name] = {
            "batched_s": batched_s,
            "looped_s": looped_s,
            "speedup": looped_s / batched_s,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "batched_kernels",
        "params": {
            "batch": batch,
            "points": points,
            "k": k,
            "repeats": repeats,
            "seed": seed,
        },
        "kernels": kernels,
    }


#: Default point counts for the large-N exact-engine suite.  The CI
#: ratio gate (``repro bench --suite large-n``) keys off the 40960
#: entry; 8192 sits just above the dispatch threshold and 102400 shows
#: the asymptotic trend.
LARGE_N_SIZES = (8192, 40960, 102400)

#: Query-ball radius for the large-N ball-query pair.  On the suite's
#: unit-Gaussian clouds this yields roughly ``k`` points per ball at
#: N=40960, matching the first SA level's paper-scale workload.
LARGE_N_RADIUS = 0.1


def run_large_n_suite(
    sizes: tuple = LARGE_N_SIZES,
    k: int = 16,
    repeats: int = 2,
    seed: int = 0,
) -> Dict[str, object]:
    """Time the large-N exact fast engines against the brute kernels.

    For each cloud size ``N`` (one unit-Gaussian cloud, ``N // 16``
    FPS picks and kNN / ball queries): the pruning-FPS and grid
    neighbor engines versus the production brute kernels they displace
    above :attr:`~repro.core.pipeline.EdgePCConfig.exact_fast_threshold`.
    ``interp_exact`` is the FP decoder's exact 3-NN interpolation of
    all ``N`` points from the ``N // 16`` picks, through the grid and
    the tiled brute engine of the exact-kNN seam.  Both sides return
    bit-identical indices (asserted here on every run), so the ratio
    is a pure like-for-like speedup.

    Returns a ``{"params", "kernels"}`` section dict; kernels are keyed
    ``"<op>/<N>"`` with ``brute_s`` / ``fast_s`` / ``speedup``.
    """
    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n < 64 for n in sizes):
        raise ValueError("sizes must be point counts >= 64")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    workspace = Workspace()
    kernels: Dict[str, Dict[str, float]] = {}
    for n_points in sizes:
        pts = rng.normal(size=(1, n_points, 3))
        num_fps = max(1, n_points // 16)
        queries = pts[:, uniform_stride_indices(n_points, num_fps)]

        def fps_fast():
            return farthest_point_sample_fast_batch(
                pts, num_fps, start_index=0
            )

        def fps_brute():
            return farthest_point_sample_batch(
                pts, num_fps, start_index=0
            )

        def grid_knn():
            return knn_grid_batch(queries, pts, k, workspace=workspace)

        def brute_knn():
            return knn_batch(queries, pts, k, workspace)

        def grid_interp():
            return exact_interpolation_weights(
                pts, queries, 3, "fast", workspace
            )[0]

        def brute_interp():
            return exact_interpolation_weights(
                pts, queries, 3, "brute", workspace
            )[0]

        def grid_ball():
            return ball_query_grid_batch(
                queries, pts, LARGE_N_RADIUS, k, workspace=workspace
            )

        def brute_ball():
            return ball_query_batch(
                queries, pts, LARGE_N_RADIUS, k, workspace
            )

        for op, fast_fn, brute_fn in (
            ("fps_fast", fps_fast, fps_brute),
            ("knn_grid", grid_knn, brute_knn),
            ("ball_query_grid", grid_ball, brute_ball),
            ("interp_exact", grid_interp, brute_interp),
        ):
            fast_out = fast_fn()  # warm up pools; keep for identity
            brute_out = brute_fn()
            if not np.array_equal(fast_out, brute_out):
                raise AssertionError(
                    f"{op} diverged from brute at N={n_points}"
                )
            fast_s = _best_of(fast_fn, repeats)
            brute_s = _best_of(brute_fn, repeats)
            kernels[f"{op}/{n_points}"] = {
                "fast_s": fast_s,
                "brute_s": brute_s,
                "speedup": brute_s / fast_s,
            }
    return {
        "params": {
            "sizes": list(sizes),
            "k": k,
            "repeats": repeats,
            "seed": seed,
            "radius": LARGE_N_RADIUS,
        },
        "kernels": kernels,
    }


#: Default scene sizes for the partition suite.  The CI ratio gate
#: (``repro bench --suite partition``) keys off these entries; they
#: are deliberately modest — the suite *prices* the monolithic run
#: instead of executing it, so small scenes already exercise the full
#: scatter/price/project path.
PARTITION_SIZES = (25_000, 50_000)

#: Default chunk core budget for the partition suite (a chunk batch
#: is ``chunk_points`` plus halo and padding context).
PARTITION_CHUNK_POINTS = 4096

#: Default halo width (== the bench model's receptive field, the sum
#: of its SA radii) for the partition suite.
PARTITION_HALO_WIDTH = 0.12


def run_partition_suite(
    sizes: tuple = PARTITION_SIZES,
    chunk_points: int = PARTITION_CHUNK_POINTS,
    halo_width: float = PARTITION_HALO_WIDTH,
    seed: int = 0,
) -> Dict[str, object]:
    """Price chunked scene execution against the monolithic projection.

    For each scene size ``N``: a tiled-room scene is partitioned into
    Morton chunks, one representative chunk batch is *recorded*
    through a scene-tuned PointNet++ pipeline, and
    :func:`repro.partition.price_partition` projects both sides on the
    device cost model.  Unlike the wall-clock suites, every number
    here is deterministic **simulated seconds** — the ratio gate is
    machine-independent by construction.

    The bench model's SA radii sum to ``halo_width``, so the plan's
    halo covers exactly the model receptive field, and its config
    drops ``exact_fast_threshold`` below the chunk size so chunk
    batches record the same fast engines the monolithic run would
    dispatch — keeping the projection like-for-like.

    Returns a ``{"params", "kernels"}`` section dict; kernels are
    keyed ``"scene/<N>"`` with ``chunked_s`` / ``monolithic_s`` /
    ``speedup`` plus the plan's shape.
    """
    from dataclasses import replace as _replace

    from repro.core.pipeline import EdgePCConfig
    from repro.datasets import make_scene
    from repro.nn.pointnet2 import PointNet2Segmentation, SAConfig
    from repro.partition import ScenePartitioner, price_partition
    from repro.pipeline import EdgePCPipeline

    sizes = tuple(int(n) for n in sizes)
    if not sizes or any(n <= chunk_points for n in sizes):
        raise ValueError(
            "sizes must be scene point counts above chunk_points"
        )
    if chunk_points < 64:
        raise ValueError("chunk_points must be at least 64")
    if halo_width <= 0:
        raise ValueError("halo_width must be positive")
    sa_configs = (
        SAConfig(
            ratio=0.25, k=16, radius=halo_width / 3.0,
            mlp=(16, 16, 32),
        ),
        SAConfig(
            ratio=0.25, k=16, radius=2.0 * halo_width / 3.0,
            mlp=(32, 32, 64),
        ),
    )
    config = _replace(
        EdgePCConfig.baseline(), exact_fast_threshold=1024
    )
    model = PointNet2Segmentation(
        num_classes=13,
        sa_configs=sa_configs,
        edgepc=config,
        rng=np.random.default_rng(seed),
    )
    pipeline = EdgePCPipeline(model)
    partitioner = ScenePartitioner(
        chunk_points=chunk_points, halo_width=halo_width
    )
    kernels: Dict[str, Dict[str, float]] = {}
    for n_points in sizes:
        scene = make_scene(n_points, seed=seed)
        plan = partitioner.plan(scene.xyz)
        report = price_partition(pipeline, scene.xyz, plan)
        kernels[f"scene/{n_points}"] = {
            "chunked_s": report.chunked_s,
            "monolithic_s": report.monolithic_s,
            "speedup": report.speedup,
            "per_chunk_s": report.per_chunk_s,
            "num_chunks": float(report.num_chunks),
            "chunk_size": float(report.chunk_size),
            "halo_ratio": report.halo_ratio,
        }
    return {
        "params": {
            "sizes": list(sizes),
            "chunk_points": chunk_points,
            "halo_width": halo_width,
            "seed": seed,
        },
        "kernels": kernels,
    }


def format_partition_results(section: Dict[str, object]) -> str:
    """Human-readable table of one partition suite section."""
    params = section["params"]
    lines = [
        "scene partition suite "
        f"(sizes={params['sizes']}, "
        f"chunk_points={params['chunk_points']}, "
        f"halo_width={params['halo_width']}; simulated seconds)",
        f"{'scene':<16}{'chunked':>12}{'monolithic':>12}"
        f"{'speedup':>10}{'halo':>8}",
    ]
    for name, entry in section["kernels"].items():
        lines.append(
            f"{name:<16}"
            f"{entry['chunked_s']:>11.3f}s"
            f"{entry['monolithic_s']:>11.3f}s"
            f"{entry['speedup']:>9.1f}x"
            f"{entry['halo_ratio']:>8.2f}"
        )
    return "\n".join(lines)


def format_large_n_results(section: Dict[str, object]) -> str:
    """Human-readable table of one large-N suite section."""
    params = section["params"]
    lines = [
        "large-N exact-engine suite "
        f"(sizes={params['sizes']}, k={params['k']}, "
        f"best of {params['repeats']})",
        f"{'kernel':<24}{'fast':>12}{'brute':>12}{'speedup':>10}",
    ]
    for name, entry in section["kernels"].items():
        lines.append(
            f"{name:<24}"
            f"{entry['fast_s'] * 1e3:>10.2f}ms"
            f"{entry['brute_s'] * 1e3:>10.2f}ms"
            f"{entry['speedup']:>9.1f}x"
        )
    return "\n".join(lines)


def format_results(results: Dict[str, object]) -> str:
    """Human-readable tables of one suite run (both sections)."""
    lines: List[str] = []
    if "kernels" in results:
        params = results["params"]
        lines += [
            "batched kernel suite "
            f"(B={params['batch']}, N={params['points']}, "
            f"k={params['k']}, best of {params['repeats']})",
            f"{'kernel':<16}{'batched':>12}"
            f"{'looped':>12}{'speedup':>10}",
        ]
        for name, entry in results["kernels"].items():
            lines.append(
                f"{name:<16}"
                f"{entry['batched_s'] * 1e3:>10.2f}ms"
                f"{entry['looped_s'] * 1e3:>10.2f}ms"
                f"{entry['speedup']:>9.1f}x"
            )
    if "large_n" in results:
        if lines:
            lines.append("")
        lines.append(format_large_n_results(results["large_n"]))
    if "partition" in results:
        if lines:
            lines.append("")
        lines.append(format_partition_results(results["partition"]))
    return "\n".join(lines)


def compare_with_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` against a committed ``baseline``.

    A kernel regresses when its speedup ratio falls below
    ``baseline_speedup * (1 - tolerance)``, or when it disappears from
    the suite.  Returns one message per regression; empty means the
    gate passes.

    Each section (``kernels``, ``large_n``, ``partition``) is gated
    only when the current run produced it, so a ``--suite large-n``
    smoke run can be checked against the full committed baseline.
    Within ``large_n`` and ``partition``, baseline entries for sizes
    the current run did not request (its ``params.sizes``) are
    skipped — those suites are size-parameterized and CI gates a
    subset.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")

    def check(name, entry, current_kernels, prefix=""):
        if name not in current_kernels:
            problems.append(
                f"{prefix}{name}: missing from current suite"
            )
            return
        floor = entry["speedup"] * (1.0 - tolerance)
        got = current_kernels[name]["speedup"]
        if got < floor:
            problems.append(
                f"{prefix}{name}: speedup {got:.2f}x fell below "
                f"{floor:.2f}x (baseline {entry['speedup']:.2f}x "
                f"- {tolerance:.0%} tolerance)"
            )

    problems: List[str] = []
    if "kernels" in current:
        current_kernels = current.get("kernels", {})
        for name, entry in baseline.get("kernels", {}).items():
            check(name, entry, current_kernels)
    for key in ("large_n", "partition"):
        if key not in current:
            continue
        section = current[key]
        sizes = {int(n) for n in section["params"]["sizes"]}
        base = baseline.get(key, {})
        for name, entry in base.get("kernels", {}).items():
            if int(name.rsplit("/", 1)[1]) not in sizes:
                continue
            check(name, entry, section.get("kernels", {}), f"{key}/")
    return problems
