"""PERF rules: keep the Morton kernels O(W) and vectorized.

EdgePC's entire speedup story (paper Secs. 5.1-5.2) is replacing
O(N^2) brute-force sampling/search with vectorized Morton-window
kernels, so a Python-level per-point loop sneaking into a kernel
module silently undoes the contribution.  These rules watch the hot
kernel modules of ``repro.core`` / ``repro.nn`` for the three ways
that happens: data-dependent nested loops, list-append accumulation,
and scalar ``float()`` boxing inside loops.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding

#: Packages whose modules are hot-path kernels by default.
HOT_PACKAGES: Tuple[str, ...] = ("repro.core.", "repro.nn.")

#: Modules under the hot packages that are *not* per-batch kernels:
#: offline exploration, configuration, model graph construction, and
#: training plumbing, where Python loops over layers are idiomatic.
NON_KERNEL_MODULES = frozenset(
    {
        "repro.core.dse",
        "repro.core.pipeline",
        "repro.nn.autograd",
        "repro.nn.dgcnn",
        "repro.nn.layers",
        "repro.nn.losses",
        "repro.nn.optim",
        "repro.nn.pointnet",
        "repro.nn.pointnet2",
        "repro.nn.recorder",
        "repro.nn.serialization",
    }
)


def in_hot_kernel(module: str) -> bool:
    """True for modules the PERF rules police."""
    if module in NON_KERNEL_MODULES:
        return False
    return any(module.startswith(pkg) for pkg in HOT_PACKAGES)


def _is_constant_expr(node: ast.AST) -> bool:
    """Conservative "bounded by a compile-time constant" test.

    Accepts literals, ALL_CAPS names/attributes (module constants),
    and unary/binary arithmetic over those.
    """
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id.isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper()
    if isinstance(node, ast.UnaryOp):
        return _is_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expr(node.left) and _is_constant_expr(
            node.right
        )
    return False


def is_constant_iterable(node: ast.AST) -> bool:
    """True when a ``for`` target iterates a constant-bounded source:
    a literal tuple/list, an ALL_CAPS constant, or ``range``/
    ``enumerate``/``zip``/``reversed`` over such sources."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return True
    if _is_constant_expr(node):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("range", "enumerate", "zip", "reversed"):
            return all(
                _is_constant_expr(arg) or is_constant_iterable(arg)
                for arg in node.args
            )
    return False


def _is_data_dependent_loop(loop: ast.AST) -> bool:
    if isinstance(loop, ast.While):
        return True
    if isinstance(loop, ast.For):
        return not is_constant_iterable(loop.iter)
    return False


def _loops(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            yield node


def _inner_loops(loop: ast.AST) -> Iterator[ast.AST]:
    body = loop.body + getattr(loop, "orelse", [])
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.While)):
                yield node


@register
class NestedDataLoopRule(Rule):
    """PERF-101: data-dependent nested Python loops in a kernel."""

    rule_id = "PERF-101"
    severity = "warning"
    title = "nested data-dependent Python loops in a hot kernel"
    rationale = (
        "Paper Secs. 5.1-5.2: Morton kernels must stay O(W) and "
        "vectorized; a nested Python loop over data-sized iterables "
        "is the O(N^2) brute-force shape EdgePC exists to avoid."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_hot_kernel(ctx.module):
            return
        reported = set()
        for outer in _loops(ctx.tree):
            if not _is_data_dependent_loop(outer):
                continue
            for inner in _inner_loops(outer):
                if id(inner) in reported:
                    continue
                if _is_data_dependent_loop(inner):
                    reported.add(id(inner))
                    yield ctx.finding(
                        self,
                        inner,
                        "data-dependent loop nested inside another "
                        "data-dependent loop; vectorize with NumPy "
                        "or bound one loop by a constant",
                    )


@register
class AppendAccumulationRule(Rule):
    """PERF-102: list-append accumulation inside a kernel loop."""

    rule_id = "PERF-102"
    severity = "warning"
    title = "list-append accumulation in a hot-kernel loop"
    rationale = (
        "Per-element .append() in a kernel loop reboxes array data "
        "into Python objects; hot paths must preallocate or use "
        "vectorized NumPy ops (paper Sec. 5.1 'fully parallel')."
    )

    _METHODS = ("append", "extend", "insert")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_hot_kernel(ctx.module):
            return
        for node in _calls_in_any_loop(ctx.tree):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f".{node.func.attr}() accumulation inside a "
                    "kernel loop; preallocate the output array "
                    "or use a vectorized expression",
                )


@register
class ScalarFloatBoxingRule(Rule):
    """PERF-103: bare ``float()`` boxing inside a kernel loop."""

    rule_id = "PERF-103"
    severity = "warning"
    title = "scalar float() call in a hot-kernel loop"
    rationale = (
        "Bare float() in a per-point loop forces float64 scalar "
        "boxing and an implicit upcast of downstream array math; "
        "keep per-point arithmetic inside dtype-stable NumPy ops."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_hot_kernel(ctx.module):
            return
        for node in _calls_in_any_loop(ctx.tree):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                yield ctx.finding(
                    self,
                    node,
                    "bare float() inside a kernel loop boxes a "
                    "scalar and upcasts to float64; hoist it out "
                    "of the loop or vectorize",
                )


#: Names that conventionally hold the batch extent.  A ``for`` loop
#: over ``range()`` of one of these (or of ``<expr>.shape[0]``) is the
#: per-cloud dispatch shape the batched kernel layer replaced.
BATCH_NAMES = frozenset(
    {
        "batch",
        "batch_size",
        "num_batches",
        "n_batches",
        "nbatch",
        "batches",
        "num_clouds",
        "n_clouds",
    }
)


def _is_batch_extent(node: ast.AST) -> bool:
    """``batch``-style name or a ``<expr>.shape[0]`` subscript."""
    if isinstance(node, ast.Name):
        return node.id in BATCH_NAMES
    if isinstance(node, ast.Subscript):
        index = node.slice
        return (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
            and isinstance(index, ast.Constant)
            and index.value == 0
        )
    return False


@register
class PerBatchLoopRule(Rule):
    """PERF-104: a per-cloud Python loop over the batch dimension."""

    rule_id = "PERF-104"
    severity = "warning"
    title = "per-cloud Python loop over the batch dimension"
    rationale = (
        "The batched kernel layer dispatches whole (B, N, 3) batches "
        "in single NumPy calls; `for b in range(batch)` re-enters the "
        "interpreter once per cloud and pays B dispatch overheads. "
        "Call the *_batch kernel, or keep chunked loops to 3-arg "
        "range(start, stop, step) strides."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_hot_kernel(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)):
                continue
            call = node.iter
            if not (
                isinstance(call.func, ast.Name)
                and call.func.id == "range"
                and len(call.args) == 1
            ):
                continue
            if _is_batch_extent(call.args[0]):
                yield ctx.finding(
                    self,
                    node,
                    "Python loop over the batch dimension; use the "
                    "batched (B, N, ...) kernel instead of a "
                    "per-cloud range() loop",
                )


#: Packages whose code must never materialize a full pairwise
#: distance matrix: the exact samplers and neighbor engines, and the
#: models that call them, where a broadcast ``(N, M)`` intermediate at
#: 40k+ points is exactly the memory blow-up the chunked / grid fast
#: paths exist to avoid.  Unlike the loop rules, this one has no
#: non-kernel exemptions: model graph code is where an untiled
#: interpolation matrix once hid.
PAIRWISE_PACKAGES: Tuple[str, ...] = (
    "repro.core.",
    "repro.sampling.",
    "repro.neighbors.",
    "repro.nn.",
)

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.MatMult)


def in_pairwise_kernel(module: str) -> bool:
    """True for modules the pairwise-broadcast rule polices."""
    return any(module.startswith(pkg) for pkg in PAIRWISE_PACKAGES)


def _is_none_index(node: ast.AST) -> bool:
    """``None`` literal or ``np.newaxis``-style attribute."""
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    return isinstance(node, ast.Attribute) and node.attr == "newaxis"


def _broadcast_axes(
    node: ast.AST,
) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """A subscript's inserted and kept axes, counted from the end.

    ``x[:, None]`` -> new ``{-1}``, kept ``{-2}``; ``y[None, :]`` ->
    new ``{-2}``, kept ``{-1}``.  ``None`` for a subscript that
    inserts no axis (or nothing but new axes).
    """
    if not isinstance(node, ast.Subscript):
        return None
    index = node.slice
    if not isinstance(index, ast.Tuple) or len(index.elts) < 2:
        return None
    width = len(index.elts)
    new = frozenset(
        pos - width for pos, elt in enumerate(index.elts) if _is_none_index(elt)
    )
    if not new or len(new) == width:
        return None
    kept = frozenset(range(-width, 0)) - new
    return new, kept


def _is_chunk_stride_loop(node: ast.AST) -> bool:
    """A ``for lo in range(start, stop[, step])`` tile loop — the
    chunking idiom that bounds a pairwise block's row count."""
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
        and len(node.iter.args) >= 2
    )


def _is_arith_binop(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS)


def _matches_pairwise_broadcast(root: ast.BinOp) -> bool:
    """True when the arithmetic tree under ``root`` subtracts and
    combines two operands that each keep an axis the other inserts —
    the ``a[:, None] - b[None, :]`` / matmul-expansion shape, batched
    (``q[:, :, None]`` vs ``c[:, None, :]``) or over trailing xyz
    (``a[:, None, :]`` vs ``b[None, :, :]``), whose result spans every
    (query, candidate) pair at once.  Broadcasting a per-cloud scalar
    (``x[:, None, None]``) over a batch keeps no such axis and is not
    flagged."""
    has_sub = False
    operands = []
    for node in ast.walk(root):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            has_sub = True
        axes = _broadcast_axes(node)
        if axes is not None:
            operands.append(axes)
    if not has_sub:
        return False
    return any(
        new_a & kept_b and new_b & kept_a
        for new_a, kept_a in operands
        for new_b, kept_b in operands
    )


@register
class PairwiseBroadcastRule(Rule):
    """PERF-105: an unchunked full pairwise-distance broadcast."""

    rule_id = "PERF-105"
    severity = "warning"
    title = "full pairwise-distance broadcast without a chunk bound"
    rationale = (
        "Broadcasting queries against candidates in one expression "
        "materializes the whole (N, M) distance matrix — ~13 GB for "
        "a 40k self-query — where the chunked tile loops and the "
        "grid engine keep peak memory at a workspace-sized block. "
        "Tile the query axis with a strided range() loop (see "
        "neighbors.batched._distance_chunks) or use the grid kernels."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_pairwise_kernel(ctx.module):
            return
        yield from self._scan(ctx, ctx.tree, chunked=False)

    def _scan(
        self, ctx: ModuleContext, node: ast.AST, chunked: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            inside_chunk = chunked or _is_chunk_stride_loop(child)
            if not inside_chunk and _is_arith_binop(child):
                if _matches_pairwise_broadcast(child):
                    yield ctx.finding(
                        self,
                        child,
                        "pairwise broadcast materializes the full "
                        "(N, M) distance matrix; bound the query "
                        "axis with a strided range() chunk loop or "
                        "route through the grid engine",
                    )
                # Either way this maximal arithmetic tree is decided;
                # its sub-expressions must not re-match.
                continue
            yield from self._scan(ctx, child, inside_chunk)


def _calls_in_any_loop(tree: ast.AST) -> Iterator[ast.Call]:
    """Call nodes inside at least one loop body, each yielded once
    (loop headers excluded)."""
    seen = set()
    for loop in _loops(tree):
        body = loop.body + getattr(loop, "orelse", [])
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and id(node) not in seen:
                    seen.add(id(node))
                    yield node
