"""Runtime lock-order sanitizer for the threaded serving stack.

:class:`LockOrderWatchdog` wraps the serving locks
(``RequestQueue.condition``, ``InferenceServer._dispatch_lock``,
``InferenceServer._records_lock``, ``ServerFleet._cond``) in thin
proxies that record, per thread, which locks are held when another is
acquired.  The observed acquisition-order edges are the runtime twin
of the static lock-order graph computed by
:class:`repro.lint.concurrency.ProjectContext` (rule CONC-502); the
two cross-validate:

- an **order violation** is a pair of locks observed in both orders at
  runtime (the dynamic analogue of a CONC-502 cycle), or a plain
  ``Lock`` re-acquired by the thread already holding it — the watchdog
  refuses that acquire with :class:`LockOrderViolation` instead of
  letting the test deadlock;
- a **contradiction** is an observed edge ``A -> B`` where the static
  graph proves a path ``B => A``: whichever layer is wrong, the
  serving stack's documented ordering no longer matches reality.

Hold-times and acquisition counts are folded into a
:class:`~repro.observability.metrics.MetricsRegistry` under
``lockwatch_acquisitions_total{lock=}``,
``lockwatch_hold_seconds{lock=}`` and ``lockwatch_violations_total``
so the chaos harness can export them alongside the serving metrics.

The watchdog is test-infrastructure, not a production wrapper: proxies
add two dict operations per acquire, which is fine under pytest and
the chaos smoke but is deliberately kept out of the serving hot path
by default.  Enable it for the whole test suite with
``REPRO_LOCKWATCH=1`` (see ``tests/conftest.py``) or per-run via
``repro lockwatch-report``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "LockOrderViolation",
    "LockOrderWatchdog",
    "static_lock_order",
]

#: Hold-time buckets: serving locks are held for microseconds; one
#: second means a blocking call leaked under a lock (CONC-505).
HOLD_BUCKETS: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
)


class LockOrderViolation(RuntimeError):
    """Raised when an acquire would deadlock (plain ``Lock`` re-entry).

    Order inversions between *different* locks are recorded and
    surfaced through :meth:`LockOrderWatchdog.report` instead of
    raising: raising inside an arbitrary acquire site would poison
    unrelated state mid-update, whereas a same-thread re-acquire of a
    non-reentrant lock would hang the test forever, so only that case
    refuses loudly.
    """


@dataclass
class _HeldEntry:
    """One live acquisition on one thread's lock stack."""

    name: str
    since: float


class _ThreadState(threading.local):
    """Per-thread stack of currently held (proxied) locks."""

    def __init__(self) -> None:
        self.stack: List[_HeldEntry] = []


class _LockProxy:
    """Wraps a non-reentrant :class:`threading.Lock`."""

    reentrant = False

    def __init__(
        self,
        inner: Any,
        name: str,
        watchdog: "LockOrderWatchdog",
    ) -> None:
        self._inner = inner
        self._name = name
        self._watchdog = watchdog

    def acquire(
        self, blocking: bool = True, timeout: float = -1
    ) -> bool:
        self._watchdog._before_acquire(self._name, self.reentrant)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._watchdog._acquired(self._name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._watchdog._released(self._name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_LockProxy":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class _ConditionProxy(_LockProxy):
    """Wraps a :class:`threading.Condition` (reentrant lock inside).

    ``wait``/``wait_for`` release the underlying lock for the duration
    of the sleep, so the proxy pops the hold segment before blocking
    and starts a fresh one on wake — otherwise every wait would count
    as a multi-second hold and drown the histogram.
    """

    reentrant = True

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._watchdog._suspend(self._name)
        try:
            return self._inner.wait(timeout)
        finally:
            self._watchdog._resume(self._name)

    def wait_for(
        self, predicate: Any, timeout: Optional[float] = None
    ) -> Any:
        # Re-implemented on the proxy so the per-wakeup suspend
        # bookkeeping stays correct; the predicate re-check loop runs
        # here with the lock held, like threading.Condition.wait_for.
        end = None
        if timeout is not None:
            end = time.perf_counter() + timeout
        result = predicate()
        while not result:
            remaining = None
            if end is not None:
                remaining = end - time.perf_counter()
                if remaining <= 0.0:
                    break
            self.wait(remaining)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


@dataclass
class LockWatchReport:
    """Snapshot of everything the watchdog observed."""

    edges: List[Tuple[str, str, int]] = field(default_factory=list)
    acquisitions: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    contradictions: List[str] = field(default_factory=list)
    static_edges: List[Tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": [
                {"held": a, "acquired": b, "count": n}
                for a, b, n in self.edges
            ],
            "acquisitions": dict(sorted(self.acquisitions.items())),
            "violations": list(self.violations),
            "contradictions": list(self.contradictions),
            "static_edges": [
                {"before": a, "after": b} for a, b in self.static_edges
            ],
        }


class LockOrderWatchdog:
    """Records runtime lock-acquisition order and checks it against
    the static CONC-502 graph.

    Parameters
    ----------
    static_edges:
        ``(before, after)`` pairs from
        :meth:`repro.lint.concurrency.ProjectContext.lock_order_edges`
        (or :func:`static_lock_order`).  Observed edges whose reverse
        is reachable in this graph are reported as contradictions.
    metrics:
        Optional registry receiving ``lockwatch_*`` series.
    """

    def __init__(
        self,
        static_edges: Iterable[Tuple[str, str]] = (),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = metrics
        self.static_edges: List[Tuple[str, str]] = sorted(
            set(static_edges)
        )
        self._static_adj: Dict[str, Set[str]] = {}
        for before, after in self.static_edges:
            self._static_adj.setdefault(before, set()).add(after)
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self.edges: Dict[Tuple[str, str], int] = {}
        self.acquisitions: Dict[str, int] = {}
        self.violations: List[str] = []
        self.contradictions: List[str] = []

    # Wrapping --------------------------------------------------------

    def wrap_lock(self, lock: Any, name: str) -> _LockProxy:
        if isinstance(lock, (_LockProxy, _ConditionProxy)):
            return lock
        return _LockProxy(lock, name, self)

    def wrap_condition(self, cond: Any, name: str) -> _ConditionProxy:
        if isinstance(cond, _ConditionProxy):
            return cond
        return _ConditionProxy(cond, name, self)

    def instrument_server(self, server: Any) -> None:
        """Swap an :class:`InferenceServer`'s locks for proxies.

        Must run before ``start()`` so worker threads only ever see
        the proxies.
        """
        server._dispatch_lock = self.wrap_lock(
            server._dispatch_lock, "InferenceServer._dispatch_lock"
        )
        server._records_lock = self.wrap_lock(
            server._records_lock, "InferenceServer._records_lock"
        )
        server.queue.condition = self.wrap_condition(
            server.queue.condition, "RequestQueue.condition"
        )

    def instrument_fleet(self, fleet: Any) -> None:
        """Swap a :class:`ServerFleet`'s lock plus every replica's."""
        fleet._cond = self.wrap_condition(
            fleet._cond, "ServerFleet._cond"
        )
        for replica in fleet.replicas:
            self.instrument_server(replica.server)

    # Recording -------------------------------------------------------

    def _before_acquire(self, name: str, reentrant: bool) -> None:
        stack = self._state.stack
        held_names = [entry.name for entry in stack]
        if name in held_names:
            if reentrant:
                return
            message = (
                f"non-reentrant lock '{name}' re-acquired by a "
                "thread already holding it (would deadlock)"
            )
            self._record_violation(message)
            raise LockOrderViolation(message)
        for held in dict.fromkeys(held_names):
            self._record_edge(held, name)

    def _record_edge(self, held: str, acquired: str) -> None:
        with self._lock:
            first = (held, acquired) not in self.edges
            self.edges[(held, acquired)] = (
                self.edges.get((held, acquired), 0) + 1
            )
            inverted = (acquired, held) in self.edges
        if not first:
            return
        if inverted:
            self._record_violation(
                f"lock order inversion: '{held}' -> '{acquired}' "
                f"and '{acquired}' -> '{held}' both observed"
            )
        if self._static_path(acquired, held):
            note = (
                f"observed '{held}' -> '{acquired}' but the static "
                f"graph orders '{acquired}' before '{held}'"
            )
            with self._lock:
                self.contradictions.append(note)

    def _static_path(self, start: str, goal: str) -> bool:
        seen = {start}
        frontier: Deque[str] = deque([start])
        while frontier:
            node = frontier.popleft()
            if node == goal:
                return True
            for nxt in self._static_adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _record_violation(self, message: str) -> None:
        with self._lock:
            self.violations.append(message)
        if self.metrics is not None:
            self.metrics.counter("lockwatch_violations_total").inc()

    def _acquired(self, name: str) -> None:
        self._state.stack.append(
            _HeldEntry(name, time.perf_counter())
        )
        with self._lock:
            self.acquisitions[name] = (
                self.acquisitions.get(name, 0) + 1
            )
        if self.metrics is not None:
            self.metrics.counter(
                "lockwatch_acquisitions_total", lock=name
            ).inc()

    def _released(self, name: str) -> None:
        stack = self._state.stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].name == name:
                entry = stack.pop(index)
                self._observe_hold(name, entry.since)
                return

    def _suspend(self, name: str) -> None:
        # Condition.wait releases the underlying lock: close the hold
        # segment so wall-clock sleeping is not billed as holding.
        self._released(name)

    def _resume(self, name: str) -> None:
        self._state.stack.append(
            _HeldEntry(name, time.perf_counter())
        )

    def _observe_hold(self, name: str, since: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                "lockwatch_hold_seconds",
                buckets=HOLD_BUCKETS,
                lock=name,
            ).observe(max(0.0, time.perf_counter() - since))

    # Reporting -------------------------------------------------------

    def report(self) -> LockWatchReport:
        with self._lock:
            edges = sorted(
                (a, b, n) for (a, b), n in self.edges.items()
            )
            return LockWatchReport(
                edges=edges,
                acquisitions=dict(self.acquisitions),
                violations=list(self.violations),
                contradictions=list(self.contradictions),
                static_edges=list(self.static_edges),
            )

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if anything was observed
        out of order (violations or static-graph contradictions)."""
        snapshot = self.report()
        problems = snapshot.violations + snapshot.contradictions
        if problems:
            raise LockOrderViolation(
                "lock-order sanitizer found "
                f"{len(problems)} problem(s):\n  "
                + "\n  ".join(problems)
            )


def static_lock_order() -> List[Tuple[str, str]]:
    """Static lock-order edges for the installed ``repro`` package.

    Runs the CONC-5xx :class:`ProjectContext` over the package's own
    source tree, so the watchdog validates against exactly the code
    that is executing, wherever it is installed.
    """
    import os

    import repro
    from repro.lint.concurrency import ProjectContext

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return ProjectContext.from_paths([root]).lock_order_edges()
