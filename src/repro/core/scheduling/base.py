"""Scheduler interface and shared queue plumbing.

A scheduler is the driver's pending-request queue with a selection policy:
:meth:`Scheduler.add` enqueues an arrival, :meth:`Scheduler.pop_next`
removes and returns the request to dispatch next.  ``pop_next`` receives the
current simulated time because positioning-aware policies on rotating
devices need it (the platter angle is a function of time).

Schedulers see device state only through the narrow views a host OS would
actually have: the last-accessed LBN (for the LBN-based policies) or the
device's positioning-time oracle (for SPTF, which in practice lives in
device firmware — §2.4.10).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.request import Request


class Scheduler(abc.ABC):
    """Queue discipline for pending requests."""

    name: str = "base"

    tracer: Tracer = NULL_TRACER
    """Event sink for selection telemetry (``sched.dispatch`` events).

    Defaults to the shared null tracer; :class:`repro.sim.Simulation`
    attaches its tracer here.  Implementations of :meth:`pop_next` call
    :meth:`_trace_dispatch` after removing a request, guarded by
    ``self.tracer.enabled`` so the untraced hot path pays one branch.
    """

    @abc.abstractmethod
    def add(self, request: Request) -> None:
        """Enqueue an arriving request."""

    @abc.abstractmethod
    def pop_next(self, now: float = 0.0) -> Request:
        """Remove and return the next request to dispatch.

        Raises ``IndexError`` when the queue is empty.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of pending requests."""

    def pending(self) -> List[Request]:
        """Snapshot of pending requests (order unspecified); for tests and
        instrumentation only."""
        raise NotImplementedError

    def _pending_sized(self):
        """A live object whose ``len()`` is the pending-request count.

        The engine's event loop checks queue emptiness and depth once per
        event; handing it the scheduler's own container lets those checks
        run as a C-level ``len()`` instead of a Python ``__len__`` frame.
        Implementations must return an object that remains *the* pending
        container for the scheduler's lifetime (never rebound).  The
        default returns ``self``, which is always correct.
        """
        return self

    def _trace_dispatch(
        self, now: float, candidates: int, request: Request
    ) -> None:
        """Emit one ``sched.dispatch`` event.

        Re-checks ``tracer.enabled`` itself, so the emit stays guarded even
        if a caller forgets the hot-path short-circuit (callers still check
        before calling to keep the untraced path at one branch, with no
        method call).  ``candidates`` is the pending-queue size the
        selection chose from (pruning schedulers may price only a subset of
        them and report the split via
        ``candidates_priced``/``candidates_pruned``); ``request`` is the
        pick itself, recorded as ``rid`` so the span builder can attribute
        the selection to the request it dispatched.  Subclasses with extra
        telemetry override :meth:`_dispatch_telemetry` rather than this
        method.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        event: Dict[str, Any] = {
            "kind": "sched.dispatch",
            "t": now,
            "rid": request.request_id,
            "scheduler": self.name,
            "candidates": candidates,
        }
        extra = self._dispatch_telemetry()
        if extra:
            event.update(extra)
        tracer.emit(event)

    def _dispatch_telemetry(self) -> Dict[str, Any]:
        """Extra fields for ``sched.dispatch`` events (e.g. pricing counts)."""
        return {}


class ListScheduler(Scheduler):
    """Base for policies that scan an unordered pending list.

    Subclasses implement :meth:`select_index`; ties inside a policy should
    break on arrival order, which the stable list order provides.
    """

    def __init__(self) -> None:
        self._queue: List[Request] = []

    def add(self, request: Request) -> None:
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    def pending(self) -> List[Request]:
        return list(self._queue)

    def pop_next(self, now: float = 0.0) -> Request:
        if not self._queue:
            raise IndexError("scheduler queue is empty")
        candidates = len(self._queue)
        index = self.select_index(now)
        request = self._queue.pop(index)
        if self.tracer.enabled:
            self._trace_dispatch(now, candidates, request)
        return request

    def _pending_sized(self):
        return self._queue

    @abc.abstractmethod
    def select_index(self, now: float) -> int:
        """Index into the pending list of the request to dispatch."""
