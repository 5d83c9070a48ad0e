"""Discrete-event simulation engine.

This is the DiskSim-shaped core: a time-ordered event queue, a simulation
clock, and a driver loop that moves requests through
``arrival -> queue -> dispatch -> completion``.  The engine is deliberately
single-device (the paper's experiments are all single-device); multi-device
studies can run several simulations side by side.

The main entry point is :class:`Simulation`:

    >>> from repro.mems import MEMSDevice
    >>> from repro.core.scheduling import SPTFScheduler
    >>> from repro.workloads import RandomWorkload
    >>> device = MEMSDevice()
    >>> sim = Simulation(device, SPTFScheduler(device))
    >>> requests = RandomWorkload(device.capacity_sectors, rate=500.0,
    ...                           seed=1).generate(1000)
    >>> result = sim.run(requests)
    >>> 0 < result.mean_response_time < 1.0
    True
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from repro.gcpause import gc_paused
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.batch import RequestBatch
from repro.sim.request import IOKind, Request, RequestRecord
from repro.sim.device import StorageDevice
from repro.sim.statistics import SimulationResult


class EventKind(enum.IntEnum):
    """Event types, ordered so completions at time t precede arrivals at t.

    Processing the completion first lets a request arriving at the exact
    instant the device frees up be dispatched immediately, matching DiskSim.
    """

    COMPLETION = 0
    ARRIVAL = 1


@dataclass(order=True)
class Event:
    """One scheduled occurrence in the event queue."""

    time: float
    kind: EventKind
    seq: int
    payload: object = field(compare=False, default=None)


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    Entries are stored as plain ``(time, kind, seq, payload)`` tuples so the
    heap sifts compare in C instead of through the dataclass ``__lt__``.
    The run loop drains via :meth:`pop_raw`, which hands back the heap tuple
    as-is — one event per simulated request completion/arrival makes the
    dataclass construction in :meth:`pop` measurable, so the engine skips
    it; :meth:`pop` stays as the public API for callers that want the typed
    :class:`Event` view.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def push(self, time: float, kind: EventKind, payload: object = None) -> None:
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        heapq.heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def pop(self) -> Event:
        return Event(*heapq.heappop(self._heap))

    def pop_raw(self) -> tuple:
        """Remove and return the next ``(time, kind, seq, payload)`` tuple."""
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimulationObserver:
    """Hook interface for instrumenting a simulation run.

    Subclass and override any subset; the power-management policies in
    :mod:`repro.core.power` use these hooks to track busy/idle intervals.
    """

    def on_dispatch(self, time: float, record: RequestRecord) -> None:
        """Called when a request begins service."""

    def on_complete(self, time: float, record: RequestRecord) -> None:
        """Called when a request finishes service."""

    def on_idle(self, time: float) -> None:
        """Called when the device goes idle (queue empty at a completion)."""

    def on_end(self, time: float) -> None:
        """Called once when the simulation drains."""


class Simulation:
    """Single-device open-queueing simulation.

    Args:
        device: The storage device model to drive.
        scheduler: Queue discipline (see :mod:`repro.core.scheduling`).
        observers: Optional instrumentation hooks.
        max_queue_depth: If set, arrivals beyond this pending-queue depth
            raise :class:`QueueOverflowError`; the experiment harness uses
            this to detect saturation instead of simulating unbounded queues.
        tracer: Optional :class:`repro.obs.Tracer` sink.  When given (and
            enabled) it is also attached to ``device`` and ``scheduler`` so
            one argument wires the whole stack: the engine emits
            ``sim.arrival``/``sim.dispatch``/``sim.complete`` events, the
            device its per-access phase breakdown (``dev.access``), and the
            scheduler its selection telemetry (``sched.dispatch``).  The
            default null tracer short-circuits every emission site.
    """

    def __init__(
        self,
        device: StorageDevice,
        scheduler: "Scheduler",
        observers: Sequence[SimulationObserver] = (),
        max_queue_depth: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.device = device
        self.scheduler = scheduler
        self.observers = list(observers)
        self.max_queue_depth = max_queue_depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            device.tracer = self.tracer
            scheduler.tracer = self.tracer
        self.now = 0.0
        self._busy = False
        self._records: List[RequestRecord] = []

    @classmethod
    def from_config(
        cls, config: "SimConfig", tracer: Optional["Tracer"] = None
    ) -> "Simulation":
        """Build a simulation from a :class:`repro.sim.config.SimConfig`.

        ``tracer`` overrides the config's ``trace_path``-derived sink; when
        neither is set the null tracer applies.  The caller owns closing a
        tracer it passes in (``SimConfig.run`` manages the whole lifecycle).
        """
        device = config.build_device()
        scheduler = config.build_scheduler(device)
        if tracer is None and (
            config.trace_path is not None or config.live_enabled
        ):
            tracer = config.build_tracer()
        return cls(
            device,
            scheduler,
            max_queue_depth=config.max_queue_depth,
            tracer=tracer,
        )

    def run(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> SimulationResult:
        """Run to completion over a request stream.

        A ``List[Request]`` stream is validated in a single pass that
        simultaneously checks arrival ordering; every workload generator in
        this package already emits ``(arrival_time, request_id)``-ordered
        streams, so the sort is skipped unless an out-of-order request is
        actually seen.  A :class:`~repro.sim.batch.RequestBatch` takes the
        columnar ingest path instead: bulk array validation and ordering
        checks, with ``Request`` materialization fused into heap-entry
        construction — semantically identical, same errors, same results.
        """
        queue = EventQueue()
        arrival = EventKind.ARRIVAL
        stock_validate = type(self.device).validate is StorageDevice.validate
        capacity = self.device.capacity_sectors
        validate = self.device.validate
        if isinstance(requests, RequestBatch):
            batch = requests
            if not batch.is_sorted():
                batch = batch.sorted_by_arrival()
            # Let the device bulk-derive per-request geometry from the
            # columns while they are still arrays (a no-op by default; a
            # pure speed hook — see StorageDevice.prime_request_profiles).
            self.device.prime_request_profiles(batch.lbn, batch.sectors)
            if stock_validate:
                # One array pass replaces the per-request bounds checks, so
                # materialization can go through ``tuple.__new__`` — the
                # C-level constructor that skips the validating ``__new__``
                # whose invariants the bulk pass just enforced — fused with
                # heap-entry construction in a single comprehension.
                batch.validate(capacity)
                new = tuple.__new__
                read, write = IOKind.READ, IOKind.WRITE
                heap_entries = [
                    (
                        row[0],
                        arrival,
                        seq,
                        new(
                            Request,
                            (
                                row[0],
                                row[1],
                                row[2],
                                write if row[3] else read,
                                row[4],
                            )
                        ),
                    )
                    for seq, row in enumerate(
                        zip(
                            batch.arrival.tolist(),
                            batch.lbn.tolist(),
                            batch.sectors.tolist(),
                            batch.is_write.tolist(),
                            batch.rid.tolist(),
                        )
                    )
                ]
            else:
                ordered = batch.to_requests()
                for request in ordered:
                    validate(request)
                heap_entries = [
                    (request.arrival_time, arrival, seq, request)
                    for seq, request in enumerate(ordered)
                ]
        else:
            ordered = list(requests)
            # When the device uses the stock validator its checks reduce to
            # two integer bounds — inline them and call ``validate`` only
            # to raise its exact message on a bad request.  A device
            # subclass with its own ``validate`` gets called per request as
            # before.
            # One fused pass: validate, check arrival ordering with scalar
            # compares (no per-request key tuples), and build the heap
            # entries that the sorted case can use directly.
            heap_entries = []
            entry_append = heap_entries.append
            previous_time = float("-inf")
            previous_id = 0
            pre_sorted = True
            seq = 0
            for request in ordered:
                if stock_validate:
                    sectors = request.sectors
                    lbn = request.lbn
                    if sectors < 1 or lbn < 0 or lbn + sectors > capacity:
                        validate(request)
                else:
                    validate(request)
                time = request.arrival_time
                request_id = request.request_id
                if time < previous_time or (
                    time == previous_time and request_id < previous_id
                ):
                    pre_sorted = False
                previous_time = time
                previous_id = request_id
                entry_append((time, arrival, seq, request))
                seq += 1
            if not pre_sorted:
                ordered.sort(key=lambda r: (r.arrival_time, r.request_id))
                heap_entries = [
                    (request.arrival_time, arrival, seq, request)
                    for seq, request in enumerate(ordered)
                ]
        if heap_entries and heap_entries[0][0] < 0:
            raise ValueError(
                "cannot schedule an event at negative time "
                f"{heap_entries[0][0]}"
            )
        # The stream is arrival-sorted at this point, so the tuple list is
        # already a valid binary heap — install it directly instead of
        # paying one sift per request.  Sequence numbers match what
        # repeated ``push`` calls would have assigned.
        count = len(heap_entries)
        queue._heap = heap_entries
        queue._seq = count

        self.now = 0.0
        self._busy = False
        self._records = []

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {"kind": "sim.start", "t": 0.0, "requests": count}
            )

        # The drain allocates one record + a few tuples per request and
        # none of them form reference cycles, so collection is paused for
        # the drain and the caller's setting restored after (see
        # repro.gcpause).
        with gc_paused():
            if tracer.enabled or self.observers:
                while queue:
                    time, kind, _seq, payload = queue.pop_raw()
                    if time < self.now - 1e-12:
                        raise RuntimeError(
                            f"event time {time} precedes clock {self.now}"
                        )
                    self.now = max(self.now, time)
                    if kind is EventKind.ARRIVAL:
                        self._handle_arrival(payload, queue)
                    else:
                        self._handle_completion(payload, queue)
            else:
                self._run_fast(queue)

        for observer in self.observers:
            observer.on_end(self.now)
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "sim.end",
                    "t": self.now,
                    "completed": len(self._records),
                }
            )
        return SimulationResult(records=self._records, end_time=self.now)

    # ------------------------------------------------------------------ #

    def _run_fast(self, queue: EventQueue) -> None:
        """Drain the event queue with no tracer and no observers.

        Semantically identical to the general loop (same event ordering,
        same clock updates, same records, same queue-overflow contract); it
        only hoists the per-event attribute lookups and skips the
        instrumentation branches that are all dead in this configuration.

        It also exploits two structural facts the general loop cannot:

        * The arrival entries installed by :meth:`run` are already sorted,
          so arrivals are consumed through an index cursor instead of heap
          pops — at fleet scale each ``heappop`` sift over a million-entry
          heap costs O(log n) tuple comparisons, all of which this loop
          skips.
        * The device services one request at a time, so at most one
          completion event is ever outstanding (``busy`` tracks exactly
          this).  The "heap" of completions is therefore a single pending
          slot, merged against the arrival cursor with one comparison per
          event.  Ties replay the heap order: a completion at time t
          precedes an arrival at t (``EventKind.COMPLETION < ARRIVAL``),
          and sequence numbers are consumed as ``push`` would have.
        """
        entries = queue._heap
        count = len(entries)
        index = 0
        seq = queue._seq
        scheduler = self.scheduler
        scheduler_add = scheduler.add
        pop_next = scheduler.pop_next
        pending = scheduler._pending_sized()
        service = self.device.service
        records_append = self._records.append
        # Records are built through the C-level tuple constructor rather
        # than the NamedTuple's Python-level ``__new__`` (one frame less
        # per request).
        new_tuple = tuple.__new__
        max_depth = self.max_queue_depth
        now = 0.0
        busy = False
        pending_record = None
        pending_time = 0.0
        try:
            while True:
                if busy:
                    if index < count and entries[index][0] < pending_time:
                        entry = entries[index]
                        index += 1
                        time = entry[0]
                        if time > now:
                            now = time
                        if max_depth is not None and len(pending) >= max_depth:
                            raise QueueOverflowError(
                                f"pending queue exceeded {max_depth} "
                                f"requests at t={now:.4f}s — workload "
                                "saturates the device"
                            )
                        scheduler_add(entry[3])
                        continue
                    # The outstanding completion is the next event.
                    if pending_time > now:
                        now = pending_time
                    records_append(pending_record)
                    pending_record = None
                    busy = False
                    if not pending:
                        continue
                else:
                    if index >= count:
                        break
                    entry = entries[index]
                    index += 1
                    time = entry[0]
                    if time < now - 1e-12:
                        raise RuntimeError(
                            f"event time {time} precedes clock {now}"
                        )
                    if time > now:
                        now = time
                    if max_depth is not None and len(pending) >= max_depth:
                        raise QueueOverflowError(
                            f"pending queue exceeded {max_depth} requests "
                            f"at t={now:.4f}s — workload saturates the device"
                        )
                    scheduler_add(entry[3])
                while True:
                    request = pop_next(now)
                    access = service(request, now)
                    completion_time = now + access.total
                    record = new_tuple(
                        RequestRecord, (request, now, completion_time, access)
                    )
                    if index < count and entries[index][0] < completion_time:
                        busy = True
                        pending_record = record
                        pending_time = completion_time
                        seq += 1
                        break
                    # The completion sorts before everything queued: handle
                    # it now, exactly as the pop would have.
                    seq += 1
                    if completion_time > now:
                        now = completion_time
                    records_append(record)
                    if not pending:
                        break
        finally:
            self.now = now
            self._busy = busy
            queue._seq = seq

    def _handle_arrival(self, request: Request, queue: EventQueue) -> None:
        if (
            self.max_queue_depth is not None
            and len(self.scheduler) >= self.max_queue_depth
        ):
            raise QueueOverflowError(
                f"pending queue exceeded {self.max_queue_depth} requests at "
                f"t={self.now:.4f}s — workload saturates the device"
            )
        self.scheduler.add(request)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "sim.arrival",
                    "t": self.now,
                    "rid": request.request_id,
                    "lbn": request.lbn,
                    "sectors": request.sectors,
                    "io": request.kind.value,
                    "queue_depth": len(self.scheduler),
                }
            )
        if not self._busy:
            self._dispatch_next(queue)

    def _handle_completion(self, record: RequestRecord, queue: EventQueue) -> None:
        self._records.append(record)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "sim.complete",
                    "t": self.now,
                    "rid": record.request.request_id,
                    "queue": record.queue_time,
                    "service": record.service_time,
                    "response": record.response_time,
                }
            )
        for observer in self.observers:
            observer.on_complete(self.now, record)
        self._busy = False
        if len(self.scheduler):
            self._dispatch_next(queue)
        else:
            for observer in self.observers:
                observer.on_idle(self.now)

    def _dispatch_next(self, queue: EventQueue) -> None:
        tracer = self.tracer
        if tracer.enabled:
            depth_before = len(self.scheduler)
        request = self.scheduler.pop_next(self.now)
        access = self.device.service(request, self.now)
        record = RequestRecord(
            request=request,
            dispatch_time=self.now,
            completion_time=self.now + access.total,
            access=access,
        )
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "sim.dispatch",
                    "t": self.now,
                    "rid": request.request_id,
                    "wait": self.now - request.arrival_time,
                    "queue_depth": depth_before,
                }
            )
        self._busy = True
        for observer in self.observers:
            observer.on_dispatch(self.now, record)
        queue.push(record.completion_time, EventKind.COMPLETION, record)


class QueueOverflowError(RuntimeError):
    """Raised when the pending queue exceeds ``max_queue_depth``."""


def simulate(
    device: StorageDevice,
    scheduler: "Scheduler",
    requests: Iterable[Request],
    observers: Sequence[SimulationObserver] = (),
    max_queue_depth: Optional[int] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    sim = Simulation(
        device, scheduler, observers=observers, max_queue_depth=max_queue_depth
    )
    return sim.run(requests)
