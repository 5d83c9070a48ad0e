"""Executable spec for :class:`repro.sim.engine.Simulation`: the heap loop.

The production engine walks the arrival-sorted request list with an index
cursor and keeps the device's single outstanding completion in one slot.
This module keeps the textbook discrete-event form it replaced: every
arrival and completion is an entry in a binary-heap event calendar, drained
one event at a time through ``_handle_arrival`` / ``_handle_completion`` /
``_dispatch_next``.  ``tests/sim/test_engine.py`` checks the two against
each other — same records, end time, errors and trace events — so the
cursor loop's shortcuts stay provably equivalent to the plain calendar.

Ingest is deliberately naive here: every request goes through the
validating ``Request`` constructor and the device's ``validate``, and the
stream is sorted by ``(arrival_time, request_id)`` unconditionally.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

import pytest

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import (
    IOKind,
    QueueOverflowError,
    Request,
    RequestBatch,
    RequestRecord,
    SimulationResult,
    StorageDevice,
)


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
    """A binary-heap priority queue of ``(time, kind, seq, payload)`` entries.

    ``seq`` is a push counter, so events with equal time and kind pop in
    the order they were pushed.
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

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class ReferenceSimulation:
    """The heap-calendar engine, with the production constructor surface."""

    def __init__(
        self,
        device: StorageDevice,
        scheduler,
        max_queue_depth: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.device = device
        self.scheduler = scheduler
        self.max_queue_depth = max_queue_depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            device.tracer = self.tracer
            scheduler.tracer = self.tracer
        self.now = 0.0
        self._busy = False
        self._records: List[RequestRecord] = []

    def _ingest(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> List[Request]:
        if isinstance(requests, RequestBatch):
            batch = requests
            if not batch.is_sorted():
                batch = batch.sorted_by_arrival()
            self.device.prime_request_profiles(batch.lbn, batch.sectors)
            ordered = []
            for arrival, lbn, sectors, is_write, rid in zip(
                batch.arrival.tolist(),
                batch.lbn.tolist(),
                batch.sectors.tolist(),
                batch.is_write.tolist(),
                batch.rid.tolist(),
            ):
                request = Request(
                    arrival,
                    lbn,
                    sectors,
                    IOKind.WRITE if is_write else IOKind.READ,
                    rid,
                )
                self.device.validate(request)
                ordered.append(request)
            return ordered
        ordered = list(requests)
        for request in ordered:
            self.device.validate(request)
        return sorted(ordered, key=lambda r: (r.arrival_time, r.request_id))

    def run(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> SimulationResult:
        ordered = self._ingest(requests)
        queue = EventQueue()
        for request in ordered:
            queue.push(request.arrival_time, EventKind.ARRIVAL, request)
        self.now = 0.0
        self._busy = False
        self._records = []
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit({"kind": "sim.start", "t": 0.0, "requests": len(ordered)})
        while queue:
            event = queue.pop()
            if event.time < self.now - 1e-12:
                raise RuntimeError(
                    f"event time {event.time} precedes clock {self.now}"
                )
            self.now = max(self.now, event.time)
            if event.kind is EventKind.ARRIVAL:
                self._handle_arrival(event.payload, queue)
            else:
                self._handle_completion(event.payload, queue)
        if tracer.enabled:
            tracer.emit(
                {"kind": "sim.end", "t": self.now, "completed": len(self._records)}
            )
        return SimulationResult(records=self._records, end_time=self.now)

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
        if self.tracer.enabled:
            self.tracer.emit(
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
        if self.tracer.enabled:
            self.tracer.emit(
                {
                    "kind": "sim.complete",
                    "t": self.now,
                    "rid": record.request.request_id,
                    "queue": record.queue_time,
                    "service": record.service_time,
                    "response": record.response_time,
                }
            )
        self._busy = False
        if len(self.scheduler):
            self._dispatch_next(queue)

    def _dispatch_next(self, queue: EventQueue) -> None:
        depth_before = len(self.scheduler)
        request = self.scheduler.pop_next(self.now)
        access = self.device.service(request, self.now)
        record = RequestRecord(
            request=request,
            dispatch_time=self.now,
            completion_time=self.now + access.total,
            access=access,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                {
                    "kind": "sim.dispatch",
                    "t": self.now,
                    "rid": request.request_id,
                    "wait": self.now - request.arrival_time,
                    "queue_depth": depth_before,
                }
            )
        self._busy = True
        queue.push(record.completion_time, EventKind.COMPLETION, record)


class TestEventQueue:
    """The calendar's ordering contract (collected via test_engine.py)."""

    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.ARRIVAL, "b")
        queue.push(1.0, EventKind.ARRIVAL, "a")
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "b"

    def test_completion_before_arrival_at_same_time(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, "arrival")
        queue.push(1.0, EventKind.COMPLETION, "completion")
        assert queue.pop().payload == "completion"

    def test_fifo_among_equal_events(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.ARRIVAL, "first")
        queue.push(1.0, EventKind.ARRIVAL, "second")
        assert queue.pop().payload == "first"

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, EventKind.ARRIVAL, None)

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, EventKind.ARRIVAL, None)
        assert queue and len(queue) == 1
