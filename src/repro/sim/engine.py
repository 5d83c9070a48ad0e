"""Discrete-event simulation engine.

This is the DiskSim-shaped core: a simulation clock and one driver loop
that moves requests through ``arrival -> queue -> dispatch -> completion``.
The engine is deliberately single-device (the paper's experiments are all
single-device); multi-device studies run several simulations side by side
(:mod:`repro.fleet`).

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

from typing import Iterable, List, Optional, Union

from repro.gcpause import gc_paused
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.batch import RequestBatch
from repro.sim.request import Request, RequestRecord
from repro.sim.device import StorageDevice
from repro.sim.statistics import SimulationResult

_INF = float("inf")


class Simulation:
    """Single-device open-queueing simulation.

    The device serves one request at a time, so the whole event calendar
    is the arrival-sorted request list plus at most one outstanding
    completion.  :meth:`run` walks the list with an index cursor and
    merges that one completion against it; at equal times the completion
    goes first, so a request arriving the instant the device frees up is
    dispatched immediately, matching DiskSim.

    Args:
        device: The storage device model to drive.
        scheduler: Queue discipline (see :mod:`repro.core.scheduling`).
        max_queue_depth: If set, arrivals beyond this pending-queue depth
            raise :class:`QueueOverflowError`; the experiment harness uses
            this to detect saturation instead of simulating unbounded queues.
        tracer: Optional :class:`repro.obs.Tracer` sink.  When given (and
            enabled) it is also attached to ``device`` and ``scheduler`` so
            one argument wires the whole stack: the engine emits
            ``sim.start``/``sim.arrival``/``sim.dispatch``/``sim.complete``/
            ``sim.end`` events, the device its per-access phase breakdown
            (``dev.access``), and the scheduler its selection telemetry
            (``sched.dispatch``).  Tracing observes the run and never
            changes it: the loop is the same with or without a sink.
    """

    def __init__(
        self,
        device: StorageDevice,
        scheduler: "Scheduler",
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

    def _ingest(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> List[Request]:
        """The stream as a validated ``(arrival_time, request_id)``-sorted list.

        A :class:`~repro.sim.batch.RequestBatch` is sorted, offered to the
        device's :meth:`~repro.sim.device.StorageDevice.prime_request_profiles`
        hook while still columnar, bulk-validated and materialized.  A
        request iterable is bounds-checked and order-checked in one pass;
        every workload generator already emits sorted streams, so the sort
        runs only when an out-of-order request is actually seen.  Both
        raise the device's exact ``validate`` message on a bad request.
        """
        capacity = self.device.capacity_sectors
        if isinstance(requests, RequestBatch):
            batch = requests
            if not batch.is_sorted():
                batch = batch.sorted_by_arrival()
            self.device.prime_request_profiles(batch.lbn, batch.sectors)
            batch.validate(capacity)
            ordered = batch.to_requests()
        else:
            ordered = list(requests)
            validate = self.device.validate
            previous_time = -_INF
            previous_id = 0
            pre_sorted = True
            # The stock checks reduce to two integer bounds; ``validate``
            # runs only to raise its exact message on a bad request.
            for request in ordered:
                sectors = request.sectors
                lbn = request.lbn
                if sectors < 1 or lbn < 0 or lbn + sectors > capacity:
                    validate(request)
                time = request.arrival_time
                request_id = request.request_id
                if time < previous_time or (
                    time == previous_time and request_id < previous_id
                ):
                    pre_sorted = False
                previous_time = time
                previous_id = request_id
            if not pre_sorted:
                ordered.sort(key=lambda r: (r.arrival_time, r.request_id))
        if ordered and ordered[0].arrival_time < 0:
            raise ValueError(
                "cannot schedule an event at negative time "
                f"{ordered[0].arrival_time}"
            )
        return ordered

    def run(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> SimulationResult:
        """Run to completion over a request stream (list or batch)."""
        ordered = self._ingest(requests)
        count = len(ordered)
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        if emit is not None:
            emit({"kind": "sim.start", "t": 0.0, "requests": count})

        scheduler_add = self.scheduler.add
        pop_next = self.scheduler.pop_next
        pending = self.scheduler._pending_sized()
        service = self.device.service
        records: List[RequestRecord] = []
        records_append = records.append
        # Records are built through the C-level tuple constructor rather
        # than the NamedTuple's Python-level ``__new__`` (one frame less
        # per request).
        new_tuple = tuple.__new__
        max_depth = self.max_queue_depth
        index = 0
        now = 0.0
        # The one outstanding completion: its record, and its time (+inf
        # while the device is idle, so every arrival sorts before it).
        in_service = None
        completion_time = _INF
        # The drain allocates one record per request and none of them form
        # reference cycles, so collection is paused for the drain and the
        # caller's setting restored after (see repro.gcpause).
        try:
            with gc_paused():
                while True:
                    if index < count and ordered[index][0] < completion_time:
                        request = ordered[index]
                        index += 1
                        time = request[0]
                        if time > now:
                            now = time
                        if max_depth is not None and len(pending) >= max_depth:
                            raise QueueOverflowError(
                                f"pending queue exceeded {max_depth} requests "
                                f"at t={now:.4f}s — workload saturates the device"
                            )
                        scheduler_add(request)
                        if emit is not None:
                            emit(
                                {
                                    "kind": "sim.arrival",
                                    "t": now,
                                    "rid": request.request_id,
                                    "lbn": request.lbn,
                                    "sectors": request.sectors,
                                    "io": request.kind.value,
                                    "queue_depth": len(pending),
                                }
                            )
                        if in_service is not None:
                            continue
                    elif in_service is not None:
                        # Only a device reporting a negative service time
                        # can complete before the clock.
                        if completion_time < now - 1e-12:
                            raise RuntimeError(
                                f"event time {completion_time} precedes "
                                f"clock {now}"
                            )
                        if completion_time > now:
                            now = completion_time
                        records_append(in_service)
                        if emit is not None:
                            emit(
                                {
                                    "kind": "sim.complete",
                                    "t": now,
                                    "rid": in_service.request.request_id,
                                    "queue": in_service.queue_time,
                                    "service": in_service.service_time,
                                    "response": in_service.response_time,
                                }
                            )
                        in_service = None
                        completion_time = _INF
                        if not pending:
                            continue
                    else:
                        break
                    # Dispatch: the device is idle and the queue is not.
                    if emit is not None:
                        depth = len(pending)
                    request = pop_next(now)
                    access = service(request, now)
                    completion_time = now + access.total
                    in_service = new_tuple(
                        RequestRecord, (request, now, completion_time, access)
                    )
                    if emit is not None:
                        emit(
                            {
                                "kind": "sim.dispatch",
                                "t": now,
                                "rid": request.request_id,
                                "wait": now - request.arrival_time,
                                "queue_depth": depth,
                            }
                        )
        finally:
            self.now = now

        if emit is not None:
            emit({"kind": "sim.end", "t": now, "completed": len(records)})
        return SimulationResult(records=records, end_time=now)


class QueueOverflowError(RuntimeError):
    """Raised when the pending queue exceeds ``max_queue_depth``."""


def simulate(
    device: StorageDevice,
    scheduler: "Scheduler",
    requests: Iterable[Request],
    max_queue_depth: Optional[int] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(device, scheduler, max_queue_depth=max_queue_depth).run(
        requests
    )
