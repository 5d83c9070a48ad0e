"""Unit tests for the discrete-event engine, using a deterministic stub
device so timings are exactly predictable, plus a property test that pins
the production cursor loop to the heap-calendar spec in
:mod:`tests.sim.reference_engine` on the real device models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import FCFSScheduler, make_scheduler
from repro.obs.tracer import RingBufferTracer
from repro.sim import (
    AccessResult,
    IOKind,
    QueueOverflowError,
    Request,
    RequestBatch,
    Simulation,
    StorageDevice,
    make_device,
    simulate,
)

from .reference_engine import ReferenceSimulation
from .reference_engine import TestEventQueue  # noqa: F401 - collected here


class ConstantDevice(StorageDevice):
    """Serves every request in a fixed time; records service order."""

    def __init__(self, service_time=1.0, capacity=1000):
        self.service_time = service_time
        self.capacity = capacity
        self.served = []
        self._last_lbn = 0

    @property
    def capacity_sectors(self):
        return self.capacity

    @property
    def last_lbn(self):
        return self._last_lbn

    def service(self, request, now=0.0):
        self.served.append(request.lbn)
        self._last_lbn = request.last_lbn
        return AccessResult(total=self.service_time)

    def estimate_positioning(self, request, now=0.0):
        return self.service_time / 2


def req(arrival, lbn=0, rid=0):
    return Request(arrival, lbn=lbn, sectors=1, kind=IOKind.READ, request_id=rid)


class TestSimulation:
    def test_single_request_timing(self):
        device = ConstantDevice(service_time=0.5)
        result = simulate(device, FCFSScheduler(), [req(1.0)])
        assert len(result) == 1
        record = result.records[0]
        assert record.dispatch_time == pytest.approx(1.0)
        assert record.completion_time == pytest.approx(1.5)
        assert record.response_time == pytest.approx(0.5)

    def test_queueing_delay(self):
        device = ConstantDevice(service_time=1.0)
        requests = [req(0.0, rid=0), req(0.1, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        second = result.records[1]
        assert second.dispatch_time == pytest.approx(1.0)
        assert second.queue_time == pytest.approx(0.9)

    def test_idle_gap_between_requests(self):
        device = ConstantDevice(service_time=0.5)
        requests = [req(0.0, rid=0), req(10.0, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        assert result.records[1].dispatch_time == pytest.approx(10.0)

    def test_unsorted_input_is_sorted(self):
        device = ConstantDevice()
        requests = [req(5.0, lbn=2, rid=1), req(0.0, lbn=1, rid=0)]
        result = simulate(device, FCFSScheduler(), requests)
        assert device.served == [1, 2]

    def test_out_of_capacity_request_rejected(self):
        device = ConstantDevice(capacity=10)
        with pytest.raises(ValueError):
            simulate(device, FCFSScheduler(), [req(0.0, lbn=10)])

    def test_queue_overflow_raises(self):
        device = ConstantDevice(service_time=100.0)
        requests = [req(i * 0.001, lbn=i, rid=i) for i in range(10)]
        with pytest.raises(QueueOverflowError):
            simulate(device, FCFSScheduler(), requests, max_queue_depth=4)

    def test_arrival_at_completion_instant_dispatches_immediately(self):
        device = ConstantDevice(service_time=1.0)
        requests = [req(0.0, rid=0), req(1.0, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        assert result.records[1].dispatch_time == pytest.approx(1.0)
        assert result.records[1].queue_time == pytest.approx(0.0)

    def test_end_time_is_last_completion(self):
        device = ConstantDevice(service_time=0.25)
        result = simulate(device, FCFSScheduler(), [req(0.0), ])
        assert result.end_time == pytest.approx(0.25)


def lifecycle(requests, service_time=1.0):
    """``(kind, t)`` of every dispatch, completion and the end of a run."""
    tracer = RingBufferTracer()
    Simulation(
        ConstantDevice(service_time=service_time), FCFSScheduler(), tracer=tracer
    ).run(requests)
    return [
        (event["kind"], event["t"])
        for event in tracer.events
        if event["kind"] in ("sim.dispatch", "sim.complete", "sim.end")
    ]


class TestObservers:
    """A run's lifecycle as its tracer observes it."""

    def test_observer_sequence(self):
        events = lifecycle([req(0.0, rid=0), req(0.2, lbn=1, rid=1)])
        assert events == [
            ("sim.dispatch", 0.0),
            ("sim.complete", 1.0),
            ("sim.dispatch", 1.0),
            ("sim.complete", 2.0),
            ("sim.end", 2.0),
        ]

    def test_idle_only_when_queue_empty(self):
        # The device goes idle at a completion that no dispatch follows.
        events = lifecycle([req(0.0, rid=0), req(0.1, lbn=1, rid=1)])
        idles = [
            event
            for event, following in zip(events, events[1:])
            if event[0] == "sim.complete" and following[0] != "sim.dispatch"
        ]
        assert idles == [("sim.complete", 2.0)]


STACKS = [
    (device, scheduler)
    for device in ("mems", "atlas10k")
    for scheduler in ("FCFS", "C-LOOK", "SPTF")
]


def run_engine(engine, stack, requests, max_queue_depth=None, traced=False):
    """One run of ``engine`` on a fresh stack: everything observable."""
    device_name, scheduler_name = stack
    device = make_device(device_name)
    tracer = RingBufferTracer() if traced else None
    sim = engine(
        device,
        make_scheduler(scheduler_name, device),
        max_queue_depth=max_queue_depth,
        tracer=tracer,
    )
    try:
        result = sim.run(requests)
        outcome = ("ok", result.records, result.end_time)
    except QueueOverflowError as exc:
        pending = sorted(r.request_id for r in sim.scheduler.pending())
        outcome = ("overflow", str(exc), pending)
    return outcome, sim.now, tracer.events if traced else None


@st.composite
def tied_streams(draw):
    """A stack and a sorted request list whose arrivals tie with each other
    (zero gaps) and with completion instants of the stream's own run."""
    stack = draw(st.sampled_from(STACKS))
    capacity = make_device(stack[0]).capacity_sectors
    count = draw(st.integers(1, 30))
    gap = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
    rids = draw(st.permutations(range(count)))
    requests = []
    now = 0.0
    for rid in rids:
        now += draw(gap)
        sectors = draw(st.integers(1, 64))
        requests.append(
            Request(
                now,
                lbn=int(draw(st.floats(0.0, 1.0, exclude_max=True))
                        * (capacity - sectors)),
                sectors=sectors,
                kind=draw(st.sampled_from(IOKind)),
                request_id=rid,
            )
        )
    # Completions before the earliest extra arrival are unchanged by it,
    # so that arrival lands exactly on a completion instant of its run.
    (_, records, _), _, _ = run_engine(ReferenceSimulation, stack, requests)
    instants = draw(
        st.lists(st.sampled_from(records), max_size=3, unique_by=id)
    )
    for offset, record in enumerate(instants):
        requests.append(
            Request(
                record.completion_time,
                lbn=record.request.lbn,
                sectors=record.request.sectors,
                kind=IOKind.READ,
                request_id=count + offset,
            )
        )
    requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return stack, requests


class TestAgainstReference:
    """The cursor loop is observationally the heap-calendar spec."""

    @settings(max_examples=200, deadline=None)
    @given(
        stream=tied_streams(),
        form=st.sampled_from(["sorted", "shuffled", "batch", "shuffled-batch"]),
        shuffle_seed=st.integers(0, 2**32 - 1),
        max_queue_depth=st.one_of(st.none(), st.integers(1, 8)),
        traced=st.booleans(),
    )
    def test_identical_observables(
        self, stream, form, shuffle_seed, max_queue_depth, traced
    ):
        stack, requests = stream
        requests = list(requests)
        if form.startswith("shuffled"):
            random.Random(shuffle_seed).shuffle(requests)
        if form.endswith("batch"):
            requests = RequestBatch.from_requests(requests)
        production = run_engine(
            Simulation, stack, requests, max_queue_depth, traced
        )
        reference = run_engine(
            ReferenceSimulation, stack, requests, max_queue_depth, traced
        )
        assert production == reference
