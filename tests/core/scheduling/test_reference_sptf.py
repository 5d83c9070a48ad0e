"""Production SPTF selection against the plain-scan spec.

``reference_sptf.ReferenceSPTF`` prices every pending request and takes the
first minimum; the production selector serves each pop from the scan, the
bound-screened batch path or the pruned bucket walk depending on depth.
Hypothesis drives both with the same add/pop schedule and requires the
same request, by identity, on every pop:

* SPTF and ASPTF (``age_weight`` 0 and positive), MEMS, the Atlas 10K and
  a stub whose lower bounds are often exact (:class:`LineDevice`);
* preloaded queues deep enough to cross both ``VECTORIZED_DEPTH_THRESHOLD``
  and ``PRUNED_DEPTH_THRESHOLD`` while draining, and with either deep path
  forced onto every multi-candidate selection;
* LBNs drawn from a small pool with varying sizes, so duplicate and
  equal-cost requests force the arrival-order tie-break on every path.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.scheduling import sptf
from repro.core.scheduling.sptf import AgedSPTFScheduler, SPTFScheduler
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.sim.request import IOKind, Request

from .reference_sptf import ReferenceSPTF


class LineDevice:
    """A line of cylinders whose lower bounds are often exact.

    Positioning is ``(|target - head| + penalty) × UNIT``, where the
    penalty is 1 for LBNs in the second half of a cylinder (a latency-like
    add-on) and 0 otherwise; the bound table holds ``distance × UNIT``.
    So bounds are admissible, exact for first-half LBNs, and exact scores
    tie both across equidistant cylinders and with bounds one cylinder
    further out.  The real devices keep a margin between bound and
    estimate; here the strict stop and screen rules and every
    arrival-order tie-break decide the pick.
    """

    CYLINDERS = 16
    SECTORS_PER_CYLINDER = 32
    UNIT = 1e-3

    def __init__(self) -> None:
        self.capacity_sectors = self.CYLINDERS * self.SECTORS_PER_CYLINDER
        self.current_cylinder = self.CYLINDERS // 2
        self.positioning_lower_bounds = tuple(
            distance * self.UNIT for distance in range(self.CYLINDERS)
        )

    def request_cylinder(self, request) -> int:
        return request.lbn // self.SECTORS_PER_CYLINDER

    def estimate_positioning(self, request, now: float = 0.0) -> float:
        distance = abs(self.request_cylinder(request) - self.current_cylinder)
        half = self.SECTORS_PER_CYLINDER // 2
        penalty = 1 if request.lbn % self.SECTORS_PER_CYLINDER >= half else 0
        return (distance + penalty) * self.UNIT

    def estimate_positioning_batch(self, requests, now: float = 0.0):
        return numpy.array(
            [self.estimate_positioning(request, now) for request in requests]
        )

    def service(self, request, now: float = 0.0):
        positioning = self.estimate_positioning(request, now)
        self.current_cylinder = self.request_cylinder(request)
        return SimpleNamespace(total=positioning + request.sectors * 1e-5)


DEVICES = {
    "mems": MEMSDevice,
    "atlas10k": lambda: DiskDevice(atlas_10k()),
    "line": LineDevice,
}
CAPACITY = {name: make().capacity_sectors for name, make in DEVICES.items()}

#: (vectorized, pruned) thresholds: production, then each deep path forced.
REGIMES = {
    "adaptive": (
        sptf.VECTORIZED_DEPTH_THRESHOLD,
        sptf.PRUNED_DEPTH_THRESHOLD,
    ),
    "vectorized": (1, 10**9),
    "pruned": (1, 1),
}


@st.composite
def workloads(draw, capacity):
    """(requests, preload count, per-pop refill cycle) for one drain."""
    pool = draw(
        st.lists(
            st.integers(0, capacity - 64), min_size=1, max_size=24, unique=True
        )
    )
    preload = draw(st.one_of(st.integers(0, 12), st.integers(65, 110)))
    total = preload + draw(st.integers(1, 40))
    requests = []
    arrival = 0.0
    for index in range(total):
        arrival += draw(st.sampled_from((0.0, 0.0, 1e-4, 2e-3)))
        requests.append(
            Request(
                arrival,
                lbn=draw(st.sampled_from(pool)),
                sectors=draw(st.sampled_from((1, 8, 64))),
                kind=draw(st.sampled_from((IOKind.READ, IOKind.WRITE))),
                request_id=index,
            )
        )
    refills = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    return requests, preload, refills


def _drain(device, scheduler, requests, preload, refills):
    """Pop everything, adding ``refills[k % len]`` requests after pop k."""
    pending = iter(requests[preload:])
    for request in requests[:preload]:
        scheduler.add(request)
    order = []
    now = 0.0
    while True:
        if not len(scheduler):
            extra = next(pending, None)
            if extra is None:
                return order
            scheduler.add(extra)
        request = scheduler.pop_next(now)
        order.append(request.request_id)
        now = max(now, request.arrival_time)
        now += device.service(request, now).total
        for _ in range(refills[len(order) % len(refills)]):
            extra = next(pending, None)
            if extra is not None:
                scheduler.add(extra)


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("device_kind", sorted(DEVICES))
@pytest.mark.parametrize("age_weight", [None, 0.0, 0.01, 2.0])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pop_order_matches_reference(regime, device_kind, age_weight, data):
    requests, preload, refills = data.draw(
        workloads(CAPACITY[device_kind])
    )
    reference_dev = DEVICES[device_kind]()
    expected = _drain(
        reference_dev,
        ReferenceSPTF(reference_dev, age_weight=age_weight or 0.0),
        requests,
        preload,
        refills,
    )
    vectorized, pruned = REGIMES[regime]
    saved = sptf.VECTORIZED_DEPTH_THRESHOLD, sptf.PRUNED_DEPTH_THRESHOLD
    sptf.VECTORIZED_DEPTH_THRESHOLD, sptf.PRUNED_DEPTH_THRESHOLD = (
        vectorized,
        pruned,
    )
    try:
        device = DEVICES[device_kind]()
        if age_weight is None:
            scheduler = SPTFScheduler(device)
        else:
            scheduler = AgedSPTFScheduler(device, age_weight=age_weight)
        actual = _drain(device, scheduler, requests, preload, refills)
    finally:
        sptf.VECTORIZED_DEPTH_THRESHOLD, sptf.PRUNED_DEPTH_THRESHOLD = saved
    assert actual == expected
