"""Batch pricing and adaptive selection must be bit-identical to the scalar
paths.

The adaptive SPTF stack rests on two exactness claims:

* **pricing** — ``estimate_positioning_batch`` returns, element for
  element, the *bitwise identical* float that ``estimate_positioning``
  returns for the same (device state, request, now) triple, on both device
  models, for request streams drawn from every layout scheme's placement;
* **selection** — the depth-adaptive selector dispatches the request
  sequence of the plain-scan spec (``reference_sptf.py``), including at the
  depth thresholds where it switches fast paths (depth 0/1, around
  ``VECTORIZED_DEPTH_THRESHOLD`` and ``PRUNED_DEPTH_THRESHOLD``) and with
  either deep path forced at every depth, traced and untraced.

Everything here asserts ``==`` on floats on purpose: the vectorized paths
are engineered to replay the scalar operation order (see
``repro.mems.kinematics.seek_time_batch`` and
``repro.disk.device.DiskDevice.estimate_positioning_batch``), and any
rounding drift would silently change dispatch orders.
"""

import random

import pytest

from repro.core.layout import LAYOUTS, make_layout
from repro.core.layout.base import FileSet
from repro.core.scheduling import sptf
from repro.core.scheduling.sptf import (
    PRUNED_DEPTH_THRESHOLD,
    VECTORIZED_DEPTH_THRESHOLD,
    AgedSPTFScheduler,
    SPTFScheduler,
)
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.mems.parameters import MEMSParameters
from repro.sim.request import IOKind, Request

from .reference_sptf import ReferenceSPTF


def _make_device(kind, memoize=True):
    if kind == "mems":
        return MEMSDevice(memoize=memoize)
    if kind == "mems-nospring":
        return MEMSDevice(MEMSParameters(spring_factor=0.0), memoize=memoize)
    return DiskDevice(atlas_10k(), memoize=memoize)


DEVICE_KINDS = ("mems", "mems-nospring", "disk")


def _random_stream(capacity, count, seed, writes=True):
    rng = random.Random(seed)
    kinds = (IOKind.READ, IOKind.WRITE) if writes else (IOKind.READ,)
    requests = []
    for index in range(count):
        sectors = rng.choice((1, 2, 4, 8, 16, 64))
        requests.append(
            Request(
                index * 2e-4,
                lbn=rng.randrange(0, capacity - sectors),
                sectors=sectors,
                kind=rng.choice(kinds),
                request_id=index,
            )
        )
    return requests


class TestBatchPricingBitIdentity:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    @pytest.mark.parametrize("memoize", [True, False])
    def test_random_streams_many_states(self, device_kind, memoize):
        # Bitwise equality across many mechanical states: service a few
        # requests between batches so estimates cover moving/settled
        # states, different cylinders, and (on disk) many platter angles.
        device = _make_device(device_kind, memoize=memoize)
        requests = _random_stream(device.capacity_sectors, 180, seed=17)
        now = 0.0
        for start in range(0, len(requests), 30):
            window = requests[start : start + 30]
            batch = device.estimate_positioning_batch(window, now)
            for request, priced in zip(window, batch.tolist()):
                assert priced == device.estimate_positioning(request, now), (
                    device_kind,
                    request.lbn,
                    request.sectors,
                )
            now += device.service(window[0], now).total

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_layout_driven_streams(self, device_kind):
        # Placements from every layout scheme: concentrated cylinder reuse
        # and Y-constrained placements hit the degenerate kinematics
        # branches (zero-length seeks, same-row targets) hardest.
        fileset = FileSet(small_blocks=80, large_files=3)
        for layout_name in LAYOUTS.names():
            probe = _make_device(device_kind)
            try:
                layout = make_layout(layout_name, probe)
            except Exception:
                continue  # e.g. subregioned needs the MEMS geometry
            placement = layout.place(fileset, probe.capacity_sectors)
            rng = random.Random(29)
            requests = []
            for index in range(90):
                if rng.random() < 0.75:
                    lbn = rng.choice(placement.small_lbns)
                    sectors = fileset.small_sectors
                else:
                    lbn = rng.choice(placement.large_lbns)
                    sectors = fileset.large_sectors
                requests.append(
                    Request(index * 1e-4, lbn, sectors, IOKind.READ, index)
                )
            device = _make_device(device_kind)
            now = 0.0
            for start in range(0, len(requests), 45):
                window = requests[start : start + 45]
                batch = device.estimate_positioning_batch(window, now)
                for request, priced in zip(window, batch.tolist()):
                    exact = device.estimate_positioning(request, now)
                    assert priced == exact, (layout_name, request.lbn)
                now += device.service(window[-1], now).total

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_empty_and_single_batches(self, device_kind):
        device = _make_device(device_kind)
        assert len(device.estimate_positioning_batch([], 0.0)) == 0
        request = Request(0.0, lbn=1234, sectors=8, kind=IOKind.READ)
        batch = device.estimate_positioning_batch([request], 0.5)
        assert batch.tolist() == [device.estimate_positioning(request, 0.5)]

    def test_out_of_range_request_raises_in_batch(self):
        device = MEMSDevice()
        bad = Request(
            0.0, lbn=device.capacity_sectors, sectors=4, kind=IOKind.READ
        )
        with pytest.raises(ValueError):
            device.estimate_positioning_batch([bad], 0.0)


def _drain_order(device, scheduler, requests, refill_every=3):
    """Dispatch order with mid-drain refills so selections run against
    queues of many depths (crossing the adaptive thresholds both ways)."""
    preload = len(requests) // 2
    for request in requests[:preload]:
        scheduler.add(request)
    refill = iter(requests[preload:])
    order = []
    now = 0.0
    while len(scheduler):
        request = scheduler.pop_next(now)
        order.append(request.request_id)
        now += device.service(request, now).total
        if refill_every and len(order) % refill_every == 0:
            for extra in (next(refill, None), next(refill, None)):
                if extra is not None:
                    scheduler.add(extra)
    return order


class TestAdaptiveModeEquivalence:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    @pytest.mark.parametrize("scheduler_cls", [SPTFScheduler, AgedSPTFScheduler])
    def test_all_modes_dispatch_identically(
        self, device_kind, scheduler_cls, monkeypatch
    ):
        capacity = _make_device(device_kind).capacity_sectors
        # 2 * PRUNED_DEPTH_THRESHOLD preloaded ensures the drain starts on
        # the pruned path, passes through the vectorized band, and finishes
        # on the scan — every threshold is crossed within one run.
        requests = _random_stream(capacity, 4 * PRUNED_DEPTH_THRESHOLD, seed=41)
        device = _make_device(device_kind)
        probe = scheduler_cls(device)
        orders = [
            _drain_order(
                device, ReferenceSPTF(device, age_weight=probe.age_weight),
                requests,
            )
        ]
        # Production thresholds, then the vectorized screen and the pruned
        # walk each forced onto every multi-candidate selection.
        for vectorized, pruned in (
            (VECTORIZED_DEPTH_THRESHOLD, PRUNED_DEPTH_THRESHOLD),
            (1, 10**9),
            (1, 1),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(sptf, "VECTORIZED_DEPTH_THRESHOLD", vectorized)
                patch.setattr(sptf, "PRUNED_DEPTH_THRESHOLD", pruned)
                device = _make_device(device_kind)
                orders.append(
                    _drain_order(device, scheduler_cls(device), requests)
                )
        assert orders[0] == orders[1] == orders[2] == orders[3]

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    @pytest.mark.parametrize(
        "depth",
        [
            0,
            1,
            VECTORIZED_DEPTH_THRESHOLD - 1,
            VECTORIZED_DEPTH_THRESHOLD,
            VECTORIZED_DEPTH_THRESHOLD + 1,
            PRUNED_DEPTH_THRESHOLD - 1,
            PRUNED_DEPTH_THRESHOLD,
            PRUNED_DEPTH_THRESHOLD + 1,
        ],
    )
    def test_threshold_crossovers(self, device_kind, depth):
        # Pin the fast path chosen exactly at each boundary depth, and that
        # the pick agrees with the never-pruned scan at that same depth.
        capacity = _make_device(device_kind).capacity_sectors
        requests = _random_stream(capacity, depth + 1, seed=depth + 7)
        adaptive_dev = _make_device(device_kind)
        adaptive = SPTFScheduler(adaptive_dev)
        scan_dev = _make_device(device_kind)
        scan = ReferenceSPTF(scan_dev)
        for request in requests:
            adaptive.add(request)
            scan.add(request)
        picked = adaptive.pop_next(0.0)
        assert picked.request_id == scan.pop_next(0.0).request_id
        candidates = depth + 1
        expected = (
            "pruned"
            if candidates > PRUNED_DEPTH_THRESHOLD
            else "vectorized"
            if candidates > VECTORIZED_DEPTH_THRESHOLD
            else "scan"
        )
        assert adaptive.last_fast_path == expected

    @pytest.mark.parametrize("traced", [False, True])
    def test_traced_runs_identical_and_fast_path_valid(self, traced):
        from repro.obs.tracer import RingBufferTracer, TRACE_SCHEMA
        from repro.obs.validate import FAST_PATHS, validate_events
        from repro.sim import Simulation
        from repro.sim.config import SimConfig

        config = SimConfig(
            device="mems",
            scheduler="SPTF",
            rate=1200.0,
            num_requests=400,
            seed=9,
        )
        scan_dev = config.build_device()
        never_result = Simulation(scan_dev, ReferenceSPTF(scan_dev)).run(
            config.build_requests(scan_dev)
        )
        tracer = RingBufferTracer() if traced else None
        sim = Simulation.from_config(config, tracer=tracer)
        auto_result = sim.run(config.build_requests(sim.device))
        assert [r.request.request_id for r in never_result.records] == [
            r.request.request_id for r in auto_result.records
        ]
        assert never_result.mean_response_time == auto_result.mean_response_time
        assert never_result.end_time == auto_result.end_time
        if traced:
            dispatches = tracer.by_kind("sched.dispatch")
            assert dispatches
            paths = {event["fast_path"] for event in dispatches}
            assert paths <= FAST_PATHS
            assert "scan" in paths  # shallow selections exist in any run
            meta = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
            assert validate_events([meta] + tracer.events) == []

    def test_lazy_index_build_on_first_deep_selection(self):
        device = MEMSDevice()
        scheduler = SPTFScheduler(device)
        assert device._lower_bounds is None  # nothing built at construction
        requests = _random_stream(
            device.capacity_sectors, PRUNED_DEPTH_THRESHOLD + 10, seed=3
        )
        scheduler.add(requests[0])
        scheduler.pop_next(0.0)
        # A single pending request is dispatched without pricing anything:
        # no estimate call, no bound table, no cylinder bookkeeping.
        assert device._lower_bounds is None
        assert scheduler.last_priced == 0
        assert scheduler.last_pruned == 1
        for request in requests[1 : VECTORIZED_DEPTH_THRESHOLD + 1]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert not scheduler._indexed  # shallow: no bucket bookkeeping yet
        assert not scheduler._cyls_live  # and no cylinder shadow list
        assert scheduler.last_fast_path == "scan"
        # Shallow scans price the whole queue and never touch the (lazy)
        # bound table — runs that stay shallow pay nothing for it.
        assert device._lower_bounds is None
        for request in requests[
            VECTORIZED_DEPTH_THRESHOLD + 1 : VECTORIZED_DEPTH_THRESHOLD + 3
        ]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        # First selection past the vectorized threshold builds the
        # cylinder shadow list and the shared bound table.
        assert scheduler.last_fast_path == "vectorized"
        assert scheduler._cyls_live
        assert device._lower_bounds is not None
        for request in requests[VECTORIZED_DEPTH_THRESHOLD + 3 :]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler._indexed
        assert scheduler.last_fast_path == "pruned"
