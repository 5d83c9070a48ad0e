"""Lower-bound pruning must never change which request SPTF dispatches.

The pruned selection walk is a pure speedup over the naive full scan: it
buckets pending requests by cylinder, visits buckets in increasing
lower-bound order, and stops when the next bucket's admissible bound
strictly exceeds the best exact estimate.  Production takes the walk only
above ``PRUNED_DEPTH_THRESHOLD``; the equivalence tests lower that
threshold (the ``pruned_walk_everywhere`` fixture) so the walk serves every
multi-candidate selection.  These tests pin the two properties the
optimization rests on:

* **equivalence** — the pruned walk and the plain-scan spec
  (``reference_sptf.py``) replay identical seeded streams and must produce
  *bit-identical* dispatch orders and simulation statistics, on both
  devices, both SPTF variants, traced and untraced, and on request streams
  drawn from every layout scheme's placement;
* **admissibility** — ``positioning_lower_bound`` never exceeds
  ``estimate_positioning`` for any sampled (device state, request, now)
  triple, and the dense bound tables are monotone in cylinder distance
  (otherwise the early-stop rule could prune the winner).
"""

import random

import pytest

from repro.core.layout import LAYOUTS, make_layout
from repro.core.layout.base import FileSet
from repro.core.scheduling import sptf
from repro.core.scheduling.sptf import (
    AgedSPTFScheduler,
    SPTFScheduler,
    device_supports_pruning,
)
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.mems.parameters import MEMSParameters
from repro.sim.request import IOKind, Request

from .reference_sptf import ReferenceSPTF, reference_for


def _make_device(kind):
    if kind == "mems":
        return MEMSDevice()
    if kind == "mems-nospring":
        # spring_factor=0 makes the analytic X-seek bound exactly tight —
        # the regime where float rounding is most likely to break
        # admissibility (guarded by the bound table's margin).
        return MEMSDevice(MEMSParameters(spring_factor=0.0))
    return DiskDevice(atlas_10k())


def _make_scheduler(kind, device):
    if kind == "sptf":
        return SPTFScheduler(device)
    return AgedSPTFScheduler(device)


@pytest.fixture
def pruned_walk_everywhere(monkeypatch):
    """Serve every multi-candidate selection from the pruned walk."""
    monkeypatch.setattr(sptf, "PRUNED_DEPTH_THRESHOLD", 1)


def _random_stream(capacity, count, seed, writes=False):
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


def _drain_order(device, scheduler, requests, refill_every=3):
    """Dispatch order with mid-drain refills (so selections run against
    queues of many depths, including ties injected by duplicates)."""
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


DEVICE_KINDS = ("mems", "mems-nospring", "disk")


@pytest.mark.usefixtures("pruned_walk_everywhere")
class TestDispatchEquivalence:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    @pytest.mark.parametrize("scheduler_kind", ["sptf", "asptf"])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_random_streams(self, device_kind, scheduler_kind, seed):
        capacity = _make_device(device_kind).capacity_sectors
        requests = _random_stream(capacity, 140, seed, writes=True)
        naive_dev = _make_device(device_kind)
        naive = _drain_order(
            naive_dev, reference_for(scheduler_kind, naive_dev), requests
        )
        pruned_dev = _make_device(device_kind)
        pruned = _drain_order(
            pruned_dev, _make_scheduler(scheduler_kind, pruned_dev), requests
        )
        assert naive == pruned

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_duplicate_requests_tie_break_identically(self, device_kind):
        # Equal-valued requests are distinct pending entries; ties must
        # resolve to the earliest arrival in both paths.
        capacity = _make_device(device_kind).capacity_sectors
        base = _random_stream(capacity, 30, seed=3)
        requests = []
        for index, request in enumerate(base):
            requests.append(request)
            requests.append(
                Request(
                    request.arrival_time,
                    request.lbn,
                    request.sectors,
                    request.kind,
                    request_id=1000 + index,
                )
            )
        naive_dev = _make_device(device_kind)
        naive = _drain_order(naive_dev, ReferenceSPTF(naive_dev), requests)
        pruned_dev = _make_device(device_kind)
        pruned = _drain_order(pruned_dev, SPTFScheduler(pruned_dev), requests)
        assert naive == pruned

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_single_cylinder_queue_degenerates_to_full_scan(self, device_kind):
        # Every pending request on one cylinder: the bound can never beat
        # the incumbent, so the walk prices everything — and must still
        # agree with the naive scan.
        device = _make_device(device_kind)
        scheduler = SPTFScheduler(device)
        naive_dev = _make_device(device_kind)
        naive_sched = ReferenceSPTF(naive_dev)
        requests = [
            Request(0.0, lbn=slot, sectors=1, kind=IOKind.READ, request_id=slot)
            for slot in range(12)
        ]
        assert _drain_order(device, scheduler, requests, refill_every=0) == (
            _drain_order(naive_dev, naive_sched, requests, refill_every=0)
        )
        # The drain's final pop saw a single candidate: the depth-1
        # shortcut dispatches it without pricing anything.
        assert scheduler.last_candidates == 1
        assert scheduler.last_priced == 0
        # A multi-candidate selection on one cylinder prices the whole
        # queue — the bound can never beat the incumbent.
        repeat_dev = _make_device(device_kind)
        repeat = SPTFScheduler(repeat_dev)
        for request in requests:
            repeat.add(request)
        repeat.pop_next(0.0)
        assert repeat.last_candidates == len(requests)
        assert repeat.last_pruned == 0

    def test_layout_driven_streams(self):
        # Request streams drawn from every layout scheme's placement: the
        # organ-pipe/columnar/subregioned placements concentrate load in
        # ways random streams don't (heavy cylinder reuse, Y-constrained
        # placements), which stresses tie-breaking and bucket reuse.
        fileset = FileSet(small_blocks=120, large_files=4)
        for layout_name in LAYOUTS.names():
            for device_kind in ("mems", "disk"):
                probe = _make_device(device_kind)
                try:
                    layout = make_layout(layout_name, probe)
                except Exception:
                    continue  # e.g. subregioned needs the MEMS geometry
                placement = layout.place(fileset, probe.capacity_sectors)
                rng = random.Random(11)
                requests = []
                for index in range(120):
                    if rng.random() < 0.75:
                        lbn = rng.choice(placement.small_lbns)
                        sectors = fileset.small_sectors
                    else:
                        lbn = rng.choice(placement.large_lbns)
                        sectors = fileset.large_sectors
                    requests.append(
                        Request(index * 1e-4, lbn, sectors, IOKind.READ, index)
                    )
                naive_dev = _make_device(device_kind)
                naive = _drain_order(
                    naive_dev, ReferenceSPTF(naive_dev), requests
                )
                pruned_dev = _make_device(device_kind)
                pruned = _drain_order(
                    pruned_dev, SPTFScheduler(pruned_dev), requests
                )
                assert naive == pruned, (layout_name, device_kind)


@pytest.mark.usefixtures("pruned_walk_everywhere")
class TestSimulationEquivalence:
    @pytest.mark.parametrize("device", ["mems", "atlas10k"])
    @pytest.mark.parametrize("scheduler", ["SPTF", "ASPTF"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_end_to_end_results_identical(self, device, scheduler, traced):
        from repro.obs.tracer import RingBufferTracer, TRACE_SCHEMA
        from repro.obs.validate import validate_events
        from repro.sim import Simulation
        from repro.sim.config import SimConfig

        config = SimConfig(
            device=device,
            scheduler=scheduler,
            rate=1100.0,
            num_requests=500,
            seed=5,
        )
        naive_dev = config.build_device()
        naive_sim = Simulation(
            naive_dev, reference_for(scheduler.lower(), naive_dev)
        )
        naive_result = naive_sim.run(config.build_requests(naive_dev))
        tracer = RingBufferTracer() if traced else None
        sim = Simulation.from_config(config, tracer=tracer)
        pruned_result = sim.run(config.build_requests(sim.device))
        assert [r.request.request_id for r in naive_result.records] == [
            r.request.request_id for r in pruned_result.records
        ]
        assert (
            naive_result.mean_response_time
            == pruned_result.mean_response_time
        )
        assert naive_result.end_time == pruned_result.end_time
        assert (
            naive_result.response_time_cv2 == pruned_result.response_time_cv2
        )
        if traced:
            dispatches = tracer.by_kind("sched.dispatch")
            assert dispatches
            assert any(e["candidates_pruned"] > 0 for e in dispatches)
            for event in dispatches:
                assert (
                    event["candidates_priced"] + event["candidates_pruned"]
                    == event["candidates"]
                )
            meta = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
            assert validate_events([meta] + tracer.events) == []


class TestLowerBoundAdmissibility:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    def test_bound_never_exceeds_exact_estimate(self, device_kind):
        device = _make_device(device_kind)
        capacity = device.capacity_sectors
        rng = random.Random(23)
        now = 0.0
        for step in range(400):
            sectors = rng.choice((1, 4, 8, 64))
            request = Request(
                0.0,
                rng.randrange(0, capacity - sectors),
                sectors,
                rng.choice((IOKind.READ, IOKind.WRITE)),
            )
            bound = device.positioning_lower_bound(request, now)
            exact = device.estimate_positioning(request, now)
            assert bound <= exact, (
                f"step {step}: lower bound {bound!r} exceeds exact "
                f"estimate {exact!r} for lbn {request.lbn}"
            )
            # Mutate the mechanical state so later samples bound from
            # many different positions.
            if step % 3 == 0:
                now += device.service(request, now).total

    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    def test_bound_table_is_monotone_from_zero(self, device_kind):
        device = _make_device(device_kind)
        table = device.positioning_lower_bounds
        assert table[0] == 0.0
        assert all(b >= 0.0 for b in table)
        assert all(
            table[d] <= table[d + 1] for d in range(len(table) - 1)
        ), "bound table must be nondecreasing for the early-stop rule"

    def test_tables_shared_between_devices(self):
        # Module-level memoization on the frozen parameter sets: two
        # devices built from the same design point share one table object
        # (and forked sweep workers inherit it copy-on-write).
        assert (
            MEMSDevice().positioning_lower_bounds
            is MEMSDevice().positioning_lower_bounds
        )
        assert (
            DiskDevice(atlas_10k()).positioning_lower_bounds
            is DiskDevice(atlas_10k()).positioning_lower_bounds
        )


class TestPruneToggleAndFallback:
    def test_device_without_oracle_falls_back_to_full_scan(self):
        class OracleOnlyDevice:
            """Bare positioning oracle without the pruning surface."""

            def __init__(self):
                self._inner = MEMSDevice()
                self.capacity_sectors = self._inner.capacity_sectors

            def estimate_positioning(self, request, now=0.0):
                return self._inner.estimate_positioning(request, now)

            def service(self, request, now=0.0):
                return self._inner.service(request, now)

        device = OracleOnlyDevice()
        assert not device_supports_pruning(device)
        scheduler = SPTFScheduler(device)
        assert not scheduler.prune_enabled
        requests = _random_stream(device.capacity_sectors, 20, seed=2)
        reference_dev = MEMSDevice()
        reference = _drain_order(
            reference_dev, ReferenceSPTF(reference_dev), requests
        )
        assert _drain_order(device, scheduler, requests) == reference
        # Without the oracle the walk never runs: the drain's final
        # single-candidate pop reports the depth-1 shortcut (priced=0),
        # and a fresh multi-candidate scan prices every candidate.
        assert scheduler.last_candidates == 1
        assert scheduler.last_priced == 0
        for request in requests[:5]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler.last_candidates == 5
        assert scheduler.last_priced == 5
        assert scheduler.last_pruned == 0

    def test_device_without_batch_pricing_takes_the_scan(self):
        # The bound oracle alone is not enough: the deep-queue paths need
        # batch pricing too, so such a device scans at every depth.
        class BoundsOnlyDevice(MEMSDevice):
            estimate_positioning_batch = None

        device = BoundsOnlyDevice()
        assert not device_supports_pruning(device)
        scheduler = SPTFScheduler(device)
        requests = _random_stream(device.capacity_sectors, 160, seed=4)
        reference_dev = MEMSDevice()
        reference = _drain_order(
            reference_dev, ReferenceSPTF(reference_dev), requests
        )
        for request in requests[:100]:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler.last_fast_path == "scan"
        assert scheduler.last_priced == 100
        fresh_dev = BoundsOnlyDevice()
        assert (
            _drain_order(fresh_dev, SPTFScheduler(fresh_dev), requests)
            == reference
        )

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    def test_pruning_actually_prunes_on_spread_queues(self, device_kind):
        device = _make_device(device_kind)
        scheduler = SPTFScheduler(device)
        requests = _random_stream(device.capacity_sectors, 128, seed=13)
        for request in requests:
            scheduler.add(request)
        scheduler.pop_next(0.0)
        assert scheduler.last_candidates == 128
        assert 0 < scheduler.last_priced < 128
        assert scheduler.last_priced + scheduler.last_pruned == 128
