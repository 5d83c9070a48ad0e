"""Unit tests for the scheduling policies, using a stub device whose
positioning oracle is fully controllable."""

import pytest

from repro.core.scheduling import (
    AgedSPTFScheduler,
    CLOOKScheduler,
    FCFSScheduler,
    PAPER_ALGORITHMS,
    SPTFScheduler,
    SSTFScheduler,
    ShortestXFirstScheduler,
    make_scheduler,
)
from repro.sim import AccessResult, IOKind, Request, StorageDevice


class StubDevice(StorageDevice):
    """Positioning = |lbn - last_lbn| in microseconds."""

    def __init__(self, capacity=100_000):
        self.capacity = capacity
        self._last_lbn = 0

    @property
    def capacity_sectors(self):
        return self.capacity

    @property
    def last_lbn(self):
        return self._last_lbn

    def set_head(self, lbn):
        self._last_lbn = lbn

    def service(self, request, now=0.0):
        self._last_lbn = request.last_lbn
        return AccessResult(total=1e-3)

    def estimate_positioning(self, request, now=0.0):
        return abs(request.lbn - self._last_lbn) * 1e-6


def req(lbn, rid=0, arrival=0.0):
    return Request(arrival, lbn=lbn, sectors=1, kind=IOKind.READ, request_id=rid)


class TestFCFS:
    def test_arrival_order(self):
        scheduler = FCFSScheduler()
        for index, lbn in enumerate([30, 10, 20]):
            scheduler.add(req(lbn, rid=index))
        assert [scheduler.pop_next().lbn for _ in range(3)] == [30, 10, 20]

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            FCFSScheduler().pop_next()

    def test_len_and_pending(self):
        scheduler = FCFSScheduler()
        scheduler.add(req(1))
        assert len(scheduler) == 1
        assert [r.lbn for r in scheduler.pending()] == [1]


class TestSSTF:
    def test_picks_nearest_lbn(self):
        device = StubDevice()
        device.set_head(100)
        scheduler = SSTFScheduler(device)
        for index, lbn in enumerate([500, 90, 300]):
            scheduler.add(req(lbn, rid=index))
        assert scheduler.pop_next().lbn == 90

    def test_tie_breaks_by_arrival(self):
        device = StubDevice()
        device.set_head(100)
        scheduler = SSTFScheduler(device)
        scheduler.add(req(110, rid=0))
        scheduler.add(req(90, rid=1))  # same distance, arrived later
        assert scheduler.pop_next().lbn == 110

    def test_greedy_can_starve_far_requests(self):
        """The behaviour behind SSTF's poor cv² in Figs. 5(b)/6(b)."""
        device = StubDevice()
        device.set_head(0)
        scheduler = SSTFScheduler(device)
        scheduler.add(req(10_000, rid=0))
        for index in range(1, 6):
            scheduler.add(req(index, rid=index))
        order = []
        while len(scheduler):
            request = scheduler.pop_next()
            device.set_head(request.lbn)
            order.append(request.lbn)
        assert order[-1] == 10_000


class TestCLOOK:
    def test_ascending_scan(self):
        device = StubDevice()
        device.set_head(100)
        scheduler = CLOOKScheduler(device)
        for index, lbn in enumerate([300, 150, 50]):
            scheduler.add(req(lbn, rid=index))
        order = []
        while len(scheduler):
            request = scheduler.pop_next()
            device.set_head(request.lbn)
            order.append(request.lbn)
        assert order == [150, 300, 50]

    def test_wraps_to_lowest(self):
        device = StubDevice()
        device.set_head(1000)
        scheduler = CLOOKScheduler(device)
        scheduler.add(req(10, rid=0))
        scheduler.add(req(20, rid=1))
        assert scheduler.pop_next().lbn == 10

    def test_pending_snapshot_sorted(self):
        device = StubDevice()
        scheduler = CLOOKScheduler(device)
        for index, lbn in enumerate([30, 10, 20]):
            scheduler.add(req(lbn, rid=index))
        assert [r.lbn for r in scheduler.pending()] == [10, 20, 30]

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            CLOOKScheduler(StubDevice()).pop_next()


class TestSPTF:
    def test_picks_minimum_positioning(self):
        device = StubDevice()
        device.set_head(100)
        scheduler = SPTFScheduler(device)
        for index, lbn in enumerate([500, 120, 90]):
            scheduler.add(req(lbn, rid=index))
        assert scheduler.pop_next().lbn == 90

    def test_uses_oracle_not_lbn(self):
        """SPTF must follow the device oracle even when LBN distance
        disagrees (the Fig. 7b TPC-C effect)."""

        class SkewedDevice(StubDevice):
            def estimate_positioning(self, request, now=0.0):
                # lbn 120 is physically cheap despite larger LBN distance
                return 0.0 if request.lbn == 120 else 1.0

        device = SkewedDevice()
        device.set_head(100)
        scheduler = SPTFScheduler(device)
        scheduler.add(req(101, rid=0))
        scheduler.add(req(120, rid=1))
        assert scheduler.pop_next().lbn == 120


class TestAgedSPTF:
    def test_zero_weight_equals_sptf(self):
        device = StubDevice()
        device.set_head(100)
        aged = AgedSPTFScheduler(device, age_weight=0.0)
        for index, lbn in enumerate([500, 90]):
            aged.add(req(lbn, rid=index))
        assert aged.pop_next(now=100.0).lbn == 90

    def test_aging_promotes_old_requests(self):
        device = StubDevice()
        device.set_head(0)
        aged = AgedSPTFScheduler(device, age_weight=1.0)
        aged.add(req(10_000, rid=0, arrival=0.0))  # old, far
        aged.add(req(1, rid=1, arrival=99.99))  # new, near
        assert aged.pop_next(now=100.0).lbn == 10_000

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AgedSPTFScheduler(StubDevice(), age_weight=-1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), True])
    def test_non_finite_weight_rejected(self, weight):
        # NaN scores fall back to queue order and an infinite weight is
        # FCFS: neither is the policy the caller asked for.
        with pytest.raises(ValueError, match="age_weight"):
            AgedSPTFScheduler(StubDevice(), age_weight=weight)


class TestShortestXFirst:
    def test_prefers_same_cylinder(self):
        device = StubDevice()
        device.set_head(2700 * 10)  # cylinder 10
        scheduler = ShortestXFirstScheduler(device, sectors_per_cylinder=2700)
        scheduler.add(req(2700 * 10 + 2000, rid=0))  # same cylinder, far LBN
        scheduler.add(req(2700 * 11, rid=1))  # next cylinder, near LBN
        assert scheduler.pop_next().lbn == 2700 * 10 + 2000

    def test_lbn_tie_break(self):
        device = StubDevice()
        device.set_head(2700 * 10)
        scheduler = ShortestXFirstScheduler(device, sectors_per_cylinder=2700)
        scheduler.add(req(2700 * 11 + 100, rid=0))
        scheduler.add(req(2700 * 11, rid=1))
        assert scheduler.pop_next().lbn == 2700 * 11

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ShortestXFirstScheduler(StubDevice(), sectors_per_cylinder=0)


class TestFactory:
    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    def test_paper_names(self, name):
        scheduler = make_scheduler(name, StubDevice())
        assert scheduler.name in (name, "SSTF_LBN")

    def test_aliases(self):
        assert make_scheduler("sstf", StubDevice()).name == "SSTF_LBN"
        assert make_scheduler("clook", StubDevice()).name == "C-LOOK"

    def test_sxtf_needs_geometry(self):
        with pytest.raises(ValueError):
            make_scheduler("SXTF", StubDevice())
        scheduler = make_scheduler(
            "SXTF", StubDevice(), sectors_per_cylinder=2700
        )
        assert scheduler.name == "SXTF"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("ELEVATOR-9000", StubDevice())


class TestSCAN:
    def test_sweeps_up_then_down(self):
        from repro.core.scheduling import SCANScheduler

        device = StubDevice()
        device.set_head(100)
        scheduler = SCANScheduler(device)
        for index, lbn in enumerate([300, 150, 50, 20]):
            scheduler.add(req(lbn, rid=index))
        order = []
        while len(scheduler):
            request = scheduler.pop_next()
            device.set_head(request.lbn)
            order.append(request.lbn)
        assert order == [150, 300, 50, 20]

    def test_reverses_at_bottom(self):
        from repro.core.scheduling import SCANScheduler

        device = StubDevice()
        device.set_head(500)
        scheduler = SCANScheduler(device)
        scheduler.add(req(400, rid=0))
        scheduler.add(req(600, rid=1))
        first = scheduler.pop_next()
        device.set_head(first.lbn)
        second = scheduler.pop_next()
        assert first.lbn == 600 and second.lbn == 400

    def test_factory(self):
        scheduler = make_scheduler("SCAN", StubDevice())
        assert scheduler.name == "SCAN"

    def test_empty_raises(self):
        from repro.core.scheduling import SCANScheduler

        with pytest.raises(IndexError):
            SCANScheduler(StubDevice()).pop_next()
