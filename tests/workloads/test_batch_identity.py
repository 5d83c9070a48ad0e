"""Columnar-path identity: batches must equal the object path, bitwise.

The columnar pipeline (RequestBatch generation, array routing) is an
optimization, not a semantic fork — these tests pin the contract from two
sides:

* every workload generator's ``generate_batch`` materializes to exactly
  the request list its ``generate`` builds, across seeds, rates, and
  footprints (float-exact, not approx: both paths must perform the same
  IEEE operations in the same order);
* every built-in router's ``route_array``/``member_lbn_array`` agree
  element-for-element with the scalar ``route``/``member_lbn`` over the
  same stream, including the stateful greedy policy.

``Request`` is a NamedTuple, so ``==`` over request lists compares every
field of every row with no tolerance.
"""

import pytest

from repro.fleet.routing import ROUTERS
from repro.nputil import get_numpy
from repro.sim.batch import RequestBatch
from repro.sim.request import IOKind, Request
from repro.workloads.cello import CelloLikeWorkload
from repro.workloads.synthetic import (
    RandomWorkload,
    SequentialWorkload,
    UniformFixedWorkload,
)
from repro.workloads.tpcc import TPCCLikeWorkload

CAPACITY = 500_000
COUNT = 400


class TestGeneratorBatchIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("rate", [300.0, 1500.0])
    def test_random_workload(self, seed, rate):
        workload = RandomWorkload(CAPACITY, rate=rate, seed=seed)
        assert (
            workload.generate_batch(COUNT).to_requests()
            == workload.generate(COUNT)
        )

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("read_fraction", [0.0, 0.67, 1.0])
    def test_random_workload_mix(self, seed, read_fraction):
        workload = RandomWorkload(
            CAPACITY,
            rate=800.0,
            read_fraction=read_fraction,
            mean_size_sectors=16.0,
            seed=seed,
        )
        assert (
            workload.generate_batch(COUNT).to_requests()
            == workload.generate(COUNT)
        )

    def test_random_workload_matches_scalar_reference(self):
        # iter_requests is the executable spec: one scalar RNG draw per
        # column per request.  The whole-array path must replay it.
        workload = RandomWorkload(CAPACITY, rate=600.0, seed=42)
        assert workload.generate_batch(COUNT).to_requests() == list(
            workload.iter_requests(COUNT)
        )

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("pool", [None, [0, 512, 1024, 65536]])
    def test_uniform_fixed_workload(self, seed, pool):
        workload = UniformFixedWorkload(
            CAPACITY, sectors=8, read_fraction=0.5, lbn_pool=pool, seed=seed
        )
        assert (
            workload.generate_batch(COUNT).to_requests()
            == workload.generate(COUNT)
        )

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("extent", [4096, 100_000])
    def test_sequential_workload(self, seed, extent):
        workload = SequentialWorkload(
            CAPACITY,
            rate=400.0,
            request_sectors=64,
            start_lbn=1000,
            extent_sectors=extent,
            seed=seed,
        )
        batch = SequentialWorkload(
            CAPACITY,
            rate=400.0,
            request_sectors=64,
            start_lbn=1000,
            extent_sectors=extent,
            seed=seed,
        ).generate_batch(COUNT)
        if seed is None:
            # Unseeded streams differ per call; compare structure only.
            objects = workload.generate(COUNT)
            assert [r.lbn for r in batch.to_requests()] == [
                r.lbn for r in objects
            ]
        else:
            assert batch.to_requests() == workload.generate(COUNT)

    @pytest.mark.parametrize("seed", [1, 8])
    @pytest.mark.parametrize("footprint", [0.25, 0.5])
    def test_cello_like(self, seed, footprint):
        make = lambda: CelloLikeWorkload(  # noqa: E731
            CAPACITY, footprint_fraction=footprint, seed=seed
        )
        assert (
            make().generate_batch(COUNT).to_requests()
            == make().generate(COUNT).requests
        )

    @pytest.mark.parametrize("seed", [1, 8])
    def test_tpcc_like(self, seed):
        make = lambda: TPCCLikeWorkload(CAPACITY, seed=seed)  # noqa: E731
        assert (
            make().generate_batch(COUNT).to_requests()
            == make().generate(COUNT).requests
        )


HETEROGENEOUS = (300_000, 100_000, 500_000, 200_000)


class TestRouterArrayIdentity:
    """All four policies: array routing == scalar routing, row for row."""

    @pytest.fixture()
    def batch(self):
        fleet_capacity = sum(HETEROGENEOUS)
        return RandomWorkload(
            fleet_capacity, rate=1000.0, seed=11
        ).generate_batch(COUNT)

    @pytest.mark.parametrize("name", ["lbn-range", "hash", "round-robin",
                                      "least-loaded-static"])
    def test_route_array_matches_scalar(self, name, batch):
        np = get_numpy()
        requests = batch.to_requests()
        # Fresh routers per path: the greedy policy mutates member loads.
        scalar_router = ROUTERS.create(name, HETEROGENEOUS)
        array_router = ROUTERS.create(name, HETEROGENEOUS)
        scalar = [scalar_router.route(request) for request in requests]
        array = array_router.route_array(batch)
        assert array.dtype == np.int64
        assert array.tolist() == scalar
        # Stateful policies must leave identical state behind.
        if hasattr(scalar_router, "_load"):
            assert array_router._load == scalar_router._load

    @pytest.mark.parametrize("name", ["lbn-range", "hash", "round-robin",
                                      "least-loaded-static"])
    def test_member_lbn_array_matches_scalar(self, name, batch):
        np = get_numpy()
        requests = batch.to_requests()
        scalar_router = ROUTERS.create(name, HETEROGENEOUS)
        array_router = ROUTERS.create(name, HETEROGENEOUS)
        scalar_members = [
            scalar_router.route(request) for request in requests
        ]
        scalar_local = [
            scalar_router.member_lbn(request, member)
            for request, member in zip(requests, scalar_members)
        ]
        members = array_router.route_array(batch)
        local = array_router.member_lbn_array(batch.lbn, members)
        assert members.tolist() == scalar_members
        assert local.tolist() == scalar_local

    def test_hash_router_chunk_parameter(self, batch):
        scalar_router = ROUTERS.create("hash", HETEROGENEOUS)
        array_router = ROUTERS.create("hash", HETEROGENEOUS)
        assert scalar_router.chunk_sectors == array_router.chunk_sectors
        requests = batch.to_requests()
        assert array_router.route_array(batch).tolist() == [
            scalar_router.route(request) for request in requests
        ]


class TestBatchRoundTrip:
    def test_from_requests_round_trip(self):
        workload = RandomWorkload(CAPACITY, rate=500.0, seed=5)
        requests = workload.generate(COUNT)
        batch = RequestBatch.from_requests(requests)
        assert batch.to_requests() == requests

    @pytest.mark.parametrize(
        "arrival, lbn, sectors",
        [(float("nan"), 0, 1), (float("inf"), 0, 1), (-1.0, 0, 1),
         (0.5, -3, 1), (0.5, 0, 0)],
    )
    def test_bad_row_raises_the_scalar_message(self, arrival, lbn, sectors):
        with pytest.raises(ValueError) as scalar:
            Request(arrival, lbn=lbn, sectors=sectors, kind=IOKind.READ,
                    request_id=1)
        batch = RequestBatch(
            arrival=[0.0, arrival, 1.0],
            lbn=[0, lbn, 0],
            sectors=[1, sectors, 1],
            is_write=[False, False, False],
            rid=[0, 1, 2],
        )
        for materialize in (batch.to_requests, lambda: batch.validate(10**6)):
            with pytest.raises(ValueError) as bulk:
                materialize()
            assert str(bulk.value) == str(scalar.value)
