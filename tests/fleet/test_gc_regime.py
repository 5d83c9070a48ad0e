"""Every fleet member runs with the cyclic GC paused, whatever ``jobs`` is.

``run_fleet`` pauses the collector in-process; the persistent pool's task
body (``_run_pickled``) holds the same pause in each worker and restores
the worker's previous state afterwards.
"""

import gc
import json
import os

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import _run_pickled, parallel_map
from repro.fleet import FleetConfig, shard_requests
from repro.fleet.run import _run_member
from repro.sim import QueueOverflowError, SimConfig

SHM = "/dev/shm"


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _probe_member(*task):
    """``_run_member`` plus the GC state and collection count it ran under."""
    enabled = gc.isenabled()
    before = _collections()
    batch, end_time, _summary = _run_member(*task)
    return enabled, _collections() - before, batch, end_time


def _gc_enabled() -> bool:
    return gc.isenabled()


def set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_state():
    """Restore the session's GC state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    set_gc(was_enabled)


@pytest.fixture
def two_workers(monkeypatch):
    """Make the pool fork two real workers even on a one-core host."""
    monkeypatch.setattr(parallel, "available_parallelism", lambda: 2)


def member_tasks(fleet):
    capacities = fleet.member_capacities()
    plan = shard_requests(fleet, fleet.build_router(capacities))
    return [
        (member, plan.member_requests[index], None, None)
        for index, member in enumerate(fleet.members)
    ]


class TestTaskBody:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_pauses_and_restores_previous_state(self, gc_state, enabled):
        set_gc(enabled)
        assert _run_pickled((_gc_enabled, ())) is False
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_member_runs_paused_and_restores(self, gc_state, enabled):
        set_gc(enabled)
        fleet = FleetConfig.uniform(2, rate=1600.0, num_requests=400)
        task = member_tasks(fleet)[0]
        paused, collections, batch, _ = _run_pickled((_probe_member, task))
        assert paused is False and collections == 0
        assert len(batch) == len(task[1])
        assert gc.isenabled() is enabled

    def test_restores_when_the_task_raises(self, gc_state):
        gc.enable()

        def boom():
            raise RuntimeError("member failed")

        with pytest.raises(RuntimeError, match="member failed"):
            _run_pickled((boom, ()))
        assert gc.isenabled()


@pytest.mark.skipif(not parallel.fork_available(), reason="needs fork")
class TestPooledMembers:
    def test_pooled_members_run_paused(self, gc_state, two_workers):
        # A fresh pool forked outside any pause: its workers start with
        # the collector enabled, so only the task body can pause it.
        gc.enable()
        parallel.shutdown_pool()
        fleet = FleetConfig.uniform(4, rate=3200.0, num_requests=1200)
        tasks = member_tasks(fleet)
        outcomes = parallel_map(_probe_member, tasks, jobs=2)
        assert [paused for paused, *_ in outcomes] == [False] * 4
        assert [collections for _, collections, *_ in outcomes] == [0] * 4
        in_process = [_run_member(*task) for task in tasks]
        for (_, _, batch, end_time), (expected, expected_end, _) in zip(
            outcomes, in_process
        ):
            assert batch.to_records() == expected.to_records()
            assert end_time == expected_end

    def test_jobs_identity_with_gc_enabled_caller(self, gc_state, two_workers):
        gc.enable()
        fleet = FleetConfig.uniform(4, rate=3200.0, num_requests=1000)
        sequential = json.dumps(fleet.run(jobs=1).to_dict(), sort_keys=True)
        assert gc.isenabled()
        pooled = json.dumps(fleet.run(jobs=2).to_dict(), sort_keys=True)
        assert gc.isenabled()
        assert pooled == sequential


def _shm_segments():
    return {name for name in os.listdir(SHM) if name.startswith("psm_")}


@pytest.mark.skipif(not parallel.fork_available(), reason="needs fork")
@pytest.mark.skipif(not os.path.isdir(SHM), reason="needs /dev/shm")
class TestOverflow:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_overflow_restores_gc_and_leaves_no_segments(
        self, gc_state, two_workers, enabled
    ):
        set_gc(enabled)
        before = _shm_segments()
        member = SimConfig(scheduler="FCFS", max_queue_depth=4)
        fleet = FleetConfig.uniform(
            2, member=member, rate=40_000.0, num_requests=2000
        )
        with pytest.raises(QueueOverflowError):
            fleet.run(jobs=2)
        assert gc.isenabled() is enabled
        assert _shm_segments() - before == set()
