"""Column-backed results are indistinguishable from record-backed ones.

A :class:`SimulationResult` over a :class:`RecordBatch` must report exactly
what the record list it was built from reports: the same ``to_dict`` bytes,
the same percentiles, and — once built lazily — an equal record list.
"""

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.merge import merge_results
from repro.sim import (
    AccessResult,
    IOKind,
    RecordBatch,
    Request,
    RequestBatch,
    RequestRecord,
    SimConfig,
    SimulationResult,
)

# Small pools of values so completion-time ties (and duplicate response
# times) are common rather than vanishingly rare.
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(
    0.0, 5.0, allow_nan=False, allow_infinity=False
)
PHASE = st.sampled_from([0.0, 1e-4, 2.5e-4]) | st.floats(
    0.0, 0.01, allow_nan=False, allow_infinity=False
)


@st.composite
def record_lists(draw, max_size=40):
    count = draw(st.integers(0, max_size))
    rids = draw(st.permutations(range(count)))
    records = []
    for rid in rids:
        arrival = draw(TIMES)
        dispatch = arrival + draw(TIMES)
        access = AccessResult(
            total=draw(PHASE),
            seek_x=draw(PHASE),
            seek_y=draw(PHASE),
            settle=draw(PHASE),
            rotational_latency=draw(PHASE),
            transfer=draw(PHASE),
            turnarounds=draw(PHASE),
            bits_accessed=draw(st.integers(0, 1 << 20)),
        )
        request = Request(
            arrival_time=arrival,
            lbn=draw(st.integers(0, 10**6)),
            sectors=draw(st.integers(1, 64)),
            kind=draw(st.sampled_from([IOKind.READ, IOKind.WRITE])),
            request_id=rid,
        )
        records.append(
            RequestRecord(request, dispatch, dispatch + access.total, access)
        )
    records.sort(key=lambda r: r.completion_time)
    return records


def outcome(fn):
    """``fn()``'s value, or its exception's type and message."""
    try:
        return ("ok", fn())
    except (ValueError, IndexError) as exc:
        return ("error", type(exc).__name__, str(exc))


def dump(result):
    return outcome(lambda: json.dumps(result.to_dict(), sort_keys=True))


def assert_same(by_records, by_columns):
    assert len(by_columns) == len(by_records)
    assert dump(by_columns) == dump(by_records)
    assert outcome(by_columns.percentiles) == outcome(by_records.percentiles)
    assert outcome(lambda: by_columns.percentiles(10, 50, 99.9)) == outcome(
        lambda: by_records.percentiles(10, 50, 99.9)
    )
    assert by_columns.records == by_records.records


def column_backed(result):
    return SimulationResult(
        batch=RecordBatch.from_records(result.records),
        end_time=result.end_time,
    )


class TestIdentity:
    @settings(max_examples=150, deadline=None)
    @given(records=record_lists(), end_extra=TIMES)
    def test_summaries_and_records_match(self, records, end_extra):
        last = max((r.completion_time for r in records), default=0.0)
        end = last + end_extra
        by_records = SimulationResult(records=list(records), end_time=end)
        assert_same(by_records, column_backed(by_records))

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(), warmup=st.integers(0, 45))
    def test_drop_warmup_matches(self, records, warmup):
        end = max((r.completion_time for r in records), default=0.0) + 1.0
        by_records = SimulationResult(records=list(records), end_time=end)
        assert_same(
            by_records.drop_warmup(warmup),
            column_backed(by_records).drop_warmup(warmup),
        )

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(), seed=st.integers(0, 2**16))
    def test_gather_by_rid_matches_transpose(self, records, seed):
        """Request columns gathered from a shuffled source batch by rid
        equal the ones read back out of the records' requests."""
        requests = [record.request for record in records]
        random.Random(seed).shuffle(requests)
        gathered = RecordBatch.from_records(
            records, RequestBatch.from_requests(requests)
        )
        transposed = RecordBatch.from_records(records)
        assert gathered.to_records() == transposed.to_records() == records

    @settings(max_examples=100, deadline=None)
    @given(shards=st.lists(record_lists(max_size=15), max_size=4))
    def test_merge_orders_by_completion_then_rid(self, shards):
        """Ties on completion time (common here) break by rid, and equal
        keys keep shard order: the order a stable list sort gives."""
        results = [
            SimulationResult(records=list(records), end_time=10.0)
            for records in shards
        ]
        merged = merge_results([column_backed(r) for r in results])
        expected = sorted(
            [record for records in shards for record in records],
            key=lambda r: (r.completion_time, r.request.request_id),
        )
        assert merged.records == expected
        assert merged.end_time == (10.0 if shards else 0.0)

    def test_single_record(self):
        access = AccessResult(total=0.002, seek_x=0.001, transfer=0.001)
        request = Request(0.5, lbn=7, sectors=2, kind=IOKind.WRITE)
        record = RequestRecord(request, 0.75, 0.752, access)
        by_records = SimulationResult(records=[record], end_time=1.0)
        assert_same(by_records, column_backed(by_records))

    def test_empty(self):
        by_records = SimulationResult()
        by_columns = column_backed(by_records)
        assert_same(by_records, by_columns)
        with pytest.raises(ValueError, match="no completed requests"):
            by_columns.mean_response_time

    def test_engine_result(self):
        result = SimConfig(num_requests=800, rate=900.0, seed=5).run()
        assert_same(result, column_backed(result))

    def test_lazy_records_are_tuples_of_the_engine_types(self):
        result = SimConfig(num_requests=50, rate=500.0, seed=2).run()
        rebuilt = column_backed(result).records
        assert all(type(record) is RequestRecord for record in rebuilt)
        assert all(type(record.request) is Request for record in rebuilt)
        assert all(type(record.access) is AccessResult for record in rebuilt)


class TestColumnBackedResult:
    def test_records_built_once(self):
        result = column_backed(SimConfig(num_requests=100, seed=3).run())
        assert result.records is result.records

    def test_pickle_ships_columns_not_the_record_cache(self):
        result = column_backed(SimConfig(num_requests=300, seed=4).run())
        cold = pickle.dumps(result)
        result.records  # noqa: B018 - builds and caches the record list
        assert pickle.dumps(result) == cold
        clone = pickle.loads(cold)
        assert json.dumps(clone.to_dict()) == json.dumps(result.to_dict())
        assert clone.records == result.records

    def test_records_or_batch_not_both(self):
        batch = RecordBatch.from_records([])
        with pytest.raises(ValueError, match="not both"):
            SimulationResult(records=[], batch=batch)

    def test_merge_is_column_backed_and_ordered(self):
        a = SimConfig(num_requests=80, rate=400.0, seed=1).run()
        b = SimConfig(num_requests=80, rate=400.0, seed=2).run()
        merged = merge_results([a, column_backed(b)])
        assert merged.batch is not None
        expected = sorted(
            a.records + b.records,
            key=lambda r: (r.completion_time, r.request.request_id),
        )
        assert merged.records == expected


class TestRowsOf:
    def test_missing_rid_rejected(self):
        batch = RequestBatch.from_requests(
            [Request(0.0, 0, 1, IOKind.READ, request_id=3)]
        )
        with pytest.raises(ValueError, match="missing"):
            batch.rows_of([4])

    def test_duplicate_rids_rejected(self):
        batch = RequestBatch.from_requests(
            [
                Request(0.0, 0, 1, IOKind.READ, request_id=5),
                Request(0.1, 0, 1, IOKind.READ, request_id=2),
                Request(0.2, 0, 1, IOKind.READ, request_id=5),
            ]
        )
        with pytest.raises(ValueError, match="duplicate"):
            batch.rows_of([2])
