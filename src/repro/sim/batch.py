"""Columnar request and record batches: numpy structure-of-arrays streams.

A :class:`RequestBatch` is the array-native twin of a ``List[Request]`` —
five parallel columns (arrival, lbn, sectors, is_write, rid) holding one
request per row.  Workload generators produce batches in whole-array ops
(:meth:`~repro.workloads.synthetic.RandomWorkload.generate_batch`), the
fleet front-end routes them with single array passes
(:func:`repro.fleet.frontend.shard_requests`), and the engine ingests them
directly (:meth:`repro.sim.engine.Simulation.run`), materializing
:class:`~repro.sim.request.Request` objects only at the event-loop
boundary where the scheduler and device need them.

The columnar path is an *optimization, not a semantic fork*: a batch and
the request list it materializes describe exactly the same stream, and the
equivalence tests (``tests/workloads/test_batch_identity.py``) pin the
scalar and vectorized generators to bit-identical output.  Column dtypes
are fixed (float64/int64/bool) so results cannot drift with platform
integer sizes.

A :class:`RecordBatch` is the same idea on the output side: the columns
of a ``List[RequestRecord]``.  Fleet members hand their results back to the
driver in this form, and :class:`~repro.sim.statistics.SimulationResult`
can be backed by one, building record objects only when asked.

numpy is imported lazily through :mod:`repro.nputil`, like every other
vectorized hot path in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence

from repro.nputil import get_numpy
from repro.sim.request import AccessResult, IOKind, Request, RequestRecord


@dataclass
class RequestBatch:
    """A request stream as five parallel numpy columns.

    Attributes:
        arrival: float64 — arrival times in seconds.
        lbn: int64 — starting logical block numbers.
        sectors: int64 — transfer lengths (>= 1).
        is_write: bool — True for writes, False for reads.
        rid: int64 — request ids (the workload generator's dense sequence).
    """

    arrival: Any
    lbn: Any
    sectors: Any
    is_write: Any
    rid: Any

    def __post_init__(self) -> None:
        np = get_numpy()
        self.arrival = np.ascontiguousarray(self.arrival, dtype=np.float64)
        self.lbn = np.ascontiguousarray(self.lbn, dtype=np.int64)
        self.sectors = np.ascontiguousarray(self.sectors, dtype=np.int64)
        self.is_write = np.ascontiguousarray(self.is_write, dtype=np.bool_)
        self.rid = np.ascontiguousarray(self.rid, dtype=np.int64)
        lengths = {
            len(self.arrival),
            len(self.lbn),
            len(self.sectors),
            len(self.is_write),
            len(self.rid),
        }
        if len(lengths) != 1:
            raise ValueError(f"ragged request batch: column lengths {lengths}")

    def __len__(self) -> int:
        return len(self.rid)

    def __iter__(self):
        """Iterate rows as :class:`Request` objects (materializes once)."""
        return iter(self.to_requests())

    # -- construction -------------------------------------------------------- #

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Columnarize an existing request sequence (the object→array seam)."""
        np = get_numpy()
        rows = list(requests)
        return cls(
            arrival=np.array([r.arrival_time for r in rows], dtype=np.float64),
            lbn=np.array([r.lbn for r in rows], dtype=np.int64),
            sectors=np.array([r.sectors for r in rows], dtype=np.int64),
            is_write=np.array(
                [not r.kind.is_read for r in rows], dtype=np.bool_
            ),
            rid=np.array([r.request_id for r in rows], dtype=np.int64),
        )

    # -- views --------------------------------------------------------------- #

    def take(self, indices) -> "RequestBatch":
        """A new batch holding the rows at ``indices`` (fancy indexing)."""
        return RequestBatch(
            arrival=self.arrival[indices],
            lbn=self.lbn[indices],
            sectors=self.sectors[indices],
            is_write=self.is_write[indices],
            rid=self.rid[indices],
        )

    def is_sorted(self) -> bool:
        """True when rows are in ``(arrival, rid)`` order (engine order)."""
        np = get_numpy()
        if len(self) < 2:
            return True
        a, r = self.arrival, self.rid
        earlier = a[1:] < a[:-1]
        tied_out_of_order = (a[1:] == a[:-1]) & (r[1:] < r[:-1])
        return not bool(np.any(earlier | tied_out_of_order))

    def sorted_by_arrival(self) -> "RequestBatch":
        """A copy in ``(arrival, rid)`` order (stable, deterministic)."""
        np = get_numpy()
        return self.take(np.lexsort((self.rid, self.arrival)))

    def rows_of(self, rids) -> Any:
        """Row index of each request id in ``rids``.

        Request ids must be unique within the batch, and every id in
        ``rids`` must be present; either violation raises ``ValueError``.
        A batch whose ids ascend (every generated stream) is searched
        directly, any other through a stable argsort.
        """
        np = get_numpy()
        rids = np.asarray(rids, dtype=np.int64)
        if len(rids) == 0:
            return np.empty(0, dtype=np.int64)
        own = self.rid
        order = None
        if len(own) > 1 and not bool(np.all(own[1:] > own[:-1])):
            order = np.argsort(own, kind="stable")
            own = own[order]
            if bool(np.any(own[1:] == own[:-1])):
                raise ValueError("request batch holds duplicate request ids")
        rows = np.minimum(np.searchsorted(own, rids), max(len(own) - 1, 0))
        if len(own) == 0 or not bool(np.array_equal(own[rows], rids)):
            raise ValueError("request ids missing from the request batch")
        return rows if order is None else order[rows]

    # -- validation ---------------------------------------------------------- #

    def validate(self, capacity_sectors: int) -> None:
        """Bulk twin of per-request validation: one array pass, same errors.

        Checks every row against the :class:`~repro.sim.request.Request`
        invariants and the device capacity.  On failure the *first*
        offending row (in storage order) is pushed through the scalar
        constructors so callers see the exact error message the object path
        would have raised.
        """
        np = get_numpy()
        if len(self) == 0:
            return
        bad = (
            ~((self.arrival >= 0.0) & (self.arrival < np.inf))
            | (self.lbn < 0)
            | (self.sectors < 1)
            | (self.lbn + self.sectors > capacity_sectors)
        )
        if not bool(np.any(bad)):
            return
        row = int(np.argmax(bad))
        request = Request(
            arrival_time=float(self.arrival[row]),
            lbn=int(self.lbn[row]),
            sectors=int(self.sectors[row]),
            kind=IOKind.WRITE if self.is_write[row] else IOKind.READ,
            request_id=int(self.rid[row]),
        )
        if request.last_lbn >= capacity_sectors:
            raise ValueError(
                f"request [{request.lbn}, {request.last_lbn}] exceeds device "
                f"capacity of {capacity_sectors} sectors"
            )
        raise AssertionError("bulk validation flagged a valid row")

    # -- materialization ----------------------------------------------------- #

    def to_requests(self) -> List[Request]:
        """Materialize the batch as :class:`Request` objects, row order.

        ``tolist()`` converts each column to Python scalars in one C pass,
        so the per-row work is just the dataclass constructor — the objects
        are indistinguishable from ones a scalar generator built.
        """
        read, write = IOKind.READ, IOKind.WRITE
        return [
            Request(
                arrival_time=arrival,
                lbn=lbn,
                sectors=sectors,
                kind=write if is_write else read,
                request_id=rid,
            )
            for arrival, lbn, sectors, is_write, rid in zip(
                self.arrival.tolist(),
                self.lbn.tolist(),
                self.sectors.tolist(),
                self.is_write.tolist(),
                self.rid.tolist(),
            )
        ]


_ACCESS_FIELDS = AccessResult._fields
"""``AccessResult`` fields in tuple order: the seven phase floats, then
``bits_accessed``."""

_RECORD_DTYPES = {
    "rid": "int64",
    "arrival": "float64",
    "lbn": "int64",
    "sectors": "int64",
    "is_write": "bool",
    "dispatch": "float64",
    "completion": "float64",
    **{name: "float64" for name in _ACCESS_FIELDS},
    "bits_accessed": "int64",
}

_ACCESS_DTYPE = [(name, _RECORD_DTYPES[name]) for name in _ACCESS_FIELDS]
"""Packed row layout of one ``AccessResult`` (see ``from_records``)."""

_record_request = itemgetter(0)
_request_rid = itemgetter(4)
_record_dispatch = itemgetter(1)
_record_completion = itemgetter(2)
_record_access = itemgetter(3)


@dataclass
class RecordBatch:
    """Completed request records as parallel numpy columns, one row each.

    The columnar form of a ``List[RequestRecord]`` in result order: the
    request's columns (``rid``, ``arrival``, ``lbn``, ``sectors``,
    ``is_write``), the engine's ``dispatch``/``completion`` times, and the
    device's :class:`~repro.sim.request.AccessResult` — its seven phase
    floats (``total`` .. ``turnarounds``) and ``bits_accessed``.

    Fleet members return their results in this form: a handful of flat
    arrays pickle across the worker boundary in a fraction of the time the
    equivalent nested tuples take, and the fleet merge is one array sort.
    :meth:`to_records` rebuilds records equal to the ones the engine built.
    """

    rid: Any
    arrival: Any
    lbn: Any
    sectors: Any
    is_write: Any
    dispatch: Any
    completion: Any
    total: Any
    seek_x: Any
    seek_y: Any
    settle: Any
    rotational_latency: Any
    transfer: Any
    turnarounds: Any
    bits_accessed: Any

    def __post_init__(self) -> None:
        np = get_numpy()
        lengths = set()
        for name, dtype in _RECORD_DTYPES.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            setattr(self, name, column)
            lengths.add(len(column))
        if len(lengths) > 1:
            raise ValueError(f"ragged record batch: column lengths {lengths}")

    def __len__(self) -> int:
        return len(self.rid)

    # -- construction -------------------------------------------------------- #

    @classmethod
    def from_records(
        cls,
        records: Sequence[RequestRecord],
        requests: Optional[RequestBatch] = None,
    ) -> "RecordBatch":
        """Columnarize ``records``, keeping their order.

        With ``requests`` — the batch the records' requests came from — the
        request columns are gathered from it by rid
        (:meth:`RequestBatch.rows_of`) instead of being read back out of
        every ``Request`` tuple.
        """
        np = get_numpy()
        count = len(records)
        rid = np.fromiter(
            map(_request_rid, map(_record_request, records)),
            dtype=np.int64,
            count=count,
        )
        if requests is None:
            source = RequestBatch.from_requests(map(_record_request, records))
        else:
            source = requests.take(requests.rows_of(rid))
        # One pass converts every AccessResult into a packed row; the
        # columns are then contiguous copies of the record's fields.
        access = np.fromiter(
            map(_record_access, records), dtype=_ACCESS_DTYPE, count=count
        )
        return cls(
            rid=rid,
            arrival=source.arrival,
            lbn=source.lbn,
            sectors=source.sectors,
            is_write=source.is_write,
            dispatch=np.fromiter(
                map(_record_dispatch, records), dtype=np.float64, count=count
            ),
            completion=np.fromiter(
                map(_record_completion, records), dtype=np.float64, count=count
            ),
            **{name: access[name] for name in _ACCESS_FIELDS},
        )

    @classmethod
    def concatenate(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """All rows of ``batches``, in order (an empty batch for none)."""
        np = get_numpy()
        return cls(
            **{
                name: np.concatenate(
                    [getattr(batch, name) for batch in batches]
                )
                if batches
                else np.empty(0, dtype=dtype)
                for name, dtype in _RECORD_DTYPES.items()
            }
        )

    # -- views --------------------------------------------------------------- #

    def take(self, indices) -> "RecordBatch":
        """A new batch holding the rows at ``indices`` (index array or slice)."""
        return RecordBatch(
            **{name: getattr(self, name)[indices] for name in _RECORD_DTYPES}
        )

    # -- materialization ----------------------------------------------------- #

    def to_records(self) -> List[RequestRecord]:
        """Rebuild the :class:`RequestRecord` list, row order.

        Values come from records that were valid when the engine built
        them, so the tuples are made through ``tuple.__new__`` and skip the
        validating constructors.
        """
        read, write = IOKind.READ, IOKind.WRITE
        new = tuple.__new__
        accesses = zip(
            *(getattr(self, name).tolist() for name in _ACCESS_FIELDS)
        )
        return [
            new(
                RequestRecord,
                (
                    new(
                        Request,
                        (arrival, lbn, sectors, write if is_write else read, rid),
                    ),
                    dispatch,
                    completion,
                    new(AccessResult, access),
                ),
            )
            for (
                rid,
                arrival,
                lbn,
                sectors,
                is_write,
                dispatch,
                completion,
                access,
            ) in zip(
                self.rid.tolist(),
                self.arrival.tolist(),
                self.lbn.tolist(),
                self.sectors.tolist(),
                self.is_write.tolist(),
                self.dispatch.tolist(),
                self.completion.tolist(),
                accesses,
            )
        ]


def as_request_list(requests) -> List[Request]:
    """Normalize a batch or request iterable to a ``List[Request]``."""
    if isinstance(requests, RequestBatch):
        return requests.to_requests()
    return list(requests)


def as_request_batch(requests) -> RequestBatch:
    """Normalize a batch or request iterable to a :class:`RequestBatch`."""
    if isinstance(requests, RequestBatch):
        return requests
    return RequestBatch.from_requests(requests)
