"""Metrics over a completed simulation run.

The paper evaluates schedulers with two metrics (§4.1):

* **average response time** — queue time plus service time;
* **squared coefficient of variation** of response time, σ²/µ² — the
  starvation-resistance ("fairness") metric of Teorey & Pinkerton [TP72] and
  Worthington et al. [WGP94]; lower is better.

:class:`SimulationResult` carries the raw per-request records (as a list,
or as :class:`~repro.sim.batch.RecordBatch` columns), but callers should
prefer the summary accessors (:meth:`SimulationResult.percentiles`,
:meth:`SimulationResult.to_dict`, the mean/throughput properties) over
iterating ``.records`` directly — the record list is an implementation
detail that summary-level code should not depend on.
"""

from __future__ import annotations

import math
import statistics as _stats
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence

from repro.sim.request import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import RecordBatch

_PHASES = (
    "seek_x",
    "seek_y",
    "settle",
    "rotational_latency",
    "transfer",
    "turnarounds",
)


class SimulationResult:
    """All per-request records from one simulation run.

    A result holds either a record list (what the engine builds) or a
    :class:`~repro.sim.batch.RecordBatch` (what a fleet member hands back
    across the worker boundary).  A column-backed result builds
    :attr:`records` on first access and caches it; every summary reads the
    same Python float sequences in the same order either way, so both
    forms of one run report bit-identical statistics.
    """

    def __init__(
        self,
        records: Optional[List[RequestRecord]] = None,
        end_time: float = 0.0,
        *,
        batch: Optional["RecordBatch"] = None,
    ) -> None:
        if records is not None and batch is not None:
            raise ValueError("pass records or batch, not both")
        if records is None and batch is None:
            records = []
        self._records = records
        self.batch = batch
        self.end_time = end_time

    @property
    def records(self) -> List[RequestRecord]:
        """Per-request records, in completion order."""
        if self._records is None:
            assert self.batch is not None
            self._records = self.batch.to_records()
        return self._records

    def __len__(self) -> int:
        if self.batch is not None:
            return len(self.batch)
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return self.end_time == other.end_time and self.records == other.records

    def __repr__(self) -> str:
        return f"SimulationResult({len(self)} records, end_time={self.end_time!r})"

    def __getstate__(self) -> dict:
        # A column-backed result ships its columns, never the record cache.
        state = dict(self.__dict__)
        state.pop("_response_cache", None)
        if self.batch is not None:
            state["_records"] = None
        return state

    # -- per-request values ---------------------------------------------- #

    def _response_time_values(self) -> tuple:
        """Per-request response times, extracted once per record source.

        Every response-time summary (mean, cv², max, percentiles) iterates
        the same values; ``to_dict`` alone needs them five times.  The
        tuple is cached against the source's identity and length, so
        ``drop_warmup`` copies and post-run record appends both recompute.
        """
        source: Any = self.batch if self.batch is not None else self._records
        key = (id(source), len(source))
        cached = self.__dict__.get("_response_cache")
        if cached is not None and cached[0] == key:
            return cached[1]
        if self.batch is not None:
            values = tuple((self.batch.completion - self.batch.arrival).tolist())
        else:
            values = tuple(r.response_time for r in source)
        self.__dict__["_response_cache"] = (key, values)
        return values

    def _service_time_values(self) -> Iterable[float]:
        if self.batch is not None:
            return (self.batch.completion - self.batch.dispatch).tolist()
        return (r.service_time for r in self._records)

    def _queue_time_values(self) -> Iterable[float]:
        if self.batch is not None:
            return (self.batch.dispatch - self.batch.arrival).tolist()
        return (r.queue_time for r in self._records)

    def _phase_values(self, phase: str) -> Iterable[float]:
        if self.batch is not None:
            return getattr(self.batch, phase).tolist()
        return (getattr(record.access, phase) for record in self._records)

    def _require_records(self) -> None:
        if not len(self):
            raise ValueError("no completed requests")

    # -- response time ------------------------------------------------- #

    @property
    def response_times(self) -> List[float]:
        return list(self._response_time_values())

    @property
    def mean_response_time(self) -> float:
        """Average response time in seconds."""
        self._require_records()
        return _stats.fmean(self._response_time_values())

    @property
    def response_time_cv2(self) -> float:
        """Squared coefficient of variation (σ²/µ²) of response time."""
        return squared_coefficient_of_variation(self._response_time_values())

    # -- components ---------------------------------------------------- #

    @property
    def mean_service_time(self) -> float:
        self._require_records()
        return _stats.fmean(self._service_time_values())

    @property
    def mean_queue_time(self) -> float:
        self._require_records()
        return _stats.fmean(self._queue_time_values())

    @property
    def max_response_time(self) -> float:
        self._require_records()
        return max(self._response_time_values())

    def response_time_percentile(self, pct: float) -> float:
        """Linear-interpolated percentile of response time (0 < pct <= 100)."""
        if not 0 < pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        self._require_records()
        ordered = sorted(self._response_time_values())
        if len(ordered) == 1:
            return ordered[0]
        rank = (pct / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def percentiles(self, *pcts: float) -> dict:
        """Several response-time percentiles from one sort.

        Returns ``{"p50": ..., "p95": ...}`` keyed by the requested
        percentiles (defaults to 50/95/99), using the same linear
        interpolation as :meth:`response_time_percentile` — the two always
        agree.  Prefer this over reaching into ``.records``.
        """
        if not pcts:
            pcts = (50.0, 95.0, 99.0)
        self._require_records()
        ordered = sorted(self._response_time_values())
        out = {}
        for pct in pcts:
            if not 0 < pct <= 100:
                raise ValueError(f"percentile out of range: {pct}")
            if len(ordered) == 1:
                value = ordered[0]
            else:
                rank = (pct / 100.0) * (len(ordered) - 1)
                lo = math.floor(rank)
                hi = math.ceil(rank)
                frac = rank - lo
                value = ordered[lo] * (1 - frac) + ordered[hi] * frac
            out[f"p{pct:g}"] = value
        return out

    def to_dict(self) -> dict:
        """JSON-ready summary of the run (no per-request records).

        The stable exchange format for experiment results — covers the
        means, percentiles, throughput/utilization, and the per-phase
        breakdown, so downstream code need not touch ``.records``.
        """
        return {
            "completed": len(self),
            "end_time_s": self.end_time,
            "mean_response_time_s": self.mean_response_time,
            "mean_service_time_s": self.mean_service_time,
            "mean_queue_time_s": self.mean_queue_time,
            "max_response_time_s": self.max_response_time,
            "response_time_cv2": self.response_time_cv2,
            "response_time_percentiles_s": self.percentiles(),
            "throughput_rps": self.throughput,
            "utilization": self.utilization,
            "mean_phase_breakdown_s": self.mean_phase_breakdown(),
        }

    @property
    def throughput(self) -> float:
        """Completed requests per second of simulated time."""
        if self.end_time <= 0:
            raise ValueError("simulation ended at time zero")
        return len(self) / self.end_time

    @property
    def utilization(self) -> float:
        """Fraction of the run the device spent servicing requests."""
        if self.end_time <= 0:
            raise ValueError("simulation ended at time zero")
        busy = sum(self._service_time_values())
        return busy / self.end_time

    def mean_phase_breakdown(self) -> dict:
        """Mean seconds spent per mechanical phase across all accesses.

        Keys: ``seek_x``, ``seek_y``, ``settle``, ``rotational_latency``,
        ``transfer``, ``turnarounds`` — the AccessResult decomposition.
        """
        self._require_records()
        return {phase: _stats.fmean(self._phase_values(phase)) for phase in _PHASES}

    def drop_warmup(self, count: int) -> "SimulationResult":
        """Return a copy without the first ``count`` completed requests.

        Open-queueing experiments start from an empty queue and an idle
        device; dropping a warmup prefix removes that transient.
        """
        if count < 0:
            raise ValueError(f"negative warmup count: {count}")
        if self.batch is not None:
            return SimulationResult(
                batch=self.batch.take(slice(count, None)), end_time=self.end_time
            )
        return SimulationResult(records=self.records[count:], end_time=self.end_time)


def squared_coefficient_of_variation(values: Sequence[float]) -> float:
    """σ²/µ² of ``values`` (population variance), the paper's fairness metric."""
    if not values:
        raise ValueError("no values")
    mean = _stats.fmean(values)
    if mean == 0:
        raise ValueError("mean is zero; cv² undefined")
    var = _stats.fmean((v - mean) ** 2 for v in values)
    return var / (mean * mean)
