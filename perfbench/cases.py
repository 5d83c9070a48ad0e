"""The benchmark's workloads: how each is built, run, checked and digested.

Each workload makes one call into an entry point users call (``SimConfig.run``,
``figure06.run``, ``FleetConfig.run``) at a stated input size.  The simulated
arrival stream is open-loop Poisson; the seed is a benchmark argument passed
into the config.  ``prepare`` builds the config (its cost counts as set-up),
``call`` is the timed region, and ``check`` verifies the simulated output and
computes a digest of it, which must match the stored digest for the shipped
seeds (``digests.json``).

Simulated statistics are outputs to check, never metrics: a change that only
makes the simulator faster must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

FULL = "full"
TINY = "tiny"

# Input sizes, in simulated requests.  ``full`` is what the benchmark
# measures; ``tiny`` is for the benchmark's own smoke tests.
SIZES = {
    "mems_sptf_deep": {FULL: 20_000, TINY: 1_500},
    # The smallest per-point stream at which FCFS saturates at 2000 req/s.
    "fig6_sweep": {FULL: 14_000, TINY: 400},
    "fleet16": {FULL: 100_000, TINY: 8_000},
    "tpcc_traced": {FULL: 15_000, TINY: 1_500},
}

# The Figure 6 sweep grid (its module's defaults, restated so a change to
# them shows up as a changed workload rather than a silent one).
FIG6_RATES = (200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0, 2000.0)
FIG6_ALGORITHMS = ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF")

FLEET_MEMBERS = 16
FLEET_MEMBER_RATE = 800.0
TPCC_RATE = 40.0  # transactions/s, about 240 page requests/s
TPCC_WINDOW_S = 1.0
TPCC_SLO = "all:p99:0.2"


def request_count(name: str, size: str) -> int:
    """Simulated requests one run of workload ``name`` generates."""
    count = SIZES[name][size]
    if name == "fig6_sweep":
        return count * len(FIG6_RATES) * len(FIG6_ALGORITHMS)
    return count


@dataclass
class Prepared:
    """A built workload: its config and the facts its check needs."""

    seed: int
    jobs: int
    requests: int
    config: Any
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of one run's output check."""

    requests: int
    completed: int
    errors: List[str]
    digest: str
    saturated: int = 0
    """Requests of sweep points that saturated, the sweep's designed outcome
    for an overloaded point rather than a lost request."""
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def failed(self) -> int:
        """Requests counted as failed: all of them if any check failed."""
        if self.errors:
            return self.requests
        return self.requests - self.completed - self.saturated


# --------------------------------------------------------------------------- #
# digests and record checks
# --------------------------------------------------------------------------- #


def _sha(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _json_bytes(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def record_bytes(records) -> bytes:
    """Per-request ``(rid, completion time)`` in result order, packed exactly."""
    pack = struct.Struct("<qd").pack
    return b"".join(
        pack(record.request.request_id, record.completion_time)
        for record in records
    )


def check_records(
    records, expected: int, errors: List[str], merged: bool = False
) -> None:
    """Conservation and ordering checks over a list of request records.

    Every generator used here numbers its requests ``0 .. n-1``, so "every
    generated request completes exactly once" is "the completed ids are
    exactly ``range(expected)``".  Each record must satisfy
    ``arrival <= dispatch <= completion``, and records must come in
    completion order — ``(completion, rid)`` order for a merged fleet result.
    """
    if len(records) != expected:
        errors.append(f"completed {len(records)} of {expected} requests")
    seen = bytearray(expected)
    duplicates = 0
    strays = 0
    previous = (-math.inf, -1)
    disorder = 0
    bad_times = 0
    for record in records:
        request = record.request
        rid = request.request_id
        if 0 <= rid < expected:
            if seen[rid]:
                duplicates += 1
            seen[rid] = 1
        else:
            strays += 1
        arrival = request.arrival_time
        dispatch = record.dispatch_time
        completion = record.completion_time
        if not (arrival <= dispatch <= completion) or not math.isfinite(
            completion
        ):
            bad_times += 1
        key = (completion, rid) if merged else (completion, -1)
        if key < previous:
            disorder += 1
        previous = key
    missing = expected - sum(seen)
    if duplicates:
        errors.append(f"{duplicates} requests completed more than once")
    if missing:
        errors.append(f"{missing} requests never completed")
    if strays:
        errors.append(f"{strays} records carry unknown request ids")
    if bad_times:
        errors.append(
            f"{bad_times} records violate arrival <= dispatch <= completion"
        )
    if disorder:
        errors.append(f"{disorder} records out of completion order")


# --------------------------------------------------------------------------- #
# the four workloads
# --------------------------------------------------------------------------- #


def _prepare_mems(seed: int, size: str, jobs: int, workdir: str) -> Prepared:
    from repro.sim.config import SimConfig

    count = SIZES["mems_sptf_deep"][size]
    config = SimConfig(
        device="mems",
        scheduler="SPTF",
        workload="random",
        rate=2000.0,
        num_requests=count,
        seed=seed,
    )
    return Prepared(seed, jobs, count, config)


def _call_sim(prepared: Prepared):
    return prepared.config.run()


def _check_sim(prepared: Prepared, result) -> Verdict:
    errors: List[str] = []
    check_records(result.records, prepared.requests, errors)
    summary = result.to_dict() if len(result) else {}
    digest = _sha(record_bytes(result.records), _json_bytes(summary))
    return Verdict(prepared.requests, len(result), errors, digest)


def _prepare_fig6(seed: int, size: str, jobs: int, workdir: str) -> Prepared:
    from repro.experiments import figure06

    return Prepared(
        seed,
        jobs,
        request_count("fig6_sweep", size),
        figure06,
        {"per_point": SIZES["fig6_sweep"][size]},
    )


def _call_fig6(prepared: Prepared):
    return prepared.config.run(
        rates=FIG6_RATES,
        algorithms=FIG6_ALGORITHMS,
        num_requests=prepared.extra["per_point"],
        seed=prepared.seed,
        jobs=prepared.jobs,
    )


def _check_fig6(prepared: Prepared, result) -> Verdict:
    """A sweep returns per-point summaries only, so conservation is checked
    per point through its statistics and, for shipped seeds, the digest.

    A saturated point (pending queue over its bound) is the sweep's designed
    outcome for that point, not a failed request; its requests count as
    attempted but not completed, and only a check failure fails them.
    """
    errors: List[str] = []
    per_point = prepared.extra["per_point"]
    sweep = result.sweep
    rows = []
    saturated = 0
    if tuple(sweep.series) != FIG6_ALGORITHMS:
        errors.append(f"sweep algorithms {list(sweep.series)}")
    for algorithm, points in sweep.series.items():
        if tuple(point.x for point in points) != FIG6_RATES:
            errors.append(f"{algorithm}: sweep rates {[p.x for p in points]}")
        for point in points:
            mean, cv2 = point.mean_response_time, point.response_time_cv2
            if point.saturated:
                saturated += 1
                if cv2 is not None:
                    errors.append(f"{algorithm}@{point.x}: half-saturated point")
            elif not (
                math.isfinite(mean) and mean > 0 and math.isfinite(cv2) and cv2 >= 0
            ):
                errors.append(f"{algorithm}@{point.x}: bad statistics {mean} {cv2}")
            rows.append([algorithm, point.x, mean, cv2])
    completed = (len(rows) - saturated) * per_point
    digest = _sha(_json_bytes(rows))
    verdict = Verdict(
        prepared.requests, completed, errors, digest, saturated * per_point
    )
    verdict.extra["points"] = len(rows)
    verdict.extra["saturated_points"] = saturated
    return verdict


def _prepare_fleet(seed: int, size: str, jobs: int, workdir: str) -> Prepared:
    from repro.fleet import FleetConfig

    count = SIZES["fleet16"][size]
    config = FleetConfig.uniform(
        FLEET_MEMBERS,
        rate=FLEET_MEMBER_RATE * FLEET_MEMBERS,
        router="lbn-range",
        num_requests=count,
        seed=seed,
        jobs=jobs,
    )
    return Prepared(seed, jobs, count, config)


def _call_fleet(prepared: Prepared):
    return prepared.config.run(jobs=prepared.jobs)


def _check_fleet(prepared: Prepared, result) -> Verdict:
    errors: List[str] = []
    if sum(result.routed_counts) != prepared.requests:
        errors.append(
            f"routed counts sum to {sum(result.routed_counts)}, "
            f"stream has {prepared.requests}"
        )
    if result.total_requests != prepared.requests:
        errors.append(f"fleet reports {result.total_requests} requests")
    for index, (member, routed) in enumerate(
        zip(result.members, result.routed_counts)
    ):
        if len(member) != routed:
            errors.append(f"member {index} completed {len(member)} of {routed}")
    check_records(result.combined.records, prepared.requests, errors, merged=True)
    dump = json.dumps(result.to_dict(), sort_keys=True).encode()
    dump_sha = hashlib.sha256(dump).hexdigest()
    digest = _sha(
        record_bytes(result.combined.records),
        _json_bytes(result.routed_counts),
        dump,
    )
    verdict = Verdict(prepared.requests, len(result), errors, digest)
    verdict.extra["dump_sha256"] = dump_sha
    return verdict


def _prepare_tpcc(seed: int, size: str, jobs: int, workdir: str) -> Prepared:
    from repro.obs.live import parse_slo
    from repro.sim.config import SimConfig

    count = SIZES["tpcc_traced"][size]
    trace_path = os.path.join(workdir, f"tpcc-{os.getpid()}.jsonl")
    config = SimConfig(
        device="atlas10k",
        scheduler="C-LOOK",
        workload="tpcc",
        rate=TPCC_RATE,
        num_requests=count,
        seed=seed,
        trace_path=trace_path,
        live_window=TPCC_WINDOW_S,
        slos=(parse_slo(TPCC_SLO),),
    )
    return Prepared(seed, jobs, count, config)


def _call_tpcc(prepared: Prepared):
    from repro.obs import analyze

    result = prepared.config.run()
    analysis = analyze.analyze_trace(prepared.config.trace_path)
    return result, analysis


def _check_tpcc(prepared: Prepared, output) -> Verdict:
    result, analysis = output
    verdict = _check_sim(prepared, result)
    completed = len(result)
    if analysis.summary.count != completed:
        verdict.errors.append(
            f"trace analysis built {analysis.summary.count} spans for "
            f"{completed} completions"
        )
    if analysis.completed != completed or analysis.spans_pending:
        verdict.errors.append(
            f"trace reports {analysis.completed} completed, "
            f"{analysis.spans_pending} pending"
        )
    if analysis.obs_windows < 1:
        verdict.errors.append("live aggregation wrote no windows")
    trace_facts = {
        "events": analysis.events,
        "spans": analysis.summary.to_dict(),
        "obs_windows": analysis.obs_windows,
        "slo_violations": analysis.slo_violations,
    }
    verdict.digest = _sha(verdict.digest.encode(), _json_bytes(trace_facts))
    path = prepared.config.trace_path
    verdict.extra["trace_bytes"] = os.path.getsize(path)
    return verdict


def cleanup(prepared: Prepared) -> None:
    """Remove files the workload wrote (the TPC-C trace)."""
    path = getattr(prepared.config, "trace_path", None)
    if path and os.path.exists(path):
        os.remove(path)


@dataclass(frozen=True)
class Case:
    name: str
    prepare: Callable[[int, str, int, str], Prepared]
    call: Callable[[Prepared], Any]
    check: Callable[[Prepared, Any], Verdict]
    pooled: bool
    """Whether the entry point fans out over worker processes (``jobs``)."""


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case("mems_sptf_deep", _prepare_mems, _call_sim, _check_sim, False),
        Case("fig6_sweep", _prepare_fig6, _call_fig6, _check_fig6, True),
        Case("fleet16", _prepare_fleet, _call_fleet, _check_fleet, True),
        Case("tpcc_traced", _prepare_tpcc, _call_tpcc, _check_tpcc, False),
    )
}


# --------------------------------------------------------------------------- #
# stored digests
# --------------------------------------------------------------------------- #

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests() -> Dict[str, Dict[str, str]]:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def stored_digest(name: str, seed: int, size: str) -> Optional[str]:
    """The stored digest for a full-size run of ``name`` at ``seed``."""
    if size != FULL:
        return None
    return load_digests().get(name, {}).get(str(seed))
