"""Per-layer spans recorded from the benchmark's side of each layer boundary.

Nothing in ``src/`` is instrumented for this.  A traced run replaces the
public functions and methods of each layer with wrappers that record a span
(name, start, end, parent span) around every call, then computes per-layer
counts and self times from them.  A span's self time is its duration minus
the time its child spans cover, so over one timed call

    sum(self time of every span) + remainder == traced wall time

where the remainder is the time no span covers (glue code in the entry
points: config builds, device construction, result assembly).

Spans are kept in memory (four flat arrays) and written out once, at the end
of the run.

Modes:

``all``
    Every layer boundary below.  The wrappers cost about a microsecond per
    call, so this mode is for attribution, not for end-to-end timing.
``coarse``
    Only the low-frequency boundaries (fleet shard/pool/merge, the sweep's
    pool map, ``Simulation.run``): a few dozen calls per run, so the wall
    time is effectively untraced.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

ALL = "all"
COARSE = "coarse"


class RepeatKeys:
    """Share of ingested requests whose ``(lbn, sectors)`` key the process
    has already seen: the input property the service/profile memos feed on."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.requests = 0
        self.repeats = 0

    def observe(self, requests) -> None:
        lbn = getattr(requests, "lbn", None)
        if lbn is not None and hasattr(lbn, "tolist"):
            keys = zip(lbn.tolist(), requests.sectors.tolist())
        else:
            keys = ((request.lbn, request.sectors) for request in requests)
        seen = self.seen
        before = len(seen)
        count = 0
        for key in keys:
            seen.add(key)
            count += 1
        self.requests += count
        self.repeats += count - (len(seen) - before)

    @property
    def share(self) -> float:
        return self.repeats / self.requests if self.requests else 0.0


class SpanRecorder:
    """Collects spans and per-name aggregates for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.counters: Dict[str, float] = {}
        self.repeat_keys = RepeatKeys()
        self._stack: List[list] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[Callable[[tuple], None]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        A call made while the innermost open span already has this name (a
        ``super()`` chain through two wrapped methods) is passed straight
        through, so each boundary crossing is one span.  ``on_enter`` sees
        the positional arguments before the span opens.
        """
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            index = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1][2] if stack else -1)
            end_col.append(0.0)
            frame = [nid, 0.0, index]
            stack.append(frame)
            start = clock()
            start_col.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                end_col[index] = end
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- reading ------------------------------------------------------------ #

    def stat(self, name: str, column: str) -> float:
        """``calls``, ``total`` (inclusive seconds) or ``self_time`` of a span."""
        nid = self._ids.get(name)
        return 0 if nid is None else getattr(self, column)[nid]

    def covered(self, start: float, end: float) -> float:
        """Duration of top-level spans inside ``[start, end]``."""
        covered = 0.0
        for parent, s, e in zip(self.parent_col, self.start_col, self.end_col):
            if parent == -1 and s >= start and e <= end:
                covered += e - s
        return covered

    def table(self) -> List[dict]:
        return [
            {
                "span": name,
                "calls": self.calls[nid],
                "total_s": self.total[nid],
                "self_s": self.self_time[nid],
            }
            for nid, name in enumerate(self.names)
            if self.calls[nid]
        ]

    def write(self, path: str) -> None:
        """Write every span as columns (``.npz``): name id, parent span index,
        start and end (``perf_counter`` seconds), plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
        )


# --------------------------------------------------------------------------- #
# layer boundaries
# --------------------------------------------------------------------------- #


def _patch_attr(
    owner: Any, attr: str, recorder: SpanRecorder, name: str, on_enter=None
) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), on_enter))


def _patch_methods(classes, methods, recorder, name, on_enter=None):
    for cls in classes:
        for method in methods:
            if method in cls.__dict__:
                _patch_attr(cls, method, recorder, name, on_enter)


def install(mode: str) -> Optional[SpanRecorder]:
    """Wrap the layer boundaries for ``mode``; returns the recorder."""
    if mode == "none":
        return None
    import repro.experiments.common as sweep_common
    import repro.fleet.run as fleet_run
    from repro.sim.engine import Simulation

    recorder = SpanRecorder()

    _patch_attr(fleet_run, "shard_requests", recorder, "fleet.shard")
    _patch_attr(fleet_run, "parallel_map", recorder, "fleet.pool")
    _patch_attr(fleet_run, "merge_results", recorder, "fleet.merge")
    _patch_attr(sweep_common, "parallel_map", recorder, "experiments.pool")

    run_span = recorder.wrap("sim.run", Simulation.run)
    observe = recorder.wrap("bench.repeat_keys", recorder.repeat_keys.observe)

    def run(self, requests):
        # Materialize one-shot iterables so the key count cannot consume
        # the stream the simulation is about to ingest.
        if not hasattr(requests, "__len__"):
            requests = list(requests)
        if mode == ALL:
            observe(requests)
        return run_span(self, requests)

    functools.update_wrapper(run, Simulation.run)
    Simulation.run = run
    if mode == COARSE:
        return recorder

    _install_fine(recorder, sweep_common, fleet_run)
    return recorder


def _install_fine(recorder: SpanRecorder, sweep_common, fleet_run) -> None:
    """The per-request boundaries (``all`` mode only)."""
    import repro.core.scheduling as scheduling
    import repro.obs.analyze as analyze
    from repro.core.scheduling.base import Scheduler
    from repro.disk.device import DiskDevice
    from repro.mems.device import MEMSDevice
    from repro.obs.live import LiveAggregator
    from repro.obs.tracer import JsonlTracer
    from repro.workloads import synthetic, tpcc

    _patch_attr(fleet_run, "_run_member", recorder, "fleet.member")
    _patch_attr(sweep_common, "_sweep_point", recorder, "experiments.point")

    generators = [
        value
        for module in (synthetic, tpcc)
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    _patch_methods(
        generators,
        ("generate", "generate_batch", "iter_requests"),
        recorder,
        "workloads.generate",
    )

    schedulers = {
        cls
        for value in vars(scheduling).values()
        if isinstance(value, type) and issubclass(value, Scheduler)
        for cls in value.__mro__
        if issubclass(cls, Scheduler)
    }

    def sample_depth(args) -> None:
        recorder.count("scheduling.depth_sum", len(args[0]))

    _patch_methods(schedulers, ("add",), recorder, "scheduling.add")
    _patch_methods(
        schedulers, ("pop_next",), recorder, "scheduling.pop", sample_depth
    )

    def priced_one(args) -> None:
        recorder.count("priced", 1)

    def priced_rows(args) -> None:
        recorder.count("priced", len(args[1]))

    for cls, layer in ((MEMSDevice, "mems"), (DiskDevice, "disk")):
        _patch_methods([cls], ("service",), recorder, f"{layer}.service")
        _patch_methods(
            [cls], ("estimate_positioning",), recorder, f"{layer}.estimate", priced_one
        )
        _patch_methods(
            [cls],
            ("estimate_positioning_batch",),
            recorder,
            f"{layer}.estimate",
            priced_rows,
        )

    _patch_methods([LiveAggregator], ("emit",), recorder, "obs.live")
    _patch_methods([JsonlTracer], ("emit",), recorder, "obs.sink")
    _patch_attr(analyze, "analyze_trace", recorder, "obs.analyze")


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #

# The end-to-end metric and workloads each per-layer metric should move.  The
# metric names, units and directions are those of ``BENCHMARK.json``.
MOVES: Dict[str, str] = {
    "workloads.gen_s": "req_per_s on fleet16, fig6_sweep",
    "workloads.repeat_share": "req_per_s on fig6_sweep (near 1) vs fleet16 (near 0)",
    "sim.run_calls": "req_per_s on fleet16",
    "sim.self_s": "req_per_s, peak_rss_mb on fleet16",
    "sim.queue_depth_mean": "req_per_s on fig6_sweep, mems_sptf_deep",
    "scheduling.add_calls": "req_per_s on fig6_sweep, mems_sptf_deep",
    "scheduling.add_self_s": "req_per_s on fig6_sweep, mems_sptf_deep",
    "scheduling.pop_calls": "req_per_s on fig6_sweep, mems_sptf_deep",
    "scheduling.pop_self_s": "req_per_s on fig6_sweep, mems_sptf_deep",
    "scheduling.priced_per_pop": "req_per_s on fig6_sweep, mems_sptf_deep",
    "mems.service_calls": "req_per_s on fig6_sweep, fleet16, mems_sptf_deep",
    "mems.service_self_s": "req_per_s on fig6_sweep, fleet16, mems_sptf_deep",
    "mems.estimate_calls": "req_per_s on fig6_sweep, mems_sptf_deep",
    "mems.estimate_self_s": "req_per_s on fig6_sweep, mems_sptf_deep",
    "disk.service_calls": "req_per_s on tpcc_traced",
    "disk.service_self_s": "req_per_s on tpcc_traced",
    "obs.emit_calls": "req_per_s on tpcc_traced",
    "obs.live_self_s": "req_per_s on tpcc_traced",
    "obs.sink_self_s": "req_per_s on tpcc_traced",
    "obs.trace_bytes": "req_per_s on tpcc_traced",
    "obs.analyze_s": "req_per_s on tpcc_traced",
    "fleet.shard_s": "req_per_s on fleet16",
    "fleet.pool_s": "req_per_s, peak_rss_mb on fleet16",
    "fleet.member_run_s": "req_per_s on fleet16",
    "fleet.result_bytes": "req_per_s, peak_rss_mb on fleet16",
    "fleet.merge_s": "req_per_s on fleet16",
    "fleet.parallel_speedup": "req_per_s on fleet16",
    "experiments.points": "req_per_s on fig6_sweep",
    "experiments.saturated_points": "req_per_s on fig6_sweep",
    "experiments.pool_s": "req_per_s on fig6_sweep",
    "experiments.parallel_speedup": "req_per_s on fig6_sweep",
    "bench.trace_overhead": "none: the cost of tracing itself",
}


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The per-layer metrics one ``all``-mode span recorder yields."""
    r = recorder
    pops = r.stat("scheduling.pop", "calls")
    priced = r.counters.get("priced", 0)
    return {
        "workloads.gen_s": r.stat("workloads.generate", "total"),
        "workloads.repeat_share": r.repeat_keys.share,
        "sim.run_calls": r.stat("sim.run", "calls"),
        "sim.self_s": r.stat("sim.run", "self_time"),
        "sim.queue_depth_mean": (
            r.counters.get("scheduling.depth_sum", 0) / pops if pops else 0.0
        ),
        "scheduling.add_calls": r.stat("scheduling.add", "calls"),
        "scheduling.add_self_s": r.stat("scheduling.add", "self_time"),
        "scheduling.pop_calls": pops,
        "scheduling.pop_self_s": r.stat("scheduling.pop", "self_time"),
        "scheduling.priced_per_pop": priced / pops if pops else 0.0,
        "mems.service_calls": r.stat("mems.service", "calls"),
        "mems.service_self_s": r.stat("mems.service", "self_time"),
        "mems.estimate_calls": r.stat("mems.estimate", "calls"),
        "mems.estimate_self_s": r.stat("mems.estimate", "self_time"),
        "disk.service_calls": r.stat("disk.service", "calls"),
        "disk.service_self_s": r.stat("disk.service", "self_time"),
        "obs.emit_calls": r.stat("obs.live", "calls"),
        "obs.live_self_s": r.stat("obs.live", "self_time"),
        "obs.sink_self_s": r.stat("obs.sink", "self_time"),
        "obs.analyze_s": r.stat("obs.analyze", "total"),
    }
