"""Declarative simulation configuration: one picklable object per run.

:class:`SimConfig` names every ingredient of a simulation — device,
scheduler, workload (all resolved through string-keyed registries), seed,
queue bound, and an optional JSONL trace destination — as a frozen
dataclass of plain values.  That makes a run *shippable*: the parallel
sweep layer sends one config per worker instead of loose positional
arguments and closures, and an experiment's exact setup can be logged,
diffed, or round-tripped through JSON.

Live objects (an open trace sink, a pre-built device) deliberately stay
out of the config; builders construct them on the worker that runs the
config.  ``trace_path`` is the picklable stand-in for a tracer — a live
:class:`~repro.obs.Tracer` can still be passed to :meth:`SimConfig.run`.

The :data:`DEVICES` registry also serves the CLI (``--device``), replacing
the if/elif device dispatch that used to live there.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.core.registry import Registry
from repro.obs.live import LiveAggregator, SLOSpec
from repro.obs.tracer import JsonlTracer, NULL_TRACER, SamplingTracer, Tracer
from repro.validation import check_range

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.device import StorageDevice
    from repro.sim.engine import Simulation
    from repro.sim.statistics import SimulationResult


DEVICES = Registry("device")
"""String-keyed registry of device-model factories (no-argument)."""


@DEVICES.register("mems")
def _make_mems() -> "StorageDevice":
    from repro.mems import MEMSDevice

    return MEMSDevice()


@DEVICES.register("atlas10k", aliases=("disk", "atlas-10k"))
def _make_atlas10k() -> "StorageDevice":
    from repro.disk import DiskDevice, atlas_10k

    return DiskDevice(atlas_10k())


def make_device(name: str) -> "StorageDevice":
    """Build a registered device model by name."""
    try:
        factory = DEVICES[name]
    except KeyError as exc:
        # Reuse the registry's message: it lists registered names and adds
        # a did-you-mean suggestion for near-miss spellings.
        raise ValueError(exc.args[0]) from None
    return factory()


WORKLOADS = Registry("workload")
"""String-keyed registry of workload builders.

Each builder takes ``(device, config)`` and returns a generator with a
``generate(count)`` method; ``config.rate`` maps onto the workload's
intensity knob (arrival rate, burst rate, transaction rate) and
``config.workload_params`` carries everything else.
"""


@WORKLOADS.register("random")
def _random_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import RandomWorkload

    return RandomWorkload(
        device.capacity_sectors,
        rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@WORKLOADS.register("uniform")
def _uniform_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import UniformFixedWorkload

    return UniformFixedWorkload(
        device.capacity_sectors, seed=config.seed, **config.workload_params
    )


@WORKLOADS.register("cello")
def _cello_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import CelloLikeWorkload

    return CelloLikeWorkload(
        device.capacity_sectors,
        burst_rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@WORKLOADS.register("tpcc")
def _tpcc_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import TPCCLikeWorkload

    return TPCCLikeWorkload(
        device.capacity_sectors,
        transaction_rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@dataclass(frozen=True)
class SimConfig:
    """Complete, picklable description of one simulation run.

    Attributes:
        device: Device registry name (:data:`DEVICES`): ``mems``,
            ``atlas10k``.
        scheduler: Scheduler registry name
            (:data:`repro.core.scheduling.SCHEDULERS`), e.g. ``SPTF``.
        workload: Workload registry name (:data:`WORKLOADS`).
        rate: Workload intensity (requests/s for the random workload).
        num_requests: Stream length to generate.
        seed: Workload RNG seed.
        warmup: Completed requests dropped from the front of the result.
        max_queue_depth: Saturation bound
            (see :class:`repro.sim.engine.QueueOverflowError`).
        jobs: Worker-process count for sweep fan-out (``None`` = default).
        trace_path: When set, :meth:`run` writes a JSONL event trace here
            (gzip-compressed when the path ends in ``.gz``).
        trace_sample: When set (and > 1), wrap the trace sink in a
            :class:`~repro.obs.tracer.SamplingTracer` keeping every N-th
            request (plus head/tail windows); the sampling parameters are
            recorded in the ``trace.meta`` header.  ``1`` traces every
            request and is event-identical to leaving this unset.
        live_window: When set, attach a
            :class:`~repro.obs.live.LiveAggregator` with this tumbling
            window width (simulated seconds): ``obs.window`` events are
            interleaved into the trace and per-class quantile sketches are
            maintained online.  Setting :attr:`slos` implies live
            aggregation with the default window.
        slos: Per-class latency objectives
            (:class:`~repro.obs.live.SLOSpec`) tracked online by the live
            aggregator; violations are emitted as ``slo.violation`` trace
            events.  Any sequence is accepted and normalized to a tuple.
        scheduler_params: Extra keyword arguments for the scheduler factory
            (e.g. ``{"cache": False}`` or ``{"prune": "always"}`` for the
            SPTF variants; ``prune`` accepts ``'auto'`` — the default,
            picking scan/vectorized/pruned selection per dispatch from the
            queue depth — ``'always'``, ``'never'``, or a legacy bool).
            The dense seek/lower-bound tables the pruned SPTF path indexes
            are memoized at module level on the (frozen) device parameters
            and built lazily on first pruned selection, so sweep workers
            forked from one parent share a single copy instead of
            rebuilding them per config.
        workload_params: Extra keyword arguments for the workload builder.
    """

    device: str = "mems"
    scheduler: str = "SPTF"
    workload: str = "random"
    rate: float = 800.0
    num_requests: int = 5000
    seed: int = 42
    warmup: int = 0
    max_queue_depth: Optional[int] = 4000
    jobs: Optional[int] = None
    trace_path: Optional[str] = None
    trace_sample: Optional[int] = None
    live_window: Optional[float] = None
    slos: Tuple[SLOSpec, ...] = ()
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_range("rate", self.rate, gt=0)
        check_range("num_requests", self.num_requests, ge=0)
        check_range("warmup", self.warmup, ge=0)
        if self.max_queue_depth is not None:
            check_range("max_queue_depth", self.max_queue_depth, ge=1)
        if self.jobs is not None:
            check_range("jobs", self.jobs, ge=1)
        if self.trace_sample is not None:
            check_range("trace_sample", self.trace_sample, ge=1)
        if self.live_window is not None:
            check_range("live_window", self.live_window, gt=0)
        slos = tuple(self.slos)
        object.__setattr__(self, "slos", slos)
        for index, spec in enumerate(slos):
            if not isinstance(spec, SLOSpec):
                raise TypeError(
                    f"slos[{index}] is {type(spec).__name__}, expected "
                    f"SLOSpec (use SLOSpec.from_dict for serialized specs)"
                )

    # -- builders ----------------------------------------------------------- #

    def build_device(self) -> "StorageDevice":
        return make_device(self.device)

    def build_scheduler(self, device: "StorageDevice"):
        from repro.core.scheduling import make_scheduler

        return make_scheduler(self.scheduler, device, **self.scheduler_params)

    def build_requests(self, device: "StorageDevice") -> List:
        workload = WORKLOADS[self.workload](device, self)
        return workload.generate(self.num_requests)

    @property
    def live_enabled(self) -> bool:
        """True when the run carries a live aggregator (window or SLOs)."""
        return self.live_window is not None or bool(self.slos)

    def build_tracer(self) -> Tracer:
        """A fresh sink for :attr:`trace_path` (null tracer when unset).

        With :attr:`trace_sample` > 1 the JSONL sink is wrapped in a
        :class:`~repro.obs.tracer.SamplingTracer` and the sampling
        parameters are written into the ``trace.meta`` header; a sample of
        1 (or ``None``) produces a byte-identical unsampled trace.  With
        :attr:`live_window`/:attr:`slos` set, the whole chain is wrapped
        in a :class:`~repro.obs.live.LiveAggregator` — *outside* the
        sampler, so live aggregation always sees the full event stream
        (the aggregator's own rid-less events pass any sampler unharmed).
        """
        sink: Tracer = NULL_TRACER
        if self.trace_path is not None:
            every = self.trace_sample or 1
            sink = JsonlTracer(
                self.trace_path, meta=SamplingTracer.meta(every)
            )
            if every > 1:
                sink = SamplingTracer(sink, every)
        if self.live_enabled:
            from repro.obs.live import DEFAULT_WINDOW_S

            return LiveAggregator(
                sink,
                window_s=self.live_window or DEFAULT_WINDOW_S,
                slos=self.slos,
            )
        return sink

    def build_simulation(self, tracer: Optional[Tracer] = None) -> "Simulation":
        from repro.sim.engine import Simulation

        return Simulation.from_config(self, tracer=tracer)

    # -- execution ---------------------------------------------------------- #

    def run(self, tracer: Optional[Tracer] = None) -> "SimulationResult":
        """Build the full stack and run it to completion.

        Opens (and closes) the :attr:`trace_path` sink unless a live
        ``tracer`` overrides it.  Raises
        :class:`~repro.sim.engine.QueueOverflowError` on saturation, like
        ``Simulation.run``; the sweep helpers map that to a saturated point.
        """
        own_tracer = tracer is None and (
            self.trace_path is not None or self.live_enabled
        )
        if tracer is None:
            tracer = self.build_tracer()
        try:
            simulation = self.build_simulation(tracer=tracer)
            result = simulation.run(
                self.build_requests(simulation.device)
            )
        finally:
            if own_tracer:
                tracer.close()
        return result.drop_warmup(self.warmup)

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dump (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        """Rebuild a config from a :meth:`to_dict` dump (or JSON thereof).

        The inverse of :meth:`to_dict`, so configs round-trip through files
        and across processes symmetrically.  Unknown keys are rejected with
        a ``Registry.suggest()``-style did-you-mean message instead of the
        bare ``TypeError`` a ``cls(**data)`` splat would raise.
        """
        if not isinstance(data, Mapping):
            raise TypeError(
                f"{cls.__name__}.from_dict takes a mapping, got "
                f"{type(data).__name__}"
            )
        fields = check_config_keys(cls, data)
        if fields.get("slos"):
            fields["slos"] = tuple(
                spec if isinstance(spec, SLOSpec) else SLOSpec.from_dict(spec)
                for spec in fields["slos"]
            )
        return cls(**fields)


def check_config_keys(
    config_cls: type, data: Mapping[str, Any]
) -> Dict[str, Any]:
    """Validate ``data``'s keys against a config dataclass's fields.

    Returns a plain ``dict`` copy safe to splat into the constructor;
    raises ``ValueError`` naming the first unknown key, the closest field
    name (``difflib``, same cutoff as :meth:`Registry.suggest`), and the
    known-field list.  Shared by :meth:`SimConfig.from_dict` and
    :meth:`repro.fleet.FleetConfig.from_dict`.
    """
    names = [f.name for f in dataclasses.fields(config_cls)]
    for key in data:
        if key in names:
            continue
        message = f"unknown {config_cls.__name__} field: {key!r}"
        matches = difflib.get_close_matches(str(key), names, n=1, cutoff=0.6)
        if matches:
            message += f" (did you mean {matches[0]!r}?)"
        raise ValueError(message + f"; known fields: {', '.join(names)}")
    return dict(data)
