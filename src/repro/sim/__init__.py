"""Discrete-event storage simulation engine (DiskSim analogue).

Public surface:

* :class:`~repro.sim.request.Request`, :class:`~repro.sim.request.IOKind`,
  :class:`~repro.sim.request.AccessResult`,
  :class:`~repro.sim.request.RequestRecord` — request lifecycle types.
* :class:`~repro.sim.device.StorageDevice` — device model interface.
* :class:`~repro.sim.engine.Simulation`, :func:`~repro.sim.engine.simulate`,
  :class:`~repro.sim.engine.SimulationObserver`,
  :class:`~repro.sim.engine.QueueOverflowError` — the event loop.
* :class:`~repro.sim.statistics.SimulationResult` — run metrics, over a
  record list or a columnar :class:`~repro.sim.batch.RecordBatch`.
"""

from repro.sim.batch import (
    RecordBatch,
    RequestBatch,
    as_request_batch,
    as_request_list,
)
from repro.sim.config import DEVICES, SimConfig, WORKLOADS, make_device
from repro.sim.device import StorageDevice
from repro.sim.engine import (
    EventKind,
    EventQueue,
    QueueOverflowError,
    Simulation,
    SimulationObserver,
    simulate,
)
from repro.sim.replication import ReplicationResult, replicate
from repro.sim.request import SECTOR_BYTES, AccessResult, IOKind, Request, RequestRecord
from repro.sim.statistics import SimulationResult, squared_coefficient_of_variation

__all__ = [
    "DEVICES",
    "SECTOR_BYTES",
    "AccessResult",
    "EventKind",
    "EventQueue",
    "IOKind",
    "QueueOverflowError",
    "RecordBatch",
    "ReplicationResult",
    "Request",
    "RequestBatch",
    "RequestRecord",
    "SimConfig",
    "Simulation",
    "SimulationObserver",
    "SimulationResult",
    "StorageDevice",
    "WORKLOADS",
    "as_request_batch",
    "as_request_list",
    "make_device",
    "replicate",
    "simulate",
    "squared_coefficient_of_variation",
]
