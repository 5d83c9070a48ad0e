"""One GC regime for simulation work: the cyclic collector paused.

Simulation drains allocate one record plus a few tuples per request and
none of them form reference cycles (NamedTuples of scalars), so reference
counting reclaims everything.  Generational collections, whose cost grows
with the live heap, are pure overhead there: measured at 2-4x the runtime
of a fleet-scale drain, and at about 70 collections per fleet member in a
worker that had re-enabled the collector.

:class:`gc_paused` is the single place that pauses the collector.
``Simulation.run`` holds it over its drain, ``run_fleet`` over the whole
fleet run, and the persistent pool's task body over each task, so a fleet
member runs under the same regime whatever ``jobs`` is.
"""

from __future__ import annotations

import gc


class gc_paused:
    """Context manager: disable the cyclic GC, restore the previous state.

    A plain class rather than a ``contextmanager`` generator, so leaving
    the block allocates nothing after the collector is re-enabled (the
    generator's ``StopIteration`` would trigger the deferred collection
    right there, inside the caller's block).
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()
