"""Executable spec for the SPTF selector: the plain argmin scan.

Production SPTF (:mod:`repro.core.scheduling.sptf`) serves each selection
from one of three regimes — scalar scan, bound-screened batch pricing, or
the lower-bound bucket walk — picked from the queue depth.  This module
keeps the definition they all have to agree with: price every pending
request with the device oracle, discount it by ``age_weight`` × its queue
wait, and dispatch the first minimum (so ties go to the earliest arrival,
because the pending list is arrival-ordered).  No bounds, no indexes, no
batch calls, no single-candidate shortcut.

``tests/core/scheduling/test_reference_sptf.py`` checks production
``pop_next`` order against :class:`ReferenceSPTF` request for request, and
the other SPTF tests use it as their naive baseline.
"""

from __future__ import annotations

from repro.core.scheduling.base import ListScheduler


class ReferenceSPTF(ListScheduler):
    """Plain-scan SPTF (``age_weight == 0``) or aged SPTF (``> 0``)."""

    def __init__(self, device, age_weight: float = 0.0) -> None:
        super().__init__()
        self._device = device
        self.age_weight = age_weight
        self.name = "ASPTF" if age_weight else "SPTF"

    def score(self, request, now: float) -> float:
        """The quantity selection minimizes."""
        wait = max(0.0, now - request.arrival_time)
        return (
            self._device.estimate_positioning(request, now)
            - self.age_weight * wait
        )

    def select_index(self, now: float) -> int:
        best_index = 0
        best_score = None
        for index, request in enumerate(self._queue):
            score = self.score(request, now)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        return best_index


def reference_for(kind: str, device) -> ReferenceSPTF:
    """The spec matching ``SPTFScheduler`` (``"sptf"``) or
    ``AgedSPTFScheduler`` at its default weight (``"asptf"``)."""
    if kind == "sptf":
        return ReferenceSPTF(device)
    return ReferenceSPTF(device, age_weight=0.01)
