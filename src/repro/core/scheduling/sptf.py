"""Shortest-Positioning-Time-First scheduling [SCO90, JW91] (§4.1).

SPTF asks the device model to predict the true positioning delay of every
pending request from the current mechanical state and dispatches the
cheapest.  On disks that means seek time *plus* rotational latency; on the
MEMS device it means max(X seek + settle, Y seek) — which is why SPTF is the
only policy here that can optimize the Y dimension (§4.2).

Two variants are provided:

* :class:`SPTFScheduler` — the paper's pure greedy policy;
* :class:`AgedSPTFScheduler` — a standard aging extension (each pending
  request's predicted positioning time is discounted by ``age_weight`` ×
  its queue wait), trading a little average performance for starvation
  resistance.  Not in the paper; included as an ablation.

Both run one selector, **adaptive in queue depth**, with no options.  It
serves each selection from one of three regimes, every one dispatching
the *bit-identical* request the plain argmin scan would (the scan lives on
as an executable spec in ``tests/core/scheduling/reference_sptf.py``):

* ``scan`` — price every candidate and keep the first minimum.  Cheapest
  at the shallow depths that dominate realistic open-arrival sweeps (a
  handful of pending requests), where any array bookkeeping loses to a
  short Python loop.  A single-candidate queue — the overwhelmingly common
  case in open-arrival runs below saturation — short-circuits before
  pricing anything: the argmin over one element needs no oracle call at
  all, and the dispatch is reported with ``candidates_priced == 0``.
  Devices without the bound and batch-pricing oracles (test doubles) take
  the scan at every depth.
* ``vectorized`` — a per-candidate lower-bound screen (the same dense
  admissible table the pruned walk uses, discounted per candidate by its
  exact aging credit) selects the subset that could still win, and one
  :meth:`estimate_positioning_batch` call prices that subset through the
  device's array-evaluated kinematics.  The winner is the minimum exact
  score with the scan's strict-``<`` first-occurrence tie-break; unpriced
  candidates cannot win because their bound already exceeds an exact
  score (see ``_vectorized_select``).  Wins once the queue is deep enough
  to amortize the screen (``VECTORIZED_DEPTH_THRESHOLD``).
* ``pruned`` — lower-bound pruning over cylinder buckets.  The selection
  walk visits buckets in increasing cylinder distance from the current
  sled/arm position and stops as soon as the next bucket's admissible lower
  bound (``device.positioning_lower_bounds``, a dense per-distance table
  with a monotone suffix-min envelope) *strictly* exceeds the best exact
  estimate found so far.  Because the bound never exceeds the exact
  estimate and ties are resolved by arrival order exactly as the naive scan
  does, the pruned walk only prices fewer candidates (see
  ``tests/core/scheduling/test_sptf_prune.py``).  When every bucket bound
  stays at or below the incumbent (e.g. a queue parked on one cylinder) the
  walk degenerates gracefully to the full scan.  Wins at depths where
  sub-linear candidate visits beat even vectorized full pricing
  (``PRUNED_DEPTH_THRESHOLD``).

Every piece of adaptive bookkeeping is built lazily by the first selection
that needs it: the bucket indexes on the first pruned walk, the cylinder
shadow list and the device's lower-bound table on the first vectorized
screen.  Runs that stay shallow pay nothing — no per-add cylinder lookups,
no bound-table build, no per-dispatch bookkeeping beyond the depth check
itself — which is what keeps the selector at parity with the plain scan at
trivial depths (the ``sptf_adaptive`` bench rows).  Nothing is memoized
across selections: a selection prices each candidate at most once, and the
dispatch that follows it changes the device state every estimate depends
on.  Which regime served each dispatch is reported as ``fast_path`` in
``sched.dispatch`` trace events, next to the oracle-call count
``candidates_priced``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Set, Tuple

from repro.core.scheduling.base import ListScheduler
from repro.sim.device import StorageDevice
from repro.sim.request import Request
from repro.validation import check_range

VECTORIZED_DEPTH_THRESHOLD = 8
"""Pending-queue depth above which selection batch-prices candidates.

Below this the per-call numpy overhead (array allocation, dispatch) loses
to a plain Python scan over the handful of candidates; measured crossover
on CPython 3.12 + numpy 2.x is 6–10 pending requests for both device
models (see ``benchmarks/bench_hotpath.py``, ``adaptive_depth`` section).
"""

PRUNED_DEPTH_THRESHOLD = 64
"""Pending-queue depth above which selection takes the pruned walk.

The bucket walk visits a sub-linear slice of deep queues, which beats even
vectorized full pricing once the queue is wide enough for the lower bounds
to cut early; below it, the walk's per-bucket Python overhead loses to one
flat batch call."""

_SCALAR_SURVIVOR_LIMIT = 8
"""Survivor-set size up to which the vectorized path prices scalarly.

The batch pricing call carries a fixed numpy cost (array build, ufunc
dispatch) that a handful of scalar :meth:`estimate_positioning` calls —
bitwise identical per element — undercuts.  Bound screening typically
leaves only a few candidates alive, so most selections stay under this."""


def device_supports_pruning(device: StorageDevice) -> bool:
    """True when ``device`` exposes the oracles the deep-queue paths need.

    The scheduler needs four pieces of narrow state: the dense
    ``positioning_lower_bounds`` table, the bucket key for a request
    (``request_cylinder``), the current mechanical position
    (``current_cylinder``), and the vectorized pricing oracle
    (``estimate_positioning_batch``).  Both real device models have all
    four; devices without them (test doubles) take the plain full scan at
    every depth.

    The bounds probe checks the *class* first: on the real devices
    ``positioning_lower_bounds`` is a lazily-built property, and reading it
    off the instance here would defeat the laziness by triggering the
    build during construction of every scheduler.
    """
    bounds = getattr(type(device), "positioning_lower_bounds", None)
    if bounds is None:
        bounds = getattr(device, "positioning_lower_bounds", None)
    return (
        bounds is not None
        and callable(getattr(device, "request_cylinder", None))
        and getattr(device, "current_cylinder", None) is not None
        and callable(getattr(device, "estimate_positioning_batch", None))
    )


class _SPTFSelector(ListScheduler):
    """The depth-adaptive argmin shared by both SPTF variants.

    Selection minimizes ``estimate − age_weight · wait`` over the pending
    queue; :class:`SPTFScheduler` is the ``age_weight = 0`` case.

    Once the pruned walk has run, the scheduler additionally maintains, per
    pending request, a cylinder-keyed bucket (insertion-ordered, so bucket
    order is arrival order) and a monotone arrival sequence number.  The
    pending list itself stays append-ordered, hence sorted by sequence
    number — which lets the pruned walk recover the queue index of its
    winner with a binary search instead of a linear scan.
    """

    age_weight = 0.0

    def __init__(self, device: StorageDevice) -> None:
        super().__init__()
        self._device = device
        self._can_prune = device_supports_pruning(device)
        #: Telemetry for the most recent selection: how many requests were
        #: pending, how many had their exact estimate consulted (oracle
        #: calls), and how many were never priced.  ``candidates == priced
        #: + pruned`` always.  A single-candidate selection prices nothing
        #: (the argmin is trivial), so it reports ``priced=0, pruned=1``;
        #: otherwise the scan reports ``pruned=0``.
        self.last_candidates = 0
        self.last_priced = 0
        self.last_pruned = 0
        #: Which selection regime served the most recent dispatch
        #: (``scan`` / ``vectorized`` / ``pruned``); reported as
        #: ``fast_path`` in ``sched.dispatch`` trace events.
        self.last_fast_path = "scan"
        # Pruning indexes (cylinder buckets + arrival sequence numbers).
        # Maintained incrementally only once ``_indexed`` is set, from the
        # first selection deep enough to take the pruned walk — so runs
        # that never cross ``PRUNED_DEPTH_THRESHOLD`` pay no per-add
        # bookkeeping at all.
        self._indexed = False
        self._buckets: Dict[int, List[Request]] = {}
        self._bucket_keys: List[int] = []
        self._arrival_seq: Dict[int, int] = {}
        self._next_seq = 0
        # Cylinder list shadowing the pending queue positionally, feeding
        # the vectorized bound screen.  Built by the first selection deep
        # enough to take the vectorized path (``_ensure_cyls``) and
        # maintained incrementally from then on — runs that stay shallow
        # never pay the per-add ``request_cylinder`` call.
        self._cyls_live = False
        self._cyls: List[int] = []

    @property
    def prune_enabled(self) -> bool:
        """Whether deep selections may use the bound-based paths."""
        return self._can_prune

    def add(self, request: Request) -> None:
        super().add(request)
        if self._cyls_live:
            self._cyls.append(self._device.request_cylinder(request))
        if self._indexed:
            self._arrival_seq[id(request)] = self._next_seq
            self._next_seq += 1
            key = self._device.request_cylinder(request)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [request]
                insort(self._bucket_keys, key)
            else:
                bucket.append(request)

    def pop_next(self, now: float = 0.0) -> Request:
        # Replays ``ListScheduler.pop_next`` inline: the cylinder shadow
        # list is positional, so the removal index must be kept in hand
        # rather than recovered from the dispatched request.
        queue = self._queue
        if not queue:
            raise IndexError("scheduler queue is empty")
        candidates = len(queue)
        index = self.select_index(now)
        request = queue.pop(index)
        if self._cyls_live:
            del self._cyls[index]
        if self._indexed:
            self._forget(request)
        if self.tracer.enabled:
            self._trace_dispatch(now, candidates, request)
        return request

    def select_index(self, now: float) -> int:
        candidates = len(self._queue)
        if candidates <= 1:
            # The argmin over one candidate is that candidate: no oracle
            # call.  Open-arrival runs below saturation spend most
            # dispatches here, so this shortcut is the single biggest
            # lever on the per-request pricing cost.
            index, priced, path = 0, 0, "scan"
        elif self._can_prune and candidates > PRUNED_DEPTH_THRESHOLD:
            if not self._indexed:
                self._build_indexes()
            index, priced = self._pruned_select(now)
            path = "pruned"
        elif self._can_prune and candidates > VECTORIZED_DEPTH_THRESHOLD:
            index, priced = self._vectorized_select(now)
            path = "vectorized"
        else:
            index, priced, path = self._scan_select(now), candidates, "scan"
        self.last_candidates = candidates
        self.last_priced = priced
        self.last_pruned = candidates - priced
        self.last_fast_path = path
        return index

    def _scan_select(self, now: float) -> int:
        """Price every candidate; first minimum score wins."""
        estimate = self._device.estimate_positioning
        age_weight = self.age_weight
        best_index = 0
        best_score = None
        for index, request in enumerate(self._queue):
            score = estimate(request, now)
            if age_weight:
                score -= age_weight * max(0.0, now - request.arrival_time)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        return best_index

    def _discount_cap(self, now: float) -> float:
        """Upper bound on any pending candidate's aging credit."""
        return 0.0

    def _build_indexes(self) -> None:
        """Build the pruning indexes from the current pending queue.

        Called by the first selection that takes the pruned path.  The
        queue is append-ordered, so enumerating it assigns arrival sequence
        numbers in arrival order — the same numbering incremental
        maintenance would have produced — and from here on
        ``add``/``pop_next`` keep the indexes current.
        """
        request_cylinder = self._device.request_cylinder
        buckets = self._buckets
        seq_of = self._arrival_seq
        next_seq = self._next_seq
        for request in self._queue:
            seq_of[id(request)] = next_seq
            next_seq += 1
            key = request_cylinder(request)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [request]
            else:
                bucket.append(request)
        self._next_seq = next_seq
        self._bucket_keys = sorted(buckets)
        self._indexed = True

    def _forget(self, request: Request) -> int:
        """Drop a dispatched request from the pruning indexes; returns its
        arrival sequence number for subclasses with extra bookkeeping."""
        seq = self._arrival_seq.pop(id(request))
        key = self._device.request_cylinder(request)
        bucket = self._buckets[key]
        if len(bucket) == 1:
            del self._buckets[key]
            self._bucket_keys.remove(key)
        else:
            # Remove by identity: equal-valued duplicates are distinct
            # pending entries with their own sequence numbers.
            for index, pending in enumerate(bucket):
                if pending is request:
                    del bucket[index]
                    break
        return seq

    def _ensure_cyls(self) -> None:
        """Build the positional cylinder shadow list from the pending queue.

        Called by the first selection that takes the vectorized path; from
        then on ``add``/``pop_next`` keep it aligned with the queue.  The
        per-request ``request_cylinder`` lookups are memoized on the
        device, so a later rebuild would cost the same — this just avoids
        paying any of it on runs that never go deep.
        """
        request_cylinder = self._device.request_cylinder
        self._cyls = [request_cylinder(request) for request in self._queue]
        self._cyls_live = True

    def _queue_index_of_seq(self, seq: int) -> int:
        """Queue index of the pending request with arrival sequence ``seq``.

        The queue is append-only between pops, so it is always sorted by
        sequence number — a binary search over ``id``-keyed lookups beats
        ``list.index`` (which would compare dataclass values linearly).
        """
        queue = self._queue
        seq_of = self._arrival_seq
        lo, hi = 0, len(queue)
        while lo < hi:
            mid = (lo + hi) >> 1
            if seq_of[id(queue[mid])] < seq:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _pruned_select(self, now: float) -> Tuple[int, int]:
        """Lower-bound-pruned argmin over the pending queue.

        Walks the cylinder buckets outward from the device's current
        cylinder (two pointers over the sorted key list, always expanding
        the nearer side) and prices candidates with the exact oracle.  The
        walk stops at the first bucket whose lower bound — discounted by
        :meth:`_discount_cap`, an upper bound on any candidate's aging
        credit — strictly exceeds the best exact score so far; the
        suffix-min envelope of the bound table makes every remaining bucket
        at least as expensive.  The strict ``>`` keeps equal-bound
        candidates alive, so ties are settled by the same (score, arrival)
        order as the naive scan and the selected request is bit-identical.

        Returns ``(queue_index, candidates_priced)``.
        """
        device = self._device
        estimate = device.estimate_positioning
        age_weight = self.age_weight
        discount_cap = self._discount_cap(now)
        bounds = device.positioning_lower_bounds
        keys = self._bucket_keys
        buckets = self._buckets
        seq_of = self._arrival_seq
        current = device.current_cylinder
        right = bisect_left(keys, current)
        left = right - 1
        nkeys = len(keys)
        best_score = 0.0
        best_seq = -1
        priced = 0
        while left >= 0 or right < nkeys:
            if left < 0:
                take_left = False
                delta = keys[right] - current
            elif right >= nkeys:
                take_left = True
                delta = current - keys[left]
            else:
                dist_left = current - keys[left]
                dist_right = keys[right] - current
                take_left = dist_left <= dist_right
                delta = dist_left if take_left else dist_right
            if best_seq >= 0 and bounds[delta] - discount_cap > best_score:
                break
            key = keys[left] if take_left else keys[right]
            for request in buckets[key]:
                score = estimate(request, now)
                priced += 1
                if age_weight:
                    score -= age_weight * max(0.0, now - request.arrival_time)
                if best_seq < 0 or score < best_score:
                    best_score = score
                    best_seq = seq_of[id(request)]
                elif score == best_score:
                    seq = seq_of[id(request)]
                    if seq < best_seq:
                        best_seq = seq
            if take_left:
                left -= 1
            else:
                right += 1
        return self._queue_index_of_seq(best_seq), priced

    def _vectorized_select(self, now: float) -> Tuple[int, int]:
        """Bound-screened batch-priced argmin over the pending queue.

        Selection runs in three steps, returning ``(queue_index, priced)``:

        1. **Screen** — every candidate gets an admissible lower bound on
           its score from the dense per-cylinder-delta table (aged
           variants subtract the candidate's exact aging credit, which
           keeps the bound admissible per candidate — tighter than the
           pruned walk's global discount).
        2. **Seed** — the candidate with the smallest bound is priced
           exactly; its score caps what any winner can cost.
        3. **Price** — candidates whose bound does not exceed the seed's
           score survive the screen; everyone else is provably beaten
           (their exact score is at least their bound, which exceeds an
           exact score already in hand).  A handful of survivors are
           priced scalarly in queue order against a tightening incumbent;
           wide survivor sets go through one
           :meth:`estimate_positioning_batch` call.

        The winner is the minimum exact score over the priced subset with
        ties going to the lowest queue index — identical to the scan's
        strict-``<`` first-occurrence rule over the full queue, because
        every candidate that could equal the minimum has a bound at or
        below it and therefore was priced (per-element estimate equality
        is pinned by ``tests/core/scheduling/test_batch_identity.py``).
        """
        queue = self._queue
        device = self._device
        estimate = device.estimate_positioning
        age_weight = self.age_weight
        if not self._cyls_live:
            self._ensure_cyls()
        bounds = device.positioning_lower_bounds
        current = device.current_cylinder
        bound_list = []
        bound_append = bound_list.append
        best_bound = None
        seed = 0
        for index, (request, cylinder) in enumerate(zip(queue, self._cyls)):
            delta = cylinder - current
            if delta < 0:
                delta = -delta
            bound = bounds[delta]
            if age_weight:
                wait = now - request.arrival_time
                if wait > 0.0:
                    bound -= age_weight * wait
            bound_append(bound)
            if best_bound is None or bound < best_bound:
                best_bound = bound
                seed = index
        seed_request = queue[seed]
        best_score = estimate(seed_request, now)
        if age_weight:
            best_score -= age_weight * max(
                0.0, now - seed_request.arrival_time
            )
        survivors = [
            index
            for index, bound in enumerate(bound_list)
            if bound <= best_score and index != seed
        ]
        if not survivors:
            return seed, 1
        best_index = seed
        if len(survivors) <= _SCALAR_SURVIVOR_LIMIT:
            # Small survivor sets: scalar pricing in queue order, re-testing
            # each bound against the tightening incumbent — an earlier
            # survivor's exact score often eliminates later ones before
            # they are priced.  A skipped candidate's exact score is at
            # least its bound, which exceeds a score already in hand, so
            # it can neither win nor (being a later index on a tie)
            # displace the incumbent.
            priced = 1
            for index in survivors:
                if bound_list[index] > best_score:
                    continue
                request = queue[index]
                score = estimate(request, now)
                priced += 1
                if age_weight:
                    score -= age_weight * max(
                        0.0, now - request.arrival_time
                    )
                if score < best_score or (
                    score == best_score and index < best_index
                ):
                    best_score = score
                    best_index = index
            return best_index, priced
        # Wide survivor sets: one numpy batch pricing call beats per-
        # candidate scalar evaluation.  Both paths return bitwise-identical
        # values, so the crossover is purely a speed knob.
        values = device.estimate_positioning_batch(
            [queue[index] for index in survivors], now
        ).tolist()
        for index, score in zip(survivors, values):
            if age_weight:
                score -= age_weight * max(
                    0.0, now - queue[index].arrival_time
                )
            if score < best_score or (score == best_score and index < best_index):
                best_score = score
                best_index = index
        return best_index, 1 + len(survivors)

    def _dispatch_telemetry(self) -> dict:
        return {
            "candidates_priced": self.last_priced,
            "candidates_pruned": self.last_pruned,
            "fast_path": self.last_fast_path,
        }


class SPTFScheduler(_SPTFSelector):
    """Greedy minimum-positioning-time selection using the device oracle."""

    name = "SPTF"


class AgedSPTFScheduler(_SPTFSelector):
    """SPTF with linear aging: priority = positioning − age_weight · wait.

    ``age_weight`` = 0 degenerates to pure SPTF; a few milliseconds per
    second of wait is typically enough to bound starvation.  It must be a
    finite number >= 0: a NaN weight makes every score NaN (so selection
    silently falls back to queue order), and an infinite one turns the
    policy into FCFS.

    Pruning still applies: the bucket bound is discounted by the *largest
    possible* aging credit — ``age_weight`` × the wait of the oldest
    pending arrival (tracked with a lazy-deletion heap) — which keeps it an
    admissible lower bound on every candidate's aged score.
    """

    name = "ASPTF"

    def __init__(self, device: StorageDevice, age_weight: float = 0.01) -> None:
        super().__init__(device)
        check_range("age_weight", age_weight, ge=0)
        self.age_weight = age_weight
        # Min-heap of (arrival_time, seq) with lazy deletion: entries
        # whose seq left ``_live_seqs`` are skipped at peek time.  The
        # pending list is not arrival-sorted in general (callers may
        # add out of order), so the heap — not the queue head — tracks
        # the oldest pending arrival.  Maintained alongside the pruning
        # indexes, from the first pruned selection on.
        self._arrival_heap: List[Tuple[float, int]] = []
        self._live_seqs: Set[int] = set()

    def add(self, request: Request) -> None:
        super().add(request)
        if self._indexed:
            seq = self._arrival_seq[id(request)]
            self._live_seqs.add(seq)
            heapq.heappush(self._arrival_heap, (request.arrival_time, seq))

    def _build_indexes(self) -> None:
        super()._build_indexes()
        heap = self._arrival_heap
        live = self._live_seqs
        seq_of = self._arrival_seq
        for request in self._queue:
            seq = seq_of[id(request)]
            live.add(seq)
            heapq.heappush(heap, (request.arrival_time, seq))

    def _forget(self, request: Request) -> int:
        seq = super()._forget(request)
        self._live_seqs.discard(seq)
        return seq

    def _discount_cap(self, now: float) -> float:
        """``age_weight`` × the wait of the oldest pending arrival."""
        heap = self._arrival_heap
        live = self._live_seqs
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        if not heap:
            return 0.0
        return self.age_weight * max(0.0, now - heap[0][0])
