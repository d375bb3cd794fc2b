"""On-line DP_Greedy: the paper's off-line assumption, relaxed.

The paper assumes the full spatial-temporal trajectory is known in
advance (justified by the ~93% predictability of human mobility [5]) and
leaves the on-line setting to the substrate literature ([6] gives a
3-competitive single-item policy).  This module closes that gap with an
on-line variant of the two-phase algorithm that sees requests one at a
time:

* **Phase 1, on-line:** running co-occurrence counts maintain a Jaccard
  estimate per pair; once a pair's estimate exceeds ``theta`` after a
  warm-up of ``min_observations`` requests per item, the pair is packed
  from that moment on (packing is monotone -- packages never dissolve,
  and an item joins at most one package, mirroring ``package_flag``).
* **Phase 2, on-line:** every serving unit runs the deterministic
  ski-rental stepper of :mod:`repro.cache.online` -- a copy is dropped once
  its idle caching cost reaches its transfer cost.  A package unit runs
  it at package rates ``2 alpha mu / 2 alpha lam``.  A single-sided
  request for a packed item is served by the cheapest currently-feasible
  option: cache (a live copy of the item or its package on the server),
  an individual transfer (``lam``), or shipping the package
  (``2 alpha lam``), the on-line analogue of Observation 2.

The replay returns the same per-unit cost breakdown as the off-line
algorithm so the two are directly comparable
(:mod:`repro.experiments.online_study`).

The per-request body lives in :class:`OnlineDPGreedyState`, an
incremental stepper that the always-on serving engine
(:mod:`repro.serve.engine`) drives batch by batch: ``step`` ingests one
request and returns the serving decision, ``finalize`` flushes every
live copy and produces the :class:`OnlineDPGreedyResult`.
:func:`solve_online_dp_greedy` is the one-shot wrapper -- stepping a
state over a sequence serially reproduces its cost bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .._records import dict_init
from ..cache.model import CostModel, Request, RequestSequence
from ..cache.online import _SkiRentalUnit
from ..correlation.streaming import StreamingCorrelation

__all__ = [
    "OnlineDPGreedyResult",
    "OnlineDPGreedyState",
    "StepOutcome",
    "solve_online_dp_greedy",
]


@dataclass(frozen=True)
class OnlineDPGreedyResult:
    """Outcome of the on-line replay."""

    total_cost: float
    denominator: int
    packages: Tuple[FrozenSet[int], ...]
    formation_times: Dict[FrozenSet[int], float]
    per_unit_cost: Dict[FrozenSet[int], float]

    @property
    def ave_cost(self) -> float:
        return self.total_cost / self.denominator if self.denominator else 0.0


@dict_init
@dataclass(frozen=True)
class StepOutcome:
    """The serving decision one :meth:`OnlineDPGreedyState.step` made.

    ``paid`` is the cost charged *at this instant* (transfers and
    package ships; caching accrues on retirement and only surfaces in
    :meth:`~OnlineDPGreedyState.finalize`).  The counters classify every
    per-item decision: ``hits`` were served through a live copy,
    ``transfers`` paid an individual ``lam``, ``ships`` paid the
    discounted ``2 alpha lam`` package transfer.  ``formed`` lists the
    packages whose formation this request triggered.
    """

    paid: float
    hits: int
    transfers: int
    ships: int
    formed: Tuple[FrozenSet[int], ...] = ()


class OnlineDPGreedyState:
    """Incremental on-line DP_Greedy: the solver's loop body as an object.

    The state owns the streaming Phase-1 statistics, the monotone
    package assignment, and one ski-rental unit per item/package.
    ``step`` ingests exactly one request and is the *only* mutator on
    the serving path, so a caller that never invokes it for a shed or
    rejected request gets batch atomicity for free: correlation counts,
    package flags, and copy states all advance together or not at all.

    :func:`solve_online_dp_greedy` is ``step`` in a loop followed by
    ``finalize``; the serving engine (:mod:`repro.serve.engine`)
    interleaves batches of ``step`` calls with admission decisions and
    background re-packing epochs.  A serial, shed-free replay of a trace
    through either driver produces bit-identical costs.
    """

    def __init__(
        self,
        model: CostModel,
        *,
        theta: float,
        alpha: float,
        origin: int = 0,
        min_observations: int = 5,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0 <= theta <= 1:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if origin < 0:
            raise ValueError(f"origin server must be non-negative, got {origin}")
        self.model = model
        self.theta = theta
        self.alpha = alpha
        self.origin = origin
        self.mu, self.lam = model.mu, model.lam
        self.pack_rate = 2 * alpha

        self.stats = StreamingCorrelation(min_observations=min_observations)
        self.packed_into: Dict[int, FrozenSet[int]] = {}
        self.formation: Dict[FrozenSet[int], float] = {}
        self.item_units: Dict[int, _SkiRentalUnit] = {}
        self.package_units: Dict[FrozenSet[int], _SkiRentalUnit] = {}
        self.extra_cost = 0.0  # package-ship charges for single-sided requests
        self.last_time = -math.inf
        self.requests_seen = 0
        self.item_requests = 0
        self._result: Optional[OnlineDPGreedyResult] = None

    # ------------------------------------------------------------------
    def _item_unit(self, d: int) -> _SkiRentalUnit:
        unit = self.item_units.get(d)
        if unit is None:
            unit = self.item_units[d] = _SkiRentalUnit(
                self.origin, 0.0, self.mu, self.lam
            )
        return unit

    def step(self, req: Request) -> StepOutcome:
        """Serve one request; returns the decision taken.

        Requests must arrive in strictly increasing time order (the
        paper's one-request-per-instant assumption); a finalized state
        accepts no further requests.
        """
        if self._result is not None:
            raise RuntimeError("state already finalized")
        t, s, req_items = req.time, req.server, req.items
        if t <= self.last_time:
            raise ValueError(
                f"request times must be strictly increasing "
                f"(got {t} after {self.last_time})"
            )
        self.last_time = t
        self.requests_seen += 1
        self.item_requests += len(req_items)
        pack_rate = self.pack_rate
        paid = 0.0
        hits = transfers = ships = 0
        formed: Tuple[FrozenSet[int], ...] = ()

        # ---- phase 1 (on-line): update statistics, maybe form packages
        stats, packed_into, formation = self.stats, self.packed_into, self.formation
        stats.observe(req)
        if len(req_items) > 1:
            # read the counts observe just wrote: both items past the
            # warm-up, then the prefix Jaccard (Eq. 5, as
            # StreamingCorrelation.similarity computes it; the union is
            # positive because this request co-counted the pair)
            counts, co_counts = stats.counts, stats.co_counts
            warm = stats.min_observations
            items = sorted(req_items)
            for i, a in enumerate(items):
                for b in items[i + 1 :]:
                    if (
                        a not in packed_into
                        and b not in packed_into
                        and counts[a] >= warm
                        and counts[b] >= warm
                    ):
                        pair = frozenset((a, b))
                        co = co_counts[pair]
                        if co / (counts[a] + counts[b] - co) > self.theta:
                            packed_into[a] = pair
                            packed_into[b] = pair
                            formation[pair] = t
                            formed += (pair,)
                            # the package materialises at this request's
                            # server *after* the request itself is served
                            # at individual rates (the discount starts
                            # with the next co-occurrence)

        # ---- phase 2 (on-line): serve ------------------------------
        # packages first, then everything else: ``paid`` adds up in this
        # order.  Probing ``packed_into`` again in the second pass is
        # cheaper than keeping a per-request list of the first pass's
        # lookups at one or two items a request.
        item_units, package_units = self.item_units, self.package_units
        served_by_package = None
        for d in req_items:
            pair = packed_into.get(d)
            if pair is None or not pair <= req_items:
                continue
            if served_by_package is None:
                served_by_package = {pair}
            elif pair in served_by_package:
                continue
            else:
                served_by_package.add(pair)
            if formation.get(pair) == t:
                # formation request: serve both items individually
                # (paying their caching up to now), then hand over
                for member in sorted(pair):
                    unit = self._item_unit(member)
                    if unit.serve(s, t):
                        paid += unit.lam
                        transfers += 1
                    else:
                        hits += 1
                package_units[pair] = _SkiRentalUnit(
                    s, t, pack_rate * self.mu, pack_rate * self.lam
                )
            else:
                unit = package_units[pair]
                if unit.serve(s, t):
                    paid += unit.lam
                    transfers += 1
                else:
                    hits += 1

        for d in req_items:
            pair = packed_into.get(d)
            if served_by_package is not None and pair in served_by_package:
                continue  # handled as a package above
            unit = item_units.get(d)
            if unit is None:
                unit = self._item_unit(d)
            if pair is None:
                if unit.serve(s, t):
                    paid += unit.lam
                    transfers += 1
                else:
                    hits += 1
                continue
            # single-sided request for a packed item (Observation 2 on-line)
            pkg_unit = package_units[pair]
            # a live copy already sits here: cache-serve through a
            # holder, extending its (billed) lifetime to now
            if unit.holds(s, t):
                unit.serve(s, t)
                hits += 1
                continue
            if pkg_unit.holds(s, t):
                pkg_unit.touch(s, t)
                hits += 1
                continue
            if pack_rate * self.lam < self.lam:
                charge = pack_rate * self.lam  # ship the package
                self.extra_cost += charge
                paid += charge
                ships += 1
                pkg_unit.adopt(s, t)
            else:
                unit.serve(s, t)  # no live copy here: a transfer
                paid += unit.lam
                transfers += 1
        return StepOutcome(paid, hits, transfers, ships, formed)

    # ------------------------------------------------------------------
    def adopt_package(self, pair: FrozenSet[int], time: float) -> bool:
        """Form ``pair`` out-of-band (a re-packing epoch, not a request).

        The serving engine's background re-packer may propose packages
        the monotone in-stream rule has not formed yet (offline-quality
        plan, on-line adaptation).  Adoption mirrors in-stream formation
        -- both items are flagged, the package unit is born at the more
        recently used member copy's primary server -- except that when
        the two member primaries differ the package pays one discounted
        ship ``2 alpha lam`` to materialise co-located content.  Returns
        ``False`` (and changes nothing) when either item is already
        packed or the pair is not a 2-set.

        Note adoption *changes serving costs* relative to the pure
        in-stream replay; drivers that must stay bit-identical to
        :func:`solve_online_dp_greedy` simply never call it.
        """
        if self._result is not None:
            raise RuntimeError("state already finalized")
        pair = frozenset(pair)
        if len(pair) != 2 or any(d in self.packed_into for d in pair):
            return False
        a, b = sorted(pair)
        unit_a, unit_b = self._item_unit(a), self._item_unit(b)
        # the member whose copy was used last anchors the package
        last_a = max(last for _birth, last in unit_a.copies.values())
        last_b = max(last for _birth, last in unit_b.copies.values())
        anchor, other = (unit_a, unit_b) if last_a >= last_b else (unit_b, unit_a)
        server = anchor.primary
        if other.primary != server:
            self.extra_cost += self.pack_rate * self.lam
        for d in pair:
            self.packed_into[d] = pair
        self.formation[pair] = time
        self.package_units[pair] = _SkiRentalUnit(
            server, time, self.pack_rate * self.mu, self.pack_rate * self.lam
        )
        return True

    # ------------------------------------------------------------------
    def finalize(self) -> OnlineDPGreedyResult:
        """Flush every live copy at its last use and return the result.

        Idempotent: the first call retires all copies (the destructive
        part) and caches the result; later calls return the same object.
        """
        if self._result is not None:
            return self._result
        per_unit: Dict[FrozenSet[int], float] = {}
        total = self.extra_cost
        for d, unit in self.item_units.items():
            c = unit.flush()
            per_unit[frozenset((d,))] = c
            total += c
        for pair, unit in self.package_units.items():
            c = unit.flush()
            per_unit[pair] = per_unit.get(pair, 0.0) + c
            total += c
        self._result = OnlineDPGreedyResult(
            total_cost=total,
            denominator=self.item_requests,
            packages=tuple(sorted(self.package_units, key=sorted)),
            formation_times=self.formation,
            per_unit_cost=per_unit,
        )
        return self._result


def solve_online_dp_greedy(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    min_observations: int = 5,
) -> OnlineDPGreedyResult:
    """Replay ``seq`` through the on-line two-phase algorithm.

    ``min_observations`` is the warm-up: a pair may pack only once both
    items have been seen at least that many times (prevents packing on
    the first coincidental co-occurrence).

    The sequence is re-audited on entry (like :func:`solve_dp_greedy`),
    so malformed streams -- NaN times, out-of-range servers, empty item
    sets smuggled past the constructor -- fail with an indexed message
    instead of a KeyError deep inside the replay.
    """
    seq.validate()
    state = OnlineDPGreedyState(
        model,
        theta=theta,
        alpha=alpha,
        origin=seq.origin,
        min_observations=min_observations,
    )
    for req in seq:
        state.step(req)
    return state.finalize()
