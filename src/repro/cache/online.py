"""On-line single-item caching policies (context algorithms from [6]).

The paper's substrate reference (Wang et al., ICPP 2017) pairs its optimal
off-line algorithm with a fast 3-competitive on-line algorithm.  This
module provides on-line comparators so that the library covers the whole
algorithmic landscape the paper situates itself in:

* :func:`solve_online_ski_rental` -- the classic deterministic rent-or-buy
  policy: after serving a request, a server keeps its copy until the
  accrued caching cost since its last use reaches ``lam`` (at which point
  keeping was as expensive as a later re-transfer) and then drops it; one
  designated copy (the most recently used) is never dropped, preserving
  persistence.  This is the standard 2-competitive ski-rental trade-off
  per server and mirrors the structure of the 3-competitive algorithm
  described in [6].  The policy is one incremental stepper,
  :class:`_SkiRentalUnit`, which on-line DP_Greedy
  (:mod:`repro.core.online_dpg`) and the serving engine's degraded path
  drive request by request; the solver replays it over a trajectory.
* :func:`solve_online_always_transfer` -- the no-cache straw man: keep only
  the most recent copy and transfer on every server change.

Both see requests one at a time and never inspect the future; they are
benchmarked against the off-line optimum in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .model import CostModel, RequestSequence, SingleItemView
from .schedule import CacheInterval, Schedule, Transfer

__all__ = [
    "OnlineResult",
    "solve_online_ski_rental",
    "solve_online_always_transfer",
]


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an on-line policy replayed over a trajectory."""

    cost: float
    schedule: Optional[Schedule]
    num_transfers: int
    total_cache_time: float


def _coerce(view: "SingleItemView | RequestSequence") -> SingleItemView:
    if isinstance(view, RequestSequence):
        # re-audit like solve_dp_greedy: malformed streams (NaN times,
        # out-of-range servers) fail here with an indexed message
        # instead of a KeyError inside the replay loop
        view = view.validate().single_item_view()
    if len(view.times) and view.times[0] <= 0.0:
        raise ValueError("request times must be strictly positive")
    return view


class _SkiRentalUnit:
    """Incremental ski-rental copy manager for one item or package.

    Every copy remembers its birth and last use; a non-primary copy is
    retired once idle longer than ``lam / mu`` (having paid exactly its
    re-transfer cost in idle caching); serving a foreign server
    transfers from the primary copy.  Costs accrue on retire/flush.
    """

    def __init__(self, origin: int, start: float, mu: float, lam: float) -> None:
        self.mu = mu
        self.lam = lam
        self.threshold = lam / mu if mu > 0 else float("inf")
        self.copies: Dict[int, Tuple[float, float]] = {origin: (start, start)}
        self.primary = origin
        self.cost = 0.0

    def _retire(self, server: int, end: float) -> None:
        birth, _last = self.copies.pop(server)
        self.cost += self.mu * max(0.0, end - birth)

    def _expire(self, now: float) -> None:
        # one walk over the copies, in copy order; retiring pops, so the
        # walk only notes what to retire
        threshold, primary = self.threshold, self.primary
        expired = []
        for server, (_birth, last) in self.copies.items():
            if now - last > threshold and server != primary:
                expired.append((server, last + threshold))
        for server, end in expired:
            self._retire(server, end)

    def holds(self, server: int, now: float) -> bool:
        """Live copy on ``server`` at time ``now`` (after expiry)?"""
        info = self.copies.get(server)
        if info is None:
            return False
        _birth, last = info
        return server == self.primary or now - last <= self.threshold

    def serve(self, server: int, now: float) -> bool:
        """Serve a request at ``(server, now)``; returns whether it
        transferred (paying ``lam`` now -- zero under ``lam == 0``, so
        callers classify by this flag, never by the charge) rather than
        hitting a live copy.  Caching accrues on retirement."""
        self._expire(now)
        if server in self.copies:
            birth, _last = self.copies[server]
            self.copies[server] = (birth, now)
            transferred = False
        else:
            birth, _last = self.copies[self.primary]
            self.copies[self.primary] = (birth, now)
            self.copies[server] = (now, now)
            self.cost += self.lam
            transferred = True
        self.primary = server
        return transferred

    def touch(self, server: int, now: float) -> None:
        """Mark the copy on ``server`` as used at ``now`` so its caching
        is paid through ``now`` (serving through a held copy keeps it
        alive -- and billed)."""
        birth, _last = self.copies[server]
        self.copies[server] = (birth, now)

    def adopt(self, server: int, now: float) -> None:
        """Place a fresh copy at ``server`` (package formation)."""
        self._expire(now)
        if server not in self.copies:
            self.copies[server] = (now, now)
        self.primary = server

    def flush(self) -> float:
        """Retire every copy at its last use; return the total cost."""
        for server in list(self.copies):
            _birth, last = self.copies[server]
            self._retire(server, last)
        return self.cost


class _RecordingUnit(_SkiRentalUnit):
    """The stepper, keeping every retired copy as a cache interval."""

    def __init__(self, origin: int, start: float, mu: float, lam: float) -> None:
        super().__init__(origin, start, mu, lam)
        self.intervals: List[CacheInterval] = []

    def _retire(self, server: int, end: float) -> None:
        birth, _last = self.copies[server]
        super()._retire(server, end)
        self.intervals.append(CacheInterval(server, birth, end))


def solve_online_ski_rental(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    *,
    build_schedule: bool = True,
) -> OnlineResult:
    """Replay the deterministic ski-rental on-line policy
    (:class:`_SkiRentalUnit`, born at the origin at ``t = 0``).

    Every copy tracks the time of its last use.  When a request arrives at
    time ``t``:

    1. every non-primary copy whose idle span exceeds ``lam / mu`` is
       retroactively dropped at ``last_use + lam/mu`` (it only ever paid
       ``lam`` worth of idle caching -- the ski-rental guarantee);
    2. the request is served by cache when its server still holds a copy,
       otherwise by a transfer from the primary copy;
    3. the serving server becomes the primary copy holder.

    The schedule's intervals are the stepper's retired copies, in
    retirement order, and ``total_cache_time`` is their spans summed
    left to right.
    """
    view = _coerce(view)
    unit = _RecordingUnit(view.origin, 0.0, model.mu, model.lam)
    transfers: List[Transfer] = []
    for s_i, t_i in zip(view.servers, view.times):
        source = unit.primary
        if unit.serve(s_i, t_i):
            transfers.append(Transfer(source, s_i, t_i))
    cost = unit.flush()
    cache_time = 0.0  # a plain loop: sum() is compensated from Python 3.12
    for interval in unit.intervals:
        cache_time += interval.end - interval.start
    schedule = (
        Schedule(tuple(unit.intervals), tuple(transfers)) if build_schedule else None
    )
    return OnlineResult(cost, schedule, len(transfers), cache_time)


def solve_online_always_transfer(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    *,
    build_schedule: bool = True,
) -> OnlineResult:
    """Keep exactly one copy (the most recent) and transfer on every move.

    Cost is ``mu * (t_n - 0)`` for the single always-alive copy plus
    ``lam`` whenever consecutive requests land on different servers.  This
    is the natural lower envelope of "no caching strategy at all" and the
    worst reasonable on-line comparator.
    """
    view = _coerce(view)
    mu, lam = model.mu, model.lam
    intervals: List[CacheInterval] = []
    transfers: List[Transfer] = []
    cost = 0.0
    cache_time = 0.0

    cur_server, cur_since = view.origin, 0.0
    for s_i, t_i in zip(view.servers, view.times):
        span = t_i - cur_since
        cost += mu * span
        cache_time += span
        intervals.append(CacheInterval(cur_server, cur_since, t_i))
        if s_i != cur_server:
            cost += lam
            transfers.append(Transfer(cur_server, s_i, t_i))
        cur_server, cur_since = s_i, t_i

    schedule = (
        Schedule(tuple(intervals), tuple(transfers)) if build_schedule else None
    )
    return OnlineResult(cost, schedule, len(transfers), cache_time)
