"""DP_Greedy: the paper's two-phase caching algorithm (Algorithm 1).

Phase 1 (:mod:`repro.correlation`) scans the off-line request sequence,
computes the pairwise Jaccard similarities, and greedily packs disjoint
item pairs whose similarity exceeds the threshold ``theta``.

Phase 2 serves each serving unit (:func:`serve_unit`; a unit is its
sorted tuple of item ids, and a singleton is a one-item package whose
rate is 1, Table II):

* a **singleton** item is served over its own sub-sequence by the optimal
  off-line single-item algorithm (the substrate [6],
  :func:`repro.cache.optimal_dp.solve_optimal`);
* a **package** ``{d_1, d_2}`` splits its requests into *co-occurrence*
  nodes (both items) and *single-sided* nodes (exactly one).  The
  co-occurrence nodes are served by the optimal algorithm run at package
  rates ``2*alpha*mu`` / ``2*alpha*lam`` (Table II).  Each single-sided
  node is served greedily (Observation 2) by the cheapest of

  - ``mu * (t_i - t_{p(i)})`` -- cache from the most recent node carrying
    the item on the *same server*,
  - ``mu * (t_i - t_{i-1}) + lam`` -- keep the most recent node carrying
    the item alive and transfer from it,
  - ``2 * alpha * lam`` -- ship the whole package (constant, because the
    package schedule keeps the package available at all times,
    Observation 1).

The virtual origin node ``(origin, t=0)`` carries every item, exactly as
in the paper's running example (``Tr(0.5) = C(0) + 0.5*mu + lam``).
No option depends on an earlier decision, so one vectorised pass
(:func:`single_sided_pass`) decides every package's single-sided nodes
at once, reading ``p(i)`` from the sequence's same-server index.

The reported metric is ``ave_cost`` -- the total cost divided by
``|d_1| + ... + |d_k|`` (Algorithm 1, line 50).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .._records import dict_init
from ..cache.model import CostModel, RequestSequence, package_rate
from ..cache.optimal_dp import (
    NONPOSITIVE_TIMES,
    _sparse_cost_sweep,
    attribute_positions,
    optimal_cost,
    solve_optimal,
)
from ..cache.schedule import Schedule
from ..obs.observer import maybe_span
from ..correlation.jaccard import SparseCorrelationStats, sparse_correlation_stats
from ..correlation.packing import (
    PackingPlan,
    greedy_group_packing,
    greedy_pair_packing,
)

__all__ = [
    "GroupReport",
    "SingleSidedDecision",
    "SingleSidedPass",
    "single_sided_decisions",
    "single_sided_pass",
    "DPGreedyResult",
    "solve_dp_greedy",
    "serve_unit",
]

#: Serving modes of single-sided package requests (Observation 2).
MODE_CACHE, MODE_TRANSFER, MODE_PACKAGE = "cache", "transfer", "package"


@dict_init
@dataclass(frozen=True)
class GroupReport:
    """Cost breakdown for one serving unit (package or singleton).

    ``package_cost`` is the DP cost of the co-occurrence nodes at package
    rates (for singletons, the full optimal cost of the item).
    ``single_sided_cost`` is the greedy total over one-item nodes of a
    package (zero for singletons).  ``modes`` records, per single-sided
    node in time order, which Observation-2 option won.

    ``attribution`` (opt-in, ``attribute=True`` on :func:`serve_unit`,
    which an observer's cost ledger asks for) decomposes
    ``package_cost`` into ``(k, action, amount)`` ledger charges via
    :func:`repro.cache.optimal_dp.attribute_positions`, ``k`` being the
    charged request's position among the unit's own requests (the
    item's rows for a singleton, the co-occurrence rows for a package);
    together with the single-sided charges it accounts for every unit
    of ``total``.
    """

    group: FrozenSet[int]
    package_cost: float
    single_sided_cost: float
    num_cooccurrence: int
    num_single_sided: int
    modes: Tuple[Tuple[float, str, float], ...]  # (time, mode, cost)
    package_schedule: Optional[Schedule] = None
    attribution: Optional[Tuple[Tuple[int, str, float], ...]] = None

    @property
    def total(self) -> float:
        return self.package_cost + self.single_sided_cost


@dataclass(frozen=True)
class DPGreedyResult:
    """Full outcome of DP_Greedy on a request sequence.

    ``engine_stats`` (a :class:`repro.engine.parallel.EngineStats`)
    records how Phase 2 ran: pool choice, worker count, memo hit/miss
    counters, and the dispatcher's retry/timeout/fallback counters.
    """

    plan: PackingPlan
    stats: SparseCorrelationStats
    reports: Tuple[GroupReport, ...]
    total_cost: float
    denominator: int
    theta: float
    alpha: float
    engine_stats: Optional[object] = None  # repro.engine.parallel.EngineStats

    @property
    def ave_cost(self) -> float:
        """Algorithm 1, line 50: total cost over total item-requests."""
        return self.total_cost / self.denominator if self.denominator else 0.0

    def report_for(self, group: FrozenSet[int]) -> GroupReport:
        for r in self.reports:
            if r.group == group:
                return r
        raise KeyError(f"no serving unit {set(group)}")

    def item_costs(self) -> Dict[int, float]:
        """The paper's ``cost[]`` array: a package's whole cost is booked
        on its highest item id (mirroring lines 37-47 where ``d_1`` is
        zeroed and everything accrues to ``d_2``)."""
        out: Dict[int, float] = {}
        for r in self.reports:
            for d in r.group:
                out[d] = 0.0
            out[max(r.group)] = r.total
        return out


#: A package's Observation-2 report fields:
#: ``(single_sided_cost, num_single_sided, modes)``.
SingleSidedFields = Tuple[float, int, Tuple[Tuple[float, str, float], ...]]

#: The Observation-2 fields of a unit with no single-sided node.
_NO_SINGLE_SIDED: SingleSidedFields = (0.0, 0, ())


def _unit_report(
    unit: Tuple[int, ...],
    cost: float,
    num_cooccurrence: int,
    single_sided: Dict[Tuple[int, ...], SingleSidedFields],
    schedule: Optional[Schedule] = None,
    attribution: Optional[Tuple[Tuple[int, str, float], ...]] = None,
) -> GroupReport:
    """``unit``'s one report: its DP result plus, for a package, its
    Observation-2 fields from ``single_sided`` (keyed by the unit's
    item tuple; a one-item unit has none)."""
    ss_cost, ss_rows, modes = single_sided.get(unit, _NO_SINGLE_SIDED)
    return GroupReport(
        frozenset(unit), cost, ss_cost, num_cooccurrence, ss_rows, modes,
        schedule, attribution,
    )


def _unit_reporter(
    seq: RequestSequence,
    model: CostModel,
    alpha: float,
    single_sided: Dict[Tuple[int, ...], SingleSidedFields],
    *,
    build_schedule: bool = False,
    attribute: bool = False,
) -> Callable[[Tuple[int, ...]], GroupReport]:
    """``report(unit)``: the one :class:`GroupReport` of each serving unit.

    A unit's DP prices its co-occurrence trajectory (an item's own rows
    for a one-item unit) at :func:`~repro.cache.model.package_rate`
    ``(len(unit), alpha)``, and a package's report carries its
    Observation-2 fields, ``single_sided[unit]`` (keyed by the unit's
    item tuple).

    Without a schedule or an attribution to report the DP runs
    cost-only (``O(m)`` live state, no decision history).  A one-item
    unit then reads its DP input straight off the sequence's
    :meth:`~repro.cache.model.RequestSequence.same_server_index` -- the
    origin event then the item's inverted times, and the item's slots of
    ``index.nxt`` -- with no view and no prologue, and is priced by
    :func:`~repro.cache.optimal_dp.optimal_cost`'s own
    ``(lam * first_copies + dp) * rate``, bit-identical to it; a package
    takes ``optimal_cost`` on its cached
    :meth:`~repro.cache.model.RequestSequence.group_view`.  A schedule
    or an attribution takes :func:`~repro.cache.optimal_dp.solve_optimal`
    on the view.
    """
    mu, lam = model.mu, model.lam
    cost_only = not (build_schedule or attribute)
    items = seq._item_projections()
    index = seq.same_server_index()
    start_of, first_copies_of, links = (
        index.starts.item, index.first_copies.item, index.nxt
    )

    def report(unit: Tuple[int, ...]) -> GroupReport:
        entry = items.get(unit[0]) if len(unit) == 1 else None
        if entry is None:
            return view_report(unit)
        a, _rows, _servers, item_times = entry
        times = item_times.tolist()
        times.insert(0, 0.0)  # the origin event
        if times[1] <= 0.0:
            raise ValueError(NONPOSITIVE_TIMES)
        start = start_of(a)
        nxt = links[start : start + len(times)].tolist()
        # a one-item unit's rate is 1
        dp = _sparse_cost_sweep(times, nxt, mu, lam)
        cost = (lam * first_copies_of(a) + dp) * 1.0
        return GroupReport(frozenset(unit), cost, 0.0, len(item_times), 0, ())

    def view_report(unit: Tuple[int, ...]) -> GroupReport:
        view = seq.group_view(unit)
        rate = package_rate(len(unit), alpha)
        schedule = attribution = None
        if cost_only:
            cost = optimal_cost(view, model, rate_multiplier=rate)
        else:
            res = solve_optimal(
                view, model, build_schedule=build_schedule, rate_multiplier=rate
            )
            cost, schedule = res.cost, res.schedule
            if attribute:
                attribution = attribute_positions(view, model, res, rate_multiplier=rate)
        return _unit_report(unit, cost, len(view), single_sided, schedule, attribution)

    return report if cost_only else view_report


@dataclass(frozen=True)
class SingleSidedDecision:
    """One Observation-2 greedy decision for a single-sided request.

    ``prev_same_time`` / ``prev_any`` carry the cache/transfer sources
    considered (``None`` when unavailable); consumed by the physical
    schedule builder (:mod:`repro.core.physical`).
    """

    item: int
    server: int
    time: float
    mode: str
    cost: float
    prev_same_time: Optional[float]
    prev_any: Tuple[int, float]  # (server, time) of the last node with item


_MODE_NAMES = np.array([MODE_CACHE, MODE_TRANSFER, MODE_PACKAGE], dtype=object)


@dataclass(frozen=True)
class SingleSidedPass:
    """Observation 2 over a list of packages, as columns.

    One entry per single-sided ``(row, member)`` pair: package ``p``'s
    decisions are ``offsets[p]:offsets[p + 1]``, in (row, member) order,
    and ``rows[p]`` counts its single-sided rows.  ``options`` holds each
    entry's (cache, transfer, package) option costs as three rows, cache
    ``inf`` where the server never held the item; ``costs`` is their
    minimum and ``modes`` the row index of the winner, ties going to the
    first.  ``positions`` are the decisions' request positions in the
    sequence.  ``prev_same`` is ``NaN`` where the server never held the
    item.
    """

    offsets: Tuple[int, ...]
    rows: Tuple[int, ...]
    positions: np.ndarray
    items: np.ndarray
    servers: np.ndarray
    times: np.ndarray
    options: np.ndarray
    modes: np.ndarray
    costs: np.ndarray
    prev_same: np.ndarray
    prev_any_servers: np.ndarray
    prev_any_times: np.ndarray

    def fields(self) -> List[SingleSidedFields]:
        """Each package's Observation-2 report fields, in package order:
        ``(single_sided_cost, num_single_sided, modes)``, the cost being
        the left-to-right float sum of the package's decisions in (row,
        member) order."""
        costs = self.costs.tolist()
        decisions = list(
            zip(self.times.tolist(), _MODE_NAMES[self.modes].tolist(), costs)
        )
        offsets = self.offsets
        return [
            (
                reduce(add, costs[offsets[p] : offsets[p + 1]], 0.0),
                rows,
                tuple(decisions[offsets[p] : offsets[p + 1]]),
            )
            for p, rows in enumerate(self.rows)
        ]


def single_sided_pass(
    seq: RequestSequence,
    packages: Sequence[FrozenSet[int]],
    model: CostModel,
    alpha: float,
) -> SingleSidedPass:
    """Observation 2 for every package at once, in one vectorised pass.

    A single-sided request of item ``d`` weighs three options, and no
    option depends on an earlier decision: cache from the previous
    request carrying ``d`` on the same server (``p(i)``, read from
    :meth:`~repro.cache.model.RequestSequence.same_server_index`),
    transfer from the previous request carrying ``d`` on any server, or
    ship the package at the constant ``alpha * k * lam``.  The virtual
    origin event carries every item at ``t = 0``, and ties go cache,
    then transfer, then ship.  The pass gathers each member's requests
    from the inverted columns, orders them by (package, row) to find the
    rows carrying the whole package -- the co-occurrence rows, which the
    package DP prices -- and decides every other pair at once.  A
    package touches only its members' rows, in memory and on a store
    alike.
    """
    cols = seq.columns
    index = seq.same_server_index()
    members: List[int] = []
    owner: List[int] = []
    sizes: List[int] = []
    ship: List[float] = []
    for p, package in enumerate(packages):
        ordered = sorted(package)
        members += ordered
        owner += [p] * len(ordered)
        sizes.append(len(ordered))
        ship.append(package_rate(len(ordered), alpha) * model.lam)
    member_ids = np.array(members, dtype=np.int64)
    owner_of = np.array(owner, dtype=np.int64)

    # each member's run of inverted entries (none for an absent item)
    rank = np.searchsorted(cols.inv_items, member_ids)
    known = rank < len(cols.inv_items)
    known[known] = cols.inv_items[rank[known]] == member_ids[known]
    first_entry = np.zeros_like(rank)
    count = np.zeros_like(rank)
    first_entry[known] = cols.inv_offsets[rank[known]]
    count[known] = cols.inv_offsets[rank[known] + 1] - first_entry[known]
    member = np.repeat(np.arange(len(members)), count)
    entry = np.arange(len(member)) + np.repeat(
        first_entry - np.cumsum(count) + count, count
    )

    # order the pairs by (package, row): one stable sort of a combined
    # key (a row is below len(seq)), which keeps a row's members in item
    # order.  A row is single-sided when fewer than all of its
    # package's members carry it.
    row = cols.inv_positions[entry]
    order = np.argsort(owner_of[member] * (len(seq) + 1) + row, kind="stable")
    member, entry, row = member[order], entry[order], row[order]
    package = owner_of[member]
    opens = np.ones(len(row), dtype=bool)
    opens[1:] = (row[1:] != row[:-1]) | (package[1:] != package[:-1])
    row_start = np.flatnonzero(opens)
    row_package = package[row_start]
    carried = np.diff(np.append(row_start, len(row)))
    partial = carried < np.asarray(sizes, dtype=np.int64)[row_package]
    single = partial[np.cumsum(opens) - 1]
    member, entry, package, row = (
        member[single], entry[single], package[single], row[single]
    )

    # transfer source: the item's previous request, or the origin event;
    # cache source: p(i) as an event of the item (0 = origin, -1 = none)
    t = cols.inv_times[entry]
    first = entry == first_entry[member]
    before = np.where(first, entry, entry - 1)
    any_t = np.where(first, 0.0, cols.inv_times[before])
    any_s = np.where(first, seq.origin, cols.inv_servers[before])
    p_i = index.prev[entry + rank[member] + 1]
    p_entry = np.where(p_i > 0, first_entry[member] + p_i - 1, entry)
    same_t = np.where(p_i > 0, cols.inv_times[p_entry], 0.0)
    mu, lam = model.mu, model.lam
    options = np.array(
        [
            np.where(p_i >= 0, mu * (t - same_t), np.inf),
            mu * (t - any_t) + lam,
            np.asarray(ship)[package],
        ]
    )
    cache, transfer, _ = options
    cost = options.min(axis=0)
    n = len(sizes)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(package, minlength=n), out=offsets[1:])
    return SingleSidedPass(
        offsets=tuple(offsets.tolist()),
        rows=tuple(np.bincount(row_package[partial], minlength=n).tolist()),
        positions=row,
        items=member_ids[member],
        servers=cols.inv_servers[entry],
        times=t,
        options=options,
        modes=np.where(cost == cache, 0, np.where(cost == transfer, 1, 2)),
        costs=cost,
        prev_same=np.where(p_i >= 0, same_t, np.nan),
        prev_any_servers=any_s,
        prev_any_times=any_t,
    )


def single_sided_decisions(
    seq: RequestSequence,
    package: FrozenSet[int],
    model: CostModel,
    alpha: float,
):
    """Yield the Observation-2 greedy decisions for ``package``'s
    single-sided requests, in time order (members ascending within a
    request): a view over :func:`single_sided_pass`.

    The virtual origin node carries every item; package nodes update the
    per-item sources but are not charged here (they belong to the
    package DP).
    """
    ss = single_sided_pass(seq, [package], model, alpha)
    for d, server, t, mode, cost, t_p, prev_server, prev_t in zip(
        ss.items.tolist(),
        ss.servers.tolist(),
        ss.times.tolist(),
        _MODE_NAMES[ss.modes].tolist(),
        ss.costs.tolist(),
        ss.prev_same.tolist(),
        ss.prev_any_servers.tolist(),
        ss.prev_any_times.tolist(),
    ):
        yield SingleSidedDecision(
            item=d,
            server=server,
            time=t,
            mode=mode,
            cost=cost,
            prev_same_time=None if math.isnan(t_p) else t_p,
            prev_any=(prev_server, prev_t),
        )


def serve_unit(
    seq: RequestSequence,
    unit: Sequence[int],
    model: CostModel,
    alpha: float,
    *,
    build_schedule: bool = False,
    attribute: bool = False,
) -> GroupReport:
    """Serve one serving unit per Phase 2 of Algorithm 1.

    ``unit`` holds the unit's item ids (the engine plans each unit as
    its sorted tuple).  A one-item unit is its item served alone by the
    optimal off-line algorithm at the individual rates.  A package of
    ``k >= 2`` items (``k > 2`` is the paper's Remarks extension) serves
    its co-occurrence nodes -- requests carrying *every* item -- by the
    same DP at rate ``alpha * k``, and each node carrying a strict
    non-empty subset greedily per item, with the package-ship option
    costing ``alpha * k * lam`` (Observation 2, :func:`single_sided_pass`
    over this one unit; a one-item unit has no such node).

    Without a schedule or an attribution to report, the DP runs
    cost-only (no decision path).  ``attribute`` decomposes the DP cost
    into per-request ledger charges at the unit's rate (the single-sided
    charges are already carried by ``modes``).  An empty unit raises
    :class:`ValueError`.
    """
    unit = tuple(unit)
    fields: Dict[Tuple[int, ...], SingleSidedFields] = {}
    if len(unit) > 1:
        (fields[unit],) = single_sided_pass(seq, [unit], model, alpha).fields()
    report = _unit_reporter(
        seq, model, alpha, fields, build_schedule=build_schedule, attribute=attribute
    )
    return report(unit)


def _run_phase1(
    seq: RequestSequence,
    *,
    theta: float,
    packing: str,
    max_group_size: int,
    plan: Optional[PackingPlan],
    observer: "object | None",
) -> Tuple[SparseCorrelationStats, PackingPlan]:
    """Phase 1 of every solve driver: ``(stats, plan)`` for ``seq``.

    Runs the similarity join, then packs (``"pairs"`` or ``"groups"``)
    -- or, given a ``plan``, checks that it covers exactly ``seq``'s
    items and returns it as-is.  The join runs either way, so the
    result's ``stats`` is always filled (and the benchmark's
    ``phase2_ms`` subtracts the join's time from a planned solve).
    With an ``observer`` both steps are spans and, when the packing
    consumed the join and the observer keeps a ledger (the METRICS
    leg), the join's pruning counters land in the open run's counters
    under ``phase1.``.
    """
    with maybe_span(observer, "phase1.similarity", cat="phase1"):
        stats = sparse_correlation_stats(seq)
    with maybe_span(observer, "phase1.packing", cat="phase1"):
        if plan is not None:
            plan_items = {d for p in plan.packages for d in p} | set(plan.singletons)
            if plan_items != set(seq.items):
                raise ValueError(
                    "externally supplied plan does not cover the sequence's items"
                )
            return stats, plan
        if packing == "pairs":
            plan = greedy_pair_packing(stats, theta)
        elif packing == "groups":
            plan = greedy_group_packing(stats, theta, max_group_size)
        else:
            raise ValueError(f"unknown packing mode {packing!r}")
    if observer is not None and observer.ledger:
        # pruning statistics of the threshold-aware similarity join
        for key, value in stats.join_counters(theta).items():
            observer.run.counters[f"phase1.{key}"] = value
    return stats, plan


def solve_dp_greedy(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    packing: str = "pairs",
    max_group_size: int = 3,
    build_schedules: bool = False,
    plan: Optional[PackingPlan] = None,
    workers: Optional[int] = None,
    memo: "object | bool | None" = None,
    resilience: "object | bool | None" = None,
    observer: "object | None" = None,
) -> DPGreedyResult:
    """Run the full two-phase DP_Greedy algorithm on ``seq``.

    Parameters
    ----------
    theta:
        Correlation threshold of Phase 1 (the paper uses 0.3 in Section VI).
    alpha:
        Discount factor of Table II (the paper uses 0.8 in Section VI).
    packing:
        ``"pairs"`` for the paper's Algorithm 1; ``"groups"`` enables the
        multi-item extension of the Remarks (min-linkage groups up to
        ``max_group_size``).
    plan:
        Optional externally-computed packing plan; when given, the
        packing step is skipped and the plan is served as-is (used by
        the robustness study, which plans on a *predicted* trajectory
        and serves the true one).  The plan's items must cover exactly
        ``seq``'s items.  The similarity join still runs, so
        ``result.stats`` is filled either way; only its pruning counters
        stay out of the run record, because no packing consumed them.
    workers / memo:
        Phase-2 execution-engine knobs
        (:func:`repro.engine.parallel.serve_plan`, which runs every
        solve).  ``workers=None`` (default) or ``1`` runs Phase 2
        serially in this process; ``workers=N >= 2`` runs it on an
        ``N``-process pool, capped at the number of units to solve.
        ``memo`` is a :class:`~repro.engine.memo.SolverMemo` shared
        across calls (or ``True`` for the process-wide default memo).
    resilience:
        Fault tolerance for Phase 2
        (:class:`~repro.engine.resilience.ResilienceConfig`, or ``True``
        for its defaults): per-dispatch timeouts, bounded retry with
        backoff, an ``on_unit_error`` policy (``raise``/``degrade``/
        ``skip``), and deterministic fault injection via the
        ``REPRO_CHAOS`` knob or an explicit
        :class:`~repro.engine.chaos.FaultPlan`.  ``None`` (default) runs
        the dispatcher with no retries, no timeout and no fault
        injection: a failing unit raises
        :class:`~repro.errors.UnitSolveError`, and a broken process pool
        degrades to serial.  Only a process pool enforces
        ``unit_timeout``.  Retry/timeout/fallback
        counters surface on ``engine_stats`` and as ``engine.*`` run
        counters.
    observer:
        Optional :class:`~repro.obs.observer.Observer` (``None`` picks
        up any process-wide observer installed via
        :func:`repro.obs.observer.install`, e.g. by the CLI's
        observation flags).  Phase 1 and Phase 2 run as spans; the
        engine adds memo-probe, dispatch and per-unit solve spans --
        including units solved inside pool workers -- as the
        observer's legs ask.  With the ledger leg every unit reports its
        cost attribution, and the solve appends one run record (whose
        ledger must reconcile with ``total_cost``) to
        ``observer.runs``.  Strictly observation-only: plans, costs and
        reports are bit-identical without it, apart from the
        ``attribution`` the ledger asks for.
    """
    return _solve(
        seq, model, theta=theta, alpha=alpha, packing=packing,
        max_group_size=max_group_size,
        build_schedules=build_schedules, plan=plan, workers=workers,
        memo=memo, resilience=resilience, observer=observer,
    )


def _solve(
    seq, model, *, theta, alpha, packing, max_group_size,
    build_schedules, plan, workers, memo, resilience, observer,
    shards=None, checkpoint=None,
) -> DPGreedyResult:
    """The driver body shared by :func:`solve_dp_greedy` and
    :func:`repro.engine.sharding.solve_dp_greedy_sharded`: Phase 1, then
    :func:`repro.engine.parallel.serve_plan`, inside one observed run."""
    from ..engine.memo import resolve_memo
    from ..engine.parallel import serve_plan
    from ..obs.observer import active

    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    # fail fast on corrupt inputs, with request indices in the message,
    # rather than deep inside a DP recurrence
    seq.validate()
    # time 0 is the initial placement instant, so every request must come
    # after it; times are non-negative and strictly increasing, so only
    # row 0 can sit there
    if len(seq) and seq.times_array[0] == 0.0:
        raise ValueError(
            f"request[0] (server {int(seq.servers_array[0])}, t=0.0): time is "
            "zero, the initial placement instant (DP_Greedy needs strictly "
            "positive times)"
        )
    if observer is None:
        observer = active()
    owned = observer is not None and observer.runtime and not observer.started
    metrics = observer is not None and observer.ledger
    if owned:
        observer.start()
    try:
        if metrics and observer.run is None:
            observer.begin_run()
        stats, plan = _run_phase1(
            seq, theta=theta, packing=packing, max_group_size=max_group_size,
            plan=plan, observer=observer,
        )
        memo_obj = resolve_memo(memo)
        with maybe_span(observer, "phase2.serve", cat="phase2") as span:
            reports, engine_stats = serve_plan(
                seq,
                plan,
                model,
                alpha,
                workers=workers,
                memo=memo_obj,
                build_schedules=build_schedules,
                resilience=resilience,
                observer=observer,
                shards=shards,
                checkpoint=checkpoint,
            )
            span.set("engine", engine_stats.pool)
        total = sum(r.total for r in reports)
        if metrics:
            observer.end_run(
                total, units=len(reports), engine_stats=engine_stats, memo=memo_obj
            )
        return DPGreedyResult(
            plan=plan,
            stats=stats,
            reports=tuple(reports),
            total_cost=total,
            denominator=seq.total_item_requests(),
            theta=theta,
            alpha=alpha,
            engine_stats=engine_stats,
        )
    finally:
        if metrics:
            observer.run = None  # a failed solve leaves no open run
        if owned:
            observer.stop()
