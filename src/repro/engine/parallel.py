"""The Phase-2 execution engine: the one driver of Phase 2.

Phase 2 of DP_Greedy serves every *serving unit* (a package or a
singleton, each the sorted tuple of its item ids) over its own disjoint
sub-sequence -- the units share no state, so the phase is
embarrassingly parallel by construction.  :func:`serve_plan`
is the only Phase-2 driver: it runs Observation 2 for every package in
one pass in the parent (:func:`~repro.core.dp_greedy.single_sided_pass`,
which builds the sequence's same-server index before any worker
starts), probes the content-addressed
:class:`~repro.engine.memo.SolverMemo`, groups the memo misses into
dispatches, and hands those, with the solve's reporter recipe, to
:func:`repro.engine.resilience.dispatch_resilient`, the only code that
runs the units' DPs (serially, or on a process pool).  Each unit's
report is built once, where its DP runs
(:func:`~repro.core.dp_greedy._unit_reporter`), a package's with its
Observation-2 fields already in.

Pool selection
--------------
Serial unless asked: ``workers=None`` or ``workers=1`` runs the serial
rung in the parent, unit by unit in plan order, at every workload size
-- on a 2-core box a 2-process pool beat it only above about 200,000
requests (``docs/engine.md``).
``workers=N`` with ``N >= 2`` is an ``N``-process pool (fork when
available), capped at the number of pending units.

Grouping
--------
Every memo miss is its own dispatch unless a pool has more than
:data:`GROUPS_PER_WORKER` x ``workers`` of them: then it dispatches
that many groups of units, balanced longest-processing-time first by
carried request count (a package is one unit, never split), because
one future per unit costs more than most units' solves.  A sharded
solve (:mod:`repro.engine.sharding`) asks for its ``shards`` groups
instead, on every rung; only these two partitions pay for the sizes
and the LPT placement.  A one-unit group travels as the bare unit: same
label, same chaos draw, same error message.  Retries, timeouts, the
finite-cost audit and ``on_unit_error`` apply per dispatch.

Determinism guarantee
---------------------
Every serve function is pure and each dispatch's reports are put back
at their units' plan-order indices, so the report list is identical --
including float bit patterns -- across serial and process execution,
any ``workers`` value, and any grouping.  Memoisation
preserves this too: a memo hit returns the exact float the solver
produced when the entry was stored, and the miss path stores whatever
the real solver returned.

Memoisation
-----------
Memo lookups happen in the parent *before* dispatch, so hits never pay
pool overhead; only misses fan out.  Keys fingerprint the solver input
(trajectory + rates + rate multiplier), hence sweeps that vary only
``theta``/``alpha`` re-use every singleton sub-solution (singleton DP
inputs do not depend on either knob).  Hit/miss counters are surfaced
per call through :class:`EngineStats`.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.model import CostModel, RequestSequence, package_rate
from ..correlation.packing import PackingPlan
from ..core.dp_greedy import (
    MODE_CACHE,
    MODE_PACKAGE,
    MODE_TRANSFER,
    GroupReport,
    SingleSidedFields,
    SingleSidedPass,
    _unit_report,
    _unit_reporter,
    single_sided_pass,
)
from ..obs.ledger import MODE_ACTIONS, CostLedger, action_codes
from ..obs.observer import Observer, maybe_span
from .memo import SolverMemo, fingerprint_view
from .resilience import NO_RETRY, ResilienceConfig, _Unit, _unit_label, dispatch_resilient

__all__ = [
    "GROUPS_PER_WORKER",
    "EngineStats",
    "serve_plan",
]

#: A pool dispatches at most this many groups of units per worker.
GROUPS_PER_WORKER = 4


@dataclass(frozen=True)
class EngineStats:
    """Observability record of one :func:`serve_plan` call.

    The retry/timeout/fallback counters come from the resilient
    dispatcher (:mod:`repro.engine.resilience`), ``units_failed`` counts
    the units it skipped, and all four stay zero on a fault-free run;
    ``pool`` always records the backend ``workers`` picked -- pool
    degradation is visible through ``pool_fallbacks``.
    """

    units: int
    packages: int
    singletons: int
    workers: int
    pool: str  # "serial" | "process"
    dispatched: int  # units actually sent to the dispatcher (memo misses)
    memo_hits: int
    memo_misses: int
    retries: int = 0  # re-dispatches after failures/timeouts
    timeouts: int = 0  # per-dispatch deadline expiries
    pool_fallbacks: int = 0  # degradation-ladder steps taken
    units_failed: int = 0  # units dropped under on_unit_error="skip"
    stalls: int = 0  # dispatches flagged silent by the stall watchdog
    shards: int = 0  # shard dispatches of a sharded solve (0 = unsharded)

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


def _plan_units(plan: PackingPlan) -> List[_Unit]:
    """Serving units in plan order: packages, then singletons."""
    return [tuple(sorted(p)) for p in plan.packages] + [
        (d,) for d in plan.singletons
    ]


#: Per-package Observation-2 fields, keyed by the package's unit tuple.
_SingleSided = Dict[_Unit, SingleSidedFields]


# ---------------------------------------------------------------------------
# parent-side memo integration
# ---------------------------------------------------------------------------
def _memo_probe(
    seq: RequestSequence,
    unit: _Unit,
    model: CostModel,
    alpha: float,
    memo: SolverMemo,
    single_sided: _SingleSided,
    attribute: bool = False,
) -> Tuple[Optional[GroupReport], Optional[bytes]]:
    """Try to serve one unit's DP from the memo.

    Returns ``(report, None)`` on a hit -- the unit's report, with a
    package's Observation-2 fields from ``single_sided`` -- and
    ``(None, key)`` on a miss; the key is re-used after the real solve
    to store the DP cost.  Under ``attribute=True`` only entries
    carrying a ledger attribution count as hits (the memo stores cost
    and attribution together).
    """
    view = seq.group_view(unit)  # the cached columnar projection
    key = fingerprint_view(view, model, package_rate(len(unit), alpha))
    entry = memo.get(key, with_attribution=attribute)
    if entry is None:
        return None, key
    cost, attribution = entry if attribute else (entry, None)
    return _unit_report(unit, cost, len(view), single_sided, None, attribution), None


def _unit_sizes(seq: RequestSequence, units: Sequence[_Unit]) -> List[int]:
    """Carried-request count per unit (the grouping size estimate),
    served from the sequence's cached per-item projections."""
    counts = Counter(seq.item_counts())  # 0 for an item the trace lacks
    return [sum(map(counts.__getitem__, unit)) for unit in units]


def _lpt_partition(sizes: Sequence[int], shards: int) -> List[List[int]]:
    """Longest-processing-time partition of unit indices into at most
    ``shards`` balanced groups.

    Deterministic: units are placed largest-first (ties by index) onto
    the least-loaded group (ties by group number), and each group is
    returned in ascending unit-index order -- i.e. plan order -- so a
    group serves its units in the same relative order as the serial
    rung.  Empty groups are dropped.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    groups: List[List[int]] = [[] for _ in range(shards)]
    place = [g.append for g in groups]
    heap = [(0, j) for j in range(shards)]
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    # a stable sort of the negated sizes: largest first, ties by index
    order = np.argsort(-sizes, kind="stable")
    # empty units still cost a dispatch slot: weigh them as 1
    weights = np.maximum(sizes, 1)[order].tolist()
    replace = heapq.heapreplace
    for i, weight in zip(order.tolist(), weights):
        load, j = heap[0]
        place[j](i)
        replace(heap, (load + weight, j))
    return [sorted(g) for g in groups if g]


def _resolve_backend(workers: Optional[int], pending_units: int) -> Tuple[int, str]:
    """``(workers, pool_kind)``: serial unless ``workers >= 2`` asks for a
    process pool, whose width is capped at the pending unit count."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers or 1, max(pending_units, 1))
    return (workers, "process") if workers > 1 else (1, "serial")


# ---------------------------------------------------------------------------
# checkpoint (de)serialisation: GroupReports <-> JSON payloads
# ---------------------------------------------------------------------------
def _report_to_json(report: GroupReport) -> dict:
    """JSON-safe encoding of a cost-only :class:`GroupReport`'s DP
    result; :func:`_report_from_json` takes the Observation-2 fields
    from the resumed solve's own pass.

    Floats survive exactly (JSON emits the shortest round-tripping
    decimal), so a resumed solve reproduces the original total bit for
    bit.  Schedules are not serialised -- the sharded driver is
    cost-only, matching the memo's contract.
    """
    return {
        "group": sorted(int(d) for d in report.group),
        "package_cost": report.package_cost,
        "num_cooccurrence": report.num_cooccurrence,
        "attribution": (
            None
            if report.attribution is None
            else [[k, a, c] for k, a, c in report.attribution]
        ),
    }


def _report_from_json(payload: dict, single_sided: _SingleSided) -> GroupReport:
    attribution = payload.get("attribution")
    return _unit_report(
        tuple(int(d) for d in payload["group"]),
        float(payload["package_cost"]),
        int(payload["num_cooccurrence"]),
        single_sided,
        None,
        None
        if attribution is None
        else tuple((int(k), str(a), float(c)) for k, a, c in attribution),
    )


#: Observation-2 mode index (cache, transfer, package) -> ledger action code
_MODE_CODES = action_codes(
    MODE_ACTIONS[m] for m in (MODE_CACHE, MODE_TRANSFER, MODE_PACKAGE)
)


def _charge(
    ledger: CostLedger,
    seq: RequestSequence,
    units: Sequence[_Unit],
    reports: Sequence[Optional[GroupReport]],
    single_sided: SingleSidedPass,
) -> None:
    """Record a solve's charges in ``ledger`` at their request positions:
    each unit's DP attribution at the unit's own rows, each package's
    single-sided decisions at the rows the Observation-2 pass decided
    them on.  Skipped units charge nothing."""
    kept = [i for i, r in enumerate(reports) if r is not None]
    slot = np.full(len(units), -1)
    slot[kept] = np.arange(len(kept))
    # units are planned packages first: package p's decisions are unit p's
    counts = np.diff(single_sided.offsets)
    owner = slot[np.repeat(np.arange(len(counts)), counts)]
    live = owner >= 0
    unit_of, positions = [owner[live]], [single_sided.positions[live]]
    actions, amounts = [_MODE_CODES[single_sided.modes[live]]], [single_sided.costs[live]]
    for j, i in enumerate(kept):
        if reports[i].attribution:
            k, action, amount = zip(*reports[i].attribution)
            unit_of.append(np.full(len(k), j))
            positions.append(seq.group_view(units[i]).rows[list(k)])
            actions.append(action_codes(action))
            amounts.append(amount)
    ledger.extend(
        [reports[i].group for i in kept],
        *(np.concatenate(col) for col in (unit_of, positions, actions, amounts)),
    )


def serve_plan(
    seq: RequestSequence,
    plan: PackingPlan,
    model: CostModel,
    alpha: float,
    *,
    workers: Optional[int] = None,
    memo: Optional[SolverMemo] = None,
    build_schedules: bool = False,
    resilience: "object | bool | None" = None,
    observer: Optional[Observer] = None,
    shards: Optional[int] = None,
    checkpoint: "object | None" = None,
) -> Tuple[List[GroupReport], EngineStats]:
    """Serve every unit of ``plan``; return reports in plan order.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` runs the serial rung in the parent; ``N >= 2``
        runs an ``N``-process pool, capped at the pending unit count.
    memo:
        Optional :class:`SolverMemo`.  Hits are served in the parent;
        only misses are dispatched, and their DP costs are stored back.
        Ignored when ``build_schedules=True`` (schedules are not cached).
    resilience:
        The dispatcher's :class:`~repro.engine.resilience.ResilienceConfig`
        (``True`` for its defaults): per-dispatch timeouts, bounded
        retry with backoff, an ``on_unit_error`` policy, and
        deterministic fault injection.  ``None``/``False`` (default)
        is :data:`~repro.engine.resilience.NO_RETRY`: no retries, no
        timeout, no fault injection -- a failing unit raises
        :class:`~repro.errors.UnitSolveError` -- while a broken pool
        still degrades to serial.
    observer:
        Optional :class:`~repro.obs.observer.Observer`.  The
        Observation-2 pass runs as a ``phase2.single_sided`` span and
        the dispatch as an ``engine.dispatch`` span; with ``spans``
        memo probes are ``engine.memo_probe`` spans with a
        ``memo=hit|miss`` attribute, and every per-unit DP is a
        ``phase2.solve`` span -- including solves inside process
        workers (distinct ``pid``; their observations ship back with
        the results).  With ``runtime`` the
        dispatch feeds its latency histograms and progress board.  With
        ``ledger`` every unit reports its cost attribution (memo
        entries then store cost and attribution together, and only
        entries carrying one count as hits), and the open run's ledger
        receives every charge at its request position.  ``None`` leaves
        the hot path untouched.
    shards / checkpoint:
        Set by :func:`~repro.engine.sharding.solve_dp_greedy_sharded`:
        group the memo misses into ``shards`` balanced shards on every
        rung (``EngineStats.shards`` counts them), and replay/record each
        shard's reports through a
        :class:`~repro.experiments.base.SweepCheckpoint`.
    """
    config = ResilienceConfig.coerce(resilience) or NO_RETRY
    attribute = observer is not None and observer.ledger
    probe_spans = observer if observer is not None and observer.spans else None
    units = _plan_units(plan)
    use_memo = memo is not None and not build_schedules

    # Observation 2 for every package in one pass, in the parent and
    # before any dispatch: the pass builds the sequence's same-server
    # index, which fork workers then inherit, and each package's report
    # is built once, by whoever prices its DP, with these fields in
    with maybe_span(
        observer, "phase2.single_sided", cat="phase2", packages=len(plan.packages)
    ) as span:
        single_sided = single_sided_pass(seq, plan.packages, model, alpha)
        span.set("decisions", single_sided.offsets[-1])
    # units are planned packages first: package p is unit p
    fields = dict(zip(units, single_sided.fields()))
    # the dispatcher builds the reporter from this, once in the parent
    # and once in each pool worker
    recipe = functools.partial(
        _unit_reporter, seq, model, alpha, fields,
        build_schedule=build_schedules, attribute=attribute,
    )

    reports: List[Optional[GroupReport]] = [None] * len(units)
    pending: List[int] = []
    miss_keys: Dict[int, bytes] = {}
    hits = 0
    if use_memo:
        for idx, unit in enumerate(units):
            with maybe_span(
                probe_spans, "engine.memo_probe", cat="engine", unit=_unit_label(unit)
            ) as span:
                report, key = _memo_probe(
                    seq, unit, model, alpha, memo, fields, attribute
                )
                span.set("memo", "hit" if report is not None else "miss")
            if report is not None:
                reports[idx] = report
                hits += 1
            else:
                pending.append(idx)
                miss_keys[idx] = key
    else:
        pending = list(range(len(units)))

    # -- group the memo misses into dispatches: one unit each, in plan
    # order, unless the solve is sharded or a pool has more units than
    # its dispatch cap, which take the LPT partition --------------------
    parts = shards
    if shards is None:
        workers_used, kind = _resolve_backend(workers, len(pending))
        cap = GROUPS_PER_WORKER * workers_used
        if kind != "serial" and len(pending) > cap:
            parts = cap
    if parts is None:
        groups = [(i,) for i in pending]
        grouped = [(units[i],) for i in pending]
    else:
        sizes = _unit_sizes(seq, [units[i] for i in pending])
        groups = [tuple(pending[j] for j in g) for g in _lpt_partition(sizes, parts)]
        grouped = [tuple(map(units.__getitem__, group)) for group in groups]

    # -- checkpoint: replay completed shards, record new ones --------------
    resolved: Dict[int, Tuple[GroupReport, ...]] = {}
    points: List[dict] = []
    if checkpoint is not None:
        points = [
            {"shard": pos, "units": [_unit_label(units[i]) for i in group]}
            for pos, group in enumerate(groups)
        ]
        for pos, point in enumerate(points):
            payload = checkpoint.get(point)
            if payload is not None:
                resolved[pos] = tuple(
                    _report_from_json(r, fields) for r in payload["reports"]
                )
    dispatch = {pos: g for pos, g in enumerate(grouped) if pos not in resolved}
    if shards is not None:
        workers_used, kind = _resolve_backend(workers, len(dispatch))

    def on_result(pos: int, group_reports: Tuple[GroupReport, ...]) -> None:
        checkpoint.record(
            points[pos], {"reports": [_report_to_json(r) for r in group_reports]}
        )

    board = observer.board if observer is not None else None
    stalls_before = board.stalls if board is not None else 0
    with maybe_span(
        observer,
        "engine.dispatch",
        cat="engine",
        pool=kind,
        workers=workers_used,
        dispatched=len(pending),
        groups=len(dispatch),
    ):
        results, counters = dispatch_resilient(
            workers=workers_used,
            recipe=recipe,
            units=dispatch,
            config=config,
            on_result=on_result if checkpoint is not None else None,
            observer=observer,
        )
    resolved.update(results)

    # -- put each dispatch's reports back at their plan-order indices ------
    for pos, group in enumerate(groups):
        for idx, report in zip(group, resolved.get(pos, ())):
            reports[idx] = report
    if attribute and observer.run is not None:
        _charge(observer.run.ledger, seq, units, reports, single_sided)

    if use_memo:
        for idx in pending:
            if reports[idx] is None:  # unit skipped by the dispatcher
                continue
            memo.put(
                miss_keys[idx],
                reports[idx].package_cost,
                attribution=reports[idx].attribution if attribute else None,
            )

    served = [r for r in reports if r is not None]
    stats = EngineStats(
        units=len(units),
        packages=len(plan.packages),
        singletons=len(plan.singletons),
        workers=workers_used,
        pool=kind,
        dispatched=len(pending),
        memo_hits=hits,
        memo_misses=len(pending) if use_memo else 0,
        retries=counters.retries,
        timeouts=counters.timeouts,
        pool_fallbacks=counters.pool_fallbacks,
        units_failed=len(units) - len(served),  # skipped by the dispatcher
        stalls=(board.stalls - stalls_before) if board is not None else 0,
        shards=len(groups) if shards is not None else 0,
    )
    return served, stats
