"""DP_Greedy: the paper's two-phase caching algorithm (Algorithm 1).

Phase 1 (:mod:`repro.correlation`) scans the off-line request sequence,
computes the pairwise Jaccard similarities, and greedily packs disjoint
item pairs whose similarity exceeds the threshold ``theta``.

Phase 2 serves each serving unit:

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

The reported metric is ``ave_cost`` -- the total cost divided by
``|d_1| + ... + |d_k|`` (Algorithm 1, line 50).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.model import (
    CostModel,
    Request,
    RequestSequence,
    SingleItemView,
    package_rate,
)
from ..cache.optimal_dp import attribute_cost, optimal_cost, solve_optimal
from ..cache.schedule import Schedule
from ..obs.tracing import maybe_span
from ..correlation.jaccard import (
    CorrelationStats,
    SparseCorrelationStats,
    correlation_stats,
)
from ..correlation.packing import (
    PackingPlan,
    greedy_group_packing,
    greedy_pair_packing,
)

__all__ = [
    "GroupReport",
    "SingleSidedDecision",
    "single_sided_decisions",
    "DPGreedyResult",
    "solve_dp_greedy",
    "serve_package",
    "serve_singleton",
]

#: Serving modes of single-sided package requests (Observation 2).
MODE_CACHE, MODE_TRANSFER, MODE_PACKAGE = "cache", "transfer", "package"


def _null_timer(name: str):
    """Stand-in for ``obs.timers.time`` when observability is off."""
    return nullcontext()


@dataclass(frozen=True)
class GroupReport:
    """Cost breakdown for one serving unit (package or singleton).

    ``package_cost`` is the DP cost of the co-occurrence nodes at package
    rates (for singletons, the full optimal cost of the item).
    ``single_sided_cost`` is the greedy total over one-item nodes of a
    package (zero for singletons).  ``modes`` records, per single-sided
    node in time order, which Observation-2 option won.

    ``attribution`` (opt-in, ``attribute=True`` on the serve functions)
    decomposes ``package_cost`` into per-request ``(time, action,
    amount)`` ledger charges via
    :func:`repro.cache.optimal_dp.attribute_cost`; together with
    ``modes`` it accounts for every unit of ``total`` (the cost ledger
    of :mod:`repro.obs` consumes both).
    """

    group: FrozenSet[int]
    package_cost: float
    single_sided_cost: float
    num_cooccurrence: int
    num_single_sided: int
    modes: Tuple[Tuple[float, str, float], ...]  # (time, mode, cost)
    package_schedule: Optional[Schedule] = None
    attribution: Optional[Tuple[Tuple[float, str, float], ...]] = None

    @property
    def total(self) -> float:
        return self.package_cost + self.single_sided_cost


@dataclass(frozen=True)
class DPGreedyResult:
    """Full outcome of DP_Greedy on a request sequence.

    ``engine_stats`` is populated only when Phase 2 ran through the
    parallel execution engine (``parallel=``/``workers=``/``memo=`` of
    :func:`solve_dp_greedy`); it records pool choice, worker count, and
    memo hit/miss counters for observability.
    """

    plan: PackingPlan
    stats: "CorrelationStats | SparseCorrelationStats"
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


def _solve_unit(
    view: "RequestSequence | SingleItemView",
    model: CostModel,
    rate: float,
    *,
    build_schedule: bool,
    attribute: bool,
) -> Tuple[float, Optional[Schedule], Optional[Tuple[Tuple[float, str, float], ...]]]:
    """``(cost, schedule, attribution)`` of one unit's DP at ``rate``.

    A unit that reports neither a schedule nor an attribution is priced
    by :func:`~repro.cache.optimal_dp.optimal_cost`: the same recurrence
    with ``O(m)`` live state and no per-event decision history to
    backtrack, bit-identical to ``solve_optimal(...).cost``.
    """
    if not build_schedule and not attribute:
        return optimal_cost(view, model, rate_multiplier=rate), None, None
    res = solve_optimal(
        view, model, build_schedule=build_schedule, rate_multiplier=rate
    )
    attribution = (
        attribute_cost(view, model, res, rate_multiplier=rate) if attribute else None
    )
    return res.cost, res.schedule, attribution


def serve_singleton(
    seq: RequestSequence,
    item: int,
    model: CostModel,
    *,
    build_schedule: bool = False,
    sub: "RequestSequence | SingleItemView | None" = None,
    dp_cost: Optional[float] = None,
    dp_attribution: Optional[Tuple[Tuple[float, str, float], ...]] = None,
    attribute: bool = False,
) -> GroupReport:
    """Serve one unpacked item with the optimal off-line algorithm.

    By default the item's trajectory comes from the sequence's cached
    columnar projection (:meth:`~repro.cache.model.RequestSequence.item_view`),
    so repeated serves stop re-scanning ``requests``.  ``sub`` lets
    callers that already hold the restriction (a projected sequence or a
    view) inject it; ``dp_cost`` injects a memoised solver result so the
    DP is skipped entirely (cost-only mode: the two are mutually
    exclusive with ``build_schedule=True``).  ``attribute`` additionally
    decomposes the DP cost into per-request ledger charges (with
    ``dp_cost`` injection the matching ``dp_attribution`` must be
    supplied -- the memo stores both together).  Without a schedule or
    an attribution to report, the DP runs cost-only (no decision path).
    """
    if sub is None:
        sub = seq.item_view(item)
    if dp_cost is not None:
        if build_schedule:
            raise ValueError("dp_cost injection is cost-only")
        if attribute and dp_attribution is None:
            raise ValueError(
                "attribution requested but the injected dp_cost carries none"
            )
        cost, schedule = dp_cost, None
        attribution = dp_attribution if attribute else None
    else:
        cost, schedule, attribution = _solve_unit(
            sub,
            model,
            1.0,
            build_schedule=build_schedule,
            attribute=attribute,
        )
    return GroupReport(
        group=frozenset((item,)),
        package_cost=cost,
        single_sided_cost=0.0,
        num_cooccurrence=len(sub),
        num_single_sided=0,
        modes=(),
        package_schedule=schedule,
        attribution=attribution,
    )


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


def single_sided_decisions(
    seq: RequestSequence,
    package: FrozenSet[int],
    model: CostModel,
    alpha: float,
):
    """Yield the Observation-2 greedy decisions for ``package``'s
    single-sided requests, in time order.

    The virtual origin node carries every item; package nodes update the
    per-item source bookkeeping but are not charged here (they belong to
    the package DP).

    The walk visits only the rows carrying a package item -- the sorted
    union of the members' cached
    :meth:`~repro.cache.model.RequestSequence.item_indices`, with servers
    and times read from the sequence's columns and each row's members
    from the same index arrays -- so one package costs ``O(package
    rows)``, not a rescan of the whole trace, on in-memory and
    store-backed sequences alike.
    """
    mu, lam = model.mu, model.lam
    ship_cost = package_rate(len(package), alpha) * lam
    members = sorted(package)
    chunks = [seq.item_indices(d) for d in members]
    rows = np.unique(np.concatenate(chunks))
    carried = np.zeros((len(rows), len(members)), dtype=bool)
    for col, idx in enumerate(chunks):
        carried[np.searchsorted(rows, idx), col] = True

    last_any: Dict[int, Tuple[int, float]] = {}
    last_same: Dict[Tuple[int, int], float] = {}
    origin = seq.origin
    for d in members:
        last_any[d] = (origin, 0.0)
        last_same[(d, origin)] = 0.0

    for server, t, full, flags in zip(
        seq.servers_array[rows].tolist(),
        seq.times_array[rows].tolist(),
        carried.all(axis=1).tolist(),
        carried.tolist(),
    ):
        if full:
            for d in members:
                last_any[d] = (server, t)
                last_same[(d, server)] = t
            continue
        for d, has in zip(members, flags):  # strict subset of the package
            if not has:
                continue
            t_p = last_same.get((d, server))
            cache_cost = mu * (t - t_p) if t_p is not None else float("inf")
            prev = last_any[d]
            transfer_cost = mu * (t - prev[1]) + lam
            best = min(cache_cost, transfer_cost, ship_cost)
            if best == cache_cost:
                mode = MODE_CACHE
            elif best == transfer_cost:
                mode = MODE_TRANSFER
            else:
                mode = MODE_PACKAGE
            yield SingleSidedDecision(
                item=d,
                server=server,
                time=t,
                mode=mode,
                cost=best,
                prev_same_time=t_p,
                prev_any=prev,
            )
            last_any[d] = (server, t)
            last_same[(d, server)] = t


def serve_package(
    seq: RequestSequence,
    package: FrozenSet[int],
    model: CostModel,
    alpha: float,
    *,
    build_schedule: bool = False,
    dp_cost: Optional[float] = None,
    dp_attribution: Optional[Tuple[Tuple[float, str, float], ...]] = None,
    attribute: bool = False,
    co_view: "RequestSequence | SingleItemView | None" = None,
) -> GroupReport:
    """Serve one package per Phase 2 of Algorithm 1.

    Works for packages of any size ``k >= 2`` (the paper's Remarks
    extension): co-occurrence nodes are requests containing *all* items of
    the package, served at rate ``alpha * k``; nodes carrying a strict
    non-empty subset are served greedily per item with the package-ship
    option costing ``alpha * k * lam``.

    ``dp_cost`` injects a memoised co-occurrence DP result (cost-only:
    incompatible with ``build_schedule=True``); without a schedule or an
    attribution to report, the DP runs cost-only (no decision path).
    The single-sided greedy pass always runs: it carries the per-node
    mode ledger and costs ``O(rows carrying a package item)``, a walk
    over the members' cached index arrays
    (:func:`single_sided_decisions`).  ``attribute`` decomposes the
    co-occurrence DP cost into per-request
    ledger charges at package rate (the single-sided charges are already
    carried by ``modes``); with ``dp_cost`` injection the matching
    ``dp_attribution`` must be supplied.  ``co_view`` lets callers that
    already restricted the sequence to the package's co-occurrence nodes
    (the execution engine restricts once to fingerprint the sub-problem)
    inject the restriction -- a projected :class:`RequestSequence` or a
    bare :class:`SingleItemView`; by default the trajectory comes from
    the sequence's cached columnar projection
    (:meth:`~repro.cache.model.RequestSequence.group_view`).
    """
    k = len(package)
    if k < 2:
        raise ValueError("a package needs at least two items")
    rate = package_rate(k, alpha)

    if co_view is None:
        co_view = seq.group_view(package)
    if dp_cost is not None:
        if build_schedule:
            raise ValueError("dp_cost injection is cost-only")
        if attribute and dp_attribution is None:
            raise ValueError(
                "attribution requested but the injected dp_cost carries none"
            )
        dp_total, dp_schedule = dp_cost, None
        attribution = dp_attribution if attribute else None
    else:
        # The package is one pseudo-item: project the co-occurrence nodes
        # to a bare (server, time) trajectory and run the optimal DP at
        # package rate.
        if isinstance(co_view, SingleItemView):
            pseudo = co_view
        else:
            pseudo = SingleItemView(
                servers=co_view.servers,
                times=co_view.times,
                num_servers=co_view.num_servers,
                origin=co_view.origin,
            )
        dp_total, dp_schedule, attribution = _solve_unit(
            pseudo,
            model,
            rate,
            build_schedule=build_schedule,
            attribute=attribute,
        )

    # --- greedy pass over partial nodes (Observation 2) ----------------
    single_cost = 0.0
    modes: List[Tuple[float, str, float]] = []
    partial_times = set()
    for dec in single_sided_decisions(seq, package, model, alpha):
        single_cost += dec.cost
        modes.append((dec.time, dec.mode, dec.cost))
        partial_times.add(dec.time)
    n_partial = len(partial_times)

    return GroupReport(
        group=package,
        package_cost=dp_total,
        single_sided_cost=single_cost,
        num_cooccurrence=len(co_view),
        num_single_sided=n_partial,
        modes=tuple(modes),
        package_schedule=dp_schedule,
        attribution=attribution,
    )


def _run_phase1(
    seq: RequestSequence,
    *,
    theta: float,
    packing: str,
    max_group_size: int,
    similarity: str,
    plan: Optional[PackingPlan],
    obs: "object | None",
    tracer: "object | None",
) -> Tuple["CorrelationStats | SparseCorrelationStats", PackingPlan]:
    """Phase 1 of every solve driver: ``(stats, plan)`` for ``seq``.

    Runs the similarity join, then packs (``"pairs"`` or ``"groups"``)
    -- or, given a ``plan``, checks that it covers exactly ``seq``'s
    items and returns it as-is.  The join runs either way, so the
    result's ``stats`` is always filled (and the benchmark's
    ``phase2_ms`` subtracts the join's time from a planned solve).
    With ``obs`` both steps are timed into ``obs.timers`` and, when the
    packing consumed the join, its pruning counters land in
    ``obs.counters`` under ``phase1.``.
    """
    timed = obs.timers.time if obs is not None else _null_timer
    with timed("phase1.similarity"), maybe_span(
        tracer, "phase1.similarity", cat="phase1", backend=similarity
    ):
        stats = correlation_stats(seq, backend=similarity)
    ran_join = plan is None
    with timed("phase1.packing"), maybe_span(
        tracer, "phase1.packing", cat="phase1"
    ):
        if plan is not None:
            plan_items = {d for p in plan.packages for d in p} | set(plan.singletons)
            if plan_items != set(seq.items):
                raise ValueError(
                    "externally supplied plan does not cover the sequence's items"
                )
        elif packing == "pairs":
            plan = greedy_pair_packing(stats, theta)
        elif packing == "groups":
            plan = greedy_group_packing(stats, theta, max_group_size)
        else:
            raise ValueError(f"unknown packing mode {packing!r}")
    if obs is not None and ran_join:
        # pruning statistics of the threshold-aware similarity join
        obs.counters.absorb(stats.join_counters(theta), prefix="phase1.")
        obs.counters.set("phase1.similarity_backend", similarity)
    return stats, plan


def solve_dp_greedy(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    packing: str = "pairs",
    max_group_size: int = 3,
    similarity: str = "sparse",
    build_schedules: bool = False,
    plan: Optional[PackingPlan] = None,
    parallel: bool = False,
    workers: Optional[int] = None,
    memo: "object | bool | None" = None,
    pool: Optional[str] = None,
    obs: "object | None" = None,
    tracer: "object | None" = None,
    resilience: "object | bool | None" = None,
    telemetry: "object | None" = None,
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
    similarity:
        Phase-1 join backend.  ``"sparse"`` (default) builds co-occurrence
        from an inverted index over the requests and feeds packing only
        threshold-surviving candidate pairs (``O(sum |D_i|^2)``, catalog-
        width independent); ``"dense"`` is the historical incidence-matrix
        BLAS pass kept as a cross-check.  Both produce bit-identical
        similarities, pair order, plans, and costs.
    plan:
        Optional externally-computed packing plan; when given, the
        packing step is skipped and the plan is served as-is (used by
        the robustness study, which plans on a *predicted* trajectory
        and serves the true one).  The plan's items must cover exactly
        ``seq``'s items.  The similarity join still runs, so
        ``result.stats`` is filled either way; only its pruning counters
        stay out of ``obs``, because no packing consumed them.
    parallel / workers / memo / pool:
        Opt-in to the Phase-2 execution engine
        (:func:`repro.engine.parallel.serve_plan`).  ``parallel=True``
        auto-detects the pool from the workload; ``workers`` pins the
        pool width (``workers=1`` reproduces the serial loop
        bit-for-bit); ``memo`` is a
        :class:`~repro.engine.memo.SolverMemo` shared across calls (or
        ``True`` for the process-wide default memo); ``pool`` forces a
        backend (``"serial"``/``"thread"``/``"process"``) instead of the
        size heuristic.  With all four at their defaults the classic
        serial path runs untouched.
    obs:
        Optional :class:`~repro.obs.RunObservation`.  When given, Phase-1
        and Phase-2 wall times are accumulated in ``obs.timers``, every
        serving unit is asked for its per-request cost attribution, the
        resulting ledger is reconciled against ``total_cost`` (raising
        :class:`~repro.obs.LedgerReconciliationError` on any gap), and
        engine/memo counters are absorbed into ``obs.counters``.  With
        ``obs=None`` (default) no attribution work happens at all.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  Phase 1 and
        Phase 2 are recorded as nested spans, the execution engine adds
        memo-probe (hit/miss attributed), pool-dispatch, and per-unit
        solve spans -- including spans captured *inside* thread/process
        pool workers -- and, when ``obs`` is also given, the run's span
        aggregates land in the metrics snapshot's ``spans`` section.
        Export with ``tracer.write(path)`` (Chrome trace-event JSON).
        With ``tracer=None`` (default) no spans are recorded.
    resilience:
        Opt-in fault tolerance for Phase 2
        (:class:`~repro.engine.resilience.ResilienceConfig`, or ``True``
        for the defaults): per-unit timeouts, bounded retry with
        backoff, pool degradation on broken process pools, an
        ``on_unit_error`` policy (``raise``/``degrade``/``skip``), and
        deterministic fault injection via the ``REPRO_CHAOS`` knob or an
        explicit :class:`~repro.engine.chaos.FaultPlan`.  Implies the
        execution engine; retry/timeout/fallback counters surface on
        ``engine_stats`` and (with ``obs=``) as ``engine.*`` metrics
        counters.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub (``None``
        picks up any process-wide hub installed via
        :func:`repro.obs.telemetry.install`, e.g. by the CLI's
        ``--progress``/``--prom`` flags).  Per-unit Phase-2 solve
        latencies land in its log-bucket histograms (p50/p90/p99 in
        METRICS v3), unit completions in its progress board, and -- on
        the engine paths -- pool workers ship resource peaks back.  An
        un-started hub is started for the duration of this solve; a
        started one is left running.  Strictly observation-only: costs,
        plans, and reports are bit-identical with or without it.
    """
    from ..obs.telemetry import H_SOLVE, active as _active_telemetry

    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    # fail fast on corrupt inputs, with request indices in the message,
    # rather than deep inside a DP recurrence
    seq.validate()
    observe = obs is not None
    timed = obs.timers.time if observe else _null_timer
    span_mark = tracer.mark() if tracer is not None else 0
    tele = telemetry if telemetry is not None else _active_telemetry()
    tele_owned = tele is not None and not tele.started
    if tele_owned:
        tele.start()
    if tele is not None:
        tele.begin_run()
    try:
        return _solve_dp_greedy_observed(
            seq, model, theta=theta, alpha=alpha, packing=packing,
            max_group_size=max_group_size, similarity=similarity,
            build_schedules=build_schedules, plan=plan, parallel=parallel,
            workers=workers, memo=memo, pool=pool, obs=obs, tracer=tracer,
            resilience=resilience, tele=tele,
            observe=observe, timed=timed, span_mark=span_mark,
            h_solve=H_SOLVE,
        )
    finally:
        if tele_owned:
            tele.stop()


def _solve_dp_greedy_observed(
    seq, model, *, theta, alpha, packing, max_group_size, similarity,
    build_schedules, plan, parallel, workers, memo, pool, obs, tracer,
    resilience, tele, observe, timed, span_mark, h_solve,
) -> DPGreedyResult:
    """The body of :func:`solve_dp_greedy`, inside the telemetry window."""
    from ..engine.memo import resolve_memo

    stats, plan = _run_phase1(
        seq, theta=theta, packing=packing, max_group_size=max_group_size,
        similarity=similarity, plan=plan, obs=obs, tracer=tracer,
    )
    memo_obj = resolve_memo(memo)
    engine_stats = None
    use_engine = (
        parallel
        or workers is not None
        or pool is not None
        or memo_obj is not None
        or resilience not in (None, False)
    )
    if use_engine:
        from ..engine.parallel import serve_plan

        with timed("phase2.serve"), maybe_span(
            tracer, "phase2.serve", cat="phase2", engine="pool"
        ):
            reports, engine_stats = serve_plan(
                seq,
                plan,
                model,
                alpha,
                workers=workers,
                memo=memo_obj,
                build_schedules=build_schedules,
                pool=pool,
                attribute=observe,
                tracer=tracer,
                resilience=resilience,
                telemetry=tele,
            )
    else:
        reports = []
        if tele is not None:
            tele.board.begin(len(plan.packages) + len(plan.singletons))
        with maybe_span(tracer, "phase2.serve", cat="phase2", engine="serial"):
            for pkg in plan.packages:
                label = "pkg(" + ",".join(str(d) for d in sorted(pkg)) + ")"
                if tele is not None:
                    tele.board.unit_started(label)
                    t0 = _time.perf_counter()
                with timed("phase2.serve"), maybe_span(
                    tracer,
                    "phase2.solve",
                    cat="phase2",
                    unit=label,
                    kind="package",
                ):
                    reports.append(
                        serve_package(
                            seq,
                            pkg,
                            model,
                            alpha,
                            build_schedule=build_schedules,
                            attribute=observe,
                        )
                    )
                if tele is not None:
                    tele.record(h_solve, _time.perf_counter() - t0)
                    tele.board.unit_finished(label)
            for d in plan.singletons:
                label = f"item({d})"
                if tele is not None:
                    tele.board.unit_started(label)
                    t0 = _time.perf_counter()
                with timed("phase2.serve"), maybe_span(
                    tracer,
                    "phase2.solve",
                    cat="phase2",
                    unit=label,
                    kind="singleton",
                ):
                    reports.append(
                        serve_singleton(
                            seq,
                            d,
                            model,
                            build_schedule=build_schedules,
                            attribute=observe,
                        )
                    )
                if tele is not None:
                    tele.record(h_solve, _time.perf_counter() - t0)
                    tele.board.unit_finished(label)

    total = sum(r.total for r in reports)
    if observe:
        obs.finalize(
            seq,
            reports,
            total,
            engine_stats=engine_stats,
            memo=memo_obj,
            spans=tracer.aggregate(since=span_mark) if tracer is not None else None,
            telemetry=tele,
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
