"""The Phase-2 execution engine: the one driver of Phase 2.

Phase 2 of DP_Greedy serves every *serving unit* (package or singleton)
over its own disjoint sub-sequence -- the units share no state, so the
phase is embarrassingly parallel by construction.  :func:`serve_plan`
is the only Phase-2 driver: it runs Observation 2 for every package in
one pass in the parent (:func:`~repro.core.dp_greedy.single_sided_pass`,
which builds the sequence's same-server index before any worker
starts), probes the content-addressed
:class:`~repro.engine.memo.SolverMemo`, groups the memo misses into
dispatches, and hands those to
:func:`repro.engine.resilience.dispatch_resilient`, the only code that
runs the units' DPs (serially, or on a ``concurrent.futures`` pool).
The parent then adds each package's single-sided charges to its
report.

Pool selection heuristic
------------------------
The engine estimates the pending workload as the total number of
requests carried by un-memoised units and picks the cheapest adequate
backend:

* ``workers=1`` (or a workload below :data:`AUTO_SERIAL_NODES` under
  auto-detection) runs the serial rung in the parent, unit by unit in
  plan order;
* a *thread* pool is used for mid-size workloads (cheap to spin up; the
  solvers release no GIL, so this mainly overlaps the numpy portions);
* a *process* pool (fork when available) takes over above
  :data:`PROCESS_POOL_NODES`, where per-unit DP time dwarfs the
  fork/pickle overhead.

Grouping
--------
A pool dispatches at most :data:`GROUPS_PER_WORKER` x ``workers``
groups of units, balanced longest-processing-time first by carried
request count (a package is one unit, never split), because one future
per unit costs more than most units' solves.  A one-unit group travels
as the bare unit: same label, same chaos draw, same error message.  A
sharded solve (:mod:`repro.engine.sharding`) asks for its ``shards``
groups instead, on every rung.  Retries, timeouts, the finite-cost
audit and ``on_unit_error`` apply per dispatch.

Determinism guarantee
---------------------
Every serve function is pure and each dispatch's reports are put back
at their units' plan-order indices, so the report list is identical --
including float bit patterns -- across serial, thread, and process
execution, any ``workers`` value, and any grouping.  Memoisation
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

import heapq
import multiprocessing
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cache.model import CostModel, RequestSequence, package_rate
from ..correlation.packing import PackingPlan
from ..core.dp_greedy import (
    GroupReport,
    _unit_report,
    serve_singleton,
    single_sided_pass,
)
from ..obs import telemetry as _telemetry
from ..obs.telemetry import Telemetry, UnitRecorder
from ..obs.tracing import Tracer, maybe_span
from .chaos import FaultPlan
from .memo import SolverMemo, fingerprint_view

__all__ = [
    "AUTO_SERIAL_NODES",
    "GROUPS_PER_WORKER",
    "PROCESS_POOL_NODES",
    "EngineStats",
    "serve_plan",
]

#: Below this many pending request-nodes, auto-detection stays serial
#: (pool startup would dominate the saved work).
AUTO_SERIAL_NODES = 4_096

#: At or above this many pending request-nodes, the engine prefers a
#: process pool over threads.
PROCESS_POOL_NODES = 16_384

#: A pool dispatches at most this many groups of units per worker.
GROUPS_PER_WORKER = 4

# Unit spec shipped to workers: ("package", (d1, d2, ...)) or
# ("singleton", item).  A dispatch is a tuple of unit specs served in
# order by one worker.  Tuples keep pickling cheap and deterministic.
_UnitSpec = Tuple[str, Union[Tuple[int, ...], int]]
_Group = Tuple[_UnitSpec, ...]


@dataclass(frozen=True)
class EngineStats:
    """Observability record of one :func:`serve_plan` call.

    The retry/timeout/fallback counters come from the resilient
    dispatcher (:mod:`repro.engine.resilience`), ``units_failed`` counts
    the units it skipped, and all four stay zero on a fault-free run;
    ``pool`` always records the backend the heuristic *picked* -- pool
    degradation is visible through ``pool_fallbacks``.
    """

    units: int
    packages: int
    singletons: int
    workers: int
    pool: str  # "serial" | "thread" | "process"
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


def _plan_units(plan: PackingPlan) -> List[_UnitSpec]:
    """Serving units in plan order: packages, then singletons."""
    units: List[_UnitSpec] = [
        ("package", tuple(sorted(pkg))) for pkg in plan.packages
    ]
    units.extend(("singleton", d) for d in plan.singletons)
    return units


def _unit_label(spec: _UnitSpec) -> str:
    """Human-readable span label: ``"pkg(1,2)"`` / ``"item(7)"``."""
    kind, payload = spec
    if kind == "package":
        return "pkg(" + ",".join(str(d) for d in payload) + ")"
    return f"item({payload})"


def _group_label(group: _Group) -> str:
    """A dispatch's label: its unit's own for a one-unit group, else
    ``"shard(3u@item(7))"`` (member count + first member)."""
    if len(group) == 1:
        return _unit_label(group[0])
    return f"shard({len(group)}u@{_unit_label(group[0])})"


def _serve_unit(
    seq: RequestSequence,
    spec: _UnitSpec,
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
) -> GroupReport:
    """One unit's report; for a package only its DP half --
    :func:`serve_plan` adds the single-sided charges in the parent."""
    kind, payload = spec
    if kind == "package":
        return _unit_report(
            frozenset(payload),
            seq.group_view(payload),
            model,
            package_rate(len(payload), alpha),
            build_schedule=build_schedules,
            dp_cost=None,
            dp_attribution=None,
            attribute=attribute,
        )
    return serve_singleton(
        seq, payload, model, build_schedule=build_schedules, attribute=attribute
    )


def _serve_group(
    seq: RequestSequence,
    group: _Group,
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
    *,
    attempt: int,
    plan: Optional[FaultPlan],
    in_subprocess: bool,
    tracer: Optional[Tracer],
    recorder: "object | None",
) -> Tuple[GroupReport, ...]:
    """One attempt at a dispatch: its units' reports, in group order.

    Fires the fault ``plan``'s draw for the dispatch first; every unit
    then solves inside its own ``phase2.solve`` span and records its
    latency into ``recorder`` (the latency-sink protocol of
    :mod:`repro.obs.telemetry`), and a multi-unit group also records its
    whole solve.  A ``corrupt`` draw poisons the first report.
    """
    corrupt = plan is not None and plan.before_solve(
        _group_label(group), attempt, in_subprocess=in_subprocess
    )
    t_group = time.perf_counter()
    reports = []
    for spec in group:
        t0 = time.perf_counter()
        if tracer is None:  # no span helper or label on the default hot path
            report = _serve_unit(seq, spec, model, alpha, build_schedules, attribute)
        else:
            with tracer.span(
                "phase2.solve", cat="phase2", unit=_unit_label(spec),
                kind=spec[0], attempt=attempt,
            ):
                report = _serve_unit(
                    seq, spec, model, alpha, build_schedules, attribute
                )
        if recorder is not None:
            recorder.record(_telemetry.H_SOLVE, time.perf_counter() - t0)
        reports.append(report)
    if recorder is not None and len(group) > 1:
        recorder.record(_telemetry.H_SHARD, time.perf_counter() - t_group)
    if corrupt:
        reports[0] = FaultPlan.corrupt_report(reports[0])
    return tuple(reports)


# ---------------------------------------------------------------------------
# process-pool worker side: the sequence is shipped once per worker via the
# initializer (with fork it is inherited copy-on-write), not per dispatch.
# ---------------------------------------------------------------------------
_WORKER_ARGS: Tuple = ()
_WORKER_TRACER: Optional[Tracer] = None


def _init_worker(
    seq: RequestSequence,
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
    trace: bool = False,
    telemetry: bool = False,
) -> None:
    global _WORKER_ARGS, _WORKER_TRACER
    _WORKER_ARGS = (seq, model, alpha, build_schedules, attribute, telemetry)
    _WORKER_TRACER = Tracer() if trace else None
    # under fork the worker inherits the parent's installed telemetry
    # hub; its sampler/watchdog threads did not survive the fork, so
    # clear it -- workers record through an explicit UnitRecorder and
    # ship stats back instead.
    _telemetry.install(None)


def _serve_in_worker(group: _Group, attempt: int, plan: Optional[FaultPlan]):
    """The process-pool entry: one attempt at ``group`` in this worker.

    Returns ``(reports, spans, worker_stats)``: the spans the worker's
    tracer recorded (wall-anchored, with the worker's pid/tid, merged
    straight into the parent trace -- see :mod:`repro.obs.tracing`) and,
    with telemetry on, the worker's latency entries and resource peaks
    (:class:`~repro.obs.telemetry.WorkerUnitStats`, else ``None``).
    """
    seq, model, alpha, build_schedules, attribute, telemetry = _WORKER_ARGS
    tracer = _WORKER_TRACER
    recorder = UnitRecorder() if telemetry else None
    mark = tracer.mark() if tracer is not None else 0
    reports = _serve_group(
        seq, group, model, alpha, build_schedules, attribute,
        attempt=attempt, plan=plan, in_subprocess=True, tracer=tracer,
        recorder=recorder,
    )
    return (
        reports,
        tracer.records(since=mark) if tracer is not None else (),
        recorder.unit_stats() if recorder is not None else None,
    )


# ---------------------------------------------------------------------------
# parent-side memo integration
# ---------------------------------------------------------------------------
def _memo_probe(
    seq: RequestSequence,
    spec: _UnitSpec,
    model: CostModel,
    alpha: float,
    memo: SolverMemo,
    attribute: bool = False,
) -> Tuple[Optional[GroupReport], Optional[bytes]]:
    """Try to serve one unit from the memo (a package's DP half only).

    Returns ``(report, None)`` on a hit and ``(None, key)`` on a miss;
    the key is re-used after the real solve to store the DP cost.  Under
    ``attribute=True`` only entries carrying a ledger attribution count
    as hits (the memo stores cost and attribution together).
    """
    kind, payload = spec
    if kind == "singleton":
        sub = seq.item_view(payload)
        key = fingerprint_view(sub, model, 1.0)
        entry = memo.get(key, with_attribution=attribute)
        if entry is None:
            return None, key
        cost, attr = entry if attribute else (entry, None)
        return (
            serve_singleton(
                seq,
                payload,
                model,
                sub=sub,
                dp_cost=cost,
                dp_attribution=attr,
                attribute=attribute,
            ),
            None,
        )
    package = frozenset(payload)
    pseudo = seq.group_view(package)  # cached columnar co-occurrence view
    rate = package_rate(len(package), alpha)
    key = fingerprint_view(pseudo, model, rate)
    entry = memo.get(key, with_attribution=attribute)
    if entry is None:
        return None, key
    cost, attr = entry if attribute else (entry, None)
    return (
        _unit_report(
            package,
            pseudo,
            model,
            rate,
            build_schedule=False,
            dp_cost=cost,
            dp_attribution=attr,
            attribute=attribute,
        ),
        None,
    )


def _unit_sizes(seq: RequestSequence, units: Sequence[_UnitSpec]) -> List[int]:
    """Carried-request count per unit (the pool-selection and grouping
    size estimate), served from the sequence's cached per-item
    projections."""
    counts = seq.item_counts()
    sizes: List[int] = []
    for kind, payload in units:
        if kind == "singleton":
            sizes.append(counts.get(payload, 0))
        else:
            sizes.append(sum(counts.get(d, 0) for d in payload))
    return sizes


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
    heap = [(0, j) for j in range(shards)]
    heapq.heapify(heap)
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for i in order:
        load, j = heapq.heappop(heap)
        groups[j].append(i)
        # empty units still cost a dispatch slot: weigh them as 1
        heapq.heappush(heap, (load + max(int(sizes[i]), 1), j))
    return [sorted(g) for g in groups if g]


def _resolve_backend(
    workers: Optional[int], pending_nodes: int, pending_units: int, pool: Optional[str]
) -> Tuple[int, str]:
    """Apply the pool-selection heuristic; returns ``(workers, pool_kind)``."""
    if pool not in (None, "serial", "thread", "process"):
        raise ValueError(f"unknown pool kind {pool!r}")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if workers is None:
        if pool is None and pending_nodes < AUTO_SERIAL_NODES:
            return 1, "serial"
        workers = min(os.cpu_count() or 1, max(pending_units, 1))
    workers = min(workers, max(pending_units, 1))
    if pool is not None:
        if pool == "serial" or workers == 1:
            return 1, "serial"
        return workers, pool
    if workers == 1:
        return 1, "serial"
    kind = "process" if pending_nodes >= PROCESS_POOL_NODES else "thread"
    return workers, kind


def _pool_start_method() -> str:
    """The multiprocessing start method the process pool uses.

    Prefers ``fork`` (workers inherit the sequence copy-on-write and the
    tracer's wall anchor byte-for-byte) and falls back to ``spawn``
    explicitly where fork is unavailable (macOS default, Windows) --
    never to the ambient platform default, so the choice is testable.
    The ``REPRO_START_METHOD`` env knob forces a method (tests exercise
    the spawn path with it on fork platforms).
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD")
    if override:
        if override not in methods:
            raise ValueError(
                f"REPRO_START_METHOD={override!r} not available on this "
                f"platform (have: {methods})"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


def _make_executor(
    kind: str,
    workers: int,
    seq: RequestSequence,
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
    trace: bool = False,
    telemetry: bool = False,
) -> Executor:
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    ctx = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(seq, model, alpha, build_schedules, attribute, trace, telemetry),
    )


# ---------------------------------------------------------------------------
# checkpoint (de)serialisation: GroupReports <-> JSON payloads
# ---------------------------------------------------------------------------
def _report_to_json(report: GroupReport) -> dict:
    """JSON-safe encoding of a cost-only :class:`GroupReport`.

    Floats survive exactly (JSON emits the shortest round-tripping
    decimal), so a resumed solve reproduces the original total bit for
    bit.  Schedules are not serialised -- the sharded driver is
    cost-only, matching the memo's contract.
    """
    return {
        "group": sorted(int(d) for d in report.group),
        "package_cost": report.package_cost,
        "single_sided_cost": report.single_sided_cost,
        "num_cooccurrence": report.num_cooccurrence,
        "num_single_sided": report.num_single_sided,
        "modes": [[t, m, c] for t, m, c in report.modes],
        "attribution": (
            None
            if report.attribution is None
            else [[t, a, c] for t, a, c in report.attribution]
        ),
    }


def _report_from_json(payload: dict) -> GroupReport:
    attribution = payload.get("attribution")
    return GroupReport(
        group=frozenset(int(d) for d in payload["group"]),
        package_cost=float(payload["package_cost"]),
        single_sided_cost=float(payload["single_sided_cost"]),
        num_cooccurrence=int(payload["num_cooccurrence"]),
        num_single_sided=int(payload["num_single_sided"]),
        modes=tuple(
            (float(t), str(m), float(c)) for t, m, c in payload["modes"]
        ),
        attribution=(
            None
            if attribution is None
            else tuple((float(t), str(a), float(c)) for t, a, c in attribution)
        ),
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
    pool: Optional[str] = None,
    attribute: bool = False,
    tracer: Optional[Tracer] = None,
    resilience: "object | bool | None" = None,
    telemetry: Optional[Telemetry] = None,
    shards: Optional[int] = None,
    checkpoint: "object | None" = None,
) -> Tuple[List[GroupReport], EngineStats]:
    """Serve every unit of ``plan``; return reports in plan order.

    Parameters
    ----------
    workers:
        ``1`` runs the serial rung in the parent; ``None`` auto-detects
        from the workload size and CPU count; any other value caps the
        pool width.
    memo:
        Optional :class:`SolverMemo`.  Hits are served in the parent;
        only misses are dispatched, and their DP costs are stored back.
        Ignored when ``build_schedules=True`` (schedules are not cached).
    pool:
        Force a backend (``"serial"``/``"thread"``/``"process"``)
        instead of the size heuristic; used by tests and benchmarks.
    attribute:
        Ask every serving unit for its per-request cost attribution (the
        ledger charges of :mod:`repro.obs`).  Memo entries then store
        cost and attribution together, and only entries carrying an
        attribution count as hits.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  The Observation-2
        pass is recorded as a ``phase2.single_sided`` span, memo probes
        as ``engine.memo_probe`` spans with a ``memo=hit|miss``
        attribute, the dispatch as an ``engine.dispatch`` span, and
        every per-unit DP as a ``phase2.solve`` span -- including
        solves inside thread workers (distinct ``tid``) and process
        workers (distinct ``pid``; their spans are shipped back with the
        results and merged).  ``None`` leaves the hot path untouched.
    resilience:
        The dispatcher's :class:`~repro.engine.resilience.ResilienceConfig`
        (``True`` for its defaults): per-dispatch timeouts, bounded
        retry with backoff, an ``on_unit_error`` policy, and
        deterministic fault injection.  ``None``/``False`` (default)
        is :data:`~repro.engine.resilience.NO_RETRY`: no retries, no
        timeout, no fault injection -- a failing unit raises
        :class:`~repro.errors.UnitSolveError` -- while a broken pool
        still degrades process → thread → serial.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub.  Per-unit
        solve latency and dispatch/backoff latency land in its
        histograms; dispatch progress (including pool-worker
        completions) feeds its :class:`ProgressBoard`, and process
        workers ship their ``getrusage`` peaks back for
        :meth:`~repro.obs.telemetry.Telemetry.absorb_worker`.  Strictly
        observation-only: reports are bit-identical with or without it.
    shards / checkpoint:
        Set by :func:`~repro.engine.sharding.solve_dp_greedy_sharded`:
        group the memo misses into ``shards`` balanced shards on every
        rung (``EngineStats.shards`` counts them), and replay/record each
        shard's reports through a
        :class:`~repro.experiments.base.SweepCheckpoint`.
    """
    from .resilience import NO_RETRY, ResilienceConfig, dispatch_resilient

    config = ResilienceConfig.coerce(resilience) or NO_RETRY
    units = _plan_units(plan)
    use_memo = memo is not None and not build_schedules
    sizes = _unit_sizes(seq, units)

    # Observation 2 for every package in one pass, in the parent and
    # before any dispatch: the pass builds the sequence's same-server
    # index, which fork workers then inherit, and dispatched units price
    # only their DP
    with maybe_span(
        tracer, "phase2.single_sided", cat="phase2", packages=len(plan.packages)
    ) as span:
        single_sided = single_sided_pass(seq, plan.packages, model, alpha)
        span.set("decisions", single_sided.offsets[-1])

    reports: List[Optional[GroupReport]] = [None] * len(units)
    pending: List[int] = []
    miss_keys: Dict[int, bytes] = {}
    hits = 0
    if use_memo:
        for idx, spec in enumerate(units):
            with maybe_span(
                tracer, "engine.memo_probe", cat="engine", unit=_unit_label(spec)
            ) as span:
                report, key = _memo_probe(seq, spec, model, alpha, memo, attribute)
                span.set("memo", "hit" if report is not None else "miss")
            if report is not None:
                reports[idx] = report
                hits += 1
            else:
                pending.append(idx)
                miss_keys[idx] = key
    else:
        pending = list(range(len(units)))

    # -- group the memo misses into dispatches ----------------------------
    pending_sizes = [sizes[i] for i in pending]
    pending_nodes = sum(pending_sizes)

    def lpt_groups(n: int) -> List[List[int]]:
        return [[pending[j] for j in g] for g in _lpt_partition(pending_sizes, n)]

    if shards is not None:
        groups = lpt_groups(shards)
    else:
        workers_used, kind = _resolve_backend(
            workers, pending_nodes, len(pending), pool
        )
        cap = GROUPS_PER_WORKER * workers_used
        if kind == "serial" or len(pending) <= cap:
            groups = [[i] for i in pending]  # one unit per dispatch, plan order
        else:
            groups = lpt_groups(cap)

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
                    _report_from_json(r) for r in payload["reports"]
                )
    dispatch = {
        pos: tuple(map(units.__getitem__, group))
        for pos, group in enumerate(groups)
        if pos not in resolved
    }
    if shards is not None:
        workers_used, kind = _resolve_backend(
            workers, pending_nodes, len(dispatch), pool
        )

    def on_result(pos: int, group_reports: Tuple[GroupReport, ...]) -> None:
        checkpoint.record(
            points[pos], {"reports": [_report_to_json(r) for r in group_reports]}
        )

    tele = telemetry
    stalls_before = tele.board.stalls if tele is not None else 0
    with maybe_span(
        tracer,
        "engine.dispatch",
        cat="engine",
        pool=kind,
        workers=workers_used,
        dispatched=len(pending),
        groups=len(dispatch),
    ):
        results, counters = dispatch_resilient(
            kind=kind,
            workers=workers_used,
            seq=seq,
            model=model,
            alpha=alpha,
            build_schedules=build_schedules,
            attribute=attribute,
            units=dispatch,
            tracer=tracer,
            config=config,
            on_result=on_result if checkpoint is not None else None,
            telemetry=tele,
        )
    resolved.update(results)

    # -- put each dispatch's reports back at their plan-order indices ------
    for pos, group in enumerate(groups):
        for idx, report in zip(group, resolved.get(pos, ())):
            reports[idx] = report
    # units are planned packages first: add their single-sided charges
    n_packages = len(plan.packages)
    reports[:n_packages] = single_sided.fill(reports[:n_packages])

    if use_memo:
        for idx in pending:
            if reports[idx] is None:  # unit skipped by the dispatcher
                continue
            memo.put(
                miss_keys[idx],
                reports[idx].package_cost,
                attribution=reports[idx].attribution if attribute else None,
            )

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
        units_failed=sum(1 for idx in pending if reports[idx] is None),
        stalls=(tele.board.stalls - stalls_before) if tele is not None else 0,
        shards=len(groups) if shards is not None else 0,
    )
    return [r for r in reports if r is not None], stats
