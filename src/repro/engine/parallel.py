"""Parallel Phase-2 execution engine.

Phase 2 of DP_Greedy serves every *serving unit* (package or singleton)
over its own disjoint sub-sequence -- the units share no state, so the
phase is embarrassingly parallel by construction.  This module fans the
units of a :class:`~repro.correlation.packing.PackingPlan` out over a
``concurrent.futures`` pool and funnels repeated sub-problems through the
content-addressed :class:`~repro.engine.memo.SolverMemo`.

Pool selection heuristic
------------------------
The engine estimates the pending workload as the total number of
requests carried by un-memoised units and picks the cheapest adequate
backend:

* ``workers=1`` (or a workload below :data:`AUTO_SERIAL_NODES` under
  auto-detection) runs the exact same ``serve_package`` /
  ``serve_singleton`` calls, in the same order, as the classic serial
  loop -- bit-for-bit identical output;
* a *thread* pool is used for mid-size workloads (cheap to spin up; the
  solvers release no GIL, so this mainly overlaps the numpy portions);
* a *process* pool (fork when available) takes over above
  :data:`PROCESS_POOL_NODES`, where per-unit DP time dwarfs the
  fork/pickle overhead.

Determinism guarantee
---------------------
Results are collected with order-preserving ``Executor.map`` and every
serve function is pure, so the report list is identical -- including
float bit patterns -- across serial, thread, and process execution, and
across any ``workers`` value.  Memoisation preserves this too: a memo
hit returns the exact float the solver produced when the entry was
stored, and the miss path stores whatever the real solver returned.

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

import math
import multiprocessing
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..cache import compiled_dp
from ..cache.batched_dp import batched_optimal_costs, length_buckets, pad_waste
from ..cache.model import (
    CostModel,
    RequestSequence,
    SingleItemView,
    package_rate,
)
from ..correlation.packing import PackingPlan
from ..core.dp_greedy import GroupReport, serve_package, serve_singleton
from ..obs import telemetry as _telemetry
from ..obs.telemetry import Telemetry, UnitRecorder
from ..obs.tracing import Tracer, maybe_span
from .memo import SolverMemo, fingerprint_view

__all__ = [
    "AUTO_SERIAL_NODES",
    "PROCESS_POOL_NODES",
    "BatchResult",
    "EngineStats",
    "ShardResult",
    "serve_plan",
]

#: Below this many pending request-nodes, auto-detection stays serial
#: (pool startup would dominate the saved work).
AUTO_SERIAL_NODES = 4_096

#: At or above this many pending request-nodes, the engine prefers a
#: process pool over threads.
PROCESS_POOL_NODES = 16_384

# Unit spec shipped to workers: ("package", (d1, d2, ...)),
# ("singleton", item), under the batched backend a whole length-bucket
# ("batch", (spec, spec, ...)) solved in one kernel call, or -- under
# sharded dispatch (repro.engine.sharding) -- a whole shard
# ("shard", (spec, spec, ...)) of units served serially in one worker.
# Tuples keep pickling cheap and deterministic.
_UnitSpec = Tuple[str, Union[Tuple[int, ...], int, Tuple]]

_DP_BACKENDS = ("sparse", "dense", "batched", "compiled", "auto")


@dataclass(frozen=True)
class EngineStats:
    """Observability record of one :func:`serve_plan` call.

    The retry/timeout/fallback/failed counters are produced by the
    resilient dispatch layer (:mod:`repro.engine.resilience`) and stay
    zero on the classic path; ``pool`` always records the backend the
    heuristic *picked* -- pool degradation is visible through
    ``pool_fallbacks``.  ``batches``/``pad_waste`` are produced by the
    batched scheduler (``dp_backend="batched"`` or ``"compiled"``):
    bucket count dispatched through the kernel and the padded-slot
    fraction its length bucketing wasted.  ``compiled_units`` counts
    the pending units priced by the compiled kernels and
    ``compiled_fallbacks`` the parent-side compiled -> sparse
    degradations (numba missing, ``REPRO_NO_NUMBA=1``, kernel
    rejection); ``dp_backend`` records the backend that actually ran.
    """

    units: int
    packages: int
    singletons: int
    workers: int
    pool: str  # "serial" | "thread" | "process"
    dispatched: int  # units actually sent to the pool (memo misses)
    memo_hits: int
    memo_misses: int
    retries: int = 0  # unit re-dispatches after failures/timeouts
    timeouts: int = 0  # per-unit deadline expiries
    pool_fallbacks: int = 0  # degradation-ladder steps taken
    units_failed: int = 0  # units dropped under on_unit_error="skip"
    stalls: int = 0  # dispatches flagged silent by the stall watchdog
    batches: int = 0  # length buckets dispatched through the kernel
    pad_waste: float = 0.0  # padded-slot fraction wasted by bucketing
    shards: int = 0  # shard dispatches of a sharded solve (0 = unsharded)
    compiled_units: int = 0  # pending units priced by the compiled kernels
    compiled_fallbacks: int = 0  # compiled -> sparse degradations (parent side)
    dp_backend: str = "sparse"

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


@dataclass(frozen=True)
class BatchResult:
    """DP costs of one ``("batch", ...)`` dispatch, in member order.

    Engine-internal: the parent unpacks it back into per-unit
    :class:`~repro.core.dp_greedy.GroupReport` objects.  It exposes a
    ``package_cost`` field and a ``total`` property so the resilience
    layer's finite-cost audit and the chaos corruption hook
    (:meth:`~repro.engine.chaos.FaultPlan.corrupt_report`, which
    replaces ``package_cost`` with NaN) apply to batch dispatches
    unchanged.
    """

    costs: Tuple[float, ...]
    package_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.package_cost + math.fsum(self.costs)


@dataclass(frozen=True)
class ShardResult:
    """Reports of one ``("shard", ...)`` dispatch, in shard-member order.

    Produced by :func:`_solve_shard` for the sharded driver
    (:mod:`repro.engine.sharding`), which zips the reports back onto the
    shard's unit indices.  Mirrors :class:`BatchResult`'s contract with
    the resilience layer: ``package_cost`` plus a ``total`` property, so
    the finite-cost audit and the chaos corruption hook
    (:meth:`~repro.engine.chaos.FaultPlan.corrupt_report`) apply to
    whole shards unchanged.
    """

    reports: Tuple[GroupReport, ...]
    package_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.package_cost + math.fsum(r.total for r in self.reports)


def _plan_units(plan: PackingPlan) -> List[_UnitSpec]:
    """Serving units in the classic serial order: packages, then singletons."""
    units: List[_UnitSpec] = [
        ("package", tuple(sorted(pkg))) for pkg in plan.packages
    ]
    units.extend(("singleton", d) for d in plan.singletons)
    return units


def _unit_label(spec: _UnitSpec) -> str:
    """Human-readable span label: ``"pkg(1,2)"`` / ``"item(7)"`` /
    ``"batch(3u@item(7))"`` (member count + first member)."""
    kind, payload = spec
    if kind == "package":
        return "pkg(" + ",".join(str(d) for d in payload) + ")"
    if kind == "batch":
        return f"batch({len(payload)}u@{_unit_label(payload[0])})"
    if kind == "shard":
        return f"shard({len(payload)}u@{_unit_label(payload[0])})"
    return f"item({payload})"


def _unit_view(seq: RequestSequence, spec: _UnitSpec) -> SingleItemView:
    """The unit's solver trajectory from the sequence's cached columnar
    projections (items: per-item view; packages: co-occurrence view)."""
    kind, payload = spec
    if kind == "package":
        return seq.group_view(frozenset(payload))
    return seq.item_view(payload)


def _solve_batch(
    seq: RequestSequence,
    specs: Tuple[_UnitSpec, ...],
    model: CostModel,
    alpha: float,
    dp_backend: str = "batched",
) -> BatchResult:
    """Price one length bucket through the lockstep kernel
    (``dp_backend="compiled"`` routes it through the numba lowering,
    degrading to the numpy kernel bit-identically)."""
    views = [_unit_view(seq, spec) for spec in specs]
    rates = [
        package_rate(len(payload), alpha) if kind == "package" else 1.0
        for kind, payload in specs
    ]
    kernel = "compiled" if dp_backend == "compiled" else "batched"
    costs = batched_optimal_costs(views, model, rates, backend=kernel)
    return BatchResult(costs=tuple(float(c) for c in costs))


def _solve_shard(
    seq: RequestSequence,
    specs: Tuple[_UnitSpec, ...],
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
    dp_backend: str,
    recorder: "object | None" = None,
) -> ShardResult:
    """Serve one shard's units serially inside a single worker.

    Cost-only batched mode buckets the shard's own units through the
    lockstep kernel (the same scheduling ``serve_plan`` applies
    globally, here per shard); otherwise every unit runs its individual
    serve.  Either way the per-unit reports are bit-identical to the
    unsharded path's.  ``recorder`` (the latency-sink protocol of
    :mod:`repro.obs.telemetry`) receives per-bucket / per-inner-unit
    solve latencies.
    """
    if dp_backend in ("batched", "compiled") and not build_schedules and not attribute:
        idxs = list(range(len(specs)))
        lengths = {i: len(_unit_view(seq, specs[i])) for i in idxs}
        costs: Dict[int, float] = {}
        for bucket in length_buckets(idxs, lengths):
            t0 = time.perf_counter() if recorder is not None else 0.0
            batch = _solve_batch(
                seq, tuple(specs[i] for i in bucket), model, alpha, dp_backend
            )
            if recorder is not None:
                recorder.record(_telemetry.H_BATCH, time.perf_counter() - t0)
            for i, cost in zip(bucket, batch.costs):
                costs[i] = float(cost)
        reports = tuple(
            _assemble_unit_report(seq, specs[i], model, alpha, costs[i])
            for i in idxs
        )
    else:
        reports = tuple(
            _serve_unit(
                seq, spec, model, alpha, build_schedules, attribute,
                dp_backend, recorder=recorder,
            )
            for spec in specs
        )
    return ShardResult(reports=reports)


def _serve_unit(
    seq: RequestSequence,
    spec: _UnitSpec,
    model: CostModel,
    alpha: float,
    build_schedules: bool,
    attribute: bool = False,
    dp_backend: str = "sparse",
    *,
    recorder: "object | None" = None,
) -> "GroupReport | BatchResult | ShardResult":
    kind, payload = spec
    if kind == "batch":
        # whole bucket in one kernel call; the scheduler only emits
        # batch specs in cost-only mode (no schedules, no attribution)
        t0 = time.perf_counter() if recorder is not None else 0.0
        batch = _solve_batch(seq, payload, model, alpha, dp_backend)
        if recorder is not None:
            recorder.record(_telemetry.H_BATCH, time.perf_counter() - t0)
        return batch
    if kind == "shard":
        t0 = time.perf_counter() if recorder is not None else 0.0
        shard = _solve_shard(
            seq, payload, model, alpha, build_schedules, attribute,
            dp_backend, recorder=recorder,
        )
        if recorder is not None:
            recorder.record(_telemetry.H_SHARD, time.perf_counter() - t0)
        return shard
    t0 = time.perf_counter() if recorder is not None else 0.0
    if kind == "package":
        report = serve_package(
            seq,
            frozenset(payload),
            model,
            alpha,
            build_schedule=build_schedules,
            attribute=attribute,
            dp_backend=dp_backend,
        )
    else:
        report = serve_singleton(
            seq,
            payload,
            model,
            build_schedule=build_schedules,
            attribute=attribute,
            dp_backend=dp_backend,
        )
    if recorder is not None:
        recorder.record(_telemetry.H_SOLVE, time.perf_counter() - t0)
    return report


def _assemble_unit_report(
    seq: RequestSequence,
    spec: _UnitSpec,
    model: CostModel,
    alpha: float,
    dp_cost: float,
) -> GroupReport:
    """Rebuild a unit's :class:`GroupReport` around a batch-solved DP
    cost (the single-sided greedy pass of packages runs here in the
    parent: it carries the per-node mode ledger and costs ``O(rows
    carrying a package item)``, a walk over the members' cached index
    arrays)."""
    kind, payload = spec
    if kind == "package":
        return serve_package(seq, frozenset(payload), model, alpha, dp_cost=dp_cost)
    return serve_singleton(seq, payload, model, dp_cost=dp_cost)


# ---------------------------------------------------------------------------
# process-pool worker side: the sequence is shipped once per worker via the
# initializer (with fork it is inherited copy-on-write), not per unit.
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
    dp_backend: str = "sparse",
    telemetry: bool = False,
) -> None:
    global _WORKER_ARGS, _WORKER_TRACER
    _WORKER_ARGS = (
        seq, model, alpha, build_schedules, attribute, dp_backend, telemetry
    )
    _WORKER_TRACER = Tracer() if trace else None
    if dp_backend == "compiled":
        # fork: the parent's warm-up state is inherited and this is a
        # no-op; spawn: the probe loads machine code from the on-disk
        # numba cache the parent's warm-up populated, no re-JIT
        compiled_dp.warm_up()
    # under fork the worker inherits the parent's installed telemetry
    # hub; its sampler/watchdog threads did not survive the fork, so
    # clear it -- workers record through an explicit UnitRecorder and
    # ship stats back instead.
    _telemetry.install(None)


def _serve_unit_in_worker(spec: _UnitSpec) -> "GroupReport | BatchResult":
    seq, model, alpha, build_schedules, attribute, dp_backend, _ = _WORKER_ARGS
    return _serve_unit(
        seq, spec, model, alpha, build_schedules, attribute, dp_backend
    )


def _serve_unit_in_worker_telemetry(spec: _UnitSpec):
    """Telemetry variant: returns ``(report, WorkerUnitStats)``.

    The worker times the solve into a local :class:`UnitRecorder` and
    ships the latency entries plus its own ``getrusage`` peaks back with
    the result for the parent hub to absorb."""
    seq, model, alpha, build_schedules, attribute, dp_backend, _ = _WORKER_ARGS
    recorder = UnitRecorder()
    report = _serve_unit(
        seq, spec, model, alpha, build_schedules, attribute, dp_backend,
        recorder=recorder,
    )
    return report, recorder.unit_stats()


def _serve_unit_in_worker_traced(spec: _UnitSpec):
    """Traced variant: returns ``(report, spans, stats_or_None)``.

    The worker records the solve into its process-local tracer and ships
    the new records back with the result; their wall-anchored timestamps
    and real pid/tid merge directly into the parent trace (see
    :mod:`repro.obs.tracing` for the clock model).  With telemetry also
    enabled the third element carries the :class:`WorkerUnitStats`.
    """
    (seq, model, alpha, build_schedules, attribute, dp_backend,
     telemetry) = _WORKER_ARGS
    recorder = UnitRecorder() if telemetry else None
    tracer = _WORKER_TRACER
    if tracer is None:  # pragma: no cover - defensive; init always ran
        return (
            _serve_unit(
                seq, spec, model, alpha, build_schedules, attribute,
                dp_backend, recorder=recorder,
            ),
            (),
            recorder.unit_stats() if recorder is not None else None,
        )
    mark = tracer.mark()
    with tracer.span(
        "phase2.solve", cat="phase2", unit=_unit_label(spec), kind=spec[0]
    ):
        report = _serve_unit(
            seq, spec, model, alpha, build_schedules, attribute, dp_backend,
            recorder=recorder,
        )
    return (
        report,
        tracer.records(since=mark),
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
    """Try to serve one unit from the memo.

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
    key = fingerprint_view(pseudo, model, package_rate(len(package), alpha))
    entry = memo.get(key, with_attribution=attribute)
    if entry is None:
        return None, key
    cost, attr = entry if attribute else (entry, None)
    return (
        serve_package(
            seq,
            package,
            model,
            alpha,
            dp_cost=cost,
            dp_attribution=attr,
            attribute=attribute,
            co_view=pseudo,  # the probe already projected: skip the rescan
        ),
        None,
    )


def _unit_sizes(seq: RequestSequence, units: Sequence[_UnitSpec]) -> List[int]:
    """Carried-request count per unit (the pool-selection size estimate,
    also the batch scheduler's length key), served from the sequence's
    cached per-item projections."""
    counts = seq.item_event_counts()
    sizes: List[int] = []
    for kind, payload in units:
        if kind == "singleton":
            sizes.append(counts.get(payload, 0))
        else:
            sizes.append(sum(counts.get(d, 0) for d in payload))
    return sizes


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
    dp_backend: str = "sparse",
    telemetry: bool = False,
) -> Executor:
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    ctx = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(
            seq, model, alpha, build_schedules, attribute, trace, dp_backend,
            telemetry,
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
    dp_backend: str = "sparse",
    telemetry: Optional[Telemetry] = None,
) -> Tuple[List[GroupReport], EngineStats]:
    """Serve every unit of ``plan``; return reports in serial order.

    Parameters
    ----------
    workers:
        ``1`` forces the classic serial loop (bit-for-bit identical to
        the pre-engine path); ``None`` auto-detects from the workload
        size and CPU count; any other value caps the pool width.
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
        Optional :class:`~repro.obs.tracing.Tracer`.  Memo probes are
        recorded as ``engine.memo_probe`` spans with a ``memo=hit|miss``
        attribute, pool execution as an ``engine.dispatch`` span, and
        every per-unit solve as a ``phase2.solve`` span -- including
        solves inside thread workers (distinct ``tid``) and process
        workers (distinct ``pid``; their spans are shipped back with the
        results and merged).  ``None`` leaves the hot path untouched.
    resilience:
        Opt-in fault tolerance: a
        :class:`~repro.engine.resilience.ResilienceConfig` (or ``True``
        for the defaults) replaces the bare ``Executor.map`` consumption
        with per-unit futures carrying timeouts, bounded retry with
        backoff, pool degradation (process → thread → serial on broken
        pools, re-dispatching only unfinished units), and optional
        deterministic fault injection.  ``None``/``False`` (default)
        keeps the classic dispatch path byte-for-byte.
    dp_backend:
        Per-unit solver backend (``"sparse"``/``"dense"``/``"batched"``/
        ``"compiled"``/``"auto"``).  ``"compiled"`` runs the numba-JIT
        kernels (:mod:`repro.cache.compiled_dp`): the parent warms the
        compile up once before dispatch (recorded under the
        ``engine.jit_compile_seconds`` telemetry family) and pool
        workers hit the on-disk numba cache instead of re-JITting; when
        the kernels are unavailable (numba missing, ``REPRO_NO_NUMBA=1``)
        the call silently degrades to ``"sparse"`` with one WARNING and
        a ``compiled_fallbacks`` count.  ``"auto"`` picks
        compiled -> batched -> sparse by availability and unit count.
        Under ``"batched"``/``"compiled"`` in cost-only mode (no
        schedules, no attribution) the scheduler buckets memo-miss
        units by length
        (:func:`~repro.cache.batched_dp.length_buckets` over the shared
        ``_unit_sizes`` estimate, bounding pad waste), dispatches whole
        buckets through the same pool/resilience machinery as one
        ``("batch", ...)`` spec each, and unpacks the kernel's costs
        back into per-unit reports in the parent; memoisation stores the
        per-unit costs exactly as on the classic path.  With schedules
        or attribution requested the batch scheduler stands down and
        every unit solves individually through
        ``solve_optimal(backend="batched")`` (the kernel is cost-only).
        All backends produce bit-identical reports.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub.  Per-unit
        solve latency, per-bucket kernel latency, and dispatch/backoff
        latency land in its histograms; dispatch progress (including
        pool-worker completions) feeds its :class:`ProgressBoard`, and
        process workers ship their ``getrusage`` peaks back for
        :meth:`~repro.obs.telemetry.Telemetry.absorb_worker`.  Strictly
        observation-only: reports are bit-identical with or without it.
    """
    from .resilience import ResilienceConfig

    if dp_backend not in _DP_BACKENDS:
        raise ValueError(f"unknown DP backend {dp_backend!r}")
    resil = ResilienceConfig.coerce(resilience)
    units = _plan_units(plan)
    n_packages = len(plan.packages)
    use_memo = memo is not None and not build_schedules

    compiled_fb_before = compiled_dp.fallback_count()
    dp_backend = compiled_dp.resolve_backend(dp_backend, len(units))
    if dp_backend == "compiled":
        if not compiled_dp.available():
            # engine-level degradation: count it and run sparse; the
            # per-call kernels never even get asked
            compiled_dp.note_fallback("serve_plan")
            dp_backend = "sparse"
        else:
            jit_seconds = compiled_dp.warm_up()
            if telemetry is not None and jit_seconds > 0.0:
                telemetry.record(_telemetry.H_JIT, jit_seconds)

    # one sizes pass for the whole plan: pool auto-selection and batch
    # bucketing share it instead of re-deriving per phase
    all_sizes = _unit_sizes(seq, units)

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

    pending_nodes = sum(all_sizes[i] for i in pending)

    # -- batch scheduling (dp_backend="batched", cost-only mode) ---------
    batch_mode = (
        dp_backend in ("batched", "compiled")
        and not build_schedules
        and not attribute
        and bool(pending)
    )
    buckets: List[List[int]] = []
    waste = 0.0
    if batch_mode:
        lengths = {idx: all_sizes[idx] for idx in pending}
        buckets = length_buckets(pending, lengths)
        # report the padding the kernel will actually materialise (event
        # counts of the cached views, origin included)
        view_lengths = {idx: len(_unit_view(seq, units[idx])) for idx in pending}
        waste = pad_waste(buckets, view_lengths)
        dispatch_specs: List[_UnitSpec] = [
            ("batch", tuple(units[i] for i in bucket)) for bucket in buckets
        ]
    else:
        dispatch_specs = [units[i] for i in pending]

    workers_used, kind = _resolve_backend(
        workers, pending_nodes, len(dispatch_specs), pool
    )

    tele = telemetry
    stalls_before = tele.board.stalls if tele is not None else 0
    if tele is not None and dispatch_specs and resil is None:
        # the resilient dispatcher announces its own units (it is also
        # entered directly by the sharded driver)
        tele.board.begin(len(dispatch_specs))

    resolved: Dict[int, object] = {}
    res_counters = None
    if resil is not None:
        from .resilience import dispatch_resilient

        with maybe_span(
            tracer,
            "engine.dispatch",
            cat="engine",
            pool=kind,
            workers=workers_used,
            dispatched=len(dispatch_specs),
            batches=len(buckets),
            resilient=True,
        ):
            resolved, res_counters = dispatch_resilient(
                kind=kind,
                workers=workers_used,
                seq=seq,
                model=model,
                alpha=alpha,
                build_schedules=build_schedules,
                attribute=attribute,
                units=dict(enumerate(dispatch_specs)),
                tracer=tracer,
                config=resil,
                dp_backend=dp_backend,
                telemetry=tele,
            )
    elif kind == "serial":
        for pos, spec in enumerate(dispatch_specs):
            label = _unit_label(spec)
            if tele is not None:
                tele.board.unit_started(label)
            with maybe_span(
                tracer,
                "phase2.solve",
                cat="phase2",
                unit=label,
                kind=spec[0],
            ):
                resolved[pos] = _serve_unit(
                    seq, spec, model, alpha, build_schedules, attribute,
                    dp_backend, recorder=tele,
                )
            if tele is not None:
                tele.board.unit_finished(label)
    else:
        chunksize = max(1, len(dispatch_specs) // (4 * workers_used))
        trace = tracer is not None
        with maybe_span(
            tracer,
            "engine.dispatch",
            cat="engine",
            pool=kind,
            workers=workers_used,
            dispatched=len(dispatch_specs),
            batches=len(buckets),
        ):
            with _make_executor(
                kind, workers_used, seq, model, alpha, build_schedules,
                attribute, trace, dp_backend, tele is not None,
            ) as ex:
                if kind == "thread":

                    def _serve_traced(spec: _UnitSpec):
                        # worker threads record straight into the shared
                        # tracer/telemetry hub (both are thread-safe);
                        # each span stamps its own tid
                        label = _unit_label(spec)
                        if tele is not None:
                            tele.board.unit_started(label)
                        try:
                            with maybe_span(
                                tracer,
                                "phase2.solve",
                                cat="phase2",
                                unit=label,
                                kind=spec[0],
                            ):
                                return _serve_unit(
                                    seq, spec, model, alpha, build_schedules,
                                    attribute, dp_backend, recorder=tele,
                                )
                        finally:
                            if tele is not None:
                                tele.board.unit_finished(label)

                    results = ex.map(_serve_traced, dispatch_specs)
                    for pos, report in enumerate(results):
                        resolved[pos] = report
                elif trace:
                    results = ex.map(
                        _serve_unit_in_worker_traced,
                        dispatch_specs,
                        chunksize=chunksize,
                    )
                    for pos, (report, spans, wstats) in enumerate(results):
                        resolved[pos] = report
                        tracer.extend(spans)
                        if tele is not None:
                            tele.absorb_worker(wstats)
                            tele.board.unit_finished(
                                _unit_label(dispatch_specs[pos])
                            )
                elif tele is not None:
                    results = ex.map(
                        _serve_unit_in_worker_telemetry,
                        dispatch_specs,
                        chunksize=chunksize,
                    )
                    for pos, (report, wstats) in enumerate(results):
                        resolved[pos] = report
                        tele.absorb_worker(wstats)
                        tele.board.unit_finished(_unit_label(dispatch_specs[pos]))
                else:
                    results = ex.map(
                        _serve_unit_in_worker, dispatch_specs, chunksize=chunksize
                    )
                    for pos, report in enumerate(results):
                        resolved[pos] = report

    # -- map dispatch results back onto per-unit reports -----------------
    if batch_mode:
        for pos, bucket in enumerate(buckets):
            batch = resolved.get(pos)
            if batch is None:  # bucket skipped by the resilience layer
                continue
            for unit_idx, cost in zip(bucket, batch.costs):
                reports[unit_idx] = _assemble_unit_report(
                    seq, units[unit_idx], model, alpha, float(cost)
                )
    else:
        for pos, unit_idx in enumerate(pending):
            if pos in resolved:
                reports[unit_idx] = resolved[pos]

    if use_memo:
        for idx in pending:
            if reports[idx] is None:  # unit skipped by the resilience layer
                continue
            memo.put(
                miss_keys[idx],
                reports[idx].package_cost,
                attribution=reports[idx].attribution if attribute else None,
            )

    stats = EngineStats(
        units=len(units),
        packages=n_packages,
        singletons=len(plan.singletons),
        workers=workers_used,
        pool=kind,
        dispatched=len(pending),
        memo_hits=hits,
        memo_misses=len(pending) if use_memo else 0,
        retries=res_counters.retries if res_counters else 0,
        timeouts=res_counters.timeouts if res_counters else 0,
        pool_fallbacks=res_counters.pool_fallbacks if res_counters else 0,
        units_failed=res_counters.units_failed if res_counters else 0,
        stalls=(tele.board.stalls - stalls_before) if tele is not None else 0,
        batches=len(buckets),
        pad_waste=waste,
        compiled_units=len(pending) if dp_backend == "compiled" else 0,
        compiled_fallbacks=compiled_dp.fallback_count() - compiled_fb_before,
        dp_backend=dp_backend,
    )
    return [r for r in reports if r is not None], stats
