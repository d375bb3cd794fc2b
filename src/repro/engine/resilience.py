"""Fault-tolerant dispatch: the one executor of Phase-2 work.

Every Phase-2 solve runs through :func:`dispatch_resilient`.  The
driver (:func:`repro.engine.parallel.serve_plan`) hands it dispatches
-- single units or groups of units -- and the solve's reporter recipe,
and it runs them serially in the parent or on a process pool, in the
retry/timeout/degradation shape a production serving stack uses.  This
module owns every step of a dispatch: the parent's loop, the pool
workers' side (:func:`_init_worker`, :func:`_serve_in_worker`), and the
one attempt both run (:func:`_serve_group`).  So one crashed worker
(``BrokenProcessPool``), one hung DP solve, or one corrupted result
does not abort a multi-hour sweep:

* **per-dispatch futures** with at most ``workers`` in flight, so a
  single dispatch's failure is *that dispatch's* problem;
* **bounded retry with exponential backoff + jitter**: a failed or
  timed-out dispatch is re-run up to ``retries`` times (solves are
  pure, so a retried dispatch returns bit-identical reports);
* **pool degradation**: a broken process pool (worker death,
  initializer failure) falls back to the serial rung, re-dispatching
  only the unfinished work -- completed reports and memo entries are
  never recomputed;
* **result auditing**: a report with a non-finite DP cost is treated as
  corrupt and retried;
* **an error taxonomy** (:mod:`repro.errors`) carrying unit labels and
  attempt counts, so the failure that finally surfaces says *which*
  unit died *how many times*, not just where a recurrence indexed.

Solves that pass no ``resilience=`` run under :data:`NO_RETRY`: no
retries, no timeout, no fault injection (``REPRO_CHAOS`` is ignored),
so a failing unit raises :class:`~repro.errors.UnitSolveError` at once,
while a broken pool still degrades.

Everything is observable: ``engine.retry`` / ``engine.pool_fallback`` /
``engine.unit_failed`` spans land in the observer's trace, and the
``retries`` / ``timeouts`` / ``pool_fallbacks`` / ``units_failed``
counters ride :class:`~repro.engine.parallel.EngineStats` into the
metrics schema as ``engine.*`` counters.

Semantics worth pinning down:

* The timeout is measured from dispatch, and the dispatcher keeps at
  most ``workers`` dispatches in flight so dispatch coincides with
  execution start -- queue wait never eats a budget.  A timed-out
  future is cancelled if still queued and *abandoned* if running
  (Python pools cannot preempt); an abandoned future keeps occupying
  its worker until it finishes on its own, so it counts against
  dispatch capacity.  The serial rung cannot time out (there is nothing
  to abandon it from), so only a process pool (``workers >= 2``)
  enforces ``unit_timeout``: a dispatch that lands on the serial rung
  with a timeout set -- from the start, or after its pool broke --
  logs one WARNING saying so.
* Retry attempt counts are charged on *dispatch* failures only.  When a
  whole pool breaks, in-flight dispatches are re-run on the serial rung
  with their attempt counters untouched -- a dying neighbour is not
  their fault.
* ``on_unit_error`` decides what happens once a dispatch exhausts its
  retries: ``"raise"`` surfaces :class:`~repro.errors.UnitSolveError` /
  :class:`~repro.errors.UnitTimeoutError`; ``"degrade"`` gives it one
  final serial in-parent attempt on the trusted substrate (with fault
  injection disabled -- chaos models infrastructure faults, and the
  parent's own solve is the ground truth the injected faults are
  measured against); ``"skip"`` drops its units from the result and
  counts them in ``units_failed``.

Fault injection (:mod:`repro.engine.chaos`) threads through both rungs
so all of the above is provable under test.
"""

from __future__ import annotations

import heapq
import logging
import math
import multiprocessing
import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.dp_greedy import GroupReport
from ..errors import ReproError, UnitSolveError, UnitTimeoutError
from ..logutil import new_run_id
from ..obs.observer import Observer, clock, install, maybe_span
from ..obs.telemetry import H_BACKOFF, H_DISPATCH, H_SHARD
from .chaos import FaultPlan, chaos_from_env

log = logging.getLogger(__name__)

__all__ = ["NO_RETRY", "ResilienceConfig", "ResilienceCounters", "dispatch_resilient"]

_ON_UNIT_ERROR = ("raise", "degrade", "skip")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fault-tolerant dispatch layer.

    Parameters
    ----------
    unit_timeout:
        Per-dispatch wall-clock budget in seconds (a dispatch is one
        unit, or a group of units on a pool), measured from dispatch;
        ``None`` disables timeouts.  Only a process pool enforces it;
        the serial rung warns that it cannot.
    retries:
        How many times a failed/timed-out/corrupt dispatch is re-run
        before the ``on_unit_error`` policy applies (total tries =
        ``retries + 1``), after an exponential backoff
        (:func:`_backoff_delay`).
    on_unit_error:
        Policy once retries are exhausted: ``"raise"`` (default),
        ``"degrade"`` (one final serial in-parent attempt), or
        ``"skip"`` (drop its units, count them in ``units_failed``).
    chaos:
        Fault injection: a :class:`~repro.engine.chaos.FaultPlan`,
        ``False`` to force injection off, or ``None`` (default) to
        consult the ``REPRO_CHAOS`` env knob.
    """

    unit_timeout: Optional[float] = None
    retries: int = 2
    on_unit_error: str = "raise"
    chaos: "FaultPlan | bool | None" = None

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.on_unit_error not in _ON_UNIT_ERROR:
            raise ValueError(
                f"on_unit_error must be one of {_ON_UNIT_ERROR}, "
                f"got {self.on_unit_error!r}"
            )
        if self.chaos is True:
            raise ValueError(
                "chaos=True is ambiguous; pass a FaultPlan or set REPRO_CHAOS"
            )
        if self.chaos not in (None, False) and not isinstance(self.chaos, FaultPlan):
            raise TypeError("chaos must be a FaultPlan, False, or None")

    @classmethod
    def coerce(cls, value: "ResilienceConfig | bool | None") -> "Optional[ResilienceConfig]":
        """Normalise the ``resilience=`` argument of the public API."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            "resilience must be a ResilienceConfig, True, False, or None"
        )

    def resolve_chaos(self) -> Optional[FaultPlan]:
        """The active fault plan: explicit, env (``REPRO_CHAOS``), or none."""
        if self.chaos is False:
            return None
        if self.chaos is None:
            return chaos_from_env()
        return self.chaos


#: The dispatch config of solves that pass no ``resilience=``: one
#: attempt per dispatch, no timeout, no fault injection.
NO_RETRY = ResilienceConfig(retries=0, chaos=False)


@dataclass
class ResilienceCounters:
    """What the dispatch layer absorbed; folded into
    :class:`~repro.engine.parallel.EngineStats` (hence the metrics
    counters ``engine.retries`` etc.)."""

    retries: int = 0
    timeouts: int = 0
    pool_fallbacks: int = 0


class _CorruptResult(ReproError):
    """Internal: a report failed the finite-cost audit."""


_TIMEOUT = "timeout"  # sentinel in the per-dispatch last-error slot


#: Exponential backoff between a dispatch's retries: the first waits
#: ``_BACKOFF`` seconds, each next one twice as long, up to
#: ``_BACKOFF_MAX``; a seeded uniform jitter of up to ``±_JITTER`` of the
#: delay decorrelates retry storms without touching the results.
_BACKOFF, _BACKOFF_MAX, _JITTER = 0.02, 0.5, 0.25


def _backoff_delay(retry_no: int, rng: random.Random) -> float:
    """Seconds to wait before retry ``retry_no`` (1-based)."""
    base = min(_BACKOFF * (2.0 ** (retry_no - 1)), _BACKOFF_MAX)
    return base * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))


# A serving unit is the sorted tuple of its item ids, one item for a
# singleton.  A dispatch is a tuple of units served in order by one
# worker.  Tuples keep pickling cheap and deterministic.
_Unit = Tuple[int, ...]
_Group = Tuple[_Unit, ...]
#: Builds one unit's report (:func:`~repro.core.dp_greedy._unit_reporter`).
_Reporter = Callable[[_Unit], GroupReport]
#: Builds a solve's reporter: once in the parent, once in each pool worker.
_Recipe = Callable[[], _Reporter]


def _unit_label(unit: _Unit) -> str:
    """Human-readable span label: ``"pkg(1,2)"`` / ``"item(7)"``."""
    if len(unit) > 1:
        return "pkg(" + ",".join(map(str, unit)) + ")"
    return f"item({unit[0]})"


def _group_label(group: _Group) -> str:
    """A dispatch's label: its unit's own for a one-unit group, else
    ``"shard(3u@item(7))"`` (member count + first member)."""
    if len(group) == 1:
        return _unit_label(group[0])
    return f"shard({len(group)}u@{_unit_label(group[0])})"


#: The attributes of a unit span no span record keeps (runtime leg only).
_NO_ARGS: Dict[str, object] = {}


def _serve_group(
    report: _Reporter,
    group: _Group,
    *,
    attempt: int,
    plan: Optional[FaultPlan],
    in_subprocess: bool,
    observer: Optional[Observer],
    board=None,
) -> Tuple[GroupReport, ...]:
    """One attempt at a dispatch: its units' reports, in group order.

    Marks the dispatch started on the dispatcher's progress ``board``
    (the serial rung passes one; a pool marks it at submit), then fires
    the fault ``plan``'s draw for the dispatch, and ``report`` builds
    each unit's one report.  When the ``observer`` records spans or
    runtime telemetry, every unit solves inside its own ``phase2.solve``
    span, added with no span object per unit
    (:meth:`~repro.obs.observer.Observer.add_span`), and a multi-unit
    group records its whole solve, first span start to last span end, as
    ``phase2.shard_seconds``.  A ``corrupt`` draw poisons the first
    report.
    """
    if board is not None:
        board.unit_started(_group_label(group))
    corrupt = plan is not None and plan.before_solve(
        _group_label(group), attempt, in_subprocess=in_subprocess
    )
    timed = observer is not None and (observer.spans or observer.runtime)
    reports = []
    first = None
    for unit in group:
        if timed:  # no span or label on the default and ledger paths
            args = (
                {
                    "unit": _unit_label(unit),
                    "kind": "package" if len(unit) > 1 else "singleton",
                    "attempt": attempt,
                }
                if observer.spans
                else _NO_ARGS
            )
            start = clock()
            first = start if first is None else first
        try:
            reports.append(report(unit))
        finally:
            if timed:
                end = clock()
                observer.add_span("phase2.solve", "phase2", start, end, args)
    if timed and observer.runtime and len(group) > 1:
        observer.record(H_SHARD, end - first)
    if corrupt:
        reports[0] = FaultPlan.corrupt_report(reports[0])
    return tuple(reports)


# ---------------------------------------------------------------------------
# process-pool worker side: the recipe (and the sequence it binds) is shipped
# once per worker via the initializer (with fork it is inherited), not per dispatch.
# ---------------------------------------------------------------------------
_WORKER_REPORT: Optional[_Reporter] = None
_WORKER_OBSERVER: Optional[Observer] = None


def _init_worker(recipe: _Recipe, legs: Optional[Tuple[bool, bool, bool]]) -> None:
    """Process-pool initializer: builds this worker's reporter from the
    solve's ``recipe``; ``legs`` are the parent observer's
    ``(spans, runtime, ledger)`` settings (``None`` unobserved)."""
    global _WORKER_REPORT, _WORKER_OBSERVER
    _WORKER_REPORT = recipe()
    _WORKER_OBSERVER = (
        None
        if legs is None
        else Observer(spans=legs[0], runtime=legs[1], ledger=legs[2])
    )
    # under fork the worker inherits the parent's installed observer;
    # its sampler/watchdog threads did not survive the fork, so clear
    # it -- the worker observes through its own observer instead
    install(None)


def _serve_in_worker(group: _Group, attempt: int, plan: Optional[FaultPlan]):
    """The process-pool entry: one attempt at ``group`` in this worker.

    Returns ``(reports, payload)``: ``payload`` is the worker
    observer's :meth:`~repro.obs.observer.Observer.handoff` -- the
    spans and latency this dispatch recorded plus the worker's resource
    peaks, cleared from the worker as they ship -- or ``None`` when the
    solve is unobserved or keeps only a ledger.  The parent audits the
    reports.
    """
    observer = _WORKER_OBSERVER
    reports = _serve_group(
        _WORKER_REPORT, group,
        attempt=attempt, plan=plan, in_subprocess=True, observer=observer,
    )
    if observer is None or not (observer.spans or observer.runtime):
        return reports, None
    return reports, observer.handoff()


def _pool_start_method() -> str:
    """The multiprocessing start method the process pool uses.

    Prefers ``fork`` (workers inherit the sequence copy-on-write and the
    span clock's wall anchor byte-for-byte) and falls back to ``spawn``
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
    workers: int, recipe: _Recipe, legs: Optional[Tuple[bool, bool, bool]]
) -> ProcessPoolExecutor:
    ctx = multiprocessing.get_context(_pool_start_method())
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(recipe, legs),
    )


def dispatch_resilient(
    *,
    workers: int,
    recipe: _Recipe,
    units: Dict[int, _Group],
    config: ResilienceConfig,
    on_result=None,
    observer: Optional[Observer] = None,
) -> Tuple[Dict[int, Tuple[GroupReport, ...]], ResilienceCounters]:
    """Serve ``units`` (``index -> group``) fault-tolerantly.

    A group is a tuple of units, each the sorted tuple of its item ids,
    served in order by one worker (see :mod:`repro.engine.parallel`);
    retry, timeout, degradation, the finite-cost audit, and chaos draws
    apply per group.  Returns each
    group's reports by index (skipped groups absent) plus the counters.
    ``workers >= 2`` runs a process pool of that width, ``1`` the
    serial rung; a broken process pool degrades to the serial rung,
    which re-dispatches only unresolved groups.

    ``recipe()`` builds the solve's unit reporter (a bound
    :func:`~repro.core.dp_greedy._unit_reporter`, a package's report
    with its Observation-2 fields in): the parent calls it once, on
    first use, and each pool worker once, in its initializer.

    ``on_result(idx, reports)``, when given, fires as each group's
    audited reports land -- including results recovered on a degraded
    rung -- and never for skipped groups.  The sharded driver uses it to
    record completed shards into a crash-safe checkpoint as they finish.

    ``observer`` watches the dispatch: every unit solves in its span
    (see :func:`_serve_group`); retries,
    degradations and skips are marker spans; with the runtime leg
    dispatch roundtrips and backoff delays land in its histograms and
    completions/retries/degradations in its progress board (the stall
    watchdog flags silent in-flight dispatches via the same board); and
    process workers ship one observation payload per dispatch back.
    Every retry/timeout/degradation/skip, and a ``unit_timeout`` the
    serial rung cannot enforce, also emits a WARNING-level
    ``repro.engine.resilience`` log record tagged with a per-dispatch
    run id.
    """
    plan = config.resolve_chaos()
    counters = ResilienceCounters()
    rng = random.Random(plan.seed if plan is not None else 0)
    attempts: Dict[int, int] = dict.fromkeys(units, 0)  # failed tries so far
    results: Dict[int, tuple] = {}
    skipped: set = set()
    run_id = new_run_id()
    runtime = observer is not None and observer.runtime
    board = observer.board if runtime else None
    if board is not None and units:
        board.begin(len(units))

    labels: Dict[int, str] = {}  # the board and the logs ask twice a dispatch

    def label(idx: int) -> str:
        if idx not in labels:
            labels[idx] = _group_label(units[idx])
        return labels[idx]

    def accept(idx: int, reports: tuple) -> None:
        """The finite-cost audit of a dispatch's DP costs, then its
        result: recorded, on the board and through ``on_result``."""
        for report in reports:
            if not math.isfinite(report.package_cost):
                raise _CorruptResult(
                    f"unit {label(idx)} returned non-finite cost {report.total!r}"
                )
        results[idx] = reports
        if board is not None:
            board.unit_finished(label(idx), ok=True)
        if on_result is not None:
            on_result(idx, reports)

    def unresolved():
        return [idx for idx in units if idx not in results and idx not in skipped]

    reporter = None  # the parent's unit reporter, built on first use

    def parent_reporter():
        nonlocal reporter
        if reporter is None:
            reporter = recipe()
        return reporter

    def finalize_failure(idx: int, error) -> None:
        """Retries exhausted: apply the ``on_unit_error`` policy."""
        n = attempts[idx]
        if config.on_unit_error == "skip":
            skipped.add(idx)
            log.warning(
                "unit failed [run=%s unit=%s attempts=%d]: dropped "
                "(on_unit_error=skip)", run_id, label(idx), n,
            )
            if board is not None:
                board.unit_finished(label(idx), ok=False)
            with maybe_span(
                observer, "engine.unit_failed", cat="engine", unit=label(idx),
                attempts=n,
            ):
                pass
            return
        if config.on_unit_error == "degrade":
            # last resort: the trusted serial in-parent substrate, with
            # fault injection off (chaos models infrastructure faults).
            try:
                accept(
                    idx,
                    _serve_group(
                        parent_reporter(), units[idx], attempt=n + 1, plan=None,
                        in_subprocess=False, observer=observer, board=board,
                    ),
                )
                return
            except Exception as exc:
                raise UnitSolveError(label(idx), n + 1, exc) from exc
        if error == _TIMEOUT:
            raise UnitTimeoutError(label(idx), config.unit_timeout, n)
        cause = error if isinstance(error, BaseException) else None
        raise UnitSolveError(label(idx), n, cause)

    def on_failure(idx: int, error, backlog: list) -> None:
        """One attempt failed: schedule a retry or finalize."""
        attempts[idx] += 1
        if attempts[idx] <= config.retries:
            counters.retries += 1
            reason = (
                _TIMEOUT if error == _TIMEOUT else type(error).__name__
            )
            with maybe_span(
                observer, "engine.retry", cat="engine", unit=label(idx),
                attempt=attempts[idx], reason=reason,
            ):
                pass
            delay = _backoff_delay(attempts[idx], rng)
            log.warning(
                "retrying [run=%s unit=%s attempt=%d reason=%s backoff=%.3gs]",
                run_id, label(idx), attempts[idx], reason, delay,
            )
            if runtime:
                board.unit_retried(label(idx))
                observer.record(H_BACKOFF, delay)
            heapq.heappush(backlog, (time.monotonic() + delay, idx))
        else:
            finalize_failure(idx, error)

    # -- the serial rung (also the workers<=1 fast path) -----------------
    def run_serial_rung() -> None:
        pending = deque(unresolved())
        if pending and config.unit_timeout is not None:
            log.warning(
                "unit timeout not enforced [run=%s budget=%.3gs]: the serial "
                "rung runs every dispatch to completion; set workers >= 2 "
                "for a process pool that enforces it",
                run_id, config.unit_timeout,
            )
        report = parent_reporter()
        backlog: list = []
        while pending or backlog:
            if not pending:
                ready_at, idx = heapq.heappop(backlog)
                wait_s = ready_at - time.monotonic()
                if wait_s > 0:
                    time.sleep(wait_s)
                pending.append(idx)
                continue
            idx = pending.popleft()
            try:
                accept(
                    idx,
                    _serve_group(
                        report, units[idx], attempt=attempts[idx] + 1, plan=plan,
                        in_subprocess=False, observer=observer, board=board,
                    ),
                )
            except Exception as exc:
                on_failure(idx, exc, backlog)

    # -- the process pool: the only place Phase-2 work meets an executor --
    # A BrokenExecutor from submit() or a result ends the rung: the pool
    # is dead, and the ladder below decides what happens next.
    def run_process_rung() -> None:
        ex = _make_executor(
            workers, recipe,
            (observer.spans, observer.runtime, observer.ledger) if observer else None,
        )
        try:
            pending = deque(unresolved())
            backlog: list = []
            inflight: Dict[object, Tuple[int, Optional[float], float]] = {}
            # timed-out-but-running futures: they cannot be preempted,
            # so they keep occupying a worker until they finish on
            # their own; counting them against capacity keeps the
            # per-dispatch deadline measuring *execution*, not queue wait
            abandoned: set = set()
            while pending or backlog or inflight:
                now = time.monotonic()
                while backlog and backlog[0][0] <= now:
                    _, idx = heapq.heappop(backlog)
                    pending.append(idx)
                abandoned = {f for f in abandoned if not f.done()}
                capacity = workers - len(abandoned) - len(inflight)
                while pending and capacity > 0:
                    idx = pending.popleft()
                    fut = ex.submit(_serve_in_worker, units[idx], attempts[idx] + 1, plan)
                    submitted = time.monotonic()
                    deadline = (
                        submitted + config.unit_timeout
                        if config.unit_timeout is not None
                        else None
                    )
                    inflight[fut] = (idx, deadline, submitted)
                    # at most `workers` dispatches are in flight, so
                    # submit coincides with execution start
                    if board is not None:
                        board.unit_started(label(idx))
                    capacity -= 1
                if not inflight and not abandoned:
                    if backlog:
                        wait_s = backlog[0][0] - time.monotonic()
                        if wait_s > 0:
                            time.sleep(wait_s)
                    continue
                timeouts = [
                    dl for _i, dl, _t in inflight.values() if dl is not None
                ]
                if backlog:
                    timeouts.append(backlog[0][0])
                wait_for = (
                    max(0.0, min(timeouts) - time.monotonic())
                    if timeouts
                    else None
                )
                if board is not None and board.stall_after is not None:
                    # keep the dispatch loop itself checking heartbeats
                    # even when nothing else bounds the wait
                    cap = board.stall_after
                    wait_for = cap if wait_for is None else min(wait_for, cap)
                done, _ = wait(
                    list(inflight) + list(abandoned),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                if board is not None:
                    board.check_stalls()
                for fut in done:
                    if fut in abandoned:
                        abandoned.discard(fut)  # result already written off
                        continue
                    idx, _dl, submitted = inflight.pop(fut)
                    if runtime:
                        observer.record(H_DISPATCH, time.monotonic() - submitted)
                    try:
                        reports, shipped = fut.result()
                    except BrokenExecutor:
                        raise
                    except Exception as exc:
                        on_failure(idx, exc, backlog)
                        continue
                    if shipped is not None:
                        observer.absorb(shipped)
                    try:
                        accept(idx, reports)
                    except _CorruptResult as exc:
                        on_failure(idx, exc, backlog)
                # deadline sweep: cancel overdue futures still queued;
                # running solves cannot be preempted and move to the
                # abandoned set (blocking a worker until they finish)
                now = time.monotonic()
                overdue = [
                    fut
                    for fut, (_i, dl, _t) in inflight.items()
                    if dl is not None and dl <= now and not fut.done()
                ]
                for fut in overdue:
                    idx, _dl, _t = inflight.pop(fut)
                    if not fut.cancel():
                        abandoned.add(fut)
                    counters.timeouts += 1
                    log.warning(
                        "unit timeout [run=%s unit=%s attempt=%d budget=%.3gs]",
                        run_id, label(idx), attempts[idx] + 1,
                        config.unit_timeout,
                    )
                    on_failure(idx, _TIMEOUT, backlog)
        finally:
            ex.shutdown(wait=False, cancel_futures=True)

    # -- the degradation ladder: process -> serial -----------------------
    if workers > 1:
        try:
            run_process_rung()
            return results, counters
        except BrokenExecutor as cause:
            counters.pool_fallbacks += 1
            log.warning(
                "pool degraded [run=%s pool=process cause=%s]: falling back "
                "to serial", run_id, type(cause).__name__,
            )
            if board is not None:
                board.degraded("process")
            with maybe_span(
                observer, "engine.pool_fallback", cat="engine", pool="process",
                cause=type(cause).__name__,
            ):
                pass
    run_serial_rung()
    return results, counters
