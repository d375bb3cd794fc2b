"""Fault-tolerant dispatch: the one executor of Phase-2 work.

Every Phase-2 solve runs through :func:`dispatch_resilient`.  The
driver (:func:`repro.engine.parallel.serve_plan`) hands it dispatches
-- single units or groups of units -- and it runs them serially in the
parent or on a process pool, in the retry/timeout/degradation shape a
production serving stack uses, so one crashed worker
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
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import PoolBrokenError, ReproError, UnitSolveError, UnitTimeoutError
from ..logutil import new_run_id
from ..obs.observer import Observer, maybe_span
from ..obs.telemetry import H_BACKOFF, H_DISPATCH
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
        ``retries + 1``).
    backoff / backoff_max / jitter:
        Exponential backoff between a dispatch's retries:
        ``min(backoff * 2**(k-1), backoff_max)`` seconds before retry
        ``k``, stretched by a seeded uniform jitter of up to
        ``±jitter`` of itself (decorrelates retry storms without
        hurting determinism of the *results*).
    on_unit_error:
        Policy once retries are exhausted: ``"raise"`` (default),
        ``"degrade"`` (one final serial in-parent attempt), or
        ``"skip"`` (drop its units, count them in ``units_failed``).
    degrade_pool:
        Fall from a broken process pool to the serial rung (default);
        ``False`` surfaces :class:`~repro.errors.PoolBrokenError`
        instead.
    chaos:
        Fault injection: a :class:`~repro.engine.chaos.FaultPlan`,
        ``False`` to force injection off, or ``None`` (default) to
        consult the ``REPRO_CHAOS`` env knob.
    """

    unit_timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.02
    backoff_max: float = 0.5
    jitter: float = 0.25
    on_unit_error: str = "raise"
    degrade_pool: bool = True
    chaos: "FaultPlan | bool | None" = None

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0 or self.backoff_max < 0:
            raise ValueError("backoff/backoff_max must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
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


def _backoff_delay(config: ResilienceConfig, retry_no: int, rng: random.Random) -> float:
    base = min(config.backoff * (2.0 ** (retry_no - 1)), config.backoff_max)
    if config.jitter and base:
        base *= 1.0 + config.jitter * (2.0 * rng.random() - 1.0)
    return base


def dispatch_resilient(
    *,
    workers: int,
    seq,
    model,
    alpha: float,
    build_schedules: bool,
    units: Dict[int, tuple],
    config: ResilienceConfig,
    single_sided: dict,
    on_result=None,
    observer: Optional[Observer] = None,
) -> Tuple[Dict[int, tuple], ResilienceCounters]:
    """Serve ``units`` (``index -> group``) fault-tolerantly.

    A group is a tuple of units, each the sorted tuple of its item ids,
    served in order by one worker (see :mod:`repro.engine.parallel`);
    retry, timeout, degradation, the finite-cost audit, and chaos draws
    apply per group.  Returns each
    group's reports by index (skipped groups absent) plus the counters.
    ``workers >= 2`` runs a process pool of that width, ``1`` the
    serial rung; a broken process pool degrades to the serial rung,
    which re-dispatches only unresolved groups.

    ``on_result(idx, reports)``, when given, fires as each group's
    audited reports land -- including results recovered on a degraded
    rung -- and never for skipped groups.  The sharded driver uses it to
    record completed shards into a crash-safe checkpoint as they finish.

    ``single_sided`` maps each package to its Observation-2 report
    fields (:meth:`~repro.core.dp_greedy.SingleSidedPass.fields`), so a
    package's report is built once, where its DP runs.

    ``observer`` watches the dispatch: every unit solves in its span
    (see :func:`~repro.engine.parallel._serve_group`); retries,
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
    from .parallel import (
        _group_label,
        _make_executor,
        _serve_group,
        _serve_in_worker,
        _unit_reporter,
    )

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
            reporter = _unit_reporter(
                seq, model, alpha, single_sided,
                build_schedule=build_schedules,
                attribute=observer is not None and observer.ledger,
            )
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
            delay = _backoff_delay(config, attempts[idx], rng)
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
            workers, seq, model, alpha, build_schedules,
            (observer.spans, observer.runtime, observer.ledger) if observer else None,
            single_sided,
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
            if not config.degrade_pool:
                raise PoolBrokenError("process", cause) from cause
    run_serial_rung()
    return results, counters
