"""The always-on DP_Greedy serving engine.

The paper's algorithm is offline: a full request sequence in, a caching
plan out.  This module turns the *on-line* variant
(:class:`~repro.core.online_dpg.OnlineDPGreedyState`) into a
long-running asyncio service that accepts a stream of requests and
answers cache/transfer decisions while it runs, degrading gracefully
when traffic exceeds capacity:

ingress -> admission -> batch collector (bounded queue) -> batch solve

* **Admission** (:mod:`repro.serve.admission`): a token bucket rate
  limits at the door; the ingress queue is bounded and a full queue
  rejects with a retry-after hint (backpressure) instead of growing.
* **Batching** (:mod:`repro.serve.collector`): the collector owns the
  bounded ingress deque and groups it by max-batch-size + max-wait,
  with per-request deadline budgets propagated into the grouping wait.
* **Atomic state updates**: the only state mutator is
  ``OnlineDPGreedyState.step``, called synchronously inside
  ``_process_batch`` for exactly the requests that survived admission,
  deadlines, and chaos.  A shed, expired, or chaos-failed batch is
  resolved *before* any ``step`` runs, so correlation counts, package
  flags, and copy states never half-mutate.
* **Degradation ladder**: rate-limit reject -> queue-full reject ->
  deadline shed -> circuit breaker.  ``breaker_threshold`` consecutive
  batch failures (chaos-failed batches or deadline sheds) trip the
  breaker: background Phase-1 re-packing pauses and serving falls back
  to the plain per-item ski-rental policy of :mod:`repro.cache.online`
  (no packages, no correlation updates) until a cooldown probe batch
  succeeds and re-closes it.
* **Errors end serving**: a malformed request (empty item set, negative
  server, non-finite or negative ``time=`` hint) raises ``ValueError``
  from ``submit`` before it is counted or queued.  An exception that
  escapes a batch (a solver error) is not a breaker failure: the state
  may be half-stepped, so the engine fails that batch's callers and
  everyone queued behind them with the exception, stops admission
  (later submits reject with reason ``draining``), and ``drain()``
  re-raises it.
* **Background re-packing**: a periodic task runs the *offline-quality*
  Phase-1 packing (:func:`~repro.correlation.packing.greedy_pair_packing`)
  over the streaming statistics and publishes the refreshed plan; with
  ``repack_adopt=True`` it also adopts not-yet-formed packages into the
  serving state (off by default -- the default engine replays a trace
  bit-identically to :func:`~repro.core.online_dpg.solve_online_dp_greedy`).
* **Shutdown is a first-class path**: ``request_shutdown`` (wired to
  SIGTERM/SIGINT by the CLI) stops admission, flushes in-flight
  batches, finalizes the ski-rental state, and leaves the engine with
  exact totals for the final METRICS/PROM artefacts.
* **Observation**: with an :class:`~repro.obs.observer.Observer`
  every hop is metered -- with its runtime leg the
  ``serve.admit_seconds`` / ``serve.batch_wait_seconds`` /
  ``serve.solve_seconds`` / ``serve.e2e_seconds`` histograms and its
  :class:`~repro.obs.telemetry.ProgressBoard` batch heartbeats (a
  chaos-delayed batch trips the stall watchdog exactly like a stalled
  pool unit), with its spans leg one ``batch(<n>)`` span per batch --
  next to the engine's own ``serve.*`` counters.
* **Chaos**: ``REPRO_CHAOS`` injects on the service path per batch:
  ``delay`` sleeps (asynchronously) before the solve, ``crash`` /
  ``kill`` / ``corrupt`` fail the attempt before any mutation (corrupt
  downgrades to a pre-solve failure here precisely because a corrupted
  *applied* batch could not be retried without double-mutating).
"""

from __future__ import annotations

import asyncio
import logging
import math
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._records import dict_init
from ..cache.model import CostModel, Request
from ..cache.online import _SkiRentalUnit
from ..core.online_dpg import OnlineDPGreedyState
from ..correlation.packing import PackingPlan, greedy_pair_packing
from ..engine.chaos import FaultPlan, chaos_from_env
from ..obs.observer import Observer, maybe_span
from ..obs.telemetry import (
    H_ADMIT,
    H_BATCH_WAIT,
    H_E2E,
    H_SERVE_SOLVE,
    ProgressBoard,
)
from .admission import AdmissionConfig, CircuitBreaker, TokenBucket
from .collector import BatchCollector

log = logging.getLogger(__name__)

__all__ = ["ServeAnswer", "ServeConfig", "ServingEngine"]

#: ``ServeAnswer.status`` values.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_SHED = "shed"
STATUS_REJECTED = "rejected"


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs beyond the cost model and packing parameters.

    ``max_batch`` / ``max_wait`` shape the collector; ``admission``
    bundles the ingress ladder; ``repack_every`` (seconds) enables the
    background re-packing epochs, and ``repack_adopt`` lets an epoch
    adopt offline-proposed packages into the serving state (changes
    costs relative to the pure in-stream replay -- leave off when
    bit-identical replay matters).  ``batch_retries`` re-attempts a
    chaos-failed batch before shedding it.  ``chaos=None`` consults
    ``REPRO_CHAOS``; pass an explicit :class:`FaultPlan` (or
    ``chaos=FaultPlan()`` for never-inject) to pin it.
    """

    max_batch: int = 128
    max_wait: float = 0.002
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    min_observations: int = 5
    repack_every: Optional[float] = None
    repack_adopt: bool = False
    batch_retries: int = 1
    chaos: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if self.repack_every is not None and self.repack_every <= 0:
            raise ValueError("repack_every must be positive (or None)")
        if self.batch_retries < 0:
            raise ValueError("batch_retries must be non-negative")


@dict_init
@dataclass(frozen=True)
class ServeAnswer:
    """What the engine tells a client about one request.

    ``status`` is ``"ok"`` (served by the packaged on-line policy),
    ``"degraded"`` (served, but by the breaker-open ski-rental
    fallback), ``"shed"`` (admitted but dropped -- ``reason`` says
    why), or ``"rejected"`` (never admitted; ``retry_after`` carries
    the backoff hint).  ``paid`` is the cost charged at the serving
    instant; ``hits``/``transfers``/``ships`` classify the per-item
    decisions; ``latency`` is admission-to-answer seconds.
    """

    status: str
    reason: Optional[str] = None
    retry_after: Optional[float] = None
    time: float = 0.0
    paid: float = 0.0
    hits: int = 0
    transfers: int = 0
    ships: int = 0
    latency: float = 0.0

    @property
    def served(self) -> bool:
        return self.status in (STATUS_OK, STATUS_DEGRADED)


#: What a batch resolves a request's future with: the answer's plain
#: fields ``(status, reason, paid, hits, transfers, ships)``.  ``submit``
#: builds the one :class:`ServeAnswer` from them.
_Result = Tuple[str, Optional[str], float, int, int, int]


class _Pending:
    """One admitted request waiting for its batch."""

    __slots__ = ("request", "submitted", "deadline", "future")

    def __init__(self, request, submitted, deadline, future):
        self.request = request
        self.submitted = submitted
        self.deadline = deadline
        self.future = future


class ServingEngine:
    """Long-running asyncio engine answering caching decisions online.

    Lifecycle: ``await start()`` spins up the batch loop (and the
    re-packing loop when configured); ``await submit(...)`` per
    request; ``await drain()`` stops admission, flushes in-flight
    batches, finalizes costs, and stops the loops.  ``request_shutdown``
    is the signal-safe trigger for the same drain (the CLI wires it to
    SIGTERM/SIGINT).  The engine is single-loop: all state mutation
    happens on the event loop thread, batch by batch.
    """

    def __init__(
        self,
        model: CostModel,
        *,
        theta: float,
        alpha: float,
        origin: int = 0,
        config: Optional[ServeConfig] = None,
        observer: Optional[Observer] = None,
        clock=time.monotonic,
    ) -> None:
        self.model = model
        self.config = config or ServeConfig()
        self.clock = clock
        # the runtime leg meters every hop; the spans leg traces batches
        self._runtime = observer if observer is not None and observer.runtime else None
        self._spans = observer if observer is not None and observer.spans else None
        self.state = OnlineDPGreedyState(
            model,
            theta=theta,
            alpha=alpha,
            origin=origin,
            min_observations=self.config.min_observations,
        )
        adm = self.config.admission
        self.bucket = TokenBucket(adm.rate, adm.burst, clock=clock)
        self.breaker = CircuitBreaker(
            adm.breaker_threshold, adm.breaker_cooldown, clock=clock
        )
        self.chaos = (
            self.config.chaos if self.config.chaos is not None else chaos_from_env()
        )
        self.board: ProgressBoard = (
            self._runtime.board if self._runtime is not None else ProgressBoard()
        )
        self.collector = BatchCollector(
            limit=adm.queue_limit,
            max_batch=self.config.max_batch,
            max_wait=self.config.max_wait,
            clock=clock,
        )
        # degraded-mode state: plain per-item ski-rental, fully separate
        # from the packaged state so overload never perturbs Phase 1
        self._degraded_units: Dict[int, _SkiRentalUnit] = {}
        self._degraded_cost = 0.0
        self.last_plan: Optional[PackingPlan] = None

        self._counters: Dict[str, float] = {
            "serve.submitted": 0,
            "serve.admitted": 0,
            "serve.answered": 0,
            "serve.rejected": 0,
            "serve.rate_limited": 0,
            "serve.queue_full": 0,
            "serve.shed": 0,
            "serve.shed_deadline": 0,
            "serve.shed_chaos": 0,
            "serve.degraded": 0,
            "serve.batches": 0,
            "serve.chaos_injected": 0,
            "serve.breaker_open": 0,
            "serve.repacks": 0,
            "serve.packages_formed": 0,
            "serve.packages_adopted": 0,
        }
        self._t0 = clock()
        self._last_assigned = -1.0  # request times are >= 0
        self._batch_seq = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._batch_task: Optional[asyncio.Task] = None
        self._repack_task: Optional[asyncio.Task] = None
        self._final_total: Optional[float] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "ServingEngine":
        if self._batch_task is None:
            self._batch_task = asyncio.create_task(
                self._batch_loop(), name="repro-serve-batches"
            )
            if self.config.repack_every is not None:
                self._repack_task = asyncio.create_task(
                    self._repack_loop(), name="repro-serve-repack"
                )
        return self

    def request_shutdown(self) -> None:
        """Signal-safe drain trigger: stop admitting, then drain."""
        if not self._shutdown.is_set():
            log.info("serve: shutdown requested, draining")
            self._shutdown.set()
            self._draining = True
            # wake the collector without violating the queue bound; a
            # full queue means the batch loop is behind, and it will see
            # _draining once the queue empties
            self.collector.put(None)

    async def drain(self) -> float:
        """Stop admission, flush in-flight batches, finalize costs.

        Returns the exact total cost (packaged state flushed at last
        use + degraded-mode ski-rental cost).  Idempotent.
        """
        self.request_shutdown()
        if self._batch_task is not None:
            await self._batch_task
            self._batch_task = None
        if self._repack_task is not None:
            self._repack_task.cancel()
            try:
                await self._repack_task
            except asyncio.CancelledError:
                pass
            self._repack_task = None
        if self._final_total is None:
            total = self.state.finalize().total_cost
            for unit in self._degraded_units.values():
                self._degraded_cost += unit.flush()
            self._final_total = total + self._degraded_cost
        self._drained.set()
        return self._final_total

    async def wait_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` fires (signal or code)."""
        await self._shutdown.wait()

    def install_signal_handlers(
        self, loop: Optional[asyncio.AbstractEventLoop] = None
    ) -> None:
        """Wire SIGTERM/SIGINT to the drain path (graceful shutdown).

        Uses the loop's signal machinery where available (Unix) and
        falls back to plain :func:`signal.signal` elsewhere -- either
        way a termination signal stops admission and lets the in-flight
        work flush instead of killing it mid-batch."""
        loop = loop if loop is not None else asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(
                    sig,
                    lambda *_: loop.call_soon_threadsafe(self.request_shutdown),
                )

    def total_cost(self) -> float:
        """Exact final cost; only defined after :meth:`drain`."""
        if self._final_total is None:
            raise RuntimeError("engine not drained yet")
        return self._final_total

    # -- ingress ---------------------------------------------------------
    async def submit(
        self,
        server: int,
        items,
        *,
        time: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> ServeAnswer:
        """Offer one request; resolves with the serving decision.

        The request is validated at the door: an empty item set, a
        negative server or a non-finite or negative ``time`` hint raises
        ``ValueError`` before anything is counted or queued.
        ``deadline`` (seconds of budget, default from the admission
        config) bounds queue + batching + solve; an expired request is
        shed, never half-served.  Rejections return immediately.
        """
        if time is not None and not 0.0 <= time < math.inf:
            raise ValueError(
                f"time hint must be finite and non-negative, got {time!r}"
            )
        t_submit = self.clock()
        # strictly increasing logical time: a hint (trace replay) is
        # honoured when it advances the clock, otherwise wall seconds
        # since engine start, bumped past the last *assigned* instant.
        # Assignment happens at admission, so queued requests already
        # hold ordered times (the paper's one-request-per-instant
        # assumption, enforced end to end).
        last = self._last_assigned
        if time is not None and time > last:
            logical = float(time)
        else:
            logical = max(0.0, t_submit - self._t0)
            if logical <= last:
                logical = math.nextafter(last, math.inf)
        request = Request(int(server), logical, frozenset(items))
        counters = self._counters
        counters["serve.submitted"] += 1
        if self._draining:
            counters["serve.rejected"] += 1
            return ServeAnswer(STATUS_REJECTED, "draining")
        retry = self.bucket.try_acquire(t_submit)
        if retry > 0.0:
            counters["serve.rejected"] += 1
            counters["serve.rate_limited"] += 1
            return ServeAnswer(STATUS_REJECTED, "rate-limit", retry)
        self._last_assigned = logical
        budget = deadline if deadline is not None else self.config.admission.deadline
        future = asyncio.get_running_loop().create_future()
        pending = _Pending(
            request,
            t_submit,
            t_submit + budget if budget is not None else None,
            future,
        )
        if not self.collector.put(pending):
            counters["serve.rejected"] += 1
            counters["serve.queue_full"] += 1
            return ServeAnswer(
                STATUS_REJECTED, "queue-full", self.config.admission.retry_after
            )
        counters["serve.admitted"] += 1
        runtime = self._runtime
        if runtime is not None:
            runtime.record(H_ADMIT, self.clock() - t_submit)
        status, reason, paid, hits, transfers, ships = await future
        latency = self.clock() - t_submit
        if runtime is not None:
            runtime.record(H_E2E, latency)
        return ServeAnswer(
            status, reason, None, logical, paid, hits, transfers, ships, latency
        )

    # -- the batch loop --------------------------------------------------
    async def _batch_loop(self) -> None:
        batch: List[_Pending] = []
        try:
            while True:
                batch = await self.collector.collect()
                if batch:
                    await self._process_batch(batch)
                if self._draining and len(self.collector) == 0:
                    break
        except Exception as exc:
            # the state may be half-stepped: stop admission and fail
            # this batch's callers and everyone queued behind them
            log.error("serve: batch failed, stopping: %r", exc)
            self._draining = True
            self._shutdown.set()
            stranded = list(batch)
            stranded += [p for p in self.collector.take_all() if p is not None]
            for p in stranded:
                if not p.future.done():
                    p.future.set_exception(exc)
            raise

    def _shed(self, pending: _Pending, reason: str) -> None:
        counters = self._counters
        counters["serve.shed"] += 1
        counters[f"serve.shed_{reason}"] += 1
        counters["serve.answered"] += 1
        if not pending.future.done():
            pending.future.set_result((STATUS_SHED, reason, 0.0, 0, 0, 0))

    async def _process_batch(self, batch: List[_Pending]) -> None:
        self._batch_seq += 1
        self._counters["serve.batches"] += 1
        label = f"batch({self._batch_seq})"
        self.board.begin(1)
        self.board.unit_started(label)
        try:
            with maybe_span(self._spans, label, "serve", requests=len(batch)):
                await self._process_batch_inner(batch, label)
        finally:
            self.board.unit_finished(label)

    async def _process_batch_inner(self, batch: List[_Pending], label: str) -> None:
        now = self.clock()
        live = []
        expired = 0
        for p in batch:
            if p.deadline is not None and now > p.deadline:
                self._shed(p, "deadline")
                expired += 1
            else:
                live.append(p)

        # the breaker decision comes first: an OPEN breaker routes the
        # batch around the (failing) packaged solver path entirely --
        # degraded serving bypasses chaos exactly like it bypasses the
        # solver, which is the point of degrading
        packaged = self.breaker.allow(now)

        # ---- chaos (REPRO_CHAOS on the service path): fires *before*
        # any state mutation, so a failed batch sheds clean
        failed_attempts = 0
        if packaged and self.chaos is not None and live:
            attempt = 0
            while True:
                attempt += 1
                kind = self.chaos.fault_for(label, attempt)
                if kind is None:
                    break
                self._counters["serve.chaos_injected"] += 1
                log.warning(
                    "serve chaos: injected %s [%s attempt=%d]", kind, label, attempt
                )
                if kind == "delay":
                    # an injected stall: the ProgressBoard watchdog flags
                    # it (engine.stalls) while the batch sits here
                    await asyncio.sleep(self.chaos.delay_seconds)
                    break
                failed_attempts += 1
                if failed_attempts > self.config.batch_retries:
                    for p in live:
                        self._shed(p, "chaos")
                    self._record_breaker_failure()
                    return
            # the delay (or the retries) consumed wall time: re-check
            # deadlines so a timed-out batch sheds, not half-serves
            now = self.clock()
            still = []
            for p in live:
                if p.deadline is not None and now > p.deadline:
                    self._shed(p, "deadline")
                    expired += 1
                else:
                    still.append(p)
            live = still

        if expired:
            self._record_breaker_failure()
        if not live:
            return

        runtime = self._runtime
        if runtime is not None:
            for p in live:
                runtime.record(H_BATCH_WAIT, now - p.submitted)
            t0 = self.clock()
        if packaged:
            results = self._apply_packaged(live)
            if not expired and failed_attempts == 0:
                self.breaker.record_success()
        else:
            results = self._apply_degraded(live)
        if runtime is not None:
            runtime.record(H_SERVE_SOLVE, self.clock() - t0)
        self._counters["serve.answered"] += len(live)
        for p, result in zip(live, results):
            if not p.future.done():
                p.future.set_result(result)

    def _record_breaker_failure(self) -> None:
        before = self.breaker.state
        self.breaker.record_failure()
        if self.breaker.state == "open" and before != "open":
            self._counters["serve.breaker_open"] += 1
            log.warning(
                "serve: circuit breaker OPEN after %d consecutive failures "
                "-- degrading to plain ski-rental, re-packing paused",
                self.breaker.failures,
            )

    def _apply_packaged(self, live: List[_Pending]) -> List[_Result]:
        """The healthy path: one atomic sweep of on-line DP_Greedy steps."""
        results = []
        step = self.state.step
        for p in live:
            out = step(p.request)
            if out.formed:
                self._counters["serve.packages_formed"] += len(out.formed)
            results.append(
                (STATUS_OK, None, out.paid, out.hits, out.transfers, out.ships)
            )
        return results

    def _apply_degraded(self, live: List[_Pending]) -> List[_Result]:
        """Breaker-open fallback: plain per-item ski-rental serving.

        Runs on a *separate* unit map at individual rates -- the
        2-competitive policy of :mod:`repro.cache.online` -- and never
        touches the packaged state or the correlation counts, so a
        degraded interval cannot corrupt Phase-1 statistics.
        """
        results = []
        mu, lam = self.model.mu, self.model.lam
        origin = self.state.origin
        units = self._degraded_units
        for p in live:
            s, t, items = p.request.server, p.request.time, p.request.items
            paid = 0.0
            hits = transfers = 0
            for d in sorted(items):
                unit = units.get(d)
                if unit is None:
                    unit = units[d] = _SkiRentalUnit(origin, t, mu, lam)
                if unit.serve(s, t):
                    paid += unit.lam
                    transfers += 1
                else:
                    hits += 1
            results.append((STATUS_DEGRADED, None, paid, hits, transfers, 0))
        self._counters["serve.degraded"] += len(live)
        return results

    # -- background re-packing ------------------------------------------
    async def _repack_loop(self) -> None:
        assert self.config.repack_every is not None
        while not self._draining:
            await asyncio.sleep(self.config.repack_every)
            if self._draining:
                break
            if self.breaker.state != "closed":
                # tripped: re-packing is the expensive O(k^2) leg, shed
                # it first and let the probe re-enable it
                continue
            self.repack()

    def repack(self) -> Optional[PackingPlan]:
        """One re-packing epoch: offline-quality Phase 1 over the
        streaming statistics.

        Publishes the refreshed plan (``last_plan``) and, with
        ``repack_adopt``, adopts proposed packages whose members the
        monotone in-stream rule has not engaged yet.  Read-only on the
        correlation counts by construction.
        """
        if self.state.requests_seen == 0:
            return None
        plan = greedy_pair_packing(self.state.stats, self.state.theta)
        self.last_plan = plan
        self._counters["serve.repacks"] += 1
        if self.config.repack_adopt:
            t = math.nextafter(self.state.last_time, math.inf)
            for pair in plan.packages:
                if self.state.adopt_package(pair, t):
                    self._counters["serve.packages_adopted"] += 1
                    t = math.nextafter(t, math.inf)
        return plan

    # -- introspection ---------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Current ``serve.*`` counters plus breaker/board health."""
        out = dict(self._counters)
        out["serve.breaker_trips"] = self.breaker.trips
        out["serve.breaker_reopens"] = self.breaker.reopens
        out["serve.queue_depth"] = len(self.collector)
        out["serve.packages_live"] = len(self.state.package_units)
        out["engine.stalls"] = self.board.stalls
        return out

    def stats(self) -> Dict[str, object]:
        """JSON-ready engine snapshot (counters + breaker + uptime)."""
        return {
            "uptime_seconds": self.clock() - self._t0,
            "breaker_state": self.breaker.state,
            "draining": self._draining,
            "counters": self.counters(),
        }
