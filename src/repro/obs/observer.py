"""The observer: the one way observation enters a solve.

An :class:`Observer` is the ``observer=`` argument of every solve and
serve entry point, from the CLI and the sweep harnesses down to the
process-pool workers.  Its primitive is the span (:class:`Span`): each
instrumented region is timed once, and everything else derives from
that measurement.  Three legs, each off by default, pick what the spans
feed:

``spans=True``
    Keep every span as a :class:`SpanRecord` -- per unit, per memo
    probe, per retry, including spans shipped back from pool workers --
    for the Chrome trace (:meth:`Observer.to_chrome`: one ``pid`` track per
    process, one ``tid`` row per thread, Perfetto-loadable) and the
    METRICS ``spans`` section.
``runtime=True``
    The runtime parts: ``phase2.solve`` spans feed the
    ``phase2.solve_seconds`` latency histogram, and the dispatch
    layers record their own latencies; a :class:`ResourceSampler`, a
    :class:`ProgressBoard` and its stall watchdog run while the
    observer is started (a solve starts an un-started observer for its
    duration).
``ledger=True``
    The METRICS leg: every solve appends one
    :class:`~repro.obs.metrics.RunRecord` to :attr:`Observer.runs` (its
    phase aggregates, counters and the other legs' sections, rendered
    by :meth:`Observer.metrics`), every serving unit reports its
    per-request cost attribution, and each run keeps a
    :class:`~repro.obs.ledger.CostLedger` that must reconcile with the
    reported total.

Observation never changes an answer: plans, costs and reports are
bit-identical with or without an observer, apart from the
``attribution`` the ledger asks for.  Without one the hot paths pay one
``None`` check (:func:`maybe_span`).

Clock model
-----------
Spans are timestamped on a *wall-anchored monotonic clock*: at import,
each process records the pair ``(time.time(), time.perf_counter())``
once, and every span record starts at ``wall0 + (perf_counter() - mono0)``.
Within a process this is exactly as monotonic as ``perf_counter``;
across processes it is aligned to wall-clock precision.  Under the
``fork`` start method (the engine's default) workers inherit the parent
anchor byte-for-byte, so parent and worker spans share one timeline with
no offset at all; under ``spawn`` the worker re-anchors and alignment is
as good as the host's wall clock (~ms), which is ample for pool-dispatch
granularity.  Worker records already carry the worker's real ``pid``
and ``tid``, so the merged trace shows every worker as its own track.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .ledger import CostLedger
from .metrics import RunRecord, metrics_snapshot
from .telemetry import (
    H_SOLVE,
    LatencyHistogram,
    ProgressBoard,
    ResourceSampler,
    Ticker,
    worker_usage,
)

__all__ = [
    "PHASES",
    "Observer",
    "Span",
    "SpanRecord",
    "active",
    "clock",
    "install",
    "maybe_span",
    "write_chrome_trace",
]

# Per-process wall anchor: span time = _WALL0 + (perf_counter() - _MONO0).
# Forked workers inherit these values, so their spans land on the parent
# timeline exactly; spawned workers re-anchor at module import.
_WALL0 = time.time()
_MONO0 = time.perf_counter()

#: The span clock: ``start``/``end`` stamps of every span.
clock = time.perf_counter


class SpanRecord(NamedTuple):
    """One finished span: ``start`` on the wall-anchored clock,
    ``duration`` in seconds, the ``pid``/``tid`` that ran it, and its
    attributes (``{"memo": "hit"}``); picklable, so workers ship it."""

    name: str
    cat: str
    start: float
    duration: float
    pid: int
    tid: int
    args: Dict[str, object]


class Span:
    """An open span: times its block once (``start``/``end`` on
    :func:`clock`), takes attributes via ``set`` before it closes, and
    is added to its observer on exit -- also on exception, so failed
    regions still show."""

    __slots__ = ("observer", "name", "cat", "args", "start", "end")

    def __init__(self, observer, name: str, cat: str, args: Dict[str, object]):
        self.observer = observer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, key: str, value: object) -> None:
        self.args[key] = value

    def __enter__(self) -> "Span":
        self.start = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = clock()
        self.observer.add_span(self.name, self.cat, self.start, self.end, self.args)


class _NullSpan:
    """The shared no-op span of an unobserved region."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def maybe_span(observer, name: str, cat: str = "phase", **args: object):
    """``observer.span(...)``, or a shared no-op without an observer: the
    unobserved path costs one ``None`` check and no allocation."""
    if observer is None:
        return _NULL_SPAN
    return observer.span(name, cat, **args)


def write_chrome_trace(
    trace: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Persist a :meth:`Observer.to_chrome` payload as JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace, indent=2) + "\n")
    return out


#: The span names whose aggregates form the METRICS ``phases`` section.
PHASES = ("phase1.similarity", "phase1.packing", "phase2.serve")


class Observer:
    """Spans, runtime telemetry and the cost ledger of one or more solves.

    Thread-safe: any thread may close spans into it, and :meth:`absorb`
    folds in what a process-pool worker's own observer handed over.  One solve at a time owns the open run.  ``stall_after``,
    ``sample_interval`` and ``max_samples`` configure the runtime parts.
    """

    def __init__(
        self,
        *,
        spans: bool = False,
        runtime: bool = False,
        ledger: bool = False,
        stall_after: Optional[float] = None,
        sample_interval: float = 0.25,
        max_samples: int = 2048,
    ) -> None:
        self.spans, self.runtime, self.ledger = bool(spans), bool(runtime), bool(ledger)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._totals: Dict[str, List[float]] = {}
        self._hists: Dict[str, LatencyHistogram] = {}
        self._past: Dict[str, LatencyHistogram] = {}
        self._workers: Dict[int, Dict[str, object]] = {}
        #: Finished run records, one per ledger-observed solve, oldest first.
        self.runs: List[RunRecord] = []
        #: The open run of the solve in flight (or begun by the caller).
        self.run: Optional[RunRecord] = None
        self.board = ProgressBoard(stall_after=stall_after) if runtime else None
        self.sampler = ResourceSampler(sample_interval, max_samples) if runtime else None
        self._watchdog = Ticker(
            lambda: self.board.check_stalls(),
            lambda: min(max(self.board.stall_after / 4.0, 0.01), 0.5),
            "repro-stall-watchdog",
        )
        self.started = False

    # -- lifecycle of the runtime parts ---------------------------------
    def start(self) -> "Observer":
        if self.started or not self.runtime:
            return self
        self.started = True
        self.sampler.start()
        if self.board.stall_after is not None:
            self._watchdog.start()
        return self

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self._watchdog.stop()
        self.sampler.stop()

    def __enter__(self) -> "Observer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- spans -----------------------------------------------------------
    def span(self, name: str, cat: str = "phase", **args: object) -> Span:
        """Time the enclosed block once as span ``name`` (see module
        docstring for what the legs derive from it)."""
        return Span(self, name, cat, args)

    def add_span(
        self, name: str, cat: str, start: float, end: float, args: Dict[str, object]
    ) -> None:
        """Add one span the caller stamped with :func:`clock`: the
        allocation-free form of :meth:`span`, for per-unit hot loops."""
        duration = end - start
        if name == "phase2.solve":
            if self.runtime:
                self.record(H_SOLVE, duration)
            if not self.spans:
                return
        elif not self.spans and name not in PHASES:
            return
        with self._lock:
            self._add_total(name, duration)
            if self.spans:
                self._records.append(
                    SpanRecord(
                        name, cat, _WALL0 + (start - _MONO0), duration,
                        os.getpid(), threading.get_ident(), args,
                    )
                )

    def _add_total(self, name: str, seconds: float) -> None:
        slot = self._totals.setdefault(name, [0.0, 0])
        slot[0] += seconds
        slot[1] += 1

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {seconds, calls}}`` of the spans closed since the
        current run began: every name with ``spans=True``, the
        :data:`PHASES` otherwise."""
        with self._lock:
            return {
                name: {"seconds": sec, "calls": int(calls)}
                for name, (sec, calls) in sorted(self._totals.items())
            }

    def mark(self) -> int:
        """Current span-record count; pass to :meth:`records` or
        :meth:`to_chrome` as ``since`` to scope one sweep's window."""
        with self._lock:
            return len(self._records)

    def records(self, since: int = 0) -> Tuple[SpanRecord, ...]:
        """Kept span records (``spans=True``), optionally from a mark."""
        with self._lock:
            return tuple(self._records[since:])

    def to_chrome(self, since: int = 0) -> Dict[str, object]:
        """The kept spans as Chrome trace-event JSON (Perfetto-loadable):
        microseconds from the earliest span, one ``"X"`` event per span,
        and ``"M"`` events naming each process track (pool workers as
        ``pool worker <pid>``)."""
        records = self.records(since)
        t0 = min((r.start for r in records), default=0.0)
        own_pid = os.getpid()
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "dp_greedy" if pid == own_pid else f"pool worker {pid}"},
            }
            for pid in sorted({r.pid for r in records})
        ]
        for rec in sorted(records, key=lambda r: (r.start, -r.duration)):
            events.append(
                {
                    "ph": "X",
                    "name": rec.name,
                    "cat": rec.cat,
                    "ts": (rec.start - t0) * 1e6,
                    "dur": rec.duration * 1e6,
                    "pid": rec.pid,
                    "tid": rec.tid,
                    "args": dict(rec.args),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- latency histograms ----------------------------------------------
    def record(self, name: str, seconds: float) -> None:
        """One latency observation into histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            with self._lock:
                hist = self._hists.setdefault(name, LatencyHistogram())
        hist.record(seconds)

    def cumulative_latency(self) -> Dict[str, Dict[str, object]]:
        """All recordings since construction (past runs + current)."""
        with self._lock:
            merged: Dict[str, LatencyHistogram] = {}
            for hists in (self._past, self._hists):
                for name, hist in hists.items():
                    merged.setdefault(name, LatencyHistogram()).merge(hist)
        return {name: merged[name].snapshot() for name in sorted(merged)}

    # -- resources -------------------------------------------------------
    def resources_snapshot(self) -> Dict[str, object]:
        with self._lock:
            workers = {str(pid): dict(rec) for pid, rec in self._workers.items()}
        return {"parent": self.sampler.snapshot(), "workers": workers}

    # -- pool workers ----------------------------------------------------
    def handoff(self):
        """Everything this (worker-side) observer recorded since the last
        handoff, as one picklable payload, and cleared: ``(pid,
        records, histogram snapshots, peak_rss_bytes, cpu_seconds)``."""
        with self._lock:
            records, self._records = self._records, []
            hists, self._hists = self._hists, {}
            self._totals = {}
        peak_rss, cpu = worker_usage() if self.runtime else (0, 0.0)
        snaps = {name: hist.snapshot() for name, hist in hists.items()}
        return os.getpid(), records, snaps, peak_rss, cpu

    def absorb(self, payload) -> None:
        """Fold one :meth:`handoff` payload from a pool worker in."""
        pid, records, hists, peak_rss, cpu = payload
        with self._lock:
            self._records.extend(records)
            for rec in records:
                self._add_total(rec.name, rec.duration)
            if self.runtime:
                usage = self._workers.setdefault(
                    pid, {"peak_rss_bytes": 0, "cpu_seconds": 0.0, "results": 0}
                )
                usage["peak_rss_bytes"] = max(usage["peak_rss_bytes"], peak_rss)
                usage["cpu_seconds"] = max(usage["cpu_seconds"], cpu)
                usage["results"] += 1
            for name, snap in hists.items():
                hist = LatencyHistogram.from_snapshot(snap)
                self._hists.setdefault(name, LatencyHistogram()).merge(hist)

    # -- runs --------------------------------------------------------------
    def begin_run(self, **point: object) -> RunRecord:
        """Open the run record the next solve fills (ledger leg only),
        tagged with sweep coordinates; a solve opens an untagged one by
        itself.  Starts the run's span-total and latency windows."""
        self.run = RunRecord(point, CostLedger() if self.ledger else None)
        with self._lock:
            for name, hist in self._hists.items():
                self._past.setdefault(name, LatencyHistogram()).merge(hist)
            self._hists = {}
            self._totals = {}
        return self.run

    def end_run(
        self,
        total_cost: float,
        *,
        units: int,
        engine_stats: Optional[object] = None,
        memo: Optional[object] = None,
    ) -> RunRecord:
        """Close the open run: counters, span aggregates, the runtime
        snapshots, and the ledger's reconciliation against
        ``total_cost`` (raising
        :class:`~repro.obs.ledger.LedgerReconciliationError` on a gap)."""
        run, self.run = self.run, None
        counters = run.counters
        counters["phase2.units"] = units
        if engine_stats is not None:
            for key, value in dataclasses.asdict(engine_stats).items():
                counters[f"engine.{key}"] = value
            counters["engine.memo_hit_rate"] = engine_stats.memo_hit_rate
        if memo is not None:
            for key, value in memo.stats().items():
                counters[f"memo.{key}"] = value
        totals = self.totals()
        run.phases = {name: rec for name, rec in totals.items() if name in PHASES}
        run.spans = totals if self.spans else {}
        if self.runtime:
            with self._lock:
                hists = dict(self._hists)
            run.latency = {name: hists[name].snapshot() for name in sorted(hists)}
            run.resources = self.resources_snapshot()
        run.total_cost = float(total_cost)
        if run.ledger is not None:
            run.reconciliation_error = run.ledger.reconcile(total_cost)
        self.runs.append(run)
        return run

    def metrics(self, since: int = 0) -> Dict[str, object]:
        """The METRICS snapshot of the runs from index ``since`` on."""
        return metrics_snapshot(self.runs[since:])


# -- the process-wide observer (the CLI hookup) ------------------------------
_ACTIVE: Optional[Observer] = None


def install(observer: Optional[Observer]) -> Optional[Observer]:
    """Install (or clear, with ``None``) the process-wide observer.

    Solves with no ``observer=`` argument pick up the installed one via
    :func:`active`, which is how CLI flags reach solves buried inside
    experiment harnesses.  Returns the previously installed observer.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, observer
    return previous


def active() -> Optional[Observer]:
    """The process-wide observer, or ``None``."""
    return _ACTIVE
