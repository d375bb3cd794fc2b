"""Runtime telemetry plane: latency quantiles, resource sampling, progress.

The metrics stack of :mod:`repro.obs.metrics` reports *totals* -- phase
wall-time sums, per-span ``{seconds, calls}``, counters.  Totals cannot
answer the questions a long-running or latency-sensitive solve raises:
what is the p99 per-unit solve time, how much memory did the pool peak
at, is shard 7 stuck?  This module adds the runtime leg of the obs
stack, in four pieces:

* :class:`LatencyHistogram` -- a streaming log-bucket histogram.  Every
  observation lands in the bucket ``floor(log2(v / BASE) * SUBBUCKETS)``
  (a sparse ``index -> count`` dict), so two histograms built anywhere
  (pool workers, shard workers, other processes, other runs) merge by
  elementwise addition and the merged quantiles are *deterministic* --
  independent of merge order and of which worker saw which sample.
  With ``SUBBUCKETS = 8`` buckets per octave the relative width of a
  bucket is ``2**(1/8) - 1`` (~9.05%), which bounds the quantile error:
  a reported quantile lies in ``[q_true, q_true * 2**(1/8)]`` before
  clamping into the exactly-tracked ``[min, max]``.
* :class:`ResourceSampler` -- a daemon thread sampling parent RSS / CPU
  / thread count / open fds from ``/proc`` and :mod:`resource` (no
  psutil); pool workers ship their ``getrusage`` peaks back with their
  results (:class:`WorkerUnitStats`).
* :class:`ProgressBoard` -- completion / retry / degradation events
  from the dispatch layers, ETA, and a stall watchdog that flags units
  silent for longer than ``stall_after`` seconds *before* any
  ``unit_timeout`` fires (surfaced as the ``engine.stalls`` counter).
* Exposition -- :func:`write_prometheus` (text format v0.0.4 rendered
  from a METRICS v3 snapshot) and :func:`render_dashboard` /
  :class:`ProgressRenderer` (a live TTY view built on
  :mod:`repro.viz.ascii`).

Everything is strictly opt-in and observation-only: a solve with a
:class:`Telemetry` attached produces bit-identical costs, plans, and
reports to the same solve without one.
"""

from __future__ import annotations

import logging
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

log = logging.getLogger(__name__)

__all__ = [
    "LatencyHistogram",
    "ProgressBoard",
    "ProgressRenderer",
    "PrometheusFlusher",
    "ResourceSampler",
    "Telemetry",
    "WorkerUnitStats",
    "active",
    "install",
    "live_snapshot",
    "render_dashboard",
    "render_prometheus",
    "sample_resources",
    "worker_usage",
    "write_prometheus",
    "PROM_LINE_RE",
]

# -- histogram names recorded by the engine (pinned by tests/docs) ----------
#: Per-unit Phase-2 solve latency (packages/singletons, including units
#: served inside shard workers).
H_SOLVE = "phase2.solve_seconds"
#: Whole-shard solve latency inside the worker.
H_SHARD = "phase2.shard_seconds"
#: Parent-side dispatch roundtrip (submit -> audited result) of the
#: resilient dispatcher, per dispatch unit (unit or shard).
H_DISPATCH = "engine.dispatch_seconds"
#: Backoff delays scheduled between a unit's retries.
H_BACKOFF = "engine.backoff_seconds"

# -- histogram names recorded by the serving engine (repro.serve) -----------
#: Admission roundtrip: submit -> request enqueued (token-bucket wait
#: excluded -- a rejected request never records).
H_ADMIT = "serve.admit_seconds"
#: Enqueue -> batch collected (queue + collector grouping delay).
H_BATCH_WAIT = "serve.batch_wait_seconds"
#: One batch's synchronous decision solve (all ``step`` calls).
H_SERVE_SOLVE = "serve.solve_seconds"
#: Admission-to-answer: submit -> future resolved (what the load
#: generator reports as p50/p99).
H_E2E = "serve.e2e_seconds"


class LatencyHistogram:
    """Streaming fixed-log-bucket histogram of non-negative durations.

    ``BASE`` anchors bucket 0 at 100ns and ``SUBBUCKETS`` fixes the
    resolution (8 buckets per factor of two => ~9% relative bucket
    width).  Exact ``count``/``sum``/``min``/``max`` ride along, and
    non-positive observations land in a separate ``zeros`` slot, so
    nothing is ever clipped or dropped.  Instances are thread-safe and
    merge associatively (integer bucket counts), which is what makes
    worker-shipped and shard-shipped partial histograms well-defined.
    """

    BASE = 1e-7
    SUBBUCKETS = 8
    GROWTH = 2.0 ** (1.0 / SUBBUCKETS)

    __slots__ = ("_lock", "_buckets", "count", "total", "vmin", "vmax", "zeros")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.zeros = 0

    # histograms travel inside worker stats; the lock does not pickle
    def __getstate__(self):
        return (self._buckets, self.count, self.total, self.vmin, self.vmax,
                self.zeros)

    def __setstate__(self, state):
        self._lock = threading.Lock()
        (self._buckets, self.count, self.total, self.vmin, self.vmax,
         self.zeros) = state

    @classmethod
    def bucket_index(cls, value: float) -> int:
        """The (possibly negative) bucket of a positive duration."""
        return math.floor(math.log2(value / cls.BASE) * cls.SUBBUCKETS)

    @classmethod
    def bucket_upper(cls, index: int) -> float:
        """Exclusive upper edge of bucket ``index`` in seconds."""
        return cls.BASE * 2.0 ** ((index + 1) / cls.SUBBUCKETS)

    def record(self, seconds: float) -> None:
        v = float(seconds)
        with self._lock:
            self.count += 1
            self.total += v
            self.vmin = v if self.vmin is None else min(self.vmin, v)
            self.vmax = v if self.vmax is None else max(self.vmax, v)
            if v > 0.0:
                idx = self.bucket_index(v)
                self._buckets[idx] = self._buckets.get(idx, 0) + 1
            else:
                self.zeros += 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into ``self`` (elementwise; returns ``self``)."""
        with other._lock:
            state = other.__getstate__()
        buckets, count, total, vmin, vmax, zeros = state
        with self._lock:
            for idx, n in buckets.items():
                self._buckets[idx] = self._buckets.get(idx, 0) + n
            self.count += count
            self.total += total
            if vmin is not None:
                self.vmin = vmin if self.vmin is None else min(self.vmin, vmin)
            if vmax is not None:
                self.vmax = vmax if self.vmax is None else max(self.vmax, vmax)
            self.zeros += zeros
        return self

    def quantile(self, q: float) -> Optional[float]:
        """Upper-edge quantile estimate, clamped into ``[min, max]``.

        The estimate is the smallest bucket upper edge whose cumulative
        count reaches ``ceil(q * count)`` -- i.e. at least a ``q``
        fraction of observations are <= the returned value, and the
        value overshoots the true order statistic by at most one bucket
        width (a factor of ``GROWTH``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            rank = max(1, math.ceil(q * self.count))
            cum = self.zeros
            if cum >= rank:
                est = 0.0
            else:
                est = None
                for idx in sorted(self._buckets):
                    cum += self._buckets[idx]
                    if cum >= rank:
                        est = self.bucket_upper(idx)
                        break
                if est is None:  # pragma: no cover - counts always add up
                    est = self.vmax
            return min(max(est, self.vmin), self.vmax)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state: exact stats, sparse buckets, p50/p90/p99."""
        with self._lock:
            buckets = dict(self._buckets)
            count, total = self.count, self.total
            vmin, vmax, zeros = self.vmin, self.vmax, self.zeros
        quantiles = {}
        for tag, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            clone = LatencyHistogram()
            clone._buckets = buckets
            clone.count, clone.total = count, total
            clone.vmin, clone.vmax, clone.zeros = vmin, vmax, zeros
            quantiles[tag] = clone.quantile(q)
        return {
            "scheme": f"log2/{self.SUBBUCKETS}@{self.BASE:g}",
            "count": count,
            "sum": total,
            "min": vmin,
            "max": vmax,
            "zeros": zeros,
            "buckets": {str(idx): n for idx, n in sorted(buckets.items())},
            "quantiles": quantiles,
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "LatencyHistogram":
        hist = cls()
        hist._buckets = {
            int(idx): int(n) for idx, n in dict(snap.get("buckets", {})).items()
        }
        hist.count = int(snap.get("count", 0))
        hist.total = float(snap.get("sum", 0.0))
        hist.vmin = None if snap.get("min") is None else float(snap["min"])
        hist.vmax = None if snap.get("max") is None else float(snap["max"])
        hist.zeros = int(snap.get("zeros", 0))
        return hist


# ---------------------------------------------------------------------------
# resource sampling: /proc + resource, no psutil
# ---------------------------------------------------------------------------
def _proc_status() -> Dict[str, int]:
    """``VmRSS`` (bytes) and ``Threads`` from ``/proc/self/status``."""
    out: Dict[str, int] = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    out["rss_bytes"] = int(line.split()[1]) * 1024
                elif line.startswith("Threads:"):
                    out["num_threads"] = int(line.split()[1])
    except OSError:
        pass
    return out


def sample_resources() -> Dict[str, object]:
    """One point-in-time resource sample of the current process."""
    sample: Dict[str, object] = {"time": time.time()}
    status = _proc_status()
    if "rss_bytes" in status:
        sample["rss_bytes"] = status["rss_bytes"]
    else:  # non-Linux fallback: the high-water mark is the best we have
        sample["rss_bytes"] = worker_usage()[0]
    sample["num_threads"] = status.get("num_threads", threading.active_count())
    times = os.times()
    sample["cpu_seconds"] = times.user + times.system
    try:
        sample["open_fds"] = len(os.listdir("/proc/self/fd"))
    except OSError:
        sample["open_fds"] = None
    return sample


def worker_usage() -> Tuple[int, float]:
    """``(peak_rss_bytes, cpu_seconds)`` of the current process, from
    ``getrusage`` -- the cheap per-unit probe pool workers ship back."""
    try:
        import resource

        ru = resource.getrusage(resource.RUSAGE_SELF)
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return 0, 0.0
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss unit
    return int(ru.ru_maxrss) * scale, float(ru.ru_utime + ru.ru_stime)


class ResourceSampler:
    """Daemon thread sampling the parent process on an interval.

    One sample is taken synchronously at :meth:`start` and one at
    :meth:`stop`, so any started sampler yields at least one sample no
    matter how short the run.  The sample list is bounded: past
    ``max_samples`` every other sample is dropped and the interval
    doubles (classic decimation), keeping multi-hour solves O(1).
    """

    def __init__(self, interval: float = 0.25, max_samples: int = 2048):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self.max_samples = max(8, int(max_samples))
        self._samples: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _take(self) -> None:
        sample = sample_resources()
        with self._lock:
            self._samples.append(sample)
            if len(self._samples) > self.max_samples:
                self._samples = self._samples[::2]
                self.interval *= 2.0

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._take()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._take()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._take()

    @property
    def samples(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._samples)

    def snapshot(self, *, tail: int = 64) -> Dict[str, object]:
        """Peaks plus the ``tail`` most recent samples (JSON-ready)."""
        samples = self.samples
        rss = [s["rss_bytes"] for s in samples if s.get("rss_bytes")]
        thr = [s["num_threads"] for s in samples if s.get("num_threads")]
        fds = [s["open_fds"] for s in samples if s.get("open_fds") is not None]
        return {
            "interval": self.interval,
            "samples_taken": len(samples),
            "peak_rss_bytes": max(rss, default=0),
            "peak_threads": max(thr, default=0),
            "peak_open_fds": max(fds, default=0),
            "cpu_seconds": samples[-1]["cpu_seconds"] if samples else 0.0,
            "samples": samples[-tail:],
        }


# ---------------------------------------------------------------------------
# progress + heartbeat
# ---------------------------------------------------------------------------
class ProgressBoard:
    """Completion / retry / degradation events of the dispatch layers.

    Counts whatever granularity was dispatched (units, batches, or
    shards), estimates an ETA from observed throughput, and -- with
    ``stall_after`` set -- flags in-flight dispatches silent for longer
    than the threshold via :meth:`check_stalls` (called from the
    dispatch loop and from the :class:`Telemetry` watchdog thread).  A
    stall is a *heartbeat* signal, not a failure: it fires before any
    ``unit_timeout``, is logged at WARNING, and increments the
    ``stalls`` counter that :class:`~repro.engine.parallel.EngineStats`
    surfaces as ``engine.stalls``.
    """

    def __init__(self, *, stall_after: Optional[float] = None):
        if stall_after is not None and stall_after <= 0:
            raise ValueError("stall_after must be positive (or None)")
        self.stall_after = stall_after
        self._lock = threading.Lock()
        self.total = 0
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.degradations = 0
        self.stalls = 0
        self._inflight: Dict[str, float] = {}
        self._stalled: set = set()
        self._t0: Optional[float] = None

    def begin(self, total_units: int) -> None:
        with self._lock:
            self.total += int(total_units)
            if self._t0 is None:
                self._t0 = time.monotonic()

    def unit_started(self, label: str) -> None:
        with self._lock:
            self._inflight[label] = time.monotonic()

    def unit_finished(self, label: str, *, ok: bool = True) -> None:
        with self._lock:
            self._inflight.pop(label, None)
            self._stalled.discard(label)
            if ok:
                self.done += 1
            else:
                self.failed += 1

    def unit_retried(self, label: str) -> None:
        with self._lock:
            self._inflight.pop(label, None)
            self._stalled.discard(label)
            self.retries += 1

    def degraded(self, pool: str) -> None:
        with self._lock:
            self.degradations += 1

    def check_stalls(self, now: Optional[float] = None) -> List[str]:
        """Labels newly flagged as stalled since the last check."""
        if self.stall_after is None:
            return []
        now = time.monotonic() if now is None else now
        with self._lock:
            fresh = [
                label
                for label, started in self._inflight.items()
                if now - started > self.stall_after
                and label not in self._stalled
            ]
            self._stalled.update(fresh)
            self.stalls += len(fresh)
        for label in fresh:
            log.warning(
                "stall: unit %s silent for >%.3gs", label, self.stall_after
            )
        return fresh

    def eta_seconds(self) -> Optional[float]:
        with self._lock:
            finished = self.done + self.failed
            remaining = self.total - finished
            if self._t0 is None or finished <= 0 or remaining <= 0:
                return None
            rate = finished / max(time.monotonic() - self._t0, 1e-9)
            return remaining / rate

    def snapshot(self) -> Dict[str, object]:
        eta = self.eta_seconds()
        with self._lock:
            return {
                "total": self.total,
                "done": self.done,
                "failed": self.failed,
                "in_flight": len(self._inflight),
                "retries": self.retries,
                "degradations": self.degradations,
                "stalls": self.stalls,
                "stall_after": self.stall_after,
                "eta_seconds": eta,
            }


# ---------------------------------------------------------------------------
# worker-side stats shipping
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerUnitStats:
    """Telemetry shipped back with one dispatched unit's result.

    ``entries`` carry ``(histogram name, seconds)`` latency observations
    recorded inside the worker (the unit's solve; for a shard, every
    inner unit's solve plus the whole shard's); the resource fields are
    the worker *process* peaks, keyed by ``pid`` in the parent's
    snapshot.
    """

    pid: int
    entries: Tuple[Tuple[str, float], ...] = ()
    peak_rss_bytes: int = 0
    cpu_seconds: float = 0.0


class UnitRecorder:
    """Worker-local latency sink: collects ``(name, seconds)`` pairs."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple[str, float]] = []

    def record(self, name: str, seconds: float) -> None:
        self.entries.append((name, float(seconds)))

    def unit_stats(self) -> WorkerUnitStats:
        peak_rss, cpu = worker_usage()
        return WorkerUnitStats(
            pid=os.getpid(),
            entries=tuple(self.entries),
            peak_rss_bytes=peak_rss,
            cpu_seconds=cpu,
        )


# ---------------------------------------------------------------------------
# the hub
# ---------------------------------------------------------------------------
class Telemetry:
    """The runtime telemetry hub of one process.

    Owns the named latency histograms, the parent
    :class:`ResourceSampler`, the :class:`ProgressBoard`, worker
    resource peaks, and the stall watchdog thread.  Thread-safe;
    :meth:`record` doubles as the recorder protocol the engine threads
    through its serve paths, so serial and thread-pool solves record
    straight into the hub while process-pool workers ship
    :class:`WorkerUnitStats` for :meth:`absorb_worker`.

    Lifecycle: ``start()``/``stop()`` (idempotent) or use the instance
    as a context manager.  Solvers auto-start an un-started telemetry
    for the duration of the solve; a started one is left running (the
    caller owns it, e.g. across a sweep).
    """

    def __init__(
        self,
        *,
        sample_interval: float = 0.25,
        stall_after: Optional[float] = None,
        max_samples: int = 2048,
    ):
        self._lock = threading.Lock()
        self._hists: Dict[str, LatencyHistogram] = {}
        self._past: Dict[str, LatencyHistogram] = {}
        self.sampler = ResourceSampler(sample_interval, max_samples)
        self.board = ProgressBoard(stall_after=stall_after)
        self._workers: Dict[int, Dict[str, object]] = {}
        self._watchdog: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "Telemetry":
        if self.started:
            return self
        self.started = True
        self.sampler.start()
        if self.board.stall_after is not None:
            self._stop.clear()
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-stall-watchdog", daemon=True
            )
            self._watchdog.start()
        return self

    def _watch(self) -> None:
        interval = min(max(self.board.stall_after / 4.0, 0.01), 0.5)
        while not self._stop.wait(interval):
            self.board.check_stalls()

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None
        self.sampler.stop()

    def __enter__(self) -> "Telemetry":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- latency ---------------------------------------------------------
    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = LatencyHistogram()
            return hist

    def record(self, name: str, seconds: float) -> None:
        self.histogram(name).record(seconds)

    def begin_run(self) -> None:
        """Start a fresh per-run latency window.

        The current window's histograms fold into the cumulative store
        (what the dashboard shows), and subsequent recordings open a new
        window -- so each :class:`~repro.obs.metrics.RunObservation` of
        a sweep carries only its own run's latency, and the metrics
        aggregate (which merges the per-run snapshots) equals the
        cumulative total without double counting.
        """
        with self._lock:
            for name, hist in self._hists.items():
                self._past.setdefault(name, LatencyHistogram()).merge(hist)
            self._hists = {}

    def latency_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Current-window (per-run) histograms, JSON-ready."""
        with self._lock:
            hists = dict(self._hists)
        return {name: hists[name].snapshot() for name in sorted(hists)}

    def cumulative_latency(self) -> Dict[str, Dict[str, object]]:
        """All recordings since construction (past windows + current)."""
        with self._lock:
            names = set(self._past) | set(self._hists)
            merged = {}
            for name in sorted(names):
                hist = LatencyHistogram()
                if name in self._past:
                    hist.merge(self._past[name])
                if name in self._hists:
                    hist.merge(self._hists[name])
                merged[name] = hist
        return {name: hist.snapshot() for name, hist in merged.items()}

    # -- resources -------------------------------------------------------
    def observe_worker(
        self, pid: int, peak_rss_bytes: int, cpu_seconds: float
    ) -> None:
        with self._lock:
            rec = self._workers.setdefault(
                pid, {"peak_rss_bytes": 0, "cpu_seconds": 0.0, "results": 0}
            )
            rec["peak_rss_bytes"] = max(rec["peak_rss_bytes"], peak_rss_bytes)
            rec["cpu_seconds"] = max(rec["cpu_seconds"], cpu_seconds)
            rec["results"] += 1

    def absorb_worker(self, stats: Optional[WorkerUnitStats]) -> None:
        """Fold one shipped :class:`WorkerUnitStats` into the hub."""
        if stats is None:
            return
        for name, seconds in stats.entries:
            self.record(name, seconds)
        self.observe_worker(stats.pid, stats.peak_rss_bytes, stats.cpu_seconds)

    def resources_snapshot(self) -> Dict[str, object]:
        with self._lock:
            workers = {str(pid): dict(rec) for pid, rec in self._workers.items()}
        return {"parent": self.sampler.snapshot(), "workers": workers}

    # -- whole-plane snapshot -------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "latency": self.latency_snapshot(),
            "resources": self.resources_snapshot(),
            "progress": self.board.snapshot(),
        }


# -- process-wide active telemetry (the CLI/`--progress` hookup) ------------
_ACTIVE: Optional[Telemetry] = None
_ACTIVE_LOCK = threading.Lock()


def install(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install (or clear, with ``None``) the process-wide telemetry.

    Solvers with no explicit ``telemetry=`` argument pick up the
    installed hub via :func:`active`, which is how CLI flags reach
    solves buried inside experiment harnesses.  Returns the previously
    installed hub.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, telemetry
    return previous


def active() -> Optional[Telemetry]:
    """The process-wide telemetry hub, or ``None``."""
    return _ACTIVE


# ---------------------------------------------------------------------------
# Prometheus text-format exposition
# ---------------------------------------------------------------------------
#: One valid line of Prometheus text format v0.0.4: a comment or a
#: ``name{labels} value`` sample.  Exported for tests and the CI format
#: check.
PROM_LINE_RE = re.compile(
    r"^(?:#\s(?:HELP|TYPE)\s[a-zA-Z_:][a-zA-Z0-9_:]*\s.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^{}]*\})?\s"
    r"[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|Inf))$"
)

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name)


def _prom_value(value: object) -> str:
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return ("-" if v < 0 else "+") + "Inf"
    return repr(v) if isinstance(value, float) else repr(int(value))


def _prom_label(value: object) -> str:
    text = str(value)
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def render_prometheus(
    snapshot: Mapping[str, object], *, namespace: str = "repro"
) -> str:
    """Render a METRICS snapshot (v2 or v3) as Prometheus text format.

    The aggregate section drives everything: run/cost gauges, per-action
    cost, phase/span totals, summed numeric counters, latency summaries
    (one ``summary``-typed family per histogram with
    ``quantile="0.5|0.9|0.99"`` samples plus ``_sum``/``_count`` and a
    ``_max`` gauge), and resource peaks.  See docs/engine.md for the
    metric-names table.
    """
    agg: Mapping[str, object] = snapshot.get("aggregate", {}) or {}
    ns = _prom_name(namespace)
    lines: List[str] = []

    def emit(name, value, labels=None, *, help_=None, type_=None):
        full = f"{ns}_{name}"
        if help_ is not None:
            lines.append(f"# HELP {full} {help_}")
        if type_ is not None:
            lines.append(f"# TYPE {full} {type_}")
        label_s = ""
        if labels:
            inner = ",".join(
                f'{k}="{_prom_label(v)}"' for k, v in labels.items()
            )
            label_s = "{" + inner + "}"
        lines.append(f"{full}{label_s} {_prom_value(value)}")

    emit("runs", agg.get("runs", 0), help_="Observed solve runs", type_="gauge")
    emit(
        "total_cost", agg.get("total_cost", 0.0),
        help_="Summed DP_Greedy total cost across runs", type_="gauge",
    )
    emit(
        "reconciliation_error_max",
        agg.get("max_reconciliation_error", 0.0),
        help_="Worst ledger reconciliation error", type_="gauge",
    )
    actions = agg.get("actions", {}) or {}
    if actions:
        lines.append(f"# HELP {ns}_action_cost Cost attributed per ledger action")
        lines.append(f"# TYPE {ns}_action_cost gauge")
        for action in sorted(actions):
            emit("action_cost", actions[action], {"action": action})
    for section, label in (("phases", "phase"), ("spans", "span")):
        recs = agg.get(section, {}) or {}
        if not recs:
            continue
        for unit, key in (("seconds", "seconds"), ("calls", "calls")):
            fam = f"{label}_{unit}_total"
            lines.append(f"# TYPE {ns}_{fam} counter")
            for name in sorted(recs):
                emit(fam, recs[name].get(key, 0), {label: name})
    counters = agg.get("counters", {}) or {}
    if counters:
        lines.append(f"# HELP {ns}_counter Numeric repro.obs counters, summed across runs")
        lines.append(f"# TYPE {ns}_counter gauge")
        for name in sorted(counters):
            emit("counter", counters[name], {"counter": name})

    latency = agg.get("latency", {}) or {}
    for name in sorted(latency):
        snap = latency[name]
        fam = _prom_name(name)
        quantiles = snap.get("quantiles", {}) or {}
        lines.append(f"# HELP {ns}_{fam} Latency histogram {name}")
        lines.append(f"# TYPE {ns}_{fam} summary")
        for tag, q in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            value = quantiles.get(tag)
            if value is not None:
                emit(fam, value, {"quantile": q})
        emit(f"{fam}_sum", snap.get("sum", 0.0))
        emit(f"{fam}_count", snap.get("count", 0))
        if snap.get("max") is not None:
            emit(f"{fam}_max", snap["max"], type_="gauge")

    resources = agg.get("resources", {}) or {}
    if resources:
        emit(
            "peak_rss_bytes", resources.get("peak_rss_bytes", 0),
            help_="Parent process peak RSS", type_="gauge",
        )
        emit(
            "worker_peak_rss_bytes",
            resources.get("worker_peak_rss_bytes", 0),
            help_="Largest pool-worker peak RSS", type_="gauge",
        )
        emit(
            "cpu_seconds_total", resources.get("cpu_seconds", 0.0),
            help_="Parent process CPU time", type_="counter",
        )
        emit(
            "resource_samples", resources.get("samples", 0),
            help_="Resource samples taken", type_="gauge",
        )
    return "\n".join(lines) + "\n"


def write_prometheus(snapshot: Mapping[str, object], path) -> "os.PathLike":
    """Write :func:`render_prometheus` output to ``path``; returns it.

    The write is atomic (tmp file in the same directory, then
    ``os.replace``): a scraper reading the file mid-rewrite sees either
    the previous exposition or the new one, never a torn half-file --
    the property the interval re-write mode of
    :class:`PrometheusFlusher` depends on.
    """
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(render_prometheus(snapshot))
    os.replace(tmp, out)
    return out


def live_snapshot(
    telemetry: Optional["Telemetry"] = None,
    *,
    counters: Optional[Mapping[str, object]] = None,
    runs: int = 0,
    total_cost: float = 0.0,
) -> Dict[str, object]:
    """A minimal METRICS-v3-shaped snapshot for mid-run exposition.

    Long-lived runs (the serving engine, interval-flushed solves) need a
    renderable snapshot *before* any :class:`~repro.obs.metrics.RunObservation`
    finalizes.  This builds an aggregate-only snapshot straight from the
    telemetry hub's cumulative histograms and resource peaks plus any
    caller-supplied counters -- exactly what :func:`render_prometheus`
    consumes, without touching the metrics collector.
    """
    resources: Dict[str, object] = {}
    latency: Dict[str, Dict[str, object]] = {}
    if telemetry is not None:
        latency = telemetry.cumulative_latency()
        res = telemetry.resources_snapshot()
        parent = res.get("parent", {})
        resources = {
            "peak_rss_bytes": parent.get("peak_rss_bytes", 0),
            "worker_peak_rss_bytes": max(
                (rec.get("peak_rss_bytes", 0) for rec in res.get("workers", {}).values()),
                default=0,
            ),
            "cpu_seconds": parent.get("cpu_seconds", 0.0),
            "samples": parent.get("samples_taken", 0),
        }
    numeric = {
        name: value
        for name, value in (counters or {}).items()
        if isinstance(value, (int, float))
    }
    return {
        "schema": "repro.obs/metrics/v3",
        "runs": [],
        "aggregate": {
            "runs": runs,
            "total_cost": total_cost,
            "actions": {},
            "phases": {},
            "spans": {},
            "latency": latency,
            "resources": resources,
            "counters": dict(sorted(numeric.items())),
            "max_reconciliation_error": 0.0,
        },
    }


class PrometheusFlusher:
    """Interval re-writer keeping a ``--prom`` file fresh while running.

    :func:`write_prometheus` only runs at exit in one-shot solves; a
    long-lived serve (or a multi-hour sharded solve) scraped by an agent
    needs the file re-rendered on an interval.  The flusher calls
    ``snapshot_fn`` every ``interval`` seconds on a daemon thread and
    atomically rewrites ``path``; :meth:`stop` performs one final flush
    so the file always ends on the latest state.  Snapshot/render
    errors are logged and skipped -- a transiently unrenderable
    snapshot must not kill the service.
    """

    def __init__(
        self,
        snapshot_fn: "callable",
        path,
        *,
        interval: float = 5.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.snapshot_fn = snapshot_fn
        self.path = path
        self.interval = float(interval)
        self.flushes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush(self) -> bool:
        """One rewrite now; ``True`` when the file was written."""
        try:
            write_prometheus(self.snapshot_fn(), self.path)
        except Exception:  # noqa: BLE001 - exposition must never kill the run
            log.warning("prometheus flush to %s failed", self.path, exc_info=True)
            return False
        self.flushes += 1
        return True

    def start(self) -> "PrometheusFlusher":
        if self._thread is None:
            self._stop.clear()
            self.flush()
            self._thread = threading.Thread(
                target=self._run, name="repro-prom-flusher", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.flush()

    def __enter__(self) -> "PrometheusFlusher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# live TTY dashboard
# ---------------------------------------------------------------------------
def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "--"
    if eta >= 3600:
        return f"{eta / 3600:.1f}h"
    if eta >= 60:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


def progress_line(telemetry: Telemetry, *, width: int = 24) -> str:
    """One-line live status: bar, counts, retries/stalls, ETA."""
    from ..viz.ascii import ascii_progress_bar

    b = telemetry.board.snapshot()
    finished = b["done"] + b["failed"]
    bar = ascii_progress_bar(finished, b["total"], width=width)
    extras = []
    if b["retries"]:
        extras.append(f"{b['retries']} retr")
    if b["degradations"]:
        extras.append(f"{b['degradations']} degr")
    if b["stalls"]:
        extras.append(f"{b['stalls']} stall")
    if b["failed"]:
        extras.append(f"{b['failed']} failed")
    tail = (" · " + " ".join(extras)) if extras else ""
    return (
        f"{bar} {b['in_flight']} in flight · eta {_fmt_eta(b['eta_seconds'])}"
        + tail
    )


def render_dashboard(telemetry: Telemetry, *, width: int = 48) -> str:
    """Multi-line telemetry dashboard built on the viz/ascii primitives."""
    from ..viz.ascii import ascii_histogram

    parts = [progress_line(telemetry)]
    latency = telemetry.cumulative_latency()
    bars: Dict[str, float] = {}
    for name, snap in latency.items():
        q = snap.get("quantiles", {})
        for tag in ("p50", "p99"):
            if q.get(tag) is not None:
                bars[f"{name} {tag}"] = q[tag] * 1e3
    if bars:
        parts.append(ascii_histogram(bars, width=width, title="latency (ms)"))
    res = telemetry.resources_snapshot()
    parent = res["parent"]
    worker_peak = max(
        (rec["peak_rss_bytes"] for rec in res["workers"].values()), default=0
    )
    parts.append(
        f"rss peak {parent['peak_rss_bytes'] / 1e6:.1f}MB"
        + (f" (workers {worker_peak / 1e6:.1f}MB)" if worker_peak else "")
        + f" · cpu {parent['cpu_seconds']:.2f}s"
        + f" · threads {parent['peak_threads']}"
        + f" · fds {parent['peak_open_fds']}"
        + f" · {parent['samples_taken']} samples"
    )
    return "\n".join(parts)


class ProgressRenderer:
    """Daemon thread painting :func:`progress_line` onto a stream.

    On a TTY the line repaints in place (``\\r``); otherwise one line is
    appended per interval -- readable in CI logs without control codes.
    """

    def __init__(
        self, telemetry: Telemetry, stream=None, interval: float = 0.5
    ):
        self.telemetry = telemetry
        self.stream = stream if stream is not None else sys.stderr
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def _paint(self) -> None:
        line = progress_line(self.telemetry)
        try:
            if self._tty:
                self.stream.write("\r\x1b[2K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):  # closed stream: stop painting
            self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._paint()

    def start(self) -> "ProgressRenderer":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-progress", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._paint()
        if self._tty:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
