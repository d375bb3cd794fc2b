"""Phase wall-time accumulators.

DP_Greedy has three hot phases -- Phase 1's similarity scan, Phase 1's
greedy packing, and Phase 2's per-unit solves -- and tuning any of them
starts with knowing where the time goes.  :class:`PhaseTimers` is a tiny
named-accumulator: each :meth:`PhaseTimers.time` context adds one timed
interval to its phase (the solvers time each phase once per solve;
per-unit latency comes from the ``phase2.solve`` spans and latency
histograms).

The accumulators are guarded by a lock: besides the coordinating thread
(which times phases and pool dispatch), worker-side aggregates -- span
totals from thread-pool workers, or shipped-back process-worker spans --
fold in concurrently via :meth:`PhaseTimers.add` and
:meth:`PhaseTimers.merge`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Union

__all__ = ["PhaseTimers"]


class PhaseTimers:
    """Named wall-clock accumulators with call counts (thread-safe)."""

    __slots__ = ("_acc", "_lock")

    def __init__(self) -> None:
        # name -> [total seconds, call count]
        self._acc: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold an externally measured interval (or aggregate) in."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._lock:
            rec = self._acc.setdefault(name, [0.0, 0])
            rec[0] += seconds
            rec[1] += calls

    def merge(
        self,
        other: "Union[PhaseTimers, Mapping[str, Mapping[str, float]]]",
    ) -> None:
        """Fold another timer set (or a ``snapshot()``-shaped mapping,
        e.g. :meth:`Tracer.aggregate`) into this one.

        Used to absorb worker-side timer/span aggregates into the
        run-level timers, and by :class:`~repro.obs.metrics.MetricsCollector`
        to aggregate phases across runs.
        """
        snap = other.snapshot() if isinstance(other, PhaseTimers) else other
        for name, rec in snap.items():
            self.add(name, float(rec["seconds"]), int(rec["calls"]))

    def seconds(self, name: str) -> float:
        with self._lock:
            return self._acc.get(name, [0.0, 0])[0]

    def calls(self, name: str) -> int:
        with self._lock:
            return int(self._acc.get(name, [0.0, 0])[1])

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._acc

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{phase: {seconds, calls}}`` mapping."""
        with self._lock:
            return {
                name: {"seconds": rec[0], "calls": int(rec[1])}
                for name, rec in sorted(self._acc.items())
            }
