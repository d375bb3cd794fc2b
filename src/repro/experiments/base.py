"""Common infrastructure for the per-figure experiment harnesses.

Every harness returns an :class:`ExperimentResult`: a set of tabular rows
plus named ``(x, y)`` series, with helpers to render the result as a text
report (table + ASCII chart) and to persist CSV artefacts.  Benchmarks
and the CLI both consume this interface, so the code that regenerates a
paper figure exists exactly once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..viz import ascii_line_plot, format_table, write_csv

__all__ = [
    "ExperimentResult",
    "SweepCheckpoint",
    "sweep_checkpoint",
    "sweep_memo",
    "sweep_observer",
    "record_observation",
    "record_engine_stats",
]

CHECKPOINT_SCHEMA = "repro.experiments/checkpoint/v1"


class SweepCheckpoint:
    """Crash-safe per-point checkpointing for sweep harnesses.

    Each completed sweep point appends one JSONL record --
    ``{"schema", "experiment_id", "point", "payload"}`` -- to
    ``CHECKPOINT_<experiment_id>.jsonl``, flushed and fsynced so a
    killed run loses at most the point in flight.  On ``resume=True``
    existing records are loaded first and :meth:`get` returns the stored
    payload, letting the harness skip the recompute entirely.

    Loading is tolerant by construction: a truncated final line (the
    usual artefact of a kill mid-write), a corrupt line, or a record for
    a different experiment is skipped, never fatal.  Points are keyed by
    the sorted-JSON encoding of their parameter dict, so key order in
    the harness does not matter.
    """

    def __init__(self, path: Union[str, Path], experiment_id: str, *, resume: bool = False):
        self.path = Path(path)
        self.experiment_id = experiment_id
        self._done: Dict[str, dict] = {}
        self.points_loaded = 0
        if resume and self.path.exists():
            for raw in self.path.read_text().splitlines():
                try:
                    rec = json.loads(raw)
                except (json.JSONDecodeError, ValueError):
                    continue  # truncated/corrupt line from a killed run
                if not isinstance(rec, dict):
                    continue
                if rec.get("schema") != CHECKPOINT_SCHEMA:
                    continue
                if rec.get("experiment_id") != experiment_id:
                    continue
                point = rec.get("point")
                if not isinstance(point, dict) or "payload" not in rec:
                    continue
                self._done[self.key(point)] = rec["payload"]
            self.points_loaded = len(self._done)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")  # fresh run: reset stale checkpoints

    @staticmethod
    def key(point: Mapping[str, object]) -> str:
        return json.dumps(dict(point), sort_keys=True)

    def get(self, point: Mapping[str, object]) -> Optional[dict]:
        """Stored payload for ``point``, or ``None`` if not yet recorded."""
        return self._done.get(self.key(point))

    def record(self, point: Mapping[str, object], payload: dict) -> None:
        """Append ``point``'s payload; durable once this returns."""
        rec = {
            "schema": CHECKPOINT_SCHEMA,
            "experiment_id": self.experiment_id,
            "point": dict(point),
            "payload": payload,
        }
        # no sort_keys: payload rows keep their column order, so a resumed
        # sweep emits byte-identical CSV artefacts
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._done[self.key(point)] = payload


def sweep_checkpoint(
    checkpoint, experiment_id: str, resume: bool = False
) -> Optional[SweepCheckpoint]:
    """Resolve a harness ``checkpoint=`` argument.

    ``None``/``False`` disables checkpointing (unless ``resume`` is set,
    which has nothing to resume from and raises).  A directory maps to
    ``<dir>/CHECKPOINT_<experiment_id>.jsonl``; a ``.jsonl`` path is
    used as-is; a :class:`SweepCheckpoint` passes through.
    """
    if checkpoint in (None, False):
        if resume:
            raise ValueError("resume=True requires a checkpoint location")
        return None
    if isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    path = Path(checkpoint)
    if path.suffix != ".jsonl":
        path = path / f"CHECKPOINT_{experiment_id}.jsonl"
    return SweepCheckpoint(path, experiment_id, resume=resume)


def sweep_memo(memo: bool):
    """One fresh :class:`~repro.engine.memo.SolverMemo` per harness run.

    Sweep harnesses share a single memo across every sweep point so that
    sub-problems unchanged by the swept knob (theta/alpha) are solved
    once; ``memo=False`` returns ``None`` (no memo)."""
    if not memo:
        return None
    from ..engine.memo import SolverMemo

    return SolverMemo()


def sweep_observer(metrics: bool, trace: bool):
    """``(observer, since)``: the observer a sweep harness's solves share.

    ``None`` unless ``metrics`` (the ledger leg) or ``trace`` (the spans
    leg) is asked for.  The installed process-wide observer (the CLI's)
    is reused when it has those legs, so its runtime leg reaches the
    sweep too; else a fresh :class:`~repro.obs.observer.Observer` is
    made.  ``since`` marks where this sweep's runs and spans start, for
    :func:`record_observation`.  With ``metrics``, tag each solve's run
    with ``observer.begin_run(**point)``."""
    if not (metrics or trace):
        return None, (0, 0)
    from ..obs.observer import Observer, active

    observer = active()
    if observer is None or (metrics and not observer.ledger) or (
        trace and not observer.spans
    ):
        observer = Observer(ledger=metrics, spans=trace)
    return observer, (len(observer.runs), observer.mark())


def record_observation(
    result: "ExperimentResult", observer, since, *, metrics: bool, trace: bool
) -> None:
    """Store the sweep's METRICS snapshot (``result.metrics``) and
    Chrome trace (``result.trace``) from ``observer``'s window
    ``since``; :meth:`ExperimentResult.save` writes them as
    ``METRICS_<id>.json`` / ``TRACE_<id>.json`` (open the trace at
    https://ui.perfetto.dev)."""
    if metrics:
        result.metrics = observer.metrics(since=since[0])
    if trace:
        result.trace = observer.to_chrome(since=since[1])


def record_engine_stats(result: "ExperimentResult", memo_obj, workers) -> None:
    """Persist execution-engine observability knobs into ``result.params``."""
    if workers is not None:
        result.params["workers"] = workers
    if memo_obj is not None:
        stats = memo_obj.stats()
        result.params["memo_hit_rate"] = round(stats["hit_rate"], 4)
        result.params["memo_hits"] = int(stats["hits"])
        result.params["memo_misses"] = int(stats["misses"])

Row = Dict[str, Union[str, float, int]]
Series = Dict[str, List[Tuple[float, float]]]


@dataclass
class ExperimentResult:
    """Output of one experiment harness.

    Attributes
    ----------
    experiment_id:
        Identifier from the DESIGN.md experiment index (e.g. ``"fig12"``).
    title:
        Human-readable description (matches the paper's caption).
    rows:
        Tabular results, one dict per row.
    series:
        Named ``(x, y)`` curves for the ASCII/CSV plots.
    params:
        The parameter values the harness ran with.
    notes:
        Free-form observations (e.g. where the crossover landed).
    metrics:
        Optional ``repro.obs`` metrics snapshot (the
        :meth:`~repro.obs.observer.Observer.metrics` payload); persisted
        as ``METRICS_<experiment_id>.json`` by :meth:`save`.
    trace:
        Optional Chrome trace-event payload (the
        :meth:`~repro.obs.observer.Observer.to_chrome` dict); persisted
        as ``TRACE_<experiment_id>.json`` by :meth:`save`.
    prom:
        Optional Prometheus text-format exposition of the metrics
        snapshot (:func:`~repro.obs.telemetry.render_prometheus`
        output); persisted as ``PROM_<experiment_id>.prom`` by
        :meth:`save`.
    """

    experiment_id: str
    title: str
    rows: List[Row] = field(default_factory=list)
    series: Series = field(default_factory=dict)
    params: Dict[str, Union[str, float, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    xlabel: str = "x"
    ylabel: str = "y"
    metrics: Optional[Dict[str, object]] = None
    trace: Optional[Dict[str, object]] = None
    prom: Optional[str] = None

    def table(self) -> str:
        return format_table(self.rows)

    def chart(self, *, width: int = 64, height: int = 16) -> str:
        if not self.series:
            return ""
        return ascii_line_plot(
            self.series,
            width=width,
            height=height,
            title=self.title,
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )

    def report(self) -> str:
        """Full text report: parameters, table, chart, notes."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.params:
            parts.append(
                "params: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            )
        if self.rows:
            parts.append(self.table())
        chart = self.chart()
        if chart:
            parts.append(chart)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def save(self, out_dir: Union[str, Path]) -> Path:
        """Persist CSV rows, the text report, and any metrics/trace
        snapshots (``METRICS_<id>.json`` / ``TRACE_<id>.json``) under
        ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if self.rows:
            write_csv(out / f"{self.experiment_id}.csv", self.rows)
        (out / f"{self.experiment_id}.txt").write_text(self.report() + "\n")
        if self.metrics is not None:
            (out / f"METRICS_{self.experiment_id}.json").write_text(
                json.dumps(self.metrics, indent=2, sort_keys=True) + "\n"
            )
        if self.trace is not None:
            (out / f"TRACE_{self.experiment_id}.json").write_text(
                json.dumps(self.trace, indent=2) + "\n"
            )
        if self.prom is not None:
            (out / f"PROM_{self.experiment_id}.prom").write_text(self.prom)
        return out
