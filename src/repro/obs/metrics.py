"""Per-run METRICS records and the ``METRICS_*.json`` snapshot.

Every observed solve appends one :class:`RunRecord` to
``observer.runs``; :func:`metrics_snapshot` renders a list of them as
the METRICS payload, and :func:`read_metrics` reads every revision back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .ledger import ACTIONS, CostLedger
from .telemetry import LatencyHistogram, resource_peaks

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMAS",
    "RunRecord",
    "live_snapshot",
    "metrics_snapshot",
    "read_metrics",
    "write_metrics",
]

#: Schema identifier stamped into every metrics snapshot.  v2 added the
#: ``spans`` section on top of v1.  v3 is a strict superset of v2:
#: every run record and the aggregate gain a ``latency`` section
#: (per-histogram-name log-bucket snapshots with p50/p90/p99/max, from
#: :mod:`repro.obs.telemetry`) and a ``resources`` section (parent
#: sampler peaks + worker peaks); the aggregate additionally gains a
#: ``counters`` section summing numeric counters across runs.  All v2
#: keys are unchanged, so v1/v2 consumers keep working unmodified --
#: :func:`read_metrics` reads any of the three.
METRICS_SCHEMA = "repro.obs/metrics/v3"

#: Every schema revision :func:`read_metrics` accepts, oldest first.
METRICS_SCHEMAS = (
    "repro.obs/metrics/v1",
    "repro.obs/metrics/v2",
    "repro.obs/metrics/v3",
)

@dataclass
class RunRecord:
    """One observed solve: what the METRICS snapshot reports per run.

    The solve fills it through its :class:`~repro.obs.observer.Observer`:
    ``point`` holds sweep coordinates (``{"jaccard": 0.3, "repeat": 1}``),
    ``counters`` the run's counters (``engine.*``, ``memo.*``,
    ``phase1.*``, ``phase2.units``, plus any the caller adds),
    ``ledger`` the run's :class:`CostLedger` (ledger leg only),
    ``phases``/``spans`` its span aggregates (``{name: {seconds,
    calls}}``; ``spans`` with the spans leg only) and
    ``latency``/``resources`` the runtime snapshots.
    """

    point: Dict[str, object]
    ledger: Optional[CostLedger] = None
    counters: Dict[str, object] = field(default_factory=dict)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latency: Dict[str, Dict[str, object]] = field(default_factory=dict)
    resources: Dict[str, object] = field(default_factory=dict)
    total_cost: Optional[float] = None
    reconciliation_error: Optional[float] = None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready record of this run."""
        ledger = self.ledger if self.ledger is not None else CostLedger()
        return {
            "point": dict(self.point),
            "total_cost": self.total_cost,
            "attributed_total": ledger.total(),
            "reconciliation_error": self.reconciliation_error,
            "ledger": ledger.snapshot(),
            "phases": {name: dict(rec) for name, rec in self.phases.items()},
            "spans": {name: dict(rec) for name, rec in self.spans.items()},
            "latency": {name: dict(rec) for name, rec in self.latency.items()},
            "resources": dict(self.resources),
            "counters": dict(sorted(self.counters.items())),
        }


def _sum_totals(sections) -> Dict[str, Dict[str, float]]:
    acc: Dict[str, List[float]] = {}
    for section in sections:
        for name, rec in section.items():
            slot = acc.setdefault(name, [0.0, 0])
            slot[0] += float(rec["seconds"])
            slot[1] += int(rec["calls"])
    return {
        name: {"seconds": sec, "calls": int(calls)}
        for name, (sec, calls) in sorted(acc.items())
    }


def metrics_snapshot(runs: Sequence[RunRecord]) -> Dict[str, object]:
    """The full ``METRICS_*.json`` payload over ``runs`` (see README)."""
    per_run_actions = [
        r.ledger.by_action() for r in runs if r.ledger is not None
    ]
    action_totals = {
        a: math.fsum(actions[a] for actions in per_run_actions) for a in ACTIONS
    }
    # v3 latency: each run carries its own latency window, so merging
    # the per-run histograms (associative elementwise bucket addition)
    # reconstructs the exact cross-sweep distribution.
    latency_agg: Dict[str, LatencyHistogram] = {}
    for r in runs:
        for name, snap in r.latency.items():
            latency_agg.setdefault(name, LatencyHistogram()).merge(
                LatencyHistogram.from_snapshot(snap)
            )
    # numeric counters sum across runs; labels (``engine.pool``) do not
    counter_agg: Dict[str, Union[int, float]] = {}
    for r in runs:
        for name, value in r.counters.items():
            if isinstance(value, (int, float)):
                counter_agg[name] = counter_agg.get(name, 0) + value
    return {
        "schema": METRICS_SCHEMA,
        "runs": [r.snapshot() for r in runs],
        "aggregate": {
            "runs": len(runs),
            "total_cost": math.fsum(r.total_cost for r in runs),
            "actions": action_totals,
            "phases": _sum_totals(r.phases for r in runs),
            "spans": _sum_totals(r.spans for r in runs),
            "latency": {
                name: hist.snapshot() for name, hist in sorted(latency_agg.items())
            },
            "resources": resource_peaks(r.resources for r in runs),
            "counters": dict(sorted(counter_agg.items())),
            "max_reconciliation_error": max(
                (r.reconciliation_error or 0.0 for r in runs), default=0.0
            ),
        },
    }


def live_snapshot(
    observer=None,
    *,
    counters: Optional[Mapping[str, object]] = None,
    runs: int = 0,
    total_cost: float = 0.0,
) -> Dict[str, object]:
    """An aggregate-only METRICS snapshot for mid-run exposition (the
    serving engine, interval-flushed solves): a runtime observer's
    cumulative histograms and resource peaks plus the caller's
    counters, before any run record closes -- what
    :func:`~repro.obs.telemetry.render_prometheus` consumes."""
    snap = metrics_snapshot([])
    agg = snap["aggregate"]
    agg.update(runs=runs, total_cost=total_cost, actions={}, resources={})
    agg["counters"] = {
        name: value
        for name, value in sorted((counters or {}).items())
        if isinstance(value, (int, float))
    }
    if observer is not None and observer.runtime:
        agg["latency"] = observer.cumulative_latency()
        agg["resources"] = resource_peaks([observer.resources_snapshot()])
    return snap


def write_metrics(
    snapshot: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Write a metrics snapshot as pretty-printed JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return out


def read_metrics(
    source: Union[str, Path, Dict[str, object]]
) -> Dict[str, object]:
    """Load a METRICS snapshot of any schema revision, normalised to v3.

    ``source`` is a path to a ``METRICS_*.json`` file or an
    already-parsed snapshot dict.  Older revisions are upgraded in
    place: sections a revision predates (``spans`` for v1, ``latency``/
    ``resources``/aggregate ``counters`` for v1-v2) default to empty,
    so v3 consumers can read golden v1/v2 artefacts unmodified.  The
    ``schema`` key keeps the *original* revision -- reading never
    relabels an artefact as something it is not.
    """
    if isinstance(source, dict):
        snap: Dict[str, object] = dict(source)
    else:
        snap = json.loads(Path(source).read_text())
    schema = snap.get("schema")
    if schema not in METRICS_SCHEMAS:
        raise ValueError(
            f"unsupported metrics schema {schema!r}; expected one of "
            f"{METRICS_SCHEMAS}"
        )
    snap["runs"] = [dict(run) for run in snap.get("runs", [])]
    snap["aggregate"] = dict(snap.get("aggregate", {}))
    for record in snap["runs"] + [snap["aggregate"]]:
        for section in ("spans", "latency", "resources", "counters"):
            record.setdefault(section, {})
    return snap
