"""repro.obs: structured observability for the DP_Greedy pipeline.

Observation enters a solve one way: an
:class:`~repro.obs.observer.Observer` passed as ``observer=`` (or
installed process-wide with :func:`~repro.obs.observer.install`, which
is how the CLI's ``--metrics`` / ``--trace`` / ``--progress`` flags reach
solves inside harnesses).  Its primitive is the span; its legs are

* **spans** (:mod:`repro.obs.observer`): nested timing spans across the
  whole pipeline -- including inside pool workers -- exported as Chrome
  trace-event JSON (Perfetto-loadable);
* **runtime** (:mod:`repro.obs.telemetry`): mergeable log-bucket latency
  histograms (p50/p90/p99/max) fed by the span durations, a
  /proc-based resource sampler with worker peak shipping, a progress
  board with a stall watchdog, and Prometheus/TTY exposition;
* **ledger** (:mod:`repro.obs.ledger`): the cost ledger attributes every
  charged unit of cost to ``(serving unit, request index, action)``
  with action in ``{cache, transfer, ship, backbone, first-copy}`` and
  asserts the attributed total reconciles with the reported cost.

Every observed solve appends a :class:`~repro.obs.metrics.RunRecord`
(phase aggregates, counters, and the legs' sections); the METRICS v3
snapshot (:mod:`repro.obs.metrics`) renders a sweep's records.
Without an observer the hot paths run untouched.
"""

from .ledger import (
    ACTIONS,
    CostLedger,
    LedgerEntry,
    LedgerReconciliationError,
)
from .metrics import (
    METRICS_SCHEMA,
    METRICS_SCHEMAS,
    RunRecord,
    metrics_snapshot,
    read_metrics,
    write_metrics,
)
from .observer import (
    Observer,
    SpanRecord,
    active,
    install,
    maybe_span,
    write_chrome_trace,
)
from .telemetry import (
    PROM_LINE_RE,
    LatencyHistogram,
    ProgressBoard,
    ProgressRenderer,
    ResourceSampler,
    render_dashboard,
    render_prometheus,
    write_prometheus,
)

__all__ = [
    "Observer",
    "active",
    "install",
    "ACTIONS",
    "CostLedger",
    "LedgerEntry",
    "LedgerReconciliationError",
    "METRICS_SCHEMA",
    "METRICS_SCHEMAS",
    "RunRecord",
    "metrics_snapshot",
    "read_metrics",
    "write_metrics",
    "LatencyHistogram",
    "ProgressBoard",
    "ProgressRenderer",
    "ResourceSampler",
    "PROM_LINE_RE",
    "render_dashboard",
    "render_prometheus",
    "write_prometheus",
    "SpanRecord",
    "maybe_span",
    "write_chrome_trace",
]
