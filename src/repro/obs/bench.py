"""Benchmark history and perf-regression tracking.

``results/BENCH_parallel.json`` captures one benchmark run; this module
captures the *trajectory*: every benchmark execution appends one line to
``results/BENCH_history.jsonl`` (schema below), and :func:`check_history`
compares the latest entry per bench against a rolling best-of-window
baseline -- the regression gate ``benchmarks/conftest.py`` and CI run.

One JSONL line per record::

    {"schema": "repro.obs/bench/v1",
     "bench": "benchmarks/test_bench_parallel.py::test_bench_parallel_engine_vs_serial",
     "seconds": 12.31,
     "counters": {"n": 9000},
     "git_rev": "642ada1",
     "timestamp": "2026-08-06T12:00:00+00:00"}

``bench`` is a stable identifier (pytest node id, or a harness-chosen
name like ``scaling.dp``), ``seconds`` the measured wall time,
``counters`` free-form numeric context.  Malformed or foreign-schema
lines are skipped on load so the history file survives schema drift.

The module doubles as a CLI::

    python -m repro.obs.bench check [--history PATH] [--ratio R]
                                    [--window N] [--warn-only]
    python -m repro.obs.bench list  [--history PATH]

``check`` exits 1 when any bench's latest time exceeds ``ratio`` times
the best of its previous ``window`` runs (0 with ``--warn-only``).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from .observer import maybe_span

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_HISTORY",
    "BenchRecord",
    "BenchVerdict",
    "BenchHistory",
    "check_history",
    "time_best_of",
    "main",
]

#: Schema identifier stamped into every history line.
BENCH_SCHEMA = "repro.obs/bench/v1"

#: Default history location, next to the other ``results/`` artefacts.
DEFAULT_HISTORY = Path("results") / "BENCH_history.jsonl"

#: Default regression threshold: latest > ratio * best-of-window fails.
DEFAULT_RATIO = 1.5

#: Default rolling-baseline window (previous runs considered).
DEFAULT_WINDOW = 5


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark execution (one ``BENCH_history.jsonl`` line)."""

    bench: str
    seconds: float
    counters: Dict[str, float] = field(default_factory=dict)
    git_rev: str = "unknown"
    timestamp: str = ""
    schema: str = BENCH_SCHEMA

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "bench": self.bench,
                "seconds": self.seconds,
                "counters": dict(self.counters),
                "git_rev": self.git_rev,
                "timestamp": self.timestamp,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "Optional[BenchRecord]":
        """Parse one history line; ``None`` for malformed/foreign lines."""
        try:
            raw = json.loads(line)
        except (ValueError, TypeError):
            return None
        if not isinstance(raw, dict) or raw.get("schema") != BENCH_SCHEMA:
            return None
        try:
            return cls(
                bench=str(raw["bench"]),
                seconds=float(raw["seconds"]),
                counters=dict(raw.get("counters") or {}),
                git_rev=str(raw.get("git_rev", "unknown")),
                timestamp=str(raw.get("timestamp", "")),
            )
        except (KeyError, ValueError, TypeError):
            return None


@dataclass(frozen=True)
class BenchVerdict:
    """Outcome of one regression check.

    ``ok`` is ``True`` when there is no usable baseline (first runs) or
    the measured time is within ``ratio * baseline``; ``reason`` is the
    human-readable one-liner the CLI and conftest print.
    """

    bench: str
    seconds: float
    baseline: Optional[float]
    ratio: float
    ok: bool
    reason: str


class BenchHistory:
    """Append/load/check interface over one ``BENCH_history.jsonl``."""

    def __init__(self, path: Union[str, Path] = DEFAULT_HISTORY) -> None:
        self.path = Path(path)

    # -- recording -------------------------------------------------------
    def append(
        self,
        bench: str,
        seconds: float,
        counters: Optional[Dict[str, float]] = None,
        *,
        rev: Optional[str] = None,
        timestamp: Optional[str] = None,
    ) -> BenchRecord:
        """Append one record (creating the file/directory as needed)."""
        if not bench:
            raise ValueError("bench id must be non-empty")
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(f"seconds must be finite and >= 0, got {seconds}")
        record = BenchRecord(
            bench=bench,
            seconds=float(seconds),
            counters=dict(counters or {}),
            git_rev=rev if rev is not None else git_rev(),
            timestamp=timestamp
            if timestamp is not None
            else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(record.to_json() + "\n")
        return record

    # -- reading ---------------------------------------------------------
    def load(self) -> List[BenchRecord]:
        """All valid records, in file (= chronological) order."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            record = BenchRecord.from_json(line)
            if record is not None:
                records.append(record)
        return records

    def records_for(self, bench: str) -> List[BenchRecord]:
        return [r for r in self.load() if r.bench == bench]

    def baseline(
        self, bench: str, *, window: int = DEFAULT_WINDOW
    ) -> Optional[float]:
        """Best (minimum) seconds over the last ``window`` runs of
        ``bench``, or ``None`` with no history."""
        history = self.records_for(bench)
        if not history:
            return None
        return min(r.seconds for r in history[-window:])

    # -- the regression gate --------------------------------------------
    def check(
        self,
        bench: str,
        seconds: float,
        *,
        ratio: float = DEFAULT_RATIO,
        window: int = DEFAULT_WINDOW,
    ) -> BenchVerdict:
        """Verdict for a fresh measurement against the recorded baseline.

        The measurement itself must *not* already be in the history
        (append after checking, or use :func:`check_history` which
        excludes the latest record per bench)."""
        baseline = self.baseline(bench, window=window)
        if baseline is None:
            return BenchVerdict(
                bench, seconds, None, ratio, True, "no baseline yet"
            )
        limit = ratio * baseline
        if seconds > limit:
            return BenchVerdict(
                bench,
                seconds,
                baseline,
                ratio,
                False,
                f"REGRESSION: {seconds:.3f}s > {ratio:g}x baseline "
                f"{baseline:.3f}s",
            )
        return BenchVerdict(
            bench,
            seconds,
            baseline,
            ratio,
            True,
            f"ok: {seconds:.3f}s <= {ratio:g}x baseline {baseline:.3f}s",
        )


def check_history(
    path: Union[str, Path] = DEFAULT_HISTORY,
    *,
    ratio: float = DEFAULT_RATIO,
    window: int = DEFAULT_WINDOW,
) -> List[BenchVerdict]:
    """Check every bench's *latest* record against the best of its
    previous ``window`` records; one verdict per bench id."""
    history = BenchHistory(path)
    by_bench: Dict[str, List[BenchRecord]] = {}
    for record in history.load():
        by_bench.setdefault(record.bench, []).append(record)
    verdicts = []
    for bench, records in sorted(by_bench.items()):
        latest, prior = records[-1], records[:-1]
        if not prior:
            verdicts.append(
                BenchVerdict(
                    bench, latest.seconds, None, ratio, True, "no baseline yet"
                )
            )
            continue
        baseline = min(r.seconds for r in prior[-window:])
        limit = ratio * baseline
        ok = latest.seconds <= limit
        reason = (
            f"ok: {latest.seconds:.3f}s <= {ratio:g}x baseline {baseline:.3f}s"
            if ok
            else f"REGRESSION: {latest.seconds:.3f}s > {ratio:g}x baseline "
            f"{baseline:.3f}s"
        )
        verdicts.append(
            BenchVerdict(bench, latest.seconds, baseline, ratio, ok, reason)
        )
    return verdicts


def time_best_of(
    fn: Callable,
    *args: object,
    repeats: int = 3,
    observer: Optional[object] = None,
    phase: Optional[str] = None,
) -> float:
    """Best-of-N wall time of ``fn(*args)``.

    Replaces the hand-rolled ``perf_counter`` loops of the scaling
    harness: with an ``observer`` and a ``phase`` every repeat is one
    span named ``phase``, so the same measurement feeds both the
    best-of result and the observer's span totals.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = math.inf
    for _ in range(repeats):
        with maybe_span(observer if phase else None, phase):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# CLI: python -m repro.obs.bench {check,list}
# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.bench",
        description="Benchmark history tools (see results/BENCH_history.jsonl)",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="regression-check the latest runs")
    check.add_argument("--history", default=str(DEFAULT_HISTORY))
    check.add_argument("--ratio", type=float, default=DEFAULT_RATIO)
    check.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    check.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (the PR-gate mode)",
    )

    lst = sub.add_parser("list", help="summarise the recorded history")
    lst.add_argument("--history", default=str(DEFAULT_HISTORY))

    args = parser.parse_args(argv)
    if args.command == "list":
        records = BenchHistory(args.history).load()
        by_bench: Dict[str, List[BenchRecord]] = {}
        for r in records:
            by_bench.setdefault(r.bench, []).append(r)
        if not by_bench:
            print(f"no records in {args.history}")
            return 0
        for bench, recs in sorted(by_bench.items()):
            best = min(r.seconds for r in recs)
            print(
                f"{bench}: {len(recs)} run(s), latest {recs[-1].seconds:.3f}s, "
                f"best {best:.3f}s (rev {recs[-1].git_rev})"
            )
        return 0
    if args.command == "check":
        verdicts = check_history(
            args.history, ratio=args.ratio, window=args.window
        )
        if not verdicts:
            print(f"no records in {args.history}; nothing to check")
            return 0
        failed = 0
        for v in verdicts:
            print(f"{v.bench}: {v.reason}")
            failed += not v.ok
        print(
            f"bench check: {len(verdicts) - failed}/{len(verdicts)} pass "
            f"(ratio {args.ratio:g}, window {args.window})"
        )
        return 1 if failed and not args.warn_only else 0

    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
