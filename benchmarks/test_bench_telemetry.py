"""Benchmark of the observer's runtime-leg overhead.

A runtime observer meters every Phase-2 unit solve (its span, a
histogram record, two progress-board updates), so its cost scales with
unit count, not workload size.  This benchmark solves a ~1k-unit
workload with and without a runtime observer (best of 3 each,
interleaved to dodge thermal drift) and pins the overhead at <= 5%
while re-asserting bit-identical costs.
"""

from __future__ import annotations

import time

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.obs import Observer
from repro.trace.workload import zipf_item_workload

MODEL = CostModel(mu=2.0, lam=3.0)
THETA, ALPHA = 0.9, 0.8
MAX_OVERHEAD = 0.05


def _workload():
    # ~1000 items with no co-occurrence: theta=0.9 packs nothing, so
    # every item is one serving unit.  ~48 requests per unit over 100
    # servers gives each unit an engine-sized O(n*m) DP, so the ratio
    # measures the ~2.5us/unit metering cost against realistic units
    # rather than degenerate two-request ones.
    return zipf_item_workload(
        48_000, 100, 1_000, seed=11, cooccurrence=0.0, zipf_s=0.3
    )


def _solve_plain(seq):
    return solve_dp_greedy(seq, MODEL, theta=THETA, alpha=ALPHA)


def _solve_metered(seq):
    with Observer(runtime=True, sample_interval=10.0) as observer:
        return solve_dp_greedy(
            seq, MODEL, theta=THETA, alpha=ALPHA, observer=observer
        ), observer


def test_bench_telemetry_overhead_1k_units():
    seq = _workload()

    # interleave the arms: best-of-3 each, so a background hiccup in
    # one round cannot bias the ratio
    t_plain = t_metered = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ref = _solve_plain(seq)
        t_plain = min(t_plain, time.perf_counter() - t0)
        t0 = time.perf_counter()
        got, tele = _solve_metered(seq)
        t_metered = min(t_metered, time.perf_counter() - t0)

    # observation only: bit-identical output ...
    assert got.total_cost == ref.total_cost
    assert got.reports == ref.reports

    # ... with real measurements in the observer ...
    lat = tele.cumulative_latency()["phase2.solve_seconds"]
    assert lat["count"] >= 990  # ~1k units (Zipf may skip a tail item)
    assert tele.board.done == tele.board.total >= 990

    # ... at <= 5% wall-clock overhead
    overhead = t_metered / t_plain - 1.0
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} on {lat['count']} units "
        f"(plain {t_plain * 1e3:.0f}ms, metered {t_metered * 1e3:.0f}ms); "
        f"bar is {MAX_OVERHEAD:.0%}"
    )
