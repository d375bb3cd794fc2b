"""Throughput benchmark of the always-on serving engine.

A closed-loop load test (64 clients, zero batch linger) pushes 1e5
requests through the full ingress path -- token bucket, bounded queue,
batch collector, online DP_Greedy solve -- and pins the sustained
decision rate at >= 1e4 decisions/s, the ISSUE's CI floor.  The run
reports p50/p99 admission-to-answer latency and asserts the engine
answered every admitted request.
"""

from __future__ import annotations

import asyncio
import os

from conftest import run_once

from repro.cache.model import CostModel
from repro.engine.chaos import FaultPlan
from repro.serve import ServeConfig, ServingEngine, run_load_test

MODEL = CostModel(mu=1.0, lam=5.0)
THETA, ALPHA = 0.3, 0.4
FLOOR_DECISIONS_PER_S = 10_000
#: 1e5 attempted locally; CI can shrink via BENCH_SERVE_REQUESTS.
REQUESTS = int(os.environ.get("BENCH_SERVE_REQUESTS", "100000"))


def _loadtest():
    async def go():
        engine = ServingEngine(
            MODEL,
            theta=THETA,
            alpha=ALPHA,
            config=ServeConfig(
                max_batch=256, max_wait=0.0, chaos=FaultPlan()
            ),
        )
        await engine.start()
        report = await run_load_test(
            engine, clients=64, requests=REQUESTS, num_items=64, seed=3
        )
        total = await engine.drain()
        return report, total

    return asyncio.run(go())


def test_bench_serve_throughput(benchmark):
    report, total = run_once(benchmark, _loadtest)

    # every admitted request was answered, nothing queued forever
    assert report.attempted == REQUESTS
    c = report.counters
    assert c["serve.answered"] == c["serve.admitted"]
    assert report.served == REQUESTS  # unloaded closed loop: no sheds
    assert total > 0

    p50 = report.quantile(0.5)
    p99 = report.quantile(0.99)
    assert p50 is not None and p99 is not None and p99 >= p50

    assert report.decisions_per_second >= FLOOR_DECISIONS_PER_S, (
        f"serve.throughput {report.decisions_per_second:,.0f} decisions/s "
        f"below the {FLOOR_DECISIONS_PER_S:,} floor "
        f"({report.attempted} attempted in {report.wall_seconds:.2f}s)"
    )
