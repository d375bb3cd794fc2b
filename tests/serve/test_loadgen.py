"""Tests for the closed-loop load generator and trace replay driver."""

from __future__ import annotations

import asyncio

from repro.cache.model import CostModel
from repro.core.online_dpg import solve_online_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.serve import (
    AdmissionConfig,
    ServeConfig,
    ServingEngine,
    replay_sequence,
    run_load_test,
    workload_requests,
)
from repro.trace.workload import zipf_item_workload

MODEL = CostModel(mu=1.0, lam=5.0)
NO_CHAOS = FaultPlan()


def quiet_config(**kwargs) -> ServeConfig:
    kwargs.setdefault("chaos", NO_CHAOS)
    kwargs.setdefault("max_wait", 0.0)
    return ServeConfig(**kwargs)


def run(coro):
    return asyncio.run(coro)


class TestWorkload:
    def test_deterministic_and_sized(self):
        a = workload_requests(100, 4, 16, seed=7)
        b = workload_requests(100, 4, 16, seed=7)
        assert a == b
        assert len(a) == 100
        assert all(0 <= s < 4 and items for s, items in a)


class TestRunLoadTest:
    def test_serves_everything_when_unloaded(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4, config=quiet_config(),
            )
            await engine.start()
            report = await run_load_test(
                engine, clients=8, requests=1000, num_items=32
            )
            total = await engine.drain()
            return report, total

        report, total = run(go())
        assert report.attempted == 1000
        assert report.served == 1000
        assert report.shed == report.rejected == report.degraded == 0
        assert report.throughput > 0
        assert report.decisions >= 1000  # multi-item requests count items
        assert report.quantile(0.5) is not None
        assert report.quantile(0.99) >= report.quantile(0.5)
        assert total > 0

    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4,
                config=quiet_config(
                    max_batch=4,
                    admission=AdmissionConfig(queue_limit=8, deadline=0.001),
                ),
            )
            await engine.start()
            report = await run_load_test(
                engine, clients=64, requests=5000, num_items=32
            )
            await engine.drain()
            return report, engine.counters()["serve.queue_depth"]

        report, depth = run(go())
        # 2x-overload acceptance: pressure surfaces as sheds/rejections,
        # the queue bound holds, and every admitted request was answered
        assert report.shed + report.rejected > 0
        assert depth == 0
        c = report.counters
        assert c["serve.answered"] == c["serve.admitted"]

    def test_retry_after_hint_is_honoured(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4,
                config=quiet_config(
                    admission=AdmissionConfig(rate=500.0, burst=1)
                ),
            )
            await engine.start()
            report = await run_load_test(
                engine, clients=1, requests=40, num_items=8, max_retries=5
            )
            await engine.drain()
            return report

        report = run(go())
        # a lone client sleeping the advertised retry-after always finds
        # the next token waiting, so everything lands despite burst=1
        assert report.served == 40

    def test_report_render_and_dict(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4, config=quiet_config(),
            )
            await engine.start()
            report = await run_load_test(
                engine, clients=4, requests=200, num_items=16
            )
            await engine.drain()
            return report

        report = run(go())
        text = report.report()
        assert "throughput" in text and "p50" in text
        payload = report.to_dict()
        assert payload["attempted"] == 200
        assert payload["latency_p50"] is not None
        assert payload["counters"]["serve.answered"] == 200


class TestReplaySequence:
    def test_replay_matches_online_solver(self):
        seq = zipf_item_workload(400, 4, 16, seed=11, cooccurrence=0.5)
        ref = solve_online_dp_greedy(seq, MODEL, theta=0.3, alpha=0.4)

        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4, origin=seq.origin,
                config=quiet_config(),
            )
            await engine.start()
            report = await replay_sequence(engine, seq, window=32)
            total = await engine.drain()
            return report, total

        report, total = run(go())
        assert report.served == len(seq)
        assert total == ref.total_cost

    def test_replay_stops_when_engine_drains(self):
        seq = zipf_item_workload(500, 4, 16, seed=13)

        async def go():
            engine = ServingEngine(
                MODEL, theta=0.3, alpha=0.4, origin=seq.origin,
                config=quiet_config(),
            )
            await engine.start()

            async def saboteur():
                await asyncio.sleep(0.005)
                engine.request_shutdown()

            task = asyncio.ensure_future(saboteur())
            report = await replay_sequence(engine, seq, window=16)
            await engine.drain()
            await task
            return report

        report = run(go())
        # the replay noticed the drain and stopped early; everything it
        # admitted before that still got an answer
        assert report.attempted <= len(seq)
        c = report.counters
        assert c["serve.answered"] == c["serve.admitted"]
