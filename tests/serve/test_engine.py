"""Tests for the always-on serving engine.

Each test drives a real asyncio engine with ``asyncio.run``; timing
knobs are pinned (``max_wait=0``, explicit chaos plans, no wall-clock
deadlines unless the test is about deadlines) so outcomes are
deterministic.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.cache.model import CostModel
from repro.core.online_dpg import solve_online_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.obs import Observer
from repro.serve import AdmissionConfig, ServeConfig, ServingEngine
from repro.trace.workload import zipf_item_workload

MODEL = CostModel(mu=1.0, lam=5.0)
THETA, ALPHA = 0.3, 0.4

#: Chaos pinned off -- the engine consults REPRO_CHAOS otherwise, and
#: the ambient environment must not steer these tests.
NO_CHAOS = FaultPlan()

#: Every batch faults on every attempt (a permanent solver-path storm).
STORM = FaultPlan(seed=1, crash=1.0, attempts=10**9)


def quiet_config(**kwargs) -> ServeConfig:
    kwargs.setdefault("chaos", NO_CHAOS)
    kwargs.setdefault("max_wait", 0.0)
    return ServeConfig(**kwargs)


def run(coro):
    return asyncio.run(coro)


class TestReplayParity:
    def test_serial_replay_is_bit_identical_to_online_solver(self):
        seq = zipf_item_workload(600, 4, 16, seed=3, cooccurrence=0.5)
        ref = solve_online_dp_greedy(seq, MODEL, theta=THETA, alpha=ALPHA)

        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, origin=seq.origin,
                config=quiet_config(),
            )
            await engine.start()
            statuses = []
            paid = 0.0
            for req in seq:
                answer = await engine.submit(req.server, req.items, time=req.time)
                statuses.append(answer.status)
                paid += answer.paid
            total = await engine.drain()
            return statuses, paid, total

        statuses, _paid, total = run(go())
        assert all(s == "ok" for s in statuses)
        assert total == ref.total_cost  # bit-identical, not approx

    def test_replay_equivalence_survives_repack_epochs(self):
        # interleaved re-packing epochs (no adoption) are read-only:
        # the replay stays bit-identical and the streaming statistics
        # keep matching the batch computation
        from repro.correlation import correlation_stats

        seq = zipf_item_workload(400, 4, 12, seed=5, cooccurrence=0.5)
        ref = solve_online_dp_greedy(seq, MODEL, theta=THETA, alpha=ALPHA)

        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, origin=seq.origin,
                config=quiet_config(),
            )
            await engine.start()
            for i, req in enumerate(seq):
                await engine.submit(req.server, req.items, time=req.time)
                if i % 50 == 49:
                    engine.repack()  # an explicit epoch, mid-stream
            stats = engine.state.stats
            batch = correlation_stats(seq)
            assert stats.num_requests == len(seq)
            for j, a, b in batch.pairs_by_similarity(threshold=0.0):
                assert stats.similarity(a, b) == pytest.approx(j)
            total = await engine.drain()
            return total, engine.counters()["serve.repacks"]

        total, repacks = run(go())
        assert total == ref.total_cost
        assert repacks == 8


class TestAdmissionLadder:
    def test_rate_limit_rejects_with_retry_after(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    admission=AdmissionConfig(rate=1.0, burst=2)
                ),
            )
            await engine.start()
            answers = [await engine.submit(0, {1}) for _ in range(4)]
            await engine.drain()
            return answers, engine.counters()

        answers, counters = run(go())
        rejected = [a for a in answers if a.status == "rejected"]
        assert len(rejected) == 2
        assert all(a.reason == "rate-limit" for a in rejected)
        assert all(a.retry_after > 0 for a in rejected)
        assert counters["serve.rate_limited"] == 2

    def test_full_queue_rejects_instead_of_growing(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    admission=AdmissionConfig(queue_limit=4),
                ),
            )
            # deliberately NOT started: nothing drains the queue
            tasks = [
                asyncio.ensure_future(engine.submit(0, {i})) for i in range(8)
            ]
            await asyncio.sleep(0.01)
            done = [t for t in tasks if t.done()]
            rejected = [t.result() for t in done]
            assert len(rejected) == 4
            assert all(a.status == "rejected" for a in rejected)
            assert all(a.reason == "queue-full" for a in rejected)
            assert all(a.retry_after > 0 for a in rejected)
            assert engine.counters()["serve.queue_depth"] == 4  # the bound held
            # now start and drain: the four queued must still be answered
            await engine.start()
            total = await engine.drain()
            served = [await t for t in tasks if not t in done]
            assert all(a.status == "ok" for a in served)
            return total

        assert run(go()) >= 0

    def test_expired_deadline_sheds_without_mutation(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            # submit with an already-hopeless deadline while the batch
            # loop is not running, then start it: the collector delivers
            # an expired request
            fut = asyncio.ensure_future(
                engine.submit(0, {1, 2}, deadline=0.005)
            )
            await asyncio.sleep(0.05)
            await engine.start()
            answer = await fut
            ok = await engine.submit(1, {3})
            await engine.drain()
            return answer, ok, engine.state.stats.num_requests, engine.counters()

        answer, ok, observed, counters = run(go())
        assert answer.status == "shed"
        assert answer.reason == "deadline"
        assert ok.status == "ok"
        # the shed request never touched the correlation statistics
        assert observed == 1
        assert counters["serve.shed"] == 1
        assert counters["serve.shed_deadline"] == 1

    def test_draining_engine_rejects_new_submissions(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            await engine.start()
            await engine.submit(0, {1})
            await engine.drain()
            late = await engine.submit(0, {2})
            return late

        late = run(go())
        assert late.status == "rejected"
        assert late.reason == "draining"


class TestChaosAndBreaker:
    def test_transient_chaos_is_retried_not_shed(self):
        flaky = FaultPlan(seed=2, crash=1.0, attempts=1)

        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(chaos=flaky, batch_retries=1),
            )
            await engine.start()
            answers = [await engine.submit(0, {i}) for i in range(20)]
            await engine.drain()
            return answers, engine.counters()

        answers, counters = run(go())
        assert all(a.status == "ok" for a in answers)
        assert counters["serve.chaos_injected"] > 0
        assert counters["serve.shed"] == 0

    def test_chaos_storm_trips_breaker_and_degrades(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    chaos=STORM,
                    batch_retries=0,
                    admission=AdmissionConfig(
                        breaker_threshold=3, breaker_cooldown=30.0
                    ),
                ),
            )
            await engine.start()
            answers = [await engine.submit(0, {i % 8}) for i in range(40)]
            total = await engine.drain()
            return answers, engine.counters(), engine.breaker.state, total

        answers, counters, state, total = run(go())
        shed = [a for a in answers if a.status == "shed"]
        degraded = [a for a in answers if a.status == "degraded"]
        # first three batches shed (tripping the breaker), the rest are
        # served degraded -- every admitted request got an answer
        assert len(shed) == 3
        assert len(degraded) == 37
        assert all(a.reason == "chaos" for a in shed)
        assert counters["serve.breaker_open"] == 1
        assert state == "open"
        assert counters["serve.answered"] == 40
        assert total > 0  # degraded ski-rental cost is still accounted

    def test_probe_recloses_breaker_after_storm_passes(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    chaos=STORM,
                    batch_retries=0,
                    admission=AdmissionConfig(
                        breaker_threshold=1, breaker_cooldown=0.01
                    ),
                ),
            )
            await engine.start()
            await engine.submit(0, {1})  # shed; trips the breaker
            assert engine.breaker.state == "open"
            engine.chaos = NO_CHAOS  # the storm passes
            await asyncio.sleep(0.02)  # past the cooldown
            probe = await engine.submit(0, {2})  # half-open probe batch
            after = await engine.submit(0, {3})
            await engine.drain()
            return probe, after, engine.breaker.state

        probe, after, state = run(go())
        assert probe.status == "ok"
        assert after.status == "ok"
        assert state == "closed"

    def test_degraded_interval_never_touches_correlation_counts(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    chaos=STORM,
                    batch_retries=0,
                    admission=AdmissionConfig(
                        breaker_threshold=1, breaker_cooldown=30.0
                    ),
                ),
            )
            await engine.start()
            await engine.submit(0, {1, 2})  # shed; trips breaker
            for _ in range(10):
                a = await engine.submit(0, {1, 2})
                assert a.status == "degraded"
            await engine.drain()
            return engine.state.stats.num_requests

        assert run(go()) == 0

    def test_degraded_free_transfers_count_as_transfers(self):
        # the breaker-open fallback classifies by what the ski-rental
        # unit did, not by what it paid: under lam == 0 moving item 7
        # off the origin is a transfer that costs nothing
        async def go():
            engine = ServingEngine(
                CostModel(mu=1.0, lam=0.0), theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    chaos=STORM,
                    batch_retries=0,
                    admission=AdmissionConfig(
                        breaker_threshold=1, breaker_cooldown=30.0
                    ),
                ),
            )
            await engine.start()
            await engine.submit(0, {1}, time=1.0)  # shed; trips the breaker
            answers = [
                await engine.submit(server, {7}, time=t)
                for server, t in ((1, 2.0), (2, 3.0))
            ]
            await engine.drain()
            return answers

        for a in run(go()):
            assert a.status == "degraded"
            assert (a.paid, a.hits, a.transfers) == (0.0, 0, 1)

    def test_chaos_delay_serves_after_the_stall(self):
        lagged = FaultPlan(seed=3, delay=1.0, delay_seconds=0.02, attempts=1)

        async def go():
            observer = Observer(runtime=True, stall_after=0.005)
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(chaos=lagged), observer=observer,
            )
            with observer:
                await engine.start()
                answer = await engine.submit(0, {1})
                await engine.drain()
            return answer, engine.counters()

        answer, counters = run(go())
        assert answer.status == "ok"  # delayed, not lost
        assert counters["serve.chaos_injected"] == 1
        # the stall watchdog flagged the sleeping batch
        assert counters["engine.stalls"] >= 1


class TestRepacking:
    def test_background_epochs_fire_and_publish_a_plan(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(repack_every=0.01),
            )
            await engine.start()
            seq = zipf_item_workload(300, 4, 8, seed=9, cooccurrence=0.9)
            for req in seq:
                await engine.submit(req.server, req.items, time=req.time)
            await asyncio.sleep(0.05)
            await engine.drain()
            return engine.last_plan, engine.counters()["serve.repacks"]

        plan, repacks = run(go())
        assert repacks >= 1
        assert plan is not None and len(plan.packages) > 0

    def test_repack_paused_while_breaker_open(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    chaos=STORM,
                    batch_retries=0,
                    repack_every=0.005,
                    admission=AdmissionConfig(
                        breaker_threshold=1, breaker_cooldown=60.0
                    ),
                ),
            )
            await engine.start()
            await engine.submit(0, {1, 2})  # trips the breaker
            await asyncio.sleep(0.05)  # several would-be epochs
            await engine.drain()
            return engine.counters()["serve.repacks"]

        assert run(go()) == 0

    def test_adoption_forms_offline_quality_packages(self):
        # a workload whose co-occurrence is strong but always arrives in
        # *separate* single-item requests never triggers the in-stream
        # rule; the offline epoch still proposes the pair, and adoption
        # installs it
        async def go():
            engine = ServingEngine(
                MODEL, theta=0.0, alpha=ALPHA,
                config=quiet_config(repack_adopt=True),
            )
            await engine.start()
            t = 0.0
            for _ in range(10):
                for item in (1, 2):
                    t += 1.0
                    await engine.submit(0, {1, 2} if item == 1 else {2},
                                        time=t)
            engine.repack()
            formed = dict(engine.state.formation)
            await engine.drain()
            return formed, engine.counters()["serve.packages_adopted"]

        formed, adopted = run(go())
        assert adopted + len(formed) >= 1


class TestDrain:
    def test_drain_is_idempotent_and_total_cost_stable(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            await engine.start()
            for i in range(10):
                await engine.submit(0, {i % 3})
            first = await engine.drain()
            second = await engine.drain()
            return first, second, engine.total_cost()

        first, second, reported = run(go())
        assert first == second == reported

    def test_total_cost_requires_drain(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            await engine.start()
            with pytest.raises(RuntimeError):
                engine.total_cost()
            await engine.drain()

        run(go())

    def test_every_admitted_request_is_answered_under_overload(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(
                    admission=AdmissionConfig(
                        queue_limit=8, deadline=0.002
                    ),
                    max_batch=4,
                ),
            )
            await engine.start()
            tasks = [
                asyncio.ensure_future(engine.submit(i % 4, {i % 8}))
                for i in range(200)
            ]
            answers = await asyncio.gather(*tasks)
            await engine.drain()
            return answers, engine.counters()

        answers, counters = run(go())
        assert len(answers) == 200
        by_status = {}
        for a in answers:
            by_status[a.status] = by_status.get(a.status, 0) + 1
        # the accounting identity: submissions split exactly into
        # rejections and answered admissions
        admitted = counters["serve.admitted"]
        assert counters["serve.answered"] == admitted
        assert by_status.get("rejected", 0) + admitted == 200

    def test_signal_handler_installation(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            await engine.start()
            engine.install_signal_handlers()
            engine.request_shutdown()  # what the handler invokes
            total = await engine.drain()
            return total

        assert run(go()) == 0.0


class TestFailuresNeverHang:
    """A bad request or a failing batch must never leave a caller waiting.

    Every await that could hang is bounded by ``asyncio.wait_for``, so a
    regression fails with ``TimeoutError`` instead of stalling the suite.
    """

    def test_malformed_submit_raises_at_the_door(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA, config=quiet_config(),
            )
            await engine.start()
            before = asyncio.ensure_future(engine.submit(0, {1}, time=1.0))
            bad = [
                ((2, []), {}, "item"),
                ((-1, {1}), {}, "server"),
                ((0, {1}), {"time": math.nan}, "time"),
                ((0, {1}), {"time": math.inf}, "time"),
                ((0, {1}), {"time": -1.0}, "time"),
            ]
            for args, kwargs, field in bad:
                with pytest.raises(ValueError, match=field):
                    await asyncio.wait_for(engine.submit(*args, **kwargs), 2.0)
            after = asyncio.ensure_future(engine.submit(1, {2}, time=2.0))
            answers = await asyncio.wait_for(asyncio.gather(before, after), 2.0)
            await asyncio.wait_for(engine.drain(), 2.0)
            return answers, engine.counters()

        answers, counters = run(go())
        assert [(a.status, a.time) for a in answers] == [("ok", 1.0), ("ok", 2.0)]
        # the malformed requests were never counted, admitted or queued
        assert counters["serve.submitted"] == 2
        assert counters["serve.admitted"] == counters["serve.answered"] == 2

    def test_batch_error_fails_its_callers_and_stops_admission(self):
        async def go():
            engine = ServingEngine(
                MODEL, theta=THETA, alpha=ALPHA,
                config=quiet_config(max_batch=2),
            )
            real_step = engine.state.step
            stepped = 0

            def step(req):
                nonlocal stepped
                stepped += 1
                if stepped == 3:
                    raise RuntimeError("solver blew up")
                return real_step(req)

            engine.state.step = step
            # six queued before the loop starts: batches (1, 2), (3, 4)
            # and (5, 6), the second of which fails on request 3
            tasks = [
                asyncio.ensure_future(engine.submit(0, {i}, time=float(i)))
                for i in range(1, 7)
            ]
            await asyncio.sleep(0)
            await engine.start()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 2.0
            )
            await asyncio.wait_for(engine.wait_shutdown(), 2.0)
            late = await engine.submit(0, {9}, time=10.0)
            with pytest.raises(RuntimeError, match="solver blew up"):
                await asyncio.wait_for(engine.drain(), 2.0)
            return outcomes, late

        outcomes, late = run(go())
        assert [o.status for o in outcomes[:2]] == ["ok", "ok"]
        # the failing batch and everything queued behind it
        for o in outcomes[2:]:
            assert isinstance(o, RuntimeError)
        assert (late.status, late.reason) == ("rejected", "draining")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait": -0.1},
            {"repack_every": 0.0},
            {"batch_retries": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)
