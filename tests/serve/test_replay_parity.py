"""Property tests pinning the serving engine to the one-shot solver.

Two invariants the always-on engine must never lose:

* a serial, shed-free replay of any request sequence through the engine
  is **bit-identical** in cost to :func:`solve_online_dp_greedy` (the
  engine is the solver's loop body behind admission control, nothing
  more), and so is every answer: each ``ServeAnswer`` carries exactly
  the ``StepOutcome`` of stepping the request serially;
* re-packing epochs are **read-only** on the streaming statistics --
  interleaving :func:`greedy_pair_packing` calls at arbitrary prefixes
  must not perturb the prefix-equivalence of
  :class:`StreamingCorrelation` with the batch computation.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, RequestSequence
from repro.core.online_dpg import OnlineDPGreedyState, solve_online_dp_greedy
from repro.correlation import correlation_stats
from repro.correlation.packing import greedy_pair_packing
from repro.correlation.streaming import StreamingCorrelation
from repro.engine.chaos import FaultPlan
from repro.serve import ServeConfig, ServingEngine

from ..conftest import cost_models, multi_item_sequences

NO_CHAOS = FaultPlan()


def _replay(seq: RequestSequence, model: CostModel, *, theta, alpha,
            min_observations, repack_every_n=None) -> float:
    async def go() -> float:
        engine = ServingEngine(
            model,
            theta=theta,
            alpha=alpha,
            origin=seq.origin,
            config=ServeConfig(
                chaos=NO_CHAOS,
                max_wait=0.0,
                min_observations=min_observations,
            ),
        )
        await engine.start()
        for i, req in enumerate(seq):
            answer = await engine.submit(req.server, req.items, time=req.time)
            assert answer.status == "ok"
            if repack_every_n and i % repack_every_n == repack_every_n - 1:
                engine.repack()
        return await engine.drain()

    return asyncio.run(go())


class TestEngineReplayParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seq=multi_item_sequences(),
        model=cost_models(),
        theta=st.sampled_from([0.0, 0.3, 0.6]),
        alpha=st.sampled_from([0.2, 0.45, 1.0]),
        warmup=st.integers(1, 4),
    )
    def test_shed_free_replay_is_bit_identical(
        self, seq, model, theta, alpha, warmup
    ):
        ref = solve_online_dp_greedy(
            seq, model, theta=theta, alpha=alpha, min_observations=warmup
        )
        total = _replay(
            seq, model, theta=theta, alpha=alpha, min_observations=warmup
        )
        assert total == ref.total_cost  # ==, not approx: same float ops

    @settings(max_examples=25, deadline=None)
    @given(
        seq=multi_item_sequences(),
        model=cost_models(),
        every=st.integers(1, 5),
    )
    def test_interleaved_repack_epochs_change_nothing(self, seq, model, every):
        ref = solve_online_dp_greedy(
            seq, model, theta=0.3, alpha=0.45, min_observations=2
        )
        total = _replay(
            seq, model, theta=0.3, alpha=0.45, min_observations=2,
            repack_every_n=every,
        )
        assert total == ref.total_cost

    @settings(max_examples=40, deadline=None)
    @given(
        seq=multi_item_sequences(),
        model=cost_models(),
        theta=st.sampled_from([0.0, 0.3, 0.6]),
        alpha=st.sampled_from([0.2, 0.45, 1.0]),
        warmup=st.integers(1, 4),
    )
    def test_every_answer_is_the_serial_step_outcome(
        self, seq, model, theta, alpha, warmup
    ):
        state = OnlineDPGreedyState(
            model, theta=theta, alpha=alpha, origin=seq.origin,
            min_observations=warmup,
        )
        outcomes = [state.step(req) for req in seq]

        async def go():
            engine = ServingEngine(
                model, theta=theta, alpha=alpha, origin=seq.origin,
                config=ServeConfig(
                    chaos=NO_CHAOS, max_wait=0.0, min_observations=warmup
                ),
            )
            await engine.start()
            # all in flight at once: admission runs in submission order,
            # and batches hold many requests
            answers = await asyncio.gather(
                *(engine.submit(r.server, r.items, time=r.time) for r in seq)
            )
            await engine.drain()
            return answers, engine.counters()

        answers, counters = asyncio.run(go())
        served = [
            (a.status, a.time, a.paid, a.hits, a.transfers, a.ships)
            for a in answers
        ]
        assert served == [
            ("ok", r.time, o.paid, o.hits, o.transfers, o.ships)
            for r, o in zip(seq, outcomes)
        ]
        formed = sum(len(o.formed) for o in outcomes)
        assert counters["serve.packages_formed"] == formed == len(state.formation)


class TestStreamingPrefixEquivalenceUnderEpochs:
    @settings(max_examples=40, deadline=None)
    @given(
        seq=multi_item_sequences(),
        epoch_stride=st.integers(1, 4),
        theta=st.sampled_from([0.0, 0.25, 0.5]),
    )
    def test_epochs_are_read_only_on_the_statistics(
        self, seq, epoch_stride, theta
    ):
        streaming = StreamingCorrelation(min_observations=1)
        for i, req in enumerate(seq):
            streaming.observe(req)
            if i % epoch_stride == epoch_stride - 1:
                # a re-packing epoch off the streaming state...
                greedy_pair_packing(streaming, theta)
            # ...must leave the prefix-equivalence intact
            prefix = RequestSequence(
                tuple(seq)[: i + 1],
                num_servers=seq.num_servers,
                origin=seq.origin,
            )
            batch = correlation_stats(prefix)
            assert streaming.num_requests == i + 1
            items = batch.items
            for a_idx in range(len(items)):
                for b_idx in range(a_idx + 1, len(items)):
                    a, b = items[a_idx], items[b_idx]
                    assert streaming.similarity(a, b) == pytest.approx(
                        batch.jaccard[a_idx, b_idx]
                    )
                    assert (
                        streaming.cooccurrence(a, b)
                        == batch.cooccurrence[a_idx, b_idx]
                    )

    @settings(max_examples=30, deadline=None)
    @given(seq=multi_item_sequences(), theta=st.sampled_from([0.0, 0.3]))
    def test_epoch_plan_matches_batch_packing(self, seq, theta):
        # past warm-up=1, the streaming packing surface feeds Phase 1
        # exactly like the batch statistics do
        streaming = StreamingCorrelation(min_observations=1)
        for req in seq:
            streaming.observe(req)
        batch = correlation_stats(seq)
        live = greedy_pair_packing(streaming, theta)
        ref = greedy_pair_packing(batch, theta)
        assert live.packages == ref.packages
        assert set(live.singletons) == set(ref.singletons)
