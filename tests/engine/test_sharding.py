"""Tests of the sharded DP_Greedy driver.

The contract is the same as the parallel engine's: sharding must be
invisible in the output.  Every test pins
:func:`~repro.engine.sharding.solve_dp_greedy_sharded` -- across shard
counts, pool backends, DP backends, chaos, checkpoint resume, and
store-backed sequences -- to the classic
:func:`~repro.core.dp_greedy.solve_dp_greedy`, down to dataclass
equality of the per-unit reports (bit-for-bit floats).
"""

from __future__ import annotations

import pytest

from repro.cache.model import CostModel, package_rate
from repro.cache.optimal_dp import optimal_cost
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine.parallel import _plan_units
from repro.engine.resilience import ResilienceConfig
from repro.engine.sharding import (
    _lpt_partition,
    shard_by_items,
    solve_dp_greedy_sharded,
)
from repro.trace.store import TraceStore, write_store
from repro.trace.workload import zipf_item_workload

THETA, ALPHA = 0.3, 0.8


def _workload(n=200, servers=12, items=12, seed=5):
    return zipf_item_workload(n, servers, items, seed=seed, cooccurrence=0.45)


@pytest.fixture(scope="module")
def seq():
    return _workload()


@pytest.fixture(scope="module")
def baseline(seq):
    return solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA)


_MODEL = CostModel(mu=1.0, lam=1.0)


def _solve(seq, **kw):
    return solve_dp_greedy_sharded(
        seq, _MODEL, theta=THETA, alpha=ALPHA, **kw
    )


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 16])
    def test_every_shard_count_matches_serial(self, seq, baseline, shards):
        got = _solve(seq, shards=shards)
        assert got.total_cost == baseline.total_cost
        assert got.ave_cost == baseline.ave_cost
        assert got.plan == baseline.plan
        assert got.reports == baseline.reports

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_every_dp_backend_matches_serial(self, seq, baseline, backend):
        # every sharded unit's DP cost is what the reference sweep gives
        # on that unit's view, bit for bit
        got = _solve(seq, shards=3)
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        for rep in got.reports:
            k = len(rep.group)
            if k >= 2:
                want = optimal_cost(
                    seq.group_view(rep.group),
                    _MODEL,
                    rate_multiplier=package_rate(k, ALPHA),
                    backend=backend,
                )
            else:
                (d,) = rep.group
                want = optimal_cost(seq.item_view(d), _MODEL, backend=backend)
            assert rep.package_cost == want

    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_every_pool_matches_serial(self, seq, baseline, pool):
        got = _solve(seq, shards=3, workers=2, pool=pool)
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        assert got.engine_stats.pool == pool

    def test_more_shards_than_units_is_fine(self, seq, baseline):
        got = _solve(seq, shards=10**4)
        assert got.reports == baseline.reports

    def test_store_backed_sequence_matches_in_memory(
        self, seq, baseline, tmp_path
    ):
        sseq = TraceStore.open(write_store(seq, tmp_path / "store"))
        got = _solve(sseq, shards=3, workers=2, pool="process")
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports

    def test_default_shard_count_is_cpu_count(self, seq):
        import os

        got = _solve(seq)
        expected_units = got.engine_stats.units
        assert got.engine_stats.shards == min(
            max(1, os.cpu_count() or 1), expected_units
        )


class TestSharding:
    def test_packages_are_never_split(self, seq, baseline):
        plan = baseline.plan
        shards = shard_by_items(seq, 4, plan=plan)
        # every plan unit appears exactly once, whole, in some shard
        flat = [spec for shard in shards for spec in shard]
        assert sorted(flat) == sorted(_plan_units(plan))
        for shard in shards:
            for kind, payload in shard:
                if kind == "package":
                    assert tuple(payload) in {
                        tuple(sorted(p)) for p in plan.packages
                    } or frozenset(payload) in {
                        frozenset(p) for p in plan.packages
                    }

    def test_units_stay_in_plan_order_inside_a_shard(self, seq, baseline):
        order = {spec: i for i, spec in enumerate(_plan_units(baseline.plan))}
        for shard in shard_by_items(seq, 3, plan=baseline.plan):
            ranks = [order[spec] for spec in shard]
            assert ranks == sorted(ranks)

    def test_without_a_plan_every_item_is_a_singleton(self, seq):
        shards = shard_by_items(seq, 2)
        flat = sorted(spec for shard in shards for spec in shard)
        assert flat == [("singleton", int(d)) for d in sorted(seq.items)]

    def test_deterministic(self, seq, baseline):
        a = shard_by_items(seq, 5, plan=baseline.plan)
        b = shard_by_items(seq, 5, plan=baseline.plan)
        assert a == b

    def test_balanced_within_lpt_bound(self, seq, baseline):
        from repro.engine.parallel import _unit_sizes

        plan = baseline.plan
        units = _plan_units(plan)
        sizes = dict(zip(units, _unit_sizes(seq, units)))
        loads = sorted(
            sum(sizes[spec] for spec in shard)
            for shard in shard_by_items(seq, 3, plan=plan)
        )
        perfect = sum(sizes.values()) / 3
        # LPT guarantees max load <= 4/3 OPT; OPT >= perfect split
        assert loads[-1] <= (4 / 3) * perfect + max(sizes.values())


class TestLptPartition:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            _lpt_partition([1, 2], 0)

    def test_empty_sizes(self):
        assert _lpt_partition([], 4) == []

    def test_groups_are_sorted_and_cover_all_indices(self):
        groups = _lpt_partition([5, 1, 9, 3, 3, 7], 3)
        assert sorted(i for g in groups for i in g) == list(range(6))
        assert all(g == sorted(g) for g in groups)

    def test_zero_sized_units_still_occupy_slots(self):
        # zero weights are clamped to 1 so many empty units spread out
        groups = _lpt_partition([0, 0, 0, 0], 2)
        assert sorted(len(g) for g in groups) == [2, 2]

    def test_largest_first_balance(self):
        groups = _lpt_partition([10, 10, 1, 1], 2)
        loads = sorted(sum((10, 10, 1, 1)[i] for i in g) for g in groups)
        assert loads == [11, 11]


class TestMemo:
    def test_second_run_hits_everything(self, seq, baseline):
        memo = SolverMemo()
        first = _solve(seq, shards=3, memo=memo)
        second = _solve(seq, shards=3, memo=memo)
        assert first.reports == baseline.reports
        assert second.reports == baseline.reports
        assert first.engine_stats.memo_hits == 0
        assert second.engine_stats.memo_hits == second.engine_stats.units
        assert second.engine_stats.dispatched == 0
        assert second.engine_stats.shards == 0  # nothing left to shard

    def test_memo_shared_with_unsharded_solver(self, seq, baseline):
        # a store-backed sharded run must populate the same memo entries
        # the in-memory unsharded solver probes
        memo = SolverMemo()
        _solve(seq, shards=3, memo=memo)
        again = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, memo=memo
        )
        assert again.reports == baseline.reports
        assert again.engine_stats.memo_hits == again.engine_stats.units

    def test_bad_memo_type_rejected(self, seq):
        with pytest.raises(TypeError, match="memo"):
            _solve(seq, memo="yes")


class TestResilience:
    def test_chaos_crashes_are_absorbed(self, seq, baseline):
        got = _solve(
            seq,
            shards=4,
            workers=2,
            pool="thread",
            resilience=ResilienceConfig(chaos=FaultPlan(seed=7, crash=0.5)),
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        assert got.engine_stats.retries > 0

    def test_skip_drops_whole_shards_and_counts_units(self, seq, baseline):
        got = _solve(
            seq,
            shards=4,
            workers=2,
            pool="thread",
            resilience=ResilienceConfig(
                chaos=FaultPlan(seed=3, crash=0.5, attempts=99),
                retries=1,
                on_unit_error="skip",
            ),
        )
        es = got.engine_stats
        assert es.units_failed > 0
        assert len(got.reports) == es.units - es.units_failed
        # surviving reports are the baseline's, untouched
        by_group = {r.group: r for r in baseline.reports}
        assert all(r == by_group[r.group] for r in got.reports)
        assert got.total_cost == sum(r.total for r in got.reports)


class TestCheckpoint:
    def test_resume_replays_without_dispatching(
        self, seq, baseline, tmp_path, monkeypatch
    ):
        first = _solve(seq, shards=3, checkpoint=tmp_path)
        assert first.reports == baseline.reports

        # a resumed run must not solve anything: poison the dispatcher
        import repro.engine.sharding as sharding

        def _boom(*a, **kw):
            raise AssertionError("resume must not re-dispatch solved shards")

        monkeypatch.setattr(sharding, "dispatch_resilient", _boom)
        second = _solve(seq, shards=3, checkpoint=tmp_path, resume=True)
        assert second.total_cost == baseline.total_cost
        assert second.reports == baseline.reports

    def test_partial_checkpoint_resolves_only_missing_shards(
        self, seq, baseline, tmp_path
    ):
        from repro.experiments.base import sweep_checkpoint
        from repro.engine.sharding import SHARD_CHECKPOINT_ID

        _solve(seq, shards=3, checkpoint=tmp_path)
        ckpt_path = tmp_path / f"CHECKPOINT_{SHARD_CHECKPOINT_ID}.jsonl"
        lines = ckpt_path.read_text().splitlines()
        assert len(lines) == 3
        # drop one recorded shard; the resumed run re-solves just it
        ckpt_path.write_text("\n".join(lines[:-1]) + "\n")
        got = _solve(seq, shards=3, checkpoint=tmp_path, resume=True)
        assert got.reports == baseline.reports
        ckpt = sweep_checkpoint(tmp_path, SHARD_CHECKPOINT_ID, resume=True)
        assert ckpt.points_loaded == 3  # the dropped shard was re-recorded

    def test_resume_without_checkpoint_rejected(self, seq):
        with pytest.raises(ValueError, match="resume"):
            _solve(seq, resume=True)

    def test_checkpoint_floats_round_trip_bit_exactly(
        self, seq, baseline, tmp_path
    ):
        _solve(seq, shards=2, checkpoint=tmp_path)
        resumed = _solve(seq, shards=2, checkpoint=tmp_path, resume=True)
        assert resumed.total_cost == baseline.total_cost
        assert resumed.reports == baseline.reports


class TestApi:
    def test_bad_alpha_rejected(self, seq):
        with pytest.raises(ValueError, match="alpha"):
            solve_dp_greedy_sharded(seq, _MODEL, theta=0.3, alpha=0.0)

    def test_bad_packing_rejected(self, seq):
        with pytest.raises(ValueError, match="packing"):
            _solve(seq, packing="magic")

    def test_foreign_plan_must_cover_items(self, seq):
        other = _workload(n=60, items=3, seed=9)
        other_plan = solve_dp_greedy(
            other, _MODEL, theta=THETA, alpha=ALPHA
        ).plan
        with pytest.raises(ValueError, match="cover"):
            _solve(seq, plan=other_plan)

    def test_engine_stats_shape(self, seq):
        got = _solve(seq, shards=3)
        es = got.engine_stats
        assert es.shards == 3
        assert es.units == es.packages + es.singletons == len(got.reports)
        assert es.dispatched == es.units
        assert es.units_failed == 0


class TestObservability:
    def test_merged_ledger_reconciles_across_shards(self, seq, baseline):
        from repro.obs import MetricsCollector

        collector = MetricsCollector()
        obs = collector.observe(case="sharded")
        got = _solve(seq, shards=3, obs=obs)
        assert got.total_cost == baseline.total_cost
        counters = obs.counters.snapshot()
        assert counters["engine.shards"] == 3
        assert counters["engine.units"] == got.engine_stats.units
        # attribution flowed back from every shard: the ledger's grand
        # total reconciles with the solver's
        assert obs.ledger is not None

    def test_tracer_sees_shard_units(self, seq):
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        _solve(seq, shards=2, workers=2, pool="thread", tracer=tracer)
        names = [s.name for s in tracer.records()]
        assert "engine.dispatch" in names
