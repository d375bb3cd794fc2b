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

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, package_rate
from repro.cache.optimal_dp import optimal_cost
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine import parallel
from repro.engine.parallel import _lpt_partition, _plan_units, _unit_sizes
from repro.engine.resilience import ResilienceConfig
from repro.engine.sharding import solve_dp_greedy_sharded
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


@pytest.fixture
def dispatches(monkeypatch):
    """The groups every solve hands the dispatcher, one list per solve."""
    real = parallel.dispatch_resilient
    calls = []

    def recording(**kwargs):
        calls.append(list(kwargs["units"].values()))
        return real(**kwargs)

    monkeypatch.setattr(parallel, "dispatch_resilient", recording)
    return calls


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

    @pytest.mark.parametrize(
        "workers, pool", [(1, "serial"), (2, "process")], ids=["serial", "process"]
    )
    def test_every_pool_matches_serial(self, seq, baseline, workers, pool):
        got = _solve(seq, shards=3, workers=workers)
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
        got = _solve(sseq, shards=3, workers=2)
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
    """The partition a sharded solve actually dispatches."""

    @staticmethod
    def _shards(seq, dispatches, shards):
        _solve(seq, shards=shards)
        return dispatches.pop()

    def test_packages_are_never_split(self, seq, baseline, dispatches):
        plan = baseline.plan
        shards = self._shards(seq, dispatches, 4)
        assert len(shards) == 4
        # every plan unit appears exactly once, whole, in some shard
        flat = [unit for shard in shards for unit in shard]
        assert sorted(flat) == sorted(_plan_units(plan))
        packages = {tuple(sorted(p)) for p in plan.packages}
        for shard in shards:
            for unit in shard:
                if len(unit) > 1:
                    assert unit in packages

    def test_units_stay_in_plan_order_inside_a_shard(self, seq, baseline,
                                                     dispatches):
        order = {unit: i for i, unit in enumerate(_plan_units(baseline.plan))}
        for shard in self._shards(seq, dispatches, 3):
            ranks = [order[unit] for unit in shard]
            assert ranks == sorted(ranks)

    def test_deterministic(self, seq, dispatches):
        a = self._shards(seq, dispatches, 5)
        b = self._shards(seq, dispatches, 5)
        assert a == b

    def test_balanced_within_lpt_bound(self, seq, baseline, dispatches):
        units = _plan_units(baseline.plan)
        sizes = dict(zip(units, _unit_sizes(seq, units)))
        loads = sorted(
            sum(sizes[unit] for unit in shard)
            for shard in self._shards(seq, dispatches, 3)
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

    @staticmethod
    def _key_sorted_placement(sizes, shards):
        """The placement as first written: indices sorted by a Python
        key (size descending, index ascending), then pop/push per unit."""
        groups = [[] for _ in range(shards)]
        heap = [(0, j) for j in range(shards)]
        heapq.heapify(heap)
        for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
            load, j = heapq.heappop(heap)
            groups[j].append(i)
            heapq.heappush(heap, (load + max(int(sizes[i]), 1), j))
        return [sorted(g) for g in groups if g]

    @settings(max_examples=300, deadline=None)
    @given(
        # small sizes force ties and zeros; large ones spread the loads
        sizes=st.lists(st.integers(0, 4) | st.integers(0, 10**9), max_size=60),
        shards=st.integers(1, 12),
    )
    def test_matches_the_key_sorted_placement(self, sizes, shards):
        assert _lpt_partition(sizes, shards) == self._key_sorted_placement(
            sizes, shards
        )


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
    def test_resilience_false_opts_out_of_retries_and_chaos(
        self, seq, baseline, monkeypatch
    ):
        # as on solve_dp_greedy: False is no retries and no fault
        # injection, even with REPRO_CHAOS set; only None picks the
        # sharded default
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,crash=1.0,attempts=1")
        got = _solve(seq, shards=3, resilience=False)
        assert got.reports == baseline.reports
        assert got.engine_stats.retries == 0
        again = _solve(seq, shards=3)
        assert again.reports == baseline.reports
        assert again.engine_stats.retries == 3  # one per shard: the default

    def test_chaos_crashes_are_absorbed(self, seq, baseline):
        got = _solve(
            seq,
            shards=4,
            workers=2,
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
        self, seq, baseline, tmp_path, dispatches
    ):
        first = _solve(seq, shards=3, checkpoint=tmp_path)
        assert first.reports == baseline.reports
        assert len(dispatches.pop()) == 3

        # a resumed run must not solve anything: the dispatcher the
        # shared driver calls must receive no unit
        second = _solve(seq, shards=3, checkpoint=tmp_path, resume=True)
        assert dispatches == [[]]
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

    def test_bad_resilience_rejected_before_phase_1(self, seq):
        from repro.obs import Observer

        observer = Observer(spans=True)
        with pytest.raises(TypeError, match="resilience"):
            _solve(seq, resilience="yes", observer=observer)
        assert observer.records() == ()

    @pytest.mark.parametrize("shards", [0, -3])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-memo"])
    def test_nonpositive_shards_rejected(self, seq, shards, warm):
        from repro.obs import Observer

        memo = SolverMemo()
        if warm:
            # every unit a memo hit: nothing is left to shard, and the
            # bad count must still be refused
            again = _solve(seq, memo=memo)
            assert again.engine_stats.memo_misses == again.engine_stats.units
        observer = Observer(spans=True)
        with pytest.raises(ValueError, match="shards"):
            _solve(seq, shards=shards, memo=memo, observer=observer)
        assert observer.records() == ()  # refused before Phase 1

    def test_engine_stats_shape(self, seq):
        got = _solve(seq, shards=3)
        es = got.engine_stats
        assert es.shards == 3
        assert es.units == es.packages + es.singletons == len(got.reports)
        assert es.dispatched == es.units
        assert es.units_failed == 0


class TestObservability:
    def test_merged_ledger_reconciles_across_shards(self, seq, baseline):
        from repro.obs import Observer

        observer = Observer(ledger=True)
        observer.begin_run(case="sharded")
        got = _solve(seq, shards=3, observer=observer)
        assert got.total_cost == baseline.total_cost
        run = observer.runs[-1]
        counters = run.counters
        assert counters["engine.shards"] == 3
        assert counters["engine.units"] == got.engine_stats.units
        # attribution flowed back from every shard: the ledger's grand
        # total reconciles with the solver's
        assert run.ledger is not None

    def test_tracer_sees_shard_units(self, seq):
        from repro.obs import Observer

        observer = Observer(spans=True)
        _solve(seq, shards=2, workers=2, observer=observer)
        names = [s.name for s in observer.records()]
        assert "engine.dispatch" in names
