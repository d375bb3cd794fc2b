"""Tests of the content-addressed solver memo."""

from __future__ import annotations

import pytest

from repro.cache.model import CostModel, SingleItemView
from repro.engine.memo import SolverMemo, fingerprint_view, get_default_memo


def _view(servers=(0, 1, 0), times=(1.0, 2.0, 3.5), m=2, origin=0):
    return SingleItemView(
        servers=servers, times=times, num_servers=m, origin=origin
    )


class TestFingerprint:
    def test_deterministic(self, unit_model):
        assert fingerprint_view(_view(), unit_model) == fingerprint_view(
            _view(), unit_model
        )

    def test_sensitive_to_every_field(self, unit_model):
        base = fingerprint_view(_view(), unit_model)
        assert fingerprint_view(_view(servers=(0, 1, 1)), unit_model) != base
        assert (
            fingerprint_view(_view(times=(1.0, 2.0, 3.6)), unit_model) != base
        )
        assert fingerprint_view(_view(m=3), unit_model) != base
        assert fingerprint_view(_view(origin=1), unit_model) != base
        assert fingerprint_view(_view(), CostModel(mu=2.0, lam=1.0)) != base
        assert fingerprint_view(_view(), unit_model, 0.5) != base

    def test_accepts_request_sequence(self, unit_model):
        from repro.cache.model import RequestSequence

        seq = RequestSequence(
            ((0, 1.0, {1}), (1, 2.0, {1})), num_servers=2, origin=0
        )
        assert fingerprint_view(seq, unit_model) == fingerprint_view(
            seq.single_item_view(), unit_model
        )

    def test_identical_across_tuple_array_and_mmap_views(
        self, unit_model, tmp_path
    ):
        # the fingerprint is content-addressed: the same logical request
        # stream must hash identically no matter how the columns are
        # held -- python tuples, int64/float64 arrays, narrow int32
        # store columns, or a RequestSequence's own columns
        import numpy as np

        from repro.cache.model import RequestSequence
        from repro.trace.store import TraceStore, write_store

        servers = (0, 1, 0, 1)
        times = (1.0, 2.0, 3.5, 4.25)
        base = fingerprint_view(
            _view(servers=servers, times=times), unit_model
        )

        arr_view = _view(
            servers=np.array(servers, dtype=np.int64),
            times=np.array(times, dtype=np.float64),
        )
        assert fingerprint_view(arr_view, unit_model) == base

        narrow_view = _view(
            servers=np.array(servers, dtype=np.int32),
            times=np.array(times, dtype=np.float64),
        )
        assert fingerprint_view(narrow_view, unit_model) == base

        seq = RequestSequence(
            tuple((s, t, {1}) for s, t in zip(servers, times)),
            num_servers=2,
            origin=0,
        )
        # a sequence hashes its own columns
        assert fingerprint_view(seq, unit_model) == base

        # memory-mapped store columns hash the same as in-memory ones
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        assert fingerprint_view(sseq.item_view(1), unit_model) == base


class TestSolverMemo:
    def test_miss_then_hit(self, unit_model):
        memo = SolverMemo()
        key = fingerprint_view(_view(), unit_model)
        assert memo.get(key) is None
        memo.put(key, 4.25)
        assert memo.get(key) == 4.25
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_rate == pytest.approx(0.5)
        assert len(memo) == 1

    def test_eviction_is_fifo(self):
        memo = SolverMemo(max_entries=2)
        memo.put(b"a", 1.0)
        memo.put(b"b", 2.0)
        memo.put(b"c", 3.0)  # evicts the oldest entry, b"a"
        assert memo.get(b"a") is None
        assert memo.get(b"b") == 2.0
        assert memo.get(b"c") == 3.0

    def test_clear_resets_counters(self):
        memo = SolverMemo()
        memo.put(b"a", 1.0)
        memo.get(b"a")
        memo.clear()
        assert len(memo) == 0
        assert (memo.hits, memo.misses) == (0, 0)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            SolverMemo(max_entries=0)

    def test_default_memo_is_shared(self):
        assert get_default_memo() is get_default_memo()

    def test_stats_snapshot(self):
        memo = SolverMemo()
        memo.get(b"missing")
        memo.put(b"k", 1.5)
        memo.get(b"k")
        assert memo.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "hit_rate": 0.5,
        }


class TestCounterLocking:
    """Regression: hits/misses/hit_rate/__len__ used to read mutable
    state without the lock while stats() took it -- the counter
    properties must observe the same mutual exclusion as every other
    accessor."""

    def _assert_blocks_while_locked(self, memo, read):
        import threading

        value = []
        with memo._lock:
            t = threading.Thread(target=lambda: value.append(read(memo)))
            t.start()
            t.join(timeout=0.1)
            assert t.is_alive(), "reader did not wait for the memo lock"
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert len(value) == 1

    def test_hits_takes_the_lock(self):
        self._assert_blocks_while_locked(SolverMemo(), lambda m: m.hits)

    def test_misses_takes_the_lock(self):
        self._assert_blocks_while_locked(SolverMemo(), lambda m: m.misses)

    def test_hit_rate_takes_the_lock(self):
        self._assert_blocks_while_locked(SolverMemo(), lambda m: m.hit_rate)

    def test_len_takes_the_lock(self):
        self._assert_blocks_while_locked(SolverMemo(), lambda m: len(m))

    def test_counters_stay_coherent_under_concurrent_puts(self):
        import threading

        memo = SolverMemo()

        def worker(base):
            for i in range(200):
                key = f"{base}-{i}".encode()
                memo.get(key)
                memo.put(key, float(i))
                memo.get(key)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert memo.hits == 4 * 200
        assert memo.misses == 4 * 200
        assert memo.hit_rate == pytest.approx(0.5)
        assert len(memo) == 4 * 200


class TestAttributionPayload:
    def test_plain_entry_is_a_miss_with_attribution(self):
        memo = SolverMemo()
        memo.put(b"k", 2.0)
        assert memo.get(b"k") == 2.0
        # an observed run must never receive an un-ledgerable cost
        assert memo.get(b"k", with_attribution=True) is None

    def test_attribution_round_trips(self):
        memo = SolverMemo()
        attr = ((1.0, "cache", 0.5), (2.0, "transfer", 1.0))
        memo.put(b"k", 1.5, attribution=attr)
        assert memo.get(b"k", with_attribution=True) == (1.5, attr)
        assert memo.get(b"k") == 1.5  # plain callers see the bare cost

    def test_re_put_without_attribution_preserves_payload(self):
        memo = SolverMemo()
        attr = ((1.0, "transfer", 1.0),)
        memo.put(b"k", 1.0, attribution=attr)
        memo.put(b"k", 1.0)  # an unobserved run re-stores the same cost
        assert memo.get(b"k", with_attribution=True) == (1.0, attr)
