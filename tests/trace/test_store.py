"""Tests of the out-of-core columnar trace store.

The store is only correct if it is *invisible*: a
:class:`~repro.trace.store.StoreSequence` opened off disk must behave
exactly like the in-memory :class:`~repro.cache.model.RequestSequence`
it was written from -- same requests, same views, same solver output
down to float bit patterns, same memo fingerprints.
"""

from __future__ import annotations

import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, Request, RequestSequence, SingleItemView
from repro.cache.optimal_dp import optimal_cost
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.memo import fingerprint_view
from repro.errors import TraceRowError
from repro.trace.io import sequence_from_csv_report, sequence_to_csv
from repro.trace.store import (
    STORE_SCHEMA,
    StoreSequence,
    TraceStore,
    convert_csv_to_store,
    write_store,
)
from repro.trace.workload import zipf_item_workload

from ..conftest import multi_item_sequences, stored, tamper


def _workload(n=120, servers=8, items=9, seed=7):
    return zipf_item_workload(n, servers, items, seed=seed, cooccurrence=0.4)


def _views_equal(a: SingleItemView, b: SingleItemView) -> bool:
    """Field-wise view equality that tolerates tuple/array/mmap backings
    (dataclass ``==`` on ndarray fields is ambiguous)."""
    return (
        a.num_servers == b.num_servers
        and a.origin == b.origin
        and np.array_equal(
            np.asarray(a.servers, dtype=np.int64),
            np.asarray(b.servers, dtype=np.int64),
        )
        and np.array_equal(
            np.asarray(a.times, dtype=np.float64),
            np.asarray(b.times, dtype=np.float64),
        )
    )


def _single_item_seq(n=40, servers=5, seed=3):
    rng = np.random.default_rng(seed)
    reqs = tuple(
        Request(int(rng.integers(0, servers)), 0.5 + i, frozenset({7}))
        for i in range(n)
    )
    return RequestSequence(reqs, num_servers=servers, origin=1)


class TestRoundTrip:
    def test_write_then_open_reproduces_the_sequence(self, tmp_path: Path):
        seq = _workload()
        sseq = TraceStore.open(write_store(seq, tmp_path / "store"))
        assert isinstance(sseq, StoreSequence)
        assert len(sseq) == len(seq)
        assert sseq.num_servers == seq.num_servers
        assert sseq.origin == seq.origin
        assert sseq.requests == seq.requests
        assert sseq.times == seq.times
        assert sseq.servers == seq.servers
        assert sseq.items == seq.items

    def test_container_protocol(self, tmp_path: Path):
        seq = _workload(n=30)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        assert sseq[0] == seq.requests[0]
        assert sseq[-1] == seq.requests[-1]
        assert sseq[5:9] == seq.requests[5:9]
        assert list(sseq) == list(seq.requests)
        with pytest.raises(IndexError):
            sseq[len(seq)]

    def test_empty_sequence_store(self, tmp_path: Path):
        seq = RequestSequence([], num_servers=4, origin=2)
        sseq = TraceStore.open(write_store(seq, tmp_path / "empty"))
        assert len(sseq) == 0
        assert sseq.num_servers == 4
        assert sseq.origin == 2
        assert sseq.requests == ()
        assert sseq.total_item_requests() == 0
        sseq.validate()

    def test_mmap_false_loads_into_ram_identically(self, tmp_path: Path):
        seq = _workload(n=50)
        path = write_store(seq, tmp_path / "s")
        a = TraceStore.open(path, mmap=True)
        b = TraceStore.open(path, mmap=False)
        assert a.requests == b.requests == seq.requests
        assert not isinstance(b.servers_array, np.memmap)

    def test_meta_json_is_the_completeness_marker(self, tmp_path: Path):
        path = write_store(_workload(n=10), tmp_path / "s")
        meta = json.loads((path / "meta.json").read_text())
        assert meta["schema"] == STORE_SCHEMA
        assert meta["num_requests"] == 10
        (path / "meta.json").unlink()
        with pytest.raises(FileNotFoundError, match="meta.json"):
            TraceStore.open(path)

    def test_unknown_schema_rejected(self, tmp_path: Path):
        path = write_store(_workload(n=10), tmp_path / "s")
        meta = json.loads((path / "meta.json").read_text())
        meta["schema"] = "repro.trace/store/v999"
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="schema"):
            TraceStore.open(path)

    def test_truncated_column_detected_without_mmap(self, tmp_path: Path):
        path = write_store(_workload(n=20), tmp_path / "s")
        blob = (path / "servers.bin").read_bytes()
        (path / "servers.bin").write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="truncated"):
            TraceStore.open(path, mmap=False)


class TestConverter:
    def test_clean_csv_converts_exactly(self, tmp_path: Path):
        seq = _workload(n=80)
        csv_path = tmp_path / "trace.csv"
        csv_path.write_text(sequence_to_csv(seq))
        dest, report = convert_csv_to_store(csv_path, tmp_path / "store")
        assert report.rows_loaded == report.rows_total == len(seq)
        assert report.rows_skipped == 0
        sseq = TraceStore.open(dest)
        assert sseq.requests == seq.requests
        assert sseq.num_servers == seq.num_servers
        assert sseq.origin == seq.origin

    DIRTY = (
        "# num_servers=3\n"
        "server,time,items\n"
        "0,0.5,1\n"
        "1,1.0\n"
        "2,1.5,1|2\n"
        "x,2.0,1\n"
        "1,2.5,\n"
        "9,3.0,2\n"
        "0,2.9,1\n"
        "0,4.0,1|2\n"
    )

    # a range rejection before a parse rejection: errors stay in line order
    DIRTY_ORDER = (
        "# num_servers=3\n"
        "server,time,items\n"
        "9,0.5,1\n"
        "0,1.0,1\n"
        "x,2.0,1\n"
    )

    def test_skip_mode_mirrors_in_memory_loader(self, tmp_path: Path):
        for text in (self.DIRTY, self.DIRTY_ORDER):
            csv_path = tmp_path / "dirty.csv"
            csv_path.write_text(text)
            mem, mem_report = sequence_from_csv_report(text, on_error="skip")
            dest, report = convert_csv_to_store(
                csv_path, tmp_path / "store", on_error="skip"
            )
            sseq = TraceStore.open(dest)
            assert sseq.requests == mem.requests
            assert sseq.num_servers == mem.num_servers
            assert report.rows_total == mem_report.rows_total
            assert report.rows_loaded == mem_report.rows_loaded
            assert report.rows_skipped == mem_report.rows_skipped
            assert report.errors == mem_report.errors
            lines = [line for line, _msg in report.errors]
            assert lines == sorted(lines)

    @pytest.mark.parametrize(
        "text, line, match",
        [(DIRTY, 4, "malformed"), (DIRTY_ORDER, 3, r"server 9 outside \[0, 3\)")],
        ids=["dirty", "order"],
    )
    def test_raise_mode_mirrors_in_memory_loader(self, tmp_path: Path, text, line, match):
        csv_path = tmp_path / "dirty.csv"
        csv_path.write_text(text)
        with pytest.raises(TraceRowError, match=match) as mem:
            sequence_from_csv_report(text)
        with pytest.raises(TraceRowError, match=match) as conv:
            convert_csv_to_store(csv_path, tmp_path / "store")
        assert mem.value.line == conv.value.line == line
        assert str(mem.value) == str(conv.value)

    def test_raise_mode_surfaces_the_first_dirty_row(self, tmp_path: Path):
        csv_path = tmp_path / "dirty.csv"
        csv_path.write_text(self.DIRTY)
        with pytest.raises(ValueError, match="malformed"):
            convert_csv_to_store(csv_path, tmp_path / "store")

    def test_skip_mode_infers_servers_from_accepted_rows(self, tmp_path: Path):
        # same regression as trace.io satellite: a dropped dirty row's
        # huge server id must not widen the inferred universe
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            "server,time,items\n0,0.5,1\n99,0.4,1\n1,1.0,2\n"
        )
        dest, report = convert_csv_to_store(
            csv_path, tmp_path / "store", on_error="skip"
        )
        sseq = TraceStore.open(dest)
        assert report.rows_skipped == 1
        assert sseq.num_servers == 2  # not 100

    def test_explicit_arguments_override_header(self, tmp_path: Path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(
            "# num_servers=3\n# origin=2\nserver,time,items\n0,0.5,1\n"
        )
        dest, _ = convert_csv_to_store(
            csv_path, tmp_path / "store", num_servers=10, origin=4
        )
        sseq = TraceStore.open(dest)
        assert sseq.num_servers == 10
        assert sseq.origin == 4

    def test_bad_header_rejected_even_in_skip_mode(self, tmp_path: Path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            convert_csv_to_store(csv_path, tmp_path / "store", on_error="skip")

    def test_bad_on_error_rejected(self, tmp_path: Path):
        with pytest.raises(ValueError, match="on_error"):
            convert_csv_to_store(
                tmp_path / "t.csv", tmp_path / "store", on_error="ignore"
            )

    def test_origin_outside_universe_rejected(self, tmp_path: Path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("server,time,items\n0,0.5,1\n")
        with pytest.raises(ValueError, match="origin"):
            convert_csv_to_store(csv_path, tmp_path / "store", origin=7)


class TestFacade:
    """Every derived view off the store matches the in-memory sequence."""

    @pytest.fixture
    def pair(self, tmp_path: Path):
        seq = _workload()
        return seq, TraceStore.open(write_store(seq, tmp_path / "s"))

    def test_columnar_arrays(self, pair):
        seq, sseq = pair
        np.testing.assert_array_equal(
            np.asarray(sseq.servers_array, dtype=np.int64), seq.servers_array
        )
        np.testing.assert_array_equal(sseq.times_array, seq.times_array)

    def test_item_csr_rows_are_sorted_and_deduped(self, pair):
        seq, sseq = pair
        offsets, ids = sseq.item_csr()
        assert int(offsets[-1]) == len(ids)
        for i, r in enumerate(seq.requests):
            row = ids[int(offsets[i]) : int(offsets[i + 1])]
            assert list(row) == sorted(r.items)

    def test_item_statistics(self, pair):
        seq, sseq = pair
        assert sseq.item_counts() == seq.item_counts()
        assert sseq.total_item_requests() == seq.total_item_requests()
        items = sorted(seq.items)
        d_i, d_j = items[0], items[1]
        assert sseq.cooccurrence(d_i, d_j) == seq.cooccurrence(d_i, d_j)
        with pytest.raises(ValueError, match="distinct"):
            sseq.cooccurrence(d_i, d_i)

    def test_item_indices_and_views(self, pair):
        seq, sseq = pair
        for d in sorted(seq.items):
            np.testing.assert_array_equal(
                sseq.item_indices(d), seq.item_indices(d)
            )
            assert _views_equal(sseq.item_view(d), seq.item_view(d))

    def test_group_view_matches(self, pair):
        seq, sseq = pair
        group = sorted(seq.items)[:2]
        assert _views_equal(sseq.group_view(group), seq.group_view(group))

    def test_restrictions_match(self, pair):
        seq, sseq = pair
        items = sorted(seq.items)
        d = items[0]
        assert sseq.restrict_to_item(d).requests == seq.restrict_to_item(d).requests
        for mode in ("any", "all", "exactly-one"):
            got = sseq.restrict_to_items(items[:2], mode=mode)
            ref = seq.restrict_to_items(items[:2], mode=mode)
            assert got.requests == ref.requests
        assert sseq.restrict_to_item(10**6).requests == ()
        with pytest.raises(ValueError, match="non-empty"):
            sseq.restrict_to_items([])
        with pytest.raises(ValueError, match="mode"):
            sseq.restrict_to_items([d], mode="some")

    def test_single_item_view(self, tmp_path: Path):
        seq = _single_item_seq()
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        assert _views_equal(sseq.single_item_view(), seq.single_item_view())

    def test_single_item_view_rejects_multi_item_store(self, pair):
        _, sseq = pair
        with pytest.raises(ValueError, match="single-item"):
            sseq.single_item_view()

    def test_validate_passes_on_a_good_store(self, pair):
        _, sseq = pair
        assert sseq.validate() is sseq

    def test_validate_catches_tampered_times(self, tmp_path: Path):
        seq = _workload(n=20)
        path = write_store(seq, tmp_path / "s")
        times = np.fromfile(path / "times.bin", dtype="<f8")
        times[10] = times[9]  # break strict monotonicity
        times.tofile(path / "times.bin")
        with pytest.raises(ValueError, match="increasing"):
            TraceStore.open(path).validate()

    def test_pickle_ships_the_path_not_the_data(self, pair):
        seq, sseq = pair
        blob = pickle.dumps(sseq)
        # a pool worker receives a few hundred bytes regardless of n
        assert len(blob) < 500
        back = pickle.loads(blob)
        assert isinstance(back, StoreSequence)
        assert back.requests == seq.requests

    def test_repr_mentions_the_store(self, pair):
        _, sseq = pair
        text = repr(sseq)
        assert "StoreSequence" in text
        assert "mmap=True" in text


def _corrupt_columns(seq, tmp_path, server, time):
    """Overwrite a copy of the in-memory sequence's columns."""
    tamper(seq, server[0], server=server[1])
    return tamper(seq, time[0], time=time[1])


def _corrupt_store_columns(seq, tmp_path, server, time):
    """Rewrite the store's server and time columns on disk."""
    path = write_store(seq, tmp_path / "s")
    servers = np.fromfile(path / "servers.bin", dtype="<i4")
    servers[server[0]] = server[1]
    servers.tofile(path / "servers.bin")
    times = np.fromfile(path / "times.bin", dtype="<f8")
    times[time[0]] = time[1]
    times.tofile(path / "times.bin")
    return TraceStore.open(path)


def _restrict_by_loop(seq, group, mode):
    """``restrict_to_items`` as a plain loop over ``seq.requests``."""
    out = []
    for r in seq.requests:
        inter = r.items & group
        if not inter:
            continue
        if mode == "all" and inter != group:
            continue
        if mode == "exactly-one" and len(inter) != 1:
            continue
        out.append(Request(r.server, r.time, inter))
    return tuple(out)


class TestSharedColumns:
    """In-memory and store-backed sequences run one implementation over
    the same columns, so they fail, and restrict, the same way."""

    @pytest.mark.parametrize(
        "corrupt",
        [_corrupt_columns, _corrupt_store_columns],
        ids=["memory", "store"],
    )
    def test_validate_reports_the_first_failing_row(self, tmp_path, corrupt):
        seq = RequestSequence(
            [(i % 2, float(i + 1), {1}) for i in range(10)], num_servers=2
        )
        seq = corrupt(seq, tmp_path, server=(3, 5), time=(7, math.nan))
        with pytest.raises(ValueError) as info:
            seq.validate()
        assert str(info.value) == (
            "request[3] (server 5, t=4.0): server id outside [0, 2)"
        )

    @pytest.mark.parametrize("layout", ["memory", "store"])
    def test_unknown_mode_rejected_for_an_absent_item(self, tmp_path, layout):
        seq = _workload(n=30)
        if layout == "store":
            seq = TraceStore.open(write_store(seq, tmp_path / "s"))
        absent = max(seq.items) + 1
        with pytest.raises(ValueError, match="unknown mode"):
            seq.restrict_to_items([absent], mode="some")

    @given(seq=multi_item_sequences(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_restrictions_match_a_plain_loop(self, seq, data):
        universe = sorted(seq.items) + [max(seq.items) + 1]
        group = frozenset(
            data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=3))
        )
        with stored(seq) as sseq:
            for got in (seq, sseq):
                for d in universe:
                    sub = got.restrict_to_item(d)
                    assert sub.requests == tuple(
                        Request(r.server, r.time, frozenset((d,)))
                        for r in seq.requests
                        if d in r.items
                    )
                    assert (sub.num_servers, sub.origin) == (
                        seq.num_servers, seq.origin,
                    )
                for mode in ("any", "all", "exactly-one"):
                    sub = got.restrict_to_items(group, mode=mode)
                    assert sub.requests == _restrict_by_loop(seq, group, mode)
                    assert (sub.num_servers, sub.origin) == (
                        seq.num_servers, seq.origin,
                    )


class TestMixedViewEquivalence:
    """Tuple-, ndarray-, and mmap-backed views are interchangeable:
    identical memo fingerprints, bit-identical DP costs on every
    backend."""

    def test_fingerprints_identical_across_backings(self, tmp_path: Path):
        seq = _single_item_seq()
        model = CostModel(mu=1.0, lam=1.0)
        mem_view = seq.single_item_view()
        store_view = TraceStore.open(
            write_store(seq, tmp_path / "s")
        ).single_item_view()
        tuple_view = SingleItemView(
            servers=tuple(int(s) for s in mem_view.servers),
            times=tuple(float(t) for t in mem_view.times),
            num_servers=mem_view.num_servers,
            origin=mem_view.origin,
        )
        array_view = SingleItemView(
            servers=np.asarray(mem_view.servers, dtype=np.int64),
            times=np.asarray(mem_view.times, dtype=np.float64),
            num_servers=mem_view.num_servers,
            origin=mem_view.origin,
        )
        # the store view really is the narrow on-disk dtype...
        assert np.asarray(store_view.servers).dtype == np.int32
        # ...yet all four backings hash to the same memo key
        digests = {
            fingerprint_view(v, model)
            for v in (mem_view, store_view, tuple_view, array_view)
        }
        assert len(digests) == 1

    def test_per_item_fingerprints_match_off_the_store(self, tmp_path: Path):
        seq = _workload()
        model = CostModel(mu=1.0, lam=1.0)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        for d in sorted(seq.items):
            assert fingerprint_view(sseq.item_view(d), model) == fingerprint_view(
                seq.item_view(d), model
            )

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_dp_backends_bit_identical_off_the_store(
        self, tmp_path: Path, backend
    ):
        seq = _workload()
        model = CostModel(mu=1.0, lam=1.0)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        for d in sorted(seq.items):
            ref = optimal_cost(seq.item_view(d), model)
            got = optimal_cost(sseq.item_view(d), model, backend=backend)
            assert got == ref


class TestSolveOffTheStore:
    def test_solve_dp_greedy_bit_identical(self, tmp_path: Path):
        seq = _workload(n=160, items=8)
        model = CostModel(mu=1.0, lam=1.0)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        ref = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        got = solve_dp_greedy(sseq, model, theta=0.3, alpha=0.8)
        assert got.total_cost == ref.total_cost
        assert got.ave_cost == ref.ave_cost
        assert got.plan == ref.plan
        assert got.reports == ref.reports

    def test_resumed_sharded_solve_dispatches_nothing(
        self, tmp_path: Path, monkeypatch
    ):
        # every shard replays from the checkpoint: the dispatcher the
        # shared driver calls must receive no unit
        from repro.engine import parallel
        from repro.engine.sharding import solve_dp_greedy_sharded

        model = CostModel(mu=1.0, lam=1.0)
        sseq = TraceStore.open(write_store(_workload(n=160), tmp_path / "s"))
        first = solve_dp_greedy_sharded(
            sseq, model, theta=0.3, alpha=0.8, shards=3, checkpoint=tmp_path
        )
        real = parallel.dispatch_resilient
        dispatched = []

        def recording(**kwargs):
            dispatched.append(list(kwargs["units"].values()))
            return real(**kwargs)

        monkeypatch.setattr(parallel, "dispatch_resilient", recording)
        again = solve_dp_greedy_sharded(
            sseq, model, theta=0.3, alpha=0.8, shards=3, checkpoint=tmp_path,
            resume=True,
        )
        assert dispatched == [[]]  # called once, with no unit
        assert again.total_cost == first.total_cost
        assert again.reports == first.reports
        assert again.engine_stats.shards == 3

    def test_csv_and_store_paths_agree(self, tmp_path: Path):
        seq = _workload(n=100)
        model = CostModel(mu=1.0, lam=1.0)
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(sequence_to_csv(seq))
        dest, _ = convert_csv_to_store(csv_path, tmp_path / "store")
        got = solve_dp_greedy(TraceStore.open(dest), model, theta=0.3, alpha=0.8)
        ref = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert got.total_cost == ref.total_cost
