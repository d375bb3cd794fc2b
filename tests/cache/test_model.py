"""Unit tests for the domain model (requests, sequences, cost model)."""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import (
    CostModel,
    Request,
    RequestSequence,
    SingleItemView,
    package_rate,
)
from repro.errors import ReproError, RequestRowError

from ..conftest import multi_item_sequences, stored, tamper


class TestRequest:
    def test_basic_construction(self):
        r = Request(server=2, time=1.5, items=frozenset({1, 3}))
        assert r.server == 2
        assert r.time == 1.5
        assert r.items == {1, 3}

    def test_contains(self):
        r = Request(server=0, time=1.0, items=frozenset({4}))
        assert r.contains(4)
        assert not r.contains(5)

    def test_rejects_empty_items(self):
        with pytest.raises(ValueError, match="at least one data item"):
            Request(server=0, time=1.0, items=frozenset())

    def test_rejects_negative_server(self):
        with pytest.raises(ValueError, match="non-negative"):
            Request(server=-1, time=1.0, items=frozenset({1}))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            Request(server=0, time=-0.1, items=frozenset({1}))

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="finite"):
            Request(server=0, time=float("nan"), items=frozenset({1}))

    def test_is_hashable_and_frozen(self):
        r = Request(server=0, time=1.0, items=frozenset({1}))
        assert hash(r) == hash(Request(server=0, time=1.0, items=frozenset({1})))
        with pytest.raises(AttributeError):
            r.server = 3  # type: ignore[misc]

    def test_str_mentions_server_and_items(self):
        s = str(Request(server=1, time=2.0, items=frozenset({7})))
        assert "s1" in s and "d7" in s


class TestRequestSequence:
    def test_tuple_coercion(self):
        seq = RequestSequence([(0, 1.0, {1}), (1, 2.0, 2)], num_servers=2)
        assert len(seq) == 2
        assert seq[0].items == {1}
        assert seq[1].items == {2}

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(
            RequestRowError,
            match=r"^request\[1\] \(server 1, t=1\.0\): times must be strictly "
            r"increasing \(previous was 1\.0\)$",
        ):
            RequestSequence([(0, 1.0, {1}), (1, 1.0, {1})], num_servers=2)

    def test_rejects_out_of_range_server(self):
        with pytest.raises(
            RequestRowError,
            match=r"^request\[0\] \(server 5, t=1\.0\): server id outside \[0, 2\)$",
        ):
            RequestSequence([(5, 1.0, {1})], num_servers=2)

    def test_rejects_bad_origin(self):
        with pytest.raises(ValueError, match="origin"):
            RequestSequence([(0, 1.0, {1})], num_servers=2, origin=7)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError, match="num_servers"):
            RequestSequence([], num_servers=0)

    def test_items_universe(self):
        seq = RequestSequence(
            [(0, 1.0, {1, 2}), (1, 2.0, {3})], num_servers=2
        )
        assert seq.items == {1, 2, 3}

    def test_item_counts_and_cooccurrence(self):
        seq = RequestSequence(
            [(0, 1.0, {1, 2}), (1, 2.0, {1}), (0, 3.0, {2}), (1, 4.0, {1, 2})],
            num_servers=2,
        )
        counts = seq.item_counts()
        assert counts == {1: 3, 2: 3}
        assert seq.cooccurrence(1, 2) == 2
        assert seq.total_item_requests() == 6

    def test_cooccurrence_same_item_rejected(self):
        seq = RequestSequence([(0, 1.0, {1})], num_servers=1)
        with pytest.raises(ValueError):
            seq.cooccurrence(1, 1)

    def test_restrict_to_item(self):
        seq = RequestSequence(
            [(0, 1.0, {1, 2}), (1, 2.0, {2}), (0, 3.0, {1})], num_servers=2
        )
        sub = seq.restrict_to_item(1)
        assert [r.time for r in sub] == [1.0, 3.0]
        assert all(r.items == {1} for r in sub)

    def test_restrict_modes(self):
        seq = RequestSequence(
            [
                (0, 1.0, {1, 2}),
                (1, 2.0, {1}),
                (0, 3.0, {2}),
                (1, 4.0, {1, 2, 3}),
                (0, 5.0, {3}),
            ],
            num_servers=2,
        )
        assert [r.time for r in seq.restrict_to_items({1, 2}, "any")] == [
            1.0, 2.0, 3.0, 4.0,
        ]
        assert [r.time for r in seq.restrict_to_items({1, 2}, "all")] == [1.0, 4.0]
        assert [r.time for r in seq.restrict_to_items({1, 2}, "exactly-one")] == [
            2.0, 3.0,
        ]

    def test_restrict_keeps_intersection_only(self):
        seq = RequestSequence([(0, 1.0, {1, 2, 3})], num_servers=1)
        sub = seq.restrict_to_items({1, 2}, "any")
        assert sub[0].items == {1, 2}

    def test_restrict_rejects_bad_mode(self):
        seq = RequestSequence([(0, 1.0, {1})], num_servers=1)
        with pytest.raises(ValueError, match="unknown mode"):
            seq.restrict_to_items({1}, "bogus")

    def test_restrict_rejects_empty_group(self):
        seq = RequestSequence([(0, 1.0, {1})], num_servers=1)
        with pytest.raises(ValueError, match="non-empty"):
            seq.restrict_to_items(set(), "any")

    def test_single_item_view(self):
        seq = RequestSequence([(0, 1.0, {1}), (1, 2.0, {1})], num_servers=2)
        view = seq.single_item_view()
        assert view.servers == (0, 1)
        assert view.times == (1.0, 2.0)
        assert len(view) == 2

    def test_single_item_view_rejects_multi(self):
        seq = RequestSequence([(0, 1.0, {1, 2})], num_servers=1)
        with pytest.raises(ValueError, match="single-item"):
            seq.single_item_view()

    def test_empty_sequence(self):
        seq = RequestSequence([], num_servers=3)
        assert len(seq) == 0
        assert seq.items == frozenset()
        assert seq.total_item_requests() == 0


def _as_request(obj):
    """The row coercion the constructor used to run on every row."""
    if isinstance(obj, Request):
        return obj
    server, time, items = obj
    if isinstance(items, int):
        items = (items,)
    return Request(server=int(server), time=float(time), items=frozenset(items))


def _columns_row_by_row(rows):
    """Reference build, one row at a time: a :class:`Request` per row,
    then every column from those requests."""
    reqs = tuple(_as_request(r) for r in rows)
    id_rows = [sorted(r.items) for r in reqs]
    servers = np.array([r.server for r in reqs], dtype=np.int64)
    times = np.array([r.time for r in reqs], dtype=np.float64)
    offsets = np.cumsum([0] + [len(row) for row in id_rows], dtype=np.int64)
    ids = np.array([d for row in id_rows for d in row], dtype=np.int64)
    universe = sorted({d for row in id_rows for d in row})
    carriers = [[i for i, row in enumerate(id_rows) if d in row] for d in universe]
    positions = np.array([i for rows_of in carriers for i in rows_of], dtype=np.int64)
    columns = (
        servers, times, offsets, ids,
        np.array(universe, dtype=np.int64),
        np.cumsum([0] + [len(c) for c in carriers], dtype=np.int64),
        positions, servers[positions], times[positions],
    )
    return reqs, columns


def _triple(row):
    """A row as ``(server, time, item ids)``, ids as given."""
    if isinstance(row, Request):
        return row.server, row.time, tuple(row.items)
    server, time, items = row
    return server, time, (items,) if isinstance(items, int) else tuple(items)


@st.composite
def _drawn_rows(draw):
    """``(rows, m)``: up to 8 rows over ``m`` servers as Requests, tuples,
    lists and bare ids, item ids unsorted and repeated; sometimes one or
    two rows damaged (tuples then)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    ids = st.integers(-3, 9) | st.sampled_from([-(2**63), 2**63 - 1, 2**31])
    rows = []
    for t in itertools.accumulate(round(g, 6) for g in gaps):
        server = draw(st.integers(0, m - 1))
        members = draw(st.lists(ids, min_size=1, max_size=4))
        form = draw(st.sampled_from(["request", "tuple", "list", "set", "bare"]))
        rows.append({
            "request": Request(server, t, frozenset(members)),
            "tuple": (server, t, tuple(members)),
            "list": [server, t, list(members)],
            "set": (server, t, set(members)),
            "bare": (server, t, members[0]),
        }[form])
    damage = st.sampled_from([
        (1, math.nan), (1, math.inf), (1, -1.0), (1, 0.0), (0, m), (0, -1),
        (2, ()), (2, (1.5,)), (2, (2, 2**70)), (2, ("a",)), (2, (1, 2**63)),
    ])
    if n:
        for idx, (field, value) in draw(
            st.lists(st.tuples(st.integers(0, n - 1), damage), max_size=2)
        ):
            row = list(_triple(rows[idx]))
            row[field] = value
            rows[idx] = tuple(row)
    return rows, m


class TestConstruction:
    """The constructor transposes its rows into the columns in one
    vectorised pass; a row-at-a-time build is the reference."""

    @given(drawn=_drawn_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_row_at_a_time_build(self, drawn):
        rows, m = drawn
        expected = TestSequenceValidate._audit_row_by_row(map(_triple, rows), m)
        if expected is not None:
            with pytest.raises(RequestRowError) as info:
                RequestSequence(rows, num_servers=m)
            assert str(info.value) == expected
            return
        seq = RequestSequence(rows, num_servers=m)
        reqs, columns = _columns_row_by_row(rows)
        for got, want in zip(seq.columns, columns, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert seq.requests == reqs
        assert seq.items == {d for r in reqs for d in r.items}

    @pytest.mark.parametrize(
        "items, message",
        [
            ({1.5}, "item id 1.5 is not an integer"),
            ({2**70}, f"item id {2**70} outside int64"),
            ({"a"}, "item id 'a' is not an integer"),
        ],
    )
    def test_ids_the_columns_cannot_hold_are_refused_at_construction(
        self, items, message
    ):
        with pytest.raises(RequestRowError) as info:
            RequestSequence([(1, 0.5, {3}), (0, 1.0, items), (1, 2.0, {1})], num_servers=2)
        err = info.value
        assert (err.index, err.server, err.time, err.message) == (1, 0, 1.0, message)
        assert str(err) == f"request[1] (server 0, t=1.0): {message}"

    def test_numpy_integer_ids_and_servers_are_accepted(self):
        seq = RequestSequence(
            [(np.int32(1), np.float64(0.5), (np.uint64(7), np.int64(-2)))], num_servers=2
        )
        assert seq.requests == (Request(1, 0.5, frozenset({7, -2})),)
        assert seq.columns.item_ids.dtype == np.int64

    @pytest.mark.parametrize(
        "row, message",
        [
            (
                (1.5, 1.0, {1}),
                r"^request\[0\] \(server 1\.5, t=1\.0\): server id is not an integer$",
            ),
            ((0, "x", {1}), r"^request\[0\] \(server 0, t='x'\): time is not a number$"),
            ((0, 1.0), r"^request\[0\]: malformed request \(0, 1\.0\)"),
        ],
    )
    def test_unreadable_rows_are_refused_with_their_index(self, row, message):
        with pytest.raises(RequestRowError, match=message):
            RequestSequence([row], num_servers=2)

    def test_request_row_error_is_an_indexed_value_error(self):
        with pytest.raises(ValueError) as info:
            RequestSequence([(0, 1.0, {1}), (3, 2.0, {1})], num_servers=2)
        err = info.value
        assert isinstance(err, RequestRowError) and isinstance(err, ReproError)
        assert (err.index, err.server, err.time) == (1, 3, 2.0)
        assert err.message == "server id outside [0, 2)"
        back = pickle.loads(pickle.dumps(err))
        assert (type(back), back.index, str(back)) == (RequestRowError, 1, str(err))

    def test_requests_are_built_on_demand_and_kept(self):
        seq = RequestSequence([(0, 1.0, (2, 1, 2)), (1, 2.0, 3)], num_servers=2)
        assert seq[-1] == Request(1, 2.0, frozenset({3}))
        assert seq[::-1] == (seq[1], Request(0, 1.0, frozenset({1, 2})))
        assert "_req_cache" not in vars(seq)  # only the rows asked for
        assert seq.requests is seq.requests
        assert list(seq) == list(seq.requests) == [seq[0], seq[1]]
        assert seq[0:1] == seq.requests[0:1]
        with pytest.raises(IndexError):
            RequestSequence([(0, 1.0, 1)], num_servers=1)[1]

    def test_equality_and_hash_read_the_columns(self):
        rows = [(0, 1.0, {1, 2}), (1, 2.0, {2})]
        seq = RequestSequence(rows, num_servers=2)
        twin = RequestSequence([(0, 1.0, (2, 1)), Request(1, 2.0, frozenset({2}))], 2)
        assert seq == twin and hash(seq) == hash(twin)
        assert "_req_cache" not in vars(seq) and "_req_cache" not in vars(twin)
        assert seq != RequestSequence(rows, num_servers=3)
        assert seq != RequestSequence(rows, num_servers=2, origin=1)
        assert seq != RequestSequence([(0, 1.0, {1}), (1, 2.0, {2})], num_servers=2)
        assert seq != RequestSequence([(0, 1.0, {1, 2}), (1, 2.5, {2})], num_servers=2)
        with stored(seq) as store:
            assert store == seq and hash(store) == hash(seq)

    def test_sequences_are_immutable(self):
        seq = RequestSequence([(0, 1.0, {1})], num_servers=1)
        with pytest.raises(AttributeError):
            seq.origin = 0  # type: ignore[misc]


class TestColumnarViews:
    """The cached numpy projections must mirror the tuple-based paths."""

    def _seq(self):
        return RequestSequence(
            [
                (0, 1.0, {1, 2}),
                (1, 2.0, {1}),
                (0, 3.0, {2}),
                (1, 4.0, {1, 2}),
                (0, 5.0, {3}),
            ],
            num_servers=3,
            origin=2,
        )

    def test_columns_match_requests_and_are_readonly(self):
        seq = self._seq()
        assert seq.servers_array.tolist() == [r.server for r in seq]
        assert seq.times_array.tolist() == [r.time for r in seq]
        assert not seq.servers_array.flags.writeable
        assert not seq.times_array.flags.writeable

    def test_item_view_matches_restrict_to_item(self):
        seq = self._seq()
        for d in seq.items:
            iv = seq.item_view(d)
            ref = seq.restrict_to_item(d).single_item_view()
            assert list(iv.servers) == list(ref.servers)
            assert list(iv.times) == list(ref.times)
            assert iv.num_servers == ref.num_servers
            assert iv.origin == ref.origin

    def test_item_view_is_cached_and_unknown_item_empty(self):
        seq = self._seq()
        assert seq.item_view(1) is seq.item_view(1)
        assert len(seq.item_view(99)) == 0

    def test_group_view_matches_restrict_to_items(self):
        seq = self._seq()
        gv = seq.group_view({1, 2})
        ref = seq.restrict_to_items({1, 2}, "all")
        assert list(gv.servers) == [r.server for r in ref]
        assert list(gv.times) == [r.time for r in ref]
        # frozenset key: member order is irrelevant
        assert gv is seq.group_view({2, 1})

    def test_item_indices_and_event_counts(self):
        seq = self._seq()
        assert seq.item_indices(1).tolist() == [0, 1, 3]
        assert seq.item_counts() == {1: 3, 2: 3, 3: 1}

    def test_pickle_drops_caches_and_rebuilds(self):
        import pickle

        seq = self._seq()
        seq.item_view(1)
        seq.group_view({1, 2})
        clone = pickle.loads(pickle.dumps(seq))
        assert not any(k.startswith("_") and "cache" in k for k in vars(clone))
        assert list(clone.item_view(1).times) == list(seq.item_view(1).times)

    def test_setstate_strips_foreign_cache_keys(self):
        """A pickle that *does* carry cache state (a foreign/future
        producer) must not install it: shipped buffers would alias
        across processes, so __setstate__ rebuilds locally instead."""
        seq = self._seq()
        seq.item_view(1)
        seq.group_view({1, 2})
        state = dict(vars(seq))  # includes the populated caches
        assert any("cache" in k for k in state)
        clone = RequestSequence.__new__(RequestSequence)
        clone.__setstate__(state)
        assert not any(k.startswith("_") and "cache" in k for k in vars(clone))
        assert list(clone.item_view(1).times) == list(seq.item_view(1).times)
        # the rebuilt cache is the clone's own, not the donor's
        assert clone.item_view(1) is not seq.item_view(1)

    def test_array_backed_view_solves_identically(self, unit_model):
        from repro.cache.optimal_dp import optimal_cost

        seq = self._seq()
        for d in seq.items:
            ref = seq.restrict_to_item(d).single_item_view()
            assert optimal_cost(seq.item_view(d), unit_model) == optimal_cost(
                ref, unit_model
            )


def _next_same_server(servers):
    """Reference loop: ``next[i]`` = next event index on the same
    server, else ``None``."""
    nxt = [None] * len(servers)
    last_seen = {}
    for i in range(len(servers) - 1, -1, -1):
        nxt[i] = last_seen.get(servers[i])
        last_seen[servers[i]] = i
    return nxt


def _first_on_server_transfers(servers, nxt):
    """Reference loop: events with no same-server predecessor."""
    preceded = set()
    for i, j in enumerate(nxt):
        if j is not None:
            preceded.add(j)
    return [i for i in range(1, len(servers)) if i not in preceded]


def _assert_links_match_loop(view):
    servers = [view.origin, *np.asarray(view.servers).tolist()]
    want = _next_same_server(servers)
    assert view.links.nxt.tolist() == [-1 if j is None else j for j in want]
    assert view.links.first_copies.tolist() == _first_on_server_transfers(
        servers, want
    )


class TestSameServerIndex:
    """Every item view reads its links from the sequence's same-server
    index, every co-occurrence view from the same links function; both
    must match the plain per-event reference loops above."""

    @settings(max_examples=60, deadline=None)
    # item 5 never occurs in the trace: views of absent items and groups
    @given(seq=multi_item_sequences(max_items=5))
    def test_view_links_match_a_plain_loop(self, seq):
        items = sorted(seq.items | {5})
        groups = [
            frozenset(g) for k in (2, 3) for g in itertools.combinations(items, k)
        ]
        with stored(seq) as store:
            for s in (seq, store):
                for d in items:
                    _assert_links_match_loop(s.item_view(d))
                for g in groups:
                    _assert_links_match_loop(s.group_view(g))

    def test_index_is_cached_and_dropped_on_pickling(self):
        import pickle

        seq = RequestSequence(
            [(0, 1.0, {1, 2}), (1, 2.0, {1}), (0, 3.0, {2})], num_servers=2
        )
        index = seq.same_server_index()
        assert seq.same_server_index() is index
        assert not index.prev.flags.writeable
        clone = pickle.loads(pickle.dumps(seq))
        assert "_links_cache" not in vars(clone)
        assert clone.same_server_index().prev.tolist() == index.prev.tolist()


class TestCostModel:
    def test_serve_cost_same_server_has_no_transfer(self, unit_model):
        assert unit_model.serve_cost(1.0, 3.0, same_server=True) == 2.0

    def test_serve_cost_cross_server_adds_lambda(self, unit_model):
        assert unit_model.serve_cost(1.0, 3.0, same_server=False) == 3.0

    def test_serve_cost_backwards_is_infinite(self, unit_model):
        assert math.isinf(unit_model.serve_cost(3.0, 1.0, same_server=True))

    def test_cache_cost_negative_duration_rejected(self, unit_model):
        with pytest.raises(ValueError):
            unit_model.cache_cost(-1.0)

    def test_rates_validation(self):
        with pytest.raises(ValueError):
            CostModel(mu=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            CostModel(mu=0.0, lam=0.0)
        for mu, lam in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="non-negative"):
                CostModel(mu=mu, lam=lam)

    def test_zero_lambda_allowed(self):
        m = CostModel(mu=1.0, lam=0.0)
        assert m.transfer_cost() == 0.0

    def test_scaled(self):
        m = CostModel(mu=2.0, lam=3.0).scaled(1.6)
        assert m.mu == pytest.approx(3.2)
        assert m.lam == pytest.approx(4.8)

    def test_scaled_rejects_nonpositive(self, unit_model):
        with pytest.raises(ValueError):
            unit_model.scaled(0.0)

    def test_package_model_table_ii(self, unit_model):
        """Table II: k-item package cached at alpha*k*mu, moved at alpha*k*lam."""
        pm = unit_model.package_model(2, alpha=0.8)
        assert pm.mu == pytest.approx(1.6)
        assert pm.lam == pytest.approx(1.6)
        pm3 = unit_model.package_model(3, alpha=0.5)
        assert pm3.mu == pytest.approx(1.5)

    def test_package_rate_single_item_no_discount(self):
        assert package_rate(1, alpha=0.2) == 1.0

    def test_package_rate_validation(self):
        with pytest.raises(ValueError):
            package_rate(0, 0.8)
        with pytest.raises(ValueError):
            package_rate(2, 1.5)
        with pytest.raises(ValueError):
            package_rate(2, 0.0)

    def test_rho(self):
        assert CostModel(mu=2.0, lam=4.0).rho == 2.0
        assert math.isinf(CostModel(mu=0.0, lam=1.0).rho)

    def test_from_rho_fig12_convention(self):
        m = CostModel.from_rho(2.0, total=6.0)
        assert m.mu == pytest.approx(2.0)
        assert m.lam == pytest.approx(4.0)
        assert m.rho == pytest.approx(2.0)

    @given(rho=st.floats(0.1, 10.0), total=st.floats(0.5, 20.0))
    def test_from_rho_invariants(self, rho, total):
        m = CostModel.from_rho(rho, total=total)
        assert m.mu + m.lam == pytest.approx(total)
        assert m.rho == pytest.approx(rho)

    def test_from_rho_validation(self):
        with pytest.raises(ValueError):
            CostModel.from_rho(0.0)
        with pytest.raises(ValueError):
            CostModel.from_rho(1.0, total=-1.0)


class TestSequenceValidate:
    """validate() re-audits invariants the constructor cannot guard
    forever -- columns can still be swapped via object.__setattr__, and
    deserialised payloads arrive pre-built."""

    def _seq(self):
        return RequestSequence(
            [(0, 1.0, {1}), (1, 2.0, {1, 2}), (0, 3.0, {2})], num_servers=2
        )

    def _corrupt(self, seq, idx, **fields):
        return tamper(seq, idx, **fields)

    def test_valid_sequence_passes_and_chains(self):
        seq = self._seq()
        assert seq.validate() is seq

    def test_empty_sequence_is_valid(self):
        seq = RequestSequence((), num_servers=1)
        assert seq.validate() is seq

    def test_nan_time(self):
        seq = self._corrupt(self._seq(), 1, time=math.nan)
        with pytest.raises(ValueError, match=r"request\[1\].*NaN"):
            seq.validate()

    def test_infinite_time(self):
        seq = self._corrupt(self._seq(), 2, time=math.inf)
        with pytest.raises(ValueError, match=r"request\[2\].*infinite"):
            seq.validate()

    def test_negative_time(self):
        seq = self._corrupt(self._seq(), 0, time=-1.0)
        with pytest.raises(ValueError, match=r"request\[0\].*negative"):
            seq.validate()

    def test_non_increasing_times(self):
        seq = self._corrupt(self._seq(), 1, time=0.5)
        with pytest.raises(ValueError, match=r"request\[1\].*increasing"):
            seq.validate()

    def test_out_of_range_server(self):
        seq = self._corrupt(self._seq(), 1, server=7)
        with pytest.raises(ValueError, match=r"request\[1\].*server"):
            seq.validate()

    def test_empty_item_set(self):
        seq = self._corrupt(self._seq(), 2, items=frozenset())
        with pytest.raises(ValueError, match=r"request\[2\].*empty item set"):
            seq.validate()

    def test_first_of_two_corrupt_rows_is_reported(self):
        seq = self._corrupt(self._seq(), 2, items=frozenset())
        seq = self._corrupt(seq, 1, server=7)
        with pytest.raises(ValueError) as info:
            seq.validate()
        assert str(info.value) == (
            "request[1] (server 7, t=2.0): server id outside [0, 2)"
        )

    @staticmethod
    def _audit_row_by_row(rows, m):
        """Reference audit of ``(server, time, item ids)`` rows over
        ``m`` servers: the first failing row's first failing check."""
        prev = -math.inf
        for i, (server, time, items) in enumerate(rows):
            checks = (
                (math.isnan(time), "time is NaN"),
                (math.isinf(time), "time is infinite"),
                (time < 0, "time is negative"),
                (
                    time <= prev,
                    f"times must be strictly increasing (previous was {prev!r})",
                ),
                (not 0 <= server < m, f"server id outside [0, {m})"),
                (not items, "empty item set"),
            )
            faults = [what for failed, what in checks if failed]
            for d in items:
                if not isinstance(d, (int, np.integer)):
                    faults.append(f"item id {d!r} is not an integer")
                elif not -(2**63) <= d < 2**63:
                    faults.append(f"item id {d} outside int64")
            if faults:
                return f"request[{i}] (server {server}, t={time!r}): {faults[0]}"
            prev = time
        return None

    @staticmethod
    def _rows(seq):
        """``seq``'s rows read straight off its (possibly tampered) columns."""
        cols = seq.columns
        bounds = cols.item_offsets.tolist()
        return [
            (s, t, cols.item_ids[lo:hi].tolist())
            for s, t, lo, hi in zip(
                cols.servers.tolist(), cols.times.tolist(), bounds, bounds[1:]
            )
        ]

    @given(seq=multi_item_sequences(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_a_row_by_row_audit(self, seq, data):
        damage = st.sampled_from(
            [
                ("time", math.nan),
                ("time", math.inf),
                ("time", -1.0),
                ("time", 0.0),
                ("server", seq.num_servers),
                ("server", -1),
                ("items", frozenset()),
            ]
        )
        rows = st.integers(0, len(seq) - 1)
        for idx, (key, value) in data.draw(st.lists(st.tuples(rows, damage), max_size=3)):
            self._corrupt(seq, idx, **{key: value})
        expected = self._audit_row_by_row(self._rows(seq), seq.num_servers)
        if expected is None:
            assert seq.validate() is seq
        else:
            with pytest.raises(ValueError) as info:
                seq.validate()
            assert str(info.value) == expected

    def test_bad_origin(self):
        seq = self._seq()
        object.__setattr__(seq, "origin", 9)
        with pytest.raises(ValueError, match="origin"):
            seq.validate()

    def test_solve_dp_greedy_fails_fast_on_corrupt_input(self, unit_model):
        from repro.core.dp_greedy import solve_dp_greedy

        seq = self._corrupt(self._seq(), 1, time=math.nan)
        with pytest.raises(ValueError, match=r"request\[1\]"):
            solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
