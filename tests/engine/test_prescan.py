"""Tests for the Section V pre-scan index structures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.model import RequestSequence, SingleItemView, same_server_links
from repro.engine.prescan import PreScan

from ..conftest import multi_item_sequences, single_item_views


def view(servers, times, m=4, origin=0):
    return SingleItemView(
        servers=tuple(servers), times=tuple(times), num_servers=m, origin=origin
    )


def naive_recent(servers, m):
    """O(n m) reference: most recent request per server strictly before i."""
    n = len(servers)
    out = np.full((n, m), -1, dtype=int)
    last = [-1] * m
    for i, s in enumerate(servers):
        out[i, :] = last
        last[s] = i
    return out


class TestAgainstNaive:
    @settings(max_examples=80, deadline=None)
    @given(v=single_item_views(max_requests=20, max_servers=5))
    def test_recent_matrix(self, v):
        ps = PreScan(v)
        assert np.array_equal(ps.recent, naive_recent(v.servers, v.num_servers))

    @settings(max_examples=80, deadline=None)
    @given(v=single_item_views(max_requests=20, max_servers=5))
    def test_prev_and_next_same_server(self, v):
        ps = PreScan(v)
        n = len(v.servers)
        for i in range(n):
            prev = next(
                (j for j in range(i - 1, -1, -1) if v.servers[j] == v.servers[i]),
                None,
            )
            nxt = next(
                (j for j in range(i + 1, n) if v.servers[j] == v.servers[i]),
                None,
            )
            assert ps.p_of(i) == prev
            got_next = int(ps.next_same[i])
            assert (got_next if got_next >= 0 else None) == nxt

    @settings(max_examples=60, deadline=None)
    @given(v=single_item_views(max_requests=20, max_servers=5))
    def test_linked_lists_thread_each_server(self, v):
        ps = PreScan(v)
        for server in range(v.num_servers):
            expected = [i for i, s in enumerate(v.servers) if s == server]
            assert ps.requests_on_server(server) == expected

    @settings(max_examples=60, deadline=None)
    @given(seq=multi_item_sequences(max_items=3))
    def test_links_are_the_phase2_index_links(self, seq):
        """PreScan threads Q_j with the links function behind Phase 2's
        index: each item's links there are PreScan's over that item's
        trajectory, shifted past the origin event."""
        for d in seq.items:
            view = seq.item_view(d)
            ps = PreScan(view)
            prev, nxt = same_server_links(view.servers)
            assert ps.prev_same.tolist() == prev.tolist()
            assert ps.next_same.tolist() == nxt.tolist()
            index = seq.same_server_index()
            lo = int(index.starts[sorted(seq.items).index(d)])
            own = index.nxt[lo + 1 : lo + 1 + len(view)]
            assert ps.next_same.tolist() == [j - 1 if j > 0 else -1 for j in own.tolist()]


class TestQueries:
    def test_intervals_covering_example(self):
        """Four servers; request 3 sees one interval per visited server."""
        v = view([0, 1, 0, 2], [1.0, 2.0, 3.0, 4.0])
        ps = PreScan(v)
        got = ps.intervals_covering(3)
        # most recent on s0 is request 2 (t=3), on s1 request 1 (t=2)
        assert (0, 3.0, 4.0) in got
        assert (1, 2.0, 4.0) in got
        # s2 and s3 unvisited before t=4
        assert all(server != 2 and server != 3 for server, *_ in got)

    def test_most_recent_before(self):
        v = view([0, 1, 0], [1.0, 2.0, 3.0])
        ps = PreScan(v)
        assert ps.most_recent_before(2, 0) == 0
        assert ps.most_recent_before(2, 1) == 1
        assert ps.most_recent_before(0, 0) is None

    def test_accepts_request_sequence(self):
        seq = RequestSequence(
            [(0, 1.0, {1}), (1, 2.0, {1, 2})], num_servers=3
        )
        ps = PreScan(seq)
        assert ps.n == 2
        assert ps.m == 3
        assert ps.p_of(1) is None

    def test_empty_trajectory(self):
        ps = PreScan(view([], [], m=3))
        assert ps.n == 0
        assert ps.requests_on_server(0) == []

    def test_memory_shape_is_n_by_m(self):
        """The paper's O(mn) pre-scan space: one m-pointer array per request."""
        v = view([0, 1, 2, 1], [1.0, 2.0, 3.0, 4.0], m=5)
        ps = PreScan(v)
        assert ps.recent.shape == (4, 5)
