"""Efficient implementation data structures (paper Section V-A).

The paper implements Phase 2 with a two-pass design: a *pre-scan pass*
builds index structures in ``O(mn)`` time and space, and the *service
pass* then identifies every candidate cache interval in ``O(1)`` per
server.  This module reproduces those structures faithfully:

* ``Q_j`` -- one doubly linked list per server threading the requests made
  on that server (realised as ``ll_prev`` / ``ll_next`` index arrays plus
  per-server head/tail pointers; a dummy boundary is represented by -1);
* ``A[n]`` -- the global array indexing requests along time (the request
  order itself, kept as the array of request records);
* ``pLast[m]`` -- the rolling most-recent-request-per-server pointer
  array, snapshot into each request's own ``m``-size pointer array
  (``recent[i, :]``) as the request is processed.

With these, ``p(i)`` (Definition 1: the most recent request on the same
server) and the set of cache intervals covering a request (Fig. 8) are
O(1)/O(m) lookups.  :class:`PreScan` indexes one trajectory (a
multi-item sequence is indexed by its request order) and keeps the
paper's ``n x m`` pointer array for the Fig. 8 query.  Phase 2 runs on
the production form of the same links,
:meth:`~repro.cache.model.RequestSequence.same_server_index`: one sort
over every item's trajectory, without the ``n x m`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cache.model import RequestSequence, SingleItemView, same_server_links

__all__ = ["PreScan"]


class PreScan:
    """Pre-scan index over a request trajectory.

    Parameters
    ----------
    view:
        A :class:`RequestSequence` or :class:`SingleItemView`; only the
        ``(server, time)`` trajectory is indexed.

    Attributes
    ----------
    recent:
        ``(n, m)`` int32 array; ``recent[i, j]`` is the index of the most
        recent request on server ``j`` strictly before request ``i``
        (``-1`` when there is none).  This is the paper's per-request
        ``m``-size pointer array fed from ``pLast``.
    prev_same:
        ``p(i)`` of Definition 1 as an index array (``-1`` when none).
    next_same:
        Forward counterpart.  Both come from
        :func:`~repro.cache.model.same_server_links`, the function
        behind the Phase-2 index
        (:meth:`~repro.cache.model.RequestSequence.same_server_index`).
    """

    def __init__(self, view: "RequestSequence | SingleItemView") -> None:
        if isinstance(view, RequestSequence):
            servers: Sequence[int] = view.servers
            times: Sequence[float] = view.times
            m = view.num_servers
            origin = view.origin
        else:
            servers, times, m, origin = (
                view.servers,
                view.times,
                view.num_servers,
                view.origin,
            )
        n = len(servers)
        self.n = n
        self.m = m
        self.origin = origin
        self.servers = np.asarray(servers, dtype=np.int32)
        self.times = np.asarray(times, dtype=np.float64)

        # All structures fall out of two vectorised passes (no per-request
        # Python loop):
        #
        # 1. the same-server links (the production Phase-2 index's
        #    function, :func:`~repro.cache.model.same_server_links`)
        #    thread each Q_j in time order: ll_prev == prev_same (the
        #    paper's p(i)) and ll_next == next_same;
        # 2. the pLast snapshots (recent[i, :]) are a running maximum:
        #    recent[i, j] = max index i' < i with servers[i'] == j, i.e.
        #    a shifted ``np.maximum.accumulate`` over the one-hot hit
        #    matrix.
        rows = np.arange(n, dtype=np.int32)
        prev_links, next_links = same_server_links(self.servers)
        prev_same = prev_links.astype(np.int32)
        next_same = next_links.astype(np.int32)
        q_head = np.full(m, -1, dtype=np.int32)
        q_tail = np.full(m, -1, dtype=np.int32)
        recent = np.full((n, m), -1, dtype=np.int32)
        if n:
            # duplicate fancy indices: last write wins, so reversed order
            # leaves the *earliest* request per server in q_head
            q_head[self.servers[::-1]] = rows[::-1]
            q_tail[self.servers] = rows
            hits = np.where(
                self.servers[:, None] == np.arange(m, dtype=np.int32)[None, :],
                rows[:, None],
                np.int32(-1),
            )
            recent[1:] = np.maximum.accumulate(hits, axis=0)[:-1]

        self.recent = recent
        self._p_last_final = q_tail.copy()  # pLast after the full scan
        self.ll_prev = prev_same.copy()
        self.ll_next = next_same.copy()
        self.q_head = q_head
        self.q_tail = q_tail
        self.prev_same = prev_same
        self.next_same = next_same

    # ------------------------------------------------------------------
    def p_of(self, i: int) -> Optional[int]:
        """``p(i)``: index of the most recent same-server request, or None."""
        p = int(self.prev_same[i])
        return p if p >= 0 else None

    def requests_on_server(self, server: int) -> List[int]:
        """Walk ``Q_server`` head-to-tail (validates the linked list)."""
        out: List[int] = []
        cur = int(self.q_head[server])
        while cur >= 0:
            out.append(cur)
            cur = int(self.ll_next[cur])
        return out

    def intervals_covering(self, i: int) -> List[Tuple[int, float, float]]:
        """Candidate cache intervals ``[t_recent_j, t_i]`` per server.

        Reproduces the Fig. 8 query: for request ``i``, each server ``j``
        with an earlier request contributes the interval from that
        request's time up to ``t_i``.  Servers never visited before
        ``t_i`` contribute nothing (the empty sets in the figure).
        """
        t_i = float(self.times[i])
        out: List[Tuple[int, float, float]] = []
        for j in range(self.m):
            r = int(self.recent[i, j])
            if r >= 0:
                out.append((j, float(self.times[r]), t_i))
        return out

    def most_recent_before(self, i: int, server: int) -> Optional[int]:
        """``pLast`` lookup: latest request on ``server`` strictly before ``i``."""
        r = int(self.recent[i, server])
        return r if r >= 0 else None
