"""Domain model for the mobile-cloud data-caching problem.

This module defines the three primitives every other part of the library is
built on:

* :class:`Request` -- one access ``r_i = <s_i, t_i, D_i>`` made at server
  ``s_i`` at time ``t_i`` for an item subset ``D_i`` (Section III-A of the
  paper).
* :class:`RequestSequence` -- an immutable, time-ordered sequence of
  requests together with the server universe and the origin server that
  initially stores every data item.  Every pass over the trace (the
  audit, Phase 1's counts, the per-item and per-group projections)
  reads one columnar layout, :class:`TraceColumns`, which an in-memory
  sequence builds once from its requests and a trace store maps from
  disk.
* :class:`CostModel` -- the homogeneous cost model of Section III-B:
  caching one item costs ``mu`` per time unit, transferring one item
  between any pair of servers costs ``lam``, and a package of ``k`` packed
  items is cached/transferred at ``alpha * k * mu`` / ``alpha * k * lam``
  (Table II).

Section V's pre-scan -- each request's same-server predecessor ``p(i)``
and successor -- is one index over the inverted columns
(:meth:`RequestSequence.same_server_index`), computed by
:func:`same_server_links`, the only code that derives these links.

The paper assumes at most one request per time instant; the sequence
constructor enforces strictly increasing timestamps so that ``t_i`` can be
used interchangeably with the request index, exactly as the paper does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "Request",
    "RequestSequence",
    "TraceColumns",
    "SingleItemView",
    "ViewLinks",
    "SameServerIndex",
    "same_server_links",
    "trajectory_links",
    "validate_trajectory",
    "CostModel",
    "package_rate",
    "DEFAULT_ALPHA",
    "DEFAULT_THETA",
]

#: Discount factor used throughout the paper's evaluation (Section VI).
DEFAULT_ALPHA = 0.8

#: Correlation threshold used throughout the paper's evaluation (Section VI).
DEFAULT_THETA = 0.3

# Shared empty projections (read-only, so safe to hand out).
_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=np.float64)
_EMPTY_INT.setflags(write=False)
_EMPTY_FLOAT.setflags(write=False)

#: Instance-dict keys of the lazily built columnar caches; dropped on
#: pickling (cheap to rebuild, heavy to ship to pool workers).
_CACHE_KEYS = (
    "_cols_cache", "_proj_cache", "_links_cache", "_iview_cache", "_gview_cache",
)


@dataclass(frozen=True, slots=True)
class Request:
    """A single data request ``r = <server, time, items>``.

    Parameters
    ----------
    server:
        Index of the cache server the request is made at (``0 <= server < m``).
    time:
        Timestamp of the request.  The paper assumes at most one request per
        time instant, so timestamps double as request identities.
    items:
        The subset ``D_i`` of data-item identifiers accessed by the request.
        Must be non-empty.
    """

    server: int
    time: float
    items: FrozenSet[int]

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError(f"server index must be non-negative, got {self.server}")
        if not self.items:
            raise ValueError("a request must access at least one data item")
        if not math.isfinite(self.time):
            raise ValueError(f"request time must be finite, got {self.time}")
        if self.time < 0:
            raise ValueError(f"request time must be non-negative, got {self.time}")
        if not isinstance(self.items, frozenset):
            object.__setattr__(self, "items", frozenset(self.items))

    def contains(self, item: int) -> bool:
        """Return ``True`` when this request accesses ``item``."""
        return item in self.items

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        items = ",".join(f"d{d}" for d in sorted(self.items))
        return f"<s{self.server} t={self.time:g} {{{items}}}>"


def validate_trajectory(
    servers: "Sequence[int] | np.ndarray",
    times: "Sequence[float] | np.ndarray",
    num_servers: int,
    origin: int,
    *,
    empty: "np.ndarray | None" = None,
) -> None:
    """Audit a ``(servers, times)`` trajectory the way
    :meth:`RequestSequence.validate` audits a sequence: ``num_servers``
    positive, ``origin`` and every server in ``[0, num_servers)``, times
    finite, non-negative and strictly increasing, and -- with ``empty``
    (a per-row mask) -- no empty item set.  Raises ``ValueError`` naming
    the first failing row and, for that row, the first failing check.
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    if not 0 <= origin < num_servers:
        raise ValueError(f"origin server {origin} outside [0, {num_servers})")
    servers = np.asarray(servers)
    times = np.asarray(times, dtype=np.float64)
    prev = np.empty(len(times))
    prev[:1] = -math.inf
    prev[1:] = times[:-1]
    # one mask passes exactly the rows every check passes (NaN fails
    # every comparison); the message is formatted for the first row
    # that fails it
    with np.errstate(invalid="ignore"):
        ok = (times >= 0) & (times < math.inf) & (times > prev)
    ok &= (servers >= 0) & (servers < num_servers)
    if empty is not None:
        ok &= ~empty
    bad = np.flatnonzero(~ok)
    if len(bad):
        i = int(bad[0])
        _raise_invalid(
            i, int(servers[i]), float(times[i]), float(prev[i]), num_servers,
            empty is not None and bool(empty[i]),
        )


def _raise_invalid(
    i: int, server: int, t: float, prev: float, num_servers: int, empty: bool
) -> None:
    """Raise the indexed :func:`validate_trajectory` message for
    ``request[i]``, checking its conditions in their documented order."""
    where = f"request[{i}] (server {server}, t={t!r})"
    if math.isnan(t):
        raise ValueError(f"{where}: time is NaN")
    if math.isinf(t):
        raise ValueError(f"{where}: time is infinite")
    if t < 0:
        raise ValueError(f"{where}: time is negative")
    if t <= prev:
        raise ValueError(
            f"{where}: times must be strictly increasing "
            f"(previous was {prev!r})"
        )
    if not 0 <= server < num_servers:
        raise ValueError(f"{where}: server id outside [0, {num_servers})")
    if empty:
        raise ValueError(f"{where}: empty item set")


class TraceColumns(NamedTuple):
    """The one columnar layout behind every :class:`RequestSequence`.

    Request-major columns mirror the sequence; row ``i``'s item set is
    ``item_ids[item_offsets[i]:item_offsets[i + 1]]``, sorted ascending
    and de-duplicated.  The item-major *inverted* columns list, for each
    distinct item ``inv_items[a]``, the ascending request positions
    carrying it (``inv_positions[inv_offsets[a]:inv_offsets[a + 1]]``)
    and those requests' servers and times.  In-memory sequences build
    these once from their requests (:func:`columns_of`); a trace store
    maps the same columns from disk (:mod:`repro.trace.store`).
    """

    servers: np.ndarray
    times: np.ndarray
    item_offsets: np.ndarray
    item_ids: np.ndarray
    inv_items: np.ndarray
    inv_offsets: np.ndarray
    inv_positions: np.ndarray
    inv_servers: np.ndarray
    inv_times: np.ndarray


def invert_items(
    item_offsets: np.ndarray, item_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inv_items, inv_offsets, inv_positions)`` of a request-major CSR.

    One stable argsort of the item ids groups every item's memberships
    in ascending request order.
    """
    rows_of = np.repeat(
        np.arange(len(item_offsets) - 1, dtype=np.int64), np.diff(item_offsets)
    )
    order = np.argsort(item_ids, kind="stable")
    positions = rows_of[order]
    del rows_of
    sorted_ids = item_ids[order]
    del order
    first = np.ones(len(sorted_ids), dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(first)
    return sorted_ids[starts], np.append(starts, len(sorted_ids)), positions


def columns_of(requests: Sequence[Request]) -> TraceColumns:
    """Build the :class:`TraceColumns` of a tuple of requests."""
    n = len(requests)
    rows = [sorted(r.items) for r in requests]
    item_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, n), out=item_offsets[1:])
    item_ids = np.fromiter(
        itertools.chain.from_iterable(rows), np.int64, int(item_offsets[-1])
    )
    servers = np.fromiter((r.server for r in requests), np.int64, n)
    times = np.fromiter((r.time for r in requests), np.float64, n)
    inv_items, inv_offsets, inv_positions = invert_items(item_offsets, item_ids)
    cols = TraceColumns(
        servers, times, item_offsets, item_ids, inv_items, inv_offsets,
        inv_positions, servers[inv_positions], times[inv_positions],
    )
    for arr in cols:
        arr.setflags(write=False)
    return cols


def same_server_links(
    servers: "Sequence[int] | np.ndarray",
    segments: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(prev, nxt)``: each event's same-server predecessor and successor.

    Events are positions of ``servers`` in time order; with
    ``segments`` (a non-decreasing segment id per event) links stay
    within a segment.  One stable sort by ``(segment, server)`` lays
    every server's events out contiguously in time order, so adjacent
    entries of a run are each other's neighbours -- the paper's
    per-server lists ``Q_j``.  Both arrays hold event positions, ``-1``
    where there is no such event.
    """
    key = np.asarray(servers, dtype=np.int64)
    n = len(key)
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev, nxt
    if segments is not None:
        key = segments * (int(key.max()) + 1) + key
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    same = ordered[1:] == ordered[:-1]
    earlier, later = order[:-1][same], order[1:][same]
    prev[later] = earlier
    nxt[earlier] = later
    return prev, nxt


class ViewLinks(NamedTuple):
    """The same-server links of one trajectory, event 0 being the
    virtual origin event ``(origin, t = 0)``.

    ``nxt[i]`` is the event index of event ``i``'s same-server
    successor (``-1`` when none); ``first_copies`` lists the events with
    no same-server predecessor, whose first copy must arrive by transfer
    (the origin event's successor is preceded by the origin itself).
    """

    nxt: np.ndarray
    first_copies: np.ndarray


def _view_links(prev: np.ndarray, nxt: np.ndarray) -> ViewLinks:
    """:class:`ViewLinks` of one trajectory's event-level links."""
    return ViewLinks(nxt, np.flatnonzero(prev[1:] < 0) + 1)


def trajectory_links(origin: int, servers: "Sequence[int] | np.ndarray") -> ViewLinks:
    """:class:`ViewLinks` of one ``servers`` trajectory, origin event
    prepended -- for views no :class:`SameServerIndex` covers."""
    events = np.empty(len(servers) + 1, dtype=np.int64)
    events[0] = origin
    events[1:] = servers
    return _view_links(*same_server_links(events))


class SameServerIndex(NamedTuple):
    """Section V's pre-scan over a sequence's inverted columns.

    Every item's trajectory is laid out as its own events: the virtual
    origin event at slot ``starts[a]``, then its requests in time order,
    so the request at inverted position ``e`` sits at slot ``e + a + 1``.
    ``prev``/``nxt`` give each slot's same-server predecessor and
    successor as an event index *within the item* (0 is the origin
    event, ``-1`` means none): ``p(i)`` of Definition 1 with the origin
    carrying every item at ``t = 0``.  ``first_copies[a]`` counts the
    ``a``-th item's requests with no same-server predecessor, whose
    first copy must arrive by transfer.
    """

    starts: np.ndarray
    prev: np.ndarray
    nxt: np.ndarray
    first_copies: np.ndarray

    def item_links(self, a: int, count: int) -> ViewLinks:
        """The :class:`ViewLinks` of the ``a``-th inverted item, which
        has ``count`` requests (zero-copy ``nxt``)."""
        lo = int(self.starts[a])
        return _view_links(self.prev[lo : lo + count + 1], self.nxt[lo : lo + count + 1])


def _as_request(obj: "Request | Tuple") -> Request:
    """Coerce ``(server, time, items)`` tuples into :class:`Request`."""
    if isinstance(obj, Request):
        return obj
    server, time, items = obj
    if isinstance(items, int):
        items = (items,)
    return Request(server=int(server), time=float(time), items=frozenset(items))


@dataclass(frozen=True)
class RequestSequence:
    """A time-ordered request sequence over ``m`` servers and ``k`` items.

    The sequence is the off-line input of the caching problem: the whole
    spatial--temporal trajectory ``R = {r_1, ..., r_n}`` is known in advance
    (Section III).  All items are initially stored at ``origin`` (the paper's
    ``s_1``).

    The constructor accepts :class:`Request` instances or plain
    ``(server, time, items)`` tuples and validates that

    * timestamps are strictly increasing (at most one request per instant),
    * every server index is within ``[0, num_servers)``,
    * the origin server is within range.
    """

    requests: Tuple[Request, ...]
    num_servers: int
    origin: int = 0
    _item_universe: FrozenSet[int] = field(init=False, repr=False, default=frozenset())

    def __post_init__(self) -> None:
        reqs = tuple(_as_request(r) for r in self.requests)
        object.__setattr__(self, "requests", reqs)
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if not 0 <= self.origin < self.num_servers:
            raise ValueError(
                f"origin server {self.origin} outside [0, {self.num_servers})"
            )
        prev = -math.inf
        for r in reqs:
            if r.server >= self.num_servers:
                raise ValueError(
                    f"request at server {r.server} but only {self.num_servers} servers"
                )
            if r.time <= prev:
                raise ValueError(
                    "request times must be strictly increasing "
                    f"(got {r.time} after {prev})"
                )
            prev = r.time
        universe = frozenset(itertools.chain.from_iterable(r.items for r in reqs))
        object.__setattr__(self, "_item_universe", universe)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx: int) -> Request:
        return self.requests[idx]

    @property
    def items(self) -> FrozenSet[int]:
        """The set of distinct data items appearing in the sequence."""
        return self._item_universe

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self.times_array.tolist())

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(self.servers_array.tolist())

    # ------------------------------------------------------------------
    # the columnar layout (built lazily, once)
    # ------------------------------------------------------------------
    #
    # Every derived operation below reads :class:`TraceColumns`.  An
    # in-memory sequence builds them from its requests on first use --
    # not in the constructor, so :meth:`validate` audits the requests
    # as they are when it runs -- and keeps them, with the per-item and
    # per-group views, in the instance ``__dict__`` (the dataclass is
    # frozen but not slotted).  The caches are dropped on pickling: pool
    # workers rebuild them on first use instead of paying the ship
    # cost.  Concurrent first calls from several threads can at worst
    # duplicate a build; the results are equivalent, so the race is
    # benign.

    def _columns(self) -> TraceColumns:
        cols = self.__dict__.get("_cols_cache")
        if cols is None:
            cols = columns_of(self.requests)
            object.__setattr__(self, "_cols_cache", cols)
        return cols

    @property
    def columns(self) -> TraceColumns:
        """The sequence's :class:`TraceColumns` (read-only)."""
        return self._columns()

    @property
    def servers_array(self) -> np.ndarray:
        """Whole-sequence server ids as a read-only integer column."""
        return self._columns().servers

    @property
    def times_array(self) -> np.ndarray:
        """Whole-sequence timestamps as a read-only ``float64`` column."""
        return self._columns().times

    def item_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The request-major CSR ``(item_offsets, item_ids)``: row ``i``'s
        item set is ``item_ids[item_offsets[i]:item_offsets[i + 1]]``,
        sorted ascending and de-duplicated."""
        cols = self._columns()
        return cols.item_offsets, cols.item_ids

    # ------------------------------------------------------------------
    # integrity audit
    # ------------------------------------------------------------------
    def validate(self) -> "RequestSequence":
        """Re-audit every sequence invariant; raise ``ValueError`` with
        the offending request's index on the first violation.

        The constructor already enforces these for sequences built the
        normal way, but corrupt data can still arrive -- deserialised
        payloads, hand-built tuples mutated after the fact, NaN times
        smuggled in through numpy scalars, tampered store columns.
        :func:`solve_dp_greedy` calls this once at entry so such inputs
        fail fast with a precise, indexed message instead of surfacing
        as an opaque IndexError or a silently wrong cost deep inside a
        DP recurrence.  The message names the first failing row and,
        for that row, the first failing check.  Returns ``self`` so
        call sites can chain.
        """
        cols = self._columns()
        validate_trajectory(
            cols.servers, cols.times, self.num_servers, self.origin,
            empty=np.diff(cols.item_offsets) <= 0,
        )
        return self

    # ------------------------------------------------------------------
    # derived statistics used by Phase 1 of DP_Greedy
    # ------------------------------------------------------------------
    def item_counts(self) -> Dict[int, int]:
        """``|d_i|`` of Eq. (5): number of requests containing each item."""
        cols = self._columns()
        return dict(zip(cols.inv_items.tolist(), np.diff(cols.inv_offsets).tolist()))

    def cooccurrence(self, d_i: int, d_j: int) -> int:
        """``|(d_i, d_j)|`` of Eq. (5): requests where both items co-exist."""
        if d_i == d_j:
            raise ValueError("co-occurrence is defined for distinct items")
        common = np.intersect1d(
            self.item_indices(d_i), self.item_indices(d_j), assume_unique=True
        )
        return len(common)

    def total_item_requests(self) -> int:
        """``|d_1| + |d_2| + ... + |d_k|``, the ``ave_cost`` denominator."""
        return len(self._columns().item_ids)

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def restrict_to_item(self, item: int) -> "RequestSequence":
        """Sub-sequence of requests containing ``item``.

        Each surviving request keeps only ``{item}`` as its item set, i.e.
        this is the per-item view on which the single-item optimal off-line
        algorithm of [6] operates.
        """
        view = self.item_view(item)
        only = frozenset((int(item),))
        reqs = tuple(
            Request(s, t, only)
            for s, t in zip(view.servers.tolist(), view.times.tolist())
        )
        return RequestSequence(reqs, self.num_servers, self.origin)

    def restrict_to_items(
        self, items: Iterable[int], mode: str = "any"
    ) -> "RequestSequence":
        """Sub-sequence of requests relative to an item group.

        ``mode='any'`` keeps requests containing at least one item of the
        group (the Package_Served view of Section VI-c); ``mode='all'``
        keeps only co-occurrence requests containing every item of the group
        (the package view of Phase 2); ``mode='exactly-one'`` keeps requests
        containing exactly one item of the group (the greedy single-sided
        view of Observation 2).

        Surviving requests keep the intersection of their item set with the
        group.  Only the rows carrying a group item are visited: the
        union of the members' :meth:`item_indices`.
        """
        members = sorted({int(d) for d in items})
        if not members:
            raise ValueError("item group must be non-empty")
        if mode not in ("any", "all", "exactly-one"):
            raise ValueError(f"unknown mode {mode!r}")
        chunks = [self.item_indices(d) for d in members]
        rows = np.unique(np.concatenate(chunks))
        carried = np.zeros((len(rows), len(members)), dtype=bool)
        for col, idx in enumerate(chunks):
            carried[np.searchsorted(rows, idx), col] = True
        if mode != "any":
            hits = carried.sum(axis=1)
            keep = hits == (len(members) if mode == "all" else 1)
            rows, carried = rows[keep], carried[keep]
        reqs = tuple(
            Request(s, t, frozenset(d for d, has in zip(members, flags) if has))
            for s, t, flags in zip(
                self.servers_array[rows].tolist(),
                self.times_array[rows].tolist(),
                carried.tolist(),
            )
        )
        return RequestSequence(reqs, self.num_servers, self.origin)

    def single_item_view(self) -> "SingleItemView":
        """Flatten to (servers, times) tuples for the single-item solvers.

        Only valid when every request accesses the same single item (i.e.
        the sequence is a per-item projection).
        """
        self._check_single_item()
        return SingleItemView(
            servers=self.servers,
            times=self.times,
            num_servers=self.num_servers,
            origin=self.origin,
        )

    def _check_single_item(self) -> None:
        if np.any(np.diff(self._columns().item_offsets) != 1):
            raise ValueError("single_item_view requires single-item requests")

    # ------------------------------------------------------------------
    # per-item and per-group views (cached)
    # ------------------------------------------------------------------
    def _item_projections(
        self,
    ) -> Dict[int, Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """``item -> (a, positions, servers, times)``: the item's rank
        ``a`` in the inverted columns and zero-copy slices of them."""
        proj = self.__dict__.get("_proj_cache")
        if proj is None:
            cols = self._columns()
            offs = cols.inv_offsets.tolist()
            proj = {
                d: (
                    a,
                    cols.inv_positions[offs[a] : offs[a + 1]],
                    cols.inv_servers[offs[a] : offs[a + 1]],
                    cols.inv_times[offs[a] : offs[a + 1]],
                )
                for a, d in enumerate(cols.inv_items.tolist())
            }
            object.__setattr__(self, "_proj_cache", proj)
        return proj

    def same_server_index(self) -> SameServerIndex:
        """Section V's pre-scan: every item's same-server links and
        first-copy count, built once by one :func:`same_server_links`
        sort over the inverted columns (each item's trajectory with its
        origin event first) and cached.  Every Phase-2 DP prologue and
        the Observation-2 pass read it."""
        index = self.__dict__.get("_links_cache")
        if index is None:
            cols = self._columns()
            heads = cols.inv_offsets[:-1]
            starts = heads + np.arange(len(heads))
            events = np.insert(
                np.asarray(cols.inv_servers, dtype=np.int64), heads, self.origin
            )
            item_of = np.repeat(
                np.arange(len(heads)), np.diff(cols.inv_offsets) + 1
            )
            prev, nxt = same_server_links(events, item_of)
            base = starts[item_of]
            # every item's origin event has no predecessor either
            first_copies = np.bincount(item_of[prev < 0], minlength=len(heads)) - 1
            del events, item_of
            index = SameServerIndex(
                starts,
                np.where(prev >= 0, prev - base, -1),
                np.where(nxt >= 0, nxt - base, -1),
                first_copies,
            )
            for arr in index:
                arr.setflags(write=False)
            object.__setattr__(self, "_links_cache", index)
        return index

    def item_indices(self, item: int) -> np.ndarray:
        """Ascending request positions whose item set contains ``item``."""
        entry = self._item_projections().get(item)
        return _EMPTY_INT if entry is None else entry[1]

    def item_view(self, item: int) -> SingleItemView:
        """Cached columnar per-item view: the ``(servers, times)``
        trajectory of :meth:`restrict_to_item` as read-only array
        slices, with its links from :meth:`same_server_index`, built at
        most once per item."""
        cache = self.__dict__.get("_iview_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_iview_cache", cache)
        view = cache.get(item)
        if view is None:
            entry = self._item_projections().get(item)
            if entry is None:
                rows, servers, times = _EMPTY_INT, _EMPTY_INT, _EMPTY_FLOAT
                links = trajectory_links(self.origin, servers)
            else:
                a, rows, servers, times = entry
                links = self.same_server_index().item_links(a, len(times))
            view = SingleItemView(
                servers=servers,
                times=times,
                num_servers=self.num_servers,
                origin=self.origin,
                links=links,
                rows=rows,
            )
            cache[item] = view
        return view

    def group_view(self, items: Iterable[int]) -> SingleItemView:
        """Cached co-occurrence view of an item group: the trajectory of
        ``restrict_to_items(mode="all")`` (requests containing *every*
        item), computed by intersecting the per-item position arrays,
        with its links.  A one-item group's view is its
        :meth:`item_view`."""
        group = frozenset(items)
        if not group:
            raise ValueError("item group must be non-empty")
        cache = self.__dict__.get("_gview_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_gview_cache", cache)
        view = cache.get(group)
        if view is None and len(group) == 1:
            (item,) = group
            view = cache[group] = self.item_view(item)
        elif view is None:
            members = sorted(group)
            idx = self.item_indices(members[0])
            for d in members[1:]:
                if not len(idx):
                    break
                idx = np.intersect1d(idx, self.item_indices(d), assume_unique=True)
            g_servers = self.servers_array[idx]
            g_times = self.times_array[idx]
            g_servers.setflags(write=False)
            g_times.setflags(write=False)
            view = SingleItemView(
                servers=g_servers,
                times=g_times,
                num_servers=self.num_servers,
                origin=self.origin,
                links=trajectory_links(self.origin, g_servers),
                rows=idx,
            )
            cache[group] = view
        return view

    # ------------------------------------------------------------------
    # pickling: ship the model, not the derived caches
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k not in _CACHE_KEYS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # strip cache keys defensively: a foreign/future pickle that does
        # carry them would alias writable buffers across processes --
        # rebuild locally instead of trusting shipped state
        self.__dict__.update(
            {k: v for k, v in state.items() if k not in _CACHE_KEYS}
        )


@dataclass(frozen=True, slots=True)
class SingleItemView:
    """The bare ``(servers, times)`` arrays consumed by single-item solvers.

    ``servers``/``times`` are either plain tuples (hand-built views) or
    read-only numpy columns (``int64``/``float64``) handed out by the
    cached :meth:`RequestSequence.item_view` / ``group_view``
    projections.  Both spellings fingerprint to identical memo keys
    (:func:`repro.engine.memo.fingerprint_view` normalises through
    ``np.asarray``); array-backed views are not hashable.  ``links``
    carries the trajectory's same-server links when a projection
    already knows them; the solvers derive them otherwise.  ``rows``
    holds a projection's request positions in its sequence (what the
    cost ledger keys charges by).
    """

    servers: "Tuple[int, ...] | np.ndarray"
    times: "Tuple[float, ...] | np.ndarray"
    num_servers: int
    origin: int
    links: Optional[ViewLinks] = field(default=None, compare=False, repr=False)
    rows: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.times)


def package_rate(k: int, alpha: float) -> float:
    """Cost multiplier of a ``k``-item package relative to one item.

    Per Table II a package of ``k > 1`` items is cached at ``alpha*k*mu``
    and transferred at ``alpha*k*lam``; a "package" of one item is just the
    item itself (no discount).
    """
    if k <= 0:
        raise ValueError("package size must be positive")
    if not 0 < alpha <= 1:
        raise ValueError(f"discount factor alpha must be in (0, 1], got {alpha}")
    return 1.0 if k == 1 else alpha * k


@dataclass(frozen=True, slots=True)
class CostModel:
    """Homogeneous cost model of Section III-B.

    Attributes
    ----------
    mu:
        Uniform caching cost per item per time unit.
    lam:
        Uniform transfer cost per item between any pair of servers.
    """

    mu: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        # NaN fails both comparisons: the DP's exactness needs real,
        # non-negative charges
        if not (self.mu >= 0 and self.lam >= 0):
            raise ValueError(
                f"cost rates must be non-negative, got mu={self.mu!r}, "
                f"lam={self.lam!r}"
            )
        if self.mu == 0 and self.lam == 0:
            raise ValueError("at least one of mu/lam must be positive")

    # -- single items ---------------------------------------------------
    def cache_cost(self, duration: float) -> float:
        """Cost of caching one item for ``duration`` time units."""
        if duration < 0:
            raise ValueError(f"negative caching duration {duration}")
        return self.mu * duration

    def transfer_cost(self) -> float:
        """Cost of transferring one item between two servers."""
        return self.lam

    def serve_cost(self, t_from: float, t_to: float, same_server: bool) -> float:
        """``C_ij`` of Eq. (1): cache from ``t_from`` to ``t_to`` plus an
        optional transfer when the servers differ (``epsilon`` of Eq. (1))."""
        if t_to < t_from:
            return math.inf
        eps = 0.0 if same_server else 1.0
        return (t_to - t_from) * self.mu + eps * self.lam

    # -- packages (Table II) --------------------------------------------
    def scaled(self, multiplier: float) -> "CostModel":
        """A cost model with both rates multiplied by ``multiplier``.

        Used to serve a package with the single-item machinery: a two-item
        package behaves exactly like one pseudo-item whose rates are
        ``2*alpha*mu`` and ``2*alpha*lam``.
        """
        if multiplier <= 0:
            raise ValueError("rate multiplier must be positive")
        return CostModel(mu=self.mu * multiplier, lam=self.lam * multiplier)

    def package_model(self, k: int, alpha: float) -> "CostModel":
        """Cost model of a ``k``-item package with discount ``alpha``."""
        return self.scaled(package_rate(k, alpha))

    @property
    def rho(self) -> float:
        """The ratio ``rho = lam / mu`` studied in Fig. 12."""
        if self.mu == 0:
            return math.inf
        return self.lam / self.mu

    @staticmethod
    def from_rho(rho: float, total: float = 6.0) -> "CostModel":
        """Build the Fig. 12 cost model: ``lam/mu = rho`` with
        ``lam + mu = total`` (the paper fixes ``total = 6``)."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        if total <= 0:
            raise ValueError("total must be positive")
        mu = total / (1.0 + rho)
        return CostModel(mu=mu, lam=total - mu)
