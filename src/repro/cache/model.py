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
  reads one columnar layout, :class:`TraceColumns`, which the
  constructor builds from its rows in one vectorised pass and a trace
  store maps from disk.
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

import math
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import chain, compress
from typing import (
    Dict, FrozenSet, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import RequestRowError

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

#: A server or item id is a Python or numpy integer in int64; a time,
#: a Python or numpy real.  Item sets of other types than ``_ID_SETS``
#: are copied to tuples, and a value that is no collection is one id.
_INTEGERS = (int, np.integer)
_INT64 = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))
_REALS = (int, float, np.integer, np.floating)
_ID_SETS = (frozenset, set, tuple, list)


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
    (a per-row mask) -- no empty item set.  Raises
    :class:`~repro.errors.RequestRowError` naming the first failing row
    and, for that row, the first failing check.
    """
    ok, prev = _trajectory_mask(servers, times, num_servers, origin)
    if empty is not None:
        ok &= ~empty
    if not ok.all():
        i = int(np.argmin(ok))
        raise _row_error(
            i, int(servers[i]), float(times[i]), prev[i], num_servers,
            () if empty is not None and empty[i] else None,
        )


def _trajectory_mask(servers, times, num_servers: int, origin: int):
    """``(ok, prev)``: the rows passing every server and time check, and
    each row's previous time; a bad universe or origin raises."""
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
    # every comparison)
    with np.errstate(invalid="ignore"):
        ok = (times >= 0) & (times < math.inf) & (times > prev)
    return ok & (servers >= 0) & (servers < num_servers), prev


def _row_error(i: int, server, time, prev, num_servers: int, ids) -> RequestRowError:
    """The error of ``request[i]``, a row a mask rejected: the first rule
    its values, as given, break (``ids=None``: the mask read no ids)."""
    server = int(server) if isinstance(server, _INTEGERS) else server
    if not isinstance(time, _REALS):
        return RequestRowError(i, server, time, "time is not a number")
    t, prev = float(time), float(prev)
    if math.isnan(t):
        rule = "time is NaN"
    elif math.isinf(t):
        rule = "time is infinite"
    elif t < 0:
        rule = "time is negative"
    elif t <= prev:
        rule = f"times must be strictly increasing (previous was {prev!r})"
    elif not isinstance(server, _INTEGERS):
        rule = "server id is not an integer"
    elif not 0 <= server < num_servers:
        rule = f"server id outside [0, {num_servers})"
    elif not len(ids):
        rule = "empty item set"
    else:
        d = next(d for d in ids if not (isinstance(d, _INTEGERS) and _INT64[0] <= d <= _INT64[1]))
        what = "outside int64" if isinstance(d, _INTEGERS) else "is not an integer"
        rule = f"item id {d!r} {what}"
    return RequestRowError(i, server, t, rule)


def _column(values: Sequence, dtype, kinds: str, types, bounds):
    """``values`` as a ``dtype`` column, and the mask of the entries that
    are not ``types`` within ``bounds`` (they read 0).  One dtype test
    passes a clean column; only a failed test walks the entries."""
    try:
        column = np.array(values)
    except ValueError:  # ragged nested sequences
        column = None
    if column is not None and column.ndim == 1 and column.dtype.kind in kinds:
        return column.astype(dtype, copy=False), np.zeros(len(column), dtype=bool)
    good = [isinstance(v, types) and bounds[0] <= v <= bounds[1] for v in values]
    column = np.array([v if ok else 0 for v, ok in zip(values, good)], dtype=dtype)
    return column, ~np.array(good, dtype=bool)


def _transpose(rows: Sequence):
    """The ``(servers, times, items)`` columns of the constructor's rows,
    every value as given."""
    if not rows:
        return (), (), ()
    if Request in set(map(type, rows)):
        rows = [(r.server, r.time, r.items) if isinstance(r, Request) else r for r in rows]
    try:
        columns = tuple(zip(*rows, strict=True))
    except (TypeError, ValueError):  # a row is no sequence, or rows differ in length
        columns = ()
    if len(columns) == 3:
        return columns
    i = next(i for i, r in enumerate(rows) if not (hasattr(r, "__len__") and len(r) == 3))
    raise RequestRowError(i, None, None, f"malformed request {rows[i]!r}")


def _sort_row_ids(row_of: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort every row's ids and drop repeats (``ids[j]`` is in row
    ``row_of[j]``, rows in order): one test passes rows already sorted
    and repeat-free, else one ``np.lexsort`` by (row, id) does it."""
    inner = row_of[1:] == row_of[:-1]
    if (ids[1:][inner] > ids[:-1][inner]).all():
        return row_of, ids
    order = np.lexsort((ids, row_of))
    row_of, ids = row_of[order], ids[order]
    fresh = np.ones(len(ids), dtype=bool)
    fresh[1:] = (row_of[1:] != row_of[:-1]) | (ids[1:] != ids[:-1])
    return row_of[fresh], ids[fresh]


def _request_csr(requests: Iterable, num_servers: int, origin: int):
    """``(servers, times, item_offsets, item_ids)`` of the constructor's
    rows, transposed once and checked by one mask; only the first row
    the mask rejects is looked at alone, for its message."""
    rows = requests if isinstance(requests, (tuple, list)) else tuple(requests)
    server_of, time_of, id_sets = _transpose(rows)
    if not set(map(type, id_sets)).issubset(_ID_SETS):
        id_sets = [
            d if isinstance(d, _ID_SETS) else tuple(d)
            if hasattr(d, "__iter__") and not isinstance(d, (str, bytes)) else (d,)
            for d in id_sets
        ]
    sizes = np.fromiter(map(len, id_sets), np.int64, len(rows))
    servers, bad_servers = _column(server_of, np.int64, "i", _INTEGERS, _INT64)
    times, bad_times = _column(time_of, np.float64, "iuf", _REALS, (-math.inf, math.inf))
    flat = list(chain.from_iterable(id_sets))
    ids, bad_ids = _column(flat, np.int64, "i", _INTEGERS, _INT64)
    row_of = np.repeat(np.arange(len(rows)), sizes)
    ok, prev = _trajectory_mask(servers, times, num_servers, origin)
    ok &= (sizes > 0) & ~bad_servers & ~bad_times
    ok[row_of[bad_ids]] = False
    if not ok.all():
        i = int(np.argmin(ok))
        raise _row_error(i, server_of[i], time_of[i], prev[i], num_servers, id_sets[i])
    row_of, ids = _sort_row_ids(row_of, ids)
    item_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=len(rows)), out=item_offsets[1:])
    return servers, times, item_offsets, ids


class TraceColumns(NamedTuple):
    """The one columnar layout behind every :class:`RequestSequence`.

    Request-major columns mirror the sequence; row ``i``'s item set is
    ``item_ids[item_offsets[i]:item_offsets[i + 1]]``, sorted ascending
    and de-duplicated.  The item-major *inverted* columns list, for each
    distinct item ``inv_items[a]``, the ascending request positions
    carrying it (``inv_positions[inv_offsets[a]:inv_offsets[a + 1]]``)
    and those requests' servers and times.  The sequence constructor
    builds them from its rows (:func:`invert_items` does the inversion);
    a trace store maps the same columns from disk
    (:mod:`repro.trace.store`).
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


def _columns(
    servers: np.ndarray, times: np.ndarray, item_offsets: np.ndarray, item_ids: np.ndarray
) -> TraceColumns:
    """The read-only :class:`TraceColumns` of request-major columns."""
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


class RequestSequence:
    """A time-ordered request sequence over ``m`` servers and ``k`` items.

    The sequence is the off-line input of the caching problem: the whole
    spatial--temporal trajectory ``R = {r_1, ..., r_n}`` is known in advance
    (Section III).  All items are initially stored at ``origin`` (the paper's
    ``s_1``).

    The constructor accepts :class:`Request` instances or plain
    ``(server, time, items)`` tuples (``items`` a collection of ids, or
    one bare id), transposes them in one vectorised pass into its state,
    the read-only ``columns`` (:class:`TraceColumns`), and validates that
    timestamps are finite, non-negative and strictly increasing (at most
    one request per instant), server ids (and the origin) integers in
    ``[0, num_servers)``, item sets non-empty and item ids integers in
    int64, raising :class:`~repro.errors.RequestRowError` for the first
    row that breaks a rule.  ``Request`` objects are built only when
    ``requests``, iteration or indexing asks.  Sequences are immutable,
    and compare and hash by ``num_servers``, ``origin`` and columns.
    """

    num_servers: int
    origin: int
    columns: TraceColumns
    items: FrozenSet[int]  #: the distinct data items of the sequence

    def __init__(self, requests: Iterable, num_servers: int, origin: int = 0) -> None:
        csr = _request_csr(requests, num_servers, origin)
        self._adopt(_columns(*csr), num_servers, origin)

    @classmethod
    def _from_csr(cls, csr: Tuple[np.ndarray, ...], num_servers: int, origin: int):
        """A sequence over checked CSR rows (the CSV reader's)."""
        seq = cls.__new__(cls)
        seq._adopt(_columns(*csr), num_servers, origin)
        return seq

    def _adopt(self, columns: TraceColumns, num_servers: int, origin: int) -> None:
        vars(self).update(
            num_servers=num_servers, origin=origin, columns=columns,
            items=frozenset(columns.inv_items.tolist()),
        )

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        n, m = len(self), self.num_servers
        return f"{type(self).__name__}(n={n}, num_servers={m}, origin={self.origin})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestSequence):
            return NotImplemented
        return (self.num_servers, self.origin) == (other.num_servers, other.origin) and all(
            map(np.array_equal, self.columns[:4], other.columns[:4])
        )

    def __hash__(self) -> int:
        cols = self.columns
        key = (np.asarray(c, np.int64).tobytes() for c in (cols.servers, cols.item_ids))
        return hash((self.num_servers, self.origin, *key))

    # ------------------------------------------------------------------
    # container protocol: Request objects built on demand
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns.servers)

    def _built(self, lo: int, hi: int) -> Tuple[Request, ...]:
        """Rows ``lo`` to ``hi - 1`` as :class:`Request` objects."""
        cols = self.columns
        start, stop = cols.item_offsets[lo], cols.item_offsets[hi]
        ids = cols.item_ids[start:stop].tolist()
        bounds = (cols.item_offsets[lo : hi + 1] - start).tolist()
        return tuple(map(
            Request, cols.servers[lo:hi].tolist(), cols.times[lo:hi].tolist(),
            map(frozenset, map(ids.__getitem__, map(slice, bounds, bounds[1:]))),
        ))

    @property
    def requests(self) -> Tuple[Request, ...]:
        """Every request as a :class:`Request`, built from the columns on
        first use and kept (O(n) Python objects; no solve reads them)."""
        if "_req_cache" not in vars(self):
            vars(self)["_req_cache"] = self._built(0, len(self))
        return vars(self)["_req_cache"]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, idx):
        """A request, or a tuple for a slice: only the rows asked for are
        built, unless :attr:`requests` already holds them all."""
        if "_req_cache" in vars(self):
            return self.requests[idx]
        rows = range(len(self))[idx]
        if isinstance(rows, range):
            return tuple(self._built(i, i + 1)[0] for i in rows)
        return self._built(rows, rows + 1)[0]

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self.times_array.tolist())

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(self.servers_array.tolist())

    # ------------------------------------------------------------------
    # the columnar layout
    # ------------------------------------------------------------------
    #
    # Every derived operation below reads :attr:`columns`; the per-item
    # and per-group views are built lazily, kept in the instance
    # ``__dict__`` and dropped on pickling (pool workers rebuild them on
    # first use instead of paying the ship cost).  Concurrent first calls
    # from several threads can at worst duplicate a build; the results
    # are equivalent, so the race is benign.

    @property
    def servers_array(self) -> np.ndarray:
        """Whole-sequence server ids as a read-only integer column."""
        return self.columns.servers

    @property
    def times_array(self) -> np.ndarray:
        """Whole-sequence timestamps as a read-only ``float64`` column."""
        return self.columns.times

    def item_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The request-major CSR ``(item_offsets, item_ids)``: row ``i``'s
        item set is ``item_ids[item_offsets[i]:item_offsets[i + 1]]``,
        sorted ascending and de-duplicated."""
        cols = self.columns
        return cols.item_offsets, cols.item_ids

    # ------------------------------------------------------------------
    # integrity audit
    # ------------------------------------------------------------------
    def validate(self) -> "RequestSequence":
        """Re-audit every sequence invariant; raise
        :class:`~repro.errors.RequestRowError` (a ``ValueError``) with the
        offending request's index on the first violation.

        The constructor already enforces these for sequences built the
        normal way, but corrupt data can still arrive -- deserialised
        payloads, tampered columns in memory or in a store.
        :func:`solve_dp_greedy` calls this once at entry so such inputs
        fail fast with a precise, indexed message instead of surfacing
        as an opaque IndexError or a silently wrong cost deep inside a
        DP recurrence.  The message names the first failing row and,
        for that row, the first failing check.  Returns ``self`` so
        call sites can chain.
        """
        cols = self.columns
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
        cols = self.columns
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
        return len(self.columns.item_ids)

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def restrict_to_item(self, item: int) -> "RequestSequence":
        """Sub-sequence of requests containing ``item``.

        Each surviving request keeps only ``{item}`` as its item set, i.e.
        this is the per-item view on which the single-item optimal off-line
        algorithm of [6] operates.
        """
        return self.restrict_to_items((item,))

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
        kept = zip(
            self.servers_array[rows].tolist(),
            self.times_array[rows].tolist(),
            [list(compress(members, flags)) for flags in carried.tolist()],
        )
        return RequestSequence(kept, self.num_servers, self.origin)

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
        if np.any(np.diff(self.columns.item_offsets) != 1):
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
            cols = self.columns
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
            cols = self.columns
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
    # pickling: ship the columns, not the derived caches
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {k: vars(self)[k] for k in ("num_servers", "origin", "columns")}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # adopt the model only: cache keys a foreign/future pickle carries
        # would alias buffers across processes, so they are rebuilt here
        for column in state["columns"]:
            column.setflags(write=False)
        self._adopt(state["columns"], state["num_servers"], state["origin"])


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
