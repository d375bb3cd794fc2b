"""Domain model for the mobile-cloud data-caching problem.

This module defines the three primitives every other part of the library is
built on:

* :class:`Request` -- one access ``r_i = <s_i, t_i, D_i>`` made at server
  ``s_i`` at time ``t_i`` for an item subset ``D_i`` (Section III-A of the
  paper).
* :class:`RequestSequence` -- an immutable, time-ordered sequence of
  requests together with the server universe and the origin server that
  initially stores every data item.
* :class:`CostModel` -- the homogeneous cost model of Section III-B:
  caching one item costs ``mu`` per time unit, transferring one item
  between any pair of servers costs ``lam``, and a package of ``k`` packed
  items is cached/transferred at ``alpha * k * mu`` / ``alpha * k * lam``
  (Table II).

The paper assumes at most one request per time instant; the sequence
constructor enforces strictly increasing timestamps so that ``t_i`` can be
used interchangeably with the request index, exactly as the paper does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Request",
    "RequestSequence",
    "SingleItemView",
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
_CACHE_KEYS = ("_cols_cache", "_proj_cache", "_iview_cache", "_gview_cache")


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


def _raise_invalid(i: int, r: Request, prev: float, num_servers: int) -> None:
    """Raise the indexed :meth:`RequestSequence.validate` message for
    ``request[i]``, checking its conditions in their documented order."""
    where = f"request[{i}] (server {r.server}, t={r.time!r})"
    if math.isnan(r.time):
        raise ValueError(f"{where}: time is NaN")
    if math.isinf(r.time):
        raise ValueError(f"{where}: time is infinite")
    if r.time < 0:
        raise ValueError(f"{where}: time is negative")
    if r.time <= prev:
        raise ValueError(
            f"{where}: times must be strictly increasing "
            f"(previous was {prev!r})"
        )
    if not 0 <= r.server < num_servers:
        raise ValueError(f"{where}: server id outside [0, {num_servers})")
    if not r.items:
        raise ValueError(f"{where}: empty item set")


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
        return tuple(r.time for r in self.requests)

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(r.server for r in self.requests)

    # ------------------------------------------------------------------
    # integrity audit
    # ------------------------------------------------------------------
    def validate(self) -> "RequestSequence":
        """Re-audit every sequence invariant; raise ``ValueError`` with
        the offending request's index on the first violation.

        The constructor already enforces these for sequences built the
        normal way, but corrupt data can still arrive -- deserialised
        payloads, hand-built tuples mutated after the fact, NaN times
        smuggled in through numpy scalars.  :func:`solve_dp_greedy`
        calls this once at entry so such inputs fail fast with a
        precise, indexed message instead of surfacing as an opaque
        IndexError or a silently wrong cost deep inside a DP recurrence.
        Returns ``self`` so call sites can chain.
        """
        if self.num_servers <= 0:
            raise ValueError(f"num_servers must be positive, got {self.num_servers}")
        if not 0 <= self.origin < self.num_servers:
            raise ValueError(
                f"origin server {self.origin} outside [0, {self.num_servers})"
            )
        prev = -math.inf
        m = self.num_servers
        for i, r in enumerate(self.requests):
            t = r.time
            # one comparison chain passes exactly the rows every check
            # below passes (NaN fails every comparison); the indexed
            # message is only formatted for the first row that fails it
            if not (0.0 <= t < math.inf and prev < t and 0 <= r.server < m
                    and r.items):
                _raise_invalid(i, r, prev, m)
            prev = t
        return self

    # ------------------------------------------------------------------
    # derived statistics used by Phase 1 of DP_Greedy
    # ------------------------------------------------------------------
    def item_counts(self) -> Dict[int, int]:
        """``|d_i|`` of Eq. (5): number of requests containing each item."""
        counts: Dict[int, int] = {}
        for r in self.requests:
            for d in r.items:
                counts[d] = counts.get(d, 0) + 1
        return counts

    def cooccurrence(self, d_i: int, d_j: int) -> int:
        """``|(d_i, d_j)|`` of Eq. (5): requests where both items co-exist."""
        if d_i == d_j:
            raise ValueError("co-occurrence is defined for distinct items")
        return sum(1 for r in self.requests if d_i in r.items and d_j in r.items)

    def total_item_requests(self) -> int:
        """``|d_1| + |d_2| + ... + |d_k|``, the ``ave_cost`` denominator."""
        return sum(len(r.items) for r in self.requests)

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def restrict_to_item(self, item: int) -> "RequestSequence":
        """Sub-sequence of requests containing ``item``.

        Each surviving request keeps only ``{item}`` as its item set, i.e.
        this is the per-item view on which the single-item optimal off-line
        algorithm of [6] operates.
        """
        reqs = tuple(
            Request(r.server, r.time, frozenset((item,)))
            for r in self.requests
            if item in r.items
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
        group.
        """
        group = frozenset(items)
        if not group:
            raise ValueError("item group must be non-empty")
        keep: List[Request] = []
        for r in self.requests:
            inter = r.items & group
            if not inter:
                continue
            if mode == "any":
                pass
            elif mode == "all":
                if inter != group:
                    continue
            elif mode == "exactly-one":
                if len(inter) != 1:
                    continue
            else:
                raise ValueError(f"unknown mode {mode!r}")
            keep.append(Request(r.server, r.time, inter))
        return RequestSequence(tuple(keep), self.num_servers, self.origin)

    def single_item_view(self) -> "SingleItemView":
        """Flatten to (servers, times) arrays for the single-item solvers.

        Only valid when every request accesses the same single item (i.e.
        the sequence is a per-item projection).
        """
        if any(len(r.items) != 1 for r in self.requests):
            raise ValueError("single_item_view requires single-item requests")
        return SingleItemView(
            servers=self.servers,
            times=self.times,
            num_servers=self.num_servers,
            origin=self.origin,
        )

    # ------------------------------------------------------------------
    # columnar projections (lazily cached)
    # ------------------------------------------------------------------
    #
    # The whole-sequence (servers, times) columns and the per-item event
    # projections are materialised once per sequence and handed out as
    # read-only numpy array views, so every serving unit stops paying a
    # full Python rescan of ``requests``.  The caches live in the
    # instance ``__dict__`` (the dataclass is frozen but not slotted)
    # and are dropped on pickling -- pool workers rebuild them on first
    # use instead of paying the ship cost.  Concurrent first calls from
    # pool threads can at worst duplicate the build; the results are
    # equivalent, so the race is benign.

    def _columnar(self) -> Tuple[np.ndarray, np.ndarray]:
        cached = self.__dict__.get("_cols_cache")
        if cached is None:
            n = len(self.requests)
            servers = np.fromiter(
                (r.server for r in self.requests), dtype=np.int64, count=n
            )
            times = np.fromiter(
                (r.time for r in self.requests), dtype=np.float64, count=n
            )
            servers.setflags(write=False)
            times.setflags(write=False)
            cached = (servers, times)
            object.__setattr__(self, "_cols_cache", cached)
        return cached

    @property
    def servers_array(self) -> np.ndarray:
        """Whole-sequence server ids as a read-only ``int64`` column."""
        return self._columnar()[0]

    @property
    def times_array(self) -> np.ndarray:
        """Whole-sequence timestamps as a read-only ``float64`` column."""
        return self._columnar()[1]

    def _item_projections(self) -> Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``item -> (positions, servers, times)``: one pass over the
        requests gathers every per-item projection; each entry is a
        zero-copy slice of the three concatenated arrays."""
        proj = self.__dict__.get("_proj_cache")
        if proj is None:
            servers, times = self._columnar()
            positions: Dict[int, List[int]] = {}
            for i, r in enumerate(self.requests):
                for d in r.items:
                    positions.setdefault(d, []).append(i)
            proj = {}
            if positions:
                order = sorted(positions)
                total = sum(len(positions[d]) for d in order)
                flat = np.fromiter(
                    (i for d in order for i in positions[d]),
                    dtype=np.int64,
                    count=total,
                )
                proj_servers = servers[flat]
                proj_times = times[flat]
                for arr in (flat, proj_servers, proj_times):
                    arr.setflags(write=False)
                offset = 0
                for d in order:
                    end = offset + len(positions[d])
                    proj[d] = (
                        flat[offset:end],
                        proj_servers[offset:end],
                        proj_times[offset:end],
                    )
                    offset = end
            object.__setattr__(self, "_proj_cache", proj)
        return proj

    def item_indices(self, item: int) -> np.ndarray:
        """Ascending request positions whose item set contains ``item``."""
        entry = self._item_projections().get(item)
        return _EMPTY_INT if entry is None else entry[0]

    def item_event_counts(self) -> Dict[int, int]:
        """:meth:`item_counts` served from the cached projections."""
        return {d: len(e[0]) for d, e in self._item_projections().items()}

    def item_view(self, item: int) -> SingleItemView:
        """Cached columnar per-item view: the ``(servers, times)``
        trajectory of :meth:`restrict_to_item` without the per-call
        tuple rebuild (array-backed, built at most once per item)."""
        cache = self.__dict__.get("_iview_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_iview_cache", cache)
        view = cache.get(item)
        if view is None:
            entry = self._item_projections().get(item)
            if entry is None:
                servers, times = _EMPTY_INT, _EMPTY_FLOAT
            else:
                _, servers, times = entry
            view = SingleItemView(
                servers=servers,
                times=times,
                num_servers=self.num_servers,
                origin=self.origin,
            )
            cache[item] = view
        return view

    def group_view(self, items: Iterable[int]) -> SingleItemView:
        """Cached co-occurrence view of an item group: the trajectory of
        ``restrict_to_items(mode="all")`` (requests containing *every*
        item), computed by intersecting the per-item position arrays."""
        group = frozenset(items)
        if not group:
            raise ValueError("item group must be non-empty")
        if len(group) == 1:
            return self.item_view(next(iter(group)))
        cache = self.__dict__.get("_gview_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_gview_cache", cache)
        view = cache.get(group)
        if view is None:
            members = sorted(group)
            idx = self.item_indices(members[0])
            for d in members[1:]:
                if not len(idx):
                    break
                idx = np.intersect1d(idx, self.item_indices(d), assume_unique=True)
            servers, times = self._columnar()
            g_servers = servers[idx]
            g_times = times[idx]
            g_servers.setflags(write=False)
            g_times.setflags(write=False)
            view = SingleItemView(
                servers=g_servers,
                times=g_times,
                num_servers=self.num_servers,
                origin=self.origin,
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
    ``np.asarray``); array-backed views are not hashable.
    """

    servers: "Tuple[int, ...] | np.ndarray"
    times: "Tuple[float, ...] | np.ndarray"
    num_servers: int
    origin: int

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
        if self.mu < 0 or self.lam < 0:
            raise ValueError("cost rates must be non-negative")
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
