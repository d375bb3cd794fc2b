"""Content-addressed memoisation of single-item solver calls.

Experiment sweeps (``fig11``--``fig13``, the theta ablation, the ratio
study) re-run DP_Greedy over the *same* request sequence while varying
only ``theta`` or ``alpha``.  Phase 2's heavy work -- the optimal DP over
each serving unit's sub-trajectory -- depends only on the trajectory and
the cost rates, so most of those re-solves are byte-for-byte repeats:
``theta`` merely regroups items, and singleton sub-problems are identical
across every sweep point.  :class:`SolverMemo` eliminates the repeats.

The memo is *content-addressed*: the key is a BLAKE2b fingerprint of the
exact solver input -- the ``(servers, times)`` trajectory, the server
universe and origin, the cost rates ``(mu, lam)``, and the package
``rate_multiplier``.  Two lookups collide only when the solver would have
been called with identical arguments, so a hit returns the exact float
the solver would have produced (the miss path *stores whatever the real
solver returned*, it never recomputes costs a different way).

Hit/miss counters are exposed for observability; the engine surfaces
them through :class:`repro.engine.parallel.EngineStats` and the CLI
prints them per harness run.  Under span tracing
(:mod:`repro.obs.observer`) every individual probe additionally appears
as an ``engine.memo_probe`` span whose ``memo`` attribute records the
per-lookup ``hit``/``miss`` outcome -- the counters aggregate what the
spans itemise.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..cache.model import CostModel, RequestSequence, SingleItemView

__all__ = ["SolverMemo", "fingerprint_view", "get_default_memo", "resolve_memo"]


def fingerprint_view(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    rate_multiplier: float = 1.0,
) -> bytes:
    """BLAKE2b digest of one solver input.

    Covers everything the single-item solvers read: the trajectory
    (servers as int64, times as float64, in order), the server universe
    and origin, and the effective rates.  The digest is 16 bytes, cheap
    to compute (one pass over packed bytes) and safe to share across
    processes.

    Dtypes are normalised *before* hashing: views served off a
    memory-mapped :class:`~repro.trace.store.TraceStore` carry int32
    server columns, and the ``asarray(..., int64)`` widening here makes
    their fingerprints byte-identical to in-memory tuple/array views of
    the same trajectory -- a store-backed solve hits the same memo
    entries as the in-memory solve of the same trace.

    A :class:`RequestSequence` hashes its ``servers_array`` /
    ``times_array`` columns directly, with no per-request Python
    objects.  Item sets are non-empty by construction, so a ≤1-item
    universe is exactly the ``single_item_view`` validity condition.
    """
    if isinstance(view, RequestSequence):
        if len(view.items) > 1:
            view.single_item_view()  # raises: not a single-item sequence
        servers, times = view.servers_array, view.times_array
    else:
        servers, times = view.servers, view.times
    servers_bytes = np.asarray(servers, dtype=np.int64).tobytes()
    times_bytes = np.asarray(times, dtype=np.float64).tobytes()
    h = hashlib.blake2b(digest_size=16)
    h.update(
        struct.pack(
            "<qqddd",
            view.num_servers,
            view.origin,
            model.mu,
            model.lam,
            rate_multiplier,
        )
    )
    h.update(servers_bytes)
    h.update(times_bytes)
    return h.digest()


class SolverMemo:
    """Bounded, thread-safe cache of solver costs keyed by fingerprint.

    Parameters
    ----------
    max_entries:
        Eviction bound (oldest-inserted entries leave first).  ``None``
        means unbounded; the default is generous for sweep workloads
        while keeping worst-case memory trivial (one float per entry).
    """

    def __init__(self, max_entries: Optional[int] = 1_000_000) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        # key -> (cost, attribution-or-None); the attribution payload is
        # the (time, action, amount) charge tuple of the cost ledger,
        # stored so observed runs can hit the memo too.
        self._entries: Dict[bytes, Tuple[float, Optional[tuple]]] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    # -- storage ---------------------------------------------------------
    def get(
        self, key: bytes, *, with_attribution: bool = False
    ) -> "Optional[float] | Optional[Tuple[float, tuple]]":
        """Look up a cost; counts a hit or a miss.

        ``with_attribution=True`` returns the full ``(cost,
        attribution)`` entry and treats entries stored without an
        attribution payload as misses -- an observed run must never
        receive a cost it cannot ledger.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (with_attribution and entry[1] is None):
                self._misses += 1
                return None
            self._hits += 1
            return entry if with_attribution else entry[0]

    def put(
        self, key: bytes, cost: float, attribution: Optional[tuple] = None
    ) -> None:
        """Store a solver cost, optionally with its ledger attribution.

        Re-putting a key without an attribution keeps any payload already
        stored (the cost for a given fingerprint is unique, so the old
        attribution stays valid).
        """
        with self._lock:
            prev = self._entries.get(key)
            if (
                self.max_entries is not None
                and prev is None
                and len(self._entries) >= self.max_entries
            ):
                self._entries.pop(next(iter(self._entries)))
            if attribution is None and prev is not None:
                attribution = prev[1]
            self._entries[key] = (cost, attribution)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- observability ---------------------------------------------------
    # Every counter read takes the lock: unlocked reads of mutating state
    # can observe torn (hits, misses) pairs mid-update under concurrent
    # callers, which stats() already guarded against.
    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters snapshot: ``{hits, misses, entries, hit_rate}``."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
                "hit_rate": self._hits / total if total else 0.0,
            }


_DEFAULT_MEMO = SolverMemo()


def get_default_memo() -> SolverMemo:
    """The process-wide memo used when callers opt in with ``memo=True``."""
    return _DEFAULT_MEMO


def resolve_memo(memo: "SolverMemo | bool | None") -> Optional[SolverMemo]:
    """Normalise the ``memo=`` argument of the solve drivers: a
    :class:`SolverMemo` is used as-is, ``True`` picks the process-wide
    default memo, and ``None``/``False`` turn memoisation off."""
    if memo is True:
        return get_default_memo()
    if memo in (None, False):
        return None
    if isinstance(memo, SolverMemo):
        return memo
    raise TypeError("memo must be a SolverMemo, True, False, or None")
