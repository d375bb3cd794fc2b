"""Streaming correlation statistics (the on-line face of Phase 1).

The off-line Phase 1 computes the Jaccard matrix in one vectorised pass;
the on-line algorithm (:mod:`repro.core.online_dpg`) needs the same
statistics *incrementally*.  :class:`StreamingCorrelation` maintains item
counts and pairwise co-occurrence counts under request-by-request
updates, with exactly the same similarity definition -- the class is
pinned to the batch computation in tests (prefix-equivalence: feeding
the first ``i`` requests must reproduce ``correlation_stats`` of the
truncated sequence).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..cache.model import Request, RequestSequence

__all__ = ["StreamingCorrelation"]


class StreamingCorrelation:
    """Incrementally maintained item/pair statistics.

    ``observe`` ingests one request; ``similarity`` returns the current
    Jaccard estimate; ``ready`` gates decisions behind a per-item warm-up
    (the on-line algorithm's ``min_observations``).
    """

    def __init__(self, min_observations: int = 1) -> None:
        if min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        self.min_observations = min_observations
        self.counts: Dict[int, int] = {}
        self.co_counts: Dict[FrozenSet[int], int] = {}
        self.num_requests = 0

    # ------------------------------------------------------------------
    def observe(self, request: "Request | Iterable[int]") -> None:
        """Ingest one request (or a bare item collection)."""
        items = request.items if isinstance(request, Request) else frozenset(request)
        if not items:
            raise ValueError("a request must carry at least one item")
        self.num_requests += 1
        counts = self.counts
        for d in items:
            counts[d] = counts.get(d, 0) + 1
        if len(items) == 1:
            return  # no pair to co-count
        ordered = sorted(items)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                pair = frozenset((a, b))
                self.co_counts[pair] = self.co_counts.get(pair, 0) + 1

    def count(self, item: int) -> int:
        return self.counts.get(item, 0)

    def cooccurrence(self, a: int, b: int) -> int:
        if a == b:
            raise ValueError("co-occurrence is defined for distinct items")
        return self.co_counts.get(frozenset((a, b)), 0)

    def similarity(self, a: int, b: int) -> float:
        """Current Jaccard estimate ``J(a, b)`` (Eq. 5 on the prefix)."""
        if a == b:
            return 1.0
        co = self.cooccurrence(a, b)
        union = self.count(a) + self.count(b) - co
        return co / union if union > 0 else 0.0

    def ready(self, a: int, b: int) -> bool:
        """Both items past the warm-up threshold?"""
        return (
            self.count(a) >= self.min_observations
            and self.count(b) >= self.min_observations
        )

    def hot_pairs(self, theta: float) -> List[Tuple[float, int, int]]:
        """Pairs currently above ``theta`` and past warm-up, sorted by
        descending similarity (deterministic ties)."""
        return self.pairs_by_similarity(threshold=theta)

    # ------------------------------------------------------------------
    # the packing surface: the same query API the batch statistics
    # (CorrelationStats / SparseCorrelationStats) expose, so Phase-1
    # re-packing (greedy_pair_packing / greedy_group_packing) runs
    # straight off the streaming state -- the serving engine's
    # background re-packer does exactly that.  Both methods are
    # read-only: a re-packing epoch never perturbs the counts, which is
    # what keeps the prefix-equivalence pin intact across epochs.
    # ------------------------------------------------------------------
    @property
    def items(self) -> Tuple[int, ...]:
        """Every item observed so far, ascending (the packing universe)."""
        return tuple(sorted(self.counts))

    def pairs_by_similarity(
        self, *, threshold: Optional[float] = None
    ) -> List[Tuple[float, int, int]]:
        """Co-occurring pairs as ``(J, d_i, d_j)`` sorted by descending J.

        Mirrors the batch backends' ordering contract (ties break on the
        item identifiers) with one streaming-specific addition: pairs
        whose items are still inside the ``min_observations`` warm-up
        are withheld -- the on-line algorithm must not pack on a first
        coincidental co-occurrence, and neither may a re-packing epoch.
        With ``threshold=theta`` only pairs with ``J > theta`` (strict,
        matching the packing rule) are returned.
        """
        out: List[Tuple[float, int, int]] = []
        for pair in self.co_counts:
            a, b = sorted(pair)
            if not self.ready(a, b):
                continue
            j = self.similarity(a, b)
            if threshold is not None and j <= threshold:
                continue
            out.append((j, a, b))
        out.sort(key=lambda t: (-t[0], t[1], t[2]))
        return out
