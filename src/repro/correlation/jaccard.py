"""Phase 1 of DP_Greedy: correlation analysis between data items.

Implements Eq. (4) and Eq. (5) of the paper: the symmetric correlation
matrix ``A(i, j)`` populated with the *Jaccard similarity*

    ``J(d_i, d_j) = |(d_i, d_j)| / (|d_i| + |d_j| - |(d_i, d_j)|)``

where ``|(d_i, d_j)|`` counts the requests in which both items co-exist
and ``|d_i|`` counts the requests containing ``d_i``.  The paper prefers
Jaccard over raw co-occurrence because DP_Greedy should kick in when both
the *frequency* and the *overlap ratio* of a pair are high (Fig. 10).

Two interchangeable backends compute the statistics:

* **dense** (:func:`correlation_stats` default): the sequence is encoded
  as a boolean incidence matrix ``B`` (requests x items) and the
  co-occurrence counts are ``B^T B`` in one BLAS product -- ``O(n * k)``
  memory and ``O(n * k^2)`` flops for ``k`` items;
* **sparse** (:func:`sparse_correlation_stats`, or
  ``correlation_stats(seq, backend="sparse")``): a pass over the
  sequence's request-major item CSR accumulates only the *nonzero*
  co-occurrence cells in ``O(sum |D_i|^2)`` time and memory -- requests
  carry a handful of items each, so this is effectively linear in the
  trace and independent of the catalog width ``k``.  This is the join
  every solve runs; the dense pass is kept as the test oracle and for
  Fig. 10's matrices.

Both backends produce bit-identical Jaccard values (the same integer
``co / union`` division) and the same deterministic pair ordering, which
the test-suite pins.  ``pairs_by_similarity(threshold=...)`` pushes the
packing threshold ``theta`` into the join so Phase 1 never materialises
the ``O(k^2)`` pair list: zero-co-occurrence pairs have ``J = 0`` and can
never pass a positive threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..cache.model import RequestSequence

__all__ = [
    "CorrelationStats",
    "SparseCorrelationStats",
    "correlation_stats",
    "sparse_correlation_stats",
    "jaccard_similarity",
    "pair_similarities",
]


@dataclass(frozen=True)
class CorrelationStats:
    """Correlation statistics of one request sequence (dense backend).

    Attributes
    ----------
    items:
        Sorted tuple of item identifiers; row/column order of the matrices.
    counts:
        ``|d_i|`` per item (same order as ``items``).
    cooccurrence:
        Symmetric integer matrix of ``|(d_i, d_j)|``; the diagonal holds
        ``|d_i|``.
    jaccard:
        Symmetric float matrix ``A(i, j)`` of Eq. (4): Jaccard similarity
        off the diagonal, ``1.0`` on the diagonal.
    """

    items: Tuple[int, ...]
    counts: np.ndarray
    cooccurrence: np.ndarray
    jaccard: np.ndarray

    @cached_property
    def _item_index(self) -> Dict[int, int]:
        return {d: a for a, d in enumerate(self.items)}

    def index_of(self, item: int) -> int:
        try:
            return self._item_index[item]
        except KeyError:
            raise ValueError(f"item {item} is not in the sequence") from None

    def similarity(self, d_i: int, d_j: int) -> float:
        """``J(d_i, d_j)`` by item identifier."""
        return float(self.jaccard[self.index_of(d_i), self.index_of(d_j)])

    def frequency(self, d_i: int, d_j: int) -> int:
        """``|(d_i, d_j)|`` by item identifier (Fig. 10's frequency)."""
        return int(self.cooccurrence[self.index_of(d_i), self.index_of(d_j)])

    def _upper_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row/column indices and J values of all ``a < b`` pairs."""
        k = len(self.items)
        ia, ib = np.triu_indices(k, k=1)
        return ia, ib, self.jaccard[ia, ib]

    def pairs_by_similarity(
        self, *, threshold: "float | None" = None
    ) -> List[Tuple[float, int, int]]:
        """Unordered pairs as ``(J, d_i, d_j)`` sorted by descending J.

        Ties break on the item identifiers so the ordering -- and hence
        Phase 1's packing -- is deterministic.  Pair enumeration and the
        sort are a single ``triu_indices``/``lexsort`` pass (``items`` is
        sorted ascending, so row/column order is already the tie-break
        order).

        With ``threshold=theta`` only pairs with ``J > theta`` (strict,
        matching the packing rule) are returned -- the same prefix of the
        unfiltered list, filtered before the sort so the work scales with
        the survivors.
        """
        ia, ib, jac = self._upper_pairs()
        if threshold is not None:
            mask = jac > threshold
            ia, ib, jac = ia[mask], ib[mask], jac[mask]
        items_arr = np.asarray(self.items)
        order = np.lexsort((items_arr[ib], items_arr[ia], -jac))
        return [
            (float(jac[o]), int(items_arr[ia[o]]), int(items_arr[ib[o]]))
            for o in order
        ]

    def join_counters(self, threshold: "float | None" = None) -> Dict[str, int]:
        """Pruning statistics of the similarity join (see ``repro.obs``).

        ``pairs_total`` counts all ``k(k-1)/2`` unordered pairs,
        ``candidates_emitted`` the pairs with nonzero co-occurrence (the
        only ones a sparse join ever touches), and ``pairs_pruned`` the
        pairs that never reach packing under ``threshold``.  The values
        are facts about the workload, identical across backends.
        """
        ia, ib, jac = self._upper_pairs()
        total = int(jac.size)
        emitted = int(np.count_nonzero(self.cooccurrence[ia, ib]))
        survivors = total if threshold is None else int(np.count_nonzero(jac > threshold))
        return {
            "pairs_total": total,
            "candidates_emitted": emitted,
            "pairs_pruned": total - survivors,
        }


@dataclass(frozen=True)
class SparseCorrelationStats:
    """Correlation statistics held sparsely (inverted-index backend).

    API-compatible with :class:`CorrelationStats` -- ``index_of`` /
    ``similarity`` / ``frequency`` / ``pairs_by_similarity`` behave
    identically -- but only the *nonzero* co-occurrence cells are stored:
    ``co_counts[(a, b)]`` maps an index pair ``a < b`` (positions in
    ``items``) to ``|(d_a, d_b)| > 0``.  The dense ``cooccurrence`` /
    ``jaccard`` matrices are available as cached properties for
    cross-checking and ad-hoc analysis; they are materialised only on
    first access.
    """

    items: Tuple[int, ...]
    counts: np.ndarray
    co_counts: Dict[Tuple[int, int], int] = field(repr=False)

    @cached_property
    def _item_index(self) -> Dict[int, int]:
        return {d: a for a, d in enumerate(self.items)}

    def index_of(self, item: int) -> int:
        try:
            return self._item_index[item]
        except KeyError:
            raise ValueError(f"item {item} is not in the sequence") from None

    def similarity(self, d_i: int, d_j: int) -> float:
        """``J(d_i, d_j)`` by item identifier."""
        a, b = self.index_of(d_i), self.index_of(d_j)
        if a == b:
            return 1.0
        if a > b:
            a, b = b, a
        co = self.co_counts.get((a, b), 0)
        union = int(self.counts[a]) + int(self.counts[b]) - co
        return co / union if union > 0 else 0.0

    def frequency(self, d_i: int, d_j: int) -> int:
        """``|(d_i, d_j)|`` by item identifier (Fig. 10's frequency)."""
        a, b = self.index_of(d_i), self.index_of(d_j)
        if a == b:
            return int(self.counts[a])
        if a > b:
            a, b = b, a
        return self.co_counts.get((a, b), 0)

    def _candidates(self) -> List[Tuple[float, int, int]]:
        """``(J, d_a, d_b)`` for every nonzero-co-occurrence pair."""
        items = self.items
        counts = self.counts
        out: List[Tuple[float, int, int]] = []
        for (a, b), co in self.co_counts.items():
            union = int(counts[a]) + int(counts[b]) - co
            out.append((co / union, items[a], items[b]))
        return out

    def pairs_by_similarity(
        self, *, threshold: "float | None" = None
    ) -> List[Tuple[float, int, int]]:
        """Same contract and ordering as the dense implementation.

        With ``threshold=theta >= 0`` only candidate pairs are scored --
        ``O(c log c)`` for ``c`` nonzero-co-occurrence pairs, never the
        ``O(k^2)`` full join.  With ``threshold=None`` the zero-similarity
        tail is appended in identifier order for exact back-compat (this
        path is inherently ``O(k^2)``; callers that filter should pass the
        threshold instead).
        """
        key = lambda p: (-p[0], p[1], p[2])  # noqa: E731
        if threshold is not None:
            return sorted(
                (p for p in self._candidates() if p[0] > threshold), key=key
            )
        pairs = sorted(self._candidates(), key=key)
        # co > 0 implies J > 0, so the zero tail is exactly the
        # non-candidate pairs, ordered by (d_a, d_b).
        seen = self.co_counts
        k = len(self.items)
        for a in range(k):
            for b in range(a + 1, k):
                if (a, b) not in seen:
                    pairs.append((0.0, self.items[a], self.items[b]))
        return pairs

    def join_counters(self, threshold: "float | None" = None) -> Dict[str, int]:
        """Same contract as :meth:`CorrelationStats.join_counters`."""
        k = len(self.items)
        total = k * (k - 1) // 2
        emitted = len(self.co_counts)
        if threshold is None:
            survivors = total
        else:
            survivors = sum(1 for p in self._candidates() if p[0] > threshold)
        return {
            "pairs_total": total,
            "candidates_emitted": emitted,
            "pairs_pruned": total - survivors,
        }

    @cached_property
    def cooccurrence(self) -> np.ndarray:
        """Dense symmetric co-occurrence matrix (materialised on demand)."""
        k = len(self.items)
        co = np.zeros((k, k), dtype=np.int64)
        for (a, b), c in self.co_counts.items():
            co[a, b] = co[b, a] = c
        co[np.arange(k), np.arange(k)] = self.counts
        return co

    @cached_property
    def jaccard(self) -> np.ndarray:
        """Dense Jaccard matrix, bit-identical to the dense backend's."""
        co = self.cooccurrence
        union = self.counts[:, None] + self.counts[None, :] - co
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.where(union > 0, co / np.maximum(union, 1), 0.0)
        np.fill_diagonal(jac, 1.0)
        return jac


def correlation_stats(
    seq: RequestSequence, *, backend: str = "dense"
) -> "CorrelationStats | SparseCorrelationStats":
    """Compute all pairwise correlation statistics.

    ``backend="dense"`` (default) runs the historical incidence-matrix
    BLAS pass; ``backend="sparse"`` runs the inverted-index join of
    :func:`sparse_correlation_stats`.  The two agree bit-for-bit on every
    similarity and on pair ordering.
    """
    if backend == "sparse":
        return sparse_correlation_stats(seq)
    if backend != "dense":
        raise ValueError(f"unknown similarity backend {backend!r}")
    items = tuple(sorted(seq.items))
    n = len(seq)

    # Scatter the (request, item) memberships of the item CSR into the
    # incidence matrix with a single fancy-indexed assignment; the matrix
    # is float64 so the co-occurrence product below runs through BLAS
    # instead of numpy's slow integer matmul.  Counts are sums of 0/1
    # entries, far below 2**53, so the float accumulation is exact.
    offsets, ids = seq.item_csr()
    rows = np.repeat(np.arange(n), np.diff(offsets))
    incidence = np.zeros((n, len(items)), dtype=np.float64)
    incidence[rows, np.searchsorted(items, ids)] = 1.0

    co_f = incidence.T @ incidence  # co[a, b] = |(d_a, d_b)|, diag = |d_a|
    co = np.rint(co_f).astype(np.int64)
    counts = np.diag(co).copy()

    union = counts[:, None] + counts[None, :] - co
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.where(union > 0, co / np.maximum(union, 1), 0.0)
    np.fill_diagonal(jac, 1.0)

    return CorrelationStats(
        items=items, counts=counts, cooccurrence=co, jaccard=jac
    )


def sparse_correlation_stats(seq: RequestSequence) -> SparseCorrelationStats:
    """Build the statistics from the sequence's request-major item CSR.

    Each request contributes ``|D_i| choose 2`` co-occurrence increments,
    so the whole join is ``O(sum |D_i|^2)`` -- linear in the trace for the
    bounded request sizes of the paper's workloads, and independent of the
    catalog width ``k``.  No ``n x k`` incidence or ``k x k`` product is
    ever formed.

    Every sequence exposes its membership CSR
    (:meth:`~repro.cache.model.RequestSequence.item_csr`), whose rows are
    sorted and de-duplicated, so per-row sets equal the raw slices and
    item counts are one ``bincount``.  Rows of exactly two items -- the
    overwhelming majority in the paper's workloads -- are folded through
    a vectorised pair-encode + ``unique``; only wider rows take a per-row
    Python loop.
    """
    offsets, ids = seq.item_csr()
    offsets = np.asarray(offsets, dtype=np.int64)
    ids64 = np.asarray(ids, dtype=np.int64)
    items_arr = np.unique(ids64)
    k = len(items_arr)
    codes = np.searchsorted(items_arr, ids64)
    counts = np.bincount(codes, minlength=k).astype(np.int64)
    lengths = np.diff(offsets)
    co: Dict[Tuple[int, int], int] = {}

    two = np.flatnonzero(lengths == 2)
    if two.size:
        starts = offsets[two]
        enc = codes[starts] * k + codes[starts + 1]  # a < b: rows are sorted
        uniq, cnt = np.unique(enc, return_counts=True)
        for e, c in zip(uniq.tolist(), cnt.tolist()):
            co[divmod(e, k)] = c

    co_get = co.get
    for row in np.flatnonzero(lengths > 2).tolist():
        row_codes = codes[offsets[row] : offsets[row + 1]].tolist()
        for u, a in enumerate(row_codes):
            for b in row_codes[u + 1 :]:
                key = (a, b)
                co[key] = co_get(key, 0) + 1

    return SparseCorrelationStats(
        items=tuple(items_arr.tolist()), counts=counts, co_counts=co
    )


def jaccard_similarity(seq: RequestSequence, d_i: int, d_j: int) -> float:
    """Eq. (5) for one pair, computed directly from the sequence."""
    if d_i == d_j:
        return 1.0
    co = seq.cooccurrence(d_i, d_j)
    counts = seq.item_counts()
    union = counts.get(d_i, 0) + counts.get(d_j, 0) - co
    return co / union if union > 0 else 0.0


def pair_similarities(
    seq: RequestSequence, *, threshold: "float | None" = None
) -> Dict[Tuple[int, int], float]:
    """The paper's ``Jaccard`` dictionary: ``{(d_i, d_j): J}`` for i < j.

    Runs the sparse join; with ``threshold=theta`` only pairs with
    ``J > theta`` are materialised (the zero-similarity tail can never
    pass a non-negative threshold, so the dictionary stays candidate-
    sized).
    """
    stats = sparse_correlation_stats(seq)
    return {
        (a, b): j
        for j, a, b in stats.pairs_by_similarity(threshold=threshold)
    }
