"""Optimal off-line single-item caching under the homogeneous cost model.

This is the substrate algorithm the paper invokes as "the optimal off-line
algorithm proposed in [6]" (Wang et al., ICPP 2017).  The reference paper
is not reproduced verbatim here; instead the problem is solved exactly by
a dynamic program derived from first principles, and the implementation is
certified against an exhaustive state-space oracle
(:mod:`repro.cache.brute_force`) by the test-suite.

Formulation
-----------
Work in *standard form* (transfers occur at request times; [7] proves an
optimal standard-form schedule exists).  Events are ``e_0 = (origin, 0)``
(the initial placement) followed by the ``n`` requests in time order.  An
optimal schedule decomposes into

* a binary *keep/drop* decision per event ``i`` with a successor request
  ``j = next(i)`` on the same server: **keep** holds the copy on ``s_i``
  over ``[t_i, t_j]`` (cost ``mu * (t_j - t_i)``) and serves ``r_j`` by
  cache; **drop** releases it, so ``r_j`` is served by a transfer
  (cost ``lam``);
* a mandatory *persistence* charge: the item can never be resurrected, so
  every inter-event gap ``(t_i, t_{i+1})`` must be spanned by some live
  copy.  Gaps not spanned by any kept interval pay a *backbone* copy
  anchored at the preceding event's node (cost ``mu * gap``);
* a fixed ``lam`` per request that has no same-server predecessor (its
  first copy arrives by transfer).

Cross-gap interaction is captured by one scalar state: ``M``, the furthest
event index whose preceding gaps are already covered by committed
intervals.

Sparse frontier
---------------
Although ``M`` ranges over ``0..n``, at most ``m + 1`` frontier states are
ever live simultaneously: after the gap step of event ``i`` every state
``M <= i`` has collapsed into the single *base* state ``M = i + 1``, and a
state ``M > i + 1`` can only be ``next(i')`` for the **latest** processed
event ``i'`` on its server (earlier events on the same server have
``next`` pointers that already collapsed).  The default implementation
exploits this: the frontier is one scalar base state plus at most one
*pending* keep-interval state per server, giving ``O(n * m)`` time
(``O(n)`` for small ``m``) and ``O(n * m)`` reconstruction history --
down from the ``O(n^2)`` dense sweeps.

Two backends are provided and cross-checked bit-for-bit in tests (each
path's cost is the same left-to-right float sum of the same charges, so
costs agree exactly; on exact cost *ties* the backends may pick different
-- equally optimal -- decision paths):

* ``backend="sparse"`` (default) -- the per-server sparse frontier above;
* ``backend="dense"`` -- the historical reference: a dict sweep over all
  reachable ``M`` for :func:`solve_optimal` and a NumPy dense cost vector
  for :func:`optimal_cost`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import CostModel, RequestSequence, SingleItemView
from .schedule import CacheInterval, Schedule, Transfer

__all__ = ["OptimalResult", "solve_optimal", "optimal_cost", "attribute_cost"]

_KEEP, _DROP, _NODECISION = 1, 0, -1

#: Timestamp slack mirrored from :mod:`repro.cache.schedule` (interval
#: ``covers`` uses inclusive endpoints with this tolerance).
_EPS = 1e-9


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of the optimal off-line solver.

    Attributes
    ----------
    cost:
        Minimum total service cost (``mu``/``lam`` units of the model).
    schedule:
        A feasible schedule achieving ``cost`` (``None`` when the caller
        asked for cost only).
    decisions:
        Keep/drop decision per event (index 0 is the virtual origin
        event); ``-1`` marks events with no same-server successor.
    backbone_gaps:
        Indices ``i`` of gaps ``(t_i, t_{i+1})`` paid as backbone copies.
    """

    cost: float
    schedule: Optional[Schedule]
    decisions: Tuple[int, ...]
    backbone_gaps: Tuple[int, ...]


def _event_arrays(view: SingleItemView) -> Tuple[List[int], List[float]]:
    """Prepend the virtual origin event; validate positivity of times.

    Array-backed views (the cached columnar projections of
    :class:`~repro.cache.model.RequestSequence`) are unpacked through
    ``tolist()`` so the scalar sweeps keep operating on plain Python
    ints/floats -- same values bitwise, no numpy scalars leaking into
    solver outputs.
    """
    view_servers, view_times = view.servers, view.times
    if isinstance(view_servers, np.ndarray):
        view_servers = view_servers.tolist()
    if isinstance(view_times, np.ndarray):
        view_times = view_times.tolist()
    if len(view_times) and view_times[0] <= 0.0:
        raise ValueError(
            "single-item solvers require strictly positive request times "
            "(time 0 is the initial placement instant)"
        )
    servers = [view.origin, *view_servers]
    times = [0.0, *view_times]
    return servers, times


def _next_same_server(servers: List[int]) -> List[Optional[int]]:
    """``next[i]`` = next event index on the same server, else ``None``."""
    nxt: List[Optional[int]] = [None] * len(servers)
    last_seen: Dict[int, int] = {}
    for i in range(len(servers) - 1, -1, -1):
        nxt[i] = last_seen.get(servers[i])
        last_seen[servers[i]] = i
    return nxt


def _first_on_server_transfers(
    servers: List[int], nxt: List[Optional[int]]
) -> List[int]:
    """Events with no same-server predecessor: they must pay one transfer."""
    preceded = set()
    for i, j in enumerate(nxt):
        if j is not None:
            preceded.add(j)
    return [i for i in range(1, len(servers)) if i not in preceded]


# ---------------------------------------------------------------------------
# sparse-frontier sweeps (default backend)
# ---------------------------------------------------------------------------
#
# Frontier invariant at the start of iteration ``i``: one *base* state
# ``M = i`` plus pending states ``pend[s] = (M_s, cost_s)`` with
# ``M_s = next(latest processed event on server s) > i``.  The event on
# server ``s_i`` whose ``next`` pointer equals ``i`` merged into the base
# during the gap step of ``i - 1``, so slot ``pend[s_i]`` is always free
# when event ``i`` opens a new keep interval.
#
# Tie-breaks mirror the dense sweep where it is well-defined: a state that
# can stay put via keep or drop prefers *keep* on equal cost.  Where the
# dense dict order decided (collapsed-keep parent, base-vs-pending merge)
# the sparse sweep uses a canonical rule: smallest (cost, M) parent, and
# the pending (non-backbone) state wins a merge tie.

def _sparse_cost_sweep(
    servers: Sequence[int],
    times: Sequence[float],
    nxt: Sequence[Optional[int]],
    mu: float,
    lam: float,
) -> float:
    """Cost-only sparse-frontier sweep: ``O(n * m)`` time, ``O(m)`` space."""
    n = len(times) - 1
    base_cost = 0.0
    # pend[server] = [M, cost]
    pend: Dict[int, List] = {}
    for i in range(n + 1):
        j = nxt[i]
        if j is not None:
            keep_cost = mu * (times[j] - times[i])
            best = base_cost
            if keep_cost <= lam:
                for rec in pend.values():
                    c = rec[1]
                    if rec[0] <= j:
                        if c < best:
                            best = c
                        rec[1] = c + lam
                    else:
                        rec[1] = c + keep_cost
            else:
                for rec in pend.values():
                    if rec[0] <= j and rec[1] < best:
                        best = rec[1]
                    rec[1] += lam
            base_cost += lam
            pend[servers[i]] = [j, best + keep_cost]
        if i < n:
            uncovered = base_cost + mu * (times[i + 1] - times[i])
            rec = pend.get(servers[i + 1])
            if rec is not None and rec[0] == i + 1:
                del pend[servers[i + 1]]
                base_cost = rec[1] if rec[1] <= uncovered else uncovered
            else:
                base_cost = uncovered
    return base_cost


def _sparse_path_sweep(
    servers: Sequence[int],
    times: Sequence[float],
    nxt: Sequence[Optional[int]],
    mu: float,
    lam: float,
) -> Tuple[float, List[Dict[int, Tuple[int, int, bool]]]]:
    """Sparse sweep with parent tracking for path reconstruction.

    Returns ``(dp_cost, history)`` where ``history[i]`` maps each live
    frontier state ``M`` after event ``i`` to ``(parent_M, decision,
    backbone_flag)``.  Each per-event map holds at most ``m + 1``
    entries, so the history is ``O(n * m)``.
    """
    n = len(times) - 1
    base_cost = 0.0
    base_M = 0
    # pend[server] = [M, cost, parent_M, decision]
    pend: Dict[int, List] = {}
    history: List[Dict[int, Tuple[int, int, bool]]] = []
    for i in range(n + 1):
        j = nxt[i]
        if j is None:
            base_parent, base_dec = base_M, _NODECISION
            for rec in pend.values():
                rec[2], rec[3] = rec[0], _NODECISION
        else:
            keep_cost = mu * (times[j] - times[i])
            best_c, best_M = base_cost, base_M
            keep_wins = keep_cost <= lam
            for rec in pend.values():
                M, c = rec[0], rec[1]
                if M <= j:
                    if c < best_c or (c == best_c and M < best_M):
                        best_c, best_M = c, M
                    rec[1], rec[2], rec[3] = c + lam, M, _DROP
                elif keep_wins:
                    rec[1], rec[2], rec[3] = c + keep_cost, M, _KEEP
                else:
                    rec[1], rec[2], rec[3] = c + lam, M, _DROP
            base_parent, base_dec = base_M, _DROP
            base_cost += lam
            assert servers[i] not in pend, "pending slot not merged"
            pend[servers[i]] = [j, best_c + keep_cost, best_M, _KEEP]
        hist_i: Dict[int, Tuple[int, int, bool]] = {}
        if i < n:
            uncovered = base_cost + mu * (times[i + 1] - times[i])
            rec = pend.get(servers[i + 1])
            if rec is not None and rec[0] == i + 1:
                del pend[servers[i + 1]]
                if rec[1] <= uncovered:
                    base_cost = rec[1]
                    hist_i[i + 1] = (rec[2], rec[3], False)
                else:
                    base_cost = uncovered
                    hist_i[i + 1] = (base_parent, base_dec, True)
            else:
                base_cost = uncovered
                hist_i[i + 1] = (base_parent, base_dec, True)
            base_M = i + 1
        else:
            hist_i[base_M] = (base_parent, base_dec, False)
        for rec in pend.values():
            hist_i[rec[0]] = (rec[2], rec[3], False)
        history.append(hist_i)
    return base_cost, history


def solve_optimal(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    *,
    build_schedule: bool = True,
    rate_multiplier: float = 1.0,
    backend: str = "sparse",
) -> OptimalResult:
    """Solve the single-item off-line caching problem exactly.

    Parameters
    ----------
    view:
        The request trajectory (a :class:`SingleItemView` or a
        single-item :class:`RequestSequence`).
    model:
        Homogeneous cost model (``mu``, ``lam``).  For a package, pass the
        *base* model and set ``rate_multiplier`` (e.g. ``2 * alpha``): the
        DP decisions are invariant under uniform scaling, and the returned
        cost and schedule carry the multiplier.
    build_schedule:
        When true (default), reconstruct and return a feasible schedule
        whose validator-recomputed cost equals ``cost``.
    backend:
        ``"sparse"`` (default) runs the ``O(n * m)`` per-server sparse
        frontier; ``"dense"`` runs the historical ``O(n^2)`` dict sweep
        kept as a cross-check reference.  Costs agree bit-for-bit; on
        exact cost ties the chosen (equally optimal) path may differ.
    """
    if backend not in ("sparse", "dense"):
        raise ValueError(f"unknown DP backend {backend!r}")
    if isinstance(view, RequestSequence):
        view = view.single_item_view()
    servers, times = _event_arrays(view)
    n = len(times) - 1  # number of real requests
    mu, lam = model.mu, model.lam

    if n == 0:
        sched = Schedule((), (), rate_multiplier) if build_schedule else None
        return OptimalResult(0.0, sched, (_NODECISION,), ())

    nxt = _next_same_server(servers)
    base_transfers = _first_on_server_transfers(servers, nxt)
    base_cost = lam * len(base_transfers)

    if backend == "dense":
        dp_cost, decisions, backbone = _dense_path_sweep(servers, times, nxt, mu, lam)
    else:
        dp_cost, history = _sparse_path_sweep(servers, times, nxt, mu, lam)
        # walk the single surviving frontier state (M = n) back to event 0
        decisions = [_NODECISION] * (n + 1)
        backbone = []
        M = n
        for i in range(n, -1, -1):
            pM, dec, bb = history[i][M]
            decisions[i] = dec
            if bb:
                backbone.append(i)
            M = pM

    total = (base_cost + dp_cost) * rate_multiplier
    if not build_schedule:
        return OptimalResult(total, None, tuple(decisions), tuple(sorted(backbone)))

    schedule = _reconstruct_schedule(
        servers, times, nxt, decisions, sorted(backbone), base_transfers, lam,
        rate_multiplier,
    )
    return OptimalResult(total, schedule, tuple(decisions), tuple(sorted(backbone)))


# ---------------------------------------------------------------------------
# dense reference sweeps (cross-check backend)
# ---------------------------------------------------------------------------
def _dense_path_sweep(
    servers: List[int],
    times: List[float],
    nxt: List[Optional[int]],
    mu: float,
    lam: float,
) -> Tuple[float, List[int], List[int]]:
    """The historical dict-based DP over all reachable ``(event, M)``."""
    n = len(times) - 1
    # state key: M; value: (cost, parent_state_M, decision, backbone_flag)
    Entry = Tuple[float, Optional[int], int, bool]
    frontier: Dict[int, Entry] = {0: (0.0, None, _NODECISION, False)}
    history: List[Dict[int, Entry]] = []

    for i in range(n + 1):
        # -- decision at event i -------------------------------------
        j = nxt[i]
        after_decision: Dict[int, Entry] = {}
        if j is None:
            for M, (c, *_rest) in frontier.items():
                after_decision[M] = (c, M, _NODECISION, False)
        else:
            keep_cost = mu * (times[j] - times[i])
            for M, (c, *_rest) in frontier.items():
                # keep: interval [t_i, t_j] on s_i, serves r_j by cache
                M2 = max(M, j)
                cand = (c + keep_cost, M, _KEEP, False)
                if M2 not in after_decision or cand[0] < after_decision[M2][0]:
                    after_decision[M2] = cand
                # drop: r_j served by transfer
                cand = (c + lam, M, _DROP, False)
                if M not in after_decision or cand[0] < after_decision[M][0]:
                    after_decision[M] = cand

        # -- persistence across gap (t_i, t_{i+1}) -------------------
        if i < n:
            gap_cost = mu * (times[i + 1] - times[i])
            after_gap: Dict[int, Entry] = {}
            for M, (c, pM, dec, _bb) in after_decision.items():
                if M >= i + 1:
                    cand = (c, pM, dec, False)
                    if M not in after_gap or cand[0] < after_gap[M][0]:
                        after_gap[M] = cand
                else:
                    cand = (c + gap_cost, pM, dec, True)
                    if i + 1 not in after_gap or cand[0] < after_gap[i + 1][0]:
                        after_gap[i + 1] = cand
            frontier = after_gap
        else:
            frontier = after_decision
        history.append(frontier)

    best_M = min(frontier, key=lambda M: frontier[M][0])
    dp_cost = frontier[best_M][0]

    decisions = [_NODECISION] * (n + 1)
    backbone: List[int] = []
    M = best_M
    for i in range(n, -1, -1):
        c, pM, dec, bb = history[i][M]
        decisions[i] = dec
        if bb:
            backbone.append(i)
        M = pM if pM is not None else 0
    return dp_cost, decisions, backbone


def _reconstruct_schedule(
    servers: List[int],
    times: List[float],
    nxt: List[Optional[int]],
    decisions: List[int],
    backbone_gaps: List[int],
    base_transfers: List[int],
    lam: float,
    rate_multiplier: float,
) -> Schedule:
    """Materialise intervals/transfers from the DP decision path."""
    intervals: List[CacheInterval] = []
    for i, dec in enumerate(decisions):
        if dec == _KEEP:
            j = nxt[i]
            assert j is not None
            intervals.append(CacheInterval(servers[i], times[i], times[j]))
    for i in backbone_gaps:
        intervals.append(CacheInterval(servers[i], times[i], times[i + 1]))

    # transfer-served events: first-on-server ones plus dropped successors
    transfer_served = set(base_transfers)
    for i, dec in enumerate(decisions):
        if dec == _DROP:
            j = nxt[i]
            assert j is not None
            transfer_served.add(j)

    # queries arrive in time order (event indices ascending), so one
    # sorted-by-start sweep answers all source lookups
    queries = sorted(transfer_served)
    sources = _transfer_sources(
        intervals, [(times[j], servers[j]) for j in queries]
    )
    transfers: List[Transfer] = []
    for j, src in zip(queries, sources):
        if src is None:
            # Degenerate tie (possible only when lam == 0): the covering
            # copy already sits on the request's own server, so no physical
            # transfer is needed and none is emitted.
            assert lam == 0.0, "transfer-served request lacks a foreign source"
            continue
        transfers.append(Transfer(src, servers[j], times[j]))

    return Schedule(tuple(intervals), tuple(transfers), rate_multiplier)


def _transfer_sources(
    intervals: List[CacheInterval],
    queries: List[Tuple[float, int]],
) -> List[Optional[int]]:
    """Source server per ``(t, dst)`` query: the first interval (in list
    order) live at ``t`` on a server other than ``dst``.

    ``queries`` must be sorted by time.  A single sweep over the
    intervals ordered by start time feeds a lazy-deletion heap keyed by
    list position, so each lookup is ``O(log n)`` amortised instead of
    the old linear scan over every interval (``O(n^2)`` schedule
    reconstruction worst case).  The returned server matches the linear
    scan exactly (same list-position priority, same ``covers`` slack).
    """
    by_start = sorted(range(len(intervals)), key=lambda p: intervals[p].start)
    heap: List[int] = []  # live candidate positions (min list position on top)
    ptr = 0
    out: List[Optional[int]] = []
    for t, dst in queries:
        while ptr < len(by_start) and intervals[by_start[ptr]].start - _EPS <= t:
            heapq.heappush(heap, by_start[ptr])
            ptr += 1
        src: Optional[int] = None
        stash: List[int] = []
        while heap:
            p = heap[0]
            iv = intervals[p]
            if iv.end + _EPS < t:  # expired: can never cover a later query
                heapq.heappop(heap)
                continue
            if iv.server != dst:
                src = iv.server
                break
            stash.append(heapq.heappop(heap))  # live but same-server: skip
        for p in stash:
            heapq.heappush(heap, p)
        out.append(src)
    return out


def attribute_cost(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    result: OptimalResult,
    *,
    rate_multiplier: float = 1.0,
) -> Tuple[Tuple[float, str, float], ...]:
    """Decompose ``result.cost`` into per-request ``(time, action, amount)``.

    The decomposition follows the DP's own charge structure, so it is
    exact by construction (same terms, re-summed):

    * a *keep* decision at event ``i`` charges ``mu * (t_j - t_i)`` as
      ``"cache"`` at the successor request ``j = next(i)``;
    * a *drop* decision charges ``lam`` as ``"transfer"`` at ``j``;
    * every backbone gap ``(t_i, t_{i+1})`` charges ``mu * gap`` as
      ``"backbone"`` at the request ending the gap;
    * every first-on-server request charges ``lam`` as ``"first-copy"``.

    All amounts carry ``rate_multiplier`` (pass the Table-II package rate
    used for the solve).  Entries are sorted by time; :func:`math.fsum`
    over the amounts reconciles with ``result.cost`` to float precision.
    The consumer is the cost ledger (:mod:`repro.obs.ledger`).
    """
    if isinstance(view, RequestSequence):
        view = view.single_item_view()
    servers, times = _event_arrays(view)
    n = len(times) - 1
    if n == 0:
        return ()
    mu, lam = model.mu, model.lam
    r = rate_multiplier

    nxt = _next_same_server(servers)
    entries: List[Tuple[float, str, float]] = []
    for j in _first_on_server_transfers(servers, nxt):
        entries.append((times[j], "first-copy", lam * r))
    for i, dec in enumerate(result.decisions):
        if dec == _NODECISION:
            continue
        j = nxt[i]
        assert j is not None, "keep/drop decision at an event with no successor"
        if dec == _KEEP:
            entries.append((times[j], "cache", mu * (times[j] - times[i]) * r))
        else:
            entries.append((times[j], "transfer", lam * r))
    for i in result.backbone_gaps:
        entries.append((times[i + 1], "backbone", mu * (times[i + 1] - times[i]) * r))
    entries.sort(key=lambda e: e[0])
    return tuple(entries)


def optimal_cost(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
    *,
    rate_multiplier: float = 1.0,
    backend: str = "sparse",
) -> float:
    """Cost-only fast path of the same DP.

    ``backend="sparse"`` (default) runs the ``O(n * m)`` per-server
    sparse-frontier sweep with ``O(m)`` live state; ``backend="dense"``
    runs the historical NumPy dense cost vector (``O(n)`` work per event,
    ``O(n^2)`` total), kept as a cross-check reference.  Both produce
    bit-identical costs: each path's cost is the same left-to-right
    float sum of the same charges.
    """
    if backend not in ("sparse", "dense"):
        raise ValueError(f"unknown DP backend {backend!r}")
    if isinstance(view, RequestSequence):
        view = view.single_item_view()
    servers, times = _event_arrays(view)
    n = len(times) - 1
    if n == 0:
        return 0.0
    mu, lam = model.mu, model.lam

    nxt = _next_same_server(servers)
    base_cost = lam * len(_first_on_server_transfers(servers, nxt))

    if backend == "sparse":
        dp_cost = _sparse_cost_sweep(servers, times, nxt, mu, lam)
        return (base_cost + dp_cost) * rate_multiplier

    t = np.asarray(times)
    INF = np.inf
    # C[M] = best cost with coverage frontier M (0..n)
    C = np.full(n + 1, INF)
    C[0] = 0.0

    for i in range(n + 1):
        j = nxt[i]
        if j is not None:
            keep_cost = mu * (t[j] - t[i])
            # keep: M' = max(M, j)  -> states M <= j collapse onto j
            collapsed = C[: j + 1].min() + keep_cost
            keep_vec = np.full_like(C, INF)
            keep_vec[j] = collapsed
            if j + 1 <= n:
                keep_vec[j + 1 :] = C[j + 1 :] + keep_cost
            # drop: M' = M
            C = np.minimum(keep_vec, C + lam)
        if i < n:
            gap_cost = mu * (t[i + 1] - t[i])
            uncovered = C[: i + 1].min() + gap_cost
            C[: i + 1] = INF
            if uncovered < C[i + 1]:
                C[i + 1] = uncovered

    return float((base_cost + C.min()) * rate_multiplier)
