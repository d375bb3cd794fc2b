"""Approximation-ratio machinery (paper Section IV-B, Theorem 1).

The paper proves ``C_DPG <= (2 / alpha) * C*`` where ``C*`` is the optimal
cost of the packed model.  ``C*`` itself is intractable (the packed
problem is believed NP-complete), but Lemma 1 provides the computable
lower bound used throughout the proof:

    ``C* >= alpha * (C_1opt + C_2opt)``

where ``C_iopt`` is the optimal *non-packing* cost of item ``i`` alone.
This module exposes

* :func:`lemma1_lower_bound` -- the bound for a whole packing plan
  (packages bounded by Lemma 1, singletons exactly);
* :func:`ratio_certificate` -- runs DP_Greedy, computes the bound, and
  certifies ``C_DPG <= (2/alpha) * LB`` (a *sufficient* check: the true
  ratio against ``C*`` is at least as good);
* :func:`cut_normalize` -- the "cut operation" of the proof (Figs. 5-6):
  requests with ``mu * (t_i - t_{p(i)}) <= lam`` are removed and long
  cache lines are clipped at ``lam``, yielding the normalised costs on
  which the per-request ``lam`` vs ``2 lam`` argument runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cache.greedy import solve_greedy
from ..cache.model import CostModel, RequestSequence, SingleItemView
from ..cache.optimal_dp import optimal_cost
from .dp_greedy import DPGreedyResult, solve_dp_greedy

__all__ = [
    "RatioCertificate",
    "lemma1_lower_bound",
    "ratio_certificate",
    "CutSummary",
    "cut_normalize",
]


@dataclass(frozen=True)
class RatioCertificate:
    """Evidence that a DP_Greedy run respects Theorem 1.

    ``dpg_cost <= bound * lower_bound`` must hold whenever the theorem
    does; ``ratio`` is ``dpg_cost / lower_bound`` (an upper bound on the
    true approximation ratio against the intractable ``C*``).
    """

    dpg_cost: float
    lower_bound: float
    alpha: float

    @property
    def bound(self) -> float:
        return 2.0 / self.alpha

    @property
    def ratio(self) -> float:
        if self.lower_bound == 0:
            return 0.0 if self.dpg_cost == 0 else float("inf")
        return self.dpg_cost / self.lower_bound

    @property
    def satisfied(self) -> bool:
        return self.ratio <= self.bound + 1e-9


def lemma1_lower_bound(
    seq: RequestSequence,
    model: CostModel,
    result: DPGreedyResult,
    *,
    scope: str = "plan",
) -> float:
    """Lemma 1 lower bound on the packed optimum ``C*``.

    Every package contributes ``alpha * sum_i C_iopt`` over its members
    (Lemma 1).  Two readings for the rest of the items:

    ``scope="plan"`` (default, the paper's implicit usage):
        ``C*`` is the optimum among schedules that pack only the plan's
        packages, so each singleton contributes its exact single-item
        optimum.
    ``scope="global"``:
        ``C*`` may pack *any* items (the fully packed optimum measured by
        :func:`repro.core.packed_oracle.packed_pair_oracle`), so every
        item -- singleton or not -- is only guaranteed an
        ``alpha * C_iopt`` share (co-locating two items bills the package
        rate even if they never co-occur).
    """
    alpha = result.alpha
    if scope not in ("plan", "global"):
        raise ValueError(f"unknown scope {scope!r}")
    singleton_factor = 1.0 if scope == "plan" else alpha
    lb = 0.0
    for pkg in result.plan.packages:
        lb += alpha * sum(
            optimal_cost(seq.item_view(d), model) for d in sorted(pkg)
        )
    for d in result.plan.singletons:
        lb += singleton_factor * optimal_cost(seq.item_view(d), model)
    return lb


def ratio_certificate(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    workers: Optional[int] = None,
    memo: "object | bool | None" = None,
) -> RatioCertificate:
    """Run DP_Greedy and certify it against the Theorem 1 bound.

    ``workers``/``memo`` are forwarded to :func:`solve_dp_greedy` so
    randomized ratio sweeps (which re-certify the same workloads across
    alpha values) can opt into the Phase-2 execution engine.
    """
    result = solve_dp_greedy(
        seq, model, theta=theta, alpha=alpha, workers=workers, memo=memo
    )
    lb = lemma1_lower_bound(seq, model, result)
    return RatioCertificate(result.total_cost, lb, alpha)


@dataclass(frozen=True)
class CutSummary:
    """Outcome of the Section IV-B cut operation on one trajectory.

    After removal of commonly-served requests and clipping of long cache
    lines, the proof shows each surviving request costs at least ``lam``
    under the optimal schedule and at most ``2 lam`` under greedy; hence
    ``greedy_cut <= 2 * optimal_cut`` and (adding back the removed common
    cost) the raw 2-approximation of Eq. (7)-(8).
    """

    greedy_raw: float
    optimal_raw: float
    greedy_cut: float
    surviving_requests: int
    removed_requests: int

    @property
    def greedy_cut_bound(self) -> float:
        """The proof's ``2 n' lam`` cap on the normalised greedy cost."""
        return 2.0 * self.surviving_requests


def cut_normalize(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
) -> CutSummary:
    """Apply the cut rules of Section IV-B to a single-item trajectory.

    Rule 1: a request with ``mu * (t_i - t_{p(i)}) <= lam`` is served the
    same way (a short cache) by both algorithms -- remove it.
    Rule 2: a request with ``mu * (t_i - t_{i-1}) > lam`` holds exactly
    one copy in both schedules over that span -- clip the common caching
    beyond ``lam``.  The clipped per-request greedy cost is then at most
    ``2 lam`` (one ``lam`` of clipped caching plus one transfer).
    """
    if isinstance(view, RequestSequence):
        view = view.single_item_view()
    mu, lam = model.mu, model.lam

    greedy = solve_greedy(view, model, build_schedule=False)
    optimal = optimal_cost(view, model)

    servers = [view.origin, *view.servers]
    times = [0.0, *view.times]
    last_on_server: Dict[int, float] = {view.origin: 0.0}

    cut_total = 0.0
    survivors = 0
    removed = 0
    for i in range(1, len(times)):
        s_i, t_i = servers[i], times[i]
        t_p = last_on_server.get(s_i)
        cache_cost = mu * (t_i - t_p) if t_p is not None else float("inf")
        transfer_cost = mu * (t_i - times[i - 1]) + lam
        raw = min(cache_cost, transfer_cost)
        if cache_cost <= lam:
            removed += 1  # Rule 1: commonly served, cost ignored
        else:
            survivors += 1
            # Rule 2: clip the common single-copy span at lam
            cut_total += min(raw, 2.0 * lam)
        last_on_server[s_i] = t_i

    return CutSummary(
        greedy_raw=greedy.cost,
        optimal_raw=optimal,
        greedy_cut=cut_total,
        surviving_requests=survivors,
        removed_requests=removed,
    )
