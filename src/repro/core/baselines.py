"""The comparison algorithms of the paper's evaluation (Section VI).

Three algorithms are compared in Fig. 13:

* **Optimal** (:func:`solve_optimal_nonpacking`) -- the non-packing
  extreme: every item is served individually over its own sub-sequence by
  the optimal off-line single-item algorithm of [6].  It is optimal *for
  single-item caching* but blind to the package discount.
* **Package_Served** (:func:`solve_package_served`) -- the always-packing
  extreme: for every Phase-1 package, *all* requests touching either item
  (single-sided ones included) are served by moving the whole package at
  package rates.
* **DP_Greedy** -- the paper's selective middle ground
  (:func:`repro.core.dp_greedy.solve_dp_greedy`).

All three report the same ``ave_cost`` metric over the same denominator,
so their curves are directly comparable, as in the paper's figures.  A
plain all-greedy baseline (:func:`solve_greedy_nonpacking`) is included
for the approximation-ratio studies of Section IV-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cache.greedy import solve_greedy
from ..cache.model import CostModel, RequestSequence, SingleItemView, package_rate
from ..cache.optimal_dp import optimal_cost, solve_optimal
from ..correlation.jaccard import correlation_stats
from ..correlation.packing import PackingPlan, greedy_pair_packing

__all__ = [
    "BaselineResult",
    "solve_optimal_nonpacking",
    "solve_package_served",
    "solve_greedy_nonpacking",
]


@dataclass(frozen=True)
class BaselineResult:
    """Cost summary of a baseline run, comparable with DP_Greedy's."""

    name: str
    total_cost: float
    denominator: int
    per_group: Dict[FrozenSet[int], float]

    @property
    def ave_cost(self) -> float:
        return self.total_cost / self.denominator if self.denominator else 0.0


def solve_optimal_nonpacking(
    seq: RequestSequence, model: CostModel
) -> BaselineResult:
    """Serve every item individually with the optimal off-line algorithm."""
    per_group: Dict[FrozenSet[int], float] = {}
    total = 0.0
    for d in sorted(seq.items):
        c = optimal_cost(seq.item_view(d), model)
        per_group[frozenset((d,))] = c
        total += c
    return BaselineResult(
        "Optimal", total, seq.total_item_requests(), per_group
    )


def solve_greedy_nonpacking(
    seq: RequestSequence, model: CostModel
) -> BaselineResult:
    """Serve every item individually with the simple greedy algorithm."""
    per_group: Dict[FrozenSet[int], float] = {}
    total = 0.0
    for d in sorted(seq.items):
        c = solve_greedy(
            seq.restrict_to_item(d), model, build_schedule=False
        ).cost
        per_group[frozenset((d,))] = c
        total += c
    return BaselineResult(
        "Greedy", total, seq.total_item_requests(), per_group
    )


def solve_package_served(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    plan: Optional[PackingPlan] = None,
    mode: str = "ship-constant",
) -> BaselineResult:
    """The always-packing extreme of Fig. 13.

    For each package ``{d_i, d_j}`` with ``J(d_i, d_j) > theta``, every
    request containing ``d_i``, ``d_j``, or both is satisfied by the
    package -- it is never split.  Two readings of "always packing" are
    supported:

    ``mode="ship-constant"`` (default, matches every Fig. 13 claim):
        co-occurrence requests are served by the optimal DP at package
        rates exactly as in DP_Greedy, while every single-sided request is
        served by shipping the package at the Observation-2 constant
        ``alpha * k * lam`` -- i.e. Package_Served is DP_Greedy with the
        greedy choice *forced* to the package option.  This makes it the
        pro-packing extreme: unbeatable for ``alpha`` small, the worst of
        the three for ``alpha`` near 1.

    ``mode="union-dp"``:
        the whole union trajectory (single-sided requests included) is
        treated as one pseudo-item served end-to-end by the optimal DP at
        package rates.  A stronger baseline than the paper's description
        implies (it optimises the package's movement globally); kept for
        ablation.

    Unpacked items fall back to individual optimal service in both modes.
    """
    if plan is None:
        plan = greedy_pair_packing(correlation_stats(seq), theta)
    if mode not in ("ship-constant", "union-dp"):
        raise ValueError(f"unknown Package_Served mode {mode!r}")

    per_group: Dict[FrozenSet[int], float] = {}
    total = 0.0
    for pkg in plan.packages:
        rate = package_rate(len(pkg), alpha)
        if mode == "union-dp":
            union = seq.restrict_to_items(pkg, mode="any")
            pseudo = SingleItemView(
                servers=union.servers,
                times=union.times,
                num_servers=union.num_servers,
                origin=union.origin,
            )
            c = optimal_cost(pseudo, model, rate_multiplier=rate)
        else:
            co = seq.restrict_to_items(pkg, mode="all")
            pseudo = SingleItemView(
                servers=co.servers,
                times=co.times,
                num_servers=co.num_servers,
                origin=co.origin,
            )
            c = optimal_cost(pseudo, model, rate_multiplier=rate)
            # every single-sided item-request ships the package (2*alpha*lam)
            ship = rate * model.lam
            for r in seq.restrict_to_items(pkg, mode="any"):
                if r.items != pkg:
                    c += ship * len(r.items & pkg)
        per_group[pkg] = c
        total += c
    for d in plan.singletons:
        c = optimal_cost(seq.item_view(d), model)
        per_group[frozenset((d,))] = c
        total += c

    return BaselineResult(
        "Package_Served", total, seq.total_item_requests(), per_group
    )
