"""Ablation studies of DP_Greedy's design choices.

Three knobs the paper fixes by fiat are swept here so their effect is
measurable:

* **theta sweep** -- the packing threshold (the paper picks 0.3 from
  Fig. 11).  Sweeping theta over a mixed-similarity workload exposes the
  U-shape: pack too eagerly (theta ~ 0) and weakly-correlated pairs drag
  cost up at high alpha; pack too conservatively (theta ~ 1) and the
  discount is left on the table.
* **greedy option ablation** -- Phase 2 serves single-sided requests by
  ``min(cache, transfer, package)``; disabling each option quantifies its
  contribution (the paper's Observation 2 motivates the package option).
* **packing strategy** -- pairs (Algorithm 1) vs min-linkage groups (the
  Remarks extension) vs Package_Served's forced packing vs no packing.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import FrozenSet, Optional, Sequence

from ..cache.model import CostModel, RequestSequence
from ..core.baselines import solve_optimal_nonpacking, solve_package_served
from ..core.dp_greedy import (
    MODE_CACHE,
    MODE_PACKAGE,
    MODE_TRANSFER,
    single_sided_pass,
    solve_dp_greedy,
)
from ..trace.workload import correlated_pair_sequence, zipf_item_workload
from .base import ExperimentResult, record_engine_stats, sweep_memo

__all__ = ["run_theta_ablation", "run_option_ablation", "run_packing_ablation"]

#: Observation 2's options, in the row order of ``SingleSidedPass.options``.
_OPTIONS = (MODE_CACHE, MODE_TRANSFER, MODE_PACKAGE)


def _mixed_similarity_workload(seed: int, n_per_pair: int, num_servers: int):
    """Five item pairs spanning J in {0.1 .. 0.7} merged on one timeline."""
    seqs = []
    for idx, j in enumerate((0.1, 0.25, 0.4, 0.55, 0.7)):
        seqs.append(
            correlated_pair_sequence(
                n_per_pair,
                num_servers,
                j,
                seed=seed + idx,
                items=(2 * idx + 1, 2 * idx + 2),
                horizon=100.0,
                hotspot_skew=0.15,
            )
        )
    merged = sorted((r for s in seqs for r in s), key=lambda r: r.time)
    # enforce strict monotonicity after the merge
    rows, prev = [], 0.0
    for r in merged:
        prev = max(r.time, prev + 1e-6)
        rows.append((r.server, prev, r.items))
    return RequestSequence(rows, num_servers=num_servers, origin=0)


def run_theta_ablation(
    *,
    thetas: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0),
    alpha: float = 0.8,
    n_per_pair: int = 120,
    num_servers: int = 50,
    model: Optional[CostModel] = None,
    seed: int = 2019,
    workers: Optional[int] = None,
    memo: bool = False,
) -> ExperimentResult:
    """Sweep the packing threshold over a mixed-similarity workload.

    ``workers``/``memo`` opt in to the Phase-2 execution engine.  A theta
    sweep is the memo's best case: the workload is fixed, so every
    singleton sub-problem (and every package that survives the higher
    threshold) re-uses the DP solution from the previous theta point.
    """
    model = model or CostModel(mu=3.0, lam=3.0)
    memo_obj = sweep_memo(memo)
    seq = _mixed_similarity_workload(seed, n_per_pair, num_servers)

    result = ExperimentResult(
        experiment_id="ablation_theta",
        title="Ablation -- packing threshold theta (mixed-J workload)",
        params={
            "alpha": alpha,
            "n_requests": len(seq),
            "num_items": len(seq.items),
            "num_servers": num_servers,
            "seed": seed,
        },
        xlabel="theta",
        ylabel="ave_cost",
    )

    curve = []
    for theta in thetas:
        res = solve_dp_greedy(
            seq, model, theta=theta, alpha=alpha, workers=workers, memo=memo_obj
        )
        curve.append((theta, res.ave_cost))
        result.rows.append(
            {
                "theta": theta,
                "packages": len(res.plan.packages),
                "ave_cost": round(res.ave_cost, 4),
            }
        )
    result.series["DP_Greedy"] = curve

    best_theta, best_cost = min(curve, key=lambda p: p[1])
    result.params["best_theta"] = best_theta
    result.notes.append(
        f"best theta on this workload: {best_theta:g} (ave_cost "
        f"{best_cost:.4f}); the paper's 0.3 reflects its own trace"
    )
    record_engine_stats(result, memo_obj, workers)
    return result


def run_option_ablation(
    *,
    jaccard: float = 0.45,
    alphas: Sequence[float] = (0.2, 0.5, 0.8),
    n_requests: int = 300,
    num_servers: int = 50,
    model: Optional[CostModel] = None,
    seed: int = 2019,
) -> ExperimentResult:
    """Disable each Observation-2 greedy option and measure the damage.

    Implemented by re-deciding the single-sided pass's requests over a
    restricted option set (the package DP part is identical across
    variants, so the delta isolates the greedy choice rule).
    """
    model = model or CostModel(mu=3.0, lam=3.0)

    result = ExperimentResult(
        experiment_id="ablation_options",
        title="Ablation -- Observation 2's serving options",
        params={
            "jaccard": jaccard,
            "n_requests": n_requests,
            "num_servers": num_servers,
            "seed": seed,
        },
        xlabel="alpha",
        ylabel="single-sided cost",
    )

    seq = correlated_pair_sequence(
        n_requests, num_servers, jaccard, seed=seed, hotspot_skew=0.15
    )
    pkg = frozenset((1, 2))

    def greedy_pass(alpha: float, options: FrozenSet[str]) -> float:
        costs = single_sided_pass(seq, [pkg], model, alpha).options
        allowed = [i for i, name in enumerate(_OPTIONS) if name in options]
        # left to right in request order, as a solve totals a package
        return reduce(add, costs[allowed].min(axis=0).tolist(), 0.0)

    variants = {
        "all options": frozenset({"cache", "transfer", "package"}),
        "no package option": frozenset({"cache", "transfer"}),
        "no cache option": frozenset({"transfer", "package"}),
        "no transfer option": frozenset({"cache", "package"}),
    }
    for alpha in alphas:
        row = {"alpha": alpha}
        for name, opts in variants.items():
            row[name] = round(greedy_pass(alpha, opts), 4)
        result.rows.append(row)
        for name in variants:
            result.series.setdefault(name, []).append((alpha, row[name]))

    result.notes.append(
        "the package option matters most at small alpha (cheap shipping); "
        "the cache option matters most when requests revisit servers"
    )
    return result


def run_packing_ablation(
    *,
    alpha: float = 0.6,
    n_requests: int = 500,
    num_servers: int = 30,
    num_items: int = 8,
    cooccurrence: float = 0.5,
    theta: float = 0.3,
    model: Optional[CostModel] = None,
    seed: int = 2019,
) -> ExperimentResult:
    """Pairs vs groups vs forced packing vs none on a Zipf workload."""
    model = model or CostModel(mu=2.0, lam=4.0)
    seq = zipf_item_workload(
        n_requests,
        num_servers,
        num_items,
        seed=seed,
        cooccurrence=cooccurrence,
    )

    result = ExperimentResult(
        experiment_id="ablation_packing",
        title="Ablation -- packing strategies on a Zipf multi-item workload",
        params={
            "alpha": alpha,
            "theta": theta,
            "n_requests": n_requests,
            "num_items": num_items,
            "num_servers": num_servers,
            "cooccurrence": cooccurrence,
            "seed": seed,
        },
        xlabel="strategy",
        ylabel="ave_cost",
    )

    runs = {
        "no packing (Optimal)": solve_optimal_nonpacking(seq, model).ave_cost,
        "pairs (Algorithm 1)": solve_dp_greedy(
            seq, model, theta=theta, alpha=alpha, packing="pairs"
        ).ave_cost,
        "groups (Remarks, k<=3)": solve_dp_greedy(
            seq, model, theta=theta, alpha=alpha, packing="groups"
        ).ave_cost,
        "forced packing (Package_Served)": solve_package_served(
            seq, model, theta=0.0, alpha=alpha
        ).ave_cost,
    }
    for rank, (name, cost) in enumerate(
        sorted(runs.items(), key=lambda kv: kv[1]), start=1
    ):
        result.rows.append({"rank": rank, "strategy": name, "ave_cost": round(cost, 4)})

    best = min(runs, key=runs.get)
    result.params["best_strategy"] = best
    result.notes.append(f"best strategy on this workload: {best}")
    return result
