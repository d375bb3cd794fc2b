"""Experiment E5 -- Fig. 13: impact of the discount factor ``alpha``.

Fig. 13 compares three algorithms across discount factors
``alpha in {0.2, 0.4, 0.6, 0.8}`` and a range of pair similarities:

* **Package_Served** -- always pack (run here with ``theta = 0`` so the
  pair is packed at every similarity: the pro-packing extreme);
* **Optimal** -- never pack (single-item optimum, the anti-packing
  extreme);
* **DP_Greedy** -- selective packing with ``theta = 0.3``.

Reported paper shape: for ``alpha < 0.5`` packing always wins (Optimal is
worst across all J); as ``alpha`` grows Package_Served deteriorates and
at ``alpha = 0.8`` it is the worst, with DP_Greedy competitive with (and
beyond ``J > 0.3`` better than) Optimal thanks to selective packing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cache.model import CostModel
from ..core.baselines import solve_optimal_nonpacking, solve_package_served
from ..core.dp_greedy import solve_dp_greedy
from ..trace.workload import correlated_pair_sequence
from .base import (
    ExperimentResult,
    record_engine_stats,
    record_observation,
    sweep_checkpoint,
    sweep_memo,
    sweep_observer,
)

__all__ = ["run_fig13", "DEFAULT_ALPHAS", "DEFAULT_JACCARDS"]

DEFAULT_ALPHAS: Sequence[float] = (0.2, 0.4, 0.6, 0.8)
DEFAULT_JACCARDS: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def run_fig13(
    *,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    jaccards: Sequence[float] = DEFAULT_JACCARDS,
    n_requests: int = 400,
    num_servers: int = 50,
    theta: float = 0.3,
    model: Optional[CostModel] = None,
    seed: int = 2019,
    repeats: int = 3,
    hotspot_skew: float = 0.15,
    workers: Optional[int] = None,
    memo: bool = False,
    metrics: bool = False,
    trace: bool = False,
    resilience=None,
    checkpoint=None,
    resume: bool = False,
) -> ExperimentResult:
    """Sweep (alpha, jaccard); report the three algorithms' ave_cost.

    ``workers``/``memo`` opt in to the Phase-2 execution engine; the
    alpha sweep re-solves identical singleton sub-problems at every
    alpha, so the shared memo removes most DP work after the first pass.
    ``metrics`` turns on the ``repro.obs`` ledger/METRICS record per
    DP_Greedy run; ``trace`` records the sweep as one span timeline in
    ``result.trace``.  ``resilience`` forwards a fault-tolerance config
    to every DP_Greedy solve; ``checkpoint``/``resume`` make each
    completed ``(alpha, jaccard)`` point durable and skip recorded ones
    on restart.
    """
    model = model or CostModel(mu=3.0, lam=3.0)
    memo_obj = sweep_memo(memo)
    observer, since = sweep_observer(metrics, trace)
    ckpt = sweep_checkpoint(checkpoint, "fig13", resume)

    result = ExperimentResult(
        experiment_id="fig13",
        title="Fig. 13 -- impact of the discount factor alpha on ave_cost",
        params={
            "n_requests": n_requests,
            "num_servers": num_servers,
            "theta_dp_greedy": theta,
            "mu": model.mu,
            "lam": model.lam,
            "repeats": repeats,
            "seed": seed,
            "hotspot_skew": hotspot_skew,
        },
        xlabel="Jaccard similarity",
        ylabel="ave_cost",
    )

    for alpha in alphas:
        pkg_curve = []
        opt_curve = []
        dpg_curve = []
        for j_target in jaccards:
            point = {"alpha": alpha, "jaccard": j_target}
            cached = ckpt.get(point) if ckpt else None
            if cached is not None:
                pkg = cached["pkg"]
                opt = cached["opt"]
                dpg = cached["dpg"]
                row = cached["row"]
            else:
                sums = {"pkg": 0.0, "opt": 0.0, "dpg": 0.0}
                for r in range(repeats):
                    seq = correlated_pair_sequence(
                        n_requests, num_servers, j_target, seed=seed + 1000 * r, hotspot_skew=hotspot_skew
                    )
                    sums["pkg"] += solve_package_served(
                        seq, model, theta=0.0, alpha=alpha
                    ).ave_cost
                    sums["opt"] += solve_optimal_nonpacking(seq, model).ave_cost
                    if metrics:
                        observer.begin_run(alpha=alpha, jaccard=j_target, repeat=r)
                    sums["dpg"] += solve_dp_greedy(
                        seq,
                        model,
                        theta=theta,
                        alpha=alpha,
                        workers=workers,
                        memo=memo_obj,
                        observer=observer,
                        resilience=resilience,
                    ).ave_cost
                pkg = sums["pkg"] / repeats
                opt = sums["opt"] / repeats
                dpg = sums["dpg"] / repeats
                row = {
                    "alpha": alpha,
                    "jaccard": j_target,
                    "package_served": round(pkg, 4),
                    "optimal": round(opt, 4),
                    "dp_greedy": round(dpg, 4),
                }
                if ckpt:
                    ckpt.record(
                        point, {"row": row, "pkg": pkg, "opt": opt, "dpg": dpg}
                    )
            pkg_curve.append((j_target, pkg))
            opt_curve.append((j_target, opt))
            dpg_curve.append((j_target, dpg))
            result.rows.append(row)
        result.series[f"Package_Served (a={alpha})"] = pkg_curve
        result.series[f"Optimal (a={alpha})"] = opt_curve
        result.series[f"DP_Greedy (a={alpha})"] = dpg_curve

        if alpha <= 0.4:
            wins = sum(1 for (j, p), (_j, o) in zip(pkg_curve, opt_curve) if p <= o)
            result.notes.append(
                f"alpha={alpha}: Package_Served beats Optimal on "
                f"{wins}/{len(jaccards)} similarity points (paper: all)"
            )
        if alpha >= 0.8:
            worst = sum(
                1
                for (j, p), (_j, o), (_j2, d) in zip(pkg_curve, opt_curve, dpg_curve)
                if p >= max(o, d)
            )
            result.notes.append(
                f"alpha={alpha}: Package_Served is worst on "
                f"{worst}/{len(jaccards)} similarity points (paper: worst overall)"
            )
    if ckpt and ckpt.points_loaded:
        result.notes.append(
            f"resumed from checkpoint: {ckpt.points_loaded} point(s) reused"
        )
    record_engine_stats(result, memo_obj, workers)
    record_observation(result, observer, since, metrics=metrics, trace=trace)
    return result
