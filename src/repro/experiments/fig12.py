"""Experiment E4 -- Fig. 12: impact of the ratio ``rho = lam / mu``.

The paper varies ``rho`` from 0.2 to 5.0 while fixing ``lam + mu = 6``
(so the absolute scale stays comparable) with ``theta = 0.3`` and
``alpha = 0.8``.  The reported shape: ``ave_cost`` rises steeply, peaks
around ``rho ~= 2``, and declines more gently afterwards -- at either
extreme one of caching/transferring is clearly favourable, while near the
middle neither is, and the first-transfer cost on every server makes the
transfer side dominate (hence the asymmetric peak past ``rho = 1``).

DP_Greedy is compared against the single-item Optimal as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cache.model import CostModel
from ..core.baselines import solve_optimal_nonpacking
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

__all__ = ["run_fig12", "DEFAULT_RHOS"]

DEFAULT_RHOS: Sequence[float] = (
    0.2, 0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
)


def run_fig12(
    *,
    rhos: Sequence[float] = DEFAULT_RHOS,
    jaccard: float = 0.45,
    n_requests: int = 400,
    num_servers: int = 50,
    theta: float = 0.3,
    alpha: float = 0.8,
    rate_total: float = 6.0,
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
    """Sweep ``rho`` with ``lam + mu = rate_total``; report ave_cost curves.

    ``workers``/``memo`` opt in to the Phase-2 execution engine.  Note the
    memo keys include ``(mu, lam)``, so a rho sweep only hits across its
    ``repeats`` dimension, not across rho points.  ``metrics`` turns on
    the ``repro.obs`` ledger/METRICS record per DP_Greedy run; ``trace``
    records the sweep as one span timeline in ``result.trace``.
    ``resilience`` forwards a fault-tolerance config to every DP_Greedy
    solve; ``checkpoint``/``resume`` make each completed rho point
    durable and skip recorded ones on restart.
    """
    memo_obj = sweep_memo(memo)
    observer, since = sweep_observer(metrics, trace)
    ckpt = sweep_checkpoint(checkpoint, "fig12", resume)
    result = ExperimentResult(
        experiment_id="fig12",
        title="Fig. 12 -- ave_cost of Optimal vs DP_Greedy under varying rho",
        params={
            "jaccard": jaccard,
            "n_requests": n_requests,
            "num_servers": num_servers,
            "theta": theta,
            "alpha": alpha,
            "lam_plus_mu": rate_total,
            "repeats": repeats,
            "seed": seed,
            "hotspot_skew": hotspot_skew,
        },
        xlabel="rho = lam/mu",
        ylabel="ave_cost",
    )

    dpg_curve = []
    opt_curve = []
    for rho in rhos:
        model = CostModel.from_rho(rho, total=rate_total)
        point = {"rho": rho}
        cached = ckpt.get(point) if ckpt else None
        if cached is not None:
            dpg_ave = cached["dpg_ave"]
            opt_ave = cached["opt_ave"]
            row = cached["row"]
        else:
            dpg_vals = []
            opt_vals = []
            for r in range(repeats):
                seq = correlated_pair_sequence(
                    n_requests, num_servers, jaccard, seed=seed + 1000 * r, hotspot_skew=hotspot_skew
                )
                if metrics:
                    observer.begin_run(rho=rho, repeat=r)
                dpg = solve_dp_greedy(
                    seq,
                    model,
                    theta=theta,
                    alpha=alpha,
                    workers=workers,
                    memo=memo_obj,
                    observer=observer,
                    resilience=resilience,
                )
                opt = solve_optimal_nonpacking(seq, model)
                dpg_vals.append(dpg.ave_cost)
                opt_vals.append(opt.ave_cost)
            dpg_ave = sum(dpg_vals) / len(dpg_vals)
            opt_ave = sum(opt_vals) / len(opt_vals)
            row = {
                "rho": rho,
                "mu": round(model.mu, 4),
                "lam": round(model.lam, 4),
                "dp_greedy_ave_cost": round(dpg_ave, 4),
                "optimal_ave_cost": round(opt_ave, 4),
            }
            if ckpt:
                ckpt.record(point, {"row": row, "dpg_ave": dpg_ave, "opt_ave": opt_ave})
        dpg_curve.append((rho, dpg_ave))
        opt_curve.append((rho, opt_ave))
        result.rows.append(row)

    result.series["DP_Greedy"] = dpg_curve
    result.series["Optimal (non-packing)"] = opt_curve

    peak_rho, peak_val = max(dpg_curve, key=lambda p: p[1])
    result.params["peak_rho"] = peak_rho
    result.notes.append(
        f"DP_Greedy curve peaks at rho = {peak_rho:g} (ave_cost {peak_val:.3f}); "
        "the paper reports a parabola-like shape peaking around rho ~= 2"
    )
    if ckpt and ckpt.points_loaded:
        result.notes.append(
            f"resumed from checkpoint: {ckpt.points_loaded} point(s) reused"
        )
    record_engine_stats(result, memo_obj, workers)
    record_observation(result, observer, since, metrics=metrics, trace=trace)
    return result
