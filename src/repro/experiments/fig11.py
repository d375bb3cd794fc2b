"""Experiment E3 -- Fig. 11: impact of the Jaccard similarity on DP_Greedy.

The paper varies the pair similarity (by picking different real-trace
pairs) and observes that DP_Greedy's ``ave_cost`` falls as the Jaccard
similarity grows, crossing the non-packing Optimal near ``J ~= 0.3`` --
the observation that motivates ``theta = 0.3``.

This harness sweeps the target similarity with the controlled pair
generator.  DP_Greedy is run with ``theta = 0`` so that the pair is
packed at *every* similarity -- exactly what Fig. 11 plots (the cost of
the packing algorithm as a function of J); the crossover against Optimal
then *emerges* from the cost dynamics instead of being imposed by the
threshold.
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

__all__ = ["run_fig11", "DEFAULT_JACCARDS"]

DEFAULT_JACCARDS: Sequence[float] = (
    0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65,
)


def run_fig11(
    *,
    jaccards: Sequence[float] = DEFAULT_JACCARDS,
    n_requests: int = 400,
    num_servers: int = 50,
    alpha: float = 0.8,
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
    """Sweep the pair Jaccard similarity; report both algorithms' ave_cost.

    ``workers``/``memo`` opt in to the Phase-2 execution engine; the memo
    is shared across the whole sweep (identical sub-problems recur at
    every similarity point since only the workload seed varies).
    ``metrics`` turns on the ``repro.obs`` cost ledger and METRICS
    record per DP_Greedy run and stores the snapshot in ``result.metrics``;
    ``trace`` records the whole sweep as one span timeline and stores
    the Chrome trace payload in ``result.trace``.  ``resilience``
    forwards a :class:`~repro.engine.resilience.ResilienceConfig` (or
    ``True``) to every DP_Greedy solve; ``checkpoint`` (a directory or
    ``.jsonl`` path) makes each completed similarity point durable, and
    ``resume=True`` skips points already recorded there.
    """
    model = model or CostModel(mu=3.0, lam=3.0)  # rho = 1 on the lam+mu=6 scale
    memo_obj = sweep_memo(memo)
    observer, since = sweep_observer(metrics, trace)
    ckpt = sweep_checkpoint(checkpoint, "fig11", resume)

    result = ExperimentResult(
        experiment_id="fig11",
        title="Fig. 11 -- impact of Jaccard similarity on ave_cost",
        params={
            "n_requests": n_requests,
            "num_servers": num_servers,
            "alpha": alpha,
            "mu": model.mu,
            "lam": model.lam,
            "repeats": repeats,
            "seed": seed,
            "hotspot_skew": hotspot_skew,
        },
        xlabel="Jaccard similarity",
        ylabel="ave_cost",
    )

    dpg_curve = []
    opt_curve = []
    crossover: Optional[float] = None
    for j_target in jaccards:
        point = {"jaccard": j_target}
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
                    n_requests, num_servers, j_target, seed=seed + 1000 * r, hotspot_skew=hotspot_skew
                )
                if metrics:
                    observer.begin_run(jaccard=j_target, repeat=r)
                dpg = solve_dp_greedy(
                    seq,
                    model,
                    theta=0.0,
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
                "jaccard": j_target,
                "dp_greedy_ave_cost": round(dpg_ave, 4),
                "optimal_ave_cost": round(opt_ave, 4),
                "dpg_wins": int(dpg_ave <= opt_ave),
            }
            if ckpt:
                ckpt.record(point, {"row": row, "dpg_ave": dpg_ave, "opt_ave": opt_ave})
        dpg_curve.append((j_target, dpg_ave))
        opt_curve.append((j_target, opt_ave))
        if crossover is None and dpg_ave <= opt_ave:
            crossover = j_target
        result.rows.append(row)

    result.series["DP_Greedy"] = dpg_curve
    result.series["Optimal (non-packing)"] = opt_curve
    if crossover is not None:
        result.notes.append(
            f"DP_Greedy overtakes Optimal at J ~= {crossover:.2f} "
            "(the paper observes ~0.3, motivating theta = 0.3)"
        )
        result.params["crossover_jaccard"] = crossover
    if ckpt and ckpt.points_loaded:
        result.notes.append(
            f"resumed from checkpoint: {ckpt.points_loaded} point(s) reused"
        )
    record_engine_stats(result, memo_obj, workers)
    record_observation(result, observer, since, metrics=metrics, trace=trace)
    return result
