"""Experiment harnesses: paper figures, the running example, and extensions.

Paper artefacts
===============
========== ==========================================================
run_fig09   Fig. 9  -- spatial request distribution (synthetic trace)
run_fig10   Fig. 10 -- pair frequency & Jaccard spectrum
run_fig11   Fig. 11 -- ave_cost vs Jaccard similarity
run_fig12   Fig. 12 -- ave_cost vs rho = lam/mu (lam + mu = 6)
run_fig13   Fig. 13 -- ave_cost vs discount factor alpha
run_running_example  Section V.C worked example (Figs. 2/7/8)
run_ratio_study      Theorem 1 -- 2/alpha, vs Lemma-1 LB and exact C*
run_scaling          Section V-B -- O(mn^2)/O(mn) scaling
run_trace_study      Section VI end-to-end on one full trace
========== ==========================================================

Extensions and ablations
========================
========== ==========================================================
run_online_study     on-line DP_Greedy vs the off-line algorithm
run_theta_ablation   the packing threshold's U-shape
run_option_ablation  Observation-2 serving options
run_packing_ablation pairs vs groups vs forced vs none
run_robustness       prediction error -> plan stability and cost
run_capacity_study   classical caches under cost-oriented billing
run_ledger_gap       Observation 1's hidden keep-alive cost
run_hetero_study     the price of assuming homogeneity
run_report           run everything, write REPORT.md
========== ==========================================================
"""

import inspect
from typing import Dict, Optional

from .ablation import run_option_ablation, run_packing_ablation, run_theta_ablation
from .base import ExperimentResult
from .capacity_study import run_capacity_study
from .fig09 import run_fig09
from .hetero_study import run_hetero_study
from .fig10 import run_fig10
from .fig11 import run_fig11
from .fig12 import run_fig12
from .fig13 import run_fig13
from .ledger_gap import run_ledger_gap
from .online_study import run_online_study
from .ratio_study import run_ratio_study
from .report import run_report
from .robustness import run_robustness
from .running_example import run_running_example, running_example_sequence
from .scaling import run_scaling
from .trace_study import run_trace_study

__all__ = [
    "ExperimentResult",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_online_study",
    "run_ledger_gap",
    "run_hetero_study",
    "run_report",
    "run_theta_ablation",
    "run_option_ablation",
    "run_packing_ablation",
    "run_running_example",
    "running_example_sequence",
    "run_ratio_study",
    "run_robustness",
    "run_capacity_study",
    "run_scaling",
    "run_trace_study",
]

ALL_EXPERIMENTS = {
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "online_study": run_online_study,
    "ablation_theta": run_theta_ablation,
    "ablation_options": run_option_ablation,
    "ablation_packing": run_packing_ablation,
    "running_example": run_running_example,
    "ratio_study": run_ratio_study,
    "robustness": run_robustness,
    "capacity_study": run_capacity_study,
    "scaling": run_scaling,
    "trace_study": run_trace_study,
    "ledger_gap": run_ledger_gap,
    "hetero_study": run_hetero_study,
}


#: Smaller workloads per experiment id for ``--quick`` smoke runs.
_QUICK_OVERRIDES = {
    "online_study": dict(n_requests=120, repeats=1),
    "robustness": dict(n_requests=150, error_rates=(0.0, 0.3, 0.6)),
    "capacity_study": dict(n_requests=200, capacities=(1, 4)),
    "trace_study": dict(alphas=(0.2, 0.8)),
    "ledger_gap": dict(n_requests=120, alphas=(0.2, 0.8), jaccards=(0.2, 0.6)),
    "hetero_study": dict(trials=4, spreads=(0.0, 0.5, 1.0)),
    "ablation_theta": dict(n_per_pair=60),
    "ablation_options": dict(n_requests=120),
    "ablation_packing": dict(n_requests=150),
    "fig11": dict(n_requests=120, repeats=1),
    "fig12": dict(n_requests=120, repeats=1),
    "fig13": dict(n_requests=120, repeats=1),
    "ratio_study": dict(trials=5, n_requests=60),
    "scaling": dict(sizes=(100, 200)),
}


def _engine_kwargs(
    fn,
    workers: Optional[int],
    memo: bool,
    metrics: bool = False,
    trace: bool = False,
    resilience=None,
    checkpoint=None,
    resume: bool = False,
) -> Dict[str, object]:
    """Engine kwargs for harnesses that expose the knobs; {} otherwise."""
    params = inspect.signature(fn).parameters
    out: Dict[str, object] = {}
    if "workers" in params and workers is not None:
        out["workers"] = workers
    if "memo" in params and memo:
        out["memo"] = True
    if "metrics" in params and metrics:
        out["metrics"] = True
    if "resilience" in params and resilience is not None:
        out["resilience"] = resilience
    if "checkpoint" in params and checkpoint is not None:
        out["checkpoint"] = checkpoint
        if "resume" in params and resume:
            out["resume"] = True
    # the span-tracing knob is the boolean trace=False kwarg; fig09/fig10
    # use "trace" for the taxi-trace input, so match on the default too
    if (
        trace
        and "trace" in params
        and params["trace"].default is False
    ):
        out["trace"] = True
    return out
