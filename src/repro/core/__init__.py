"""The paper's contribution: DP_Greedy, its baselines, and ratio analysis."""

from .approximation import (
    CutSummary,
    RatioCertificate,
    cut_normalize,
    lemma1_lower_bound,
    ratio_certificate,
)
from .baselines import (
    BaselineResult,
    solve_greedy_nonpacking,
    solve_optimal_nonpacking,
    solve_package_served,
)
from .dp_greedy import (
    DPGreedyResult,
    GroupReport,
    serve_unit,
    solve_dp_greedy,
)
from .online_dpg import OnlineDPGreedyResult, solve_online_dp_greedy
from .packed_oracle import packed_pair_oracle
from .physical import PhysicalResult, physical_dp_greedy

__all__ = [
    "DPGreedyResult",
    "GroupReport",
    "solve_dp_greedy",
    "serve_unit",
    "BaselineResult",
    "solve_optimal_nonpacking",
    "solve_package_served",
    "solve_greedy_nonpacking",
    "RatioCertificate",
    "ratio_certificate",
    "lemma1_lower_bound",
    "CutSummary",
    "cut_normalize",
    "packed_pair_oracle",
    "OnlineDPGreedyResult",
    "solve_online_dp_greedy",
    "PhysicalResult",
    "physical_dp_greedy",
]
