"""Single-item caching substrate: models, solvers, schedules.

This subpackage is the reproduction of the substrate the paper builds on
(the off-line caching problem of [6]/[7]): the homogeneous cost model, the
schedule representation with an independent feasibility validator, the
exact optimal off-line DP, the simple greedy comparator, on-line policies,
and an exhaustive oracle for certification.
"""

from .bounds import BoundBreakdown, analytic_lower_bound, bound_breakdown
from .brute_force import brute_force_cost
from .capacity import POLICIES, CapacityCacheSimulator, CapacityReplayResult
from .greedy import GreedyResult, solve_greedy
from .heterogeneous import (
    HeteroCostModel,
    HeteroGreedyResult,
    hetero_brute_force,
    solve_hetero_greedy,
)
from .model import (
    DEFAULT_ALPHA,
    DEFAULT_THETA,
    CostModel,
    Request,
    RequestSequence,
    SingleItemView,
    package_rate,
)
from .online import (
    OnlineResult,
    solve_online_always_transfer,
    solve_online_ski_rental,
)
from .optimal_dp import OptimalResult, optimal_cost, solve_optimal
from .schedule import (
    CacheInterval,
    Schedule,
    ScheduleError,
    Transfer,
    validate_schedule,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_THETA",
    "CostModel",
    "Request",
    "RequestSequence",
    "SingleItemView",
    "package_rate",
    "CacheInterval",
    "Transfer",
    "Schedule",
    "ScheduleError",
    "validate_schedule",
    "OptimalResult",
    "solve_optimal",
    "optimal_cost",
    "GreedyResult",
    "solve_greedy",
    "OnlineResult",
    "solve_online_ski_rental",
    "solve_online_always_transfer",
    "brute_force_cost",
    "HeteroCostModel",
    "HeteroGreedyResult",
    "hetero_brute_force",
    "solve_hetero_greedy",
    "CapacityCacheSimulator",
    "CapacityReplayResult",
    "POLICIES",
    "BoundBreakdown",
    "analytic_lower_bound",
    "bound_breakdown",
]
