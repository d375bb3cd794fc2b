"""repro: a reproduction of *DP_Greedy: A Two-Phase Caching Algorithm for
Mobile Cloud Services* (Huang et al., IEEE CLUSTER 2019).

Quickstart
----------
>>> from repro import CostModel, RequestSequence, solve_dp_greedy
>>> seq = RequestSequence(
...     [(0, 0.8, {1, 2}), (2, 1.4, {1, 2}), (1, 2.0, {1})],
...     num_servers=3,
... )
>>> result = solve_dp_greedy(seq, CostModel(mu=1, lam=1), theta=0.3, alpha=0.8)
>>> result.ave_cost > 0
True

Subpackages
-----------
``repro.cache``
    Single-item caching substrate: the homogeneous cost model, schedules
    with an independent feasibility validator, the exact optimal off-line
    DP (the paper's reference [6]), the simple greedy comparator, on-line
    policies, and an exhaustive certification oracle.
``repro.correlation``
    Phase 1: Jaccard similarity and greedy package selection.
``repro.core``
    Phase 2 and the full two-phase DP_Greedy algorithm, the evaluation
    baselines (Optimal, Package_Served), and approximation-ratio tools.
``repro.engine``
    The O(mn) pre-scan index structures of Section V and the
    parallel/memoized, fault-tolerant execution engine.
``repro.trace``
    Synthetic Shenzhen-like taxi mobility traces and correlated-item
    workload generators (substitute for the proprietary trace of [20]).
``repro.experiments``
    One harness per paper figure (Figs. 9-13) plus the running example.
``repro.obs``
    Structured observability through one span-based ``Observer``: span
    traces, runtime latency/resource telemetry, and the per-request
    cost ledger (with a reconciliation self-audit) behind the
    ``METRICS_*.json`` artefacts.
"""

from . import logutil as _logutil  # installs the NullHandler on "repro"

del _logutil

from .cache import (
    POLICIES,
    CapacityCacheSimulator,
    DEFAULT_ALPHA,
    HeteroCostModel,
    hetero_brute_force,
    solve_hetero_greedy,
    DEFAULT_THETA,
    CacheInterval,
    CostModel,
    GreedyResult,
    OptimalResult,
    Request,
    RequestSequence,
    Schedule,
    ScheduleError,
    SingleItemView,
    Transfer,
    brute_force_cost,
    optimal_cost,
    package_rate,
    solve_greedy,
    solve_online_always_transfer,
    solve_online_ski_rental,
    solve_optimal,
    validate_schedule,
)
from .core import (
    BaselineResult,
    OnlineDPGreedyResult,
    packed_pair_oracle,
    solve_online_dp_greedy,
    DPGreedyResult,
    GroupReport,
    RatioCertificate,
    lemma1_lower_bound,
    ratio_certificate,
    solve_dp_greedy,
    solve_greedy_nonpacking,
    solve_optimal_nonpacking,
    solve_package_served,
)
from .correlation import (
    CorrelationStats,
    PackingPlan,
    SparseCorrelationStats,
    correlation_stats,
    greedy_group_packing,
    greedy_pair_packing,
    jaccard_similarity,
    pair_similarities,
    sparse_correlation_stats,
)
from .engine import (
    ChaosError,
    EngineStats,
    FaultPlan,
    PreScan,
    ResilienceConfig,
    SolverMemo,
    chaos_from_env,
    fingerprint_view,
    serve_plan,
    solve_dp_greedy_sharded,
)
from .errors import (
    ReproError,
    RequestRowError,
    TraceRowError,
    UnitSolveError,
    UnitTimeoutError,
)
from .obs import (
    CostLedger,
    LedgerEntry,
    LedgerReconciliationError,
    Observer,
)
from .trace import (
    StoreSequence,
    TraceStore,
    convert_csv_to_store,
    write_store,
)
from .viz import render_schedule

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cache substrate
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
    "solve_online_ski_rental",
    "solve_online_always_transfer",
    "brute_force_cost",
    # correlation
    "CorrelationStats",
    "SparseCorrelationStats",
    "correlation_stats",
    "sparse_correlation_stats",
    "jaccard_similarity",
    "pair_similarities",
    "PackingPlan",
    "greedy_pair_packing",
    "greedy_group_packing",
    # core
    "DPGreedyResult",
    "GroupReport",
    "solve_dp_greedy",
    "BaselineResult",
    "solve_optimal_nonpacking",
    "solve_package_served",
    "solve_greedy_nonpacking",
    "RatioCertificate",
    "ratio_certificate",
    "lemma1_lower_bound",
    # engine
    "PreScan",
    "SolverMemo",
    "fingerprint_view",
    "EngineStats",
    "serve_plan",
    # out-of-core store + sharded driver
    "TraceStore",
    "StoreSequence",
    "write_store",
    "convert_csv_to_store",
    "solve_dp_greedy_sharded",
    # resilience + chaos
    "ResilienceConfig",
    "FaultPlan",
    "ChaosError",
    "chaos_from_env",
    "ReproError",
    "RequestRowError",
    "TraceRowError",
    "UnitSolveError",
    "UnitTimeoutError",
    # observability
    "CostLedger",
    "LedgerEntry",
    "LedgerReconciliationError",
    "Observer",
    # extensions
    "HeteroCostModel",
    "hetero_brute_force",
    "solve_hetero_greedy",
    "CapacityCacheSimulator",
    "POLICIES",
    "packed_pair_oracle",
    "OnlineDPGreedyResult",
    "solve_online_dp_greedy",
    "render_schedule",
]
