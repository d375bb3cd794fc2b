"""The Section-V pre-scan index plus the parallel Phase-2 execution
engine, solver memo, the fault-tolerant dispatch layer (resilience +
chaos injection), and the sharded driver for out-of-core trace stores."""

from .chaos import ChaosError, FaultPlan, chaos_from_env
from .memo import SolverMemo, fingerprint_view, get_default_memo
from .parallel import EngineStats, serve_plan
from .prescan import PreScan
from .resilience import ResilienceConfig, dispatch_resilient
from .sharding import solve_dp_greedy_sharded

__all__ = [
    "PreScan",
    "SolverMemo",
    "fingerprint_view",
    "get_default_memo",
    "EngineStats",
    "serve_plan",
    "solve_dp_greedy_sharded",
    "ResilienceConfig",
    "dispatch_resilient",
    "FaultPlan",
    "ChaosError",
    "chaos_from_env",
]
