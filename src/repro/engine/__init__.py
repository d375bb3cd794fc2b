"""Efficient implementation structures of Section V (pre-scan + service
pass) plus the parallel Phase-2 execution engine, solver memo, and the
fault-tolerant dispatch layer (resilience + chaos injection), and the
sharded driver for out-of-core trace stores."""

from .chaos import ChaosError, FaultPlan, chaos_from_env
from .memo import SolverMemo, fingerprint_view, get_default_memo
from .parallel import EngineStats, serve_plan
from .prescan import PreScan
from .resilience import ResilienceConfig, dispatch_resilient
from .service import greedy_service_pass, package_service_pass, prev_same_server
from .sharding import shard_by_items, solve_dp_greedy_sharded

__all__ = [
    "PreScan",
    "greedy_service_pass",
    "package_service_pass",
    "prev_same_server",
    "SolverMemo",
    "fingerprint_view",
    "get_default_memo",
    "EngineStats",
    "serve_plan",
    "shard_by_items",
    "solve_dp_greedy_sharded",
    "ResilienceConfig",
    "dispatch_resilient",
    "FaultPlan",
    "ChaosError",
    "chaos_from_env",
]
