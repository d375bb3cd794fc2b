"""Sharded DP_Greedy solves for out-of-core traces.

:func:`~repro.core.dp_greedy.solve_dp_greedy` lets the engine group a
pooled solve's units by itself.  For traces that live in a
:class:`~repro.trace.store.TraceStore` the caller picks the grouping: a
ten-million-request trace has thousands of tiny units, and this module
asks the one Phase-2 driver (:func:`repro.engine.parallel.serve_plan`)
to group them into a handful of **shards** -- balanced by
carried-request count, never splitting a package -- on every rung of
the resilient dispatcher of :mod:`repro.engine.resilience`, so retries,
timeouts, pool degradation, chaos injection, and crash-safe
checkpointing all apply per shard.

Workers receive the *store path*, not a pickled request list:
:class:`~repro.trace.store.StoreSequence` reduces to
``(path, mmap)`` and every worker re-opens the memory-mapped columns,
so spawning a process pool over a 10M-request trace ships a few dozen
bytes per worker instead of gigabytes.

Determinism: a shard solves its units with the exact per-unit serves of
the unsharded path, reports are put back at their plan-order unit
indices, and the final ``total`` is the same left-to-right
``sum(r.total for r in reports)`` -- bit-identical to
``solve_dp_greedy`` for every pool, worker count, and shard count.
"""

from __future__ import annotations

import os
from typing import Optional

from ..cache.model import CostModel, RequestSequence
from ..core.dp_greedy import DPGreedyResult, _solve
from ..correlation.packing import PackingPlan
from ..obs.observer import Observer
from .memo import SolverMemo
from .resilience import ResilienceConfig

__all__ = ["solve_dp_greedy_sharded"]

#: Checkpoint experiment id of the sharded driver (see
#: :func:`repro.experiments.base.sweep_checkpoint`).
SHARD_CHECKPOINT_ID = "dp_greedy_sharded"


def solve_dp_greedy_sharded(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    shards: Optional[int] = None,
    packing: str = "pairs",
    max_group_size: int = 3,
    plan: Optional[PackingPlan] = None,
    workers: Optional[int] = None,
    memo: "SolverMemo | bool | None" = None,
    resilience: "ResilienceConfig | bool | None" = None,
    checkpoint: "object | None" = None,
    resume: bool = False,
    observer: Optional[Observer] = None,
) -> DPGreedyResult:
    """Run DP_Greedy with Phase 2 sharded over the resilient dispatcher.

    Semantically identical to
    :func:`~repro.core.dp_greedy.solve_dp_greedy` -- same Phase 1, same
    per-unit serves, bit-identical ``total_cost`` -- but Phase 2 groups
    the memo misses into ``shards`` balanced shards (longest-processing-
    time first by carried request count; default: one per CPU) and
    dispatches each
    through :func:`~repro.engine.resilience.dispatch_resilient` (a
    one-unit shard as the bare unit), so retries, timeouts,
    process→serial degradation, ``on_unit_error`` policies, and chaos
    injection apply per *shard*.  As in ``solve_dp_greedy``, an unset
    ``workers`` runs the shards serially in this process and
    ``workers=N >= 2`` runs them on an ``N``-process pool.  Unlike
    ``solve_dp_greedy``, the dispatcher defaults to
    ``ResilienceConfig()`` here: two retries, and ``REPRO_CHAOS``
    applies; ``resilience=False`` opts out as it does there (no
    retries, no fault injection).  With a
    store-backed sequence (:meth:`repro.trace.store.TraceStore.open`)
    process-pool workers receive the store *path* and re-mmap the
    columns, never a pickled request list.

    The driver is cost-only (no schedules).  ``observer=`` works as in
    ``solve_dp_greedy``: one run record covers every shard -- a ledger
    observer's charges reconcile across shards, shard workers ship
    their spans and latency back, and ``phase2.shard_seconds`` times
    each multi-unit shard.

    Parameters beyond ``solve_dp_greedy``'s
    ------------------------------------------
    shards:
        Shard count; ``None`` uses ``os.cpu_count()``.  Shards never
        split a package.
    checkpoint / resume:
        Crash-safe per-shard checkpointing via
        :func:`repro.experiments.base.sweep_checkpoint` (a directory, a
        ``.jsonl`` path, or a live
        :class:`~repro.experiments.base.SweepCheckpoint`).  Every
        completed shard's reports are fsynced as they land -- including
        shards recovered on a degraded pool rung -- and ``resume=True``
        replays them instead of re-solving, reproducing the original
        floats bit for bit.
    """
    if shards is None:
        shards = max(1, os.cpu_count() or 1)
    elif shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    # only None picks the sharded default; False is NO_RETRY, as on
    # solve_dp_greedy, and a bad value is refused before Phase 1
    config = ResilienceConfig() if resilience is None else ResilienceConfig.coerce(resilience)
    from ..experiments.base import sweep_checkpoint

    return _solve(
        seq, model, theta=theta, alpha=alpha, packing=packing,
        max_group_size=max_group_size,
        build_schedules=False, plan=plan, workers=workers, memo=memo,
        resilience=config,
        observer=observer, shards=shards,
        checkpoint=sweep_checkpoint(checkpoint, SHARD_CHECKPOINT_ID, resume),
    )
