"""Experiment E9 -- complexity scaling (Section V-B: O(m n^2) / O(m n)).

Measures the wall-clock of the cost-only optimal DP -- both the default
``O(n * m)`` sparse-frontier backend and the historical ``O(n^2)`` dense
sweep -- and of the pre-scan index construction over growing ``n``, then
fits the log-log slopes.  The paper's Section V-B bounds translate to a
slope of ~2 for the dense service pass in ``n`` and ~1 for the pre-scan;
the sparse frontier's slope should track the pre-scan's (linear in ``n``
at fixed ``m``), which is the headline of the sparse-hot-paths
optimisation.  The two backends must agree bit-for-bit at every size.
Absolute constants are of course Python's, not the paper's C solver's.

Timing runs through :func:`time_best_of`, so every repeat is also one
span of an :class:`~repro.obs.observer.Observer` (per-size spans
``scaling.dp.n<N>`` / ``scaling.dp_dense.n<N>`` /
``scaling.prescan.n<N>``), which yields the mean next to the best-of.
The two backends' repeats alternate within each size, so a burst of
host load lands on both curves alike: at a few thousand requests
numpy's per-event overhead still hides much of the dense sweep's
``n^2`` term, and the two slopes sit close.
"""

from __future__ import annotations

import math
import time
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..cache.model import CostModel
from ..cache.optimal_dp import optimal_cost
from ..engine.prescan import PreScan
from ..obs.observer import Observer, maybe_span
from ..trace.workload import random_single_item_view
from .base import ExperimentResult, sweep_checkpoint

__all__ = ["run_scaling", "time_best_of", "DEFAULT_SIZES"]

DEFAULT_SIZES: Sequence[int] = (100, 200, 400, 800, 1600, 3200)


def time_best_of(
    fn: Callable,
    *args: object,
    repeats: int = 3,
    observer: Optional[object] = None,
    phase: Optional[str] = None,
) -> float:
    """Best-of-N wall time of ``fn(*args)``.

    With an ``observer`` and a ``phase`` every repeat is one span named
    ``phase``, so the same measurement feeds both the best-of result and
    the observer's span totals.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = math.inf
    for _ in range(repeats):
        with maybe_span(observer if phase else None, phase):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
    return best


def _best_of_alternating(
    fns: Sequence[Callable], phases: Sequence[str], repeats: int, observer
) -> list:
    """Best-of-``repeats`` wall time of each of ``fns``, timed in turn
    within every repeat (one span per call, named by ``phases``)."""
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for k, (fn, phase) in enumerate(zip(fns, phases)):
            t = time_best_of(fn, repeats=1, observer=observer, phase=phase)
            best[k] = min(best[k], t)
    return best


def run_scaling(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_servers: int = 50,
    seed: int = 11,
    repeats: int = 3,
    checkpoint=None,
    resume: bool = False,
    store: bool = False,
    store_dir: Optional[Union[str, Path]] = None,
) -> ExperimentResult:
    """Time the DP backends and pre-scan over growing ``n``; fit slopes.

    ``checkpoint``/``resume`` make each completed size point durable and
    skip recorded ones on restart (the large sizes dominate the runtime,
    so resuming a killed sweep saves almost all of it).

    ``store=True`` adds an out-of-core curve: at every size a
    multi-item workload is written to a columnar
    :class:`~repro.trace.store.TraceStore` and the full sharded
    DP_Greedy solve is timed straight off the memory-mapped columns
    (:func:`~repro.engine.sharding.solve_dp_greedy_sharded`), with its
    total asserted bit-identical to the in-memory
    :func:`~repro.core.dp_greedy.solve_dp_greedy` at every size.  The
    stores go under ``store_dir``, which is kept, or else into a
    temporary directory removed on return and on error.
    """
    model = CostModel(mu=1.0, lam=1.0)
    observer = Observer(spans=True)
    ckpt = sweep_checkpoint(checkpoint, "scaling", resume)
    result = ExperimentResult(
        experiment_id="scaling",
        title="Section V-B -- time scaling of the DP service pass and pre-scan",
        params={"num_servers": num_servers, "seed": seed, "repeats": repeats},
        xlabel="n (requests)",
        ylabel="seconds",
    )

    dp_curve = []
    dense_curve = []
    scan_curve = []
    for n in sizes:
        point = {"n": n}
        cached = ckpt.get(point) if ckpt else None
        if cached is not None:
            t_dp = cached["t_dp"]
            t_dense = cached["t_dense"]
            t_scan = cached["t_scan"]
            row = cached["row"]
            # points recorded while E9 still timed a batched-kernel curve
            # carry its column; reuse them without it
            row.pop("dp_batched_seconds", None)
        else:
            view = random_single_item_view(n, num_servers, seed=seed, horizon=float(n))
            t_dp, t_dense = _best_of_alternating(
                (
                    partial(optimal_cost, view, model),
                    partial(optimal_cost, view, model, backend="dense"),
                ),
                (f"scaling.dp.n{n}", f"scaling.dp_dense.n{n}"),
                repeats,
                observer,
            )
            t_scan = time_best_of(
                PreScan, view,
                repeats=repeats, observer=observer, phase=f"scaling.prescan.n{n}",
            )
            # both backends must agree bit-for-bit at every size
            cost_sparse = optimal_cost(view, model)
            cost_dense = optimal_cost(view, model, backend="dense")
            if cost_sparse != cost_dense:
                raise AssertionError(
                    f"DP backend mismatch at n={n}: "
                    f"sparse {cost_sparse!r} != dense {cost_dense!r}"
                )
            # the spans saw every repeat, so seconds/calls is the mean --
            # reported next to the best-of to expose timing noise
            dp_mean = observer.totals()[f"scaling.dp.n{n}"]["seconds"] / repeats
            row = {
                "n": n,
                "dp_seconds": round(t_dp, 6),
                "dp_seconds_mean": round(dp_mean, 6),
                "dp_dense_seconds": round(t_dense, 6),
                "prescan_seconds": round(t_scan, 6),
            }
            if ckpt:
                ckpt.record(
                    point,
                    {"row": row, "t_dp": t_dp, "t_dense": t_dense, "t_scan": t_scan},
                )
        dp_curve.append((float(n), t_dp))
        dense_curve.append((float(n), t_dense))
        scan_curve.append((float(n), t_scan))
        result.rows.append(row)

    store_curve = []
    if store:
        import tempfile
        from contextlib import nullcontext

        from ..core.dp_greedy import solve_dp_greedy
        from ..engine.sharding import solve_dp_greedy_sharded
        from ..trace.store import TraceStore, write_store
        from ..trace.workload import zipf_item_workload

        num_items = max(8, num_servers // 2)
        with (
            nullcontext(store_dir)
            if store_dir is not None
            else tempfile.TemporaryDirectory(prefix="repro-scaling-store-")
        ) as base:
            for i, n in enumerate(sizes):
                point = {"n": n, "curve": "store"}
                cached = ckpt.get(point) if ckpt else None
                if cached is not None:
                    t_store = cached["t_store"]
                else:
                    seq = zipf_item_workload(n, num_servers, num_items, seed=seed)
                    sseq = TraceStore.open(write_store(seq, Path(base) / f"n{n}"))
                    solve = partial(
                        solve_dp_greedy_sharded, sseq, model, theta=0.3, alpha=0.8
                    )
                    t_store = time_best_of(
                        solve, repeats=repeats, observer=observer,
                        phase=f"scaling.store.n{n}",
                    )
                    # the store-backed sharded solve must reproduce the
                    # in-memory total bit for bit at every size
                    mem = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
                    off = solve()
                    if off.total_cost != mem.total_cost:
                        raise AssertionError(
                            f"store-backed total mismatch at n={n}: "
                            f"{off.total_cost!r} != {mem.total_cost!r}"
                        )
                    if ckpt:
                        ckpt.record(point, {"t_store": t_store})
                store_curve.append((float(n), t_store))
                result.rows[i]["store_seconds"] = round(t_store, 6)
        result.params["store_items"] = num_items

    result.series["optimal DP (sparse frontier, cost only)"] = dp_curve
    result.series["optimal DP (dense sweep, cost only)"] = dense_curve
    result.series["pre-scan build"] = scan_curve
    if store_curve:
        result.series["DP_Greedy (store-backed, sharded)"] = store_curve

    def slope(curve) -> float:
        xs = np.log([x for x, _ in curve])
        ys = np.log([max(y, 1e-9) for _, y in curve])
        return float(np.polyfit(xs, ys, 1)[0])

    if ckpt and ckpt.points_loaded:
        result.notes.append(
            f"resumed from checkpoint: {ckpt.points_loaded} point(s) reused"
        )
    dp_slope = slope(dp_curve)
    dense_slope = slope(dense_curve)
    scan_slope = slope(scan_curve)
    largest_speedup = dense_curve[-1][1] / max(dp_curve[-1][1], 1e-12)
    result.params["dp_loglog_slope"] = round(dp_slope, 3)
    result.params["dp_dense_loglog_slope"] = round(dense_slope, 3)
    result.params["prescan_loglog_slope"] = round(scan_slope, 3)
    result.params["dp_speedup_at_largest_n"] = round(largest_speedup, 3)
    result.notes.append(
        f"log-log slopes: sparse DP {dp_slope:.2f} (theory ~1 in n at fixed m), "
        f"dense DP {dense_slope:.2f} (theory ~2 in n), "
        f"pre-scan {scan_slope:.2f} (theory ~1 in n at fixed m); "
        f"sparse/dense speedup at n={int(dp_curve[-1][0])}: "
        f"{largest_speedup:.1f}x"
    )
    return result
