"""Fast sanity checks of the engine's performance machinery.

Marked ``perf_smoke``: these run in tier-1 (they are cheap) but can be
selected alone with ``-m perf_smoke`` as a pre-benchmark smoke screen.
They assert the *machinery* works -- memo hits happen, the pool path is
exercised, the scaling harness accepts tiny sizes -- not wall-clock
numbers, which belong to ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.cache.model import CostModel
from repro.engine.memo import SolverMemo
from repro.experiments.ablation import run_theta_ablation
from repro.experiments.scaling import run_scaling
from repro.trace.workload import zipf_item_workload

pytestmark = pytest.mark.perf_smoke


def test_scaling_harness_tiny_sizes():
    result = run_scaling(sizes=(60, 120), num_servers=6, seed=3)
    assert len(result.rows) == 2
    assert all(row["n"] in (60, 120) for row in result.rows)


def test_theta_sweep_memo_hit_rate_positive():
    result = run_theta_ablation(
        thetas=(0.1, 0.3, 0.5), n_per_pair=30, num_servers=10, memo=True
    )
    assert result.params["memo_hits"] > 0
    assert result.params["memo_hit_rate"] > 0.0


def test_parallel_path_runs_on_two_workers():
    from repro.core.dp_greedy import solve_dp_greedy

    seq = zipf_item_workload(150, 10, 8, seed=9, cooccurrence=0.4)
    model = CostModel(mu=1.0, lam=1.0)
    got = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, workers=2)
    ref = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
    assert got.engine_stats.workers == 2
    assert got.engine_stats.pool == "process"
    assert got.total_cost == ref.total_cost


def test_memo_skips_pool_dispatch_on_rerun():
    from repro.core.dp_greedy import solve_dp_greedy

    seq = zipf_item_workload(120, 8, 6, seed=4, cooccurrence=0.4)
    model = CostModel(mu=2.0, lam=2.0)
    memo = SolverMemo()
    solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, workers=2, memo=memo)
    rerun = solve_dp_greedy(
        seq, model, theta=0.3, alpha=0.8, workers=2, memo=memo
    )
    assert rerun.engine_stats.dispatched == 0
    assert rerun.engine_stats.memo_hit_rate == 1.0


def test_phase2_python_calls_per_unit_stay_bounded():
    """A warm serial solve makes at most 8 Python-level calls per serving
    unit outside the DP sweep (builtins and the sweep's own calls are not
    counted): a singleton is priced off the same-server index, gets one
    report, and is served by one ``_serve_group`` call.  A closure chain,
    a view prologue and a report copy per unit make about 15, so the
    bound keeps them out.  The count is exact and repeats run to run;
    CPython 3.12 inlines comprehensions, so it reads no higher there
    than on 3.10/3.11."""
    import sys

    from repro.cache import optimal_dp
    from repro.core.dp_greedy import solve_dp_greedy

    # ~580 units, nearly all singletons
    seq = zipf_item_workload(4000, 20, 600, seed=11, zipf_s=0.6, cooccurrence=0.1)
    model = CostModel(mu=1.0, lam=1.0)

    def solve():
        return solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)

    solve()  # warm: columns, index and package views are built and cached
    sweep = optimal_dp._sparse_cost_sweep.__code__
    calls = depth = 0

    def profile(frame, event, arg):
        nonlocal calls, depth
        if event == "call":
            if depth:
                depth += 1
            elif frame.f_code is sweep:
                depth = 1
            else:
                calls += 1
        elif event == "return" and depth:
            depth -= 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = solve()
    finally:
        sys.setprofile(previous)
    units = len(result.reports)
    assert len(result.plan.singletons) > 0.9 * units > 500
    assert calls / units <= 8, f"{calls} calls for {units} units"


def test_serve_python_calls_per_request_stay_bounded():
    """A warm closed-loop pass through the serving engine makes at most
    17 Python-level calls per request in ``repro`` frames and in
    generated ``__init__``s (compiled from ``"<string>"``): one
    ``Request`` at the door, one ``step``, one ``ServeAnswer``, one
    ``BatchCollector.put``, and no per-request counter or histogram
    helper.  It makes 15.9; two answers per request and six such
    helper calls made about 23.7.  asyncio's own frames are left out:
    they differ between Python 3.10 and 3.12.  With ``max_wait=0`` and
    no injected faults the batching, and so the count, repeats exactly
    run to run."""
    import asyncio
    import os
    import sys

    import repro
    from repro.engine.chaos import FaultPlan
    from repro.serve import ServeConfig, ServingEngine

    seq = zipf_item_workload(3000, 20, 16, seed=11, cooccurrence=0.4)
    model = CostModel(mu=1.0, lam=1.0)
    src = os.path.dirname(repro.__file__)

    async def serve():
        engine = ServingEngine(
            model, theta=0.3, alpha=0.8, origin=seq.origin,
            config=ServeConfig(max_wait=0.0, chaos=FaultPlan()),
        )
        await engine.start()
        requests = iter(seq)

        async def client():
            for req in requests:
                answer = await engine.submit(req.server, req.items, time=req.time)
                assert answer.status == "ok"

        await asyncio.gather(*(client() for _ in range(16)))
        await engine.drain()

    asyncio.run(serve())  # warm
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            name = frame.f_code.co_filename
            if name == "<string>" or name.startswith(src):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        asyncio.run(serve())
    finally:
        sys.setprofile(previous)
    assert calls / len(seq) <= 17, f"{calls} calls for {len(seq)} requests"


def test_csv_conversion_python_calls_per_row_stay_bounded(tmp_path):
    """Converting a 20,000-row CSV makes at most 0.1 Python-level calls
    per row, every frame counted: the reader converts and checks whole
    columns per chunk, and only rejected rows (none here) reach the
    per-row check.  It makes about 0.03, most of them in ``json`` and
    ``pathlib``; a row loop with one builder call and one item-set
    comprehension per row made 2.03.  The count is exact and repeats run
    to run."""
    import sys

    from repro.trace.io import save_sequence
    from repro.trace.store import convert_csv_to_store

    seq = zipf_item_workload(20_000, 20, 64, seed=11, cooccurrence=0.4)
    csv_path = save_sequence(tmp_path / "trace.csv", seq)
    convert_csv_to_store(csv_path, tmp_path / "warm")  # warm: imports
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _dest, report = convert_csv_to_store(csv_path, tmp_path / "store")
    finally:
        sys.setprofile(previous)
    assert report.rows_loaded == len(seq) == 20_000
    assert calls / len(seq) <= 0.1, f"{calls} calls for {len(seq)} rows"


def test_sequence_construction_python_calls_per_row_stay_bounded():
    """Building a 20,000-row sequence from ``(server, time, items)``
    tuples and validating it makes at most 0.1 Python-level calls per
    row, every frame counted: the constructor transposes the rows once
    and checks them as columns, and builds no ``Request`` until
    ``requests`` is read.  It makes about 0.004; a ``Request`` per row,
    re-checked, then transposed again into the columns, made 7.0.  The
    count is exact and repeats run to run."""
    import sys

    from repro.cache.model import Request, RequestSequence

    source = zipf_item_workload(20_000, 20, 64, seed=11, cooccurrence=0.4)
    rows = [(r.server, r.time, tuple(r.items)) for r in source]
    RequestSequence(rows[:10], num_servers=20).validate()  # warm: imports
    built = Request.__post_init__.__code__
    calls = requests = 0

    def profile(frame, event, arg):
        nonlocal calls, requests
        if event == "call":
            calls += 1
            requests += frame.f_code is built

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        seq = RequestSequence(rows, num_servers=20)
        seq.validate()
    finally:
        sys.setprofile(previous)
    assert requests == 0, f"{requests} Requests built before `requests` was read"
    assert calls / len(rows) <= 0.1, f"{calls} calls for {len(rows)} rows"
    assert seq.requests == source.requests


def test_csv_load_python_calls_per_row_stay_bounded(tmp_path):
    """Loading a 20,000-row CSV into memory makes at most 0.1
    Python-level calls per row, every frame counted, and builds no
    ``Request``: the reader's column chunks are joined and handed to
    the sequence in one step.  It makes about 0.008; a ``Request`` per
    accepted row, re-checked by the constructor, made 7.0.  The count is
    exact and repeats run to run."""
    import sys

    from repro.cache.model import Request
    from repro.trace.io import load_sequence, save_sequence

    seq = zipf_item_workload(20_000, 20, 64, seed=11, cooccurrence=0.4)
    csv_path = save_sequence(tmp_path / "trace.csv", seq)
    load_sequence(csv_path)  # warm: imports
    built = Request.__post_init__.__code__
    calls = requests = 0

    def profile(frame, event, arg):
        nonlocal calls, requests
        if event == "call":
            calls += 1
            requests += frame.f_code is built

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        loaded = load_sequence(csv_path)
    finally:
        sys.setprofile(previous)
    assert requests == 0, f"{requests} Requests built by the loader"
    assert calls / len(seq) <= 0.1, f"{calls} calls for {len(seq)} rows"
    assert loaded == seq
