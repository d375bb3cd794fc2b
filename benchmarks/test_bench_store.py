"""Large-trace smoke: the out-of-core store at the million-request scale.

Synthesises a ~10^6-row CSV trace, then converts and solve-shards it in
a child interpreter whose *address space* is capped with
``resource.setrlimit(RLIMIT_AS)`` -- materialising the full Python row
list would blow the ceiling, so passing at all proves the converter
streams and the solver reads the memory-mapped columns out-of-core.
(``RLIMIT_RSS`` is a no-op on modern Linux; the address-space ceiling is
the enforceable proxy.)

Knobs: ``LARGE_TRACE_ROWS`` (default 1_000_000) and
``LARGE_TRACE_AS_MB`` (default 2048) resize the smoke for slower runners.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_once

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.sharding import solve_dp_greedy_sharded
from repro.trace.io import load_sequence
from repro.trace.store import TraceStore, convert_csv_to_store

pytestmark = pytest.mark.large_trace

MODEL = CostModel(mu=1.0, lam=1.0)
ROWS = int(os.environ.get("LARGE_TRACE_ROWS", "1000000"))
AS_MB = int(os.environ.get("LARGE_TRACE_AS_MB", "2048"))
NUM_SERVERS = 8
NUM_ITEMS = 64

# Runs inside the capped child: convert the CSV, mmap-open the store,
# sharded-solve, report timings + peak RSS as one JSON line.
_CHILD = r"""
import json, resource, sys, time

limit = int(sys.argv[3]) * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

from repro.cache.model import CostModel
from repro.engine.sharding import solve_dp_greedy_sharded
from repro.trace.store import TraceStore, convert_csv_to_store

t0 = time.perf_counter()
dest, report = convert_csv_to_store(sys.argv[1], sys.argv[2], on_error="raise")
t1 = time.perf_counter()
seq = TraceStore.open(dest)
result = solve_dp_greedy_sharded(
    seq, CostModel(mu=1.0, lam=1.0), theta=0.3, alpha=0.8,
    shards=4, workers=2,
)
t2 = time.perf_counter()
print(json.dumps({
    "rows_loaded": report.rows_loaded,
    "convert_seconds": t1 - t0,
    "solve_seconds": t2 - t1,
    "total_cost": result.total_cost,
    "units": result.engine_stats.units,
    "shards": result.engine_stats.shards,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def _write_synth_csv(path: Path, rows: int, seed: int = 0) -> Path:
    """Stream a synthetic single-item Zipf trace straight to disk."""
    rng = np.random.default_rng(seed)
    chunk = 100_000
    with open(path, "w") as fh:
        fh.write(f"# num_servers={NUM_SERVERS}\n")
        fh.write("server,time,items\n")
        written = 0
        while written < rows:
            k = min(chunk, rows - written)
            srv = rng.integers(0, NUM_SERVERS, size=k)
            its = rng.zipf(1.4, size=k) % NUM_ITEMS
            fh.writelines(
                f"{srv[j]},{(written + j) * 0.25 + 0.5!r},{its[j]}\n"
                for j in range(k)
            )
            written += k
    return path


def _run_capped_child(csv_path: Path, store_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(csv_path), str(store_path), str(AS_MB)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode == 0, (
        f"capped child failed (AS ceiling {AS_MB} MB?):\n{proc.stderr[-4000:]}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_store_million_rows_bounded_rss(benchmark, tmp_path):
    csv_path = _write_synth_csv(tmp_path / "large.csv", ROWS)
    out = run_once(
        benchmark, _run_capped_child, csv_path, tmp_path / "store"
    )
    assert out["rows_loaded"] == ROWS
    assert out["shards"] == 4
    assert out["total_cost"] > 0
    # the whole convert+solve stayed under the address-space ceiling,
    # and the resident peak must sit well below the row-list regime
    assert out["maxrss_mb"] < AS_MB


def test_bench_store_smoke_bit_identity(benchmark, tmp_path):
    """At an overlapping (in-memory-feasible) size the store-backed
    sharded total is bit-identical to the classic solver's."""
    rows = min(ROWS, 20_000)
    csv_path = _write_synth_csv(tmp_path / "small.csv", rows)
    dest, _ = convert_csv_to_store(csv_path, tmp_path / "store-small")
    sseq = TraceStore.open(dest)
    got = run_once(
        benchmark,
        solve_dp_greedy_sharded,
        sseq, MODEL, theta=0.3, alpha=0.8, shards=4,
    )
    ref = solve_dp_greedy(load_sequence(csv_path), MODEL, theta=0.3, alpha=0.8)
    assert got.total_cost == ref.total_cost
    assert got.reports == ref.reports
