"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares numpy as the one runtime dependency; scipy
is a test extra, used only by the ILP oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent(
    """
    import asyncio
    import os
    import sys
    import tempfile

    sys.modules["scipy"] = None  # every scipy import now raises ImportError

    import repro
    from repro.serve import ServeConfig, ServingEngine
    from repro.serve.loadgen import replay_sequence
    from repro.trace.io import save_sequence
    from repro.trace.workload import zipf_item_workload

    model = repro.CostModel(mu=1.0, lam=1.0)
    seq = zipf_item_workload(200, 5, 8, seed=3, cooccurrence=0.4)
    solved = repro.solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)

    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "trace.csv")
        save_sequence(csv, seq)
        path, _report = repro.convert_csv_to_store(csv, os.path.join(tmp, "t.store"))
        stored = repro.solve_dp_greedy(
            repro.TraceStore.open(path), model, theta=0.3, alpha=0.8
        )
    assert stored.total_cost == solved.total_cost

    async def serve():
        engine = ServingEngine(
            model, theta=0.3, alpha=0.8, origin=seq.origin,
            config=ServeConfig(max_wait=0.0, chaos=repro.FaultPlan()),
        )
        await engine.start()
        report = await replay_sequence(engine, seq, window=16)
        return report, await engine.drain()

    report, total = asyncio.run(serve())
    online = repro.solve_online_dp_greedy(seq, model, theta=0.3, alpha=0.8)
    assert report.served == len(seq)
    assert total == online.total_cost
    assert "scipy" not in {m.split(".")[0] for m in sys.modules if sys.modules[m]}
    print("ok")
    """
)


def test_import_solve_store_and_serve_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("repro").__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_CHAOS", None)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
