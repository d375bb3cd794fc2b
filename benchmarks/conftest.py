"""Benchmark-suite configuration.

Each benchmark regenerates one paper artefact (figure/claim) through the
same harness the CLI uses, then asserts the *shape* of the result -- who
wins, where the curve bends -- so a performance run doubles as an
end-to-end reproduction check.  Heavy harnesses run one round
(``pedantic``); micro-benchmarks of the solvers run normally.

The benchmarks assert; they record nothing.  The committed perf record
is ``BENCH_perfbench.json`` at the repository root, written from
``perfbench/run.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the ILP certification benchmark times the test-side oracle in
# tests/oracles.py; make the repository root importable however pytest
# was started
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy harness with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
