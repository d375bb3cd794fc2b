"""The one observer against the real engine.

* Observation never changes the answer: every leg of the observer, on
  every solve route, yields the plan, costs and reports of the
  unobserved solve (apart from the ``attribution`` the ledger asks for).
* The ledger's request positions come from the units' own rows; a
  property pins them to the timestamp search they replace, on every
  route, in memory and on a store.
* A process-pool worker hands over what it observed and keeps nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, package_rate
from repro.cache.optimal_dp import attribute_cost, solve_optimal
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine.resilience import ResilienceConfig
from repro.engine.sharding import solve_dp_greedy_sharded
from repro.obs import Observer
from repro.obs.ledger import MODE_ACTIONS
from repro.obs.telemetry import H_DISPATCH, H_SOLVE
from repro.trace.workload import zipf_item_workload

from ..conftest import multi_item_sequences, stored

THETA, ALPHA = 0.3, 0.8
_MODEL = CostModel(mu=2.0, lam=1.0)

LEGS = {
    "none": dict(),
    "spans": dict(spans=True),
    "runtime": dict(runtime=True),
    "ledger": dict(ledger=True),
    "all": dict(spans=True, runtime=True, ledger=True),
}

#: Solve routes: (driver, engine kwargs).  A ``memo`` route shares one
#: memo between the reference and the observed solve, so the observed
#: solve meets memo hits; the resilient route retries through a
#: deterministic crash storm.
ROUTES = {
    "serial": (solve_dp_greedy, dict()),
    "serial-memo": (solve_dp_greedy, dict(workers=1, memo="shared")),
    "process": (solve_dp_greedy, dict(workers=2)),
    "resilient": (
        solve_dp_greedy,
        dict(
            workers=2,
            resilience=ResilienceConfig(retries=3, chaos=FaultPlan(seed=5, crash=0.5)),
        ),
    ),
    "sharded-1": (solve_dp_greedy_sharded, dict(shards=1)),
    "sharded-3": (solve_dp_greedy_sharded, dict(shards=3)),
}


@pytest.fixture(scope="module")
def seq():
    return zipf_item_workload(160, 8, 10, seed=3, cooccurrence=0.4)


_REFERENCES: dict = {}


def _engine(route):
    driver, engine = ROUTES[route]
    engine = dict(engine)
    if engine.get("memo") == "shared":
        engine["memo"] = _REFERENCES.setdefault((route, "memo"), SolverMemo())
    return driver, engine


def _reference(seq, route):
    if route not in _REFERENCES:
        driver, engine = _engine(route)
        _REFERENCES[route] = driver(seq, _MODEL, theta=THETA, alpha=ALPHA, **engine)
    return _REFERENCES[route]


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("leg", list(LEGS))
def test_observation_does_not_change_the_answer(seq, leg, route):
    ref = _reference(seq, route)
    driver, engine = _engine(route)
    observer = Observer(sample_interval=10.0, **LEGS[leg])
    got = driver(seq, _MODEL, theta=THETA, alpha=ALPHA, observer=observer, **engine)

    assert got.total_cost == ref.total_cost  # exact, not approx
    assert got.plan == ref.plan
    stripped = [dataclasses.replace(r, attribution=None) for r in got.reports]
    assert stripped == list(ref.reports)
    assert all(r.attribution is None for r in ref.reports)
    assert all((r.attribution is not None) == observer.ledger for r in got.reports)

    # each leg observed the solve it did not perturb
    memo = "memo" in route
    if observer.spans:
        names = {r.name for r in observer.records()}
        assert {"phase1.similarity", "phase2.serve"} <= names
        assert memo or "phase2.solve" in names
    if observer.runtime:
        latency = observer.cumulative_latency()
        assert memo or latency[H_SOLVE]["count"] >= 1
        if engine.get("workers") == 2:
            assert latency[H_DISPATCH]["count"] >= 1
        if route == "resilient":
            assert observer.board.retries >= 1
    if observer.ledger:
        (run,) = observer.runs
        assert run.reconciliation_error <= 1e-9
    else:
        assert observer.runs == []


# ---------------------------------------------------------------------------
# the ledger's request positions
# ---------------------------------------------------------------------------
def _index_of(seq):
    """The timestamp -> request index search the ledger's positions
    replace: a binary search over the strictly increasing times."""
    times = np.asarray(seq.times_array, dtype=np.float64)

    def index_of(t: float) -> int:
        i = int(np.searchsorted(times, t))
        assert i < len(times) and times[i] == t, t
        return i

    return index_of


def _expected_charges(seq, model, alpha, reports):
    """Every charge of ``reports`` as ``(unit, index, action, amount)``:
    DP charges from the public :func:`attribute_cost`, single-sided ones
    from the reports' Observation-2 ``modes``, positions by timestamp."""
    index_of = _index_of(seq)
    charges = []
    for rep in reports:
        unit = tuple(sorted(rep.group))
        view = seq.group_view(rep.group)
        rate = package_rate(len(unit), alpha)
        res = solve_optimal(view, model, rate_multiplier=rate)
        for t, action, amount in attribute_cost(view, model, res, rate_multiplier=rate):
            charges.append((unit, index_of(t), action, amount))
        for t, mode, cost in rep.modes:
            charges.append((unit, index_of(t), MODE_ACTIONS[mode], cost))
    return sorted(charges)


_LEDGER_ROUTES = {
    "serial": (solve_dp_greedy, dict()),
    "process": (solve_dp_greedy, dict(workers=2)),
    "sharded": (solve_dp_greedy_sharded, dict(shards=2, workers=2)),
}


@settings(max_examples=16, deadline=None)
@given(
    seq=multi_item_sequences(max_requests=14),
    route=st.sampled_from(sorted(_LEDGER_ROUTES)),
    on_store=st.booleans(),
    alpha=st.sampled_from([0.5, 0.8]),
)
def test_ledger_positions_match_the_timestamp_search(seq, route, on_store, alpha):
    model = CostModel(mu=1.0, lam=2.0)
    driver, engine = _LEDGER_ROUTES[route]
    with stored(seq) as store:
        source = store if on_store else seq
        observer = Observer(ledger=True)
        result = driver(source, model, theta=0.2, alpha=alpha, observer=observer, **engine)
        ledger = observer.runs[-1].ledger
        got = sorted(
            (e.unit, e.request_index, e.action, e.amount) for e in ledger.entries
        )
        assert got == _expected_charges(source, model, alpha, result.reports)
        assert ledger.reconcile(result.total_cost) <= 1e-9
        # every position names a row carrying one of its unit's items
        for unit, index, _, _ in got:
            assert any(index in set(source.item_indices(d).tolist()) for d in unit)


# ---------------------------------------------------------------------------
# the process-pool worker's one payload
# ---------------------------------------------------------------------------
def test_process_worker_ships_and_clears_its_spans(seq):
    import functools

    from repro.core.dp_greedy import _unit_reporter
    from repro.engine import parallel, resilience
    from repro.obs import active, install

    plan = solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA).plan
    units = parallel._plan_units(plan)[:3]
    installed = active()
    recipe = functools.partial(
        _unit_reporter, seq, _MODEL, ALPHA, {}, build_schedule=False, attribute=False
    )
    resilience._init_worker(recipe, (True, True, False))
    try:
        for unit in units:
            reports, payload = resilience._serve_in_worker((unit,), 1, None)
            _pid, records, hists, _peak, _cpu = payload
            # each payload carries only its own dispatch's spans ...
            assert [r.args["unit"] for r in records] == [resilience._unit_label(unit)]
            assert hists[H_SOLVE]["count"] == 1
            # ... and the worker keeps none of them
            assert resilience._WORKER_OBSERVER.records() == ()
    finally:
        resilience._init_worker(recipe, None)
        install(installed)
