"""The fault-tolerant dispatcher must absorb faults without changing results.

Every test pins the resilient engine's output -- under injected
crashes, worker kills, delays, timeouts, and corrupted results -- to
the classic serial solve, bit-for-bit.  Chaos is always pinned
explicitly (a ``FaultPlan`` or ``chaos=False``) so the suite stays
deterministic even when CI exports ``REPRO_CHAOS``.
"""

from __future__ import annotations

import ast
import logging
import random
from concurrent.futures import BrokenExecutor
from pathlib import Path

import pytest

from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine import resilience
from repro.engine.resilience import ResilienceConfig
from repro.errors import (
    ReproError,
    UnitSolveError,
    UnitTimeoutError,
)
from repro.trace.workload import zipf_item_workload

THETA, ALPHA = 0.2, 0.8


def _workload(n=200, servers=12, items=12, seed=5):
    return zipf_item_workload(n, servers, items, seed=seed)


@pytest.fixture(scope="module")
def seq():
    return _workload()


@pytest.fixture(scope="module")
def baseline(seq):
    from repro.cache.model import CostModel

    return solve_dp_greedy(
        seq, CostModel(mu=1.0, lam=1.0), theta=THETA, alpha=ALPHA, memo=False
    )


def _solve(seq, unit_model, **kw):
    kw.setdefault("memo", False)
    return solve_dp_greedy(seq, unit_model, theta=THETA, alpha=ALPHA, **kw)


@pytest.fixture
def dead_pool(monkeypatch):
    """Every process pool is down from its first submit."""

    class _DeadExecutor:
        def submit(self, *a, **k):
            raise BrokenExecutor("process pool is down")

        def shutdown(self, *a, **k):
            pass

    monkeypatch.setattr(resilience, "_make_executor", lambda *a, **kw: _DeadExecutor())


#: The two rungs: ``workers=1`` is serial, ``workers=2`` a process pool.
POOLS = pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])


class TestNoChaosEquivalence:
    """resilience= on, chaos off: a pure pass-through on both rungs."""

    @POOLS
    def test_identical_at_every_pool(self, seq, baseline, unit_model, workers):
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=False),
            workers=workers,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        es = got.engine_stats
        assert (es.retries, es.timeouts, es.pool_fallbacks, es.units_failed) \
            == (0, 0, 0, 0)

    def test_resilience_true_uses_defaults(self, seq, baseline, unit_model,
                                           monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        got = _solve(seq, unit_model, resilience=True, workers=2)
        assert got.total_cost == baseline.total_cost


class TestChaosEquivalence:
    """Injected faults are absorbed; the answer never changes."""

    @POOLS
    def test_crashes_at_every_pool(self, seq, baseline, unit_model, workers):
        plan = FaultPlan(seed=7, crash=0.5)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=workers,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports

    def test_acceptance_twenty_pct_crash_process_pool(self, seq, baseline,
                                                      unit_model):
        # the issue's acceptance criterion: 20% of unit solves crash
        # under a process pool; the run completes bit-identically with
        # nonzero retry counters
        plan = FaultPlan(seed=20190806, crash=0.2)
        # the seeded draw must actually hit >= 1 of this workload's units
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        assert got.engine_stats.retries > 0

    def test_corrupt_results_are_audited_and_retried(self, seq, baseline,
                                                     unit_model):
        plan = FaultPlan(seed=2, corrupt=0.6)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.engine_stats.retries > 0

    def test_delay_with_timeout_retries_to_identical(self, seq, baseline,
                                                     unit_model):
        plan = FaultPlan(seed=11, delay=0.6, delay_seconds=0.3)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan, unit_timeout=0.05),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        es = got.engine_stats
        assert es.timeouts >= 1
        assert es.retries >= 1

    def test_memoized_rerun_skips_dispatch_entirely(self, seq, baseline,
                                                    unit_model):
        plan = FaultPlan(seed=7, crash=0.5)
        memo = SolverMemo()
        cfg = ResilienceConfig(chaos=plan)
        first = _solve(seq, unit_model, resilience=cfg, workers=2, memo=memo)
        second = _solve(seq, unit_model, resilience=cfg, workers=2, memo=memo)
        assert first.total_cost == baseline.total_cost
        assert second.total_cost == baseline.total_cost
        assert second.engine_stats.dispatched == 0
        assert second.engine_stats.retries == 0  # nothing dispatched


class TestDegradationLadder:
    def test_worker_kill_degrades_process_to_serial(self, seq, baseline,
                                                    unit_model):
        # os._exit in a pool worker -> BrokenProcessPool -> serial rung,
        # which cannot break: one step down the ladder, the exact answer
        plan = FaultPlan(seed=3, kill=0.4)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        assert got.engine_stats.pool_fallbacks == 1

    def test_ladder_reaches_serial(self, seq, baseline, unit_model, dead_pool):
        # a pool that is down from the first submit: the ladder lands on
        # serial, which cannot break, and still produces the exact answer
        plan = FaultPlan(seed=3, kill=0.4)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.engine_stats.pool_fallbacks == 1  # process -> serial

    def test_workers_one_runs_serial_rung(self, seq, baseline, unit_model):
        plan = FaultPlan(seed=7, crash=0.5)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=1,
        )
        assert got.total_cost == baseline.total_cost
        assert got.engine_stats.retries > 0


class TestDefaultPath:
    """Solves without ``resilience=`` run the dispatcher with no retries,
    no timeout and no fault injection."""

    def test_unit_failure_surfaces_as_unit_solve_error(self, seq, baseline,
                                                       unit_model, monkeypatch):
        import repro.engine.parallel as parallel

        unit_reporter = parallel._unit_reporter

        def broken_reporter(*args, **kwargs):
            report = unit_reporter(*args, **kwargs)

            def broken_solver(unit):
                if len(unit) == 1:
                    raise RuntimeError("solver bug")
                return report(unit)

            return broken_solver

        monkeypatch.setattr(parallel, "_unit_reporter", broken_reporter)
        with pytest.raises(UnitSolveError) as info:
            _solve(seq, unit_model)
        err = info.value
        # the serial rung runs plan order: packages, then singletons
        assert err.unit == f"item({baseline.plan.singletons[0]})"
        assert err.attempts == 1
        assert isinstance(err.__cause__, RuntimeError)

    def test_dead_process_pool_degrades(self, seq, baseline, unit_model,
                                        dead_pool):
        got = _solve(seq, unit_model, workers=2)
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        es = got.engine_stats
        assert (es.pool, es.pool_fallbacks, es.retries) == ("process", 1, 0)


class TestUnenforcedTimeout:
    """The serial rung runs every dispatch to completion, so it cannot
    honour ``unit_timeout``; it says so once per call, naming the fix."""

    CONFIG = ResilienceConfig(unit_timeout=5.0, chaos=False)

    @staticmethod
    def _warnings(caplog):
        return [
            r for r in caplog.records
            if r.name == "repro.engine.resilience" and "not enforced" in r.getMessage()
        ]

    def test_serial_rung_warns_once(self, seq, baseline, unit_model, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.engine.resilience"):
            got = _solve(seq, unit_model, resilience=self.CONFIG)
        assert got.reports == baseline.reports
        (record,) = self._warnings(caplog)
        assert record.levelno == logging.WARNING
        assert "workers >= 2" in record.getMessage()

    def test_fall_from_a_broken_pool_warns_once(self, seq, baseline, unit_model,
                                                caplog, dead_pool):
        with caplog.at_level(logging.WARNING, logger="repro.engine.resilience"):
            got = _solve(seq, unit_model, resilience=self.CONFIG, workers=2)
        assert got.reports == baseline.reports
        assert got.engine_stats.pool_fallbacks == 1
        assert len(self._warnings(caplog)) == 1

    def test_process_pool_enforces_it_silently(self, seq, unit_model, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.engine.resilience"):
            got = _solve(seq, unit_model, resilience=self.CONFIG, workers=2)
        assert got.engine_stats.pool == "process"
        assert self._warnings(caplog) == []

    def test_sharded_default_config_sets_no_timeout(self, seq, baseline, caplog,
                                                     monkeypatch):
        from repro.cache.model import CostModel
        from repro.engine.sharding import solve_dp_greedy_sharded

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro.engine.resilience"):
            got = solve_dp_greedy_sharded(
                seq, CostModel(mu=1.0, lam=1.0), theta=THETA, alpha=ALPHA,
                shards=4,
            )
        assert got.total_cost == baseline.total_cost
        assert [r for r in caplog.records if r.name == "repro.engine.resilience"] == []


class TestOnUnitError:
    # attempts=99 means the fault never heals: retries are guaranteed
    # exhausted, which is exactly what these policies are about
    PLAN = FaultPlan(seed=7, crash=0.5, attempts=99)

    def test_raise_surfaces_unit_solve_error(self, seq, unit_model):
        with pytest.raises(UnitSolveError, match="attempt"):
            _solve(
                seq, unit_model,
                resilience=ResilienceConfig(
                    chaos=self.PLAN, retries=1, on_unit_error="raise"
                ),
                workers=2,
            )

    def test_raise_surfaces_unit_timeout_error(self, seq, unit_model):
        plan = FaultPlan(seed=11, delay=0.6, delay_seconds=0.5, attempts=99)
        with pytest.raises(UnitTimeoutError, match="timed out"):
            _solve(
                seq, unit_model,
                resilience=ResilienceConfig(
                    chaos=plan, retries=1, unit_timeout=0.05,
                    on_unit_error="raise",
                ),
                workers=2,
            )

    def test_errors_are_repro_errors_with_context(self, seq, unit_model):
        try:
            _solve(
                seq, unit_model,
                resilience=ResilienceConfig(
                    chaos=self.PLAN, retries=1, on_unit_error="raise"
                ),
                workers=2,
            )
        except UnitSolveError as err:
            assert isinstance(err, ReproError)
            assert err.unit.startswith(("pkg(", "item("))
            assert err.attempts == 2  # retries=1 -> two tries
        else:
            pytest.fail("expected UnitSolveError")

    def test_skip_drops_units_and_counts_them(self, seq, baseline, unit_model):
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(
                chaos=self.PLAN, retries=1, on_unit_error="skip"
            ),
            workers=2,
        )
        es = got.engine_stats
        assert es.units_failed > 0
        base_groups = {r.group for r in baseline.reports}
        got_groups = {r.group for r in got.reports}
        assert got_groups < base_groups
        assert len(base_groups - got_groups) == es.units_failed
        # the surviving groups' reports are untouched
        by_group = {r.group: r for r in baseline.reports}
        assert all(r == by_group[r.group] for r in got.reports)
        assert got.total_cost == sum(r.total for r in got.reports)

    def test_degrade_heals_on_trusted_serial_substrate(self, seq, baseline,
                                                       unit_model):
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(
                chaos=self.PLAN, retries=1, on_unit_error="degrade"
            ),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports

    # The serial rung serves every unit as its own dispatch: each unit
    # draws its own fault by its own label, fails alone, and is retried
    # and settled alone.
    SERIAL = pytest.mark.parametrize("workers", [1], ids=["serial"])

    def _faulting(self, baseline):
        """The plan's units whose own label draws a fault."""
        from repro.engine.parallel import _plan_units
        from repro.engine.resilience import _unit_label

        units = _plan_units(baseline.plan)
        faulting = [u for u in units if self.PLAN.fault_for(_unit_label(u), 1)]
        # the workload must exercise isolation: some units fault, some not
        assert 0 < len(faulting) < len(units)
        return faulting

    @SERIAL
    def test_skip_drops_exactly_the_faulting_units(self, seq, baseline,
                                                   unit_model, workers):
        faulting = self._faulting(baseline)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(
                chaos=self.PLAN, retries=1, on_unit_error="skip"
            ),
            workers=workers,
        )
        dropped = {frozenset(u) for u in faulting}
        assert [r.group for r in got.reports] == [
            r.group for r in baseline.reports if r.group not in dropped
        ]
        by_group = {r.group: r for r in baseline.reports}
        assert all(r == by_group[r.group] for r in got.reports)
        es = got.engine_stats
        assert (es.pool, es.units_failed) == ("serial", len(faulting))
        assert es.retries == len(faulting)  # retries=1: one per faulting unit

    @SERIAL
    def test_raise_names_a_faulting_unit(self, seq, baseline, unit_model,
                                         workers):
        from repro.engine.resilience import _unit_label

        labels = {_unit_label(u) for u in self._faulting(baseline)}
        with pytest.raises(UnitSolveError) as info:
            _solve(
                seq, unit_model,
                resilience=ResilienceConfig(
                    chaos=self.PLAN, retries=1, on_unit_error="raise"
                ),
                workers=workers,
            )
        err = info.value
        assert err.unit.startswith(("pkg(", "item("))
        assert err.unit in labels
        assert err.attempts == 2  # retries=1 -> two tries

    @SERIAL
    def test_degrade_heals_every_faulting_unit(self, seq, baseline, unit_model,
                                               workers):
        faulting = self._faulting(baseline)
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(
                chaos=self.PLAN, retries=1, on_unit_error="degrade"
            ),
            workers=workers,
        )
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        es = got.engine_stats
        assert (es.pool, es.units_failed) == ("serial", 0)
        assert es.retries == len(faulting)


class TestConfig:
    def test_coerce(self):
        assert ResilienceConfig.coerce(None) is None
        assert ResilienceConfig.coerce(False) is None
        assert ResilienceConfig.coerce(True) == ResilienceConfig()
        cfg = ResilienceConfig(retries=5)
        assert ResilienceConfig.coerce(cfg) is cfg
        with pytest.raises(TypeError, match="resilience"):
            ResilienceConfig.coerce("yes")

    def test_validation(self):
        with pytest.raises(ValueError, match="unit_timeout"):
            ResilienceConfig(unit_timeout=0.0)
        with pytest.raises(ValueError, match="retries"):
            ResilienceConfig(retries=-1)
        with pytest.raises(ValueError, match="on_unit_error"):
            ResilienceConfig(on_unit_error="panic")
        with pytest.raises(ValueError, match="ambiguous"):
            ResilienceConfig(chaos=True)
        with pytest.raises(TypeError, match="chaos"):
            ResilienceConfig(chaos="0.5")

    def test_fields_are_the_four_policies(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(ResilienceConfig)] == [
            "unit_timeout", "retries", "on_unit_error", "chaos",
        ]

    def test_backoff_delays_are_pinned(self):
        # exponential from 0.02 s, capped at 0.5 s, with a seeded +-25%
        # jitter: the same delays, bit for bit, as when the three were
        # ResilienceConfig fields with these defaults
        rng = random.Random(7)
        assert [resilience._backoff_delay(k, rng) for k in range(1, 7)] == [
            0.018238327648331627,
            0.03301698347849004,
            0.08603737892159416,
            0.12579490293340342,
            0.3257411206890703,
            0.46642222922814636,
        ]

    def test_env_chaos_applies_when_unpinned(self, seq, baseline, unit_model,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=7,crash=0.5")
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.engine_stats.retries > 0

    def test_chaos_false_ignores_env(self, seq, baseline, unit_model,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=7,crash=1.0,attempts=99")
        got = _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=False),
            workers=2,
        )
        assert got.total_cost == baseline.total_cost
        assert got.engine_stats.retries == 0

    @pytest.mark.parametrize(
        "engine",
        [dict(), dict(workers=2)],
        ids=["default", "process"],
    )
    def test_env_chaos_stays_out_of_solves_without_resilience(
        self, seq, baseline, unit_model, monkeypatch, engine
    ):
        # every solve runs through the dispatcher, but only one that
        # asked for resilience may inherit the env fault plan
        monkeypatch.setenv("REPRO_CHAOS", "seed=7,crash=1.0,attempts=99")
        got = _solve(seq, unit_model, **engine)
        assert got.total_cost == baseline.total_cost
        assert got.reports == baseline.reports
        assert got.engine_stats.retries == 0


class TestObservability:
    def test_counters_reach_metrics(self, seq, unit_model):
        from repro.obs import Observer

        observer = Observer(ledger=True)
        plan = FaultPlan(seed=7, crash=0.5)
        _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2, observer=observer,
        )
        counters = observer.runs[-1].counters
        assert counters["engine.retries"] > 0
        assert counters["engine.timeouts"] == 0
        assert counters["engine.pool_fallbacks"] == 0
        assert counters["engine.units_failed"] == 0

    def test_retry_spans_recorded(self, seq, unit_model):
        from repro.obs import Observer

        observer = Observer(spans=True)
        plan = FaultPlan(seed=7, crash=0.5)
        _solve(
            seq, unit_model,
            resilience=ResilienceConfig(chaos=plan),
            workers=2, observer=observer,
        )
        names = [s.name for s in observer.records()]
        assert "engine.retry" in names
        solve_attempts = [
            s.args.get("attempt")
            for s in observer.records()
            if s.name == "phase2.solve"
        ]
        assert any(a is not None and a > 1 for a in solve_attempts)


class TestModuleShape:
    """The executor stands alone: the planner imports it, never the
    other way round, and neither hides an import in a function body."""

    @staticmethod
    def _imports(name):
        """``(tree, [(module, node)])`` for every import statement of
        ``engine/<name>.py``, function bodies included, relative names
        made absolute (``from . import x`` is ``repro.engine.x``)."""
        source = Path(resilience.__file__).with_name(f"{name}.py").read_text()
        tree = ast.parse(source)
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(alias.name, node) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("", "repro.engine", "repro")[node.level]
                module = ".".join(filter(None, (base, node.module)))
                if node.module is None:
                    found += [(f"{module}.{alias.name}", node) for alias in node.names]
                else:
                    found.append((module, node))
        return tree, found

    def test_executor_imports_nothing_from_the_planner(self):
        _tree, found = self._imports("resilience")
        assert [
            (module, node.lineno)
            for module, node in found
            if module.startswith("repro.engine.parallel")
        ] == []

    def test_planner_imports_the_executor_at_module_top(self):
        tree, found = self._imports("parallel")
        top = [module for module, node in found if node in tree.body]
        nested = [
            (module, node.lineno)
            for module, node in found
            if node not in tree.body and module.startswith("repro.engine.resilience")
        ]
        assert "repro.engine.resilience" in top
        assert nested == []
