"""The fault-injection harness must be deterministic and well-validated.

Chaos is only useful for testing if the same plan over the same unit
labels always injects the same faults -- every test of the resilient
dispatcher depends on that.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.chaos import CHAOS_ENV, ChaosError, FaultPlan, chaos_from_env

UNITS = [f"pkg({a},{b})" for a in range(6) for b in range(a + 1, 7)] + [
    f"item({d})" for d in range(30)
]


class TestFaultPlan:
    def test_draw_is_deterministic_and_uniformish(self):
        plan = FaultPlan(seed=7)
        draws = [plan.draw(u) for u in UNITS]
        assert draws == [plan.draw(u) for u in UNITS]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == len(draws)  # distinct labels, distinct draws

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1)
        b = FaultPlan(seed=2)
        assert [a.draw(u) for u in UNITS] != [b.draw(u) for u in UNITS]

    def test_fault_fraction_roughly_matches(self):
        plan = FaultPlan(seed=3, crash=0.3)
        hit = sum(1 for u in UNITS if plan.fault_for(u, 1) == "crash")
        assert 0.1 * len(UNITS) <= hit <= 0.5 * len(UNITS)

    def test_faults_stop_after_attempts(self):
        plan = FaultPlan(seed=3, crash=1.0, attempts=2)
        assert plan.fault_for(UNITS[0], 1) == "crash"
        assert plan.fault_for(UNITS[0], 2) == "crash"
        assert plan.fault_for(UNITS[0], 3) is None

    def test_cumulative_kinds_partition_the_draw(self):
        plan = FaultPlan(seed=5, crash=0.25, kill=0.25, delay=0.25, corrupt=0.25)
        kinds = {plan.fault_for(u, 1) for u in UNITS}
        assert kinds == {"crash", "kill", "delay", "corrupt"}

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan(crash=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(crash=0.7, kill=0.7)
        with pytest.raises(ValueError, match="attempts"):
            FaultPlan(attempts=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultPlan(delay_seconds=-1.0)

    def test_before_solve_crash_raises(self):
        plan = FaultPlan(seed=0, crash=1.0)
        with pytest.raises(ChaosError, match="crash"):
            plan.before_solve("pkg(0,1)", 1, in_subprocess=False)

    def test_kill_downgrades_to_raise_outside_subprocess(self):
        # os._exit in a thread/parent would take pytest down with it
        plan = FaultPlan(seed=0, kill=1.0)
        with pytest.raises(ChaosError, match="kill"):
            plan.before_solve("pkg(0,1)", 1, in_subprocess=False)

    def test_corrupt_flags_instead_of_raising(self):
        plan = FaultPlan(seed=0, corrupt=1.0)
        assert plan.before_solve("pkg(0,1)", 1, in_subprocess=False) is True

    def test_clean_unit_passes_through(self):
        plan = FaultPlan(seed=0)  # all fractions zero
        assert plan.before_solve("pkg(0,1)", 1, in_subprocess=False) is False

    def test_corrupt_report_is_nonfinite(self):
        from repro.core.dp_greedy import serve_unit
        from repro.cache.model import CostModel, RequestSequence

        seq = RequestSequence(
            [(0, 1.0, {1}), (1, 2.0, {1})], num_servers=2
        )
        report = serve_unit(seq, (1,), CostModel(mu=1, lam=1), 0.8)
        bad = FaultPlan.corrupt_report(report)
        assert bad.package_cost != bad.package_cost  # NaN
        assert report.package_cost == report.package_cost  # original intact

    def test_chaos_error_survives_pickling(self):
        # process pools re-raise worker exceptions via pickle round-trip
        err = ChaosError("pkg(0,1)", 3, kind="kill")
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, ChaosError)
        assert back.unit == "pkg(0,1)"
        assert back.attempt == 3
        assert back.kind == "kill"


class TestChaosFromEnv:
    def test_absent_env_is_none(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert chaos_from_env() is None

    def test_parses_spec(self):
        plan = chaos_from_env("seed=7,crash=0.2,delay=0.1,delay_seconds=0.01")
        assert plan == FaultPlan(
            seed=7, crash=0.2, delay=0.1, delay_seconds=0.01
        )

    def test_env_lookup(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "seed=9,corrupt=0.5,attempts=2")
        plan = chaos_from_env()
        assert plan == FaultPlan(seed=9, corrupt=0.5, attempts=2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            chaos_from_env("seed=1,explode=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="crash"):
            chaos_from_env("crash=lots")
