"""Tests for the full two-phase DP_Greedy algorithm."""

from __future__ import annotations

import dataclasses
import tempfile

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, RequestSequence, package_rate
from repro.cache.optimal_dp import optimal_cost
from repro.cache.schedule import validate_schedule
from repro.core.baselines import solve_optimal_nonpacking
from repro.core.dp_greedy import (
    SingleSidedDecision,
    serve_package,
    serve_singleton,
    single_sided_decisions,
    solve_dp_greedy,
)
from repro.experiments.running_example import running_example_sequence
from repro.trace.store import TraceStore, write_store

from ..conftest import cost_models, multi_item_sequences

ALPHAS = st.sampled_from([0.5, 0.8, 1.0])


@pytest.fixture
def example():
    return running_example_sequence()


class TestRunningExample:
    """The Section V.C walk-through, component by component."""

    def test_packs_the_pair_at_theta_04(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.plan.packages == (frozenset({1, 2}),)

    def test_package_cost_is_certified_optimum(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        report = res.reports[0]
        # certified optimum 9.60 (the paper's example arithmetic says 8.96;
        # see DESIGN.md for the documented discrepancy)
        assert report.package_cost == pytest.approx(9.6)

    def test_single_sided_greedy_costs_match_paper(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        report = res.reports[0]
        by_time = {t: (m, c) for t, m, c in report.modes}
        assert by_time[0.5] == ("transfer", pytest.approx(1.5))
        assert by_time[2.6] == ("package", pytest.approx(1.6))
        assert by_time[1.1] == ("transfer", pytest.approx(1.3))
        assert by_time[3.2] == ("package", pytest.approx(1.6))
        assert report.single_sided_cost == pytest.approx(3.1 + 2.9)

    def test_total_and_ave_cost(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.total_cost == pytest.approx(9.6 + 6.0)
        assert res.denominator == 10  # |d1| + |d2| = 5 + 5
        assert res.ave_cost == pytest.approx(15.6 / 10)

    def test_high_theta_disables_packing(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.9, alpha=0.8)
        assert res.plan.packages == ()
        opt = solve_optimal_nonpacking(example, unit_model)
        assert res.total_cost == pytest.approx(opt.total_cost)
        assert res.ave_cost == pytest.approx(opt.ave_cost)

    def test_package_schedule_is_feasible(self, example, unit_model):
        res = solve_dp_greedy(
            example, unit_model, theta=0.4, alpha=0.8, build_schedules=True
        )
        report = res.reports[0]
        co = example.restrict_to_items({1, 2}, mode="all")
        from repro.cache.model import SingleItemView

        pseudo = SingleItemView(
            servers=co.servers, times=co.times,
            num_servers=co.num_servers, origin=co.origin,
        )
        validate_schedule(report.package_schedule, pseudo)
        assert report.package_schedule.cost(unit_model) == pytest.approx(9.6)

    def test_item_costs_mirror_algorithm1_booking(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        costs = res.item_costs()
        assert costs[1] == 0.0
        assert costs[2] == pytest.approx(res.total_cost)

    def test_report_lookup(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.report_for(frozenset({1, 2})).group == {1, 2}
        with pytest.raises(KeyError):
            res.report_for(frozenset({9}))


class TestServingUnits:
    def test_serve_singleton_equals_optimal(self, example, unit_model):
        from repro.cache.optimal_dp import optimal_cost

        rep = serve_singleton(example, 1, unit_model)
        assert rep.package_cost == pytest.approx(
            optimal_cost(example.restrict_to_item(1), unit_model)
        )
        assert rep.single_sided_cost == 0.0
        assert rep.num_cooccurrence == 5

    def test_serve_package_rejects_singleton(self, example, unit_model):
        with pytest.raises(ValueError, match="two items"):
            serve_package(example, frozenset({1}), unit_model, alpha=0.8)

    def test_serve_package_counts(self, example, unit_model):
        rep = serve_package(example, frozenset({1, 2}), unit_model, alpha=0.8)
        assert rep.num_cooccurrence == 3
        assert rep.num_single_sided == 4
        assert rep.total == rep.package_cost + rep.single_sided_cost

    def test_three_item_package(self, unit_model):
        seq = RequestSequence(
            [
                (0, 1.0, {1, 2, 3}),
                (1, 2.0, {1, 2, 3}),
                (0, 3.0, {1}),
                (1, 4.0, {2, 3}),
            ],
            num_servers=2,
        )
        rep = serve_package(seq, frozenset({1, 2, 3}), unit_model, alpha=0.5)
        # package rate = alpha * k = 1.5; ship constant = 1.5 * lam
        assert rep.num_cooccurrence == 2
        assert rep.num_single_sided == 2
        # the {2,3} node charges each of its two items separately
        assert len(rep.modes) == 3


class TestParameterValidation:
    def test_alpha_validation(self, example, unit_model):
        with pytest.raises(ValueError, match="alpha"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=1.2)

    def test_unknown_packing_mode(self, example, unit_model):
        with pytest.raises(ValueError, match="packing"):
            solve_dp_greedy(
                example, unit_model, theta=0.3, alpha=0.8, packing="bogus"
            )

    def test_groups_mode_runs(self, unit_model):
        seq = RequestSequence(
            [(0, float(i + 1), {1, 2, 3}) for i in range(6)],
            num_servers=2,
        )
        res = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, packing="groups"
        )
        assert res.plan.packages == (frozenset({1, 2, 3}),)
        assert res.total_cost > 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_total_is_sum_of_reports(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert res.total_cost == pytest.approx(sum(r.total for r in res.reports))

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_denominator_is_item_request_count(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert res.denominator == seq.total_item_requests()

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_theta_one_equals_nonpacking_optimal(self, seq, model):
        """With theta = 1 nothing can pack (J <= 1), so DP_Greedy reduces
        to the per-item optimal baseline."""
        res = solve_dp_greedy(seq, model, theta=1.0, alpha=0.8)
        opt = solve_optimal_nonpacking(seq, model)
        assert res.total_cost == pytest.approx(opt.total_cost)

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_every_group_covered_once(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        covered = sorted(d for r in res.reports for d in r.group)
        assert covered == sorted(seq.items)


class TestExternalPlan:
    def test_supplied_plan_skips_phase1(self, example, unit_model):
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(
            packages=(frozenset({1, 2}),),
            singletons=(),
            similarity={frozenset({1, 2}): 0.99},
        )
        # theta = 1 would normally pack nothing; the plan overrides
        res = solve_dp_greedy(
            example, unit_model, theta=1.0, alpha=0.8, plan=plan
        )
        assert res.plan.packages == (frozenset({1, 2}),)
        assert res.total_cost == pytest.approx(15.6)

    def test_plan_must_cover_items(self, example, unit_model):
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(packages=(), singletons=(1,), similarity={})
        with pytest.raises(ValueError, match="cover"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=0.8, plan=plan)

    def test_plan_forcing_singletons_matches_nonpacking(self, example, unit_model):
        from repro.core.baselines import solve_optimal_nonpacking
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(packages=(), singletons=(1, 2), similarity={})
        res = solve_dp_greedy(example, unit_model, theta=0.0, alpha=0.8, plan=plan)
        opt = solve_optimal_nonpacking(example, unit_model)
        assert res.total_cost == pytest.approx(opt.total_cost)


class TestLargerGroups:
    def test_four_item_package_serves(self, unit_model):
        seq = RequestSequence(
            [
                (0, 1.0, {1, 2, 3, 4}),
                (1, 2.0, {1, 2, 3, 4}),
                (0, 3.0, {1, 2}),
                (1, 4.0, {3}),
                (0, 5.0, {1, 2, 3, 4}),
            ],
            num_servers=2,
        )
        from repro.core.dp_greedy import serve_package

        rep = serve_package(seq, frozenset({1, 2, 3, 4}), unit_model, 0.4)
        assert rep.num_cooccurrence == 3
        assert rep.num_single_sided == 2
        # the {1,2} node charges two items; the {3} node one
        assert len(rep.modes) == 3
        # package rate alpha*k = 1.6; ship constant 1.6*lam
        assert rep.package_cost > 0

    def test_groups_mode_with_max_size_four(self, unit_model):
        seq = RequestSequence(
            [(0, float(i + 1), {1, 2, 3, 4}) for i in range(8)],
            num_servers=2,
        )
        res = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.4,
            packing="groups", max_group_size=4,
        )
        assert res.plan.packages == (frozenset({1, 2, 3, 4}),)


def _rescan_decisions(seq, package, model, alpha):
    """Reference Observation-2 pass: the loop over
    ``restrict_to_items(package, mode="any")``, one rescan of the whole
    trace per package."""
    mu, lam = model.mu, model.lam
    ship_cost = package_rate(len(package), alpha) * lam
    last_any = {d: (seq.origin, 0.0) for d in package}
    last_same = {(d, seq.origin): 0.0 for d in package}
    out = []
    for r in seq.restrict_to_items(package, mode="any"):
        if r.items == package:
            for d in package:
                last_any[d] = (r.server, r.time)
                last_same[(d, r.server)] = r.time
            continue
        for d in sorted(r.items):
            t_p = last_same.get((d, r.server))
            cache_cost = mu * (r.time - t_p) if t_p is not None else float("inf")
            prev = last_any[d]
            transfer_cost = mu * (r.time - prev[1]) + lam
            best = min(cache_cost, transfer_cost, ship_cost)
            if best == cache_cost:
                mode = "cache"
            elif best == transfer_cost:
                mode = "transfer"
            else:
                mode = "package"
            out.append(SingleSidedDecision(d, r.server, r.time, mode, best, t_p, prev))
            last_any[d] = (r.server, r.time)
            last_same[(d, r.server)] = r.time
    return out


def _assert_same_decisions(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(SingleSidedDecision):
            assert getattr(g, f.name) == getattr(w, f.name), f.name
        assert type(g.server) is int and type(g.time) is float
        assert type(g.prev_any[0]) is int and type(g.prev_any[1]) is float
        assert g.prev_same_time is None or type(g.prev_same_time) is float


class TestObservation2Walk:
    """The per-package row walk must reproduce the whole-trace rescan
    decision for decision, on in-memory and store-backed sequences."""

    @settings(max_examples=100, deadline=None)
    @given(
        seq=multi_item_sequences(max_items=4),
        # item 4 never occurs in the trace: packages may name an absent member
        package=st.frozensets(st.integers(0, 4), min_size=2, max_size=3),
        model=cost_models(),
        alpha=ALPHAS,
    )
    @hypothesis.example(
        seq=running_example_sequence(),
        package=frozenset({1, 2, 99}),
        model=CostModel(mu=1.0, lam=1.0),
        alpha=0.8,
    )
    def test_matches_rescan_oracle(self, seq, package, model, alpha):
        want = _rescan_decisions(seq, package, model, alpha)
        _assert_same_decisions(
            list(single_sided_decisions(seq, package, model, alpha)), want
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = TraceStore.open(write_store(seq, f"{tmp}/trace.store"))
            _assert_same_decisions(
                list(single_sided_decisions(store, package, model, alpha)), want
            )


class TestCostOnlyReports:
    """A unit that reports no schedule and no attribution takes the
    cost-only DP; its report must equal the full solve's in every field
    but the schedule, and its DP cost must equal each reference sweep's
    (sparse and dense) run directly on the same unit view."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("reference", ["sparse", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(seq=multi_item_sequences(max_items=4), model=cost_models(), alpha=ALPHAS)
    def test_cost_only_equals_full_report(self, reference, k, seq, model, alpha):
        package = frozenset(range(k))
        full = serve_package(seq, package, model, alpha, build_schedule=True)
        cheap = serve_package(seq, package, model, alpha)
        assert cheap.package_schedule is None
        assert cheap == dataclasses.replace(full, package_schedule=None)
        assert cheap.package_cost == optimal_cost(
            seq.group_view(package),
            model,
            rate_multiplier=package_rate(k, alpha),
            backend=reference,
        )
        for d in package:
            full = serve_singleton(seq, d, model, build_schedule=True)
            cheap = serve_singleton(seq, d, model)
            assert cheap == dataclasses.replace(full, package_schedule=None)
            assert cheap.package_cost == optimal_cost(
                seq.item_view(d), model, backend=reference
            )
