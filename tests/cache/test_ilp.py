"""Tests pinning the ILP formulation to the DP (medium-scale certification).

The ILP oracle needs scipy, a test-only dependency (the ``test`` extra);
without it this module is skipped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache.model import RequestSequence, SingleItemView
from repro.cache.optimal_dp import optimal_cost

from ..conftest import cost_models, single_item_views
from ..oracles import ilp_optimal_cost

pytest.importorskip("scipy")


def view(servers, times, m=4, origin=0):
    return SingleItemView(
        servers=tuple(servers), times=tuple(times), num_servers=m, origin=origin
    )


class TestIlpMatchesDp:
    def test_empty(self, unit_model):
        assert ilp_optimal_cost(view([], []), unit_model) == 0.0

    def test_paper_first_request(self, unit_model):
        assert ilp_optimal_cost(view([1], [0.8]), unit_model) == pytest.approx(1.8)

    def test_running_example_package_nodes(self, unit_model):
        v = view([1, 2, 1], [0.8, 1.4, 4.0])
        pkg_model = unit_model.scaled(1.6)
        assert ilp_optimal_cost(v, pkg_model) == pytest.approx(9.6)

    @settings(max_examples=80, deadline=None)
    @given(v=single_item_views(), model=cost_models())
    def test_matches_dp_on_small_instances(self, v, model):
        assert ilp_optimal_cost(v, model) == pytest.approx(optimal_cost(v, model))

    @pytest.mark.parametrize("n,m,seed", [(60, 8, 1), (120, 15, 2), (200, 30, 3)])
    def test_matches_dp_at_medium_scale(self, n, m, seed, unit_model):
        """Sizes far beyond the exhaustive oracle's reach."""
        from repro.trace.workload import random_single_item_view

        v = random_single_item_view(n, m, seed=seed, horizon=float(n))
        assert ilp_optimal_cost(v, unit_model) == pytest.approx(
            optimal_cost(v, unit_model)
        )

    def test_accepts_request_sequence(self, unit_model):
        seq = RequestSequence([(1, 1.0, {5}), (0, 2.0, {5})], num_servers=2)
        assert ilp_optimal_cost(seq, unit_model) == pytest.approx(
            optimal_cost(seq.single_item_view(), unit_model)
        )

    def test_rejects_zero_time(self, unit_model):
        with pytest.raises(ValueError, match="strictly positive"):
            ilp_optimal_cost(view([1], [0.0]), unit_model)
