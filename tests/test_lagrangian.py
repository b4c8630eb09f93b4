import time

import pytest

from slabel import lagrangian
from slabel.core import sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.exact import brute_force
from slabel.instances import gen_gnm, gen_path, gen_random_tree
from slabel.lagrangian import SubgradientParams, run_subgradient


class TestSubgradient:
    def test_lifts_bound_above_dual_ascent(self):
        # The Polyak step divides by the squared subgradient norm; dividing
        # by the norm itself overshoots and leaves the bound at 86.
        g = gen_gnm(12, 30, 5)
        _, warm_start, _ = dual_ascent_extended(g)
        res = run_subgradient(g, SubgradientParams(max_iter=50))
        assert warm_start == 86
        assert res.lower_bound == 87
        assert res.lower_bound <= res.incumbent_value == 88

    def test_relaxation_does_not_diverge(self):
        res = run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=50))
        assert res.trace
        assert min(rec.relaxation_value for rec in res.trace) >= 0

    def test_time_limit_zero_runs_no_iteration(self):
        g = gen_gnm(12, 30, 5)
        res = run_subgradient(g, SubgradientParams(max_iter=50), time_limit=0)
        assert res.iterations == 0 and res.trace == []
        assert res.stop_reason == "time"
        assert res.lower_bound <= res.incumbent_value
        assert res.incumbent_value == sl_value(g, res.best_labeling)

    def test_time_limit_zero_skips_iterations_on_large_tree(self):
        # One iteration on this tree takes seconds; with no time left the
        # assignment solver gives up at its first row, so none runs and the
        # bound is the warm start.
        g = gen_random_tree(300, 1)
        res = run_subgradient(g, time_limit=0)
        assert res.iterations == 0 and res.stop_reason == "time"
        assert res.lower_bound == dual_ascent_extended(g)[1]
        assert res.lower_bound <= res.incumbent_value == sl_value(g, res.best_labeling)

    def test_deadline_stops_inside_an_iteration(self):
        # One iteration on this tree takes seconds, so the deadline passes
        # inside the assignment solver, which then gives up.
        g = gen_random_tree(300, 1)
        started = time.perf_counter()
        res = run_subgradient(g, time_limit=0.5)
        assert time.perf_counter() - started < 1.5
        assert res.stop_reason == "time"
        assert res.lower_bound >= dual_ascent_extended(g)[1]
        assert res.lower_bound <= res.incumbent_value == sl_value(g, res.best_labeling)

    def test_triangle_cap_falls_back_to_edge_multipliers(self, monkeypatch):
        g = gen_gnm(12, 30, 5)
        monkeypatch.setattr(lagrangian, "TRIANGLE_CAP", 0)
        with pytest.warns(UserWarning, match="triangle"):
            res = run_subgradient(g, SubgradientParams(max_iter=50))
        assert res.lower_bound <= brute_force(g)[0] <= res.incumbent_value
        assert res.incumbent_value == sl_value(g, res.best_labeling)

    def test_no_time_limit_runs_to_iteration_limit(self):
        res = run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=5))
        assert res.iterations == 5 and res.stop_reason == "iterations"

    def test_closed_gap_stops(self):
        res = run_subgradient(gen_path(6))
        assert res.stop_reason == "gap"
        assert res.lower_bound == res.incumbent_value
