from slabel.core import sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.instances import gen_gnm, gen_path
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

    def test_time_limit_zero_runs_one_iteration(self):
        g = gen_gnm(12, 30, 5)
        res = run_subgradient(g, SubgradientParams(max_iter=50), time_limit=0)
        assert res.iterations == 1 and len(res.trace) == 1
        assert res.stop_reason == "time"
        assert res.lower_bound <= res.incumbent_value
        assert res.incumbent_value == sl_value(g, res.best_labeling)

    def test_no_time_limit_runs_to_iteration_limit(self):
        res = run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=5))
        assert res.iterations == 5 and res.stop_reason == "iterations"

    def test_closed_gap_stops(self):
        res = run_subgradient(gen_path(6))
        assert res.stop_reason == "gap"
        assert res.lower_bound == res.incumbent_value
