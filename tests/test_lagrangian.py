import hashlib
import random
import time

import pytest

from slabel import lagrangian
from slabel.core import enumerate_triangles, sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.exact import brute_force
from slabel.heuristics import greedy_label
from slabel.instances import gen_bipartite, gen_gnm, gen_path, gen_random_tree
from slabel.lagrangian import (
    SCALE,
    Multipliers,
    SubgradientParams,
    run_subgradient,
    solve_d_subproblem,
)


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

    def test_zero_iterations_keep_the_warm_start(self):
        g = gen_gnm(12, 30, 5)
        res = run_subgradient(g, SubgradientParams(max_iter=0))
        assert res.iterations == 0 and res.stop_reason == "iterations"
        assert res.lower_bound == dual_ascent_extended(g)[1] == 86

    def test_relaxation_does_not_diverge(self):
        res = run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=50))
        assert res.trace
        assert min(rec.relaxation_value for rec in res.trace) >= 0

    def test_time_limit_zero_runs_no_iteration(self):
        g = gen_gnm(12, 30, 5)
        res = run_subgradient(g, SubgradientParams(max_iter=50), deadline=time.perf_counter())
        assert res.iterations == 0 and res.trace == []
        assert res.stop_reason == "time"
        assert res.lower_bound <= res.incumbent_value
        assert res.incumbent_value == sl_value(g, res.best_labeling)

    def test_time_limit_zero_skips_iterations_on_large_tree(self):
        # One iteration on this tree takes seconds; with no time left the
        # assignment solver gives up at its first row, so none runs and the
        # bound is the warm start.
        g = gen_random_tree(300, 1)
        res = run_subgradient(g, deadline=time.perf_counter())
        assert res.iterations == 0 and res.stop_reason == "time"
        assert res.lower_bound == dual_ascent_extended(g)[1]
        assert res.lower_bound <= res.incumbent_value == sl_value(g, res.best_labeling)

    def test_deadline_stops_inside_an_iteration(self):
        # One iteration on this tree takes seconds, so the deadline passes
        # inside the assignment solver, which then gives up.
        g = gen_random_tree(300, 1)
        started = time.perf_counter()
        res = run_subgradient(g, deadline=time.perf_counter() + 0.5)
        assert time.perf_counter() - started < 1.5
        assert res.stop_reason == "time"
        assert res.lower_bound >= dual_ascent_extended(g)[1]
        assert res.lower_bound <= res.incumbent_value == sl_value(g, res.best_labeling)

    def test_deadline_passed_in_set_up_returns_warm_start_bracket(self, monkeypatch):
        # The warm start and the starting heuristic come first.  When the
        # warm start overruns the deadline, local search runs no sweep and
        # neither the multipliers nor any iteration are set up.
        g = gen_gnm(12, 24, 2)  # greedy 72, local search 70, warm start 66

        def slow(h):
            result = dual_ascent_extended(h)
            time.sleep(0.1)
            return result

        built = []
        from_dual_ascent = Multipliers.from_dual_ascent.__func__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return from_dual_ascent(cls, *args, **kwargs)

        monkeypatch.setattr(lagrangian, "dual_ascent_extended", slow)
        monkeypatch.setattr(Multipliers, "from_dual_ascent", classmethod(counted))
        res = run_subgradient(g, deadline=time.perf_counter() + 0.05)
        assert built == []
        assert res.iterations == 0 and res.trace == [] and res.stop_reason == "time"
        assert res.lower_bound == dual_ascent_extended(g)[1] == 66
        assert res.incumbent_value == greedy_label(g)[1] == sl_value(g, res.best_labeling) == 72

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


def _trajectory_digest(res) -> str:
    lines = [
        f"{r.iteration} {r.relaxation_value!r} {r.lower_bound} {r.incumbent} "
        f"{r.beta!r} {r.step_size!r}"
        for r in res.trace
    ]
    lines.append(" ".join(map(str, res.best_labeling.labels)))
    lines.append(f"{res.lower_bound} {res.incumbent_value} {res.iterations} {res.stop_reason}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of every trace record (iteration, repr of each float, bounds,
# incumbent), the final labeling, bounds, iteration count and stop reason.
# The multipliers are exact fixed-point integers, so a change to how they
# are stored or summed must leave these byte-identical; a change of the
# method itself must re-record them and say why.  The bipartite graph has
# no triangles, so only edge multipliers move.
PINNED_TRAJECTORIES = [
    (gen_gnm(12, 30, 5), 200,
     "7a9984e7aa7e3c38e8f9f481669e665a27b1aba680fa231c703972d892e36175"),
    (gen_gnm(18, 40, 1), 150,
     "0b24536d051a086aa8d8ccd1f30e3e616c642781dbeedba37b61b97c2d6f6a57"),
    (gen_gnm(24, 60, 11), 150,
     "106db5d5dcfac69b640a7c1561954d64c3bdd08d19b6cf622e9b9f2ca8ce69f3"),
    (gen_bipartite(10, 10, 0.3, 1), 150,
     "d7eeedcd1527655024ed1b469568536063f13f6c28831995628f12851f8bf742"),
]


@pytest.mark.parametrize("g, max_iter, expected", PINNED_TRAJECTORIES,
                         ids=["gnm12", "gnm18", "gnm24", "bipartite"])
def test_pinned_trajectory(g, max_iter, expected):
    res = run_subgradient(g, SubgradientParams(max_iter=max_iter))
    assert _trajectory_digest(res) == expected


def reference_d_subproblem(g, m):
    """The d-subproblem as first written: every level of every edge."""
    tri_at_edge = {}
    for (_, edges), lam in zip(m.triangles, m.lam):
        if lam:
            suffix = [0] * (m.n + 2)
            for k in range(m.n, 0, -1):
                suffix[k] = suffix[k + 1] + lam.get(k, 0)
            for e in edges:
                tri_at_edge.setdefault(e, []).append(suffix)
    choices = []
    total = 0
    for e in range(g.m):
        costs = [k * SCALE + m.delta[e].get(k, 0)
                 + sum(suffix[k] for suffix in tri_at_edge.get(e, ()))
                 for k in range(1, g.n + 1)]
        best = min(costs)
        choices.append(costs.index(best) + 1)
        total += best
    return choices, total


@pytest.mark.parametrize("with_triangles", [False, True])
def test_d_subproblem_matches_full_scan(with_triangles):
    # Stored values that are whole multiples of SCALE tie a stored level
    # with a higher unstored one.  Some edges store every level, and some
    # every level but the top one, priced so that the top one is cheapest.
    # Keys go in in random order, as the subgradient updates leave them.
    rng = random.Random(11 + with_triangles)
    values = (1, SCALE, 2 * SCALE, 3 * SCALE, 5 * SCALE + 7, 40 * SCALE)

    def store(levels, value=None):
        levels = list(levels)
        rng.shuffle(levels)
        return {k: value or rng.choice(values) for k in levels}

    for trial in range(150):
        n = rng.randint(5, 12)
        g = gen_gnm(n, rng.randint(n, 2 * n - 1), trial)
        delta = []
        for _ in range(g.m):
            pattern = rng.randrange(8)
            if pattern == 0:
                delta.append(store(range(1, n + 1)))
            elif pattern == 1:
                delta.append(store(range(1, n), n * SCALE))
            else:
                delta.append(store(k for k in range(1, n + 1) if rng.randrange(3) == 0))
        tris = tuple(enumerate_triangles(g)) if with_triangles else ()
        lam = [store(t for t in range(1, n) if rng.randrange(4) == 0) for _ in tris]
        m = Multipliers(n=n, delta=delta, triangles=tris, lam=lam)
        assert solve_d_subproblem(g, m) == reference_d_subproblem(g, m)
