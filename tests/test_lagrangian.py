import hashlib
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from slabel import lagrangian
from slabel.core import build_graph, enumerate_triangles, sl_value
from slabel.dual_ascent import check_dual_feasible, dual_ascent_extended
from slabel.exact import branch_and_bound, subset_dp
from slabel.heuristics import greedy_label, starting_heuristic
from slabel.instances import gen_bipartite, gen_cycle, gen_gnm, gen_path, gen_random_tree
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
        # One iteration on this tree takes seconds; with no time left none
        # runs, and the warm-start ascent takes no step either, so the bound
        # is the value of its empty prefix: m, one per edge.
        g = gen_random_tree(300, 1)
        res = run_subgradient(g, deadline=time.perf_counter())
        assert res.iterations == 0 and res.stop_reason == "time"
        assert res.lower_bound == g.m == 299
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

        def slow(h, **kwargs):
            result = dual_ascent_extended(h, **kwargs)
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
        assert res.lower_bound <= subset_dp(g)[0] <= res.incumbent_value
        assert res.incumbent_value == sl_value(g, res.best_labeling)

    def test_no_time_limit_runs_to_iteration_limit(self):
        started = time.perf_counter()
        res = run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=5))
        elapsed = time.perf_counter() - started
        assert res.iterations == 5 and res.stop_reason == "iterations"
        assert set(res.phase_s) == set(lagrangian.PHASES)
        assert all(seconds > 0 for seconds in res.phase_s.values())
        assert sum(res.phase_s.values()) < elapsed

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


def _proven_optimum(g) -> int:
    res = branch_and_bound(g)
    assert res.stats.proven_optimal
    return res.upper_bound


# sha256 of every trace record (iteration, repr of each float, bounds,
# incumbent), the final labeling, bounds, iteration count and stop reason.
# The multipliers are exact fixed-point integers, so a change to how they
# are stored or summed must leave these byte-identical; a change of the
# method itself must re-record them and say why.  The bipartite graph has
# no triangles, so only edge multipliers move.  The last entry is the
# optimum the final bracket must contain: a value proven elsewhere (174 in
# test_exact.py, 341 by the benchmark suite's pinned B&B proof), or a
# function that computes it.
PINNED_TRAJECTORIES = [
    (gen_gnm(12, 30, 5), 200,
     "eb9a769bb54d55597717c36eb847833f4eaee988f62f3603ab03d6ff96a75949",
     lambda g: subset_dp(g)[0]),
    (gen_gnm(18, 40, 1), 150,
     "0475e1d94130751b759c5dc1e04ac1f566e43773014eec2e3a28df8747de1bf9", 174),
    (gen_gnm(24, 60, 11), 150,
     "3f26ccc6f28a25029bf0f271f6772333a13578ace4ad77f29c9e9fa2f4aff3f1", 341),
    (gen_bipartite(10, 10, 0.3, 1), 150,
     "766918c251adb3c98d0bbced81f96a40df487418228c657a6add1dfb33a02303",
     _proven_optimum),
]


@pytest.mark.parametrize("g, max_iter, expected, optimum", PINNED_TRAJECTORIES,
                         ids=["gnm12", "gnm18", "gnm24", "bipartite"])
def test_pinned_trajectory(g, max_iter, expected, optimum):
    res = run_subgradient(g, SubgradientParams(max_iter=max_iter))
    assert _trajectory_digest(res) == expected
    opt = optimum(g) if callable(optimum) else optimum
    assert res.lower_bound <= opt <= res.incumbent_value
    assert sl_value(g, res.best_labeling) == res.incumbent_value


def _records_digest(trace) -> str:
    """sha256 of the trace records, each with every field but the last
    record's step size: a gap stop records step size 0."""
    lines = [f"{r.iteration} {r.relaxation_value!r} {r.lower_bound} {r.incumbent} {r.beta!r}"
             + ("" if r is trace[-1] else f" {r.step_size!r}") for r in trace]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_a_forest_stops_once_local_search_meets_its_level_floor():
    # bound-mid's tree: the subgradient's own bound stays at 1660 for all
    # 25 iterations, while local search finds the optimum 1715 = sum(g_t)
    # at iteration 4.  The floor ends the run there, and the four records
    # are those of the run without the floor (digest recorded before the
    # floor was added), but for the step size of the stopping iteration.
    res = run_subgradient(gen_random_tree(100, 1), SubgradientParams(max_iter=25))
    assert res.stop_reason == "gap" and res.iterations == 4
    assert res.lower_bound == res.incumbent_value == res.level_floor == 1715
    assert [r.lower_bound for r in res.trace] == [1660] * 4
    assert _records_digest(res.trace) == \
        "58021e208d4c96d7e1e0c1135ac39ee360fc741deb4253e94cba4e6ffdfd0582"
    assert res.trace[-1].step_size == 0.0


def test_a_forest_whose_heuristic_meets_the_floor_runs_no_iteration(monkeypatch):
    built = []
    monkeypatch.setattr(lagrangian, "Subproblems", lambda *args: built.append(args))
    g = gen_random_tree(20, 1)
    res = run_subgradient(g)
    assert res.iterations == 0 and res.trace == [] and res.stop_reason == "gap"
    assert res.lower_bound == res.level_floor == 71 == starting_heuristic(g, math.inf)[1]
    assert res.incumbent_value == 71 == sl_value(g, res.best_labeling)
    assert built == []


def test_the_floor_is_none_off_forests_and_after_the_deadline(monkeypatch):
    assert run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=2)).level_floor is None
    assert run_subgradient(gen_random_tree(300, 1), deadline=time.perf_counter()).level_floor \
        is None
    assert run_subgradient(build_graph(3, [])).level_floor == 0  # edgeless
    # The DP gets the run's deadline, and a DP that gives up leaves no floor.
    deadlines = []
    monkeypatch.setattr(lagrangian, "forest_levels", lambda g, deadline: deadlines.append(deadline))
    deadline = time.perf_counter() + 600.0
    res = run_subgradient(gen_random_tree(20, 1), deadline=deadline)
    assert deadlines == [deadline] and res.level_floor is None
    assert res.iterations == 1 and res.stop_reason == "gap"  # as before the floor


def kept_state_run(g, max_iter):
    """``run_subgradient`` with its kept subproblem state checked against
    fresh builds after the first build and after every step: the x costs
    against ``_x_costs``, each edge's level row against ``_level_rows``,
    the d choices and total on the kept rows against ``solve_d_subproblem``
    and the reference, and the triangle total against the sum of the
    multipliers.  Returns the result and the number of states checked,
    one per iteration: the last iteration makes no step."""
    checked = []

    def check(sub):
        assert sub.costs == lagrangian._x_costs(sub.g, sub.m)
        assert sub.levels == lagrangian._level_rows(sub.g, sub.m)
        assert lagrangian._cheapest(sub.levels) == solve_d_subproblem(sub.g, sub.m) \
            == reference_d_subproblem(sub.g, sub.m)
        assert sub.lam_total == sum(map(sum, sub.m.lam))
        checked.append(sub)

    class Checked(lagrangian.Subproblems):
        def __init__(self, g, m):
            super().__init__(g, m)
            check(self)

        def step(self, *args):
            super().step(*args)
            check(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrangian, "Subproblems", Checked)
        res = run_subgradient(g, SubgradientParams(max_iter=max_iter))
    return res, len(checked)


# The pinned trajectories, and bound-mid's graph with 295 triangles at its
# 25 iterations (its digest is pinned in test_assignment.py too).
KEPT_STATE_RUNS = [(g, max_iter, digest) for g, max_iter, digest, _ in PINNED_TRAJECTORIES] + [
    (gen_gnm(50, 300, 3), 25,
     "b43ffec65c5e6b00a073efb9575ec53b53b6e997adcc6dc45ec26c6590817922"),
]


@pytest.mark.parametrize("g, max_iter, expected", KEPT_STATE_RUNS,
                         ids=["gnm12", "gnm18", "gnm24", "bipartite", "gnm50-300"])
def test_kept_state_equals_a_fresh_build(g, max_iter, expected):
    res, checked = kept_state_run(g, max_iter)
    assert _trajectory_digest(res) == expected
    assert checked == res.iterations


def test_kept_state_without_triangles(monkeypatch):
    # Above the cap only the linking multipliers move, and the triangle
    # total stays 0.
    monkeypatch.setattr(lagrangian, "TRIANGLE_CAP", 0)
    g = gen_gnm(24, 60, 11)
    with pytest.warns(UserWarning, match="triangle"):
        res, checked = kept_state_run(g, 40)
    assert checked == res.iterations > 2


@pytest.mark.parametrize("max_iter", [1, 25])
def test_the_last_iteration_makes_no_step(max_iter, monkeypatch):
    # bound-mid's graph with 295 triangles runs to the limit: every
    # iteration but the last steps, and the last records its step size.
    steps = []

    class Counted(lagrangian.Subproblems):
        def step(self, *args):
            steps.append(args[0])
            super().step(*args)

    monkeypatch.setattr(lagrangian, "Subproblems", Counted)
    res = run_subgradient(gen_gnm(50, 300, 3), SubgradientParams(max_iter=max_iter))
    assert res.stop_reason == "iterations" and res.iterations == max_iter
    assert len(steps) == max_iter - 1
    assert res.trace[-1].step_size > 0


@st.composite
def graphs_with_triangles(draw):
    n = draw(st.integers(4, 14))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [pair for pair, k in zip(pairs, keep) if k])
    assume(enumerate_triangles(g))
    return g


@settings(max_examples=60, deadline=None)
@given(graphs_with_triangles())
def test_kept_state_equals_a_fresh_build_on_random_graphs(g):
    res, checked = kept_state_run(g, 40)
    assert checked == res.iterations
    assert res.incumbent_value == sl_value(g, res.best_labeling)


def test_x_subproblem_warm_start_keeps_the_value():
    g = gen_gnm(12, 30, 5)
    m = Multipliers.from_dual_ascent(g, with_triangles=True)
    potentials = [0] * g.n
    warm = lagrangian.solve_x_subproblem(g, m, potentials=potentials)
    assert warm[1] == lagrangian.solve_x_subproblem(g, m)[1]
    # From its own final potentials every search finds a path of tight
    # edges, at distance 0, so the potentials do not move.
    again = potentials[:]
    assert lagrangian.solve_x_subproblem(g, m, potentials=again)[1] == warm[1]
    assert again == potentials


def test_potentials_carry_across_iterations(monkeypatch):
    calls = []
    kernel = lagrangian.hungarian_min

    def recording(costs, deadline, potentials):
        start = potentials[:]
        result = kernel(costs, deadline, potentials)
        calls.append((potentials, start, potentials[:]))
        return result

    monkeypatch.setattr(lagrangian, "hungarian_min", recording)
    run_subgradient(gen_gnm(12, 30, 5), SubgradientParams(max_iter=5))
    assert len(calls) == 5
    assert calls[0][1] == [0] * 12
    assert all(c[0] is calls[0][0] for c in calls)
    for before, after in zip(calls, calls[1:]):
        assert after[1] == before[2]


class TestStartingMultipliers:
    @pytest.mark.parametrize("g", [gen_gnm(12, 30, 5), gen_random_tree(20, 1),
                                   gen_bipartite(6, 6, 0.4, 2), gen_gnm(15, 60, 3),
                                   gen_cycle(7), gen_gnm(9, 4, 1)],
                             ids=["gnm12", "tree20", "bipartite6", "gnm15", "cycle7",
                                  "sparse9"])
    def test_rows_match_the_dual_ascent(self, g):
        # The edge rows are the delta that check_dual_feasible verifies,
        # scaled; the triangle rows start at zero.
        dual = dual_ascent_extended(g)[0]
        assert check_dual_feasible(g, dual)[0]
        expected = [[max(0, last - k + 1) * SCALE for k in range(1, g.n + 1)]
                    for last in dual.edge_last_step]
        for m in (Multipliers.from_dual_ascent(g, with_triangles=True),
                  Multipliers.from_dual_ascent(g, True, dual)):
            assert m.delta == expected
            assert m.triangles == tuple(enumerate_triangles(g))
            assert m.lam == [[0] * g.n for _ in m.triangles]
        edges_only = Multipliers.from_dual_ascent(g, dual=dual)
        assert edges_only.delta == expected
        assert edges_only.triangles == () and edges_only.lam == []

    def test_triangle_cap_builds_no_triangle_row(self, monkeypatch):
        # The cap is tested on the triangle count, so the list is never
        # built; the edge rows are those of an uncapped start.
        g = gen_gnm(12, 30, 5)
        assert enumerate_triangles(g)
        uncapped = Multipliers.from_dual_ascent(g, with_triangles=True)

        def not_listed(g):
            raise AssertionError("triangles listed above the cap")

        monkeypatch.setattr(lagrangian, "TRIANGLE_CAP", 0)
        monkeypatch.setattr(lagrangian, "enumerate_triangles", not_listed)
        with pytest.warns(UserWarning, match=f"{len(uncapped.triangles)} triangles"):
            m = Multipliers.from_dual_ascent(g, with_triangles=True)
        assert m.triangles == () and m.lam == []
        assert m.delta == uncapped.delta


def reference_d_subproblem(g, m):
    """The d-subproblem as first written: every level of every edge."""
    tri_at_edge = {}
    for (_, edges), lam in zip(m.triangles, m.lam):
        suffix = [0] * (g.n + 2)
        for k in range(g.n, 0, -1):
            suffix[k] = suffix[k + 1] + lam[k - 1]
        for e in edges:
            tri_at_edge.setdefault(e, []).append(suffix)
    choices = []
    total = 0
    for e in range(g.m):
        costs = [k * SCALE + m.delta[e][k - 1]
                 + sum(suffix[k] for suffix in tri_at_edge.get(e, ()))
                 for k in range(1, g.n + 1)]
        best = min(costs)
        choices.append(costs.index(best) + 1)
        total += best
    return choices, total


@pytest.mark.parametrize("with_triangles", [False, True])
def test_d_subproblem_matches_full_scan(with_triangles):
    # Nonzero values that are whole multiples of SCALE tie a level with a
    # higher zero one.  Some edges are nonzero at every level, and some at
    # every level but the top one, priced so that the top one is cheapest.
    rng = random.Random(11 + with_triangles)
    values = (1, SCALE, 2 * SCALE, 3 * SCALE, 5 * SCALE + 7, 40 * SCALE)

    def store(n, levels, value=None):
        row = [0] * n
        for k in levels:
            row[k - 1] = value or rng.choice(values)
        return row

    for trial in range(150):
        n = rng.randint(5, 12)
        g = gen_gnm(n, rng.randint(n, 2 * n - 1), trial)
        delta = []
        for _ in range(g.m):
            pattern = rng.randrange(8)
            if pattern == 0:
                delta.append(store(n, range(1, n + 1)))
            elif pattern == 1:
                delta.append(store(n, range(1, n), n * SCALE))
            else:
                delta.append(store(n, (k for k in range(1, n + 1) if rng.randrange(3) == 0)))
        tris = tuple(enumerate_triangles(g)) if with_triangles else ()
        lam = [store(n, (t for t in range(1, n) if rng.randrange(4) == 0)) for _ in tris]
        m = Multipliers(delta=delta, triangles=tris, lam=lam)
        assert solve_d_subproblem(g, m) == reference_d_subproblem(g, m)
