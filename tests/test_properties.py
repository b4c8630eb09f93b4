"""Property tests on small random graphs: every lower bound is at most the
optimum of the subset dynamic program, every upper bound at least it, and
branch-and-bound proves it, with primal dives at every expansion or at
none."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from slabel import exact
from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_extended, dual_ascent_simple
from slabel.exact import branch_and_bound, subset_dp
from slabel.heuristics import starting_heuristic
from slabel.lagrangian import SubgradientParams, run_subgradient

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_nodes=8):
    n = draw(st.integers(1, max_nodes))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [pair for pair, k in zip(pairs, keep) if k])


@SMALL
@given(graphs())
def test_dual_ascent_brackets_optimum(g):
    opt = subset_dp(g)[0]
    phi, ub = starting_heuristic(g)
    assert ub == sl_value(g, phi)
    assert dual_ascent_simple(g)[1] <= opt <= ub
    assert dual_ascent_extended(g)[1] <= opt


@SMALL
@given(graphs())
def test_lagrangian_brackets_optimum(g):
    opt = subset_dp(g)[0]
    res = run_subgradient(g, SubgradientParams(max_iter=30))
    assert res.lower_bound <= opt <= res.incumbent_value
    assert res.incumbent_value == sl_value(g, res.best_labeling)


@SMALL
@given(graphs())
def test_branch_and_bound_proves_optimum(g):
    opt = subset_dp(g)[0]
    res = branch_and_bound(g)
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == opt
    assert sl_value(g, res.labeling) == opt


@SMALL
@given(graphs(max_nodes=12), st.sampled_from([1, 0]))
def test_branch_and_bound_proves_optimum_at_any_dive_period(g, every):
    # With no starting incumbent the search finds every optimum itself:
    # through a dive at every expansion (1), or only at its leaves (0, no
    # dives).  State dominance must keep the optimum either way.
    saved = exact.DIVE_EVERY, exact.starting_heuristic
    exact.DIVE_EVERY = every
    exact.starting_heuristic = lambda g, deadline: (Labeling.from_order(g.n, ()), 10**9)
    try:
        res = branch_and_bound(g)
    finally:
        exact.DIVE_EVERY, exact.starting_heuristic = saved
    opt = subset_dp(g)[0]
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == opt == sl_value(g, res.labeling)
    # Every expansion but the root's dives at period 1.
    assert res.stats.dives == (max(res.stats.explored - 1, 0) if every else 0)
