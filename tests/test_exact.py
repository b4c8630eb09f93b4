"""Branch-and-bound against the brute-force oracle: every small graph is
proven at its optimum, and a search stopped by its node budget still
returns a valid bracket."""

import hashlib
import random
import time
from itertools import combinations

import pytest

from slabel import exact
from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.exact import branch_and_bound, brute_force
from slabel.heuristics import greedy_label
from slabel.instances import gen_gnm

# sha256 over every result of the exhaustive loop below: the labeling and
# the search counters, so a refactor that changes either one fails.
EXHAUSTIVE_DIGEST = "7b121f93f9000b2d23f6d30471f53ff4891983fdc971f226aa6e4cf0814fd1ed"


def test_proves_optimum_on_every_graph_up_to_five_nodes():
    checked = 0
    digest = hashlib.sha256()
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            opt, _ = brute_force(g)
            res = branch_and_bound(g)
            assert res.stats.proven_optimal
            assert res.lower_bound == res.upper_bound == opt
            assert sl_value(g, res.labeling) == opt
            s = res.stats
            digest.update(repr((res.labeling.labels, s.explored, s.pruned_by_bound,
                                s.bound_calls, s.cache_hits)).encode())
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024
    assert digest.hexdigest() == EXHAUSTIVE_DIGEST


def no_starting_incumbent(g, deadline):
    return Labeling.from_order(g.n, ()), 10**9


def test_proves_every_graph_up_to_five_nodes_without_a_starting_incumbent(monkeypatch):
    # The heuristic's labeling is optimal on most small graphs, which would
    # hide a bound or prune that cuts the optimal branch: with an incumbent
    # of 10**9, the search has to find every optimum itself.
    monkeypatch.setattr(exact, "starting_heuristic", no_starting_incumbent)
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            opt, _ = brute_force(g)
            res = branch_and_bound(g)
            assert res.stats.proven_optimal
            assert res.lower_bound == res.upper_bound == opt == sl_value(g, res.labeling)
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024


@pytest.mark.parametrize("n, m, seed, explored, pruned", [
    (18, 40, 1, 136, 1729),
    (20, 45, 3, 148, 2330),
    (22, 50, 5, 40, 596),
    (24, 55, 2, 164, 3105),
])
def test_search_counters_are_pinned(n, m, seed, explored, pruned):
    # Residual bounds stop at the pruning cutoff; the search they steer
    # must equal the one with full bounds.
    res = branch_and_bound(gen_gnm(n, m, seed))
    assert res.stats.proven_optimal
    assert (res.stats.explored, res.stats.pruned_by_bound) == (explored, pruned)


def test_every_ascent_goes_through_the_module_name(monkeypatch):
    # The benchmark's traced run wraps exact.dual_ascent_extended, so every
    # ascent the search runs, the root's included, must call that name.
    calls = []

    def counting(*args):
        calls.append(args)
        return dual_ascent_extended(*args)

    monkeypatch.setattr(exact, "dual_ascent_extended", counting)
    res = branch_and_bound(gen_gnm(18, 40, 1))
    assert res.stats.proven_optimal and res.stats.bound_calls > 1
    assert len(calls) == res.stats.bound_calls


def test_proves_gnm_18_40_1():
    g = gen_gnm(18, 40, 1)
    res = branch_and_bound(g)
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == 174
    assert sl_value(g, res.labeling) == 174
    assert res.stats.open_bound is None
    assert res.stats.bound_calls >= 1 and res.stats.cache_hits >= 1


def test_cache_limit_evicts_without_changing_the_search(monkeypatch):
    # With 8 memoized residual bounds the least recently used are evicted
    # and computed again; the search is unchanged.
    g = gen_gnm(18, 40, 1)
    full = branch_and_bound(g)
    monkeypatch.setattr(exact, "CACHE_LIMIT", 8)
    small = branch_and_bound(g)
    assert small.stats.proven_optimal and small.lower_bound == small.upper_bound == 174
    assert small.labeling == full.labeling
    assert (small.stats.explored, small.stats.pruned_by_bound) == (
        full.stats.explored, full.stats.pruned_by_bound)
    assert (small.stats.bound_calls + small.stats.cache_hits
            == full.stats.bound_calls + full.stats.cache_hits)
    assert small.stats.bound_calls > full.stats.bound_calls


def test_node_limit_returns_bracket():
    g = gen_gnm(18, 40, 1)
    res = branch_and_bound(g, node_limit=1)
    assert not res.stats.proven_optimal
    assert res.stats.explored == 1
    assert res.lower_bound <= 174 <= res.upper_bound
    assert res.upper_bound == sl_value(g, res.labeling)
    assert res.lower_bound == min(res.stats.open_bound, res.upper_bound)


def test_time_limit_is_checked_before_every_expansion():
    # One expansion here runs up to 100 residual bounds; checking the clock
    # only every 64 expansions overran a 0.5 s limit by about 14 s.
    # The node limit is a backstop: a search that ignored its deadline
    # fails the time check here instead of running for minutes.
    g = gen_gnm(100, 250, 2)
    started = time.perf_counter()
    res = branch_and_bound(g, deadline=time.perf_counter() + 0.5, node_limit=50)
    assert time.perf_counter() - started < 5.0
    assert not res.stats.proven_optimal
    assert res.lower_bound <= res.upper_bound == sl_value(g, res.labeling)


def test_passed_deadline_after_root_bound_returns_its_bracket(monkeypatch):
    # The root bound comes before the starting heuristic.  When it overruns
    # the deadline, local search runs no sweep and no node is expanded, so
    # the bracket is (root bound, greedy value).
    g = gen_gnm(12, 24, 2)  # greedy 72, local search 70, root bound 66

    def slow(*args):
        result = dual_ascent_extended(*args)
        time.sleep(0.1)
        return result

    monkeypatch.setattr(exact, "dual_ascent_extended", slow)
    res = branch_and_bound(g, deadline=time.perf_counter() + 0.05)
    assert res.stats.explored == 0 and not res.stats.proven_optimal
    assert res.lower_bound == res.stats.open_bound == dual_ascent_extended(g)[1] == 66
    assert res.upper_bound == greedy_label(g)[1] == sl_value(g, res.labeling) == 72


def renumbered_ascent(g, chosen):
    """The bound and steps of dual ascent on the subgraph of ``chosen``
    with its endpoints renumbered 0.. in ascending order: how residual
    subgraphs were bounded before they kept the node ids of g."""
    nodes = sorted({v for edge in chosen for v in edge})
    index = {v: i for i, v in enumerate(nodes)}
    sub = build_graph(len(nodes), [(index[u], index[v]) for u, v in chosen])
    return dual_ascent_extended(sub)[1:]


def test_residual_bound_ignores_isolated_nodes():
    # A residual subgraph keeps all n node ids; its bound and ascent steps
    # equal those of the renumbered subgraph, so the search is unchanged.
    rng = random.Random(3)
    checked = 0
    for g in (gen_gnm(30, 70, 9), gen_gnm(24, 60, 11)):
        for trial in range(250):
            if trial % 2:  # the edges among a random set of unlabeled nodes
                unlabeled = set(rng.sample(range(g.n), rng.randint(2, g.n)))
                chosen = [(u, v) for u, v in g.edges if u in unlabeled and v in unlabeled]
            else:  # any edge subset
                density = rng.random()
                chosen = [edge for edge in g.edges if rng.random() < density]
            if chosen:
                kept_ids = dual_ascent_extended(build_graph(g.n, chosen))[1:]
                assert kept_ids == renumbered_ascent(g, chosen), chosen
                checked += 1
    assert checked >= 450
