"""The subset dynamic program against a brute-force reference, the
coverage table against enumeration, and branch-and-bound against the
program: every small graph is proven at its optimum, neighbourhood
domination skips exactly the children its definition names, and a search
stopped by its node budget, a table stopped by its node limit, or an
oracle stopped by its deadline still returns a valid bound.  Last, the
forest level table against enumeration, the closed forms and the
program."""

import hashlib
import heapq
import math
import random
import time
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from slabel import exact
from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.exact import branch_and_bound, coverage_table, forest_levels, subset_dp
from slabel.heuristics import greedy_label, starting_heuristic
from slabel.instances import gen_gnm, gen_path, gen_perfect_nary, gen_random_tree
from slabel.special_graphs import formula_path_cycle, solve_perfect_nary

# sha256 over every result of the exhaustive loop below: the labeling and
# the search counters, so a refactor that changes either one fails.
EXHAUSTIVE_DIGEST = "2e443a6513e0a5b2c6b567b664315cdec71de8e6c70d9beaa710de51566181e6"


def test_proves_optimum_on_every_graph_up_to_five_nodes():
    checked = 0
    digest = hashlib.sha256()
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            opt = subset_dp(g)[0]
            res = branch_and_bound(g)
            assert res.stats.proven_optimal
            assert res.lower_bound == res.upper_bound == opt
            assert sl_value(g, res.labeling) == opt
            s = res.stats
            digest.update(repr((res.labeling.labels, s.explored, s.pruned_by_bound,
                                s.dominated, s.level_pruned, s.degree_pruned,
                                s.state_dominated, s.stale, s.bound_calls, s.dives,
                                s.dives_improved)).encode())
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
            opt = subset_dp(g)[0]
            res = branch_and_bound(g)
            assert res.stats.proven_optimal
            assert res.lower_bound == res.upper_bound == opt == sl_value(g, res.labeling)
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024


# n, m, seed, then explored, pruned by bound, dominated, level-pruned,
# degree-pruned, state-dominated, stale, dives and dives that improved the
# incumbent.
PINNED_COUNTERS = [
    (18, 40, 1, (14, 43, 57, 4, 52, 2, 0, 0, 0)),
    (20, 45, 3, (0, 1, 0, 0, 0, 0, 0, 0, 0)),  # the table's sum is the optimum: proven at the root
    (22, 50, 5, (0, 1, 0, 0, 0, 0, 0, 0, 0)),
    (24, 55, 2, (0, 1, 0, 0, 0, 0, 0, 0, 0)),
    (24, 60, 11, (17, 158, 75, 0, 17, 2, 0, 1, 0)),
    (26, 60, 4, (53, 44, 240, 372, 173, 43, 0, 3, 0)),
]


@pytest.mark.parametrize("n, m, seed, counters", PINNED_COUNTERS,
                         ids=["-".join(map(str, row[:3])) for row in PINNED_COUNTERS])
def test_search_counters_are_pinned(n, m, seed, counters):
    # Residual bounds stop at the pruning cutoff; the search they steer
    # must equal the one with full bounds.  On these graphs every child
    # that neighbourhood domination skips would have been cut by a bound
    # or by state dominance, so the explored nodes and the sum of the
    # children cut either way are those of the search without the rule.
    s = branch_and_bound(gen_gnm(n, m, seed)).stats
    assert s.proven_optimal
    assert (s.explored, s.pruned_by_bound, s.dominated, s.level_pruned, s.degree_pruned,
            s.state_dominated, s.stale, s.dives, s.dives_improved) == counters


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
    assert res.stats.bound_calls >= 1


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


def test_table_leaves_the_starting_heuristic_half_the_time():
    # Unlimited, this graph's table takes about 27 s; one that took the
    # whole limit would leave local search no sweep and the incumbent at
    # greedy's value.  No node is expanded: one expansion here runs up to
    # 150 residual bounds.
    g = gen_gnm(150, 400, 1)
    res = branch_and_bound(g, deadline=time.perf_counter() + 0.4, node_limit=0)
    assert res.upper_bound <= starting_heuristic(g)[1] < greedy_label(g)[1]


def test_passed_deadline_after_root_bound_returns_its_bracket(monkeypatch):
    # The table and the root bound come before the starting heuristic.
    # When the root ascent overruns the deadline, local search runs no
    # sweep and no node is expanded, so the bracket is (the larger of the
    # ascent and the table's sum, greedy value).
    g = gen_gnm(12, 24, 2)  # greedy 72, local search 70, ascent 66, table sum 70

    def slow(*args):
        result = dual_ascent_extended(*args)
        time.sleep(0.1)
        return result

    monkeypatch.setattr(exact, "dual_ascent_extended", slow)
    res = branch_and_bound(g, deadline=time.perf_counter() + 0.05)
    assert res.stats.explored == 0 and not res.stats.proven_optimal
    assert dual_ascent_extended(g)[1] == 66 and sum(coverage_table(g)) == 70
    assert res.lower_bound == res.stats.open_bound == 70
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


def brute_force(g):
    """The optimum and an optimal labeling by depth-first assignment of
    labels 1, 2, ... with closure once the residual graph is edgeless,
    sharing no code with the solvers: the reference subset_dp is checked
    against.  Partial assignments are pruned against the incumbent using
    the fact that every residual edge will contribute more than the
    current depth."""
    n = g.n
    adjacency = g.adjacency
    labels = [0] * n
    best_labels = list(range(1, n + 1))
    best_value = sl_value(g, Labeling(labels=tuple(best_labels)))
    residual_degree = [len(adj) for adj in adjacency]
    residual_edges = g.m

    def complete(depth):
        out = labels.copy()
        next_label = depth + 1
        for v in range(n):
            if out[v] == 0:
                out[v] = next_label
                next_label += 1
        return out

    def dfs(depth, fixed_cost):
        nonlocal best_value, best_labels, residual_edges
        if residual_edges == 0:
            if fixed_cost < best_value:
                best_value = fixed_cost
                best_labels = complete(depth)
            return
        if fixed_cost + (depth + 1) * residual_edges >= best_value:
            return
        label = depth + 1
        for v in range(n):
            if labels[v] != 0:
                continue
            labels[v] = label
            gained = residual_degree[v]
            residual_edges -= gained
            for x, _ in adjacency[v]:
                if labels[x] == 0:
                    residual_degree[x] -= 1
            dfs(depth + 1, fixed_cost + label * gained)
            for x, _ in adjacency[v]:
                if labels[x] == 0:
                    residual_degree[x] += 1
            residual_edges += gained
            labels[v] = 0

    dfs(0, 0)
    return best_value, Labeling(labels=tuple(best_labels))


def all_graphs(max_nodes):
    for n in range(1, max_nodes + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_subset_dp_equals_brute_force_up_to_five_nodes():
    for g in all_graphs(5):
        value, labeling, finished = subset_dp(g)
        assert finished and value == brute_force(g)[0] == sl_value(g, labeling), g


def test_subset_dp_certifies_gnm_18_40_1():
    # The optimum that test_proves_gnm_18_40_1 and the benchmark pin,
    # certified without branch-and-bound.
    g = gen_gnm(18, 40, 1)
    value, labeling, finished = subset_dp(g)
    assert finished and value == sl_value(g, labeling) == 174


def test_subset_dp_proves_complete_graph():
    # Every order of K12 costs the same, so a depth-first search prunes
    # only one level above the leaves; the DP visits each of 4096 states once.
    g = gen_gnm(12, 66, 1)
    started = time.perf_counter()
    value, labeling, finished = subset_dp(g)
    assert time.perf_counter() - started < 0.1
    assert finished and value == sl_value(g, labeling) == 286


def test_subset_dp_stops_at_its_deadline():
    # The clock is read once per 4096 states, so a passed deadline stops a
    # 20-node program after 4095 of its 2**20 states.
    g = gen_gnm(20, 45, 3)
    started = time.perf_counter()
    value, labeling, finished = subset_dp(g, deadline=started)
    assert time.perf_counter() - started < 1.0
    assert not finished
    assert value == sl_value(g, labeling) >= 214


def test_subset_dp_future_deadline_changes_nothing():
    # The 14-node graph reads the clock; the smaller two never do.
    for g in (gen_gnm(9, 16, 3), gen_random_tree(10, 2), gen_gnm(14, 30, 4)):
        assert subset_dp(g, time.perf_counter() + 3600.0) == subset_dp(g)


def random_graphs_12_to_16_nodes():
    rng = random.Random(16)
    for n in range(12, 17):
        for _ in range(2):
            yield gen_gnm(n, rng.randint(n, 3 * n), rng.randrange(1000))
    yield gen_gnm(12, 66, 1)  # K12: every node is a twin of every other


def test_branch_and_bound_equals_subset_dp_beyond_brute_force(monkeypatch):
    # The searches need at most 12 expansions (138 without the coverage
    # table); the limit makes one that has lost a bound or the domination
    # rule fail instead of running for hours.
    monkeypatch.setattr(exact, "starting_heuristic", no_starting_incumbent)
    for g in random_graphs_12_to_16_nodes():
        opt = subset_dp(g)[0]
        assert sum(coverage_table(g)) <= opt, g
        res = branch_and_bound(g, node_limit=2000)
        assert res.stats.proven_optimal
        assert res.lower_bound == res.upper_bound == sl_value(g, res.labeling) == opt, g


def enumerated_table(g):
    """g_t for t = 0..n-1 by trying every set of t nodes: the fewest edges
    left with both ends outside it."""
    return [min(sum(1 for u, v in g.edges if u not in chosen and v not in chosen)
                for chosen in map(set, combinations(range(g.n), t)))
            for t in range(g.n)]


def test_coverage_table_equals_enumeration():
    rng = random.Random(21)
    graphs = list(all_graphs(5))
    graphs += [gen_gnm(n, rng.randint(n, n * (n - 1) // 2), rng.randrange(1000))
               for n in range(8, 13) for _ in range(3)]
    for g in graphs:
        assert coverage_table(g) == enumerated_table(g), g


# The coverage table of each prove-small graph of the benchmark.  The
# search of branch-and-bound, and so its pinned counters, follows every
# entry, so a faster table must leave each one as it is.
PINNED_TABLES = {
    (18, 40, 1): [40, 33, 27, 21, 17, 13, 9, 6, 4, 2, 1] + [0] * 7,
    (20, 45, 3): [45, 38, 31, 25, 20, 16, 12, 9, 7, 5, 3, 2, 1] + [0] * 7,
    (22, 50, 5): [50, 40, 33, 26, 21, 16, 12, 9, 6, 3, 2, 1] + [0] * 10,
    (24, 55, 2): [55, 45, 38, 31, 26, 21, 17, 13, 10, 8, 6, 4, 3, 2, 1] + [0] * 9,
    (24, 60, 11): [60, 51, 44, 38, 33, 28, 23, 19, 15, 11, 8, 5, 3, 2, 1] + [0] * 9,
    (26, 60, 4): [60, 53, 46, 40, 34, 29, 24, 19, 15, 12, 9, 6, 4, 2, 1] + [0] * 11,
    (30, 70, 9): [70, 61, 53, 47, 41, 36, 31, 27, 23, 19, 16, 13, 11, 8, 6, 4, 2, 1]
    + [0] * 12,
}


@pytest.mark.parametrize("args", PINNED_TABLES, ids=["-".join(map(str, a)) for a in PINNED_TABLES])
def test_coverage_table_is_pinned(args):
    assert coverage_table(gen_gnm(*args)) == PINNED_TABLES[args]


def test_coverage_table_sum_is_pinned_at_the_default_node_limit():
    # One level of this table stops at TABLE_NODE_LIMIT, so the sum
    # depends on where the search stands when it stops.
    assert sum(coverage_table(gen_gnm(40, 90, 5))) == 734


@pytest.mark.parametrize("n", [15, 16, 17])
def test_coverage_table_equals_enumeration_where_the_key_shift_grows(n):
    # A candidate is (key << shift) + node with shift = 2 * n.bit_length()
    # + 1: 9 for n = 15, 11 for n = 16 and 17.
    rng = random.Random(n)
    g = gen_gnm(n, rng.randint(n, 3 * n), rng.randrange(1000))
    assert coverage_table(g) == enumerated_table(g), g


def test_a_floor_at_the_least_value_ends_the_search(monkeypatch):
    # The 13 nodes of gnm(30, 70, 9) with the fewest edges inside have 1
    # (the table's level t = 17).  100 children find such a set but do not
    # prove it least; given 1 as the floor, the search stops there with
    # its answer, and without one it stops at the node limit.  A floor
    # that the starting set already meets settles the level with no child.
    g = gen_gnm(30, 70, 9)
    rows = exact._increment_rows(g)
    zeros = [0] * g.n
    assert exact._lightest_set(rows, zeros, 13, g.m, -math.inf, math.inf) == (1, True)
    monkeypatch.setattr(exact, "TABLE_NODE_LIMIT", 100)
    assert exact._lightest_set(rows, zeros, 13, g.m, 1, math.inf) == (1, True)
    low, finished = exact._lightest_set(rows, zeros, 13, g.m, -math.inf, math.inf)
    assert not finished and low < 1
    monkeypatch.setattr(exact, "TABLE_NODE_LIMIT", 0)
    assert exact._lightest_set(rows, zeros, 13, 1, 1, math.inf) == (1, True)


STOPPED_TABLE_GRAPHS = [(30, 70, 9), (26, 60, 4), (40, 90, 5)]


@pytest.mark.parametrize("limit", [0, 1, 30, 300])
def test_table_stopped_by_its_node_limit_is_below_the_exact_one(monkeypatch, limit):
    graphs = [gen_gnm(*args) for args in STOPPED_TABLE_GRAPHS]
    full = [coverage_table(g) for g in graphs]
    monkeypatch.setattr(exact, "TABLE_NODE_LIMIT", limit)
    stopped = [coverage_table(g) for g in graphs]
    for low, high in zip(stopped, full):
        assert all(a <= b for a, b in zip(low, high)), (low, high)
    assert stopped != full


def test_table_stopped_by_its_deadline_is_below_the_exact_one():
    # The clock is read before each level's first child, so a passed
    # deadline leaves every level that its starting set does not settle at
    # the larger of its search's root bound and its floor.
    for args in STOPPED_TABLE_GRAPHS:
        g = gen_gnm(*args)
        full = coverage_table(g)
        for delay in (0.0, 0.002, 0.02):
            low = coverage_table(g, time.perf_counter() + delay)
            assert all(a <= b for a, b in zip(low, full)), (args, delay, low, full)
        assert coverage_table(g, time.perf_counter()) != full


@pytest.mark.parametrize("limit", [0, 1])
def test_table_stopped_by_its_node_limit_keeps_the_chain_inequality(monkeypatch, limit):
    # A level whose search stops enters the table no lower than the floor
    # that the level above it gives.
    monkeypatch.setattr(exact, "TABLE_NODE_LIMIT", limit)
    for args in STOPPED_TABLE_GRAPHS:
        table = coverage_table(gen_gnm(*args))
        n = len(table)
        for t in range(1, n - 2):
            k = n - t
            assert table[t] * (k - 2) >= table[t + 1] * k, (args, t, table)


def test_proves_every_graph_up_to_five_nodes_with_a_stopped_table(monkeypatch):
    # One child per level stops a level in 122 of these 1,099 tables and
    # leaves 87 of them below the exact table; the bound they give must
    # still never cut an optimal branch.
    monkeypatch.setattr(exact, "starting_heuristic", no_starting_incumbent)
    monkeypatch.setattr(exact, "TABLE_NODE_LIMIT", 1)
    for g in all_graphs(5):
        opt = subset_dp(g)[0]
        res = branch_and_bound(g)
        assert res.stats.proven_optimal
        assert res.lower_bound == res.upper_bound == opt == sl_value(g, res.labeling), g


def no_table(g, deadline):
    return [0] * g.n


@pytest.mark.parametrize("n, optimum", [(8, 84), (12, 286)])
def test_complete_graph_is_proven_along_one_branch(monkeypatch, n, optimum):
    # Every labeling of K_n is optimal.  All nodes are twins, so each
    # expansion keeps only its lowest unlabeled node, and the search stops
    # once the child's bound meets the starting incumbent.  A search
    # without the rule needs 2,081 expansions on K8 and about 24.7 million
    # on K12; the node limit makes such a search fail fast.  The table's
    # sum alone proves K_n at the root, so the rule is run without it.
    g = gen_gnm(n, n * (n - 1) // 2, 1)
    res = branch_and_bound(g)
    assert res.stats.proven_optimal and res.stats.explored == 0
    assert res.lower_bound == res.upper_bound == sum(coverage_table(g)) == optimum
    monkeypatch.setattr(exact, "coverage_table", no_table)
    started = time.perf_counter()
    res = branch_and_bound(g, node_limit=1000)
    assert time.perf_counter() - started < 1.0
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == sl_value(g, res.labeling) == optimum
    assert res.stats.explored == n - 3


def unlabeled_neighbours(g, labeled):
    """R(v) for every unlabeled v, after the nodes of ``labeled``."""
    unlabeled = set(range(g.n)) - set(labeled)
    return {v: {x for x, _ in g.adjacency[v] if x in unlabeled} for v in unlabeled}


def undominated_candidates(g, labeled):
    """The children the domination rule keeps, from its pairwise definition."""
    near = unlabeled_neighbours(g, labeled)

    def dominates(w, u):
        return (near[u] - {w} <= near[w] - {u}
                and (len(near[w]), -w) > (len(near[u]), -u))

    return {u for u in near
            if near[u] and not any(dominates(w, u) for w in near if w != u)}


def pushed_children(monkeypatch, g, node_limit=math.inf):
    """Search g with no starting incumbent, so that no child is pruned
    before an incumbent is found, and return the result and the label
    order of every child pushed onto the heap.  A child with no residual
    edge is a finished labeling and must never be pushed."""
    pushed = []

    def recording_push(heap, item):
        assert item[5], item  # the child's residual edges
        pushed.append(item[3])  # the child's labeled nodes in label order
        heapq.heappush(heap, item)

    monkeypatch.setattr(exact, "starting_heuristic", no_starting_incumbent)
    monkeypatch.setattr(exact, "heapq", SimpleNamespace(heappush=recording_push,
                                                         heappop=heapq.heappop))
    return branch_and_bound(g, node_limit=node_limit), pushed


def test_root_keeps_exactly_the_undominated_children(monkeypatch):
    # One expansion with no incumbent keeps every child the rule keeps:
    # it pushes each one with residual edges and takes a finished one, a
    # candidate that touches every edge, as the incumbent.  The bitmask
    # intersection must agree with the pairwise definition.
    rng = random.Random(7)
    graphs = [g for g in all_graphs(5) if g.m]
    graphs += [gen_gnm(n, rng.randint(1, n * (n - 1) // 2), rng.randrange(1000))
               for n in range(6, 13) for _ in range(30)]
    for g in graphs:
        res, pushed = pushed_children(monkeypatch, g, node_limit=1)
        kept = undominated_candidates(g, ())
        finished = {v for v in kept if all(v in edge for edge in g.edges)}
        assert {order[0] for order in pushed} | finished == kept, g
        assert not finished or res.upper_bound == g.m  # the centre of a star labeled 1
        candidates = sum(1 for adj in g.adjacency if adj)
        assert res.stats.dominated == candidates - len(kept)


K33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def rule_test_graphs():
    """Graphs with many twins and leaves: trees, complete bipartite
    graphs, and random graphs in which some nodes are copied as open or
    closed twins of others."""
    yield from (gen_random_tree(n, seed) for n in (9, 12) for seed in range(3))
    yield K33
    rng = random.Random(11)
    for _ in range(12):
        base = gen_gnm(6, rng.randint(5, 11), rng.randrange(1000))
        edges = list(base.edges)
        for copy in range(6, 9):
            original = rng.randrange(6)
            edges += [(x, copy) for x, _ in base.adjacency[original]]
            if rng.random() < 0.5:  # a closed twin: adjacent to its original
                edges.append((original, copy))
        yield build_graph(9, edges)


def test_only_the_lowest_twin_is_branched_on(monkeypatch):
    # Twins u, w (R(u) - {w} == R(w) - {u}) can swap labels at no cost, so
    # only the lower of them is a child; K3,3 keeps one node per side.
    for g in rule_test_graphs():
        res, pushed = pushed_children(monkeypatch, g)
        assert res.stats.proven_optimal and res.stats.dominated > 0
        for order in pushed:
            near = unlabeled_neighbours(g, order[:-1])
            v = order[-1]
            assert not any(w < v and near[v] - {w} == near[w] - {v} for w in near), (g, order)
    res, pushed = pushed_children(monkeypatch, K33, node_limit=1)
    assert {order[0] for order in pushed} == {0, 3}


def test_a_leaf_is_branched_on_only_when_its_neighbour_has_no_other(monkeypatch):
    # Labeling a leaf's neighbour x first never costs more; only when x's
    # sole unlabeled neighbour is the leaf (an isolated edge) do the two
    # tie, and then the lower index is kept.
    for g in rule_test_graphs():
        res, pushed = pushed_children(monkeypatch, g)
        for order in pushed:
            near = unlabeled_neighbours(g, order[:-1])
            v = order[-1]
            if len(near[v]) == 1:
                (x,) = near[v]
                assert near[x] == {v} and v < x, (g, order)


def test_every_pushed_child_is_undominated_in_its_parent_state(monkeypatch):
    rng = random.Random(5)
    for n in range(6, 11):
        for _ in range(4):
            g = gen_gnm(n, rng.randint(n, n * (n - 1) // 3), rng.randrange(1000))
            res, pushed = pushed_children(monkeypatch, g)
            assert res.stats.proven_optimal
            for order in pushed:
                assert order[-1] in undominated_candidates(g, order[:-1]), (g, order)


def label_order_base(g, order):
    """F + d|R| for the node that labels ``order``: its fixed cost F, its
    depth d and its residual edges R, from the definition."""
    labels = {v: k for k, v in enumerate(order, 1)}
    fixed = sum(min(labels.get(u, math.inf), labels.get(v, math.inf))
                for u, v in g.edges if u in labels or v in labels)
    residual = sum(1 for u, v in g.edges if u not in labels and v not in labels)
    return fixed + len(order) * residual


def test_a_residual_reached_by_two_label_orders_is_expanded_once(monkeypatch):
    # Labeling 0 then 7, or 7 then 0, leaves one residual edge set, and
    # every completion of either is worth its base plus the residual's own
    # optimum.  Node 0 has four edges and node 7 three, so (0, 7) fixes
    # 4 * 1 + 3 * 2 and (7, 0) fixes 3 * 1 + 4 * 2: only the cheaper is
    # expanded.  Every expansion dives, so recording the dives records the
    # expanded nodes; the dives never improve and there is no starting
    # incumbent, so that no bound cuts either child first.
    g = build_graph(10, [(0, 1), (0, 2), (0, 4), (0, 6), (1, 5), (1, 7), (2, 6), (3, 4),
                         (4, 7), (6, 9), (7, 8), (8, 9)])
    assert label_order_base(g, (0, 7)) == 20 < label_order_base(g, (7, 0)) == 21
    expanded = []

    def recording(g, incident, partial, residual):
        expanded.append(partial)
        return Labeling.from_order(g.n, partial)

    monkeypatch.setattr(exact, "DIVE_EVERY", 1)
    monkeypatch.setattr(exact, "_dive_order", recording)
    monkeypatch.setattr(exact, "local_search", lambda g, phi, deadline: (phi, math.inf))
    monkeypatch.setattr(exact, "starting_heuristic", no_starting_incumbent)
    res = branch_and_bound(g)
    assert res.stats.proven_optimal and res.upper_bound == subset_dp(g)[0]
    assert {(0,), (7,), (0, 7)} <= set(expanded) and (7, 0) not in expanded
    assert res.stats.state_dominated >= 1


def test_a_node_whose_residual_gains_a_cheaper_node_is_skipped():
    # Here some residuals are first reached at a higher base and then at a
    # lower one while the first node is still open: that node is skipped
    # when popped, and the proof still meets the program's optimum.
    g = gen_gnm(15, 44, 724364)
    res = branch_and_bound(g)
    assert res.stats.stale >= 1
    assert res.stats.proven_optimal
    assert res.lower_bound == res.upper_bound == subset_dp(g)[0] == sl_value(g, res.labeling)


def degree_bounds(g, table, order):
    """The level bound of the child that labels ``order`` and that bound
    refined by its residual degrees, with its base, residual and degrees
    from the definition."""
    labeled = set(order)
    residual = [(u, v) for u, v in g.edges if u not in labeled and v not in labeled]
    degrees = [0] * g.n
    for u, v in residual:
        degrees[u] += 1
        degrees[v] += 1
    d, size = len(order), len(residual)
    level = label_order_base(g, order) + size + sum(table[d + 1:])
    return level, level + (exact._degree_excess(degrees, size, table, d) if size else 0)


def test_degree_bound_holds_for_every_child_up_to_five_nodes():
    # Every label order's prefix is a child; its best completion is the
    # least value over the full orders that extend it.  The refinement
    # must raise some bound above the level bound, or this shows nothing.
    raised = 0
    for g in all_graphs(5):
        table = coverage_table(g)
        best = {}
        for order in permutations(range(g.n)):
            value = sl_value(g, Labeling.from_order(g.n, order))
            for d in range(1, g.n + 1):
                best[order[:d]] = min(best.get(order[:d], math.inf), value)
        for prefix, value in best.items():
            level, refined = degree_bounds(g, table, prefix)
            assert level <= refined <= value, (g, prefix)
            raised += refined > level
    assert raised > 0


def best_completions(g):
    """For each set of labeled nodes (a bitmask) of size d, the least total
    that labels d + 1, d + 2, ... on the other nodes add over the edges
    with no end in the set, by a dynamic program over the sets: the next
    node pays its label once per edge to a node outside the set."""
    nbr = exact._neighbour_masks(g)
    full = (1 << g.n) - 1
    rest = [0] * (full + 1)
    for labeled in range(full - 1, -1, -1):
        free = full & ~labeled
        if any(nbr[v] & free for v in range(g.n) if free >> v & 1):
            k = labeled.bit_count() + 1
            rest[labeled] = min(k * (nbr[v] & free).bit_count() + rest[labeled | 1 << v]
                                for v in range(g.n) if free >> v & 1)
    return rest


@st.composite
def graphs_and_orders(draw, max_nodes=8):
    n = draw(st.integers(1, max_nodes))
    pairs = list(combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    return build_graph(n, edges), draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(graphs_and_orders())
def test_degree_bound_holds_along_random_orders(case):
    g, order = case
    table = coverage_table(g)
    rest = best_completions(g)
    labeled = 0
    for d in range(1, g.n + 1):
        labeled |= 1 << order[d - 1]
        size = sum(1 for u, v in g.edges if not (labeled >> u & 1 or labeled >> v & 1))
        best = label_order_base(g, order[:d]) - d * size + rest[labeled]  # F + the rest
        level, refined = degree_bounds(g, table, order[:d])
        assert level <= refined <= best, (g, order, d)


def random_forest(rng, n):
    """A forest on n nodes: node v > 0 hangs from an earlier node with
    probability 4/5, and the nodes are then renumbered at random."""
    names = list(range(n))
    rng.shuffle(names)
    return build_graph(n, [(names[rng.randrange(v)], names[v])
                           for v in range(1, n) if rng.random() < 0.8])


def is_forest(g):
    """Whether g has no cycle, by union-find: an edge whose ends are
    already joined closes one."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def test_forest_levels_equal_enumeration_on_random_forests():
    # Isolated nodes come from the nodes that hang from nothing; the empty
    # graph has g_0 = 0 and nothing else.
    rng = random.Random(33)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(4, [])]
    graphs += [random_forest(rng, rng.randint(1, 10)) for _ in range(300)]
    assert sum(g.m < g.n - 1 for g in graphs) > 100
    for g in graphs:
        assert forest_levels(g) == enumerated_table(g) + [0], g


def test_forest_levels_refuse_every_graph_with_a_cycle():
    forests = 0
    for g in all_graphs(5):
        levels = forest_levels(g)
        if is_forest(g):
            forests += 1
            assert levels == enumerated_table(g) + [0], g
        else:
            assert levels is None, g
    assert forests == 1 + 2 + 7 + 38 + 291  # the labeled forests on 1 to 5 nodes
    assert forest_levels(gen_gnm(100, 250, 2)) is None


def test_forest_levels_stop_at_a_passed_deadline():
    g = gen_random_tree(100, 1)
    assert forest_levels(g, time.perf_counter()) is None
    assert forest_levels(g, time.perf_counter() + 3600.0) == forest_levels(g)
    assert sum(forest_levels(g)) == 1715


@pytest.mark.parametrize("n", range(2, 41))
def test_forest_levels_meet_the_path_formula(n):
    assert sum(forest_levels(gen_path(n))) == formula_path_cycle("path", n)


@pytest.mark.parametrize("arity, depth", [(a, d) for a in (2, 3, 4) for d in (1, 2, 3, 4)])
def test_forest_levels_meet_the_perfect_nary_optimum(arity, depth):
    assert sum(forest_levels(gen_perfect_nary(arity, depth))) \
        == solve_perfect_nary(arity, depth)[1]


@st.composite
def forests(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    names = draw(st.permutations(range(n)))
    parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, n)]
    return build_graph(n, [(names[p], names[v]) for v, p in enumerate(parents, 1)
                           if p is not None])


@settings(max_examples=150, deadline=None)
@given(forests())
def test_forest_levels_sum_bounds_the_optimum(g):
    levels = forest_levels(g)
    assert len(levels) == g.n + 1 and levels[0] == g.m and levels[-1] == 0
    assert sum(coverage_table(g)) <= sum(levels) <= subset_dp(g)[0]
