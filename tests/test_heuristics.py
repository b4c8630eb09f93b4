import hashlib
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from slabel import lagrangian
from slabel.core import Labeling, build_graph, exchange_delta, sl_value
from slabel.exact import branch_and_bound
from slabel.heuristics import greedy_label, local_search, starting_heuristic
from slabel.instances import (
    GENERATORS,
    InstanceSpec,
    SplitMix64,
    gen_gnm,
    gen_grid,
    gen_path,
    gen_random_tree,
)
from slabel.lagrangian import SubgradientParams, run_subgradient
from test_dual_ascent import LARGE  # this test's directory

GRID_OPT = Labeling(labels=(5, 1, 6, 2, 7, 3, 8, 4, 9))


def enumerate_optimum(g):
    best = None
    for perm in permutations(range(1, g.n + 1)):
        val = sl_value(g, Labeling(labels=perm))
        if best is None or val < best:
            best = val
    return best


def assert_locally_optimal(g, phi):
    # no exchange among the eligible pairs of the sweep rule improves
    for k in range(1, g.n + 1):
        i = phi.labels.index(k)
        max_contrib = max(
            (min(k, phi.labels[x]) for x, _ in g.adjacency[i]), default=0
        )
        for kp in range(1, min(k, max_contrib) + 1):
            if kp == k:
                continue
            assert exchange_delta(g, phi, i, phi.labels.index(kp)) >= 0


class TestGreedy:
    def test_star_center_first(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        phi, value = greedy_label(g)
        assert phi.labels[0] == 1
        assert value == 3

    def test_k3_matches_enumeration(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        _, value = greedy_label(g)
        assert value == enumerate_optimum(g) == 4

    def test_guarantee_on_random_instances(self):
        # strict on non-complete graphs; complete graphs attain the bound
        # with equality (every labeling of K_n has value n(n-1)(n+1)/6)
        rng = SplitMix64(5)
        for _ in range(50):
            n = 3 + rng.below(12)
            m = 1 + rng.below(n * (n - 1) // 2 - 1)
            g = gen_gnm(n, m, rng.next_u64())
            _, value = greedy_label(g)
            assert 3 * value < g.m * (g.n + 1)

    def test_complete_graph_attains_bound_exactly(self):
        g = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        _, value = greedy_label(g)
        assert 3 * value == g.m * (g.n + 1)
        assert value == enumerate_optimum(g)

    def test_value_matches_labeling(self):
        g = gen_gnm(20, 40, 9)
        phi, value = greedy_label(g)
        assert value == sl_value(g, phi)


def reference_greedy_label(g):
    """greedy_label as it was before it used Labeling.from_order: a scan
    for the lowest-index unlabeled node of maximum residual degree."""
    residual_degree = [len(adj) for adj in g.adjacency]
    labeled = [False] * g.n
    labels = [0] * g.n
    for k in range(1, g.n + 1):
        best = -1
        for v in range(g.n):
            if not labeled[v] and (best < 0 or residual_degree[v] > residual_degree[best]):
                best = v
        labels[best] = k
        labeled[best] = True
        for x, _ in g.adjacency[best]:
            residual_degree[x] -= 1
    phi = Labeling(labels=tuple(labels))
    return phi, sl_value(g, phi)


# One instance of each generator kind, as InstanceSpec arguments.
FAMILY_SPECS = {
    "path": {"n": 40}, "cycle": {"n": 41}, "nary": {"arity": 3, "depth": 3},
    "grid": {"rows": 6, "cols": 7}, "gnm": {"n": 60, "m": 150},
    "tree": {"n": 80}, "caterpillar": {"backbone": 25, "p1": 0.6},
    "lobster": {"backbone": 20, "p1": 0.7, "p2": 0.5},
    "bipartite": {"n1": 20, "n2": 25, "p": 0.15},
}


class TestGreedyAgainstReference:
    def test_every_graph_up_to_six_nodes(self):
        checked = 0
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert greedy_label(g) == reference_greedy_label(g)
                checked += 1
        assert checked == 33868

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_generator_families(self, kind):
        g = InstanceSpec(kind, FAMILY_SPECS[kind], seed=3).generate()
        assert greedy_label(g) == reference_greedy_label(g)

    @pytest.mark.parametrize("g", LARGE + [gen_gnm(500, 1500, 7)], ids=lambda g: f"n{g.n}-m{g.m}")
    def test_large_graphs(self, g):
        assert greedy_label(g) == reference_greedy_label(g)


class TestLocalSearch:
    def test_p3_improves_to_optimum(self):
        g = gen_path(3)
        phi, value = local_search(g, Labeling(labels=(1, 2, 3)))
        assert value == 2 == enumerate_optimum(g)

    def test_fixed_point(self):
        g = gen_path(3)
        phi, value = local_search(g, Labeling(labels=(2, 1, 3)))
        again, value2 = local_search(g, phi)
        assert again.labels == phi.labels and value2 == value

    def test_grid_optimum_stays_30(self):
        g = gen_grid(3, 3)
        phi, value = local_search(g, GRID_OPT)
        assert value == 30

    def test_never_worse_and_consistent(self):
        rng = SplitMix64(31)
        for _ in range(30):
            n = 3 + rng.below(10)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = gen_gnm(n, m, rng.next_u64())
            labels = list(range(1, n + 1))
            for pos in range(n - 1, 0, -1):
                other = rng.below(pos + 1)
                labels[pos], labels[other] = labels[other], labels[pos]
            start = Labeling(labels=tuple(labels))
            phi, value = local_search(g, start)
            assert value <= sl_value(g, start)
            assert value == sl_value(g, phi)
            assert_locally_optimal(g, phi)

    def test_passed_deadline_runs_no_sweep(self):
        g = gen_path(3)
        start = Labeling(labels=(1, 2, 3))
        phi, value = local_search(g, start, deadline=time.perf_counter())
        assert phi == start and value == sl_value(g, start)

    def test_wrong_length_labeling_is_rejected(self):
        g = gen_path(3)
        for labels in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match=f"labeling has {len(labels)} entries for 3 nodes"):
                local_search(g, Labeling(labels=labels))


def reference_local_search(g, phi, deadline=None):
    """local_search as it was before the gain/cost split: both neighbour
    lists scanned in full for every candidate label."""
    labels = list(phi.labels)
    inverse = [0] * g.n
    for v, lab in enumerate(labels):
        inverse[lab - 1] = v
    neighbors = [tuple(x for x, _ in adj) for adj in g.adjacency]
    value = sl_value(g, phi)

    improved = True
    while improved and (deadline is None or time.perf_counter() < deadline):
        improved = False
        for k in range(1, g.n + 1):
            i = inverse[k - 1]
            adj_i = neighbors[i]
            max_neighbor = 0
            for x in adj_i:
                lx = labels[x]
                if lx > max_neighbor:
                    max_neighbor = lx
            limit = k if k < max_neighbor else max_neighbor
            for kp in range(1, limit + 1):
                if kp == k:
                    continue
                ip = inverse[kp - 1]
                delta = 0
                for x in adj_i:
                    if x == ip:
                        continue
                    lx = labels[x]
                    delta += (kp if kp < lx else lx) - (k if k < lx else lx)
                for x in neighbors[ip]:
                    if x == i:
                        continue
                    lx = labels[x]
                    delta += (k if k < lx else lx) - (kp if kp < lx else lx)
                if delta < 0:
                    labels[i], labels[ip] = kp, k
                    inverse[k - 1], inverse[kp - 1] = ip, i
                    value += delta
                    improved = True
                    break
    result = Labeling(labels=tuple(labels))
    return result, value


@st.composite
def labeled_graphs(draw, max_nodes=14):
    n = draw(st.integers(1, max_nodes))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = draw(st.permutations(range(1, n + 1)))
    return build_graph(n, [p for p, k in zip(pairs, keep) if k]), Labeling(labels=tuple(labels))


@st.composite
def larger_labeled_graphs(draw):
    # Random labelings of 15-40 nodes take several sweeps, so walks that
    # skip the exchanges whose verdict is known come up often.
    n = draw(st.integers(15, 40))
    m = draw(st.integers(n, min(4 * n, n * (n - 1) // 2)))
    g = gen_gnm(n, m, draw(st.integers(0, 2**64 - 1)))
    labels = draw(st.permutations(range(1, n + 1)))
    return g, Labeling(labels=tuple(labels))


class TestLocalSearchAgainstReference:
    def test_every_graph_up_to_six_nodes(self):
        checked = 0
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            starts = (Labeling(labels=tuple(range(1, n + 1))),
                      Labeling(labels=tuple(range(n, 0, -1))))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                for phi in starts:
                    assert local_search(g, phi) == reference_local_search(g, phi)
                checked += 1
        assert checked == 33868

    @settings(max_examples=100, deadline=None)
    @given(labeled_graphs())
    def test_random_labelings(self, case):
        g, phi = case
        assert local_search(g, phi) == reference_local_search(g, phi)

    @settings(max_examples=100, deadline=None)
    @given(larger_labeled_graphs())
    def test_random_labelings_of_larger_graphs(self, case):
        g, phi = case
        assert local_search(g, phi) == reference_local_search(g, phi)

    def test_exchange_found_through_the_first_listed_label(self):
        # Found by random search: a walk here applies an exchange whose kp
        # only the first exchange after that walk's previous start listed.
        g = gen_gnm(42, 112, 2756036333)
        phi = Labeling(labels=(
            31, 5, 23, 11, 32, 22, 2, 34, 14, 35, 40, 13, 18, 8, 1, 10, 27, 3, 41, 28, 9,
            38, 25, 36, 24, 17, 7, 20, 37, 16, 33, 6, 4, 39, 30, 42, 12, 19, 29, 21, 15, 26,
        ))
        assert local_search(g, phi) == reference_local_search(g, phi)

    def test_exchange_of_adjacent_nodes(self):
        # The centre of this star (label 2) takes label 1 from its
        # neighbour.  ip = 1 is adjacent to i = 0, and i is ip's only upper
        # neighbour, so the cost floor must leave i out: counted, it would
        # reach the gain, 1, and reject the exchange.
        g = build_graph(3, [(0, 1), (0, 2)])
        phi = Labeling(labels=(2, 1, 3))
        assert local_search(g, phi) == reference_local_search(g, phi) \
            == (Labeling(labels=(1, 2, 3)), 2)

    def test_exchange_of_nodes_with_a_common_neighbour(self):
        # On the path 3-0-1-2, nodes 0 (label 3) and 2 (label 1) exchange
        # first; node 1 is next to both, so its row of neighbour labels
        # goes from {3, 1} through {1, 1} to {1, 3}.  The second exchange,
        # of nodes 1 (label 4) and 0 (now 1), is found from that row.
        g = build_graph(4, [(0, 1), (0, 3), (1, 2)])
        phi = Labeling(labels=(3, 4, 1, 2))
        assert local_search(g, phi) == reference_local_search(g, phi) \
            == (Labeling(labels=(4, 1, 3, 2)), 4)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_generator_families(self, kind):
        g = InstanceSpec(kind, FAMILY_SPECS[kind], seed=3).generate()
        labels = list(range(1, g.n + 1))
        random.Random(kind).shuffle(labels)
        for phi in (greedy_label(g)[0], Labeling(labels=tuple(labels))):
            assert local_search(g, phi) == reference_local_search(g, phi)

    def test_subgradient_labelings(self, monkeypatch):
        # The x-subproblem labelings of a Lagrangian run: starts that come
        # from the assignment solver, not from greedy.
        seen = []

        def recording(g, phi, deadline=None):
            result = local_search(g, phi, deadline)
            seen.append((g, phi, result))
            return result

        monkeypatch.setattr(lagrangian, "local_search", recording)
        run_subgradient(gen_gnm(60, 150, 2), SubgradientParams(max_iter=25))
        assert len(seen) == 25
        for g, phi, result in seen:
            assert result == reference_local_search(g, phi)


class TestStartingHeuristic:
    # heuristic-large's graphs other than the special ones, as InstanceSpec
    # arguments, with the value and the sha256 of repr(labels) of greedy
    # plus local search.
    PINNED = [
        ("tree", {"n": 1000}, 2, 163767,
         "9b14b2866d3eef7288eb87ab0986d77d2e5d4a0f34981041b11cf6ef7616eb08"),
        ("gnm", {"n": 500, "m": 1500}, 7, 154546,
         "7b99ae658fd5efe9681c75f9d068129813be6fba483917b893abfbf602df66c0"),
        ("grid", {"rows": 20, "cols": 20}, 0, 73104,
         "3d00d723a0ae668e5308db63054830ad9d80525e25a43904d9fa579294c239c9"),
        ("bipartite", {"n1": 100, "n2": 100, "p": 0.03}, 5, 10667,
         "537f8796139d8db8cab336d5a84fbecf30729d43a7e5981c2fbee7590073a5cc"),
        ("caterpillar", {"backbone": 300, "p1": 0.6}, 3, 8929,
         "5233473e294b9ffbab1d9637cb18d6d5883434a57609091e3c5b5ad1faf87364"),
        ("lobster", {"backbone": 200, "p1": 0.7, "p2": 0.5}, 4, 1658,
         "ad94fde65d96b26da157795473df78ecf37447a296a6200c122a3caf5123f66f"),
    ]

    @pytest.mark.parametrize("kind, params, seed, value, digest", PINNED,
                             ids=[kind for kind, *_ in PINNED])
    def test_benchmark_graphs_pinned(self, kind, params, seed, value, digest):
        g = InstanceSpec(kind, params, seed=seed).generate()
        phi, found = starting_heuristic(g)
        assert found == value == sl_value(g, phi)
        assert hashlib.sha256(repr(phi.labels).encode()).hexdigest() == digest

    def test_grid_at_least_optimum(self):
        g = gen_grid(3, 3)
        phi, value = starting_heuristic(g)
        assert value >= 30
        assert value == sl_value(g, phi)

    def test_edgeless(self):
        g = build_graph(4, [])
        phi, value = starting_heuristic(g)
        assert value == 0

    def test_p5_reaches_optimum(self):
        g = gen_path(5)
        _, value = starting_heuristic(g)
        assert value == enumerate_optimum(g) == 6

    def test_never_exceeds_greedy(self):
        for spec in (
            InstanceSpec("gnm", {"n": 15, "m": 30}, seed=1),
            InstanceSpec("tree", {"n": 20}, seed=2),
            InstanceSpec("grid", {"rows": 4, "cols": 4}),
        ):
            g = spec.generate()
            _, greedy_value = greedy_label(g)
            _, value = starting_heuristic(g)
            assert value <= greedy_value


def _bnb(g, time_limit):
    res = branch_and_bound(g, deadline=time.perf_counter() + time_limit)
    return res.lower_bound, res.upper_bound, res.labeling


def _lagrangian(g, time_limit):
    res = run_subgradient(g, deadline=time.perf_counter() + time_limit)
    return res.lower_bound, res.incumbent_value, res.best_labeling


@pytest.mark.parametrize("solve", [_bnb, _lagrangian])
def test_time_limit_covers_the_starting_local_search(solve):
    # Local search on the greedy labeling of this tree takes about 0.2 s; it
    # reads the deadline before each sweep, so the solver stops soon after.
    g = gen_random_tree(1000, 1)
    started = time.perf_counter()
    lb, ub, phi = solve(g, 0.1)
    assert time.perf_counter() - started < 1.0
    assert 0 <= lb <= ub == sl_value(g, phi)


@pytest.mark.parametrize("solve", [_bnb, _lagrangian])
def test_passed_deadline_reaches_the_starting_local_search(solve):
    # Local search lowers greedy's value on this tree; with no time left it
    # runs no sweep, so the solver's upper bound is greedy's.
    g = gen_random_tree(1000, 1)
    lb, ub, phi = solve(g, 0)
    assert ub == greedy_label(g)[1] > local_search(g, greedy_label(g)[0])[1]
    assert 0 <= lb <= ub == sl_value(g, phi)
