from itertools import permutations

from slabel.core import Labeling, build_graph, exchange_delta, sl_value
from slabel.heuristics import greedy_label, local_search, starting_heuristic
from slabel.instances import (
    InstanceSpec,
    SplitMix64,
    gen_gnm,
    gen_grid,
    gen_path,
)

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
        i = phi.node_of(k)
        max_contrib = max(
            (min(k, phi.label_of(x)) for x, _ in g.adjacency[i]), default=0
        )
        for kp in range(1, min(k, max_contrib) + 1):
            if kp == k:
                continue
            assert exchange_delta(g, phi, i, phi.node_of(kp)) >= 0


class TestGreedy:
    def test_star_center_first(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        phi, value = greedy_label(g)
        assert phi.label_of(0) == 1
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


class TestStartingHeuristic:
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
