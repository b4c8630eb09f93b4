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
    # Local search on the greedy labeling of this tree takes about 1 s; it
    # reads the deadline before each sweep, so the solver stops soon after.
    g = gen_random_tree(1000, 1)
    started = time.perf_counter()
    lb, ub, phi = solve(g, 0.1)
    assert time.perf_counter() - started < 1.0
    assert 0 <= lb <= ub == sl_value(g, phi)
