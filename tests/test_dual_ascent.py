from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from slabel.core import Graph, Labeling, build_graph, max_degree, sl_value
from slabel.dual_ascent import (
    AscentStep,
    DualSolution,
    check_dual_feasible,
    dual_ascent_extended,
    dual_ascent_simple,
)
from slabel.exact import brute_force
from slabel.instances import (
    SplitMix64,
    gen_bipartite,
    gen_caterpillar,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_perfect_nary,
    gen_random_tree,
)


def star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestSimpleVariant:
    def test_grid_value_24(self):
        g = gen_grid(3, 3)
        sol, z = dual_ascent_simple(g)
        assert z == 24
        feasible, objective = check_dual_feasible(g, sol)
        assert feasible and objective == 24

    def test_p3_zero_steps(self):
        g = gen_path(3)
        sol, z = dual_ascent_simple(g)
        assert z == 2
        assert all(a == 0 for a in sol.alpha)

    def test_c4(self):
        g = gen_cycle(4)
        _, z = dual_ascent_simple(g)
        assert z == 6

    def test_edgeless(self):
        g = build_graph(4, [])
        sol, z = dual_ascent_simple(g)
        assert z == 0
        assert sol.objective() == 0


class TestExtendedVariant:
    def test_grid_value_27_with_trace(self):
        g = gen_grid(3, 3)
        sol, z, trace = dual_ascent_extended(g)
        assert z == 27
        assert [s.net_change for s in trace] == [8, 5, 2]
        # the edge (B, E) = (1, 4) leaves the active set in step 1
        be = g.edges.index((1, 4))
        assert sol.edge_last_step[be] == 0
        feasible, objective = check_dual_feasible(g, sol)
        assert feasible and objective == 27

    def test_p5(self):
        g = gen_path(5)
        _, z, _ = dual_ascent_extended(g)
        assert z == 6

    def test_star_k14(self):
        g = star(4)
        _, z, _ = dual_ascent_extended(g)
        assert z == 4 == brute_force(g)[0]

    def test_trace_net_changes_positive_nonincreasing(self):
        rng = SplitMix64(17)
        for _ in range(30):
            n = 4 + rng.below(10)
            m = 1 + rng.below(n * (n - 1) // 2)
            g = gen_gnm(n, m, rng.next_u64())
            _, _, trace = dual_ascent_extended(g)
            nets = [s.net_change for s in trace]
            assert all(x > 0 for x in nets)
            assert all(a >= b for a, b in zip(nets, nets[1:]))

    def test_edgeless(self):
        g = build_graph(3, [])
        _, z, trace = dual_ascent_extended(g)
        assert z == 0 and trace == []


class TestFeasibility:
    def test_emitted_solutions_always_feasible(self):
        rng = SplitMix64(23)
        for _ in range(40):
            n = 3 + rng.below(10)
            m = 1 + rng.below(n * (n - 1) // 2)
            g = gen_gnm(n, m, rng.next_u64())
            sol, z = dual_ascent_simple(g)
            ok, obj = check_dual_feasible(g, sol)
            assert ok and obj == z
            sol2, z2, _ = dual_ascent_extended(g)
            ok2, obj2 = check_dual_feasible(g, sol2)
            assert ok2 and obj2 == z2

    def test_all_zero_duals_with_unit_gamma(self):
        g = gen_grid(3, 3)
        sol = DualSolution(
            n_labels=g.n,
            alpha=(0,) * g.n,
            gamma=(1,) * g.m,
            edge_last_step=(0,) * g.m,
        )
        feasible, objective = check_dual_feasible(g, sol)
        assert feasible and objective == g.m

    def test_bumped_gamma_infeasible(self):
        g = gen_grid(3, 3)
        sol, _, _ = dual_ascent_extended(g)
        gamma = list(sol.gamma)
        gamma[0] += 1
        bumped = DualSolution(
            n_labels=sol.n_labels,
            alpha=sol.alpha,
            gamma=tuple(gamma),
            edge_last_step=sol.edge_last_step,
        )
        feasible, _ = check_dual_feasible(g, bumped)
        assert not feasible

    def test_dimension_mismatch(self):
        g = gen_path(3)
        sol, _ = dual_ascent_simple(gen_path(4))
        with pytest.raises(ValueError):
            check_dual_feasible(g, sol)


class TestWeakDuality:
    def test_bounds_never_exceed_optimum(self):
        rng = SplitMix64(29)
        for _ in range(25):
            n = 3 + rng.below(6)
            m = 1 + rng.below(n * (n - 1) // 2)
            g = gen_gnm(n, m, rng.next_u64())
            optimum, _ = brute_force(g)
            _, z1 = dual_ascent_simple(g)
            _, z2, _ = dual_ascent_extended(g)
            assert z1 <= optimum
            assert z2 <= optimum

    def test_any_labeling_dominates_dual_bound(self):
        g = gen_gnm(6, 9, 4)
        _, z, _ = dual_ascent_extended(g)
        for perm in permutations(range(1, 7)):
            assert sl_value(g, Labeling(labels=perm)) >= z


class TestStrongDualityOnSpecialGraphs:
    def test_paths_and_cycles_up_to_12(self):
        for n in range(2, 13):
            g = gen_path(n)
            _, z = dual_ascent_simple(g)
            from slabel.special_graphs import formula_path_cycle

            assert z == formula_path_cycle("path", n)
        for n in range(3, 13):
            g = gen_cycle(n)
            _, z = dual_ascent_simple(g)
            from slabel.special_graphs import formula_path_cycle

            assert z == formula_path_cycle("cycle", n)

    def test_nary_trees(self):
        from slabel.special_graphs import solve_perfect_nary

        for arity in (1, 2, 3):
            for depth in (1, 2, 3):
                g = gen_perfect_nary(arity, depth)
                _, z = dual_ascent_simple(g)
                _, value = solve_perfect_nary(arity, depth)
                assert z == value


class TestExtendedVersusSimple:
    def test_report_never_asserts(self):
        # not claimed in general; report violations instead of failing
        rng = SplitMix64(41)
        violations = []
        for _ in range(40):
            n = 3 + rng.below(10)
            m = 1 + rng.below(n * (n - 1) // 2)
            g = gen_gnm(n, m, rng.next_u64())
            _, z1 = dual_ascent_simple(g)
            _, z2, _ = dual_ascent_extended(g)
            if z2 < z1:
                violations.append((n, m, z1, z2))
        print(f"extended < simple on {len(violations)} of 40 instances: {violations}")


class TestMaxDegreeRefutation:
    def test_optimal_grid_labeling_avoids_degree_four_node(self):
        # an optimal labeling exists in which the unique degree-4 node
        # does not carry label 1
        g = gen_grid(3, 3)
        phi = Labeling(labels=(5, 1, 6, 2, 7, 3, 8, 4, 9))
        assert g.degree(4) == 4
        assert phi.label_of(4) == 7
        assert sl_value(g, phi) == 30 == brute_force(g)[0]


# Reference kernel: the extended ascent as first written, which re-sorts
# every node and every incident edge list for each trial amount.  The
# production kernel must return exactly what it returns.


def _zero_solution(g: Graph) -> DualSolution:
    return DualSolution(
        n_labels=g.n,
        alpha=(0,) * g.n,
        gamma=(),
        edge_last_step=(),
    )


def _enforce_degree_cap(
    g: Graph, flags: list[bool], degrees: list[int], cap: int
) -> tuple[list[bool], list[int]]:
    """Deactivate edges until every active degree is <= cap.

    Nodes are visited in order of their degree at entry (descending, ties
    by index); at each node the active incident edges are dropped in order
    of the other endpoint's current degree (descending, ties by edge index).
    """
    flags = flags.copy()
    deg = degrees.copy()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    for v in order:
        if deg[v] <= cap:
            continue
        incident = [(x, e) for x, e in g.adjacency[v] if flags[e]]
        incident.sort(key=lambda t: (-deg[t[0]], t[1]))
        for x, e in incident:
            if deg[v] <= cap:
                break
            flags[e] = False
            deg[v] -= 1
            deg[x] -= 1
    return flags, deg


def reference_dual_ascent_extended(g: Graph) -> tuple[DualSolution, int, list[AscentStep]]:
    """Ascent that may pay less than the maximum degree per step by
    deactivating edges; deactivated edges stop earning in later steps.

    Each step tries every per-label amount up to the current maximum
    active degree, keeps the one with the largest positive net change
    (smallest amount on ties), and commits its surviving active set.
    """
    m = g.m
    if m == 0:
        return _zero_solution(g), 0, []
    flags = [True] * m
    degrees = [len(adj) for adj in g.adjacency]
    last_step = [0] * m
    step_alphas: list[int] = []
    trace: list[AscentStep] = []
    z = m
    for step in range(1, g.n + 1):
        delta_active = max(degrees)
        if delta_active == 0:
            break
        best_net = 0
        best: tuple[int, list[bool], list[int], int] | None = None
        for alpha_bar in range(1, delta_active + 1):
            cand_flags, cand_deg = _enforce_degree_cap(g, flags, degrees, alpha_bar)
            count = sum(cand_flags)
            net = count - step * alpha_bar
            if net > best_net:
                best_net = net
                best = (alpha_bar, cand_flags, cand_deg, count)
        if best is None:
            break
        alpha_bar, flags, degrees, count = best
        step_alphas.append(alpha_bar)
        z += best_net
        for e in range(m):
            if flags[e]:
                last_step[e] = step
        trace.append(
            AscentStep(
                step=step,
                alpha_value=alpha_bar,
                active_edges=count,
                net_change=best_net,
                objective=z,
            )
        )
    steps = len(step_alphas)
    alpha = [0] * g.n
    suffix = 0
    for k in range(steps, 0, -1):
        suffix += step_alphas[k - 1]
        alpha[k - 1] = suffix
    solution = DualSolution(
        n_labels=g.n,
        alpha=tuple(alpha),
        gamma=tuple(1 + last_step[e] for e in range(m)),
        edge_last_step=tuple(last_step),
    )
    return solution, z, trace


@st.composite
def shuffled_graphs(draw, max_nodes=12):
    """Any simple graph on at most max_nodes nodes, its edges in any order
    (edge indices drive the kernel's tie-breaks)."""
    n = draw(st.integers(1, max_nodes))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = draw(st.permutations([pair for pair, k in zip(pairs, keep) if k]))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return build_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)])


class TestAgainstReferenceKernel:
    def test_every_graph_up_to_five_nodes(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert dual_ascent_extended(g) == reference_dual_ascent_extended(g)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    @settings(max_examples=200, deadline=None)
    @given(shuffled_graphs())
    def test_random_graphs_up_to_twelve_nodes(self, g):
        assert dual_ascent_extended(g) == reference_dual_ascent_extended(g)

    @pytest.mark.parametrize(
        "g",
        [
            gen_gnm(40, 100, 3),
            gen_gnm(30, 200, 8),
            gen_random_tree(60, 4),
            gen_caterpillar(25, 0.6, 2),
            gen_lobster(20, 0.7, 0.5, 1),
            gen_bipartite(20, 25, 0.15, 6),
            gen_grid(6, 8),
            gen_perfect_nary(3, 3),
            gen_path(50),
            gen_cycle(51),
        ],
        ids=lambda g: f"n{g.n}-m{g.m}-maxdeg{max_degree(g)}",
    )
    def test_generator_families(self, g):
        assert dual_ascent_extended(g) == reference_dual_ascent_extended(g)
