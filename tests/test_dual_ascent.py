from itertools import permutations

import pytest

from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import (
    DualSolution,
    check_dual_feasible,
    dual_ascent_extended,
    dual_ascent_simple,
)
from slabel.exact import brute_force
from slabel.instances import (
    SplitMix64,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_path,
    gen_perfect_nary,
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
