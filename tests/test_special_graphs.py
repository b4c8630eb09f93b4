from itertools import permutations

import pytest

from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_simple
from slabel.exact import brute_force
from slabel.instances import (
    gen_cycle,
    gen_grid,
    gen_path,
    gen_perfect_nary,
    nary_node_count,
    read_instance,
    write_instance,
)
from slabel.special_graphs import (
    StructureKind,
    detect_structure,
    formula_nary,
    formula_path_cycle,
    label_perfect_nary,
    solve_cycle,
    solve_path,
    solve_perfect_nary,
)


def enumerate_optimum(g):
    return min(
        sl_value(g, Labeling(labels=perm))
        for perm in permutations(range(1, g.n + 1))
    )


class TestDetectStructure:
    def test_path(self):
        assert detect_structure(gen_path(7)).kind is StructureKind.PATH

    def test_triangle_is_cycle(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert detect_structure(g).kind is StructureKind.CYCLE

    def test_grid_is_other(self):
        assert detect_structure(gen_grid(3, 3)).kind is StructureKind.OTHER

    def test_nary_detection_with_relabeled_nodes(self):
        g = gen_perfect_nary(3, 2)
        # reverse node ids; structure must still be found
        remapped = build_graph(
            g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges]
        )
        s = detect_structure(remapped)
        assert s.kind is StructureKind.PERFECT_NARY
        assert (s.arity, s.depth) == (3, 2)
        assert s.root == g.n - 1

    def test_path_takes_precedence_over_unary_tree(self):
        s = detect_structure(gen_perfect_nary(1, 4))
        assert s.kind is StructureKind.PATH

    def test_star_is_nary_depth_one(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        s = detect_structure(g)
        assert s.kind is StructureKind.PERFECT_NARY
        assert (s.arity, s.depth, s.root) == (3, 1, 0)

    def test_near_miss_trees_are_other(self):
        # perfect binary depth 2 plus one extra leaf
        g = build_graph(
            8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7)]
        )
        assert detect_structure(g).kind is StructureKind.OTHER


class TestSolvePath:
    def test_p5_value_6(self):
        g = gen_path(5)
        assert sl_value(g, solve_path(g)) == 6

    def test_p2_value_1(self):
        g = gen_path(2)
        assert sl_value(g, solve_path(g)) == 1

    def test_p4_value_4(self):
        g = gen_path(4)
        assert sl_value(g, solve_path(g)) == 4

    def test_rejects_non_path(self):
        with pytest.raises(ValueError):
            solve_path(gen_cycle(4))

    def test_works_on_scrambled_node_ids(self):
        # path 3-0-4-1-2 written as edges
        g = build_graph(5, [(0, 3), (0, 4), (1, 4), (1, 2)])
        phi = solve_path(g)
        assert sl_value(g, phi) == 6


class TestSolveCycle:
    def test_c4(self):
        g = gen_cycle(4)
        assert sl_value(g, solve_cycle(g)) == 6

    def test_c3(self):
        g = gen_cycle(3)
        assert sl_value(g, solve_cycle(g)) == 4

    def test_c6(self):
        g = gen_cycle(6)
        assert sl_value(g, solve_cycle(g)) == 12

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            solve_cycle(gen_path(4))


class TestSolvePerfectNary:
    def test_2_2_matches_oracle(self):
        _, value = solve_perfect_nary(2, 2)
        assert value == 9 == brute_force(gen_perfect_nary(2, 2))[0]

    def test_2_3_matches_dual(self):
        _, value = solve_perfect_nary(2, 3)
        _, z = dual_ascent_simple(gen_perfect_nary(2, 3))
        assert value == 40 == z

    def test_1_3_is_p4(self):
        _, value = solve_perfect_nary(1, 3)
        assert value == 4 == formula_path_cycle("path", 4)

    def test_labeling_is_valid(self):
        phi, value = solve_perfect_nary(3, 2)
        g = gen_perfect_nary(3, 2)
        assert sl_value(g, phi) == value

    def test_label_perfect_nary_on_detected_graph(self):
        g = gen_perfect_nary(2, 3)
        text = write_instance(g)
        reread = read_instance(text)
        s = detect_structure(reread)
        phi = label_perfect_nary(reread, s)
        assert sl_value(reread, phi) == 40

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            solve_perfect_nary(0, 2)
        with pytest.raises(ValueError):
            solve_perfect_nary(2, 0)


class TestFormulas:
    def test_path_cycle_examples(self):
        assert formula_path_cycle("path", 5) == 6
        assert formula_path_cycle("cycle", 3) == 4
        assert formula_path_cycle("path", 2) == 1

    def test_formula_equals_algorithm_up_to_30(self):
        for n in range(2, 31):
            g = gen_path(n)
            assert sl_value(g, solve_path(g)) == formula_path_cycle("path", n)
        for n in range(3, 31):
            g = gen_cycle(n)
            assert sl_value(g, solve_cycle(g)) == formula_path_cycle("cycle", n)

    def test_nary_expression_values(self):
        assert formula_nary(2, 2) == (9, True)
        assert solve_perfect_nary(2, 2)[1] == 9
        assert formula_nary(2, 1) == (2, True)
        assert solve_perfect_nary(2, 1)[1] == 2 == enumerate_optimum(
            gen_perfect_nary(2, 1)
        )

    def test_nary_expression_for_unary_depth3(self):
        # the unary tree of depth 3 is the 4-node path
        assert formula_nary(1, 3) == (4, True)
        assert solve_perfect_nary(1, 3)[1] == 4 == formula_path_cycle("path", 4)

    def test_nary_integral_when_divisible(self):
        # the flag agrees with the denominator of the exact value
        for arity in (1, 2, 3):
            for depth in (1, 2, 3, 4):
                value, integral = formula_nary(arity, depth)
                assert integral == (value.denominator == 1)

    def test_nary_formula_equals_algorithm_up_to_40k_nodes(self):
        # 47 trees: arity 1..6, depth 1..10, at most 40,000 nodes
        pairs = [(a, d) for a in range(1, 7) for d in range(1, 11)
                 if nary_node_count(a, d) <= 40_000]
        assert len(pairs) == 47
        for arity, depth in pairs:
            value, integral = formula_nary(arity, depth)
            assert integral and value == solve_perfect_nary(arity, depth)[1], (arity, depth)
            if nary_node_count(arity, depth) <= 12:
                assert value == brute_force(gen_perfect_nary(arity, depth))[0], (arity, depth)


class TestPrimalDualEquality:
    def test_paths_cycles_up_to_30(self):
        for n in range(2, 31):
            g = gen_path(n)
            _, z = dual_ascent_simple(g)
            assert sl_value(g, solve_path(g)) == z
        for n in range(3, 31):
            g = gen_cycle(n)
            _, z = dual_ascent_simple(g)
            assert sl_value(g, solve_cycle(g)) == z

    def test_nary_up_to_121_nodes(self):
        for arity in (1, 2, 3):
            for depth in (1, 2, 3, 4):
                if nary_node_count(arity, depth) > 121:
                    continue
                g = gen_perfect_nary(arity, depth)
                _, z = dual_ascent_simple(g)
                _, value = solve_perfect_nary(arity, depth)
                assert value == z, (arity, depth)

    def test_oracle_equality_small(self):
        for n in range(2, 8):
            g = gen_path(n)
            assert sl_value(g, solve_path(g)) == enumerate_optimum(g)
        for n in range(3, 8):
            g = gen_cycle(n)
            assert sl_value(g, solve_cycle(g)) == enumerate_optimum(g)
        for arity, depth in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
            g = gen_perfect_nary(arity, depth)
            assert solve_perfect_nary(arity, depth)[1] == enumerate_optimum(g)
