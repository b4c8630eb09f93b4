import hashlib
import random
from collections import deque
from itertools import combinations, permutations

import pytest

from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_simple
from slabel.exact import subset_dp
from slabel.instances import (
    gen_cycle,
    gen_grid,
    gen_path,
    gen_perfect_nary,
    gen_random_tree,
    nary_node_count,
    read_instance,
    write_instance,
)
from slabel.special_graphs import (
    Structure,
    StructureKind,
    detect_structure,
    formula_nary,
    formula_path_cycle,
    label_perfect_nary,
    solve_cycle,
    solve_path,
    solve_perfect_nary,
)


# sha256 over the exact labelings of TestPinnedLabelings, so a refactor
# that changes any label fails.
PATH_CYCLE_DIGEST = "aba49623da5d564a36da0b56be05bac9544954910940efaa21b9c8ac6389e52e"
NARY_DIGEST = "4e32ed2fbeac780c6ce3a437abecee65bdf9c823ab621dac9335b8d3a0fcd7b9"


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
        assert value == 9 == subset_dp(gen_perfect_nary(2, 2))[0]

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
        # 47 trees: arity 1..6, depth 1..10, at most 40,000 nodes, and the
        # paths of depth 11..15; the oracle certifies those of <= 16 nodes
        pairs = [(a, d) for a in range(1, 7) for d in range(1, 11)
                 if nary_node_count(a, d) <= 40_000]
        assert len(pairs) == 47
        for arity, depth in pairs + [(1, d) for d in range(11, 16)]:
            value, integral = formula_nary(arity, depth)
            assert integral and value == solve_perfect_nary(arity, depth)[1], (arity, depth)
            if nary_node_count(arity, depth) <= 16:
                assert value == subset_dp(gen_perfect_nary(arity, depth))[0], (arity, depth)


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


def permuted(g, seed):
    """g with its node ids shuffled, and the new id of every old node."""
    new_id = list(range(g.n))
    random.Random(seed).shuffle(new_id)
    return build_graph(g.n, [(new_id[u], new_id[v]) for u, v in g.edges]), new_id


class TestPinnedLabelings:
    """Each labeling on the generated graph and on a node-permuted copy."""

    def test_paths_and_cycles_up_to_60_nodes(self):
        digest = hashlib.sha256()
        for gen, solve, smallest in ((gen_path, solve_path, 2), (gen_cycle, solve_cycle, 3)):
            for n in range(smallest, 61):
                g = gen(n)
                for h in (g, permuted(g, n)[0]):
                    digest.update(repr(solve(h).labels).encode())
        assert digest.hexdigest() == PATH_CYCLE_DIGEST

    def test_perfect_nary_up_to_5000_nodes(self):
        # Unary trees are paths; they stop at 60 nodes like the paths above.
        pairs = [(1, d) for d in range(1, 60)]
        pairs += [(a, d) for a in range(2, 6) for d in range(1, 13)
                  if nary_node_count(a, d) <= 5000]
        digest = hashlib.sha256()
        for arity, depth in pairs:
            digest.update(repr(solve_perfect_nary(arity, depth)[0].labels).encode())
            g = gen_perfect_nary(arity, depth)
            for h, new_id in ((g, range(g.n)), permuted(g, arity * 100 + depth)):
                structure = Structure(StructureKind.PERFECT_NARY, arity, depth, new_id[0])
                digest.update(repr(label_perfect_nary(h, structure).labels).encode())
        assert digest.hexdigest() == NARY_DIGEST


# The detection of the previous version, kept verbatim apart from the
# names: it tried every node of unique degree as the root, with one BFS each.
def reference_bfs_depths(g, root):
    depth = [-1] * g.n
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for x, _ in g.adjacency[v]:
            if depth[x] < 0:
                depth[x] = depth[v] + 1
                queue.append(x)
    return depth


def reference_nary_structure(g):
    degree_count: dict[int, int] = {}
    for v in range(g.n):
        degree_count[g.degree(v)] = degree_count.get(g.degree(v), 0) + 1
    if len(degree_count) > 3:
        return None
    candidates = [v for v in range(g.n) if degree_count[g.degree(v)] == 1]
    for root in candidates:
        arity = g.degree(root)
        if arity < 1:
            continue
        depth = reference_bfs_depths(g, root)
        d = max(depth)
        if d < 1:
            continue
        ok = True
        for v in range(g.n):
            children = sum(1 for x, _ in g.adjacency[v] if depth[x] == depth[v] + 1)
            expected = arity if depth[v] < d else 0
            if children != expected:
                ok = False
                break
        if ok:
            return Structure(
                kind=StructureKind.PERFECT_NARY, arity=arity, depth=d, root=root
            )
    return None


def reference_detect_structure(g):
    degrees = [g.degree(v) for v in range(g.n)]
    if g.n >= 2 and g.m == g.n - 1 and -1 not in reference_bfs_depths(g, 0):
        if max(degrees) <= 2 and degrees.count(1) == 2:
            return Structure(kind=StructureKind.PATH)
        nary = reference_nary_structure(g)
        if nary is not None:
            return nary
        return Structure(kind=StructureKind.OTHER)
    if g.n >= 3 and g.m == g.n and all(d == 2 for d in degrees) and -1 not in reference_bfs_depths(g, 0):
        return Structure(kind=StructureKind.CYCLE)
    return Structure(kind=StructureKind.OTHER)


def assert_detection_matches_reference(g):
    """Kind, arity, depth and n-ary root as the reference detects them; a
    path's root is its smaller endpoint and a cycle's is node 0."""
    s, ref = detect_structure(g), reference_detect_structure(g)
    assert (s.kind, s.arity, s.depth) == (ref.kind, ref.arity, ref.depth), g.edges
    if s.kind is StructureKind.PERFECT_NARY:
        assert s.root == ref.root, g.edges
    elif s.kind is StructureKind.PATH:
        assert s.root == min(v for v in range(g.n) if g.degree(v) == 1)
    else:
        assert s.root == (0 if s.kind is StructureKind.CYCLE else None)
    return s.kind


class TestDetectionOracle:
    def test_every_graph_up_to_six_nodes(self):
        kinds = []
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                kinds.append(assert_detection_matches_reference(g))
        assert len(kinds) == 33_867
        assert kinds.count(StructureKind.PERFECT_NARY) == 4 + 5 + 6  # the labeled stars K_{1,3..5}

    def test_random_trees(self):
        for seed in range(3000):
            assert_detection_matches_reference(gen_random_tree(2 + seed % 60, seed))

    def test_perfect_trees_and_one_extra_leaf(self):
        pairs = [(a, d) for a in range(1, 6) for d in range(1, 9)
                 if nary_node_count(a, d) <= 800]
        for arity, depth in pairs:
            g = permuted(gen_perfect_nary(arity, depth), arity * 100 + depth)[0]
            is_path = arity == 1 or (arity, depth) == (2, 1)
            kind = StructureKind.PATH if is_path else StructureKind.PERFECT_NARY
            assert assert_detection_matches_reference(g) is kind
            for v in random.Random(depth).sample(range(g.n), min(g.n, 5)):
                grown = build_graph(g.n + 1, g.edges + ((v, g.n),))
                assert_detection_matches_reference(grown)
