import pytest

from slabel.core import (
    Labeling,
    build_graph,
    count_triangles,
    enumerate_triangles,
    exchange_delta,
    max_degree,
    sl_value,
)
from slabel.instances import SplitMix64, gen_gnm, gen_grid

# Grid instance in the edge order of the motivating 3x3 example
# (A..I = 0..8 row-major).
GRID_EDGES = [
    (0, 1), (1, 2), (0, 3), (3, 4), (1, 4), (2, 5),
    (4, 5), (3, 6), (6, 7), (4, 7), (7, 8), (5, 8),
]
# Known optimal labeling of that grid: A=5 B=1 C=6 D=2 E=7 F=3 G=8 H=4 I=9.
GRID_OPT_LABELS = (5, 1, 6, 2, 7, 3, 8, 4, 9)


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestBuildGraph:
    def test_path3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_grid_example_max_degree(self):
        g = build_graph(9, GRID_EDGES)
        assert g.m == 12
        assert max_degree(g) == 4
        assert g.degree(4) == 4  # the unique degree-4 node

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            build_graph(2, [(0, 1), (1, 0)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            build_graph(2, [(0, 2)])

    def test_adjacency_consistency(self):
        g = build_graph(9, GRID_EDGES)
        for v in range(g.n):
            for x, e in g.adjacency[v]:
                assert v in g.edges[e] and x in g.edges[e]
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestLabeling:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Labeling(labels=(1, 1, 3))
        with pytest.raises(ValueError):
            Labeling(labels=(0, 1, 2))

    def test_from_order_completes_in_index_order(self):
        assert Labeling.from_order(5, [3, 1]).labels == (3, 2, 4, 1, 5)
        assert Labeling.from_order(3, ()).labels == (1, 2, 3)
        assert Labeling.from_order(3, (2, 0, 1)).labels == (2, 3, 1)
        assert Labeling.from_order(0, ()).labels == ()

    def test_from_order_rejects_a_repeated_node(self):
        with pytest.raises(ValueError):
            Labeling.from_order(3, [1, 1])


class TestSlValue:
    def test_grid_optimum_is_30(self):
        g = build_graph(9, GRID_EDGES)
        assert sl_value(g, Labeling(labels=GRID_OPT_LABELS)) == 30

    def test_path3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert sl_value(g, Labeling(labels=(1, 2, 3))) == 3

    def test_edgeless(self):
        g = build_graph(4, [])
        assert sl_value(g, Labeling(labels=(3, 1, 4, 2))) == 0

    def test_size_mismatch(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            sl_value(g, Labeling(labels=(1, 2)))


class TestExchangeDelta:
    def test_path3_swap(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        phi = Labeling(labels=(2, 1, 3))
        before = sl_value(g, phi)
        after = sl_value(g, Labeling(labels=(1, 2, 3)))
        assert exchange_delta(g, phi, 0, 1) == after - before == 1

    def test_high_labels_swap_is_zero(self):
        # star with center labeled 1; swapping two leaves changes nothing
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        phi = Labeling(labels=(1, 3, 4, 2))
        assert exchange_delta(g, phi, 1, 2) == 0

    def test_grid_adjacent_swap_matches_recomputation(self):
        g = build_graph(9, GRID_EDGES)
        phi = Labeling(labels=GRID_OPT_LABELS)
        i, j = phi.labels.index(1), phi.labels.index(7)  # adjacent nodes B and E
        swapped = list(phi.labels)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        expected = sl_value(g, Labeling(labels=tuple(swapped))) - sl_value(g, phi)
        assert exchange_delta(g, phi, i, j) == expected

    def test_same_node_rejected(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            exchange_delta(g, Labeling(labels=(1, 2, 3)), 1, 1)

    def test_random_triples_match_full_recomputation(self):
        # 1000 random (graph, labeling, swap) triples, exact agreement
        rng = SplitMix64(2024)
        for _ in range(1000):
            n = 2 + rng.below(9)
            m = rng.below(n * (n - 1) // 2 + 1)
            g = gen_gnm(n, m, rng.next_u64())
            labels = list(range(1, n + 1))
            for pos in range(n - 1, 0, -1):  # Fisher-Yates on the stream
                other = rng.below(pos + 1)
                labels[pos], labels[other] = labels[other], labels[pos]
            phi = Labeling(labels=tuple(labels))
            i = rng.below(n)
            j = (i + 1 + rng.below(n - 1)) % n
            swapped = labels.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            expected = sl_value(g, Labeling(labels=tuple(swapped))) - sl_value(g, phi)
            assert exchange_delta(g, phi, i, j) == expected


class TestMaxDegree:
    def test_grid(self):
        assert max_degree(gen_grid(3, 3)) == 4

    def test_path3(self):
        assert max_degree(build_graph(3, [(0, 1), (1, 2)])) == 2

    def test_edgeless(self):
        assert max_degree(build_graph(5, [])) == 0


class TestEnumerateTriangles:
    def test_k3(self):
        tris = enumerate_triangles(complete_graph(3))
        assert len(tris) == 1
        (nodes, edge_ids) = tris[0]
        assert nodes == (0, 1, 2)
        assert sorted(edge_ids) == [0, 1, 2]

    def test_grid_has_none(self):
        assert enumerate_triangles(gen_grid(3, 3)) == []

    def test_k4(self):
        tris = enumerate_triangles(complete_graph(4))
        assert len(tris) == 4
        assert [t[0] for t in tris] == sorted(t[0] for t in tris)

    def test_edge_indices_match_triples(self):
        g = complete_graph(5)
        for (a, b, c), (e1, e2, e3) in enumerate_triangles(g):
            assert g.edges[e1] == (a, b)
            assert g.edges[e2] == (a, c)
            assert g.edges[e3] == (b, c)

    def test_count_equals_the_list_length(self):
        graphs = [complete_graph(n) for n in range(7)] + [gen_grid(3, 3)]
        graphs += [gen_gnm(n, m, seed) for n, m, seed in ((12, 30, 5), (30, 200, 7), (50, 300, 3))]
        for g in graphs:
            assert count_triangles(g) == len(enumerate_triangles(g))
