import random
import time
from itertools import accumulate, combinations, count, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from slabel import dual_ascent
from slabel.core import Graph, Labeling, build_graph, max_degree, sl_value
from slabel.dual_ascent import (
    DualSolution,
    check_dual_feasible,
    dual_ascent_extended,
    dual_ascent_simple,
)
from slabel.exact import subset_dp
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


# Graphs of every generator family, edge counts and maximum degrees.
FAMILIES = [
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
]


# heuristic-large's graphs that are not special (gnm(500,1500,7) is left
# to tests/exhaustive_bnb_check.py: its reference ascent takes about 1.2 s).
LARGE = [
    gen_random_tree(1000, 2),
    gen_grid(20, 20),
    gen_bipartite(100, 100, 0.03, 5),
    gen_caterpillar(300, 0.6, 3),
    gen_lobster(200, 0.7, 0.5, 4),
]


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


def reference_dual_ascent_simple(g: Graph) -> tuple[DualSolution, int]:
    """dual_ascent_simple as a loop over the steps, before its closed form."""
    m = g.m
    delta_max = max_degree(g)
    z = m
    steps = 0
    for kbar in range(1, g.n + 1):
        change = m - kbar * delta_max
        if change <= 0:
            break
        z += change
        steps = kbar
    alpha = [0] * g.n
    for k in range(1, steps + 1):
        alpha[k - 1] = delta_max * (steps - k + 1)
    solution = DualSolution(alpha=tuple(alpha), edge_last_step=(steps,) * m)
    return solution, z


class TestSimpleAgainstReference:
    def test_every_graph_up_to_six_nodes(self):
        checked = 0
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert dual_ascent_simple(g) == reference_dual_ascent_simple(g)
                checked += 1
        assert checked == 33868

    @pytest.mark.parametrize("g", FAMILIES, ids=lambda g: f"n{g.n}-m{g.m}-maxdeg{max_degree(g)}")
    def test_generator_families(self, g):
        assert dual_ascent_simple(g) == reference_dual_ascent_simple(g)


class TestExtendedVariant:
    def test_grid_value_27_with_trace(self):
        g = gen_grid(3, 3)
        sol, z, trace = dual_ascent_extended(g)
        assert z == 27
        assert [net for _, net in trace] == [8, 5, 2]
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
        assert z == 4 == subset_dp(g)[0]

    def test_trace_net_changes_positive_nonincreasing(self):
        rng = SplitMix64(17)
        for _ in range(30):
            n = 4 + rng.below(10)
            m = 1 + rng.below(n * (n - 1) // 2)
            g = gen_gnm(n, m, rng.next_u64())
            _, _, trace = dual_ascent_extended(g)
            nets = [net for _, net in trace]
            assert all(x > 0 for x in nets)
            assert all(a >= b for a, b in zip(nets, nets[1:]))

    def test_edgeless(self):
        g = build_graph(3, [])
        _, z, trace = dual_ascent_extended(g)
        assert z == 0 and trace == []


class TestDeadline:
    def test_passed_deadline_takes_no_step(self):
        g = gen_gnm(30, 70, 9)
        solution, z, trace = dual_ascent_extended(g, deadline=time.perf_counter())
        assert trace == [] and z == g.m
        assert check_dual_feasible(g, solution) == (True, z)

    @pytest.mark.parametrize("g", [gen_gnm(30, 70, 9), gen_grid(6, 8)],
                             ids=lambda g: f"n{g.n}-m{g.m}")
    def test_deadline_keeps_the_committed_prefix(self, g, monkeypatch):
        # A clock that reads 0, 1, 2, ...: the deadline s passes at the
        # read before step s + 1, so exactly s steps are committed.
        _, full_z, full_trace = dual_ascent_extended(g)
        assert len(full_trace) >= 3
        for steps in range(len(full_trace) + 1):
            ticks = count()
            monkeypatch.setattr(dual_ascent, "time",
                                SimpleNamespace(perf_counter=lambda: next(ticks)))
            solution, z, trace = dual_ascent_extended(g, deadline=steps)
            assert trace == full_trace[:steps]
            assert z == g.m + sum(net for _, net in trace)
            assert check_dual_feasible(g, solution) == (True, z)
        assert z == full_z


def gamma_rows_hold(g: Graph, sol: DualSolution) -> bool:
    """The per-(edge, label) rows gamma_e - delta_e^k <= k, with gamma_e =
    1 + K_e, which check_dual_feasible leaves out."""
    return all(1 + last - max(0, last - k + 1) <= k
               for last in sol.edge_last_step for k in range(1, g.n + 1))


class TestFeasibility:
    def test_emitted_solutions_always_feasible(self):
        # Every graph with at most 5 nodes, then 40 random ones.
        graphs = []
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            graphs += [build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                       for mask in range(1 << len(pairs))]
        rng = SplitMix64(23)
        for _ in range(40):
            n = 3 + rng.below(10)
            m = 1 + rng.below(n * (n - 1) // 2)
            graphs.append(gen_gnm(n, m, rng.next_u64()))
        for g in graphs:
            sol, z = dual_ascent_simple(g)
            ok, obj = check_dual_feasible(g, sol)
            assert ok and obj == z and gamma_rows_hold(g, sol)
            sol2, z2, _ = dual_ascent_extended(g)
            ok2, obj2 = check_dual_feasible(g, sol2)
            assert ok2 and obj2 == z2 and gamma_rows_hold(g, sol2)

    def test_all_zero_duals_with_unit_gamma(self):
        g = gen_grid(3, 3)
        sol = DualSolution(alpha=(0,) * g.n, edge_last_step=(0,) * g.m)
        feasible, objective = check_dual_feasible(g, sol)
        assert feasible and objective == g.m

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
            optimum = subset_dp(g)[0]
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
        assert phi.labels[4] == 7
        assert sl_value(g, phi) == 30 == subset_dp(g)[0]


# Reference kernel: the extended ascent as first written, which re-sorts
# every node and every incident edge list for each trial amount.  The
# production kernel must return exactly what it returns.


def _zero_solution(g: Graph) -> DualSolution:
    return DualSolution(alpha=(0,) * g.n, edge_last_step=())


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


def reference_dual_ascent_extended(g: Graph) -> tuple[DualSolution, int, list[tuple[int, int]]]:
    """Ascent that may pay less than the maximum degree per step by
    deactivating edges; deactivated edges stop earning in later steps.

    Each step tries every per-label amount up to the current maximum
    active degree, keeps the one with the largest positive net change
    (smallest amount on ties), and commits its surviving active set.
    The trace holds each step's (amount, net change).
    """
    m = g.m
    if m == 0:
        return _zero_solution(g), 0, []
    flags = [True] * m
    degrees = [len(adj) for adj in g.adjacency]
    last_step = [0] * m
    trace: list[tuple[int, int]] = []
    z = m
    for step in range(1, g.n + 1):
        delta_active = max(degrees)
        if delta_active == 0:
            break
        best_net = 0
        best: tuple[int, list[bool], list[int]] | None = None
        for alpha_bar in range(1, delta_active + 1):
            cand_flags, cand_deg = _enforce_degree_cap(g, flags, degrees, alpha_bar)
            count = sum(cand_flags)
            net = count - step * alpha_bar
            if net > best_net:
                best_net = net
                best = (alpha_bar, cand_flags, cand_deg)
        if best is None:
            break
        alpha_bar, flags, degrees = best
        z += best_net
        for e in range(m):
            if flags[e]:
                last_step[e] = step
        trace.append((alpha_bar, best_net))
    steps = len(trace)
    alpha = [0] * g.n
    suffix = 0
    for k in range(steps, 0, -1):
        suffix += trace[k - 1][0]
        alpha[k - 1] = suffix
    return DualSolution(alpha=tuple(alpha), edge_last_step=tuple(last_step)), z, trace


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

    @pytest.mark.parametrize("g", FAMILIES, ids=lambda g: f"n{g.n}-m{g.m}-maxdeg{max_degree(g)}")
    def test_generator_families(self, g):
        assert dual_ascent_extended(g) == reference_dual_ascent_extended(g)

    @pytest.mark.parametrize("g", LARGE, ids=lambda g: f"n{g.n}-m{g.m}-maxdeg{max_degree(g)}")
    def test_large_graphs(self, g):
        assert dual_ascent_extended(g) == reference_dual_ascent_extended(g)

    def test_perfect_matching_has_no_bucket(self):
        # Every degree is 1: no node is ranked, and each step keeps every
        # edge at alpha 1, netting 6 - step.
        g = build_graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
        solution, z, trace = dual_ascent_extended(g)
        assert trace == [(1, 6 - k) for k in range(1, 6)]
        assert z == 6 + 15
        assert (solution, z, trace) == reference_dual_ascent_extended(g)

    def test_star_fills_one_bucket(self):
        # The centre is the one ranked node.  Alphas 18 down to 1 pass the
        # capped test and are tried, but every alpha nets 0: no step.
        g = star(20)
        result = dual_ascent_extended(g)
        assert result[1:] == (20, [])
        assert result == reference_dual_ascent_extended(g)

    def test_edge_index_breaks_ties_among_several_drops(self):
        # A star with five leaves, all of degree 1, beside one other edge.
        # Every alpha from 5 down nets 1, so alpha 1 wins: the centre drops
        # four edges to ends of equal degree, and the edge index decides.
        # The kept star edge is the one of highest index, 5 = (0, 3), not
        # the one to the highest or lowest leaf (edges 0 and 4).
        g = build_graph(8, [(0, 5), (0, 2), (6, 7), (0, 4), (0, 1), (0, 3)])
        solution, z, trace = dual_ascent_extended(g)
        assert trace == [(1, 1)] and z == 7
        assert solution.edge_last_step == (0, 0, 1, 0, 0, 1)
        assert (solution, z, trace) == reference_dual_ascent_extended(g)

    def test_alpha_exit_waits_for_twice_the_step(self):
        # A triangle with a pendant at each corner.  Step 2 starts with
        # degrees 3, 3, 3, 1, 1, 1, so f(alpha) = c(alpha) // 2 - 2 * alpha
        # is 0 at alpha 3 and 2 but 1 at alpha 1, which wins: the three
        # nodes of degree >= 2 are fewer than 2 * step, and f may rise.
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5)])
        solution, z, trace = dual_ascent_extended(g)
        assert trace == [(3, 3), (1, 1)] and z == 10
        assert (solution, z, trace) == reference_dual_ascent_extended(g)

    def test_winning_alpha_one_reads_every_bucket(self):
        # Step 2 starts with degrees 2, 3 and 4 and wins at alpha 1, so its
        # ranking holds every bucket.
        g = gen_gnm(6, 9, 8)
        solution, z, trace = dual_ascent_extended(g)
        assert [alpha for alpha, _ in trace] == [4, 1]
        degrees = [0] * g.n
        for e, (u, v) in enumerate(g.edges):
            if solution.edge_last_step[e] >= 1:  # active when step 2 starts
                degrees[u] += 1
                degrees[v] += 1
        assert {d for d in degrees if d > 1} == {2, 3, 4}
        assert (solution, z, trace) == reference_dual_ascent_extended(g)


def residual_masks(g: Graph, seed: int, count: int) -> list[int]:
    """Residual edge bitmasks of g: alternately the edges among a random
    set of unlabeled nodes, as branch-and-bound meets them, and a random
    edge subset."""
    rng = random.Random(seed)
    masks = []
    for trial in range(count):
        if trial % 2:
            unlabeled = set(rng.sample(range(g.n), rng.randint(2, g.n)))
            keep = [u in unlabeled and v in unlabeled for u, v in g.edges]
        else:
            density = rng.random()
            keep = [rng.random() < density for _ in g.edges]
        masks.append(sum(1 << e for e, k in enumerate(keep) if k))
    return masks


def subgraph_ascent(g: Graph, residual: int):
    """The reference ascent on the residual subgraph, built with g's node
    ids and its edges in id order: the oracle of the masked call.  The
    production ascent on that subgraph must return the same."""
    sub = build_graph(g.n, [edge for e, edge in enumerate(g.edges) if residual >> e & 1])
    reference = reference_dual_ascent_extended(sub)
    assert dual_ascent_extended(sub) == reference
    return reference


def is_cut_reference(start, cutoff, z, trace, ref_z, ref_trace) -> bool:
    """Whether an ascent cut at ``cutoff`` from ``start`` residual edges,
    which returned (z, trace), is the reference's (ref_z, ref_trace) up to
    its first committed step whose objective reaches the cutoff, or all of
    it when no step does."""
    # The objective after each step: |residual| plus the nets so far.
    objectives = list(accumulate((net for _, net in trace), initial=start))
    if (trace != ref_trace[: len(trace)] or z != objectives[-1]
            or any(objective >= cutoff for objective in objectives[1:-1])):
        return False
    return z >= cutoff if len(trace) < len(ref_trace) else z == ref_z


RESIDUAL_GRAPHS = [gen_gnm(30, 70, 9), gen_gnm(24, 60, 11)]


@pytest.mark.parametrize("g", RESIDUAL_GRAPHS, ids=lambda g: f"n{g.n}-m{g.m}")
class TestResidualMask:
    def test_masked_ascent_equals_subgraph_ascent(self, g):
        for residual in residual_masks(g, g.m, 100) + [0, (1 << g.m) - 1]:
            _, ref_z, ref_trace = subgraph_ascent(g, residual)
            solution, z, trace = dual_ascent_extended(g, residual)
            assert (z, trace) == (ref_z, ref_trace), residual
            # Edges outside the mask get K_e = -1 and so gamma 0: the solution
            # is a feasible dual of g itself with the residual's objective.
            assert check_dual_feasible(g, solution) == (True, z)
        assert dual_ascent_extended(g, (1 << g.m) - 1) == dual_ascent_extended(g)

    def test_cutoff_returns_a_prefix_that_reaches_it(self, g):
        stopped = 0
        for residual in residual_masks(g, g.m + 1, 100):
            _, ref_z, ref_trace = subgraph_ascent(g, residual)
            start = residual.bit_count()
            for cutoff in sorted({start, start + 1, (start + ref_z) // 2, ref_z, ref_z + 1}):
                solution, z, trace = dual_ascent_extended(g, residual, cutoff)
                assert solution is None
                assert is_cut_reference(start, cutoff, z, trace, ref_z, ref_trace)
                stopped += len(trace) < len(ref_trace)
        assert stopped >= 100
