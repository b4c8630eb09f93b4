import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from slabel import lagrangian
from slabel.assignment import hungarian_min
from slabel.instances import SplitMix64, gen_bipartite, gen_gnm, gen_random_tree
from slabel.lagrangian import SCALE, SubgradientParams, run_subgradient
from test_lagrangian import _trajectory_digest  # this test's directory


def brute_min(costs):
    n = len(costs)
    return min(
        sum(costs[i][perm[i]] for i in range(n)) for perm in permutations(range(n))
    )


class TestHungarian:
    def test_identity_on_diagonal_zeros(self):
        costs = [[0, 9, 9], [9, 0, 9], [9, 9, 0]]
        perm, total = hungarian_min(costs)
        assert perm == [0, 1, 2] and total == 0

    def test_two_by_two_tie(self):
        perm, total = hungarian_min([[1, 2], [3, 4]])
        assert total == 5

    def test_one_by_one(self):
        perm, total = hungarian_min([[7]])
        assert perm == [0] and total == 7

    def test_zero_matrix_gives_identity(self):
        perm, total = hungarian_min([[0] * 5 for _ in range(5)])
        assert perm == [0, 1, 2, 3, 4] and total == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hungarian_min([[1, 2], [3, 4], [5, 6]])

    def test_deterministic(self):
        rng = SplitMix64(3)
        costs = [[rng.below(100) for _ in range(6)] for _ in range(6)]
        assert hungarian_min(costs) == hungarian_min([row[:] for row in costs])

    def test_oracle_500_random_matrices(self):
        rng = SplitMix64(77)
        for _ in range(500):
            n = 1 + rng.below(7)
            costs = [
                [rng.below(201) - 100 for _ in range(n)] for _ in range(n)
            ]
            _, total = hungarian_min(costs)
            assert total == brute_min(costs)



class TestDeadline:
    def test_passed_deadline_gives_none(self):
        costs = [[1, 2], [3, 4]]
        assert hungarian_min(costs, time.perf_counter() - 1.0) is None

    def test_future_deadline_changes_nothing(self):
        rng = SplitMix64(5)
        costs = [[rng.below(7) - 3 for _ in range(8)] for _ in range(8)]
        assert hungarian_min(costs, time.perf_counter() + 3600.0) == hungarian_min(costs)

    def test_empty_matrix(self):
        assert hungarian_min([]) == ([], 0)


# Reference kernel: Jonker & Volgenant's "augment each free row" loop,
# after the same greedy start as the production kernel, with its column
# list kept as three lists (ready, scan, todo) in column order.  It scans
# only the todo columns and updates the potentials of the ready ones, as
# the 1987 loop does.  Which optimal assignment comes back depends on that
# start and on the loop's tie-breaks (lowest column first, first free
# column at the least distance), and the pinned Lagrangian trajectories
# depend on that, so the production kernel must return exactly what it
# returns, final potentials included.


def reference_hungarian_min(costs, potentials=None):
    n = len(costs)
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix must be square")

    v = list(potentials) if potentials is not None else [0] * n
    x = [None] * n  # x[i]: the column of row i
    y = [None] * n  # y[j]: the row of column j
    # Each row starts at u_i = min_j (c_ij - v_j) and, in row order, takes
    # its lowest tight free column.
    for i in range(n):
        u_i = min(costs[i][j] - v[j] for j in range(n))
        for j in range(n):
            if y[j] is None and costs[i][j] - v[j] == u_i:
                x[i], y[j] = j, i
                break
    for f in [i for i in range(n) if x[i] is None]:
        d = [costs[f][j] - v[j] for j in range(n)]
        pred = [f] * n
        ready, scan, todo = [], [], list(range(n))
        scanned = []  # the columns scanned at the current minimum
        end = None
        while end is None:
            if not scan:
                ready += scanned
                scanned = []
                least = min(d[j] for j in todo)
                scan = [j for j in todo if d[j] == least]
                todo = [j for j in todo if d[j] != least]
                for j in scan:
                    if y[j] is None:
                        end = j
                        break
                if end is not None:
                    break
            j1 = scan.pop(0)
            scanned.append(j1)
            i = y[j1]
            h = costs[i][j1] - v[j1] - least
            for j in list(todo):
                c = costs[i][j] - v[j] - h
                if c < d[j]:
                    d[j] = c
                    pred[j] = i
                    if c == least:
                        if y[j] is None:
                            end = j
                            break
                        todo.remove(j)
                        scan.append(j)
        for j in ready:
            v[j] += d[j] - least
        while True:
            i = pred[end]
            y[end] = i
            x[i], end = end, x[i]
            if i == f:
                break
    if potentials is not None:
        potentials[:] = v
    return x, sum(costs[i][x[i]] for i in range(n))


def run_count(costs):
    """Runs of a matrix: a column starts one when some row costs less there
    than at the column before it."""
    n = len(costs)
    return 1 + sum(any(row[j] < row[j - 1] for row in costs) for j in range(1, n))


def nondecreasing_row(rng, n, steps):
    row = [rng.below(3) - 1]
    for _ in range(n - 1):
        row.append(row[-1] + steps[rng.below(len(steps))])
    return row


@st.composite
def small_matrices(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    entry = st.integers(-20, 20)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


class TestAgainstReferenceKernel:
    def test_heavy_ties(self):
        # Few distinct values make many optimal assignments, so any change
        # in which one the kernel returns shows, and so would any difference
        # between no potentials and zero ones.
        rng = SplitMix64(2024)
        checked = 0
        for values in ((-1, 0, 1), (0, 1, 2, 3)):
            for n in range(10):
                for _ in range(100):
                    costs = [[values[rng.below(len(values))] for _ in range(n)]
                             for _ in range(n)]
                    assert hungarian_min(costs) == reference_hungarian_min(costs)
                    assert hungarian_min(costs) == hungarian_min(costs, potentials=[0] * n)
                    checked += 1
        assert checked == 2000

    def test_heavy_ties_in_one_run(self):
        # Rows that never decrease make one run, the shape of the Lagrangian
        # x-subproblem's costs when its columns are labels.
        rng = SplitMix64(15)
        for steps in ((0, 1), (0, 0, 0, 1), (0, 2, 5)):
            for n in range(1, 11):
                for _ in range(60):
                    costs = [nondecreasing_row(rng, n, steps) for _ in range(n)]
                    assert run_count(costs) == 1
                    assert hungarian_min(costs) == reference_hungarian_min(costs)

    def test_several_runs_with_duplicated_columns(self):
        # Blocks of non-decreasing columns side by side, then some columns
        # copied over others, which joins, splits and flattens runs.
        rng = SplitMix64(16)
        seen_runs = set()
        for n in range(2, 11):
            for _ in range(150):
                width = 1 + rng.below(n)
                costs = [[] for _ in range(n)]
                while len(costs[0]) < n:
                    for row in costs:
                        row.extend(nondecreasing_row(rng, width, (0, 0, 1)))
                costs = [row[:n] for row in costs]
                for _ in range(rng.below(3)):
                    src, dst = rng.below(n), rng.below(n)
                    for row in costs:
                        row[dst] = row[src]
                seen_runs.add(run_count(costs))
                assert hungarian_min(costs) == reference_hungarian_min(costs)
        assert seen_runs >= set(range(1, 11))

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_small_integer_matrices(self, costs):
        assert hungarian_min(costs) == reference_hungarian_min(costs)

    def test_no_potentials_starts_from_zeros(self):
        # Rows 0 and 1 both have column 0 as their only tight column, so the
        # greedy step leaves row 1 free, and its search lowers column 0's
        # potential to -1 on its way to column 1.
        costs = [[0, 2, 5], [0, 1, 5], [3, 4, 0]]
        zeros = [0] * 3
        assert hungarian_min(costs) == hungarian_min(costs, potentials=zeros) \
            == ([0, 1, 2], 1)
        assert zeros == [-1, 0, 0]
        # None has no list to write the potentials to, and the call leaves
        # its costs alone, so a second call from None starts from zeros again.
        assert costs == [[0, 2, 5], [0, 1, 5], [3, 4, 0]]
        assert hungarian_min(costs) == ([0, 1, 2], 1)

    def test_first_free_column_at_the_least_distance_ends_the_search(self):
        # Rows 2 and 3 are left free.  Row 2's search scans row 0, which
        # brings columns 1 (matched) and 3 (free) to distance 0, and ends at
        # column 3.  A search that settles the lowest column at the least
        # distance first walks the plateau through column 1 and row 1 to
        # column 2, and returns ([1, 2, 0, 3], 5).
        costs = [[0, 0, 1, 0], [5, 0, 0, 5], [0, 5, 5, 5], [0, 5, 5, 5]]
        potentials = [0] * 4
        assert hungarian_min(costs, potentials=potentials) == ([3, 1, 0, 2], 5)
        assert potentials == [-5, 0, 0, 0]
        assert hungarian_min(costs) == reference_hungarian_min(costs)

    @pytest.mark.parametrize(
        "g, exact_calls, most_runs, digest",
        [(gen_gnm(60, 150, 2), 3, (1, 39),
          "0cfc3aff6f87841d8344c7de0c34c75d4453dca8a276495cedd333d7517972b3"),
         (gen_random_tree(100, 1), 3, (3, 41),
          "dece9fda12e464ba8864e061ecbb2a2c29374cef51757e5630b8200b17264e3b"),
         (gen_gnm(50, 300, 3), 25, (1, 45),
          "b43ffec65c5e6b00a073efb9575ec53b53b6e997adcc6dc45ec26c6590817922"),
         (gen_bipartite(40, 40, 0.08, 5), 5, (33, 34),
          "f1549da7be52def5e920e550ba7b4784bcb86d5df9ffa07a1304fa3ab3c84037"),
         (gen_gnm(100, 250, 2), 1, (1, 50),
          "9c10e90615af12dbd98edf27435cee96bea925b888c00b2469fc712018510b4a")],
        ids=["gnm60", "tree100", "gnm50-300", "bipartite40", "gnm100"])
    def test_subgradient_matrices(self, g, exact_calls, most_runs, digest, monkeypatch):
        # The x-subproblem matrices of the bound-mid workload's Lagrangian
        # runs (25 iterations each): large fixed-point entries, and the ties
        # the dual-ascent warm start leaves.  gnm50-300 adds the triangle
        # multipliers, and the subgradient steps leave rows that decrease.
        # Every call starts from the previous call's potentials.  Each is
        # checked by its total and its certificate, and the first
        # exact_calls of them, warm and from zeros, by the reference's exact
        # permutation, total and final potentials.  most_runs pins the shape
        # of these matrices: the largest run count of the costs and of the
        # reduced costs at the start of the call.  digest pins the run's
        # whole trajectory, as test_lagrangian.PINNED_TRAJECTORIES does.
        # The tree's exact level floor is switched off: with it the run
        # stops at iteration 4 (test_lagrangian.py pins that run), and
        # without it the run is the one pinned here, all 25 matrices of it;
        # the other graphs have cycles and no floor.
        seen = []

        def recording(costs, deadline, potentials):
            start = potentials[:]
            result = hungarian_min(costs, deadline, potentials)
            seen.append(([row[:] for row in costs], start, result, potentials[:]))
            return result

        monkeypatch.setattr(lagrangian, "hungarian_min", recording)
        monkeypatch.setattr(lagrangian, "forest_levels", lambda g, deadline: None)
        res = run_subgradient(g, SubgradientParams(max_iter=25))
        assert _trajectory_digest(res) == digest
        assert len(seen) == 25
        assert seen[0][1] == [0] * g.n
        assert max(run_count(costs) for costs, *_ in seen) == most_runs[0]
        assert max(run_count(reduced(costs, start)) for costs, start, *_ in seen) == most_runs[1]
        for k, (costs, start, (perm, total), final) in enumerate(seen):
            cold = hungarian_min(costs)
            if k < exact_calls:
                assert cold == reference_hungarian_min(costs)
                expected = start[:]
                assert (perm, total) == reference_hungarian_min(costs, expected)
                assert final == expected
            assert sorted(perm) == list(range(g.n))
            assert total == cold[1] == sum(costs[i][perm[i]] for i in range(g.n))
            assert certifies(costs, final, total)


def reduced(costs, potentials):
    return [[c - v for c, v in zip(row, potentials)] for row in costs]


def certifies(costs, potentials, total):
    """u_i = min_j (c_ij - v_j) is dual-feasible for any v, so u and v
    prove a total optimal when they sum to it."""
    return sum(map(min, reduced(costs, potentials))) + sum(potentials) == total


def start_potentials(rng, n, kind):
    if kind == "zero":
        return [0] * n
    if kind == "random":
        return [rng.below(61) - 30 for _ in range(n)]
    if kind == "large-negative":
        return [rng.below(5) - 10**15 for _ in range(n)]
    return [(rng.below(7) - 3) * SCALE for _ in range(n)]


POTENTIAL_KINDS = ("zero", "random", "large-negative", "scale")


class TestWarmStart:
    @pytest.mark.parametrize("kind", POTENTIAL_KINDS)
    def test_random_matrices(self, kind):
        rng = SplitMix64(17)
        for values in (3, 21, 10**6):
            for n in range(9):
                for _ in range(40):
                    costs = [[rng.below(2 * values + 1) - values for _ in range(n)]
                             for _ in range(n)]
                    potentials = start_potentials(rng, n, kind)
                    expected = potentials[:]
                    perm, total = hungarian_min(costs, potentials=potentials)
                    assert (perm, total) == reference_hungarian_min(costs, expected)
                    assert potentials == expected
                    assert sorted(perm) == list(range(n))
                    assert total == reference_hungarian_min(costs)[1]
                    assert total == sum(costs[i][perm[i]] for i in range(n))
                    assert certifies(costs, potentials, total)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices(), st.sampled_from(POTENTIAL_KINDS), st.integers(0, 2**32))
    def test_small_integer_matrices(self, costs, kind, seed):
        n = len(costs)
        potentials = start_potentials(SplitMix64(seed), n, kind)
        expected = potentials[:]
        perm, total = hungarian_min(costs, potentials=potentials)
        assert (perm, total) == reference_hungarian_min(costs, expected)
        assert potentials == expected
        assert sorted(perm) == list(range(n))
        assert total == reference_hungarian_min(costs)[1]
        assert certifies(costs, potentials, total)
        assert hungarian_min(costs, potentials=None) == reference_hungarian_min(costs)

    @pytest.mark.parametrize("kind", POTENTIAL_KINDS)
    def test_passed_deadline_leaves_potentials(self, kind):
        rng = SplitMix64(18)
        for n in range(1, 9):
            costs = [[rng.below(41) - 20 for _ in range(n)] for _ in range(n)]
            potentials = start_potentials(rng, n, kind)
            before = potentials[:]
            assert hungarian_min(costs, time.perf_counter() - 1.0, potentials) is None
            assert potentials == before

    def test_chained_calls(self):
        # The Lagrangian use: each matrix starts from the previous final
        # potentials, and the costs move a little between calls.
        rng = SplitMix64(19)
        for n in range(1, 9):
            potentials = [0] * n
            costs = [[rng.below(21) for _ in range(n)] for _ in range(n)]
            for _ in range(20):
                i, j = rng.below(n), rng.below(n)
                costs[i][j] += rng.below(11) - 5
                expected = potentials[:]
                perm, total = hungarian_min(costs, potentials=potentials)
                assert (perm, total) == reference_hungarian_min(costs, expected)
                assert potentials == expected
                assert total == reference_hungarian_min(costs)[1]
                assert certifies(costs, potentials, total)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            hungarian_min([[1, 2], [3, 4]], potentials=[0])
