import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from slabel import lagrangian
from slabel.assignment import hungarian_min
from slabel.instances import SplitMix64, gen_gnm, gen_random_tree
from slabel.lagrangian import SubgradientParams, run_subgradient


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


# Reference kernel: the textbook loop the production kernel replaced, which
# scans and updates every column at each search step.  Which optimal
# assignment comes back depends on its tie-breaks (lowest column first), and
# the pinned Lagrangian trajectories depend on that, so the production
# kernel must return exactly what it returns.


def reference_hungarian_min(costs, deadline=None):
    n = len(costs)
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
    big = max((abs(c) for row in costs for c in row), default=0) * (n + 1) + 1

    # 1-based arrays; p[j] is the row currently matched to column j.
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        p[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = big
            j1 = 0
            row = costs[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u_i0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    return perm, sum(costs[i][perm[i]] for i in range(n))


@st.composite
def small_matrices(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    entry = st.integers(-20, 20)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


class TestAgainstReferenceKernel:
    def test_heavy_ties(self):
        # Few distinct values make many optimal assignments, so any change
        # in which one the kernel returns shows.
        rng = SplitMix64(2024)
        checked = 0
        for values in ((-1, 0, 1), (0, 1, 2, 3)):
            for n in range(10):
                for _ in range(100):
                    costs = [[values[rng.below(len(values))] for _ in range(n)]
                             for _ in range(n)]
                    assert hungarian_min(costs) == reference_hungarian_min(costs)
                    checked += 1
        assert checked == 2000

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_small_integer_matrices(self, costs):
        assert hungarian_min(costs) == reference_hungarian_min(costs)

    @pytest.mark.parametrize("g", [gen_gnm(60, 150, 2), gen_random_tree(100, 1)],
                             ids=["gnm60", "tree100"])
    def test_subgradient_matrices(self, g, monkeypatch):
        # The x-subproblem matrices of the first iterations of a Lagrangian
        # run: large fixed-point entries, and the ties the dual-ascent warm
        # start leaves.
        seen = []

        def recording(costs, deadline=None):
            result = hungarian_min(costs, deadline)
            seen.append((costs, result))
            return result

        monkeypatch.setattr(lagrangian, "hungarian_min", recording)
        run_subgradient(g, SubgradientParams(max_iter=3))
        assert len(seen) == 3
        for costs, result in seen:
            assert result == reference_hungarian_min(costs)
