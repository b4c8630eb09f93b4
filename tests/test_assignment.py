from itertools import permutations

import pytest

from slabel.assignment import hungarian_min
from slabel.instances import SplitMix64


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

