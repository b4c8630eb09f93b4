"""Exact minimum-cost perfect assignment on square integer matrices.

O(n^3) Hungarian method with integer potentials; no floating point, so
exactness is preserved for arbitrarily large (scaled) integer costs.
"""

from __future__ import annotations

import time
from typing import Sequence


def hungarian_min(
    costs: Sequence[Sequence[int]], deadline: float | None = None
) -> tuple[list[int], int] | None:
    """Minimum-cost perfect assignment: perm[i] = column of row i, and the
    minimal total cost.  Deterministic for equal inputs.

    ``deadline`` is a ``time.perf_counter()`` value; the clock is read
    before each row, and once the deadline has passed the result is None.
    """
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
