"""Exact minimum-cost perfect assignment on square integer matrices.

The Hungarian method in its shortest-augmenting-path form (Jonker &
Volgenant 1987): rows enter one at a time, and a Dijkstra search over
reduced costs finds each row's augmenting path.  Potentials are integers,
so exactness is preserved for arbitrarily large (scaled) integer costs.

The search scans only the columns it has not yet reached, keeps their
tentative distances relative to a running offset, and applies the
potential changes of the reached columns once per row instead of after
every step.  That is still O(n^3), but each step costs one pass over the
unreached columns and no update loop.  Every comparison is the one the
textbook loop makes, in the same column order, so the result, ties
included, is the textbook one.
"""

from __future__ import annotations

import math
import time
from typing import Sequence


def hungarian_min(
    costs: Sequence[Sequence[int]], deadline: float = math.inf
) -> tuple[list[int], int] | None:
    """Minimum-cost perfect assignment: perm[i] = column of row i, and the
    minimal total cost.  Deterministic for equal inputs.

    Each search step reaches the lowest column among those at the least
    distance, so which of several optimal assignments comes back is fixed
    by the column order; the pinned Lagrangian trajectories rely on this.

    Stops at ``deadline``, a ``time.perf_counter()`` value (``math.inf``,
    the default, means no limit): the clock is read before each row, and
    once the deadline has passed the result is None.
    """
    n = len(costs)
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
    big = max((max(max(row), -min(row)) for row in costs), default=0) * (n + 1) + 1

    # Columns 0..n-1, and n, the virtual column the entering row starts
    # from; p[j] is the row matched to column j, -1 if none.
    u = [0] * n
    v = [0] * (n + 1)
    p = [-1] * (n + 1)
    way = [0] * (n + 1)
    for i in range(n):
        if time.perf_counter() >= deadline:
            return None
        p[n] = i
        j0 = n
        # total is the distance of the latest column reached; dist[j] - total
        # is the textbook loop's minv[j] for an unreached column j.
        total = 0
        dist = [big] * n
        free = list(range(n))
        reached = []  # (column, total when it was reached)
        while True:
            reached.append((j0, total))
            i0 = p[j0]
            row = costs[i0]
            h = total - u[i0]
            best = big + total
            j1 = -1
            for j in free:
                c = row[j] - v[j] + h
                d = dist[j]
                if c < d:
                    dist[j] = d = c
                    way[j] = j0
                if d < best:
                    best = d
                    j1 = j
            total = best
            free.remove(j1)
            j0 = j1
            if p[j0] < 0:
                break
        for j, at in reached:
            u[p[j]] += total - at
            v[j] -= total - at
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(n):
        perm[p[j]] = j
    return perm, sum(costs[i][perm[i]] for i in range(n))
