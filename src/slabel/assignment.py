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

A call starts from given column potentials v (a warm start), or from
zeros.  Each row then starts at u_i = min_j (c_ij - v_j), so every
reduced cost c_ij - u_i - v_j is >= 0 and each row has a tight (zero)
one; in row order, each row takes its lowest tight free column, and the
searches augment only the rows this leaves unmatched.  The searches then
run exactly as they would on the costs c_ij - u_i - v_j from zero
potentials.  An entering row keeps its starting u_i and an unmatched
column its starting v_j, so the row's first step finds an unmatched
column at a distance of at most the largest of these costs: that bound
plus one, not a bound on the raw costs, is the ``big`` sentinel.
"""

from __future__ import annotations

import math
import time
from operator import sub
from typing import Sequence


def hungarian_min(
    costs: Sequence[Sequence[int]],
    deadline: float = math.inf,
    potentials: list[int] | None = None,
) -> tuple[list[int], int] | None:
    """Minimum-cost perfect assignment: perm[i] = column of row i, and the
    minimal total cost.  Deterministic for equal inputs.

    Each search step reaches the lowest column among those at the least
    distance, so which of several optimal assignments comes back is fixed
    by the column order (and by ``potentials``); the pinned Lagrangian
    trajectories rely on this.

    ``potentials``, when given, is a list of n integer column potentials v
    to start from (a warm start): each row starts at u_i = min_j (c_ij -
    v_j), which is dual-feasible for any v, every row in turn takes its
    lowest tight free column, and the searches augment only the rows left.
    On success the list is overwritten with the final v, so that u_i =
    min_j (c_ij - v_j) and v certify the total: sum(u) + sum(v) == total.
    None starts from zero potentials and writes nothing back.

    Stops at ``deadline``, a ``time.perf_counter()`` value (``math.inf``,
    the default, means no limit): the clock is read before each row, and
    once the deadline has passed the result is None and ``potentials`` is
    left as it was.
    """
    n = len(costs)
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
    if potentials is None:
        start = [0] * n
    elif len(potentials) != n:
        raise ValueError("need one potential per column")
    else:
        start = potentials

    # Columns 0..n-1, and n, the virtual column the entering row starts
    # from; p[j] is the row matched to column j, -1 if none.
    p = [-1] * (n + 1)
    way = [0] * (n + 1)
    matched = [False] * n  # rows the greedy step matched
    v = [*start, 0]
    u = []
    # The searches run on c_ij - v_j - u_i >= 0 from zero potentials, so
    # big only has to exceed the largest of these.
    big = 1
    for i, row in enumerate(costs):
        reduced = list(map(sub, row, start))
        ui = min(reduced)
        u.append(ui)
        big = max(big, max(reduced) - ui + 1)
        for j, r in enumerate(reduced):
            if r == ui and p[j] < 0:  # the lowest tight free column
                p[j] = i
                matched[i] = True
                break
    for i in range(n):
        if time.perf_counter() >= deadline:
            return None
        if matched[i]:
            continue
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
    if potentials is not None:
        potentials[:] = v[:n]
    perm = [0] * n
    for j in range(n):
        perm[p[j]] = j
    return perm, sum(costs[i][perm[i]] for i in range(n))
