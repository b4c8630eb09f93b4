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

A call may start from given column potentials v (a warm start; zeros
otherwise).  Each row then starts at u_i = min_j (c_ij - v_j), so every
reduced cost c_ij - u_i - v_j is >= 0 and each row has a tight (zero)
one; in row order, each row takes its lowest tight free column, and the
searches augment only the rows this leaves unmatched.  The searches then
run exactly as they would on the costs c_ij - u_i - v_j from zero
potentials.  An entering row keeps its starting u_i and an unmatched
column its starting v_j, so the row's first step finds an unmatched
column at a distance of at most the largest of these costs: that bound
plus one, not a bound on the raw costs, is the ``big`` sentinel.  A cold
call keeps u = 0, v = 0 and its own bound.

Of the unmatched columns, a search scans only the lowest one of each
*run*: a maximal stretch of consecutive columns j - 1, j at which no
row's reduced cost c_ij - v_j (with the starting v) is less at j than at
j - 1.  The textbook loop never reaches the others.  A column becomes
matched when a search reaches it and stays matched, and only reached
columns change their potential, so an unmatched column is one that no
search has reached yet and its potential is still its starting one.  Its
distance is then the least, over the rows the search has scanned, of the
row's reduced cost at j plus a term that does not depend on j, so inside
a run it does not fall as j grows: the lowest unmatched column of the
run is at least as close as every later one at every step, and it wins
their ties.  A search ends at the first unmatched column it reaches, so
no later unmatched column of the run is ever reached.  The matched
columns of a run are therefore a prefix of it.  The warm start's greedy
step keeps this so: inside a run a row's reduced costs do not fall, so
its tight columns there are a prefix of the run, and its lowest tight
free column, when it lies in the run, is the run's lowest unmatched one.
When a search ends at the lowest unmatched column, the next column of
its run takes its place among the scanned ones.  When each row's costs
do not decrease from column to column (the Lagrangian x-subproblem's,
whose columns are labels, mostly do), a cold call sees one run and each
step scans the matched columns plus one; a warm call's runs follow the
reduced costs.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from operator import lt, sub
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
    trajectories rely on this.  Unmatched columns past the lowest one of
    their run are skipped; the module docstring shows that the result is
    the same as with every column scanned.

    ``potentials``, when given, is a list of n integer column potentials v
    to start from (a warm start): each row starts at u_i = min_j (c_ij -
    v_j), which is dual-feasible for any v, every row in turn takes its
    lowest tight free column, and the searches augment only the rows left.
    On success the list is overwritten with the final v, so that u_i =
    min_j (c_ij - v_j) and v certify the total: sum(u) + sum(v) == total.
    With None every row is searched from zero potentials.

    Stops at ``deadline``, a ``time.perf_counter()`` value (``math.inf``,
    the default, means no limit): the clock is read before each row, and
    once the deadline has passed the result is None and ``potentials`` is
    left as it was.
    """
    n = len(costs)
    for row in costs:
        if len(row) != n:
            raise ValueError("cost matrix must be square")

    # Columns 0..n-1, and n, the virtual column the entering row starts
    # from; p[j] is the row matched to column j, -1 if none.
    p = [-1] * (n + 1)
    way = [0] * (n + 1)
    matched = [False] * n  # rows the warm start's greedy step matched
    # down[j - 1]: some row's reduced cost c_ij - v_j is lower at column j
    # than at j - 1, so j starts a run.
    if potentials is None:
        u = [0] * n
        v = [0] * (n + 1)
        big = max((max(max(row), -min(row)) for row in costs), default=0) * (n + 1) + 1
        down = list(map(any, zip(*(map(lt, row[1:], row) for row in costs))))
    else:
        if len(potentials) != n:
            raise ValueError("need one potential per column")
        v = [*potentials, 0]
        u = []
        falls = []  # per row, byte j - 1: its reduced cost falls from j - 1 to j
        # The searches run on c_ij - v_j - u_i >= 0 from zero potentials,
        # so big only has to exceed the largest of these.
        big = 1
        for i, row in enumerate(costs):
            reduced = list(map(sub, row, potentials))
            ui = min(reduced)
            u.append(ui)
            big = max(big, max(reduced) - ui + 1)
            falls.append(bytes(map(lt, reduced[1:], reduced)))
            for j, r in enumerate(reduced):
                if r == ui and p[j] < 0:  # the lowest tight free column
                    p[j] = i
                    matched[i] = True
                    break
        down = list(map(any, zip(*falls)))
    # cols holds the columns a search scans, in column order: the matched
    # ones and the lowest unmatched one of each run.  The matched columns
    # of a run are a prefix of it, so these are the columns that start a
    # run or follow a matched one.
    cols = [j for j in range(n) if j == 0 or down[j - 1] or p[j - 1] >= 0]
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
        free = cols[:]
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
        if j0 + 1 < n and not down[j0]:
            insort(cols, j0 + 1)
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
