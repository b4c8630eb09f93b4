"""Exact minimum-cost perfect assignment on square integer matrices.

The shortest-augmenting-path method in the form of Jonker & Volgenant
(1987): rows enter one at a time, and a Dijkstra search over reduced
costs finds each row's augmenting path.  Potentials are integers, so
exactness is preserved for arbitrarily large (scaled) integer costs.

A call starts from given column potentials v (a warm start), or from
zeros.  Each row then starts at u_i = min_j (c_ij - v_j), so every
reduced cost c_ij - u_i - v_j is >= 0 and each row has a tight (zero)
one; in row order, each row takes its lowest tight free column, and the
searches augment only the rows this leaves unmatched.  Matched edges stay
tight, so a matched row's potential is c_ij - v_j at its column and is
never stored.

A search from a free row keeps each column's distance d_j and splits the
columns into three parts: ready (scanned at a smaller distance than the
current minimum), scan (at the current minimum, their rows not yet
scanned) and todo (farther).  When the scan part is empty, every todo
column at the new minimum distance moves into it, and the search ends at
once if one of them is free.  Scanning a column's row lowers the todo
distances through that row; a column whose distance drops to the minimum
ends the search if it is free and joins the scan part if not.  So each
search stops at the first free column that reaches the least distance,
instead of settling every other column at that distance first, which on
the zero plateaus a warm start leaves is most of them.  Ties go to the
lowest column: the todo part stays in column order, and so the scan part
is entered in that order.

When the search ends at distance m, only the ready columns' potentials
move, v_j += d_j - m (a column scanned at m has d_j = m).  That keeps
every reduced cost >= 0 and every matched edge tight, and makes the path
to the free row tight, so flipping it along ``pred`` keeps the matching
tight.  After the last row, u_i = min_j (c_ij - v_j) and v are thus
dual-feasible with sum(u) + sum(v) equal to the total, which proves the
assignment optimal.
"""

from __future__ import annotations

import math
import time
from itertools import compress, repeat
from operator import eq, not_, sub
from typing import Sequence


def hungarian_min(
    costs: Sequence[Sequence[int]],
    deadline: float = math.inf,
    potentials: list[int] | None = None,
) -> tuple[list[int], int] | None:
    """Minimum-cost perfect assignment: perm[i] = column of row i, and the
    minimal total cost.  Deterministic for equal inputs.

    Each search moves the columns at the least distance into its scan
    list in column order and ends at the first free column that reaches
    that distance, so which of several optimal assignments comes back is
    fixed by the column order (and by ``potentials``); the pinned
    Lagrangian trajectories rely on this.  Only the columns scanned below
    the final distance change their potentials.

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
        v = [0] * n
    elif len(potentials) != n:
        raise ValueError("need one potential per column")
    else:
        v = potentials[:]

    columns = range(n)
    x = [-1] * n  # x[i]: the column of row i, -1 if none
    y = [-1] * n  # y[j]: the row of column j, -1 if none
    for i, row in enumerate(costs):
        reduced = list(map(sub, row, v))
        for j in compress(columns, map(eq, reduced, repeat(min(reduced)))):
            if y[j] < 0:  # the lowest tight free column
                x[i] = j
                y[j] = i
                break
    for f in columns:
        if time.perf_counter() >= deadline:
            return None
        if x[f] >= 0:
            continue
        d = list(map(sub, costs[f], v))  # distances, up to the row's potential
        pred = [f] * n
        todo = list(columns)
        reached: list[int] = []  # the ready part, then the scan part
        scanned = 0
        end = -1
        while end < 0:
            if scanned == len(reached):
                dist = list(map(d.__getitem__, todo))
                mind = min(dist)
                at_min = list(map(eq, dist, repeat(mind)))
                fresh = list(compress(todo, at_min))
                todo = list(compress(todo, map(not_, at_min)))
                for j in fresh:
                    if y[j] < 0:
                        end = j
                        break
                reached += fresh
                continue
            j1 = reached[scanned]
            scanned += 1
            i = y[j1]
            row = costs[i]
            # Row i's potential, less the distance to its column j1.
            h = row[j1] - v[j1] - mind
            joined = len(reached)
            for j in todo:
                c = row[j] - v[j] - h
                if c < d[j]:
                    d[j] = c
                    pred[j] = i
                    if c == mind:
                        if y[j] < 0:
                            end = j
                            break
                        reached.append(j)
            if len(reached) > joined:
                todo = [j for j in todo if d[j] != mind]
        for j in reached[:scanned]:
            v[j] += d[j] - mind
        i = -1
        while i != f:
            i = pred[end]
            y[end] = i
            x[i], end = end, x[i]
    if potentials is not None:
        potentials[:] = v
    return x, sum(costs[i][x[i]] for i in columns)
