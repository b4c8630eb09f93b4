"""Dual-ascent lower bounds for the S-labeling problem.

Both variants greedily build an integral feasible solution of the LP dual
of the label-assignment formulation; by weak duality its objective is a
lower bound on the optimal labeling value.  The dual has one multiplier
per label (alpha, stored as a nonnegative magnitude that enters the
objective negatively), one per edge (gamma) and one per (edge, label)
pair (delta >= 0); the per-node multipliers of the full dual are fixed
at 0 and left out.  The constraints are

    -alpha_k + sum over edges e at node i of delta_e^k  <=  0
    gamma_e - delta_e^k                                 <=  k

A solution stores per edge only the last ascent step K_e in which it took
part (-1 if none); delta_e^k = max(0, K_e - k + 1) and gamma_e = 1 + K_e
follow.  Then gamma_e - delta_e^k = min(k, 1 + K_e) <= k, so every row of
the second kind holds; for K_e >= 0 no larger gamma_e would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import Graph, max_degree


@dataclass(frozen=True)
class DualSolution:
    """Feasible dual candidate: alpha and each edge's last step K_e."""

    alpha: tuple[int, ...]
    edge_last_step: tuple[int, ...]

    def objective(self) -> int:
        return sum(1 + k for k in self.edge_last_step) - sum(self.alpha)  # gamma_e = 1 + K_e


def dual_ascent_simple(g: Graph) -> tuple[DualSolution, int]:
    """Uniform ascent: every step raises all gamma_e by one and pays the
    maximum degree on every label level up to the step index.

    Step k nets m - k * Delta and is taken while that is positive, so
    steps = (m - 1) // Delta (0 when Delta = 0), the bound is m * (steps + 1)
    - Delta * steps * (steps + 1) / 2 and alpha_k = Delta * (steps - k + 1).
    No cap of n steps is needed: m <= n * Delta / 2 gives steps < n / 2.
    """
    m = g.m
    delta_max = max_degree(g)
    steps = (m - 1) // delta_max if delta_max else 0
    z = m * (steps + 1) - delta_max * steps * (steps + 1) // 2
    alpha = tuple(delta_max * (steps - k) for k in range(steps)) + (0,) * (g.n - steps)
    return DualSolution(alpha, (steps,) * m), z


def dual_ascent_extended(
    g: Graph, residual: int | None = None, cutoff: float = math.inf,
    deadline: float = math.inf,
) -> tuple[DualSolution | None, int, list[tuple[int, int]]]:
    """Ascent that may pay less than the maximum degree per step by
    deactivating edges; deactivated edges stop earning in later steps.

    Each step keeps the per-label amount alpha (1 up to the maximum active
    degree) with the largest positive net change, surviving active edges
    minus step * alpha, the smallest alpha on ties, and commits its active
    set.  Trying alpha visits the nodes in order of their degree at the
    start of the step (descending, ties by index), up to the first one of
    degree <= alpha; a node whose current degree d still exceeds alpha
    drops its first d - alpha active edges in order of the other
    endpoint's current degree (descending, ties by edge index).  The
    trace holds each committed step's (alpha, net change); the bound is
    the residual's edge count plus the sum of the net changes.

    A node's drops are integer keys ``e - deg[x] * m`` over its active
    edges e to x: as 0 <= e < m, ascending keys sort exactly as the pairs
    (-deg[x], e), the edge is ``key % m`` and x is its other end.  A single
    drop takes the ``min`` of the keys; only more than one sorts them.

    Alpha runs downwards and a trial wins with a positive net change at
    least the best so far, so cheap trials set the best early and ties
    keep the smallest alpha.  An exact skip: alpha is passed over when
    f(alpha) = floor(c(alpha) / 2) - step * alpha, with c(alpha) the sum
    over v of min(deg_v, alpha), cannot win (after the cap no degree
    exceeds alpha).  An exact exit: c(alpha - 1) = c(alpha) - A, where A
    counts the nodes of degree >= alpha and only grows as alpha falls.
    Once A >= 2 * step, (c - A) // 2 <= c // 2 - step gives f(alpha - 1)
    <= f(alpha), so f never rises again; the least winning net change
    never falls, so once f(alpha - 1) is below it no lower alpha passes
    the skip test and the loop ends.  Each trial is undone from its
    removal log.

    The visit order comes from degree buckets: ``bucket[d]`` holds the
    nodes of degree d >= 2, and only a committed step moves a node between
    buckets.  Trials undo their own degree changes, so the buckets always
    hold the degrees at the start of the step, which the order is by.  The
    ranking is built lazily as alpha descends: before a trial at alpha,
    ``sorted(bucket[d])`` is appended for each d not yet appended down to
    alpha + 1.  That is degree descending, ties by index, and it holds
    exactly the nodes the trial may visit.  The capped sum drops by the
    count of nodes of degree >= alpha, a running sum of bucket sizes.  So
    a step costs the buckets and nodes it reads, not a sort of every node.

    ``residual``, an int bitmask over g's edge ids, restricts the ascent
    to the subgraph of those edges without building it: g's node ids and
    edge order are kept, so the steps equal those on
    ``build_graph(g.n, chosen edges in id order)``, and the solution gives
    the edges outside the mask gamma 0.  ``None`` means every edge.

    The ascent returns after the first committed step whose objective
    reaches ``cutoff``: each committed step keeps the dual feasible and
    raises the objective, so that value is still a lower bound, and the
    trace is a prefix of the full one.  A finite cutoff returns no
    solution (None); it is for callers that need only the bound, such as
    branch-and-bound, which prunes a child once its bound gets there.

    ``deadline``, a ``perf_counter`` value (``math.inf``, the default,
    means no limit), is read once before each step.  Once it has passed,
    the ascent stops as at the cutoff and returns the solution of the
    steps committed so far, which is feasible, so its objective is still
    a lower bound.
    """
    m = g.m
    adjacency, edges = g.adjacency, g.edges
    if residual is None:
        residual = (1 << m) - 1
    flags = [False] * m
    deg = [0] * g.n
    for e, bit in enumerate(bin(residual)[:1:-1]):  # bit e at index e
        if bit == "1":
            flags[e] = True
            u, v = edges[e]
            deg[u] += 1
            deg[v] += 1
    active = residual.bit_count()
    # An edge dropped when step s commits was last active in step s - 1.
    # An edge outside the residual was never active: K_e = -1, so gamma_e = 0.
    last_step = [0 if flag else -1 for flag in flags]
    trace: list[tuple[int, int]] = []
    z = active
    # Nodes of degree 0 or 1 are never visited and have no bucket.  `top`
    # is the maximum degree while it is at least 2.
    top = max(deg, default=0)
    bucket: list[set[int]] = [set() for _ in range(top + 1)]
    for v, d in enumerate(deg):
        if d > 1:
            bucket[d].add(v)
    for step in range(1, g.n + 1):
        if time.perf_counter() >= deadline:
            break
        while top > 1 and not bucket[top]:
            top -= 1
        ranked: list[int] = []  # bucket[top], ..., bucket[filled], each sorted
        filled = top + 1
        need = 1  # a trial wins with a net change of at least this
        best: tuple[int, list[int]] | None = None
        capped = 2 * active  # sum over v of min(deg_v, alpha)
        above = 0  # nodes of degree >= alpha >= 2
        # The maximum degree, else 1 while an edge is active.
        for alpha in range(top if top > 1 else min(active, 1), 0, -1):
            if capped // 2 - step * alpha >= need:
                while filled > alpha + 1:
                    filled -= 1
                    ranked += sorted(bucket[filled])
                removed: list[int] = []
                for v in ranked:
                    excess = deg[v] - alpha
                    if excess <= 0:
                        continue
                    keys = [e - deg[x] * m for x, e in adjacency[v] if flags[e]]
                    for key in (min(keys),) if excess == 1 else sorted(keys)[:excess]:
                        e = key % m
                        u, x = edges[e]
                        flags[e] = False
                        deg[u ^ x ^ v] -= 1
                        removed.append(e)
                    deg[v] = alpha
                net = active - len(removed) - step * alpha
                if net >= need:
                    need = net
                    best = (alpha, removed)
                for e in removed:
                    flags[e] = True
                    u, v = edges[e]
                    deg[u] += 1
                    deg[v] += 1
            if alpha > 1:
                above += len(bucket[alpha])
            capped -= above
            if above >= 2 * step and capped // 2 - step * (alpha - 1) < need:
                break
        if best is None:
            break
        alpha, removed = best
        for e in removed:
            flags[e] = False
            last_step[e] = step - 1
            for x in edges[e]:
                d = deg[x]
                deg[x] = d - 1
                if d > 1:
                    bucket[d].remove(x)
                    if d > 2:
                        bucket[d - 1].add(x)
        active -= len(removed)
        z += need  # the winning net change
        trace.append((alpha, need))
        if z >= cutoff:
            break
    if cutoff < math.inf:
        return None, z, trace
    steps = len(trace)
    last = tuple(steps if flags[e] else last_step[e] for e in range(m))
    alpha = [0] * g.n
    suffix = 0
    for k in range(steps, 0, -1):
        suffix += trace[k - 1][0]
        alpha[k - 1] = suffix
    return DualSolution(tuple(alpha), last), z, trace


def check_dual_feasible(g: Graph, d: DualSolution) -> tuple[bool, int]:
    """Exact feasibility check of a DualSolution against its graph.

    Verifies the per-(label, node) rows for every label 1..n and returns
    (feasible, recomputed objective).  The per-(edge, label) rows need no
    check: with gamma_e = 1 + K_e, gamma_e - delta_e^k = min(k, 1 + K_e)
    <= k (see the module docstring).
    """
    if len(d.alpha) != g.n or len(d.edge_last_step) != g.m:
        raise ValueError("dual solution dimensions do not match the graph")
    feasible = True
    for k in range(1, g.n + 1):
        for i in range(g.n):
            total = sum(
                max(0, d.edge_last_step[e] - k + 1) for _, e in g.adjacency[i]
            )
            if -d.alpha[k - 1] + total > 0:
                feasible = False
    return feasible, d.objective()
