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

Delta is stored compactly: each edge records the last ascent step K_e in
which it participated, and delta_e^k = max(0, K_e - k + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, max_degree


@dataclass(frozen=True)
class DualSolution:
    """Feasible dual candidate with compact delta storage."""

    n_labels: int
    alpha: tuple[int, ...]
    gamma: tuple[int, ...]
    edge_last_step: tuple[int, ...]

    def objective(self) -> int:
        return sum(self.gamma) - sum(self.alpha)


@dataclass(frozen=True)
class AscentStep:
    """One committed step of the extended ascent."""

    step: int
    alpha_value: int
    active_edges: int
    net_change: int
    objective: int


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
    return DualSolution(g.n, alpha, (1 + steps,) * m, (steps,) * m), z


def dual_ascent_extended(g: Graph) -> tuple[DualSolution, int, list[AscentStep]]:
    """Ascent that may pay less than the maximum degree per step by
    deactivating edges; deactivated edges stop earning in later steps.

    Each step keeps the per-label amount alpha (1 up to the maximum active
    degree) with the largest positive net change, surviving active edges
    minus step * alpha, the smallest alpha on ties, and commits its active
    set.  Trying alpha visits the nodes in order of their degree at the
    start of the step (descending, ties by index), up to the first one of
    degree <= alpha; a node whose current degree d still exceeds alpha
    drops its first d - alpha active edges in order of the other
    endpoint's current degree (descending, ties by edge index).

    Alpha runs downwards and a trial wins with a positive net change at
    least the best so far, so cheap trials set the best early and ties
    keep the smallest alpha.  Two exact skips: alpha is passed over when
    floor(sum over v of min(deg_v, alpha) / 2) - step * alpha cannot win
    (after the cap no degree exceeds alpha), and a trial stops once it
    has dropped more edges than a winner may.  Each trial is undone from
    its removal log.
    """
    m = g.m
    adjacency, edges = g.adjacency, g.edges
    flags = [True] * m
    deg = [len(adj) for adj in adjacency]
    active = m
    # An edge dropped when step s commits was last active in step s - 1.
    last_step = [0] * m
    trace: list[AscentStep] = []
    z = m
    # Isolated nodes keep degree 0: the ascent never looks at them.
    touched = [v for v in range(g.n) if deg[v]]
    for step in range(1, g.n + 1):
        # Only nodes of degree > alpha >= 1 are ever visited.
        ranked = sorted([(-d, v) for v in touched if (d := deg[v]) > 1])
        best_net = 0
        best: tuple[int, list[int]] | None = None
        capped = 2 * active  # sum over v of min(deg_v, alpha)
        above = 0  # ranked[:above] have degree > alpha (degree <= 1 never has)
        # The maximum degree: ranked[0]'s, else 1 while an edge is active.
        for alpha in range(-ranked[0][0] if ranked else min(active, 1), 0, -1):
            need = max(best_net, 1)
            # The most edges a trial may remove and still net `need`.
            budget = active - step * alpha - need
            if capped // 2 - step * alpha >= need:
                removed: list[int] = []
                for neg_d, v in ranked:
                    if -neg_d <= alpha or len(removed) > budget:
                        break
                    excess = deg[v] - alpha
                    if excess <= 0:
                        continue
                    incident = sorted([(-deg[x], e, x) for x, e in adjacency[v] if flags[e]])
                    for _, e, x in incident[:excess]:
                        flags[e] = False
                        deg[x] -= 1
                        removed.append(e)
                    deg[v] = alpha
                if len(removed) <= budget:
                    best_net = active - len(removed) - step * alpha
                    best = (alpha, removed)
                for e in removed:
                    flags[e] = True
                    u, v = edges[e]
                    deg[u] += 1
                    deg[v] += 1
            while above < len(ranked) and -ranked[above][0] >= alpha:
                above += 1
            capped -= above
        if best is None:
            break
        alpha, removed = best
        for e in removed:
            flags[e] = False
            last_step[e] = step - 1
            u, v = edges[e]
            deg[u] -= 1
            deg[v] -= 1
        active -= len(removed)
        z += best_net
        trace.append(AscentStep(step, alpha, active, best_net, z))
    steps = len(trace)
    last = tuple(steps if flags[e] else last_step[e] for e in range(m))
    alpha = [0] * g.n
    suffix = 0
    for k in range(steps, 0, -1):
        suffix += trace[k - 1].alpha_value
        alpha[k - 1] = suffix
    solution = DualSolution(g.n, tuple(alpha), tuple(1 + k for k in last), last)
    return solution, z, trace


def check_dual_feasible(g: Graph, d: DualSolution) -> tuple[bool, int]:
    """Exact feasibility check of a DualSolution against its graph.

    Verifies the per-(label, node) and per-(edge, label) constraints for
    every label 1..n and returns (feasible, recomputed objective).
    """
    if (
        d.n_labels != g.n
        or len(d.alpha) != g.n
        or len(d.gamma) != g.m
        or len(d.edge_last_step) != g.m
    ):
        raise ValueError("dual solution dimensions do not match the graph")
    feasible = True
    for k in range(1, g.n + 1):
        for i in range(g.n):
            total = sum(
                max(0, d.edge_last_step[e] - k + 1) for _, e in g.adjacency[i]
            )
            if -d.alpha[k - 1] + total > 0:
                feasible = False
        for e in range(g.m):
            if d.gamma[e] - max(0, d.edge_last_step[e] - k + 1) > k:
                feasible = False
    return feasible, d.objective()
