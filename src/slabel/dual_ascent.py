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

    def delta(self, edge: int, k: int) -> int:
        return max(0, self.edge_last_step[edge] - k + 1)

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


def _zero_solution(g: Graph) -> DualSolution:
    return DualSolution(
        n_labels=g.n,
        alpha=(0,) * g.n,
        gamma=(),
        edge_last_step=(),
    )


def dual_ascent_simple(g: Graph) -> tuple[DualSolution, int]:
    """Uniform ascent: every step raises all gamma_e by one and pays the
    maximum degree on every label level up to the step index.

    Step kbar is taken while m - kbar * Delta > 0, adding that amount to
    the objective, so the bound is m + sum of the positive net changes.
    """
    m = g.m
    if m == 0:
        return _zero_solution(g), 0
    delta_max = max_degree(g)
    z = m
    steps = 0
    for kbar in range(1, g.n + 1):
        change = m - kbar * delta_max
        if change <= 0:
            break
        z += change
        steps = kbar
    alpha = [0] * g.n
    for k in range(1, steps + 1):
        alpha[k - 1] = delta_max * (steps - k + 1)
    solution = DualSolution(
        n_labels=g.n,
        alpha=tuple(alpha),
        gamma=(1 + steps,) * m,
        edge_last_step=(steps,) * m,
    )
    return solution, z


def _enforce_degree_cap(
    g: Graph, flags: list[bool], degrees: list[int], cap: int
) -> tuple[list[bool], list[int]]:
    """Deactivate edges until every active degree is <= cap.

    Nodes are visited in order of their degree at entry (descending, ties
    by index); at each node the active incident edges are dropped in order
    of the other endpoint's current degree (descending, ties by edge index).
    """
    flags = flags.copy()
    deg = degrees.copy()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    for v in order:
        if deg[v] <= cap:
            continue
        incident = [(x, e) for x, e in g.adjacency[v] if flags[e]]
        incident.sort(key=lambda t: (-deg[t[0]], t[1]))
        for x, e in incident:
            if deg[v] <= cap:
                break
            flags[e] = False
            deg[v] -= 1
            deg[x] -= 1
    return flags, deg


def dual_ascent_extended(g: Graph) -> tuple[DualSolution, int, list[AscentStep]]:
    """Ascent that may pay less than the maximum degree per step by
    deactivating edges; deactivated edges stop earning in later steps.

    Each step tries every per-label amount up to the current maximum
    active degree, keeps the one with the largest positive net change
    (smallest amount on ties), and commits its surviving active set.
    """
    m = g.m
    if m == 0:
        return _zero_solution(g), 0, []
    flags = [True] * m
    degrees = [len(adj) for adj in g.adjacency]
    last_step = [0] * m
    step_alphas: list[int] = []
    trace: list[AscentStep] = []
    z = m
    for step in range(1, g.n + 1):
        delta_active = max(degrees)
        if delta_active == 0:
            break
        best_net = 0
        best: tuple[int, list[bool], list[int], int] | None = None
        for alpha_bar in range(1, delta_active + 1):
            cand_flags, cand_deg = _enforce_degree_cap(g, flags, degrees, alpha_bar)
            count = sum(cand_flags)
            net = count - step * alpha_bar
            if net > best_net:
                best_net = net
                best = (alpha_bar, cand_flags, cand_deg, count)
        if best is None:
            break
        alpha_bar, flags, degrees, count = best
        step_alphas.append(alpha_bar)
        z += best_net
        for e in range(m):
            if flags[e]:
                last_step[e] = step
        trace.append(
            AscentStep(
                step=step,
                alpha_value=alpha_bar,
                active_edges=count,
                net_change=best_net,
                objective=z,
            )
        )
    steps = len(step_alphas)
    alpha = [0] * g.n
    suffix = 0
    for k in range(steps, 0, -1):
        suffix += step_alphas[k - 1]
        alpha[k - 1] = suffix
    solution = DualSolution(
        n_labels=g.n,
        alpha=tuple(alpha),
        gamma=tuple(1 + last_step[e] for e in range(m)),
        edge_last_step=tuple(last_step),
    )
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
