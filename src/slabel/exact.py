"""Ground-truth solvers: a brute-force oracle for tiny instances and a
combinatorial branch-and-bound with dual-ascent lower bounds.

Both assign labels 1, 2, ... in order.  Once the residual graph (edges
with both endpoints unlabeled) is empty, every edge contribution is
fixed and the remaining labels can be handed out in any order.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .core import Graph, Labeling, build_graph, sl_value
from .dual_ascent import dual_ascent_extended
from .heuristics import starting_heuristic


class SizeLimitError(RuntimeError):
    """Raised when a brute-force solve would exceed its node limit."""


def brute_force(g: Graph, node_limit: int = 12) -> tuple[int, Labeling]:
    """Exact optimum by depth-first assignment of labels 1, 2, ... with
    closure once the residual graph is edgeless.

    Partial assignments are pruned against the incumbent using the fact
    that every residual edge will contribute more than the current depth.
    """
    if g.n > node_limit:
        raise SizeLimitError(
            f"{g.n} nodes exceed the brute-force limit of {node_limit}"
        )
    n = g.n
    if n == 0:
        return 0, Labeling(labels=())

    adjacency = g.adjacency
    labels = [0] * n
    best_labels = list(range(1, n + 1))
    identity = Labeling(labels=tuple(best_labels))
    best_value = sl_value(g, identity)

    residual_degree = [len(adj) for adj in adjacency]
    residual_edges = g.m

    def complete(depth: int) -> list[int]:
        out = labels.copy()
        next_label = depth + 1
        for v in range(n):
            if out[v] == 0:
                out[v] = next_label
                next_label += 1
        return out

    def dfs(depth: int, fixed_cost: int) -> None:
        nonlocal best_value, best_labels, residual_edges
        if residual_edges == 0:
            if fixed_cost < best_value:
                best_value = fixed_cost
                best_labels = complete(depth)
            return
        if fixed_cost + (depth + 1) * residual_edges >= best_value:
            return
        label = depth + 1
        for v in range(n):
            if labels[v] != 0:
                continue
            labels[v] = label
            gained = residual_degree[v]
            residual_edges -= gained
            for x, _ in adjacency[v]:
                if labels[x] == 0:
                    residual_degree[x] -= 1
            dfs(depth + 1, fixed_cost + label * gained)
            for x, _ in adjacency[v]:
                if labels[x] == 0:
                    residual_degree[x] += 1
            residual_edges += gained
            labels[v] = 0

    dfs(0, 0)
    return best_value, Labeling(labels=tuple(best_labels))


@dataclass(frozen=True)
class BnBNode:
    """Search node: nodes carrying labels 1..k (in label order), the cost
    already fixed by labeled endpoints, the residual edge set, and a
    lower bound on any completion."""

    partial: tuple[int, ...]
    fixed_cost: int
    residual: frozenset[int]
    lb: int

    @property
    def depth(self) -> int:
        return len(self.partial)


@dataclass
class SearchStats:
    explored: int = 0
    pruned_by_bound: int = 0
    time_seconds: float = 0.0
    proven_optimal: bool = False


class _ResidualBounder:
    """Dual-ascent bounds on residual graphs, memoized by edge set."""

    def __init__(self, g: Graph, cache_limit: int = 400_000) -> None:
        self.g = g
        self.cache: dict[frozenset[int], int] = {}
        self.cache_limit = cache_limit

    def dual_bound(self, residual: frozenset[int]) -> int:
        if not residual:
            return 0
        cached = self.cache.get(residual)
        if cached is not None:
            return cached
        g = self.g
        nodes = sorted({v for e in residual for v in g.edges[e]})
        index = {v: i for i, v in enumerate(nodes)}
        sub = build_graph(
            len(nodes), [(index[g.edges[e][0]], index[g.edges[e][1]]) for e in residual]
        )
        _, bound, _ = dual_ascent_extended(sub)
        if len(self.cache) >= self.cache_limit:
            self.cache.clear()
        self.cache[residual] = bound
        return bound


@dataclass
class BnBResult:
    lower_bound: int
    upper_bound: int
    labeling: Labeling
    stats: SearchStats


def _complete_labeling(g: Graph, partial: tuple[int, ...]) -> Labeling:
    labels = [0] * g.n
    for lab, v in enumerate(partial, start=1):
        labels[v] = lab
    next_label = len(partial) + 1
    for v in range(g.n):
        if labels[v] == 0:
            labels[v] = next_label
            next_label += 1
    return Labeling(labels=tuple(labels))


def branch_and_bound(
    g: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    incumbent_seed: int = 0,
) -> BnBResult:
    """Best-first branch-and-bound (lowest bound first, deeper first on
    ties, then insertion order).

    Children of a depth-k node place label k+1 on an unlabeled vertex;
    candidates are restricted to vertices with residual degree >= 1
    whenever any exist, since moving the next label from a residual-
    isolated vertex onto a residual-non-isolated one never increases the
    objective.  Hitting a limit yields a valid bracket instead of a proof.
    """
    start = time.perf_counter()
    stats = SearchStats()
    if g.m == 0:
        phi = _complete_labeling(g, ())
        stats.proven_optimal = True
        stats.time_seconds = time.perf_counter() - start
        return BnBResult(0, 0, phi, stats)

    best_labeling, incumbent = starting_heuristic(g, incumbent_seed)
    bounder = _ResidualBounder(g)
    root_residual = frozenset(range(g.m))
    root = BnBNode(
        partial=(),
        fixed_cost=0,
        residual=root_residual,
        lb=bounder.dual_bound(root_residual),
    )
    counter = 0
    heap: list[tuple[int, int, int, BnBNode]] = [(root.lb, 0, counter, root)]
    hit_limit = False
    pops = 0

    while heap:
        if node_limit is not None and stats.explored >= node_limit:
            hit_limit = True
            break
        if time_limit is not None and pops % 64 == 0:
            if time.perf_counter() - start > time_limit:
                hit_limit = True
                break
        pops += 1
        lb, _, _, node = heapq.heappop(heap)
        if lb >= incumbent:
            stats.pruned_by_bound += 1
            continue
        stats.explored += 1
        depth = node.depth
        if not node.residual:
            if node.fixed_cost < incumbent:
                incumbent = node.fixed_cost
                best_labeling = _complete_labeling(g, node.partial)
            continue

        residual_degree = [0] * g.n
        for e in node.residual:
            u, v = g.edges[e]
            residual_degree[u] += 1
            residual_degree[v] += 1
        labeled = set(node.partial)
        label = depth + 1
        for v in range(g.n):
            if v in labeled or residual_degree[v] == 0:
                continue
            child_residual = frozenset(
                e for e in node.residual if v not in g.edges[e]
            )
            child_fixed = node.fixed_cost + label * residual_degree[v]
            child_lb = (
                child_fixed
                + label * len(child_residual)
                + bounder.dual_bound(child_residual)
            )
            if child_lb >= incumbent:
                stats.pruned_by_bound += 1
                continue
            counter += 1
            child = BnBNode(
                partial=node.partial + (v,),
                fixed_cost=child_fixed,
                residual=child_residual,
                lb=child_lb,
            )
            heapq.heappush(heap, (child_lb, -child.depth, counter, child))

    if hit_limit and heap:
        lower = min(incumbent, heap[0][0])
    else:
        lower = incumbent
    stats.proven_optimal = lower >= incumbent
    stats.time_seconds = time.perf_counter() - start
    return BnBResult(lower, incumbent, best_labeling, stats)
