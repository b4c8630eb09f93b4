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


@dataclass
class SearchStats:
    """Counters of one search: ``bound_calls`` dual-ascent runs,
    ``cache_hits`` residual bounds found in the cache, and ``open_bound``
    the smallest bound left open when a limit stopped the search."""

    explored: int = 0
    pruned_by_bound: int = 0
    bound_calls: int = 0
    cache_hits: int = 0
    open_bound: int | None = None
    proven_optimal: bool = False


CACHE_LIMIT = 400_000  # residual bounds kept before the cache is cleared


class _ResidualBounder:
    """Dual-ascent bounds on residual graphs, memoized by edge bitmask
    (bit e set while edge e is residual).  A subgraph lists its edges in
    ascending index order and renumbers their endpoints in ascending
    order, so a bound depends on the edge set alone."""

    def __init__(self, g: Graph, stats: SearchStats) -> None:
        self.g = g
        self.stats = stats
        self.cache: dict[int, int] = {}

    def dual_bound(self, residual: int) -> int:
        if not residual:
            return 0
        cached = self.cache.get(residual)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        edges = self.g.edges
        chosen = [edges[e] for e, bit in enumerate(reversed(bin(residual)[2:])) if bit == "1"]
        nodes = sorted({v for edge in chosen for v in edge})
        index = {v: i for i, v in enumerate(nodes)}
        sub = build_graph(len(nodes), [(index[u], index[v]) for u, v in chosen])
        _, bound, _ = dual_ascent_extended(sub)
        self.stats.bound_calls += 1
        if len(self.cache) >= CACHE_LIMIT:
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
) -> BnBResult:
    """Best-first branch-and-bound (lowest bound first, deeper first on
    ties, then insertion order).

    Children of a depth-k node place label k+1 on an unlabeled vertex;
    candidates are restricted to vertices with residual degree >= 1
    whenever any exist, since moving the next label from a residual-
    isolated vertex onto a residual-non-isolated one never increases the
    objective.  Hitting a limit yields a valid bracket instead of a proof.

    A residual edge set is an int bitmask over edge indices, and
    ``incident[v]`` masks the edges at v: labeling v leaves the residual
    ``residual & ~incident[v]`` and fixes ``(residual & incident[v])
    .bit_count()`` edges at the new label.  Bounds come from
    ``dual_ascent_extended`` on each residual subgraph, looked up in this
    module so that a wrapper installed here sees every call.
    """
    if g.m == 0:
        return BnBResult(0, 0, _complete_labeling(g, ()), SearchStats(proven_optimal=True))
    start = time.perf_counter()
    stats = SearchStats()
    best_labeling, incumbent = starting_heuristic(g)
    bounder = _ResidualBounder(g, stats)
    incident = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    root_residual = (1 << g.m) - 1
    # (lb, -depth, insertion counter, labeled nodes in label order, fixed cost, residual)
    heap = [(bounder.dual_bound(root_residual), 0, 0, (), 0, root_residual)]
    counter = 0

    # A limit breaks out with nodes left open; otherwise the heap runs empty.
    while heap:
        if node_limit is not None and stats.explored >= node_limit:
            break
        if time_limit is not None and time.perf_counter() - start > time_limit:
            break
        lb, neg_depth, _, partial, fixed_cost, residual = heapq.heappop(heap)
        if lb >= incumbent:
            stats.pruned_by_bound += 1
            continue
        stats.explored += 1
        if not residual:
            if fixed_cost < incumbent:
                incumbent = fixed_cost
                best_labeling = _complete_labeling(g, partial)
            continue

        # Labeled nodes have no residual edges, so they are never candidates.
        label = 1 - neg_depth
        for v in range(g.n):
            gained = (residual & incident[v]).bit_count()
            if not gained:
                continue
            child_residual = residual & ~incident[v]
            child_fixed = fixed_cost + label * gained
            child_lb = (child_fixed + label * child_residual.bit_count()
                        + bounder.dual_bound(child_residual))
            if child_lb >= incumbent:
                stats.pruned_by_bound += 1
                continue
            counter += 1
            heapq.heappush(
                heap,
                (child_lb, neg_depth - 1, counter, partial + (v,), child_fixed, child_residual),
            )

    stats.open_bound = heap[0][0] if heap else None
    lower = incumbent if stats.open_bound is None else min(incumbent, stats.open_bound)
    stats.proven_optimal = lower >= incumbent
    return BnBResult(lower, incumbent, best_labeling, stats)
