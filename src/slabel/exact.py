"""Ground-truth solvers: a brute-force oracle for tiny instances and a
combinatorial branch-and-bound with dual-ascent lower bounds.

Both assign labels 1, 2, ... in order.  Once the residual graph (edges
with both endpoints unlabeled) is empty, every edge contribution is
fixed and the remaining labels can be handed out in any order.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from dataclasses import dataclass

from .core import Graph, Labeling, build_graph, sl_value
from .dual_ascent import dual_ascent_extended
from .heuristics import starting_heuristic


BRUTE_FORCE_LIMIT = 12  # the most nodes brute_force accepts


class SizeLimitError(RuntimeError):
    """Raised when a brute-force solve would exceed its node limit."""


def brute_force(g: Graph) -> tuple[int, Labeling]:
    """Exact optimum by depth-first assignment of labels 1, 2, ... with
    closure once the residual graph is edgeless.

    Partial assignments are pruned against the incumbent using the fact
    that every residual edge will contribute more than the current depth.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"{g.n} nodes exceed the brute-force limit of {BRUTE_FORCE_LIMIT}"
        )
    n = g.n
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
    """Counters of one search: ``bound_calls`` dual-ascent runs and
    ``cache_hits`` residual bounds found in the cache (the misses and hits
    of its ``cache_info``), and ``open_bound`` the smallest bound left open
    when a limit stopped the search."""

    explored: int = 0
    pruned_by_bound: int = 0
    bound_calls: int = 0
    cache_hits: int = 0
    open_bound: int | None = None
    proven_optimal: bool = False


CACHE_LIMIT = 400_000  # residual bounds kept; the least recently used goes first


@dataclass
class BnBResult:
    lower_bound: int
    upper_bound: int
    labeling: Labeling
    stats: SearchStats


def branch_and_bound(
    g: Graph, deadline: float = math.inf, node_limit: float = math.inf
) -> BnBResult:
    """Best-first branch-and-bound (lowest bound first, deeper first on
    ties, then insertion order).

    Children of a depth-k node place label k+1 on an unlabeled vertex;
    candidates are restricted to vertices with residual degree >= 1,
    since moving the next label from a residual-isolated vertex onto a
    residual-non-isolated one never increases the objective.  The search
    stops after ``node_limit`` expansions or at ``deadline``, a
    ``perf_counter`` value (``math.inf``, the default for both, means no
    limit); hitting a limit yields a valid bracket instead of a proof.

    A residual edge set is an int bitmask over edge indices, and
    ``incident[v]`` masks the edges at v: labeling v leaves the residual
    ``residual & ~incident[v]`` and fixes ``(residual & incident[v])
    .bit_count()`` edges at the new label.  Bounds come from
    ``dual_ascent_extended`` on each residual subgraph, looked up in this
    module so that a wrapper installed here sees every call.  A subgraph
    keeps g's node ids and edge order, so its bound depends on the edge set
    alone and is cached by bitmask: an ``lru_cache`` built per call, of
    ``CACHE_LIMIT`` entries at that time.  The root bound precedes the
    starting heuristic; the clock is read before each expansion.
    """
    if g.m == 0:
        return BnBResult(0, 0, Labeling.from_order(g.n, ()), SearchStats(proven_optimal=True))
    stats = SearchStats()

    @functools.lru_cache(maxsize=CACHE_LIMIT)
    def dual_bound(residual: int) -> int:
        chosen = [g.edges[e] for e, bit in enumerate(reversed(bin(residual)[2:])) if bit == "1"]
        return dual_ascent_extended(build_graph(g.n, chosen))[1]

    incident = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    root_residual = (1 << g.m) - 1
    # (lb, -depth, insertion counter, labeled nodes in label order, fixed cost, residual)
    heap = [(dual_bound(root_residual), 0, 0, (), 0, root_residual)]
    best_labeling, incumbent = starting_heuristic(g, deadline)
    counter = 0

    # A limit breaks out with nodes left open; otherwise the heap runs empty.
    while heap:
        if stats.explored >= node_limit or time.perf_counter() >= deadline:
            break
        lb, neg_depth, _, partial, fixed_cost, residual = heapq.heappop(heap)
        if lb >= incumbent:
            stats.pruned_by_bound += 1
            continue
        stats.explored += 1
        if not residual:
            if fixed_cost < incumbent:
                incumbent = fixed_cost
                best_labeling = Labeling.from_order(g.n, partial)
            continue

        # Labeled nodes have no residual edges, so they are never candidates.
        label = 1 - neg_depth
        for v in range(g.n):
            gained = (residual & incident[v]).bit_count()
            if not gained:
                continue
            child_residual = residual & ~incident[v]
            child_fixed = fixed_cost + label * gained
            child_lb = child_fixed + label * child_residual.bit_count()
            if child_residual:
                child_lb += dual_bound(child_residual)
            if child_lb >= incumbent:
                stats.pruned_by_bound += 1
                continue
            counter += 1
            heapq.heappush(
                heap,
                (child_lb, neg_depth - 1, counter, partial + (v,), child_fixed, child_residual),
            )

    info = dual_bound.cache_info()
    stats.bound_calls, stats.cache_hits = info.misses, info.hits
    stats.open_bound = heap[0][0] if heap else None
    lower = incumbent if stats.open_bound is None else min(incumbent, stats.open_bound)
    stats.proven_optimal = lower >= incumbent
    return BnBResult(lower, incumbent, best_labeling, stats)
