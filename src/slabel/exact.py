"""Ground-truth solvers: the exact oracle, a subset dynamic program for up
to 20 nodes, and a combinatorial branch-and-bound with dual-ascent lower
bounds and neighbourhood domination.

Both assign labels 1, 2, ... in order.  Once no edge has both ends
unlabeled, every contribution is fixed and the rest can go in any order.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from .core import Graph, Labeling, sl_value
from .dual_ascent import dual_ascent_extended
from .heuristics import starting_heuristic


ORACLE_LIMIT = 20  # the most nodes subset_dp accepts: 2**20 states


class SizeLimitError(RuntimeError):
    """Raised when an oracle solve would exceed its node limit."""


def subset_dp(g: Graph, deadline: float = math.inf) -> tuple[int, Labeling, bool]:
    """The optimum by dynamic programming over node sets (Held & Karp
    1962, Bellman 1962), an optimal labeling, and whether it finished.

    f(S) is the least total of the edges with an end in S when the nodes
    of S take labels 1..|S|: the node v that takes label |S| pays |S| for
    each edge to a node outside S, so f(S) = min over v in S of f(S - {v})
    + |S| * |N(v) - S|, and f(V) is the optimum.  One pass in numeric
    order computes every S - {v} before S.  f is an int64 array, which
    cannot overflow since f(S) <= |S| * m <= 20 * 190; the argmin nodes,
    in a bytearray, are walked back from V into the labeling.

    ``deadline``, a ``time.perf_counter()`` value (``math.inf``, the
    default, means none), is read once per 4096 states.  Once it has
    passed, the walk starts from the last state computed, whose nodes take
    the first labels (the rest follow in index order), and the value is
    the labeling's, with ``finished`` False.
    """
    if g.n > ORACLE_LIMIT:
        raise SizeLimitError(f"{g.n} nodes exceed the oracle limit of {ORACLE_LIMIT}")
    nbr = [0] * g.n  # node bitmasks of the neighbours
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    f = array("q", bytes(8 << g.n))
    last = bytearray(1 << g.n)  # the node that takes label |S| in an optimal order of S
    full = state = (1 << g.n) - 1
    for s in range(1, full + 1):
        if not s & 4095 and time.perf_counter() >= deadline:
            state = s - 1
            break
        k, rest, best = s.bit_count(), s, math.inf
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            cost = f[s ^ low] + k * (nbr[v] & ~s).bit_count()
            if cost < best:
                best, node = cost, v
        f[s], last[s] = best, node
    finished = state == full
    order, rest = [], state
    while rest:
        order.append(last[rest])
        rest ^= 1 << last[rest]
    labeling = Labeling.from_order(g.n, reversed(order))
    return (f[state] if finished else sl_value(g, labeling)), labeling, finished


@dataclass
class SearchStats:
    """Counters of one search: ``dominated`` children skipped by
    neighbourhood domination before any bound (never counted in
    ``pruned_by_bound``), ``bound_calls`` dual-ascent runs (a residual
    bounded again under a higher cutoff counts again), ``cache_hits``
    residual bounds taken from the memo instead, and ``open_bound`` the
    smallest bound left open when a limit stopped the search."""

    explored: int = 0
    pruned_by_bound: int = 0
    dominated: int = 0
    bound_calls: int = 0
    cache_hits: int = 0
    open_bound: int | None = None
    proven_optimal: bool = False


CACHE_LIMIT = 400_000  # residual bounds kept; the least recently used goes first


def _dominated(u: int, gained: int, near: list[int]) -> bool:
    """Whether neighbourhood domination skips the child that labels u next.

    ``near[v]`` is the node bitmask of R(v), v's unlabeled neighbours, and
    ``gained`` is |R(u)| >= 1.  Another unlabeled w dominates u when
    R(u) - {w} is a subset of R(w) - {u} and either |R(w)| > |R(u)|, or the
    sizes are equal and w < u (Ibaraki 1977, "The power of dominance
    relations in branch-and-bound algorithms").

    Exchange argument: take any completion that gives u the next label k
    and w a later label p, and swap the two labels.  An edge's
    contribution is the smaller label of its ends, and every other
    unlabeled node gets a label above k.  Edges u-x for x in R(u) - {w} go
    from k to min(p, l(x)); w's edges to the same nodes go from min(p,
    l(x)) to k, so those pairs cancel.  w's remaining edges into R(w) - {u}
    go from min(p, l(y)) > k down to k, and an edge u-w stays at k.  So
    the swap never costs more, and the best completion that labels w
    next is at least as good as the best that labels u next.

    The inclusion alone can hold both ways (twins), and skipping both u
    and w could lose the optimum.  A dominator always ranks strictly
    higher in the order "larger |R| first, then lower index", which is a
    strict total order, so domination is acyclic: the top-ranked candidate
    is never dominated, and following dominators from any skipped child
    ends at a kept one whose subtree is as good.

    The dominators are the nodes other than u in the intersection of the
    closed neighbourhoods R(x) + {x} over x in R(u): such a w is x itself
    or adjacent to x for every x in R(u).  The inclusion forces |R(w)| >=
    |R(u)|, so u is dominated exactly when that set holds a node below u
    or one with a larger R.  u itself is in the set, but it is neither.
    """
    dominators = -1
    rest = near[u]
    while rest:
        low = rest & -rest
        dominators &= near[low.bit_length() - 1] | low
        rest ^= low
    if dominators & ((1 << u) - 1):
        return True
    while dominators:  # u and the nodes above it
        low = dominators & -dominators
        if near[low.bit_length() - 1].bit_count() > gained:
            return True
        dominators ^= low
    return False


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
    residual-non-isolated one never increases the objective.  A candidate
    that another unlabeled vertex dominates (see ``_dominated``) is
    skipped too, before its bound or memo entry is looked at; the rule
    only filters children, so the ones left keep their bounds and their
    order in the heap.  The search stops after ``node_limit`` expansions
    or at ``deadline``, a ``perf_counter`` value (``math.inf``, the default
    for both, means no limit); hitting a limit yields a valid bracket
    instead of a proof.

    A residual edge set is an int bitmask over edge indices, and
    ``incident[v]`` masks the edges at v: labeling v leaves the residual
    ``residual & ~incident[v]`` and fixes ``(residual & incident[v])
    .bit_count()`` edges at the new label.  Bounds come from
    ``dual_ascent_extended`` on g restricted to the residual bitmask,
    looked up in this module so that a wrapper installed here sees every
    call; no subgraph is built, and the bound depends on the edge set alone.

    A child is pruned once its fixed cost, ``label`` per residual edge and
    the residual's dual bound reach the incumbent, so the ascent stops at
    that cutoff: every pushed child carries the full ascent's bound, and
    the search is the one uncut ascents give.  The memo maps a residual to
    (bound, exact), exact when the bound is below its cutoff; a hit is used
    when it is exact or reaches the new cutoff, else the ascent runs again.
    The memo is built per call, holds ``CACHE_LIMIT`` entries (read at that
    time) and drops the least recently used first.  The root bound, uncut,
    precedes the starting heuristic; the clock is read before each
    expansion.
    """
    if g.m == 0:
        return BnBResult(0, 0, Labeling.from_order(g.n, ()), SearchStats(proven_optimal=True))
    stats = SearchStats()

    memo: OrderedDict[int, tuple[int, bool]] = OrderedDict()  # residual -> (bound, exact)

    def dual_bound(residual: int, cutoff: float) -> int:
        hit = memo.get(residual)
        if hit is not None and (hit[1] or hit[0] >= cutoff):
            memo.move_to_end(residual)
            stats.cache_hits += 1
            return hit[0]
        stats.bound_calls += 1
        z = dual_ascent_extended(g, residual, cutoff)[1]
        memo[residual] = (z, z < cutoff)
        memo.move_to_end(residual)
        if len(memo) > CACHE_LIMIT:
            memo.popitem(last=False)
        return z

    incident = [0] * g.n
    nbr = [0] * g.n  # node bitmasks of the neighbours
    for e, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    root_residual = (1 << g.m) - 1
    # (lb, -depth, insertion counter, labeled nodes in label order, fixed cost, residual)
    heap = [(dual_bound(root_residual, math.inf), 0, 0, (), 0, root_residual)]
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

        # Labeled nodes have no residual edges, so they are never candidates;
        # an unlabeled v gains one residual edge per node of near[v].
        label = 1 - neg_depth
        unlabeled = (1 << g.n) - 1
        for v in partial:
            unlabeled ^= 1 << v
        near = [mask & unlabeled for mask in nbr]
        for v in range(g.n):
            gained = (residual & incident[v]).bit_count()
            if not gained:
                continue
            if _dominated(v, gained, near):
                stats.dominated += 1
                continue
            child_residual = residual & ~incident[v]
            child_fixed = fixed_cost + label * gained
            child_lb = child_fixed + label * child_residual.bit_count()
            if child_residual:
                child_lb += dual_bound(child_residual, incumbent - child_lb)
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
