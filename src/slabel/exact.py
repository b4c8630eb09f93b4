"""Ground-truth solvers: the exact oracle, a subset dynamic program for up
to 20 nodes, and a combinatorial branch-and-bound with dual-ascent and
per-level coverage lower bounds (the latter refined by residual degrees),
neighbourhood and state dominance, and primal dives; and the exact level
table of a forest by a tree knapsack.

Both assign labels 1, 2, ... in order.  Once no edge has both ends
unlabeled, every contribution is fixed and the rest can go in any order.

Read as an order, S-labeling is min-sum vertex cover (Feige, Lovász &
Tetali 2004, "Approximating min sum set cover"): an edge contributes the
smaller label of its ends, the step at which the order first covers it.
With L_t the nodes labeled <= t and e(X) the number of edges with both
ends in X, an edge of smallest label k is uncovered at exactly the k steps
t = 0..k-1, so a labeling's value is the sum over t = 0..n-1 of
e(V - L_t).  ``coverage_table`` bounds each term from below by g_t, the
fewest edges any t nodes leave uncovered, and ``forest_levels`` computes
every g_t exactly when the graph is a forest.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, and_

from .core import Graph, Labeling, sl_value
from .dual_ascent import dual_ascent_extended
from .heuristics import greedy_label, local_search, starting_heuristic


ORACLE_LIMIT = 20  # the most nodes subset_dp accepts: 2**20 states


class SizeLimitError(RuntimeError):
    """Raised when an oracle solve would exceed its node limit."""


def _neighbour_masks(g: Graph) -> list[int]:
    """The node bitmask of each node's neighbours."""
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


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
    nbr = _neighbour_masks(g)
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


TABLE_NODE_LIMIT = 10_000  # children per level of coverage_table (prove-small needs 3,638)


def _key_shift(n: int) -> int:
    """The bit position of the key in ``_lightest_set``'s candidates on n nodes."""
    return 2 * n.bit_length() + 1


def _increment_rows(g: Graph) -> list[list[int]]:
    """``_lightest_set``'s key increment rows of g: ``rows[v][u]`` is
    ``1 << _key_shift(n)``, one added to a candidate's key, when u and v
    are adjacent, else 0."""
    unit = 1 << _key_shift(g.n)
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = unit
    return rows


def _lightest_set(
    rows: list[list[int]], cost: list[int], size: int, best: int, floor: int, deadline: float
) -> tuple[int, bool]:
    """A lower bound on the least w(X) = (sum of cost[v] over X) + e(X)
    over sets X of ``size`` >= 1 nodes, and whether it is that least value.

    ``rows`` are the key increment rows of ``_increment_rows``.  ``best`` is
    the w of a known set, and the result is at most ``best``.  ``floor``
    is a known lower bound on the least w: once the incumbent reaches it,
    the incumbent is the least value and the search stops.

    The depth-first search adds one node at a time.  A candidate's key,
    its cost plus its edges into the chosen nodes, is what adding it next
    adds to w; later picks only add more when they are adjacent.  So with
    r picks left and the keys in ascending order, the chosen w plus the r
    smallest keys bounds every completion, and the r keys from position j
    on bound those that skip the first j candidates.  Child j adds
    candidate j and chooses among the candidates after it.

    A candidate is the single int ``(key << shift) + node``, with
    ``shift = 2 * n.bit_length() + 1`` (``_key_shift``).  Ints sort as the
    pairs (key, node) would.  The node parts of any r <= n candidates sum
    to less than n**2 < 2**shift, so the sum of r candidates shifted right
    by ``shift`` is exactly the sum of their keys, negative keys included.
    A child's list adds ``1 << shift`` to each candidate adjacent to the
    new node: the new node's increment row, read at each candidate's node
    part, is exactly what that candidate gains, so a child is one
    ``map(add)`` of the candidates after it and their row entries, sorted.

    The search stops once it has made ``TABLE_NODE_LIMIT`` children or at
    ``deadline``, a ``perf_counter`` value read before the first child and
    every 256th; it then returns the smallest of ``best`` and the bounds of
    the subtrees left open.
    """
    if best <= floor:
        return best, True
    shift = _key_shift(len(rows))
    low = (1 << shift) - 1  # candidate & low is its node
    lows = repeat(low)
    nodes = 0
    stopped = False
    open_bound = math.inf

    def search(weight: int, keyed: list[int], r: int) -> None:
        nonlocal best, nodes, stopped, open_bound
        window = sum(keyed[:r])  # the r smallest candidates, keys and nodes
        last = len(keyed) - r
        for j in range(last + 1):
            bound = weight + (window >> shift)
            if bound >= best:
                return
            if r == 1:
                best = bound
                return
            if nodes >= TABLE_NODE_LIMIT or (not nodes & 255 and time.perf_counter() >= deadline):
                stopped = True
            else:
                nodes += 1
                candidate = keyed[j]
                rest = keyed[j + 1:]
                increments = map(rows[candidate & low].__getitem__, map(and_, rest, lows))
                search(weight + (candidate >> shift), sorted(map(add, rest, increments)), r - 1)
                if best <= floor:
                    return
            if stopped:
                open_bound = min(open_bound, bound)
                return
            if j < last:
                window += keyed[j + r] - keyed[j]

    search(0, sorted((c << shift) + v for v, c in enumerate(cost)), size)
    return min(best, open_bound), not stopped


def coverage_table(g: Graph, deadline: float = math.inf) -> list[int]:
    """Lower bounds on g_t for t = 0..n-1, where g_t is the fewest edges
    that any t nodes leave with both ends uncovered; each entry is exact
    when its level's search finishes (see ``_lightest_set``).

    g_t = m - (the most edges t nodes cover) is also the least e(S) over
    the sets S of n - t nodes.  Each level searches the smaller side: for
    2t <= n, the t nodes L covering the most edges, cov(L) = (sum of the
    degrees over L) - e(L), so w with cost -degree is -cov(L); above that,
    the n - t nodes with the fewest edges inside, at cost 0.  The greedy
    labeling's prefixes give every level a starting set.  A level whose
    greedy set leaves no edge has the floor 0 (see below), which that
    set reaches, so its search stops at once with the entry 0.

    The levels run from t = n - 2 down to 1 (g_{n-1} = 0 and g_0 = m).
    By the chain inequality of ``branch_and_bound``, with the entry above
    in place of g_{t+1}, g_t is at least the floor ceil(g_{t+1} k / (k-2))
    for k = n - t >= 3.  A search whose incumbent reaches the floor has
    proved its level and stops; one stopped by ``TABLE_NODE_LIMIT`` or the
    deadline enters as the larger of its open bound and the floor.
    ``deadline`` is a ``perf_counter`` value (``math.inf``, the default,
    means none).

    Every level's search reads one set of key increment rows
    (``_increment_rows``), built here once: n lists of n ints, where a
    build per level would cost n**3 on large graphs.
    """
    n, m = g.n, g.m
    table = [0] * n
    if not m:
        return table
    rows = _increment_rows(g)
    labels = greedy_label(g)[0].labels
    first_covered = [0] * n  # edges whose smaller label is t + 1
    for u, v in g.edges:
        first_covered[min(labels[u], labels[v]) - 1] += 1
    greedy = list(accumulate(reversed(first_covered)))[::-1]  # e(V - L_t) of the greedy L_t
    minus_degree = [-len(adjacency) for adjacency in g.adjacency]
    zeros = [0] * n
    table[0] = m
    for t in range(n - 2, 0, -1):
        k = n - t
        floor = -(-table[t + 1] * k // (k - 2)) if k > 2 else 0
        if 2 * t <= n:
            low = _lightest_set(rows, minus_degree, t, greedy[t] - m, floor - m, deadline)[0] + m
        else:
            low = _lightest_set(rows, zeros, k, greedy[t], floor, deadline)[0]
        table[t] = max(low, floor)
    return table


def _max_plus(a: list[int], b: list[int]) -> list[int]:
    """The max-plus convolution: entry k is the max of a[i] + b[j] over
    i + j = k, one row per entry of the shorter list.  The rows take the
    larger entry by a conditional, which is about twice as fast here as
    ``map(max)``."""
    if len(a) < len(b):
        a, b = b, a
    out = list(map(b[0].__add__, a))
    for j, y in enumerate(b[1:], 1):
        # The row's last entry is new.
        out[j:] = [x if x > z else z for x, z in zip(out[j:], map(y.__add__, a))]
        out.append(y + a[-1])
    return out


def _best(chosen: list[int], free: list[int], gain: int) -> list[int]:
    """Entry b = 0..s, for a subtree of s nodes and b of them chosen, is
    max(chosen[b - 1] + gain, free[b]) over the entries that exist."""
    return [free[0], *map(max, map(gain.__add__, chosen), free[1:]), chosen[-1] + gain]


def forest_levels(g: Graph, deadline: float = math.inf) -> list[int] | None:
    """g_t for t = 0..n, exactly, when g is a forest; None when g has a
    cycle or at ``deadline``, a ``perf_counter`` value (``math.inf``, the
    default, means none) read once before each component.

    g_t = m - (the most edges t nodes cover), and on a forest the most is a
    tree knapsack.  Each component is rooted at its lowest node and
    searched breadth first, a visited neighbour other than the parent
    being a cycle.  For the subtree of v with s nodes, ``chosen[v][k - 1]``
    is the most of its edges that k of its nodes cover with v among them
    (k = 1..s), and ``free[v][k]`` the most with v not among them (k =
    0..s-1); both start at [0] and take in v's children one at a time, in
    reverse breadth-first order.  Every edge joins a child c to its parent
    v, so it is counted exactly once, when c is taken in: it is covered
    whenever v is chosen, and otherwise exactly when c is.  So chosen_v
    becomes chosen_v (+) (1 + max(chosen_c[b - 1], free_c[b])) and free_v
    becomes free_v (+) max(chosen_c[b - 1] + 1, free_c[b]), over b =
    0..|c| and the entries that exist (``_best``), where (+) is the
    max-plus convolution.  Every subset of the subtree splits into its
    part at v and its parts in the children's subtrees, which the
    convolution ranges over, so both lists are exact.  The components are
    combined by the same convolution of their roots' best lists.  All the
    merges together take O(n**2) steps and give every t at once.

    As ``coverage_table`` says, no order leaves fewer than g_t edges
    uncovered at step t, so sum(g_t over t < n) bounds the optimum from
    below, and it is at least the table's sum, whose entries bound the g_t
    from below.
    """
    parent = [-1] * g.n
    seen = bytearray(g.n)
    covered = [0]  # the most edges t nodes of the finished components cover
    for root in range(g.n):
        if seen[root]:
            continue
        if time.perf_counter() >= deadline:
            return None
        seen[root] = 1
        order = [root]
        for v in order:  # grows while it is read
            for w, _ in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    order.append(w)
                elif w != parent[v]:
                    return None
        chosen = {v: [0] for v in order}
        free = {v: [0] for v in order}
        for c in reversed(order[1:]):
            inside, outside = chosen.pop(c), free.pop(c)
            v = parent[c]
            chosen[v] = _max_plus(chosen[v], list(map((1).__add__, _best(inside, outside, 0))))
            free[v] = _max_plus(free[v], _best(inside, outside, 1))
        covered = _max_plus(covered, _best(chosen[root], free[root], 0))
    return [g.m - c for c in covered]


@dataclass
class SearchStats:
    """Counters of one search: ``explored`` expanded nodes (each has a
    residual edge), ``dominated`` children skipped by neighbourhood
    domination before any bound, ``level_pruned`` children cut by the
    coverage-table bound and ``degree_pruned`` children cut by its
    residual-degree refinement, both before any ascent, and
    ``state_dominated`` children dropped because a node with the same
    residual and no larger base was already generated (none of the four
    is counted in ``pruned_by_bound``), ``pruned_by_bound`` popped nodes
    whose key, or whose bound after their first pop's ascent, reaches the
    incumbent, ``stale`` popped nodes skipped because their residual has
    since gained a node of smaller base (not counted in ``explored``),
    ``bound_calls`` dual-ascent runs (the root's, and one per queued node
    on its first pop), ``dives`` primal dives and ``dives_improved`` those
    that lowered the incumbent, ``max_open`` the most nodes queued at
    once, and ``open_bound`` the smallest key left open when a limit
    stopped the search."""

    explored: int = 0
    pruned_by_bound: int = 0
    dominated: int = 0
    level_pruned: int = 0
    degree_pruned: int = 0
    state_dominated: int = 0
    stale: int = 0
    bound_calls: int = 0
    dives: int = 0
    dives_improved: int = 0
    max_open: int = 0
    open_bound: int | None = None
    proven_optimal: bool = False


DIVE_EVERY = 16  # expansions 1 + DIVE_EVERY, 1 + 2 * DIVE_EVERY, ... end in a primal dive; 0: none


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


def _degree_excess(degrees: list[int], size: int, table: list[int], depth: int) -> int:
    """How far residual degrees raise the level bound of a child at
    ``depth`` with ``size`` >= 1 residual edges: the sum over s >= 1 of
    max(0, size - D_s - table[depth + s]), with D_s the sum of the s
    largest ``degrees`` (the child's residual degree of each node), which
    are sorted here in place, largest first.  The walk stops once
    D_s >= size, so it never reads past the table: the n - depth unlabeled
    nodes' degrees sum to 2 size."""
    degrees.sort(reverse=True)
    excess = 0
    for degree, level in zip(degrees, table[depth + 1:]):
        size -= degree
        if size <= 0:
            break
        if size > level:
            excess += size - level
    return excess


def _dive_order(g: Graph, incident: list[int], partial: tuple[int, ...], residual: int) -> Labeling:
    """``partial`` completed by greedy on the residual: the unlabeled node
    with the most residual edges next (the lowest index on ties), until no
    residual edge is left; the other nodes follow in index order."""
    order = list(partial)
    while residual:
        v = max(range(g.n), key=lambda v: (residual & incident[v]).bit_count())
        order.append(v)
        residual &= ~incident[v]
    return Labeling.from_order(g.n, order)


@dataclass
class BnBResult:
    lower_bound: int
    upper_bound: int
    labeling: Labeling
    stats: SearchStats


def branch_and_bound(
    g: Graph, deadline: float = math.inf, node_limit: float = math.inf
) -> BnBResult:
    """Best-first branch-and-bound (lowest key first, deeper first on
    ties, then insertion order), with lazy node evaluation: a child's dual
    ascent runs when it is first popped, not when it is generated.

    Children of a depth-k node place label k+1 on an unlabeled vertex;
    candidates are restricted to vertices with residual degree >= 1,
    since moving the next label from a residual-isolated vertex onto a
    residual-non-isolated one never increases the objective.  A child
    that leaves no residual edge is a finished labeling: it becomes the
    incumbent if it beats it and is never pushed, so every open node has
    a residual edge.  A candidate that another unlabeled vertex dominates
    (see ``_dominated``) is skipped too, before any bound is looked at;
    the rule only filters children, so the ones left keep their bounds
    and their order in the heap.  After it, each child meets the level
    bound, then (unless it is a finished labeling) the degree bound and
    state dominance, each described below; the first that cuts it ends its
    turn, and a child that passes all three is queued with no ascent.
    The search stops after ``node_limit`` expansions or at ``deadline``, a
    ``perf_counter`` value (``math.inf``, the default for both, means no
    limit); hitting a limit yields a valid bracket instead of a proof.

    A residual edge set is an int bitmask over edge indices, and
    ``incident[v]`` masks the edges at v: labeling v leaves the residual
    ``residual & ~incident[v]`` and fixes ``(residual & incident[v])
    .bit_count()`` edges at the new label.  Bounds come from
    ``dual_ascent_extended`` on g restricted to the residual bitmask,
    looked up in this module so that a wrapper installed here sees every
    call; no subgraph is built, and the bound depends on the edge set alone.

    Lazy evaluation (Morrison, Jacobson, Sauppe & Sewell 2016,
    "Branch-and-bound algorithms: a survey of recent advances in
    searching, branching, and pruning").  A queued child's key is the
    larger of its level bound, refined by residual degrees, and the key of
    the parent that was popped to expand it.  Both are lower bounds on
    every completion of the child: the first by the paragraphs below, the
    second because the parent's key bounds every completion of the parent,
    and the child's completions are among them.  So every key in the heap
    is a valid bound, and since the popped key is the least in the heap,
    no key pushed after it falls below it: the least open key never falls,
    and ``open_bound``, the least key left when a limit stops the search,
    is a lower bound on every completion still open.  On its first pop, a
    node whose key is below the incumbent and which is not stale (below)
    runs the ascent of its residual with the cutoff ``incumbent - base``,
    read at that moment, and its bound becomes the larger of its key and
    base + ascent.  If that reaches the incumbent, the node is cut
    (``pruned_by_bound``); otherwise it is pushed again, marked evaluated,
    under that bound, with a new insertion number.  Only an evaluated node
    is expanded, and only an expansion counts toward ``node_limit`` and
    the dives.  The ascent stops once its bound reaches the cutoff, where
    the node is cut whatever the uncut ascent would give.  Its bound only
    rises from step to step, and the incumbent only falls, so an ascent
    that would have cut a child when it was generated cuts it when it is
    popped too; a node that is never popped runs none.  The root is
    evaluated before the loop, with no cutoff.

    State dominance (Ibaraki 1977; A* with duplicate detection, Hart,
    Nilsson & Raphael 1968).  A node at depth d with fixed cost F and
    residual R has the base F + d|R|.  Each edge of R has both ends
    unlabeled, so it contributes d plus the smaller of its ends' labels
    counted from d + 1; the unlabeled nodes that touch no edge of R can go
    last, so the best completion is worth base + opt(R), with opt(R) the
    optimum of R's edges alone, which depends on R but not on d or on
    which nodes are labeled.  So, of the nodes with one residual, one of
    least base has the best completion.  ``least_base`` maps each residual
    to the least base of a node generated with it, one int per residual
    that passes the level and degree bounds (0.3-0.9 MB on the 40- and
    45-node graphs that take a few thousand expansions).  A child whose
    residual already has a node of base <= its own is dropped
    (``state_dominated``), and a popped node whose residual has since
    gained a node of smaller base is skipped (``stale``), before its ascent
    if that has not run, and not counted as explored.  Either way, a node
    with the same residual and no larger base was generated earlier; the
    last one generated for a residual has its least base, is never stale,
    and is expanded unless a bound cuts it, so no completion below the
    incumbent is lost.  All children of a node share one base: label d + 1 fixes
    F + (d + 1) gained and leaves |R| - gained edges, so their base is
    base + |R|.

    Primal dives (Berthold 2006, "Primal heuristics for mixed integer
    programs").  Best-first search meets leaves late, and without an early
    incumbent state dominance keeps nodes that an ascent then has to cut.
    So at expansions 1 + k ``DIVE_EVERY`` for k >= 1 (``DIVE_EVERY`` 0
    turns dives off; the root's dive would only repeat the starting
    heuristic), once its children are generated, the popped node's order
    is completed by greedy on its residual (``_dive_order``) and improved
    by ``local_search`` up to ``deadline``; a lower value becomes the
    incumbent.  ``dives`` counts the dives, ``dives_improved`` those that
    lowered the incumbent.

    The coverage table gives a second bound.  A child at depth d (its
    label) with fixed cost F and residual R has its labels <= d fixed, so
    by the identity of the module docstring each completion is worth
    F + d|R| + (the sum over t >= d of e(V - L_t)): the steps t < d count
    each fixed edge once per step before its label, F in all, and each
    residual edge d times.  The t = d term is |R| itself; g_d <= |R|, so it
    is max(|R|, g_d), and each later term is at least g_t.  So
    F + d|R| + max(|R|, g_d) + (the sum of g_t over t > d) bounds every
    completion, one lookup in the table's suffix sums.  A child it cuts is
    counted in ``level_pruned``; the others are keyed by this bound,
    refined by residual degrees as below, and their parent's key, and the
    root by the larger of its ascent and the table's sum.
    Any lower bounds on the g_t keep this valid, which lets a level whose
    search stopped early enter the table with its open bound.
    The chain inequality g_t >= ceil(g_{t+1} (n-t) / (n-t-2)) for
    n - t >= 3 gives ``coverage_table`` each level's floor from the level
    above it: an optimal set S of k = n - t nodes with g_t edges inside
    has a node of degree at least the average 2 g_t / k within S, and S
    without it has k - 1 nodes and at most g_t (k-2) / k edges inside, so
    g_{t+1} <= g_t (k-2) / k.  It holds with any lower bound in place of
    g_{t+1}.

    Residual degrees refine the level bound (the min-sum vertex cover
    reading of the module docstring).  With D_s the sum of the s largest
    residual degrees after the child, s more labels cover at most D_s
    edges of R, so the term at t = d + s is at least |R| - D_s as well as
    g_{d+s}, and every completion is worth at least
    F + d|R| + |R| + (the sum over s >= 1 of max(g_{d+s}, |R| - D_s)):
    the level bound plus ``_degree_excess``, the sum of
    max(0, |R| - D_s - g_{d+s}), whose walk stops once D_s >= |R|.  The
    child's degrees come from the parent's, computed once per expansion:
    the labeled v drops to 0 and each unlabeled neighbour of v loses one.
    A child it cuts is counted in ``degree_pruned`` and never reaches
    ``least_base``.

    The table, then the uncut root bound, precede the starting heuristic.
    The table gets at most half the time left before ``deadline``: its
    levels can take minutes on a few hundred nodes, where local search
    takes well under a second and would otherwise get no sweep.  The clock
    is read before each expansion.
    """
    if g.m == 0:
        return BnBResult(0, 0, Labeling.from_order(g.n, ()), SearchStats(proven_optimal=True))
    stats = SearchStats(max_open=1)  # the root's

    def dual_bound(residual: int, cutoff: float) -> int:
        stats.bound_calls += 1
        return dual_ascent_extended(g, residual, cutoff)[1]

    incident = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    nbr = _neighbour_masks(g)
    # suffix[t]: the sum of the table's g_u over u >= t
    now = time.perf_counter()
    table = coverage_table(g, now + (deadline - now) / 2)
    suffix = list(accumulate(reversed(table), initial=0))[::-1]
    root_residual = (1 << g.m) - 1
    # (lb, -depth, insertion counter, labeled nodes in label order, base, residual, evaluated)
    heap = [(max(suffix[0], dual_bound(root_residual, math.inf)), 0, 0, (), 0, root_residual, True)]
    least_base = {root_residual: 0}  # residual -> the least base of a node generated with it
    best_labeling, incumbent = starting_heuristic(g, deadline)
    counter = 0

    # A limit breaks out with nodes left open; otherwise the heap runs empty.
    while heap:
        if stats.explored >= node_limit or time.perf_counter() >= deadline:
            break
        lb, neg_depth, _, partial, base, residual, evaluated = heapq.heappop(heap)
        if lb >= incumbent:
            stats.pruned_by_bound += 1
            continue
        if base > least_base[residual]:
            stats.stale += 1
            continue
        if not evaluated:  # its first pop: bound it, then queue it again
            lb = max(lb, base + dual_bound(residual, incumbent - base))
            if lb >= incumbent:
                stats.pruned_by_bound += 1
                continue
            counter += 1
            heapq.heappush(heap, (lb, neg_depth, counter, partial, base, residual, True))
            continue
        stats.explored += 1

        # Labeled nodes have no residual edges, so they are never candidates;
        # an unlabeled v gains one residual edge per node of near[v].
        label = 1 - neg_depth
        edges_left = residual.bit_count()
        child_base = base + edges_left
        unlabeled = (1 << g.n) - 1
        for v in partial:
            unlabeled ^= 1 << v
        near = [mask & unlabeled for mask in nbr]
        gains = [(residual & mask).bit_count() for mask in incident]
        for v, gained in enumerate(gains):
            if not gained:
                continue
            if _dominated(v, gained, near):
                stats.dominated += 1
                continue
            child_residual = residual & ~incident[v]
            size = edges_left - gained
            child_lb = child_base + size + suffix[label + 1]
            if child_lb >= incumbent:
                stats.level_pruned += 1
                continue
            if not child_residual:  # a finished labeling worth child_base
                incumbent = child_base
                best_labeling = Labeling.from_order(g.n, partial + (v,))
                continue
            degrees = gains.copy()
            degrees[v] = 0
            rest = near[v]
            while rest:
                low = rest & -rest
                degrees[low.bit_length() - 1] -= 1
                rest ^= low
            child_lb += _degree_excess(degrees, size, table, label)
            if child_lb >= incumbent:
                stats.degree_pruned += 1
                continue
            if least_base.get(child_residual, math.inf) <= child_base:
                stats.state_dominated += 1
                continue
            least_base[child_residual] = child_base
            counter += 1  # the parent's key bounds the child too, and keys never fall
            heapq.heappush(heap, (max(child_lb, lb), neg_depth - 1, counter,
                                  partial + (v,), child_base, child_residual, False))
        stats.max_open = max(stats.max_open, len(heap))

        # The root's dive would only repeat the starting heuristic.
        if DIVE_EVERY and partial and (stats.explored - 1) % DIVE_EVERY == 0:
            stats.dives += 1
            labeling, value = local_search(g, _dive_order(g, incident, partial, residual), deadline)
            if value < incumbent:
                stats.dives_improved += 1
                best_labeling, incumbent = labeling, value

    stats.open_bound = heap[0][0] if heap else None
    lower = incumbent if stats.open_bound is None else min(incumbent, stats.open_bound)
    stats.proven_optimal = lower >= incumbent
    return BnBResult(lower, incumbent, best_labeling, stats)
