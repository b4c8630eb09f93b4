"""Greedy construction and label-pair-exchange local search."""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left, bisect_right, insort

from .core import Graph, Labeling, sl_value


def greedy_label(g: Graph) -> tuple[Labeling, int]:
    """Label a maximum-residual-degree node with the smallest unused label,
    remove it, repeat.

    Ties go to the lowest node index.  Returns the labeling and its
    objective value.

    A min-heap of (-residual degree, node) pops the lowest-index node of
    maximum residual degree.  Removing a node pushes a fresh entry for each
    unlabeled neighbour and leaves its old one in the heap.  Degrees only
    fall, so an old entry is stale: it pops before the fresh one and is
    skipped, as is every entry of a labeled node (degree -1).
    """
    residual_degree = [len(adj) for adj in g.adjacency]
    heap = [(-d, v) for v, d in enumerate(residual_degree)]
    heapq.heapify(heap)
    order = []
    while heap:
        neg_d, v = heapq.heappop(heap)
        if -neg_d != residual_degree[v]:
            continue
        order.append(v)
        residual_degree[v] = -1
        for x, _ in g.adjacency[v]:
            if residual_degree[x] > 0:
                residual_degree[x] -= 1
                heapq.heappush(heap, (-residual_degree[x], x))
    phi = Labeling.from_order(g.n, order)
    return phi, sl_value(g, phi)


def local_search(g: Graph, phi: Labeling, deadline: float = math.inf) -> tuple[Labeling, int]:
    """Improve a labeling by exchanging label pairs until locally optimal.

    One sweep visits labels k = 1..n; for the node i holding label k it
    tries, in ascending order, the labels kp < k up to i's largest capped
    neighbour label, and applies the first strictly improving exchange
    before it moves on to k + 1.  Sweeps repeat until one finds no
    improvement or would start after ``deadline``, a ``perf_counter`` value
    (``math.inf``, the default, means no limit).

    Giving i label kp and ip = inverse[kp] label k changes the value by
    cost - gain, with c_x = min(k, l_x) and both sums over l_x > kp:
    gain = sum over x in N(i) of (c_x - kp), and cost = sum over
    x in N(ip) - {i} of (c_x - kp).  With i's caps c_x sorted, gain is
    total - kp * above, where `above` caps exceed kp and sum to `total`;
    a pointer into the caps keeps both as kp ascends, in O(1) amortized
    per kp.  Every cost term is nonnegative, so the scan of N(ip) stops
    once it reaches gain: that kp cannot improve.  The walk ends below the
    largest cap, where gain is 0 and no exchange improves.  So every kp
    that can improve is tried in the same ascending order, with the same
    delta, as by a full scan of both neighbour lists, and the first
    improving exchange is unchanged.

    ``nlab[v]`` holds the labels of v's neighbours in ascending order, so
    the scans read labels without a lookup, x = i in the cost becomes
    l_x = k, and i's caps come out sorted.  An exchange moves k to kp in
    the row of each x in N(i), then kp to k in the row of each x in N(ip),
    each by a bisect, a deletion and an insort; a common neighbour holds
    two kp between the moves and ends right.

    Most kp are rejected before the scan by a floor on the cost.  For
    the node v holding label l, ``uc[l]`` counts v's neighbours labelled
    above l and ``um[l]`` is the least of their labels (n + 1 if there is
    none); indexed by label, they reject a kp without looking up ip.  The
    cost's terms are those of ip's upper neighbours other than i, and each
    is at least min(k, um[kp]) - kp > 0, so cost is at least
    (uc[kp] - a) * (min(k, um[kp]) - kp), with a = 1 if ip is adjacent to
    i (k > kp, so i is then one of them) and 0 if not.  When that reaches
    gain, kp is rejected as the scan would reject it.  The test of
    adjacency is free: ip is in N(i) exactly when ``last``, the largest
    cap the pointer has passed, is kp, as c_x = kp < k only for l_x = kp.
    A node's summary is one bisect of its sorted row at its own label.
    After an exchange, i, ip and their neighbours re-read theirs, except a
    node labelled above k: its own label stays, and only k and kp, both
    below it, moved in its row, so its upper neighbours are unchanged.

    A walk scans only the kp whose verdict may have changed since label
    k's last walk.  ``changed`` lists, per exchange, the labels of the
    nodes it stamps (i, ip and every neighbour of either), and its length
    is the clock: ``stamp[v]`` is ``len(changed) + 1`` at the exchange
    that last changed a label in v's closed neighbourhood, and ``since``
    is ``len(changed)`` when k's last walk started.  An exchange lists at
    least i and ip, so its stamp is above the ``since`` of every walk
    started before it and at most that of every walk started after.  If
    ``stamp[i] > since`` (k moved, or a label in N(i) changed), every kp
    below the largest cap is scanned.  Otherwise i has held k since, its
    caps and gains are unchanged, and that walk applied no exchange (one
    would have stamped i), so it rejected every kp.  A kp whose holder ip
    has ``stamp[ip] <= since`` has the same holder and N(ip) labels, so
    the same cost, and is rejected again without a scan.  The other kp are
    the labels in ``changed[since:]``: a label that moved on was moved by
    a later exchange, which listed it with its new holder.  So every
    skipped kp is one the full walk would reject, and labelings, values
    and sweep counts are those of the full walk.
    """
    value = sl_value(g, phi)
    labels = list(phi.labels)
    inverse = [0] * g.n
    for v, lab in enumerate(labels):
        inverse[lab - 1] = v
    neighbors = [tuple(x for x, _ in adj) for adj in g.adjacency]
    nlab = [sorted([labels[x] for x in nb]) for nb in neighbors]
    none_above = g.n + 1

    def upper(v):  # uc and um of v's label, from v's row
        row = nlab[v]
        p = bisect_right(row, labels[v])
        return len(row) - p, row[p] if p < len(row) else none_above

    uc = [0] * (g.n + 1)
    um = [none_above] * (g.n + 1)
    for v in range(g.n):
        uc[labels[v]], um[labels[v]] = upper(v)
    stamp = [0] * g.n
    scanned = [-1] * g.n  # below every stamp: the first walk scans all
    changed: list[int] = []  # per exchange, the labels of the nodes it stamps

    improved = True
    while improved and time.perf_counter() < deadline:
        improved = False
        for k in range(1, g.n + 1):
            i = inverse[k - 1]
            since = scanned[k - 1]
            scanned[k - 1] = len(changed)
            caps = [k if k < lx else lx for lx in nlab[i]]
            if not caps:
                continue
            top = caps[-1]
            if stamp[i] > since:
                kps = range(1, top)  # k moved or N(i) changed: scan every kp
            else:
                kps = sorted({kp for kp in changed[since:] if kp < top})
            total, above, j = sum(caps), len(caps), 0
            nxt, last = caps[0], 0
            for kp in kps:
                if kp >= nxt:
                    while caps[j] <= kp:
                        total -= caps[j]
                        above -= 1
                        j += 1
                    nxt, last = caps[j], caps[j - 1]
                gain = total - kp * above
                m = um[kp]
                if (uc[kp] - (kp == last)) * ((k if k < m else m) - kp) >= gain:
                    continue
                ip = inverse[kp - 1]
                cost = 0
                for lx in nlab[ip]:
                    if lx > kp and lx != k:
                        cost += (k if k < lx else lx) - kp
                        if cost >= gain:
                            break
                else:
                    for x in neighbors[i]:
                        row = nlab[x]
                        del row[bisect_left(row, k)]
                        insort(row, kp)
                    for x in neighbors[ip]:
                        row = nlab[x]
                        del row[bisect_left(row, kp)]
                        insort(row, k)
                    labels[i], labels[ip] = kp, k
                    inverse[k - 1], inverse[kp - 1] = ip, i
                    now = len(changed) + 1
                    for x in (i, ip, *neighbors[i], *neighbors[ip]):
                        lx = labels[x]
                        stamp[x] = now
                        changed.append(lx)
                        if lx <= k:  # above k: its upper neighbours are unchanged
                            uc[lx], um[lx] = upper(x)
                    value += cost - gain
                    improved = True
                    break
    result = Labeling(labels=tuple(labels))
    return result, value


def starting_heuristic(g: Graph, deadline: float = math.inf) -> tuple[Labeling, int]:
    """Greedy construction followed by local search (up to ``deadline``)."""
    phi, _ = greedy_label(g)
    return local_search(g, phi, deadline)
