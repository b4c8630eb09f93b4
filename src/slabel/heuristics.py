"""Greedy construction and label-pair-exchange local search."""

from __future__ import annotations

import time

from .core import Graph, Labeling, sl_value


def greedy_label(g: Graph) -> tuple[Labeling, int]:
    """Label a maximum-residual-degree node with the smallest unused label,
    remove it, repeat.

    Ties go to the lowest node index.  Returns the labeling and its
    objective value.
    """
    residual_degree = [len(adj) for adj in g.adjacency]
    order = []
    for _ in range(g.n):
        best = residual_degree.index(max(residual_degree))
        order.append(best)
        residual_degree[best] = -g.n  # neighbours lower it by < n: below any unlabeled node
        for x, _ in g.adjacency[best]:
            residual_degree[x] -= 1
    phi = Labeling.from_order(g.n, order)
    return phi, sl_value(g, phi)


def local_search(g: Graph, phi: Labeling, deadline: float | None = None) -> tuple[Labeling, int]:
    """Improve a labeling by exchanging label pairs until locally optimal.

    One sweep visits labels k = 1..n; for the node i holding label k it
    tries, in ascending order, the labels kp < k up to i's largest capped
    neighbour label, and applies the first strictly improving exchange
    before it moves on to k + 1.  Sweeps repeat until one finds no
    improvement or would start after ``deadline`` (a ``perf_counter`` time).

    Giving i label kp and ip = inverse[kp] label k changes the value by
    cost - gain, with c_x = min(k, l_x) and both sums over l_x > kp:
    gain = sum over x in N(i) of (c_x - kp), and cost = sum over
    x in N(ip) - {i} of (c_x - kp).  Gain falls by `above`, the number of
    caps c_x > kp, with each step of kp, so it is walked segment by
    segment between sorted caps in O(1) per kp.  Every cost term is
    nonnegative, so the scan of N(ip) stops once it reaches gain: that kp
    cannot improve.  The walk ends at the largest cap, where gain is 0 and
    no exchange improves.  So every kp that can improve is tried in the
    same ascending order, with the same delta, as by a full scan of both
    neighbour lists, and the first improving exchange is unchanged.
    """
    value = sl_value(g, phi)
    labels = list(phi.labels)
    inverse = [0] * g.n
    for v, lab in enumerate(labels):
        inverse[lab - 1] = v
    neighbors = [tuple(x for x, _ in adj) for adj in g.adjacency]

    improved = True
    while improved and (deadline is None or time.perf_counter() < deadline):
        improved = False
        for k in range(1, g.n + 1):
            i = inverse[k - 1]
            caps = sorted([k if k < labels[x] else labels[x] for x in neighbors[i]])
            gain = sum(caps) - len(caps)  # at kp = 1
            above = len(caps)
            start = 1
            for cap in caps:
                # For kp in [start, cap), exactly `above` caps exceed kp.
                for kp in range(start, cap):
                    ip = inverse[kp - 1]
                    cost = 0
                    for x in neighbors[ip]:
                        lx = labels[x]
                        if lx > kp and x != i:
                            cost += (k if k < lx else lx) - kp
                            if cost >= gain:
                                break
                    else:
                        labels[i], labels[ip] = kp, k
                        inverse[k - 1], inverse[kp - 1] = ip, i
                        value += cost - gain
                        improved = True
                        break
                    gain -= above
                else:
                    start = cap
                    above -= 1
                    continue
                break  # an exchange was applied: go on to label k + 1
    result = Labeling(labels=tuple(labels))
    return result, value


def starting_heuristic(g: Graph, deadline: float | None = None) -> tuple[Labeling, int]:
    """Greedy construction followed by local search (up to ``deadline``)."""
    phi, _ = greedy_label(g)
    return local_search(g, phi, deadline)
