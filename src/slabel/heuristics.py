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

    One sweep visits labels k = 1..n; for the node i holding label k only
    exchanges with nodes labeled k' <= min(k, maxContribLabel) are tried,
    where maxContribLabel is the largest contribution among i's incident
    edges.  The first strictly improving exchange (exact swap delta) is
    applied and the sweep moves on; sweeps repeat until one finds no
    improvement or would start after ``deadline`` (a ``perf_counter`` time).
    """
    labels = list(phi.labels)
    inverse = [0] * g.n
    for v, lab in enumerate(labels):
        inverse[lab - 1] = v
    neighbors = [tuple(x for x, _ in adj) for adj in g.adjacency]
    value = sl_value(g, phi)

    improved = True
    while improved and (deadline is None or time.perf_counter() < deadline):
        improved = False
        for k in range(1, g.n + 1):
            i = inverse[k - 1]
            adj_i = neighbors[i]
            max_neighbor = 0
            for x in adj_i:
                lx = labels[x]
                if lx > max_neighbor:
                    max_neighbor = lx
            limit = k if k < max_neighbor else max_neighbor
            for kp in range(1, limit + 1):
                if kp == k:
                    continue
                ip = inverse[kp - 1]
                delta = 0
                for x in adj_i:
                    if x == ip:
                        continue
                    lx = labels[x]
                    delta += (kp if kp < lx else lx) - (k if k < lx else lx)
                for x in neighbors[ip]:
                    if x == i:
                        continue
                    lx = labels[x]
                    delta += (k if k < lx else lx) - (kp if kp < lx else lx)
                if delta < 0:
                    labels[i], labels[ip] = kp, k
                    inverse[k - 1], inverse[kp - 1] = ip, i
                    value += delta
                    improved = True
                    break
    result = Labeling(labels=tuple(labels))
    return result, value


def starting_heuristic(g: Graph, deadline: float | None = None) -> tuple[Labeling, int]:
    """Greedy construction followed by local search (up to ``deadline``)."""
    phi, _ = greedy_label(g)
    return local_search(g, phi, deadline)
