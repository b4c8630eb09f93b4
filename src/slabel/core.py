"""Graph and labeling data model, objective evaluation, and swap deltas.

The S-labeling problem: given a simple undirected graph, find a bijective
node labeling 1..n minimizing the sum over edges of the smaller endpoint
label.  Nodes are 0-indexed internally; labels run from 1 to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    edges holds canonical pairs (u, v) with u < v; adjacency[v] lists
    (neighbor, edge_index) pairs in edge-insertion order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from a node count and a sequence of endpoint pairs.

    Pairs are canonicalized to u < v.  Self-loops and duplicate edges are
    rejected with a ValueError naming the offending pair.
    """
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        idx = len(edges)
        edges.append((u, v))
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    return Graph(n=n, edges=tuple(edges), adjacency=tuple(tuple(a) for a in adjacency))


@dataclass(frozen=True)
class Labeling:
    """Bijection node -> label, with labels[v] in 1..n."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        seen = [False] * (n + 1)
        for v, lab in enumerate(self.labels):
            if not 1 <= lab <= n:
                raise ValueError(f"label {lab} of node {v} outside 1..{n}")
            if seen[lab]:
                raise ValueError(f"label {lab} used more than once")
            seen[lab] = True

    @classmethod
    def from_order(cls, n: int, order: Iterable[int]) -> Labeling:
        """The nodes of ``order`` take labels 1, 2, ... in turn, and every
        other node of 0..n-1 takes the next label in index order.  A node
        repeated in ``order`` makes the labels invalid (ValueError)."""
        labels = [0] * n
        next_label = 1
        for v in order:
            labels[v] = next_label
            next_label += 1
        for v in range(n):
            if not labels[v]:
                labels[v] = next_label
                next_label += 1
        return cls(labels=tuple(labels))


def sl_value(g: Graph, phi: Labeling) -> int:
    """Sum over edges of the smaller endpoint label under phi."""
    if len(phi.labels) != g.n:
        raise ValueError(f"labeling has {len(phi.labels)} entries for {g.n} nodes")
    labels = phi.labels
    return sum(min(labels[u], labels[v]) for u, v in g.edges)


def exchange_delta(g: Graph, phi: Labeling, i: int, j: int) -> int:
    """Objective change from swapping the labels of nodes i and j.

    Touches only edges incident to i or j; the edge (i, j), if present,
    is counted once (its contribution never changes under the swap).
    """
    if i == j:
        raise ValueError("exchange_delta requires two distinct nodes")
    if len(phi.labels) != g.n:
        raise ValueError(f"labeling has {len(phi.labels)} entries for {g.n} nodes")
    adjacency, labels = g.adjacency, phi.labels
    a = labels[i]
    b = labels[j]
    delta = 0
    for x, _ in adjacency[i]:
        if x == j:
            continue
        lx = labels[x]
        delta += min(b, lx) - min(a, lx)
    for x, _ in adjacency[j]:
        if x == i:
            continue
        lx = labels[x]
        delta += min(a, lx) - min(b, lx)
    return delta


def max_degree(g: Graph) -> int:
    """Maximum node degree; 0 for edgeless graphs."""
    return max((len(a) for a in g.adjacency), default=0)


def enumerate_triangles(
    g: Graph,
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """All triangles, each once, as ((i, j, k), (e_ij, e_ik, e_jk)).

    Triples satisfy i < j < k and the list is sorted lexicographically.
    """
    edge_at = [dict(adj) for adj in g.adjacency]  # edge_at[u][v]: the id of edge (u, v)
    triangles = []
    for u, v in g.edges:
        for w in edge_at[u].keys() & edge_at[v].keys():
            if w > v:
                triangles.append(((u, v, w), (edge_at[u][v], edge_at[u][w], edge_at[v][w])))
    triangles.sort()
    return triangles
