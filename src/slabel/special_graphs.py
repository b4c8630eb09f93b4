"""Exact polynomial-time labelings for paths, cycles and perfect n-ary
trees, closed-form values, and structure detection; ``label_special``
detects the structure once and labels it."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import Graph, Labeling, sl_value
from .instances import gen_perfect_nary, nary_node_count


class StructureKind(Enum):
    PATH = "path"
    CYCLE = "cycle"
    PERFECT_NARY = "nary"
    OTHER = "other"


@dataclass(frozen=True)
class Structure:
    """A detected structure.  ``root`` anchors its labeling: the smaller
    endpoint of a path and node 0 of a cycle, where the walk starts, and
    the root of a perfect n-ary tree; None for any other graph.  Only a
    perfect n-ary tree has an ``arity`` and a ``depth``."""

    kind: StructureKind
    arity: int | None = None
    depth: int | None = None
    root: int | None = None


def _bfs_depths(g: Graph, root: int) -> list[int]:
    depth = [-1] * g.n
    depth[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for x, _ in g.adjacency[v]:
            if depth[x] < 0:
                depth[x] = depth[v] + 1
                queue.append(x)
    return depth


def _nary_structure(g: Graph, degrees: list[int]) -> Structure | None:
    """The perfect n-ary structure of a tree that is not a path, if it is
    one: its root, the node of smallest degree above 1, is the only node
    of that degree, every other inner node has one more, and every leaf
    lies at the same depth."""
    arity = min(d for d in degrees if d > 1)
    root = degrees.index(arity)
    if any(d not in (1, arity + 1) for v, d in enumerate(degrees) if v != root):
        return None
    depth_of = _bfs_depths(g, root)
    leaf_depths = {depth_of[v] for v, d in enumerate(degrees) if d == 1}
    if len(leaf_depths) != 1:
        return None
    return Structure(StructureKind.PERFECT_NARY, arity, leaf_depths.pop(), root)


def detect_structure(g: Graph) -> Structure:
    """Classify g as a path, cycle, perfect n-ary tree, or other.

    A path that is also a perfect 1-ary tree is reported as a path.
    """
    degrees = [g.degree(v) for v in range(g.n)]
    if g.n >= 2 and g.m == g.n - 1 and -1 not in _bfs_depths(g, 0):
        if max(degrees) <= 2:
            return Structure(StructureKind.PATH, root=degrees.index(1))
        return _nary_structure(g, degrees) or Structure(StructureKind.OTHER)
    if g.n >= 3 and g.m == g.n and all(d == 2 for d in degrees) and -1 not in _bfs_depths(g, 0):
        return Structure(StructureKind.CYCLE, root=0)
    return Structure(StructureKind.OTHER)


def _walk(g: Graph, start: int) -> list[int]:
    """The nodes of a path or cycle in walk order from ``start``, first
    stepping to its smaller neighbour."""
    order = [start]
    prev = -1
    current = start
    while len(order) < g.n:
        nxt = min(x for x, _ in g.adjacency[current] if x != prev)
        order.append(nxt)
        prev, current = current, nxt
    return order


def _label(g: Graph, structure: Structure) -> Labeling:
    """The optimal labeling of g, given its special structure.

    A path or cycle is walked from the root: every second node from the
    second on takes the labels 1.., then the others, each in walk order.
    In a perfect n-ary tree the nodes whose depth parity differs from the
    tree depth's cover every edge and take the smallest labels in index
    order, and the root follows them; at odd depth it is one of them, and
    goes last because it covers one edge fewer than the others.
    """
    root, depth = structure.root, structure.depth
    assert root is not None
    if structure.kind is StructureKind.PERFECT_NARY:
        assert depth is not None
        depth_of = _bfs_depths(g, root)
        order = [v for v in range(g.n) if v != root and depth_of[v] % 2 != depth % 2]
        return Labeling.from_order(g.n, order + [root])
    order = _walk(g, root)
    return Labeling.from_order(g.n, order[1::2] + order[0::2])


def solve_path(g: Graph) -> Labeling:
    """Optimal labeling of a path: walking from one endpoint, every second
    node takes the smallest unused label."""
    structure = detect_structure(g)
    if structure.kind is not StructureKind.PATH:
        raise ValueError("graph is not a path")
    return _label(g, structure)


def solve_cycle(g: Graph) -> Labeling:
    """Optimal labeling of a cycle, alternating around the cycle from node
    0; odd cycles leave one unpaired node."""
    structure = detect_structure(g)
    if structure.kind is not StructureKind.CYCLE:
        raise ValueError("graph is not a cycle")
    return _label(g, structure)


def label_perfect_nary(g: Graph, structure: Structure) -> Labeling:
    """Optimal labeling of a graph detected as a perfect n-ary tree."""
    if structure.kind is not StructureKind.PERFECT_NARY:
        raise ValueError("graph is not a perfect n-ary tree")
    return _label(g, structure)


def label_special(g: Graph) -> tuple[Structure, Labeling]:
    """The structure of g and its optimal labeling, detecting the structure
    once; ValueError if g is not a path, cycle or perfect n-ary tree."""
    structure = detect_structure(g)
    if structure.kind is StructureKind.OTHER:
        raise ValueError("graph is not a path, cycle or perfect n-ary tree")
    return structure, _label(g, structure)


def solve_perfect_nary(arity: int, depth: int) -> tuple[Labeling, int]:
    """Optimal labeling and value for the canonical perfect n-ary tree."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    g = gen_perfect_nary(arity, depth)
    phi = _label(g, Structure(StructureKind.PERFECT_NARY, arity, depth, 0))
    return phi, sl_value(g, phi)


def formula_path_cycle(kind: str, n_nodes: int) -> int:
    """Closed-form optimal value for a path or cycle on n_nodes nodes."""
    if kind == "path":
        if n_nodes < 2:
            raise ValueError(f"path formula needs n >= 2, got {n_nodes}")
        if n_nodes % 2 == 0:
            return n_nodes**2 // 4
        return (n_nodes - 1) ** 2 // 4 + (n_nodes - 1) // 2
    if kind == "cycle":
        if n_nodes < 3:
            raise ValueError(f"cycle formula needs n >= 3, got {n_nodes}")
        if n_nodes % 2 == 0:
            return n_nodes**2 // 4 + n_nodes // 2
        return (n_nodes + 1) ** 2 // 4
    raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")


def formula_nary(arity: int, depth: int) -> tuple[Fraction, bool]:
    """Closed-form optimal value of the perfect n-ary tree, evaluated
    exactly, and whether it is integral.

    With v nodes, the value is (v-1)^2 / (2(a+1)) + (v-1)/2 at even depth,
    and (v-1-a)^2 / (2(a+1)) + a(v-1-a)/(a+1) + (v-1+a)/2 at odd depth.
    It equals the value of solve_perfect_nary, so the flag is always
    true; the tests check this on the 47 trees of arity 1..6 with at most
    40,000 nodes.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    v = nary_node_count(arity, depth)
    if depth % 2 == 0:
        value = Fraction((v - 1) ** 2, 2 * (arity + 1)) + Fraction(v - 1, 2)
    else:
        value = (
            Fraction((v - 1 - arity) ** 2, 2 * (arity + 1))
            + Fraction(arity * (v - 1 - arity), arity + 1)
            + Fraction(v - 1 + arity, 2)
        )
    return value, value.denominator == 1
