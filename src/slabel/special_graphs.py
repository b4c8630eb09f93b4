"""Exact polynomial-time labelings for paths, cycles and perfect n-ary
trees, closed-form values, and structure detection; ``label_special``
detects the structure once and dispatches to its labeling."""

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


def _nary_structure(g: Graph) -> Structure | None:
    degree_count: dict[int, int] = {}
    for v in range(g.n):
        degree_count[g.degree(v)] = degree_count.get(g.degree(v), 0) + 1
    if len(degree_count) > 3:
        return None
    candidates = [v for v in range(g.n) if degree_count[g.degree(v)] == 1]
    for root in candidates:
        arity = g.degree(root)
        if arity < 1:
            continue
        depth = _bfs_depths(g, root)
        d = max(depth)
        if d < 1:
            continue
        ok = True
        for v in range(g.n):
            children = sum(1 for x, _ in g.adjacency[v] if depth[x] == depth[v] + 1)
            expected = arity if depth[v] < d else 0
            if children != expected:
                ok = False
                break
        if ok:
            return Structure(
                kind=StructureKind.PERFECT_NARY, arity=arity, depth=d, root=root
            )
    return None


def detect_structure(g: Graph) -> Structure:
    """Classify g as a path, cycle, perfect n-ary tree, or other.

    A path that is also a perfect 1-ary tree is reported as a path.
    """
    degrees = [g.degree(v) for v in range(g.n)]
    if g.n >= 2 and g.m == g.n - 1 and -1 not in _bfs_depths(g, 0):
        if max(degrees) <= 2 and degrees.count(1) == 2:
            return Structure(kind=StructureKind.PATH)
        nary = _nary_structure(g)
        if nary is not None:
            return nary
        return Structure(kind=StructureKind.OTHER)
    if g.n >= 3 and g.m == g.n and all(d == 2 for d in degrees) and -1 not in _bfs_depths(g, 0):
        return Structure(kind=StructureKind.CYCLE)
    return Structure(kind=StructureKind.OTHER)


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


def _alternating_labeling(g: Graph, order: list[int]) -> Labeling:
    """Every second node along the walk, from the second on, takes the
    labels 1.., and the others the rest, each block in walk order."""
    return Labeling.from_order(g.n, order[1::2] + order[0::2])


def _label_path(g: Graph) -> Labeling:
    start = min(v for v in range(g.n) if g.degree(v) == 1)
    return _alternating_labeling(g, _walk(g, start))


def solve_path(g: Graph) -> Labeling:
    """Optimal labeling of a path: walking from one endpoint, every second
    node takes the smallest unused label."""
    if detect_structure(g).kind is not StructureKind.PATH:
        raise ValueError("graph is not a path")
    return _label_path(g)


def solve_cycle(g: Graph) -> Labeling:
    """Optimal labeling of a cycle, alternating around the cycle from an
    arbitrary start node; odd cycles leave one unpaired node."""
    if detect_structure(g).kind is not StructureKind.CYCLE:
        raise ValueError("graph is not a cycle")
    return _alternating_labeling(g, _walk(g, 0))


def _label_by_depth(g: Graph, depth_of: list[int], root: int, d: int) -> Labeling:
    """Non-root nodes whose depth parity differs from d's take the smallest
    labels, then the root, then the other nodes, each block in index order."""
    covering = 1 - d % 2
    order = [v for v in range(g.n) if v != root and depth_of[v] % 2 == covering]
    return Labeling.from_order(g.n, order + [root])


def label_perfect_nary(g: Graph, structure: Structure) -> Labeling:
    """Optimal labeling of a graph detected as a perfect n-ary tree.

    The nodes whose depth parity differs from the tree depth's cover every
    edge and take the smallest labels; the root follows them.  At odd tree
    depth the root is itself one of them, and goes last in that block
    because it covers one edge fewer than the others.
    """
    if structure.kind is not StructureKind.PERFECT_NARY:
        raise ValueError("graph is not a perfect n-ary tree")
    assert structure.root is not None and structure.depth is not None
    depth_of = _bfs_depths(g, structure.root)
    return _label_by_depth(g, depth_of, structure.root, structure.depth)


def label_special(g: Graph) -> tuple[Structure, Labeling]:
    """The structure of g and its optimal labeling, detecting the structure
    once; ValueError if g is not a path, cycle or perfect n-ary tree."""
    structure = detect_structure(g)
    if structure.kind is StructureKind.PATH:
        return structure, _label_path(g)
    if structure.kind is StructureKind.CYCLE:
        return structure, _alternating_labeling(g, _walk(g, 0))
    if structure.kind is StructureKind.PERFECT_NARY:
        return structure, label_perfect_nary(g, structure)
    raise ValueError("graph is not a path, cycle or perfect n-ary tree")


def solve_perfect_nary(arity: int, depth: int) -> tuple[Labeling, int]:
    """Optimal labeling and value for the canonical perfect n-ary tree."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    g = gen_perfect_nary(arity, depth)
    phi = _label_by_depth(g, _bfs_depths(g, 0), 0, depth)
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
