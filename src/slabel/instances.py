"""Deterministic instance generation and instance/labeling file I/O.

``GENERATORS`` is the catalogue of generator kinds: each kind's function
and argument names, read by ``InstanceSpec.generate`` and ``slabel gen``.
All randomness flows through SplitMix64 so that a given (parameters, seed)
pair produces the same graph on every platform.  Random draws are consumed
in the documented left-to-right order of each generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .core import Graph, Labeling, build_graph

_MASK64 = (1 << 64) - 1


@dataclass
class SplitMix64:
    """SplitMix64 pseudo-random stream; a value type, never shared."""

    state: int

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in 0..n-1 (modulo reduction, documented)."""
        return self.next_u64() % n

    def unit(self) -> float:
        """Float in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def gen_path(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"path needs at least 2 nodes, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return build_graph(n, edges)


def gen_grid(rows: int, cols: int) -> Graph:
    """rows x cols grid; node (r, c) is r*cols + c, edges right then down."""
    if rows < 2 or cols < 2:
        raise ValueError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def nary_node_count(arity: int, depth: int) -> int:
    if arity == 1:
        return depth + 1
    return (arity ** (depth + 1) - 1) // (arity - 1)


def gen_perfect_nary(arity: int, depth: int) -> Graph:
    """Perfect arity-ary tree of the given depth, nodes in BFS order.

    Node 0 is the root; the children of node i are arity*i + 1 .. arity*i
    + arity, so the depth of a node is recoverable from its index.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    total = nary_node_count(arity, depth)
    internal = nary_node_count(arity, depth - 1) if depth > 0 else 0
    edges = []
    for i in range(internal):
        for j in range(arity):
            edges.append((i, arity * i + 1 + j))
    return build_graph(total, edges)


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform-ish random graph with exactly m distinct edges.

    Sampling: repeatedly draw u = next(rng) mod n and v = next(rng) mod n,
    rejecting u == v and already-present pairs, until m edges are placed.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"{m} edges requested but only {max_m} possible on {n} nodes")
    rng = SplitMix64(seed)
    chosen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        u = rng.below(n)
        v = rng.below(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in chosen:
            continue
        chosen.add((u, v))
        edges.append((u, v))
    return build_graph(n, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Random labeled tree from a uniform Pruefer sequence, decoded
    deterministically (smallest eligible leaf first)."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n == 1:
        return build_graph(1, [])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def _backbone_length(rng: SplitMix64, expected: int) -> int:
    """Geometric draw with success probability 1/(1+expected), capped at
    4*expected trials; realized length is at least 1."""
    p = 1.0 / (1.0 + expected)
    cap = max(1, 4 * expected)
    length = 1
    while length < cap and rng.unit() >= p:
        length += 1
    return length


def gen_caterpillar(expected_backbone: int, p1: float, seed: int) -> Graph:
    """Backbone path of random capped-geometric length; each backbone node
    independently gets one leaf with probability p1 (backbone order).

    This is a lobster with p2 = 0: its extra draws come after these and
    never add an edge.
    """
    # The lobster checks the backbone first, and names both probabilities.
    if expected_backbone >= 1 and not 0.0 <= p1 <= 1.0:
        raise ValueError(f"probability p1 must lie in [0, 1], got {p1}")
    return gen_lobster(expected_backbone, p1, 0.0, seed)


def gen_lobster(expected_backbone: int, p1: float, p2: float, seed: int) -> Graph:
    """Caterpillar plus, for each first-level leaf in creation order, one
    second-level leaf with probability p2."""
    if expected_backbone < 1:
        raise ValueError(f"expected backbone must be >= 1, got {expected_backbone}")
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise ValueError(f"probabilities must lie in [0, 1], got {p1}, {p2}")
    rng = SplitMix64(seed)
    length = _backbone_length(rng, expected_backbone)
    edges = [(i, i + 1) for i in range(length - 1)]
    next_node = length
    first_level = []
    for i in range(length):
        if rng.unit() < p1:
            edges.append((i, next_node))
            first_level.append(next_node)
            next_node += 1
    for leaf in first_level:
        if rng.unit() < p2:
            edges.append((leaf, next_node))
            next_node += 1
    return build_graph(next_node, edges)


def gen_bipartite(n1: int, n2: int, p: float, seed: int) -> Graph:
    """Independent cross edges with probability p between parts of size n1
    (nodes 0..n1-1) and n2 (nodes n1..n1+n2-1); isolated nodes permitted."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"part sizes must be >= 1, got {n1}, {n2}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    rng = SplitMix64(seed)
    edges = []
    for i in range(n1):
        for j in range(n2):
            if rng.unit() < p:
                edges.append((i, n1 + j))
    return build_graph(n1 + n2, edges)


# Every generator kind: its function and argument names.  "seed" is the
# InstanceSpec seed; the other names are keys of InstanceSpec.params.
GENERATORS: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "path": (gen_path, ("n",)),
    "cycle": (gen_cycle, ("n",)),
    "nary": (gen_perfect_nary, ("arity", "depth")),
    "grid": (gen_grid, ("rows", "cols")),
    "gnm": (gen_gnm, ("n", "m", "seed")),
    "tree": (gen_random_tree, ("n", "seed")),
    "caterpillar": (gen_caterpillar, ("backbone", "p1", "seed")),
    "lobster": (gen_lobster, ("backbone", "p1", "p2", "seed")),
    "bipartite": (gen_bipartite, ("n1", "n2", "p", "seed")),
}

KINDS = tuple(GENERATORS)


@dataclass(frozen=True)
class InstanceSpec:
    """A generator kind with its parameters and seed."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def generate(self) -> Graph:
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        generator, names = GENERATORS[self.kind]
        args = {**self.params, "seed": self.seed}
        return generator(*(args[name] for name in names))


class InstanceFormatError(ValueError):
    """Raised for malformed instance or labeling files."""


def _records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, fields) of each line of ``text`` that
    is neither blank nor a comment (a line starting with "c")."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line, line.split()


def write_instance(g: Graph) -> str:
    """Canonical instance text: header then one edge line per edge, 1-indexed."""
    lines = [f"p sl {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_instance(text: str) -> Graph:
    """Parse instance text (header "p sl <n> <m>", edge lines "e <u> <v>"
    with 1 <= u < v <= n, optional comment lines starting with "c")."""
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line, parts in _records(text):
        if parts[0] == "p":
            if n >= 0:
                raise InstanceFormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "sl":
                raise InstanceFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InstanceFormatError(
                    f"line {lineno}: non-integer counts in header"
                ) from None
            if n < 0 or m < 0:
                raise InstanceFormatError(f"line {lineno}: negative counts in header")
        elif parts[0] == "e":
            if n < 0:
                raise InstanceFormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InstanceFormatError(f"line {lineno}: malformed edge {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InstanceFormatError(
                    f"line {lineno}: non-integer endpoint"
                ) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(
                    f"line {lineno}: endpoint out of range in {line!r}"
                )
            if u == v:
                raise InstanceFormatError(f"line {lineno}: self-loop in {line!r}")
            if u > v:
                raise InstanceFormatError(
                    f"line {lineno}: endpoints must satisfy u < v in {line!r}"
                )
            if (u, v) in seen:
                raise InstanceFormatError(f"line {lineno}: duplicate edge in {line!r}")
            seen.add((u, v))
            edges.append((u - 1, v - 1))
        else:
            raise InstanceFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n < 0:
        raise InstanceFormatError("missing header line")
    if len(edges) != m:
        raise InstanceFormatError(f"header promises {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def write_labeling(phi: Labeling) -> str:
    """Labeling text: one "<node> <label>" line per node, both 1-indexed."""
    return "".join(
        f"{v + 1} {lab}\n" for v, lab in enumerate(phi.labels)
    )


def read_labeling(text: str, n: int) -> Labeling:
    """Parse a labeling file for an n-node graph; raises on any defect."""
    labels = [0] * n
    assigned = [False] * n
    count = 0
    for lineno, _, parts in _records(text):
        if len(parts) != 2:
            raise InstanceFormatError(f"line {lineno}: expected '<node> <label>'")
        try:
            node, lab = int(parts[0]), int(parts[1])
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: non-integer entry") from None
        if not 1 <= node <= n:
            raise InstanceFormatError(f"line {lineno}: node {node} out of range 1..{n}")
        if assigned[node - 1]:
            raise InstanceFormatError(f"line {lineno}: node {node} labeled twice")
        if not 1 <= lab <= n:
            raise InstanceFormatError(f"line {lineno}: label {lab} of node {node} outside 1..{n}")
        assigned[node - 1] = True
        labels[node - 1] = lab
        count += 1
    if count != n:
        raise InstanceFormatError(f"expected {n} labeled nodes, found {count}")
    try:
        return Labeling(labels=tuple(labels))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None

