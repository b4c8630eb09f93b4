"""Lagrangian relaxation of the label-assignment formulation.

The per-(edge, label) linking constraints and the triangle inequalities
over the label prefixes 1..t are moved into the objective with
nonnegative multipliers (the triangles only while their multipliers stay
within TRIANGLE_CAP).  For fixed multipliers the relaxation splits into
a maximum assignment problem over the node-label variables and an
independent smallest-coefficient pick per edge; a subgradient method
maximizes the resulting lower bound while every assignment is recycled
into a feasible labeling for the upper bound.

Multipliers are held in fixed point with denominator SCALE = 2**20 so
that all assignment costs stay integral and bounds stay exact; both
subproblem solvers return their values times SCALE.

``solve_x_subproblem`` and ``solve_d_subproblem`` build their costs from
the multipliers.  ``run_subgradient`` builds them once and keeps them in a
``Subproblems``: a step moves only some of the multipliers, and moves the
cost entries those reach with them.

On a forest ``run_subgradient`` also has an exact bound that needs no
multipliers: sum(g_t) from the tree-knapsack DP ``exact.forest_levels``.
It closes the gap once the incumbent comes down to it and joins the
returned bound; the iterations themselves never read it.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, mul, sub
from typing import Iterator

from .assignment import hungarian_min
from .core import Graph, Labeling, count_triangles, enumerate_triangles
from .dual_ascent import DualSolution, dual_ascent_extended
from .exact import forest_levels
from .heuristics import local_search, starting_heuristic

SCALE = 1 << 20
BETA_INIT = 2.0  # initial step factor of the Polyak rule
TAU = 7  # non-improving iterations after which beta halves
STOP_MU = 1e-5  # stop once the step size falls below this
# Triangle multipliers are dropped, with a warning, when triangles * (n - 1)
# prefix multipliers would exceed this many.
TRIANGLE_CAP = 10**6

Triangle = tuple[tuple[int, int, int], tuple[int, int, int]]

# The timed phases of a subgradient iteration; see LagrangianResult.phase_s.
PHASES = ("x_subproblem", "d_subproblem", "local_search", "step")


@dataclass
class Multipliers:
    """Nonnegative multipliers of the relaxed rows, as dense rows of n
    fixed-point integers (multiples of 1/SCALE): ``delta[e][k - 1]`` for
    the linking row of edge e and label k, and ``lam[ti][t - 1]`` for
    prefix t of ``triangles[ti]``.  Prefix n is never relaxed, so
    ``lam[ti][n - 1]`` stays 0."""

    delta: list[list[int]]
    triangles: tuple[Triangle, ...]
    lam: list[list[int]]

    @classmethod
    def from_dual_ascent(cls, g: Graph, with_triangles: bool = False,
                         dual: DualSolution | None = None) -> "Multipliers":
        """Edge multipliers from the extended dual ascent (``dual`` when
        given), max(0, last - k + 1) at label k for an edge last active in
        step ``last``; triangle multipliers at zero.  When triangles * (n - 1)
        prefix multipliers would exceed TRIANGLE_CAP, warns and neither
        lists the triangles nor builds a triangle row."""
        dual = dual if dual is not None else dual_ascent_extended(g)[0]
        scaled = [k * SCALE for k in range(g.n + 1)]  # ints shared by the rows
        delta = [[scaled[max(0, last - j)] for j in range(g.n)]
                 for last in dual.edge_last_step]
        tris: tuple[Triangle, ...] = ()
        if with_triangles:
            count = count_triangles(g)  # the cap is tested before any triangle is listed
            if count * (g.n - 1) > TRIANGLE_CAP:
                warnings.warn(f"{count} triangles exceed the multiplier cap; "
                              "triangle inequalities disabled", stacklevel=2)
            else:
                tris = tuple(enumerate_triangles(g))
        return cls(delta, tris, [[0] * g.n for _ in tris])


def _triangle_suffixes(m: Multipliers) -> Iterator[tuple[Triangle, list[int]]]:
    """(triangle, suffix) for every triangle with a nonzero multiplier;
    suffix[k - 1] is the sum of its multipliers over the prefixes t >= k."""
    for tri, lam in zip(m.triangles, m.lam):
        if any(lam):
            yield tri, list(accumulate(reversed(lam)))[::-1]


def _x_costs(g: Graph, m: Multipliers) -> list[list[int]]:
    """The x-subproblem's cost matrix built from scratch: row i, label k
    holds minus the sum over node i's edges of their linking multipliers
    for label k and over its triangles of their suffix sums at k (the
    assignment solver minimizes)."""
    terms: list[list[list[int]]] = [[] for _ in range(g.n)]  # rows per node
    for (u, v), row in zip(g.edges, m.delta):
        terms[u].append(row)
        terms[v].append(row)
    for (nodes, _), suffix in _triangle_suffixes(m):
        for i in nodes:
            terms[i].append(suffix)
    return [[-c for c in map(sum, zip(*t))] if t else [0] * g.n for t in terms]


def _level_rows(g: Graph, m: Multipliers) -> list[list[int]]:
    """The d-subproblem's level costs built from scratch, one row per edge:
    level k costs k * SCALE plus the edge's linking multiplier for label k
    and, for every triangle at the edge, its suffix sum at k."""
    scaled = [k * SCALE for k in range(1, g.n + 1)]
    # Level costs before delta, per edge of a triangle with multipliers.
    base: dict[int, list[int]] = {}
    for (_, edges), suffix in _triangle_suffixes(m):
        for e in edges:
            base[e] = list(map(add, base.get(e, scaled), suffix))
    return [list(map(add, base.get(e, scaled), row)) for e, row in enumerate(m.delta)]


def _assign(
    costs: list[list[int]], deadline: float, potentials: list[int] | None,
) -> tuple[Labeling, int] | None:
    solved = hungarian_min(costs, deadline, potentials)
    if solved is None:
        return None
    perm, total = solved
    return Labeling(labels=tuple(col + 1 for col in perm)), -total


def _cheapest(levels: list[list[int]]) -> tuple[list[int], int]:
    """Per row, its first level at the row's minimum; and the sum of the
    minima."""
    best = list(map(min, levels))
    return [row.index(b) + 1 for row, b in zip(levels, best)], sum(best)


def solve_x_subproblem(
    g: Graph, m: Multipliers, deadline: float = math.inf,
    potentials: list[int] | None = None,
) -> tuple[Labeling, int] | None:
    """Maximum-value assignment of labels to nodes under the multiplier
    coefficients: the assignment as a Labeling and its value times SCALE.
    Stops at ``deadline``, a ``time.perf_counter()`` value (``math.inf``,
    the default, means no limit), and then returns None.  ``potentials``
    (one per label) warm-starts the assignment solver and receives its
    final column potentials; None starts it from zeros.  See
    ``hungarian_min``.  Builds its costs from scratch; ``run_subgradient``
    solves the costs a ``Subproblems`` keeps across its steps."""
    return _assign(_x_costs(g, m), deadline, potentials)


def solve_d_subproblem(g: Graph, m: Multipliers) -> tuple[list[int], int]:
    """Per edge, the cheapest label level (smallest level on ties), and the
    total of the per-edge minima times SCALE.  Level k costs k * SCALE
    plus the edge's linking multiplier for label k and, for every triangle
    at the edge, its multipliers over the prefixes t >= k.  Builds the
    level rows from scratch; ``run_subgradient`` solves the rows a
    ``Subproblems`` keeps across its steps."""
    return _cheapest(_level_rows(g, m))


class Subproblems:
    """The costs of both subproblems at the multipliers ``m``, kept across
    subgradient steps instead of rebuilt: the x-subproblem's cost matrix
    ``costs``, each edge's level-cost row in ``levels``, and ``lam_total``,
    the sum of every triangle multiplier.  ``__init__`` builds them as
    ``solve_x_subproblem`` and ``solve_d_subproblem`` do, and ``step``
    moves the multipliers and the cost entries they reach at once.
    Everything is an integer, so the kept costs equal a fresh build
    exactly."""

    def __init__(self, g: Graph, m: Multipliers) -> None:
        self.g = g
        self.m = m
        self.costs = _x_costs(g, m)
        self.levels = _level_rows(g, m)
        self.lam_total = sum(map(sum, m.lam))

    def step(self, step_scaled: int, x_lab: Labeling, d_choice: list[int],
             tri_rows: list[list[int]]) -> None:
        """Moves every multiplier to max(0, value - step_scaled * its
        subgradient component), with the components of ``_subgradient``,
        and the costs with it.  A linking multiplier delta_e^k that moves
        by D moves ``costs[u][k - 1]`` and ``costs[v][k - 1]`` by -D and
        ``levels[e][k - 1]`` by +D.  A triangle's multipliers fall by a
        whole row, its drop; the suffix sums of the drop are added to its
        three nodes' cost rows and subtracted from its three edges' level
        rows, each row rebuilt once with the suffixes of all its
        triangles."""
        labels = x_lab.labels
        costs, levels = self.costs, self.levels
        for (u, v), row, level, ke in zip(self.g.edges, self.m.delta, levels, d_choice):
            lu, lv = labels[u], labels[v]
            for k0 in (lu - 1, lv - 1):  # component +1, unless ke cancels it
                if k0 != ke - 1 and row[k0]:
                    drop = min(row[k0], step_scaled)
                    row[k0] -= drop
                    costs[u][k0] += drop
                    costs[v][k0] += drop
                    level[k0] -= drop
            if ke != lu and ke != lv:  # component -1
                k0 = ke - 1
                row[k0] += step_scaled
                costs[u][k0] -= step_scaled
                costs[v][k0] -= step_scaled
                level[k0] += step_scaled
        node_suffixes: dict[int, list[list[int]]] = {}
        edge_suffixes: dict[int, list[list[int]]] = {}
        for (nodes, edges), lam, gvals in zip(self.m.triangles, self.m.lam, tri_rows):
            # lam - min(lam, step * g) is max(0, lam - step * g).
            drop = [x if x < y else y for x, y in zip(lam, map(step_scaled.__mul__, gvals))]
            if any(drop):
                lam[:] = map(sub, lam, drop)
                suffix = list(accumulate(reversed(drop)))[::-1]
                self.lam_total -= suffix[0]
                for i in nodes:
                    node_suffixes.setdefault(i, []).append(suffix)
                for e in edges:
                    edge_suffixes.setdefault(e, []).append(suffix)
        for i, suffixes in node_suffixes.items():
            costs[i] = list(map(sum, zip(costs[i], *suffixes)))
        for e, suffixes in edge_suffixes.items():
            level = iter(levels[e])
            for suffix in suffixes:
                level = map(sub, level, suffix)
            levels[e] = list(level)


@dataclass(frozen=True)
class SubgradientParams:
    max_iter: int = 500


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    relaxation_value: float
    lower_bound: int
    incumbent: int
    beta: float
    step_size: float


@dataclass
class LagrangianResult:
    """``phase_s`` holds the seconds spent in each of PHASES, summed over
    the iterations (a call the deadline stopped included).  ``level_floor``
    is the exact level bound of a forest, sum(g_t) from
    ``exact.forest_levels``: None when g has a cycle or the deadline
    passed before the bound was done."""

    lower_bound: int
    incumbent_value: int
    best_labeling: Labeling
    iterations: int
    trace: list[IterationRecord]
    stop_reason: str
    phase_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    level_floor: int | None = None


def run_subgradient(
    g: Graph,
    params: SubgradientParams | None = None,
    deadline: float = math.inf,
) -> LagrangianResult:
    """Subgradient optimization of the relaxation.

    Edge multipliers start from the extended dual ascent, triangle
    multipliers from zero; the incumbent starts from the greedy-plus-local-
    search heuristic and every assignment solution is improved by local
    search.  The step is the Polyak rule beta * (incumbent - z) / ||g||^2.
    Each x-subproblem starts from the column potentials the previous one
    ended with (zeros at the first), so after a small step the assignment
    solver re-augments only the rows whose tight labels moved; which of
    several optimal assignments comes back depends on them.

    The subproblems' costs live in one ``Subproblems`` for the whole run:
    the x-subproblem's cost matrix and each edge's level-cost row are built
    before the first iteration, and each step updates them with the
    multipliers it moves; the sum of the triangle multipliers is a running
    total.  The ``x_subproblem`` and ``d_subproblem`` phases time the
    solves alone, and the ``step`` phase times the subgradient and the
    step with that upkeep.  The last iteration, whatever ends the run,
    records its step size but makes no step, since no solve would read
    its moves.

    On a forest, once the warm start and the starting heuristic are done
    and the deadline has not passed, ``exact.forest_levels`` gives the
    exact level bound sum(g_t), the ``level_floor`` of the result (None on
    a graph with a cycle, where the run is the same as without it).  Only
    the gap test, max(subgradient bound, floor) >= incumbent, and the
    returned bound read the floor; the records, the count of non-improving
    iterations and beta read the subgradient's own bound, so the
    multipliers move as they would without it until the run stops.  A
    floor that already meets the starting heuristic stops the run with
    ``gap`` before any iteration, and otherwise ``gap`` fires at the first
    iteration whose local search brings the incumbent down to it.

    Stops on the iteration limit, a closed gap, a zero subgradient, a step
    size below STOP_MU, or at ``deadline``, a ``perf_counter`` value
    (``math.inf``, the default, means no limit).  The warm-start ascent
    reads the clock before each step and keeps the steps committed by
    then.  A deadline passed once the warm start and the starting
    heuristic are done returns their bracket with no iteration, so an
    ascent the deadline cut short never seeds the multipliers.  The
    assignment solver reads the clock before each of its rows, so a
    passed deadline stops the run inside an iteration, and that
    iteration is dropped.  Local search reads it
    before each sweep and keeps the labeling it has reached, and the forest
    DP before each component, giving no floor once it has passed.
    Whatever the stop, the bound is the best of the finished iterations,
    the warm-start dual-ascent value and the floor, and the bracket is
    valid.
    """
    params = params or SubgradientParams()
    if g.m == 0:
        return LagrangianResult(0, 0, Labeling.from_order(g.n, ()), 0, [], "edgeless",
                                level_floor=0)

    dual, warm_start, _ = dual_ascent_extended(g, deadline=deadline)
    best_labeling, incumbent = starting_heuristic(g, deadline)
    if time.perf_counter() >= deadline:
        return LagrangianResult(warm_start, incumbent, best_labeling, 0, [], "time")
    levels = forest_levels(g, deadline)
    level_floor = None if levels is None else sum(levels)
    floor = level_floor or 0
    if floor >= incumbent:
        return LagrangianResult(max(warm_start, floor), incumbent, best_labeling, 0, [], "gap",
                                level_floor=level_floor)
    mult = Multipliers.from_dual_ascent(g, with_triangles=True, dual=dual)
    subproblems = Subproblems(g, mult)

    potentials = [0] * g.n  # the x-subproblem's column potentials, carried over
    lower_bound = 0
    beta = BETA_INIT
    non_improving = 0
    trace: list[IterationRecord] = []
    stop_reason = "iterations"
    phase_s = dict.fromkeys(PHASES, 0.0)

    for t in range(1, params.max_iter + 1):
        started = time.perf_counter()
        x_solved = _assign(subproblems.costs, deadline, potentials)
        x_done = time.perf_counter()
        phase_s["x_subproblem"] += x_done - started
        if x_solved is None:
            stop_reason = "time"
            break
        x_lab, x_scaled = x_solved
        d_choice, d_scaled = _cheapest(subproblems.levels)
        phase_s["d_subproblem"] += time.perf_counter() - x_done
        z_r_scaled = d_scaled - x_scaled - subproblems.lam_total
        z_r = z_r_scaled / SCALE
        candidate = max(0, -(-z_r_scaled // SCALE))  # ceil(z_r), exactly
        if candidate > lower_bound:
            lower_bound = candidate
            non_improving = 0
        else:
            non_improving += 1

        started = time.perf_counter()
        ls_lab, ls_val = local_search(g, x_lab, deadline)
        phase_s["local_search"] += time.perf_counter() - started
        if ls_val < incumbent:
            incumbent = ls_val
            best_labeling = ls_lab

        started = time.perf_counter()
        norm2, tri_rows = _subgradient(g, mult, x_lab, d_choice)
        mu = 0.0
        stop = None
        if max(lower_bound, floor) >= incumbent:
            stop = "gap"
        elif norm2 == 0:
            stop = "gnorm"
        else:
            mu = beta * (incumbent - z_r) / norm2
            if mu < STOP_MU:
                stop = "mu"
        if stop is None and t < params.max_iter:  # else no solve would read the moves
            subproblems.step(round(mu * SCALE), x_lab, d_choice, tri_rows)
        phase_s["step"] += time.perf_counter() - started

        trace.append(
            IterationRecord(
                iteration=t,
                relaxation_value=z_r,
                lower_bound=lower_bound,
                incumbent=incumbent,
                beta=beta,
                step_size=mu,
            )
        )
        if stop is not None:
            stop_reason = stop
            break

        if non_improving >= TAU:
            beta /= 2.0
            non_improving = 0

    return LagrangianResult(
        lower_bound=max(lower_bound, warm_start, floor),
        incumbent_value=incumbent,
        best_labeling=best_labeling,
        iterations=len(trace),
        trace=trace,
        stop_reason=stop_reason,
        phase_s=phase_s,
        level_floor=level_floor,
    )


def _subgradient(
    g: Graph, m: Multipliers, x_lab: Labeling, d_choice: list[int]
) -> tuple[int, list[list[int]]]:
    """Full subgradient (constraint slack) of the current relaxation.

    Returns its squared norm and the triangle components, one row per
    triangle whose entry t - 1 is the component of prefix t (entry n - 1,
    for the prefix that is never relaxed, is 0).  Edge e = (u, v) at level
    k_e has components +1 at the labels of u and of v and -1 at k_e; the
    labels differ, so k_e cancels at most one of them, and the edge adds
    1 or 3 to the norm.
    """
    labels = x_lab.labels
    cancelled = sum(ke == labels[u] or ke == labels[v]
                    for (u, v), ke in zip(g.edges, d_choice))
    norm2 = 3 * g.m - 2 * cancelled
    rows = []
    for nodes, edges in m.triangles:
        # Component t is 1 + (nodes labeled <= t) - (edges at levels <= t):
        # 1 plus a running sum of +1 per node label and -1 per edge level.
        counts = [1] + [0] * (g.n - 1)
        for i in nodes:
            counts[labels[i] - 1] += 1
        for e in edges:
            counts[d_choice[e] - 1] -= 1
        row = list(accumulate(counts))
        row[-1] = 0
        norm2 += sum(map(mul, row, row))
        rows.append(row)
    return norm2, rows
