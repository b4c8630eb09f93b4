"""Lagrangian relaxation of the label-assignment formulation.

The per-(edge, label) linking constraints and the triangle inequalities
over the label prefixes 1..t (up to TRIANGLE_CAP multipliers) are moved
into the objective with nonnegative multipliers.  For fixed multipliers
the relaxation splits into a maximum assignment problem over the
node-label variables and an independent smallest-coefficient pick per
edge; a subgradient method maximizes the resulting lower bound while
every assignment is recycled into a feasible labeling for the upper
bound.

Multipliers are held in fixed point with denominator SCALE = 2**20 so
that all assignment costs stay integral and bounds stay exact; both
subproblem solvers return their values times SCALE.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from .assignment import hungarian_min
from .core import Graph, Labeling, enumerate_triangles
from .dual_ascent import DualSolution, dual_ascent_extended
from .heuristics import local_search, starting_heuristic

SCALE = 1 << 20
BETA_INIT = 2.0  # initial step factor of the Polyak rule
TAU = 7  # non-improving iterations after which beta halves
STOP_MU = 1e-5  # stop once the step size falls below this
# Triangle multipliers are dropped, with a warning, when triangles * (n - 1)
# prefix multipliers would exceed this many.
TRIANGLE_CAP = 10**6

Triangle = tuple[tuple[int, int, int], tuple[int, int, int]]


@dataclass
class Multipliers:
    """Nonnegative multipliers of the relaxed rows, as sparse dicts of
    fixed-point integers (multiples of 1/SCALE; a missing key is zero):
    ``delta[e][k]`` for the linking row of edge e and label k, and
    ``lam[ti][t]`` for prefix t of ``triangles[ti]``."""

    n: int
    delta: list[dict[int, int]]
    triangles: tuple[Triangle, ...] = ()
    lam: list[dict[int, int]] = field(default_factory=list)

    @classmethod
    def from_dual_ascent(cls, g: Graph, with_triangles: bool = False,
                         dual: DualSolution | None = None) -> "Multipliers":
        """Initialize the edge multipliers from the extended dual ascent
        (``dual`` when given) and the triangle multipliers at zero."""
        dual = dual if dual is not None else dual_ascent_extended(g)[0]
        delta = [{k: (last - k + 1) * SCALE for k in range(1, last + 1)}
                 for last in dual.edge_last_step]
        tris = tuple(enumerate_triangles(g)) if with_triangles else ()
        return cls(n=g.n, delta=delta, triangles=tris, lam=[{} for _ in tris])


def _triangle_suffixes(m: Multipliers) -> Iterator[tuple[Triangle, list[int]]]:
    """(triangle, suffix) for every triangle with a nonzero multiplier;
    suffix[k] is the sum of its multipliers over the prefixes t >= k."""
    for tri, lam in zip(m.triangles, m.lam):
        if lam:
            suffix = [0] * (m.n + 2)
            for k in range(m.n, 0, -1):
                suffix[k] = suffix[k + 1] + lam.get(k, 0)
            yield tri, suffix


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
    ``hungarian_min``."""
    costs = [[0] * g.n for _ in range(g.n)]  # negated: hungarian_min minimizes
    for e, (u, v) in enumerate(g.edges):
        for k, val in m.delta[e].items():
            costs[u][k - 1] -= val
            costs[v][k - 1] -= val
    for (nodes, _), suffix in _triangle_suffixes(m):
        for i in nodes:
            row = costs[i]
            for k in range(g.n):
                row[k] -= suffix[k + 1]
    solved = hungarian_min(costs, deadline, potentials)
    if solved is None:
        return None
    perm, total = solved
    return Labeling(labels=tuple(col + 1 for col in perm)), -total


def solve_d_subproblem(g: Graph, m: Multipliers) -> tuple[list[int], int]:
    """Per edge, the cheapest label level (smallest level on ties), and the
    total of the per-edge minima times SCALE.

    Let top be the largest prefix with a multiplier among the weighted
    triangles at an edge (0 when there are none).  Above top the edge
    costs k * SCALE at every level k with no stored multiplier, so of
    those levels only the smallest can be cheapest: every level up to top
    is evaluated, and above it only the stored levels and the smallest
    unstored one."""
    tri_at_edge: dict[int, list[list[int]]] = {}
    for (_, edges), suffix in _triangle_suffixes(m):
        for e in edges:
            tri_at_edge.setdefault(e, []).append(suffix)
    scaled = [k * SCALE for k in range(g.n + 2)]  # level k's cost before multipliers
    choices = []
    total = 0
    for e in range(g.m):
        delta_e = m.delta[e]
        suffix_list = tri_at_edge.get(e)
        best_k, best_cost, top = 1, None, 0
        if suffix_list:
            # Multipliers are nonnegative, so a suffix is zero from its
            # first zero on; searching from level 2 keeps top >= 1.
            top = max([suffix.index(0, 2) for suffix in suffix_list]) - 1
            # costs[k] for the levels k = 1..top; costs[0] is unused.
            costs = list(map(sum, zip(scaled[:top + 1], *suffix_list)))
            for k, val in delta_e.items():
                if k <= top:
                    costs[k] += val
            best_cost = min(costs[1:])
            best_k = costs.index(best_cost, 1)
        unstored = top + 1
        while unstored in delta_e:
            unstored += 1
        levels = [k for k in delta_e if k > top]
        if unstored <= g.n:
            levels.append(unstored)
        for k in sorted(levels):
            cost = scaled[k] + delta_e.get(k, 0)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_k = k
        choices.append(best_k)
        total += best_cost
    return choices, total


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
    lower_bound: int
    incumbent_value: int
    best_labeling: Labeling
    iterations: int
    trace: list[IterationRecord]
    stop_reason: str


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
    before each sweep and keeps the labeling it has reached.  Whatever the
    stop, the bound is the best of the finished iterations and the
    warm-start dual-ascent value, and the bracket is valid.
    """
    params = params or SubgradientParams()
    if g.m == 0:
        return LagrangianResult(0, 0, Labeling.from_order(g.n, ()), 0, [], "edgeless")

    dual, warm_start, _ = dual_ascent_extended(g, deadline=deadline)
    best_labeling, incumbent = starting_heuristic(g, deadline)
    if time.perf_counter() >= deadline:
        return LagrangianResult(warm_start, incumbent, best_labeling, 0, [], "time")
    mult = Multipliers.from_dual_ascent(g, with_triangles=True, dual=dual)
    if len(mult.triangles) * (g.n - 1) > TRIANGLE_CAP:
        warnings.warn(
            f"{len(mult.triangles)} triangles exceed the multiplier cap; "
            "triangle inequalities disabled",
            stacklevel=2,
        )
        mult = Multipliers(n=g.n, delta=mult.delta)

    potentials = [0] * g.n  # the x-subproblem's column potentials, carried over
    lower_bound = 0
    beta = BETA_INIT
    non_improving = 0
    trace: list[IterationRecord] = []
    stop_reason = "iterations"

    for t in range(1, params.max_iter + 1):
        x_solved = solve_x_subproblem(g, mult, deadline, potentials)
        if x_solved is None:
            stop_reason = "time"
            break
        x_lab, x_scaled = x_solved
        d_choice, d_scaled = solve_d_subproblem(g, mult)
        z_r_scaled = d_scaled - x_scaled - sum(sum(lam.values()) for lam in mult.lam)
        z_r = z_r_scaled / SCALE
        improved = False
        candidate = max(0, -(-z_r_scaled // SCALE))  # ceil(z_r), exactly
        if candidate > lower_bound:
            lower_bound = candidate
            improved = True

        ls_lab, ls_val = local_search(g, x_lab, deadline)
        if ls_val < incumbent:
            incumbent = ls_val
            best_labeling = ls_lab

        norm2, updates = _subgradient(g, mult, x_lab, d_choice)

        mu = 0.0
        stop = None
        if lower_bound >= incumbent:
            stop = "gap"
        elif norm2 == 0:
            stop = "gnorm"
        else:
            mu = beta * (incumbent - z_r) / norm2
            if mu < STOP_MU:
                stop = "mu"

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

        step_scaled = round(mu * SCALE)
        for store, key, gval in updates:
            new = max(0, store.get(key, 0) - step_scaled * gval)
            if new:
                store[key] = new
            else:
                store.pop(key, None)

        if improved:
            non_improving = 0
        else:
            non_improving += 1
            if non_improving >= TAU:
                beta /= 2.0
                non_improving = 0

    return LagrangianResult(
        lower_bound=max(lower_bound, warm_start),
        incumbent_value=incumbent,
        best_labeling=best_labeling,
        iterations=len(trace),
        trace=trace,
        stop_reason=stop_reason,
    )


def _subgradient(
    g: Graph, m: Multipliers, x_lab: Labeling, d_choice: list[int]
) -> tuple[int, list[tuple[dict[int, int], int, int]]]:
    """Full subgradient (constraint slack) of the current relaxation.

    Returns its squared norm plus the components that can actually move a
    multiplier, stored entries and zero entries pushed upward, each as
    (the multiplier's dict in ``m``, its key, the component).
    """
    labels = x_lab.labels
    norm2 = 0
    updates: list[tuple[dict[int, int], int, int]] = []
    for e, (u, v) in enumerate(g.edges):
        gvals: dict[int, int] = {}
        gvals[labels[u]] = gvals.get(labels[u], 0) + 1
        gvals[labels[v]] = gvals.get(labels[v], 0) + 1
        ke = d_choice[e]
        gvals[ke] = gvals.get(ke, 0) - 1
        stored = m.delta[e]
        for k, gval in gvals.items():
            if gval == 0:
                continue
            norm2 += gval * gval
            if gval < 0 or stored.get(k, 0) > 0:
                updates.append((stored, k, gval))

    for (nodes, edges), lam in zip(m.triangles, m.lam):
        node_labels = sorted(labels[i] for i in nodes)
        edge_levels = sorted(d_choice[e] for e in edges)
        xi = di = 0
        for t in range(1, g.n):
            while xi < 3 and node_labels[xi] <= t:
                xi += 1
            while di < 3 and edge_levels[di] <= t:
                di += 1
            gval = 1 + xi - di
            if gval == 0:
                continue
            norm2 += gval * gval
            if gval < 0 or lam.get(t, 0) > 0:
                updates.append((lam, t, gval))
    return norm2, updates
