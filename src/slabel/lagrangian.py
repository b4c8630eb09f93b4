"""Lagrangian relaxation of the label-assignment formulation.

The per-(edge, label) linking constraints and the triangle inequalities
over the label prefixes 1..t (up to TRIANGLE_CAP multipliers) are moved
into the objective with nonnegative multipliers.  For fixed multipliers
the relaxation splits into a maximum assignment problem over the
node-label variables and an independent smallest-coefficient pick per
edge; a subgradient method maximizes the resulting lower bound while
every assignment is recycled into a feasible labeling for the upper
bound.

Multipliers are held in fixed point with denominator 2**20 so that all
assignment costs stay integral and bounds stay exact.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .assignment import hungarian_min
from .core import Graph, Labeling, enumerate_triangles, sl_value
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
    """Nonnegative multipliers: per-(edge, label) and per-(triangle, prefix).

    Stored sparsely as fixed-point integers (multiples of 1/2**20).
    """

    n: int
    delta: list[dict[int, int]]
    triangles: tuple[Triangle, ...] = ()
    lam: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def zeros(cls, g: Graph, with_triangles: bool = False) -> "Multipliers":
        tris = tuple(enumerate_triangles(g)) if with_triangles else ()
        return cls(n=g.n, delta=[{} for _ in range(g.m)], triangles=tris)

    @classmethod
    def from_dual_ascent(cls, g: Graph, with_triangles: bool = False,
                         dual: DualSolution | None = None) -> "Multipliers":
        """Initialize the edge multipliers from the extended dual ascent
        (``dual`` when given)."""
        dual = dual if dual is not None else dual_ascent_extended(g)[0]
        mult = cls.zeros(g, with_triangles)
        for e in range(g.m):
            last = dual.edge_last_step[e]
            for k in range(1, last + 1):
                mult.delta[e][k] = (last - k + 1) * SCALE
        return mult

    def lambda_sum_scaled(self) -> int:
        return sum(self.lam.values())


def _triangle_suffixes(m: Multipliers) -> dict[int, list[int]]:
    """suffix[ti][k] = sum of lam over prefixes t >= k, for triangles with
    any nonzero multiplier."""
    per_triangle: dict[int, dict[int, int]] = {}
    for (ti, t), val in m.lam.items():
        per_triangle.setdefault(ti, {})[t] = val
    suffixes: dict[int, list[int]] = {}
    for ti, vals in per_triangle.items():
        suffix = [0] * (m.n + 2)
        for k in range(m.n, 0, -1):
            suffix[k] = suffix[k + 1] + vals.get(k, 0)
        suffixes[ti] = suffix
    return suffixes


def _x_coefficients_scaled(g: Graph, m: Multipliers) -> list[list[int]]:
    coeff = [[0] * g.n for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        for k, val in m.delta[e].items():
            coeff[u][k - 1] += val
            coeff[v][k - 1] += val
    if m.lam:
        suffixes = _triangle_suffixes(m)
        for ti, suffix in suffixes.items():
            nodes, _ = m.triangles[ti]
            for i in nodes:
                row = coeff[i]
                for k in range(1, g.n + 1):
                    row[k - 1] += suffix[k]
    return coeff


def _solve_x_scaled(
    g: Graph, m: Multipliers, deadline: float | None = None
) -> tuple[Labeling, int] | None:
    coeff = _x_coefficients_scaled(g, m)
    costs = [[-c for c in row] for row in coeff]
    solved = hungarian_min(costs, deadline)
    if solved is None:
        return None
    perm, total = solved
    labels = tuple(perm[i] + 1 for i in range(g.n))
    return Labeling(labels=labels), -total


def _solve_d_scaled(g: Graph, m: Multipliers) -> tuple[list[int], int]:
    tri_at_edge: dict[int, list[list[int]]] = {}
    if m.lam:
        suffixes = _triangle_suffixes(m)
        for ti, suffix in suffixes.items():
            _, edges = m.triangles[ti]
            for e in edges:
                tri_at_edge.setdefault(e, []).append(suffix)
    choices = []
    total = 0
    for e in range(g.m):
        delta_e = m.delta[e]
        suffix_list = tri_at_edge.get(e, ())
        best_k = 1
        best_cost = None
        for k in range(1, g.n + 1):
            cost = k * SCALE + delta_e.get(k, 0)
            for suffix in suffix_list:
                cost += suffix[k]
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_k = k
        choices.append(best_k)
        total += best_cost
    return choices, total


def solve_x_subproblem(g: Graph, m: Multipliers) -> tuple[Labeling, Fraction]:
    """Maximum-value assignment of labels to nodes under the multiplier
    coefficients; returns the assignment as a Labeling and its value."""
    phi, scaled = _solve_x_scaled(g, m)
    return phi, Fraction(scaled, SCALE)


def solve_d_subproblem(g: Graph, m: Multipliers) -> tuple[list[int], Fraction]:
    """Per edge, the cheapest label level (smallest level on ties) and the
    total of the per-edge minima."""
    choices, scaled = _solve_d_scaled(g, m)
    return choices, Fraction(scaled, SCALE)


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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def run_subgradient(
    g: Graph,
    params: SubgradientParams | None = None,
    time_limit: float | None = None,
) -> LagrangianResult:
    """Subgradient optimization of the relaxation.

    Edge multipliers start from the extended dual ascent, triangle
    multipliers from zero; the incumbent starts from the greedy-plus-local-
    search heuristic and every assignment solution is improved by local
    search.  The step is the Polyak rule beta * (incumbent - z) / ||g||^2.
    Stops on the iteration limit, a closed gap, a zero subgradient, a step
    size below STOP_MU, or ``time_limit`` seconds.  The assignment solver
    reads the clock before each of its rows, so a passed deadline stops
    the run inside an iteration; that iteration is dropped, and the bound
    is the best of the finished iterations and the warm-start dual-ascent
    value.  Every stop leaves a valid bracket.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    params = params or SubgradientParams()
    if g.m == 0:
        phi = Labeling(labels=tuple(range(1, g.n + 1)))
        return LagrangianResult(
            lower_bound=0,
            incumbent_value=0,
            best_labeling=phi,
            iterations=0,
            trace=[],
            stop_reason="edgeless",
        )

    dual, warm_start, _ = dual_ascent_extended(g)
    mult = Multipliers.from_dual_ascent(g, with_triangles=True, dual=dual)
    if len(mult.triangles) * (g.n - 1) > TRIANGLE_CAP:
        warnings.warn(
            f"{len(mult.triangles)} triangles exceed the multiplier cap; "
            "triangle inequalities disabled",
            stacklevel=2,
        )
        mult = Multipliers(n=g.n, delta=mult.delta)

    best_labeling, incumbent = starting_heuristic(g)
    lower_bound = 0
    beta = BETA_INIT
    non_improving = 0
    trace: list[IterationRecord] = []
    stop_reason = "iterations"
    iterations = 0

    for t in range(1, params.max_iter + 1):
        x_solved = _solve_x_scaled(g, mult, deadline)
        if x_solved is None:
            stop_reason = "time"
            lower_bound = max(lower_bound, warm_start)
            break
        iterations = t
        x_lab, x_scaled = x_solved
        d_choice, d_scaled = _solve_d_scaled(g, mult)
        z_r_scaled = d_scaled - x_scaled - mult.lambda_sum_scaled()
        z_r = z_r_scaled / SCALE
        improved = False
        candidate = max(0, _ceil_div(z_r_scaled, SCALE))
        if candidate > lower_bound:
            lower_bound = candidate
            improved = True

        ls_lab, ls_val = local_search(g, x_lab)
        if ls_val < incumbent:
            incumbent = ls_val
            best_labeling = ls_lab

        norm2, edge_updates, tri_updates = _subgradient(g, mult, x_lab, d_choice)

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
        for e, k, gval in edge_updates:
            new = max(0, mult.delta[e].get(k, 0) - step_scaled * gval)
            if new:
                mult.delta[e][k] = new
            else:
                mult.delta[e].pop(k, None)
        for ti, tt, gval in tri_updates:
            new = max(0, mult.lam.get((ti, tt), 0) - step_scaled * gval)
            if new:
                mult.lam[(ti, tt)] = new
            else:
                mult.lam.pop((ti, tt), None)

        if improved:
            non_improving = 0
        else:
            non_improving += 1
            if non_improving >= TAU:
                beta /= 2.0
                non_improving = 0

    return LagrangianResult(
        lower_bound=lower_bound,
        incumbent_value=incumbent,
        best_labeling=best_labeling,
        iterations=iterations,
        trace=trace,
        stop_reason=stop_reason,
    )


def _subgradient(
    g: Graph, m: Multipliers, x_lab: Labeling, d_choice: list[int]
) -> tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Full subgradient (constraint slack) of the current relaxation.

    Returns its squared norm plus the component lists that can actually
    move a multiplier: stored entries, and zero entries pushed upward.
    """
    labels = x_lab.labels
    norm2 = 0
    edge_updates: list[tuple[int, int, int]] = []
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
                edge_updates.append((e, k, gval))

    tri_updates: list[tuple[int, int, int]] = []
    if m.triangles:
        lam = m.lam
        for ti, (nodes, edges) in enumerate(m.triangles):
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
                if gval < 0 or lam.get((ti, t), 0) > 0:
                    tri_updates.append((ti, t, gval))
    return norm2, edge_updates, tri_updates
