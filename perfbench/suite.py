"""Instances and workloads of the slabel benchmark.

Every instance comes from a generator in ``slabel.instances`` with a
pinned generator seed.  All timed passes and every gated metric use this
pinned suite, whatever the benchmark seed.

The benchmark seed drives a re-check: a seed other than 0 relabels the
nodes of every instance with a seeded random permutation, and the run
solves that copy once more through the correctness gate, untimed.  A
permutation keeps the optimum, so the pinned optima stay valid references,
while every tie-break the solvers make by node index changes.

Seeded inputs are kept out of the timed passes because the solvers are
tie-break sensitive: over five relabelings one ``heuristic-large`` pass
took 3.6 s to 6.4 s and one ``prove-small`` pass 12.5 s to 16.1 s, and
fresh generator seeds made ``prove-small`` range from 7.3 s to 18.6 s.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import speed

WORKLOADS = ("prove-small", "bound-mid", "heuristic-large")

# A node budget far above the 3407 nodes the hardest proven instance needs
# as generated, so it only stops a runaway search on a relabeled copy.
PROOF_BUDGET = 10_000
SUBGRADIENT_ITERATIONS = 25
SMOKE_SUBGRADIENT_ITERATIONS = 3


@dataclass(frozen=True)
class InstanceDef:
    """One generated instance: generator kind, parameters, generator seed.

    ``node_limit`` is the B&B node budget (prove-small); ``optimum`` is the
    value the parent commit's B&B proved; ``special`` marks a path, cycle
    or perfect n-ary tree solved by ``solve --method special``.
    """

    name: str
    kind: str
    params: dict[str, Any]
    seed: int = 0
    node_limit: int | None = None
    optimum: int | None = None
    special: bool = False


def _gnm(n, m, seed, **kw) -> InstanceDef:
    return InstanceDef(f"gnm-{n}-{m}-{seed}", "gnm", {"n": n, "m": m}, seed, **kw)


def _tree(n, seed) -> InstanceDef:
    return InstanceDef(f"tree-{n}-{seed}", "tree", {"n": n}, seed)


def _bipartite(n1, n2, p, seed) -> InstanceDef:
    return InstanceDef(
        f"bipartite-{n1}-{n2}-{p}-{seed}", "bipartite", {"n1": n1, "n2": n2, "p": p}, seed
    )


def _special(name, kind, params) -> InstanceDef:
    return InstanceDef(name, kind, params, special=True)


SUITES: dict[str, list[InstanceDef]] = {
    "prove-small": [
        _gnm(18, 40, 1, node_limit=PROOF_BUDGET, optimum=174),
        _gnm(20, 45, 3, node_limit=PROOF_BUDGET, optimum=214),
        _gnm(22, 50, 5, node_limit=PROOF_BUDGET, optimum=219),
        _gnm(24, 55, 2, node_limit=PROOF_BUDGET, optimum=280),
        _gnm(24, 60, 11, node_limit=PROOF_BUDGET, optimum=341),
        _gnm(26, 60, 4, node_limit=PROOF_BUDGET, optimum=356),
        # Unproven at 500 nodes (LB 461, UB 475 at seed 0): the bracket a
        # faster B&B must tighten.
        _gnm(30, 70, 9, node_limit=500),
    ],
    "bound-mid": [
        _gnm(60, 150, 2),
        _gnm(50, 300, 3),  # 295 triangles: exercises the triangle multipliers
        _gnm(100, 250, 2),
        _tree(100, 1),
        _bipartite(40, 40, 0.08, 5),
    ],
    "heuristic-large": [
        _tree(1000, 2),
        _gnm(500, 1500, 7),
        InstanceDef("grid-20x20", "grid", {"rows": 20, "cols": 20}),
        _bipartite(100, 100, 0.03, 5),
        InstanceDef("caterpillar-300-0.6-3", "caterpillar", {"backbone": 300, "p1": 0.6}, 3),
        InstanceDef(
            "lobster-200-0.7-0.5-4", "lobster", {"backbone": 200, "p1": 0.7, "p2": 0.5}, 4
        ),
        _special("nary-3-6", "nary", {"arity": 3, "depth": 6}),
        _special("path-2000", "path", {"n": 2000}),
        _special("cycle-2001", "cycle", {"n": 2001}),
    ],
}

# Tiny stand-ins with the same shape, for the self-test.
SMOKE_SUITES: dict[str, list[InstanceDef]] = {
    "prove-small": [
        _gnm(8, 12, 1, node_limit=PROOF_BUDGET),
        _gnm(10, 18, 2, node_limit=20),
    ],
    "bound-mid": [_gnm(12, 24, 2), _tree(12, 1)],
    "heuristic-large": [
        _tree(30, 2),
        _gnm(20, 40, 7),
        _special("nary-2-3", "nary", {"arity": 2, "depth": 3}),
        _special("path-20", "path", {"n": 20}),
        _special("cycle-21", "cycle", {"n": 21}),
    ],
}


class Slabel:
    """The slabel modules the benchmark calls, from one import."""

    MODULES = (
        "core", "instances", "heuristics", "dual_ascent", "exact",
        "lagrangian", "special_graphs", "cli",
    )

    def __init__(self) -> None:
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"slabel.{name}"))


def fresh_import() -> Slabel:
    """Import slabel as a new process would, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "slabel" or m.startswith("slabel.")]:
        del sys.modules[name]
    importlib.import_module("slabel")
    return Slabel()


@dataclass
class Instance:
    defn: InstanceDef
    graph: Any
    path: Path | None = None
    reference: int | None = None

    @property
    def name(self) -> str:
        return self.defn.name


def relabel(sl: Slabel, graph, seed: int, index: int):
    """The graph with its nodes permuted by the benchmark seed; seed 0 keeps it."""
    if seed == 0:
        return graph
    perm = list(range(graph.n))
    random.Random(seed * 1_000_003 + index).shuffle(perm)
    return sl.core.build_graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def build_instances(
    sl: Slabel, defs: list[InstanceDef], seed: int, workdir: Path | None
) -> list[Instance]:
    """Generate, relabel by ``seed`` and (with a workdir) write every instance."""
    out = []
    for index, d in enumerate(defs):
        g = sl.instances.InstanceSpec(kind=d.kind, params=d.params, seed=d.seed).generate()
        inst = Instance(d, relabel(sl, g, seed, index), reference=d.optimum)
        if workdir is not None:
            inst.path = workdir / f"{d.name}.seed-{seed}.sl"
            inst.path.write_text(sl.instances.write_instance(inst.graph), encoding="ascii")
        out.append(inst)
    return out


def setup(defs: list[InstanceDef], workdir: Path | None, repeats: int):
    """Import slabel and build the pinned suite ``repeats`` times; return
    the last set-up and each one's time in seconds and reference seconds."""
    raw, ref = [], []
    before = speed.sample()
    for _ in range(repeats):
        start = time.perf_counter()
        sl = fresh_import()
        instances = build_instances(sl, defs, 0, workdir)
        raw.append(time.perf_counter() - start)
        after = speed.sample()
        ref.append(speed.to_reference(raw[-1], before, after))
        before = after
    return sl, instances, raw, ref


@dataclass
class Outcome:
    """What one solver call reported, in plain values.

    ``labels[v]`` is the label of node v (1..n).  ``lb``/``ub`` are None
    when the call gives no such bound.
    """

    lb: int | None = None
    ub: int | None = None
    labels: tuple[int, ...] | None = None
    proven: bool = False
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Call:
    """One solver call: ``run`` is timed, ``read`` turns its result into an Outcome."""

    name: str
    run: Callable[[], Any]
    read: Callable[[Any], Outcome]
    # A costlier check, run outside timing on the first pass and the re-check
    # only; returns the problems found.
    deep_check: Callable[[Outcome], list[str]] | None = None


def _bnb_calls(sl: Slabel, inst: Instance, smoke: bool) -> list[Call]:
    def run():
        return sl.exact.branch_and_bound(inst.graph, node_limit=inst.defn.node_limit)

    def read(res) -> Outcome:
        return Outcome(
            lb=res.lower_bound,
            ub=res.upper_bound,
            labels=tuple(res.labeling.labels),
            proven=res.stats.proven_optimal,
            counts={"explored": res.stats.explored, "pruned": res.stats.pruned_by_bound},
        )

    return [Call("branch_and_bound", run, read)]


def _subgradient_calls(sl: Slabel, inst: Instance, smoke: bool) -> list[Call]:
    iterations = SMOKE_SUBGRADIENT_ITERATIONS if smoke else SUBGRADIENT_ITERATIONS

    def run():
        return sl.lagrangian.run_subgradient(
            inst.graph, sl.lagrangian.SubgradientParams(max_iter=iterations)
        )

    def read(res) -> Outcome:
        diverged = any(rec.relaxation_value < 0 for rec in res.trace)
        return Outcome(
            lb=res.lower_bound,
            ub=res.incumbent_value,
            labels=tuple(res.best_labeling.labels),
            proven=res.lower_bound == res.incumbent_value,
            counts={"iterations": res.iterations, "diverged": int(diverged)},
        )

    return [Call("run_subgradient", run, read)]


def run_cli(sl: Slabel, argv: list[str]) -> tuple[int, str]:
    """``slabel.cli.main`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sl.cli.main(argv)
    return code, buf.getvalue()


def _cli_report(result: tuple[int, str]) -> dict:
    code, text = result
    if code != 0:
        raise RuntimeError(f"slabel exited with code {code}")
    return json.loads(text)


def _solve_read(result) -> Outcome:
    report = _cli_report(result)
    return Outcome(
        lb=report["dual_bound"],
        ub=report["primal_value"],
        labels=tuple(report["labeling"]),
        proven=report["proven"],
    )


def _bound_read(result) -> Outcome:
    return Outcome(lb=_cli_report(result)["lower_bound"])


def _cli_calls(sl: Slabel, inst: Instance, smoke: bool) -> list[Call]:
    path = str(inst.path)

    def cli(*args):
        return lambda: run_cli(sl, list(args))

    if inst.defn.special:
        return [Call("solve-special", cli("solve", path, "--method", "special", "--json"),
                     _solve_read)]

    def dual_feasible(outcome: Outcome) -> list[str]:
        solution, value, _ = sl.dual_ascent.dual_ascent_extended(inst.graph)
        feasible, objective = sl.dual_ascent.check_dual_feasible(inst.graph, solution)
        problems = []
        if not feasible:
            problems.append("dual-ascent solution is not dual feasible")
        if objective != value or value != outcome.lb:
            problems.append(
                f"dual objective {objective}, ascent value {value}, reported bound {outcome.lb}"
            )
        return problems

    return [
        Call("solve-greedy", cli("solve", path, "--method", "greedy", "--json"), _solve_read),
        Call("bound-dual-extended", cli("bound", path, "--method", "dual-extended", "--json"),
             _bound_read, deep_check=dual_feasible),
    ]


CALLS = {
    "prove-small": _bnb_calls,
    "bound-mid": _subgradient_calls,
    "heuristic-large": _cli_calls,
}

# Workloads whose instances are read from files by the CLI.
WRITES_FILES = {"heuristic-large"}


def special_reference(sl: Slabel, d: InstanceDef) -> int:
    """Closed-form optimum of a special instance.

    The perfect n-ary formula is exact only when it comes out integral;
    otherwise ``solve_perfect_nary`` is the documented ground truth.
    """
    sg = sl.special_graphs
    if d.kind in ("path", "cycle"):
        return sg.formula_path_cycle(d.kind, d.params["n"])
    value, integral = sg.formula_nary(d.params["arity"], d.params["depth"])
    if integral:
        return int(value)
    return sg.solve_perfect_nary(d.params["arity"], d.params["depth"])[1]
