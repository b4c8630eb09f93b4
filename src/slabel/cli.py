"""Command-line front end: instance generation, solving, bounding,
labeling checks, and CSV benchmarking.

    gen    write one generated instance
    solve  auto (the special solver on a path, cycle or perfect n-ary
           tree, else bnb), greedy, lagrangian, bnb, special, oracle
           (subset dynamic program, at most 20 nodes)
    bound  dual-simple, dual-extended, lagrangian
    check  validate a labeling file and print its value
    bench  any of greedy, dual-simple, dual-extended, lagrangian, bnb on
           every file of a suite directory, one CSV row per file and method

``--time-limit`` (seconds, or ``inf``; ``solve``, ``bound`` and
``bench``, default 60) becomes the method's deadline, counted from the
moment the method starts.  It bounds ``bnb``, ``lagrangian``, the
``bnb`` fall-back of ``auto``, ``greedy`` (whose local search keeps the
labeling it has reached), ``dual-extended`` (which keeps the ascent
steps it has taken) and ``oracle`` (which then reports the labeling of
the states it has computed as an upper bound, with no lower bound); every
other method runs to completion.  ``bench`` runs one call after another in
this process.  A bench row's status is ``ok``, ``timeout`` (the method
reached its time limit) or ``error`` (the file or the method failed;
stderr gets ``error: <file> <method>: <reason>``).

``solve`` and ``bound`` both add the method's own fields to the report.
A B&B run (``bnb``, or ``auto`` falling back to it) adds the ``search``
counters of ``exact.SearchStats``: ``explored`` (expanded nodes, each
with residual edges), ``pruned`` (by bound), ``dominated`` (children
skipped by neighbourhood domination), ``level_pruned`` (children cut by
the per-level coverage bound before any dual ascent), ``degree_pruned``
(children cut by that bound's residual-degree refinement, also before
any dual ascent), ``state_dominated`` (children dropped because a node
with the same residual edges and no larger base came first), ``stale``
(popped nodes skipped because their residual has since gained a cheaper
node), ``bound_calls`` (dual ascents run), ``dives`` (primal dives:
greedy plus local search from an expanded node), ``dives_improved``
(dives that lowered the upper bound) and ``open_bound``.  A
``dual-extended`` run reports ``alpha_values`` and ``net_changes``, the
per-label amount and the net change of each committed ascent step; its
``lower_bound`` is ``edges`` plus the sum of ``net_changes``.  A ``lagrangian`` run reports
``iterations``, ``incumbent``, ``stop_reason``, ``level_floor`` (the
exact level bound sum(g_t) of a forest, ``null`` on a graph with a cycle
or when the time limit passed first; a run whose incumbent meets it stops
with ``gap``) and ``phase_ms``: the
milliseconds its iterations spent in ``x_subproblem`` (the assignment),
``d_subproblem`` (the cheapest level per edge), ``local_search`` and
``step`` (the subgradient and the multiplier step, with the upkeep of
both cost tables), each summed over the iterations.

Exit codes: 0 success, 2 usage or input error (including unreadable,
malformed or non-ASCII instance files, and output files that cannot be
written), 3 size refusal, 4 invalid labeling.  JSON output is the stable
machine interface; node ids and labels are 1-indexed everywhere the tool
reads or writes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .core import Graph, Labeling, sl_value
from .dual_ascent import dual_ascent_extended, dual_ascent_simple
from .exact import SizeLimitError, branch_and_bound, subset_dp
from .heuristics import starting_heuristic
from .instances import (
    GENERATORS,
    InstanceFormatError,
    InstanceSpec,
    KINDS,
    read_instance,
    read_labeling,
    write_instance,
    write_labeling,
)
from .lagrangian import run_subgradient
from .special_graphs import label_special

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_INVALID_LABELING = 4

# The gen option of every generator parameter, "seed" last; only n, m and
# p are spelled differently on the command line.
_RENAMED = {"n": "nodes", "m": "edges", "p": "prob"}
_GEN_OPTIONS = {
    name: _RENAMED.get(name, name)
    for name in sorted(
        dict.fromkeys(name for _, names in GENERATORS.values() for name in names),
        key=lambda name: name == "seed",
    )
}

BENCH_METHODS = ("greedy", "dual-simple", "dual-extended", "lagrangian", "bnb")

_CSV_FIELDS = ("name", "nodes", "edges", "method", "lb", "ub", "gap_percent", "time_ms", "status")


class _InputError(Exception):
    """An input the command cannot use; ``main`` reports it with exit code 2."""


@dataclass
class _Result:
    """What one method reports.  ``lb``/``ub`` are None when the method
    gives no such bound; ``details`` holds method-specific report fields."""

    lb: int | None = None
    ub: int | None = None
    labeling: Labeling | None = None
    timed_out: bool = False
    details: dict = field(default_factory=dict)


def _greedy(g: Graph, deadline: float) -> _Result:
    labeling, value = starting_heuristic(g, deadline)
    return _Result(ub=value, labeling=labeling, timed_out=time.perf_counter() >= deadline)


def _dual_simple(g: Graph, deadline: float) -> _Result:
    return _Result(lb=dual_ascent_simple(g)[1])


def _dual_extended(g: Graph, deadline: float) -> _Result:
    _, bound, trace = dual_ascent_extended(g, deadline=deadline)
    return _Result(lb=bound, timed_out=time.perf_counter() >= deadline, details={
        "net_changes": [net for _, net in trace],
        "alpha_values": [alpha for alpha, _ in trace],
    })


def _lagrangian(g: Graph, deadline: float) -> _Result:
    res = run_subgradient(g, deadline=deadline)
    lb, ub = res.lower_bound, res.incumbent_value
    return _Result(lb, ub, res.best_labeling, timed_out=res.stop_reason == "time",
                   details={"iterations": res.iterations, "incumbent": ub,
                            "stop_reason": res.stop_reason, "level_floor": res.level_floor,
                            "phase_ms": {name: round(1000.0 * seconds, 3)
                                         for name, seconds in res.phase_s.items()}})


def _bnb(g: Graph, deadline: float) -> _Result:
    res = branch_and_bound(g, deadline=deadline)
    s = res.stats
    search = {"explored": s.explored, "pruned": s.pruned_by_bound, "dominated": s.dominated,
              "level_pruned": s.level_pruned, "degree_pruned": s.degree_pruned,
              "state_dominated": s.state_dominated, "stale": s.stale,
              "bound_calls": s.bound_calls, "dives": s.dives,
              "dives_improved": s.dives_improved, "open_bound": s.open_bound}
    return _Result(res.lower_bound, res.upper_bound, res.labeling,
                   timed_out=not s.proven_optimal, details={"search": search})


def _oracle(g: Graph, deadline: float) -> _Result:
    value, labeling, finished = subset_dp(g, deadline)
    return _Result(value if finished else None, value, labeling, timed_out=not finished)


def _special(g: Graph, deadline: float) -> _Result:
    try:
        structure, labeling = label_special(g)
    except ValueError:
        raise _InputError("instance is not a path, cycle or perfect n-ary tree") from None
    value = sl_value(g, labeling)
    return _Result(value, value, labeling, details={"method": f"special:{structure.kind.value}"})


def _auto(g: Graph, deadline: float) -> _Result:
    try:
        return _special(g, deadline)
    except _InputError:
        result = _bnb(g, deadline)
        result.details["method"] = "bnb"
        return result


# Every method of every subcommand; argparse restricts each subcommand to
# its own subset.  A method may set details["method"] to the name ``solve``
# should report (``auto`` and ``special`` name the solver they used).
_METHODS = {
    "auto": _auto,
    "greedy": _greedy,
    "lagrangian": _lagrangian,
    "bnb": _bnb,
    "special": _special,
    "oracle": _oracle,
    "dual-simple": _dual_simple,
    "dual-extended": _dual_extended,
}


def _run(method: str, g: Graph, time_limit: float) -> tuple[_Result, float]:
    """The method's result, with ``time_limit`` seconds from its start as
    its deadline, and its wall time in milliseconds."""
    started = time.perf_counter()
    result = _METHODS[method](g, started + time_limit)
    return result, round((time.perf_counter() - started) * 1000.0, 3)


def _seconds(text: str) -> float:
    """The argparse type of ``--time-limit``: zero or more seconds, or
    ``inf``.  NaN is rejected, since each solver would read it its own way."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value >= 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative number of seconds, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabel",
        description="Generate, solve, bound, check and benchmark instances "
        "of the minimum S-labeling problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    for name, option in _GEN_OPTIONS.items():
        gen.add_argument(f"--{option}", dest=name, metavar=option.upper(),
                         type=float if name in ("p1", "p2", "p") else int)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("instance")
    solve.add_argument("--method", default="auto", choices=(
        "auto", "greedy", "lagrangian", "bnb", "special", "oracle"))
    solve.add_argument("--time-limit", type=_seconds, default=60.0)
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--labeling-out", help="write the labeling to this file")

    bound = sub.add_parser("bound", help="compute a lower bound")
    bound.add_argument("instance")
    bound.add_argument("--method", default="dual-extended", choices=(
        "dual-simple", "dual-extended", "lagrangian"))
    bound.add_argument("--time-limit", type=_seconds, default=60.0)
    bound.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="validate a labeling file")
    check.add_argument("instance")
    check.add_argument("labeling")

    bench = sub.add_parser("bench", help="run a suite and emit CSV")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--time-limit", type=_seconds, default=60.0)
    bench.add_argument(
        "--methods",
        default=",".join(BENCH_METHODS),
        help="comma-separated subset of: " + ", ".join(BENCH_METHODS),
    )
    return parser


def _gen_params(args: argparse.Namespace, parser: argparse.ArgumentParser) -> InstanceSpec:
    wanted = GENERATORS[args.kind][1]
    given = {name: v for name in _GEN_OPTIONS if (v := getattr(args, name)) is not None}
    for name in wanted:
        if name not in given and name != "seed":
            parser.error(f"--kind {args.kind} requires --{_GEN_OPTIONS[name]}")
    for name in given:
        if name not in wanted:
            parser.error(f"--{_GEN_OPTIONS[name]} does not apply to --kind {args.kind}")
    seed = given.pop("seed", 0)
    return InstanceSpec(kind=args.kind, params=given, seed=seed)


def _load(path: str | Path, parse, *args):
    """Parse an ASCII instance or labeling file; every way reading or
    parsing it can fail raises _InputError."""
    try:
        return parse(Path(path).read_text(encoding="ascii"), *args)
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except (OSError, InstanceFormatError) as exc:
        raise _InputError(str(exc)) from None


def _save(path: str | Path, text: str) -> None:
    """Write an ASCII output file; every way encoding or writing it can
    fail raises _InputError.  Text that is not ASCII writes no file."""
    try:
        Path(path).write_bytes(text.encode("ascii"))
    except UnicodeEncodeError as exc:
        raise _InputError(f"{path}: cannot write non-ASCII text at offset {exc.start}") from None
    except OSError as exc:
        raise _InputError(str(exc)) from None


def _gap_percent(lb: int | None, ub: int | None) -> float | None:
    if lb is None or ub is None:
        return None
    if ub == lb:
        return 0.0
    return 100.0 * (ub - lb) / ub


def _report_head(args: argparse.Namespace, g: Graph, method: str) -> dict:
    return {"instance": Path(args.instance).stem, "nodes": g.n, "edges": g.m, "method": method}


def _emit_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for key, val in report.items():
        if key != "labeling":
            print(f"{key}: {val}")


def _cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _gen_params(args, parser)
    try:
        g = spec.generate()
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    _save(args.output, write_instance(g))
    print(f"{g.n} nodes, {g.m} edges -> {args.output}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    g = _load(args.instance, read_instance)
    res, elapsed_ms = _run(args.method, g, args.time_limit)
    report = {
        **_report_head(args, g, args.method),
        "primal_value": res.ub,
        "dual_bound": res.lb,
        "gap_percent": _gap_percent(res.lb, res.ub),
        "proven": res.lb is not None and res.lb == res.ub,
        "time_ms": elapsed_ms,
        "labeling": list(res.labeling.labels),
        **res.details,
    }
    if args.labeling_out:
        _save(args.labeling_out, write_labeling(res.labeling))
    _emit_report(report, args.json)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    g = _load(args.instance, read_instance)
    res, elapsed_ms = _run(args.method, g, args.time_limit)
    report = {**_report_head(args, g, args.method), "lower_bound": res.lb,
              "time_ms": elapsed_ms, **res.details}
    _emit_report(report, args.json)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    g = _load(args.instance, read_instance)
    try:
        phi = _load(args.labeling, read_labeling, g.n)
    except _InputError as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID_LABELING
    print(f"valid, value {sl_value(g, phi)}")
    return EXIT_OK


def _bench_rows(path: Path, methods: list[str], time_limit: float) -> list[dict]:
    """One CSV row per method.  A row whose instance or method fails has
    status ``error``, and the reason goes to stderr."""
    try:
        g = _load(path, read_instance)
    except _InputError as exc:
        g, error = None, exc
    rows = []
    for m in methods:
        res, time_ms = None, 0
        if g is not None:
            try:
                res, time_ms = _run(m, g, time_limit)
            except Exception as exc:
                error = exc
        if res is None:
            print(f"error: {path.name} {m}: {error}", file=sys.stderr)
        lb, ub = (None, None) if res is None else (res.lb, res.ub)
        gap = _gap_percent(lb, ub)
        rows.append({
            "name": path.stem,
            "nodes": "" if g is None else g.n,
            "edges": "" if g is None else g.m,
            "method": m,
            "lb": "" if lb is None else lb,
            "ub": "" if ub is None else ub,
            "gap_percent": "" if gap is None else f"{gap:.4f}",
            "time_ms": time_ms,
            "status": "error" if res is None else "timeout" if res.timed_out else "ok",
        })
    return rows


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        raise _InputError(f"{suite} is not a directory")
    files = sorted(p for p in suite.iterdir() if p.is_file())
    if not files:
        raise _InputError(f"no instance files in {suite}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods names no bench method")
    for m in methods:
        if m not in BENCH_METHODS:
            parser.error(f"unknown bench method {m!r}")

    rows = [row for path in files for row in _bench_rows(path, methods, args.time_limit)]
    rows.sort(key=lambda r: (r["name"], methods.index(r["method"])))
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _save(args.out, text.getvalue())
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "solve": _cmd_solve, "bound": _cmd_bound,
             "check": _cmd_check, "bench": _cmd_bench}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
