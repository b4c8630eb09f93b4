"""slabel benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload prove-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One single-threaded process drives a closed loop: one caller, one solver
call at a time.  After set-up it runs passes over the workload's pinned
instances until the next pass would end past ``--seconds`` (always at
least two).  A seed other than 0 then solves a relabeled copy once more
(see suite.py); the traced run skips that re-check.  Every result goes through the correctness gate outside
the timed region.  ``wall_s`` and ``setup_s`` are in reference seconds
(see speed.py); the raw clock times are in the report.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics (see layers.py).  The line
before the last is a JSON report with run metadata, the instance list,
per-instance brackets and every metric with its unit; the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "slabel" / "__init__.py").is_file():
    print(f"error: no slabel package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import suite  # noqa: E402

SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lb_sum": "objective",
    "ub_sum": "objective",
}
# Reported with units in the report line only.  The raw clock times swing
# by a third between runs on a shared host (see speed.py); the others can
# be exactly 0 (failed_frac always is at this commit), so none can carry a
# relative bound.
REPORT_ONLY_UNITS = {
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "gap_pct": "%",
    "proven_frac": "fraction",
    "failed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "exact.explored": "count",
    "exact.pruned": "count",
    "exact.nodes_per_s": "1/s",
    "dual_ascent.bnb_calls": "count",
    "dual_ascent.bnb_self_s": "s",
    "dual_ascent.bnb_share": "fraction",
    "dual_ascent.extended_ms": "ms",
    "dual_ascent.simple_ms": "ms",
    "lagrangian.iterations": "count",
    "lagrangian.iteration_ms": "ms",
    "lagrangian.diverged_runs": "count",
    "lagrangian.x_subproblem_ms": "ms",
    "lagrangian.d_subproblem_ms": "ms",
    "assignment.calls": "count",
    "assignment.self_s": "s",
    "assignment.share": "fraction",
    "heuristics.ls_calls": "count",
    "heuristics.ls_self_s": "s",
    "heuristics.greedy_ms": "ms",
    "heuristics.local_search_ms": "ms",
    "heuristics.ls_gain": "objective",
    "core.sl_value_us": "us",
    "core.exchange_delta_us": "us",
    "special_graphs.detect_ms": "ms",
    "special_graphs.solve_ms": "ms",
    "instances.read_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass
class PassResult:
    """One pass: solver time in seconds and reference seconds, gate results,
    each instance's bracket and solver seconds, and summed solver counters."""

    raw_s: float = 0.0
    ref_s: float = 0.0
    gate_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    brackets: dict[str, tuple[int | None, int | None]] = field(default_factory=dict)
    call_seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def gate_instance(inst, results, deep: bool) -> tuple[list[str], int, int | None, int | None]:
    """Gate one instance's calls; return problems, failed-call count and the
    instance's bracket.  A problem is charged to the call that reported the
    offending value; an LB above another call's UB is charged to the LB."""
    g = inst.graph
    problems: dict[int, list[str]] = {}

    def flag(i, found):
        if found:
            problems.setdefault(i, []).extend(found)

    best_lb = best_ub = None
    for i, (call, outcome, error) in enumerate(results):
        if error is not None:
            flag(i, [error])
            continue
        flag(i, gate.labeling_problems(g.n, g.edges, outcome.labels, outcome.ub))
        flag(i, gate.bracket_problems(outcome.lb, outcome.ub, inst.reference))
        flag(i, gate.proof_problems(outcome.proven, outcome.lb, outcome.ub, inst.reference))
        if deep and call.deep_check is not None:
            flag(i, call.deep_check(outcome))
        if outcome.lb is not None and (best_lb is None or outcome.lb > results[best_lb][1].lb):
            best_lb = i
        if outcome.ub is not None and (best_ub is None or outcome.ub < results[best_ub][1].ub):
            best_ub = i
    lb = results[best_lb][1].lb if best_lb is not None else None
    ub = results[best_ub][1].ub if best_ub is not None else None
    if best_lb is not None and best_ub is not None and best_lb != best_ub:
        flag(best_lb, gate.bracket_problems(lb, ub, None))
    messages = [
        f"{inst.name} {results[i][0].name}: {p}" for i in sorted(problems) for p in problems[i]
    ]
    return messages, len(problems), lb, ub


def run_pass(sl, workload: str, instances, smoke: bool, deep: bool) -> PassResult:
    """Every call of the workload once, timed one by one, then gated."""
    result = PassResult()
    for inst in instances:
        results = []
        seconds = 0.0
        before = speed.sample()
        for call in suite.CALLS[workload](sl, inst, smoke):
            start = time.perf_counter()
            try:
                raw = call.run()
                error = None
            except Exception:
                raw, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            after = speed.sample()
            result.ref_s += speed.to_reference(elapsed, before, after)
            before = after
            seconds += elapsed
            outcome = None
            if error is None:
                try:
                    outcome = call.read(raw)
                except Exception:
                    error = traceback.format_exc(limit=3)
            results.append((call, outcome, error))
            result.attempted += 1
        result.raw_s += seconds
        result.call_seconds[inst.name] = seconds
        for _, outcome, _ in results:
            for key, value in (outcome.counts.items() if outcome else ()):
                result.counts[key] = result.counts.get(key, 0) + value
        gate_start = time.perf_counter()
        messages, n_failed, lb, ub = gate_instance(inst, results, deep)
        result.gate_s += time.perf_counter() - gate_start
        result.failures.extend(messages)
        result.failed += n_failed
        result.brackets[inst.name] = (lb, ub)
    return result


def attach_references(sl, instances) -> None:
    for inst in instances:
        if inst.defn.special and inst.reference is None:
            inst.reference = suite.special_reference(sl, inst.defn)


def quality(instances, brackets) -> dict[str, float]:
    lbs = [brackets[i.name][0] or 0 for i in instances]
    ubs = [brackets[i.name][1] or 0 for i in instances]
    gaps = [100.0 * (ub - lb) / ub if ub else 0.0 for lb, ub in zip(lbs, ubs)]
    return {
        "lb_sum": sum(lbs),
        "ub_sum": sum(ubs),
        "gap_pct": statistics.fmean(gaps),
        "proven_frac": sum(lb == ub for lb, ub in zip(lbs, ubs)) / len(instances),
    }


def check_repeat(first: PassResult, later: PassResult) -> list[str]:
    """Solvers are deterministic: every pass must give the same brackets."""
    return [
        f"{name}: bracket {later.brackets[name]} differs from first pass {bracket}"
        for name, bracket in first.brackets.items()
        if later.brackets.get(name) != bracket
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: str, seed: int, instances, load_at_start) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
        "instances": [
            {"name": i.name, "n": i.graph.n, "m": i.graph.m, "reference": i.reference}
            for i in instances
        ],
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


@dataclass
class Tally:
    """Calls attempted and failed over a whole run, with the failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, p: PassResult, first: PassResult | None = None) -> None:
        """Count a pass; with ``first``, also require its brackets to repeat."""
        self.attempted += p.attempted
        self.failed += p.failed
        self.failures.extend(p.failures)
        if first is not None:
            changed = check_repeat(first, p)
            self.failed += len(changed)
            self.failures.extend(changed)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """One run; returns (result line, report)."""
    load_at_start = os.getloadavg()
    suites = suite.SMOKE_SUITES if smoke else suite.SUITES
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        files = workdir if workload in suite.WRITES_FILES else None
        sl, instances, setup_raw, setup_ref = suite.setup(
            suites[workload], files, 1 if trace else SETUP_REPEATS
        )
        attach_references(sl, instances)
        report = metadata(workload, seed, instances, load_at_start)
        if trace:
            values = traced_run(sl, workload, instances, smoke, suites, workdir, tally, report)
            units = PER_LAYER_UNITS
        else:
            values = timed_run(sl, workload, instances, smoke, seconds, tally, report)
            values["setup_s"] = statistics.median(setup_ref)
            values["setup_raw_s"] = statistics.median(setup_raw)
            report["setup_raw_s_each"] = setup_raw
            units = END_TO_END_UNITS
        if seed and not trace:
            report["recheck"] = recheck(sl, suites[workload], workload, seed, smoke, files, tally)
    if not trace:
        values["failed_frac"] = tally.failed / tally.attempted
    report["metrics"] = with_units(values, units if trace else {**units, **REPORT_ONLY_UNITS})
    report["failures"] = tally.failures
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": with_units(values, units),
    }
    return result, report


def timed_run(sl, workload, instances, smoke, seconds, tally, report) -> dict:
    """At least two passes over the pinned suite, then more until the next
    one would end past ``seconds``.  Time spent in the gate (seconds of dual
    feasibility checks on the first pass) is left out of that budget."""
    start = time.perf_counter()
    passes = []
    gated = 0.0
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(sl, workload, instances, smoke, deep=not passes))
        tally.add(passes[-1], passes[0] if len(passes) > 1 else None)
        now = time.perf_counter()
        gated += passes[-1].gate_s
        last = now - pass_start - passes[-1].gate_s
        if len(passes) >= 2 and now - start - gated + last > seconds:
            break
    report.update({
        "passes": len(passes),
        "pass_wall_s": [p.ref_s for p in passes],
        "pass_wall_raw_s": [p.raw_s for p in passes],
        "per_instance": [
            {"name": i.name, "lb": passes[0].brackets[i.name][0],
             "ub": passes[0].brackets[i.name][1],
             "median_s": statistics.median(p.call_seconds[i.name] for p in passes)}
            for i in instances
        ],
        "counts": passes[0].counts,
    })
    return {
        "wall_s": statistics.median(p.ref_s for p in passes),
        "wall_raw_s": statistics.median(p.raw_s for p in passes),
        # Read before any re-check, so it covers the pinned suite only.
        "peak_rss_mb": peak_rss_mb(),
        **quality(instances, passes[0].brackets),
    }


def recheck(sl, defs, workload, seed, smoke, workdir, tally) -> dict:
    """The workload once more on the seed's relabeled copy of the suite,
    through the full gate; its numbers are reported but gate no metric."""
    instances = suite.build_instances(sl, defs, seed, workdir)
    attach_references(sl, instances)
    p = run_pass(sl, workload, instances, smoke, deep=True)
    tally.add(p)
    return {
        "seed": seed,
        "wall_s": p.ref_s,
        "wall_raw_s": p.raw_s,
        **quality(instances, p.brackets),
        "brackets": {name: list(bracket) for name, bracket in p.brackets.items()},
        "counts": p.counts,
    }


def traced_run(sl, workload, instances, smoke, suites, workdir, tally, report) -> dict:
    """Traced passes of the workload and of the workloads that host the
    wrapped layers, the direct-call probes, and the tracing overhead.

    The workload's passes run untraced, traced, (the other traced passes),
    traced, untraced, so that a drift in machine speed cancels out of the
    overhead; the per-layer numbers come from the first traced pass."""

    def traced_pass(name, insts):
        tracer = layers.Tracer()
        with tracer.installed(sl):
            p = run_pass(sl, name, insts, smoke, deep=False)
        return p, tracer, insts

    untraced = [run_pass(sl, workload, instances, smoke, deep=True)]
    tally.add(untraced[0])
    traced = {}
    for name in dict.fromkeys((workload, "prove-small", "bound-mid")):
        insts = instances if name == workload else suite.build_instances(
            sl, suites[name], 0, workdir if name in suite.WRITES_FILES else None)
        traced[name] = traced_pass(name, insts)
        tally.add(traced[name][0], untraced[0] if name == workload else None)
    traced_again = traced_pass(workload, instances)[0]
    untraced.append(run_pass(sl, workload, instances, smoke, deep=False))
    for p in (traced_again, untraced[1]):
        tally.add(p, untraced[0])
    traced_s = (traced[workload][0].ref_s + traced_again.ref_s) / 2
    untraced_s = (untraced[0].ref_s + untraced[1].ref_s) / 2

    absent: list[str] = []
    for _, tracer, _ in traced.values():
        absent.extend(a for a in tracer.absent if a not in absent)
    if "heuristic-large" in traced:
        large = traced["heuristic-large"][2]
    else:
        large = suite.build_instances(sl, suites["heuristic-large"], 0, workdir)
    values = {
        **layers.probe_large(sl, large, absent),
        **layers.probe_mid(sl, traced["bound-mid"][2], absent),
    }

    ps, ps_tracer, _ = traced["prove-small"]
    bnb = ps_tracer.span("dual_ascent.bnb")
    values.update({
        "exact.explored": ps.counts.get("explored", 0),
        "exact.pruned": ps.counts.get("pruned", 0),
        "exact.nodes_per_s": ps.counts.get("explored", 0) / ps.raw_s,
        "dual_ascent.bnb_calls": bnb.calls,
        "dual_ascent.bnb_self_s": bnb.self_s,
        "dual_ascent.bnb_share": bnb.self_s / ps.raw_s,
    })
    bm, bm_tracer, _ = traced["bound-mid"]
    hung, ls = bm_tracer.span("assignment"), bm_tracer.span("heuristics.ls")
    iterations = bm.counts.get("iterations", 0)
    values.update({
        "lagrangian.iterations": iterations,
        "lagrangian.iteration_ms": 1000.0 * bm.raw_s / iterations if iterations else 0.0,
        "lagrangian.diverged_runs": bm.counts.get("diverged", 0),
        "assignment.calls": hung.calls,
        "assignment.self_s": hung.self_s,
        "assignment.share": hung.self_s / bm.raw_s,
        "heuristics.ls_calls": ls.calls,
        "heuristics.ls_self_s": ls.self_s,
        "trace.overhead_s": traced_s - untraced_s,
    })

    ls_share = ls.self_s / bm.raw_s
    report.update({
        "untraced_wall_s": [p.ref_s for p in untraced],
        "traced_wall_s": [traced[workload][0].ref_s, traced_again.ref_s],
        "traced_other_wall_s": {
            name: p.ref_s for name, (p, _, _) in traced.items() if name != workload
        },
        "absent_layers": absent,
        "profile_checks": [
            {"check": "dual_ascent.bnb_share on prove-small is about 0.7-0.8",
             "measured": values["dual_ascent.bnb_share"],
             "ok": 0.7 <= values["dual_ascent.bnb_share"] <= 0.8},
            {"check": "assignment.share is the largest share on bound-mid",
             "measured": {"assignment": values["assignment.share"], "local_search": ls_share},
             "ok": values["assignment.share"] > ls_share},
        ],
    })
    return values


def self_test() -> int:
    """Smoke runs on tiny instances plus gate checks on corrupted results."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in suite.WORKLOADS:
        for trace, seed in ((0, 7), (1, 7)):
            result, report = measure(workload, seed, 0.0, bool(trace), smoke=True)
            names = declared["per_layer" if trace else "end_to_end"]
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
            undeclared = set(result["metrics"]) - {m["name"] for m in names}
            if undeclared:
                problems.append(f"{workload} trace={trace}: undeclared {sorted(undeclared)}")
            if not trace:
                for name, unit in REPORT_ONLY_UNITS.items():
                    if report["metrics"].get(name, {}).get("unit") != unit:
                        problems.append(f"{workload}: report lacks {name} in {unit}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {report['failures']}")
    path = [(0, 1), (1, 2), (2, 3)]  # value of labels (2, 1, 3, 4) is 1 + 1 + 3 = 5
    expect_flagged = {
        "duplicate label": gate.labeling_problems(4, path, (1, 1, 3, 4), 5),
        "label out of range": gate.labeling_problems(4, path, (2, 1, 3, 5), 5),
        "UB not the labeling's value": gate.labeling_problems(4, path, (2, 1, 3, 4), 4),
        "LB > UB": gate.bracket_problems(6, 5, None),
        "UB below reference": gate.bracket_problems(3, 4, 5),
        "proven value off the optimum": gate.proof_problems(True, 6, 6, 5),
    }
    problems.extend(f"gate missed: {what}" for what, found in expect_flagged.items()
                    if not found)
    if gate.labeling_problems(4, path, (2, 1, 3, 4), 5) or gate.bracket_problems(5, 5, 5):
        problems.append("gate flagged a valid result")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="relabeling seed of the re-check pass; 0 skips the re-check")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for check in report.get("profile_checks", ()):
        if not check["ok"]:
            print(f"profile mismatch: {check['check']}; measured {check['measured']}",
                  file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
