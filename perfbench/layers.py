"""Per-layer measurements for the traced run.

Two kinds, both from the benchmark's own files; nothing under ``src/`` is
changed:

* Call-site wrappers.  During a traced pass the name a caller looks up
  (``slabel.exact.dual_ascent_extended``, for example) is replaced by a
  timing wrapper and restored afterwards.  A wrapper records calls, total
  time and self time (total minus the time of wrapped calls nested in it).
  A name that no longer exists is reported as an absent layer.
* Direct calls to a module's public functions on a fixed probe set.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass

# (span, module attribute on Slabel, function name looked up by the caller)
WRAPPED = (
    ("dual_ascent.bnb", "exact", "dual_ascent_extended"),
    ("assignment", "lagrangian", "hungarian_min"),
    ("heuristics.ls", "lagrangian", "local_search"),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates wrapped calls into spans; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._child_time: list[float] = []

    def _wrap(self, span_name: str, fn):
        span = self.spans.setdefault(span_name, Span())
        stack = self._child_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return wrapper

    @contextlib.contextmanager
    def installed(self, sl):
        """Patch every wrapped name for the duration of the block."""
        saved = []
        try:
            for span_name, module_attr, fn_name in WRAPPED:
                module = getattr(sl, module_attr)
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.absent.append(f"{module.__name__}.{fn_name}")
                    continue
                saved.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(span_name, fn))
            yield self
        finally:
            for module, fn_name, fn in saved:
                setattr(module, fn_name, fn)

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())


def _timed_ms(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return (time.perf_counter() - start) * 1000.0, result


def _lookup(module, name: str, absent: list[str]):
    """The module's function ``name``, or None (recorded as absent) if gone."""
    fn = getattr(module, name, None)
    label = f"{module.__name__}.{name}"
    if fn is None and label not in absent:
        absent.append(label)
    return fn


def probe_large(sl, instances, absent: list[str]) -> dict[str, float]:
    """Direct calls on the heuristic-large instances (one call per graph for
    the solvers, a seeded sample for the per-call kernels)."""
    core, heur, dual, sg = sl.core, sl.heuristics, sl.dual_ascent, sl.special_graphs
    fns = {
        name: _lookup(module, name, absent)
        for module, name in (
            (dual, "dual_ascent_extended"), (dual, "dual_ascent_simple"),
            (heur, "greedy_label"), (heur, "local_search"),
            (core, "sl_value"), (core, "exchange_delta"),
            (sg, "detect_structure"), (sl.instances, "read_instance"),
        )
    }
    out = dict.fromkeys(
        ("dual_ascent.extended_ms", "dual_ascent.simple_ms", "heuristics.greedy_ms",
         "heuristics.local_search_ms", "heuristics.ls_gain", "special_graphs.detect_ms",
         "special_graphs.solve_ms", "instances.read_ms"), 0.0)
    sl_calls = sl_time = swap_calls = swap_time = 0.0
    rng = random.Random(0)
    solvers = {"path": "solve_path", "cycle": "solve_cycle", "nary": "label_perfect_nary"}
    for inst in instances:
        g = inst.graph
        if fns["read_instance"] and inst.path is not None:
            text = inst.path.read_text(encoding="ascii")
            out["instances.read_ms"] += _timed_ms(fns["read_instance"], text)[0]
        structure = None
        if fns["detect_structure"]:
            ms, structure = _timed_ms(fns["detect_structure"], g)
            out["special_graphs.detect_ms"] += ms
        if inst.defn.special:
            solver = _lookup(sg, solvers[inst.defn.kind], absent)
            if solver is not None and structure is not None:
                args = (g, structure) if inst.defn.kind == "nary" else (g,)
                out["special_graphs.solve_ms"] += _timed_ms(solver, *args)[0]
            continue
        if fns["dual_ascent_extended"]:
            out["dual_ascent.extended_ms"] += _timed_ms(fns["dual_ascent_extended"], g)[0]
        if fns["dual_ascent_simple"]:
            out["dual_ascent.simple_ms"] += _timed_ms(fns["dual_ascent_simple"], g)[0]
        if fns["greedy_label"] and fns["local_search"]:
            ms, (phi, greedy_value) = _timed_ms(fns["greedy_label"], g)
            out["heuristics.greedy_ms"] += ms
            ms, (_, ls_value) = _timed_ms(fns["local_search"], g, phi)
            out["heuristics.local_search_ms"] += ms
            out["heuristics.ls_gain"] += greedy_value - ls_value
            # Per-call kernels, measured at the greedy labeling.
            if fns["sl_value"]:
                reps = 20
                start = time.perf_counter()
                for _ in range(reps):
                    fns["sl_value"](g, phi)
                sl_time += time.perf_counter() - start
                sl_calls += reps
            if fns["exchange_delta"]:
                pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(2000)]
                start = time.perf_counter()
                for i, j in pairs:
                    fns["exchange_delta"](g, phi, i, j)
                swap_time += time.perf_counter() - start
                swap_calls += len(pairs)
    out["core.sl_value_us"] = sl_time * 1e6 / sl_calls if sl_calls else 0.0
    out["core.exchange_delta_us"] = swap_time * 1e6 / swap_calls if swap_calls else 0.0
    return out


def probe_mid(sl, instances, absent: list[str]) -> dict[str, float]:
    """x- and d-subproblem once per bound-mid instance at the dual-ascent warm start."""
    lag = sl.lagrangian
    out = {"lagrangian.x_subproblem_ms": 0.0, "lagrangian.d_subproblem_ms": 0.0}
    mult_cls = _lookup(lag, "Multipliers", absent)
    solve_x = _lookup(lag, "solve_x_subproblem", absent)
    solve_d = _lookup(lag, "solve_d_subproblem", absent)
    if mult_cls is None:
        return out
    for inst in instances:
        mult = mult_cls.from_dual_ascent(inst.graph, with_triangles=True)
        if solve_x:
            out["lagrangian.x_subproblem_ms"] += _timed_ms(solve_x, inst.graph, mult)[0]
        if solve_d:
            out["lagrangian.d_subproblem_ms"] += _timed_ms(solve_d, inst.graph, mult)[0]
    return out
