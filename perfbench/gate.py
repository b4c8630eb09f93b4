"""Correctness gate: checks every result outside the timed region.

The checks work on plain values (node count, edge list, label tuple,
bounds), so they trust nothing in slabel and a test can feed them a
corrupted result directly.
"""

from __future__ import annotations


def labeling_problems(
    n: int, edges, labels: tuple[int, ...] | None, ub: int | None
) -> list[str]:
    """A labeling must be a bijection onto 1..n whose objective is the reported UB."""
    if labels is None:
        return ["no labeling returned"] if ub is not None else []
    if len(labels) != n or sorted(labels) != list(range(1, n + 1)):
        return [f"labeling is not a bijection onto 1..{n}"]
    value = sum(min(labels[u], labels[v]) for u, v in edges)
    if ub is not None and value != ub:
        return [f"reported UB {ub} but the labeling's value is {value}"]
    return []


def bracket_problems(lb: int | None, ub: int | None, reference: int | None) -> list[str]:
    """LB <= UB, and LB <= reference <= UB where a reference optimum is known."""
    problems = []
    if lb is not None and ub is not None and lb > ub:
        problems.append(f"LB {lb} > UB {ub}")
    if reference is not None:
        if lb is not None and lb > reference:
            problems.append(f"LB {lb} > reference optimum {reference}")
        if ub is not None and ub < reference:
            problems.append(f"UB {ub} < reference optimum {reference}")
    return problems


def proof_problems(proven: bool, lb: int | None, ub: int | None,
                   reference: int | None) -> list[str]:
    """A result claimed proven must close its bracket at the reference optimum."""
    if not proven:
        return []
    if lb != ub:
        return [f"claimed proven with LB {lb} != UB {ub}"]
    if reference is not None and ub != reference:
        return [f"proven value {ub} != pinned optimum {reference}"]
    return []
