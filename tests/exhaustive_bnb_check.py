"""Exhaustive check of the exact solvers on every labeled graph with 1 to 6
nodes (33,867 graphs): the subset dynamic program against the brute-force
reference, the coverage table entry by entry against enumeration of
every node set and its sum (a lower bound) against the program,
branch-and-bound, with no starting incumbent so that the search must
find each optimum itself, against the program, and the extended dual
ascent against its reference kernel.  On the 3,271 of those graphs that
are forests, the forest level table entry by entry against enumeration,
its sum (a lower bound) against the program, and the Lagrangian's
bracket, which reads that sum, against the program; on the others, that
the forest table refuses them.  Then the ascent against its
reference on gnm(500, 1500, 7), and the program against
its pinned optimum, and B&B against the program, on six random graphs
with 17 to 20 nodes, once with the coverage table's node limit and once
with a limit of one child per level, whose levels stop early.  First of
all, the assignment kernel on every matrix with 1 to 3 rows and entries
0, 1 and 2 (19,767 matrices), from no potentials and from four fixed
ones: its total against brute force, its permutation, the certificate
of its final potentials, and its exact output against the tests'
reference kernel.  Next, local search against the tests' full-scan
reference from every labeling of every graph with 0 to 5 nodes (124,470
starts, about 10-13 s).  Then every residual ascent that branch-and-bound
runs on the benchmark's seven prove-small graphs (267, each with its
cutoff) against the reference ascent on the residual subgraph, up to the
step that reaches the cutoff (about 1 s), and B&B's proofs of three
graphs with 40 to 45 nodes within its node limit (about 5 s).  Last, the Lagrangian's kept
subproblem costs against a fresh build after they are first built and
after every step of 40 iterations on each of 300 seeded random graphs
with 8 to 24 nodes, from sparse to complete.  The tier-1 tests of B&B stop at 5 nodes and, for random
graphs, at 16; this script takes about 2 min, and pytest does not
collect it.

    PYTHONPATH=src python tests/exhaustive_bnb_check.py

It prints the number of matrices, local search starts, residual ascents,
proofs of 40- to 45-node graphs, graphs, forests and Lagrangian runs checked and exits 1
on the first mismatch.
"""

import math
import random
import sys
from itertools import permutations, product

from slabel import exact
from slabel.assignment import hungarian_min
from slabel.core import Labeling, build_graph, sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.heuristics import local_search
from slabel.instances import gen_gnm, gen_lobster
from slabel.lagrangian import run_subgradient
from test_assignment import brute_min, certifies, reference_hungarian_min  # this script's directory
from test_dual_ascent import is_cut_reference, reference_dual_ascent_extended, subgraph_ascent
from test_exact import all_graphs, brute_force, enumerated_table, is_forest, no_starting_incumbent
from test_heuristics import reference_local_search
from test_lagrangian import kept_state_run

# gnm(n, m, seed) and its optimum.
LARGER_GNM = [((17, 40, 1), 143), ((18, 45, 2), 198), ((19, 50, 3), 246),
              ((20, 55, 4), 280), ((20, 40, 5), 156), ((20, 70, 6), 371)]

# The benchmark's prove-small graphs, gnm(n, m, seed), with B&B's node
# limit on each, and the residual ascents B&B runs on them.
PROVE_SMALL = [((18, 40, 1), 10_000), ((20, 45, 3), 10_000), ((22, 50, 5), 10_000),
               ((24, 55, 2), 10_000), ((24, 60, 11), 10_000), ((26, 60, 4), 10_000),
               ((30, 70, 9), 500)]
PROVE_SMALL_ASCENTS = 267

# Graphs beyond the program's 20 nodes, their optima and B&B's node limit
# for each proof.  gnm(40, 90, 5) = 742 is what B&B proved before it had
# state dominance and dives, in 791,184 expansions; the 40-node lobster's
# 304 is the MIP optimum that HiGHS finds with triangle cuts; gnm(45, 110,
# 2) = 974 is what B&B proved before its residual degree bound, in 5,782
# expansions.
PROVEN_40 = [("gnm(40, 90, 5)", lambda: gen_gnm(40, 90, 5), 742),
             ("lobster(8, 0.7, 0.5, 4)", lambda: gen_lobster(8, 0.7, 0.5, 4), 304),
             ("gnm(45, 110, 2)", lambda: gen_gnm(45, 110, 2), 974)]
PROOF_NODE_LIMIT = 10_000

# The labeled forests on 1 to 6 nodes.
FORESTS_6 = 1 + 2 + 7 + 38 + 291 + 2932

# The kept-state corpus: this many gnm graphs, each at 40 iterations.
KEPT_STATE_GRAPHS = 300

# Starting column potentials of the kernel check, cut to n entries.
KERNEL_POTENTIALS = [(0, 0, 0), (1, 0, 2), (-2, 3, -1), (10**12, -10**12, 3)]


def all_matrices(max_n, values=(0, 1, 2)):
    for n in range(1, max_n + 1):
        for entries in product(values, repeat=n * n):
            yield [list(entries[i * n:(i + 1) * n]) for i in range(n)]


def kernel_matches(costs):
    n = len(costs)
    optimum = brute_min(costs)
    for start in (None, *KERNEL_POTENTIALS):
        potentials = None if start is None else list(start[:n])
        expected = None if start is None else list(start[:n])
        perm, total = hungarian_min(costs, potentials=potentials)
        if not (total == optimum == sum(costs[i][perm[i]] for i in range(n))
                and sorted(perm) == list(range(n))
                and (perm, total) == reference_hungarian_min(costs, expected)
                and potentials == expected
                and (potentials is None or certifies(costs, potentials, total))):
            print(f"assignment kernel differs on {costs} from potentials {start}: "
                  f"{(perm, total)}, final {potentials}; optimum {optimum}, reference "
                  f"{reference_hungarian_min(costs, expected)}, final {expected}",
                  file=sys.stderr)
            return False
    return True


def bnb_finds(g, opt):
    res = exact.branch_and_bound(g)
    if (res.stats.proven_optimal
            and res.lower_bound == res.upper_bound == sl_value(g, res.labeling) == opt):
        return True
    print(f"mismatch on n={g.n} edges={list(g.edges)}: optimum {opt}, B&B "
          f"[{res.lower_bound}, {res.upper_bound}] at table node limit "
          f"{exact.TABLE_NODE_LIMIT}", file=sys.stderr)
    return False


def bnb_proves(name, g, opt):
    res = exact.branch_and_bound(g, node_limit=PROOF_NODE_LIMIT)
    if (res.stats.proven_optimal
            and res.lower_bound == res.upper_bound == sl_value(g, res.labeling) == opt):
        return True
    print(f"B&B does not prove {name} = {opt} within {PROOF_NODE_LIMIT} expansions: "
          f"[{res.lower_bound}, {res.upper_bound}] after {res.stats.explored}", file=sys.stderr)
    return False


def ascent_matches(g):
    if dual_ascent_extended(g) == reference_dual_ascent_extended(g):
        return True
    print(f"dual ascent differs from its reference on n={g.n} edges={list(g.edges)}",
          file=sys.stderr)
    return False


def bnb_ascents_checked():
    """Every residual ascent B&B runs on the prove-small graphs, each with
    its cutoff, against the reference ascent on the residual subgraph: the
    whole run, or its prefix up to the first step that reaches the cutoff.
    Returns the number of ascents checked, or None at the first mismatch."""
    calls = []

    def recording(g, residual, cutoff):
        result = dual_ascent_extended(g, residual, cutoff)
        calls.append((g, residual, cutoff, result[1:]))
        return result

    exact.dual_ascent_extended = recording
    try:
        for args, node_limit in PROVE_SMALL:
            exact.branch_and_bound(gen_gnm(*args), node_limit=node_limit)
    finally:
        exact.dual_ascent_extended = dual_ascent_extended
    for g, residual, cutoff, (z, trace) in calls:
        _, ref_z, ref_trace = subgraph_ascent(g, residual)
        if not is_cut_reference(residual.bit_count(), cutoff, z, trace, ref_z, ref_trace):
            print(f"residual ascent differs from the reference on n={g.n} edges={list(g.edges)} "
                  f"residual {residual:#x} cutoff {cutoff}: {(z, trace)}, reference "
                  f"{(ref_z, ref_trace)}", file=sys.stderr)
            return None
    return len(calls)


def forest_matches(g, opt):
    """On a forest, the level table against enumeration, its sum against
    the optimum and the Lagrangian bracket around it; on any other graph,
    that the table refuses it."""
    levels = exact.forest_levels(g)
    if not is_forest(g):
        if levels is None:
            return True
        print(f"forest levels {levels} on n={g.n} edges={list(g.edges)}, which has a cycle",
              file=sys.stderr)
        return False
    res = run_subgradient(g)
    if (levels == enumerated_table(g) + [0] and sum(levels) <= opt
            and res.lower_bound <= opt <= res.incumbent_value == sl_value(g, res.best_labeling)):
        return True
    print(f"forest levels {levels} on n={g.n} edges={list(g.edges)}: enumeration "
          f"{enumerated_table(g)}, optimum {opt}, Lagrangian [{res.lower_bound}, "
          f"{res.incumbent_value}]", file=sys.stderr)
    return False


def kept_state_matches(g):
    try:
        kept_state_run(g, 40)
    except AssertionError as err:
        print(f"kept Lagrangian state differs from a fresh build on n={g.n} "
              f"edges={list(g.edges)}: {err}", file=sys.stderr)
        return False
    return True


def local_search_matches(g):
    for labels in permutations(range(1, g.n + 1)):
        phi = Labeling(labels=labels)
        if local_search(g, phi) != reference_local_search(g, phi):
            print(f"local search differs from its reference on n={g.n} "
                  f"edges={list(g.edges)} from {labels}", file=sys.stderr)
            return False
    return True


def main() -> int:
    matrices = 0
    for costs in all_matrices(3):
        if not kernel_matches(costs):
            return 1
        matrices += 1
    print(f"{matrices} matrices checked")
    starts = 0
    for g in (build_graph(0, []), *all_graphs(5)):
        if not local_search_matches(g):
            return 1
        starts += math.factorial(g.n)
    print(f"{starts} local search starts checked")
    ascents = bnb_ascents_checked()
    if ascents is None:
        return 1
    print(f"{ascents} residual ascents of branch-and-bound checked")
    for name, make, opt in PROVEN_40:
        if not bnb_proves(name, make(), opt):
            return 1
    print(f"{len(PROVEN_40)} proofs of 40- to 45-node graphs checked")
    exact.starting_heuristic = no_starting_incumbent
    checked = forests = 0
    for g in all_graphs(6):
        opt, labeling, finished = exact.subset_dp(g)
        if not (finished and opt == sl_value(g, labeling) == brute_force(g)[0]):
            print(f"mismatch on n={g.n} edges={list(g.edges)}: subset_dp {opt}, "
                  f"brute force {brute_force(g)[0]}", file=sys.stderr)
            return 1
        table = exact.coverage_table(g)
        if table != enumerated_table(g) or sum(table) > opt:
            print(f"coverage table {table} on n={g.n} edges={list(g.edges)}: enumeration "
                  f"{enumerated_table(g)}, optimum {opt}", file=sys.stderr)
            return 1
        if not (bnb_finds(g, opt) and ascent_matches(g) and forest_matches(g, opt)):
            return 1
        forests += is_forest(g)
        checked += 1
    if not ascent_matches(gen_gnm(500, 1500, 7)):
        return 1
    limit = exact.TABLE_NODE_LIMIT
    for args, pinned in LARGER_GNM:
        g = gen_gnm(*args)
        opt, labeling, finished = exact.subset_dp(g)
        if not (finished and opt == sl_value(g, labeling) == pinned):
            print(f"mismatch on gnm{args}: subset_dp {opt}, pinned {pinned}", file=sys.stderr)
            return 1
        for table_limit in (limit, 1):
            exact.TABLE_NODE_LIMIT = table_limit
            if not bnb_finds(g, opt):
                return 1
        exact.TABLE_NODE_LIMIT = limit
        checked += 1
    print(f"{checked} graphs checked, {forests} of them forests")
    rng = random.Random(0)
    runs = 0
    for seed in range(KEPT_STATE_GRAPHS):
        n = rng.randint(8, 24)
        if not kept_state_matches(gen_gnm(n, rng.randint(n, n * (n - 1) // 2), seed)):
            return 1
        runs += 1
    print(f"{runs} Lagrangian runs checked")
    return 0 if (matrices == 19_767 and starts == 124_470 and ascents == PROVE_SMALL_ASCENTS
                 and checked == 33_867 + len(LARGER_GNM) and forests == FORESTS_6
                 and runs == KEPT_STATE_GRAPHS) else 1


if __name__ == "__main__":
    sys.exit(main())
