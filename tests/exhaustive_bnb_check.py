"""Exhaustive check of the exact solvers on every labeled graph with 1 to 6
nodes (33,867 graphs): the subset dynamic program against the brute-force
reference, and branch-and-bound, with no starting incumbent so that the
search must find each optimum itself, against the program.  The tier-1
tests stop at 5 nodes; this script takes about 15 s, and pytest does not
collect it.

    PYTHONPATH=src python tests/exhaustive_bnb_check.py

It prints the number of graphs checked and exits 1 on the first mismatch.
"""

import sys

from slabel import exact
from slabel.core import sl_value
from test_exact import all_graphs, brute_force, no_starting_incumbent  # this script's directory


def main() -> int:
    exact.starting_heuristic = no_starting_incumbent
    checked = 0
    for g in all_graphs(6):
        opt, labeling, finished = exact.subset_dp(g)
        if not (finished and opt == sl_value(g, labeling) == brute_force(g)[0]):
            print(f"mismatch on n={g.n} edges={list(g.edges)}: subset_dp {opt}, "
                  f"brute force {brute_force(g)[0]}", file=sys.stderr)
            return 1
        res = exact.branch_and_bound(g)
        if not (res.stats.proven_optimal
                and res.lower_bound == res.upper_bound == sl_value(g, res.labeling) == opt):
            print(f"mismatch on n={g.n} edges={list(g.edges)}: optimum {opt}, B&B "
                  f"[{res.lower_bound}, {res.upper_bound}]", file=sys.stderr)
            return 1
        checked += 1
    print(f"{checked} graphs checked")
    return 0 if checked == 33_867 else 1


if __name__ == "__main__":
    sys.exit(main())
