"""Solvers, lower bounds and benchmarks for the S-labeling problem.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from slabel.exact import branch_and_bound``.
"""

__version__ = "0.1.0"
