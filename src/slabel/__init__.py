"""Solvers, lower bounds and benchmarks for the S-labeling problem."""

from .core import (
    Graph,
    Labeling,
    build_graph,
    enumerate_triangles,
    exchange_delta,
    max_degree,
    sl_value,
)
from .dual_ascent import (
    AscentStep,
    DualSolution,
    check_dual_feasible,
    dual_ascent_extended,
    dual_ascent_simple,
)
from .exact import (
    BnBResult,
    SearchStats,
    SizeLimitError,
    branch_and_bound,
    brute_force,
)
from .heuristics import greedy_label, local_search, starting_heuristic
from .instances import (
    InstanceFormatError,
    InstanceSpec,
    SplitMix64,
    gen_bipartite,
    gen_caterpillar,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_perfect_nary,
    gen_random_tree,
    read_instance,
    read_labeling,
    read_matrix_market_pattern,
    write_instance,
    write_labeling,
)
from .lagrangian import (
    LagrangianResult,
    Multipliers,
    SubgradientParams,
    run_subgradient,
    solve_d_subproblem,
    solve_x_subproblem,
)
from .assignment import hungarian_min
from .special_graphs import (
    Structure,
    StructureKind,
    detect_structure,
    formula_nary,
    formula_path_cycle,
    label_perfect_nary,
    solve_cycle,
    solve_path,
    solve_perfect_nary,
)

__version__ = "0.1.0"
