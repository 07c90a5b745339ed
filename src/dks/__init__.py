"""Dense k-subgraph discovery via a Lovász-extension relaxation.

The pipeline: load a graph, solve the convex relaxation with linearized ADMM,
round by top-k projection or Frank-Wolfe refinement, and benchmark against
greedy / truncated-power-method / rank-1 baselines with an a-posteriori
edge-density upper bound.
"""

from .baselines import (
    SpectralPair,
    density_upper_bound,
    greedy_feige,
    rank1_dks,
    top_two_singular,
    truncated_power_method,
)
from .graph import (
    EdgeListParseError,
    Graph,
    VertexSet,
    adjacency_matvec,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,
    load_edge_list,
    subgraph_weight,
    write_edge_list,
)
from .oracles import PlantedInstance, brute_force_dks, generate_planted
from .prox import CappedSimplexParams, cardinality_gap, prox_capped_simplex, shrinkage
from .rounding import FrankWolfeResult, frank_wolfe_refine, project_topk
from .solver import (
    NumericalDivergenceError,
    SolverReport,
    lovasz_objective,
    solve_lovasz_relaxation,
)

__version__ = "0.1.0"
