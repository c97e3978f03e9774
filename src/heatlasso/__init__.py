"""heatlasso: latent-group-sparse regression through a heat-flow penalty.

The penalty smooths the squared coefficients with the graph heat semigroup
e^{-tL} and sums their square roots, interpolating between the l1 norm
(t = 0) and the group lasso (t large, groups = graph components). The
semigroup is estimated once per fit by continuous-time random walks and
reused across every optimization step.
"""

__version__ = "0.1.0"

from .designs import DesignSpec, default_gff_mass, make_covariance, sample_design_and_response
from .diagnostics import (
    MetricsReport,
    brute_force_re,
    evaluate_fit,
    flow_time_prescription,
    lambda_lower_bound,
    verify_spectral_bounds,
)
from .errors import HeatLassoError
from .graphs import (
    Graph,
    LaplacianSpectrum,
    connected_components,
    estimate_graph,
    estimate_graph_from_data,
    laplacian,
    sample_block_graph,
    sample_clustered_network,
    spectral_decompose,
)
from .heatflow import (
    HeatFlowMatrix,
    SmoothingOperator,
    exact_heat_kernel,
    heatflow_apply,
    load_heatflow,
    save_heatflow,
    simulate_heat_flow,
)
from .optimize import (
    FitConfig,
    FitResult,
    block_cd,
    cross_validate,
    loss_and_grad,
    subgradient_descent,
    threshold_kmeans,
)
from .penalty import (
    GroupStructure,
    group_averaging_kernel,
    group_lasso_penalty,
    penalty_gap_bound,
    penalty_subgradient,
    penalty_value,
)

__all__ = [
    "DesignSpec", "FitConfig", "FitResult", "Graph", "GroupStructure",
    "HeatFlowMatrix", "HeatLassoError", "LaplacianSpectrum", "MetricsReport",
    "SmoothingOperator",
    "block_cd", "brute_force_re", "connected_components", "cross_validate",
    "default_gff_mass", "estimate_graph", "estimate_graph_from_data",
    "evaluate_fit",
    "exact_heat_kernel", "flow_time_prescription", "group_averaging_kernel",
    "group_lasso_penalty", "heatflow_apply", "lambda_lower_bound",
    "laplacian", "load_heatflow", "loss_and_grad", "make_covariance",
    "penalty_gap_bound", "penalty_subgradient", "penalty_value",
    "sample_block_graph", "sample_clustered_network",
    "sample_design_and_response", "save_heatflow", "simulate_heat_flow",
    "spectral_decompose", "subgradient_descent", "threshold_kmeans",
    "verify_spectral_bounds",
]
