"""One table over every public scalar argument: each is a number (not a bool
or a string), a count or a flag inside its interval, refused by the error
type of its call site with a message that names the argument and the value.
numpy integer and floating scalars pass."""

import json
import os

import numpy as np
import pytest

from heatlasso.designs import (DesignSpec, default_gff_mass, make_covariance,
                               sample_design_and_response)
from heatlasso.diagnostics import brute_force_re, flow_time_prescription, lambda_lower_bound
from heatlasso.errors import InvalidProbability, InvalidQuantile, NotPositiveDefinite
from heatlasso.experiments import run_experiment
from heatlasso.figures import levelset_points, write_levelset_svg
from heatlasso.graphs import (
    Graph,
    estimate_graph,
    estimate_graph_from_data,
    figure_graph,
    sample_block_graph,
    sample_clustered_network,
    spectral_decompose,
)
from heatlasso.heatflow import exact_heat_kernel, simulate_heat_flow
from heatlasso.optimize import FitConfig, cross_validate
from heatlasso.penalty import GroupStructure, penalty_gap_bound

X = np.random.default_rng(3).standard_normal((12, 3))
Y = X @ np.array([1.0, 0.0, 0.0])
GROUPS = GroupStructure.from_sizes([1, 2])
EDGE = Graph(2, [(0, 1)])
CV = dict(folds=2, cfg=FitConfig(B=5, max_iters=3))


def design(**fields):
    base = dict(kind="block_equicorr", sizes=(3, 3), n=10, noise_sigma=0.1,
                rhos=(0.5, 0.5), beta_scheme=(("zero",), ("zero",)))
    return sample_design_and_response(DesignSpec(**{**base, **fields}))


def covariance(kind, g=None, **fields):
    sizes = (2,) if kind == "gff" else (2, 2)
    spec = DesignSpec(kind=kind, sizes=sizes, n=4, noise_sigma=0.0,
                      beta_scheme=(("zero",),) * len(sizes), **fields)
    return make_covariance(spec, g)


def experiment(repeats):
    config = {"design": {"kind": "block_equicorr", "sizes": [3, 3], "n": 10,
                         "rhos": [0.5, 0.5], "beta_scheme": [["zero"], ["zero"]]},
              "fit": {"B": 5, "max_iters": 3}, "repeats": repeats}
    return run_experiment(config, "out")


# (id, name in the message, error type, call with the value, one number
# outside the interval, a numpy value inside it or None where a run would
# not apply). A flag's row takes np.bool_ as its numpy value.
ROWS = [
    ("FitConfig.lam", "lam", ValueError, lambda v: FitConfig(lam=v).validate(),
     -1.0, np.float32(0.5)),
    ("FitConfig.t", "t", ValueError, lambda v: FitConfig(t=v).validate(), -1.0, np.int64(1)),
    ("FitConfig.B", "B", ValueError, lambda v: FitConfig(B=v).validate(), 0, np.int32(20)),
    ("FitConfig.alpha0", "alpha0", ValueError, lambda v: FitConfig(alpha0=v).validate(),
     0.0, np.float32(0.5)),
    ("FitConfig.max_iters", "max_iters", ValueError,
     lambda v: FitConfig(max_iters=v).validate(), 0, np.int64(5)),
    ("FitConfig.eps_tol", "eps_tol", ValueError, lambda v: FitConfig(eps_tol=v).validate(),
     -1e-6, np.float64(0.0)),
    ("FitConfig.seed", "seed", ValueError, lambda v: FitConfig(seed=v).validate(),
     1.5, np.int64(-5)),
    ("FitConfig.block_size", "block_size", ValueError,
     lambda v: FitConfig(block_size=v).validate(p=10), 11, np.int64(10)),
    ("DesignSpec.sizes", "sizes", ValueError, lambda v: design(sizes=(3, v)),
     0, np.int64(2)),
    ("DesignSpec.n", "n", ValueError, lambda v: design(n=v), 0, np.int32(4)),
    ("DesignSpec.seed", "seed", ValueError, lambda v: design(seed=v), 2.5, np.int64(9)),
    ("DesignSpec.noise_sigma", "noise_sigma", ValueError, lambda v: design(noise_sigma=v),
     -0.1, np.float32(0.5)),
    ("DesignSpec.beta_scheme.lo", "beta scheme", ValueError,
     lambda v: design(beta_scheme=(("uniform", v, 0.7), ("zero",))), 0.8, np.float32(0.5)),
    ("DesignSpec.beta_scheme.hi", "beta scheme", ValueError,
     lambda v: design(beta_scheme=(("uniform", 0.5, v), ("zero",))), 0.4, np.float32(0.7)),
    ("DesignSpec.rhos", "rho", NotPositiveDefinite, lambda v: design(rhos=(v, 0.5)),
     1.0, np.float32(0.5)),
    ("DesignSpec.theta", "theta", NotPositiveDefinite,
     lambda v: covariance("gff", Graph(2, [(0, 1)]), theta=v), 0.0, np.float64(0.5)),
    ("DesignSpec.a", "a", NotPositiveDefinite, lambda v: covariance("sbm_cov", a=v, b=0.1),
     1.5, np.float32(0.5)),
    ("DesignSpec.b", "b", NotPositiveDefinite, lambda v: covariance("sbm_cov", a=0.5, b=v),
     -0.1, np.float32(0.25)),
    ("simulate_heat_flow.t", "t", ValueError, lambda v: simulate_heat_flow(EDGE, v, 5),
     -1.0, np.float32(0.5)),
    ("simulate_heat_flow.B", "B", ValueError, lambda v: simulate_heat_flow(EDGE, 1.0, v),
     0, np.int32(3)),
    ("simulate_heat_flow.seed", "seed", ValueError,
     lambda v: simulate_heat_flow(EDGE, 1.0, 3, seed=v), 2 ** 63, np.int64(-5)),
    ("exact_heat_kernel.t", "t", ValueError, lambda v: exact_heat_kernel(EDGE, v),
     -1.0, np.float32(0.5)),
    ("cross_validate.lambda_grid", "lambda_grid", ValueError,
     lambda v: cross_validate(X, Y, figure_graph(), [0.1, v], [1.0], **CV), -0.1, np.float32(0.5)),
    ("cross_validate.t_grid", "t_grid", ValueError,
     lambda v: cross_validate(X, Y, figure_graph(), [0.1], [1.0, v], **CV), -0.5, np.int64(2)),
    ("cross_validate.folds", "folds", ValueError,
     lambda v: cross_validate(X, Y, figure_graph(), [0.1], [1.0], folds=v, cfg=CV["cfg"]),
     1, np.int64(2)),
    ("Graph.p", "vertex count", ValueError, lambda v: Graph(v), 0, np.int64(3)),
    ("sample_block_graph.sizes", "sizes", ValueError,
     lambda v: sample_block_graph([3, v], 0.5, 0.1), 0, np.int64(2)),
    ("GroupStructure.from_sizes", "group sizes", ValueError,
     lambda v: GroupStructure.from_sizes([2, v]), 0, np.int64(2)),
    ("GroupStructure.members", "group label", ValueError, lambda v: GROUPS.members(v),
     3, np.int64(2)),
    ("estimate_graph.alpha", "alpha", InvalidQuantile, lambda v: estimate_graph(np.eye(3), v),
     1.0, np.float32(0.5)),
    ("estimate_graph_from_data.alpha", "alpha", InvalidQuantile,
     lambda v: estimate_graph_from_data(X, v), 0.0, np.float32(0.5)),
    ("sample_block_graph.a", "a", InvalidProbability,
     lambda v: sample_block_graph([3, 3], v, 0.0), 1.5, np.float32(0.5)),
    ("sample_block_graph.b", "b", InvalidProbability,
     lambda v: sample_block_graph([3, 3], 0.9, v), -0.5, np.float32(0.1)),
    ("sample_clustered_network.xi", "xi", InvalidProbability,
     lambda v: sample_clustered_network([3, 3], v), 1.5, np.float32(0.5)),
    ("lambda_lower_bound.eta", "eta", ValueError,
     lambda v: lambda_lower_bound(X, 1.0, v, GROUPS), 1.0, np.float32(0.1)),
    ("run_experiment.repeats", "repeats", ValueError, experiment, 0, None),
    ("lambda_lower_bound.sigma", "sigma", ValueError,
     lambda v: lambda_lower_bound(X, v, 0.1, GROUPS), -1.0, np.float32(0.5)),
    ("flow_time_prescription.n", "n", ValueError,
     lambda v: flow_time_prescription(figure_graph(), v, 6), 0.5, np.int64(10)),
    ("flow_time_prescription.p", "p", ValueError,
     lambda v: flow_time_prescription(figure_graph(), 10, v), 0, np.float32(6)),
    ("flow_time_prescription.epsilon", "epsilon", ValueError,
     lambda v: flow_time_prescription(figure_graph(), 10, 6, epsilon=v), 2.0, np.float32(0.1)),
    ("penalty_gap_bound.t", "t", ValueError,
     lambda v: penalty_gap_bound(np.ones(3), v, spectral_decompose(figure_graph()), GROUPS),
     -1.0, np.float32(1.0)),
    ("brute_force_re.s", "s", ValueError, lambda v: brute_force_re(np.eye(3), GROUPS, v, 10, 5),
     0, np.int64(1)),
    ("brute_force_re.n_directions", "n_directions", ValueError,
     lambda v: brute_force_re(np.eye(3), GROUPS, 1, v, 5), 0, np.int32(10)),
    ("brute_force_re.refine_steps", "refine_steps", ValueError,
     lambda v: brute_force_re(np.eye(3), GROUPS, 1, 10, v), -1, np.int64(0)),
    ("brute_force_re.seed", "seed", ValueError,
     lambda v: brute_force_re(np.eye(3), GROUPS, 1, 10, 5, seed=v), 1.5, np.int64(3)),
    ("default_gff_mass.k", "k", ValueError, lambda v: default_gff_mass(figure_graph(), v),
     -1, np.int64(2)),
    ("Graph.allow_self_loops", "allow_self_loops", ValueError,
     lambda v: Graph(3, [(0, 0)], allow_self_loops=v), 1, np.True_),
    ("sample_block_graph.self_loops", "self_loops", ValueError,
     lambda v: sample_block_graph([3, 3], 0.5, 0.1, self_loops=v), 1, np.True_),
    ("sample_clustered_network.self_loops", "self_loops", ValueError,
     lambda v: sample_clustered_network([3, 3], 0.5, self_loops=v), 0, np.False_),
    ("sample_block_graph.seed", "seed", ValueError,
     lambda v: sample_block_graph([3, 3], 0.5, 0.1, seed=v), 1.5, np.int64(4)),
    ("sample_clustered_network.seed", "seed", ValueError,
     lambda v: sample_clustered_network([3, 3], 0.5, seed=v), 2.0, np.int32(4)),
    ("write_levelset_svg.grid_n", "grid_n", ValueError,
     lambda v: write_levelset_svg([1.0], os.devnull, grid_n=v), 1, np.int64(5)),
    ("levelset_points.points", "points", ValueError, lambda v: levelset_points(1.0, v),
     2, np.int64(5)),
]


@pytest.mark.parametrize("name, error, call, outside, inside",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_argument_rule(monkeypatch, tmp_path, name, error, call, outside, inside):
    monkeypatch.chdir(tmp_path)  # run_experiment's output directory
    if isinstance(inside, np.bool_):  # a flag: no string, NaN, None or number
        refused = ["yes", np.nan, None, outside]
    else:  # a bool is no number, and every interval here is finite
        refused = [True, np.True_, "1", np.nan, np.inf, -np.inf, outside]
    for bad in refused:
        with pytest.raises(error) as info:
            call(bad)
        message = str(info.value)
        assert message.startswith(name), (bad, message)
        shown = (repr(bad), str(bad), json.dumps(bad, default=repr))
        assert any(s in message for s in shown), (bad, message)
    if inside is not None:
        call(inside)
