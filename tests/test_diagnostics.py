"""Metrics, penalty-weight floor, RE search, prescriptions, spectral bounds."""
import re

import numpy as np
import pytest

from heatlasso.designs import DesignSpec, make_covariance
from heatlasso.diagnostics import (
    brute_force_re,
    evaluate_fit,
    flow_time_prescription,
    graph_conductance,
    lambda_lower_bound,
    verify_spectral_bounds,
)
from heatlasso.errors import DimensionTooLarge, ShapeMismatch
from heatlasso.graphs import (
    Graph,
    complete_graph,
    figure_graph,
    path_graph,
    sample_clustered_network,
)
from heatlasso.heatflow import exact_heat_kernel
from heatlasso.penalty import GroupStructure, group_lasso_penalty, penalty_value


def random_connected_graph(rng, p):
    edges = [(i, i + 1) for i in range(p - 1)]
    mask = rng.random((p, p)) < 0.35
    edges += [(i, j) for i in range(p) for j in range(i + 1, p) if mask[i, j]]
    return Graph(p, edges=edges)


class TestEvaluateFit:
    def test_perfect_fit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 5))
        beta = np.array([1.0, 0.0, -2.0, 0.0, 0.5])
        m = evaluate_fit(beta, beta, X)
        assert (m.prediction_error, m.estimation_error) == (0.0, 0.0)
        assert (m.sensitivity, m.specificity) == (1.0, 1.0)

    def test_all_zero_estimate(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4))
        beta_star = np.array([1.0, 0.0, 2.0, 0.0])
        m = evaluate_fit(np.zeros(4), beta_star, X)
        assert m.sensitivity == 0.0 and m.specificity == 1.0

    def test_vacuous_conventions(self):
        X = np.ones((4, 2))
        assert evaluate_fit(np.zeros(2), np.zeros(2), X).sensitivity == 1.0
        assert evaluate_fit(np.ones(2), np.ones(2), X).specificity == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 6))
        beta_hat = rng.standard_normal(6) * (rng.random(6) < 0.6)
        beta_star = rng.standard_normal(6) * (rng.random(6) < 0.6)
        m1 = evaluate_fit(beta_hat, beta_star, X)
        perm = rng.permutation(6)
        m2 = evaluate_fit(beta_hat[perm], beta_star[perm], X[:, perm])
        assert m1.prediction_error == pytest.approx(m2.prediction_error, rel=1e-12)
        assert m1.estimation_error == pytest.approx(m2.estimation_error, rel=1e-12)
        assert (m1.sensitivity, m1.specificity) == (m2.sensitivity, m2.specificity)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            evaluate_fit(np.zeros(3), np.zeros(4), np.ones((5, 3)))

    def test_json_and_csv_row(self):
        m = evaluate_fit(np.ones(2), np.ones(2), np.ones((3, 2)))
        import json
        d = json.loads(m.to_json())
        assert set(d) == {"prediction_error", "estimation_error",
                          "sensitivity", "specificity"}
        assert m.csv_row() == [0.0, 0.0, 1.0, 1.0]


class TestLambdaLowerBound:
    def test_orthonormal_design_closed_form(self):
        # columns scaled so each single-column operator norm is 1
        n, p = 16, 4
        X = np.linalg.qr(np.random.default_rng(3).standard_normal((n, p)))[0]
        X *= np.sqrt(n)
        groups = GroupStructure.from_sizes([1, 1, 1, 1])
        out = lambda_lower_bound(X, sigma=2.0, eta=np.exp(-1.0), groups=groups)
        assert out == pytest.approx(2.0 / np.sqrt(n) * 3.0, rel=1e-10)

    def test_eta_near_one_drops_log_term(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 6))
        groups = GroupStructure.from_sizes([3, 3])
        out = lambda_lower_bound(X, 1.0, 1 - 1e-9, groups)
        worst = max(np.sqrt(np.linalg.norm(X[:, m].T @ X[:, m] / 30, 2))
                    for m in ([0, 1, 2], [3, 4, 5]))
        assert out == pytest.approx(worst / np.sqrt(30), rel=1e-4)

    def test_linear_in_sigma(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 4))
        groups = GroupStructure.from_sizes([2, 2])
        one = lambda_lower_bound(X, 1.0, 0.1, groups)
        assert lambda_lower_bound(X, 2.0, 0.1, groups) == pytest.approx(2 * one)

    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((25, 4))
        groups = GroupStructure.from_sizes([2, 2])
        etas = [0.01, 0.05, 0.2, 0.5, 0.9]
        vals = [lambda_lower_bound(X, 1.0, e, groups) for e in etas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("call, match", [
    (lambda: lambda_lower_bound(np.ones((5, 4)), 1.0, 0.1, GroupStructure.from_sizes([2, 3])),
     "X has 4 columns, groups cover 5"),
    (lambda: brute_force_re(np.eye(4), GroupStructure.from_sizes([2, 3]), 1),
     r"M has shape \(4, 4\), groups cover p=5"),
    (lambda: brute_force_re(np.ones((5, 4)), GroupStructure.from_sizes([2, 2]), 1),
     r"M has shape \(5, 4\), groups cover p=4"),
], ids=["lambda_lower_bound", "brute_force_re_square", "brute_force_re_not_square"])
def test_shape_against_the_groups_is_refused(call, match):
    with pytest.raises(ShapeMismatch, match=match):
        call()


class TestBruteForceRE:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_refused(self, bad):
        # such an M gave a restricted eigenvalue of 0.0, with no error
        M = np.eye(4)
        M[2, 2] = bad
        with pytest.raises(ValueError, match=re.escape(f"M holds {bad} at entry (2, 2)")):
            brute_force_re(M, GroupStructure.from_sizes([2, 2]), 1, n_directions=100)

    def test_identity(self):
        groups = GroupStructure.from_sizes([3, 3])
        est = brute_force_re(np.eye(6), groups, s=1, n_directions=20_000,
                             refine_steps=120)
        assert est >= 1.0 - 0.02

    def test_zero_matrix(self):
        groups = GroupStructure.from_sizes([2, 2])
        assert brute_force_re(np.zeros((4, 4)), groups, s=1,
                              n_directions=2000, refine_steps=20) == 0.0

    def test_equicorrelation_versus_sigma_min(self):
        spec = DesignSpec(kind="block_equicorr", sizes=(3, 3), n=4,
                          noise_sigma=0.0, rhos=(0.5, 0.5),
                          beta_scheme=(("zero",), ("zero",)))
        M = make_covariance(spec)
        groups = GroupStructure.from_sizes([3, 3])
        est = brute_force_re(M, groups, s=1, n_directions=20_000,
                             refine_steps=120)
        assert est >= np.linalg.eigvalsh(M).min() - 0.02

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            brute_force_re(np.eye(13), GroupStructure.from_sizes([13]), 1)
        with pytest.raises(DimensionTooLarge):
            brute_force_re(np.eye(6), GroupStructure.from_sizes([1] * 6), 1)


class TestFlowTimePrescription:
    def test_figure_graph_reference_value(self):
        t, steps = flow_time_prescription(figure_graph(), n=100, p=100)
        assert t == pytest.approx(3.0 * 0.5 * np.log(100), rel=1e-12)
        assert t == pytest.approx(6.908, abs=1e-3)
        assert steps == pytest.approx(1 * t)

    def test_unit_logs(self):
        t, _ = flow_time_prescription(figure_graph(), n=int(np.e) + 1, p=2)
        # max(log n, log p) with n = 3: log 3; easier exact check at n = p = e
        t_e, _ = flow_time_prescription(figure_graph(), np.e, np.e)
        assert t_e == pytest.approx(3.0 / 2.0, rel=1e-12)
        assert t >= t_e

    def test_epsilon_form(self):
        g = figure_graph()
        t, _ = flow_time_prescription(g, n=50, p=3, epsilon=0.1)
        assert t == pytest.approx(3.0 / 2.0 * (np.log(3) + np.log(10)), rel=1e-12)

    def test_clustered_networks_need_short_flows(self):
        hits = 0
        trials = 50
        for seed in range(trials):
            g = sample_clustered_network([100], 0.5, seed=seed)
            t, _ = flow_time_prescription(g, n=100, p=100)
            hits += t <= 0.5
        assert hits >= 45

    def test_prescribed_time_closes_the_group_lasso_gap(self):
        # penalty at the prescribed time within 5% of the group-lasso value
        # for most unit vectors with mass in every group
        rng = np.random.default_rng(7)
        for p in (20, 50):
            sizes = [p // 2, p - p // 2]
            g = sample_clustered_network(sizes, 0.5, seed=p)
            groups = GroupStructure.from_sizes(sizes)
            t, _ = flow_time_prescription(g, n=p, p=p)
            K = exact_heat_kernel(g, t)
            ok = 0
            trials = 50
            for _ in range(trials):
                beta = rng.standard_normal(p)
                beta /= np.linalg.norm(beta)
                gl = group_lasso_penalty(beta, groups)
                ok += abs(penalty_value(beta, K) - gl) <= 0.05 * gl
            assert ok >= 0.9 * trials


class TestSpectralBounds:
    def test_complete_graph(self):
        rep = verify_spectral_bounds(complete_graph(5))
        assert rep.laplacian_degree_ok  # 5 <= 8
        assert rep.laplacian_degree_slack == pytest.approx(3.0, abs=1e-9)
        # Stanley bound is tight on K_5: sigma_max(A) = 4 = (sqrt(81)-1)/2
        assert rep.adjacency_edge_ok
        assert rep.adjacency_edge_slack == pytest.approx(0.0, abs=1e-9)
        assert rep.cheeger_ok
        assert rep.all_ok

    def test_empty_graph(self):
        rep = verify_spectral_bounds(Graph(4))
        assert rep.all_ok
        assert rep.conductance is None  # disconnected, no Cheeger check

    def test_path_graph_cheeger(self):
        rep = verify_spectral_bounds(path_graph(4))
        assert rep.cheeger_ok and rep.cheeger_slack > 0
        # cutting one end edge of P_4: crossing 1, min volume 1
        assert rep.conductance == pytest.approx(1.0 / 3.0)

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 11)))
            assert verify_spectral_bounds(g).all_ok

    def test_conductance_cap(self):
        with pytest.raises(DimensionTooLarge):
            graph_conductance(complete_graph(13))

    def test_dense_limit_cap(self):
        from heatlasso.graphs import DENSE_LIMIT

        with pytest.raises(DimensionTooLarge):
            verify_spectral_bounds(Graph(DENSE_LIMIT + 1))

    def test_dense_limit_read_at_call_time(self, monkeypatch):
        # the limit spectral_decompose reads, not a copy bound at import
        from heatlasso import graphs

        monkeypatch.setattr(graphs, "DENSE_LIMIT", 4)
        with pytest.raises(DimensionTooLarge):
            verify_spectral_bounds(complete_graph(5))
