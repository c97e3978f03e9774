"""Penalty values, subgradients, group-lasso limit, and the gap bound."""
import numpy as np
import pytest

from heatlasso.errors import LengthMismatch
from heatlasso.graphs import (
    Graph,
    complete_graph,
    connected_components,
    disjoint_union,
    figure_graph,
    sample_block_graph,
    spectral_decompose,
)
from heatlasso.heatflow import SmoothingOperator, exact_heat_kernel, simulate_heat_flow
from heatlasso.optimize import FitConfig, block_cd, subgradient_descent
from heatlasso.penalty import (
    GroupStructure,
    group_averaging_kernel,
    group_lasso_penalty,
    penalty_gap_bound,
    penalty_subgradient,
    penalty_value,
)

FIG = figure_graph()
FIG_GROUPS = GroupStructure(np.array([1, 1, 2]))


def random_disconnected_graph(rng, max_p=16):
    sizes = rng.integers(2, 6, size=int(rng.integers(2, 4)))
    parts = []
    for s in sizes:
        mask = rng.random((s, s)) < 0.8
        edges = [(i, j) for i in range(s) for j in range(i + 1, s) if mask[i, j]]
        # force connectivity with a path so components equal the blocks
        edges += [(i, i + 1) for i in range(s - 1)]
        parts.append(Graph(int(s), edges=edges))
    return disjoint_union(*parts)


class TestGroupStructure:
    def test_from_sizes(self):
        g = GroupStructure.from_sizes([2, 3])
        assert g.assignment.tolist() == [1, 1, 2, 2, 2]
        assert g.sizes.tolist() == [2, 3]
        assert GroupStructure.from_sizes(np.array([2, 3])).sizes.tolist() == [2, 3]

    @pytest.mark.parametrize("sizes", [[4, 4.6], [4, 4.0], [True, 2]])
    def test_from_sizes_refuses_non_integers(self, sizes):
        with pytest.raises(ValueError, match="group sizes must be integers >= 1"):
            GroupStructure.from_sizes(sizes)

    def test_labels_must_be_contiguous(self):
        for bad in ([1, 3, 3], [0, 1, 1], [2, 2], [-1, 1]):
            with pytest.raises(ValueError, match="contiguous 1..k"):
                GroupStructure(np.array(bad))

    def test_sizes_and_members_of_interleaved_labels(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            assignment = rng.permutation(np.repeat(np.arange(1, 6), rng.integers(1, 5, 5)))
            g = GroupStructure(assignment)
            assert g.k == 5 and g.p == assignment.size
            for label in range(1, 6):
                assert g.sizes[label - 1] == np.count_nonzero(assignment == label)
                assert np.array_equal(g.members(label), np.flatnonzero(assignment == label))

    def test_active_groups(self):
        g = GroupStructure.from_sizes([2, 2])
        assert g.active_groups(np.array([0.0, 1.0, 0.0, 0.0])).tolist() == [1]

    def test_member_label_bounds(self):
        g = GroupStructure.from_sizes([2, 2])
        assert g.members(1).tolist() == [0, 1]
        with pytest.raises(ValueError):
            g.members(0)
        with pytest.raises(ValueError):
            g.members(3)


class TestPenaltyValue:
    def test_constant_vector_is_preserved(self):
        for t in (0.0, 0.3, 2.0, 17.0):
            K = exact_heat_kernel(FIG, t)
            assert penalty_value(np.ones(3), K) == pytest.approx(3.0, abs=1e-12)

    def test_time_zero_is_l1(self):
        rng = np.random.default_rng(0)
        K0 = exact_heat_kernel(FIG, 0.0)
        for _ in range(10):
            beta = rng.standard_normal(3)
            assert penalty_value(beta, K0) == pytest.approx(
                np.abs(beta).sum(), rel=1e-14)

    def test_figure_graph_unit_vector(self):
        beta = np.array([1.0, 0.0, 0.0])
        val = penalty_value(beta, exact_heat_kernel(FIG, 1.0))
        e = np.exp(-2.0)
        assert val == pytest.approx(np.sqrt((1 + e) / 2) + np.sqrt((1 - e) / 2),
                                    abs=1e-12)
        assert val == pytest.approx(1.41096, abs=1e-5)
        assert penalty_value(beta, exact_heat_kernel(FIG, 50.0)) == pytest.approx(
            np.sqrt(2), abs=1e-10)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(1)
        K = exact_heat_kernel(FIG, 0.8)
        beta = rng.standard_normal(3)
        base = penalty_value(beta, K)
        for c in (-3.0, -0.25, 0.5, 2.0, 11.0):
            assert penalty_value(c * beta, K) == pytest.approx(abs(c) * base,
                                                               rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        mask = rng.random((6, 6)) < 0.5
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if mask[i, j]]
        g = Graph(6, edges=edges)
        perm = rng.permutation(6)
        g_perm = Graph(6, edges=[(perm[i], perm[j]) for i, j in edges])
        beta = rng.standard_normal(6)
        beta_perm = np.empty(6)
        beta_perm[perm] = beta
        v1 = penalty_value(beta, exact_heat_kernel(g, 0.9))
        v2 = penalty_value(beta_perm, exact_heat_kernel(g_perm, 0.9))
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(3)
        ok = 0
        trials = 100
        for _ in range(trials):
            p = int(rng.integers(3, 11))
            mask = rng.random((p, p)) < 0.5
            g = Graph(p, edges=[(i, j) for i in range(p)
                                for j in range(i + 1, p) if mask[i, j]])
            beta = rng.standard_normal(p)
            beta /= max(np.linalg.norm(beta), 1.0)
            t = float(rng.uniform(0.2, 1.5))
            H = simulate_heat_flow(g, t, B=10_000, seed=int(rng.integers(2 ** 31)))
            exact = penalty_value(beta, exact_heat_kernel(g, t))
            ok += abs(penalty_value(beta, H) - exact) <= 0.02
        assert ok >= 0.95 * trials

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            penalty_value(np.ones(2), exact_heat_kernel(FIG, 1.0))


class TestGroupLasso:
    def test_singleton_groups_give_l1(self):
        groups = GroupStructure.from_sizes([1, 1, 1])
        beta = np.array([0.5, -2.0, 0.25])
        assert group_lasso_penalty(beta, groups) == pytest.approx(2.75)

    def test_figure_groups(self):
        assert group_lasso_penalty(np.array([1.0, 0, 0]), FIG_GROUPS) == \
            pytest.approx(np.sqrt(2))
        assert group_lasso_penalty(np.ones(3), FIG_GROUPS) == pytest.approx(3.0)

    def test_averaging_kernel_reproduces_group_lasso(self):
        rng = np.random.default_rng(4)
        groups = GroupStructure.from_sizes([3, 2, 4])
        K = group_averaging_kernel(groups)
        for _ in range(10):
            beta = rng.standard_normal(9)
            assert penalty_value(beta, K) == pytest.approx(
                group_lasso_penalty(beta, groups), rel=1e-12)

    def test_averaging_kernel_is_long_time_limit(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        groups = GroupStructure.from_sizes([3, 2])
        K_limit = exact_heat_kernel(g, 60.0)
        assert np.abs(K_limit - group_averaging_kernel(groups)).max() < 1e-10


class TestSubgradient:
    def test_time_zero_is_sign(self):
        K0 = exact_heat_kernel(FIG, 0.0)
        beta = np.array([2.5, -1.0, 0.75])
        assert np.allclose(penalty_subgradient(beta, K0), np.sign(beta))

    def test_long_time_matches_group_norm_gradient(self):
        edge = Graph(2, [(0, 1)])
        K = exact_heat_kernel(edge, 50.0)
        beta = np.array([3.0, 4.0])
        expected = np.sqrt(2) * beta / np.linalg.norm(beta)
        assert np.abs(penalty_subgradient(beta, K) - expected).max() < 1e-6
        assert np.allclose(expected, [0.84853, 1.13137], atol=1e-5)

    def test_zero_vector_maps_to_zero(self):
        K = exact_heat_kernel(FIG, 1.0)
        assert np.all(penalty_subgradient(np.zeros(3), K) == 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        g = complete_graph(6)
        K = exact_heat_kernel(g, 0.7)
        checked = 0
        while checked < 50:
            beta = rng.standard_normal(6)
            h = K @ (beta * beta)
            if np.abs(h).min() < 0.01:
                continue
            checked += 1
            grad = penalty_subgradient(beta, K)
            step = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = step
                fd = (penalty_value(beta + e, K) - penalty_value(beta - e, K)) / (2 * step)
                assert abs(fd - grad[i]) <= 1e-4 * max(abs(grad[i]), 1e-12)


class TestWalkTableSubgradient:
    """The Monte Carlo kernel K^ of a walk table is not symmetric, so the
    penalty's gradient needs K^T r; K^ r is off by tens of percent here."""

    @staticmethod
    def central_differences(beta, H, step=1e-6):
        fd = np.empty(beta.size)
        for i in range(beta.size):
            e = np.zeros(beta.size)
            e[i] = step
            fd[i] = (penalty_value(beta + e, H) - penalty_value(beta - e, H)) / (2 * step)
        return fd

    @staticmethod
    def optimizer_penalty_term(fit, beta, H, **cfg):
        # with X = 0 the loss is flat, so one unit step moves beta by exactly
        # the penalty term the optimizer uses
        p = beta.size
        res = fit(np.zeros((5, p)), np.zeros(5), H,
                  FitConfig(lam=1.0, alpha0=1.0, rate_protocol="constant",
                            max_iters=1, eps_tol=0.0, **cfg), beta0=beta)
        return beta - res.beta_hat

    def test_matches_central_differences(self):
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        H = simulate_heat_flow(g, 1.0, B=20, seed=4)
        rng = np.random.default_rng(7)
        for _ in range(5):
            beta = rng.standard_normal(30)
            fd = self.central_differences(beta, H)
            grads = [
                penalty_subgradient(beta, H),
                penalty_subgradient(beta, SmoothingOperator(table=H)),
                self.optimizer_penalty_term(subgradient_descent, beta, H),
                self.optimizer_penalty_term(block_cd, beta, H, block_size=30),
            ]
            for grad in grads:
                assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


class TestGapBound:
    def test_vanishes_at_long_times(self):
        spec = spectral_decompose(FIG)
        beta = np.array([1.0, 0.2, -0.4])
        bounds = [penalty_gap_bound(beta, t, spec, FIG_GROUPS).bound
                  for t in (1.0, 5.0, 40.0)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-15

    def test_zero_vector(self):
        out = penalty_gap_bound(np.zeros(3), 1.0, spectral_decompose(FIG), FIG_GROUPS)
        assert out.bound == 0.0 and out.tail_mass == 0.0 and out.precondition_ok

    def test_singleton_groups_have_no_tail(self):
        # p = k: an edgeless graph, whose kernel is I at every t (and which
        # has no spectral gap), smooths nothing, so the gap is 0
        g, groups = Graph(3), GroupStructure.from_sizes([1, 1, 1])
        beta = np.array([1.0, -0.2, 0.4])
        out = penalty_gap_bound(beta, 2.0, spectral_decompose(g), groups)
        assert out.bound == 0.0 and out.tail_mass == 0.0 and out.precondition_ok
        assert penalty_value(beta, exact_heat_kernel(g, 2.0)) == group_lasso_penalty(beta, groups)

    def test_figure_graph_reference_values(self):
        beta = np.array([1.0, 0.0, 0.0])
        out = penalty_gap_bound(beta, 3.0, spectral_decompose(FIG), FIG_GROUPS)
        assert out.tail_mass == pytest.approx(np.exp(-6.0), rel=1e-12)
        assert out.tail_mass == pytest.approx(0.00248, abs=1e-5)
        assert out.bound == pytest.approx(3 * np.sqrt(np.exp(-6.0)), rel=1e-12)
        assert out.bound == pytest.approx(0.14934, abs=1e-4)
        assert out.precondition_ok
        measured = abs(penalty_value(beta, exact_heat_kernel(FIG, 3.0))
                       - group_lasso_penalty(beta, FIG_GROUPS))
        assert measured <= out.bound

    def test_bound_dominates_gap_on_random_graphs(self):
        rng = np.random.default_rng(6)
        t_grid = (0.5, 1.0, 2.0, 4.0, 8.0)
        for _ in range(20):
            g = random_disconnected_graph(rng)
            spec = spectral_decompose(g)
            _, labels = connected_components(g)
            groups = GroupStructure(labels + 1)  # labels are in [0, count)
            betas = rng.standard_normal((100, g.p))
            betas /= np.maximum(np.linalg.norm(betas, axis=1, keepdims=True), 1.0)
            max_gap = []
            for t in t_grid:
                K = exact_heat_kernel(g, t)
                gaps = []
                for beta in betas:
                    gap = abs(penalty_value(beta, K)
                              - group_lasso_penalty(beta, groups))
                    out = penalty_gap_bound(beta, t, spec, groups)
                    if out.precondition_ok:
                        assert gap <= out.bound + 1e-12
                    gaps.append(gap)
                max_gap.append(max(gaps))
            for a, b in zip(max_gap, max_gap[1:]):
                assert b <= a + 1e-9
