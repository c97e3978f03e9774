"""Optimizers, losses, thresholding, and cross-validation."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from heatlasso import optimize
from heatlasso.errors import (
    FoldTooSmall,
    GridEmpty,
    LabelDomain,
    NonFiniteObjective,
    ShapeMismatch,
)
from heatlasso.graphs import figure_graph, sample_block_graph
from heatlasso.heatflow import SmoothingOperator, exact_heat_kernel, simulate_heat_flow
from heatlasso.optimize import (
    FitConfig,
    FitResult,
    _cd_lockstep,
    _draw_blocks,
    block_cd,
    cross_validate,
    loss_and_grad,
    subgradient_descent,
    threshold_kmeans,
)
from heatlasso.penalty import penalty_value


def well_conditioned_instance(rng, n=100, p=10, sigma=0.1):
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = X @ beta + sigma * rng.standard_normal(n)
    ls = np.linalg.lstsq(X, y, rcond=None)[0]
    return X, y, ls


class TestLoss:
    def test_zero_everything(self):
        v, g = loss_and_grad(np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        assert v == 0.0 and np.all(g == 0.0)

    def test_interpolating_fit(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(5)
        v, g = loss_and_grad(y, np.eye(5), y)
        assert v == 0.0 and np.all(g == 0.0)

    def test_hand_worked_example(self):
        v, g = loss_and_grad(np.array([2.0]), np.array([[1.0], [1.0]]),
                             np.array([1.0, 3.0]))
        assert v == pytest.approx(0.5)
        assert g[0] == pytest.approx(0.0)

    def test_logistic_basics(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        y = (rng.random(30) < 0.5).astype(float)
        v, g = loss_and_grad(np.zeros(4), X, y, kind="logistic")
        assert v == pytest.approx(np.log(2))
        assert g.shape == (4,)

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        beta = rng.standard_normal(3) * 0.5
        _, g = loss_and_grad(beta, X, y, kind="logistic")
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd = (loss_and_grad(beta + e, X, y, "logistic")[0]
                  - loss_and_grad(beta - e, X, y, "logistic")[0]) / 2e-6
            assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-8)

    def test_logistic_exact_at_large_margins(self):
        # log(1 + e^800) is 800; a probability clipped at 1e-12 gives 27.6
        v, g = loss_and_grad(np.array([1.0]), np.array([[800.0], [-800.0]]),
                             np.array([0.0, 1.0]), kind="logistic")
        assert v == 800.0
        assert g[0] == 800.0

    def test_label_domain(self):
        with pytest.raises(LabelDomain):
            loss_and_grad(np.zeros(2), np.ones((3, 2)), np.array([0.0, 2.0, 1.0]),
                          kind="logistic")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_and_grad(np.zeros(3), np.ones((4, 2)), np.zeros(4))

    @pytest.mark.parametrize("call, error, match", [
        (lambda: FitConfig(loss="hinge").validate(), ValueError, "loss must be one of"),
        (lambda: loss_and_grad(np.zeros(2), np.ones((3, 2)), np.zeros(3), kind="hinge"),
         ValueError, "unknown loss 'hinge'"),
        (lambda: subgradient_descent(np.eye(4, 3), np.ones(3), np.eye(3), FitConfig()),
         ShapeMismatch, r"X \(4, 3\), y \(3,\)"),
    ], ids=["FitConfig.loss", "loss_and_grad.kind", "fit.y_one_row_short"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestSubgradientDescent:
    def test_unpenalized_reaches_least_squares(self):
        rng = np.random.default_rng(3)
        X, y, ls = well_conditioned_instance(rng)
        cfg = FitConfig(lam=0.0, alpha0=0.5, rate_protocol="inv_sqrt",
                        max_iters=3000, eps_tol=1e-12)
        res = subgradient_descent(X, y, np.eye(10), cfg)
        assert np.linalg.norm(res.beta_hat - ls) < 1e-3

    def test_trace_invariants(self):
        rng = np.random.default_rng(4)
        X, y, _ = well_conditioned_instance(rng, n=40, p=5)
        cfg = FitConfig(lam=0.05, t=1.0, alpha0=0.05, max_iters=50,
                        eps_tol=0.0)
        res = subgradient_descent(X, y, np.eye(5), cfg)
        assert res.iterations == 50
        assert len(res.objective_trace) == res.iterations
        assert not res.converged

    def test_figure_graph_support_recovery(self):
        # small pipeline: beta* = (1, 1, 0) on the figure graph, t = 3
        K = exact_heat_kernel(figure_graph(), 3.0)
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((200, 3))
            beta_star = np.array([1.0, 1.0, 0.0])
            y = X @ beta_star + 0.1 * rng.standard_normal(200)
            cfg = FitConfig(lam=0.05, t=3.0, alpha0=0.2, max_iters=400,
                            eps_tol=1e-8, seed=seed)
            res = subgradient_descent(X, y, K, cfg)
            if np.array_equal(res.beta_thresholded != 0, [True, True, False]):
                hits += 1
        assert hits >= 95

    def test_heatflow_matrix_and_exact_kernel_agree(self):
        rng = np.random.default_rng(5)
        g = figure_graph()
        X = rng.standard_normal((150, 3))
        y = X @ np.array([1.0, 1.0, 0.0]) + 0.05 * rng.standard_normal(150)
        cfg = FitConfig(lam=0.05, t=3.0, alpha0=0.2, max_iters=300, eps_tol=1e-9)
        res_k = subgradient_descent(X, y, exact_heat_kernel(g, 3.0), cfg)
        H = simulate_heat_flow(g, 3.0, B=4000, seed=1)
        res_h = subgradient_descent(X, y, H, cfg)
        assert np.linalg.norm(res_k.beta_hat - res_h.beta_hat) < 0.05
        assert res_h.total_walk_steps == H.total_steps
        assert res_k.total_walk_steps == 0

    def test_objective_decreases_in_smooth_region(self):
        # from a start with all |h_j| >= 0.01 and a small constant rate the
        # first ten objective values go down (not asserted globally)
        rng = np.random.default_rng(6)
        K = exact_heat_kernel(figure_graph(), 0.5)
        for _ in range(20):
            X = rng.standard_normal((50, 3))
            beta0 = rng.uniform(0.8, 1.6, size=3) * rng.choice([-1, 1], size=3)
            y = X @ (beta0 + 0.3 * rng.standard_normal(3))
            assert np.abs(K @ (beta0 * beta0)).min() >= 0.01
            cfg = FitConfig(lam=0.1, t=0.5, alpha0=1e-3,
                            rate_protocol="constant", max_iters=11, eps_tol=0.0)
            res = subgradient_descent(X, y, K, cfg, beta0=beta0)
            assert np.all(np.diff(res.objective_trace[:10]) <= 1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X, y, _ = well_conditioned_instance(rng, n=30, p=4)
        cfg = FitConfig(lam=0.02, alpha0=0.1, max_iters=60, seed=5)
        a = subgradient_descent(X, y, np.eye(4), cfg)
        b = subgradient_descent(X, y, np.eye(4), cfg)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.objective_trace == b.objective_trace

    def test_scaling_by_two_is_exact(self):
        # doubling (y, beta*) doubles every float exactly at lam = 0
        rng = np.random.default_rng(8)
        X, y, _ = well_conditioned_instance(rng, n=40, p=6)
        cfg = FitConfig(lam=0.0, alpha0=0.3, rate_protocol="constant",
                        max_iters=80, eps_tol=0.0)
        res1 = subgradient_descent(X, y, np.eye(6), cfg)
        res2 = subgradient_descent(X, 2.0 * y, np.eye(6), cfg)
        assert np.array_equal(res2.beta_hat, 2.0 * res1.beta_hat)

    def test_nonfinite_objective_raises(self):
        rng = np.random.default_rng(9)
        X, y, _ = well_conditioned_instance(rng, n=50, p=5)
        cfg = FitConfig(lam=0.0, alpha0=1e6, rate_protocol="constant",
                        max_iters=400, eps_tol=0.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjective):
            subgradient_descent(X, y, np.eye(5), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(lam=-1.0).validate()
        with pytest.raises(ValueError):
            FitConfig(rate_protocol="linear").validate()
        with pytest.raises(ValueError):
            FitConfig(block_size=12).validate(p=10)
        for field in ("lam", "t", "alpha0"):
            for bad in (float("inf"), float("nan"), -1.0):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    FitConfig(**{field: bad}).validate()
        # a JSON config may hold 50.0 where an integer belongs
        for field in ("B", "max_iters", "block_size"):
            for bad in (20.0, "20", True):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    FitConfig(**{field: bad}).validate()
        FitConfig(B=np.int64(20), max_iters=np.int32(5), block_size=np.int64(2)).validate(p=10)
        for bad in (5.7, 5.0, "5", True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                FitConfig(seed=bad).validate()
        FitConfig(seed=np.int64(-5)).validate()
        X, y = np.eye(4, 3), np.ones(4)
        for seed in (5.7, True):
            for fit in (subgradient_descent, block_cd):
                with pytest.raises(ValueError, match="seed"):
                    fit(X, y, np.eye(3), FitConfig(seed=seed))
            with pytest.raises(ValueError, match="seed"):
                cross_validate(X, y, figure_graph(), [0.1], [1.0], folds=2,
                               cfg=FitConfig(seed=seed))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_refused_by_its_place(self, bad):
        # before the check, a fit on such data stopped with "loss is not finite"
        X, y = np.eye(4, 3), np.ones(4)
        X[2, 1] = bad
        for fit in (subgradient_descent, block_cd):
            with pytest.raises(ValueError, match=f"X holds {bad} at row 2, column 1 "):
                fit(X, y, np.eye(3), FitConfig())
        with pytest.raises(ValueError, match="X holds .* at row 2, column 1 "):
            cross_validate(X, y, figure_graph(), [0.1], [1.0], folds=2, cfg=FitConfig())
        X[2, 1], X[3, 0], y[1] = 0.0, bad, bad  # y is checked after X
        with pytest.raises(ValueError, match="X holds .* at row 3, column 0 "):
            subgradient_descent(X, y, np.eye(3), FitConfig())
        X[3, 0] = 0.0
        with pytest.raises(ValueError, match=f"y holds {bad} at row 1 "):
            subgradient_descent(X, y, np.eye(3), FitConfig())

    @pytest.mark.parametrize("field", ["lam", "t", "alpha0", "eps_tol"])
    @pytest.mark.parametrize("bad", [True, np.True_, "0.1", None, 1j])
    def test_real_fields_refuse_bools_and_non_numbers(self, field, bad):
        # a bool is no number, so True is not read as 1
        with pytest.raises(ValueError, match=f"{field} must be"):
            FitConfig(**{field: bad}).validate()
        FitConfig(**{field: np.float32(0.5)}).validate()
        FitConfig(**{field: np.int64(1)}).validate()

    def test_beta0_of_another_shape_is_refused(self):
        X, y = np.eye(4, 3), np.ones(4)
        with pytest.raises(ShapeMismatch, match=r"beta0 has shape \(4,\), expected \(3,\)"):
            subgradient_descent(X, y, np.eye(3), FitConfig(), beta0=np.zeros(4))

    def test_tolerances_are_validated(self):
        for bad in ({"eps_tol": -1e-6}, {"eps_tol": float("nan")}):
            with pytest.raises(ValueError, match="eps_tol"):
                FitConfig(**bad).validate()
        FitConfig(eps_tol=0.0).validate()

    def test_ignores_block_size_and_seed(self):
        X, y, H, _ = TestLockstep.instance("squared_error", 3)
        cfg = FitConfig(lam=0.1, alpha0=0.05, max_iters=50, eps_tol=0.0)
        want = subgradient_descent(X, y, H, cfg)
        # block_size 99 > p would be rejected by block CD
        for change in ({"block_size": 2}, {"block_size": 99}, {"seed": 9}):
            res = subgradient_descent(X, y, H, replace(cfg, **change))
            assert np.array_equal(res.beta_hat, want.beta_hat)
            assert res.objective_trace == want.objective_trace

    def test_custom_starting_point(self):
        rng = np.random.default_rng(21)
        X, y, ls = well_conditioned_instance(rng, n=50, p=4)
        cfg = FitConfig(lam=0.0, alpha0=0.4, rate_protocol="constant",
                        max_iters=200, eps_tol=1e-12)
        res = subgradient_descent(X, y, np.eye(4), cfg, beta0=ls)
        assert res.iterations == 1 and res.converged
        res_cd = block_cd(X, y, np.eye(4),
                          FitConfig(lam=0.0, alpha0=0.4, max_iters=1,
                                    eps_tol=0.0, block_size=4), beta0=ls)
        assert np.linalg.norm(res_cd.beta_hat - ls) < 1e-10


class TestBlockCD:
    def test_full_block_trajectory_equals_subgradient_descent(self):
        # block CD whose block is all p coordinates is subgradient descent,
        # bit for bit, on an exact dense kernel and on a walk table (p > 8B)
        X, y, H, _ = TestLockstep.instance("squared_error", 3)
        p = X.shape[1]
        K = exact_heat_kernel(sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3), 1.0)
        assert SmoothingOperator.compile(H)._table is not None
        cfg = FitConfig(lam=0.1, alpha0=0.05, rate_protocol="constant",
                        max_iters=200, eps_tol=0.0, seed=3)
        for semigroup in (K, H):
            sd = subgradient_descent(X, y, semigroup, cfg)
            assert sd.iterations == 200
            for block_size in (None, p):
                cd = block_cd(X, y, semigroup, replace(cfg, block_size=block_size))
                assert np.array_equal(cd.beta_hat, sd.beta_hat)
                assert cd.objective_trace == sd.objective_trace

    def test_single_coordinate_blocks_reach_least_squares(self):
        rng = np.random.default_rng(11)
        X, y, ls = well_conditioned_instance(rng, n=80, p=8)
        cfg = FitConfig(lam=0.0, alpha0=0.5, rate_protocol="constant",
                        max_iters=6000, eps_tol=0.0, block_size=1, seed=1)
        res = block_cd(X, y, np.eye(8), cfg)
        assert np.linalg.norm(res.beta_hat - ls) < 1e-2

    def test_determinism(self):
        rng = np.random.default_rng(12)
        X, y, _ = well_conditioned_instance(rng, n=30, p=5)
        cfg = FitConfig(lam=0.01, alpha0=0.1, max_iters=40, block_size=2, seed=9)
        a = block_cd(X, y, np.eye(5), cfg)
        b = block_cd(X, y, np.eye(5), cfg)
        assert np.array_equal(a.beta_hat, b.beta_hat)

    def test_restricted_update_touches_only_the_block(self):
        rng = np.random.default_rng(13)
        X, y, _ = well_conditioned_instance(rng, n=30, p=6)
        cfg = FitConfig(lam=0.05, alpha0=0.1, max_iters=1, eps_tol=0.0,
                        block_size=2, seed=4)
        res = block_cd(X, y, np.eye(6), cfg)
        assert np.count_nonzero(res.beta_hat) <= 2
        # lockstep runs of 9 columns, each cut after every iteration: blocks
        # of 8 (72 >= p coordinates, the full products with masked steps) and
        # of 2 (18 < p, gathered rows), on a dense (B = 20) and a table-backed
        # (B = 3) operator. From one iteration to the next, a column's
        # coordinates outside that iteration's block stay the same bits.
        X, y, _, folds = TestLockstep.instance("squared_error", 3)
        n, p = X.shape
        lams, w, _, seeds = TestLockstep.cells(n, folds)
        iters = 12
        for B in (20, 3):
            op = SmoothingOperator.compile(TestLockstep.instance("squared_error", B)[2])
            assert (op.KT is None) == (B == 3)
            for q in (8, 2):
                cfg = FitConfig(alpha0=0.05, rate_protocol="constant", eps_tol=0.0,
                                block_size=q)
                rngs = [np.random.default_rng(optimize._seed_sequence(s, 0xB10C))
                        for s in seeds]
                blocks = _draw_blocks(rngs, iters, p, q)
                before = np.zeros((p, lams.size))
                for i in range(iters):
                    after = _cd_lockstep(X, y[:, None], op, replace(cfg, max_iters=i + 1),
                                         lams, w, np.zeros((p, lams.size)), seeds)[0]
                    for k in range(lams.size):
                        outside = np.setdiff1d(np.arange(p), blocks[i, :, k])
                        assert after[outside, k].tobytes() == before[outside, k].tobytes()
                    assert not np.array_equal(after, before)
                    before = after

    def test_heatflow_restriction_matches_kernel_limit(self):
        # with B large the on-demand restricted subgradient approaches the
        # exact-kernel block update
        rng = np.random.default_rng(14)
        g = figure_graph()
        X = rng.standard_normal((60, 3))
        y = X @ np.array([1.0, -0.5, 0.0]) + 0.05 * rng.standard_normal(60)
        cfg = FitConfig(lam=0.2, t=1.0, alpha0=0.05, max_iters=25,
                        eps_tol=0.0, block_size=2, seed=6)
        res_h = block_cd(X, y, simulate_heat_flow(g, 1.0, B=20_000, seed=3), cfg)
        res_k = block_cd(X, y, exact_heat_kernel(g, 1.0), cfg)
        assert np.linalg.norm(res_h.beta_hat - res_k.beta_hat) < 0.02

    def test_running_penalty_does_not_drift(self):
        # the last objective, read off the incrementally updated h, equals
        # the objective recomputed from scratch at the final beta, on a
        # dense-backed (B = 20) and a table-backed (B = 3) operator
        rng = np.random.default_rng(23)
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        X = rng.standard_normal((60, 30))
        y = X[:, :10] @ np.ones(10) + 0.1 * rng.standard_normal(60)
        cfg = FitConfig(lam=0.1, alpha0=0.01, rate_protocol="constant",
                        max_iters=4000, eps_tol=0.0, block_size=5, seed=2)
        for B in (20, 3):
            H = simulate_heat_flow(g, 1.0, B=B, seed=4)
            res = block_cd(X, y, H, cfg)
            assert res.iterations == 4000
            scratch = loss_and_grad(res.beta_hat, X, y)[0] + \
                cfg.lam * penalty_value(res.beta_hat, H)
            assert abs(res.objective_trace[-1] - scratch) <= 1e-10


class TestBlockDraw:
    @pytest.mark.parametrize("p, q", [(30, 8), (30, 1), (30, 30), (1, 1), (7, 6)])
    def test_blocks_are_sorted_distinct_subsets(self, p, q):
        rngs = [np.random.default_rng(s) for s in range(4)]
        S = _draw_blocks(rngs, 50, p, q)
        assert S.shape == (50, q, 4)
        assert S.min() >= 0 and S.max() < p
        assert (np.diff(S, axis=1) > 0).all()  # ascending, hence distinct

    def test_inclusion_frequency_is_q_over_p(self):
        p, q, iters = 30, 8, 6000
        S = _draw_blocks([np.random.default_rng(5)], iters, p, q)[..., 0]
        counts = np.bincount(S.ravel(), minlength=p)
        # each coordinate is in each block with probability q / p, independently
        mean = iters * q / p
        sigma = np.sqrt(iters * q / p * (1 - q / p))
        assert np.abs(counts - mean).max() <= 4 * sigma

    def test_chunk_length_does_not_change_fits(self, monkeypatch):
        # against the default cap (the whole single fit in one chunk): caps of
        # 1 and 7 uniforms give one iteration per chunk, and 7 * p gives 2
        # iterations for the 3 columns and 7 for the single fit; max_iters =
        # 139 is a multiple of no chunk length, and lockstep columns stop
        # mid-chunk
        X, y, H, folds = TestLockstep.instance("squared_error", 20)
        n, p = X.shape
        cfg = FitConfig(alpha0=0.05, rate_protocol="constant", eps_tol=1e-2,
                        max_iters=139, block_size=8, lam=0.05)
        w = np.zeros((n, len(folds)))
        for k, rows in enumerate(folds):
            w[np.setdiff1d(np.arange(n), rows), k] = 1.0 / (n - rows.size)
        args = (X, y[:, None], SmoothingOperator.compile(H), cfg,
                np.full(len(folds), 0.05), w, np.zeros((p, len(folds))), [4, 5, 6])

        def fits():
            return block_cd(X, y, H, cfg), _cd_lockstep(*args)

        want_single, want_cols = fits()
        assert len(set(map(len, want_cols[1]))) > 1  # columns stop apart
        for cap in (1, 7, 7 * p):
            monkeypatch.setattr(optimize, "_DRAW_CHUNK", cap)
            single, cols = fits()
            assert np.array_equal(single.beta_hat, want_single.beta_hat)
            assert single.objective_trace == want_single.objective_trace
            assert np.array_equal(cols[0], want_cols[0])
            assert cols[1] == want_cols[1]


class TestThresholdKmeans:
    def test_separates_clear_clusters(self):
        out = threshold_kmeans(np.array([0.6, 0.01, -0.55, 0.02]))
        assert out.tolist() == [0.6, 0.0, -0.55, 0.0]

    def test_all_equal_unchanged(self):
        assert threshold_kmeans(np.array([5.0, 5.0, 5.0])).tolist() == [5, 5, 5]

    def test_zeros_stay_zero(self):
        assert threshold_kmeans(np.array([1.0, 0.0, 0.0, 0.0])).tolist() == \
            [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("beta", [[-0.3], []])
    def test_fewer_than_two_entries_unchanged(self, beta):
        # no split to make: a copy of beta comes back
        beta = np.array(beta)
        out = threshold_kmeans(beta)
        assert out.tolist() == beta.tolist() and out is not beta

    def test_matches_exhaustive_two_partition(self):
        def brute_force_cost(vals):
            best = np.inf
            idx = range(len(vals))
            for size in range(1, len(vals)):
                for subset in itertools.combinations(idx, size):
                    a = vals[list(subset)]
                    b = np.delete(vals, list(subset))
                    cost = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
                    best = min(best, cost)
            return best

        rng = np.random.default_rng(15)
        for _ in range(200):
            p = int(rng.integers(2, 11))
            beta = rng.standard_normal(p)
            out = threshold_kmeans(beta)
            mags = np.abs(beta)
            if mags.min() == mags.max():
                assert np.array_equal(out, beta)
                continue
            zeroed = out == 0
            survivors = mags[~zeroed]
            killed = mags[zeroed]
            split_cost = ((killed - killed.mean()) ** 2).sum() + \
                         ((survivors - survivors.mean()) ** 2).sum()
            assert split_cost == pytest.approx(brute_force_cost(mags), abs=1e-10)
            # the zeroed cluster is the one with the smaller mean
            assert killed.mean() < survivors.mean()


class TestCrossValidate:
    def test_single_point_grid(self):
        rng = np.random.default_rng(16)
        X, y, _ = well_conditioned_instance(rng, n=24, p=3)
        cfg = FitConfig(alpha0=0.3, max_iters=100, B=20, seed=2)
        lam, t, table = cross_validate(X, y, figure_graph(), [0.05], [1.0],
                                       folds=3, cfg=cfg)
        assert (lam, t) == (0.05, 1.0)
        assert len(table) == 1 and table[0]["cv_loss"] >= 0.0

    def test_absurd_lambda_is_rejected(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.0, 1.0, 0.0]) + 0.05 * rng.standard_normal(40)
        cfg = FitConfig(alpha0=0.2, max_iters=150, B=30, seed=3)
        lam, _, _ = cross_validate(X, y, figure_graph(), [0.0, 1e6], [0.5],
                                   folds=3, cfg=cfg)
        assert lam == 0.0

    def test_tie_breaks_toward_smaller_lambda_then_t(self):
        rng = np.random.default_rng(18)
        X, y, _ = well_conditioned_instance(rng, n=20, p=3)
        cfg = FitConfig(alpha0=0.2, max_iters=30, B=10, seed=4)
        # lam = 0 twice: equal losses for both t -> smaller t wins
        lam, t, _ = cross_validate(X, y, figure_graph(), [0.0], [2.0, 0.5],
                                   folds=2, cfg=cfg)
        assert lam == 0.0 and t == 0.5

    def test_grid_and_fold_validation(self):
        rng = np.random.default_rng(19)
        X, y, _ = well_conditioned_instance(rng, n=12, p=3)
        cfg = FitConfig()
        with pytest.raises(GridEmpty):
            cross_validate(X, y, figure_graph(), [], [1.0], folds=2, cfg=cfg)
        with pytest.raises(FoldTooSmall):
            cross_validate(X, y, figure_graph(), [0.1], [1.0], folds=13, cfg=cfg)
        with pytest.raises(ValueError, match="folds must be an integer"):
            cross_validate(X, y, figure_graph(), [0.1], [1.0], folds=2.5, cfg=cfg)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda_grid"):
                cross_validate(X, y, figure_graph(), [0.1, bad], [1.0], folds=2, cfg=cfg)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -0.5])
    def test_bad_t_rejected_before_simulation(self, monkeypatch, bad):
        rng = np.random.default_rng(21)
        X, y, _ = well_conditioned_instance(rng, n=12, p=3)
        calls = []
        monkeypatch.setattr(optimize, "simulate_heat_flow",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="t_grid"):
            cross_validate(X, y, figure_graph(), [0.1], [1.0, bad], folds=2,
                           cfg=FitConfig())
        assert calls == []

    @pytest.mark.parametrize("grid", ["lambda_grid", "t_grid"])
    @pytest.mark.parametrize("bad", [True, np.True_, "0.5", None])
    def test_grid_refuses_bools_and_non_numbers(self, monkeypatch, grid, bad):
        # a bool is no number, so True is not read as 1
        rng = np.random.default_rng(21)
        X, y, _ = well_conditioned_instance(rng, n=12, p=3)
        calls = []
        monkeypatch.setattr(optimize, "simulate_heat_flow",
                            lambda *args, **kwargs: calls.append(args))
        grids = {"lambda_grid": [0.1], "t_grid": [1.0]}
        grids[grid] = [np.float32(0.5), bad]  # numpy numbers pass
        with pytest.raises(ValueError, match=f"{grid} values must be finite and >= 0, got {bad!r}"):
            cross_validate(X, y, figure_graph(), folds=2, cfg=FitConfig(), **grids)
        assert calls == []

    def test_unknown_optimizer_rejected_before_simulation(self, monkeypatch):
        rng = np.random.default_rng(20)
        X, y, _ = well_conditioned_instance(rng, n=12, p=3)
        calls = []
        monkeypatch.setattr(optimize, "simulate_heat_flow",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="'sd' or 'cd'"):
            cross_validate(X, y, figure_graph(), [0.1], [1.0], folds=2,
                           cfg=FitConfig(), optimizer="sgd")
        assert calls == []

    def test_block_cd_optimizer_path(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.0, 1.0, 0.0]) + 0.05 * rng.standard_normal(40)
        cfg = FitConfig(alpha0=0.2, rate_protocol="constant", max_iters=250,
                        B=30, seed=5, block_size=2)
        lam, t, table = cross_validate(X, y, figure_graph(), [0.0, 1e6],
                                       [0.5], folds=3, cfg=cfg, optimizer="cd")
        assert lam == 0.0 and len(table) == 2


class TestLockstep:
    """F fits run as the columns of one p x F beta match the single fits."""

    @staticmethod
    def instance(loss, B, walk_seed=4):
        # p = 30: B = 20 compiles to the dense K^ (p <= 8B), B = 3 keeps the table
        rng = np.random.default_rng(27)
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        X = rng.standard_normal((48, 30))
        z = X[:, :10] @ np.full(10, 0.5) + 0.3 * rng.standard_normal(48)
        y = (z > 0).astype(float) if loss == "logistic" else z
        folds = np.array_split(rng.permutation(48), 3)
        return X, y, simulate_heat_flow(g, 1.0, B=B, seed=walk_seed), folds

    @staticmethod
    def cells(n, folds):
        """The lam x fold cells of a lockstep run, one per column, lam = 0
        first: (lams, row weights, training rows, block seeds)."""
        lams = np.repeat([0.0, 0.01, 0.1], len(folds))
        train = [np.setdiff1d(np.arange(n), rows) for rows in folds] * 3
        w = np.zeros((n, lams.size))
        for k, rows in enumerate(train):
            w[rows, k] = 1.0 / rows.size
        return lams, w, train, list(range(100, 100 + lams.size))

    def columns_against_single_fits(self, name, cfg, X, y, H, folds):
        """Run the lockstep core on every lam x fold cell, check each column
        against its single fit and return (iterations, converged) per column."""
        n, p = X.shape
        lams, w, train, seeds = self.cells(n, folds)
        core_cfg = replace(cfg, block_size=None) if name == "sd" else cfg
        betas, traces, converged = _cd_lockstep(
            X, y[:, None], SmoothingOperator.compile(H), core_cfg, lams, w,
            np.zeros((p, lams.size)), seeds)
        single = {"sd": subgradient_descent, "cd": block_cd}[name]
        iterations = []
        for k, rows in enumerate(train):
            res = single(X[rows], y[rows], H, replace(cfg, lam=lams[k], seed=seeds[k]))
            assert np.abs(betas[:, k] - res.beta_hat).max() <= 1e-8
            assert len(traces[k]) == res.iterations
            assert np.allclose(traces[k], res.objective_trace, rtol=1e-10, atol=1e-12)
            assert converged[k] == res.converged
            iterations.append(res.iterations)
        return iterations, converged

    @pytest.mark.parametrize("loss", ["squared_error", "logistic"])
    @pytest.mark.parametrize("B", [20, 3])
    @pytest.mark.parametrize("name, settings", [
        ("sd", {}),
        # 9 blocks of 8 hold 72 >= p coordinates: dense block products
        ("cd", {"block_size": 8}),
        # 9 blocks of 2 hold 18 < p: gathered block products
        ("cd", {"block_size": 2}),
    ])
    def test_columns_equal_single_fits(self, name, settings, B, loss):
        X, y, H, folds = self.instance(loss, B)
        assert (SmoothingOperator.compile(H)._table is None) == (B == 20)
        cfg = FitConfig(alpha0=0.5 if loss == "logistic" else 0.05,
                        rate_protocol="constant", loss=loss, eps_tol=1e-2,
                        max_iters=2000, **settings)
        # The lam = 0 fits read no walk table. A run that ends one iteration
        # before the last of them stops has columns that converge, at
        # different iterations, and columns that run to max_iters, whatever
        # the table. (Blocks of 2 stop only after 15 small block steps in a
        # row, at 752-1,208 iterations here.)
        lams, _, train, seeds = self.cells(X.shape[0], folds)
        single = {"sd": subgradient_descent, "cd": block_cd}[name]
        stops = [single(X[rows], y[rows], H, replace(cfg, lam=0.0, seed=seed)).iterations
                 for lam, rows, seed in zip(lams, train, seeds) if lam == 0.0]
        assert min(stops) < max(stops) - 1 < cfg.max_iters - 1
        cfg = replace(cfg, max_iters=max(stops) - 1)
        iterations, converged = self.columns_against_single_fits(name, cfg, X, y, H, folds)
        # columns stop at different iterations, and not all of them converge
        assert len(set(iterations)) > 1
        assert converged.any() and not converged.all()

    @pytest.mark.parametrize("B", [20, 3])
    def test_one_small_block_step_does_not_stop_a_fit(self, B):
        # at lam = 100 beta oscillates around 0 and neither SD nor blocks of
        # 8 settle within 400 iterations; a block of 2 of p = 30 coordinates
        # still takes an occasional step that meets eps_tol, and that one
        # step alone stopped 9 of these 60 fits (at iterations 94-395) when
        # a single small step was the stop rule
        for walk_seed in range(10):
            X, y, H, folds = self.instance("logistic", B, walk_seed)
            train = np.setdiff1d(np.arange(X.shape[0]), folds[0])
            cfg = FitConfig(alpha0=0.5, rate_protocol="constant", loss="logistic",
                            eps_tol=1e-2, max_iters=400, lam=100.0, block_size=2)
            for seed in (100, 101, 102):
                res = block_cd(X[train], y[train], H, replace(cfg, seed=seed))
                assert not res.converged and res.iterations == cfg.max_iters

    @pytest.mark.parametrize("B", [20, 3])
    @pytest.mark.parametrize("name", ["sd", "cd"])
    def test_stopped_column_ends_as_a_run_cut_at_its_stop(self, name, B):
        # a column that stops keeps its place in every product while the
        # others go on, and ends bit for bit as in a run cut at its stop
        X, y, H, folds = self.instance("squared_error", B)
        lams, w, _, seeds = self.cells(X.shape[0], folds)
        cfg = FitConfig(alpha0=0.05, rate_protocol="constant", eps_tol=1e-2,
                        max_iters=400, block_size=None if name == "sd" else 8)
        op = SmoothingOperator.compile(H)
        assert (op._table is None) == (B == 20)

        def run(max_iters):
            return _cd_lockstep(X, y[:, None], op, replace(cfg, max_iters=max_iters),
                                lams, w, np.zeros((X.shape[1], lams.size)), seeds)

        betas, traces, converged = run(cfg.max_iters)
        last = max(len(trace) for trace in traces)
        # the lam = 0 columns, which read no table, stop at different iterations
        stopped = [k for k, trace in enumerate(traces) if len(trace) < last]
        assert converged[stopped].all() and any(lams[k] == 0.0 for k in stopped)
        for k in stopped:
            cut_betas, cut_traces, cut_converged = run(len(traces[k]))
            assert betas[:, k].tobytes() == cut_betas[:, k].tobytes()
            assert traces[k] == cut_traces[k] and cut_converged[k]

    @pytest.mark.parametrize("name", ["sd", "cd"])
    @pytest.mark.parametrize("y_scale, eps_tol", [
        (0.0, 1e-5),  # y = 0: every first step is zero
        (1.0, 1e3),  # a tolerance every step from a nonzero beta meets
    ])
    def test_all_columns_converge_at_once(self, name, y_scale, eps_tol):
        X, y, H, folds = self.instance("squared_error", 20)
        y = y_scale * y
        # blocks of 16 > p / 2 coordinates: a CD column's second block always
        # overlaps its first, so its second step starts from a nonzero block
        # and meets the loose tolerance (two disjoint blocks of 8 would not)
        cfg = FitConfig(alpha0=0.05, rate_protocol="constant", eps_tol=eps_tol,
                        max_iters=50, block_size=16, B=20)
        iterations, converged = self.columns_against_single_fits(name, cfg, X, y, H, folds)
        # every column stops at the same iteration
        assert len(set(iterations)) == 1 and converged.all()
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        lam, t, table = cross_validate(X, y, g, [0.0, 0.1], [0.5, 1.0], 3, cfg,
                                       optimizer=name)
        assert len(table) == 4
        assert all(np.isfinite(r["cv_loss"]) for r in table)

    @pytest.mark.parametrize("name", ["sd", "cd"])
    def test_cross_validate_equals_per_cell_fits(self, name):
        # the table of a per-cell loop of single fits with the same seeds
        rng = np.random.default_rng(28)
        X = rng.standard_normal((45, 12))
        y = X[:, :4] @ np.ones(4) + 0.3 * rng.standard_normal(45)
        g = sample_block_graph([4, 4, 4], 0.6, 0.05, seed=5)
        cfg = FitConfig(alpha0=0.05, rate_protocol="constant", max_iters=120,
                        eps_tol=1e-4, B=10, seed=7, block_size=4)
        lambdas, ts, folds = [0.003, 0.03, 0.3], [0.5, 2.0], 3
        lam, t, table = cross_validate(X, y, g, lambdas, ts, folds, cfg, optimizer=name)
        fit = {"sd": subgradient_descent, "cd": block_cd}[name]
        perm = np.random.default_rng(np.random.SeedSequence([7, 0xF01D])).permutation(45)
        want = []
        for ti, t_ in enumerate(ts):
            h_seed = int(np.random.SeedSequence([7, 0xF10, ti]).generate_state(1)[0])
            H = simulate_heat_flow(g, t_, cfg.B, seed=h_seed)
            for li, lam_ in enumerate(lambdas):
                held_out = []
                for fi, test_rows in enumerate(np.array_split(perm, folds)):
                    train = np.setdiff1d(perm, test_rows)
                    seed = int(np.random.SeedSequence([7, ti, li, fi]).generate_state(1)[0])
                    cfg_f = replace(cfg, lam=lam_, t=t_, seed=seed)
                    res = fit(X[train], y[train], H, cfg_f)
                    held_out.append(loss_and_grad(res.beta_hat, X[test_rows], y[test_rows])[0])
                want.append((lam_, t_, np.mean(held_out)))
        assert [(r["lam"], r["t"]) for r in table] == [(a, b) for a, b, _ in want]
        assert np.abs(np.array([r["cv_loss"] for r in table])
                      - np.array([c for _, _, c in want])).max() <= 1e-8
        best = min(want, key=lambda r: (r[2], r[0], r[1]))
        assert (lam, t) == best[:2]


def test_fit_result_json_roundtrip():
    res = FitResult(beta_hat=np.array([1.0, -0.5]),
                    beta_thresholded=np.array([1.0, 0.0]),
                    iterations=3, objective_trace=[3.0, 2.0, 1.5],
                    converged=True, total_walk_steps=123)
    back = FitResult.from_json(res.to_json())
    assert np.array_equal(back.beta_hat, res.beta_hat)
    assert np.array_equal(back.beta_thresholded, res.beta_thresholded)
    assert back.iterations == 3 and back.converged
    assert back.objective_trace == res.objective_trace
    assert back.total_walk_steps == 123
