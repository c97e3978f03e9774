"""Walk simulation against the exact semigroup oracle."""
import numpy as np
import pytest

from heatlasso.errors import (
    DimensionTooLarge,
    IndexOutOfRange,
    LengthMismatch,
    ShapeMismatch,
)
from heatlasso.graphs import (
    Graph,
    complete_graph,
    connected_components,
    figure_graph,
    sample_block_graph,
)
from heatlasso.heatflow import (
    SmoothingOperator,
    empirical_kernel,
    exact_heat_kernel,
    heatflow_apply,
    load_heatflow,
    save_heatflow,
    simulate_heat_flow,
)


def random_graph(rng, p, density=0.45):
    mask = rng.random((p, p)) < density
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if mask[i, j]]
    return Graph(p, edges=edges)


EDGE = Graph(2, [(0, 1)])


class TestSimulation:
    def test_time_zero_stays_put(self):
        g = figure_graph()
        H = simulate_heat_flow(g, 0.0, B=7, seed=1)
        assert np.array_equal(H.terminals, np.repeat(np.arange(3), 7).reshape(3, 7))
        assert H.step_counts.sum() == 0

    def test_isolated_vertex_never_moves(self):
        H = simulate_heat_flow(figure_graph(), 5.0, B=50, seed=2)
        assert np.all(H.terminals[2] == 2)
        assert np.all(H.step_counts[2] == 0)

    def test_edge_graph_occupancy_matches_kernel(self):
        # P(X_t = start) = (1 + e^{-2t})/2 on a single edge
        t = 0.5
        H = simulate_heat_flow(EDGE, t, B=100_000, seed=42)
        frac = (H.terminals[0] == 0).mean()
        assert frac == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=0.005)

    def test_bit_identical_regeneration(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        a = simulate_heat_flow(g, 1.5, B=200, seed=9)
        b = simulate_heat_flow(g, 1.5, B=200, seed=9)
        assert np.array_equal(a.terminals, b.terminals)
        assert np.array_equal(a.step_counts, b.step_counts)
        c = simulate_heat_flow(g, 1.5, B=200, seed=10)
        assert not np.array_equal(a.terminals, c.terminals)

    def test_terminals_stay_in_start_component(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, 10, density=0.15)
            _, labels = connected_components(g)
            H = simulate_heat_flow(g, 2.0, B=40, seed=int(rng.integers(2 ** 31)))
            for i in range(g.p):
                assert np.all(labels[H.terminals[i]] == labels[i])

    def test_mean_steps_bounded_by_degree_times_time(self):
        rng = np.random.default_rng(5)
        ok = 0
        trials = 100
        for _ in range(trials):
            g = random_graph(rng, int(rng.integers(3, 10)))
            t = float(rng.uniform(0.2, 2.0))
            H = simulate_heat_flow(g, t, B=50, seed=int(rng.integers(2 ** 31)))
            dmax_t = g.max_degree * t
            ok += H.step_counts.mean() <= dmax_t + 3 * np.sqrt(dmax_t) + 3
        assert ok >= 0.99 * trials

    def test_star_center_stay_probability_matches_exact_kernel(self):
        # a star graph has heterogeneous degrees, so a walk holding at unit
        # rate instead of rate deg(v) would miss the exact value
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        H = simulate_heat_flow(g, 1.0, B=20_000, seed=6)
        stay = (H.terminals[0] == 0).mean()
        assert stay == pytest.approx(exact_heat_kernel(g, 1.0)[0, 0], abs=0.01)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_heat_flow(EDGE, -1.0, B=5)
        with pytest.raises(ValueError):
            simulate_heat_flow(EDGE, 1.0, B=0)


class TestHeatflowApply:
    def test_constant_function_is_exact(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 9)
        H = simulate_heat_flow(g, 1.3, B=25, seed=8)
        out = heatflow_apply(H, np.full(9, 3.25))
        assert np.all(out == 3.25)

    def test_isolated_vertex_is_exact(self):
        g = figure_graph()
        H = simulate_heat_flow(g, 2.0, B=30, seed=9)
        f = np.array([0.4, -1.0, 7.5])
        assert heatflow_apply(H, f, S=[2])[0] == 7.5

    def test_unbiased_against_exact_kernel(self):
        # mean over 50 independent matrices, edge graph, f = (1, 0), t = 1
        f = np.array([1.0, 0.0])
        target = exact_heat_kernel(EDGE, 1.0) @ f
        estimates = [heatflow_apply(simulate_heat_flow(EDGE, 1.0, B=10_000, seed=s), f)[0]
                     for s in range(50)]
        assert np.mean(estimates) == pytest.approx(target[0], abs=0.002)

    def test_concentration(self):
        # l-inf error within 4 range(f) / sqrt(B) nearly always
        rng = np.random.default_rng(10)
        B = 1000
        ok = 0
        trials = 100
        for _ in range(trials):
            g = random_graph(rng, int(rng.integers(3, 11)))
            f = rng.random(g.p)
            H = simulate_heat_flow(g, 0.7, B=B, seed=int(rng.integers(2 ** 31)))
            err = np.abs(heatflow_apply(H, f) - exact_heat_kernel(g, 0.7) @ f).max()
            ok += err <= 4 * np.ptp(f) / np.sqrt(B)
        assert ok >= 0.99 * trials

    def test_subset_selection(self):
        g = complete_graph(5)
        H = simulate_heat_flow(g, 0.5, B=64, seed=11)
        f = np.arange(5.0)
        full = heatflow_apply(H, f)
        sub = heatflow_apply(H, f, S=[1, 3])
        assert sub[0] == full[1] and sub[1] == full[3]

    def test_errors(self):
        H = simulate_heat_flow(EDGE, 0.5, B=4, seed=0)
        with pytest.raises(LengthMismatch):
            heatflow_apply(H, np.zeros(3))
        with pytest.raises(IndexOutOfRange):
            heatflow_apply(H, np.zeros(2), S=[2])
        with pytest.raises(IndexOutOfRange):
            heatflow_apply(H, np.zeros(2), S=[])


class TestSmoothingOperator:
    def test_dense_and_table_forms_agree(self):
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        H = simulate_heat_flow(g, 1.0, B=20, seed=4)
        dense = SmoothingOperator(dense=empirical_kernel(H))
        table = SmoothingOperator(table=H)
        rng = np.random.default_rng(15)
        f, r = rng.standard_normal(30), rng.standard_normal(30)
        S = np.array([2, 7, 11, 29])
        d = rng.standard_normal(S.size)
        assert np.abs(dense.apply(f) - heatflow_apply(H, f)).max() <= 1e-12
        pairs = [(dense.apply(f), table.apply(f)),
                 (dense.apply_T(r), table.apply_T(r)),
                 (dense.blocks(S).matvec(d), table.blocks(S).matvec(d)),
                 (dense.blocks(S).rmatvec(r), table.blocks(S).rmatvec(r))]
        for a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12
        K = empirical_kernel(H)
        assert np.abs(dense.blocks(S).matvec(d) - K[:, S] @ d).max() <= 1e-12
        assert np.abs(dense.apply_T(r) - K.T @ r).max() <= 1e-12

    def test_dense_and_table_forms_agree_on_columns(self):
        # (p, F) inputs: K F, K^T R, and the per-column block forms, for
        # blocks gathered (q F < p) and scattered into a dense GEMM (q F >= p)
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        H = simulate_heat_flow(g, 1.0, B=20, seed=4)
        dense = SmoothingOperator(dense=empirical_kernel(H))
        table = SmoothingOperator(table=H)
        K = empirical_kernel(H)
        rng = np.random.default_rng(25)
        f, r = rng.standard_normal((30, 6)), rng.standard_normal((30, 6))
        for op in (dense, table):
            assert np.abs(op.apply(f) - K @ f).max() <= 1e-12
            assert np.abs(op.apply_T(r) - K.T @ r).max() <= 1e-12
        for q, F in ((2, 3), (4, 6), (30, 1)):  # q F = 6 < 30; 24 < 30; 30
            S = np.sort(np.stack([rng.choice(30, q, replace=False) for _ in range(F)]),
                        axis=1).T
            d, rF = rng.standard_normal((q, F)), r[:, :F]
            want = np.stack([K[:, S[:, k]] @ d[:, k] for k in range(F)], axis=1)
            want_T = np.stack([(K.T @ rF[:, k])[S[:, k]] for k in range(F)], axis=1)
            for op in (dense, table):
                assert np.abs(op.blocks(S).matvec(d) - want).max() <= 1e-12
                assert np.abs(op.blocks(S).rmatvec(rF) - want_T).max() <= 1e-12
        with pytest.raises(LengthMismatch):
            heatflow_apply(H, np.zeros((29, 2)))

    def test_compile_chooses_by_size(self):
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        small = simulate_heat_flow(g, 1.0, B=20, seed=4)  # p <= 8 B: dense
        wide = simulate_heat_flow(g, 1.0, B=3, seed=4)    # p > 8 B: table
        f = np.random.default_rng(16).standard_normal(30)
        for H, dense in ((small, True), (wide, False)):
            op = SmoothingOperator.compile(H)
            assert (op._table is None) == dense
            assert op.walk_steps == H.total_steps
            assert np.abs(op.apply(f) - heatflow_apply(H, f)).max() <= 1e-12
            assert SmoothingOperator.compile(op) is op

    def test_dense_kernel_must_be_square(self):
        with pytest.raises(ShapeMismatch):
            SmoothingOperator.compile(np.ones((3, 2)))


class TestExactKernel:
    def test_time_zero_identity(self):
        assert np.array_equal(exact_heat_kernel(figure_graph(), 0.0), np.eye(3))

    def test_edge_graph_closed_form(self):
        K = exact_heat_kernel(EDGE, 0.5)
        expected = np.array([[0.68394, 0.31606], [0.31606, 0.68394]])
        assert np.abs(K - expected).max() < 1e-5

    def test_long_time_projects_onto_components(self):
        K = exact_heat_kernel(figure_graph(), 50.0)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(K - expected).max() < 1e-8

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 12)))
            K = exact_heat_kernel(g, float(rng.uniform(0.1, 3.0)))
            assert np.abs(K.sum(axis=1) - 1).max() < 1e-10
            assert K.min() >= -1e-12
            assert np.abs(K - K.T).max() == 0.0

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            exact_heat_kernel(complete_graph(6), 1.0, limit=4)


class TestGeneratorConsistency:
    def test_short_time_derivative_matches_negative_laplacian(self):
        # (E[f(X_d)] - f)/d -> -Lf as d -> 0; amplitude of f keeps the
        # Monte Carlo noise several sigma below the absolute tolerance
        from heatlasso.graphs import laplacian

        rng = np.random.default_rng(13)
        delta, B = 1e-3, 200_000
        for _ in range(5):
            p = int(rng.integers(4, 13))
            g = random_graph(rng, p, density=0.5)
            f = 0.03 * rng.standard_normal(p)
            L = laplacian(g)
            H = simulate_heat_flow(g, delta, B=B, seed=int(rng.integers(2 ** 31)))
            fd = (heatflow_apply(H, f) - f) / delta
            tol = np.maximum(0.05, 0.05 * np.abs(L @ f))
            assert np.all(np.abs(fd + L @ f) <= tol)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        g = random_graph(rng, 7)
        H = simulate_heat_flow(g, 1.2, B=33, seed=77)
        path = tmp_path / "flow.hfm"
        save_heatflow(H, path)
        H2 = load_heatflow(path)
        assert np.array_equal(H.terminals, H2.terminals)
        assert (H2.t, H2.B, H2.seed) == (H.t, H.B, H.seed)
        assert H2.step_counts is None and H2.total_steps == 0

    def _corrupt(self, tmp_path, edit):
        """Save a valid table, apply edit to its bytes and load the result."""
        path = tmp_path / "flow.hfm"
        save_heatflow(simulate_heat_flow(EDGE, 0.8, B=4, seed=3), path)
        path.write_bytes(edit(bytearray(path.read_bytes())))
        return load_heatflow(path)

    def test_negative_terminal_rejected(self, tmp_path):
        def first_terminal_minus_one(raw):
            raw[36:40] = (-1).to_bytes(4, "little", signed=True)
            return raw
        with pytest.raises(ValueError, match="outside"):
            self._corrupt(tmp_path, first_terminal_minus_one)

    def test_terminal_at_p_rejected(self, tmp_path):
        def last_terminal_two(raw):
            raw[-4:] = (2).to_bytes(4, "little")
            return raw
        with pytest.raises(ValueError, match="outside"):
            self._corrupt(tmp_path, last_terminal_two)

    def test_zero_p_rejected(self, tmp_path):
        def header_p_zero(raw):
            raw[4:12] = (0).to_bytes(8, "little")
            return raw
        with pytest.raises(ValueError, match="p=0"):
            self._corrupt(tmp_path, header_p_zero)

    def test_zero_B_rejected(self, tmp_path):
        def header_B_zero(raw):
            raw[12:20] = (0).to_bytes(8, "little")
            return raw
        with pytest.raises(ValueError, match="B=0"):
            self._corrupt(tmp_path, header_B_zero)

    def test_trailing_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trailing"):
            self._corrupt(tmp_path, lambda raw: raw + b"\x00")

    @pytest.mark.parametrize("keep", [-1, 20])  # one byte short; header cut mid-B
    def test_truncated_file_rejected(self, tmp_path, keep):
        with pytest.raises(ValueError, match="truncated"):
            self._corrupt(tmp_path, lambda raw: raw[:keep])

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.hfm"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_heatflow(path)

    def test_file_layout(self, tmp_path):
        H = simulate_heat_flow(EDGE, 0.25, B=2, seed=5)
        path = tmp_path / "flow.hfm"
        save_heatflow(H, path)
        raw = path.read_bytes()
        assert raw[:4] == b"HFM1"
        assert len(raw) == 4 + 8 + 8 + 8 + 8 + 4 * 2 * 2
