"""Walk simulation against the exact semigroup oracle."""
import dataclasses
import struct

import numpy as np
import pytest

from heatlasso.errors import (
    DimensionTooLarge,
    LengthMismatch,
    ShapeMismatch,
)
from heatlasso import graphs, heatflow
from heatlasso.graphs import (
    Graph,
    complete_graph,
    connected_components,
    figure_graph,
    group_clique_graph,
    sample_block_graph,
)
from heatlasso.heatflow import (
    _CARRY,
    _CHUNK,
    SmoothingOperator,
    empirical_kernel,
    exact_heat_kernel,
    heatflow_apply,
    load_heatflow,
    save_heatflow,
    simulate_heat_flow,
)
from heatlasso.optimize import _dot_rows, _rows_dot
from heatlasso.penalty import GroupStructure, group_averaging_kernel


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
        # t = inf would never stop a walk, and t = nan would give the identity table
        for t in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"t must be finite and >= 0, got {t}"):
                simulate_heat_flow(EDGE, t, B=5)
            with pytest.raises(ValueError, match="t must be finite"):
                exact_heat_kernel(EDGE, t)

    @pytest.mark.parametrize("B", [2.5, 20.0, True, "3"])
    def test_non_integer_B_rejected(self, B):
        with pytest.raises(ValueError, match="B must be an integer >= 1"):
            simulate_heat_flow(EDGE, 1.0, B=B)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_heat_flow(EDGE, 1.0, B=3, seed=seed)

    @pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 2 ** 64])
    def test_seed_outside_int64_rejected(self, seed):
        # seeds were reduced mod 2**64, so 0 and 2**64 gave one table
        with pytest.raises(ValueError, match=r"seed must be an integer in \[-2\*\*63, 2\*\*63\)"):
            simulate_heat_flow(EDGE, 1.0, B=3, seed=seed)

    def test_numpy_integer_B_and_seed(self):
        g = figure_graph()
        a = simulate_heat_flow(g, 1.5, B=np.int32(20), seed=np.int64(-12345))
        b = simulate_heat_flow(g, 1.5, B=20, seed=-12345)
        assert a.terminals.tobytes() == b.terminals.tobytes()
        assert (a.B, a.seed) == (20, -12345) and type(a.B) is int and type(a.seed) is int


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _reference_mix(x):
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reference_draw(seed, walk_ids, d):
    """Round d's draw of each walk, one hash of key ^ d: the hold uniform
    u = (hi + 1) 2^-32 from its high 32 bits, and its low 32 bits."""
    with np.errstate(over="ignore"):
        h = _reference_mix(_reference_mix(
            _reference_mix(np.uint64(seed & _MASK64)) ^ walk_ids) ^ np.uint64(d))
    u = ((h >> np.uint64(32)).astype(np.float64) + 1.0) * float(2.0 ** -32)
    return u, h & np.uint64(0xFFFFFFFF)


def reference_walks(g, t, B, seed):
    """All p*B walks advanced in one lockstep round per draw, rescanning the
    full-length arrays each round: the simple schedule the table must match."""
    p = g.p
    n_walks = p * B
    terminals = np.repeat(np.arange(p, dtype=np.int32), B)
    steps = np.zeros(n_walks, dtype=np.int32)
    if t > 0:
        deg = g.degrees
        flat, offsets = g.flat_adjacency()
        remaining = np.full(n_walks, float(t))
        walk_ids = np.arange(n_walks, dtype=np.uint64)
        active = deg[terminals] > 0
        draw = 0
        while active.any():
            idx = np.flatnonzero(active)
            cur = terminals[idx]
            u, lo = _reference_draw(seed, walk_ids[idx], draw)
            hold = -np.log(u) / deg[cur].astype(np.float64)
            alive = hold < remaining[idx]
            if alive.any():
                jidx = idx[alive]
                cur_j = terminals[jidx]
                # multiply-shift: floor(lo * deg / 2^32), exact in uint64
                choice = (lo[alive] * deg[cur_j].astype(np.uint64)) >> np.uint64(32)
                terminals[jidx] = flat[offsets[cur_j] + choice.astype(np.int64)]
                remaining[jidx] -= hold[alive]
                steps[jidx] += 1
            active[idx[~alive]] = False
            draw += 1
    return terminals.reshape(p, B), steps.reshape(p, B)


def carried_at_compactions(g, H):
    """Replays the chunk schedule from a table's step counts: a walk from a
    vertex of nonzero degree stops in the round equal to its step count.
    Returns, per chunk, the number of walks carried from earlier rounds at
    each compaction, in order."""
    steps = H.step_counts.ravel()
    moving = np.repeat(g.degrees > 0, H.B)
    chunks = []
    for start in range(0, steps.size, _CHUNK):
        rounds = steps[start:start + _CHUNK][moving[start:start + _CHUNK]]
        n, carried, compactions = rounds.size, 0, []
        for k in np.bincount(rounds):
            if k and (carried + k) * _CARRY >= n:
                compactions.append(int(carried))
                n, carried = n - carried - k, 0
            else:
                carried += k
        chunks.append(compactions)
    return chunks


class TestChunkedScheduleMatchesReference:
    """The chunked simulation, which carries stopped walks until a chunk is
    compacted, gives the reference's table byte for byte. Compared with a
    reference run, not with stored hashes: np.log may differ in the last
    bit between CPUs."""

    @staticmethod
    def assert_same_table(g, t, B, seed):
        H = simulate_heat_flow(g, t, B, seed=seed)
        terminals, steps = reference_walks(g, t, B, seed)
        assert H.terminals.dtype == terminals.dtype and H.step_counts.dtype == steps.dtype
        assert H.terminals.tobytes() == terminals.tobytes()
        assert H.step_counts.tobytes() == steps.tobytes()
        return H

    @pytest.mark.parametrize("t", [0.0, 2.5])
    def test_figure_graph_with_isolated_vertex(self, t):
        self.assert_same_table(figure_graph(), t, 40, seed=2)

    def test_self_loop_block_graph(self):
        g = sample_block_graph([8, 12, 10], 0.4, 0.05, seed=6, self_loops=True)
        assert np.any(np.repeat(np.arange(g.p), g.degrees) == g.indices)  # has self-loops
        self.assert_same_table(g, 1.5, 30, seed=13)

    def test_star_graph(self):
        g = Graph(6, [(0, j) for j in range(1, 6)])
        self.assert_same_table(g, 1.0, 200, seed=21)

    def test_negative_seed(self):
        rng = np.random.default_rng(8)
        self.assert_same_table(random_graph(rng, 9), 1.2, 50, seed=-12345)

    def test_several_chunks_with_a_partial_last_one(self):
        p, B = 300, 70
        assert p * B > _CHUNK and (p * B) % _CHUNK != 0
        g = sample_block_graph([100, 120, 80], 0.1, 0.01, seed=9)
        self.assert_same_table(g, 0.8, B, seed=31)

    def test_every_walk_stops_in_round_zero(self):
        g = sample_block_graph([8, 12, 10], 0.4, 0.05, seed=6)
        H = self.assert_same_table(g, 1e-12, 600, seed=4)
        assert H.p * H.B > _CHUNK and not H.step_counts.any()
        assert carried_at_compactions(g, H) == [[0], [0]]

    def test_star_leaves_carry_stopped_walks_through_compactions(self):
        # a leaf holds for Exp(1), the centre for Exp(8): stop rounds spread
        # wide, so stopped walks ride along for rounds between compactions
        g = Graph(9, [(0, j) for j in range(1, 9)])
        H = self.assert_same_table(g, 6.0, 1500, seed=17)
        [compactions] = carried_at_compactions(g, H)
        assert len(compactions) >= 5 and sum(c > 0 for c in compactions) >= 3

    def test_last_walks_stop_at_the_compaction_that_ends_a_chunk(self):
        # p * B = 2 * _CHUNK + 1: the last chunk is a single walk, which moves
        # alone; its stop is the compaction that ends the chunk
        g = Graph(3, [(0, 1), (1, 2)])
        B = (2 * _CHUNK + 1) // 3
        assert 3 * B == 2 * _CHUNK + 1
        H = self.assert_same_table(g, 3.0, B, seed=23)
        chunks = carried_at_compactions(g, H)
        assert len(chunks) == 3 and chunks[2] == [0] and H.step_counts[-1, -1] > 1

    def test_isolated_vertices_across_chunks(self):
        # two vertices per chunk: vertices 0 and 1 fill the first chunk with
        # walks that never move, and vertex 4 the first half of the third
        g = Graph(7, [(2, 3), (3, 5), (2, 5), (5, 6)])
        B = _CHUNK // 2
        H = self.assert_same_table(g, 1.7, B, seed=29)
        assert not H.step_counts[[0, 1, 4]].any()
        assert H.step_counts[[2, 3, 5, 6]].any(axis=1).all()
        assert carried_at_compactions(g, H)[0] == []


class TestDrawMapping:
    """How one round's 64-bit hash becomes a hold and a jump, at the ends
    of both halves, on a star whose centre has the largest degree (8)."""

    STAR = Graph(9, [(0, j) for j in range(1, 9)])

    @staticmethod
    def run_with_hashes(monkeypatch, t, hashes):
        """The table of one walk per vertex when round d's hash is
        hashes[min(d, len(hashes) - 1)] for every walk; the rounds hashed."""
        rounds = []

        def fixed(keys, d, out, scratch):
            rounds.append(d)
            out[:] = np.uint64(hashes[min(d, len(hashes) - 1)])
            return out

        monkeypatch.setattr(heatflow, "_hash_into", fixed)
        return simulate_heat_flow(TestDrawMapping.STAR, t, B=1), rounds

    def test_top_of_both_halves_jumps_at_once_to_the_last_neighbour(self, monkeypatch):
        # round 0: hi = 2^32 - 1 gives u = 1, a hold of 0 that every walk
        # ends before t; lo = 2^32 - 1 gives index deg - 1: the centre goes
        # to its last leaf, 8, and each leaf (deg 1) to its only neighbour.
        # round 1: hi = 0, a hold of 32 ln 2 / deg >= 2.77 > t, so all stop.
        H, rounds = self.run_with_hashes(monkeypatch, 1.0, [2 ** 64 - 1, 0])
        assert H.terminals.ravel().tolist() == [8] + [0] * 8
        assert H.step_counts.ravel().tolist() == [1] * 9
        assert rounds == [0, 1]

    def test_bottom_of_both_halves_holds_finitely_then_takes_the_first_neighbour(
            self, monkeypatch):
        # hi = 0 gives u = 2^-32: the centre holds 32 ln 2 / 8 ~ 2.77, finite
        # and below t = 5, then lo = 0 takes index 0, leaf 1; a leaf holds
        # 32 ln 2 ~ 22.2 > 5 and stays
        H, _ = self.run_with_hashes(monkeypatch, 5.0, [0])
        assert H.terminals.ravel().tolist() == [1, 1, 2, 3, 4, 5, 6, 7, 8]
        assert H.step_counts.ravel().tolist() == [1] + [0] * 8

    @pytest.mark.parametrize("scale, jumps", [(1 - 1e-12, False), (1 + 1e-12, True)])
    def test_hold_is_capped_at_32_ln2_over_degree(self, monkeypatch, scale, jumps):
        cap = 32 * np.log(2) / 8
        H, _ = self.run_with_hashes(monkeypatch, cap * scale, [0])
        assert H.step_counts[0, 0] == jumps

    def test_one_hash_of_key_xor_round_per_round(self, monkeypatch):
        # a single chunk: round d hashes each moving walk's key ^ d once, for
        # d = 0 up to the most steps a walk takes, and the table equals the
        # reference, which splits that one hash into the hold and the jump
        real, hashed = heatflow._hash_into, []

        def recording(keys, d, out, scratch):
            x = real(keys, d, out, scratch)
            with np.errstate(over="ignore"):
                assert np.array_equal(x, _reference_mix(keys ^ np.uint64(d)))
            hashed.append(d)
            return x

        monkeypatch.setattr(heatflow, "_hash_into", recording)
        H = TestChunkedScheduleMatchesReference.assert_same_table(self.STAR, 2.0, 50, seed=3)
        assert hashed == list(range(H.step_counts.max() + 1))


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
        assert heatflow_apply(H, f)[2] == 7.5

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

    def test_errors(self):
        H = simulate_heat_flow(EDGE, 0.5, B=4, seed=0)
        with pytest.raises(LengthMismatch):
            heatflow_apply(H, np.zeros(3))


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
        scattered = np.zeros(30)
        scattered[S] = d
        assert np.abs(dense.apply(f) - heatflow_apply(H, f)).max() <= 1e-12
        # a block step's products: gathered rows of the dense K^T, and the
        # table's apply of the scattered block and read-off apply_T
        pairs = [(dense.apply(f), table.apply(f)),
                 (dense.apply_T(r), table.apply_T(r)),
                 (_dot_rows(d, dense.KT[S]), table.apply(scattered)),
                 (_rows_dot(dense.KT[S], r), table.apply_T(r)[S])]
        for a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12
        K = empirical_kernel(H)
        assert table.KT is None and dense.KT.flags.c_contiguous
        assert np.abs(_dot_rows(d, dense.KT[S]) - K[:, S] @ d).max() <= 1e-12
        assert np.abs(dense.apply_T(r) - K.T @ r).max() <= 1e-12

    def test_dense_and_table_forms_agree_on_columns(self):
        # (p, F) inputs: K F, K^T R, and the per-column block products of a
        # block step, from the gathered rows of the dense K^T and from the
        # table's full products
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
            cells = (S, np.arange(F))
            want = np.stack([K[:, S[:, k]] @ d[:, k] for k in range(F)], axis=1)
            want_T = np.stack([(K.T @ rF[:, k])[S[:, k]] for k in range(F)], axis=1)
            assert np.abs(_dot_rows(d, dense.KT[S.T]) - want).max() <= 1e-12
            assert np.abs(_rows_dot(dense.KT[S.T], rF) - want_T).max() <= 1e-12
            for op in (dense, table):
                scattered = np.zeros((30, F))
                scattered[cells] = d
                assert np.abs(op.apply(scattered) - want).max() <= 1e-12
                assert np.abs(op.apply_T(rF)[cells] - want_T).max() <= 1e-12
        with pytest.raises(LengthMismatch):
            heatflow_apply(H, np.zeros((29, 2)))

    def test_table_apply_equals_terminal_mean_bit_for_bit(self):
        g = sample_block_graph([10, 10, 10], 0.5, 0.05, seed=3)
        H = simulate_heat_flow(g, 1.0, B=7, seed=4)
        op = SmoothingOperator(table=H)
        rng = np.random.default_rng(26)
        for f in (rng.standard_normal(30), rng.standard_normal((30, 5))):
            want = f[H.terminals].mean(axis=1)
            for got in (op.apply(f), heatflow_apply(H, f)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

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

    def test_exactly_one_backing(self):
        H = simulate_heat_flow(sample_block_graph([3], 1.0, 0.0), 0.5, B=2, seed=1)
        for kwargs in ({}, {"dense": np.eye(3), "table": H}):
            with pytest.raises(ValueError, match="exactly one of a dense kernel or a walk table"):
                SmoothingOperator(**kwargs)


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

    @pytest.mark.parametrize("t", [1.0, 1e8, 1e14, 1e300, 1e308])
    def test_rows_keep_their_mass_at_large_t(self, t):
        # eigh can return a zero eigenvalue a little above 0: on one LAPACK
        # build this graph's three came out as -3e-15, 4e-16 and 9e-16
        K = exact_heat_kernel(sample_block_graph([5, 7, 9], 0.8, 0.0, seed=1), t)
        assert np.abs(K.sum(axis=1) - 1).max() < 1e-12

    def test_huge_t_is_the_group_average(self):
        K = exact_heat_kernel(group_clique_graph([3, 4]), 1e300)
        groups = GroupStructure(np.repeat([1, 2], [3, 4]))
        assert np.abs(K - group_averaging_kernel(groups)).max() < 1e-12

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "DENSE_LIMIT", 4)
        with pytest.raises(DimensionTooLarge):
            exact_heat_kernel(complete_graph(6), 1.0)


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
        assert H2.step_counts is None and H2.total_steps == H.total_steps > 0

    def test_hfm1_file_loads_with_no_step_total(self, tmp_path):
        H = simulate_heat_flow(EDGE, 0.8, B=3, seed=-7)
        path = tmp_path / "flow.hfm"
        path.write_bytes(b"HFM1" + struct.pack("<QQdq", 2, 3, 0.8, -7)
                         + H.terminals.astype("<i4").tobytes())
        H2 = load_heatflow(path)
        assert np.array_equal(H2.terminals, H.terminals)
        assert (H2.t, H2.B, H2.seed, H2.total_steps) == (0.8, 3, -7, 0)

    def _corrupt(self, tmp_path, edit):
        """Save a valid table, apply edit to its bytes and load the result."""
        path = tmp_path / "flow.hfm"
        save_heatflow(simulate_heat_flow(EDGE, 0.8, B=4, seed=3), path)
        path.write_bytes(edit(bytearray(path.read_bytes())))
        return load_heatflow(path)

    def test_negative_terminal_rejected(self, tmp_path):
        def first_terminal_minus_one(raw):
            raw[44:48] = (-1).to_bytes(4, "little", signed=True)
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

    @pytest.mark.parametrize("t", [-0.5, float("inf"), float("nan")])
    def test_bad_flow_time_rejected(self, tmp_path, t):
        def header_t(raw):
            raw[20:28] = struct.pack("<d", t)
            return raw
        with pytest.raises(ValueError, match="t must be finite"):
            self._corrupt(tmp_path, header_t)

    def test_seed_outside_header_writes_nothing(self, tmp_path):
        # simulate_heat_flow refuses such a seed; a matrix built by hand can
        # still carry one, and the header holds an i64
        path = tmp_path / "flow.hfm"
        H = dataclasses.replace(simulate_heat_flow(EDGE, 0.5, B=2), seed=2 ** 63)
        with pytest.raises(ValueError, match=f"seed {2 ** 63}"):
            save_heatflow(H, path)
        assert not path.exists()
        for seed in (-2 ** 63, 2 ** 63 - 1):
            save_heatflow(simulate_heat_flow(EDGE, 0.5, B=2, seed=seed), path)
            assert load_heatflow(path).seed == seed

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
        assert raw[:4] == b"HFM2"
        assert struct.unpack("<QQdqQ", raw[4:44]) == (2, 2, 0.25, 5, H.total_steps)
        assert raw[44:] == H.terminals.astype("<i4").tobytes()
