"""Walk simulation against the exact semigroup oracle."""
import bisect
import dataclasses
import decimal
import hashlib
import os
import re
import subprocess
import sys
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
    disjoint_union,
    figure_graph,
    group_clique_graph,
    sample_block_graph,
    sample_clustered_network,
)
from heatlasso.heatflow import (
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
PATH3 = Graph(3, [(0, 1), (1, 2)])  # the smallest graph that walks: K_2 takes one draw


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

    @pytest.mark.parametrize("t", [True, np.True_, "1", None, 1j])
    def test_flow_time_refuses_bools_and_non_numbers(self, t):
        # a bool is no number, so True is not read as 1
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            simulate_heat_flow(EDGE, t, B=5)
        for ok in (np.float32(0.5), np.int64(1)):
            assert simulate_heat_flow(EDGE, ok, B=5).terminals.shape == (2, 5)

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

    def test_simulation_imports_no_module(self):
        # np.unique imports numpy.ma (about 1 MB) on its first call; a table
        # in a fresh process needs nothing beyond what heatlasso imports
        code = ("import sys\n"
                "from heatlasso import simulate_heat_flow, sample_block_graph\n"
                "g = sample_block_graph([5, 7], 0.6, 0.1, seed=1)\n"
                "before = set(sys.modules)\n"
                "simulate_heat_flow(g, 1.0, 20, seed=3)\n"
                "print(sorted(set(sys.modules) - before))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_step_counts_past_int32_are_refused_before_any_table(self, monkeypatch):
        # t = 1e300 made numpy raise OverflowError; past 2**31 the int32 step
        # counts would wrap. On PATH3, Lambda_c = 2, and the largest step
        # count of the Poisson cut is ceil(2t + 10 sqrt(2t) + 30).
        def cut(t):
            return 2.0 * t + 10.0 * np.sqrt(2.0 * t) + 30.0

        lo, hi = 0.0, 2.0 ** 31  # bisected to the last t whose cut's ceil is below 2**31
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cut(mid) <= 2.0 ** 31 - 1 else (lo, mid)
        tables = []

        def no_table(mu):
            tables.append(mu)
            raise MemoryError("a table this long is not built here")
        monkeypatch.setattr(heatflow, "_poisson_inverse", no_table)
        for t in (1e300, hi, float(np.nextafter(hi, np.inf))):
            with pytest.raises(ValueError, match=re.escape(f"t={t!r} is too long for Lambda_c=2: ")):
                simulate_heat_flow(PATH3, t, B=2)
        assert tables == []
        with pytest.raises(MemoryError):  # below the bound the table is begun as before
            simulate_heat_flow(PATH3, lo, B=2)
        assert tables == [2.0 * lo]

    def test_numpy_integer_B_and_seed(self):
        g = figure_graph()
        a = simulate_heat_flow(g, 1.5, B=np.int32(20), seed=np.int64(-12345))
        b = simulate_heat_flow(g, 1.5, B=20, seed=-12345)
        assert a.terminals.tobytes() == b.terminals.tobytes()
        assert (a.B, a.seed) == (20, -12345) and type(a.B) is int and type(a.seed) is int


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(x):
    """The SplitMix64 finalizer in Python integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def reference_walks(g, t, B, seed):
    """The table one walk at a time, in Python integers: Lambda_c from the
    component labels, the step count N by bisecting the Poisson table at
    the top 53 bits of the walk's key, and step s's slot from the low
    (s even) or high (s odd) half of the hash of key ^ (s // 2), read off
    the unpadded CSR row (a slot past the degree stays put). A walk from
    a complete component of m vertices (each adjacent to the m - 1 others)
    draws N at rate m and, if N > 0, ends at slot (b m) >> 32 of the
    component's sorted vertices, b the low half of the hash of key ^ 0; its
    step count is min(N, 1)."""
    _, labels = connected_components(g)
    lam = np.zeros(g.p, dtype=np.int64)
    np.maximum.at(lam, labels, g.degrees)
    lam = lam[labels].tolist()
    indptr, indices, degrees = g.indptr.tolist(), g.indices.tolist(), g.degrees.tolist()
    members = {c: [v for v in range(g.p) if labels[v] == c] for c in set(labels.tolist())}
    clique = {v: vs for vs in members.values() for v in vs if len(vs) >= 2 and all(
        set(g.neighbors(u).tolist()) - {u} == set(vs) - {u} for u in vs)}
    seed_key, tables = _mix(seed & _MASK64), {}
    terminals, steps = [], []
    for w in range(g.p * B):
        v = w // B
        rate, key, n = len(clique[v]) if v in clique else lam[v], _mix(w ^ seed_key), 0
        if t > 0 and rate:
            if rate not in tables:
                k0, F = heatflow._poisson_inverse(rate * t)[:2]
                tables[rate] = k0, F.tolist()
            k0, F = tables[rate]
            n = k0 + bisect.bisect_right(F, (key >> 11) * 2.0 ** -53)
        if v in clique:
            if n:
                v = clique[v][((_mix(key) & 0xFFFFFFFF) * rate) >> 32]
            terminals.append(v)
            steps.append(min(n, 1))
            continue
        for s in range(n):
            h = _mix(key ^ (s >> 1))
            slot = ((h >> 32 if s & 1 else h & 0xFFFFFFFF) * rate) >> 32
            if slot < degrees[v]:
                v = indices[indptr[v] + slot]
        terminals.append(v)
        steps.append(n)
    return (np.array(terminals, dtype=np.int32).reshape(g.p, B),
            np.array(steps, dtype=np.int32).reshape(g.p, B))


class TestChunkedScheduleMatchesReference:
    """The chunked simulation, which sorts a chunk's walks by step count and
    steps only the prefix still moving, gives the one-walk-at-a-time
    reference's table byte for byte."""

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

    def test_star_step_counts_spread_wide(self):
        # Poisson(48) step counts: a chunk's prefix shrinks over many rounds
        g = Graph(9, [(0, j) for j in range(1, 9)])
        H = self.assert_same_table(g, 6.0, 300, seed=17)
        assert len(np.unique(H.step_counts)) >= 30

    def test_last_chunk_holds_a_single_walk(self):
        # p * B = 2 * _CHUNK + 1: the last chunk is a single walk
        g = Graph(3, [(0, 1), (1, 2)])
        B = (2 * _CHUNK + 1) // 3
        assert 3 * B == 2 * _CHUNK + 1
        H = self.assert_same_table(g, 3.0, B, seed=23)
        assert H.step_counts[-1, -1] > 1

    def test_isolated_vertices_across_chunks(self):
        # two vertices per chunk: vertices 0 and 1 fill the first chunk with
        # walks that never move, and vertex 4 the first half of the third
        g = Graph(7, [(2, 3), (3, 5), (2, 5), (5, 6)])
        B = _CHUNK // 2
        H = self.assert_same_table(g, 1.7, B, seed=29)
        assert not H.step_counts[[0, 1, 4]].any()
        assert H.step_counts[[2, 3, 5, 6]].any(axis=1).all()

    def test_complete_components_across_chunks(self):
        # K4 on the even vertices 0-6, interleaved with a path on 1, 3, 5,
        # and the isolated vertex 7: the walks of vertex 2 (ids 12,000 to
        # 17,999) span the first chunk boundary, those of the path's vertex
        # 5 the second
        g = Graph(8, [(a, b) for a in (0, 2, 4, 6) for b in (0, 2, 4, 6) if a < b]
                  + [(1, 3), (3, 5)])
        B = 6000
        assert 2 * B < _CHUNK < 3 * B and 5 * B < 2 * _CHUNK < 6 * B
        H = self.assert_same_table(g, 0.3, B, seed=37)
        assert H.step_counts[[0, 2, 4, 6]].max() == 1 and H.step_counts[[1, 3, 5]].max() > 1
        assert not (H.step_counts[[0, 2, 4, 6]].all() or H.step_counts[7].any())

    @pytest.mark.parametrize("t", [1e-9, 0.05, 1.0, 40.0])
    def test_complete_components_with_self_loops_and_k2(self, t):
        # K2, K3 with a self-loop at each vertex (still complete: L ignores
        # loops), K3 with one loop, a triangle with a pendant (not complete)
        # and an isolated vertex; at t = 40 no walk on K3 has N = 0
        edges = [(0, 1), (2, 3), (3, 4), (2, 4), (2, 2), (3, 3), (4, 4),
                 (5, 6), (6, 7), (5, 7), (5, 5), (8, 9), (9, 10), (8, 10), (10, 11)]
        g = Graph(13, edges, allow_self_loops=True)
        H = self.assert_same_table(g, t, 300, seed=41)
        assert H.step_counts[:8].max() <= 1

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    @pytest.mark.parametrize("cliques", [False, True], ids=["sbm", "cliques"])
    def test_chunk_length_does_not_change_the_table(self, monkeypatch, chunk, cliques):
        g = sample_block_graph([8, 12, 10], 0.4, 0.05, seed=6, self_loops=True)
        if cliques:  # two complete groups with a self-loop at every vertex, and one that walks
            g = sample_clustered_network([8, 12, 10], [1.0, 0.4, 1.0], seed=6)
        want = simulate_heat_flow(g, 1.3, 40, seed=5)
        monkeypatch.setattr(heatflow, "_CHUNK", chunk)
        got = simulate_heat_flow(g, 1.3, 40, seed=5)
        assert got.terminals.tobytes() == want.terminals.tobytes()
        assert got.step_counts.tobytes() == want.step_counts.tobytes()

    def test_table_hash_is_pinned(self):
        # integer arithmetic apart from the Poisson table, which takes only
        # IEEE products, quotients and sums: the same bytes on every platform.
        # The edge is K_2, so each walk takes min(N, 1) steps, N ~ Poisson(2)
        H = simulate_heat_flow(figure_graph(), 1.0, 1000, seed=0)
        digest = hashlib.sha256(H.terminals.astype("<i4").tobytes()
                                + H.step_counts.astype("<i4").tobytes()).hexdigest()
        assert digest == "aea0175fbe3bf0c421ab0f8d5c5b367308d2d67b4bdd8671990adb15ccff55bf"
        assert H.total_steps == 1716


class TestDrawMapping:
    """How a walk's key becomes its step count and a hash its slots, at the
    ends of the 53-bit uniform and of both 32-bit halves, on a star whose
    centre has the largest degree, Lambda = 8."""

    STAR = Graph(9, [(0, j) for j in range(1, 9)])

    @staticmethod
    def run_with_hashes(monkeypatch, hashes):
        """The table of one walk per vertex at t = 0.25 (Poisson(2) step
        counts) when every walk key is 2^63, which gives u = 1/2 and N = 2,
        and hash d is hashes[min(d, len(hashes) - 1)] for every walk."""
        def fixed_keys(x, scratch):
            x[:] = np.uint64(1 << 63)
            return x

        def fixed(keys, d, out, scratch):
            out[:] = np.uint64(hashes[min(d, len(hashes) - 1)])
            return out

        monkeypatch.setattr(heatflow, "_finalize", fixed_keys)
        monkeypatch.setattr(heatflow, "_hash_into", fixed)
        return simulate_heat_flow(TestDrawMapping.STAR, 0.25, B=1)

    def test_top_of_both_halves_jumps_at_once_to_the_last_neighbour(self, monkeypatch):
        # b = 2^32 - 1 picks slot 7 of 8: the centre goes to its last leaf,
        # 8, and stays there; a leaf's slot 7 is a copy of itself
        H = self.run_with_hashes(monkeypatch, [2 ** 64 - 1])
        assert H.terminals.ravel().tolist() == [8] + list(range(1, 9))
        assert H.step_counts.ravel().tolist() == [2] * 9

    def test_bottom_of_both_halves_takes_the_first_neighbour(self, monkeypatch):
        # b = 0 picks slot 0: the centre goes to leaf 1 and back, each leaf
        # to the centre and on to leaf 1
        H = self.run_with_hashes(monkeypatch, [0])
        assert H.terminals.ravel().tolist() == [0] + [1] * 8

    @pytest.mark.parametrize("low, high, ends", [
        (2 ** 32 - 1, 0, [0] * 9),              # slot 7, then slot 0
        (0, 2 ** 32 - 1, [1] + [8] * 8),        # slot 0, then slot 7
        (2 ** 29 - 1, 2 ** 29, [1] + [2] * 8),  # the last b of slot 0, the first of slot 1
    ], ids=["top_then_bottom", "bottom_then_top", "slot_edges"])
    def test_low_half_is_the_first_step(self, monkeypatch, low, high, ends):
        H = self.run_with_hashes(monkeypatch, [high << 32 | low])
        assert H.terminals.ravel().tolist() == ends

    @pytest.mark.parametrize("key, steps, ends", [(0, 0, [0, 1, 2]), (2 ** 64 - 1, 17, [0, 2, 2])],
                             ids=["bottom", "top"])
    def test_step_count_at_both_ends_of_the_53_bit_uniform(self, monkeypatch, key, steps, ends):
        # the path 0-1-2 at t = 1/2: Lambda_c = 2, so Poisson(1) steps. u = 0
        # gives N = 0; u = 1 - 2^-53 gives 17, as Poisson(1) puts 1.1e-15
        # above 16 and 6.1e-17 < 2^-53 above 17. Every hash is 2^64 - 1 too,
        # so every step takes slot 1: 0 stays (its padding), 1 goes to 2 and
        # 2 stays
        def fixed(x, scratch):
            x[:] = np.uint64(key)
            return x

        monkeypatch.setattr(heatflow, "_finalize", fixed)
        H = simulate_heat_flow(PATH3, 0.5, B=1)
        assert H.step_counts.ravel().tolist() == [steps] * 3
        assert H.terminals.ravel().tolist() == ends

    def test_one_hash_of_key_xor_d_per_two_steps(self, monkeypatch):
        # a single chunk: hash d of each walk still moving is key ^ d, taken
        # once for steps 2d and 2d + 1, for d = 0 up to the last step's
        real, hashed = heatflow._hash_into, []

        def recording(keys, d, out, scratch):
            x = real(keys, d, out, scratch)
            assert x.tolist() == [_mix(k ^ d) for k in keys.tolist()]
            hashed.append(d)
            return x

        monkeypatch.setattr(heatflow, "_hash_into", recording)
        H = TestChunkedScheduleMatchesReference.assert_same_table(self.STAR, 2.0, 50, seed=3)
        assert hashed == list(range((H.step_counts.max() + 1) // 2))


class TestUniformization:
    def test_rate_is_the_largest_degree_of_each_component(self):
        # a star (centre degree 4), a 600-vertex path whose hub (degree 6)
        # sits at its far end, row 604, two 256-row blocks past the path's
        # smallest vertex, and an isolated vertex
        path = [(i, i + 1) for i in range(5, 604)] + [(604, j) for j in range(605, 610)]
        g = Graph(611, [(0, j) for j in range(1, 5)] + path)
        lam = heatflow._components(g)[0]
        assert lam.dtype == np.int64 and lam.tolist() == [4] * 5 + [6] * 605 + [0]
        # 2,002 vertices: a path whose only degree-3 vertex (row 1,999)
        # carries two leaves
        g = Graph(2002, [(i, i + 1) for i in range(1999)] + [(1999, 2000), (1999, 2001)])
        assert heatflow._components(g)[0].tolist() == [3] * 2002

    def test_complete_components_are_found(self):
        # K3, K4 minus an edge, K2 with a self-loop at one end, a 4-cycle,
        # K3 with loops everywhere, and an isolated vertex with a loop
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
                 (7, 8), (8, 8), (9, 10), (10, 11), (11, 12), (9, 12),
                 (13, 14), (14, 15), (13, 15), (13, 13), (14, 14), (15, 15), (16, 16)]
        lam, size, base, members = heatflow._components(Graph(17, edges, allow_self_loops=True))
        assert size.tolist() == [3] * 3 + [0] * 4 + [2] * 2 + [0] * 4 + [3] * 3 + [0]
        for v in np.flatnonzero(size):
            group = members[base[v]:base[v] + size[v]].tolist()
            assert v in group and group == sorted(group)
        assert lam[[7, 13, 16]].tolist() == [2, 3, 1]

    def test_step_count_mean_and_variance_are_lambda_t(self):
        # the circulant C_8(1, 2) is 4-regular and not complete, so N ~
        # Poisson(6) at t = 1.5; 100,000 walks put the mean within 0.04
        # (5 sd) and the variance within 0.15 (5 sd)
        g = Graph(8, [(i, (i + d) % 8) for i in range(8) for d in (1, 2)])
        assert g.degrees.tolist() == [4] * 8
        H = simulate_heat_flow(g, 1.5, 12_500, seed=11)
        n = H.step_counts.ravel().astype(np.float64)
        assert abs(n.mean() - 6.0) < 0.04
        assert abs(n.var() - 6.0) < 0.15

    def test_one_draw_on_complete_components_keeps_the_law(self):
        # K5, K_2 and a complete group of 3, beside a 4-vertex path and an
        # isolated vertex: every entry of K^ within 5 binomial sd of e^{-tL}
        # at B = 20,000, and the complete components' walks take at most
        # one step each
        g = disjoint_union(complete_graph(5), Graph(4, [(0, 1), (1, 2), (2, 3)]),
                           complete_graph(2), Graph(1), complete_graph(3))
        B, t = 20_000, 0.3
        H = simulate_heat_flow(g, t, B, seed=19)
        K, Khat = exact_heat_kernel(g, t), empirical_kernel(H)
        sd = np.sqrt(np.maximum(K * (1 - K), 1e-12) / B)
        assert np.all(np.abs(Khat - K) <= 5 * sd + 1e-12)
        clique = np.r_[0:5, 9:11, 12:15]
        assert H.step_counts[clique].max() == 1 and H.step_counts[5:9].max() > 1

    @pytest.mark.parametrize("t", [0.05, 2.0, 1e300])
    def test_complete_component_walk_is_one_uniform_draw(self, t):
        # on K6, a walk takes min(N, 1) steps, N ~ Poisson(6 t), and one that
        # moves ends uniformly on the component, its start included. At
        # t = 1e300 every walk moves, where the lazy chain would be refused
        g = complete_graph(6)
        B = 6000
        H = simulate_heat_flow(g, t, B, seed=23)
        assert set(np.unique(H.step_counts).tolist()) <= {0, 1}
        moved = H.step_counts == 1
        stay = np.exp(-6 * t)
        assert abs((~moved).mean() - stay) <= 5 * np.sqrt(stay * (1 - stay) / (6 * B)) + 1e-12
        assert np.all(H.terminals[~moved] == np.nonzero(~moved)[0])
        counts = np.bincount(H.terminals[moved], minlength=6)  # chi-square, 5 dof
        expected = moved.sum() / 6
        assert ((counts - expected) ** 2 / expected).sum() < 25.0
        for i in range(6):  # each start's moves are uniform too
            row = np.bincount(H.terminals[i][moved[i]], minlength=6)
            assert ((row - row.sum() / 6) ** 2 / (row.sum() / 6)).sum() < 25.0

    @pytest.mark.parametrize("mu", [0.05, 1.0, 8.0, 80.3, 400.0, 5000.0])
    def test_poisson_table_is_the_cdf(self, mu):
        # against the CDF in 60-digit decimals, from e^-mu up by mu / k
        k0, F, lo, hi = heatflow._poisson_inverse(mu)
        decimal.getcontext().prec = 60
        m = decimal.Decimal(mu)
        term = cdf = (-m).exp()
        exact = [cdf]
        for k in range(1, k0 + len(F)):
            term = term * m / k
            cdf += term
            exact.append(cdf)
        assert np.abs(F - np.array(exact[k0:], dtype=np.float64)).max() <= 2.0 ** -49
        assert float(exact[k0]) < 2.0 ** -60 or k0 == 0
        assert 1 - float(exact[-1]) < 2.0 ** -60
        # the guide: every u of bucket j, both ends included, has its count
        # of entries of F at most u in [lo[j], hi[j]]
        width = 2.0 ** -heatflow._GUIDE_BITS
        j = np.arange(len(lo))
        for u in (j * width, (j + 1) * width - 2.0 ** -53):
            n = np.searchsorted(F, u, side="right")
            assert np.all((lo <= n) & (n <= hi))


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

    @pytest.mark.parametrize("t", [True, np.True_, "1", None, 1j])
    def test_flow_time_refuses_bools_and_non_numbers(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            exact_heat_kernel(EDGE, t)
        assert np.array_equal(exact_heat_kernel(EDGE, np.int64(1)), exact_heat_kernel(EDGE, 1.0))

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
