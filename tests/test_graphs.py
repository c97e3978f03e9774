"""Graph representation, Laplacian/spectral oracles, generators, estimation."""
import os
import warnings

import numpy as np
import pytest

from heatlasso import graphs
from heatlasso.errors import (
    DimensionTooLarge,
    InvalidProbability,
    InvalidQuantile,
    NotACorrelation,
)
from heatlasso.graphs import (
    Graph,
    complete_graph,
    connected_components,
    disjoint_union,
    _CORR_ROWS,
    _abs_corr,
    _row_blocks,
    estimate_graph,
    estimate_graph_from_data,
    figure_graph,
    laplacian,
    path_graph,
    read_correlation_csv,
    read_graph,
    sample_block_graph,
    sample_clustered_network,
    spectral_decompose,
    write_graph,
)


def random_graph(rng, p, density=0.4):
    mask = rng.random((p, p)) < density
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if mask[i, j]]
    return Graph(p, edges=edges)


class TestGraphInvariants:
    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, edges=[(2, 0), (3, 1), (0, 1)])
        for i in range(4):
            nbrs = g.neighbors(i)
            assert np.array_equal(nbrs, np.sort(nbrs))
            for j in nbrs:
                assert i in g.neighbors(j)

    def test_repr(self):
        assert repr(Graph(4, edges=[(0, 1), (2, 3), (1, 0)])) == "Graph(p=4, edges=2)"

    def test_duplicate_edges_collapse(self):
        g = Graph(3, edges=[(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.degrees.tolist() == [1, 1, 0]

    @pytest.mark.parametrize("p", [2.5, 3.0, True, np.float64(4.0)])
    def test_vertex_count_must_be_an_integer(self, p):
        with pytest.raises(ValueError, match="vertex count must be an integer >= 1"):
            Graph(p)

    @pytest.mark.parametrize("p", [3_037_000_500, np.int64(2**62), 10**30])
    def test_vertex_count_whose_keys_overflow_is_refused_before_allocating(self, p):
        # 3,037,000,499 is the largest p with p * p below 2**63
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="keys i \\* p \\+ j overflow int64"):
                Graph(p, edges=[(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(ValueError):
            Graph(3, edges=[(1, 1)])

    def test_self_loop_allowed_when_opted_in(self):
        g = Graph(3, edges=[(1, 1), (0, 1)], allow_self_loops=True)
        assert g.degrees.tolist() == [1, 2, 0]
        assert g.edge_count == 2

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 5\)"):
            Graph(2, edges=[(0, 1), (0, 5)])
        with pytest.raises(ValueError, match=r"edge \(-1, 1\)"):
            Graph(2, edges=[(-1, 1)])

    @pytest.mark.parametrize("edges, j", [
        ([(0, 2 ** 70)], 2 ** 70), ([(0, -2 ** 70)], -2 ** 70),
        (np.array([[0, 2 ** 63]], dtype=np.uint64), 2 ** 63)])
    def test_edge_outside_int64_is_named_as_given(self, edges, j):
        # checked before the int64 cast, which overflows on 2**70 and wraps
        # the uint64 2**63 to -2**63
        with pytest.raises(ValueError, match=rf"^edge \(0, {j}\) outside vertex range \[0, 3\)$"):
            Graph(3, edges=edges)

    def test_self_loop_error_names_the_vertex(self):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            Graph(3, edges=[(0, 1), (2, 2), (1, 1)])

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2, 0)], [0, 1, 2, 3], [[[0, 1]]]])
    def test_edges_must_be_m_by_2(self, edges):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            Graph(4, edges=edges)

    @pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, 2.9)], [(0, True)], [(0, np.True_)],
                                       np.array([[0, 1]], dtype=np.float64),
                                       np.array([[0, 1]], dtype=bool)])
    def test_edges_must_be_integers(self, edges):
        # before the check, (0, 1.5) built (0, 1), (0, 2.9) built (0, 2) and
        # (0, True) built (0, 1)
        with pytest.raises(ValueError, match="edge indices must be integers"):
            Graph(3, edges=edges)

    def test_empty_edge_list(self):
        for edges in ((), [], np.zeros((0, 2), dtype=np.int64)):
            g = Graph(3, edges=edges)
            assert g.edge_count == 0 and g.degrees.tolist() == [0, 0, 0]

    def test_csr_matches_set_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = int(rng.integers(1, 30))
            loops = bool(rng.integers(2))
            edges = rng.integers(0, p, size=(int(rng.integers(0, 3 * p)), 2))
            if not loops:
                edges = edges[edges[:, 0] != edges[:, 1]]
            edges = np.concatenate([edges, edges[: len(edges) // 3, ::-1]])  # reversed repeats
            g = Graph(p, edges=edges, allow_self_loops=loops)
            sets = [set() for _ in range(p)]
            for i, j in edges.tolist():
                sets[i].add(j)
                sets[j].add(i)
            for i in range(p):
                assert g.neighbors(i).tolist() == sorted(sets[i])
            assert g.degrees.tolist() == [len(s) for s in sets]
            ref = sorted({(min(i, j), max(i, j)) for i, j in edges.tolist()})
            assert g._edge_array().tolist() == [list(e) for e in ref]
            assert g.edge_count == len(ref)
            A = np.zeros((p, p), dtype=np.int64)
            for i, j in ref:
                A[i, j] = A[j, i] = 1
            assert np.array_equal(g.adjacency(), A)

    @pytest.mark.parametrize("loops", [False, True])
    def test_edge_count_from_degrees_matches_edge_list(self, loops):
        # counted from the degree sum and the self-loops, without the edge array
        rng = np.random.default_rng(23)
        for p in (1, 2, 7, 40):
            for _ in range(5):
                edges = rng.integers(0, p, size=(int(rng.integers(0, 3 * p + 1)), 2))
                if not loops:
                    edges = edges[edges[:, 0] != edges[:, 1]]
                else:
                    edges = np.concatenate([edges, [[0, 0]]])  # at least one loop
                g = Graph(p, edges=edges, allow_self_loops=loops)
                assert g.edge_count == len(g._edge_array())
        # a loop-free graph that allows self-loops, and one loop alone at p = 1
        assert Graph(3, [(0, 1), (1, 2)], allow_self_loops=True).edge_count == 2
        assert Graph(1, [(0, 0)], allow_self_loops=True).edge_count == 1

    def test_tiled_reversed_edges_give_the_same_csr(self):
        # the same edge set once, and reversed and repeated until the list
        # holds at least p^2 / 16 edges, many times over each distinct one
        rng = np.random.default_rng(22)
        for p in (20, 40, 64):
            for loops in (False, True):
                edges = rng.integers(0, p, size=(p, 2))
                if not loops:
                    edges = edges[edges[:, 0] != edges[:, 1]]
                repeats = p * p // (16 * len(edges)) + 1
                assert p * p > 16 * len(edges)
                assert p * p <= 16 * len(edges) * repeats
                sparse = Graph(p, edges=edges, allow_self_loops=loops)
                dense = Graph(p, edges=np.tile(edges[:, ::-1], (repeats, 1)),
                              allow_self_loops=loops)
                assert np.array_equal(sparse.indices, dense.indices)
                assert np.array_equal(sparse.indptr, dense.indptr)
                assert np.array_equal(sparse.degrees, dense.degrees)
                assert dense.indices.dtype == np.int32 and dense.indptr.dtype == np.int64
                if not loops:  # the estimator's route, from an adjacency mask
                    A = np.zeros((p, p), dtype=bool)
                    A[edges[:, 0], edges[:, 1]] = A[edges[:, 1], edges[:, 0]] = True
                    masked = Graph._from_mask(A)
                    assert np.array_equal(sparse.indices, masked.indices)
                    assert np.array_equal(sparse.indptr, masked.indptr)
                    assert masked.indices.dtype == np.int32
                    assert masked.indptr.dtype == np.int64

    def test_flat_adjacency_layout(self):
        g = sample_clustered_network([6, 9], 0.5, self_loops=True, seed=4)
        indices, indptr = g.flat_adjacency()
        assert indices.dtype == np.int32 and indptr.dtype == np.int64
        assert indptr.shape == (g.p + 1,) and indptr[0] == 0
        assert indptr[-1] == indices.size
        assert np.array_equal(np.diff(indptr), g.degrees)
        for i in range(g.p):
            row = indices[indptr[i]:indptr[i + 1]]
            assert np.all(np.diff(row) > 0)


class TestLaplacian:
    def test_single_vertex(self):
        assert laplacian(Graph(1)).tolist() == [[0.0]]

    def test_two_vertex_edge(self):
        assert laplacian(Graph(2, [(0, 1)])).tolist() == [[1, -1], [-1, 1]]

    def test_figure_graph_block_diagonal(self):
        L = laplacian(figure_graph())
        expected = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(L, expected)

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 30)))
            assert np.all(laplacian(g).sum(axis=1) == 0.0)

    def test_row_sums_zero_with_self_loops(self):
        g = Graph(3, edges=[(0, 0), (0, 1), (1, 2)], allow_self_loops=True)
        assert np.all(laplacian(g).sum(axis=1) == 0.0)


class TestSpectralDecompose:
    def test_figure_graph_gap(self):
        spec = spectral_decompose(figure_graph())
        assert spec.zero_multiplicity == 2
        assert spec.spectral_gap == pytest.approx(2.0, abs=1e-10)

    def test_two_complete_graphs(self):
        g = disjoint_union(complete_graph(5), complete_graph(5))
        spec = spectral_decompose(g)
        assert spec.zero_multiplicity == 2
        assert spec.spectral_gap == pytest.approx(5.0, abs=1e-8)

    def test_single_vertex(self):
        spec = spectral_decompose(Graph(1))
        assert spec.eigenvalues.tolist() == [0.0]
        assert spec.zero_multiplicity == 1

    def test_eigenpairs_satisfy_definition(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 12)
        L = laplacian(g)
        spec = spectral_decompose(g)
        resid = L @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.abs(resid).max() < 1e-8
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(g.p)).max() < 1e-8

    def test_edgeless_graph_has_no_gap(self):
        with pytest.raises(ValueError, match="no nonzero Laplacian eigenvalue"):
            spectral_decompose(Graph(3)).spectral_gap

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "DENSE_LIMIT", 4)
        with pytest.raises(DimensionTooLarge):
            spectral_decompose(Graph(5))

    def test_zero_multiplicity_matches_component_count(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = int(rng.integers(2, 65))
            g = random_graph(rng, p, density=float(rng.uniform(0.02, 0.3)))
            count, _ = connected_components(g)
            assert spectral_decompose(g).zero_multiplicity == count

    def test_operator_norm_at_most_twice_max_degree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 30)))
            sig = np.abs(spectral_decompose(g).eigenvalues).max()
            assert sig <= 2 * g.max_degree + 1e-9


def breadth_first_components(g):
    """(count, labels) by breadth-first search from each unlabelled vertex in
    index order: the numbering connected_components must give."""
    labels, count = np.full(g.p, -1), 0
    for s in range(g.p):
        if labels[s] < 0:
            labels[s], queue = count, [s]
            for v in queue:
                for u in g.neighbors(v):
                    if labels[u] < 0:
                        labels[u] = count
                        queue.append(u)
            count += 1
    return count, labels


class TestConnectedComponents:
    @staticmethod
    def check(g):
        count, labels = connected_components(g)
        assert labels.dtype == np.int64 and labels.shape == (g.p,)
        assert labels.min() == 0 and labels.max() == count - 1
        i, j = g._edge_array().T
        assert np.array_equal(labels[i], labels[j])  # equal across every edge
        # numbered in order of each component's smallest vertex
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0)
        want_count, want = breadth_first_components(g)
        assert count == want_count and np.array_equal(labels, want)
        return count, labels

    def test_random_graphs_match_breadth_first_search(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            p = int(rng.integers(1, 80))
            loops = bool(rng.integers(2))
            edges = rng.integers(0, p, size=(int(rng.integers(0, 2 * p)), 2))
            if not loops:
                edges = edges[edges[:, 0] != edges[:, 1]]
            self.check(Graph(p, edges=edges, allow_self_loops=loops))

    def test_long_path_is_one_component(self):
        count, labels = self.check(path_graph(2000))
        assert count == 1 and not labels.any()

    def test_isolated_vertices_and_a_self_loop(self):
        count, labels = self.check(Graph(5))
        assert count == 5 and labels.tolist() == [0, 1, 2, 3, 4]
        count, labels = self.check(Graph(5, edges=[(1, 1), (4, 2)], allow_self_loops=True))
        assert count == 4 and labels.tolist() == [0, 1, 2, 3, 2]

    def test_sparse_shuffled_graphs_over_several_row_blocks(self):
        # components that span several _CORR_ROWS-row blocks in shuffled
        # vertex order, so labels must travel both ways across blocks, with
        # self-loops and isolated vertices
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = int(rng.integers(2 * _CORR_ROWS, 6 * _CORR_ROWS))
            edges = rng.integers(0, p, size=(int(rng.integers(p // 4, p)), 2))
            g = Graph(p, edges=edges, allow_self_loops=True)
            assert (g.degrees == 0).any()
            self.check(g)

    def test_shuffled_long_path_is_one_component(self):
        # labels must travel 20,000 hops through a random row order
        perm = np.random.default_rng(24).permutation(20_000)
        g = Graph(20_000, edges=perm[path_graph(20_000)._edge_array()])
        count, labels = self.check(g)
        assert count == 1 and not labels.any()

    def test_path_with_its_hub_at_the_far_end(self):
        # 2,002 vertices: a path whose only degree-3 vertex (row 1,999)
        # carries two leaves
        count, labels = self.check(Graph(2002, [(i, i + 1) for i in range(1999)]
                                         + [(1999, 2000), (1999, 2001)]))
        assert count == 1 and not labels.any()

    def test_peak_memory_holds_no_per_edge_array(self):
        # below 8 bytes per stored neighbour entry (the labelling with
        # per-edge arrays read 16.1); temporaries are one row block's
        import tracemalloc

        g = complete_graph(1200)
        tracemalloc.start()
        try:
            count, labels = connected_components(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1 and not labels.any()
        assert peak < 8 * len(g.indices)


class TestEstimateGraph:
    def test_identity_gives_empty_graph(self):
        g = estimate_graph(np.eye(4), alpha=0.5)
        assert g.edge_count == 0

    def test_nearest_rank_median(self):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.9
        corr[0, 2] = corr[2, 0] = 0.2
        corr[1, 2] = corr[2, 1] = 0.1
        g = estimate_graph(corr, alpha=0.5)  # threshold = 0.2, strict >
        assert g._edge_array().tolist() == [[0, 1]]

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 6))
        corr = np.corrcoef(X, rowvar=False)
        g1 = estimate_graph(corr, 0.6)
        flip = np.diag([1, -1, 1, -1, -1, 1]).astype(float)
        g2 = estimate_graph(flip @ corr @ flip, 0.6)
        assert np.array_equal(g1._edge_array(), g2._edge_array())

    def test_invalid_quantile(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidQuantile):
                estimate_graph(np.eye(3), alpha)

    def test_not_a_correlation(self):
        bad = np.eye(3)
        bad[0, 0] = 0.5
        with pytest.raises(NotACorrelation):
            estimate_graph(bad, 0.5)
        asym = np.eye(3)
        asym[0, 1] = 0.5
        with pytest.raises(NotACorrelation):
            estimate_graph(asym, 0.5)
        nan = np.eye(3)
        nan[0, 1] = nan[1, 0] = np.nan
        with pytest.raises(NotACorrelation):
            estimate_graph(nan, 0.5)
        with pytest.raises(NotACorrelation, match=r"square matrix, got shape \(3, 2\)"):
            estimate_graph(np.eye(3, 2), 0.5)
        big = np.eye(3)
        big[0, 2] = big[2, 0] = -1.5
        with pytest.raises(NotACorrelation, match=r"\|corr_ij\| <= 1"):
            estimate_graph(big, 0.5)

    def test_single_vertex(self):
        assert estimate_graph(np.eye(1), 0.5).edge_count == 0

    @pytest.mark.parametrize("sample", [1 << 16, 1, None])
    @pytest.mark.parametrize("p", [1, 2, 37, _CORR_ROWS + 44])
    def test_ties_at_threshold_match_partition(self, p, sample, monkeypatch):
        # five distinct |corr| values, so the threshold is tied many times and
        # a bracket from 2^16 sampled pairs has it at its lower end; one
        # sampled pair mostly brackets the whole range; None: no bracket
        bracket_every_size(monkeypatch, sample)
        rng = np.random.default_rng(p)
        corr = rng.choice([0.0, 0.25, -0.25, 0.5, 1.0], size=(p, p))
        corr = np.triu(corr, 1) + np.triu(corr, 1).T + np.eye(p)
        for alpha in (0.1, 0.5, 0.75, 0.99):
            assert_same_graph(estimate_graph(corr, alpha), partition_graph(corr, alpha))

    @pytest.mark.parametrize("sample", [1 << 16, 1, None])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_rank_at_either_end_of_the_threshold_digit(self, end, sample, monkeypatch):
        # 40 distinct values (and repeats) lie close around the threshold
        # (their float64 bits from 48 up are equal); the rank falls on the
        # smallest or the largest of them
        bracket_every_size(monkeypatch, sample)
        rng = np.random.default_rng(17)
        high = np.float64(0.3).view(np.int64) >> 48
        offsets = rng.choice(1 << 48, size=40, replace=False)
        shared = ((high << 48) + offsets).view(np.float64)
        shared = np.concatenate([shared, np.sort(shared)[10:20]])  # repeats, not at the ends
        p = 40
        pairs = p * (p - 1) // 2
        below = rng.uniform(0.0, 0.2, size=300)
        next_digit = ((high + 1) << 48).view(np.float64)  # the first value past them
        vals = np.concatenate([below, shared, [next_digit],
                               rng.uniform(0.5, 1.0, pairs - below.size - shared.size - 1)])
        corr = np.eye(p)
        i, j = np.triu_indices(p, k=1)
        corr[i, j] = corr[j, i] = rng.permutation(vals) * rng.choice([-1.0, 1.0], pairs)
        rank = below.size + (1 if end == "first" else shared.size)
        g = estimate_graph(corr, (rank - 0.5) / pairs)
        assert_same_graph(g, partition_graph(corr, (rank - 0.5) / pairs))
        theta = shared.min() if end == "first" else shared.max()
        assert g.edge_count == np.count_nonzero(vals > theta)

    @pytest.mark.parametrize("where", ["below", "above", "at_lo", "at_hi", "inside"])
    def test_threshold_outside_the_bracket_runs_the_pass_again(self, where, monkeypatch):
        # brackets set around the threshold (the t-th smallest |corr|): below
        # it or above it, a second pass, which keeps every value, finds it;
        # at either end or inside, one pass does
        rng = np.random.default_rng(23)
        p, alpha = _CORR_ROWS + 44, 0.7
        corr = np.eye(p)
        i, j = np.triu_indices(p, k=1)
        corr[i, j] = corr[j, i] = rng.uniform(-1.0, 1.0, i.size)
        vals = np.sort(np.abs(corr[i, j]))
        t = int(np.ceil(alpha * i.size)) - 1
        ends = {"below": (-9, -5), "above": (5, 9), "at_lo": (0, 5), "at_hi": (-5, 0),
                "inside": (-5, 5)}[where]
        monkeypatch.setattr(graphs, "_SAMPLE_ABOVE", 0)
        monkeypatch.setattr(graphs, "_bracket", lambda *args: tuple(vals[t + k] for k in ends))
        made = []

        def block(i0, i1):
            made.append(i0)
            return np.abs(corr[i0:i1, i0 + 1:])

        g = Graph._from_mask(graphs._threshold_mask(p, alpha, lambda: (block, None)))
        assert_same_graph(g, partition_graph(corr, alpha))
        again = len(_row_blocks(p, graphs._EXACT_ROWS)) if where in ("below", "above") else 0
        assert len(made) == len(_row_blocks(p)) + again


def partition_graph(corr, alpha):
    """Reference: np.partition's nearest-rank threshold over every |corr_ij|,
    i < j, and an edge where |corr_ij| exceeds it."""
    p = len(corr)
    i, j = np.triu_indices(p, k=1)
    vals = np.abs(corr[i, j])
    if vals.size == 0:
        return Graph(p)
    rank = int(np.ceil(alpha * vals.size))
    keep = vals > np.partition(vals, rank - 1)[rank - 1]
    return Graph(p, edges=np.column_stack((i[keep], j[keep])))


def bracket_every_size(monkeypatch, sample):
    """Bracket the threshold from `sample` random pairs whatever the size;
    None leaves the sizes below _SAMPLE_ABOVE pairs unbracketed."""
    if sample is not None:
        monkeypatch.setattr(graphs, "_SAMPLE_ABOVE", 0)
        monkeypatch.setattr(graphs, "_SAMPLE", sample)


def data_abs_corr(X):
    """The |corr| matrix that estimate_graph_from_data thresholds, unit diagonal."""
    p = X.shape[1]
    block = _abs_corr(X)[0]
    upper = np.zeros((p, p))
    for i0, i1 in _row_blocks(p):
        upper[i0:i1, i0 + 1:] = block(i0, i1)
    upper = np.triu(upper, 1)
    return upper + upper.T + np.eye(p)


def corrcoef_graph(X, alpha):
    """Reference: estimate_graph on np.corrcoef with NaN set to 0, a unit
    diagonal and entries clipped to [-1, 1]."""
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.atleast_2d(np.corrcoef(X, rowvar=False))
    corr = np.nan_to_num(corr, nan=0.0)
    np.fill_diagonal(corr, 1.0)
    return estimate_graph(np.clip(corr, -1.0, 1.0), alpha)


def assert_same_graph(g, h):
    assert g.p == h.p
    assert np.array_equal(g.indptr, h.indptr)
    assert np.array_equal(g.indices, h.indices)
    assert g.indices.dtype == h.indices.dtype and g.indptr.dtype == h.indptr.dtype


class TestEstimateGraphFromData:
    # p = 1 and 2; a p below the block height; one and two rows past it, so
    # the last block holds a row or two; a p spanning three blocks
    @pytest.mark.parametrize("p", [1, 2, 37, _CORR_ROWS + 2, _CORR_ROWS + 3,
                                   2 * _CORR_ROWS + 37])
    def test_matches_corrcoef_reference(self, p):
        rng = np.random.default_rng(p)
        mix = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
        X = rng.standard_normal((60, p)) @ mix + 5.0
        for alpha in (0.1, 0.5, 0.75, 0.99):
            assert_same_graph(estimate_graph_from_data(X, alpha), corrcoef_graph(X, alpha))

    def test_block_design_matches_reference(self):
        from heatlasso.designs import DesignSpec, sample_design_and_response

        spec = DesignSpec(kind="block_equicorr", sizes=(16, 24, 40, 20), n=200,
                          noise_sigma=0.5, seed=3, rhos=(0.6, 0.9, 0.7, 0.4))
        X = sample_design_and_response(spec)[0]
        g = estimate_graph_from_data(X, 0.75)
        assert_same_graph(g, corrcoef_graph(X, 0.75))
        assert g.edge_count > 0

    def test_constant_and_nan_columns_are_isolated(self):
        # runs under the suite's error::RuntimeWarning filter: no warning
        from heatlasso.experiments import _estimated_graph

        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 6))
        X[:, 1:3] += X[:, [0]]  # some strong correlations
        X[:, 2] = 1.0
        X[3, 4] = np.nan
        g = estimate_graph_from_data(X, 0.5)
        assert_same_graph(_estimated_graph(X, 0.5), g)
        assert g.degrees[2] == 0 and g.degrees[4] == 0
        assert g.edge_count > 0
        assert_same_graph(g, corrcoef_graph(X, 0.5))
        for bad in (np.inf, -np.inf):
            Y = X.copy()
            Y[0, 5], Y[1, 5] = bad, np.inf
            assert estimate_graph_from_data(Y, 0.5).degrees[5] == 0
        Y = X.copy()
        Y[:, 5] = -1.7e308  # its sum overflows, as in corrcoef
        Y[0, 5] = 1.7e308
        assert estimate_graph_from_data(Y, 0.5).degrees[5] == 0

    @pytest.mark.parametrize("sample", [1 << 16, 1])
    @pytest.mark.parametrize("p", [1, 2, 37, _CORR_ROWS + 44])
    def test_quantized_data_ties_match_partition(self, p, sample, monkeypatch):
        # three levels and repeated columns: many |corr| are equal; the
        # np.corrcoef reference rounds them differently, so the reference
        # here thresholds the values the estimate computes. The sample's dot
        # products round differently from the blocks, so its brackets miss
        # some of these thresholds
        bracket_every_size(monkeypatch, sample)
        rng = np.random.default_rng(p)
        base = rng.integers(0, 3, size=(12, max(1, p // 4))).astype(np.float64)
        X = base[:, rng.integers(0, base.shape[1], size=p)]
        corr = data_abs_corr(X)
        for alpha in (0.1, 0.5, 0.75, 0.99):
            g = estimate_graph_from_data(X, alpha)
            assert_same_graph(g, partition_graph(corr, alpha))
            assert_same_graph(g, estimate_graph(corr, alpha))

    def test_sample_size_does_not_change_the_graph(self, monkeypatch):
        # brackets from 16 to 2^14 sampled pairs, and none at this size
        from heatlasso.designs import DesignSpec, sample_design_and_response

        spec = DesignSpec(kind="block_equicorr", sizes=(48, 72, 120, 60), n=100,
                          noise_sigma=0.5, seed=5, rhos=(0.6, 0.9, 0.7, 0.4))
        X = sample_design_and_response(spec)[0]
        g = estimate_graph_from_data(X, 0.75)
        assert_same_graph(g, corrcoef_graph(X, 0.75))
        for sample in (16, 256, 4096, 1 << 14):
            bracket_every_size(monkeypatch, sample)
            assert_same_graph(estimate_graph_from_data(X, 0.75), g)

    def test_single_row_gives_empty_graph(self):
        assert estimate_graph_from_data(np.ones((1, 4)), 0.5).edge_count == 0

    def test_invalid_input(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidQuantile):
                estimate_graph_from_data(np.ones((5, 3)), alpha)
        for X in (np.ones(5), np.ones((5, 0)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=r"\(n, p\)"):
                estimate_graph_from_data(X, 0.5)

    def test_peak_memory_below_7_bytes_per_pair(self):
        # at p = 2000, n = 200 (the wide_graph benchmark's design): no p x p
        # float matrix, no copy of the p(p - 1)/2 values for a selection and
        # no edge list; the np.corrcoef route peaked at ~34 p^2 bytes and
        # the one copy for np.partition at ~11. With every other column
        # constant, 3/4 of the pairs tie at the threshold 0.
        import tracemalloc

        from heatlasso.designs import DesignSpec, sample_design_and_response

        spec = DesignSpec(kind="block_equicorr", sizes=(320, 480, 800, 400), n=200,
                          noise_sigma=0.5, seed=1, rhos=(0.6, 0.9, 0.7, 0.4))
        X = sample_design_and_response(spec)[0]
        corr = np.corrcoef(X, rowvar=False)
        tied = X.copy()
        tied[:, ::2] = 1.0
        p = X.shape[1]
        for estimate, data, alpha in ((estimate_graph_from_data, X, 0.75),
                                      (estimate_graph, corr, 0.75),
                                      (estimate_graph_from_data, tied, 0.5)):
            tracemalloc.start()
            try:
                estimate(data, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 7 * p * p, (estimate.__name__, alpha, peak / p / p)

    def test_peak_memory_at_p_1200_keeps_no_block(self):
        # p = 1200, n = 200: the standardized copy of X (1.3 p^2 bytes), the
        # mask (1 p^2), one block of |corr| (1.7 p^2) and the values inside
        # the bracket; keeping every block until the threshold is known
        # peaked at 6.6 p^2
        import tracemalloc

        from heatlasso.designs import DesignSpec, sample_design_and_response

        spec = DesignSpec(kind="block_equicorr", sizes=(192, 288, 480, 240), n=200,
                          noise_sigma=0.5, seed=1, rhos=(0.6, 0.9, 0.7, 0.4))
        X = sample_design_and_response(spec)[0]
        p = X.shape[1]
        tracemalloc.start()
        try:
            estimate_graph_from_data(X, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * p * p, peak / p / p

    def test_peak_memory_at_p_500_copies_no_value_twice(self):
        # p = 500, n = 400, below _SAMPLE_ABOVE pairs: the standardized copy
        # of X (6.4 p^2 bytes), every value in one buffer (4 p^2) and one
        # block of 32 rows; coding every pair and copying the kept values
        # for np.partition peaked at 15.05 p^2, every block kept at 12.40
        import tracemalloc

        from heatlasso.designs import DesignSpec, sample_design_and_response

        spec = DesignSpec(kind="block_equicorr", sizes=(80, 120, 200, 100), n=400,
                          noise_sigma=0.5, seed=1, rhos=(0.6, 0.9, 0.7, 0.4))
        X = sample_design_and_response(spec)[0]
        p = X.shape[1]
        tracemalloc.start()
        try:
            g = estimate_graph_from_data(X, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.4 * p * p, peak / p / p
        assert_same_graph(g, corrcoef_graph(X, 0.75))


class TestBlockGraphSampling:
    def test_empty_when_probabilities_zero(self):
        g = sample_block_graph([3, 4], 0.0, 0.0, seed=1)
        assert g.edge_count == 0

    def test_disjoint_cliques_when_a_one_b_zero(self):
        g = sample_block_graph([3, 2], 1.0, 0.0, seed=2)
        assert g.edge_count == 4  # K_3 plus K_2
        count, labels = connected_components(g)
        assert count == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]

    def test_mean_within_degree_matches_expectation(self):
        # size-40 block at a = 0.5: expected within-degree 0.5 * 39 = 19.5
        sizes = [16, 24, 40, 20]
        block = slice(40, 80)
        means = []
        for seed in range(100):
            g = sample_block_graph(sizes, 0.5, 0.01, seed=seed)
            A = g.adjacency()
            means.append(A[block, block].sum(axis=1).mean())
        assert abs(np.mean(means) - 19.5) < 1.0

    def test_deterministic_per_seed(self):
        g1 = sample_block_graph([5, 5], 0.5, 0.1, seed=7)
        g2 = sample_block_graph([5, 5], 0.5, 0.1, seed=7)
        assert np.array_equal(g1._edge_array(), g2._edge_array())
        g3 = sample_block_graph([5, 5], 0.5, 0.1, seed=8)
        assert not np.array_equal(g1._edge_array(), g3._edge_array())

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            sample_block_graph([3], 1.2, 0.0)
        with pytest.raises(InvalidProbability):
            sample_block_graph([3, 3], 0.2, 0.5)

    @pytest.mark.parametrize("sample", [
        lambda: sample_block_graph([4, 4.6], 0.9, 0.1),
        lambda: sample_clustered_network([3, 2.5], 0.5),
        lambda: sample_block_graph([4, True], 0.9, 0.1),
    ], ids=["block_float", "clustered_float", "block_bool"])
    def test_non_integer_size_refused(self, sample):
        with pytest.raises(ValueError, match="sizes must be integers"):
            sample()

    @pytest.mark.parametrize("xi", [[0.5], [0.5, 0.5, 0.5]])
    def test_clustered_network_needs_one_xi_per_block(self, xi):
        with pytest.raises(ValueError, match="one probability per block"):
            sample_clustered_network([2, 2], xi)

    def test_clustered_network_allows_self_loops(self):
        g = sample_clustered_network([20], 1.0, seed=0)
        assert g.allow_self_loops
        assert any(i == j for i, j in g._edge_array())

    def test_clustered_network_gap_scales_with_size(self):
        # gap/p should sit inside a fixed multiple of the block densities
        sizes, xi = [40, 60], [0.4, 0.6]
        p = sum(sizes)
        lo = 0.2 * min(x * s / p for x, s in zip(xi, sizes))
        hi = 1.2 * max(x * s / p for x, s in zip(xi, sizes))
        hits = 0
        trials = 50
        for seed in range(trials):
            g = sample_clustered_network(sizes, xi, seed=seed)
            gap = spectral_decompose(g).spectral_gap
            hits += lo <= gap / p <= hi
        assert hits >= 0.95 * trials


@pytest.mark.parametrize("p_total", [50, 100, 200])
def test_clustered_network_gap_bracket_across_sizes(p_total):
    sizes = [p_total // 2, p_total - p_total // 2]
    xi = 0.5
    lo = 0.2 * min(xi * s / p_total for s in sizes)
    hi = 1.2 * max(xi * s / p_total for s in sizes)
    hits = 0
    trials = 50
    for seed in range(trials):
        g = sample_clustered_network(sizes, xi, seed=seed)
        gap = spectral_decompose(g).spectral_gap
        hits += lo <= gap / p_total <= hi
    assert hits >= 0.95 * trials


class TestGraphFileFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 9)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        g2 = read_graph(path)
        assert g2.p == g.p
        assert np.array_equal(g2._edge_array(), g._edge_array())

    def test_roundtrip_with_self_loop(self, tmp_path):
        g = Graph(3, edges=[(0, 0), (1, 2)], allow_self_loops=True)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        g2 = read_graph(path)
        assert g2.allow_self_loops
        assert g2._edge_array().tolist() == [[0, 0], [1, 2]]

    @pytest.mark.parametrize("loops", [False, True])
    def test_roundtrip_random_graphs(self, tmp_path, monkeypatch, loops):
        # 7 edges per written chunk, so most files span several chunks
        monkeypatch.setattr(graphs, "_GRAPH_ROWS", 7)
        rng = np.random.default_rng(31)
        path = tmp_path / "g.txt"
        for _ in range(50):
            p = int(rng.integers(1, 30))
            edges = rng.integers(0, p, size=(int(rng.integers(0, 3 * p)), 2))
            if not loops:
                edges = edges[edges[:, 0] != edges[:, 1]]
            g = Graph(p, edges=edges, allow_self_loops=loops)
            e = g._edge_array()
            write_graph(g, path)
            assert path.read_bytes() == f"p {p}\n".encode() + b"".join(
                b"%d %d\n" % (i, j) for i, j in e.tolist())
            g2 = read_graph(path)
            assert g2.p == p
            assert np.array_equal(g2.indptr, g.indptr)
            assert np.array_equal(g2.indices, g.indices)
            assert g2.allow_self_loops == bool((e[:, 0] == e[:, 1]).any())

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"])
    def test_edgeless_file_loads_without_a_warning(self, tmp_path, body):
        path = tmp_path / "g.txt"
        write_graph(Graph(4), path)
        assert path.read_text() == "p 4\n"
        path.write_text("p 4\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = read_graph(path)
        assert g.p == 4 and g.edge_count == 0

    def test_blank_lines_and_spacing_are_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 4\n\n  2 3 \n\t\n0\t1\n")
        assert read_graph(path)._edge_array().tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("body, message", [
        ("0 1\n\n1 2 3\n", "g.txt:4: expected 'i j', got '1 2 3'"),
        ("0 1\n 2 \n", "g.txt:3: expected 'i j', got '2'"),
        ("0 1\n2 3 # c\n", "g.txt:3: expected 'i j', got '2 3 # c'"),
        ("0 x\n", "invalid literal for int() with base 10: 'x'"),
        ("0 1.0\n", "invalid literal for int() with base 10: '1.0'"),
        ("0 4\n", "edge (0, 4) outside vertex range [0, 4)"),
        # int() takes these, so numpy's message is raised, with the file named
        ("0 1_0\n", "g.txt: could not convert string '1_0' to int64 at row 0, column 2."),
        ("0 1\n0 \u0662\n", "g.txt: could not convert string '\u0662' to int64 at row 1, column 2."),
        ("0 99999999999999999999\n",
         "g.txt: could not convert string '99999999999999999999' to int64 at row 0, column 2."),
    ])
    def test_bad_line_is_named(self, tmp_path, body, message):
        path = tmp_path / "g.txt"
        path.write_text("p 4\n" + body)
        with pytest.raises(ValueError) as info:
            read_graph(path)
        assert str(info.value).endswith(message)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 nodes\n0 1\n")
        with pytest.raises(ValueError):
            read_graph(path)

    @pytest.mark.parametrize("text", [
        "3 nodes\n0 1\n", "p 1_1\n0 1\n", "p \u0663\n0 1\n", "p 0\n",
        "p 99999999999999999999\n0 1\n",  # Graph refuses a p whose keys overflow int64
        "p 4\n0 x\n", "p 4\n1 2 3\n", "p 4\n0 4\n",
    ])
    def test_every_refusal_names_the_file(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_graph(path)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{path}:")

    @pytest.mark.parametrize("data", [b"p 3\n0 1\n1\xff 2\n", b"p \xff\n0 1\n"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, data):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="can't decode byte 0xff") as info:
            read_graph(path)
        assert str(info.value).startswith(f"{path}:")

    def test_header_of_another_vertex_count_is_refused_before_the_graph(self, tmp_path):
        # a header of 10^9 vertices would make a 7.45 GiB indptr; given the
        # data's column count, the file is refused before any graph is made
        import tracemalloc

        path = tmp_path / "g.txt"
        path.write_text("p 1000000000\n0 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_graph(path, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}: graph has 1000000000 vertices, X has 3 columns"
        assert peak < 1 << 20
        path.write_text("p 3\n0 2\n")
        assert read_graph(path, 3)._edge_array().tolist() == [[0, 2]]

    def test_file_descriptor_is_refused_and_left_open(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"p 2\n0 1\n")
            with pytest.raises(TypeError, match="got int"):
                read_graph(read_end)
            os.fstat(read_end)  # still open
            assert os.read(read_end, 64) == b"p 2\n0 1\n"
        finally:
            os.close(read_end)
            os.close(write_end)


def test_correlation_csv_that_is_not_square_is_named(tmp_path):
    path = tmp_path / "corr.csv"
    path.write_text("1,0.5\n0.5,1\n0,0\n")
    with pytest.raises(NotACorrelation, match=r"expected a square matrix, got \(3, 2\)") as info:
        read_correlation_csv(path)
    assert str(info.value).startswith(f"{path}:")


def test_correlation_csv_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "corr.csv"
    path.write_bytes(b"1,0.5\n0.5,1\xff\n")
    with pytest.raises(ValueError, match="can't decode byte 0xff") as info:
        read_correlation_csv(path)
    assert str(info.value).startswith(f"{path}:")


@pytest.mark.parametrize("text", ["1,0.5 # note\n0.5,1\n", "# a comment\n1,0\n0,1\n"])
def test_correlation_csv_reads_no_comments(tmp_path, text):
    path = tmp_path / "corr.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="could not convert string") as info:
        read_correlation_csv(path)
    assert str(info.value).startswith(f"{path}:")


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_empty_correlation_csv_is_named_without_a_warning(tmp_path, text):
    path = tmp_path / "corr.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotACorrelation, match="the file holds no rows") as info:
            read_correlation_csv(path)
    assert str(info.value).startswith(f"{path}:")


def test_path_graph_shape():
    g = path_graph(4)
    assert g.edge_count == 3
    assert g.degrees.tolist() == [1, 2, 2, 1]
