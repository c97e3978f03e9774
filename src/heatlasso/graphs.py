"""Undirected variable graphs: Laplacian and spectral utilities, random
block-structured generators, and graph estimation from a correlation matrix
or straight from the data.

Graphs are simple 0/1 graphs (optionally with self-loops). The Laplacian is
the unnormalised L = D - A, assembled in integer arithmetic so that row sums
are exactly zero. Dense spectral routines are verification oracles and are
capped at DENSE_LIMIT vertices; the fitting path never needs them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidProbability,
    InvalidQuantile,
    NotACorrelation,
)

# Largest p for which dense eigendecomposition is allowed.
DENSE_LIMIT = 2048

# Eigenvalues at or below this are counted as zero (connected components).
ZERO_EIGENVALUE_TOL = 1e-9

# Graph builds its CSR through a p x p boolean mask, not a key sort, when the
# mask takes at most this many bytes per input edge: the sort's int64 keys
# (both directions) take 16. On a 2-vCPU Xeon at p = 2000 the mask took 26 ms
# against the sort's 60 at 500k edges (8 bytes an edge) and 16 against 12 at
# 125k (32 bytes an edge).
_MASK_EDGE_BYTES = 16

# Rows of |corr| per block when a graph is estimated: one GEMM each from
# data, kept as computed until the threshold is known.
_CORR_ROWS = 256

# The threshold's selection copies the entries that share its bits found so
# far once at most this many are left (512 KiB of float64).
_BAND = 1 << 16


class Graph:
    """Undirected graph on p vertices in CSR (compressed sparse row) form.

    The sorted neighbours of vertex i are indices[indptr[i]:indptr[i + 1]]
    (indices int32, indptr int64 of length p + 1). Built from an (m, 2)
    array of edges in any order and direction; duplicates collapse, and a
    self-loop (rejected unless allow_self_loops is set) is stored once, so
    degree(i) counts it once. A dense edge set (see _MASK_EDGE_BYTES) is
    collected in a p x p mask, a sparse one by sorting its keys; both give
    the same arrays.
    """

    def __init__(self, p, edges=(), allow_self_loops=False):
        if p < 1:
            raise ValueError(f"vertex count must be >= 1, got {p}")
        self.p = p = int(p)
        self.allow_self_loops = bool(allow_self_loops)
        e = np.asarray(edges, dtype=np.int64)
        if e.shape == (0,):
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= p):
            i, j = e[((e < 0) | (e >= p)).any(axis=1).argmax()]
            raise ValueError(f"edge ({i}, {j}) outside vertex range [0, {p})")
        loop = e[:, 0] == e[:, 1]
        if loop.any() and not self.allow_self_loops:
            raise ValueError(f"self-loop at vertex {e[loop.argmax(), 0]} "
                             "but allow_self_loops is false")
        if p * p <= _MASK_EDGE_BYTES * len(e):
            # dense edge sets: a p x p mask costs no more than the sort's keys
            A = np.zeros((p, p), dtype=bool)
            A[e[:, 0], e[:, 1]] = True
            A[e[:, 1], e[:, 0]] = True
            keys = np.flatnonzero(A)
        else:
            both = np.concatenate([e, e[~loop, ::-1]])
            keys = np.sort(both[:, 0] * p + both[:, 1])
            keys = keys[np.diff(keys, prepend=-1) != 0]
        self._store_keys(keys)

    @classmethod
    def _from_mask(cls, A):
        """The loop-free graph of a symmetric p x p boolean adjacency mask."""
        g = cls.__new__(cls)
        g.p, g.allow_self_loops = len(A), False
        g._store_keys(np.flatnonzero(A))
        return g

    def _store_keys(self, keys):
        """CSR from the sorted keys i * p + j of every edge, both directions."""
        p = self.p
        self.indptr = np.searchsorted(keys, np.arange(0, p * p + 1, p)).astype(np.int64)
        self.degrees = np.diff(self.indptr)
        keys -= keys // p * p  # the column; np.remainder is slower
        self.indices = keys.astype(np.int32)

    def neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @property
    def max_degree(self):
        return int(self.degrees.max())

    def _edge_array(self):
        """(m, 2) int64 array of each edge once, as (i, j) with i <= j, sorted."""
        rows = np.repeat(np.arange(self.p), self.degrees)
        upper = rows <= self.indices
        return np.column_stack((rows[upper], self.indices[upper]))

    @property
    def edge_count(self):
        """Each edge once: an edge between two vertices adds 2 to the degree
        sum, a self-loop 1."""
        loops = 0
        if self.allow_self_loops:
            rows = np.repeat(np.arange(self.p, dtype=np.int32), self.degrees)
            loops = np.count_nonzero(rows == self.indices)
        return (int(self.degrees.sum()) + loops) // 2

    def edges(self):
        """Iterate over each edge once as (i, j) with i <= j."""
        return map(tuple, self._edge_array().tolist())

    def adjacency(self):
        """Dense 0/1 adjacency matrix (int64)."""
        A = np.zeros((self.p, self.p), dtype=np.int64)
        A[np.repeat(np.arange(self.p), self.degrees), self.indices] = 1
        return A

    def flat_adjacency(self):
        """The CSR arrays (indices, indptr) that vectorized walks read."""
        return self.indices, self.indptr

    def __repr__(self):
        return f"Graph(p={self.p}, edges={self.edge_count})"


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Dense eigendecomposition of the unnormalised Laplacian.

    eigenvalues are nondecreasing; eigenvectors are orthonormal columns;
    zero_multiplicity counts eigenvalues at or below zero_tol and equals the
    number of connected components.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_multiplicity: int
    zero_tol: float = ZERO_EIGENVALUE_TOL

    @property
    def spectral_gap(self):
        """Smallest eigenvalue exceeding the zero tolerance."""
        positive = self.eigenvalues[self.eigenvalues > self.zero_tol]
        if positive.size == 0:
            raise ValueError("graph has no nonzero Laplacian eigenvalue")
        return float(positive[0])


def laplacian(g: Graph) -> np.ndarray:
    """Unnormalised Laplacian L = D - A with exactly-zero row sums."""
    A = g.adjacency()
    L = np.diag(g.degrees) - A
    return L.astype(np.float64)


def spectral_decompose(g: Graph, limit: int = DENSE_LIMIT) -> LaplacianSpectrum:
    """Dense eigendecomposition oracle; raises DimensionTooLarge above limit."""
    if g.p > limit:
        raise DimensionTooLarge(f"p={g.p} exceeds dense-oracle limit {limit}")
    vals, vecs = np.linalg.eigh(laplacian(g))
    zero_mult = int(np.count_nonzero(vals <= ZERO_EIGENVALUE_TOL))
    return LaplacianSpectrum(vals, vecs, zero_mult)


def connected_components(g: Graph):
    """Union-find component labelling, independent of any spectral routine.

    Returns (count, labels) with labels in [0, count).
    """
    parent = list(range(g.p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    roots = {}
    labels = np.empty(g.p, dtype=np.int64)
    for v in range(g.p):
        r = find(v)
        labels[v] = roots.setdefault(r, len(roots))
    return len(roots), labels


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise InvalidQuantile(f"alpha must be in (0, 1), got {alpha}")


def _row_blocks(p):
    """(i0, i1) of each block of at most _CORR_ROWS rows i0..i1-1 that hold
    pairs i < j (row p - 1 holds none)."""
    return [(i0, min(i0 + _CORR_ROWS, p - 1)) for i0 in range(0, p - 1, _CORR_ROWS)]


def _within(block, key, bit):
    """The entries of block whose float64 bits from `bit` up are key."""
    lo, hi = np.array([key << bit, (key + 1) << bit]).view(np.float64)
    return (block >= lo) & (block < hi)


def _digit_counts(block, key, high, low):
    """How many entries of block, among those whose bits from `high` up are
    key, hold each value of bits low..high-1."""
    if high == 62:  # bit 62 and up are 0 for every entry in [0, 2)
        digits = block.view(np.int64).ravel() >> low
    else:
        digits = block.view(np.int64)[_within(block, key, high)]
        digits -= key << high
        digits >>= low
    return np.bincount(digits, minlength=1 << (high - low))


def _select(blocks, rank):
    """The rank-th smallest (1-based) entry of the blocks, all in [0, 2),
    without a copy of them all: a radix select on their float64 bits,
    which never decrease with the value. Each pass counts per digit the
    entries whose higher bits are those found so far and keeps the digit
    that holds the rank. Once at most _BAND entries are left, np.partition
    takes the rank among them; after the last digit the bits are the value,
    so entries tied at the threshold are never copied."""
    key = 0  # the bits found so far, from bit 61 down
    for high, low in ((62, 48), (48, 32), (32, 16), (16, 0)):
        counts = sum(_digit_counts(b, key, high, low) for b in blocks)
        below = np.cumsum(counts)
        digit = int(np.searchsorted(below, rank))
        rank -= int(below[digit - 1]) if digit else 0
        key = key << (high - low) | digit
        if counts[digit] <= _BAND:
            band = np.concatenate([b[_within(b, key, low)] for b in blocks])
            return np.partition(band, rank - 1)[rank - 1]
    return np.int64(key).view(np.float64)


def _threshold_graph(p, blocks, alpha) -> Graph:
    """The graph of the pairs i < j whose |corr_ij| exceeds the nearest-rank
    alpha-quantile of them all. blocks[k] holds |corr| of rows i0..i1-1
    against columns i0+1..p-1 for the k-th (i0, i1) of _row_blocks(p); the
    entries that are not pairs (column index below row index) are zeroed
    here, and the list is emptied to free the blocks before the mask is
    made symmetric."""
    pairs = p * (p - 1) // 2
    if pairs == 0:
        return Graph(p)
    zeros = 0
    for (i0, i1), b in zip(_row_blocks(p), blocks):
        b[:, :i1 - i0][np.tri(i1 - i0, k=-1, dtype=bool)] = 0.0
        zeros += (i1 - i0) * (i1 - i0 - 1) // 2
    # the zeros sort first, so the pairs' rank-th value is the (zeros + rank)-th
    theta = _select(blocks, zeros + int(np.ceil(alpha * pairs)))
    A = np.zeros((p, p), dtype=bool)
    for (i0, i1), b in zip(_row_blocks(p), blocks):
        np.greater(b, theta, out=A[i0:i1, i0 + 1:])
    blocks.clear()
    A |= A.T
    return Graph._from_mask(A)


def estimate_graph(corr: np.ndarray, alpha: float) -> Graph:
    """Threshold absolute off-diagonal correlations at their alpha-quantile.

    The threshold is the nearest-rank quantile of {|corr_ij| : i < j}; an
    edge (i, j) is present iff |corr_ij| exceeds it strictly.
    """
    _check_alpha(alpha)
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotACorrelation(f"expected a square matrix, got shape {corr.shape}")
    p = corr.shape[0]
    if not np.isfinite(corr).all():
        raise NotACorrelation("matrix contains non-finite entries")
    if np.abs(np.diag(corr) - 1.0).max() > 1e-8:
        raise NotACorrelation("diagonal entries must equal 1 within 1e-8")
    # corr - corr.T is antisymmetric, so its largest entry is its largest
    # |entry|; taken in row blocks, without a p x p temporary
    if max((corr[i0:i0 + _CORR_ROWS] - corr[:, i0:i0 + _CORR_ROWS].T).max()
           for i0 in range(0, p, _CORR_ROWS)) > 1e-8:
        raise NotACorrelation("matrix must be symmetric")
    if max(corr.max(), -corr.min()) > 1.0 + 1e-12:
        raise NotACorrelation("entries must satisfy |corr_ij| <= 1")
    return _threshold_graph(p, [np.abs(corr[i0:i1, i0 + 1:]) for i0, i1 in _row_blocks(p)],
                            alpha)


def _abs_corr_blocks(X):
    """|corr| of the columns of X in _threshold_graph's blocks, one GEMM
    each, clipped at 1. A column whose centred norm is 0 or not finite
    (constant, non-finite, or overflowing) correlates 0 with every other."""
    Z = np.array(X, dtype=np.float64)
    p = Z.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such columns' norms
        Z -= Z.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", Z, Z))
    live = (norms > 0) & np.isfinite(norms)
    Z[:, ~live] = 0.0
    Z *= np.divide(1.0, norms, out=np.zeros(p), where=live)
    blocks = []
    for i0, i1 in _row_blocks(p):
        block = Z[:, i0:i1].T @ Z[:, i0 + 1:]
        np.abs(block, out=block)
        np.minimum(block, 1.0, out=block)
        blocks.append(block)
    return blocks


def estimate_graph_from_data(X, alpha: float) -> Graph:
    """The graph estimate_graph gives on the correlation matrix of X's
    columns, computed from X in row blocks of |corr| without the p x p
    matrix. A constant or non-finite column is isolated (it correlates 0
    with every other)."""
    _check_alpha(alpha)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"X must be an (n, p) array with p >= 1, got shape {X.shape}")
    return _threshold_graph(X.shape[1], _abs_corr_blocks(X), alpha)


def _block_labels(sizes):
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    return np.repeat(np.arange(len(sizes)), sizes), sum(sizes)


def _sample_blocks(sizes, within, between, self_loops, seed):
    labels, p = _block_labels(sizes)
    within = np.asarray(within, dtype=np.float64)
    probs = np.where(labels[:, None] == labels[None, :], within[labels][:, None], between)
    rng = np.random.default_rng(seed)
    u = rng.random((p, p))
    iu, ju = np.triu_indices(p, k=0 if self_loops else 1)
    hit = u[iu, ju] < probs[iu, ju]
    return Graph(p, edges=np.column_stack((iu[hit], ju[hit])), allow_self_loops=self_loops)


def sample_block_graph(sizes, a: float, b: float, self_loops: bool = False,
                       seed: int = 0) -> Graph:
    """Stochastic block model: Bernoulli(a) within blocks, Bernoulli(b) across."""
    if not (0.0 <= b <= 1.0 and 0.0 <= a <= 1.0):
        raise InvalidProbability(f"probabilities must lie in [0, 1], got a={a}, b={b}")
    if b > a:
        raise InvalidProbability(f"need b <= a, got a={a}, b={b}")
    return _sample_blocks(sizes, [a] * len(list(sizes)), b, self_loops, seed)


def sample_clustered_network(sizes, xi, self_loops: bool = True, seed: int = 0) -> Graph:
    """Disjoint dense components: block i is Erdos-Renyi with probability xi_i.

    This is the fully-disconnected (b = 0) clustered model; self-loops are
    allowed by default, matching the component-wise dense random graph model.
    """
    sizes = list(sizes)
    xi_seq = [float(xi)] * len(sizes) if np.isscalar(xi) else [float(x) for x in xi]
    if len(xi_seq) != len(sizes):
        raise ValueError("xi must be scalar or one probability per block")
    if any(not 0.0 <= x <= 1.0 for x in xi_seq):
        raise InvalidProbability(f"probabilities must lie in [0, 1], got {xi_seq}")
    return _sample_blocks(sizes, xi_seq, 0.0, self_loops, seed)


def complete_graph(p: int) -> Graph:
    return Graph(p, edges=np.column_stack(np.triu_indices(p, k=1)))


def path_graph(p: int) -> Graph:
    return Graph(p, edges=[(i, i + 1) for i in range(p - 1)])


def disjoint_union(*graphs) -> Graph:
    """Relabelled disjoint union of graphs, blocks in argument order."""
    offsets = np.cumsum([0] + [g.p for g in graphs])
    edges = np.concatenate([g._edge_array() + off for g, off in zip(graphs, offsets)])
    return Graph(offsets[-1], edges=edges,
                 allow_self_loops=any(g.allow_self_loops for g in graphs))


def figure_graph() -> Graph:
    """Three vertices: one edge {0, 1} plus the isolated vertex 2."""
    return Graph(3, edges=[(0, 1)])


def group_clique_graph(sizes) -> Graph:
    """Disjoint union of complete graphs, one clique per group."""
    return disjoint_union(*(complete_graph(int(s)) for s in sizes))


def write_graph(g: Graph, path):
    """Edge-list text format: header 'p <count>' then 0-based 'i j' lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p {g.p}\n")
        np.savetxt(fh, g._edge_array(), fmt="%d")


def read_graph(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "p":
            raise ValueError(f"{path}: expected header 'p <count>'")
        p = int(header[1])
        edges = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    loops = any(i == j for i, j in edges)
    return Graph(p, edges=edges, allow_self_loops=loops)


def read_correlation_csv(path) -> np.ndarray:
    """Dense p x p correlation matrix from a headerless CSV."""
    mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise NotACorrelation(f"{path}: expected a square matrix, got {mat.shape}")
    return mat
