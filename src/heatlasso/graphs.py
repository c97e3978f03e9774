"""Undirected variable graphs: Laplacian and spectral utilities, random
block-structured generators, and graph estimation from a correlation matrix
or straight from the data.

Graphs are simple 0/1 graphs (optionally with self-loops). The Laplacian is
the unnormalised L = D - A, assembled in integer arithmetic so that row sums
are exactly zero. Dense spectral routines are verification oracles and are
capped at DENSE_LIMIT vertices; the fitting path never needs them.
"""

import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidProbability,
    InvalidQuantile,
    NotACorrelation,
    _is_integer,
    check_arg,
)

# Largest p for which dense eigendecomposition is allowed.
DENSE_LIMIT = 2048

# Eigenvalues at or below this are counted as zero (connected components).
ZERO_EIGENVALUE_TOL = 1e-9

# The |corr| quantile of a graph estimated when none is given (configs and the CLI).
_DEFAULT_ALPHA = 0.75

# Rows of |corr| per block when a graph is estimated (one GEMM each from
# data), and per step when its mask is made symmetric and read into CSR.
_CORR_ROWS = 256

# Edges per %-formatted chunk of a written graph file (~0.7 MB of text).
_GRAPH_ROWS = 1 << 16

# Above _SAMPLE_ABOVE pairs the estimated graph's threshold is bracketed by
# order statistics of the |corr| of _SAMPLE random pairs, _SPREAD binomial
# standard deviations of their rank to either side of it.
_SAMPLE_ABOVE = 1 << 18
_SAMPLE = 4096
_SPREAD = 6.0
# Rows per block when every |corr| value is held in one buffer: at p = 500
# a block of 32 rows and the copy of its pairs take about 1 p^2 bytes
# beside the buffer's 4.
_EXACT_ROWS = 32


class Graph:
    """Undirected graph on p vertices in CSR (compressed sparse row) form.

    The sorted neighbours of vertex i are indices[indptr[i]:indptr[i + 1]]
    (indices int32, indptr int64 of length p + 1). Built from an (m, 2)
    integer array of edges (a float or bool one is refused) in any order and
    direction by sorting the keys i * p + j of both directions; duplicates
    collapse, and a self-loop (rejected unless allow_self_loops is set) is
    stored once, so degree(i) counts it once.
    """

    def __init__(self, p, edges=(), allow_self_loops=False):
        check_arg("vertex count", p, "[1, inf)", int)
        check_arg("vertex count", p, "[1, 3037000499]", int,  # before any allocation
                  message=f"vertex count {p} too large: keys i * p + j overflow int64")
        check_arg("allow_self_loops", allow_self_loops, kind=bool)
        self.p = p = int(p)
        self.allow_self_loops = bool(allow_self_loops)
        # a sequence is read as objects, entry by entry, so its bools do not pass as ints
        e = np.asarray(edges, dtype=None if isinstance(edges, np.ndarray) else object)
        if e.size and e.dtype.kind not in "iu" and not (
                e.dtype == object and all(map(_is_integer, e.flat))):
            raise ValueError("edge indices must be integers, not bools or floats")
        if e.shape == (0,):
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= p):  # as given: before the int64 cast
            i, j = e[((e < 0) | (e >= p)).any(axis=1).argmax()]
            raise ValueError(f"edge ({i}, {j}) outside vertex range [0, {p})")
        e = e.astype(np.int64)
        loop = e[:, 0] == e[:, 1]
        if loop.any() and not self.allow_self_loops:
            raise ValueError(f"self-loop at vertex {e[loop.argmax(), 0]} "
                             "but allow_self_loops is false")
        both = np.concatenate([e, e[~loop, ::-1]])
        keys = np.sort(both[:, 0] * p + both[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.indptr = np.searchsorted(keys, np.arange(0, p * p + 1, p)).astype(np.int64)
        self.degrees = np.diff(self.indptr)
        keys -= keys // p * p  # the column; np.remainder is slower
        self.indices = keys.astype(np.int32)

    @classmethod
    def _from_mask(cls, A):
        """The loop-free graph of a symmetric p x p boolean adjacency mask."""
        g = cls.__new__(cls)
        g.p, g.allow_self_loops = len(A), False
        g.degrees = np.count_nonzero(A, axis=1)
        g.indptr = np.concatenate(([0], np.cumsum(g.degrees)))
        g.indices = np.empty(g.indptr[-1], dtype=np.int32)
        for i0 in range(0, g.p, _CORR_ROWS):
            keys = np.flatnonzero(A[i0:i0 + _CORR_ROWS])
            keys -= keys // g.p * g.p  # the column
            g.indices[g.indptr[i0]:g.indptr[i0] + len(keys)] = keys
        return g

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

    def adjacency(self):
        """Dense 0/1 adjacency matrix (int64)."""
        A = np.zeros((self.p, self.p), dtype=np.int64)
        A[np.repeat(np.arange(self.p), self.degrees), self.indices] = 1
        return A

    def flat_adjacency(self):
        """The CSR arrays (indices, indptr)."""
        return self.indices, self.indptr

    def __repr__(self):
        return f"Graph(p={self.p}, edges={self.edge_count})"


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Dense eigendecomposition of the unnormalised Laplacian.

    eigenvalues are nondecreasing; eigenvectors are orthonormal columns;
    zero_multiplicity counts eigenvalues at or below ZERO_EIGENVALUE_TOL and
    equals the number of connected components.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_multiplicity: int

    @property
    def spectral_gap(self):
        """Smallest eigenvalue exceeding ZERO_EIGENVALUE_TOL."""
        positive = self.eigenvalues[self.eigenvalues > ZERO_EIGENVALUE_TOL]
        if positive.size == 0:
            raise ValueError("graph has no nonzero Laplacian eigenvalue")
        return float(positive[0])


def laplacian(g: Graph) -> np.ndarray:
    """Unnormalised Laplacian L = D - A with exactly-zero row sums."""
    A = g.adjacency()
    L = np.diag(g.degrees) - A
    return L.astype(np.float64)


def spectral_decompose(g: Graph) -> LaplacianSpectrum:
    """Dense eigendecomposition oracle; raises DimensionTooLarge above DENSE_LIMIT."""
    if g.p > DENSE_LIMIT:
        raise DimensionTooLarge(f"p={g.p} exceeds dense-oracle limit {DENSE_LIMIT}")
    vals, vecs = np.linalg.eigh(laplacian(g))
    zero_mult = int(np.count_nonzero(vals <= ZERO_EIGENVALUE_TOL))
    return LaplacianSpectrum(vals, vecs, zero_mult)


def connected_components(g: Graph):
    """Component labelling on the CSR arrays by hooking and pointer jumping
    (Shiloach & Vishkin, J. Algorithms 3(1), 1982), independent of any
    spectral routine. A sweep takes _CORR_ROWS rows at a time, in place: a
    row whose neighbours hold a smaller label takes the smallest, and so
    does the vertex its old label names (the hook); pointer jumping then
    runs to a fixpoint. When a sweep changes nothing, each vertex holds its
    component's smallest vertex. No temporary outgrows one block's lists.

    Returns (count, labels) with labels in [0, count), numbered in order of
    each component's smallest vertex.
    """
    labels, before = np.arange(g.p, dtype=g.indices.dtype), None
    while not np.array_equal(labels, before):
        before = labels.copy()
        for i0 in range(0, g.p, _CORR_ROWS):
            live = np.flatnonzero(g.degrees[i0:i0 + _CORR_ROWS]) + i0
            if not len(live):  # reduceat needs nonempty rows
                continue
            a, b = g.indptr[live[0]], g.indptr[live[-1] + 1]
            seen = np.minimum.reduceat(labels.take(g.indices[a:b]), g.indptr[live] - a)
            drop = np.flatnonzero(seen < labels.take(live))
            live, seen = live.take(drop), seen.take(drop)
            np.minimum.at(labels, labels.take(live), seen)  # the hook
            np.minimum.at(labels, live, seen)
        jumped = labels.take(labels)
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped.take(jumped)
    roots = labels == np.arange(g.p)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1).take(labels)


def _row_blocks(p, rows=_CORR_ROWS):
    """(i0, i1) of each block of at most `rows` rows i0..i1-1 that hold
    pairs i < j (row p - 1 holds none)."""
    return [(i0, min(i0 + rows, p - 1)) for i0 in range(0, p - 1, rows)]


def _bracket(p, alpha, pair_corr):
    """lo < hi around the nearest-rank alpha-quantile of the |corr_ij|, i < j:
    order statistics of |pair_corr(i, j)| over _SAMPLE random pairs from a
    fixed-seed generator (Floyd & Rivest, CACM 18(3), 1975)."""
    rng = np.random.default_rng(0)
    i = rng.integers(0, p, _SAMPLE)
    s = np.sort(np.abs(pair_corr(i, (i + rng.integers(1, p, _SAMPLE)) % p)))
    mid, half = alpha * _SAMPLE, _SPREAD * np.sqrt(_SAMPLE * alpha * (1.0 - alpha))
    k, m = int(np.floor(mid - half)), int(np.ceil(mid + half))
    lo, hi = s[k] if k >= 0 else -np.inf, s[m] if m < _SAMPLE else np.inf
    return lo, max(hi, np.nextafter(lo, np.inf))  # no value is both lo and hi


def _bracketed_mask(p, rank, block, lo, hi):
    """The p x p boolean mask of the pairs i < j above the rank-th smallest
    |corr|, from one pass that codes each pair against lo < hi, 0 below lo,
    1 at lo, 2 between, 3 at hi, 4 above, and keeps only the values coded
    2; None if the threshold is not coded 1 to 3."""
    A, above, between = np.zeros((p, p), dtype=np.uint8), np.zeros(4, np.int64), []
    for i0, i1 in _row_blocks(p):
        b = block(i0, i1)
        b[np.tri(*b.shape, k=-1, dtype=bool)] = np.nan  # not pairs: code 0
        sub = A[i0:i1, i0 + 1:]
        for compare, edge in ((np.greater_equal, lo), (np.greater, lo),
                              (np.greater_equal, hi), (np.greater, hi)):
            sub += compare(b, edge)  # the code: how many of these hold
        above += [np.count_nonzero(sub > c) for c in range(4)]
        between.append(b[sub == 2])
        del b  # before the next block is made
    upto = p * (p - 1) // 2 - above  # pairs coded at most 0, 1, 2, 3
    code = int(np.searchsorted(upto, rank))  # the code of the threshold
    if not 1 <= code <= 3:
        return None
    if code == 2:  # the threshold is among the values kept
        values = np.concatenate(between)
        values.partition(rank - upto[1] - 1)
        theta = values[rank - upto[1] - 1]
    for (i0, i1), values in zip(_row_blocks(p), between):
        sub = A[i0:i1, i0 + 1:]
        if code == 2:
            sub[sub == 2] += values > theta
        np.greater(sub, code, out=sub)
    return A.view(bool)


def _pair_values(p, block):
    """Every |corr_ij|, i < j, in row-major order in one buffer, from
    blocks of _EXACT_ROWS rows."""
    values, k = np.empty(p * (p - 1) // 2), 0
    for i0, i1 in _row_blocks(p, _EXACT_ROWS):
        b = block(i0, i1)
        kept = b[~np.tri(*b.shape, k=-1, dtype=bool)]
        del b  # before the next block is made
        values[k:k + len(kept)] = kept
        k += len(kept)
    return values


def _threshold_mask(p, alpha, source):
    """The symmetric p x p boolean mask of the pairs i < j whose |corr_ij|
    exceeds the nearest-rank alpha-quantile of them all. source() returns
    block and pair_corr: block(i0, i1) is |corr| of rows i0..i1-1 against
    columns i0+1..p-1, a new array; pair_corr(i, j) is corr_ij for index
    arrays. Above _SAMPLE_ABOVE pairs, _bracketed_mask tries _bracket's lo
    and hi. At most that many pairs, or if the threshold lies outside the
    bracket, every value goes into one buffer; once the source is dropped,
    np.partition of it gives the threshold, and one boolean assignment over
    the upper triangle (row-major, as in the buffer) writes the mask."""
    pairs = p * (p - 1) // 2
    if pairs == 0:
        return np.zeros((p, p), dtype=bool)
    rank = int(np.ceil(alpha * pairs))
    block, pair_corr = source()
    A = None
    if pairs > _SAMPLE_ABOVE:
        A = _bracketed_mask(p, rank, block, *_bracket(p, alpha, pair_corr))
    if A is None:
        values = _pair_values(p, block)
    del block, pair_corr  # with what they hold, such as a copy of X
    if A is None:
        theta = np.partition(values, rank - 1)[rank - 1]
        A = ~np.tri(p, dtype=bool)  # the pairs i < j, in values' order
        A[A] = values > theta
        del values
    for i0 in range(0, p, _CORR_ROWS):  # symmetric, without a p x p temporary
        A[i0:i0 + _CORR_ROWS] |= A[:, i0:i0 + _CORR_ROWS].T
    return A


def estimate_graph(corr: np.ndarray, alpha: float) -> Graph:
    """Threshold absolute off-diagonal correlations at their alpha-quantile.

    The threshold is the nearest-rank quantile of {|corr_ij| : i < j}; an
    edge (i, j) is present iff |corr_ij| exceeds it strictly.
    """
    check_arg("alpha", alpha, "(0, 1)", error=InvalidQuantile)
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

    def source():
        return lambda i0, i1: np.abs(corr[i0:i1, i0 + 1:]), lambda i, j: corr[i, j]
    return Graph._from_mask(_threshold_mask(p, alpha, source))


def _abs_corr(X):
    """_threshold_mask's block and pair_corr for the columns of X: |corr| by
    one GEMM a block, clipped at 1, and corr by dot products. A column whose
    centred norm is 0 or not finite (constant, non-finite, or overflowing)
    correlates 0 with every other."""
    Z = np.array(X, dtype=np.float64)
    p = Z.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such columns' norms
        Z -= Z.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", Z, Z))
    live = (norms > 0) & np.isfinite(norms)
    Z[:, ~live] = 0.0
    Z *= np.divide(1.0, norms, out=np.zeros(p), where=live)

    def block(i0, i1):
        b = Z[:, i0:i1].T @ Z[:, i0 + 1:]
        np.abs(b, out=b)
        return np.minimum(b, 1.0, out=b)

    def pair_corr(i, j):
        rows = Z.T.copy()  # columns of Z, gathered faster as rows
        return np.concatenate([np.einsum("ij,ij->i", rows[i[k:k + _CORR_ROWS]],
                                         rows[j[k:k + _CORR_ROWS]])
                               for k in range(0, len(i), _CORR_ROWS)])
    return block, pair_corr


def estimate_graph_from_data(X, alpha: float) -> Graph:
    """The graph estimate_graph gives on the correlation matrix of X's
    columns, computed from X in row blocks of |corr| without the p x p
    matrix. A constant or non-finite column is isolated (it correlates 0
    with every other)."""
    check_arg("alpha", alpha, "(0, 1)", error=InvalidQuantile)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"X must be an (n, p) array with p >= 1, got shape {X.shape}")
    return Graph._from_mask(_threshold_mask(X.shape[1], alpha, lambda: _abs_corr(X)))


def _block_labels(sizes):
    sizes = list(sizes)
    check_arg("sizes", sizes, "[1, inf)", int)
    return np.repeat(np.arange(len(sizes)), sizes), sum(sizes)


def _sample_blocks(sizes, within, between, self_loops, seed):
    labels, p = _block_labels(sizes)
    check_arg("self_loops", self_loops, kind=bool)
    check_arg("seed", seed, kind=int)
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
    check_arg("a", a, "[0, 1]", error=InvalidProbability)
    check_arg("b", b, "[0, 1]", error=InvalidProbability)
    if b > a:
        raise InvalidProbability(f"need b <= a, got a={a}, b={b}")
    return _sample_blocks(sizes, [a] * len(list(sizes)), b, self_loops, seed)


def sample_clustered_network(sizes, xi, self_loops: bool = True, seed: int = 0) -> Graph:
    """Disjoint dense components: block i is Erdos-Renyi with probability xi_i.

    This is the fully-disconnected (b = 0) clustered model; self-loops are
    allowed by default, matching the component-wise dense random graph model.
    """
    sizes = list(sizes)
    xi = [xi] * len(sizes) if np.ndim(xi) == 0 else list(xi)
    if len(xi) != len(sizes):
        raise ValueError("xi must be scalar or one probability per block")
    check_arg("xi", xi, "[0, 1]", error=InvalidProbability)
    return _sample_blocks(sizes, xi, 0.0, self_loops, seed)


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
    """Edge-list text format: header 'p <count>' then 0-based 'i j' lines,
    each edge once with i <= j, sorted. The lines are %-formatted
    _GRAPH_ROWS edges at a time, so the text in memory stays bounded."""
    edges = g._edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p {g.p}\n")
        for k in range(0, len(edges), _GRAPH_ROWS):
            chunk = edges[k:k + _GRAPH_ROWS]
            fh.write(("%d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_graph(path) -> Graph:
    """Read a write_graph file from a path; an int (a file descriptor) is refused.

    One np.loadtxt call parses the edges. Only when it or Graph refuses the
    file are the lines read again, to name the first that is not 'i j' with
    int() indices; if none is, numpy's or Graph's message is raised. Every
    refusal is a ValueError that names the file.
    """
    return _read_graph(path)


def _read_graph(path, columns=None):
    """read_graph; with columns, a file whose header gives another vertex
    count is refused before a graph is made."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise TypeError(f"read_graph takes a path, got {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as fh:
            header, body = fh.readline().split(), fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(header) != 2 or header[0] != "p" or not (header[1].isascii() and header[1].isdigit()):
        raise ValueError(f"{path}: expected header 'p <count>'")
    try:
        edges = np.empty((0, 2), dtype=np.int64)
        if body.strip():  # loadtxt warns on no data
            edges = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
        if edges.shape[1] != 2:
            raise ValueError(f"expected 'i j' lines, got {edges.shape[1]} fields")
        if columns is not None and int(header[1]) != columns:
            raise ValueError(f"graph has {int(header[1])} vertices, X has {columns} columns")
        loops = bool(np.any(edges[:, 0] == edges[:, 1]))
        return Graph(int(header[1]), edges=edges, allow_self_loops=loops)
    except ValueError as exc:
        _name_bad_line(path, body)
        raise ValueError(f"{path}: {exc}") from None


def _name_bad_line(path, body):
    """Raise a ValueError naming the first edge line that is not two fields
    int() takes; return if there is none."""
    for lineno, line in enumerate(io.StringIO(body), start=2):
        parts = line.split()
        if parts and len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {line.strip()!r}")
        try:
            list(map(int, parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_correlation_csv(path) -> np.ndarray:
    """Dense p x p correlation matrix from a headerless CSV; a refusal names
    the file. A '#' is no comment: as in the other readers, it is refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        mat = np.empty((0, 0))
        if any(line.strip() for line in lines):  # loadtxt warns on no data
            mat = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not mat.size:
        raise NotACorrelation(f"{path}: the file holds no rows")
    if mat.shape[0] != mat.shape[1]:
        raise NotACorrelation(f"{path}: expected a square matrix, got {mat.shape}")
    return mat
