"""Monte Carlo simulation of the continuous-time random walk whose generator
is the unnormalised Laplacian, the smoothing operator the fitting path uses,
plus an exact dense semigroup oracle.

The walks are simulated by uniformization (Jensen 1953, Skand.
Aktuarietidskr. 36; Grassmann 1977, Comput. Oper. Res. 4(1)). Let Lambda_c
be the largest degree in the connected component c of a walk's start
vertex, read off the labels of graphs.connected_components. Then
e^{-tL} = sum_N Poisson(N; Lambda_c t) (I - L/Lambda_c)^N on c, so a walk
draws one step count N ~ Poisson(Lambda_c t) and takes N steps of the lazy
chain I - L/Lambda_c: a step from v moves to each neighbour with
probability 1/Lambda_c and stays with probability 1 - deg(v)/Lambda_c. A
degree-0 vertex (Lambda_c = 0) never moves. On a complete component of m
vertices, L = m (I - J/m) and the chain is uniformized at rate m instead:
(I - L/m)^N = J/m for every N >= 1, so e^{-tL} = e^{-mt} I +
(1 - e^{-mt}) J/m there, and a walk draws N ~ Poisson(mt) and, when
N >= 1, one uniform vertex of the component (self-loops do not count
against completeness, since L ignores them). The terminal vertices of B
walks per start vertex are stored once and define the empirical kernel
K^[i, j] = #{b : terminals[i, b] = j} / B, whose products K^ f estimate
smoothed vectors by sample averages. A SmoothingOperator compiles a table
(or an exact kernel) once per fit and serves every smoothing an
optimization run needs.

Work per walk: Lambda_c t lazy steps on average, where a walk with
Exponential(deg) holding times takes about d_c t jumps, d_c the
component's mean degree. A lazy step (a multiply-shift, two gathers and
half a hash) costs about half a hold-time jump (a hash, a log, a stop test
and gathers), so the trade breaks even near Lambda_c = 2 d_c: a component
whose largest degree is more than about twice its mean (a hub) simulates
slower than it would with holding times. On the benchmark graphs Lambda_c
exceeds d_c by 4-10%. A walk on a complete component takes min(N, 1)
steps, one hash and a multiply-shift whatever mt is; on the benchmark
graphs 2-3 of the 4 estimated groups are complete and hold 80-92% of the
lazy steps the chain would take there.

Randomness is counter-based: a walk's step count and every step's draw
are pure hashes of (seed, walk index, step) through one SplitMix64
finalizer (the layout is in simulate_heat_flow), so the terminals table is
bit-identical for a given (graph, t, B, seed) however the walks are
scheduled. A neighbour's probability is off 1/Lambda_c by less than 2^-32
(a relative bias of at most Lambda_c / 2^32).
"""

import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, ShapeMismatch, check_arg
from .graphs import ZERO_EIGENVALUE_TOL, Graph, connected_components, spectral_decompose

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_HALF = _U64(32)
_LOW = _U64(0xFFFFFFFF)
# walks per chunk: its working arrays, ~70 bytes a walk, stay in a core's L2 cache
_CHUNK = 1 << 14
# the guide tables of the Poisson inversion split [0, 1) into 2^12 buckets
_GUIDE_BITS = 12


def _finalize(x, scratch):
    """The SplitMix64 finalizer (full-period 64-bit mixing) of every entry
    of the uint64 array x, in place; `scratch` is a uint64 array of x's
    size for the shifts."""
    x += _GOLDEN
    x ^= np.right_shift(x, _U64(30), out=scratch)
    x *= _MIX1
    x ^= np.right_shift(x, _U64(27), out=scratch)
    x *= _MIX2
    x ^= np.right_shift(x, _U64(31), out=scratch)
    return x


def _hash_into(keys, d, out, scratch):
    """The finalizer of key ^ d for every walk key, computed in `out`."""
    return _finalize(np.bitwise_xor(keys, _U64(d), out=out), scratch)


def _components(g: Graph):
    """Per-vertex facts of the connected components, from one
    connected_components call: (lam, size, base, members). lam[v] is
    Lambda_c, the largest degree in v's component; size[v] is the
    component's size m when it is complete, else 0; members holds the
    vertices sorted by component and then by index, and a complete
    component's are members[base[v]:base[v] + m]. A component is complete
    when m >= 2 and every vertex has m - 1 neighbours besides itself; a
    self-loop does not count, since L ignores it."""
    count, labels = connected_components(g)
    lam = np.zeros(count, dtype=g.degrees.dtype)
    np.maximum.at(lam, labels, g.degrees)
    others = g.degrees  # neighbours besides the vertex itself
    if g.allow_self_loops:
        rows = np.repeat(np.arange(g.p), g.degrees)
        others = others - np.bincount(rows[rows == g.indices], minlength=g.p)
    m = np.bincount(labels, minlength=count)
    fewest = np.full(count, g.p)
    np.minimum.at(fewest, labels, others)
    size = np.where((m >= 2) & (fewest == m - 1), m, 0)
    return (lam.take(labels), size.take(labels), (np.cumsum(m) - m).take(labels),
            np.argsort(labels, kind="stable"))


def _padded_rows(g: Graph, lam):
    """Every vertex's CSR row padded to lam[v] slots with copies of v, in one
    array (int16 below 2^15 vertices, else int32), and each row's offset; a
    vertex with lam[v] = 0 gets no slot."""
    offsets = np.zeros(g.p + 1, dtype=np.int64)
    np.cumsum(lam, out=offsets[1:])
    padded = np.repeat(np.arange(g.p, dtype=np.int16 if g.p <= 1 << 15 else np.int32), lam)
    rows = np.flatnonzero(lam)
    for at, start, end in zip(offsets.take(rows).tolist(), g.indptr.take(rows).tolist(),
                              g.indptr.take(rows + 1).tolist()):
        padded[at:at + end - start] = g.indices[start:end]
    return padded, offsets[:-1]


def _poisson_cut(mu):
    """(first, last): _poisson_inverse cuts Poisson(mu) to [floor(first), ceil(last)]."""
    spread = 10.0 * math.sqrt(mu)
    return mu - spread, mu + spread + 30.0


def _poisson_inverse(mu):
    """(k0, F, lo, hi) for the Poisson(mu) law, mu > 0: N = k0 + the number
    of entries of F at most u is Poisson(mu) for u uniform on [0, 1), up to
    rounding. The law is cut to [k0, k1], whose complement has mass below
    e^-50 by Bernstein's inequality, and F holds its CDF from k0 to k1 - 1.
    The weights run from 1 at the mode by the ratios mu / k, so F takes
    only IEEE products, quotients and sums and is the same on every
    platform; each weight is off by at most (k1 - k0) rounding errors.
    For u in [j, j + 1) 2^-_GUIDE_BITS, that number lies in [lo[j], hi[j]]
    (Chen & Asau 1974, AIIE Trans. 6(2)), so only the u whose bucket holds
    an entry of F need a search."""
    first, last = _poisson_cut(mu)
    k0, k1 = max(0, math.floor(first)), math.ceil(last)
    mode = min(max(math.floor(mu), k0), k1)
    weight = [1.0] * (k1 - k0 + 1)
    for k in range(mode + 1, k1 + 1):
        weight[k - k0] = weight[k - k0 - 1] * mu / k
    for k in range(mode - 1, k0 - 1, -1):
        weight[k - k0] = weight[k - k0 + 1] * (k + 1) / mu
    cdf = list(itertools.accumulate(weight))
    F = np.array(cdf[:-1]) / cdf[-1]
    edges = np.arange((1 << _GUIDE_BITS) + 1) * 2.0 ** -_GUIDE_BITS
    return (k0, F, np.searchsorted(F, edges[:-1], side="right").astype(np.int32),
            np.searchsorted(F, edges[1:], side="left").astype(np.int32))


@dataclass(frozen=True)
class HeatFlowMatrix:
    """Terminal vertices of B simulated walks per start vertex at time t.

    terminals[i, j] is where the j-th walk started at vertex i sits at time
    t; step_counts[i, j] is its step count N, the number of steps of the
    lazy chain I - L/Lambda_c it took, stays included, or min(N, 1) on a
    complete component, where one draw stands for all N steps (None for
    matrices loaded from disk, where only their total is stored);
    total_steps is their sum (0 for a table loaded from an HFM1 file,
    which stores none).
    """

    terminals: np.ndarray
    t: float
    B: int
    seed: int
    step_counts: np.ndarray | None
    total_steps: int

    @property
    def p(self):
        return self.terminals.shape[0]


def _step_counts(key, rate, tables, rates):
    """Each walk's step count N: at rate L, k0 plus the number of entries of
    F at most u = (key >> 11) 2^-53, read off the guide where u's bucket
    holds no entry of F, else found by a search. `rates` holds every rate
    among the walks."""
    n_steps = np.zeros(len(key), dtype=np.int64)
    bucket = np.right_shift(key, _U64(64 - _GUIDE_BITS)).view(np.int64)
    for L in rates:
        if L:
            k0, F, lo, hi = tables[L]
            walks = np.flatnonzero(rate == L)
            b = bucket.take(walks)
            n = lo.take(b)
            near = np.flatnonzero(n != hi.take(b))
            u = np.right_shift(key.take(walks.take(near)), _U64(11)).astype(np.float64)
            n[near] = np.searchsorted(F, u * 2.0 ** -53, side="right")
            n_steps[walks] = n + k0
    return n_steps


def _stay_bound(mu):
    """The walks of a Poisson(mu) step count, mu > 0, that draw N = 0 are
    those whose key >> 11 lies below this bound, an integer in [0, 2^53]:
    _step_counts gives N = 0 for u = (key >> 11) 2^-53 below F[0], that is
    for key >> 11 below ceil(F[0] 2^53). Once the cut starts at k0 >= 1
    (mu = inf too), no walk draws N = 0, and no table is built."""
    if not _poisson_cut(mu)[0] < 1:
        return 0
    return math.ceil(_poisson_inverse(mu)[1][0] * 2.0 ** 53)


def simulate_heat_flow(g: Graph, t: float, B: int, seed: int = 0) -> HeatFlowMatrix:
    """Run B walks from every vertex until time t.

    Uniformized at Lambda_c, the largest degree of the start vertex's
    component, the walk's law is the e^{-tL} semigroup, which every
    fidelity test enforces. Walk w is the w-th of the p*B walks in
    row-major order (start vertex w // B); its key is the finalizer of
    seed key ^ w, the seed key being the finalizer of the seed as a
    uint64. Its step count N is Poisson(Lambda_c t), drawn by
    inverting the CDF at the key's top 53 bits, u = (key >> 11) 2^-53.
    Steps 2d and 2d + 1 take the low and the high 32 bits b of the
    finalizer of key ^ d, and move to slot (b * Lambda_c) >> 32, exact in
    uint64 and below Lambda_c, of the current vertex's padded row.

    A walk from a complete component of m vertices is uniformized at rate
    m instead. There L = m (I - J/m), so e^{-tL} = e^{-mt} I +
    (1 - e^{-mt}) J/m: every step of the chain I - L/m lands uniformly on
    the component, and only its last step decides the terminal. Its N ~
    Poisson(m t) is drawn as above. With N = 0 it stays at its start;
    otherwise it ends at slot (b * m) >> 32 of the component's sorted
    vertices, b the low 32 bits of the finalizer of key ^ 0 (the draw of a
    first step). Its step count is min(N, 1); it takes no round, and its
    vertices get no padded row.

    Walks run in chunks of _CHUNK consecutive ids, each chunk to
    completion. A chunk's walks with N > 0 are sorted by N, largest first,
    so round r steps only the prefix of walks with N > r, and a walk's
    vertex is final once the prefix has passed it; the chunk writes its
    terminals and step counts once, at the end. A step is a multiply-shift
    and two gathers (the row's offset and the slot), and every second step
    one hash; there is no log, no time left and no stop test. A walk takes
    Lambda_c t steps on average, against about d_c t jumps with holding
    times (see the module docstring for the trade).

    The table is bit-identical per (graph, t, B, seed) to any other
    schedule of the same walks: N and every step's draw are pure functions
    of (seed, walk id, step), and each walk's arithmetic never touches
    another walk's. A t at which the cut of N in the largest component
    that walks, ceil(Lambda_c t + 10 sqrt(Lambda_c t) + 30), would reach
    2^31 (the int32 step counts would wrap) is refused before any table
    is built. A complete component needs only P(N = 0), which is 0 once
    the cut starts above 0, so no t is refused for it.
    """
    check_arg("B", B, "[1, inf)", int)
    check_arg("seed", seed, "[-2**63, 2**63)", int, bounds=(-(1 << 63), 1 << 63))
    check_arg("t", t, "[0, inf)")
    p = g.p
    lam, size, base, members = _components(g)
    lam[size > 0] = 0  # complete components take one draw, not lazy steps
    top = int(lam.max()) * t  # the largest walking component's Poisson mean
    cut = _poisson_cut(top)[1]  # its _poisson_inverse k1, before the ceil
    if cut > (1 << 31) - 1:  # before any table: int32 step counts would wrap
        raise ValueError(f"t={t!r} is too long for Lambda_c={int(lam.max())}: step counts "
                         f"would reach {cut:.4g}, and they must stay below 2**31")
    terminals = np.repeat(np.arange(p, dtype=np.int32), B)
    steps = np.zeros(p * B, dtype=np.int32)
    if t > 0 and (lam.any() or size.any()):
        padded, offsets = _padded_rows(g, lam)
        # sets, not np.unique, which imports numpy.ma (about 1 MB) on its first call
        tables = {L: _poisson_inverse(L * t) for L in set(lam[lam > 0].tolist())}
        stay = np.zeros(p, dtype=np.uint64)  # a complete walk stays when key >> 11 is below
        for m in set(size[size > 0].tolist()):
            stay[size == m] = _stay_bound(m * t)
        size = size.astype(np.uint64)
        chunk = min(_CHUNK, p * B)
        hashed, scratch, slot = (np.empty(chunk, dtype=np.uint64) for _ in range(3))
        at = np.empty(chunk, dtype=np.int64)
        seed_key = _finalize(np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
                             scratch[:1])
        for start in range(0, p * B, _CHUNK):
            ids = np.arange(start, min(start + _CHUNK, p * B))
            key = _finalize(ids.astype(np.uint64) ^ seed_key, scratch[:len(ids)])
            starts = ids // B
            first, last = starts[0], starts[-1] + 1
            if size[first:last].any():  # complete components: one draw per walk
                jump = np.flatnonzero(size.take(starts))
                n, v = len(jump), starts.take(jump)
                np.take(key, jump, out=hashed[:n], mode="clip")
                moved = np.right_shift(hashed[:n], _U64(11), out=slot[:n]) >= stay.take(v)
                s = np.bitwise_and(_hash_into(hashed[:n], 0, hashed[:n], scratch[:n]), _LOW,
                                   out=slot[:n])
                s *= size.take(v)
                s >>= _HALF
                np.add(base.take(v), s.view(np.int64), out=at[:n])
                jump = jump[moved] + start
                terminals[jump] = members.take(at[:n][moved])
                steps[jump] = 1
            if not lam[first:last].any():
                continue
            rate = lam.take(starts)
            n_steps = _step_counts(key, rate, tables, set(lam[first:last].tolist()))
            order = np.argsort(-n_steps)[:np.count_nonzero(n_steps)]  # by N, largest first
            if not len(order):
                continue
            n_steps, ids, key = (a.take(order) for a in (n_steps, ids, key))
            rate = rate.take(order).astype(np.uint64)
            del order  # the round loop holds only what it reads
            moving = len(ids) - np.cumsum(np.bincount(n_steps))  # walks with N > r
            cur = (ids // B).astype(padded.dtype)
            for r in range(int(n_steps[0])):
                n = moving[r]
                if r & 1:  # the high half of the hash of the round before
                    s = np.right_shift(hashed[:n], _HALF, out=slot[:n])
                else:
                    s = np.bitwise_and(_hash_into(key[:n], r >> 1, hashed[:n], scratch[:n]),
                                       _LOW, out=slot[:n])
                s *= rate[:n]
                s >>= _HALF
                # mode="clip" keeps take from buffering into `out`; no index is clipped
                np.take(offsets, cur[:n], out=at[:n], mode="clip")
                at[:n] += s.view(np.int64)
                np.take(padded, at[:n], out=cur[:n], mode="clip")
            terminals[ids] = cur
            steps[ids] = n_steps
    return HeatFlowMatrix(
        terminals=terminals.reshape(p, B),
        t=float(t),
        B=int(B),
        seed=int(seed),
        step_counts=steps.reshape(p, B),
        total_steps=int(steps.sum()),
    )


def heatflow_apply(H: HeatFlowMatrix, f) -> np.ndarray:
    """Estimate the smoothed vector e^{-tL} f.

    Returns the per-vertex average of f over walk terminals; an unbiased
    estimator with Monte Carlo error O(range(f)/sqrt(B)). f may also be a
    (p, F) matrix, smoothed column by column.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[:1] != (H.p,) or f.ndim > 2:
        raise LengthMismatch(f"f has shape {f.shape}, expected ({H.p},) or ({H.p}, F)")
    return SmoothingOperator(table=H).apply(f)


def empirical_kernel(H: HeatFlowMatrix) -> np.ndarray:
    """The dense p x p matrix K^ with K^ f == heatflow_apply(H, f): entry
    (i, j) is the fraction of the walks from i that end at j. Built with one
    bincount; the result is Fortran-ordered (its transpose is C-contiguous)."""
    p, B = H.terminals.shape
    starts = np.repeat(np.arange(p, dtype=np.int64), B)
    counts = np.bincount(H.terminals.ravel().astype(np.int64) * p + starts,
                         minlength=p * p)
    return (counts.reshape(p, p) / B).T


# A walk table is compiled to its dense K^ when p <= _DENSE_WALK_RATIO * B
# and K^ takes at most _DENSE_BYTES. On a 2-vCPU Xeon, one BLAS thread, a
# dense matvec beat a table gather plus a bincount scatter up to p = 8B at
# B = 100 (p = 800: 416 us against 476 us per K^ f and K^T r pair; p = 1000:
# 663 against 580). The byte cap keeps large-B tables (p = 1024 at most,
# 8 MiB) from trading memory for speed.
_DENSE_WALK_RATIO = 8
_DENSE_BYTES = 8 << 20


class SmoothingOperator:
    """A linear smoothing operator K on R^p, compiled once per fit.

    Backed either by a dense matrix (`dense`: an exact kernel, or the
    empirical kernel of a small walk table, whose `walk_steps` it then
    reports) or by a walk table (`table`, a HeatFlowMatrix), where K^ f is a
    gather over the table and K^T r a bincount scatter. `compile` picks the
    backing; every penalty and optimizer computation goes through `apply`
    and `apply_T`, which take one vector per fit, or a matrix with one
    column per fit, so F fits run in lockstep share each product. `KT` is
    the dense K^T, C-contiguous so that its rows are the columns of K, for
    block steps that gather those rows; it is None for a table.
    """

    def __init__(self, dense=None, table: HeatFlowMatrix | None = None,
                 walk_steps: int = 0):
        if (dense is None) == (table is None):
            raise ValueError("give exactly one of a dense kernel or a walk table")
        self._table = table
        self.KT = None
        self.walk_steps = walk_steps
        if table is not None:
            self.p = table.p
            self.walk_steps = table.total_steps
            self._flat = table.terminals.ravel().astype(np.intp)  # take's and bincount's index type
        else:
            K = np.asarray(dense, dtype=np.float64)
            if K.ndim != 2 or K.shape[0] != K.shape[1]:
                raise ShapeMismatch(f"kernel must be square, got shape {K.shape}")
            self.p = K.shape[0]
            self.KT = np.ascontiguousarray(K.T)

    @classmethod
    def compile(cls, kernel_or_H) -> "SmoothingOperator":
        """An operator for a dense kernel or a walk table (an operator is
        returned as is). A table small enough by the size rule above is
        backed by its dense K^; the walk-step count carries over."""
        if isinstance(kernel_or_H, cls):
            return kernel_or_H
        if not isinstance(kernel_or_H, HeatFlowMatrix):
            return cls(dense=kernel_or_H)
        H = kernel_or_H
        if H.p <= _DENSE_WALK_RATIO * H.B and 8 * H.p * H.p <= _DENSE_BYTES:
            return cls(dense=empirical_kernel(H), walk_steps=H.total_steps)
        return cls(table=H)

    def apply(self, f) -> np.ndarray:
        """K f for f of shape (p,) or (p, F). A table's K^ f is the
        per-vertex mean of f over its terminals, equal bit for bit to
        f[terminals].mean(axis=1) and faster through np.take."""
        if self.KT is not None:
            return self.KT.T @ f
        B = self._table.B
        return np.take(f, self._flat, axis=0).reshape(-1, B, *f.shape[1:]).sum(axis=1) / B

    def apply_T(self, r) -> np.ndarray:
        """K^T r for r of shape (p,) or (p, F)."""
        if self.KT is not None:
            return self.KT @ r
        if r.ndim == 2:
            return np.stack([self.apply_T(c) for c in r.T], axis=1)
        B = self._table.B
        return np.bincount(self._flat, weights=np.repeat(r, B), minlength=self.p) / B


def exact_heat_kernel(g: Graph, t: float) -> np.ndarray:
    """Dense e^{-tL} via eigendecomposition; symmetric, rows sum to 1.

    Eigenvalues at or below ZERO_EIGENVALUE_TOL count as 0, so each
    component's constant vector keeps weight 1 at any t; e^{-t lambda} of a
    positive one goes to 0 as t grows, with no overflow warning."""
    check_arg("t", t, "[0, inf)")
    if t == 0:
        return np.eye(g.p)
    spec = spectral_decompose(g)
    eigenvalues = np.where(spec.eigenvalues > ZERO_EIGENVALUE_TOL, spec.eigenvalues, 0.0)
    with np.errstate(over="ignore"):  # t * lambda = inf gives weight 0
        weights = np.exp(-t * eigenvalues)
    K = (spec.eigenvectors * weights) @ spec.eigenvectors.T
    return (K + K.T) / 2.0


_MAGIC = b"HFM2"
_HEADERS = {b"HFM1": "<QQdq", _MAGIC: "<QQdqQ"}  # HFM1 stores no step total


def save_heatflow(H: HeatFlowMatrix, path):
    """Binary format: magic 'HFM2', little-endian u64 p, u64 B, f64 t,
    i64 seed, u64 total walk steps, then terminals row-major as i32. A seed
    outside i64 raises before the file is opened."""
    if not -(1 << 63) <= H.seed < 1 << 63:
        raise ValueError(f"seed {H.seed} does not fit the header's signed 64-bit field")
    header = _MAGIC + struct.pack(_HEADERS[_MAGIC], H.p, H.B, H.t, H.seed, H.total_steps)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(H.terminals, dtype="<i4").tobytes())


def load_heatflow(path) -> HeatFlowMatrix:
    """Load a stored matrix (HFM2, or HFM1 with a step total of 0); step
    counts are not serialized and come back None.

    Rejects a bad magic, a header with p < 1, B < 1 or a negative or
    non-finite t, a table shorter or longer than the header says, and any
    terminal outside [0, p).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic not in _HEADERS:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r} or b'HFM1'")
        size = struct.calcsize(_HEADERS[magic])
        header = fh.read(size)
        if len(header) != size:
            raise ValueError(f"{path}: truncated header")
        p, B, t, seed, *total = struct.unpack(_HEADERS[magic], header)  # HFM1: no total
        if p < 1 or B < 1:
            raise ValueError(f"{path}: header has p={p}, B={B}; both must be >= 1")
        if not 0 <= t < math.inf:
            raise ValueError(f"{path}: header has t={t}; t must be finite and >= 0")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < 4 * p * B:
            raise ValueError(f"{path}: truncated terminals table")
        if size > 4 * p * B:
            raise ValueError(f"{path}: {size - 4 * p * B} trailing bytes after the table")
        raw = fh.read()
    terminals = np.frombuffer(raw, dtype="<i4").reshape(p, B).astype(np.int32)
    if terminals.min() < 0 or terminals.max() >= p:
        raise ValueError(f"{path}: terminal vertex outside [0, {p})")
    return HeatFlowMatrix(terminals=terminals, t=t, B=int(B), seed=int(seed),
                          step_counts=None, total_steps=total[0] if total else 0)
