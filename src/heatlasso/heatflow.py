"""Monte Carlo simulation of the continuous-time random walk whose generator
is the unnormalised Laplacian, the smoothing operator the fitting path uses,
plus an exact dense semigroup oracle.

Each walk holds at a vertex v for an Exponential(deg(v)) time, then jumps to
a uniformly random neighbor; a degree-0 vertex holds forever. The terminal
vertices of B walks per start vertex are stored once and define the
empirical kernel K^[i, j] = #{b : terminals[i, b] = j} / B, whose products
K^ f estimate smoothed vectors by sample averages. A SmoothingOperator
compiles a table (or an exact kernel) once per fit and serves every
smoothing an optimization run needs.

Randomness is counter-based: every draw is a pure hash of
(seed, walk index, round), so the terminals table is bit-identical for a
given (graph, t, B, seed) no matter how the walks are scheduled. One
SplitMix64 finalizer does all the hashing: of the seed into a seed key, of
seed key ^ walk index into each walk's key, and of key ^ d into round d's
one draw of a walk, whose high 32 bits give the hold and whose low 32 bits
give the neighbour. Both have a resolution of 2^-32: the hold at vertex v is
capped at 32 ln 2 / deg(v), and each neighbour's probability is off
1/deg(v) by less than 2^-32 (a relative bias of at most deg(v) / 2^32). The walks run in cache-sized chunks of consecutive indices,
each to completion. A walk that stops writes its result once and rides
along in the chunk's arrays, inert, until an eighth of them have stopped;
only then are the arrays compacted.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, ShapeMismatch
from .graphs import ZERO_EIGENVALUE_TOL, Graph, _is_integer, spectral_decompose

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_HALF = _U64(32)
_LOW = _U64(0xFFFFFFFF)
_INV32 = float(2.0 ** -32)
# walks per chunk: its working arrays, ~60 bytes a walk, stay in a core's L2 cache
_CHUNK = 1 << 14
# A chunk is compacted when 1/_CARRY of its walks have stopped. Walks stop
# in almost every round, and compacting in each such round (a copy of every
# array) cost more than carrying the stopped ones: at p = 2000, B = 100,
# t = 0.1 (~1e7 steps) the table took 0.45 s instead of 0.59 s, median of
# 11 alternating runs in one process on a 2-vCPU x86-64 VM.
_CARRY = 8


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


@dataclass(frozen=True)
class HeatFlowMatrix:
    """Terminal vertices of B simulated walks per start vertex at time t.

    terminals[i, j] is where the j-th walk started at vertex i sits at time
    t; step_counts[i, j] is the number of jumps it took (None for matrices
    loaded from disk, where only their total is stored); total_steps is
    their sum (0 for a table loaded from an HFM1 file, which stores none).
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


def _check_time(t):
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def simulate_heat_flow(g: Graph, t: float, B: int, seed: int = 0) -> HeatFlowMatrix:
    """Run B walks from every vertex until time t.

    Exponential(deg) holding times make the walk's law the e^{-tL}
    semigroup, which every fidelity test enforces. Walk w is the w-th of
    the p*B walks in row-major order (start vertex w // B). Walks run in
    chunks of _CHUNK consecutive ids, each chunk to completion. In round d
    every walk of the chunk still moving hashes key ^ d once and splits the
    64-bit output: the high half hi gives u = (hi + 1) 2^-32 in (0, 1] and
    the hold -log(u) / deg, the low half lo gives the neighbour index
    (lo * deg) >> 32, exact in uint64 and below deg, taken if the hold ends
    before t. A chunk keeps arrays of its walks (id, vertex, its degree,
    time left, key), without those starting at a degree-0 vertex. A walk
    whose hold outlasts its time left writes its terminal and its step
    count d once and gets an infinite time left, so it never stops again;
    it keeps drawing and jumping, but writes nothing. When the stopped
    walks reach 1/_CARRY of the arrays, they are dropped from them with one
    `take` per array.

    The table is bit-identical per (graph, t, B, seed) to any other
    schedule of the same walks: a draw is a pure function of (seed, walk
    id, round), a walk uses round d's draw only in its d-th step, and each
    walk's arithmetic never touches another walk's.
    """
    if not (_is_integer(B) and B >= 1):
        raise ValueError(f"B must be an integer >= 1, got {B!r}")
    if not (_is_integer(seed) and -(1 << 63) <= seed < 1 << 63):
        raise ValueError("seed must be an integer in [-2**63, 2**63), the range a "
                         f"stored table's header holds, got {seed!r}")
    _check_time(t)
    p = g.p
    terminals = np.repeat(np.arange(p, dtype=np.int32), B)
    steps = np.zeros(p * B, dtype=np.int32)
    if t > 0:
        degu = g.degrees.astype(np.uint64)
        flat, offsets = g.flat_adjacency()
        hashed = np.empty(_CHUNK, dtype=np.uint64)
        scratch = np.empty(_CHUNK, dtype=np.uint64)
        seed_key = _finalize(np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
                             scratch[:1])
        u = np.empty(_CHUNK)
        for start in range(0, p * B, _CHUNK):
            ids = np.arange(start, min(start + _CHUNK, p * B))
            cur = terminals[ids]
            deg = degu.take(cur)
            moving = np.flatnonzero(deg)  # a degree-0 vertex holds forever
            ids, cur, deg = ids.take(moving), cur.take(moving), deg.take(moving)
            rem = np.full(len(ids), float(t))
            key = _finalize(ids.astype(np.uint64) ^ seed_key, scratch[:len(ids)])
            n, stopped, d = len(ids), 0, 0
            while stopped < n:  # some walk of the chunk is still moving
                x = _hash_into(key, d, hashed[:n], scratch[:n])
                # the hold -log(u) / deg, u = (hi + 1) 2^-32 in (0, 1]
                hold = np.add(np.right_shift(x, _HALF, out=scratch[:n]), 1.0, out=u[:n])
                hold *= _INV32
                np.log(hold, out=hold)
                np.negative(hold, out=hold)
                hold /= deg
                # the neighbour index (lo * deg) >> 32, exact in uint64 and below deg
                x &= _LOW
                x *= deg
                x >>= _HALF
                done = np.flatnonzero(~(hold < rem))
                if len(done):
                    w = ids.take(done)
                    terminals[w] = cur.take(done)
                    steps[w] = d
                    rem[done] = math.inf  # hold < inf: it never stops again
                    stopped += len(done)
                    if stopped * _CARRY >= n:
                        keep = np.flatnonzero(rem != math.inf)
                        ids, cur, deg, rem, key, hold, x = (
                            a.take(keep) for a in (ids, cur, deg, rem, key, hold, x))
                        n, stopped = len(ids), 0
                rem -= hold
                cur = flat.take(offsets.take(cur) + x.view(np.int64))
                deg = degu.take(cur)
                d += 1
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
    _check_time(t)
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
