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
(seed, walk index, step counter), so the terminals table is bit-identical
for a given (graph, t, B, seed) no matter how the walks are scheduled.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, LengthMismatch, ShapeMismatch
from .graphs import DENSE_LIMIT, Graph, spectral_decompose

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)


def _mix(x):
    # SplitMix64 finalizer; full-period 64-bit mixing.
    x = x + _GOLDEN
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _uniforms(seed, walk_ids, draw):
    """Uniforms in (0, 1], one per walk, for the draw-th variate of each walk."""
    with np.errstate(over="ignore"):
        h = _mix(_mix(_mix(_U64(seed & 0xFFFFFFFFFFFFFFFF)) ^ walk_ids) ^ _U64(draw))
    return ((h >> _U64(11)).astype(np.float64) + 1.0) * _INV53


@dataclass(frozen=True)
class HeatFlowMatrix:
    """Terminal vertices of B simulated walks per start vertex at time t.

    terminals[i, j] is where the j-th walk started at vertex i sits at time
    t; step_counts[i, j] is the number of jumps it took (None for matrices
    loaded from disk, where counts are not stored).
    """

    terminals: np.ndarray
    t: float
    B: int
    seed: int
    step_counts: np.ndarray | None

    @property
    def p(self):
        return self.terminals.shape[0]

    @property
    def total_steps(self):
        return int(self.step_counts.sum()) if self.step_counts is not None else 0


def simulate_heat_flow(g: Graph, t: float, B: int, seed: int = 0) -> HeatFlowMatrix:
    """Run B walks from every vertex until time t, all in vectorized lockstep.

    Exponential(deg) holding times make the walk's law the e^{-tL}
    semigroup, which every fidelity test enforces.
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
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
            u = _uniforms(seed, walk_ids[idx], 2 * draw)
            hold = -np.log(u) / deg[cur].astype(np.float64)
            alive = hold < remaining[idx]
            if alive.any():
                jidx = idx[alive]
                cur_j = terminals[jidx]
                u2 = _uniforms(seed, walk_ids[jidx], 2 * draw + 1)
                dj = deg[cur_j]
                choice = np.minimum((u2 * dj).astype(np.int64), dj - 1)
                terminals[jidx] = flat[offsets[cur_j] + choice]
                remaining[jidx] -= hold[alive]
                steps[jidx] += 1
            active[idx[~alive]] = False
            draw += 1
    return HeatFlowMatrix(
        terminals=terminals.reshape(p, B),
        t=float(t),
        B=int(B),
        seed=int(seed),
        step_counts=steps.reshape(p, B),
    )


def heatflow_apply(H: HeatFlowMatrix, f, S=None) -> np.ndarray:
    """Estimate the smoothed vector (e^{-tL} f) at the indices S.

    Returns the per-vertex average of f over walk terminals; an unbiased
    estimator with Monte Carlo error O(range(f)/sqrt(B)). f may also be a
    (p, F) matrix, smoothed column by column.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[:1] != (H.p,) or f.ndim > 2:
        raise LengthMismatch(f"f has shape {f.shape}, expected ({H.p},) or ({H.p}, F)")
    if S is None:
        return f[H.terminals].mean(axis=1)
    S = np.asarray(S, dtype=np.int64)
    if S.size == 0 or S.min() < 0 or S.max() >= H.p:
        raise IndexOutOfRange(f"S must be a nonempty subset of [0, {H.p})")
    return f[H.terminals[S]].mean(axis=1)


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


class ColumnBlocks:
    """Block products of a linear map M on R^m, for block coordinates S: a
    vector of q coordinates for one fit, or a (q, F) array whose column k
    holds the block S_k of fit k. `matvec(v)` gives M[:, S_k] v_k and
    `rmatvec(r)` gives (M^T r_k)[S_k], for all columns at once; `apply` and
    `apply_T` are the full products M x and M^T r. Given MT = M^T, blocks
    holding fewer than m entries in all gather their rows of MT once;
    otherwise a block is scattered into a full vector for `apply`, and read
    off the full `apply_T`."""

    def __init__(self, S, m, apply, apply_T, MT=None):
        # index of the block entries of a vector, or of (m, F) with entry (S[j, k], k)
        self.cells = (S,) if S.ndim == 1 else (S, np.arange(S.shape[1]))
        self._m, self._apply, self._apply_T = m, apply, apply_T
        self._rows = MT[S.T] if MT is not None and S.size < m else None  # (F, q, k) or (q, k)

    def matvec(self, v) -> np.ndarray:
        """M[:, S_k] v_k per column k, for block values v of S's shape."""
        if self._rows is not None:
            return (v.T[..., None, :] @ self._rows)[..., 0, :].T
        full = np.zeros((self._m,) + v.shape[1:])
        full[self.cells] = v
        return self._apply(full)

    def rmatvec(self, r) -> np.ndarray:
        """(M^T r_k)[S_k] per column k, for r with one column per fit."""
        if self._rows is not None:
            return (self._rows @ r.T[..., None])[..., 0].T
        return self._apply_T(r)[self.cells]


class SmoothingOperator:
    """A linear smoothing operator K on R^p, compiled once per fit.

    Backed either by a dense matrix (`dense`: an exact kernel, or the
    empirical kernel of a small walk table, whose `walk_steps` it then
    reports) or by a walk table (`table`, a HeatFlowMatrix), where K^ f is a
    gather over the table and K^T r a bincount scatter. `compile` picks the
    backing; every penalty and optimizer computation goes through `apply`,
    `apply_T` and the block forms of `blocks`. Each takes one vector per
    fit, or a matrix with one column per fit, so F fits run in lockstep
    share each product.
    """

    def __init__(self, dense=None, table: HeatFlowMatrix | None = None,
                 walk_steps: int = 0):
        if (dense is None) == (table is None):
            raise ValueError("give exactly one of a dense kernel or a walk table")
        self._table = table
        self._KT = None
        self.walk_steps = walk_steps
        if table is not None:
            self.p = table.p
            self.walk_steps = table.total_steps
            self._flat = table.terminals.ravel().astype(np.intp)  # bincount's index type
        else:
            K = np.asarray(dense, dtype=np.float64)
            if K.ndim != 2 or K.shape[0] != K.shape[1]:
                raise ShapeMismatch(f"kernel must be square, got shape {K.shape}")
            self.p = K.shape[0]
            self._KT = np.ascontiguousarray(K.T)  # rows of K^T are columns of K

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
        """K f for f of shape (p,) or (p, F)."""
        if self._KT is not None:
            return self._KT.T @ f
        return heatflow_apply(self._table, f)

    def apply_T(self, r) -> np.ndarray:
        """K^T r for r of shape (p,) or (p, F)."""
        if self._KT is not None:
            return self._KT @ r
        if r.ndim == 2:
            return np.stack([self.apply_T(c) for c in r.T], axis=1)
        B = self._table.B
        return np.bincount(self._flat, weights=np.repeat(r, B), minlength=self.p) / B

    def blocks(self, S):
        """The column forms of K for block coordinates S (a vector, or one
        block per column of a (q, F) array; see ColumnBlocks): `matvec(d)`
        gives K[:, S_k] d_k, the change of h after a block step, and
        `rmatvec(r)` gives (K^T r_k)[S_k]."""
        return ColumnBlocks(S, self.p, self.apply, self.apply_T, self._KT)


def exact_heat_kernel(g: Graph, t: float, limit: int = DENSE_LIMIT) -> np.ndarray:
    """Dense e^{-tL} via eigendecomposition; symmetric, rows sum to 1."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return np.eye(g.p)
    spec = spectral_decompose(g, limit=limit)
    weights = np.exp(-t * np.maximum(spec.eigenvalues, 0.0))
    K = (spec.eigenvectors * weights) @ spec.eigenvectors.T
    return (K + K.T) / 2.0


_MAGIC = b"HFM1"


def save_heatflow(H: HeatFlowMatrix, path):
    """Binary format: magic 'HFM1', little-endian u64 p, u64 B, f64 t,
    i64 seed, then terminals row-major as i32."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQdq", H.p, H.B, H.t, H.seed))
        fh.write(np.ascontiguousarray(H.terminals, dtype="<i4").tobytes())


def load_heatflow(path) -> HeatFlowMatrix:
    """Load a stored matrix; step counts are not serialized and come back None.

    Rejects a bad magic, a header with p < 1 or B < 1, a table shorter or
    longer than the header says, and any terminal outside [0, p).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated header")
        p, B, t, seed = struct.unpack("<QQdq", header)
        if p < 1 or B < 1:
            raise ValueError(f"{path}: header has p={p}, B={B}; both must be >= 1")
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
                          step_counts=None)
