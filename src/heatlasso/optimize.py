"""Subgradient descent and stochastic block coordinate descent for the
heat-flow penalized loss, the 2-means hard-thresholding step, and
cross-validation over the (penalty weight, flow time) grid.

Both optimizers accept a HeatFlowMatrix (the production path: one
simulation reused across every iteration), a dense kernel matrix (the exact
oracle used by tests) or a SmoothingOperator, and compile it once per fit
into the operator K that does all their smoothing. Inputs are checked once
per fit.

Subgradient descent is block coordinate descent whose block is all p
coordinates, so both optimizers run one lockstep core, _cd_lockstep. It
runs F fits side by side as the columns of a p x F beta: column k has its
own penalty weight, its own row weights (the training rows of a CV fold)
and its own block stream, and each iteration does one GEMM per smoothing
or loss product for all columns. A step is small when
||step|| <= eps_tol ||beta_S|| over the coordinates S it moves. A column
stops on one small step with full blocks, and with blocks of q < p only
after ceil(p / q) small steps in a row, so that one block that happens to
move little does not stop it. It stops with the beta, trace, iteration
count and converged flag of its single fit: from then on its step is
scaled by 0, so its beta stays put while it keeps its place in every
product, until all columns have stopped or max_iters is reached.
subgradient_descent and block_cd are the one-column case, and
cross_validate runs a whole lambda x fold grid per t. A column follows its
single fit only up to rounding: a GEMM over F columns may sum in another
order than the one-column product. SD, whose fits do not converge at the
benchmark settings, can amplify such a gap near a zero coefficient by
orders of magnitude over the iterations.

An iteration steps each column's block S along the restricted subgradient
and reads the loss off z = X beta and the penalty off h = K (beta (.) beta).
If the blocks of all F columns hold fewer than p coordinates (q F < p), it
gathers their rows of X^T, and of K^T when dense, and updates
z += X[:, S] (beta_S,new - beta_S,old), h += K[:, S] (beta_S,new^2 - beta_S,old^2)
(a walk table scatters the change into one apply): O((n + p) q) per
iteration of one fit on a dense operator. Otherwise (SD, and block CD whose
blocks cover p) it takes the full products X^T dz and K^T slope, scales each
column's step by a 0/1 mask of its block, and recomputes z and h: one
product each, as an update would cost, with no drift.

With q < p, block CD draws its blocks in chunks of iterations
(_draw_blocks): each column takes p uniforms per iteration from its own
generator, and the indices of the q smallest, sorted, are its block, a
uniform q-subset of [0, p). A column's uniforms are consecutive doubles of
its own stream, and the stream does not depend on how it is cut into
chunks, so its blocks do not depend on F, on the chunk length or on when
other columns stop.
"""

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    FoldTooSmall,
    GridEmpty,
    LabelDomain,
    LengthMismatch,
    NonFiniteObjective,
    ShapeMismatch,
    check_arg,
)
from .heatflow import SmoothingOperator, simulate_heat_flow
from .penalty import _penalty_terms

RATE_PROTOCOLS = ("constant", "inv_sqrt")
LOSSES = ("squared_error", "logistic")
# Block CD draws at most this many uniforms (all columns together) per
# chunk of iterations, and at least one iteration's worth: 16 iterations for
# 20 columns at p = 100. The cap bounds the draw's working memory (the
# uniforms and their argpartition, 512 KiB).
_DRAW_CHUNK = 1 << 15


@dataclass
class FitConfig:
    """All tuning knobs of a single fit."""

    lam: float = 0.1
    t: float = 1.0
    B: int = 100
    alpha0: float = 0.1
    rate_protocol: str = "inv_sqrt"
    eps_tol: float = 1e-5
    max_iters: int = 1000
    block_size: int | None = None  # None means full blocks (q = p)
    seed: int = 0
    loss: str = "squared_error"

    def validate(self, p=None):
        check_arg("lam", self.lam, "[0, inf)")
        check_arg("t", self.t, "[0, inf)")
        check_arg("B", self.B, "[1, inf)", int)
        check_arg("alpha0", self.alpha0, "(0, inf)")
        if self.rate_protocol not in RATE_PROTOCOLS:
            raise ValueError(f"rate_protocol must be one of {RATE_PROTOCOLS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        check_arg("max_iters", self.max_iters, "[1, inf)", int)
        check_arg("eps_tol", self.eps_tol, "[0, inf)")
        check_arg("seed", self.seed, kind=int)
        if self.block_size is not None:
            check_arg("block_size", self.block_size, f"[1, {p or 'inf'}]", int)

    def learning_rate(self, i):
        if self.rate_protocol == "constant":
            return self.alpha0
        return self.alpha0 / np.sqrt(i)


@dataclass(kw_only=True)
class FitResult:
    """Fitted coefficients with the convergence trace of the run; to_json keeps field order."""

    beta_hat: np.ndarray
    beta_thresholded: np.ndarray
    iterations: int
    converged: bool
    objective_trace: list
    total_walk_steps: int

    def to_json(self):
        return json.dumps({f.name: [float(v) for v in getattr(self, f.name)]
                           if f.type in (np.ndarray, list) else getattr(self, f.name)
                           for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(**{f.name: np.asarray(d[f.name], dtype=np.float64) if f.type is np.ndarray
                      else f.type(d[f.name]) for f in fields(cls)})


def loss_and_grad(beta, X, y, kind="squared_error"):
    """Loss value and gradient at beta.

    squared_error: (1/2n)||y - X beta||^2, gradient (1/n) X^T (X beta - y).
    logistic: mean negative log-likelihood with labels in {0, 1}.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or beta.shape != (X.shape[1],):
        raise ShapeMismatch(
            f"inconsistent shapes: X {X.shape}, y {y.shape}, beta {beta.shape}")
    if kind == "logistic":
        _check_labels(y)
    value, dz = _loss_from_linear(X @ beta, y, kind, 1.0 / y.size)
    return float(value), X.T @ dz


def _loss_from_linear(z, y, kind, w):
    """(loss, dloss/dz) for the linear predictor z = X beta, with row weights
    w: the loss is sum_i w_i l(z_i, y_i). A scalar w = 1/n gives the mean.
    For F fits in lockstep, z is (n, F), y is (n, 1) and w is (n, F) (each
    column weighting its own training rows); the loss is then an (F,) array.
    """
    if kind == "squared_error":
        r = z - y
        dz = w * r
        return 0.5 * (dz * r).sum(axis=0), dz
    if kind == "logistic":
        # log(1 + e^z) - y z, exact for any z; sigmoid from e^{-|z|} <= 1
        e = np.exp(-np.abs(z))
        prob = np.where(z >= 0, 1.0, e) / (1.0 + e)
        return (w * (np.logaddexp(0.0, z) - y * z)).sum(axis=0), w * (prob - y)
    raise ValueError(f"unknown loss {kind!r}")


def _check_labels(y):
    if not np.isin(y, (0.0, 1.0)).all():
        raise LabelDomain("logistic labels must lie in {0, 1}")


def _require_finite(value, what):
    if np.count_nonzero(~np.isfinite(value)):
        raise NonFiniteObjective(f"{what} is not finite; reduce the learning rate")


def _check_data(X, y, cfg):
    """Check the data and config shared by every fit of a run; returns
    (X, y) as float arrays. A non-finite entry is refused by its place."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeMismatch(f"inconsistent shapes: X {X.shape}, y {y.shape}")
    for name, a in (("X", X), ("y", y)):
        if not np.isfinite(a).all():
            at = np.unravel_index(np.isfinite(a).argmin(), a.shape)  # the first, row-major
            raise ValueError(f"{name} holds {a[at]} at row {', column '.join(map(str, at))} "
                             "(0-based); fits need finite data")
    cfg.validate(X.shape[1])
    if cfg.loss == "logistic":
        _check_labels(y)
    return X, y


def _check_graph(g, X):
    if g.p != np.shape(X)[-1]:
        raise LengthMismatch(f"graph has {g.p} vertices, X has {np.shape(X)[-1]} columns")


def _compile(semigroup, p):
    op = SmoothingOperator.compile(semigroup)
    if op.p != p:
        raise LengthMismatch(f"smoothing operator acts on {op.p} variables, "
                             f"X has {p} columns")
    return op


def _seed_sequence(*parts):
    """The SeedSequence of a seed and its tags, each taken mod 2^32."""
    return np.random.SeedSequence([part & 0xFFFFFFFF for part in parts])


def _derived_seed(*parts):
    """A 32-bit seed derived from a seed and its tags."""
    return int(_seed_sequence(*parts).generate_state(1)[0])


class _Lockstep:
    """The bookkeeping of fits run side by side, one per column of beta.

    beta is a (p,) vector for one fit or a (p, F) matrix for F fits; each
    fit's penalty weight, objective and stop flag is then a scalar or an
    (F,) array. Holds each fit's objective trace, iteration count and
    `converged` flag, and the step factor `moving`: 1.0 until a column
    stops, then an (F,) array that is 0 on the stopped columns. A stopped
    column's steps are then exact zeros, so its beta stays as it was when
    it stopped while the other columns go on. A column stops after
    `streak` small steps in a row: ceil(p / q) for blocks of q, and 1 for
    full blocks, whose runs are not counted.
    """

    def __init__(self, F, max_iters, streak):
        self.moving = 1.0
        self.trace = np.empty((max_iters, F))
        self.iterations = np.full(F, max_iters)
        self.converged = np.zeros(F, dtype=bool)
        self.streak = streak
        self.run_length = np.zeros(F, dtype=np.int64)  # small steps in a row
        self.counting = False  # some run_length > 0; if not, only a small step counts

    def record(self, i, obj, small):
        """Log iteration i's objectives and stop the columns whose last
        `streak` steps were all flagged `small` (a stopped column stays
        flagged). Returns whether all have stopped."""
        _require_finite(obj, "objective")
        self.trace[i - 1] = obj
        done = small
        if self.streak > 1 and (self.counting or np.count_nonzero(small)):
            self.run_length = (self.run_length + 1) * small
            self.counting = bool(np.count_nonzero(self.run_length))
            done = self.run_length >= self.streak
        if not np.count_nonzero(done):
            return False
        stop = np.reshape(done, -1) & ~self.converged
        self.iterations[stop] = i
        self.converged |= stop
        self.moving = 1.0 - self.converged
        return self.converged.all()


def _small_steps(step, old, tol):
    """Per column: ||step|| <= tol * max(||old||, 1e-12), the stopping rule."""
    return (step * step).sum(axis=0) <= tol * tol * np.maximum((old * old).sum(axis=0), 1e-24)


def _draw_blocks(rngs, iters, p, q):
    """The blocks of `iters` iterations for the columns whose generators are
    `rngs`: an (iters, q, F) array whose [i, :, k] is column k's block at
    iteration i, q distinct indices of [0, p) in ascending order. Each
    column's block is the q smallest of p uniforms from its generator."""
    U = np.empty((len(rngs), iters, p))
    for rng, u in zip(rngs, U):
        rng.random(out=u)
    S = np.sort(np.argpartition(U, q - 1, axis=-1)[..., :q], axis=-1)
    return np.ascontiguousarray(S.transpose(1, 2, 0))


def _rows_dot(rows, r):
    """(M^T r_k)[S_k] per column k, from the gathered rows MT[S.T] of M^T."""
    return (rows @ r.T[..., None])[..., 0].T


def _dot_rows(v, rows):
    """M[:, S_k] v_k per column k, for block values v of S's shape."""
    return (v.T[..., None, :] @ rows)[..., 0, :].T


def _cd_lockstep(X, y, op, cfg, lam, w, beta, seeds):
    """Stochastic block coordinate descent on each column of beta in
    lockstep; subgradient descent when cfg.block_size is None or p.

    beta is (p,) for one fit or (p, F) for F fits. Column k fits penalty
    weight lam[k] to the loss sum_i w[i, k] l(z_ik, y_i), so a CV fold's
    column weights its training rows only; y and w are (n,) and a scalar
    for one fit, (n, 1) and (n, F) for F fits. The config's rate, block
    size, tolerance and max_iters apply to every column. Column k draws its
    blocks from its own stream seeded by seeds[k], so it follows the
    trajectory of its single fit; full blocks draw nothing. A column that
    has stopped keeps drawing blocks and takes zero steps (see _Lockstep):
    its beta and trace end where its single fit's do. Returns (p x F final
    betas, objective traces, converged flags).
    """
    p = X.shape[1]
    q = p if cfg.block_size is None else cfg.block_size
    F = beta[0].size
    gather = q * F < p  # the module docstring's two regimes
    XT = np.ascontiguousarray(X.T) if gather else None  # rows of XT are columns of X
    rngs = [np.random.default_rng(_seed_sequence(s, 0xB10C)) for s in seeds]
    run = _Lockstep(F, cfg.max_iters, -(-p // q))
    beta = beta.copy()
    z = X @ beta  # kept equal to X @ beta
    obj, dz = _loss_from_linear(z, y, cfg.loss, w)
    _require_finite(obj, "loss")
    penalized = bool(np.any(lam))
    if penalized:
        h = op.apply(beta * beta)  # kept equal to K (beta^2)
        _, slope = _penalty_terms(h)
    blocks = np.empty((0, q, F), np.intp)  # the drawn blocks of the iterations ahead
    for i in range(1, cfg.max_iters + 1):
        rate = cfg.learning_rate(i) * run.moving
        if q < p:
            if not len(blocks):
                iters = min(max(_DRAW_CHUNK // (F * p), 1), cfg.max_iters - i + 1)
                blocks = _draw_blocks(rngs, iters, p, q)
            S = blocks[0] if beta.ndim == 2 else blocks[0, :, 0]
            blocks = blocks[1:]
            cells = (S,) if S.ndim == 1 else (S, np.arange(F))  # the block entries of beta
        if gather:
            xrows = XT[S.T]
            krows = None if op.KT is None else op.KT[S.T]
            old = beta[cells]
            grad = _rows_dot(xrows, dz)
            if penalized:
                kslope = op.apply_T(slope)[cells] if krows is None else _rows_dot(krows, slope)
                grad += lam * kslope * old
            new = old - rate * grad
            step = new - old
            beta[cells] = new
            z += _dot_rows(step, xrows)
            if penalized:
                change = new * new - old * old
                if krows is None:  # a walk table: one apply of the scattered change
                    full = np.zeros_like(beta)
                    full[cells] = change
                    h += op.apply(full)
                else:
                    h += _dot_rows(change, krows)
        else:
            old = beta
            if q < p:  # a 0/1 mask of each column's block scales its step
                mask = np.zeros_like(beta)
                mask[cells] = 1.0
                rate, old = rate * mask, beta * mask
            grad = X.T.dot(dz)
            if penalized:
                grad += lam * op.apply_T(slope) * beta
            new = beta - rate * grad
            step = new - beta
            beta = new
            z = X @ beta
            if penalized:
                h = op.apply(beta * beta)
        small = _small_steps(step, old, cfg.eps_tol)
        obj, dz = _loss_from_linear(z, y, cfg.loss, w)
        if penalized:
            penalty, slope = _penalty_terms(h)
            obj += lam * penalty
        if run.record(i, obj, small):
            break
    traces = [run.trace[:k, j].tolist() for j, k in enumerate(run.iterations)]
    return beta.reshape(p, -1), traces, run.converged


def _single_fit(X, y, semigroup, cfg, beta0):
    """One fit: the one-column case of _cd_lockstep, run on a (p,) beta."""
    X, y = _check_data(X, y, cfg)
    n, p = X.shape
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, np.float64)
    if beta.shape != (p,):
        raise ShapeMismatch(f"beta0 has shape {beta.shape}, expected ({p},)")
    op = _compile(semigroup, p)
    betas, traces, converged = _cd_lockstep(X, y, op, cfg, cfg.lam, 1.0 / n, beta, [cfg.seed])
    return FitResult(
        beta_hat=betas[:, 0],
        beta_thresholded=threshold_kmeans(betas[:, 0]),
        iterations=len(traces[0]),
        objective_trace=traces[0],
        converged=bool(converged[0]),
        total_walk_steps=op.walk_steps,
    )


def subgradient_descent(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Full subgradient descent on the penalized loss: block coordinate
    descent whose block is all p coordinates. cfg.block_size and cfg.seed
    are ignored.

    beta0 is the starting point (default: the zero vector).
    """
    return _single_fit(X, y, semigroup, replace(cfg, block_size=None), beta0)


def block_cd(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Stochastic block coordinate descent: each iteration updates a uniform
    random block of block_size coordinates using the restricted subgradient.

    The blocks come from cfg.seed's stream: an iteration's block holds the
    indices of the block_size smallest of p uniforms, drawn for many
    iterations at once. A block step meets eps_tol relative to the block's
    own coordinates, so the fit stops, `converged`, only after
    ceil(p / block_size) such steps in a row: one block that happens to move
    little is not enough. The stream does not depend on that batching, so a fit's blocks are the
    same whatever the chunk length, and a column of a cross-validation run
    draws the blocks of its single fit."""
    return _single_fit(X, y, semigroup, cfg, beta0)


# Each optimizer by its name in configs, the CLI and cross_validate; a fit's
# seed tag is its place here plus 1.
OPTIMIZERS = {"sd": subgradient_descent, "cd": block_cd}


def threshold_kmeans(beta) -> np.ndarray:
    """Zero out the low cluster of an exact 1-D 2-means split of |beta|.

    The optimum of 1-D 2-means is attained at one of the p - 1 boundaries of
    the sorted values, so scanning all splits is exact and deterministic.
    If all |beta_i| are equal there is nothing to separate and beta is
    returned unchanged.
    """
    beta = np.asarray(beta, dtype=np.float64)
    p = beta.size
    if p < 2:
        return beta.copy()
    mags = np.abs(beta)
    order = np.argsort(mags, kind="stable")
    v = mags[order]
    if v[0] == v[-1]:
        return beta.copy()
    csum = np.cumsum(v)
    csq = np.cumsum(v * v)
    total, total_sq = csum[-1], csq[-1]
    m = np.arange(1, p)  # split: low cluster v[:m], high cluster v[m:]
    low_sum, low_sq = csum[m - 1], csq[m - 1]
    cost = (low_sq - low_sum ** 2 / m) + \
           ((total_sq - low_sq) - (total - low_sum) ** 2 / (p - m))
    best = int(m[np.argmin(cost)])
    out = beta.copy()
    out[order[:best]] = 0.0
    return out


def cross_validate(X, y, g, lambda_grid, t_grid, folds, cfg: FitConfig,
                   optimizer: str = "sd"):
    """K-fold cross-validation over the (lam, t) grid.

    One HeatFlowMatrix is simulated and compiled per t value and shared
    across all folds and lam values. For each t, the |lambda_grid| x folds
    fits run in lockstep as the columns of one p x F beta (see
    _cd_lockstep; SD runs it with full blocks): a fold is a mask of training
    rows over the full X, each column keeps its own lam and, for block CD,
    its own per-cell seed, and every column ends where its single fit on the
    fold's training rows would, up to rounding (SD columns can amplify a
    rounding gap near a zero coefficient; see the module docstring). The
    held-out losses of all columns come
    from one product with the complementary masks. Returns (best_lam,
    best_t, table) where table rows are {"lam", "t", "cv_loss"}; ties break
    toward smaller lam, then smaller t.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"optimizer must be {' or '.join(map(repr, OPTIMIZERS))}, "
                         f"got {optimizer!r}")
    if optimizer == "sd":
        cfg = replace(cfg, block_size=None)
    lambda_grid = list(lambda_grid)
    t_grid = list(t_grid)
    if not lambda_grid or not t_grid:
        raise GridEmpty("lambda_grid and t_grid must be nonempty")
    X, y = _check_data(X, y, cfg)
    _check_graph(g, X)
    check_arg("lambda_grid values", lambda_grid, "[0, inf)")
    check_arg("t_grid values", t_grid, "[0, inf)")
    n = X.shape[0]
    check_arg("folds", folds, "[2, inf)", int)
    if n < folds:
        raise FoldTooSmall(f"n={n} samples cannot fill {folds} folds")

    perm = np.random.default_rng(_seed_sequence(cfg.seed, 0xF01D)).permutation(n)
    held_out = np.zeros((n, folds), dtype=bool)
    for fi, test_rows in enumerate(np.array_split(perm, folds)):
        held_out[test_rows, fi] = True
    # column li * folds + fi fits lambda_grid[li] on the training rows of fold fi
    lams = np.repeat(np.asarray(lambda_grid, dtype=np.float64), folds)
    w_train = np.tile(~held_out / (~held_out).sum(axis=0), len(lambda_grid))
    w_test = np.tile(held_out / held_out.sum(axis=0), len(lambda_grid))

    table = []
    for ti, t in enumerate(t_grid):
        h_seed = _derived_seed(cfg.seed, 0xF10, ti)
        op = _compile(simulate_heat_flow(g, t, cfg.B, seed=h_seed), X.shape[1])
        seeds = [_derived_seed(cfg.seed, ti, li, fi)
                 for li in range(len(lambda_grid)) for fi in range(folds)]
        betas = _cd_lockstep(X, y[:, None], op, cfg, lams, w_train,
                             np.zeros((X.shape[1], lams.size)), seeds)[0]
        held_out_losses = _loss_from_linear(X @ betas, y[:, None], cfg.loss, w_test)[0]
        cv_losses = held_out_losses.reshape(len(lambda_grid), folds).mean(axis=1)
        table += [{"lam": lam, "t": t, "cv_loss": float(c)}
                  for lam, c in zip(lambda_grid, cv_losses)]

    best = min(table, key=lambda r: (r["cv_loss"], r["lam"], r["t"]))
    return best["lam"], best["t"], table
