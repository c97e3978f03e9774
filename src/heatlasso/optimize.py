"""Subgradient descent and stochastic block coordinate descent for the
heat-flow penalized loss, the 2-means hard-thresholding step, and
cross-validation over the (penalty weight, flow time) grid.

Both optimizers accept a HeatFlowMatrix (the production path: one
simulation reused across every iteration), a dense kernel matrix (the exact
oracle used by tests) or a SmoothingOperator, and compile it once per fit
into the operator K that does all their smoothing. Inputs are checked once
per fit.

Each optimizer has one lockstep core (_sd_lockstep, _cd_lockstep) that runs
F fits side by side as the columns of a p x F beta: column k has its own
penalty weight, its own row weights (the training rows of a CV fold) and,
for block CD, its own block stream, and each iteration does one GEMM per
smoothing or loss product for all live columns. A column that meets
eps_tol stops there, with the beta, trace, iteration count and converged
flag of its single fit; subgradient_descent and block_cd are the
one-column case, and cross_validate runs a whole lambda x fold grid per t.

Subgradient descent smooths once forward (K (beta (.) beta), which gives the
reported penalty and the next step's scaling) and once transposed (K^T r)
per iteration, and carries z = X beta and the loss derivative from one
iteration's objective to the next step. Block coordinate descent keeps
h = K (beta (.) beta) current with h += K[:, S] (beta_S,new^2 - beta_S,old^2)
and reads the penalty off h, so an iteration of one fit costs O((n + p) q)
on a dense operator. Its block products gather the block's rows when the
blocks of all columns hold fewer than p coordinates, and otherwise use the
full dense products (see heatflow.ColumnBlocks).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    FoldTooSmall,
    GridEmpty,
    LabelDomain,
    LengthMismatch,
    NonFiniteObjective,
    ShapeMismatch,
)
from .heatflow import ColumnBlocks, SmoothingOperator, simulate_heat_flow
from .penalty import _penalty_terms

RATE_PROTOCOLS = ("constant", "inv_sqrt")
LOSSES = ("squared_error", "logistic")


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
    eps_den: float = 1e-8
    seed: int = 0
    loss: str = "squared_error"

    def validate(self, p=None):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be > 0, got {self.alpha0}")
        if self.rate_protocol not in RATE_PROTOCOLS:
            raise ValueError(f"rate_protocol must be one of {RATE_PROTOCOLS}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.eps_tol >= 0:
            raise ValueError(f"eps_tol must be >= 0, got {self.eps_tol}")
        if not self.eps_den > 0:
            raise ValueError(f"eps_den must be > 0, got {self.eps_den}")
        if self.block_size is not None:
            if self.block_size < 1 or (p is not None and self.block_size > p):
                raise ValueError(f"block_size must be in [1, p], got {self.block_size}")

    def learning_rate(self, i):
        if self.rate_protocol == "constant":
            return self.alpha0
        return self.alpha0 / np.sqrt(i)


@dataclass
class FitResult:
    """Fitted coefficients with the convergence trace of the run."""

    beta_hat: np.ndarray
    beta_thresholded: np.ndarray
    iterations: int
    objective_trace: list
    converged: bool
    total_walk_steps: int

    def to_json(self):
        return json.dumps({
            "beta_hat": [float(v) for v in self.beta_hat],
            "beta_thresholded": [float(v) for v in self.beta_thresholded],
            "iterations": self.iterations,
            "converged": self.converged,
            "objective_trace": [float(v) for v in self.objective_trace],
            "total_walk_steps": self.total_walk_steps,
        }, indent=2)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            beta_hat=np.asarray(d["beta_hat"], dtype=np.float64),
            beta_thresholded=np.asarray(d["beta_thresholded"], dtype=np.float64),
            iterations=int(d["iterations"]),
            objective_trace=list(d["objective_trace"]),
            converged=bool(d["converged"]),
            total_walk_steps=int(d["total_walk_steps"]),
        )


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
    (X, y) as float arrays."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeMismatch(f"inconsistent shapes: X {X.shape}, y {y.shape}")
    cfg.validate(X.shape[1])
    if cfg.loss == "logistic":
        _check_labels(y)
    return X, y


def _compile(semigroup, p):
    op = SmoothingOperator.compile(semigroup)
    if op.p != p:
        raise LengthMismatch(f"smoothing operator acts on {op.p} variables, "
                             f"X has {p} columns")
    return op


class _Lockstep:
    """The bookkeeping of fits run side by side, one per column of beta.

    beta is a (p,) vector for one fit or a (p, F) matrix for F fits; each
    fit's penalty weight, objective and stop flag is then a scalar or an
    (F,) array. Holds the live columns (those still iterating), each fit's
    objective trace, and, once a fit stops, its final beta, iteration count
    and `converged` flag. `record` logs one iteration and retires the
    columns that met the tolerance; the optimizer then keeps only the live
    columns of its own state.
    """

    def __init__(self, beta, max_iters):
        F = beta[0].size
        self.live = np.arange(F)
        self.beta = beta.reshape(-1, F).copy()
        self.trace = np.empty((max_iters, F))
        self.iterations = np.full(F, max_iters)
        self.converged = np.zeros(F, dtype=bool)

    def record(self, i, obj, beta, done):
        """Log iteration i's objectives of the live columns, whose betas are
        `beta`; retire those flagged `done`. Returns the mask of live columns
        that go on, or None when all of them do."""
        _require_finite(obj, "objective")
        self.trace[i - 1, self.live] = obj
        if not np.count_nonzero(done):
            return None
        done = np.reshape(done, -1)
        stop = self.live[done]
        self.beta[:, stop] = beta.reshape(len(beta), -1)[:, done]
        self.iterations[stop] = i
        self.converged[stop] = True
        self.live = self.live[~done]
        return ~done

    def finish(self, beta):
        """(p x F betas, per-fit objective traces, converged flags), given
        the betas of the columns still live."""
        if self.live.size:
            self.beta[:, self.live] = beta.reshape(len(beta), -1)
        traces = [self.trace[:k, j].tolist() for j, k in enumerate(self.iterations)]
        return self.beta, traces, self.converged


def _small_steps(step, old, tol):
    """Per column: ||step|| <= tol * max(||old||, 1e-12), the stopping rule."""
    return (step * step).sum(axis=0) <= tol * tol * np.maximum((old * old).sum(axis=0), 1e-24)


def _sd_lockstep(X, y, op, cfg, lam, w, beta):
    """Subgradient descent on each column of beta in lockstep.

    beta is (p,) for one fit or (p, F) for F fits. Column k fits penalty
    weight lam[k] to the loss sum_i w[i, k] l(z_ik, y_i), so a CV fold's
    column weights its training rows only; y and w are (n,) and a scalar
    for one fit, (n, 1) and (n, F) for F fits. The config's rate, tolerance
    and max_iters apply to every column. Returns (p x F final betas,
    objective traces, converged flags).
    """
    run = _Lockstep(beta, cfg.max_iters)
    obj, dz = _loss_from_linear(X @ beta, y, cfg.loss, w)
    _require_finite(obj, "loss")
    penalized = bool(np.any(lam))
    if penalized:
        _, slope = _penalty_terms(op.apply(beta * beta), cfg.eps_den)
    for i in range(1, cfg.max_iters + 1):
        grad = X.T @ dz
        if penalized:
            grad += lam * op.apply_T(slope) * beta
        beta_new = beta - cfg.learning_rate(i) * grad
        obj, dz = _loss_from_linear(X @ beta_new, y, cfg.loss, w)
        if penalized:
            penalty, slope = _penalty_terms(op.apply(beta_new * beta_new), cfg.eps_den)
            obj += lam * penalty
        keep = run.record(i, obj, beta_new, _small_steps(beta_new - beta, beta, cfg.eps_tol))
        beta = beta_new
        if keep is not None:
            if not keep.any():
                break
            beta, dz, lam, w = beta[:, keep], dz[:, keep], lam[keep], w[:, keep]
            if penalized:
                slope = slope[:, keep]
    return run.finish(beta)


def _cd_lockstep(X, y, op, cfg, lam, w, beta, seeds):
    """Stochastic block coordinate descent on each column of beta in
    lockstep, with the shapes of _sd_lockstep. Column k draws its blocks
    from its own stream seeded by seeds[k], so it follows the trajectory of
    its single fit."""
    p = X.shape[1]
    q = p if cfg.block_size is None else cfg.block_size
    XT = np.ascontiguousarray(X.T)  # a block's columns of X are rows of XT
    rngs = [np.random.default_rng(np.random.SeedSequence([s & 0xFFFFFFFF, 0xB10C]))
            for s in seeds]
    run = _Lockstep(beta, cfg.max_iters)
    beta = beta.copy()
    z = X @ beta  # kept equal to X @ beta by incremental updates
    obj, dz = _loss_from_linear(z, y, cfg.loss, w)
    _require_finite(obj, "loss")
    penalized = bool(np.any(lam))
    if penalized:
        h = op.apply(beta * beta)  # kept equal to K (beta^2)
        _, slope = _penalty_terms(h, cfg.eps_den)
    for i in range(1, cfg.max_iters + 1):
        draws = [rng.choice(p, size=q, replace=False) for rng in rngs]
        S = np.sort(draws[0]) if beta.ndim == 1 else np.sort(draws, axis=1).T
        block = ColumnBlocks(S, p, X.dot, XT.dot, XT)  # products with X[:, S_k]
        kblock = op.blocks(S)  # and with K[:, S_k]
        old = beta[block.cells]
        grad = block.rmatvec(dz)
        if penalized:
            grad += lam * kblock.rmatvec(slope) * old
        new = old - cfg.learning_rate(i) * grad
        beta[block.cells] = new
        step = new - old
        z += block.matvec(step)
        obj, dz = _loss_from_linear(z, y, cfg.loss, w)
        if penalized:
            h += kblock.matvec(new * new - old * old)
            penalty, slope = _penalty_terms(h, cfg.eps_den)
            obj += lam * penalty
        keep = run.record(i, obj, beta, _small_steps(step, old, cfg.eps_tol))
        if keep is not None:
            if not keep.any():
                break
            beta, z, dz, lam, w = beta[:, keep], z[:, keep], dz[:, keep], lam[keep], w[:, keep]
            if penalized:
                h, slope = h[:, keep], slope[:, keep]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
    return run.finish(beta)


def _single_fit(lockstep, X, y, semigroup, cfg, beta0):
    """One fit: the one-column case of an optimizer's lockstep core, run on
    a (p,) beta. lockstep(X, y, op, cfg, lam, w, beta) runs the core."""
    X, y = _check_data(X, y, cfg)
    n, p = X.shape
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, np.float64)
    if beta.shape != (p,):
        raise ShapeMismatch(f"beta0 has shape {beta.shape}, expected ({p},)")
    op = _compile(semigroup, p)
    betas, traces, converged = lockstep(X, y, op, cfg, cfg.lam, 1.0 / n, beta)
    return FitResult(
        beta_hat=betas[:, 0],
        beta_thresholded=threshold_kmeans(betas[:, 0]),
        iterations=len(traces[0]),
        objective_trace=traces[0],
        converged=bool(converged[0]),
        total_walk_steps=op.walk_steps,
    )


def subgradient_descent(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Full subgradient descent on the penalized loss.

    beta0 is the starting point (default: the zero vector).
    """
    return _single_fit(_sd_lockstep, X, y, semigroup, cfg, beta0)


def block_cd(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Stochastic block coordinate descent: each iteration updates a uniform
    random block of block_size coordinates using the restricted subgradient."""
    return _single_fit(lambda *args: _cd_lockstep(*args, [cfg.seed]),
                       X, y, semigroup, cfg, beta0)


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
    _sd_lockstep and _cd_lockstep): a fold is a mask of training rows over
    the full X, each column keeps its own lam and, for block CD, its own
    per-cell seed, and every column ends where its single fit on the
    fold's training rows would. The held-out losses of all columns come
    from one product with the complementary masks. Returns (best_lam,
    best_t, table) where table rows are {"lam", "t", "cv_loss"}; ties break
    toward smaller lam, then smaller t.
    """
    if optimizer not in ("sd", "cd"):
        raise ValueError(f"optimizer must be 'sd' or 'cd', got {optimizer!r}")
    lambda_grid = list(lambda_grid)
    t_grid = list(t_grid)
    if not lambda_grid or not t_grid:
        raise GridEmpty("lambda_grid and t_grid must be nonempty")
    X, y = _check_data(X, y, cfg)
    if min(lambda_grid) < 0:
        raise ValueError(f"lambda_grid values must be >= 0, got {min(lambda_grid)}")
    n = X.shape[0]
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise FoldTooSmall(f"n={n} samples cannot fill {folds} folds")

    perm = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xF01D])).permutation(n)
    held_out = np.zeros((n, folds), dtype=bool)
    for fi, test_rows in enumerate(np.array_split(perm, folds)):
        held_out[test_rows, fi] = True
    # column li * folds + fi fits lambda_grid[li] on the training rows of fold fi
    lams = np.repeat(np.asarray(lambda_grid, dtype=np.float64), folds)
    w_train = np.tile(~held_out / (~held_out).sum(axis=0), len(lambda_grid))
    w_test = np.tile(held_out / held_out.sum(axis=0), len(lambda_grid))

    table = []
    for ti, t in enumerate(t_grid):
        h_seed = int(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xF10, ti])
                     .generate_state(1)[0])
        op = _compile(simulate_heat_flow(g, t, cfg.B, seed=h_seed), X.shape[1])
        args = (X, y[:, None], op, cfg, lams, w_train, np.zeros((X.shape[1], lams.size)))
        if optimizer == "sd":
            betas = _sd_lockstep(*args)[0]
        else:
            seeds = [int(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, ti, li, fi])
                         .generate_state(1)[0])
                     for li in range(len(lambda_grid)) for fi in range(folds)]
            betas = _cd_lockstep(*args, seeds)[0]
        held_out_losses = _loss_from_linear(X @ betas, y[:, None], cfg.loss, w_test)[0]
        cv_losses = held_out_losses.reshape(len(lambda_grid), folds).mean(axis=1)
        table += [{"lam": lam, "t": t, "cv_loss": float(c)}
                  for lam, c in zip(lambda_grid, cv_losses)]

    best = None
    for lam in sorted(set(lambda_grid)):
        for t in sorted(set(t_grid)):
            row = next(r for r in table if r["lam"] == lam and r["t"] == t)
            if best is None or row["cv_loss"] < best["cv_loss"]:
                best = row
    return best["lam"], best["t"], table
