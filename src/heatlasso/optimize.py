"""Subgradient descent and stochastic block coordinate descent for the
heat-flow penalized loss, the 2-means hard-thresholding step, and
cross-validation over the (penalty weight, flow time) grid.

Both optimizers accept a HeatFlowMatrix (the production path: one
simulation reused across every iteration), a dense kernel matrix (the exact
oracle used by tests) or a SmoothingOperator, and compile it once per fit
into the operator K that does all their smoothing. Inputs are checked once
per fit. Subgradient descent smooths once forward (K (beta (.) beta), which
gives the reported penalty and the next step's scaling) and once transposed
(K^T r) per iteration, and carries z = X beta and the loss derivative from
one iteration's objective to the next step. Block coordinate descent keeps
h = K (beta (.) beta) current with h += K[:, S] (beta_S,new^2 - beta_S,old^2)
and reads the penalty off h, so an iteration costs O((n + p) q) on a dense
operator.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FoldTooSmall,
    GridEmpty,
    LabelDomain,
    LengthMismatch,
    NonFiniteObjective,
    ShapeMismatch,
)
from .heatflow import SmoothingOperator, simulate_heat_flow
from .penalty import _penalty_sum, _root_slope

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
    value, dz = _loss_from_linear(X @ beta, y, kind)
    return value, X.T @ dz


def _loss_from_linear(z, y, kind):
    """(loss value, dloss/dz) for the linear predictor z = X beta."""
    n = y.size
    if kind == "squared_error":
        r = z - y
        return float(r @ r / (2 * n)), r / n
    if kind == "logistic":
        # log(1 + e^z) - y z, exact for any z; sigmoid from e^{-|z|} <= 1
        e = np.exp(-np.abs(z))
        prob = np.where(z >= 0, 1.0, e) / (1.0 + e)
        return float(np.mean(np.logaddexp(0.0, z) - y * z)), (prob - y) / n
    raise ValueError(f"unknown loss {kind!r}")


def _check_labels(y):
    if not np.isin(y, (0.0, 1.0)).all():
        raise LabelDomain("logistic labels must lie in {0, 1}")


def _require_finite(value, what):
    if not np.isfinite(value):
        raise NonFiniteObjective(f"{what} is not finite; reduce the learning rate")


def _fit_inputs(X, y, semigroup, cfg, beta0):
    """Check a fit's inputs once; returns (X, y, starting beta, operator)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeMismatch(f"inconsistent shapes: X {X.shape}, y {y.shape}")
    p = X.shape[1]
    cfg.validate(p)
    if cfg.loss == "logistic":
        _check_labels(y)
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, np.float64).copy()
    if beta.shape != (p,):
        raise ShapeMismatch(f"beta0 has shape {beta.shape}, expected ({p},)")
    op = SmoothingOperator.compile(semigroup)
    if op.p != p:
        raise LengthMismatch(f"smoothing operator acts on {op.p} variables, "
                             f"X has {p} columns")
    return X, y, beta, op


def _result(beta, trace, converged, op):
    return FitResult(
        beta_hat=beta,
        beta_thresholded=threshold_kmeans(beta),
        iterations=len(trace),
        objective_trace=trace,
        converged=converged,
        total_walk_steps=op.walk_steps,
    )


def subgradient_descent(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Full subgradient descent on the penalized loss.

    beta0 is the starting point (default: the zero vector).
    """
    X, y, beta, op = _fit_inputs(X, y, semigroup, cfg, beta0)
    loss_val, dz = _loss_from_linear(X @ beta, y, cfg.loss)
    _require_finite(loss_val, "loss")
    h = op.apply(beta * beta) if cfg.lam else None
    trace = []
    converged = False
    for i in range(1, cfg.max_iters + 1):
        grad = X.T @ dz
        if cfg.lam:
            grad += cfg.lam * op.apply_T(_root_slope(h, cfg.eps_den)) * beta
        beta_new = beta - cfg.learning_rate(i) * grad
        obj, dz = _loss_from_linear(X @ beta_new, y, cfg.loss)
        if cfg.lam:
            h = op.apply(beta_new * beta_new)
            obj += cfg.lam * _penalty_sum(h)
        _require_finite(obj, "objective")
        trace.append(obj)
        reldiff = np.linalg.norm(beta_new - beta) / max(np.linalg.norm(beta), 1e-12)
        beta = beta_new
        if reldiff <= cfg.eps_tol:
            converged = True
            break
    return _result(beta, trace, converged, op)


def block_cd(X, y, semigroup, cfg: FitConfig, beta0=None) -> FitResult:
    """Stochastic block coordinate descent: each iteration updates a uniform
    random block of block_size coordinates using the restricted subgradient."""
    X, y, beta, op = _fit_inputs(X, y, semigroup, cfg, beta0)
    p = X.shape[1]
    q = p if cfg.block_size is None else cfg.block_size
    XT = np.ascontiguousarray(X.T)  # a block's columns of X are rows of XT
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xB10C]))
    z = X @ beta  # kept equal to X @ beta by incremental updates
    loss_val, dz = _loss_from_linear(z, y, cfg.loss)
    _require_finite(loss_val, "loss")
    h = op.apply(beta * beta) if cfg.lam else None  # kept equal to K (beta^2)
    trace = []
    converged = False
    for i in range(1, cfg.max_iters + 1):
        S = np.sort(rng.choice(p, size=q, replace=False))
        XT_S = XT[S]
        old_S = beta[S]
        grad_S = XT_S @ dz
        if cfg.lam:
            grad_S += cfg.lam * op.apply_T(_root_slope(h, cfg.eps_den), S) * old_S
        new_S = old_S - cfg.learning_rate(i) * grad_S
        beta[S] = new_S
        z += XT_S.T @ (new_S - old_S)
        obj, dz = _loss_from_linear(z, y, cfg.loss)
        if cfg.lam:
            h += op.apply(new_S * new_S - old_S * old_S, S)
            obj += cfg.lam * _penalty_sum(h)
        _require_finite(obj, "objective")
        trace.append(obj)
        reldiff = np.linalg.norm(new_S - old_S) / max(np.linalg.norm(old_S), 1e-12)
        if reldiff <= cfg.eps_tol:
            converged = True
            break
    return _result(beta, trace, converged, op)


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
    across all folds and lam values. Returns (best_lam, best_t, table) where
    table rows are {"lam", "t", "cv_loss"}; ties break toward smaller lam,
    then smaller t.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lambda_grid = list(lambda_grid)
    t_grid = list(t_grid)
    if not lambda_grid or not t_grid:
        raise GridEmpty("lambda_grid and t_grid must be nonempty")
    n = X.shape[0]
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise FoldTooSmall(f"n={n} samples cannot fill {folds} folds")
    fit = {"sd": subgradient_descent, "cd": block_cd}[optimizer]

    flows = {}
    for ti, t in enumerate(t_grid):
        h_seed = int(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xF10, ti])
                     .generate_state(1)[0])
        flows[ti] = SmoothingOperator.compile(
            simulate_heat_flow(g, t, cfg.B, seed=h_seed))

    perm = np.random.default_rng(
        np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0xF01D])).permutation(n)
    fold_idx = np.array_split(perm, folds)

    table = []
    for ti, t in enumerate(t_grid):
        H = flows[ti]
        for li, lam in enumerate(lambda_grid):
            held_out = []
            for fi, test_rows in enumerate(fold_idx):
                train = np.setdiff1d(perm, test_rows)
                sub_seed = int(np.random.SeedSequence(
                    [cfg.seed & 0xFFFFFFFF, ti, li, fi]).generate_state(1)[0])
                cfg_f = replace(cfg, lam=lam, t=t, seed=sub_seed)
                res = fit(X[train], y[train], H, cfg_f)
                held_out.append(loss_and_grad(res.beta_hat, X[test_rows],
                                              y[test_rows], cfg.loss)[0])
            table.append({"lam": lam, "t": t, "cv_loss": float(np.mean(held_out))})

    best = None
    for lam in sorted(set(lambda_grid)):
        for t in sorted(set(t_grid)):
            row = next(r for r in table if r["lam"] == lam and r["t"] == t)
            if best is None or row["cv_loss"] < best["cv_loss"]:
                best = row
    return best["lam"], best["t"], table
