"""Fit-quality metrics, the penalty-weight floor, a brute-force restricted
eigenvalue search, flow-time prescriptions, and spectral-bound verifiers.

Everything here is diagnostic or test-facing; nothing is needed on the
fitting path.
"""

import itertools
import json
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import DimensionTooLarge, ShapeMismatch, check_arg
from .graphs import (
    Graph,
    connected_components,
    laplacian,
    spectral_decompose,
)
from .penalty import GroupStructure

# Documented constant multiplying the flow-time prescriptions, which the
# analysis leaves as an unnamed ">> " factor.
FLOW_TIME_CONSTANT = 3.0


@dataclass(frozen=True)
class MetricsReport:
    """The four summary metrics of a fitted coefficient vector."""

    prediction_error: float
    estimation_error: float
    sensitivity: float
    specificity: float

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def csv_row(self):
        """Values in the reporting column order, CSV_HEADER's."""
        return list(astuple(self))


MetricsReport.CSV_HEADER = [f.name for f in fields(MetricsReport)]


def evaluate_fit(beta_hat, beta_star, X) -> MetricsReport:
    """In-sample prediction error (1/n)||X(beta_hat - beta_star)||^2,
    estimation error ||beta_hat - beta_star||, and support recovery rates.

    Zero detection is exact equality: thresholded vectors carry exact
    zeros. Sensitivity when beta_star has no nonzeros (and specificity when
    it has no zeros) is defined as 1, a vacuous recovery.
    """
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if beta_hat.shape != beta_star.shape or X.shape[1] != beta_hat.size:
        raise ShapeMismatch(
            f"shapes: beta_hat {beta_hat.shape}, beta_star {beta_star.shape}, "
            f"X {X.shape}")
    resid = X @ (beta_hat - beta_star)
    pred = float(resid @ resid / X.shape[0])
    est = float(np.linalg.norm(beta_hat - beta_star))
    true_nz = beta_star != 0
    found_nz = beta_hat != 0
    sens = float(np.count_nonzero(found_nz & true_nz) / true_nz.sum()) \
        if true_nz.any() else 1.0
    spec = float(np.count_nonzero(~found_nz & ~true_nz) / (~true_nz).sum()) \
        if (~true_nz).any() else 1.0
    return MetricsReport(pred, est, sens, spec)


def lambda_lower_bound(X, sigma, eta, groups: GroupStructure) -> float:
    """Recommended floor of the penalty-weight grid:
    (sigma / sqrt(n)) * max_j sqrt(||X_j^T X_j / n||_op) (1 + sqrt(4 log(1/eta) / T_j)).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != groups.p:
        raise ShapeMismatch(f"X has {X.shape[1]} columns, groups cover {groups.p}")
    check_arg("sigma", sigma, "[0, inf)")
    check_arg("eta", eta, "(0, 1)")
    n = X.shape[0]
    worst = 0.0
    for label in range(1, groups.k + 1):
        cols = X[:, groups.members(label)]
        op_norm = np.linalg.norm(cols.T @ cols / n, ord=2)
        size = groups.sizes[label - 1]
        worst = max(worst, np.sqrt(op_norm) * (1.0 + np.sqrt(4.0 * np.log(1.0 / eta) / size)))
    return float(sigma / np.sqrt(n) * worst)


def _cone_project(batch, groups, in_A, weights):
    """Scale each row's out-of-A coordinates so the group-sparse cone
    constraint holds, with equality where it was violated."""
    member_lists = [groups.members(l) for l in range(1, groups.k + 1)]
    norms = np.stack([np.linalg.norm(batch[:, m], axis=1) for m in member_lists],
                     axis=1)
    contrib = norms * weights
    lhs = contrib[:, ~in_A].sum(axis=1)
    rhs = 3.0 * contrib[:, in_A].sum(axis=1)
    scale = np.where(lhs > rhs, rhs / np.maximum(lhs, 1e-300), 1.0)
    out = batch.copy()
    mask_out = np.zeros(groups.p, dtype=bool)
    for label in np.flatnonzero(~in_A) + 1:
        mask_out[groups.members(label)] = True
    out[:, mask_out] *= scale[:, None]
    return out


def brute_force_re(M, groups: GroupStructure, s: int, n_directions: int = 100_000,
                   refine_steps: int = 300, seed: int = 0) -> float:
    """Randomized upper estimate of the restricted eigenvalue over the
    group-sparse cone.

    Minimizes sqrt(d^T M d) / ||d_A|| over nonempty group subsets A with
    |A| <= s and directions d satisfying
    sum_{j not in A} sqrt(T_j)||d^j|| <= 3 sum_{j in A} sqrt(T_j)||d^j||,
    by random cone sampling plus local perturbation refinement. The search
    minimum is always >= the true value; assertions against it must carry
    a search slack.
    """
    check_arg("s", s, "[1, inf)", int)
    check_arg("n_directions", n_directions, "[1, inf)", int)
    check_arg("refine_steps", refine_steps, "[0, inf)", int)
    check_arg("seed", seed, kind=int)
    M = np.asarray(M, dtype=np.float64)
    p, k = groups.p, groups.k
    if M.shape != (p, p):
        raise ShapeMismatch(f"M has shape {M.shape}, groups cover p={p}")
    if p > 12 or k > 5:
        raise DimensionTooLarge(f"brute force limited to p <= 12, k <= 5; "
                                f"got p={p}, k={k}")
    weights = np.sqrt(groups.sizes.astype(np.float64))
    rng = np.random.default_rng(seed)
    best = np.inf
    for size in range(1, min(s, k) + 1):
        for A in itertools.combinations(range(1, k + 1), size):
            in_A = np.zeros(k, dtype=bool)
            in_A[np.array(A) - 1] = True
            support = np.zeros(p, dtype=bool)
            for label in A:
                support[groups.members(label)] = True
            batch = rng.standard_normal((n_directions, p))
            batch = _cone_project(batch, groups, in_A, weights)
            # _cone_project scales only coordinates off the support: da > 0 almost surely
            da = np.linalg.norm(batch[:, support], axis=1)
            quad = np.einsum("ij,jk,ik->i", batch, M, batch)
            ratios = np.sqrt(np.maximum(quad, 0.0)) / da
            arg = int(np.argmin(ratios))
            cand, cand_ratio = batch[arg], float(ratios[arg])
            # local refinement: shrinking random perturbations
            scale = 0.5
            for step in range(refine_steps):
                noise = scale * rng.standard_normal(p) * np.linalg.norm(cand) / np.sqrt(p)
                prop = _cone_project((cand + noise)[None, :], groups, in_A, weights)[0]
                r = np.sqrt(max(float(prop @ M @ prop), 0.0)) / np.linalg.norm(prop[support])
                if r < cand_ratio:
                    cand, cand_ratio = prop, r
                if (step + 1) % 60 == 0:
                    scale *= 0.5
            best = min(best, cand_ratio)
    return float(best) if np.isfinite(best) else 0.0


def flow_time_prescription(g: Graph, n: int, p: int, epsilon: float | None = None):
    """Recommended flow duration and expected steps per walk.

    Without epsilon: c / gap * max(log n, log p); with epsilon:
    c / gap * (log p + log(1/epsilon)); the step estimate is d_max * t.
    """
    check_arg("n", n, "[1, inf)")  # reals: only their logs are taken
    check_arg("p", p, "[1, inf)")
    gap = spectral_decompose(g).spectral_gap
    if epsilon is None:
        t = FLOW_TIME_CONSTANT / gap * max(np.log(n), np.log(p))
    else:
        check_arg("epsilon", epsilon, "(0, 1)")
        t = FLOW_TIME_CONSTANT / gap * (np.log(p) + np.log(1.0 / epsilon))
    return float(t), float(g.max_degree * t)


@dataclass(frozen=True)
class SpectralBoundsReport:
    """Measured slack of the general Laplacian/adjacency spectral bounds.

    Each slack is bound minus measured value (nonnegative means the bound
    holds). The conductance-based lower bound is only evaluated on connected
    graphs with at least one edge and p <= 12, else None.
    """

    laplacian_degree_slack: float
    laplacian_degree_ok: bool
    adjacency_edge_slack: float
    adjacency_edge_ok: bool
    conductance: float | None
    cheeger_slack: float | None
    cheeger_ok: bool | None

    @property
    def all_ok(self):
        checks = [self.laplacian_degree_ok, self.adjacency_edge_ok]
        if self.cheeger_ok is not None:
            checks.append(self.cheeger_ok)
        return all(checks)


def graph_conductance(g: Graph) -> float:
    """Exact conductance by enumerating all bipartitions (p <= 12)."""
    if g.p > 12:
        raise DimensionTooLarge(f"conductance brute force limited to p <= 12, got {g.p}")
    # one row per side holding vertex 0; complements give the same value
    masks = np.arange(1 << (g.p - 1))
    side = np.ones((masks.size, g.p), dtype=bool)
    side[:, 1:] = masks[:, None] >> np.arange(g.p - 1) & 1
    vol_s = side @ g.degrees
    vol_c = int(g.degrees.sum()) - vol_s
    i, j = g._edge_array().T
    crossing = np.count_nonzero(side[:, i] != side[:, j], axis=1)
    split = (vol_s > 0) & (vol_c > 0)
    return float(np.min(crossing[split] / np.minimum(vol_s, vol_c)[split], initial=np.inf))


def verify_spectral_bounds(g: Graph) -> SpectralBoundsReport:
    """Check the operator-norm bounds sigma_max(L) <= 2 d_max and
    sigma_max(A) <= (sqrt(1 + 8|E|) - 1)/2, and on small connected graphs
    the conductance lower bound sigma_low(L*) >= conductance^2 / 2. L is
    positive semidefinite, so sigma_max(L) is the top eigenvalue of
    spectral_decompose, which refuses p above the dense-oracle limit."""
    sig_L = float(spectral_decompose(g).eigenvalues[-1])
    slack_deg = 2.0 * g.max_degree - sig_L
    A = g.adjacency().astype(np.float64)
    sig_A = float(np.linalg.norm(A, ord=2))
    edge_bound = (np.sqrt(1.0 + 8.0 * g.edge_count) - 1.0) / 2.0
    slack_edge = float(edge_bound - sig_A)
    tol = 1e-9

    conductance = cheeger_slack = cheeger_ok = None
    n_comp, _ = connected_components(g)
    if n_comp == 1 and g.p <= 12 and g.edge_count > 0 and g.p >= 2:
        deg = g.degrees.astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(deg)
        L_norm = inv_sqrt[:, None] * laplacian(g) * inv_sqrt[None, :]
        vals = np.linalg.eigvalsh(L_norm)
        positive = vals[vals > 1e-9]
        sig_low = float(positive[0]) if positive.size else 0.0
        conductance = graph_conductance(g)
        cheeger_slack = sig_low - 0.5 * conductance ** 2
        cheeger_ok = bool(cheeger_slack >= -tol)
    return SpectralBoundsReport(
        laplacian_degree_slack=float(slack_deg),
        laplacian_degree_ok=bool(slack_deg >= -tol),
        adjacency_edge_slack=slack_edge,
        adjacency_edge_ok=bool(slack_edge >= -tol),
        conductance=conductance,
        cheeger_slack=cheeger_slack,
        cheeger_ok=cheeger_ok,
    )
