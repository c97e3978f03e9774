"""The heat-flow penalty, its group-lasso limit, and their subgradients.

The penalty of a coefficient vector is the sum of square roots of the
heat-smoothed squared coefficients: sum_j sqrt(|h_j|) with
h = e^{-tL}(beta (.) beta). At t = 0 it is the l1 norm; as t grows on a
graph whose components are the variable groups it converges to the group
lasso penalty sum_l sqrt(|C_l|) ||beta_{C_l}||.

Every operation accepts a dense kernel matrix (the exact oracle), a
HeatFlowMatrix (the Monte Carlo estimator K^ of its walk table) or a
SmoothingOperator compiled from either, and does all smoothing through the
operator. The penalty's gradient is beta (.) (K^T r), with the transpose:
K^ of a walk table is not symmetric, and K^T r is what makes the
subgradient that of the Monte Carlo penalty the objective reports.
"""

from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch
from .heatflow import SmoothingOperator


class GroupStructure:
    """Partition of the p variables into groups labelled 1..k."""

    def __init__(self, assignment):
        assignment = np.asarray(assignment, dtype=np.int64)
        labels = np.unique(assignment)
        k = labels.size
        if not np.array_equal(labels, np.arange(1, k + 1)):
            raise ValueError(f"labels must be contiguous 1..k, got {labels}")
        self.assignment = assignment
        self.k = int(k)
        self.p = int(assignment.size)
        self.sizes = np.array([np.count_nonzero(assignment == l)
                               for l in range(1, k + 1)], dtype=np.int64)
        self._members = [np.flatnonzero(assignment == l) for l in range(1, k + 1)]

    @classmethod
    def from_sizes(cls, sizes):
        sizes = [int(s) for s in sizes]
        if any(s < 1 for s in sizes):
            raise ValueError(f"group sizes must be >= 1, got {sizes}")
        return cls(np.repeat(np.arange(1, len(sizes) + 1), sizes))

    @classmethod
    def from_component_labels(cls, labels):
        """Relabel arbitrary 0-based component labels to contiguous 1..k."""
        labels = np.asarray(labels)
        _, inverse = np.unique(labels, return_inverse=True)
        return cls(inverse + 1)

    def members(self, label):
        """Indices of group `label` (1-based)."""
        if not 1 <= label <= self.k:
            raise ValueError(f"group label must be in 1..{self.k}, got {label}")
        return self._members[label - 1]

    def group_norms(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        return np.array([np.linalg.norm(beta[m]) for m in self._members])

    def active_groups(self, beta):
        """1-based labels of groups where beta has a nonzero entry."""
        norms = self.group_norms(beta)
        return np.flatnonzero(norms > 0) + 1

    def __repr__(self):
        return f"GroupStructure(k={self.k}, sizes={self.sizes.tolist()})"


def _check_length(beta, p):
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (p,):
        raise LengthMismatch(f"beta has shape {beta.shape}, expected ({p},)")
    return beta


def _penalty_sum(h):
    """sum_j sqrt(|h_j|) for the smoothed squared coefficients h."""
    return float(np.sqrt(np.abs(h)).sum())


def _root_slope(h, eps_den):
    """r_j = sgn(h_j) / sqrt(|h_j|), the denominator clamped at eps_den."""
    return np.sign(h) / np.maximum(np.sqrt(np.abs(h)), eps_den)


def penalty_value(beta, kernel_or_H, eps_abs: float = 0.0) -> float:
    """Heat-flow penalty sum_j sqrt(|h_j|), h = smoothed squared coefficients.

    eps_abs floors |h_j| before the square root; the default 0 evaluates the
    penalty exactly as defined.
    """
    op = SmoothingOperator.compile(kernel_or_H)
    beta = _check_length(beta, op.p)
    return _penalty_sum(np.maximum(np.abs(op.apply(beta * beta)), eps_abs))


def penalty_subgradient(beta, kernel_or_H, eps_den: float = 1e-8) -> np.ndarray:
    """Subgradient of the heat-flow penalty at beta.

    With h = K (beta (.) beta) the smoothed squared coefficients, the
    subgradient is (K^T r) (.) beta where r_j = sgn(h_j) / sqrt(|h_j|); the
    denominator is clamped at eps_den so the subgradient stays bounded where
    h vanishes.
    """
    op = SmoothingOperator.compile(kernel_or_H)
    beta = _check_length(beta, op.p)
    return op.apply_T(_root_slope(op.apply(beta * beta), eps_den)) * beta


def group_lasso_penalty(beta, groups: GroupStructure) -> float:
    """Classical group penalty sum_l sqrt(|C_l|) ||beta_{C_l}||_2."""
    beta = _check_length(beta, groups.p)
    return float(np.sum(np.sqrt(groups.sizes) * groups.group_norms(beta)))


def group_averaging_kernel(groups: GroupStructure) -> np.ndarray:
    """Projection onto within-group averages: the t -> infinity limit of
    e^{-tL} when the graph components equal the groups. Feeding it to
    penalty_value / the optimizers yields the exact group-lasso penalty."""
    K = np.zeros((groups.p, groups.p))
    for label in range(1, groups.k + 1):
        m = groups.members(label)
        K[np.ix_(m, m)] = 1.0 / m.size
    return K


class PenaltyGapBound(NamedTuple):
    """Upper bound on |penalty_t - group lasso| and its validity precondition."""

    bound: float
    tail_mass: float
    precondition_ok: bool


def penalty_gap_bound(beta, t, spectrum, groups: GroupStructure) -> PenaltyGapBound:
    """Bound p * sqrt(m) with tail mass m = (p - k) e^{-t g} ||beta^2||_2,
    g the spectral gap. Valid when m <= (1/2) min over active groups of
    ||beta_C||^2 / |C|; diagnostics only, never used by the fitting path."""
    beta = _check_length(beta, groups.p)
    p, k = groups.p, groups.k
    if p == k:
        tail = 0.0
    else:
        tail = (p - k) * np.exp(-t * spectrum.spectral_gap) * np.linalg.norm(beta * beta)
    active = groups.active_groups(beta)
    if active.size == 0:
        floor = np.inf
    else:
        norms = groups.group_norms(beta)
        floor = 0.5 * min(norms[l - 1] ** 2 / groups.sizes[l - 1] for l in active)
    return PenaltyGapBound(bound=float(p * np.sqrt(tail)), tail_mass=float(tail),
                           precondition_ok=bool(tail <= floor))
