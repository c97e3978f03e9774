"""Synthetic random designs with latent group structure: block
equi-correlation Gaussians, Gaussian free fields on a graph, and
block-model covariances, plus signal and response generation.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CliError, NotPositiveDefinite, check_arg
from .graphs import Graph, laplacian, spectral_decompose
from .penalty import GroupStructure

# One scheme per group: ("uniform", lo, hi) or ("zero",). The default for
# four groups is signal on groups 1 and 3, silence on 2 and 4.
DEFAULT_K4_SCHEME = (("uniform", 0.5, 0.7), ("zero",),
                     ("uniform", -0.7, -0.5), ("zero",))

# The covariance families make_covariance builds.
DESIGN_KINDS = ("block_equicorr", "gff", "sbm_cov")


@dataclass(frozen=True)
class DesignSpec:
    """Declarative description of one synthetic dataset."""

    kind: str
    sizes: tuple
    n: int
    noise_sigma: float
    seed: int = 0
    rhos: tuple | None = None        # block_equicorr: one rho per group
    theta: float | None = None       # gff: mass added to the Laplacian
    a: float | None = None           # sbm_cov: within-block covariance
    b: float | None = None           # sbm_cov: between-block covariance
    beta_scheme: tuple | None = None  # None -> DEFAULT_K4_SCHEME when k == 4

    @property
    def p(self):
        return int(sum(self.sizes))

    @property
    def k(self):
        return len(self.sizes)

    def scheme(self):
        if self.beta_scheme is not None:
            return self.beta_scheme
        if self.k == 4:
            return DEFAULT_K4_SCHEME
        raise ValueError("beta_scheme must be given explicitly unless k == 4")

    def validate(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}, expected one of "
                             f"{', '.join(DESIGN_KINDS)}")
        check_arg("sizes", list(self.sizes), "[1, inf)", int)
        check_arg("n", self.n, "[1, inf)", int)
        check_arg("seed", self.seed, kind=int)
        check_arg("noise_sigma", self.noise_sigma, "[0, inf)")


def _check_rho(d, rho):
    lo = -1.0 / (d - 1) if d > 1 else -np.inf
    check_arg("rho", rho, f"({float(lo)!r}, 1)", error=NotPositiveDefinite,
              message=f"rho={rho} outside ({lo:.4g}, 1) for block size {d}")


def _block_rhos(spec: DesignSpec):
    if spec.rhos is None or len(spec.rhos) != spec.k:
        raise NotPositiveDefinite("block_equicorr needs one rho per group")
    return [(int(d), rho) for d, rho in zip(spec.sizes, spec.rhos)]


def equicorrelation(d, rho):
    """(1 - rho) I + rho 11^T of order d; positive-definite for
    rho in (-1/(d-1), 1)."""
    _check_rho(d, rho)
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def make_covariance(spec: DesignSpec, g: Graph | None = None) -> np.ndarray:
    """Population covariance of the design: block-diagonal equicorrelation,
    the GFF covariance (L + theta I)^{-1}, or the block-model I + P."""
    spec.validate()
    p = spec.p
    if spec.kind == "block_equicorr":
        sigma = np.zeros((p, p))
        start = 0
        for d, rho in _block_rhos(spec):
            sigma[start:start + d, start:start + d] = equicorrelation(d, rho)
            start += d
        return sigma
    if spec.kind == "gff":
        if g is None:
            raise ValueError("gff design needs the underlying graph")
        check_arg("theta", spec.theta, "(0, inf)", error=NotPositiveDefinite)
        if g.p != p:
            raise ValueError(f"graph has {g.p} vertices, design has p={p}")
        sigma = np.linalg.inv(laplacian(g) + spec.theta * np.eye(p))
        return (sigma + sigma.T) / 2.0
    check_arg("a", spec.a, "[0, 1]", error=NotPositiveDefinite)  # sbm_cov
    check_arg("b", spec.b, "[0, 1]", error=NotPositiveDefinite)
    if spec.b > spec.a:
        raise NotPositiveDefinite(f"need b <= a, got a={spec.a}, b={spec.b}")
    labels = np.repeat(np.arange(spec.k), spec.sizes)
    P = np.where(labels[:, None] == labels[None, :], spec.a, spec.b)
    np.fill_diagonal(P, 0.0)  # within-block diagonal of P is zero
    return np.eye(p) + P


def default_gff_mass(g: Graph, k: int) -> float:
    """The (k + 1)-th smallest Laplacian eigenvalue, the canonical mass for
    a graph with k groups; must come out positive."""
    check_arg("k", k, f"[0, {g.p - 1}]", int)  # the graph has p eigenvalues
    spec = spectral_decompose(g)
    theta = float(spec.eigenvalues[k])
    if theta <= 0:
        raise NotPositiveDefinite(
            f"eigenvalue {k} is {theta:.3g}; mass must be > 0")
    return theta


def _covariance_root(sigma):
    # Symmetric square root via eigendecomposition, for the gff and sbm_cov
    # covariances, which are not block-diagonal; block_equicorr designs use
    # the closed-form root of each block instead (_design_root).
    vals, vecs = np.linalg.eigh(sigma)
    if vals.min() < -1e-10:
        raise NotPositiveDefinite(f"covariance has eigenvalue {vals.min():.3g}")
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def draw_beta(spec: DesignSpec, rng) -> np.ndarray:
    """beta_star by the spec's schemes, one per group: U(lo, hi) entries for
    finite reals lo <= hi, or zeros. A ValueError names a malformed scheme."""
    schemes = spec.scheme()
    if len(schemes) != spec.k:
        raise ValueError(f"beta_scheme needs one scheme per group, got {len(schemes)} "
                         f"for {spec.k} groups: {schemes!r}")
    beta = np.zeros(spec.p)
    start = 0
    for size, scheme in zip(spec.sizes, schemes):
        size = int(size)
        kind = scheme[0] if isinstance(scheme, (list, tuple)) and scheme else None
        if kind not in ("uniform", "zero"):
            raise ValueError(f"unknown beta scheme {scheme!r}")
        if len(scheme) != (3 if kind == "uniform" else 1):
            raise ValueError(f"beta scheme {scheme!r} must be ('uniform', lo, hi) or ('zero',)")
        if kind == "uniform":
            check_arg(f"beta scheme {scheme!r}: lo", scheme[1])
            lo = float(scheme[1])
            check_arg(f"beta scheme {scheme!r}: hi", scheme[2], f"[{lo!r}, inf)")
            beta[start:start + size] = rng.uniform(lo, float(scheme[2]), size=size)
        start += size
    return beta


def _design_root(spec: DesignSpec, g: Graph | None = None):
    """Z -> Z R for the symmetric square root R of the design covariance.

    Checks the spec's covariance parameters before returning. A
    block_equicorr R is block-diagonal. Its block for (d, rho) is
    a I + c 11^T: the eigenvalues 1 - rho (on the complement of 1) and
    1 + (d - 1) rho (on 1) give a = sqrt(1 - rho) and
    a + c d = sqrt(1 + (d - 1) rho). A block of X then costs O(n d), and
    no p x p matrix is built.
    """
    if spec.kind != "block_equicorr":
        root = _covariance_root(make_covariance(spec, g))
        return lambda Z: Z @ root
    blocks = []
    for d, rho in _block_rhos(spec):
        _check_rho(d, rho)
        a = math.sqrt(1.0 - rho)
        blocks.append((d, a, (math.sqrt(1.0 + (d - 1) * rho) - a) / d))

    def apply(Z):
        X = np.empty_like(Z)
        start = 0
        for d, a, c in blocks:
            Zb = Z[:, start:start + d]
            X[:, start:start + d] = a * Zb + c * Zb.sum(axis=1, keepdims=True)
            start += d
        return X
    return apply


def sample_design_and_response(spec: DesignSpec, g: Graph | None = None):
    """Draw (X, y, beta_star, groups) for the spec, deterministically per seed.

    Rows of X are i.i.d. N(0, Sigma) through the symmetric square root of
    Sigma; y = X beta_star + noise_sigma * standard normal noise. Draw order
    is beta_star, then X, then noise.
    """
    spec.validate()
    root = _design_root(spec, g)
    rng = np.random.default_rng(spec.seed)
    beta_star = draw_beta(spec, rng)
    X = root(rng.standard_normal((spec.n, spec.p)))
    y = X @ beta_star + spec.noise_sigma * rng.standard_normal(spec.n)
    return X, y, beta_star, GroupStructure.from_sizes(spec.sizes)


def write_dataset_csv(path, X, y):
    """First column y, then x1..xp, with a header row. Each value is the repr
    of its float64, which round-trips exactly; rows end in CRLF, as
    csv.writer's do."""
    X = np.asarray(X)
    rows = np.column_stack([y, X]).astype(np.float64, copy=False).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(X.shape[1])]) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def read_dataset_csv(path):
    """(y, X) from a write_dataset_csv file: header row, first column y.

    One np.loadtxt call parses the numbers, quoted or not. Only when it
    refuses the file are the rows read again, to name the first with a wrong
    field count or a field float() refuses; if none is, numpy's message is
    raised. Every refusal names the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from None
    if len(header) < 2:
        raise CliError(f"{path}: need a header row with y plus at least one covariate column")
    try:
        data = np.empty((0, len(header)))
        if any(line.strip() for line in lines):  # loadtxt warns on no data
            data = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"rows have {data.shape[1]} fields, header has {len(header)}")
        if len(data) < 2:
            raise ValueError(f"need at least 2 data rows, got {len(data)}")
    except ValueError as exc:
        _name_bad_row(path, header, lines)
        raise CliError(f"{path}: {exc}") from None
    return data[:, 0], data[:, 1:]


def _name_bad_row(path, header, lines):
    """Raise a CliError naming the first data row with a wrong field count
    or a field float() refuses; return if there is none."""
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if row and len(row) != len(header):
            raise CliError(f"{path}: row {lineno} has {len(row)} "
                           f"fields, header has {len(header)}")
        try:
            list(map(float, row))
        except ValueError as exc:
            raise CliError(f"{path}: row {lineno}: {exc}") from None


def write_dataset_sidecar(path, spec: DesignSpec, beta_star, groups: GroupStructure):
    """Companion JSON recording the generating spec and the ground truth."""
    payload = {
        "spec": asdict(spec),
        "seed": spec.seed,
        "beta_star": [float(v) for v in beta_star],
        "groups": [int(v) for v in groups.assignment],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
