"""Covariance construction and synthetic dataset generation."""
import csv
import io

import numpy as np
import pytest

from heatlasso.designs import (
    DesignSpec,
    _covariance_root,
    _design_root,
    default_gff_mass,
    equicorrelation,
    make_covariance,
    sample_design_and_response,
    write_dataset_csv,
    write_dataset_sidecar,
)
from heatlasso.errors import NotPositiveDefinite
from heatlasso.graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    figure_graph,
    laplacian,
    sample_block_graph,
    spectral_decompose,
)

BENCHMARK_SIZES = (16, 24, 40, 20)
BENCHMARK_RHOS = (0.6, 0.9, 0.7, 0.4)


def benchmark_spec(**overrides):
    base = dict(kind="block_equicorr", sizes=BENCHMARK_SIZES, n=200,
                noise_sigma=0.5, seed=0, rhos=BENCHMARK_RHOS)
    base.update(overrides)
    return DesignSpec(**base)


class TestMakeCovariance:
    @pytest.mark.parametrize("g, match", [
        (None, "gff design needs the underlying graph"),
        (Graph(3), "graph has 3 vertices, design has p=2"),
    ], ids=["no_graph", "graph_of_another_p"])
    def test_gff_needs_a_graph_on_its_p_vertices(self, g, match):
        spec = DesignSpec(kind="gff", sizes=(2,), n=4, noise_sigma=0.0, theta=1.0,
                          beta_scheme=(("zero",),))
        with pytest.raises(ValueError, match=match):
            make_covariance(spec, g)

    def test_gff_single_vertex(self):
        spec = DesignSpec(kind="gff", sizes=(1,), n=5, noise_sigma=0.0,
                          theta=1.0, beta_scheme=(("zero",),))
        assert make_covariance(spec, Graph(1)).tolist() == [[1.0]]

    def test_gff_edge_graph(self):
        spec = DesignSpec(kind="gff", sizes=(2,), n=5, noise_sigma=0.0,
                          theta=2.0, beta_scheme=(("zero",),))
        sigma = make_covariance(spec, Graph(2, [(0, 1)]))
        assert np.allclose(sigma, [[0.375, 0.125], [0.125, 0.375]], atol=1e-12)

    def test_gff_inverts_the_massive_laplacian(self):
        rng = np.random.default_rng(0)
        mask = rng.random((30, 30)) < 0.2
        g = Graph(30, edges=[(i, j) for i in range(30)
                             for j in range(i + 1, 30) if mask[i, j]])
        spec = DesignSpec(kind="gff", sizes=(30,), n=5, noise_sigma=0.0,
                          theta=0.7, beta_scheme=(("zero",),))
        sigma = make_covariance(spec, g)
        ident = sigma @ (laplacian(g) + 0.7 * np.eye(30))
        assert np.abs(ident - np.eye(30)).max() < 1e-8

    def test_block_equicorr_benchmark_layout(self):
        sigma = make_covariance(benchmark_spec())
        assert np.all(np.diag(sigma) == 1.0)
        start = 0
        for size, rho in zip(BENCHMARK_SIZES, BENCHMARK_RHOS):
            block = sigma[start:start + size, start:start + size]
            off = block[~np.eye(size, dtype=bool)]
            assert np.all(off == rho)
            sigma[start:start + size, start:start + size] = 0.0
            start += size
        assert np.all(sigma == 0.0)  # nothing outside the blocks

    def test_sbm_cov_layout(self):
        spec = DesignSpec(kind="sbm_cov", sizes=(3, 2), n=5, noise_sigma=0.0,
                          a=0.5, b=0.1, beta_scheme=(("zero",), ("zero",)))
        sigma = make_covariance(spec)
        assert np.all(np.diag(sigma) == 1.0)  # P has zero diagonal
        assert sigma[0, 1] == 0.5 and sigma[0, 4] == 0.1

    def test_positive_definiteness_guards(self):
        with pytest.raises(NotPositiveDefinite):
            equicorrelation(4, -0.5)  # below -1/(d-1)
        with pytest.raises(NotPositiveDefinite):
            equicorrelation(4, 1.0)
        with pytest.raises(NotPositiveDefinite):
            make_covariance(DesignSpec(kind="gff", sizes=(2,), n=4,
                                       noise_sigma=0.0, theta=0.0,
                                       beta_scheme=(("zero",),)),
                            Graph(2, [(0, 1)]))
        with pytest.raises(NotPositiveDefinite):
            make_covariance(DesignSpec(kind="sbm_cov", sizes=(2, 2), n=4,
                                       noise_sigma=0.0, a=0.2, b=0.5,
                                       beta_scheme=(("zero",), ("zero",))))

    def test_all_kinds_positive_definite(self):
        g = sample_block_graph([5, 5], 0.6, 0.1, seed=1)
        specs = [
            benchmark_spec(),
            DesignSpec(kind="gff", sizes=(10,), n=5, noise_sigma=0.0,
                       theta=0.5, beta_scheme=(("zero",),)),
            DesignSpec(kind="sbm_cov", sizes=(5, 5), n=5, noise_sigma=0.0,
                       a=0.5, b=0.01, beta_scheme=(("zero",), ("zero",))),
        ]
        for spec in specs:
            sigma = make_covariance(spec, g if spec.kind == "gff" else None)
            assert np.linalg.eigvalsh(sigma).min() > -1e-10
            assert np.abs(sigma - sigma.T).max() == 0.0


class TestDefaultMass:
    def test_figure_graph(self):
        assert default_gff_mass(figure_graph(), 2) == pytest.approx(2.0, abs=1e-9)

    def test_two_cliques(self):
        g = disjoint_union(complete_graph(5), complete_graph(5))
        assert default_gff_mass(g, 2) == pytest.approx(5.0, abs=1e-8)

    def test_zero_mass_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            default_gff_mass(Graph(1), 0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            default_gff_mass(Graph(2, [(0, 1)]), 2)


class TestSampling:
    def test_noiseless_response_is_exact(self):
        X, y, beta, _ = sample_design_and_response(benchmark_spec(noise_sigma=0.0))
        assert np.array_equal(y, X @ beta)

    def test_sample_covariance_converges(self):
        spec = DesignSpec(kind="block_equicorr", sizes=(6,), n=50_000,
                          noise_sigma=0.0, seed=3, rhos=(0.5,),
                          beta_scheme=(("zero",),))
        X, _, _, _ = sample_design_and_response(spec)
        emp = X.T @ X / spec.n
        assert np.abs(emp - make_covariance(spec)).max() < 0.02

    def test_default_beta_scheme_support(self):
        X, y, beta, groups = sample_design_and_response(benchmark_spec(seed=9))
        assert groups.sizes.tolist() == list(BENCHMARK_SIZES)
        c1 = beta[:16]
        c2 = beta[16:40]
        c3 = beta[40:80]
        c4 = beta[80:]
        assert np.all((c1 >= 0.5) & (c1 <= 0.7))
        assert np.all(c2 == 0.0)
        assert np.all((c3 >= -0.7) & (c3 <= -0.5))
        assert np.all(c4 == 0.0)

    def test_beta_scheme_required_unless_four_groups(self):
        spec = DesignSpec(kind="block_equicorr", sizes=(3, 3), n=8,
                          noise_sigma=0.0, rhos=(0.2, 0.2))
        with pytest.raises(ValueError):
            sample_design_and_response(spec)

    def test_deterministic_per_seed(self):
        a = sample_design_and_response(benchmark_spec(seed=5))
        b = sample_design_and_response(benchmark_spec(seed=5))
        c = sample_design_and_response(benchmark_spec(seed=6))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_gff_spectral_bracket(self):
        g = sample_block_graph([8, 12], 0.7, 0.05, seed=4)
        theta = default_gff_mass(g, 2)
        spec = DesignSpec(kind="gff", sizes=(20,), n=5, noise_sigma=0.0,
                          theta=theta, beta_scheme=(("zero",),))
        sigma = make_covariance(spec, g)
        vals = np.linalg.eigvalsh(sigma)
        lap_spec = spectral_decompose(g)
        sig_max_l = lap_spec.eigenvalues.max()
        assert vals.min() == pytest.approx(1.0 / (sig_max_l + theta), abs=1e-8)
        assert vals.max() == pytest.approx(1.0 / theta, abs=1e-8)

    def test_sbm_cov_spectral_bounds(self):
        # With the zero-diagonal P, any within-block vector orthogonal to the
        # block indicator is an eigenvector at exactly 1 - a, so the spectrum
        # is bounded below by 1 - a (not 1 - a + b). The upper bound
        # (1 - a + b) + (a - b) max|C_i| + b p does hold.
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            sizes = tuple(int(s) for s in rng.integers(2, 16, size=k))
            b = float(rng.uniform(0.0, 0.3))
            a = float(rng.uniform(b, 1.0))
            spec = DesignSpec(kind="sbm_cov", sizes=sizes, n=4, noise_sigma=0.0,
                              a=a, b=b, beta_scheme=tuple(("zero",) for _ in sizes))
            vals = np.linalg.eigvalsh(make_covariance(spec))
            assert vals.min() == pytest.approx(1 - a, abs=1e-10)
            p = sum(sizes)
            assert vals.max() <= (1 - a + b) + (a - b) * max(sizes) + b * p + 1e-10


class TestClosedFormRoot:
    """The per-block root a I + c 11^T against the eigh root of the dense
    covariance, applied to the same Z."""

    @pytest.mark.parametrize("sizes, rhos", [
        ((1, 7, 3, 12), (0.3, 0.5, -0.1, 0.8)),   # mixed sizes, d = 1
        ((10,), (0.999,)),
        ((5, 9), (-0.2499, -0.1249)),            # near -1/(d - 1)
        (BENCHMARK_SIZES, BENCHMARK_RHOS),
    ])
    def test_matches_eigh_root(self, sizes, rhos):
        spec = benchmark_spec(sizes=sizes, rhos=rhos,
                              beta_scheme=tuple(("zero",) for _ in sizes))
        Z = np.random.default_rng(11).standard_normal((50, spec.p))
        X = _design_root(spec)(Z)
        ref = Z @ _covariance_root(make_covariance(spec))
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("rhos", [(0.6, 0.9, 0.7, 1.0),
                                      (0.6, -0.05, 0.7, 0.4),  # d = 24
                                      (0.6, 0.9, np.nan, 0.4)])
    def test_out_of_range_rho_rejected(self, rhos):
        with pytest.raises(NotPositiveDefinite, match="rho=.* outside"):
            sample_design_and_response(benchmark_spec(rhos=rhos))

    def test_one_rho_per_group(self):
        with pytest.raises(NotPositiveDefinite, match="one rho per group"):
            sample_design_and_response(benchmark_spec(rhos=(0.5, 0.5)))


class TestSpecValidation:
    @pytest.mark.parametrize("field, value", [
        ("sizes", (16, 4.5, 40, 20)),
        ("sizes", (16, -2, 40, 20)),
        ("sizes", (16, 0, 40, 20)),
        ("sizes", ()),
        ("n", 0),
        ("n", 2.5),
        ("noise_sigma", np.nan),
        ("noise_sigma", -0.1),
        ("noise_sigma", np.inf),
        ("sizes", (16, True, 40, 20)),
        ("n", True),
        ("seed", 5.7),
        ("seed", 5.0),
        ("seed", True),
        # a bool is no number, so True is not read as 1
        ("noise_sigma", True),
        ("noise_sigma", np.True_),
        ("noise_sigma", "0.5"),
        ("noise_sigma", None),
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            sample_design_and_response(benchmark_spec(**{field: value}))

    # each scheme is the first of four; the message names it and the fault
    @pytest.mark.parametrize("scheme, fault", [
        (("uniform", "0.5", True), "lo must be finite, got '0.5'"),
        (("uniform", 0.5), "must be ('uniform', lo, hi) or ('zero',)"),
        (("uniform", 0.7, 0.5), "hi must be finite and >= 0.7, got 0.5"),
        (("uniform", np.nan, 0.7), "lo must be finite, got nan"),
        (("uniform", 0.5, np.inf), "hi must be finite and >= 0.5, got inf"),
        (("uniform", 0.5, 0.7, 0.9), "must be ('uniform', lo, hi) or ('zero',)"),
        (("zero", 1, 2), "must be ('uniform', lo, hi) or ('zero',)"),
        (("gauss", 0.5), "unknown beta scheme"),
        ((), "unknown beta scheme"),
    ])
    def test_malformed_beta_scheme_is_refused(self, scheme, fault):
        schemes = (scheme, ("zero",), ("uniform", -0.7, -0.5), ("zero",))
        with pytest.raises(ValueError) as info:
            sample_design_and_response(benchmark_spec(beta_scheme=schemes))
        assert repr(scheme) in str(info.value) and fault in str(info.value)

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_one_beta_scheme_per_group(self, count):
        # zip would give the groups past the last scheme zero signal
        schemes = (("uniform", 0.5, 0.7),) * count
        with pytest.raises(ValueError, match=f"one scheme per group, got {count} for 4 groups"):
            sample_design_and_response(benchmark_spec(beta_scheme=schemes))

    def test_equal_bounds_and_integer_bounds_pass(self):
        schemes = (("uniform", 0.5, 0.5), ("zero",), ("uniform", -1, np.float32(0.5)), ("zero",))
        beta = sample_design_and_response(benchmark_spec(beta_scheme=schemes))[2]
        assert np.all(beta[:16] == 0.5) and np.all((beta[40:80] >= -1) & (beta[40:80] < 0.5))

    @pytest.mark.parametrize("sigma", [np.float32(0.5), np.int64(1)])
    def test_numpy_noise_sigma_passes(self, sigma):
        y = sample_design_and_response(benchmark_spec(noise_sigma=sigma))[1]
        assert np.isfinite(y).all()


class TestExport:
    def test_csv_bytes_match_csv_writer(self, tmp_path):
        X = np.random.default_rng(2).standard_normal((4, 3))
        X[0, 0], X[1, 1], X[2, 2], X[3, 0] = -0.0, 5e-324, 1e16, np.nan
        y = np.array([1.0, -0.0, 0.1, 5e-324])
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["y", "x1", "x2", "x3"])
        for yi, row in zip(y, X):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in row])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, X, y)
        assert path.read_bytes() == ref.getvalue().encode("utf-8")

    def test_csv_and_sidecar(self, tmp_path):
        spec = benchmark_spec(n=12, seed=8)
        X, y, beta, groups = sample_design_and_response(spec)
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, X, y)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("y,x1,")
        assert len(lines) == 13
        back = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        assert np.array_equal(back[:, 0], y)
        assert np.array_equal(back[:, 1:], X)

        import json
        side_path = tmp_path / "data.json"
        write_dataset_sidecar(side_path, spec, beta, groups)
        side = json.loads(side_path.read_text())
        assert side["spec"]["kind"] == "block_equicorr"
        assert side["seed"] == 8
        assert np.array_equal(side["beta_star"], beta)
        assert side["groups"] == groups.assignment.tolist()
