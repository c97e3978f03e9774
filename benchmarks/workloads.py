"""The three benchmark workloads.

Each workload makes its inputs from the workload seed in `generate()` (the
set-up), runs one unit of work per `unit(i)` call through the public API,
and checks its outputs in `finish()`. `kind(i)` tells cold units (which
build a walk table to store) from warm ones (which reuse it); units that
store nothing are of kind "solve".

- block_cv: the paper's block benchmark (acceptance criterion 05) through
  `experiments.run_experiment`, one repeat per unit.
- wide_graph: p = 2000; graph estimation and walk simulation dominate.
- refit_stored: `heatlasso fit` in-process on a logistic dataset; the cold
  call simulates and stores the walk table, warm calls load it.
"""

import contextlib
import io
import os

import numpy as np

import heatlasso as hl
from heatlasso import cli, experiments
from heatlasso.designs import write_dataset_csv

BLOCK_SIZES = (16, 24, 40, 20)
BLOCK_RHOS = (0.6, 0.9, 0.7, 0.4)


class UnitFailed(Exception):
    """A unit ran but its output is unusable (non-zero exit, non-finite)."""


def derived_seed(*parts):
    return int(np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])
               .generate_state(1)[0])


def _digest(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes()
                    for a in arrays)


def read_fit(path):
    """Parse a written fit, requiring an exact JSON round trip and finite values."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fit = hl.FitResult.from_json(text)
    if fit.to_json() != text:
        raise UnitFailed(f"{path} does not round-trip through FitResult.from_json")
    if not (np.isfinite(fit.beta_hat).all() and np.isfinite(fit.objective_trace).all()
            and fit.objective_trace):
        raise UnitFailed(f"{path}: non-finite beta or objective")
    return fit


def _quality(report, fit):
    return np.array([report.prediction_error, report.sensitivity,
                     report.specificity, fit.objective_trace[-1]])


def table_roundtrip_failures(H, path):
    """load_heatflow(save_heatflow(H)) must return H bit for bit."""
    hl.save_heatflow(H, path)
    back = hl.load_heatflow(path)
    if (back.terminals.dtype != H.terminals.dtype
            or not np.array_equal(back.terminals, H.terminals)
            or (back.t, back.B, back.seed) != (H.t, H.B, H.seed)):
        return [f"{path}: stored walk table differs from the saved one"]
    return []


class Workload:
    name = ""
    min_units = 2

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.out_dir = out_dir
        self.tiny = tiny
        self.design_seed = derived_seed(seed, 0xBE7C)
        self.warnings = []
        os.makedirs(out_dir, exist_ok=True)

    def kind(self, i):
        return "solve"

    def seeds(self):
        return {"workload": self.seed, "design": self.design_seed}

    def quality(self, outcomes):
        """Mean (pred_error, sensitivity, specificity, objective) over outcomes."""
        return np.mean([o["quality"] for o in outcomes], axis=0)

    def finish(self, outcomes):
        """Output checks over the whole run; returns failure messages."""
        failures = []
        if len({o["digest"] for o in outcomes}) > 1:
            failures.append("units on identical inputs gave different coefficients")
        return failures


class BlockCV(Workload):
    """Criterion 05's config, one repeat per unit, design seed from the run seed."""

    name = "block_cv"

    def generate(self):
        if self.tiny:
            sizes, n, cv = [4, 6, 10, 5], 60, {"lambda_grid": [0.03, 0.1],
                                                 "t_grid": [1], "folds": 2,
                                                 "max_iters": 20}
            sd_iters, cd_iters, q = 30, 40, 5
        else:
            sizes, n, cv = list(BLOCK_SIZES), 200, {
                "lambda_grid": [0.01, 0.03, 0.1, 0.3], "t_grid": [0.5, 1, 2],
                "folds": 5, "max_iters": 400}
            sd_iters, cd_iters, q = 1200, 4000, 25
        self.config = {
            "design": {"kind": "block_equicorr", "sizes": sizes, "n": n,
                       "noise_sigma": 0.5, "seed": self.design_seed,
                       "rhos": list(BLOCK_RHOS)},
            "graph": "estimate",
            "fit": {"optimizer": "both", "B": 100, "eps_tol": 1e-6, "cv": cv,
                    "sd": {"alpha0": 0.05, "rate_protocol": "inv_sqrt",
                           "max_iters": sd_iters},
                    "cd": {"alpha0": 0.012, "rate_protocol": "constant",
                           "max_iters": cd_iters, "block_size": q}},
            "repeats": 1,
        }
        # The design run_experiment samples for its one repeat.
        spec, design_graph = experiments.resolve_design(
            self.config["design"], experiments._derived_seed(self.design_seed, 0xD5, 0))
        self.X = hl.sample_design_and_response(spec, design_graph)[0]

    def unit(self, i):
        summary = experiments.run_experiment(self.config, self.out_dir)
        fits = {name: read_fit(os.path.join(self.out_dir, f"fit_000_{name}.json"))
                for name in ("sd", "cd")}
        per_opt = {name: _quality(summary[name], fits[name]) for name in fits}
        return {"quality": np.mean(list(per_opt.values()), axis=0),
                "per_optimizer": per_opt,
                "digest": _digest(fits["sd"].beta_hat, fits["cd"].beta_hat)}

    def finish(self, outcomes):
        failures = super().finish(outcomes)
        if not self.tiny:
            # Criterion 05's gates, per optimizer, on the mean over the run.
            # Its pred <= 0.10 gate bounds a mean over 10 designs, and a run
            # holds one design, so a miss there is a warning (single designs
            # reach 0.103 with CD); sens and spec hold on every design.
            for name in ("sd", "cd"):
                pred, sens, spec, _ = np.mean(
                    [o["per_optimizer"][name] for o in outcomes], axis=0)
                if not (sens >= 1.0 - 1e-12 and spec >= 0.90):
                    failures.append(f"block_cv {name} misses criterion 05: "
                                    f"sens={sens:.3f} spec={spec:.3f}")
                if pred > 0.10:
                    self.warnings.append(f"block_cv {name}: pred={pred:.4f} on this "
                                         f"design exceeds criterion 05's 10-design "
                                         f"mean bound 0.10")
        _, X = cli.read_dataset_csv(os.path.join(self.out_dir, "dataset_000.csv"))
        if not np.allclose(X, self.X, rtol=1e-12, atol=0):
            failures.append("run_experiment's dataset is not the design its config defines")
        H = hl.simulate_heat_flow(experiments._estimated_graph(self.X, 0.75), 1.0, 100,
                                  seed=self.design_seed)
        return failures + table_roundtrip_failures(
            H, os.path.join(self.out_dir, "roundtrip.hfm"))


class WideGraph(Workload):
    """p = 2000: estimate a dense graph, simulate one table, a short SD fit."""

    name = "wide_graph"

    def generate(self):
        scale, self.B, iters = (1, 20, 20) if self.tiny else (20, 100, 100)
        spec = hl.DesignSpec(kind="block_equicorr",
                             sizes=tuple(scale * s for s in BLOCK_SIZES), n=200,
                             noise_sigma=0.5, seed=self.design_seed, rhos=BLOCK_RHOS)
        self.X, self.y, self.beta_star, _ = hl.sample_design_and_response(spec)
        self.walk_seed = derived_seed(self.seed, 0x3A1C)
        # alpha0 = 1.5e-3 is stable on this design; 0.05 diverges
        self.cfg = hl.FitConfig(lam=0.03, t=0.1, B=self.B, alpha0=1.5e-3,
                                rate_protocol="inv_sqrt", max_iters=iters,
                                eps_tol=1e-12, seed=derived_seed(self.seed, 0x5D))
        self.H = None

    def seeds(self):
        return {**super().seeds(), "walks": self.walk_seed, "fit": self.cfg.seed}

    def unit(self, i):
        g = experiments._estimated_graph(self.X, 0.75)
        H = hl.simulate_heat_flow(g, self.cfg.t, self.B, seed=self.walk_seed)
        fit = hl.subgradient_descent(self.X, self.y, H, self.cfg)
        if not (np.isfinite(fit.beta_hat).all() and np.isfinite(fit.objective_trace).all()):
            raise UnitFailed("non-finite beta or objective")
        self.H = H
        report = hl.evaluate_fit(fit.beta_thresholded, self.beta_star, self.X)
        return {"quality": _quality(report, fit), "digest": _digest(fit.beta_hat)}

    def finish(self, outcomes):
        return super().finish(outcomes) + table_roundtrip_failures(
            self.H, os.path.join(self.out_dir, "roundtrip.hfm"))


class RefitStored(Workload):
    """`heatlasso fit --flow`: every fourth call is cold (the table is deleted,
    so the call simulates and stores it again) and the others are warm calls
    that load it, along a lambda path. Cold calls are spread over the run like
    warm ones, so both medians see the same machine load. With four lambdas,
    the traced run (which traces the even units) sees each lambda both ways."""

    name = "refit_stored"
    COLD_EVERY = 4
    LAMBDAS = (0.02, 0.01, 0.005, 0.0025)
    min_units = 6  # a cold call and every lambda warm
    T, B = 1.0, 100

    def generate(self):
        scale, n, iters = (1, 80, 50) if self.tiny else (5, 400, 1500)
        spec = hl.DesignSpec(kind="block_equicorr",
                             sizes=tuple(scale * s for s in BLOCK_SIZES), n=n,
                             noise_sigma=0.5, seed=self.design_seed, rhos=BLOCK_RHOS)
        self.X, y, self.beta_star, _ = hl.sample_design_and_response(spec)
        self.data_path = os.path.join(self.out_dir, "data.csv")
        write_dataset_csv(self.data_path, self.X, (y > 0).astype(np.float64))
        self.flow_path = os.path.join(self.out_dir, "walks.hfm")
        self.fit_seed = derived_seed(self.seed, 0xC11)
        self.argv = ["fit", self.data_path, "--estimate-graph", "--loss", "logistic",
                     "--optimizer", "cd", "--block-size", "10", "--t", repr(self.T),
                     "--walks", str(self.B), "--alpha0", "0.5", "--rate", "constant",
                     "--max-iters", str(iters), "--eps-tol", "1e-12",
                     "--seed", str(self.fit_seed), "--flow", self.flow_path,
                     "--out", self.out_dir]

    def seeds(self):
        return {**super().seeds(), "fit": self.fit_seed}

    def kind(self, i):
        return "cold" if i % self.COLD_EVERY == 0 else "warm"

    def lam(self, i):
        if self.kind(i) == "cold":
            return self.LAMBDAS[0]
        warm = i - 1 - i // self.COLD_EVERY  # warm calls before this one
        return self.LAMBDAS[warm % len(self.LAMBDAS)]

    def unit(self, i):
        if self.kind(i) == "cold" and os.path.exists(self.flow_path):
            os.remove(self.flow_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv + ["--lambda", repr(self.lam(i))])
        if code != 0:
            raise UnitFailed(f"heatlasso fit exited {code}: {err.getvalue().strip()}")
        fit = read_fit(os.path.join(self.out_dir, "fit_cd.json"))
        report = hl.evaluate_fit(fit.beta_thresholded, self.beta_star, self.X)
        return {"quality": _quality(report, fit), "digest": _digest(fit.beta_hat),
                "lam": self.lam(i)}

    def quality(self, outcomes):
        first = {}
        for o in outcomes:
            first.setdefault(o["lam"], o["quality"])
        return np.mean(list(first.values()), axis=0)

    def finish(self, outcomes):
        failures = []
        for lam in self.LAMBDAS:
            if len({o["digest"] for o in outcomes if o["lam"] == lam}) > 1:
                failures.append(f"fits at lambda={lam} differ between cold "
                                f"and warm calls on the stored table")
        g = experiments._estimated_graph(self.X, 0.75)
        H = hl.simulate_heat_flow(g, self.T, self.B,
                                  seed=experiments._derived_seed(self.fit_seed, 0x4EA7))
        stored = hl.load_heatflow(self.flow_path)
        if not np.array_equal(stored.terminals, H.terminals):
            failures.append("the walk table stored by the cold call is not the "
                            "table simulated for this (graph, t, B, seed)")
        return failures + table_roundtrip_failures(
            H, os.path.join(self.out_dir, "roundtrip.hfm"))


WORKLOADS = {w.name: w for w in (BlockCV, WideGraph, RefitStored)}
