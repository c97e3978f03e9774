"""Batch experiment runner: designs -> heat flow -> optimization -> metrics.

A JSON config drives everything. Sections:

  design   DesignSpec fields; for gff designs a "graph" subsection gives
           either {"path": ...} or SBM parameters ("sizes", "a", "b",
           "self_loops") to sample per repeat, and "theta" may be the
           string "auto" for the canonical mass.
  fit      FitConfig fields plus "optimizer" ("sd", "cd" or "both"), an
           optional "cv" block {"lambda_grid", "t_grid", "folds",
           "max_iters"} (without it the fixed lam/t of the config are used)
           and "sd" / "cd" subsections of per-optimizer overrides.
  graph    the graph driving the penalty: "from-design", "estimate"
           (optionally {"estimate": alpha}), or {"path": ...}.
  repeats  number of independent repetitions (derived seeds).
  output   output directory (CLI --out overrides).

Every section refuses a key that nothing reads, and the counts (the
design's sizes and n, repeats, and the fit's B, max_iters, block_size and
cv folds) must be integers: a ValueError names the key before any walk is
simulated or any file written.

Every run writes per-repeat dataset CSVs and fit JSONs, a metrics CSV with
one row per (repeat, optimizer) plus aggregate mean rows, and a manifest
capturing the resolved config, its hash, and all derived seeds. Re-running
a manifest's config reproduces the metrics CSV byte for byte.
"""

import csv
import hashlib
import json
import os
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .designs import (
    DesignSpec,
    default_gff_mass,
    sample_design_and_response,
    write_dataset_csv,
    write_dataset_sidecar,
)
from .diagnostics import MetricsReport, evaluate_fit
from .graphs import (
    Graph,
    estimate_graph_from_data,
    group_clique_graph,
    read_graph,
    sample_block_graph,
)
from .heatflow import _is_integer, simulate_heat_flow
from .optimize import FitConfig, _derived_seed, block_cd, cross_validate, subgradient_descent

_OPTIMIZERS = {"sd": subgradient_descent, "cd": block_cd}
_OPTIMIZER_TAG = {"sd": 1, "cd": 2}
# The keys a fit section sets FitConfig fields by (the seed is derived), and
# those of its cv block.
_FIT_KEYS = tuple(f.name for f in fields(FitConfig) if f.name != "seed")
_CV_KEYS = ("lambda_grid", "t_grid", "folds", "max_iters")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def design_spec_from_config(section: dict, seed: int) -> DesignSpec:
    theta = section.get("theta")
    return DesignSpec(
        kind=section["kind"],
        sizes=tuple(section["sizes"]),
        n=section["n"],
        noise_sigma=float(section.get("noise_sigma", 0.0)),
        seed=seed,
        rhos=tuple(section["rhos"]) if "rhos" in section else None,
        theta=None if theta in (None, "auto") else float(theta),
        a=float(section["a"]) if "a" in section else None,
        b=float(section["b"]) if "b" in section else None,
        beta_scheme=tuple(tuple(s) for s in section["beta_scheme"])
        if "beta_scheme" in section else None,
    )


def _refuse_unknown_keys(kind, checks):
    """Raise ValueError naming every key that no reader takes, over the
    (where, section, keys) checks whose section is a dict."""
    unread = [f"{where}{key}" for where, sub, keys in checks if isinstance(sub, dict)
              for key in sub if key not in keys]
    if unread:
        raise ValueError(f"unknown {kind} config keys: {', '.join(unread)}")


def _check_fit_section(section: dict):
    """Refuse every key of a fit section, its "sd" / "cd" subsections and
    their cv blocks that no fit reads."""
    checks = [("fit.", section, _FIT_KEYS + ("optimizer", "cv", "sd", "cd")),
              ("fit.sd.", section.get("sd"), _FIT_KEYS + ("cv",)),
              ("fit.cd.", section.get("cd"), _FIT_KEYS + ("cv",))]
    checks += [(f"{where}cv.", sub.get("cv"), _CV_KEYS)
               for where, sub, _ in checks if isinstance(sub, dict)]
    _refuse_unknown_keys("fit", checks)


def _check_experiment(config: dict):
    """Refuse every key of a config, its design section, the design's graph
    subsection and a graph dict that nothing reads."""
    design = config.get("design", {})
    _refuse_unknown_keys("experiment", [
        ("", config, ("design", "graph", "fit", "repeats", "output")),
        ("design.", design, [f.name for f in fields(DesignSpec)] + ["graph"]),
        ("design.graph.", design.get("graph"), ("path", "sizes", "a", "b", "self_loops")),
        ("graph.", config.get("graph"), ("path", "estimate"))])


def _design_graph(section: dict, spec: DesignSpec, repeat_seed: int):
    """The graph underlying the design itself (needed for gff covariances)."""
    graph_section = section.get("graph")
    if graph_section is None:
        return None
    if "path" in graph_section:
        return read_graph(graph_section["path"])
    return sample_block_graph(
        sizes=[int(s) for s in graph_section.get("sizes", spec.sizes)],
        a=float(graph_section["a"]),
        b=float(graph_section["b"]),
        self_loops=bool(graph_section.get("self_loops", False)),
        seed=_derived_seed(repeat_seed, 0x6AF),
    )


def resolve_design(section: dict, repeat_seed: int):
    """DesignSpec plus its underlying graph (with auto mass filled in)."""
    spec = design_spec_from_config(section, repeat_seed)
    g = _design_graph(section, spec, repeat_seed)
    if spec.kind == "gff":
        if g is None:
            raise ValueError("gff design config needs a 'graph' subsection")
        if spec.theta is None:
            spec = replace(spec, theta=default_gff_mass(g, spec.k))
    return spec, g


def penalty_graph(graph_section, X, spec: DesignSpec, design_graph):
    """The graph the penalty walks on, per the config's graph section."""
    if isinstance(graph_section, dict):
        if "path" in graph_section:
            return read_graph(graph_section["path"])
        if "estimate" in graph_section:
            return _estimated_graph(X, float(graph_section["estimate"]))
        raise ValueError(f"unrecognized graph section {graph_section!r}")
    if graph_section in (None, "estimate"):
        return _estimated_graph(X, 0.75)
    if graph_section == "from-design":
        if design_graph is not None:
            return design_graph
        return group_clique_graph(spec.sizes)
    return read_graph(graph_section)


def _estimated_graph(X, alpha):
    return estimate_graph_from_data(X, alpha)


def fit_with_config(X, y, g: Graph, fit_section: dict, seed: int,
                    optimizer: str, flow=None):
    """CV-tune (lam, t) if a cv block is present, then fit on all data.

    The section may carry "sd" / "cd" subsections whose keys override the
    shared ones for that optimizer; the cv block may set its own (cheaper)
    max_iters used only while ranking grid points. A pre-simulated walk
    table may be passed as `flow` (its t and B then apply); ignored when a
    cv block selects t itself. Otherwise the final fit simulates its table
    at the chosen t with the seed _derived_seed(seed, 0x4EA7).

    Returns (FitResult, chosen lam, chosen t, cv table or None, the walk
    table of the final fit: `flow` or the one simulated). A key that no fit
    reads, or a bad value, raises ValueError before any walk is simulated.
    """
    _check_fit_section(fit_section)
    merged = dict(fit_section)
    per_opt = fit_section.get(optimizer)
    if isinstance(per_opt, dict):
        merged.update(per_opt)
    cfg = FitConfig(seed=seed, **{k: merged[k] for k in _FIT_KEYS if k in merged})
    cfg.validate()
    cv_section = merged.get("cv")
    table = None
    if cv_section:
        cv_cfg = replace(cfg, max_iters=cv_section.get("max_iters", cfg.max_iters))
        lam, t, table = cross_validate(
            X, y, g,
            lambda_grid=cv_section["lambda_grid"],
            t_grid=cv_section["t_grid"],
            folds=cv_section.get("folds", 5),
            cfg=cv_cfg,
            optimizer=optimizer,
        )
        cfg = replace(cfg, lam=lam, t=t)
        flow = None  # the stored table's t no longer applies
    if flow is not None:
        cfg = replace(cfg, t=flow.t, B=flow.B)
        H = flow
    else:
        H = simulate_heat_flow(g, cfg.t, cfg.B, seed=_derived_seed(seed, 0x4EA7))
    result = _OPTIMIZERS[optimizer](X, y, H, cfg)
    return result, cfg.lam, cfg.t, table, H


def _run_repeat(config, repeat, base_seed):
    repeat_seed = _derived_seed(base_seed, 0xD5, repeat)
    spec, design_graph = resolve_design(config["design"], repeat_seed)
    X, y, beta_star, groups = sample_design_and_response(spec, design_graph)
    g = penalty_graph(config.get("graph", "estimate"), X, spec, design_graph)

    fit_section = config.get("fit", {})
    optimizers = fit_section.get("optimizer", "sd")
    optimizers = ("sd", "cd") if optimizers == "both" else (optimizers,)
    fits = {}
    for name in optimizers:
        fit_seed = _derived_seed(repeat_seed, 0xF17, _OPTIMIZER_TAG[name])
        result, lam, t, table, _ = fit_with_config(X, y, g, fit_section,
                                                   fit_seed, name)
        metrics = evaluate_fit(result.beta_thresholded, beta_star, X)
        fits[name] = {"result": result, "lam": lam, "t": t,
                      "cv_table": table, "metrics": metrics}
    return {
        "repeat": repeat,
        "seed": repeat_seed,
        "spec": spec,
        "X": X, "y": y, "beta_star": beta_star, "groups": groups,
        "graph_edges": g.edge_count,
        "fits": fits,
    }


def run_experiment(config: dict, out_dir: str) -> dict:
    """Execute all repeats of a config and write every artifact to out_dir.

    Returns a summary dict with per-optimizer mean metrics. On error, any
    partially written outputs are removed before the exception propagates.
    """
    _check_experiment(config)
    repeats = config.get("repeats", 1)
    if not (_is_integer(repeats) and repeats >= 1):
        raise ValueError(f"repeats must be an integer >= 1, got {repeats!r}")
    base_seed = int(config.get("design", {}).get("seed", 0))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        outcomes = [_run_repeat(config, r, base_seed) for r in range(repeats)]

        metrics_rows = []
        for out in outcomes:
            r = out["repeat"]
            data_path = os.path.join(out_dir, f"dataset_{r:03d}.csv")
            write_dataset_csv(data_path, out["X"], out["y"])
            written.append(data_path)
            sidecar = os.path.join(out_dir, f"dataset_{r:03d}.json")
            write_dataset_sidecar(sidecar, out["spec"], out["beta_star"],
                                  out["groups"])
            written.append(sidecar)
            for name, fit in out["fits"].items():
                fit_path = os.path.join(out_dir, f"fit_{r:03d}_{name}.json")
                with open(fit_path, "w", encoding="utf-8") as fh:
                    fh.write(fit["result"].to_json())
                written.append(fit_path)
                metrics_rows.append(
                    [str(r), name, repr(float(fit["lam"])), repr(float(fit["t"]))]
                    + [repr(float(v)) for v in fit["metrics"].csv_row()])

        summary = {}
        for name in outcomes[0]["fits"]:
            stack = np.array([out["fits"][name]["metrics"].csv_row()
                              for out in outcomes])
            mean = stack.mean(axis=0)
            metrics_rows.append(["mean", name, "", ""]
                                + [repr(float(v)) for v in mean])
            summary[name] = MetricsReport(*[float(v) for v in mean])

        metrics_path = os.path.join(out_dir, "metrics.csv")
        with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repeat", "optimizer", "lam", "t"]
                            + MetricsReport.CSV_HEADER)
            writer.writerows(metrics_rows)
        written.append(metrics_path)

        manifest = {
            "version": __version__,
            "config": config,
            "config_hash": config_hash(config),
            "seeds": {
                "base": base_seed,
                "repeats": [out["seed"] for out in outcomes],
            },
        }
        manifest_path = os.path.join(out_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        written.append(manifest_path)
        return summary
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
