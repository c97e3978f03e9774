"""Batch experiment runner: designs -> heat flow -> optimization -> metrics.

A JSON config drives everything. _EXPERIMENT below is its schema: it writes
each key's place and JSON type once, and a whole config is checked against it
before any walk is simulated or any file written. A section that is not an
object, an unknown or missing required key, or a value of the wrong JSON type
raises a ValueError naming the full key, such as design.graph.sizes[1].
Values are not cast: DesignSpec.validate, FitConfig.validate, cross_validate
and sample_block_graph still check ranges and meaning. Sections:

  design   DesignSpec fields; for gff designs a "graph" subsection gives
           either {"path": ...} or SBM parameters to sample per repeat, and
           "theta" may be the string "auto" for the canonical mass.
  fit      FitConfig fields plus "optimizer" (a name in optimize.OPTIMIZERS
           or "both"), an optional "cv" block (without it the fixed lam/t of
           the config are used) and a subsection of overrides per optimizer.
  graph    the graph driving the penalty: "from-design", "estimate"
           (optionally {"estimate": alpha}), or a path.
  repeats  number of independent repetitions (derived seeds).
  output   output directory (CLI --out overrides).

Every run writes per-repeat dataset CSVs and fit JSONs, a metrics CSV with
one row per (repeat, optimizer) plus aggregate mean rows, and a manifest
capturing the resolved config, its hash, and all derived seeds. Re-running
a manifest's config reproduces every output file byte for byte.
"""

import csv
import hashlib
import json
import os
from dataclasses import replace

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
from .errors import _TESTS, check_arg
from .graphs import (
    _DEFAULT_ALPHA,
    Graph,
    estimate_graph_from_data,
    group_clique_graph,
    read_graph,
    sample_block_graph,
)
from .heatflow import simulate_heat_flow
from .optimize import OPTIMIZERS, FitConfig, _check_graph, _derived_seed, cross_validate

_OPTIMIZERS = OPTIMIZERS  # one dict: the benchmark's span wrappers bind into it
# The shape of a config: an object is a dict of its keys (those ending in "!" are
# required), a list is [item], a tuple holds alternatives, a leaf is a JSON type or a literal.
_FIT_FIELDS = {"lam": float, "t": float, "B": int, "alpha0": float, "rate_protocol": str,
               "eps_tol": float, "max_iters": int, "block_size": (int, None), "loss": str}
_CV = {"lambda_grid!": [float], "t_grid!": [float], "folds": int, "max_iters": int}
_PER_OPTIMIZER = {**_FIT_FIELDS, "cv": (_CV, None)}
_FIT = {**_PER_OPTIMIZER, "optimizer": (*OPTIMIZERS, "both"),
        **dict.fromkeys(OPTIMIZERS, _PER_OPTIMIZER)}
_DESIGN = {"kind!": str, "sizes!": [int], "n!": int, "noise_sigma": float, "seed": int,
           "rhos": [float], "theta": (float, "auto", None), "a": float, "b": float,
           "beta_scheme": [[(str, float)]],
           "graph": {"path": str, "sizes": [int], "a": float, "b": float, "self_loops": bool}}
_EXPERIMENT = {"design!": _DESIGN, "graph": (str, None, {"path": str, "estimate": float}),
               "fit": _FIT, "repeats": int, "output": str}
_FIT_KEYS = tuple(_FIT_FIELDS)  # the FitConfig fields a fit section sets; the seed is derived
# Each type's name in messages.
_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          dict: "an object", list: "a list"}


def check_config(value, schema=_EXPERIMENT, where=""):
    """Raise a ValueError naming the first part of value that does not fit the schema."""
    options = schema if isinstance(schema, tuple) else (schema,)
    for option in options:
        if isinstance(option, dict) and isinstance(value, dict):
            keys = {key.rstrip("!"): key for key in option}
            prefix = f"{where}." if where else ""
            unknown = [prefix + name for name in value if name not in keys]
            if unknown:
                raise ValueError(f"unknown {where.split('.')[0] or 'experiment'} config keys: "
                                 f"{', '.join(unknown)}")
            for name, key in keys.items():
                if name in value:
                    check_config(value[name], option[key], prefix + name)
                elif key.endswith("!"):
                    raise ValueError(f"{prefix}{name} is required")
            return
        if isinstance(option, list) and isinstance(value, list):
            for i, item in enumerate(value):
                check_config(item, option[0], f"{where}[{i}]")
            return
        if isinstance(option, type):
            if isinstance(value, str) if option is str else _TESTS[option](value):
                return
        elif type(value) is type(option) and value == option:
            return
    names = [json.dumps(o) if o is None or isinstance(o, str)
             else _NAMES[o if isinstance(o, type) else type(o)] for o in options]
    expected = names[0] if len(names) == 1 else f"{', '.join(names[:-1])} or {names[-1]}"
    raise ValueError(f"{where or 'the config'} must be {expected}, "
                     f"got {json.dumps(value, default=repr)}")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _design_graph(section: dict, spec: DesignSpec, repeat_seed: int):
    """The graph underlying the design itself (needed for gff covariances);
    one on other than the design's p vertices is refused before it is built."""
    graph_section = section.get("graph")
    if graph_section is None:
        return None
    if "path" in graph_section:
        if len(graph_section) > 1:
            raise ValueError(f"design.graph with a path takes no other key, "
                             f"got {', '.join(graph_section)}")
        return read_graph(graph_section["path"], spec.p)
    if "a" not in graph_section or "b" not in graph_section:
        raise ValueError("design.graph.a and design.graph.b are required without a path")
    sizes = graph_section.get("sizes", spec.sizes)
    if sum(sizes) != spec.p:
        raise ValueError(f"design.graph.sizes sum to {sum(sizes)}, the design has p={spec.p}")
    return sample_block_graph(sizes, graph_section["a"], graph_section["b"],
                              graph_section.get("self_loops", False),
                              _derived_seed(repeat_seed, 0x6AF))


def resolve_design(section: dict, repeat_seed: int):
    """DesignSpec plus its underlying graph (with auto mass filled in); an
    absent noise_sigma is 0.0."""
    fields = {key: v for key, v in section.items() if key not in ("graph", "seed")}
    if fields.get("theta") == "auto":
        fields["theta"] = None
    spec = DesignSpec(**{"noise_sigma": 0.0, **fields}, seed=repeat_seed)
    spec.validate()
    g = _design_graph(section, spec, repeat_seed)
    if spec.kind == "gff":
        if g is None:
            raise ValueError("gff design config needs a 'graph' subsection")
        if spec.theta is None:
            spec = replace(spec, theta=default_gff_mass(g, spec.k))
    return spec, g


def penalty_graph(graph_section, X, spec: DesignSpec, design_graph):
    """The graph the penalty walks on, per the config's graph section."""
    if graph_section == "from-design":
        return group_clique_graph(spec.sizes) if design_graph is None else design_graph
    if not isinstance(graph_section, dict):
        graph_section = ({"estimate": _DEFAULT_ALPHA} if graph_section in (None, "estimate")
                         else {"path": graph_section})
    if len(graph_section) > 1:
        raise ValueError(f"a graph section names one source, got {', '.join(graph_section)}")
    if "path" in graph_section:
        return read_graph(graph_section["path"], X.shape[1])
    if "estimate" in graph_section:
        return _estimated_graph(X, graph_section["estimate"])
    raise ValueError(f"unrecognized graph section {graph_section!r}")


def _estimated_graph(X, alpha):
    return estimate_graph_from_data(X, alpha)


def fit_with_config(X, y, g: Graph, fit_section: dict, seed: int,
                    optimizer: str, flow=None):
    """CV-tune (lam, t) if a cv block is present, then fit on all data.

    The section may carry a subsection per optimizer name whose keys
    override the shared ones for that optimizer; the cv block may set its
    own (cheaper) max_iters used only while ranking grid points. A
    pre-simulated walk table may be passed as `flow` (its t and B apply, and a t or B the
    section gives must equal them); ignored when a cv block selects t
    itself. Otherwise the final fit simulates its table at the chosen t
    with the seed _derived_seed(seed, 0x4EA7).

    Returns (FitResult, chosen lam, chosen t, cv table or None, the walk
    table of the final fit: `flow` or the one simulated). A bad optimizer
    name, section or value, a `flow` that disagrees with it, or a graph not
    on X's p columns raises ValueError before any walk is simulated.
    """
    check_config(optimizer, tuple(OPTIMIZERS), "optimizer")
    check_config(fit_section, _FIT, "fit")
    merged = {**fit_section, **fit_section.get(optimizer, {})}
    cfg = FitConfig(seed=seed, **{k: merged[k] for k in _FIT_KEYS if k in merged})
    cfg.validate()
    _check_graph(g, X)
    cv_section = merged.get("cv")
    held = {} if flow is None or cv_section else {"t": flow.t, "B": flow.B}
    for name, value in held.items():
        if merged.get(name, value) != value:
            raise ValueError(f"the walk table has {name}={value}, "
                             f"the fit asks for {name}={merged[name]}")
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
    optimizers = tuple(OPTIMIZERS) if optimizers == "both" else (optimizers,)
    fits = {}
    for name in optimizers:
        fit_seed = _derived_seed(repeat_seed, 0xF17, list(OPTIMIZERS).index(name) + 1)
        result, lam, t, _, _ = fit_with_config(X, y, g, fit_section, fit_seed, name)
        fits[name] = result, lam, t, evaluate_fit(result.beta_thresholded, beta_star, X)
    return repeat_seed, spec, X, y, beta_star, groups, fits


def run_experiment(config: dict, out_dir: str) -> dict:
    """Execute all repeats of a config and write every artifact to out_dir.

    Each repeat's dataset and fit files are written when the repeat ends,
    and only its metrics rows and seed are kept, so the run's memory does
    not grow with repeats; metrics.csv and the manifest follow the last one.
    Returns a summary dict with per-optimizer mean metrics. On error, any
    partially written outputs are removed before the exception propagates.
    """
    check_config(config)
    repeats = config.get("repeats", 1)
    check_arg("repeats", repeats, "[1, inf)", int)
    base_seed = config["design"].get("seed", 0)
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name):  # listed before it is opened, so the cleanup finds a partial file
        written.append(os.path.join(out_dir, name))
        return written[-1]

    try:
        seeds, metrics_rows, reports = [], [], {}
        for r in range(repeats):
            seed, spec, X, y, beta_star, groups, fits = _run_repeat(config, r, base_seed)
            seeds.append(seed)
            write_dataset_csv(path(f"dataset_{r:03d}.csv"), X, y)
            write_dataset_sidecar(path(f"dataset_{r:03d}.json"), spec, beta_star, groups)
            for name, (result, lam, t, metrics) in fits.items():
                with open(path(f"fit_{r:03d}_{name}.json"), "w", encoding="utf-8") as fh:
                    fh.write(result.to_json())
                metrics_rows.append([str(r), name, repr(float(lam)), repr(float(t))]
                                    + [repr(float(v)) for v in metrics.csv_row()])
                reports.setdefault(name, []).append(metrics.csv_row())

        summary = {}
        for name, rows in reports.items():
            mean = np.array(rows).mean(axis=0)
            metrics_rows.append(["mean", name, "", ""] + [repr(float(v)) for v in mean])
            summary[name] = MetricsReport(*[float(v) for v in mean])

        with open(path("metrics.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repeat", "optimizer", "lam", "t"]
                            + MetricsReport.CSV_HEADER)
            writer.writerows(metrics_rows)

        manifest = {"version": __version__, "config": config, "config_hash": config_hash(config),
                    "seeds": {"base": base_seed, "repeats": seeds}}
        with open(path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        return summary
    except Exception:
        for name in written:
            try:
                os.remove(name)
            except OSError:
                pass
        raise
