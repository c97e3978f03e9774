"""Command-line interface.

Subcommands: simulate, fit, cv, estimate-graph, levelset, verify.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .designs import read_dataset_csv
from .diagnostics import verify_spectral_bounds
from .errors import CliError, NonFiniteObjective, check_arg
from .experiments import _FIT_FIELDS, check_config, fit_with_config, penalty_graph, run_experiment
from .figures import write_levelset_svg
from .graphs import _DEFAULT_ALPHA, Graph, estimate_graph, read_correlation_csv, write_graph
from .heatflow import (
    exact_heat_kernel,
    heatflow_apply,
    load_heatflow,
    save_heatflow,
    simulate_heat_flow,
)
from .optimize import OPTIMIZERS, RATE_PROTOCOLS, threshold_kmeans


def _number_list(flag, text):
    """The numbers of a comma list; a CliError names the flag and the item."""
    values = []
    for k, item in enumerate(text.split(","), start=1):
        try:
            values.append(float(item))
        except ValueError:
            raise CliError(f"{flag} item {k} is not a number: {item!r}") from None
    return values


def _fit_section_from_args(args):
    section = {k: v for k, v in vars(args).items() if k in _FIT_FIELDS and v is not None}
    section["loss"] = {"squared": "squared_error",
                       "logistic": "logistic"}[args.loss]
    return section


def _graph_for_fit(args, X):
    if args.graph and args.estimate_graph is not None:
        raise CliError("give either a graph file or --estimate-graph, not both")
    if args.graph:
        return penalty_graph({"path": args.graph}, X, None, None)
    alpha = args.estimate_graph  # None, with no --estimate-graph: a config's default
    return penalty_graph(None if alpha is None else {"estimate": alpha}, X, None, None)


def _write_fit_outputs(out_dir, name, result, lam, t, graph_edges):
    os.makedirs(out_dir, exist_ok=True)
    fit_path = os.path.join(out_dir, f"{name}.json")
    with open(fit_path, "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
    beta_path = os.path.join(out_dir, f"{name}_beta.csv")
    with open(beta_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta_thresholded"])
        for v in result.beta_thresholded:
            writer.writerow([repr(float(v))])
    manifest = {
        "version": __version__,
        "lam": lam, "t": t,
        "graph_edges": graph_edges,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    with open(os.path.join(out_dir, f"{name}_manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return fit_path


def cmd_simulate(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load config {args.config}: {exc}") from exc
    if isinstance(config, dict) and "config" in config and "config_hash" in config:
        config = config["config"]  # a manifest was passed; re-run it
    check_config(config)
    if args.seed is not None:
        config["design"]["seed"] = args.seed
    out_dir = args.out or config.get("output", "out")
    summary = run_experiment(config, out_dir)
    for name, metrics in summary.items():
        print(f"{name}: prediction={metrics.prediction_error:.4f} "
              f"estimation={metrics.estimation_error:.4f} "
              f"sensitivity={metrics.sensitivity:.3f} "
              f"specificity={metrics.specificity:.3f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_fit(args):
    y, X = read_dataset_csv(args.data)
    g = _graph_for_fit(args, X)
    flow = load_heatflow(args.flow) if args.flow and os.path.exists(args.flow) else None
    result, lam, t, _, H = fit_with_config(X, y, g, _fit_section_from_args(args),
                                           args.seed, args.optimizer, flow=flow)
    if args.flow and flow is None:
        save_heatflow(H, args.flow)
    out_dir = args.out or "."
    fit_path = _write_fit_outputs(out_dir, f"fit_{args.optimizer}", result,
                                  lam, t, g.edge_count)
    print(f"fit written to {fit_path} ({result.iterations} iterations, "
          f"converged={result.converged})")
    return 0


def cmd_cv(args):
    section = _fit_section_from_args(args)
    section["cv"] = {
        "lambda_grid": _number_list("--lambdas", args.lambdas),
        "t_grid": _number_list("--ts", args.ts),
        "folds": args.folds,
    }
    y, X = read_dataset_csv(args.data)
    g = _graph_for_fit(args, X)
    result, lam, t, table, _ = fit_with_config(X, y, g, section, args.seed,
                                               args.optimizer)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    cv_path = os.path.join(out_dir, "cv.json")
    with open(cv_path, "w", encoding="utf-8") as fh:
        json.dump({"best_lam": lam, "best_t": t, "table": table}, fh, indent=2)
    _write_fit_outputs(out_dir, f"cv_fit_{args.optimizer}", result, lam, t,
                       g.edge_count)
    print(f"best lam={lam:g} t={t:g}; table in {cv_path}")
    return 0


def cmd_estimate_graph(args):
    if args.corr and args.data:
        raise CliError("give either a dataset CSV or --corr, not both")
    if args.corr:
        corr = read_correlation_csv(args.corr)
        g = estimate_graph(corr, args.alpha)
    elif args.data:
        _, X = read_dataset_csv(args.data)
        g = penalty_graph({"estimate": args.alpha}, X, None, None)
    else:
        raise CliError("give a dataset CSV or --corr matrix")
    write_graph(g, args.out)
    print(f"estimated graph: {g.p} vertices, {g.edge_count} edges -> {args.out}")
    return 0


def cmd_levelset(args):
    t_values = _number_list("--t", args.t)
    check_arg("--grid", args.grid, "[3, inf)", int, CliError)
    write_levelset_svg(t_values, args.out, grid_n=args.grid)
    print(f"level-set montage with {len(t_values)} panels -> {args.out}")
    return 0


def cmd_verify(args):
    """Quick diagnostics battery; exit 0 only if every check passes."""
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    def random_graph(low, high, density):
        p = int(rng.integers(low, high))
        mask = rng.random((p, p)) < density
        return Graph(p, edges=np.argwhere(np.triu(mask, 1)))

    # spectral bounds on random graphs
    bad = 0
    for _ in range(20):
        bad += 0 if verify_spectral_bounds(random_graph(2, 11, 0.4)).all_ok else 1
    report("spectral bounds on 20 random graphs", bad == 0, f"{bad} failures")

    # Monte Carlo semigroup fidelity on a few small graphs
    worst = 0.0
    for trial in range(5):
        g = random_graph(3, 9, 0.5)
        f = rng.random(g.p)
        H = simulate_heat_flow(g, 0.5, B=4000, seed=int(rng.integers(2 ** 31)))
        err = np.abs(heatflow_apply(H, f) - exact_heat_kernel(g, 0.5) @ f).max()
        worst = max(worst, err)
    report("semigroup fidelity (B=4000, 5 graphs)", worst < 0.05,
           f"max err {worst:.4f}")

    # thresholding is sane on a known vector
    thr = threshold_kmeans(np.array([0.6, 0.01, -0.55, 0.02]))
    report("2-means thresholding", np.array_equal(thr, [0.6, 0.0, -0.55, 0.0]))

    return 0 if failures == 0 else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatlasso",
        description="Latent-group-sparse regression via a heat-flow penalty "
                    "computed by random walks on a variable graph.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a synthetic experiment config")
    sim.add_argument("--config", required=True, help="config (or manifest) JSON")
    sim.add_argument("--out", help="output directory (overrides config)")
    sim.add_argument("--seed", type=int, help="override design seed")
    sim.set_defaults(func=cmd_simulate)

    def add_fit_flags(p):
        p.add_argument("data", help="CSV: header row, first column y")
        p.add_argument("--graph", help="edge-list graph file")
        p.add_argument("--estimate-graph", type=float, metavar="ALPHA",
                       nargs="?", const=_DEFAULT_ALPHA, default=None,
                       help="estimate the graph from |corr| at this quantile")
        p.add_argument("--lambda", dest="lam", type=float, help="penalty weight")
        p.add_argument("--t", type=float, help="flow time")
        p.add_argument("--walks", dest="B", type=int, help="walks per vertex (B)")
        p.add_argument("--alpha0", type=float, help="base learning rate")
        p.add_argument("--rate", dest="rate_protocol", choices=RATE_PROTOCOLS)
        p.add_argument("--eps-tol", dest="eps_tol", type=float)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--block-size", dest="block_size", type=int)
        p.add_argument("--loss", choices=("squared", "logistic"),
                       default="squared")
        p.add_argument("--optimizer", choices=list(OPTIMIZERS), default="sd")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory")

    fit = sub.add_parser("fit", help="fit one dataset")
    add_fit_flags(fit)
    fit.add_argument("--flow", metavar="PATH",
                     help="walk-table file: reuse it if present, else save "
                          "the simulated one there")
    fit.set_defaults(func=cmd_fit)

    cv = sub.add_parser("cv", help="cross-validate (lambda, t) then refit")
    add_fit_flags(cv)
    cv.add_argument("--lambdas", required=True, help="comma-separated grid")
    cv.add_argument("--ts", required=True, help="comma-separated grid")
    cv.add_argument("--folds", type=int, default=5)
    cv.set_defaults(func=cmd_cv)

    est = sub.add_parser("estimate-graph", help="threshold a correlation matrix")
    est.add_argument("data", nargs="?", help="dataset CSV (y column ignored)")
    est.add_argument("--corr", help="read a dense correlation CSV instead")
    est.add_argument("--alpha", type=float, default=_DEFAULT_ALPHA)
    est.add_argument("--out", required=True, help="output graph file")
    est.set_defaults(func=cmd_estimate_graph)

    lvl = sub.add_parser("levelset", help="render penalty unit-ball panels")
    lvl.add_argument("--t", required=True, help="comma-separated flow times")
    lvl.add_argument("--out", required=True, help="output SVG path")
    lvl.add_argument("--grid", type=int, default=201,
                     help="points on each contour (>= 3)")
    lvl.set_defaults(func=cmd_levelset)

    ver = sub.add_parser("verify", help="run the quick diagnostics battery")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteObjective, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
