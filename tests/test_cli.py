"""End-to-end CLI behavior: fitting, simulation configs, figures, exit codes."""
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from heatlasso import experiments, optimize
from heatlasso.cli import CliError, main, read_dataset_csv
from heatlasso.errors import HeatLassoError, LengthMismatch, NonFiniteObjective
from heatlasso.figures import levelset_points
from heatlasso.graphs import (
    estimate_graph,
    estimate_graph_from_data,
    figure_graph,
    sample_block_graph,
    write_graph,
)
from heatlasso.heatflow import exact_heat_kernel, simulate_heat_flow
from heatlasso.penalty import penalty_value


def write_toy_csv(path, n=60, seed=0, logistic=False):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    if logistic:
        y = (1.0 / (1.0 + np.exp(-2.0 * x1)) > rng.random(n)).astype(float)
    else:
        y = x1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x1", "x2"])
        for i in range(n):
            writer.writerow([y[i], x1[i], x2[i]])
    return path


# A row value that deletes its key from the config.
MISSING = object()
# The changes that turn small_sim_config into a gff design on a sampled graph.
GFF_DESIGN = {"design.kind": "gff", "design.rhos": MISSING,
              "design.graph": {"a": 0.9, "b": 0.05}}


def small_sim_config(out_dir, repeats=2):
    return {
        "design": {"kind": "block_equicorr", "sizes": [4, 4], "n": 40,
                   "noise_sigma": 0.0, "seed": 5, "rhos": [0.3, 0.3],
                   "beta_scheme": [["uniform", 0.5, 0.7], ["zero"]]},
        "graph": "from-design",
        "fit": {"optimizer": "sd", "lam": 0.0, "t": 0.5, "alpha0": 0.3,
                "rate_protocol": "constant", "max_iters": 300,
                "eps_tol": 1e-10},
        "repeats": repeats,
        "output": str(out_dir),
    }


class TestFit:
    def test_recovers_single_active_column(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "out"
        code = main(["fit", str(data), "--lambda", "0", "--alpha0", "0.5",
                     "--rate", "constant", "--max-iters", "300",
                     "--out", str(out)])
        assert code == 0
        fit = json.loads((out / "fit_sd.json").read_text())
        assert fit["beta_hat"][0] == pytest.approx(1.0, abs=1e-2)
        assert fit["beta_hat"][1] == pytest.approx(0.0, abs=1e-2)
        beta_csv = (out / "fit_sd_beta.csv").read_text().splitlines()
        assert beta_csv[0] == "beta_thresholded"
        assert len(beta_csv) == 3

    def test_estimate_graph_on_uncorrelated_data(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv", seed=3)
        out = tmp_path / "out"
        code = main(["fit", str(data), "--estimate-graph", "0.75",
                     "--lambda", "0.01", "--t", "1.0", "--max-iters", "50",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "fit_sd_manifest.json").read_text())
        assert manifest["graph_edges"] == 0  # independent columns

    def test_logistic_loss_trace_decreases(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv", n=200, seed=4, logistic=True)
        out = tmp_path / "out"
        code = main(["fit", str(data), "--loss", "logistic", "--lambda", "0.01",
                     "--t", "0.5", "--alpha0", "0.5", "--rate", "constant",
                     "--estimate-graph", "--max-iters", "200", "--out", str(out)])
        assert code == 0
        fit = json.loads((out / "fit_sd.json").read_text())
        trace = fit["objective_trace"]
        assert trace[5] < trace[0]

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x1\n1.0,2.0\n3.0\n")
        assert main(["fit", str(bad), "--out", str(tmp_path)]) == 1
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_data_exits_one(self, tmp_path, capsys, bad):
        # read_dataset_csv parses the value and the estimated graph isolates
        # its column; the fit refuses it by its place instead of exiting 2
        # with "loss is not finite"
        path = write_toy_csv(tmp_path / "toy.csv")
        lines = path.read_text().splitlines()
        y, x1, x2 = lines[5].split(",")
        lines[5] = ",".join((y, x1, bad))
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: X holds {bad} at row 4, column 1 ")

    def test_numerical_failure_exits_two(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit", str(data), "--lambda", "0", "--alpha0", "1e9",
                         "--rate", "constant", "--max-iters", "500",
                         "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_flow_time_exits_one(self, tmp_path, t):
        # in a child process with a timeout: before the check, t = inf walked forever
        import heatlasso

        data = write_toy_csv(tmp_path / "toy.csv")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(heatlasso.__file__))}
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from heatlasso.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "fit", str(data), "--estimate-graph",
             "--t", t, "--flow", str(tmp_path / "walks.hfm"), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert f"t must be finite and >= 0, got {t}" in run.stderr
        assert not (tmp_path / "walks.hfm").exists()

    def test_module_entry_prints_the_version(self):
        import heatlasso

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(heatlasso.__file__))}
        run = subprocess.run([sys.executable, "-m", "heatlasso.cli", "--version"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0
        assert run.stdout == f"{heatlasso.__version__}\n"

    def test_flow_time_past_int32_step_counts_exits_one(self, tmp_path, capsys):
        # numpy's OverflowError escaped as a traceback
        data = write_toy_csv(tmp_path / "toy.csv")
        (tmp_path / "edge.txt").write_text("p 2\n0 1\n")
        assert main(["fit", str(data), "--graph", str(tmp_path / "edge.txt"), "--t", "1e300",
                     "--walks", "5", "--max-iters", "3", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: t=1e+300 is too long for Lambda_c=1:")

    def test_block_cd_optimizer_flag(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "out"
        code = main(["fit", str(data), "--optimizer", "cd", "--lambda", "0",
                     "--alpha0", "0.4", "--rate", "constant",
                     "--block-size", "1", "--max-iters", "2000",
                     "--out", str(out)])
        assert code == 0
        fit = json.loads((out / "fit_cd.json").read_text())
        assert fit["beta_hat"][0] == pytest.approx(1.0, abs=2e-2)

    def test_graph_file_input(self, tmp_path):
        from heatlasso.graphs import Graph, write_graph

        data = write_toy_csv(tmp_path / "toy.csv")
        gpath = tmp_path / "g.txt"
        write_graph(Graph(2, [(0, 1)]), gpath)
        out = tmp_path / "out"
        code = main(["fit", str(data), "--graph", str(gpath),
                     "--lambda", "0.01", "--t", "0.5", "--max-iters", "50",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "fit_sd_manifest.json").read_text())
        assert manifest["graph_edges"] == 1

    @pytest.mark.parametrize("line", ["0 1_0", "0 99999999999999999999"])
    def test_malformed_graph_file_exits_one(self, tmp_path, capsys, line):
        data = write_toy_csv(tmp_path / "toy.csv")
        gpath = tmp_path / "g.txt"
        gpath.write_text(f"p 11\n{line}\n")
        assert main(["fit", str(data), "--graph", str(gpath), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {gpath}: could not convert")

    def test_graph_header_of_another_p_exits_one_before_the_graph(self, tmp_path, capsys):
        # a graph of 10^7 vertices would take an 80 MB indptr alone
        import tracemalloc

        data = write_toy_csv(tmp_path / "toy.csv")
        gpath = tmp_path / "g.txt"
        gpath.write_text("p 10000000\n0 1\n")
        tracemalloc.start()
        try:
            code = main(["fit", str(data), "--graph", str(gpath), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {gpath}: graph has 10000000 vertices, X has 2 columns\n")
        assert peak < 16 << 20

    def test_graph_file_and_estimate_graph_exit_one(self, tmp_path, capsys):
        data = write_toy_csv(tmp_path / "toy.csv")
        gpath = tmp_path / "g.txt"
        write_graph(figure_graph(), gpath)
        assert main(["fit", str(data), "--graph", str(gpath), "--estimate-graph",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: give either a graph file or --estimate-graph, not both\n")
        assert not (tmp_path / "o").exists()

    def test_flow_file_saved_then_reused(self, tmp_path):
        from heatlasso.heatflow import load_heatflow

        data = write_toy_csv(tmp_path / "toy.csv")
        flow_path = tmp_path / "walks.hfm"
        args = ["fit", str(data), "--lambda", "0.01", "--t", "0.8",
                "--walks", "64", "--max-iters", "60", "--estimate-graph",
                "--flow", str(flow_path)]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert flow_path.exists()
        stored = load_heatflow(flow_path)
        assert stored.t == 0.8 and stored.B == 64
        # second run consumes the stored table and produces the same fit
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        fit_a = json.loads((tmp_path / "a" / "fit_sd.json").read_text())
        fit_b = json.loads((tmp_path / "b" / "fit_sd.json").read_text())
        assert fit_a["beta_hat"] == fit_b["beta_hat"]

    @pytest.mark.parametrize("walks", [2, 64])  # p > 8 B: a walk table; else dense
    def test_cold_and_warm_flow_calls_write_the_same_fit(self, tmp_path, walks):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 20))
        data = tmp_path / "wide.csv"
        np.savetxt(data, np.column_stack((X[:, 0] + X[:, 1], X)), delimiter=",",
                   header=",".join(["y"] + [f"x{j}" for j in range(20)]), comments="")
        args = ["fit", str(data), "--lambda", "0.01", "--t", "0.5", "--walks", str(walks),
                "--max-iters", "30", "--estimate-graph", "--optimizer", "cd",
                "--block-size", "5", "--flow", str(tmp_path / "walks.hfm")]
        fits = []
        for call in ("cold", "warm"):
            assert main(args + ["--out", str(tmp_path / call)]) == 0
            fits.append((tmp_path / call / "fit_cd.json").read_bytes())
        assert json.loads(fits[0])["total_walk_steps"] > 0
        assert fits[0] == fits[1]

    def test_cold_flow_call_simulates_once(self, tmp_path, monkeypatch):
        import heatlasso.cli as cli
        import heatlasso.experiments as experiments
        from heatlasso.heatflow import load_heatflow, simulate_heat_flow

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate_heat_flow(*args, **kwargs)

        for module in (cli, experiments):
            monkeypatch.setattr(module, "simulate_heat_flow", counting)
        data = write_toy_csv(tmp_path / "toy.csv")
        flow_path = tmp_path / "walks.hfm"
        assert main(["fit", str(data), "--lambda", "0.01", "--t", "0.8",
                     "--walks", "64", "--max-iters", "20", "--estimate-graph",
                     "--seed", "3", "--flow", str(flow_path),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        stored = load_heatflow(flow_path)
        again = simulate_heat_flow(*calls[0], seed=experiments._derived_seed(3, 0x4EA7))
        assert np.array_equal(stored.terminals, again.terminals)

    def test_flow_file_flow_time_and_walks_check(self, tmp_path, capsys):
        from heatlasso.graphs import Graph
        from heatlasso.heatflow import save_heatflow, simulate_heat_flow

        data = write_toy_csv(tmp_path / "toy.csv")
        flow_path = tmp_path / "walks.hfm"
        save_heatflow(simulate_heat_flow(Graph(2, [(0, 1)]), 0.8, 64, seed=1), flow_path)
        base = ["fit", str(data), "--max-iters", "20", "--flow", str(flow_path),
                "--out", str(tmp_path / "o")]
        assert main(base + ["--t", "0.5"]) == 1
        assert "t=0.8" in capsys.readouterr().err
        assert main(base + ["--walks", "32"]) == 1
        assert "B=64" in capsys.readouterr().err
        assert main(base + ["--t", "0.8", "--walks", "64"]) == 0

    def test_flow_file_dimension_check(self, tmp_path):
        from heatlasso.graphs import Graph
        from heatlasso.heatflow import save_heatflow, simulate_heat_flow

        data = write_toy_csv(tmp_path / "toy.csv")
        flow_path = tmp_path / "walks.hfm"
        save_heatflow(simulate_heat_flow(Graph(5), 0.5, 8, seed=1), flow_path)
        assert main(["fit", str(data), "--flow", str(flow_path),
                     "--out", str(tmp_path / "o")]) == 1


class TestFitWithConfig:
    def test_returns_the_table_the_fit_used(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 6))
        y = X[:, 0] + 0.1 * rng.standard_normal(30)
        g = sample_block_graph([3, 3], 0.9, 0.0, seed=2)
        section = {"lam": 0.01, "t": 0.7, "B": 20, "max_iters": 15}
        result, lam, t, table, H = experiments.fit_with_config(X, y, g, section, 9, "sd")
        want = simulate_heat_flow(g, 0.7, 20, seed=experiments._derived_seed(9, 0x4EA7))
        assert np.array_equal(H.terminals, want.terminals)
        assert result.total_walk_steps == H.total_steps > 0
        assert (lam, t, table) == (0.01, 0.7, None)
        again = experiments.fit_with_config(X, y, g, section, 9, "sd", flow=H)
        assert again[4] is H
        assert np.array_equal(again[0].beta_hat, result.beta_hat)

    def test_stored_table_must_agree_with_the_section(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 6))
        y = X[:, 0]
        g = sample_block_graph([3, 3], 0.9, 0.0, seed=2)
        H = simulate_heat_flow(g, 0.7, 20, seed=1)

        def no_walks(*args, **kwargs):
            raise AssertionError("a walk table was simulated")

        monkeypatch.setattr(experiments, "simulate_heat_flow", no_walks)
        for section, held in (({"t": 0.5}, "t=0.7"), ({"B": 10}, "B=20"),
                              ({"t": 0.7, "sd": {"B": 10}}, "B=20")):
            with pytest.raises(ValueError, match=f"the walk table has {held}"):
                experiments.fit_with_config(X, y, g, {**section, "max_iters": 5}, 9, "sd",
                                            flow=H)
        # an agreeing section, or none, uses the table as it is
        for section in ({"t": 0.7, "B": 20}, {}):
            result, _, t, _, used = experiments.fit_with_config(
                X, y, g, {**section, "max_iters": 5}, 9, "sd", flow=H)
            assert used is H and t == 0.7 and result.total_walk_steps == H.total_steps
        # a table on another p is refused by the fit
        other = simulate_heat_flow(sample_block_graph([2, 2], 0.9, 0.0, seed=2), 0.7, 20, seed=1)
        with pytest.raises(LengthMismatch, match="acts on 4 variables, X has 6 columns"):
            experiments.fit_with_config(X, y, g, {"max_iters": 5}, 9, "sd", flow=other)

    @pytest.mark.parametrize("cv", [False, True])
    def test_graph_on_other_p_refused_before_any_walk(self, monkeypatch, cv):
        def no_walks(*args, **kwargs):
            raise AssertionError("a walk table was simulated")

        for module in (experiments, optimize):
            monkeypatch.setattr(module, "simulate_heat_flow", no_walks)
        X = np.random.default_rng(3).standard_normal((10, 2))
        g = sample_block_graph([6, 5], 0.9, 0.0)
        section = {"t": 0.5}
        if cv:
            section["cv"] = {"lambda_grid": [0.1], "t_grid": [0.5], "folds": 2}
        with pytest.raises(LengthMismatch, match="graph has 11 vertices, X has 2 columns"):
            experiments.fit_with_config(X, X[:, 0], g, section, 1, "sd")
        with pytest.raises(LengthMismatch, match="graph has 11 vertices, X has 2 columns"):
            optimize.cross_validate(X, X[:, 0], g, [0.1], [0.5], 2, optimize.FitConfig())

    @pytest.mark.parametrize("section", ["path", "str", "design"])
    def test_graph_file_of_another_p_refused_before_the_graph(self, tmp_path, section):
        import tracemalloc

        gpath = tmp_path / "g.txt"
        gpath.write_text("p 10000000\n0 1\n")
        graph = {"path": str(gpath)} if section != "str" else str(gpath)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                if section == "design":  # the gff design's own graph, on its p = 3
                    experiments.resolve_design(
                        {"kind": "gff", "sizes": [1, 2], "n": 5, "graph": graph}, 0)
                else:
                    experiments.penalty_graph(graph, np.ones((5, 3)), None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{gpath}: graph has 10000000 vertices, X has 3 columns"
        assert peak < 1 << 20

    @pytest.mark.parametrize("graph, kind, named", [
        # 1500 vertices would be sampled, and the gff mass found, on a p = 4 design
        ({"sizes": [750, 750], "a": 0.9, "b": 0.1}, "gff",
         "design.graph.sizes sum to 1500, the design has p=4"),
        ({"path": "missing.txt"}, "bogus",
         "unknown design kind 'bogus', expected one of block_equicorr, gff, sbm_cov"),
    ], ids=["sizes", "kind"])
    def test_design_section_refused_before_its_graph(self, tmp_path, monkeypatch,
                                                      graph, kind, named):
        import tracemalloc

        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                experiments.resolve_design({"kind": kind, "sizes": [2, 2], "n": 5,
                                            "graph": graph}, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == named
        assert peak < 1 << 20

    def test_estimate_section_sets_the_quantile(self):
        X = np.random.default_rng(4).standard_normal((30, 8))
        X[:, 1] += X[:, 0]
        for alpha in (0.5, 0.9):
            g = experiments.penalty_graph({"estimate": alpha}, X, None, None)
            assert np.array_equal(g._edge_array(),
                                  estimate_graph_from_data(X, alpha)._edge_array())

    def test_unknown_optimizer_refused_before_any_walk(self, monkeypatch):
        def no_walks(*args, **kwargs):
            raise AssertionError("a walk table was simulated")

        monkeypatch.setattr(experiments, "simulate_heat_flow", no_walks)
        X = np.ones((4, 2))
        g = sample_block_graph([1, 1], 0.0, 0.0)
        with pytest.raises(ValueError, match='optimizer must be "sd" or "cd", got "bogus"'):
            experiments.fit_with_config(X, X[:, 0], g, {"t": 0.5}, 1, "bogus")


@pytest.mark.parametrize("error, code", [
    (CliError("bad usage"), 1),
    (HeatLassoError("bad input"), 1),
    (ValueError("bad value"), 1),
    (NonFiniteObjective("objective is not finite"), 2),
])
def test_exit_code_per_error(monkeypatch, capsys, error, code):
    import heatlasso.cli as cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_verify", failing)
    assert main(["verify"]) == code
    assert str(error) in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_aggregate_row(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg_path.write_text(json.dumps(small_sim_config(out, repeats=3)))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        assert rows[0][:2] == ["repeat", "optimizer"]
        body = rows[1:]
        assert len(body) == 4  # 3 repeats + 1 mean
        assert body[-1][0] == "mean"
        # noiseless unpenalized recovery
        assert float(body[-1][4]) <= 1e-4
        for r in range(3):
            assert (out / f"dataset_{r:03d}.csv").exists()
            assert (out / f"fit_{r:03d}_sd.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert len(manifest["seeds"]["repeats"]) == 3

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg_path.write_text(json.dumps(small_sim_config(out1)))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["simulate", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()

    def test_seed_flag_overrides_the_design_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_sim_config(tmp_path / "a", repeats=1)))
        assert main(["simulate", "--config", str(cfg_path), "--seed", "12",
                     "--out", str(tmp_path / "b")]) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["design"]["seed"] == manifest["seeds"]["base"] == 12
        assert manifest["seeds"]["repeats"] == [experiments._derived_seed(12, 0xD5, 0)]

    def test_failed_write_removes_what_the_run_wrote(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "fit_001_sd.json").mkdir(parents=True)  # the second repeat's fit cannot be written
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_sim_config(out, repeats=2)))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "fit_001_sd.json" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["fit_001_sd.json"]

    def test_failed_run_cleans_up_a_file_already_gone(self, tmp_path, monkeypatch):
        # the sidecar writer deletes the dataset CSV the run wrote, then fails:
        # its error propagates, and the cleanup passes over the missing file
        def lose_the_dataset(path, *args):
            os.remove(tmp_path / "run" / "dataset_000.csv")
            raise RuntimeError("sidecar failed")

        monkeypatch.setattr(experiments, "write_dataset_sidecar", lose_the_dataset)
        cfg = small_sim_config(tmp_path / "run", repeats=1)
        cfg["fit"]["max_iters"] = 5
        with pytest.raises(RuntimeError, match="sidecar failed"):
            experiments.run_experiment(cfg, str(tmp_path / "run"))
        assert os.listdir(tmp_path / "run") == []

    def test_failed_run_removes_a_partly_written_file(self, tmp_path, monkeypatch):
        # the sidecar writer writes part of its file, then fails: the cleanup
        # removes the partial sidecar with the dataset CSV written before it
        def write_part(path, *args):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(experiments, "write_dataset_sidecar", write_part)
        cfg = small_sim_config(tmp_path / "run", repeats=1)
        cfg["fit"]["max_iters"] = 5
        with pytest.raises(OSError, match="disk full"):
            experiments.run_experiment(cfg, str(tmp_path / "run"))
        assert os.listdir(tmp_path / "run") == []

    def test_memory_does_not_grow_with_repeats(self, tmp_path):
        # each repeat's files are written when it ends, so 8 repeats of a
        # design with n = 1000 (0.8 MB of X each) peak where 1 repeat does
        def peak(repeats, name):
            cfg = small_sim_config(tmp_path / name, repeats=repeats)
            cfg["design"].update(sizes=[50, 50], n=1000)
            cfg["fit"].update(B=5, max_iters=3)
            tracemalloc.start()
            try:
                experiments.run_experiment(cfg, str(tmp_path / name))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, "warm-up")  # the first run allocates caches that later runs reuse
        assert peak(8, "eight") - peak(1, "one") <= 1e5

    @pytest.mark.parametrize("text", [None, "not json"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot load config {cfg_path}: ")
        assert not (tmp_path / "run").exists()

    def test_bad_config_exits_one_and_cleans_up(self, tmp_path):
        cfg = small_sim_config(tmp_path / "run")
        cfg["design"]["kind"] = "no_such_design"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        run_dir = tmp_path / "run"
        assert not run_dir.exists() or not any(run_dir.iterdir())

    @pytest.mark.parametrize("field, value", [("max_iters", 50.0), ("B", 20.0)])
    def test_float_integer_field_exits_one(self, tmp_path, capsys, field, value):
        cfg = small_sim_config(tmp_path / "run")
        cfg["fit"][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert f"error: fit.{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key", [
        ("fit", "max_iter"), ("fit.cd", "rate"), ("fit.cv", "fold")])
    def test_unknown_fit_key_exits_one(self, tmp_path, capsys, monkeypatch, block, key):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(optimize, "_cd_lockstep", no_fit)
        cfg = small_sim_config(tmp_path / "run")
        cfg["fit"]["cv"] = {"lambda_grid": [0.0], "t_grid": [0.5], "folds": 2}
        cfg["fit"]["cd"] = {"block_size": 4}
        section = cfg["fit"]
        for part in block.split(".")[1:]:
            section = section[part]
        section[key] = 5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert f"unknown fit config keys: {block}.{key}" in capsys.readouterr().err
        run_dir = tmp_path / "run"
        assert not run_dir.exists() or not any(run_dir.iterdir())

    @pytest.mark.parametrize("where, key, value, named", [
        ("design", "sizes", [4, 6.9], "design.sizes[1] must be an integer, got 6.9"),
        ("design", "n", 40.7, "n must be an integer"),
        ("fit.cv", "folds", 2.9, "folds must be an integer"),
        ("fit.cv", "max_iters", 10.5, "max_iters must be an integer"),
        ("", "repeats", 2.0, "repeats must be an integer"),
        ("design", "noize", 0.1, "design.noize"),
        ("", "repeat", 3, "keys: repeat"),
        ("design.graph", "bb", 0.1, "design.graph.bb"),
        ("graph", "alpha", 0.5, "graph.alpha"),
        # a section or value of the wrong JSON type
        ("", None, [1], "the config must be an object, got [1]"),
        ("", "design", "x", 'design must be an object, got "x"'),
        ("", "fit", "x", 'fit must be an object, got "x"'),
        ("", "fit", [1], "fit must be an object, got [1]"),
        ("fit.cv", "lambda_grid", 0.1, "fit.cv.lambda_grid must be a list, got 0.1"),
        ("fit", "cv", "x", 'fit.cv must be an object or null, got "x"'),
        ("fit", "optimizer", ["sd"], 'fit.optimizer must be "sd", "cd" or "both"'),
        ("design", "rhos", 0.5, "design.rhos must be a list, got 0.5"),
        ("design", "sizes", 4, "design.sizes must be a list, got 4"),
        ("design", "beta_scheme", 1, "design.beta_scheme must be a list, got 1"),
        ("fit", "lam", "0.1", 'fit.lam must be a number, got "0.1"'),
        ("fit", "sd", "x", 'fit.sd must be an object, got "x"'),
        ("design", "seed", 5.7, "design.seed must be an integer, got 5.7"),
        ("design", "seed", "5", 'design.seed must be an integer, got "5"'),
        ("design", "noise_sigma", True, "design.noise_sigma must be a number, got true"),
        ("design.graph", "sizes", [4, 4.6], "design.graph.sizes[1] must be an integer, got 4.6"),
        ("design.graph", "self_loops", "false",
         'design.graph.self_loops must be true or false, got "false"'),
        ("fit", "optimizer", "bogus", 'fit.optimizer must be "sd", "cd" or "both", got "bogus"'),
        ("design", "theta", "abc", 'design.theta must be a number, "auto" or null, got "abc"'),
        ("graph", "estimate", "x", 'graph.estimate must be a number, got "x"'),
        ("", "graph", 3, "graph must be a string, null or an object, got 3"),
        ("", "graph", 0, "graph must be a string, null or an object, got 0"),
        ("", "graph", True, "graph must be a string, null or an object, got true"),
        # a required key that is missing
        ("design", "kind", MISSING, "design.kind is required"),
        ("design", "n", MISSING, "design.n is required"),
        ("design.graph", "a", MISSING, "design.graph.a and design.graph.b are required"),
        ("fit.cv", "t_grid", MISSING, "fit.cv.t_grid is required"),
        # well typed, refused by meaning
        ("", "repeats", 0, "repeats must be an integer >= 1, got 0"),
        ("", "graph", {}, "unrecognized graph section {}"),
        ("design", "kind", "gff", "gff design config needs a 'graph' subsection"),
        ("design", "beta_scheme", [["gauss", 0.5], ["zero"]],
         "unknown beta scheme ['gauss', 0.5]"),
        ("design", "beta_scheme", [["uniform", 0.5, 0.7]],
         "beta_scheme needs one scheme per group, got 1 for 2 groups"),
        ("design", "beta_scheme", [["uniform", 0.7, 0.5], ["zero"]],
         "beta scheme ['uniform', 0.7, 0.5]: hi must be finite and >= 0.7, got 0.5"),
        ("design", "beta_scheme", [["uniform", 0.5], ["zero"]],
         "beta scheme ['uniform', 0.5] must be ('uniform', lo, hi) or ('zero',)"),
        # a graph section that names two sources
        ("graph", "path", "g.txt", "a graph section names one source, got estimate, path"),
        ("design.graph", "path", "g.txt",
         "design.graph with a path takes no other key, got a, b, path"),
    ])
    def test_bad_experiment_config_exits_one(self, tmp_path, capsys, monkeypatch,
                                             where, key, value, named):
        def no_walks(*args, **kwargs):
            raise AssertionError("a walk table was simulated")

        for module in (experiments, optimize):
            monkeypatch.setattr(module, "simulate_heat_flow", no_walks)
        cfg = small_sim_config(tmp_path / "run")
        cfg["fit"]["cv"] = {"lambda_grid": [0.0], "t_grid": [0.5], "folds": 2}
        if where == "design.graph":
            cfg["design"]["graph"] = {"a": 0.9, "b": 0.05}
        if where == "graph":
            cfg["graph"] = {"estimate": 0.75}
        section = cfg
        for part in filter(None, where.split(".")):
            section = section[part]
        if key is None:
            cfg = value
        elif value is MISSING:
            del section[key]
        else:
            section[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # a graph on stdin, which a graph given as a file descriptor would read
        stdin_path = tmp_path / "stdin.txt"
        stdin_path.write_text("p 8\n0 1\n")
        saved = os.dup(0)
        try:
            with open(stdin_path, encoding="utf-8") as fh:
                os.dup2(fh.fileno(), 0)
            assert main(["simulate", "--config", str(cfg_path)]) == 1
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert named in capsys.readouterr().err
        run_dir = tmp_path / "run"
        assert not run_dir.exists() or not any(run_dir.iterdir())

    @pytest.mark.parametrize("changes", [
        {"fit.cv": {"lambda_grid": [0, 0.1], "t_grid": [0.5, 1], "folds": 2}},
        {"fit.cd": {"block_size": None}, "fit.optimizer": "both"},
        {"design.noise_sigma": MISSING},
        {"graph": "g.txt"},
        {**GFF_DESIGN, "design.theta": "auto"},
        {**GFF_DESIGN, "design.theta": None},
        GFF_DESIGN,
        {**GFF_DESIGN, "design.graph": {"path": "g.txt"}},
    ])
    def test_well_typed_config_runs(self, tmp_path, monkeypatch, changes):
        from heatlasso.graphs import group_clique_graph, write_graph

        monkeypatch.chdir(tmp_path)
        write_graph(group_clique_graph([4, 4]), "g.txt")
        cfg = small_sim_config(tmp_path / "run", repeats=1)
        cfg["fit"]["max_iters"] = 20
        for dotted, value in changes.items():
            *parents, key = dotted.split(".")
            section = cfg
            for part in parents:
                section = section[part]
            if value is MISSING:
                del section[key]
            else:
                section[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_gff_design_with_auto_mass_and_design_graph(self, tmp_path):
        config = {
            "design": {"kind": "gff", "sizes": [5, 5], "n": 60,
                       "noise_sigma": 0.1, "seed": 11, "theta": "auto",
                       "beta_scheme": [["uniform", 0.5, 0.7], ["zero"]],
                       "graph": {"a": 0.9, "b": 0.05}},
            "graph": "from-design",
            "fit": {"optimizer": "both", "lam": 0.01, "t": 0.5, "B": 50,
                    "alpha0": 0.3, "rate_protocol": "constant",
                    "max_iters": 200, "eps_tol": 1e-9},
            "repeats": 2,
            "output": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        rows = list(csv.reader((tmp_path / "run" / "metrics.csv").read_text().splitlines()))
        # 2 repeats x 2 optimizers + 2 aggregate rows
        assert len(rows) == 1 + 2 * 2 + 2

    def test_graph_from_path_section(self, tmp_path):
        from heatlasso.graphs import group_clique_graph, write_graph

        gpath = tmp_path / "g.txt"
        write_graph(group_clique_graph([4, 4]), gpath)
        config = small_sim_config(tmp_path / "run")
        config["graph"] = {"path": str(gpath)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path)]) == 0


class TestCV:
    def test_cv_selects_and_refits(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 60
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        y = 2 * x1 + 2 * x2 + 0.05 * rng.standard_normal(n)
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2", "x3"])
            for i in range(n):
                writer.writerow([y[i], x1[i], x2[i], x3[i]])
        out = tmp_path / "out"
        code = main(["cv", str(data), "--lambdas", "0,1000000", "--ts", "0.5",
                     "--folds", "3", "--estimate-graph", "--alpha0", "0.3",
                     "--rate", "constant", "--max-iters", "200",
                     "--out", str(out)])
        assert code == 0
        cv = json.loads((out / "cv.json").read_text())
        assert cv["best_lam"] == 0.0
        assert len(cv["table"]) == 2

    @pytest.mark.parametrize("lambdas, ts, message", [
        ("0.1,abc", "0.5", "error: --lambdas item 2 is not a number: 'abc'"),
        ("0.1", "0.5,,1", "error: --ts item 2 is not a number: ''"),
        ("x", "0.5", "error: --lambdas item 1 is not a number: 'x'"),
    ])
    def test_bad_grid_item_exits_one(self, tmp_path, capsys, lambdas, ts, message):
        data = write_toy_csv(tmp_path / "d.csv")
        out = tmp_path / "out"
        assert main(["cv", str(data), "--lambdas", lambdas, "--ts", ts,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()


class TestLevelset:
    def test_svg_panel_count_and_size(self, tmp_path):
        out = tmp_path / "ball.svg"
        code = main(["levelset", "--t", "0,0.5,50", "--out", str(out),
                     "--grid", "61"])
        assert code == 0
        svg = out.read_text()
        assert svg.count('<path class="contour"') == 3
        assert svg.count("<rect") == 3

    def test_time_zero_is_the_l1_diamond(self):
        pts = levelset_points(0.0, 101)
        l1 = np.abs(pts).sum(axis=1)
        assert np.abs(l1 - 1.0).max() < 1e-6

    def test_long_time_is_the_group_ball(self):
        pts = levelset_points(50.0, 101)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.abs(radii - 1 / np.sqrt(2)).max() < 1e-3

    def test_shapes_interpolate(self):
        # the contour shrinks from the diamond toward the group ball along
        # the axes and stays put on the diagonal direction
        def axis_crossing(t):
            pts = levelset_points(t, 121)
            on_axis = pts[np.abs(pts[:, 1]) < 1e-9]
            return np.abs(on_axis[:, 0]).max()

        xs = [axis_crossing(t) for t in (0.01, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert xs[0] == pytest.approx(1.0, abs=0.1)
        assert xs[-1] == pytest.approx(1 / np.sqrt(2), abs=0.05)

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 50.0])
    def test_every_point_has_unit_penalty(self, t):
        K = exact_heat_kernel(figure_graph(), t)
        pts = levelset_points(t, 201)
        values = [penalty_value(np.append(pt, 0.0), K) for pt in pts]
        assert np.abs(np.array(values) - 1.0).max() <= 1e-12

    def test_contour_is_closed(self, tmp_path):
        pts = levelset_points(0.5, 201)
        assert pts.shape == (201, 2)
        assert np.abs(pts[0] - pts[-1]).max() <= 1e-12
        out = tmp_path / "ball.svg"
        assert main(["levelset", "--t", "0.5", "--out", str(out), "--grid", "5"]) == 0
        d = re.search(r'<path class="contour" d="([^"]*)"', out.read_text()).group(1)
        assert d.startswith("M ") and d.endswith(" Z") and d.count("L") == 1
        assert len(d[2:-2].replace("L ", "").split()) == 2 * 5

    def test_negative_flow_time_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ball.svg"
        assert main(["levelset", "--t", "0,-1", "--out", str(out)]) == 1
        assert "t must be finite and >= 0, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flow_time_item_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ball.svg"
        assert main(["levelset", "--t", "0,x", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == "error: --t item 2 is not a number: 'x'"
        assert not out.exists()

    def test_too_few_points_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ball.svg"
        assert main(["levelset", "--t", "0.5", "--out", str(out), "--grid", "2"]) == 1
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()


class TestEstimateGraphCommand:
    def test_from_dataset(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv", seed=6)
        out = tmp_path / "g.txt"
        assert main(["estimate-graph", str(data), "--alpha", "0.5",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("p 2")

    def test_from_correlation_csv(self, tmp_path):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.95
        corr_path = tmp_path / "corr.csv"
        np.savetxt(corr_path, corr, delimiter=",")
        out = tmp_path / "g.txt"
        assert main(["estimate-graph", "--corr", str(corr_path),
                     "--alpha", "0.5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["p 3", "0 1"]

    def test_bad_correlation_csv_is_named(self, tmp_path, capsys):
        corr_path = tmp_path / "corr.csv"
        corr_path.write_text("1,0.5,x\n0.5,1,0\nx,0,1\n")
        assert main(["estimate-graph", "--corr", str(corr_path),
                     "--out", str(tmp_path / "g.txt")]) == 1
        assert capsys.readouterr().err == (f"error: {corr_path}: could not convert string "
                                           f"'x' to float64 at row 0, column 3.\n")
        assert not (tmp_path / "g.txt").exists()

    def test_dataset_and_correlation_csv_together_exit_one(self, tmp_path, capsys):
        data = write_toy_csv(tmp_path / "toy.csv", seed=6)
        corr_path = tmp_path / "corr.csv"
        np.savetxt(corr_path, np.eye(2), delimiter=",")
        out = tmp_path / "g.txt"
        assert main(["estimate-graph", str(data), "--corr", str(corr_path),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: give either a dataset CSV or --corr, not both\n"
        assert not out.exists()

    def test_requires_some_input(self, tmp_path, capsys):
        assert main(["estimate-graph", "--out", str(tmp_path / "g.txt")]) == 1
        assert capsys.readouterr().err == "error: give a dataset CSV or --corr matrix\n"

    @pytest.mark.parametrize("source", ["data", "corr"])
    def test_writes_the_graph_the_library_estimates(self, tmp_path, source):
        # eight columns in three correlated sets; savetxt's digits read back exactly
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))[:, [0, 0, 1, 1, 2, 2, 0, 1]]
        X += 0.5 * rng.standard_normal(X.shape)
        path = tmp_path / f"{source}.csv"
        if source == "data":
            np.savetxt(path, np.column_stack([X[:, 0], X]), delimiter=",", comments="",
                       header=",".join(["y"] + [f"x{j}" for j in range(8)]))
            args, g = [str(path)], estimate_graph_from_data(X, 0.7)
        else:
            corr = np.corrcoef(X, rowvar=False)
            np.savetxt(path, corr, delimiter=",")
            args, g = ["--corr", str(path)], estimate_graph(corr, 0.7)
        out, want = tmp_path / "g.txt", tmp_path / "want.txt"
        assert main(["estimate-graph", *args, "--alpha", "0.7", "--out", str(out)]) == 0
        assert 0 < g.edge_count < 28
        write_graph(g, want)
        assert out.read_bytes() == want.read_bytes()


def test_verify_battery_passes():
    assert main(["verify", "--seed", "0"]) == 0


def test_read_dataset_csv_roundtrip(tmp_path):
    data = write_toy_csv(tmp_path / "toy.csv", n=10, seed=11)
    y, X = read_dataset_csv(data)
    assert y.shape == (10,) and X.shape == (10, 2)


def test_read_dataset_csv_matches_float_parsing(tmp_path):
    # the one-call parser against csv + float(), bit for bit, with a blank
    # line, CRLF ends, spaces, a quoted header and awkward values
    rows = [["1.5", "-0.0", "5e-324", " 2 "], ["nan", "1e16", "-inf", "0.1"],
            ["3", "1e400", "-1e-400", "+7"]]
    path = tmp_path / "d.csv"
    path.write_text('"y","x1","x2","x3"\r\n' + "\r\n".join(",".join(r) for r in rows[:2])
                    + "\r\n\r\n" + ",".join(rows[2]) + "\r\n", encoding="utf-8")
    y, X = read_dataset_csv(path)
    want = np.array([[float(v) for v in r] for r in rows])
    assert y.tobytes() == want[:, 0].tobytes()
    assert X.tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()


@pytest.mark.parametrize("body, message", [
    ("y,x1\n", "got 0"),
    ("y,x1\n\n \n", "row 3 has 1 fields"),
    ("y,x1\n1,2\n", "got 1"),
    ("y,x1,x2\n1,2\n3,4\n", "row 2 has 2 fields, header has 3"),
    ("y,x1\n1,2\n3,abc\n", "row 3: could not convert"),
    ("y,x1\n1,2\n3,4 # note\n", "row 3: could not convert"),
    ("y\n1\n2\n", "header row"),
    ("", "header row"),
    # float() takes these, so numpy's message is raised, with the file named
    ("y,x1\n1,2\n3,4_0\n", r"d\.csv: could not convert string '4_0' to float64"),
    ("y,x1\n1,2\n3,\u0664\n", "d\\.csv: could not convert string '\u0664' to float64"),
])
def test_read_dataset_csv_errors_name_the_row(tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(CliError, match=message):
        read_dataset_csv(path)


@pytest.mark.parametrize("data", [b"y,x1\n1,2\n3,4\xff\n", b"y,x\xff\n1,2\n3,4\n"])
def test_read_dataset_csv_that_is_not_utf8_is_named(tmp_path, data):
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    with pytest.raises(CliError, match="can't decode byte 0xff") as info:
        read_dataset_csv(path)
    assert str(info.value).startswith(f"{path}:")


def test_read_dataset_csv_quoted_numbers(tmp_path):
    # loadtxt's quotechar takes quoted numbers as csv does
    path = tmp_path / "d.csv"
    path.write_text('y,x1\n"1.0",2\n3,"4"\n', encoding="utf-8")
    y, X = read_dataset_csv(path)
    assert y.tolist() == [1.0, 3.0] and X.tolist() == [[2.0], [4.0]]
