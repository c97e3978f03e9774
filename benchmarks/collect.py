"""Run the benchmark over several seeds and summarise it, from the repository root.

    python3 benchmarks/collect.py --seeds 1,2,3,4,5,6,7,8,9,10 --out FILE

For each workload in BENCHMARK.json it runs the command untraced once per
seed, one after another, then traced once on the first seed. It writes
every result plus, per end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median (the spread), and prints the spreads with each metric's bound. It
also compares the walk-table hashes of the untraced and the traced run on
the first seed (determinism across processes) and exits 1 if any differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    out = subprocess.run(bench["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(bench["run_seconds"]),
                                             "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])
    result["seed"] = seed
    result["stderr"] = out.stderr.strip().splitlines()
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    mismatches = []
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, name, seed, 0))
            print(name, seed, runs[-1]["correct"],
                  {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        summary = {m["name"]: {**summarise([r["metrics"][m["name"]]["value"] for r in runs]),
                               "unit": m["unit"], "bound": m["bound"]}
                   for m in bench["end_to_end"]}
        for metric, s in summary.items():
            print(f"  {metric:14s} median {s['median']:.5g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        traced = run_once(bench, name, seeds[0], 1)
        plain_tables = runs[0]["info"]["walk_tables"]
        traced_tables = traced["info"]["walk_tables"]
        differ = sorted(k for k, v in plain_tables.items() if traced_tables.get(k) != v)
        mismatches += [f"{name}: {k}" for k in differ]
        print(f"  walk tables: {len(plain_tables)} from the untraced run, "
              f"{len(differ)} differ in the traced run", flush=True)
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced,
                                     "determinism": {"compared": len(plain_tables),
                                                     "differ": differ}}
        report["environment"] = runs[0]["info"]["environment"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for msg in mismatches:
        print(f"FAILED: walk table differs between traced and untraced runs: {msg}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
