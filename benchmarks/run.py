"""heatlasso benchmark: one workload per process, run from the repository root.

    python3 benchmarks/run.py --workload block_cv --seed 1 --seconds 30 --trace 0

The workload's inputs are made from --seed. Units of work run back to back
(a closed loop, one client) until the next unit would end after --seconds;
unit 0 is the cold unit. With --trace 0 the last stdout line is a JSON
object holding the end-to-end metrics; set-up is timed in fresh
interpreters between the units. With --trace 1 the run alternates
traced and untraced units, starting traced, and reports the per-layer
metrics read from the spans, plus the tracing overhead. Outputs, a run
record and the spans go to .bench_out/. Exit code 0 after a run (its checks
are in the result), 2 when the run cannot start.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# One BLAS thread (the environment must be set before numpy loads): the
# benchmark is a single-threaded baseline that leaves the other core idle.
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# One set-up, as a user meets it: a fresh interpreter imports heatlasso and
# makes the workload's inputs. argv: benchmark dir, workload, seed, out dir, tiny.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
bench, name, seed, out, tiny = sys.argv[1:]
sys.path[:0] = [bench, 'src']
from workloads import WORKLOADS
WORKLOADS[name](int(seed), out, tiny == '1').generate()
print(time.perf_counter() - t0)
"""
SETUP_REPEATS = 7
QUALITY = ("pred_error", "sensitivity", "specificity", "objective")
# pred_error and objective are recorded but not bounded: between designs
# (seeds) pred_error varies by about 30%, and on block_cv the objective
# jumps by up to half when cross-validation picks another lambda.
END_TO_END = {"setup_s": "s", "solve_s": "s", "cold_solve_s": "s",
              "peak_rss_mb": "MB", "sensitivity": "fraction",
              "specificity": "fraction"}


class SetupProbes:
    """SETUP_REPEATS fresh-process set-ups, spread evenly over the measured
    stretch so that their median sees the machine as the units do."""

    def __init__(self, args, root, out_dir):
        bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.argv = [sys.executable, "-c", SETUP_PROBE, bench_dir, args.workload,
                     str(args.seed), out_dir + "_setup", "1" if args.tiny else "0"]
        self.root = root
        self.times = []
        self.spent = 0.0  # wall time taken by the probes themselves

    def probe(self):
        t0 = time.perf_counter()
        out = subprocess.run(self.argv, cwd=self.root, capture_output=True,
                             text=True, check=True, timeout=120)
        self.times.append(float(out.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - t0

    def due(self, elapsed, seconds):
        """Run the probes due by `elapsed` seconds of units out of `seconds`."""
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= len(self.times) * seconds / SETUP_REPEATS):
            self.probe()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


def environment(root):
    import numpy as np

    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def measure(wl, seconds, tracer, probes):
    """Run units until the next would end after `seconds` of unit time (at
    least wl.min_units), with the set-up probes in between when untraced.
    Returns a record per unit, the good units' outcomes and the walk-table
    hashes: those of the traced stretches, or, untraced, those of unit 0."""
    import spans

    records, outcomes = [], []
    recorder = None if tracer else spans.TableRecorder()
    start = time.perf_counter()
    i = 0
    while True:
        if probes is not None:
            probes.due(time.perf_counter() - start - probes.spent, seconds)
        traced = tracer is not None and i % 2 == 0
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with tracer.span("unit", unit=i):
                    outcome = wl.unit(i)
            elif i == 0 and recorder is not None:
                with recorder.recording():
                    outcome = wl.unit(i)
            else:
                outcome = wl.unit(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"unit {i}: {type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        records.append({"unit": i, "kind": wl.kind(i), "traced": traced,
                        "seconds": took, "cpu_seconds": time.process_time() - c0,
                        "error": error})
        if error is None:
            outcomes.append(outcome)
        i += 1
        unit_time = time.perf_counter() - start - (probes.spent if probes else 0.0)
        if i >= wl.min_units and unit_time + took > seconds:
            tables = recorder.tables if recorder else tracer.tables
            return records, outcomes, tables


def overhead_pct(records):
    """Traced vs untraced median unit time, over the good non-cold units
    (over all good units when one side has none)."""
    good = [r for r in records if not r["error"]]
    for pool in ([r for r in good if r["kind"] != "cold"], good):
        traced = [r["seconds"] for r in pool if r["traced"]]
        plain = [r["seconds"] for r in pool if not r["traced"]]
        if traced and plain:
            return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return float("nan")


def run(args, root):
    import resource

    import numpy as np

    import spans
    from workloads import WORKLOADS

    out_dir = os.path.join(root, ".bench_out",
                           f"{args.workload}_seed{args.seed}_trace{args.trace}")
    tracer = spans.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, out_dir, args.tiny)
    if tracer is not None:
        with tracer.span("setup", unit="setup"):
            wl.generate()
        probes = None
    else:
        wl.generate()
        probes = SetupProbes(args, root, out_dir)
    records, outcomes, tables = measure(wl, args.seconds, tracer, probes)
    setup_seconds = probes.median() if probes else None

    failures = [r["error"] for r in records if r["error"]]
    try:
        if tracer is not None:
            with tracer.span("check", unit="check"):
                failures += wl.finish(outcomes)
        else:
            failures += wl.finish(outcomes)
    except Exception as exc:  # a check that cannot run is a failed check
        failures.append(f"output checks: {type(exc).__name__}: {exc}")

    quality = wl.quality(outcomes) if outcomes else [float("nan")] * len(QUALITY)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(root), "seeds": wl.seeds(),
              "setup_seconds": setup_seconds,
              "setup_samples": probes.times if probes else None, "units": records,
              "quality": dict(zip(QUALITY, (float(v) for v in quality)))}
    if outcomes and "per_optimizer" in outcomes[0]:
        record["per_optimizer"] = {
            name: dict(zip(QUALITY, np.mean([o["per_optimizer"][name] for o in outcomes],
                                            axis=0).tolist()))
            for name in outcomes[0]["per_optimizer"]}
    if tracer is not None:
        failures += spans.determinism_failures(tracer)
        metrics = spans.layer_metrics(
            tracer, {r["unit"]: r["kind"] for r in records if r["traced"]})
        metrics["trace_overhead_pct"] = (overhead_pct(records), "%")
        tracer.write(out_dir + ".spans.json.gz")
    else:
        # A "solve" unit stores no table, so it counts for both metrics (unit 0
        # is measured no slower than later units). Failed units are left out.
        good = [r for r in records if not r["error"]]
        solve = [r["seconds"] for r in good if r["kind"] != "cold"]
        cold = [r["seconds"] for r in good if r["kind"] != "warm"]
        values = {
            "setup_s": setup_seconds,
            "solve_s": statistics.median(solve) if solve else float("nan"),
            "cold_solve_s": statistics.median(cold) if cold else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **record["quality"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        record["samples"] = {"solve_s": len(solve), "cold_solve_s": len(cold)}

    record["walk_tables"] = {spans.table_label(k): v for k, v in tables.items()}
    failed = sum(1 for r in records if r["error"])
    record["error_rate"] = failed / len(records)
    record["failures"], record["warnings"] = failures, wl.warnings
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(out_dir + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for msg in wl.warnings:
        print(f"WARNING: {msg}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "seeds", "quality",
                                             "error_rate", "walk_tables")}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("block_cv", "wide_graph", "refit_stored"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heatlasso", "__init__.py")):
        print("error: run from the root of a heatlasso checkout "
              "(src/heatlasso not found)", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, os.path.join(root, "src"))
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
