"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 benchmarks/selftest.py

For every workload it runs the benchmark command untraced and traced with
--tiny and checks that the result is correct, that it holds exactly the
metrics BENCHMARK.json names, each with its unit, and that in the written
spans every self time is non-negative and the self times under each
top-level span add up to that span's duration, and that the walk tables
of the untraced run hash the same in the traced run. It also checks that the
command refuses to run outside a heatlasso checkout. Exits 1 on any failure.
"""

import gzip
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "run.py")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.dirname(RUN))

import spans  # noqa: E402


def run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def span_failures(path):
    """Self times must be >= 0 and sum, per top-level span, to its duration."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    tracer = spans.Tracer()
    tracer.names, tracer.spans = data["names"], data["spans"]
    own = tracer.self_times()
    root_of = []
    for i, span in enumerate(tracer.spans):
        root_of.append(i if span[3] < 0 else root_of[span[3]])
    total = {}
    for i, ns in enumerate(own):
        total[root_of[i]] = total.get(root_of[i], 0) + ns
    failures = [f"{path}: span {i} has negative self time {ns} ns"
                for i, ns in enumerate(own) if ns < 0]
    failures += [f"{path}: self times under span {r} sum to {ns} ns, not its "
                 f"{tracer.spans[r][2] - tracer.spans[r][1]} ns"
                 for r, ns in total.items()
                 if ns != tracer.spans[r][2] - tracer.spans[r][1]]
    if not any(s[3] >= 0 for s in tracer.spans):
        failures.append(f"{path}: no nested spans recorded")
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        tables = []
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if out.returncode != 0:
                failures.append(f"{tag}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            tables.append(json.loads(lines[-2])["walk_tables"])
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: not correct: {out.stderr[-500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                failures.append(f"{tag}: metrics {got} differ from BENCHMARK.json {want}")
            if trace:
                failures += span_failures(os.path.join(
                    OUT, f"{workload}_seed3_trace1.spans.json.gz"))
        if len(tables) == 2 and (not tables[0] or any(
                tables[1].get(k) != v for k, v in tables[0].items())):
            failures.append(f"{workload}: walk tables of the untraced run are "
                            f"missing or differ in the traced run")
    empty = os.path.join(OUT, "selftest_empty")
    os.makedirs(empty, exist_ok=True)
    out = run("block_cv", 0, cwd=empty)
    if out.returncode == 0 or out.stdout.strip():
        failures.append("the command ran outside a heatlasso checkout")
    for msg in failures:
        print(f"FAILED: {msg}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
