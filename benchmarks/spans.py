"""Span recording for the traced benchmark run.

Inside `Tracer.span()`, selected heatlasso functions are replaced by wrappers
that record one span per call: name, start, end, parent span and unit id. Each
function is replaced in every namespace that binds it (the defining module,
modules that imported it by name, the package, and
`experiments._OPTIMIZERS`, which holds the optimizers by value), so a call
is seen whichever name it goes through. Leaving the span restores the
originals. Spans stay in memory until `write()`.

`TableRecorder` binds the same way, but only a wrapper of
`simulate_heat_flow` that hashes each table it returns; the untraced run
uses it to record walk-table hashes for the cross-process determinism check.
"""

import gzip
import hashlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_perf_ns = time.perf_counter_ns

# (span name, module, attribute) of every wrapped function.
WRAPPED = (
    ("designs.sample", "heatlasso.designs", "sample_design_and_response"),
    ("graphs.estimate", "heatlasso.graphs", "estimate_graph"),
    ("heatflow.simulate", "heatlasso.heatflow", "simulate_heat_flow"),
    ("heatflow.apply", "heatlasso.heatflow", "heatflow_apply"),
    ("heatflow.save", "heatlasso.heatflow", "save_heatflow"),
    ("heatflow.load", "heatlasso.heatflow", "load_heatflow"),
    ("penalty.value", "heatlasso.penalty", "penalty_value"),
    ("optimize.loss", "heatlasso.optimize", "loss_and_grad"),
    ("optimize.loss", "heatlasso.optimize", "_loss_from_linear"),
    ("optimize.threshold", "heatlasso.optimize", "threshold_kmeans"),
    ("optimize.sd", "heatlasso.optimize", "subgradient_descent"),
    ("optimize.cd", "heatlasso.optimize", "block_cd"),
    ("optimize.cv", "heatlasso.optimize", "cross_validate"),
    ("experiments.run", "heatlasso.experiments", "run_experiment"),
    ("experiments.fit", "heatlasso.experiments", "fit_with_config"),
    ("experiments.graph", "heatlasso.experiments", "_estimated_graph"),
    ("cli.read_csv", "heatlasso.cli", "read_dataset_csv"),
    ("cli.main", "heatlasso.cli", "main"),
)


def table_hash(H):
    """sha256 of a walk table's terminals."""
    return hashlib.sha256(H.terminals.tobytes()).hexdigest()


def graph_hash(g):
    flat, offsets = g.flat_adjacency()
    h = hashlib.sha256(offsets.tobytes())
    h.update(flat.tobytes())
    return h.hexdigest()


def table_key(args, kwargs):
    """(graph hash, t, B, seed) of a simulate_heat_flow call."""
    g = args[0]
    t, B = args[1:3] if len(args) >= 3 else (args[1], kwargs["B"])
    seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
    return graph_hash(g), float(t), int(B), int(seed)


def table_label(key):
    g, t, B, seed = key
    return f"graph {g[:16]} t={t} B={B} seed={seed}"


def bind(original, replacement):
    """Bind `replacement` wherever heatlasso binds `original`: every heatlasso
    module and `experiments._OPTIMIZERS`. Returns the undo records."""
    import heatlasso.experiments as experiments

    namespaces = [vars(m) for k, m in sys.modules.items()
                  if m is not None and (k == "heatlasso" or k.startswith("heatlasso."))]
    patched = []
    for namespace in namespaces + [experiments._OPTIMIZERS]:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                patched.append((namespace, key, original))
    return patched


def unbind(patched):
    for namespace, key, original in reversed(patched):
        namespace[key] = original


class TableRecorder:
    """Hashes every walk table simulate_heat_flow returns inside `recording()`."""

    def __init__(self):
        self.tables = {}  # (graph hash, t, B, seed) -> table hash

    @contextmanager
    def recording(self):
        original = sys.modules["heatlasso.heatflow"].simulate_heat_flow

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.tables.setdefault(table_key(args, kwargs), table_hash(result))
            return result

        patched = bind(original, wrapper)
        try:
            yield
        finally:
            unbind(patched)


def _attrs(name, args, kwargs, result):
    """Counts recorded with a span, read off the call's arguments and result."""
    if name == "graphs.estimate":
        return {"edges": result.edge_count}
    if name == "heatflow.simulate":
        return {"steps": result.total_steps}
    if name in ("heatflow.save", "heatflow.load"):
        H = args[0] if name == "heatflow.save" else result
        return {"bytes": 4 + 32 + H.terminals.size * 4}  # magic, header, i32 table
    if name in ("optimize.sd", "optimize.cd"):
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "optimize.cv":
        lambdas = kwargs["lambda_grid"] if "lambda_grid" in kwargs else args[3]
        ts = kwargs["t_grid"] if "t_grid" in kwargs else args[4]
        return {"cells": len(lambdas) * len(ts)}
    return None


class Tracer:
    """Records spans from wrapped heatlasso functions; one per process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # span = [name id, start ns, end ns, parent index, unit id, attrs]
        self.spans = []
        self._stack = []
        self.unit = None
        self.tables = {}  # (graph hash, t, B, seed) -> table hash
        self.graphs = {}  # the same keys -> graph, to simulate again
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        parent = self._stack[-1] if self._stack else -1
        span = [name_id, _perf_ns(), 0, parent, self.unit, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = _perf_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, unit):
        """Trace a stretch of benchmark code (a set-up, a unit, the checks):
        wrappers are in place only inside it."""
        self._install()
        self.unit = unit
        span = self._open(self._name_id(name))
        try:
            yield span
        finally:
            self._close(span)
            self.unit = None
            self._uninstall()

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[5] = _attrs(name, args, kwargs, result)
            if name == "heatflow.simulate":
                key = table_key(args, kwargs)
                tracer.tables.setdefault(key, table_hash(result))
                tracer.graphs.setdefault(key, args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self):
        """Replace every binding of each WRAPPED function by its wrapper."""
        for name, module_name, attr in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            self._patched += bind(original, self.wrap(name, original))

    def _uninstall(self):
        unbind(self._patched)
        self._patched = []

    def self_times(self):
        """Per span: duration minus the time its direct children cover (ns)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        """Write every span as gzipped JSON."""
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "unit", "attrs"],
            "names": self.names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def determinism_failures(tracer):
    """Simulate every table the traced units built again, in this process with
    tracing off; the terminals must hash the same. (collect.py compares the
    hashes of a traced and an untraced process.)"""
    from heatlasso.heatflow import simulate_heat_flow

    failures = []
    for key, digest in tracer.tables.items():
        _, t, B, seed = key
        if table_hash(simulate_heat_flow(tracer.graphs[key], t, B, seed=seed)) != digest:
            failures.append(f"walk table (t={t}, B={B}, seed={seed}) differs "
                            f"between traced and untraced simulation")
    return failures


def layer_metrics(tracer, unit_kinds):
    """Per-layer metrics from the spans, as {name: (value, unit)}.

    unit_kinds maps each traced unit id to its kind. "Per unit" figures are
    the mean over traced units of each kind, summed over kinds (for
    refit_stored: one cold call plus one warm call). "Per call" figures also
    count the set-up and the output checks. A layer the workload does not
    exercise reads 0.
    """
    own = tracer.self_times()
    calls = defaultdict(lambda: defaultdict(float))   # name -> field -> total
    per_unit = defaultdict(lambda: defaultdict(float))  # unit -> field -> total
    for span, own_ns in zip(tracer.spans, own):
        name, unit = tracer.names[span[0]], span[4]
        fields = {"ns": span[2] - span[1], "calls": 1, "self_ns": own_ns,
                  **(span[5] or {})}
        for field, value in fields.items():
            calls[name][field] += value
            if unit in unit_kinds:
                per_unit[unit][f"{name}.{field}"] += value

    kinds = defaultdict(list)
    for unit, kind in unit_kinds.items():
        kinds[kind].append(unit)

    def unit_sum(key):
        return sum(sum(per_unit[u][key] for u in units) / len(units)
                   for units in kinds.values())

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, field="ns"):
        return ratio(calls[name][field], calls[name]["calls"])

    def over_units(name, field):
        return sum(per_unit[u][f"{name}.{field}"] for u in unit_kinds)

    fits = over_units("optimize.sd", "calls") + over_units("optimize.cd", "calls")
    stopped = fits - over_units("optimize.sd", "converged") \
        - over_units("optimize.cd", "converged")
    table_calls = calls["heatflow.save"]["calls"] + calls["heatflow.load"]["calls"]
    table_bytes = calls["heatflow.save"]["bytes"] + calls["heatflow.load"]["bytes"]
    experiments_self = sum(unit_sum(f"{name}.self_ns") for name in
                           ("experiments.run", "experiments.fit", "experiments.graph"))
    return {
        "designs.sample_s": (per_call("designs.sample") / 1e9, "s"),
        "graphs.estimate_s": (unit_sum("graphs.estimate.ns") / 1e9, "s"),
        "graphs.edges": (per_call("graphs.estimate", "edges"), "count"),
        "heatflow.simulate_s": (unit_sum("heatflow.simulate.ns") / 1e9, "s"),
        "heatflow.simulate_calls": (unit_sum("heatflow.simulate.calls"), "count"),
        "heatflow.walk_steps": (unit_sum("heatflow.simulate.steps"), "count"),
        "heatflow.ns_per_step": (ratio(over_units("heatflow.simulate", "ns"),
                                       over_units("heatflow.simulate", "steps")), "ns"),
        "heatflow.apply_calls": (unit_sum("heatflow.apply.calls"), "count"),
        "heatflow.apply_us": (per_call("heatflow.apply") / 1e3, "us"),
        "heatflow.load_s": (per_call("heatflow.load") / 1e9, "s"),
        "heatflow.save_s": (per_call("heatflow.save") / 1e9, "s"),
        "heatflow.table_bytes": (ratio(table_bytes, table_calls), "bytes"),
        "penalty.value_calls": (unit_sum("penalty.value.calls"), "count"),
        "penalty.value_us": (per_call("penalty.value") / 1e3, "us"),
        "optimize.sd_iters": (unit_sum("optimize.sd.iterations"), "count"),
        "optimize.sd_iter_us": (ratio(over_units("optimize.sd", "ns"),
                                      over_units("optimize.sd", "iterations")) / 1e3, "us"),
        "optimize.cd_iters": (unit_sum("optimize.cd.iterations"), "count"),
        "optimize.cd_iter_us": (ratio(over_units("optimize.cd", "ns"),
                                      over_units("optimize.cd", "iterations")) / 1e3, "us"),
        "optimize.loss_us": (per_call("optimize.loss") / 1e3, "us"),
        "optimize.threshold_us": (per_call("optimize.threshold") / 1e3, "us"),
        "optimize.cv_cell_s": (ratio(over_units("optimize.cv", "ns"),
                                     over_units("optimize.cv", "cells")) / 1e9, "s"),
        "optimize.fits": (unit_sum("optimize.sd.calls")
                          + unit_sum("optimize.cd.calls"), "count"),
        "optimize.maxiter_stop_ratio": (ratio(stopped, fits), "ratio"),
        "experiments.self_s": (experiments_self / 1e9, "s"),
        "cli.read_csv_s": (unit_sum("cli.read_csv.ns") / 1e9, "s"),
        "cli.self_s": (unit_sum("cli.main.self_ns") / 1e9, "s"),
    }
