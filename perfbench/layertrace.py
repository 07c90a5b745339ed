"""Span tracing of the library's layers, installed from outside by patching.

The library's modules bind each other's functions with ``from .x import y``,
so a call is caught by patching the name through which the caller reaches it
(``dks.solver.prox_capped_simplex``, not ``dks.prox.prox_capped_simplex``).
Each patched call records a span ``[id, parent, name, start, end]`` in memory;
the hot leaf ``cardinality_gap`` is only counted, to hold overhead down. A
span is named ``<layer>.<function>`` after the module that defines the
function, whichever module it was reached through.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("graph", "prox", "solver", "rounding", "baselines", "cli")

# (module, attribute) pairs through which the CLI pipeline reaches each public
# layer function; dks.oracles serves only tests and generation.
SPAN_SITES = (
    ("dks.cli", "load_edge_list"),
    ("dks.cli", "solve_lovasz_relaxation"),
    ("dks.cli", "project_topk"),
    ("dks.cli", "frank_wolfe_refine"),
    ("dks.cli", "greedy_feige"),
    ("dks.cli", "truncated_power_method"),
    ("dks.cli", "top_two_singular"),
    ("dks.cli", "rank1_dks"),
    ("dks.cli", "density_upper_bound"),
    ("dks.solver", "edge_differences"),
    ("dks.solver", "edge_differences_adjoint"),
    ("dks.solver", "incidence_norm_sq_upper"),
    ("dks.solver", "prox_capped_simplex"),
    ("dks.solver", "shrinkage"),
    ("dks.graph", "power_iteration_norm"),
    ("dks.graph", "subgraph_weight"),
    ("dks.rounding", "adjacency_matvec"),
    ("dks.rounding", "project_topk"),
    ("dks.rounding", "power_iteration_norm"),
    ("dks.baselines", "adjacency_matvec"),
    ("dks.baselines", "subgraph_weight"),
    ("dks.baselines", "power_iteration_norm"),
)
COUNT_SITES = (("dks.prox", "cardinality_gap"),)

# span names in the order their metrics are reported
SPAN_NAMES = (
    "graph.load_edge_list",
    "graph.edge_differences",
    "graph.edge_differences_adjoint",
    "graph.adjacency_matvec",
    "graph.power_iteration_norm",
    "graph.incidence_norm_sq_upper",
    "graph.subgraph_weight",
    "prox.prox_capped_simplex",
    "prox.shrinkage",
    "solver.solve_lovasz_relaxation",
    "rounding.frank_wolfe_refine",
    "rounding.project_topk",
    "baselines.greedy_feige",
    "baselines.truncated_power_method",
    "baselines.top_two_singular",
    "baselines.rank1_dks",
    "baselines.density_upper_bound",
)
ROOT = "cli.main"


def site_functions() -> dict:
    """What each traced site currently holds, to check that tracing was undone."""
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a in SPAN_SITES + COUNT_SITES}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Patches the layer functions while active; restores them on exit.

    Single-threaded by design: the benchmark runs the CLI with ``--threads 1``,
    so one stack gives every span its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.totals = defaultdict(float)
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._observe(name, result)
            return result
        return wrapper

    def _count_wrapper(self, fn):
        name = span_name(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name, result):
        if name == "solver.solve_lovasz_relaxation":
            self.totals["solver.iters"] += result.iters
            self.totals["solver.converged"] += bool(result.converged)
        elif name == "rounding.frank_wolfe_refine":
            self.totals["rounding.frank_wolfe_refine.iters"] += result.iters

    def __enter__(self):
        for sites, make in ((SPAN_SITES, self._span_wrapper),
                            (COUNT_SITES, self._count_wrapper)):
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


def self_times(spans) -> list:
    """Per span, its duration minus the durations of its direct children."""
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced CLI call, as ``name -> (value, unit)``.

    ``.s`` is inclusive time summed over calls (no traced function recurses),
    ``.self_s`` excludes time in traced children, and ``<layer>.share`` is the
    layer's self time over the traced wall time of the whole call.
    """
    own = self_times(tracer.spans)
    calls, inclusive, exclusive = Counter(), defaultdict(float), defaultdict(float)
    for (_, _, name, start, end), self_s in zip(tracer.spans, own):
        calls[name] += 1
        inclusive[name] += end - start
        exclusive[name] += self_s
    wall = inclusive[ROOT]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (inclusive[name], "s")
        out[f"{name}.self_s"] = (exclusive[name], "s")
    gaps = tracer.counts["prox.cardinality_gap"]
    proxes = calls["prox.prox_capped_simplex"]
    iters = tracer.totals["solver.iters"]
    solves = calls["solver.solve_lovasz_relaxation"]
    out["prox.cardinality_gap.calls"] = (gaps, "count")
    out["prox.gap_evals_per_prox"] = (gaps / proxes if proxes else 0.0, "ratio")
    out["solver.iters"] = (int(iters), "count")
    out["solver.adjoint_scans_per_iter"] = (
        calls["graph.edge_differences_adjoint"] / iters if iters else 0.0, "ratio")
    out["solver.converged_frac"] = (
        tracer.totals["solver.converged"] / solves if solves else 0.0, "ratio")
    out["rounding.frank_wolfe_refine.iters"] = (
        int(tracer.totals["rounding.frank_wolfe_refine.iters"]), "count")
    for layer in LAYERS:
        self_s = sum(v for name, v in exclusive.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / wall if wall > 0 else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - untraced_wall_s, "s")
    return out
