"""Measuring and checking one benchmark run, in the calling process.

``run.py`` imports this module after pinning BLAS to one thread and putting
the checkout's ``src`` first on ``sys.path``. Untraced, :func:`run` alternates
timed loads of the graph (``setup_s``) with calls of ``dks.cli.main`` on the
workload for about the given seconds, at least twice. Traced, it makes a
traced call between two untraced ones and reports the per-layer metrics of
the traced one. Every call's output is checked after the timed calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from workloads import WORKLOADS

# the documented header, spelled out here rather than read from dks.cli
CSV_HEADER = "k,method,density,weight,upper_bound,bound_ratio,iters,converged,runtime_ms"
BOUND_SLACK = 1.0 + 1e-9
MIN_CALLS = 2
SETUP_ROUND_S = 1.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "density_mean": "density", "converged_frac": "ratio"}


class CallResult:
    """Outcome of one checked CLI call: row counts, problems and row statistics."""

    def __init__(self, wall_s, attempted):
        self.wall_s = wall_s
        self.attempted = attempted
        self.failed = 0
        self.problems = []
        self.fingerprint = ""
        self.densities = []
        self.converged = []
        self.bound_ratios = []

    def fail(self, problem):
        """A failed check counts every row of the call as failed."""
        self.problems.append(problem)
        self.failed = self.attempted


def workload_methods(workload) -> list:
    argv = workload["argv"]
    return argv[argv.index("--methods") + 1].split(",")


def import_library(src_dir):
    """Import ``dks`` and make sure it is the checkout's own copy."""
    import dks
    import dks.cli
    where = os.path.realpath(os.path.dirname(dks.__file__))
    if os.path.commonpath([where, os.path.realpath(src_dir)]) != os.path.realpath(src_dir):
        raise SystemExit(f"dks imported from {where}, not from {src_dir}")
    return dks


def call_cli(dks, workload, graph_path, out_path):
    """One ``dks.cli.main`` call; returns ``(exit_code, output, wall_s)``.

    ``output`` is the sweep's CSV, read and removed after the clock stops.
    """
    argv = workload["argv"] + ["--graph", graph_path, "--out", out_path]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = dks.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, reported by check_call
            code = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    try:
        with open(out_path) as f:
            output = f.read()
        os.remove(out_path)
    except OSError:
        output = ""
    return code, output, wall_s


def check_sweep(res, workload, csv_text):
    lines = csv_text.splitlines()
    res.fingerprint = hashlib.sha256(csv_text.encode()).hexdigest()
    if not lines or lines[0] != CSV_HEADER:
        res.fail("CSV header differs")
        return
    rows = [line.split(",") for line in lines[1:]]
    expected = [(k, m) for k in workload["ks"]
                for m in sorted(workload_methods(workload) + ["bound"])]
    if [(int(r[0]), r[1]) for r in rows] != expected:
        res.fail("CSV rows are not one per (k, method)")
        return
    clique = workload["graph"]["clique"]
    for r in rows:
        k, method = int(r[0]), r[1]
        density, weight, upper, ratio = map(float, r[2:6])
        if method == "bound":
            # the planted clique is a feasible answer the generator knows of,
            # so no valid upper bound lies below its density
            planted = 1.0 if k <= clique else clique * (clique - 1) / (k * (k - 1))
            if not upper * BOUND_SLACK >= planted:
                res.fail(f"k={k}: bound {upper} below the planted clique's density {planted}")
            continue
        if math.isnan(density):
            res.failed += 1
            continue
        res.densities.append(density)
        res.converged.append(r[7] == "true")
        res.bound_ratios.append(ratio)
        if not density <= upper * BOUND_SLACK:
            res.fail(f"k={k} {method}: density {density} above bound {upper}")
        if density != weight / (k * (k - 1)):
            res.fail(f"k={k} {method}: density {density} != weight/(k(k-1))")
        if k == clique and method in workload["clique_methods"] and density != 1.0:
            res.fail(f"k={k} {method}: density {density} misses the planted clique")


def check_call(workload, code, output, wall_s):
    """Check one call's exit code and output; returns its :class:`CallResult`."""
    res = CallResult(wall_s, len(workload["ks"]) * (len(workload_methods(workload)) + 1))
    if code != 0:
        res.fail(f"exit code {code}")
        return res
    try:
        check_sweep(res, workload, output)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        res.fail(f"malformed output: {type(exc).__name__}: {exc}")
    return res


def blas_threads():
    """Threads OpenBLAS reports, read from the loaded library; None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def environment(seed, sizes):
    with open("/proc/cpuinfo") as f:
        models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "input": sizes,
    }


def summarize(results):
    """Row totals and problems over calls; every call must give the same output."""
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    if len({r.fingerprint for r in results}) != 1:
        problems.append("output differs between calls")
        failed = attempted
    return attempted, failed, problems


def measure_untraced(dks, workload, graph, out_path, seconds):
    """Alternate timed graph loads and CLI calls for about ``seconds``.

    Returns the calls, the load times and the peak RSS in MB. An untimed load
    first warms the allocator, as in the traced run, and sets how many loads
    a round makes: enough for about ``SETUP_ROUND_S``, so that small graphs
    give as steady a ``setup_s`` median as large ones. Another round starts
    while it is expected to end within half a round of ``seconds``, and there
    are at least ``MIN_CALLS`` rounds. Interleaving puts both medians under
    the same machine conditions.
    """
    start = time.perf_counter()
    dks.load_edge_list(graph)
    loads = max(1, round(SETUP_ROUND_S / (time.perf_counter() - start)))
    setup, calls = [], []
    began = time.perf_counter()
    while True:
        for _ in range(loads):
            start = time.perf_counter()
            dks.load_edge_list(graph)
            setup.append(time.perf_counter() - start)
        calls.append(call_cli(dks, workload, graph, out_path))
        round_s = loads * statistics.median(setup) + statistics.median(c[2] for c in calls)
        if len(calls) >= MIN_CALLS and time.perf_counter() - began + round_s / 2 > seconds:
            break
    return calls, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_traced(dks, workload, graph, out_path):
    """A traced call between two untraced ones; returns the calls and the tracer."""
    from layertrace import Tracer, site_functions

    dks.load_edge_list(graph)  # warm-up
    before = call_cli(dks, workload, graph, out_path)
    originals = site_functions()
    with Tracer() as tracer:
        traced = tracer.span("cli.main", call_cli, dks, workload, graph, out_path)
    if site_functions() != originals:
        raise SystemExit("the tracer left patched functions behind")
    after = call_cli(dks, workload, graph, out_path)
    return [before, traced, after], tracer


def run(name, graph, seed, seconds, trace, src_dir, work_dir):
    """Measure and check one run; returns ``(info, result)``.

    ``result`` is the benchmark's result object; ``info`` holds the per-call
    times, the output fingerprint, the problems found and the environment.
    The overhead of a traced call is taken against the mean of the untraced
    calls on either side, which cancels a steady drift in machine speed.
    """
    dks = import_library(src_dir)
    workload = WORKLOADS[name]
    out_path = os.path.join(work_dir, f"out-{os.getpid()}.csv")
    if trace:
        calls, tracer = measure_traced(dks, workload, graph, out_path)
        setup = []
    else:
        calls, setup, peak_rss_mb = measure_untraced(dks, workload, graph, out_path, seconds)
    with open(graph + ".sizes.json") as f:
        sizes = json.load(f)
    results = [check_call(workload, *call) for call in calls]
    attempted, failed, problems = summarize(results)
    last = results[-1]

    if trace:
        from layertrace import layer_metrics
        tracer.write_jsonl(os.path.join(work_dir, f"trace-{name}-{seed}.jsonl"))
        metrics = layer_metrics(tracer, (results[0].wall_s + results[2].wall_s) / 2)
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in results),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "density_mean": statistics.fmean(last.densities) if last.densities else 0.0,
            "converged_frac": statistics.fmean(last.converged) if last.converged else 0.0,
        }
        metrics = {m: (value, E2E_UNITS[m]) for m, value in values.items()}
    info = {
        "calls": len(results),
        "wall_s_each": [r.wall_s for r in results],
        "setup_s_each": setup,
        "fingerprint": last.fingerprint,
        "bound_ratio_mean": statistics.fmean(last.bound_ratios) if last.bound_ratios else None,
        "fail_frac": failed / attempted,
        "problems": problems,
        "env": environment(seed, sizes),
    }
    result = {
        "correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    return info, result
