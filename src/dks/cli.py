"""Command-line harness: single solves, k-sweeps, fixture generation, plot data.

Outputs are offline tables. A sweep writes one CSV row per (k, method) plus a
"bound" row per k carrying the a-posteriori density cap; `plotdata` splits a
sweep CSV into per-method series files for external plotting tools. Densities
in every row are recomputed from the returned vertex set, never trusted from
solver internals, and any density exceeding the bound aborts the run: that
inequality is a correctness tripwire, not a soft check.

Exit codes: 0 ok, 1 runtime/numerical failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import (
    density_upper_bound,
    greedy_feige,
    rank1_dks,
    top_two_singular,
    truncated_power_method,
)
from .graph import (
    EdgeListParseError,
    Graph,
    check_k,
    incidence_norm_sq_upper,
    load_edge_list,
    write_edge_list,
)
from .oracles import brute_force_dks, generate_planted
from .rounding import frank_wolfe_refine, project_topk
from .solver import NumericalDivergenceError, SolverConfig, solve_lovasz_relaxation

__all__ = ["main", "SweepRecord", "run_single", "run_sweep", "run_gen", "emit_plot_data"]

CSV_HEADER = "k,method,density,weight,upper_bound,bound_ratio,iters,converged,runtime_ms"
SOLVE_METHODS = ("ladmm-project", "ladmm-fw", "greedy", "tpm", "rank1", "brute")
RELAX_METHODS = ("ladmm-project", "ladmm-fw")
BOUND_METHOD = "bound"
BOUND_SLACK = 1.0 + 1e-9


class UsageError(Exception):
    """Bad command-line input discovered after argparse (exit code 2)."""


class BoundViolationError(RuntimeError):
    """A method's density exceeded the a-posteriori upper bound."""


@dataclass
class SweepRecord:
    """One (k, method) experiment row of the sweep CSV."""

    k: int
    method: str
    density: float
    weight: float
    upper_bound: float
    bound_ratio: float
    iters: int
    converged: bool
    runtime_ms: float

    def csv_row(self) -> str:
        return ",".join([
            str(self.k),
            self.method,
            repr(float(self.density)),
            repr(float(self.weight)),
            repr(float(self.upper_bound)),
            repr(float(self.bound_ratio)),
            str(self.iters),
            "true" if self.converged else "false",
            repr(float(self.runtime_ms)),
        ])


def _solver_config(args) -> SolverConfig:
    """Solver settings from the flags; checks them and ``--fw-max-iter`` before any input is read."""
    cfg = SolverConfig(
        rho=args.rho,
        alpha=args.alpha,
        eps_abs=args.eps_abs,
        eps_rel=args.eps_rel,
        max_iter=args.max_iter,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.fw_max_iter < 1:
        raise UsageError("--fw-max-iter must be at least 1")
    return cfg


def _load_graph(args) -> Graph:
    return load_edge_list(args.graph, weighted=args.weighted)


def _check_k(g: Graph, k: int) -> None:
    try:
        check_k(g, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_method(g, k, method, fw_max_iter, relax_report, sp):
    """Dispatch one method; returns (vertex_set, iters, converged, extra_seconds).

    `extra_seconds` charges the (possibly shared) relaxation solve to the
    methods that consume it; `sp` is the graph's spectral pair, needed only
    by `rank1`.
    """
    if method in RELAX_METHODS and relax_report is None:
        raise RuntimeError("relaxation solve failed; no iterate to round")
    if method == "ladmm-project":
        vset = project_topk(g, relax_report.x_avg, k)
        return vset, relax_report.iters, relax_report.converged, relax_report.wall_time
    if method == "ladmm-fw":
        fw = frank_wolfe_refine(g, k, relax_report.x_avg, fw_max_iter)
        return (fw.selected, relax_report.iters + fw.iters,
                relax_report.converged, relax_report.wall_time)
    if method == "greedy":
        return greedy_feige(g, k), 0, True, 0.0
    if method == "tpm":
        x0 = relax_report.x_avg if relax_report is not None else None
        return truncated_power_method(g, k, x0), 0, True, 0.0
    if method == "rank1":
        return rank1_dks(g, k, sp), 0, sp.converged, 0.0
    if method == "brute":
        vset, _ = brute_force_dks(g, k)
        return vset, 0, True, 0.0
    raise UsageError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# solve


def run_single(args) -> int:
    solver_cfg = _solver_config(args)
    g = _load_graph(args)
    k = args.k
    _check_k(g, k)
    sp = top_two_singular(g) if args.bound or args.method == "rank1" else None

    start = time.perf_counter()
    relax_report = None
    if args.method in RELAX_METHODS:
        relax_report = solve_lovasz_relaxation(g, k, solver_cfg)
    vset, iters, converged, _ = _run_method(
        g, k, args.method, args.fw_max_iter, relax_report, sp)
    runtime_ms = (time.perf_counter() - start) * 1e3

    payload = {
        "method": args.method,
        "k": k,
        "n": g.n,
        "m": g.m,
        "members": [int(g.original_ids[v]) for v in vset.members],
        "weight": vset.subgraph_weight,
        "density": vset.density,
        "iters": iters,
        "converged": converged,
        "runtime_ms": runtime_ms,
    }
    if args.bound:
        ub = density_upper_bound(g, k, sp)
        if np.isfinite(vset.density) and vset.density > ub * BOUND_SLACK:
            raise BoundViolationError(
                f"internal error: density {vset.density} exceeds upper bound {ub}")
        payload["upper_bound"] = ub
        payload["bound_ratio"] = vset.density / ub if ub > 0 else float("nan")
        payload["bound_converged"] = sp.converged

    if args.json:
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"graph: n={g.n} m={g.m}",
                 f"method: {args.method}  k: {k}",
                 "members (original ids): " + " ".join(str(v) for v in payload["members"]),
                 f"weight: {payload['weight']!r}",
                 f"density: {payload['density']!r}"]
        if args.bound:
            lines.append(f"upper_bound: {payload['upper_bound']!r}")
            lines.append(f"bound_ratio: {payload['bound_ratio']!r}")
            lines.append(f"bound_converged: {str(sp.converged).lower()}")
        lines.append(f"iters: {iters}")
        lines.append(f"converged: {str(converged).lower()}")
        lines.append(f"runtime_ms: {runtime_ms:.3f}")
        text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one_k(g, k, methods, solver_cfg, fw_max_iter, sp, lambda_hat, no_timing):
    records = []
    relax_report = None
    if any(m in RELAX_METHODS for m in methods):
        try:
            relax_report = solve_lovasz_relaxation(g, k, solver_cfg, lambda_hat)
        except Exception as exc:  # consumers record the failure row by row
            print(f"warning: k={k} relaxation solve failed: {exc}", file=sys.stderr)

    start = time.perf_counter()
    ub = density_upper_bound(g, k, sp)
    bound_ms = (time.perf_counter() - start) * 1e3
    records.append(SweepRecord(
        k=k, method=BOUND_METHOD, density=ub, weight=ub * k * (k - 1),
        upper_bound=ub, bound_ratio=1.0, iters=0, converged=sp.converged,
        runtime_ms=0.0 if no_timing else bound_ms))

    for method in methods:
        start = time.perf_counter()
        try:
            vset, iters, converged, extra = _run_method(
                g, k, method, fw_max_iter, relax_report, sp)
            elapsed_ms = (time.perf_counter() - start + extra) * 1e3
            density, weight = vset.density, vset.subgraph_weight
        except Exception as exc:  # a failed cell must not abort the sweep
            print(f"warning: k={k} method={method} failed: {exc}", file=sys.stderr)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            density = weight = float("nan")
            iters, converged = 0, False
        if np.isfinite(density) and density > ub * BOUND_SLACK:
            raise BoundViolationError(
                f"internal error: k={k} method={method} density {density} "
                f"exceeds upper bound {ub}")
        records.append(SweepRecord(
            k=k, method=method, density=density, weight=weight, upper_bound=ub,
            bound_ratio=density / ub if ub > 0 else float("nan"),
            iters=iters, converged=converged,
            runtime_ms=0.0 if no_timing else elapsed_ms))
    return records


def _parse_k_grid(args, g) -> list:
    if args.k_list:
        try:
            ks = sorted({int(t) for t in args.k_list.split(",") if t.strip()})
        except ValueError:
            raise UsageError(f"bad --k-list {args.k_list!r}") from None
        if not ks:
            raise UsageError("--k-list is empty")
    else:
        if args.k_min is None or args.k_max is None:
            raise UsageError("provide --k-min and --k-max, or --k-list")
        if args.k_step < 1:
            raise UsageError("--k-step must be at least 1")
        ks = list(range(args.k_min, args.k_max + 1, args.k_step))
        if not ks:
            raise UsageError("empty k grid")
    for k in ks:
        _check_k(g, k)
    return ks


def run_sweep(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    solver_cfg = _solver_config(args)
    g = _load_graph(args)
    ks = _parse_k_grid(args, g)
    methods = sorted({m.strip() for m in args.methods.split(",") if m.strip()})
    for m in methods:
        if m not in SOLVE_METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {', '.join(SOLVE_METHODS)}")
    if not methods:
        raise UsageError("no methods selected")
    # graph-level quantities, computed once and shared by every k and method
    sp = top_two_singular(g)
    lambda_hat = None
    if any(m in RELAX_METHODS for m in methods):
        lambda_hat = incidence_norm_sq_upper(g)

    def work(k):
        return _sweep_one_k(g, k, methods, solver_cfg, args.fw_max_iter, sp, lambda_hat,
                            args.no_timing)

    if args.threads == 1:
        blocks = [work(k) for k in ks]
    else:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            blocks = list(pool.map(work, ks))

    records = sorted((r for block in blocks for r in block),
                     key=lambda r: (r.k, r.method))
    with open(args.out, "w") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gen


def run_gen(args) -> int:
    if args.n < 3:
        raise UsageError("--n must be at least 3")
    if not 2 <= args.k <= args.n:
        raise UsageError(f"--k must lie in [2, {args.n}]")
    if not 0 <= args.p < 1:
        raise UsageError("--p must lie in [0, 1)")
    inst = generate_planted(args.n, args.k, args.p, args.seed)
    with open(args.out, "w") as f:
        f.write(f"# planted fixture: n={args.n} k={args.k} p={args.p} seed={args.seed}\n")
        f.write("# planted members: " + " ".join(str(v) for v in inst.planted.members) + "\n")
        write_edge_list(inst.graph, f)
    print(f"wrote n={inst.graph.n} m={inst.graph.m} planted k={inst.planted.k} to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# plotdata


def emit_plot_data(csv_path, out_dir) -> list:
    """Split a sweep CSV into per-method density and runtime series files.

    Series files carry the CSV's string fields verbatim, so values round-trip
    bit-exactly. Returns the list of written paths; raises ``ValueError`` for
    a malformed or empty CSV before writing anything.
    """
    with open(csv_path) as f:
        lines = [line.rstrip("\n") for line in f]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"malformed sweep CSV: bad header in {csv_path}")
    series: dict = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError(f"malformed sweep CSV: line {lineno} has {len(fields)} fields")
        k_raw, method = fields[0], fields[1]
        series.setdefault(method, []).append((k_raw, fields[2], fields[8]))
    if not series:
        raise ValueError(f"sweep CSV {csv_path} has no data rows")

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for method in sorted(series):
        rows = series[method]
        for kind, column in (("density", 1), ("runtime", 2)):
            path = os.path.join(out_dir, f"{kind}_{method}.dat")
            with open(path, "w") as f:
                for row in rows:
                    f.write(f"{row[0]} {row[column]}\n")
            written.append(path)
    return written


def run_plotdata(args) -> int:
    written = emit_plot_data(args.csv, args.out_dir)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_graph_args(sp) -> None:
    sp.add_argument("--graph", required=True, metavar="PATH",
                    help="edge-list file, '-' for stdin; gzip detected automatically")
    sp.add_argument("--weighted", action="store_true",
                    help="parse 'u v w' lines instead of 'u v'")


def _add_solver_args(sp) -> None:
    sp.add_argument("--rho", type=float, default=0.1, help="ADMM penalty (default 0.1)")
    sp.add_argument("--alpha", type=float, default=1.8,
                    help="over-relaxation parameter (default 1.8)")
    sp.add_argument("--eps-abs", type=float, default=1e-3,
                    help="absolute stopping tolerance (default 1e-3; use 1e-4 for very large graphs)")
    sp.add_argument("--eps-rel", type=float, default=1e-3,
                    help="relative stopping tolerance (default 1e-3)")
    sp.add_argument("--max-iter", type=int, default=3000,
                    help="solver iteration cap (default 3000)")
    sp.add_argument("--fw-max-iter", type=int, default=100,
                    help="Frank-Wolfe iteration cap (default 100)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dks",
        description="Dense k-subgraph discovery: relaxation solver, rounding, "
                    "baselines, and an a-posteriori density bound.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one method at one k")
    _add_graph_args(solve)
    solve.add_argument("--k", type=int, required=True, help="subgraph size")
    solve.add_argument("--method", choices=SOLVE_METHODS, default="ladmm-fw")
    solve.add_argument("--bound", action="store_true",
                       help="also compute the rank-1 density upper bound")
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument("--out", metavar="PATH", help="also write the report to a file")
    _add_solver_args(solve)
    solve.set_defaults(handler=run_single)

    sweep = sub.add_parser("sweep", help="run methods over a k grid, writing CSV")
    _add_graph_args(sweep)
    sweep.add_argument("--k-min", type=int)
    sweep.add_argument("--k-max", type=int)
    sweep.add_argument("--k-step", type=int, default=1)
    sweep.add_argument("--k-list", metavar="K1,K2,...",
                       help="explicit comma-separated k values (overrides the range)")
    sweep.add_argument("--methods", default="ladmm-project,ladmm-fw,greedy,tpm,rank1",
                       metavar="M1,M2,...",
                       help="comma-separated subset of: " + ", ".join(SOLVE_METHODS))
    sweep.add_argument("--out", required=True, metavar="CSV", help="output CSV path")
    sweep.add_argument("--threads", type=int, default=1,
                       help="worker threads across k values (default 1; "
                            "1 guarantees bit-reproducible output)")
    sweep.add_argument("--no-timing", action="store_true",
                       help="write runtime_ms as 0.0 for byte-reproducible CSV")
    _add_solver_args(sweep)
    sweep.set_defaults(handler=run_sweep)

    gen = sub.add_parser("gen", help="generate a planted-clique fixture")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    gen.add_argument("--k", type=int, required=True, help="planted clique size")
    gen.add_argument("--p", type=float, required=True, help="background edge probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, metavar="PATH", help="edge-list output path")
    gen.set_defaults(handler=run_gen)

    plotdata = sub.add_parser(
        "plotdata", help="split a sweep CSV into per-method series files")
    plotdata.add_argument("--csv", required=True, metavar="CSV", help="sweep CSV path")
    plotdata.add_argument("--out-dir", required=True, metavar="DIR")
    plotdata.set_defaults(handler=run_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericalDivergenceError, BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EdgeListParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
