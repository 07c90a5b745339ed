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
    Graph,
    check_k,
    incidence_norm_sq_upper,
    load_edge_list,
    write_edge_list,
)
from .oracles import brute_force_dks, generate_planted
from .rounding import frank_wolfe_refine, project_topk
from .solver import NumericalDivergenceError, solve_lovasz_relaxation

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


def _check_k(g: Graph, k: int) -> None:
    try:
        check_k(g, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _bound_ratio(density: float, ub: float, where: str) -> float:
    """``density / ub``; a density above the bound aborts the run as an internal error."""
    if np.isfinite(density) and density > ub * BOUND_SLACK:
        raise BoundViolationError(
            f"internal error: {where}density {density} exceeds upper bound {ub}")
    return density / ub if ub > 0 else float("nan")


def _run_method(g, k, method, relax_report, sp):
    """Dispatch one validated method; returns (vertex_set, iters, converged, details).

    `sp` is the graph's spectral pair, needed only by `rank1`. `details`
    holds the method's own report fields for `solve`: the relaxation's
    duality certificate and, for `ladmm-fw`, why Frank-Wolfe stopped and how
    far its final iterate is from integral. An `ladmm-fw` row is converged
    only when the relaxation converged and Frank-Wolfe stopped before its
    iteration cap.
    """
    if method in RELAX_METHODS:
        if relax_report is None:
            raise RuntimeError("relaxation solve failed; no iterate to round")
        details = {"dual_bound": relax_report.dual_bound, "gap": relax_report.gap}
    if method == "ladmm-project":
        vset = project_topk(g, relax_report.x_avg, k)
        return vset, relax_report.iters, relax_report.converged, details
    if method == "ladmm-fw":
        fw = frank_wolfe_refine(g, k, relax_report.x_avg)
        details.update(fw_stop_reason=fw.stop_reason, integrality_gap=fw.integrality_gap)
        return (fw.selected, relax_report.iters + fw.iters,
                relax_report.converged and fw.stop_reason != "max-iter", details)
    if method == "greedy":
        return greedy_feige(g, k), 0, True, {}
    if method == "tpm":
        x0 = relax_report.x_avg if relax_report is not None else None
        return truncated_power_method(g, k, x0), 0, True, {}
    if method == "rank1":
        return rank1_dks(g, k, sp), 0, sp.converged, {}
    vset, _ = brute_force_dks(g, k)
    return vset, 0, True, {}


# ---------------------------------------------------------------------------
# solve


def run_single(args) -> int:
    g = load_edge_list(args.graph, weighted=args.weighted)
    k = args.k
    _check_k(g, k)
    sp = top_two_singular(g) if args.bound or args.method == "rank1" else None
    lambda_hat = incidence_norm_sq_upper(g) if args.method in RELAX_METHODS else None

    start = time.perf_counter()
    relax_report = (solve_lovasz_relaxation(g, k, lambda_hat)
                    if args.method in RELAX_METHODS else None)
    vset, iters, converged, details = _run_method(g, k, args.method, relax_report, sp)
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
        **details,
    }
    if args.bound:
        ub = density_upper_bound(g, k, sp)
        payload["upper_bound"] = ub
        payload["bound_ratio"] = _bound_ratio(vset.density, ub, "")
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
        lines.extend(f"{key}: {value if isinstance(value, str) else repr(value)}"
                     for key, value in details.items())
        lines.append(f"runtime_ms: {runtime_ms:.3f}")
        text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one_k(g, k, methods, sp, lambda_hat, no_timing):
    records = []
    relax_report = None
    relax_s = 0.0   # the shared relaxation solve, charged to each row that rounds it
    if any(m in RELAX_METHODS for m in methods):
        start = time.perf_counter()
        try:
            relax_report = solve_lovasz_relaxation(g, k, lambda_hat)
        except Exception as exc:  # consumers record the failure row by row
            print(f"warning: k={k} relaxation solve failed: {exc}", file=sys.stderr)
        relax_s = time.perf_counter() - start

    start = time.perf_counter()
    ub = density_upper_bound(g, k, sp)
    bound_ms = (time.perf_counter() - start) * 1e3
    records.append(SweepRecord(
        k=k, method=BOUND_METHOD, density=ub, weight=ub * k * (k - 1),
        upper_bound=ub, bound_ratio=1.0, iters=0, converged=sp.converged,
        runtime_ms=0.0 if no_timing else bound_ms))

    for method in methods:
        start = time.perf_counter() - (relax_s if method in RELAX_METHODS else 0.0)
        try:
            vset, iters, converged, _ = _run_method(g, k, method, relax_report, sp)
            density, weight = vset.density, vset.subgraph_weight
        except Exception as exc:  # a failed cell must not abort the sweep
            print(f"warning: k={k} method={method} failed: {exc}", file=sys.stderr)
            density = weight = float("nan")
            iters, converged = 0, False
        elapsed_ms = (time.perf_counter() - start) * 1e3
        records.append(SweepRecord(
            k=k, method=method, density=density, weight=weight, upper_bound=ub,
            bound_ratio=_bound_ratio(density, ub, f"k={k} method={method} "),
            iters=iters, converged=converged,
            runtime_ms=0.0 if no_timing else elapsed_ms))
    return records


def _parse_k_grid(args):
    """The sorted k grid of the flags, a list or a range; it is checked against n after the load."""
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
        ks = range(args.k_min, args.k_max + 1, args.k_step)
        if not ks:
            raise UsageError("empty k grid")
    return ks


def run_sweep(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    ks = _parse_k_grid(args)
    methods = sorted({m.strip() for m in args.methods.split(",") if m.strip()})
    for m in methods:
        if m not in SOLVE_METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {', '.join(SOLVE_METHODS)}")
    if not methods:
        raise UsageError("no methods selected")
    g = load_edge_list(args.graph, weighted=args.weighted)
    _check_k(g, ks[0])  # the grid is sorted: its ends bound every k, and a range is never listed
    _check_k(g, ks[-1])
    # graph-level quantities, computed once and shared by every k and method
    sp = top_two_singular(g)
    lambda_hat = None
    if any(m in RELAX_METHODS for m in methods):
        lambda_hat = incidence_norm_sq_upper(g)

    def work(k):
        return _sweep_one_k(g, k, methods, sp, lambda_hat, args.no_timing)

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
    try:
        inst = generate_planted(args.n, args.k, args.p, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    bit-exactly. Returns the list of written paths; raises ``ValueError``
    before writing anything for an empty CSV or a malformed one: a wrong
    field count, a k, density or runtime that is not a number, or a method
    the CLI does not have.
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
        k_raw, method, density, runtime = fields[0], fields[1], fields[2], fields[8]
        if method not in SOLVE_METHODS + (BOUND_METHOD,):
            # the method names output files, so only known names pass
            raise ValueError(
                f"malformed sweep CSV: line {lineno} has unknown method {method!r}")
        try:
            int(k_raw), float(density), float(runtime)   # failed rows write nan, which passes
        except ValueError:
            raise ValueError(f"malformed sweep CSV: line {lineno} has a bad number") from None
        series.setdefault(method, []).append((k_raw, density, runtime))
    if not series:
        raise ValueError(f"sweep CSV {csv_path} has no data rows")

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for method, rows in sorted(series.items()):
        for kind, column in (("density", 1), ("runtime", 2)):
            path = os.path.join(out_dir, f"{kind}_{method}.dat")
            with open(path, "w") as f:
                for row in rows:
                    f.write(f"{row[0]} {row[column]}\n")
            written.append(path)
    return written


def run_plotdata(args) -> int:
    for path in emit_plot_data(args.csv, args.out_dir):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_graph_args(sp) -> None:
    sp.add_argument("--graph", required=True, metavar="PATH",
                    help="edge-list file, '-' for stdin; gzip detected automatically")
    sp.add_argument("--weighted", action="store_true",
                    help="parse 'u v w' lines instead of 'u v'")


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
                       help="worker threads across k values (default 1); rows do not "
                            "depend on it, though the BLAS thread count can move last bits")
    sweep.add_argument("--no-timing", action="store_true",
                       help="write runtime_ms as 0.0 for byte-reproducible CSV")
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
    except (NumericalDivergenceError, BoundViolationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
