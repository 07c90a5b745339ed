"""Command-line harness: single solves, k-sweeps and fixture generation.

Outputs are offline tables. A sweep writes one CSV row per (k, method) plus a
"bound" row per k carrying the a-posteriori density cap; each method's
density and runtime series are its rows. Densities are recomputed from the
returned vertex set, never trusted from solver internals. A failed cell stops
the run with the error `solve` prints for it, and so does a density above the
bound, a correctness tripwire; either way no CSV is written.

Exit codes: 0 ok, 1 runtime/numerical failure or out of memory, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields

from .baselines import (
    density_upper_bound,
    greedy_feige,
    rank1_dks,
    top_two_singular,
    truncated_power_method,
)
from .graph import Graph, check_k, load_edge_list, write_edge_list
from .oracles import brute_force_dks, check_brute_force, generate_planted
from .rounding import frank_wolfe_refine, project_topk
from .solver import NumericalDivergenceError, solve_lovasz_relaxation

__all__ = ["main", "SweepRecord", "run_single", "run_sweep", "run_gen"]

SOLVE_METHODS = ("ladmm-project", "ladmm-fw", "greedy", "tpm", "rank1", "brute")
RELAX_METHODS = ("ladmm-project", "ladmm-fw")
BOUND_METHOD = "bound"
BOUND_SLACK = 1.0 + 1e-9


class UsageError(Exception):
    """Bad command-line input discovered after argparse (exit code 2)."""


class BoundViolationError(RuntimeError):
    """A method's density exceeded the a-posteriori upper bound."""


def _field(value) -> str:
    """One sweep CSV cell: floats by `repr`, booleans as `true`/`false`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


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
        return ",".join(_field(getattr(self, name)) for name in _COLUMNS)


_COLUMNS = tuple(f.name for f in fields(SweepRecord))
CSV_HEADER = ",".join(_COLUMNS)


def _check_k(g: Graph, k: int) -> None:
    try:
        check_k(g, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _bound_ratio(density: float, ub: float, where: str) -> float:
    """``density / ub``; a density above the bound aborts the run as an internal error."""
    if density > ub * BOUND_SLACK:
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
        vset, converged = truncated_power_method(g, k, x0)
        return vset, 0, converged, {}
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

    start = time.perf_counter()
    relax_report = solve_lovasz_relaxation(g, k) if args.method in RELAX_METHODS else None
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

    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one_k(g, k, methods, sp):
    records = []
    relax_report = None
    relax_s = 0.0   # the shared relaxation solve, charged to each row that rounds it
    if any(m in RELAX_METHODS for m in methods):
        start = time.perf_counter()
        relax_report = solve_lovasz_relaxation(g, k)
        relax_s = time.perf_counter() - start

    start = time.perf_counter()
    ub = density_upper_bound(g, k, sp)
    bound_ms = (time.perf_counter() - start) * 1e3
    records.append(SweepRecord(
        k=k, method=BOUND_METHOD, density=ub, weight=ub * k * (k - 1),
        upper_bound=ub, bound_ratio=1.0, iters=0, converged=sp.converged,
        runtime_ms=bound_ms))

    for method in methods:
        start = time.perf_counter() - (relax_s if method in RELAX_METHODS else 0.0)
        vset, iters, converged, _ = _run_method(g, k, method, relax_report, sp)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        records.append(SweepRecord(
            k=k, method=method, density=vset.density, weight=vset.subgraph_weight,
            upper_bound=ub, bound_ratio=_bound_ratio(vset.density, ub, f"k={k} method={method} "),
            iters=iters, converged=converged, runtime_ms=elapsed_ms))
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
    # the CSV is written only after every k is solved, so its path is checked first
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise OSError(f"--out {args.out!r} is a directory or its directory does not exist")
    g = load_edge_list(args.graph, weighted=args.weighted)
    _check_k(g, ks[0])  # the grid is sorted: its ends bound every k, and a range is never listed
    _check_k(g, ks[-1])
    for k in ks if "brute" in methods else ():   # brute's limits hang on n and k alone
        check_brute_force(g.n, k)
    sp = top_two_singular(g)   # computed once, shared by every k and method

    def work(k):
        return _sweep_one_k(g, k, methods, sp)

    # a pool starts a thread per queued k up to its size, so the size is clamped
    workers = min(args.threads, len(ks), os.cpu_count() or 1)
    if workers == 1:
        blocks = [work(k) for k in ks]
    else:   # imported only here: a serial sweep loads no concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(work, ks))

    records = sorted((r for block in blocks for r in block),
                     key=lambda r: (r.k, r.method))
    with open(args.out, "w") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            if args.no_timing:
                rec.runtime_ms = 0.0
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
                       help="worker threads across k values (default 1; at most one per k and "
                            "CPU); rows do not depend on it, but BLAS threads can move last bits")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
