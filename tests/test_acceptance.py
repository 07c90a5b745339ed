"""Acceptance gates.

One test per criterion, run at the stated tolerance with the stated runtime
budget; each prints a single PASS line (visible with ``pytest -s`` or on
failure). Expensive instance batches are shared through module-scoped
fixtures so criteria that quantify over the same instances reuse them.
"""

import time

import numpy as np
import pytest

import dks.solver as solver_mod
from conftest import random_feasible_batch, random_graph
from dense_oracles import check_submodular, edmonds_lovasz
from dks.baselines import (
    density_upper_bound,
    greedy_feige,
    rank1_dks,
    top_two_singular,
    truncated_power_method,
)
from dks.cli import main
from dks.graph import (
    Graph,
    edge_differences,
    edge_differences_adjoint,
    subgraph_weight,
)
from dks.oracles import brute_force_dks, generate_planted
from dks.prox import CappedSimplexParams, prox_capped_simplex
from dks.rounding import frank_wolfe_refine, project_topk
from dks.solver import lovasz_objective, solve_lovasz_relaxation


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({detail})")


def _lovasz_lp_value(g, k):
    """Exact max-form relaxation value via the epigraph LP (independent oracle)."""
    from scipy.optimize import linprog

    n, m = g.n, g.m
    c = np.concatenate([-g.degree, g.weights])
    rows = []
    for e in range(m):
        i, j = g.edges[e]
        row = np.zeros(n + m)
        row[i], row[j], row[n + e] = 1.0, -1.0, -1.0
        rows.append(row.copy())
        row[i], row[j] = -1.0, 1.0
        rows.append(row)
    a_eq = np.zeros((1, n + m))
    a_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=np.asarray(rows), b_ub=np.zeros(2 * m), A_eq=a_eq, b_eq=[float(k)],
        bounds=[(0, 1)] * n + [(0, None)] * m, method="highs")
    assert res.status == 0, f"LP oracle failed: {res.message}"
    return -res.fun


@pytest.fixture(scope="module")
def dominance_batch():
    """Criterion 5/9 instance batch: 200 random unweighted graphs, all feasible k.

    For every (graph, k): brute-force optimum, exact LP relaxation value,
    solver outputs with reference defaults, both roundings, and the rank-1
    density bound.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    cells = []
    for _ in range(200):
        n = int(rng.integers(6, 15))
        g = random_graph(rng, n, float(rng.uniform(0.25, 0.6)))
        sp = top_two_singular(g)
        for k in range(2, g.n):
            optimum, best_weight = brute_force_dks(g, k)
            lp_value = _lovasz_lp_value(g, k)
            entry = {
                "g": g, "k": k, "best_weight": best_weight,
                "best_density": optimum.density, "lp_value": lp_value,
            }
            if k <= g.n - 1:
                report = solve_lovasz_relaxation(g, k)
                fw = frank_wolfe_refine(g, k, report.x_avg)
                entry["solver_values"] = (
                    -lovasz_objective(g, report.x_avg),
                    -lovasz_objective(g, report.x_last),
                )
                entry["dual_bound"] = report.dual_bound
                entry["rounded_weights"] = (
                    project_topk(g, report.x_avg, k).subgraph_weight,
                    fw.selected.subgraph_weight,
                )
            entry["bound"] = density_upper_bound(g, k, sp)
            cells.append(entry)
    return {"cells": cells, "elapsed": time.perf_counter() - start}


def test_criterion_01_lovasz_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        g = random_graph(rng, n, 0.3, weighted=True, dyadic=True)
        x = rng.random(g.n)
        closed = lovasz_objective(g, x)
        greedy = edmonds_lovasz(g, x)
        assert abs(closed - greedy) <= 1e-9 * (1 + abs(closed))
        # binary points: dyadic weights make both evaluation orders exact
        members = rng.choice(g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
        indicator = np.zeros(g.n)
        indicator[members] = 1.0
        assert lovasz_objective(g, indicator) == -subgraph_weight(g, members)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, "lovasz closed form", f"1000 graphs, exact binary equality, {elapsed:.1f}s")


def test_criterion_02_base_polytope_support_function():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(4, 30)), 0.4, weighted=True)
        x = rng.random(g.n)
        f = rng.uniform(-1.0, 1.0, size=g.m) * g.weights
        fl = lovasz_objective(g, x)
        assert (-g.degree + edge_differences_adjoint(g, f)) @ x <= fl + 1e-9
        f_star = g.weights * np.sign(edge_differences(g, x))
        tight = (-g.degree + edge_differences_adjoint(g, f_star)) @ x
        assert abs(tight - fl) <= 1e-9 * (1 + abs(fl))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "base polytope support function", f"200 triples, {elapsed:.1f}s")


def test_criterion_03_submodularity():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)),
                         weighted=bool(rng.integers(2)))
        assert check_submodular(g)
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert not check_submodular(k3, f=lambda s: subgraph_weight(k3, s))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "submodularity", f"100 graphs exhaustive + mutation caught, {elapsed:.1f}s")


def test_criterion_04_prox_kkt():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        k = int(rng.integers(2, n))
        tau = float(np.exp(rng.uniform(-3, 3)))
        params = CappedSimplexParams(rng.normal(size=n) * 3.0, float(k), tau)
        v = rng.normal(size=n)
        x, nu = prox_capped_simplex(v, params)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert abs(x.sum() - k) <= 1e-12 * n
        assert (x == np.clip(v + (params.degrees - nu) / tau, 0.0, 1.0)).all()
        ys = random_feasible_batch(rng, 100, n, k)
        fx = -params.degrees @ x + 0.5 * tau * ((x - v) ** 2).sum()
        fy = -(ys @ params.degrees) + 0.5 * tau * ((ys - v) ** 2).sum(axis=1)
        assert (fx <= fy + 1e-9).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "prox KKT certificate", f"1000 instances x 100 comparisons, {elapsed:.1f}s")


def test_criterion_05_relaxation_dominance(dominance_batch):
    cells = dominance_batch["cells"]
    for cell in cells:
        assert cell["lp_value"] >= cell["best_weight"] - 1e-6, \
            f"relaxation below optimum on n={cell['g'].n} k={cell['k']}"
        if "solver_values" in cell:
            g = cell["g"]
            slack = 1e-6 * (1.0 + g.degree.sum())
            for value in cell["solver_values"]:
                assert value <= cell["lp_value"] + slack
            # the solver's dual bound certifies min f_L = -lp_value from below
            lp_value = cell["lp_value"]
            assert -cell["dual_bound"] >= lp_value - 1e-9 * (1.0 + lp_value)
            for weight in cell["rounded_weights"]:
                assert weight <= cell["best_weight"] + 1e-9
    elapsed = dominance_batch["elapsed"]
    assert elapsed < 300.0
    _report(5, "relaxation dominance",
            f"{len(cells)} (graph, k) cells, LP oracle vs brute force, {elapsed:.1f}s")


def test_criterion_06_solver_convergence():
    start = time.perf_counter()
    c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    k4k2 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)])
    planted = generate_planted(120, 10, 0.05, seed=0).graph
    details = []
    for g, k in ((c6, 3), (k4k2, 4), (planted, 10)):
        report = solve_lovasz_relaxation(g, k)  # eps 1e-3, 3000 iterations
        assert report.converged and report.iters <= 3000
        assert report.r_norm_final <= report.eps_pri_final
        assert report.s_norm_final <= report.eps_dual_final
        assert report.gap <= solver_mod.EPS_REL * max(1.0, abs(report.dual_bound))
        details.append(f"{report.iters} iters")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, "solver convergence", f"C6/K4+K2/planted: {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_07_frank_wolfe_monotone_stationary():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    stationary_runs = 0
    for trial in range(100):
        g = random_graph(rng, int(rng.integers(5, 30)), 0.35,
                         weighted=bool(rng.integers(2)))
        k = int(rng.integers(2, g.n - 1))
        if trial % 2:
            x0 = random_feasible_batch(rng, 1, g.n, k)[0]
        else:
            x0 = np.zeros(g.n)  # binary starts to provoke zero-step stops
            x0[rng.choice(g.n, size=k, replace=False)] = 1.0
        res = frank_wolfe_refine(g, k, x0)
        hist = res.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        if res.stop_reason == "stationary":
            stationary_runs += 1
            from dks.graph import adjacency_matvec
            wx = adjacency_matvec(g, res.x)
            x_bar = np.zeros(g.n)
            x_bar[np.argsort(-wx, kind="stable")[:k]] = 1.0
            assert wx @ (x_bar - res.x) <= 1e-9
    assert stationary_runs > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, "frank-wolfe monotone + stationarity",
            f"100 starts, {stationary_runs} zero-step stops verified, {elapsed:.1f}s")


def test_criterion_08_planted_recovery():
    start = time.perf_counter()
    recovered = 0
    comparison = []
    for seed in range(20):
        inst = generate_planted(500, 20, 0.05, seed=seed)
        g = inst.graph
        report = solve_lovasz_relaxation(g, 20)
        fw = frank_wolfe_refine(g, 20, report.x_avg)
        sp = top_two_singular(g)
        bound = density_upper_bound(g, 20, sp)
        ratio = fw.selected.density / bound
        if fw.selected.density == 1.0 and ratio >= 1.0 - 1e-9:
            recovered += 1
        greedy_density = greedy_feige(g, 20).density
        tpm_density = truncated_power_method(g, 20, report.x_avg)[0].density
        comparison.append((seed, fw.selected.density, greedy_density, tpm_density))
    assert recovered >= 18, f"only {recovered}/20 seeds recovered the planted clique"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    mean_greedy = np.mean([c[2] for c in comparison])
    mean_tpm = np.mean([c[3] for c in comparison])
    _report(8, "planted recovery",
            f"{recovered}/20 at density 1.0 and bound ratio 1.0 "
            f"(greedy mean {mean_greedy:.3f}, tpm mean {mean_tpm:.3f}), {elapsed:.1f}s")


def test_criterion_09_upper_bound_soundness(dominance_batch):
    cells = dominance_batch["cells"]
    for cell in cells:
        assert cell["bound"] >= cell["best_density"] - 1e-12, \
            f"bound {cell['bound']} below optimal density {cell['best_density']}"
    _report(9, "upper bound soundness", f"{len(cells)} brute-force cells dominated")


def test_criterion_10_quality_proxy():
    start = time.perf_counter()
    ratios = []
    wins = 0
    pairs = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, 200, 0.05)
        sp = top_two_singular(g)
        for k in (10, 20, 40):
            report = solve_lovasz_relaxation(g, k)
            fw_weight = frank_wolfe_refine(g, k, report.x_avg).selected.subgraph_weight
            rank1_set = rank1_dks(g, k, sp)
            bound = density_upper_bound(g, k, sp)
            ratios.append(fw_weight / (k * (k - 1)) / bound)
            rivals = max(greedy_feige(g, k).subgraph_weight, rank1_set.subgraph_weight)
            pairs += 1
            if fw_weight >= rivals - 1e-9:
                wins += 1
    mean_ratio = float(np.mean(ratios))
    if mean_ratio < 0.5:  # soft half: report, never gate
        print(f"ACCEPTANCE 10 note: mean bound ratio {mean_ratio:.3f} below the 0.5 target")
    assert wins >= int(np.ceil(0.8 * pairs)), \
        f"ladmm-fw beat max(greedy, rank1) on only {wins}/{pairs} pairs"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(10, "quality proxy",
            f"mean bound ratio {mean_ratio:.3f}, dominance {wins}/{pairs}, {elapsed:.1f}s")


def test_criterion_11_sweep_determinism(tmp_path, capsys):
    fixture = tmp_path / "fixture.txt"
    rc = main(["gen", "--n", "80", "--k", "10", "--p", "0.06", "--seed", "5",
               "--out", str(fixture)])
    assert rc == 0
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["sweep", "--graph", str(fixture), "--k-list", "5,10,15",
                   "--methods", "ladmm-project,ladmm-fw,greedy,tpm,rank1",
                   "--threads", "1", "--no-timing", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(11, "sweep determinism", "two --threads 1 runs byte-identical")
