"""Dense test oracles for the matrix-free library code.

Each is simple enough to trust and slow enough to keep out of the package:
the sorted-prefix greedy evaluation of the Lovász extension, a
submodularity checker, the relaxation's value by enumeration and by LP,
dense linear-algebra materializations of the graph operators, the full-scan
forms of the kernels that skip to the chosen vertices or edges, and the
plain forms of the prox and the ADMM loop, which the faster code must match
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import dks.solver as solver_mod
from dks.graph import Graph, edge_differences, subgraph_weight, topk
from dks.oracles import _dense_adjacency
from dks.prox import CappedSimplexParams, cardinality_gap


def edmonds_lovasz(g: Graph, x) -> float:
    """Lovász extension value via the sorted-prefix greedy construction.

    Coordinates are visited in descending order (ties by index); each vertex
    contributes ``x_v`` times the marginal cost of joining the prefix, where
    the cost function is ``-subgraph_weight``. This never touches the
    closed-form objective, which is exactly why it serves as its oracle.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
    W = _dense_adjacency(g)
    in_prefix = np.zeros(g.n, dtype=bool)
    total = 0.0
    for v in np.argsort(-x, kind="stable"):
        total += x[v] * (-2.0 * float(W[v, in_prefix].sum()))
        in_prefix[v] = True
    return total


def check_submodular(g: Graph, f=None, tol: float = 1e-9,
                     sample_pairs: int | None = None, seed: int = 0) -> bool:
    """Check ``F(A|B) + F(A&B) <= F(A) + F(B)`` for ``F = -subgraph_weight``.

    Exhaustive over all subset pairs for ``n <= 12``; for larger graphs (or
    when ``sample_pairs`` is given) random pairs are sampled with the given
    seed. ``f`` substitutes another set function, taking a tuple of vertex
    ids; the supermodular mutation ``+subgraph_weight`` must make this return
    False.
    """
    n = g.n
    if sample_pairs is None and n <= 12:
        size = 1 << n
        masks = np.arange(size, dtype=np.int64)
        if f is None:
            bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
            table = -np.einsum("ij,ij->i", bits @ _dense_adjacency(g), bits)
        else:
            table = np.array([
                f(tuple(v for v in range(n) if mask >> v & 1)) for mask in masks])
        for start in range(0, size, 512):
            a = masks[start:start + 512, None]
            lhs = table[a | masks[None, :]] + table[a & masks[None, :]]
            rhs = table[a] + table[None, :] + tol
            if (lhs > rhs).any():
                return False
        return True

    if f is None:
        f = lambda members: -subgraph_weight(g, members)
    rng = np.random.default_rng(seed)
    pairs = sample_pairs if sample_pairs is not None else 2000
    for _ in range(pairs):
        a = np.flatnonzero(rng.random(n) < 0.5)
        b = np.flatnonzero(rng.random(n) < 0.5)
        union = tuple(np.union1d(a, b))
        inter = tuple(np.intersect1d(a, b))
        if f(union) + f(inter) > f(tuple(a)) + f(tuple(b)) + tol:
            return False
    return True


def density_size_envelope(g: Graph) -> np.ndarray:
    """``conc H(s)`` for ``s = 0..n``: the least concave majorant of ``H(s)``, the
    largest ``2 w(E(S))`` (``subgraph_weight``) over sets with ``|S| = s``.

    ``H`` comes from all ``2^n`` sets (refused for n > 12). The majorant is the
    upper hull of the points ``(s, H(s))``, read off at each integer ``s``; at
    every k it equals the relaxation's value ``-min f_L`` over the capped simplex.
    """
    n = g.n
    if n > 12:
        raise ValueError("the envelope enumerates 2^n sets: n must be at most 12")
    masks = np.arange(1 << n)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    weight = np.einsum("ij,ij->i", bits @ _dense_adjacency(g), bits)
    h = np.full(n + 1, -np.inf)
    np.maximum.at(h, bits.sum(axis=1).astype(np.int64), weight)
    hull = []   # s of the hull's corners: each middle corner lies strictly above its chord
    for s in range(n + 1):
        while len(hull) >= 2 and ((h[hull[-1]] - h[hull[-2]]) * (s - hull[-2])
                                  <= (h[s] - h[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(s)
    return np.interp(np.arange(n + 1), hull, h[hull])


def lovasz_lp_value(g: Graph, k: int) -> float:
    """The relaxation's value ``-min f_L`` over the capped simplex, by the epigraph
    LP ``max degree @ x - sum_e w_e t_e``, ``t_e >= |x_i - x_j|``, solved by HiGHS."""
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


@dataclass(frozen=True, eq=False)
class DenseForms:
    """Dense materializations for validating the matrix-free paths."""

    adjacency: np.ndarray              # W, weighted
    incidence: np.ndarray              # signed B, column e = e_i - e_j
    laplacian: np.ndarray              # unweighted B @ B.T
    adjacency_eigenvalues: np.ndarray  # ascending
    laplacian_eigenvalues: np.ndarray  # ascending


def dense_cross_check(g: Graph) -> DenseForms:
    """Materialize dense W, B, L and their exact spectra (refused for n > 500)."""
    if g.n > 500:
        raise ValueError("dense cross-check is capped at n = 500")
    W = _dense_adjacency(g)
    B = np.zeros((g.n, g.m))
    cols = np.arange(g.m)
    B[g.edges[:, 0], cols] = 1.0
    B[g.edges[:, 1], cols] = -1.0
    L = B @ B.T
    return DenseForms(
        adjacency=W,
        incidence=B,
        laplacian=L,
        adjacency_eigenvalues=np.linalg.eigvalsh(W),
        laplacian_eigenvalues=np.linalg.eigvalsh(L),
    )


def adjacency_matvec_full_scan(g: Graph, x) -> np.ndarray:
    """``W @ x`` by one scan of every edge, whatever the support of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    out = np.bincount(e0, weights=g.weights * x[e1], minlength=g.n)
    out += np.bincount(e1, weights=g.weights * x[e0], minlength=g.n)
    return out


def lexicographic_copy(g: Graph):
    """``(copy, perm)``: a stand-in for ``g`` whose edges and weights are sorted by
    ``(i, j)``, the order they had before the wavefront order, with ``perm`` taking
    ``g``'s edge order to it. The library's edge kernels accept it as a graph."""
    perm = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
    edges = np.asfortranarray(g.edges[perm])
    return SimpleNamespace(n=g.n, m=g.m, edges=edges, _scan=edges, weights=g.weights[perm],
                           degree=g.degree), perm


def subgraph_weight_by_mask(g: Graph, members) -> float:
    """``1_S' W 1_S`` from a membership mask over every edge, summed in
    lexicographic ``(i, j)`` order."""
    mask = np.zeros(g.n, dtype=bool)
    mask[np.asarray(list(members), dtype=np.int64)] = True
    order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
    inside = order[mask[g.edges[order, 0]] & mask[g.edges[order, 1]]]
    return 2.0 * float(g.weights[inside].sum())


def topk_full_sort(x, k: int) -> np.ndarray:
    """The first ``k`` of one stable sort of every entry, largest first."""
    return np.argsort(-np.asarray(x), kind="stable")[:k]


def edge_differences_adjoint_full_scan(g: Graph, f) -> np.ndarray:
    """``B f`` by one scan of every edge, whatever the support of ``f``."""
    f = np.asarray(f, dtype=np.float64)
    return (np.bincount(g.edges[:, 0], weights=f, minlength=g.n)
            - np.bincount(g.edges[:, 1], weights=f, minlength=g.n))


def shrinkage_max_form(v, w, rho: float) -> np.ndarray:
    """Soft-thresholding as ``max(0, v - w/rho) - max(0, -v - w/rho)``."""
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(w, dtype=np.float64) / rho
    return np.maximum(0.0, v - t) - np.maximum(0.0, -v - t)


def prox_capped_simplex_bisection(v, p: CappedSimplexParams):
    """The capped-simplex prox ``(x, nu)`` by bisection over all sorted breakpoints,
    with ``p.tau`` one weight per entry."""
    v = np.asarray(v, dtype=np.float64)
    shifted = p.degrees + p.tau * v
    breaks = np.sort(np.concatenate([shifted - p.tau, shifted]))
    # invariant: gap(breaks[lo]) > 0 >= gap(breaks[hi])
    lo, hi = 0, breaks.shape[0] - 1
    gap_lo, gap_hi = v.shape[0] - p.k, -p.k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        gap_mid = cardinality_gap(breaks[mid], v, p)
        if gap_mid > 0:
            lo, gap_lo = mid, gap_mid
        else:
            hi, gap_hi = mid, gap_mid
    nu = float(breaks[hi] - (breaks[hi] - breaks[lo]) * gap_hi / (gap_hi - gap_lo))
    x = np.clip(v + (p.degrees - nu) / p.tau, 0.0, 1.0)
    return x, nu


def solve_lovasz_relaxation_unbuffered(g: Graph, k: int) -> solver_mod.SolverReport:
    """The ADMM loop with a fresh array per step, the oracle kernels above and a
    cold prox; it reads ``dks.solver``'s constants at call time. The prox weight
    is ``rho * steps``, ``steps = STEP_FACTOR * max(c, 1)`` from each vertex's edge
    count ``c``, which the weights do not enter."""
    s = solver_mod
    counts = np.zeros(g.n)
    np.add.at(counts, np.asarray(g.edges).ravel(), 1.0)
    steps = s.STEP_FACTOR * np.maximum(counts, 1.0)
    scale = float(g.weights.max())
    degree, weights = g.degree / scale, g.weights / scale
    rho = s.RHO_START
    params = CappedSimplexParams(degree, float(k), rho * steps)
    x_step = rho * (1.0 / params.tau)

    x = np.zeros(g.n)
    x[topk(degree, k)] = 1.0
    btx = edge_differences(g, x)
    z = btx.copy()
    u = np.zeros(g.m)
    x_sum = np.zeros(g.n)

    sqrt_m, sqrt_n = np.sqrt(g.m), np.sqrt(g.n)
    converged = False
    r_norm = s_norm = eps_pri = eps_dual = dual_bound = gap = np.inf
    iters = 0

    for t in range(s.MAX_ITER):
        x, _ = prox_capped_simplex_bisection(
            x - x_step * edge_differences_adjoint_full_scan(g, btx - z + u), params)
        btx = edge_differences(g, x)
        relaxed = s.ALPHA * btx + (1.0 - s.ALPHA) * z
        z_prev = z
        z = shrinkage_max_form(relaxed + u, weights, rho)
        u = u + relaxed - z
        x_sum += x
        iters = t + 1

        r_norm = float(np.linalg.norm(btx - z))
        s_norm = float(np.linalg.norm(edge_differences_adjoint_full_scan(g, z - z_prev)))
        bu = edge_differences_adjoint_full_scan(g, u)
        eps_pri = sqrt_m * s.EPS_ABS + s.EPS_REL * max(
            float(np.linalg.norm(btx)), float(np.linalg.norm(z)))
        eps_dual = sqrt_n * s.EPS_ABS + s.EPS_REL * float(np.linalg.norm(bu))
        dual_bound = float(np.partition(rho * bu - degree, k - 1)[:k].sum())
        gap = float(weights @ np.abs(btx) - degree @ x) - dual_bound
        if (r_norm <= eps_pri and s_norm <= eps_dual
                and gap <= s.EPS_REL * max(1.0, abs(dual_bound))):
            converged = True
            break

        if iters % s.BALANCE_EVERY == 0 and iters <= s.BALANCE_UNTIL:
            factor = 1.0
            if r_norm > s.BALANCE_RATIO * rho * s_norm:
                factor = s.BALANCE_FACTOR
            elif rho * s_norm > s.BALANCE_RATIO * r_norm:
                factor = 1.0 / s.BALANCE_FACTOR
            if factor != 1.0:
                rho *= factor
                u = u / factor
                params = CappedSimplexParams(degree, float(k), rho * steps)
                x_step = rho * (1.0 / params.tau)

    return s.SolverReport(
        x_avg=x_sum / iters, x_last=x, iters=iters, converged=converged,
        r_norm_final=r_norm, s_norm_final=s_norm, eps_pri_final=float(eps_pri),
        eps_dual_final=float(eps_dual), dual_bound=dual_bound * scale, gap=gap * scale)
