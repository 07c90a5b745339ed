"""Comparison methods and the a-posteriori optimality bound.

Greedy degree/attachment selection, the truncated power method, densest-k on
the rank-1 adjacency surrogate, and the edge-density upper bound computed
from the top two singular values and the rank-1 surrogate's optimum. Both
rank-1 functions take a precomputed :class:`SpectralPair`. All are pure
functions over an immutable Graph and can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    VertexSet,
    adjacency_matvec,
    check_k,
    power_iteration_norm,
    subgraph_weight,
    topk,
)

__all__ = [
    "SpectralPair",
    "greedy_feige",
    "truncated_power_method",
    "top_two_singular",
    "rank1_dks",
    "density_upper_bound",
]


def greedy_feige(g: Graph, k: int) -> VertexSet:
    """Two-phase greedy: top ``ceil(k/2)`` by weighted degree, then best attached.

    Phase 2 adds the ``floor(k/2)`` remaining vertices with the largest total
    edge weight into the phase-1 set. All ties go to the smallest vertex id.
    (The original algorithm is stated for unweighted graphs; weighted degree
    and weighted attachment are the natural generalization used here.)
    """
    check_k(g, k)
    head_count = (k + 1) // 2
    heads = topk(g.degree, head_count)
    indicator = np.zeros(g.n)
    indicator[heads] = 1.0
    attachment = adjacency_matvec(g, indicator)
    attachment[heads] = -np.inf
    tail = topk(attachment, k - head_count)
    return VertexSet.from_members(g, np.concatenate([heads, tail]))


def truncated_power_method(g: Graph, k: int, x0=None, max_iter: int = 100) -> VertexSet:
    """Power iterations snapped to k-sparse indicators; returns the best support seen.

    Each step replaces ``x`` by the indicator of the top-k entries of ``W x``
    (ties to the smallest id). Stops when the support repeats, when the
    subgraph weight stops increasing, or at ``max_iter``; the best-weight
    support visited is returned, so the result never degrades with extra
    iterations. ``x0`` defaults to the top-k degree indicator.
    """
    check_k(g, k)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if x0 is None:
        x = np.zeros(g.n)
        x[topk(g.degree, k)] = 1.0
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (g.n,):
            raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite")
        if not np.any(x):
            raise ValueError("x0 must be nonzero")

    best_support = None
    best_weight = -np.inf
    prev_support = None
    prev_weight = None
    for _ in range(max_iter):
        wx = adjacency_matvec(g, x)
        support = tuple(np.sort(topk(wx, k)))
        weight = subgraph_weight(g, support)
        if weight > best_weight:
            best_weight, best_support = weight, support
        if support == prev_support:
            break
        if prev_weight is not None and weight <= prev_weight:
            break
        prev_support, prev_weight = support, weight
        x = np.zeros(g.n)
        x[list(support)] = 1.0
    return VertexSet.from_members(g, best_support)


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Upper estimates of the top two singular values of W and the leading unit vector."""

    sigma1: float
    u1: np.ndarray
    sigma2: float
    converged: bool = True


def top_two_singular(g: Graph, tol: float = 1e-6, max_iter: int = 20000) -> SpectralPair:
    """``sigma1, u1`` by power iteration on W; ``sigma2`` by deflating against u1.

    Power iteration approaches singular values from below, so both estimates
    are inflated by ``(1 + 10*tol)`` into safe upper estimates: the density
    bound built from them must err on the loose side, never the tight one.
    If either iteration hits its cap, no inflation certifies the estimate, so
    both values fall back to the maximum weighted degree, a certified upper
    bound on ``||W||``, and the pair is flagged ``converged = False``.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    sigma1, u1, ok1 = power_iteration_norm(
        lambda x: adjacency_matvec(g, x), g.n, tol, max_iter)
    lambda1 = float(u1 @ adjacency_matvec(g, u1))

    def deflated(x):
        return adjacency_matvec(g, x) - lambda1 * (u1 @ x) * u1

    sigma2, _, ok2 = power_iteration_norm(deflated, g.n, tol, max_iter)
    if not (ok1 and ok2):
        cap = float(g.degree.max())
        return SpectralPair(sigma1=cap, u1=u1, sigma2=cap, converged=False)
    inflate = 1.0 + 10.0 * tol
    sigma1 *= inflate
    sigma2 *= inflate
    # deflation noise can nudge sigma2 past sigma1; the ordering is structural
    sigma2 = min(sigma2, sigma1)
    return SpectralPair(sigma1=sigma1, u1=u1, sigma2=sigma2)


def _rank1_surrogate(g: Graph, k: int, sp: SpectralPair):
    """Maximizers and maximum of the rank-1 surrogate ``sigma1 (u1' 1_S)^2`` over k-subsets.

    The sum is linear, so the top-k entries of ``u1`` or of ``-u1`` are
    exhaustive. Returns ``(plus, minus, q)``: both supports and the
    surrogate optimum ``q``.
    """
    check_k(g, k)
    u = np.asarray(sp.u1, dtype=np.float64)
    plus = topk(u, k)
    minus = topk(-u, k)
    q = sp.sigma1 * max(float(u[plus].sum()) ** 2, float(u[minus].sum()) ** 2)
    return plus, minus, float(q)


def rank1_dks(g: Graph, k: int, sp: SpectralPair) -> VertexSet:
    """Densest-k on the rank-1 surrogate ``sigma1 (u1' 1_S)^2``.

    Of the surrogate's two maximizers (the top-k entries of ``u1`` and of
    ``-u1``), returns the one with the larger true subgraph weight.
    """
    plus, minus, _ = _rank1_surrogate(g, k, sp)
    cand_plus = VertexSet.from_members(g, plus)
    cand_minus = VertexSet.from_members(g, minus)
    return cand_plus if cand_plus.subgraph_weight >= cand_minus.subgraph_weight else cand_minus


def density_upper_bound(g: Graph, k: int, sp: SpectralPair) -> float:
    """A-posteriori cap on the best achievable edge density at size ``k``.

    ``min(cap, (q/k + sigma2)/(k-1), sigma1/(k-1))`` with ``q`` the optimum
    of the rank-1 surrogate ``sigma1 (u1' 1_S)^2`` over k-subsets and ``cap``
    the maximum edge weight, the largest density any k-subset can reach
    (exactly 1 for unweighted graphs). The bound holds for any heuristic's
    output, so it benchmarks sub-optimality a posteriori.
    """
    _, _, q = _rank1_surrogate(g, k, sp)
    cap = float(g.weights.max()) if g.m else 0.0
    return float(min(cap, (q / k + sp.sigma2) / (k - 1), sp.sigma1 / (k - 1)))
