"""Comparison methods and the a-posteriori optimality bound.

Greedy degree/attachment selection, the truncated power method, densest-k on
the rank-1 adjacency surrogate, and the edge-density upper bound computed
from the top two singular values and the rank-1 surrogate's optimum. Both
rank-1 functions take a precomputed :class:`SpectralPair`. All are pure
functions over an immutable Graph and can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    VertexSet,
    _check_vertex_vector,
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

TPM_MAX_ITER = 100            # step cap of truncated_power_method
SPECTRAL_TOL = 1e-6           # Lanczos residual tolerance of both top_two_singular runs
SPECTRAL_MAX_MATVECS = 20000  # matvec cap of its first run; the deflated run gets half
_DEFLATED_SEED = 0xDEF1A7E    # hashed start vector seed of the deflated run


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


def truncated_power_method(g: Graph, k: int, x0=None) -> tuple[VertexSet, bool]:
    """Power iterations snapped to k-sparse indicators; returns ``(best support, converged)``.

    Each step replaces ``x`` by the indicator of the top-k entries of ``W x``
    (ties to the smallest id). Stops when the subgraph weight stops
    increasing (a repeated support included), or unconverged after
    ``TPM_MAX_ITER`` (100) steps. Weights rise strictly until then, so the last
    support that gained is the best one visited, and that is returned: the
    result never degrades with extra iterations. ``x0`` defaults to the top-k degree indicator.
    """
    check_k(g, k)
    if x0 is None:
        x = np.zeros(g.n)
        x[topk(g.degree, k)] = 1.0
    else:
        x = _check_vertex_vector(g, x0)
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite")
        if not np.any(x):
            raise ValueError("x0 must be nonzero")

    best_support, best_weight = None, -np.inf
    for _ in range(TPM_MAX_ITER):
        support = topk(adjacency_matvec(g, x), k)
        weight = subgraph_weight(g, support)
        converged = weight <= best_weight   # false after the first step, which always gains
        if converged:
            break
        best_support, best_weight = support, weight
        x = np.zeros(g.n)
        x[support] = 1.0
    return VertexSet.from_members(g, best_support), converged


@dataclass(frozen=True, eq=False)
class SpectralPair:
    """Upper estimates of the top two singular values of W and the leading unit vector."""

    sigma1: float
    u1: np.ndarray
    sigma2: float
    converged: bool = True


def top_two_singular(g: Graph) -> SpectralPair:
    """``sigma1, u1`` by Lanczos on W; ``sigma2`` by Lanczos on the square of W deflated.

    W >= 0, so its top eigenvalue is ``sigma1 = ||W||`` (Perron), and the degrees
    ``W 1``, where that run starts, overlap a nonnegative top eigenvector. The
    norm ``sigma2`` of ``D = W - sigma1 u1 u1'`` may lie at either end of D's
    spectrum, but both ends meet at the top of the PSD ``D^2``. That run gets
    ``SPECTRAL_MAX_MATVECS // 2`` products (two matvecs each) and a hashed start
    from its own seed, so a repeated top eigenvalue (two identical largest
    components) gives ``sigma2 = sigma1``; not the degrees, which on a regular
    bipartite graph are orthogonal to W's bottom eigenvector, D^2's top. Ritz
    values approach the top from below, so both estimates are inflated by
    ``(1 + 10 * SPECTRAL_TOL)``: the density bound must err on the loose side.
    Both runs work on W divided by its largest weight, so that ``D^2`` neither
    overflows nor underflows, and the estimates are multiplied back. If either
    run hits its cap, both fall back to the maximum weighted degree, a
    certified bound on ``||W||``, flagged ``converged = False``.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    scale = float(g.weights.max())
    sigma1, u1, ok1 = power_iteration_norm(
        lambda x: adjacency_matvec(g, x) / scale, g.n, SPECTRAL_TOL, SPECTRAL_MAX_MATVECS,
        start=g.degree / scale)   # over the operator's scale: raw degrees can underflow

    def deflated(x):
        return adjacency_matvec(g, x) / scale - sigma1 * (u1 @ x) * u1

    square, _, ok2 = power_iteration_norm(lambda x: deflated(deflated(x)), g.n, SPECTRAL_TOL,
                                          SPECTRAL_MAX_MATVECS // 2, seed=_DEFLATED_SEED)
    if not (ok1 and ok2):
        cap = float(g.degree.max())
        return SpectralPair(sigma1=cap, u1=u1, sigma2=cap, converged=False)
    inflate = 1.0 + 10.0 * SPECTRAL_TOL
    sigma1 *= inflate
    # deflation noise can nudge sigma2 past sigma1; the ordering is structural
    sigma2 = min(math.sqrt(square) * inflate, sigma1) * scale
    sigma1 *= scale
    return SpectralPair(sigma1=sigma1, u1=u1, sigma2=sigma2)


def _rank1_surrogate(g: Graph, k: int, sp: SpectralPair):
    """Maximizers and maximum of the rank-1 surrogate ``sigma1 (u1' 1_S)^2`` over k-subsets.

    The sum is linear, so the top-k entries of ``u1`` or of ``-u1`` are
    exhaustive; ``topk`` finds each in O(n + c log c). Returns
    ``(plus, minus, q)``: both supports and the surrogate optimum ``q``.
    """
    check_k(g, k)
    u = np.asarray(sp.u1, dtype=np.float64)
    plus, minus = topk(u, k), topk(-u, k)
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
