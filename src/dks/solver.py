"""Linearized ADMM for the Lovász relaxation of densest-k-subgraph.

The relaxation minimizes the closed-form Lovász extension

    f_L(x) = -degree @ x + sum_e w_e |x_i - x_j|

over the capped simplex ``{x in [0,1]^n : sum(x) = k}``. Splitting
``z = B^T x`` (per-edge differences) turns both blocks into cheap proximal
steps: an exact capped-simplex prox for the x-block and soft-thresholding for
the z-block. The quadratic coupling term is linearized so no system involving
``B B^T`` is ever solved. The per-vertex proximal weight ``tau = 2.02 rho max(D, 1)``,
``D`` the edge counts, keeps that inexact update convergent (Pock & Chambolle, ICCV
2011; Deng & Yin, J. Sci. Comput. 66, 2016): ``B B^T`` is the unweighted Laplacian
``D - A`` and ``D + A`` is PSD, so ``diag(tau) - rho B B^T`` is positive definite, exactly.

The penalty ``rho`` adapts by residual balancing for the first
``BALANCE_UNTIL`` iterations and is fixed after that, so the fixed-``rho``
convergence argument covers the tail. Since ``rho u`` always lies in the box
``|y_e| <= w_e``, every iteration also yields an LP dual bound on
``min f_L``; a solve stops only once the final iterate's objective is within
``EPS_REL`` of that bound, a certificate that a moving ``rho`` cannot fool.

A solve is sequential over iterations and confined to local state; concurrent
solves over a shared (immutable) Graph are safe. Its edge-indexed vectors
follow the graph's one stored edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    _check_vertex_vector,
    check_k,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,  # noqa: F401 -- unused here; perfbench/layertrace.py patches this name
    topk,
)
from .prox import CappedSimplexParams, prox_capped_simplex, shrinkage

__all__ = [
    "SolverReport",
    "NumericalDivergenceError",
    "lovasz_objective",
    "solve_lovasz_relaxation",
]

# starting penalty, over-relaxation and residual balancing (Boyd et al. 2011, "Distributed
# Optimization and Statistical Learning via ADMM", section 3.4.1); see solve_lovasz_relaxation
RHO_START = 0.1
ALPHA = 1.8
BALANCE_EVERY = 10
BALANCE_UNTIL = 200
BALANCE_RATIO = 10.0
BALANCE_FACTOR = 2.0
# the stopping tolerances of solve_lovasz_relaxation, for weights divided by the largest one
EPS_ABS = 1e-3
EPS_REL = 1e-3
MAX_ITER = 3000   # iteration cap of solve_lovasz_relaxation
# the x-step weights over edge counts: 2 makes 2D - (D - A) = D + A, PSD, and the 1%
# over it a strict margin where D + A is singular, on bipartite components
STEP_FACTOR = 2.02


class NumericalDivergenceError(RuntimeError):
    """A solver iterate became non-finite."""


@dataclass(eq=False)
class SolverReport:
    """Outcome of one relaxation solve.

    ``x_avg`` is the running average of the post-update iterates, the point
    the CLI rounds; ``x_last`` is the final iterate, the point where ``gap``
    is measured. ``r_norm_final`` and ``s_norm_final`` are the primal and
    dual residual norms of the last iteration, checked against
    ``eps_pri_final`` and ``eps_dual_final``. ``dual_bound`` is the LP dual
    bound of the last iteration, a certified lower bound on ``min f_L`` (up
    to roundoff), and ``gap`` is ``lovasz_objective(g, x_last) - dual_bound``.
    ``converged`` means both residual tests and ``gap <= EPS_REL *
    max(scale, |dual_bound|)`` held, ``scale`` the largest weight: only
    ``dual_bound`` and ``gap`` are in weight units, the rest of the run
    works on weights over ``scale``.
    """

    x_avg: np.ndarray
    x_last: np.ndarray
    iters: int
    converged: bool
    r_norm_final: float
    s_norm_final: float
    eps_pri_final: float
    eps_dual_final: float
    dual_bound: float
    gap: float


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a float vector, by its own formula, without its wrapper."""
    return math.sqrt(v @ v)


def lovasz_objective(g: Graph, x) -> float:
    """Closed-form Lovász extension value ``-degree @ x + sum_e w_e |x_i - x_j|``."""
    x = _check_vertex_vector(g, x)
    return float(g.weights @ np.abs(edge_differences(g, x)) - g.degree @ x)


def solve_lovasz_relaxation(g: Graph, k: int) -> SolverReport:
    """Solve the Lovász relaxation at cardinality ``k`` with linearized ADMM.

    Per iteration, in reused edge-length buffers: an x-update through the
    capped-simplex prox at ``x - (rho/tau) B(B^T x - z + u)``, warm-started from
    the last ``nu``, a z-update through shrinkage over-relaxed by ``ALPHA`` (1.8),
    and the scaled dual ascent step. ``z`` is zero off its support, which shrinkage,
    the updates of ``z`` and the scan ``B(z - z_prev)`` alone touch; the other
    scans cover every edge, in the graph's wavefront edge order. Starts from the
    indicator of the k largest-degree vertices and from ``RHO_START`` (0.1).
    Every ``BALANCE_EVERY`` (10) iterations up to ``BALANCE_UNTIL`` (200),
    ``rho`` is doubled (halved) when the primal residual exceeds ``rho``
    times the dual residual tenfold (or the reverse); the scaled dual ``u``
    is rescaled so that ``rho u`` is unchanged, and ``tau`` is rebuilt.
    All of it runs on weights and degrees divided by the largest weight.
    Stops after ``MAX_ITER`` (3000) iterations, or when the primal residual
    ``B^T x - z`` and dual residual ``B (z - z_prev)`` fall below

        eps_pri  = sqrt(m) EPS_ABS + EPS_REL max(||B^T x||, ||z||)
        eps_dual = sqrt(n) EPS_ABS + EPS_REL ||B u||

    and the duality gap ``f_L(x) - D`` is at most ``EPS_REL max(1, |D|)``,
    where ``D``, the sum of the k smallest entries of ``rho B u - degree``,
    is a lower bound on ``min f_L`` by LP weak duality because
    ``|rho u_e| <= w_e``; ``D`` is computed once both residual tests pass, or at the cap.
    The uniform point gives ``f_L((k/n) 1) = -2Wk/n``, ``W`` the total edge weight,
    so the relaxation's density bound ``-min f_L / (k(k-1))`` is never below
    ``d/(k-1)``, ``d`` the mean weighted degree; on dense graphs such as the
    admm-sweep benchmark's, the solve ends at that value to within 0.05%.

    ``tau = rho * STEP_FACTOR * max(c, 1)``, ``c`` each vertex's edge count whatever
    the weights, spares low-degree vertices the step of the highest-degree one, and
    needs no estimate of ``||B||^2``. Raises ``ValueError`` for out-of-range ``k`` or an
    edgeless graph, and :class:`NumericalDivergenceError` when an iterate
    goes non-finite.
    """
    check_k(g, k)
    if g.m == 0:
        raise ValueError("graph has no edges")
    scale = float(g.weights.max())
    degree = g.degree / scale   # weights / scale is formed where used, not kept
    counts = g.degree if g.is_unweighted else np.bincount(g.edges.T.ravel(), minlength=g.n)
    steps = STEP_FACTOR * np.maximum(counts, 1.0)
    rho = RHO_START
    params = CappedSimplexParams(degree, float(k), rho * steps)
    x_step = rho * (1.0 / params.tau)   # rho / tau, through 1 / tau: the bits the goldens pin
    # shrinkage's levels, kept until rho moves; unit weights give them as one scalar
    levels = 1.0 if g.is_unweighted else g.weights
    threshold = levels / scale / rho

    x = np.zeros(g.n)
    x[topk(degree, k)] = 1.0
    btx = edge_differences(g, x)
    z, support = btx.copy(), np.flatnonzero(btx)   # z is +0.0 off its support, ascending ids
    u, residual = np.zeros(g.m), np.zeros(g.m)   # residual: btx - z, then scratch
    mask = np.empty(g.m, dtype=bool)   # z's support
    x_sum, nu = np.zeros(g.n), None

    sqrt_m, sqrt_n = np.sqrt(g.m), np.sqrt(g.n)
    converged = False
    r_norm = s_norm = eps_pri = eps_dual = dual_bound = gap = np.inf
    iters = 0

    for t in range(MAX_ITER):
        residual += u   # (btx - z) + u
        x, nu = prox_capped_simplex(
            x - x_step * edge_differences_adjoint(g, residual), params, nu)
        edge_differences(g, x, out=btx, scratch=residual)
        relaxed = np.multiply(ALPHA, btx, out=residual)   # + (1 - ALPHA) z, which is
        relaxed[support] += (1.0 - ALPHA) * z[support]   # -0.0 off the support: no change
        u += relaxed   # relaxed + u, shrinkage's input
        # z = v - clip(v, -t, t) is nonzero exactly where |v| <= t fails, NaN included
        old, z_prev = support, z[support]
        z[old] = 0.0
        np.less_equal(np.abs(u, out=residual), threshold, out=mask)
        support = np.flatnonzero(np.logical_not(mask, out=mask))
        z[support] = z_new = shrinkage(u[support], g.weights[support] / scale, rho)
        u[support] -= z_new   # u - z, which off the support is u
        if not (np.isfinite(x).all() and np.isfinite(z_new).all()):
            raise NumericalDivergenceError(f"non-finite iterate at iteration {t + 1}")

        x_sum += x
        iters = t + 1

        np.copyto(residual, btx)
        residual[support] -= z_new
        r_norm = _norm(residual)
        moved = np.concatenate([old, support])   # z - z_prev is zero off both supports
        moved.sort()
        first = np.ones(moved.size, dtype=bool)   # each id once
        np.not_equal(moved[1:], moved[:-1], out=first[1:])
        moved = moved[first]
        step = z[moved]
        step[np.searchsorted(moved, old)] -= z_prev
        s_norm = _norm(edge_differences_adjoint(g, step, at=moved))
        bu = edge_differences_adjoint(g, u)
        eps_pri = sqrt_m * EPS_ABS + EPS_REL * max(_norm(btx), _norm(z))
        eps_dual = sqrt_n * EPS_ABS + EPS_REL * _norm(bu)
        residuals_met = r_norm <= eps_pri and s_norm <= eps_dual
        if residuals_met or iters == MAX_ITER:
            # u = clip(relaxed + u_prev, +-w/rho), so y = rho u has |y_e| <= w_e and
            # f_L(x) >= (B y - degree) @ x on the capped simplex: the k smallest
            # entries of B y - degree sum to a lower bound on min f_L
            dual_bound = float(np.partition(rho * bu - degree, k - 1)[:k].sum())
            # |btx| overwrites btx, unread until the next scan
            weights = g.weights if scale == 1.0 else g.weights / scale
            gap = float(weights @ np.abs(btx, out=btx) - degree @ x) - dual_bound
            if residuals_met and gap <= EPS_REL * max(1.0, abs(dual_bound)):
                converged = True
                break

        if iters % BALANCE_EVERY == 0 and iters <= BALANCE_UNTIL:
            factor = 1.0
            if r_norm > BALANCE_RATIO * rho * s_norm:
                factor = BALANCE_FACTOR
            elif rho * s_norm > BALANCE_RATIO * r_norm:
                factor = 1.0 / BALANCE_FACTOR
            if factor != 1.0:
                rho *= factor
                u /= factor   # keeps rho u, the unscaled dual, unchanged
                threshold = levels / scale / rho
                params = CappedSimplexParams(degree, float(k), rho * steps)
                x_step = rho * (1.0 / params.tau)

    return SolverReport(
        x_avg=x_sum / iters,
        x_last=x,
        iters=iters,
        converged=converged,
        r_norm_final=r_norm,
        s_norm_final=s_norm,
        eps_pri_final=float(eps_pri),
        eps_dual_final=float(eps_dual),
        dual_bound=dual_bound * scale,
        gap=gap * scale,
    )
