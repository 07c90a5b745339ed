"""Linearized ADMM for the Lovász relaxation of densest-k-subgraph.

The relaxation minimizes the closed-form Lovász extension

    f_L(x) = -degree @ x + sum_e w_e |x_i - x_j|

over the capped simplex ``{x in [0,1]^n : sum(x) = k}``. Splitting
``z = B^T x`` (per-edge differences) turns both blocks into cheap proximal
steps: an exact capped-simplex prox for the x-block and soft-thresholding for
the z-block. The quadratic coupling term is linearized so no system involving
``B B^T`` is ever solved; the proximal regularization ``mu <= 1/(rho ||B||^2)``
keeps that inexact update convergent, which is why the spectral estimate must
only ever overestimate.

A solve is sequential over iterations and confined to local state; concurrent
solves over a shared (immutable) Graph are safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    Graph,
    _check_vertex_vector,
    check_k,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,
    topk,
)
from .prox import CappedSimplexParams, prox_capped_simplex, shrinkage

__all__ = [
    "SolverConfig",
    "SolverReport",
    "NumericalDivergenceError",
    "lovasz_objective",
    "solve_lovasz_relaxation",
]


class NumericalDivergenceError(RuntimeError):
    """A solver iterate became non-finite."""


@dataclass(frozen=True)
class SolverConfig:
    """Tuning parameters of the linearized ADMM solver.

    Defaults: penalty ``rho = 0.1``, over-relaxation ``alpha = 1.8``,
    stopping tolerances ``eps_abs = eps_rel = 1e-3``, and a cap of 3000
    iterations. ``1e-4`` tolerances are the documented setting for very large
    graphs. The proximal step is not a setting: it is always the certified
    ``mu = 1/(rho * lambda_hat)``, with ``lambda_hat`` a safe upper estimate of
    ``||B||^2``, and the x-update is the prox of ``g/mu``, so the
    capped-simplex prox gets ``tau = 1/mu``.
    """

    rho: float = 0.1
    alpha: float = 1.8
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iter: int = 3000

    def validate(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [1, 2)")
        for name in ("eps_abs", "eps_rel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(eq=False)
class SolverReport:
    """Outcome of one relaxation solve.

    ``x_avg`` is the running average of the post-update iterates (what the
    rounding stage consumes by default); ``x_last`` is the final iterate,
    often sharper in practice. ``r_norm_final`` and ``s_norm_final`` are the
    primal and dual residual norms of the last iteration, checked against
    ``eps_pri_final`` and ``eps_dual_final``.
    """

    x_avg: np.ndarray
    x_last: np.ndarray
    iters: int
    converged: bool
    r_norm_final: float
    s_norm_final: float
    eps_pri_final: float
    eps_dual_final: float
    mu: float
    lambda_hat: float
    wall_time: float = field(default=0.0)


def lovasz_objective(g: Graph, x) -> float:
    """Closed-form Lovász extension value ``-degree @ x + sum_e w_e |x_i - x_j|``."""
    x = _check_vertex_vector(g, x)
    return float(g.weights @ np.abs(edge_differences(g, x)) - g.degree @ x)


def solve_lovasz_relaxation(g: Graph, k: int, cfg: SolverConfig | None = None,
                            lambda_hat: float | None = None) -> SolverReport:
    """Solve the Lovász relaxation at cardinality ``k`` with linearized ADMM.

    Per iteration: an x-update through the capped-simplex prox at the
    linearized point, an over-relaxed z-update through shrinkage, and the
    scaled dual ascent step. Starts from the indicator of the k
    largest-degree vertices. Stops when the primal residual ``B^T x - z``
    and dual residual ``B (z - z_prev)`` fall below

        eps_pri  = sqrt(m) eps_abs + eps_rel max(||B^T x||, ||z||)
        eps_dual = sqrt(n) eps_abs + eps_rel ||B u||

    or at ``max_iter``. ``lambda_hat``, a safe upper estimate of ``||B||^2``,
    depends on the graph alone: callers solving at several ``k`` compute it
    once with :func:`incidence_norm_sq_upper` and pass it; by default it is
    computed here. Raises ``ValueError`` for out-of-range ``k``, an edgeless
    graph or a ``lambda_hat`` that is not positive and finite, and
    :class:`NumericalDivergenceError` when an iterate goes non-finite.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    check_k(g, k)
    if g.m == 0:
        raise ValueError("graph has no edges")
    if lambda_hat is not None and not (np.isfinite(lambda_hat) and lambda_hat > 0):
        raise ValueError("lambda_hat must be positive and finite")

    start = time.perf_counter()
    if lambda_hat is None:
        lambda_hat = incidence_norm_sq_upper(g)
    mu = 1.0 / (cfg.rho * lambda_hat)
    params = CappedSimplexParams(g.degree, float(k), 1.0 / mu)

    x = np.zeros(g.n)
    x[topk(g.degree, k)] = 1.0
    btx = edge_differences(g, x)
    z = btx.copy()
    u = np.zeros(g.m)
    x_sum = np.zeros(g.n)

    rho, alpha = cfg.rho, cfg.alpha
    sqrt_m, sqrt_n = np.sqrt(g.m), np.sqrt(g.n)
    converged = False
    r_norm = s_norm = eps_pri = eps_dual = np.inf
    iters = 0

    for t in range(cfg.max_iter):
        x, _ = prox_capped_simplex(
            x - mu * rho * edge_differences_adjoint(g, btx - z + u), params)
        btx = edge_differences(g, x)
        relaxed = alpha * btx + (1.0 - alpha) * z
        z_prev = z
        z = shrinkage(relaxed + u, g.weights, rho)
        u = u + relaxed - z
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise NumericalDivergenceError(
                f"non-finite iterate at iteration {t + 1}")

        x_sum += x
        iters = t + 1

        r_norm = float(np.linalg.norm(btx - z))
        s_norm = float(np.linalg.norm(edge_differences_adjoint(g, z - z_prev)))
        eps_pri = sqrt_m * cfg.eps_abs + cfg.eps_rel * max(
            float(np.linalg.norm(btx)), float(np.linalg.norm(z)))
        eps_dual = sqrt_n * cfg.eps_abs + cfg.eps_rel * float(
            np.linalg.norm(edge_differences_adjoint(g, u)))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

    return SolverReport(
        x_avg=x_sum / iters,
        x_last=x,
        iters=iters,
        converged=converged,
        r_norm_final=r_norm,
        s_norm_final=s_norm,
        eps_pri_final=float(eps_pri),
        eps_dual_final=float(eps_dual),
        mu=mu,
        lambda_hat=lambda_hat,
        wall_time=time.perf_counter() - start,
    )
