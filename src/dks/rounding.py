"""Rounding of fractional relaxation solutions into feasible k-subsets.

Two schemes: plain top-k projection, and Frank-Wolfe refinement of the
indefinite quadratic surrogate ``min -x' W x`` over the capped simplex,
started from the relaxation solution. The Frank-Wolfe linear minimization
oracle over that polytope is just another top-k selection, so every step
costs one adjacency product.
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
    topk,
)

__all__ = [
    "FrankWolfeConfig",
    "FrankWolfeResult",
    "project_topk",
    "frank_wolfe_refine",
]


def project_topk(g: Graph, x, k: int) -> VertexSet:
    """Support of the k largest entries of ``x``; ties go to the smallest index."""
    check_k(g, k)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
    return VertexSet.from_members(g, topk(x, k))


@dataclass(frozen=True)
class FrankWolfeConfig:
    """Frank-Wolfe settings: iteration cap 100, exact line search by default.

    ``lipschitz`` is the spectral norm of the adjacency matrix, estimated by
    power iteration when absent (only the ``lipschitz`` step rule uses it).
    """

    max_iter: int = 100
    lipschitz: float | None = None
    step_mode: str = "exact-line-search"
    objective_tol: float = 1e-9
    spectral_tol: float = 1e-4

    def validate(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.lipschitz is not None and not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.step_mode not in ("exact-line-search", "lipschitz"):
            raise ValueError("step_mode must be 'exact-line-search' or 'lipschitz'")
        if not self.objective_tol >= 0:
            raise ValueError("objective_tol must be non-negative")


@dataclass(eq=False)
class FrankWolfeResult:
    x: np.ndarray
    selected: VertexSet
    iters: int
    objective_history: np.ndarray   # -x'Wx at x^0, x^1, ...
    alphas: np.ndarray
    stop_reason: str                # stationary | objective | max-iter
    integrality_gap: float          # ||x - round(x)||_inf of the final iterate


def frank_wolfe_refine(g: Graph, k: int, x0, cfg: FrankWolfeConfig | None = None) -> FrankWolfeResult:
    """Refine a fractional point on the indefinite surrogate ``min -x' W x``.

    Each step takes the gradient direction's linear minimizer over the capped
    simplex (the top-k indicator of ``W x``, ties to the smallest index) and
    moves by exact line search along ``x_bar - x`` (default), or by the
    Lipschitz step ``min(1, gap / (L ||d||^2))`` in ``lipschitz`` mode.
    Stops at a linear-minimization fixed point (zero step, which is exactly
    Frank-Wolfe stationarity on a polytope), on relative objective change
    below ``objective_tol``, or at ``max_iter``.

    The final iterate is usually integral in practice, but this is measured
    (``integrality_gap``) rather than assumed; ``selected`` is its top-k
    projection either way.
    """
    cfg = cfg if cfg is not None else FrankWolfeConfig()
    cfg.validate()
    check_k(g, k)
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if x.min() < -1e-8 or x.max() > 1 + 1e-8 or abs(x.sum() - k) > 1e-3 * max(1.0, k):
        raise ValueError("x0 must lie in the capped simplex (up to solver tolerance)")
    x = np.clip(x, 0.0, 1.0)

    if cfg.step_mode == "lipschitz":
        lipschitz = cfg.lipschitz
        if lipschitz is None:
            lipschitz = power_iteration_norm(
                lambda v: adjacency_matvec(g, v), g.n, cfg.spectral_tol)[0]
        if not lipschitz > 0:
            raise ValueError("spectral norm estimate is not positive")

    wx = adjacency_matvec(g, x)
    objective = -float(x @ wx)
    history = [objective]
    alphas = []
    stop_reason = "max-iter"
    for _ in range(cfg.max_iter):
        x_bar = np.zeros(g.n)
        x_bar[topk(wx, k)] = 1.0
        d = x_bar - x
        gap = float(wx @ d)   # = x' W d by symmetry; Frank-Wolfe gap / 2
        if gap <= 0.0:
            alphas.append(0.0)
            stop_reason = "stationary"
            break
        wd = adjacency_matvec(g, d)
        if cfg.step_mode == "exact-line-search":
            dwd = float(d @ wd)
            alpha = min(1.0, gap / -dwd) if dwd < 0 else 1.0
        else:
            alpha = min(1.0, gap / (lipschitz * float(d @ d)))
        x = x + alpha * d
        wx = wx + alpha * wd
        if not np.isfinite(x).all():
            raise ValueError("Frank-Wolfe iterate became non-finite")
        new_objective = -float(x @ wx)
        history.append(new_objective)
        alphas.append(alpha)
        changed = abs(new_objective - objective)
        objective = new_objective
        if changed <= cfg.objective_tol * (1.0 + abs(objective)):
            stop_reason = "objective"
            break

    return FrankWolfeResult(
        x=x,
        selected=project_topk(g, x, k),
        iters=len(alphas),
        objective_history=np.asarray(history),
        alphas=np.asarray(alphas),
        stop_reason=stop_reason,
        integrality_gap=float(np.max(np.abs(x - np.round(x)))),
    )
