"""Rounding of fractional relaxation solutions into feasible k-subsets.

Two schemes: plain top-k projection, and Frank-Wolfe refinement of the
indefinite quadratic surrogate ``min -x' W x`` over the capped simplex,
started from the relaxation solution. The Frank-Wolfe linear minimization
oracle over that polytope is just another top-k selection, and the surrogate
is quadratic along each step direction, so the exact line-search step has a
closed form: every step costs one adjacency product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    VertexSet,
    adjacency_matvec,
    check_k,
    power_iteration_norm,  # noqa: F401 -- unused here; perfbench/layertrace.py patches this name
    topk,
)

__all__ = [
    "FrankWolfeResult",
    "project_topk",
    "frank_wolfe_refine",
]

OBJECTIVE_TOL = 1e-9   # relative objective change that stops Frank-Wolfe


def project_topk(g: Graph, x, k: int) -> VertexSet:
    """Support of the k largest entries of ``x``; ties go to the smallest index."""
    check_k(g, k)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
    return VertexSet.from_members(g, topk(x, k))


@dataclass(eq=False)
class FrankWolfeResult:
    x: np.ndarray
    selected: VertexSet
    iters: int
    objective_history: np.ndarray   # -x'Wx at x^0, x^1, ...
    alphas: np.ndarray
    stop_reason: str                # stationary | objective | max-iter
    integrality_gap: float          # ||x - round(x)||_inf of the final iterate


def frank_wolfe_refine(g: Graph, k: int, x0, max_iter: int = 100) -> FrankWolfeResult:
    """Refine a fractional point on the indefinite surrogate ``min -x' W x``.

    Each step takes the gradient direction's linear minimizer over the capped
    simplex (the top-k indicator of ``W x``, ties to the smallest index) and
    moves along ``x_bar - x`` by exact line search. Stops at a
    linear-minimization fixed point (zero step, which is exactly Frank-Wolfe
    stationarity on a polytope), on relative objective change below
    ``OBJECTIVE_TOL``, or after ``max_iter`` steps.

    The final iterate is usually integral in practice, but this is measured
    (``integrality_gap``) rather than assumed; ``selected`` is its top-k
    projection either way.
    """
    check_k(g, k)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if x.min() < -1e-8 or x.max() > 1 + 1e-8 or abs(x.sum() - k) > 1e-3 * max(1.0, k):
        raise ValueError("x0 must lie in the capped simplex (up to solver tolerance)")
    x = np.clip(x, 0.0, 1.0)

    wx = adjacency_matvec(g, x)
    objective = -float(x @ wx)
    history = [objective]
    alphas = []
    stop_reason = "max-iter"
    for _ in range(max_iter):
        x_bar = np.zeros(g.n)
        x_bar[topk(wx, k)] = 1.0
        d = x_bar - x
        gap = float(wx @ d)   # = x' W d by symmetry; Frank-Wolfe gap / 2
        if gap <= 0.0:
            alphas.append(0.0)
            stop_reason = "stationary"
            break
        wd = adjacency_matvec(g, d)
        dwd = float(d @ wd)
        alpha = min(1.0, gap / -dwd) if dwd < 0 else 1.0
        x = x + alpha * d
        wx = wx + alpha * wd
        if not np.isfinite(x).all():
            raise ValueError("Frank-Wolfe iterate became non-finite")
        new_objective = -float(x @ wx)
        history.append(new_objective)
        alphas.append(alpha)
        changed = abs(new_objective - objective)
        objective = new_objective
        if changed <= OBJECTIVE_TOL * (1.0 + abs(objective)):
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
