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
    _check_vertex_vector,
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
MAX_ITER = 100         # step cap of frank_wolfe_refine


def project_topk(g: Graph, x, k: int) -> VertexSet:
    """Support of the k largest entries of ``x``; ties go to the smallest index."""
    check_k(g, k)
    return VertexSet.from_members(g, topk(_check_vertex_vector(g, x), k))


@dataclass(eq=False)
class FrankWolfeResult:
    x: np.ndarray
    selected: VertexSet
    iters: int
    objective_history: np.ndarray   # -x'Wx at x^0, x^1, ...
    stop_reason: str                # stationary | objective | max-iter
    integrality_gap: float          # ||x - round(x)||_inf of the final iterate


def frank_wolfe_refine(g: Graph, k: int, x0) -> FrankWolfeResult:
    """Refine a fractional point on the indefinite surrogate ``min -x' W x``.

    Each step takes the gradient direction's linear minimizer over the capped
    simplex (the top-k indicator of ``W x``, ties to the smallest index) and
    moves along ``x_bar - x`` by exact line search. Stops at a
    linear-minimization fixed point (zero step, which is exactly Frank-Wolfe
    stationarity on a polytope), on relative objective change below
    ``OBJECTIVE_TOL``, or after ``MAX_ITER`` (100) steps.

    The final iterate is usually integral in practice, but this is measured
    (``integrality_gap``) rather than assumed; ``selected`` is its top-k
    projection either way.
    """
    check_k(g, k)
    x = _check_vertex_vector(g, x0)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if x.min() < -1e-8 or x.max() > 1 + 1e-8 or abs(x.sum() - k) > 1e-3 * max(1.0, k):
        raise ValueError("x0 must lie in the capped simplex (up to solver tolerance)")
    x = np.clip(x, 0.0, 1.0)

    wx = adjacency_matvec(g, x)
    objective = -float(x @ wx)
    history = [objective]
    stop_reason = "max-iter"
    for iters in range(1, MAX_ITER + 1):   # a zero step at a stationary stop counts
        x_bar = np.zeros(g.n)
        x_bar[topk(wx, k)] = 1.0
        d = x_bar - x
        gap = float(wx @ d)   # = x' W d by symmetry; Frank-Wolfe gap / 2
        if gap <= 0.0:
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
        changed = abs(new_objective - objective)
        objective = new_objective
        if changed <= OBJECTIVE_TOL * (1.0 + abs(objective)):
            stop_reason = "objective"
            break

    return FrankWolfeResult(
        x=x,
        selected=project_topk(g, x, k),
        iters=iters,
        objective_history=np.asarray(history),
        stop_reason=stop_reason,
        integrality_gap=float(np.max(np.abs(x - np.round(x)))),
    )
