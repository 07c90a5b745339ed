"""Proximal operators used by the solver.

Two closed forms cover everything the splitting needs:

* the prox of a linear tilt over the capped simplex
  ``{x in [0,1]^n : sum(x) = k}``, solved exactly by a breakpoint search on
  the scalar dual variable of the sum constraint (Wang & Lu, "Projection onto
  the capped simplex", arXiv:1503.01002), and
* elementwise soft-thresholding (``shrinkage``), the prox of a weighted L1
  norm.

Both are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CappedSimplexParams", "cardinality_gap", "prox_capped_simplex", "shrinkage"]


@dataclass(frozen=True)
class CappedSimplexParams:
    """Parameters of ``argmin -degrees @ x + sum_i (tau_i/2) (x_i - v_i)^2`` over the
    capped simplex.

    ``tau`` is the quadratic scaling of the prox: one positive entry per vertex,
    kept as a float64 vector.
    """

    degrees: np.ndarray
    k: float
    tau: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.degrees, dtype=np.float64)
        object.__setattr__(self, "degrees", d)
        if d.ndim != 1 or d.size < 3:
            raise ValueError("degrees must be a vector of length >= 3")
        if not np.isfinite(d).all():
            raise ValueError("degrees must be finite")
        tau = np.asarray(self.tau, dtype=np.float64)
        object.__setattr__(self, "tau", tau)
        if tau.shape != d.shape:
            raise ValueError("tau must match the degree vector length")
        if not ((tau > 0).all() and np.isfinite(tau).all()):
            raise ValueError("tau must be positive")
        if not 2 <= self.k <= d.size - 1:
            raise ValueError(f"k must lie in [2, {d.size - 1}], got {self.k}")


def cardinality_gap(nu: float, v: np.ndarray, p: CappedSimplexParams, out=None) -> float:
    """``sum_i clamp(v_i + (degrees_i - nu)/tau_i, 0, 1) - k``, formed in ``out`` if given.

    Monotone non-increasing in ``nu``; its root is the optimal dual variable
    of the sum-to-k constraint. The clamp is ``np.clip``'s up to the sign of
    a zero, which no sum less ``k`` can show.
    """
    x = np.subtract(p.degrees, nu, out=out)
    x /= p.tau
    x += v
    np.maximum(x, 0.0, out=x)
    return float(np.minimum(x, 1.0, out=x).sum() - p.k)


def prox_capped_simplex(v, p: CappedSimplexParams, start: float | None = None):
    """Exact prox of the linear-plus-box-plus-sum-to-k function.

    Returns ``(x, nu)`` where ``x_i = clamp(v_i + (degrees_i - nu)/tau_i, 0, 1)``
    and ``nu`` is the root of the cardinality gap, so ``sum(x) = k`` up to
    roundoff. The box constraints hold exactly by construction.

    The gap is piecewise linear with breakpoints ``shifted_i - tau_i`` and
    ``shifted_i``, where ``shifted = degrees + tau*v``: it equals ``n - k`` at
    the smallest and ``-k`` at the largest. A binary search over the sorted
    breakpoints finds the segment holding the root in ``ceil(log2(2n))`` gap
    evaluations, or in the bracket it gallops to from a guess ``start`` (the
    solver's extrapolated root). The gap is monotone in floating point too, so every
    search finds the same segment, and the root is interpolated on it.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != p.degrees.shape:
        raise ValueError("v must match the degree vector length")
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")

    shifted = p.degrees + p.tau * v
    breaks = np.sort(np.concatenate([shifted - p.tau, shifted]))
    # invariant: gap(breaks[lo]) > 0 >= gap(breaks[hi]); the end gaps are never evaluated
    lo, hi, step = 0, breaks.shape[0] - 1, 1
    gap_lo, gap_hi = v.shape[0] - p.k, -p.k
    at = None if start is None else min(max(int(np.searchsorted(breaks, start)), 1), hi - 1)
    scratch = np.empty_like(v)   # every gap evaluation's buffer
    while hi - lo > 1:
        mid = (lo + hi) // 2 if at is None else at
        gap_mid = cardinality_gap(breaks[mid], v, p, out=scratch)
        if gap_mid > 0:
            lo, gap_lo = mid, gap_mid
        else:
            hi, gap_hi = mid, gap_mid
        if at is not None:  # gallop the way the gap points, by 1, 2, 4, ... breakpoints
            at, step = (mid + step if gap_mid > 0 else mid - step), 2 * step
            at = at if lo < at < hi else None  # it turned back or hit an end: bisect
    nu = float(breaks[hi] - (breaks[hi] - breaks[lo]) * gap_hi / (gap_hi - gap_lo))
    x = np.clip(v + (p.degrees - nu) / p.tau, 0.0, 1.0)
    return x, nu


def shrinkage(v, w, rho: float) -> np.ndarray:
    """Soft-threshold ``v`` elementwise at per-entry levels ``w / rho``.

    This is the prox of ``z -> sum(w * |z|)`` under the scaling
    ``prox(v) = argmin f(z) + (rho/2) ||z - v||^2``:
    ``v - clip(v, -w/rho, w/rho)``, bitwise the same as
    ``max(0, v - w/rho) - max(0, -v - w/rho)``.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(w, dtype=np.float64) / rho
    if t.shape != v.shape:
        raise ValueError("v and w must have the same length")
    clipped = np.clip(v, -t, t)
    return np.subtract(v, clipped, out=clipped)
