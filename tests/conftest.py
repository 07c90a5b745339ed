"""Shared fixtures and independent test oracles."""

import numpy as np
import pytest

from dks.graph import Graph


@pytest.fixture
def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def k4k2():
    """Disjoint union of K4 (vertices 0-3) and K2 (vertices 4-5)."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]
    return Graph.from_edges(6, edges)


@pytest.fixture
def c6():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def star5():
    """Star on 5 vertices, center 0."""
    return Graph.from_edges(5, [(0, i) for i in range(1, 5)])


def random_graph(rng, n, p, weighted=False, dyadic=False, ensure_edge=True):
    """G(n, p) with optional random weights in (0, 2].

    ``dyadic`` draws weights as integer multiples of 2**-20 so that edge-scan
    sums are exact in binary floating point.
    """
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    if ensure_edge and not keep.any():
        keep[rng.integers(0, iu.size)] = True
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    if weighted:
        if dyadic:
            weights = rng.integers(1, 2**21, size=edges.shape[0]) * 2.0**-20
        else:
            weights = rng.uniform(0.0, 2.0, size=edges.shape[0])
            weights[weights == 0.0] = 2.0
    else:
        weights = None
    return Graph.from_edges(n, edges, weights)


def capped_simplex_exact(v, d, k, tau):
    """Exact minimizer of -d@x + (tau/2)||x - v||^2 over the capped simplex.

    Independent of the library's binary search: the gap is evaluated at every
    distinct breakpoint of the dual function and the root located by linear
    interpolation on the unique segment where the (piecewise-linear,
    non-increasing) cardinality gap crosses zero.
    Returns (x, nu).
    """
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    shifted = d + tau * v
    breakpoints = np.unique(np.concatenate([shifted - tau, shifted]))

    def gap(nu):
        return np.clip(v + (d - nu) / tau, 0.0, 1.0).sum() - k

    values = np.array([gap(nu) for nu in breakpoints])
    idx = int(np.searchsorted(-values, 0.0, side="left"))  # first gap <= 0
    if idx == 0:
        nu = breakpoints[0]
    elif values[idx] == 0.0:
        nu = breakpoints[idx]
    else:
        lo, hi = breakpoints[idx - 1], breakpoints[idx]
        glo, ghi = values[idx - 1], values[idx]
        nu = lo + (hi - lo) * glo / (glo - ghi)
    return np.clip(v + (d - nu) / tau, 0.0, 1.0), float(nu)


def random_feasible_batch(rng, rows, n, k):
    """Random points of {x in [0,1]^n : sum x = k}, one per row.

    Uniform draws rescaled toward 0 (when the sum is high) or toward 1 (when
    low); both maps keep the box and hit the sum exactly up to float
    roundoff.
    """
    y = rng.random((rows, n))
    s = y.sum(axis=1, keepdims=True)
    high = (s >= k).ravel()
    out = np.empty_like(y)
    out[high] = y[high] * (k / s[high])
    low = ~high
    out[low] = 1.0 - (1.0 - y[low]) * ((n - k) / (n - s[low]))
    return out


def random_feasible_point(rng, n, k):
    return random_feasible_batch(rng, 1, n, k)[0]
