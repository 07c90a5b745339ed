"""Dense test oracles for the matrix-free library code.

Each is simple enough to trust and slow enough to keep out of the package:
the sorted-prefix greedy evaluation of the Lovász extension, a
submodularity checker, dense linear-algebra materializations of the graph
operators, and the full-scan forms of the kernels that skip to the chosen
vertices, which those must match bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dks.graph import Graph, subgraph_weight
from dks.oracles import _dense_adjacency


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


def subgraph_weight_by_mask(g: Graph, members) -> float:
    """``1_S' W 1_S`` from a membership mask over every edge."""
    mask = np.zeros(g.n, dtype=bool)
    mask[np.asarray(list(members), dtype=np.int64)] = True
    inside = mask[g.edges[:, 0]] & mask[g.edges[:, 1]]
    return 2.0 * float(g.weights[inside].sum())


def topk_full_sort(x, k: int) -> np.ndarray:
    """The first ``k`` of one stable sort of every entry, largest first."""
    return np.argsort(-np.asarray(x), kind="stable")[:k]
