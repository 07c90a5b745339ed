"""Independent ground-truth generators for tests and acceptance gates.

Nothing here is fast; everything is simple enough to trust: exhaustive
densest-k search, the sorted-prefix greedy evaluation of the Lovász
extension, a submodularity checker, dense linear-algebra cross-checks, and a
deterministic planted-clique instance generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, VertexSet, subgraph_weight

__all__ = [
    "PlantedInstance",
    "DenseForms",
    "brute_force_dks",
    "edmonds_lovasz",
    "check_submodular",
    "generate_planted",
    "dense_cross_check",
]


def _dense_adjacency(g: Graph) -> np.ndarray:
    W = np.zeros((g.n, g.n))
    W[g.edges[:, 0], g.edges[:, 1]] = g.weights
    W[g.edges[:, 1], g.edges[:, 0]] = g.weights
    return W


def brute_force_dks(g: Graph, k: int, limit: int = 10**7):
    """Exact densest-k by exhaustive enumeration; ``(vertex_set, weight)``.

    Subsets are enumerated in lexicographic order and ties keep the first
    maximum, so the winner is the lexicographically smallest optimal subset.
    Refuses instances with more than ``limit`` subsets.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, {g.n}], got {k}")
    total = math.comb(g.n, k)
    if total > limit:
        raise ValueError(
            f"C({g.n}, {k}) = {total} subsets exceeds the enumeration limit {limit}")
    W = _dense_adjacency(g)
    chunk_rows = max(1, 5_000_000 // max(g.n, 1))
    combos = itertools.combinations(range(g.n), k)
    best_weight = -np.inf
    best = None
    while True:
        block = list(itertools.islice(combos, chunk_rows))
        if not block:
            break
        idx = np.asarray(block, dtype=np.int64)
        X = np.zeros((idx.shape[0], g.n))
        np.put_along_axis(X, idx, 1.0, axis=1)
        values = np.einsum("ij,ij->i", X @ W, X)
        j = int(np.argmax(values))
        if values[j] > best_weight:
            best_weight = float(values[j])
            best = block[j]
    chosen = VertexSet.from_members(g, best)
    return chosen, chosen.subgraph_weight


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
class PlantedInstance:
    """A background random graph with a clique hidden on k chosen vertices."""

    graph: Graph
    planted: VertexSet
    background_p: float
    seed: int


def generate_planted(n: int, k: int, p: float, seed: int) -> PlantedInstance:
    """Erdős-Rényi background ``G(n, p)`` plus a clique on k uniform vertices.

    Deterministic for a fixed seed. The planted set always induces edge
    density exactly 1.0 in the generated graph.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(n, size=k, replace=False))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    in_clique = np.zeros(n, dtype=bool)
    in_clique[members] = True
    keep |= in_clique[iu] & in_clique[ju]
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    graph = Graph.from_edges(n, edges)
    return PlantedInstance(
        graph=graph,
        planted=VertexSet.from_members(graph, members),
        background_p=float(p),
        seed=int(seed),
    )


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
