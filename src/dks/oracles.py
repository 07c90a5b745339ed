"""Independent ground truth: exhaustive densest-k search and planted instances.

Nothing here is fast; everything is simple enough to trust. ``brute_force_dks``
serves ``--method brute`` and the tests' optimality checks; the deterministic
planted-clique generator serves ``dks gen`` and the acceptance gates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, VertexSet

__all__ = [
    "PlantedInstance",
    "brute_force_dks",
    "generate_planted",
]

# generate_planted draws over every vertex pair, about 12 bytes each at peak
_MAX_PAIRS = 10**7
_MAX_SUBSETS = 10**7   # brute_force_dks refuses to enumerate more k-subsets


def _dense_adjacency(g: Graph) -> np.ndarray:
    W = np.zeros((g.n, g.n))
    W[g.edges[:, 0], g.edges[:, 1]] = g.weights
    W[g.edges[:, 1], g.edges[:, 0]] = g.weights
    return W


def brute_force_dks(g: Graph, k: int):
    """Exact densest-k by exhaustive enumeration; ``(vertex_set, weight)``.

    Subsets are enumerated in lexicographic order and ties keep the first
    maximum, so the winner is the lexicographically smallest optimal subset.
    Refuses instances with more than ``_MAX_SUBSETS`` subsets.
    """
    if not 2 <= k <= g.n:
        raise ValueError(f"k must lie in [2, {g.n}], got {k}")
    total = math.comb(g.n, k)
    if total > _MAX_SUBSETS:
        raise ValueError(
            f"C({g.n}, {k}) = {total} subsets exceeds the enumeration limit {_MAX_SUBSETS}")
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


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A background random graph with a clique hidden on k chosen vertices."""

    graph: Graph
    planted: VertexSet


def generate_planted(n: int, k: int, p: float, seed: int) -> PlantedInstance:
    """Erdős-Rényi background ``G(n, p)`` plus a clique on k uniform vertices.

    Deterministic for a fixed seed. The planted set always induces edge
    density exactly 1.0 in the generated graph. Refuses instances with more
    than ``_MAX_PAIRS`` vertex pairs.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise ValueError(f"n = {n} exceeds the generator's limit of {_MAX_PAIRS} vertex pairs")
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
    return PlantedInstance(graph=graph, planted=VertexSet.from_members(graph, members))
