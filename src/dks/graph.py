"""Weighted undirected graphs and the matrix-free linear operators built on them.

Everything here is pure and deterministic: a :class:`Graph` is immutable after
construction (its arrays are marked read-only) and safe to share across
concurrent solver runs, and the operators reduce with numpy's sequential
``bincount``, so results are bit-stable regardless of thread count.
"""

from __future__ import annotations

import gzip
import io
import math
import sys
import zlib
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeListParseError",
    "Graph",
    "VertexSet",
    "load_edge_list",
    "write_edge_list",
    "check_k",
    "topk",
    "edge_differences",
    "edge_differences_adjoint",
    "adjacency_matvec",
    "incidence_norm_sq_upper",
    "subgraph_weight",
    "edge_density",
]


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected simple graph.

    Edges are stored once as ``(i, j)`` pairs with ``i < j``, sorted
    lexicographically. That fixed, deterministic orientation stands in for the
    signed vertex-edge incidence matrix, which is never materialized: a column
    for edge ``(i, j)`` is understood as ``e_i - e_j``.

    ``original_ids[i]`` is the label vertex ``i`` carried before relabeling to
    the dense ``0..n-1`` range (the identity for programmatically built
    graphs).
    """

    n: int
    m: int
    edges: np.ndarray        # (m, 2) int64, i < j, lexicographically sorted
    weights: np.ndarray      # (m,) float64, strictly positive
    degree: np.ndarray       # (n,) float64 weighted degree W @ 1
    original_ids: np.ndarray  # (n,) int64

    @classmethod
    def from_edges(cls, n, edges, weights=None, original_ids=None) -> "Graph":
        """Build a graph from ``(u, v)`` pairs, canonicalizing orientation and order.

        Pairs may come in either orientation but must be free of self-loops and
        duplicates (merge duplicates before calling; :func:`load_edge_list`
        does). Weights default to 1 and must be strictly positive and finite.
        """
        if n < 1:
            raise ValueError("vertex count must be positive")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = e.shape[0]
        if weights is None:
            w = np.ones(m)
        else:
            w = np.asarray(weights, dtype=np.float64).copy()
            if w.shape != (m,):
                raise ValueError("weights length must match edge count")
        if m:
            if e.min() < 0 or e.max() >= n:
                raise ValueError("vertex id out of range")
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            if not np.isfinite(w).all() or (w <= 0).any():
                raise ValueError("edge weights must be positive and finite")
            lo = e.min(axis=1)
            hi = e.max(axis=1)
            e = np.stack([lo, hi], axis=1)
            order = np.lexsort((e[:, 1], e[:, 0]))
            e = e[order]
            w = w[order]
            if m > 1 and ((e[1:] == e[:-1]).all(axis=1)).any():
                raise ValueError("duplicate edges are not allowed")

        degree = np.bincount(e.T.ravel(), weights=np.concatenate([w, w]), minlength=n)
        if original_ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(original_ids, dtype=np.int64).copy()
            if ids.shape != (n,):
                raise ValueError("original_ids length must equal n")

        g = cls(
            n=int(n),
            m=int(m),
            edges=e,
            weights=w,
            degree=degree,
            original_ids=ids,
        )
        for arr in (g.edges, g.weights, g.degree, g.original_ids):
            arr.setflags(write=False)
        return g

    @property
    def is_unweighted(self) -> bool:
        return bool((self.weights == 1.0).all())


@dataclass(frozen=True)
class VertexSet:
    """A k-subset of vertices with its cached subgraph weight and edge density.

    ``subgraph_weight`` is ``1_S' W 1_S`` (twice the internal edge weight);
    ``density`` divides it by ``k*(k-1)`` so an unweighted k-clique scores 1.
    """

    members: tuple
    subgraph_weight: float
    density: float

    @property
    def k(self) -> int:
        return len(self.members)

    @classmethod
    def from_members(cls, g: Graph, members) -> "VertexSet":
        mem = tuple(sorted(int(v) for v in set(members)))
        k = len(mem)
        if k < 2:
            raise ValueError("a vertex set needs at least 2 members")
        w = subgraph_weight(g, mem)
        return cls(members=mem, subgraph_weight=w, density=w / (k * (k - 1)))


def check_k(g: Graph, k: int) -> None:
    """Raise ``ValueError`` unless ``2 <= k <= n - 1``, the sizes every method accepts."""
    if not 2 <= k <= g.n - 1:
        raise ValueError(f"k must lie in [2, n-1] = [2, {g.n - 1}], got {k}")


def topk(x, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of ``x``, largest first; ties to the smallest index."""
    return np.argsort(-np.asarray(x), kind="stable")[:k]


# ---------------------------------------------------------------------------
# ingestion


def _text_stream(source):
    """Open `source` (path, '-', or file-like) as text, gunzipping if needed."""
    if source == "-":
        data = sys.stdin.buffer.read()
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as raw:
            data = raw.read()
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            return io.StringIO(data)
    else:
        raise TypeError("source must be a path, '-', or a file-like object")
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:
            raise ValueError(f"corrupt gzip input: {exc}") from None
    # a text view of the bytes, not a decoded copy: StringIO would hold the
    # whole input again as UCS-4; newline="\n" splits lines as StringIO does
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


def _largest_component(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the largest connected component of edges ``(a, b)`` over ``0..n-1``.

    Hooking and shortcutting (Shiloach & Vishkin 1982): every root is hooked
    onto the smallest root across its edges, then pointers are jumped until
    each vertex points at its root. Roots only ever move to smaller ids, so
    each component ends rooted at its smallest vertex, and ``argmax`` over the
    component sizes breaks ties towards the component with the smallest id.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
    return root == np.argmax(np.bincount(root, minlength=n))


def load_edge_list(source, weighted: bool = False) -> Graph:
    """Load a graph from line-oriented edge-list text.

    Lines are ``u v`` (or ``u v w`` when ``weighted``); ``#``/``%`` lines are
    comments. Vertex ids are integers that fit in a signed 64-bit integer.
    Preprocessing: arcs are symmetrized, self-loops dropped, duplicate pairs
    merged (presence semantics for unweighted input, weight sums in file
    order for weighted), and the largest connected component is extracted
    (ties go to the one holding the smallest id) with vertices relabeled to a
    dense ``0..n-1`` range in ascending original-id order. Gzip input is
    detected transparently; ``source`` may be a path, ``"-"`` for stdin, or a
    file-like object.

    Raises :class:`EdgeListParseError` on malformed lines, and ``ValueError``
    on corrupt gzip input or if no edges survive preprocessing.
    """
    stream = _text_stream(source)
    want = 3 if weighted else 2
    ends = array("q")
    weights = array("d")
    for lineno, line in enumerate(stream, 1):
        text = line.strip()
        if not text or text[0] in "#%":
            continue
        parts = text.split()
        if len(parts) != want:
            raise EdgeListParseError(
                f"line {lineno}: expected {want} fields, got {len(parts)}", lineno)
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-numeric vertex id", lineno) from None
        try:
            ends.append(u)
            ends.append(v)
        except OverflowError:
            raise EdgeListParseError(
                f"line {lineno}: vertex id out of range", lineno) from None
        if weighted:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListParseError(
                    f"line {lineno}: non-numeric edge weight", lineno) from None
            if not math.isfinite(w) or w <= 0:
                raise EdgeListParseError(
                    f"line {lineno}: edge weight must be positive and finite", lineno)
            weights.append(w)

    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    proper = pairs[:, 0] != pairs[:, 1]
    if not proper.any():
        raise ValueError("no edges left after preprocessing")
    pairs = np.sort(pairs[proper], axis=1)
    ids, dense = np.unique(pairs.ravel(), return_inverse=True)
    dense = dense.reshape(-1, 2)
    keys, pair_of = np.unique(dense[:, 0] * ids.size + dense[:, 1], return_inverse=True)
    if weighted:
        # bincount adds in file order starting from 0.0, like a sequential fold
        w = np.bincount(pair_of, weights=np.frombuffer(weights)[proper], minlength=keys.size)
    else:
        w = np.ones(keys.size)
    a, b = np.divmod(keys, ids.size)
    keep = _largest_component(ids.size, a, b)
    relabel = np.cumsum(keep) - 1
    inside = keep[a]
    edges = np.stack([relabel[a[inside]], relabel[b[inside]]], axis=1)
    return Graph.from_edges(int(keep.sum()), edges, w[inside], original_ids=ids[keep])


def write_edge_list(g: Graph, dest) -> None:
    """Serialize in the same text format `load_edge_list` reads, using original ids.

    Weighted form is emitted whenever any weight differs from 1; weights are
    written with ``repr`` so a reload reproduces the graph exactly.
    """
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    f = open(dest, "w") if own else dest
    try:
        ids = g.original_ids
        if g.is_unweighted:
            for i, j in g.edges:
                f.write(f"{ids[i]} {ids[j]}\n")
        else:
            for (i, j), w in zip(g.edges, g.weights):
                f.write(f"{ids[i]} {ids[j]} {float(w)!r}\n")
    finally:
        if own:
            f.close()


# ---------------------------------------------------------------------------
# matrix-free operators


def _check_vertex_vector(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vertex vector, got shape {x.shape}")
    return x


def edge_differences(g: Graph, x) -> np.ndarray:
    """Per-edge differences ``x_i - x_j`` in stored edge order (``B^T x``)."""
    x = _check_vertex_vector(g, x)
    return x[g.edges[:, 0]] - x[g.edges[:, 1]]


def edge_differences_adjoint(g: Graph, f) -> np.ndarray:
    """Exact adjoint of :func:`edge_differences`: accumulate ``+f_e`` at ``i``, ``-f_e`` at ``j``."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.m,):
        raise ValueError(f"expected a length-{g.m} edge vector, got shape {f.shape}")
    return (np.bincount(g.edges[:, 0], weights=f, minlength=g.n)
            - np.bincount(g.edges[:, 1], weights=f, minlength=g.n))


def adjacency_matvec(g: Graph, x) -> np.ndarray:
    """``W @ x`` via one edge scan."""
    x = _check_vertex_vector(g, x)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    out = np.bincount(e0, weights=g.weights * x[e1], minlength=g.n)
    out += np.bincount(e1, weights=g.weights * x[e0], minlength=g.n)
    return out


def _unweighted_matvec(g: Graph, x: np.ndarray) -> np.ndarray:
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    return (np.bincount(e0, weights=x[e1], minlength=g.n)
            + np.bincount(e1, weights=x[e0], minlength=g.n))


def power_iteration_norm(matvec, n: int, tol: float = 1e-4, max_iter: int = 1000,
                         block: int = 4):
    """Spectral norm of a symmetric operator by block power iteration.

    A single power-iteration vector can plateau near a sub-dominant
    eigenvalue when the start vector barely overlaps the top eigenspace; a
    small orthonormal block makes that failure mode vanish in practice.
    Rayleigh-Ritz on the block gives signed Ritz pairs (so indefinite
    spectra, bipartite adjacencies and deflated operators included, need no
    sign games), and iteration stops only when the dominant pair's residual
    ``||A v - mu v||`` falls below ``0.5 * tol * |mu|``: value-increment
    tests can be fooled while the top eigendirection is still emerging, a
    residual cannot. A small residual places an eigenvalue within ``r`` of
    ``mu``, so callers inflating by ``(1 + tol)`` hold a safe upper estimate.

    The start block comes from a fixed seed and the returned vector's sign is
    normalized, so results are deterministic. Returns
    ``(sigma, unit_vector, converged)`` with the vector a dominant
    eigenvector; hitting the iteration cap returns the current estimate
    flagged ``converged = False``, never silently.
    """
    rng = np.random.default_rng(0x5EED)
    width = min(block, n)
    basis, _ = np.linalg.qr(rng.standard_normal((n, width)))
    sigma = 0.0
    vec = basis[:, 0]
    converged = False
    for _ in range(max_iter):
        image = np.column_stack([matvec(basis[:, j]) for j in range(width)])
        small = basis.T @ image
        eigvals, eigvecs = np.linalg.eigh(0.5 * (small + small.T))
        idx = int(np.argmax(np.abs(eigvals)))
        mu = float(eigvals[idx])
        sigma = abs(mu)
        vec = basis @ eigvecs[:, idx]
        if sigma == 0.0:
            if float(np.abs(image).max()) == 0.0:
                converged = True
                break
        else:
            residual = float(np.linalg.norm(image @ eigvecs[:, idx] - mu * vec))
            if residual <= 0.5 * tol * sigma:
                converged = True
                break
        basis, _ = np.linalg.qr(image)
    top = int(np.argmax(np.abs(vec)))
    if vec[top] < 0:
        vec = -vec
    return sigma, vec, converged


def incidence_norm_sq_upper(g: Graph, tol: float = 1e-2, max_iter: int = 2000) -> float:
    """Safe upper estimate of the squared incidence spectral norm ``||B||^2``.

    Power iteration on the unweighted combinatorial Laplacian ``B B^T``
    (matrix-free: ``L x = deg * x - A x``), inflated by ``(1 + tol)`` and
    capped at the certified Anderson-Morley bound ``max_edge(deg_i + deg_j)``.
    If the iteration cap is hit, the always-valid Gershgorin bound
    ``2 * max_degree`` is returned instead. Overestimating is safe for
    consumers that need a feasible step size; underestimating is not.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    counts = np.bincount(g.edges.ravel(), minlength=g.n).astype(np.float64)
    gershgorin = 2.0 * float(counts.max())
    estimate, _, converged = power_iteration_norm(
        lambda x: counts * x - _unweighted_matvec(g, x), g.n,
        tol=0.5 * tol, max_iter=max_iter)
    if not converged:
        return gershgorin
    edge_bound = float((counts[g.edges[:, 0]] + counts[g.edges[:, 1]]).max())
    return min((1.0 + tol) * estimate, edge_bound)


def subgraph_weight(g: Graph, members) -> float:
    """``1_S' W 1_S``: twice the total weight of edges inside ``members``."""
    idx = np.fromiter((int(v) for v in members), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.n):
        raise ValueError("vertex id out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    inside = mask[g.edges[:, 0]] & mask[g.edges[:, 1]]
    return 2.0 * float(g.weights[inside].sum())


def edge_density(g: Graph, members) -> float:
    """Subgraph weight normalized by ``k*(k-1)``; 1.0 for an unweighted clique."""
    mem = set(int(v) for v in members)
    k = len(mem)
    if k < 2:
        raise ValueError("edge density needs at least 2 vertices")
    return subgraph_weight(g, mem) / (k * (k - 1))
