"""Shared fixtures and independent test oracles."""

import functools
import gzip
import io
import sys
import zlib

import numpy as np
import pytest

from dks.graph import EdgeListParseError, Graph


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


def record_makes(monkeypatch, name: str) -> list:
    """Patch the cached property ``Graph.<name>`` to append each graph it is made
    for to the returned list; a kept value is read back without a call."""
    made, make = [], getattr(Graph, name).func
    counted = functools.cached_property(lambda g: made.append(g) or make(g))
    counted.__set_name__(Graph, name)
    monkeypatch.setattr(Graph, name, counted)
    return made


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


def near_bipartite(h, swaps, seed):
    """A connected 3-regular graph on ``2h`` vertices, bipartite but for ``swaps`` swaps.

    It starts from the circulant bipartite graph joining ``i < h`` to
    ``h + (i + j) % h`` for ``j < 3``; each swap replaces two random edges
    ``(a1, b1), (a2, b2)`` by ``(a1, a2)`` and ``(b1, b2)``, keeping degrees.
    Its two extreme adjacency eigenvalues are then nearly equal in magnitude:
    ``near_bipartite(150, 12, 5)`` has ``lambda_max = 3``, ``lambda_2 =
    2.9875391`` and ``lambda_min = -2.9868830``.
    """
    edges = sorted((i, h + (i + j) % h) for i in range(h) for j in range(3))
    rng = np.random.default_rng(seed)
    done = 0
    while done < swaps:
        p, q = rng.choice(len(edges), 2, replace=False)
        (a1, b1), (a2, b2) = edges[p], edges[q]
        new = (min(a1, a2), max(a1, a2)), (min(b1, b2), max(b1, b2))
        if a1 == a2 or b1 == b2 or any(e in edges for e in new):
            continue
        edges[p], edges[q] = new
        edges.sort()
        done += 1
    return Graph.from_edges(2 * h, edges)


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


# `Graph.from_edges` as it was before the edge order became one int64 key:
# axis-1 min/max, a two-key lexsort on the wavefront order (i + j, i) and a
# 2-D duplicate scan, kept as the oracle for that constructor.
def from_edges_reference(n, edges, weights=None, original_ids=None) -> Graph:
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
        order = np.lexsort((e[:, 0], e[:, 0] + e[:, 1]))
        e = e[order]
        w = w[order]
        if m > 1 and ((e[1:] == e[:-1]).all(axis=1)).any():
            raise ValueError("duplicate edges are not allowed")

    # float64 whatever the edge count: bincount of no terms at all comes back int64
    degree = np.bincount(e.T.ravel(), weights=np.concatenate([w, w]),
                         minlength=n).astype(np.float64)
    if original_ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(original_ids, dtype=np.int64).copy()
        if ids.shape != (n,):
            raise ValueError("original_ids length must equal n")

    scan = np.asfortranarray(e)
    g = Graph(
        n=int(n),
        m=int(m),
        edges=scan.view(),
        weights=w,
        degree=degree,
        original_ids=ids,
        _scan=scan,
    )
    for arr in (g.edges, g.weights, g.degree, g.original_ids):
        arr.setflags(write=False)
    return g


def _text_stream_reference(source):
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
    return io.StringIO(data.decode("utf-8"))


# The loader as it was before ingestion became one array pipeline: a dict
# merge and a dict union-find over a decoded StringIO copy of the input,
# kept as the oracle for `load_edge_list`.
def load_edge_list_reference(source, weighted: bool = False) -> Graph:
    """Load a graph from line-oriented edge-list text.

    Lines are ``u v`` (or ``u v w`` when ``weighted``); ``#``/``%`` lines are
    comments. Preprocessing: arcs are symmetrized, self-loops dropped,
    duplicate pairs merged (presence semantics for unweighted input, weight
    sums for weighted), and the largest connected component is extracted with
    vertices relabeled to a dense ``0..n-1`` range in ascending original-id
    order. Gzip input is detected transparently; ``source`` may be a path,
    ``"-"`` for stdin, or a file-like object.

    Raises :class:`EdgeListParseError` on malformed lines and ``ValueError``
    if no edges survive preprocessing.
    """
    stream = _text_stream_reference(source)
    want = 3 if weighted else 2
    merged: dict = {}
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
        if weighted:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListParseError(
                    f"line {lineno}: non-numeric edge weight", lineno) from None
            if not np.isfinite(w) or w <= 0:
                raise EdgeListParseError(
                    f"line {lineno}: edge weight must be positive and finite", lineno)
        else:
            w = 1.0
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if weighted:
            merged[key] = merged.get(key, 0.0) + w
        else:
            merged[key] = 1.0
    if not merged:
        raise ValueError("no edges left after preprocessing")

    # largest connected component by union-find over original labels
    parent: dict = {}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for u, v in merged:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    components: dict = {}
    for v in parent:
        components.setdefault(find(v), []).append(v)
    keep = set(max(components.values(), key=lambda c: (len(c), -min(c))))

    ids = sorted(keep)
    index = {orig: i for i, orig in enumerate(ids)}
    pairs = [(u, v) for (u, v) in merged if u in keep]
    pairs.sort()
    edges = [(index[u], index[v]) for u, v in pairs]
    weights = [merged[p] for p in pairs]
    return from_edges_reference(len(ids), edges, weights, original_ids=ids)


# `power_iteration_norm` as it was before it became restarted Lanczos: a
# 4-vector block power iteration with Rayleigh-Ritz, kept as the oracle for
# the spectral estimates. Its start block can meet an eigenspace of dimension
# above n - 4 and certify a sub-dominant eigenvalue (the -1 of 2 x K4 plus a
# disjoint edge), so tests compare against it only where it matches the dense
# eigenvalues.
def power_iteration_norm_reference(matvec, n: int, tol: float = 1e-4, max_iter: int = 1000,
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
