"""Shared fixtures and independent test oracles."""

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
    return Graph.from_edges(len(ids), edges, weights, original_ids=ids)
