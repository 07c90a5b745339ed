"""Weighted undirected graphs and the matrix-free linear operators built on them.

Everything here is pure and deterministic: a :class:`Graph` is immutable after
construction (its arrays are marked read-only) and safe to share across
concurrent solver runs. The bincount operators reduce in one fixed order, bit-stable
whatever the thread count; ``power_iteration_norm``'s BLAS dot products and norms
can move in their last bits with ``OPENBLAS_NUM_THREADS``. Edges are stored
once, in the wavefront order ``(i + j, i)`` that every scan follows.
"""

from __future__ import annotations

import gzip
import io
import math
import sys
import warnings
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property

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
]


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(message)
        self.lineno = lineno


# the edge key below stays under 2 * n * n, which must fit in int64
_MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max // 2)


def _edge_key(a, b, n: int) -> np.ndarray:
    """Edge ``{a, b}``'s key over ``0..n-1``: keys ascend in the wavefront order
    ``(i + j, i)``, ``i < j``, and :func:`_edge_ends` gives back ``(i, j)``."""
    key = np.add(a, b)
    return np.add(np.multiply(key, n, out=key), np.minimum(a, b), out=key)


def _edge_ends(key: np.ndarray, n: int, i=None, j=None):
    """The ``(i, j)`` of :func:`_edge_key`'s ``key``, into ``i`` and ``j`` if given;
    ``j`` is formed in place, with no temporary."""
    i = np.remainder(key, n, out=i)
    j = np.floor_divide(key, n, out=j)
    j -= i
    return i, j


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for int64 keys in ``[0, bound)``.

    Each ``key * m + id`` is unique and ascends as ``(key, id)`` does, so one
    plain sort of them (numpy's SIMD sort, about 5x faster than the stable
    timsort at m = 1e5) and ``% m`` give the stable order. Keys whose
    ``bound * m`` overflows int64 take the stable argsort itself.
    """
    m = key.size
    if bound * m > np.iinfo(np.int64).max:
        return np.argsort(key, kind="stable")
    packed = key * m + np.arange(m)
    packed.sort()
    return np.remainder(packed, m, out=packed)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected simple graph.

    Edges are stored once as ``(i, j)`` pairs with ``i < j``, sorted by
    ``(i + j, i)``: the wavefront order, which every edge-indexed result
    follows and every scan runs in. Each vertex meets its head edges in
    ascending ``j`` and its tail edges in ascending ``i``, as in lexicographic
    order, so per-vertex sums have the bits that order gives, and neighbouring
    edges seldom share a bin. That fixed orientation stands in for the signed
    vertex-edge incidence matrix, which is never materialized: a column for
    edge ``(i, j)`` is understood as ``e_i - e_j``.

    ``original_ids[i]`` is the label vertex ``i`` carried before relabeling to
    the dense ``0..n-1`` range (the identity for programmatically built
    graphs). Every public array is read-only. ``edges`` is a read-only view of
    ``_scan``, a writeable array which only this module's kernels read: numpy
    copies a read-only index in every ``bincount`` and ``take``.
    """

    n: int
    m: int
    edges: np.ndarray        # (m, 2) int64, i < j, in (i + j, i) order, columns contiguous
    weights: np.ndarray      # (m,) float64, strictly positive
    degree: np.ndarray       # (n,) float64 weighted degree W @ 1
    original_ids: np.ndarray  # (n,) int64
    _scan: np.ndarray = field(repr=False)   # the writeable array edges shows

    @classmethod
    def from_edges(cls, n, edges, weights=None, original_ids=None) -> "Graph":
        """Build a graph from ``(u, v)`` pairs, canonicalizing orientation and order.

        Pairs may come in either orientation but must be free of self-loops and
        duplicates (merge duplicates before calling; :func:`load_edge_list`
        does). Weights default to 1 and must be positive, finite and of finite total.
        Pairs whose :func:`_edge_key` keys already ascend strictly are not sorted.
        """
        if not 1 <= n <= _MAX_VERTICES:
            raise ValueError(f"vertex count must lie in [1, {_MAX_VERTICES}], got {n}")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = e.shape[0]
        w = None if weights is None else np.array(weights, dtype=np.float64)
        if w is not None and w.shape != (m,):
            raise ValueError("weights length must match edge count")
        if m and (e.min() < 0 or e.max() >= n):
            raise ValueError("vertex id out of range")
        if (e[:, 0] == e[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        if w is not None:
            _check_weights(w)
        key = _edge_key(e[:, 0], e[:, 1], n)
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, w = key[order], None if w is None else w[order]
            if (key[1:] == key[:-1]).any():
                raise ValueError("duplicate edges are not allowed")
        scan = np.empty((m, 2), dtype=np.int64, order="F")   # each column contiguous
        _edge_ends(key, n, *scan.T)
        ids = np.array(np.arange(n) if original_ids is None else original_ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ValueError("original_ids length must equal n")
        return cls._from_scan(n, scan, w, ids)

    @classmethod
    def _from_scan(cls, n, scan, w, ids) -> "Graph":
        """Every graph's one builder. ``scan``, kept as ``_scan``, is an F-ordered
        ``(m, 2)`` int64 array of ``(i, j)``, ``i < j``, in strictly ascending
        wavefront order; ``w`` holds checked weights (None: unit ones)."""
        m = scan.shape[0]
        ends = scan.T.ravel()   # a view: the heads, then the tails
        # unit weights are counted, not summed: the same bits, with no 2m-float weight array
        w, terms = (np.ones(m), None) if w is None else (w, np.concatenate([w, w]))
        degree = _scatter(ends, terms, n)   # float64, an edgeless graph's too
        g = cls(n=int(n), m=int(m), edges=scan.view(), weights=w, degree=degree,
                original_ids=ids, _scan=scan)
        for arr in (g.edges, g.weights, g.degree, g.original_ids):
            arr.setflags(write=False)
        return g

    @cached_property
    def is_unweighted(self) -> bool:
        return bool((self.weights == 1.0).all())

    @cached_property
    def incidence(self) -> tuple:
        """``(head_order, head_ptr, tail_order, tail_ptr)``: the edges at each
        vertex, built on first use.

        Edges headed at ``v`` are ``head_order[head_ptr[v]:head_ptr[v + 1]]``,
        those tailed at ``v`` ``tail_order[tail_ptr[v]:tail_ptr[v + 1]]``, in
        ascending id order both. It costs 16 bytes per edge and 16 per vertex,
        and is built lazily so that loading a graph does not pay for it;
        concurrent first uses at worst build it twice, alike.
        """
        index = []
        for col in self._scan.T:
            index += [_stable_order(col, self.n),
                      np.concatenate([[0], np.cumsum(np.bincount(col, minlength=self.n))])]
        for arr in index:
            arr.setflags(write=False)
        return tuple(index)


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
    """Indices of the ``k`` largest entries of ``x``, largest first; ties to the smallest index.

    O(n + c log c), with c the number of entries at or above the k-th largest:
    only those are sorted, stably, in index order, so the result is the full
    stable sort's first k. NaN input and ``k >= n`` take the full sort.
    """
    x = np.asarray(x)
    if not 0 < k < x.size or np.isnan(x).any():
        return np.argsort(-x, kind="stable")[:k]
    top = np.flatnonzero(x >= np.partition(x, x.size - k)[x.size - k])
    return top[np.argsort(-x[top], kind="stable")[:k]]


# ---------------------------------------------------------------------------
# ingestion


def _read_source(source):
    """All of `source` (path, '-', or file-like), gunzipped if needed, less a leading BOM.

    Bytes come back checked to be UTF-8 (a bad byte raises the per-line
    parser's ``line N: invalid UTF-8`` wherever it lies in the file); the
    check is skipped when they are ASCII, so no decoded copy is built. A text
    file-like's str is encoded first, a lone surrogate kept as the bytes that
    check then reports, so every source kind takes one parse path.
    """
    if source == "-":
        data = sys.stdin.buffer.read()
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as raw:
            data = raw.read()
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
    else:
        raise TypeError("source must be a path, '-', or a file-like object")
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:
            raise ValueError(f"corrupt gzip input: {exc}") from None
    data = data.removeprefix(b"\xef\xbb\xbf")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise EdgeListParseError(f"line {lineno}: invalid UTF-8", lineno) from None
    return data


def _check_weights(w: np.ndarray) -> None:
    """Refuse weights that are not positive and finite, or whose total overflows."""
    if not np.isfinite(w).all() or (w <= 0).any():
        raise ValueError("edge weights must be positive and finite")
    with np.errstate(over="ignore"):   # every degree and subgraph weight sums part of it
        if not np.isfinite(2 * w.sum()):
            raise ValueError("total edge weight overflows")


def _largest_component(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the largest connected component of edges ``(a, b)`` over ``0..n-1``.

    Hooking and shortcutting (Shiloach & Vishkin 1982): every root is hooked
    onto the smallest root across its edges, then pointers are jumped until
    each vertex points at its root. Roots only ever move to smaller ids, so
    each component ends rooted at its smallest vertex, and ``argmax`` over the
    component sizes breaks ties towards the component with the smallest id.
    """
    root = np.arange(n)
    ra, rb, lo = np.empty_like(a), np.empty_like(b), np.empty_like(a)
    while True:
        # in-range ids: "wrap" moves none and spares take a copy of out
        np.take(root, a, out=ra, mode="wrap")
        np.take(root, b, out=rb, mode="wrap")
        if np.array_equal(ra, rb):
            break
        np.minimum(ra, rb, out=lo)
        np.minimum.at(root, np.maximum(ra, rb, out=ra), lo)
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
    return root == np.argmax(np.bincount(root, minlength=n))


def _parse_lines(stream, weighted: bool):
    """Per-line parse of edge-list text into flat endpoint ids and weights."""
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
            ends.extend((u, v))
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
    return ends, weights


# bytes the fast path lets through besides cut comment lines: ASCII digits,
# signs, the weight's decimal point and exponent, and the blanks and line
# ends both parsers split on alike
_ID_BYTES = b"0123456789+- \t\r\n"
_WEIGHT_BYTES = _ID_BYTES + b".eE"
_WEIGHTED_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _drop_comment_lines(data: bytes):
    """`data` without the lines whose first non-blank byte is ``#`` or ``%``,
    or None if either byte appears anywhere else."""
    kept, pos = [], 0
    marks = {c: data.find(c) for c in (b"#", b"%")}
    view = memoryview(data)  # slices of it are not copies
    while max(marks.values()) >= 0:
        mark = min(i for i in marks.values() if i >= 0)
        start = data.rfind(b"\n", pos, mark) + 1 or pos
        if data[start:mark].strip(b" \t"):
            return None
        kept.append(view[pos:start])
        pos = data.find(b"\n", mark) + 1 or len(data)
        # search again only for a byte whose next hit was cut with this line
        marks = {c: data.find(c, pos) if 0 <= i < pos else i for c, i in marks.items()}
    if not kept:
        return data
    kept.append(view[pos:])
    return b"".join(kept)


def _fast_parse(data, weighted: bool):
    """:func:`_parse_lines`' ids and weights as arrays, from one C-level
    ``np.loadtxt`` call, or None where the input is outside what it reads.

    It reads bytes whose ``#``/``%`` all lie in comment lines, whose other
    bytes are in ``_ID_BYTES`` (``_WEIGHT_BYTES`` when weighted) and whose every
    carriage return ends a line as CR LF. On those bytes ``loadtxt`` accepts
    only fields that ``int()`` and ``float()`` read to the same values; anything
    else it raises on, and so does a wrong field count. A weight that is not
    positive and finite also gives None, so the per-line parser's errors are
    the only ones a caller ever sees.
    """
    data = _drop_comment_lines(data)
    if (data is None or data.translate(None, _WEIGHT_BYTES if weighted else _ID_BYTES)
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(data), dtype=_WEIGHTED_ROW if weighted else np.int64,
                              comments=None, ndmin=1 if weighted else 2)
    except Exception:  # whatever loadtxt cannot read, the per-line parser reads or reports
        return None
    if not weighted:
        return (rows, np.empty(0)) if rows.shape[1] == 2 else None
    w = rows["w"]
    if not (np.isfinite(w).all() and (w > 0).all()):
        return None
    return np.stack([rows["u"], rows["v"]], axis=1), np.ascontiguousarray(w)


def _parse(data, weighted: bool):
    """Ids as an ``(m, 2)`` int64 array and weights (empty unless weighted):
    by :func:`_fast_parse` where it reads the input, else by :func:`_parse_lines`."""
    parsed = _fast_parse(data, weighted)
    if parsed is not None:
        return parsed
    # a text view of the bytes, not a decoded copy: StringIO would hold the
    # whole input again as UCS-4; newline="\n" splits lines as StringIO does
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    ends, weights = _parse_lines(stream, weighted)
    return np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), np.frombuffer(weights)


# ids below this multiple of their count are relabeled through a presence bitmap
# and a lookup table, 9 bytes per value up to the largest; sparser ones by bisection
_BITMAP_SPAN = 1


def _relabel(flat: np.ndarray):
    """``np.unique(flat, return_inverse=True)``, in linear time for dense ids, and
    in at most 17 bytes per entry besides ``flat`` and the ids whatever they are."""
    top = int(flat.max())
    if flat.min() >= 0 and top < _BITMAP_SPAN * flat.size:
        present = np.zeros(top + 1, dtype=bool)
        present[flat] = True
        lookup = np.cumsum(present)
        lookup -= 1
        return np.flatnonzero(present), lookup[flat]
    ids = np.unique(flat)
    return ids, np.searchsorted(ids, flat)


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

    A leading UTF-8 byte-order mark is dropped. Plain input is parsed at C
    speed by one ``np.loadtxt`` call: ASCII outside comment lines, LF or CR LF
    line ends, spaces or tabs between fields, ``#``/``%`` only in comment lines,
    and decimal numbers without ``_``, ``inf`` or ``nan``, the weights positive.
    Any other input, and every input with an error, is read by the per-line
    parser instead, so errors and their line numbers are always its own.

    Merged keys are decoded once, into the edge array the graph keeps; only a
    cut component renumbers ids, and so goes through :meth:`Graph.from_edges`.

    Raises :class:`EdgeListParseError` on malformed lines or invalid UTF-8,
    and ``ValueError`` on corrupt gzip input, if no edges survive preprocessing,
    or on merged weights that are not finite or whose total overflows.
    """
    pairs, weights = _parse(_read_source(source), weighted)
    proper = pairs[:, 0] != pairs[:, 1]
    if not proper.any():
        raise ValueError("no edges left after preprocessing")
    if not proper.all():
        pairs, weights = pairs[proper], weights[proper] if weighted else weights
    ids, dense = _relabel(pairs.ravel())
    del pairs, proper   # each edge-length array is freed once read, to lower the peak
    n = ids.size
    keys = _edge_key(dense[0::2], dense[1::2], n)
    del dense
    w = None
    if weighted:
        keys, pair_of = np.unique(keys, return_inverse=True)
        # bincount adds in file order starting from 0.0, like a sequential fold
        w = np.bincount(pair_of, weights=weights, minlength=keys.size)
        del pair_of, weights
    else:
        # np.unique(keys) takes 25x as long on numpy 2.4 (25 against 1 ms at 9e4 keys)
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
    scan = np.empty((keys.size, 2), dtype=np.int64, order="F")
    _edge_ends(keys, n, *scan.T)
    del keys
    keep = _largest_component(n, *scan.T)
    if keep.all():
        if weighted:
            _check_weights(w)
        return Graph._from_scan(n, scan, w, ids)
    inside = keep[scan[:, 0]]
    edges = (np.cumsum(keep) - 1)[scan[inside]]
    del scan
    # the keys ascended strictly; they may not once the cut renumbers ids that
    # lay between kept ones, which changes some sums i + j
    return Graph.from_edges(int(keep.sum()), edges, None if w is None else w[inside],
                            original_ids=ids[keep])


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


def edge_differences(g: Graph, x, out=None, scratch=None) -> np.ndarray:
    """Per-edge differences ``x_i - x_j`` in stored edge order (``B^T x``), into ``out``
    if given; ``scratch``, if given, is an edge-length buffer that it overwrites."""
    x = _check_vertex_vector(g, x)
    heads, tails = g._scan.T
    # the ids are in range, so "wrap" moves none; it spares take a checked copy of out
    out = np.take(x, heads, out=out, mode="wrap")
    return np.subtract(out, np.take(x, tails, out=scratch, mode="wrap"), out=out)


def _edges_at(ptr, vertices) -> np.ndarray:
    """``ptr[v]:ptr[v + 1]`` for each of ``vertices`` in turn, concatenated."""
    start = ptr[vertices]
    count = ptr[vertices + 1] - start
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _scatter(bins, terms, n: int) -> np.ndarray:
    # bincount of no terms at all comes back int64
    return np.bincount(bins, weights=terms, minlength=n).astype(np.float64, copy=False)


# W @ x scans only the edges at x's nonzeros when they are fewer than n / 8. That
# costs as much as a full scan near n / 4 nonzeros (random or top-degree supports,
# mean degree 20-30); below n / 8 it costs at most 0.6 of one.
_SPARSE_FRACTION = 8


def _sparse_support(a: np.ndarray):
    """Indices of the nonzeros of ``a`` (NaN counts) if fewer than ``a.size / 8``, else None."""
    nonzero = a != 0  # a bool mask: flatnonzero and count_nonzero on floats cost 5-25x more
    count = np.count_nonzero(nonzero)
    return np.flatnonzero(nonzero) if _SPARSE_FRACTION * count < a.size else None


def edge_differences_adjoint(g: Graph, f, at=None) -> np.ndarray:
    """Exact adjoint of :func:`edge_differences`: accumulate ``+f_e`` at ``i``, ``-f_e`` at ``j``.
    Given ``at``, ascending edge ids, ``f`` holds the entries there, zero elsewhere,
    and only those edges are scanned, with a full scan's bits as in W @ x."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != ((g.m,) if at is None else np.shape(at)):
        raise ValueError(f"expected {g.m} edge entries or one per id in at, got {f.shape}")
    e0, e1 = g._scan.T
    if at is not None:
        e0, e1 = e0[at], e1[at]
    return _scatter(e0, f, g.n) - _scatter(e1, f, g.n)


def adjacency_matvec(g: Graph, x) -> np.ndarray:
    """``W @ x``: a scan of every edge, or of only the edges at the nonzeros of a
    sparse ``x`` (O(sum of their degrees + n)).

    Both add each vertex's nonzero terms in edge id order, starting from 0.0,
    and the zero terms a full scan adds change no such sum, so the two give
    bitwise the same result. Unit weights are not multiplied in.
    """
    x = _check_vertex_vector(g, x)
    support = _sparse_support(x)
    e0, e1 = g._scan.T
    at_tail = at_head = slice(None)
    if support is not None:
        head_order, head_ptr, tail_order, tail_ptr = g.incidence
        # ascending tails (heads), then ids: each head's (tail's) edges still come in id order
        at_tail = tail_order[_edges_at(tail_ptr, support)]
        at_head = head_order[_edges_at(head_ptr, support)]
    head_terms, tail_terms = np.take(x, e1[at_tail]), np.take(x, e0[at_head])
    if not g.is_unweighted:
        head_terms *= g.weights[at_tail]
        tail_terms *= g.weights[at_head]
    out = _scatter(e0[at_tail], head_terms, g.n)
    out += _scatter(e1[at_head], tail_terms, g.n)
    return out


_KRYLOV_BASIS = 12  # Lanczos vectors per restart cycle: the basis holds 12 n floats
LAMBDA_TOL = 1e-2          # relative slack of incidence_norm_sq_upper's estimate
LAMBDA_MAX_MATVECS = 2000  # its matvec cap


def power_iteration_norm(matvec, n: int, tol: float = 1e-4, max_iter: int = 1000,
                         seed: int = 0x5EED):
    """Top eigenvalue of a symmetric operator by restarted Lanczos.

    For every operator it runs on, the top (largest signed) eigenvalue is the
    norm: W >= 0 (Perron), and the PSD ``B B^T`` and squared deflated W. Each
    cycle builds an orthonormal Krylov basis of up to ``_KRYLOV_BASIS``
    vectors, fully reorthogonalized, and restarts from the top Ritz vector.
    Iteration stops only when one more matvec, on that vector itself, shows
    the explicit residual ``||A v - mu v|| <= 0.5 * tol * |mu|`` with
    ``mu = v' A v``; the recurrence's cheaper residual estimate only decides
    when to make that check, and the matvec also starts the next cycle.

    ``mu`` never exceeds the top eigenvalue, and a small residual places *an*
    eigenvalue within ``r`` of it. That it is the top one rests on the random
    start overlapping every eigenspace, which holds with probability one;
    then callers inflating by ``(1 + tol)`` hold a safe upper estimate. A
    Krylov sequence holds one direction per eigenspace, so it sees a repeated
    eigenvalue once: to find the second copy of a repeated top eigenvalue, an
    operator deflated by the first needs a start from another ``seed``.

    ``max_iter`` counts matvecs. The start vector comes from ``seed`` and the
    returned vector's sign is normalized, so results are deterministic.
    Returns ``(sigma, unit_vector, converged)`` with the vector a top
    eigenvector; running out of matvecs returns the current estimate flagged
    ``converged = False``, never silently.
    """
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n)
    vec /= np.linalg.norm(vec)
    sigma = 0.0
    converged = False
    basis = np.empty((min(_KRYLOV_BASIS, n), n))
    image = matvec(vec) if max_iter >= 1 else None
    used = 1
    while image is not None:
        # one cycle from vec, whose image is known; it ends when the basis is
        # full, when the recurrence's residual estimate passes, or when only
        # the matvec reserved for the explicit residual is left
        basis[0] = vec
        alpha, beta = [], []
        while True:
            size = len(alpha) + 1
            span = basis[:size]
            coef = span @ image
            w = image - span.T @ coef
            fix = span @ w  # second Gram-Schmidt pass: full reorthogonalization
            w -= span.T @ fix
            alpha.append(float(coef[-1] + fix[-1]))
            b = float(np.linalg.norm(w))
            ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            sigma = float(ritz[-1])
            if (size == len(basis) or used + 1 >= max_iter
                    or b * abs(vecs[-1, -1]) <= 0.5 * tol * abs(sigma)):
                break
            beta.append(b)
            basis[size] = w / b
            image = matvec(basis[size])
            used += 1
        vec = vecs[:, -1] @ span
        vec /= np.linalg.norm(vec)
        if used >= max_iter:
            break
        image = matvec(vec)
        used += 1
        sigma = float(vec @ image)
        if float(np.linalg.norm(image - sigma * vec)) <= 0.5 * tol * abs(sigma):
            converged = True
            break
    top = int(np.argmax(np.abs(vec)))
    if vec[top] < 0:
        vec = -vec
    return sigma, vec, converged


def incidence_norm_sq_upper(g: Graph) -> float:
    """Safe upper estimate of the squared incidence spectral norm ``||B||^2``.

    Lanczos (:func:`power_iteration_norm`) for ``lambda_max(B B^T)`` on the
    solver's own edge scans ``B (B^T x)``, inflated by ``(1 + LAMBDA_TOL)`` and
    capped at the certified Anderson-Morley bound ``max_edge(deg_i + deg_j)``
    (unweighted degrees). If the matvec cap ``LAMBDA_MAX_MATVECS`` is hit, that
    bound is returned as is; it never exceeds the Gershgorin bound
    ``2 * max_degree``. Overestimating is safe for consumers that need a
    feasible step size; underestimating is not.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    counts = np.bincount(g._scan.T.ravel(), minlength=g.n)
    edge_bound = float((counts[g.edges[:, 0]] + counts[g.edges[:, 1]]).max())
    estimate, _, converged = power_iteration_norm(
        lambda x: edge_differences_adjoint(g, edge_differences(g, x)), g.n,
        tol=0.5 * LAMBDA_TOL, max_iter=LAMBDA_MAX_MATVECS)
    return min((1.0 + LAMBDA_TOL) * estimate, edge_bound) if converged else edge_bound


def subgraph_weight(g: Graph, members) -> float:
    """``1_S' W 1_S``: twice the total weight of edges inside ``members``."""
    idx = np.fromiter((int(v) for v in members), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= g.n):
        raise ValueError("vertex id out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    # the edges headed in S, by ascending head, then id; those tailed in S too
    head_order, head_ptr = g.incidence[:2]
    headed = head_order[_edges_at(head_ptr, np.flatnonzero(mask))]
    return 2.0 * float(g.weights[headed[mask[g.edges[headed, 1]]]].sum())

