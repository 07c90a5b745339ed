import gzip
import io
from pathlib import Path

import numpy as np
import pytest

from conftest import load_edge_list_reference, random_graph
from dks.graph import (
    EdgeListParseError,
    Graph,
    VertexSet,
    adjacency_matvec,
    edge_density,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,
    load_edge_list,
    subgraph_weight,
    write_edge_list,
)
from dks.oracles import dense_cross_check


def _load(text, weighted=False):
    return load_edge_list(io.StringIO(text), weighted=weighted)


class TestLoadEdgeList:
    def test_symmetrize_selfloop_merge(self):
        g = _load("1 2\n2 1\n2 2\n2 3\n")
        assert g.n == 3 and g.m == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert (g.weights == 1.0).all()
        assert g.original_ids.tolist() == [1, 2, 3]

    def test_largest_component_kept(self):
        g = _load("1 2\n3 4\n4 5\n")
        assert g.n == 3 and g.m == 2
        assert g.original_ids.tolist() == [3, 4, 5]

    def test_weighted_duplicates_sum(self):
        g = _load("1 2 0.5\n2 1 0.25\n", weighted=True)
        assert g.m == 1
        assert g.weights[0] == pytest.approx(0.75)

    def test_comments_and_blank_lines(self):
        g = _load("# snap header\n% konect header\n\n0 1\n")
        assert g.n == 2 and g.m == 1

    @pytest.mark.parametrize("text,weighted", [
        ("0 x\n", False),
        ("0 1 foo\n", True),
        ("0 1\n", True),          # missing weight field
        ("0 1 2 3\n", False),     # extra field
        ("0 1 -2.0\n", True),     # negative weight
        ("0 1 0\n", True),        # zero weight
        ("0.5 1\n", False),       # fractional id
        ("0 99999999999999999999999\n", False),  # beyond signed 64-bit
    ])
    def test_malformed_lines(self, text, weighted):
        with pytest.raises(EdgeListParseError) as err:
            _load(text, weighted=weighted)
        assert err.value.lineno == 1
        assert "line 1" in str(err.value)

    def test_matches_reference_loader(self):
        rng = np.random.default_rng(404)
        for _ in range(2400):
            weighted = bool(rng.integers(2))
            text = _random_edge_text(rng, weighted)
            _assert_same_load(text, weighted)
        # a long path over shuffled labels takes many hooking rounds
        labels = rng.permutation(200_000) - 100_000
        path = "".join(f"{u} {v}\n" for u, v in zip(labels[:-1], labels[1:]))
        _assert_same_load(path, False)
        star = "".join(f"1000 {-leaf}\n" for leaf in range(50))
        assert _assert_same_load(star, False).original_ids[-1] == 1000

    def test_matches_reference_loader_from_paths(self, tmp_path):
        # files are read as bytes and decoded, unlike the text streams above
        rng = np.random.default_rng(405)
        for i in range(40):
            weighted = i % 2 == 1
            raw = _random_edge_text(rng, weighted).encode()
            for name, data in (("plain", raw), ("gzip", gzip.compress(raw)),
                               ("crlf", raw.replace(b"\n", b"\r\n")),
                               ("cr", raw.replace(b"\n", b"\r"))):
                path = tmp_path / f"{i}-{name}.txt"
                path.write_bytes(data)
                _assert_same_load(path, weighted)
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n1 2\n\xe9 3\n")
        _assert_same_load(path, False, same_message=False)

    def test_line_number_reported(self):
        with pytest.raises(EdgeListParseError) as err:
            _load("0 1\n1 2\nbogus line\n")
        assert err.value.lineno == 3

    def test_empty_after_preprocessing(self):
        with pytest.raises(ValueError):
            _load("# only comments\n3 3\n")  # self-loop only

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        path.write_bytes(gzip.compress(b"0 1\n1 2\n"))
        g = load_edge_list(str(path))
        assert g.n == 3 and g.m == 2

    def test_roundtrip_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(4, 30)), 0.3, weighted=True)
            buf = io.StringIO()
            write_edge_list(g, buf)
            # reload the serialized largest component: must reproduce exactly
            h = load_edge_list(io.StringIO(buf.getvalue()), weighted=True)
            buf2 = io.StringIO()
            write_edge_list(h, buf2)
            h2 = load_edge_list(io.StringIO(buf2.getvalue()), weighted=True)
            assert h.n == h2.n and h.m == h2.m
            assert (h.edges == h2.edges).all()
            assert (h.weights == h2.weights).all()
            assert (h.original_ids == h2.original_ids).all()


_MALFORMED = ("x 1", "1", "1 2 3 4", "1 2 -1.5", "1 2 0", "1 2 nan",
              "1 2 inf", "1 2 abc", "0.5 1", "1 y 2")


def _random_edge_text(rng, weighted):
    """A random edge list: shuffled orientations, repeats, self-loops, negative
    and extreme ids, equal-size components, comments, blank lines and, in one
    file out of five, one malformed line."""
    pool = np.array([-2**63, 2**63 - 1, *rng.integers(-60, 60, size=40)])
    pool = np.unique(pool)
    rng.shuffle(pool)
    size = int(rng.integers(2, 7))
    lines = []
    for c in range(int(rng.integers(1, 5))):
        comp = pool[c * size:(c + 1) * size]
        for _ in range(int(rng.integers(0, 3 * size + 2))):
            u, v = rng.choice(comp, size=2)
            lines.append(f"{u} {v}")
    if weighted:
        lines = [f"{ln} {float(rng.choice([1.0, 0.1, 2.5, rng.uniform(1e-3, 3.0)]))!r}"
                 for ln in lines]
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(len(lines) + 1)),
                     str(rng.choice(["# snap", "% konect", "", "   ", "\t"])))
    if rng.random() < 0.2:
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(_MALFORMED)))
    return "\n".join(f"  {ln}\t" if rng.random() < 0.1 else ln for ln in lines) + "\n"


def _assert_same_load(source, weighted, same_message=True):
    """Load ``source`` (text, or a file's ``Path``) with both loaders; the graphs,
    or the errors, must be identical. ``same_message=False`` compares only the
    error types."""
    outcomes = []
    for loader in (load_edge_list, load_edge_list_reference):
        try:
            outcomes.append(loader(
                source if isinstance(source, Path) else io.StringIO(source), weighted=weighted))
        except ValueError as exc:
            outcomes.append(exc)
    new, ref = outcomes
    assert isinstance(new, Exception) == isinstance(ref, Exception), outcomes
    if isinstance(ref, Exception):
        assert type(new) is type(ref)
        if same_message:
            assert str(new) == str(ref)
            assert getattr(new, "lineno", None) == getattr(ref, "lineno", None)
        return None
    assert (new.n, new.m) == (ref.n, ref.m)
    for name in ("edges", "weights", "degree", "original_ids"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return new


class TestFromEdges:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], weights=[-1.0])

    def test_arrays_immutable(self, k3):
        with pytest.raises(ValueError):
            k3.weights[0] = 5.0


class TestOperators:
    def test_edge_differences_triangle(self, k3):
        out = edge_differences(k3, np.array([1.0, 1.0, 0.0]))
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_edge_differences_constant(self, k4k2):
        assert (edge_differences(k4k2, np.full(6, 3.7)) == 0).all()

    def test_edge_differences_path(self, path3):
        assert edge_differences(path3, np.array([3.0, 1.0, 0.0])).tolist() == [2.0, 1.0]

    def test_adjoint_single_column(self, k3):
        out = edge_differences_adjoint(k3, np.array([1.0, 0.0, 0.0]))
        assert out.tolist() == [1.0, -1.0, 0.0]

    def test_adjoint_zero(self, k3):
        assert (edge_differences_adjoint(k3, np.zeros(3)) == 0).all()

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(3, 40)), 0.3, weighted=True)
            x = rng.normal(size=g.n)
            f = rng.normal(size=g.m)
            lhs = edge_differences(g, x) @ f
            rhs = x @ edge_differences_adjoint(g, f)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_adjacency_ones_is_degree(self, k3):
        assert adjacency_matvec(k3, np.ones(3)).tolist() == [2.0, 2.0, 2.0]

    def test_adjacency_star_center(self, star5):
        out = adjacency_matvec(star5, np.eye(5)[0])
        assert out.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    def test_adjacency_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(3, 30)), 0.4, weighted=True)
            W = dense_cross_check(g).adjacency
            x = rng.normal(size=g.n)
            assert np.abs(adjacency_matvec(g, x) - W @ x).max() <= 1e-12

    def test_degree_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, 20, 0.3, weighted=True)
            assert np.allclose(g.degree, adjacency_matvec(g, np.ones(g.n)))

    def test_laplacian_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(5, 100)), 0.1, weighted=True)
            x = rng.normal(size=g.n)
            got = edge_differences_adjoint(g, edge_differences(g, x))
            want = dense_cross_check(g).laplacian @ x
            assert np.abs(got - want).max() <= 1e-10

    def test_length_mismatch_errors(self, k3):
        with pytest.raises(ValueError):
            edge_differences(k3, np.zeros(4))
        with pytest.raises(ValueError):
            edge_differences_adjoint(k3, np.zeros(2))
        with pytest.raises(ValueError):
            adjacency_matvec(k3, np.zeros(2))


class TestIncidenceNormBound:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        lam = incidence_norm_sq_upper(g, 0.01)
        assert 2.0 <= lam <= 2.02

    @pytest.mark.parametrize("n", [4, 8, 17])
    def test_star(self, n):
        g = Graph.from_edges(n, [(0, i) for i in range(1, n)])
        lam = incidence_norm_sq_upper(g, 0.01)
        true = dense_cross_check(g).laplacian_eigenvalues[-1]
        assert true == pytest.approx(n, abs=1e-9)
        assert n - 1e-9 <= lam <= 1.01 * n + 1e-9

    def test_triangle(self, k3):
        lam = incidence_norm_sq_upper(k3, 0.01)
        assert 3.0 - 1e-9 <= lam <= 1.01 * 3 + 1e-9

    def test_random_graphs_bracket(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 60)), 0.2, weighted=True)
            lam = incidence_norm_sq_upper(g, 0.02)
            true = dense_cross_check(g).laplacian_eigenvalues[-1]
            assert lam >= true - 1e-9
            counts = np.bincount(g.edges.ravel(), minlength=g.n)
            assert lam <= min(2.0 * counts.max(), (1 + 10 * 0.02) * true) + 1e-9

    def test_iteration_cap_falls_back_to_gershgorin(self, c6):
        lam = incidence_norm_sq_upper(c6, 0.01, max_iter=0)
        assert lam == 4.0  # 2 * max unweighted degree


class TestSubgraphQuantities:
    def test_pair_in_triangle(self, k3):
        assert subgraph_weight(k3, {0, 1}) == 2.0

    def test_whole_triangle(self, k3):
        assert subgraph_weight(k3, {0, 1, 2}) == 6.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            g = random_graph(rng, 15, 0.4, weighted=True)
            members = list(rng.choice(g.n, size=6, replace=False))
            W = dense_cross_check(g).adjacency
            brute = sum(W[i, j] for i in members for j in members)
            assert subgraph_weight(g, members) == pytest.approx(brute, rel=1e-12)

    def test_total_weight_is_degree_sum(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 20, 0.3, weighted=True)
        assert subgraph_weight(g, range(g.n)) == pytest.approx(g.degree.sum())

    def test_out_of_range(self, k3):
        with pytest.raises(ValueError):
            subgraph_weight(k3, {0, 7})

    def test_density_clique(self, k3):
        assert edge_density(k3, {0, 1, 2}) == 1.0
        assert edge_density(k3, {0, 1}) == 1.0

    def test_density_no_internal_edge(self, path3):
        assert edge_density(path3, {0, 2}) == 0.0

    def test_density_needs_two(self, k3):
        with pytest.raises(ValueError):
            edge_density(k3, {0})


class TestVertexSet:
    def test_cached_fields(self, k4k2):
        vs = VertexSet.from_members(k4k2, [3, 0, 1, 2])
        assert vs.members == (0, 1, 2, 3)
        assert vs.k == 4
        assert vs.subgraph_weight == 12.0
        assert vs.density == 1.0
