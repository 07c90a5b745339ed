import gzip
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    from_edges_reference,
    load_edge_list_reference,
    power_iteration_norm_reference,
    random_graph,
)
from dense_oracles import (
    adjacency_matvec_full_scan,
    dense_cross_check,
    edge_differences_adjoint_full_scan,
    lexicographic_copy,
    subgraph_weight_by_mask,
    topk_full_sort,
)
import dks.graph as graph_mod
from dks.graph import (
    EdgeListParseError,
    Graph,
    VertexSet,
    _hashed_start,
    adjacency_matvec,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,
    load_edge_list,
    power_iteration_norm,
    subgraph_weight,
    topk,
    write_edge_list,
)
import dks.baselines as baselines_mod
from dks.baselines import top_two_singular


def _load(text, weighted=False):
    return load_edge_list(io.StringIO(text), weighted=weighted)


def _refuse_from_edges(monkeypatch):
    """Make ``Graph.from_edges`` raise: no load may build through it."""
    def refuse(cls, *args, **kwargs):
        raise AssertionError("the loader called Graph.from_edges")
    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))


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

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cut_component_between_kept_ids_sorts_again(self, monkeypatch, weighted):
        # cutting {3, 4} renumbers 5 -> 3 and 6 -> 4: the key of (1, 2) came before that
        # of (0, 5), but (1, 2) after (0, 3), so the loader sorts the kept keys again
        pairs = [(1, 2), (0, 5), (0, 1), (5, 6)]
        lines = [f"{u} {v}" + (f" {1.5 + e}" if weighted else "") for e, (u, v) in
                 enumerate(pairs)]
        text = "\n".join(lines + ["3 4" + (" 9.0" if weighted else "")]) + "\n"
        _refuse_from_edges(monkeypatch)
        g = _load(text, weighted=weighted)
        monkeypatch.undo()
        key = graph_mod._edge_key(g.edges[:, 0], g.edges[:, 1], g.n)
        assert (key[1:] > key[:-1]).all()
        assert g.original_ids.tolist() == [0, 1, 2, 5, 6]
        relabeled = [(1, 2), (0, 3), (0, 1), (3, 4)]
        want = Graph.from_edges(5, relabeled, [1.5, 2.5, 3.5, 4.5] if weighted else None)
        for name in ("edges", "weights", "degree", "_scan"):
            assert getattr(g, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
    def test_weight_total_overflow_refused(self, cut):
        # every merged weight is finite, their total is not; the loader refuses it
        # whether or not a component is cut
        text = "0 1 1e308\n1 2 1e308\n0 2 1e308\n2 3 1\n" + ("7 8 1\n" if cut else "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total edge weight overflows"):
                _load(text, weighted=True)
            # a merge that overflows one weight is refused as that weight
            with pytest.raises(ValueError, match="positive and finite"):
                _load(text.replace("0 2 1e308", "1 0 1e308"), weighted=True)

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
        for name, data in (("latin1", b"0 1\n1 2\n\xe9 3\n"),
                           ("latin1-crlf", b"0 1\r\n\r\n1 2 \xe9\r\n3 4\r\n"),
                           ("latin1-gzip", gzip.compress(b"# \xe9\n0 1\n"))):
            path = tmp_path / f"{name}.txt"
            path.write_bytes(data)
            _assert_same_load(path, False)

    def test_line_number_reported(self):
        with pytest.raises(EdgeListParseError) as err:
            _load("0 1\n1 2\nbogus line\n")
        assert err.value.lineno == 3

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_invalid_utf8_names_its_line(self, tmp_path, compress):
        # the bad byte lies far past the decoder's first chunk
        data = "".join(f"{i} {i + 1}\n" for i in range(5000)).encode() + b"\xe9 1\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(gzip.compress(data) if compress else data)
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(path)
        assert err.value.lineno == 5001
        assert str(err.value) == "line 5001: invalid UTF-8"

    @pytest.mark.parametrize("filler", [10, 3000])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_invalid_utf8_reported_before_any_line(self, tmp_path, filler, compress):
        # a malformed line 2 comes first; the bad byte wins however far past
        # the decoder's first chunk it lies, as in the reference loader
        data = b"0 1\nbogus\n" + b"2 3\n" * filler + b"\xe9 1\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(gzip.compress(data) if compress else data)
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(path)
        assert err.value.lineno == filler + 3
        assert str(err.value) == f"line {filler + 3}: invalid UTF-8"
        _assert_same_load(path, False)

    @pytest.mark.parametrize("line", ["\ud800 3", "# note \udfff"], ids=["id", "comment"])
    def test_lone_surrogate_in_text_is_invalid_utf8(self, line):
        # a text source is encoded once, so it is checked as byte input is,
        # comment lines included
        with pytest.raises(EdgeListParseError) as err:
            _load(f"0 1\n1 2\n{line}\n2 3\n")
        assert (str(err.value), err.value.lineno) == ("line 3: invalid UTF-8", 3)

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


# inputs on the edge of the fast path's subset: each must load (or fail)
# exactly as through the per-line parser alone
_EDGE_CASES = [
    ("+5 1\n", False), ("007 1\n", False), ("1_000 2\n", False),
    ("\u0661 2\n", False),  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    ("1.0 2\n", False), ("1e3 2\n", False),
    ("1 2 # note\n", False), ("  # indented\n1 2\n\t% also\n", False),
    ("% konect header\n% 3 3 3\n1 2\n2 3\n", False), ("1 2\n3 #4\n", False),
    ("1 2\r3 4\n", False), ("1 2\r\n2 3\r\n", False), ("# h\r\n1 2\r\n", False),
    ("1\x0b2\n", False), ("1\x0c2\n2 3\n", False),
    ("9223372036854775807 1\n1 -9223372036854775808\n", False),
    ("", False), ("# only\n% comments\n", False), ("\n  \n", False),
    ("1\n", False), ("1 2 3\n", False), ("1 2\n3\n", False),
    ("1 2 nan\n", True), ("1 2 inf\n", True), ("1 2 -1\n", True), ("1 2 0\n", True),
    ("1 2 1e400\n", True), ("1 2 1e-400\n", True), ("1 2 1_0.5\n", True),
    ("1 2\n", True), ("1 2 3 4\n", True), ("1.5 2 3\n", True), ("1 2 .\n", True),
    ("+1 2 +.5\n2 3 5.\n3 4 1E+05\n4 5 4.9e-324\n", True),
]

# one past the int64 range: the reference loader cannot build these at all
_OUT_OF_RANGE = ["9223372036854775808 1\n", "0 1\n1 -9223372036854775809\n"]


def _spy_parse_lines(monkeypatch):
    """Record every call of the per-line parser; returns the call list."""
    calls = []
    parse_lines = graph_mod._parse_lines

    def spy(stream, weighted):
        calls.append(weighted)
        return parse_lines(stream, weighted)

    monkeypatch.setattr(graph_mod, "_parse_lines", spy)
    return calls


def _outcome(source, weighted):
    """The loaded graph's arrays, or the error's type, message and line."""
    try:
        g = load_edge_list(source, weighted=weighted)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return tuple((a.dtype, a.tobytes()) for a in
                 (g.edges, g.weights, g.degree, g.original_ids))


class TestFastPath:
    @pytest.mark.parametrize("text,weighted", _EDGE_CASES)
    def test_edge_cases_match_reference(self, tmp_path, text, weighted):
        for body in (text, "0 1\n" + text):
            _assert_same_load(body, weighted)
            path = tmp_path / "edges.txt"
            path.write_bytes(body.encode())
            _assert_same_load(path, weighted)

    @pytest.mark.parametrize("text,weighted", _EDGE_CASES + [(t, False) for t in _OUT_OF_RANGE])
    def test_same_as_per_line_parser_alone(self, monkeypatch, text, weighted):
        fast = _outcome(io.StringIO(text), weighted)
        monkeypatch.setattr(graph_mod, "_fast_parse", lambda data, weighted: None)
        assert _outcome(io.StringIO(text), weighted) == fast

    @pytest.mark.parametrize("text", _OUT_OF_RANGE)
    def test_id_past_int64_names_its_line(self, text):
        lineno = text.count("\n")
        with pytest.raises(EdgeListParseError) as err:
            _load(text)
        assert (str(err.value), err.value.lineno) == (
            f"line {lineno}: vertex id out of range", lineno)

    @pytest.mark.parametrize("sign,digits,tail,what", [
        ("", 4300, "", "vertex id out of range"),
        ("", 4301, "", "vertex id out of range"),   # past int()'s default digit limit
        ("-", 4301, "", "vertex id out of range"),
        ("+", 5000, "", "vertex id out of range"),
        ("", 4301, "x", "non-numeric vertex id"),
        ("", 2, "x", "non-numeric vertex id"),
    ], ids=["4300", "4301", "-4301", "+5000", "4301x", "99x"])
    def test_long_id_is_out_of_range(self, sign, digits, tail, what):
        token = sign + "9" * digits + tail
        # a non-numeric id elsewhere on the line is reported first
        for text, want in ((f"0 1\n1 {token}\n", what), (f"0 1\n{token} 1\n", what),
                           (f"0 1\nx {token}\n", "non-numeric vertex id")):
            for source in (io.StringIO(text), io.BytesIO(text.encode())):
                with pytest.raises(EdgeListParseError) as err:
                    load_edge_list(source)
                assert (str(err.value), err.value.lineno) == (f"line 2: {want}", 2)

    @pytest.mark.parametrize("line,weighted,what", [
        ("1_0 2", False, "non-numeric vertex id"),
        ("٣ 2", False, "non-numeric vertex id"),   # ARABIC-INDIC DIGIT THREE
        ("2 １", False, "non-numeric vertex id"),   # FULLWIDTH DIGIT ONE
        ("1_0 2 1.5", True, "non-numeric vertex id"),
        ("1 2 1_0.5", True, "non-numeric edge weight"),
        ("1 2 ٣", True, "non-numeric edge weight"),
        ("1 2 ١.5", True, "non-numeric edge weight"),
    ])
    def test_tokens_only_int_or_float_reads_are_refused(self, line, weighted, what):
        # int() and float() read `_` between digits and non-ASCII digits; no
        # edge-list format means them as numbers
        text = ("0 1 1.0\n" if weighted else "0 1\n") + line + "\n"
        for source in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(source, weighted=weighted)
            assert (str(err.value), err.value.lineno) == (f"line 2: {what}", 2)

    def test_clean_inputs_skip_per_line_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(406)
        u, v = rng.integers(0, 300, size=(2, 2000))
        lines = [f"{a} {b}" for a, b in zip(u, v)]
        weights = [repr(w) for w in rng.uniform(1e-3, 3.0, size=len(lines)).tolist()]
        body = "\n".join(lines) + "\n"
        cases = [
            (f"# perfbench spectral-sweep seed=1 n=300 pairs={len(lines)}\n" + body, False),
            (body.replace("\n", "\r\n"), False),
            ("% sym unweighted\n% 2000 300 300\n" + body, False),
            ("# source: Zürich café network\n% Größe ≥ 300\n" + body, False),
            ("".join(f"{ln} {w}\n" for ln, w in zip(lines, weights)), True),
        ]
        calls = _spy_parse_lines(monkeypatch)
        for i, (text, weighted) in enumerate(cases):
            _assert_same_load(text, weighted)
            path = tmp_path / f"{i}.txt"
            path.write_bytes(text.encode())
            _assert_same_load(path, weighted)
            path.write_bytes(gzip.compress(text.encode()))
            _assert_same_load(path, weighted)
        assert calls == []

    @pytest.mark.parametrize("text,weighted", [
        ("0 1\n1 2\n2 0\n2 3\n", False),
        ("# header\n0 1 0.5\n1 2 2.0\n2 0 1e-3\n", True),
    ])
    def test_leading_bom_dropped(self, tmp_path, monkeypatch, text, weighted):
        want = _outcome(io.StringIO(text), weighted)
        calls = _spy_parse_lines(monkeypatch)
        raw = b"\xef\xbb\xbf" + text.encode()
        path = tmp_path / "bom.txt"
        for data in (raw, gzip.compress(raw)):
            path.write_bytes(data)
            assert _outcome(path, weighted) == want
            assert _outcome(io.BytesIO(data), weighted) == want
        assert _outcome(io.StringIO("\ufeff" + text), weighted) == want
        assert calls == []

    @pytest.mark.parametrize("text,lineno", [
        ("\ufeff\ufeff0 1\n", 1), ("0 1\n\ufeff1 2\n", 2), ("0 1\n1 2\ufeff\n", 2),
    ])
    def test_bom_elsewhere_names_its_line(self, text, lineno):
        for source in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(source)
            assert (str(err.value), err.value.lineno) == (
                f"line {lineno}: non-numeric vertex id", lineno)

    def test_reference_cases_take_fast_path(self, tmp_path, monkeypatch):
        # replays the inputs of the two differential tests above: each one
        # loads without the per-line parser unless it holds one of _MALFORMED's
        # lines, has no data line (loadtxt warns on those) or ends lines in CR
        calls = _spy_parse_lines(monkeypatch)

        def falls_back(source, weighted):
            before = len(calls)
            _assert_same_load(source, weighted)
            return len(calls) > before

        def clean(text):
            return (not any(ln.strip() in _MALFORMED for ln in text.split("\n"))
                    and any(ch.isdigit() for ch in text))

        rng = np.random.default_rng(404)
        fallbacks = 0
        for _ in range(300):
            weighted = bool(rng.integers(2))
            text = _random_edge_text(rng, weighted)
            fallback = falls_back(text, weighted)
            assert fallback != clean(text), text
            fallbacks += fallback
        assert fallbacks < 100
        rng = np.random.default_rng(405)
        for i in range(40):
            weighted = i % 2 == 1
            raw = _random_edge_text(rng, weighted).encode()
            for name, data in (("plain", raw), ("gzip", gzip.compress(raw)),
                               ("crlf", raw.replace(b"\n", b"\r\n"))):
                path = tmp_path / f"{i}-{name}.txt"
                path.write_bytes(data)
                assert falls_back(path, weighted) != clean(raw.decode()), name

    def test_fuzzed_ids_match_per_line_parser(self, monkeypatch):
        # seeded unweighted text over _ID_BYTES, mixing tokens that int() and a
        # C reader of ids may read apart: lone and doubled signs, a sign split
        # from its digits or after one, zero padding, and ids at and one past
        # each end of int64; separators, line ends and the last line's end vary
        rng = np.random.default_rng(414)
        good = ["0", "1", "2", "3", "17", "-4", "+5", "-0", "+0", "007", "-007",
                str(2**63 - 1), str(-2**63), "0" * 17 + "12", "-" + "0" * 19 + "3",
                "+" + "0" * 21 + "1", "0" * 23]
        bad = ["+", "-", "- 1", "+ 2", "+-3", "--1", "-+1", "5-3", "7+", "1-",
               str(2**63), str(-2**63 - 1), "0" + str(2**63), "9" * 20]
        assert all(len(t) in range(19, 24) for t in good[11:] + bad[10:])

        def line():
            fields = [str(rng.choice(bad)) if rng.random() < 0.06 else str(rng.choice(good))
                      for _ in range(int(rng.choice([0, 1, 3] + [2] * 13)))]
            seps = rng.choice([" ", "  ", "\t", " \t", "\t\t "], size=len(fields) + 1)
            text = "".join(s + f for s, f in zip(seps, fields))
            return text + (str(seps[-1]) if rng.random() < 0.3 else "")

        texts = []
        for _ in range(4000):
            end = "\r\n" if rng.random() < 0.3 else "\n"
            text = end.join(line() for _ in range(int(rng.integers(1, 6))))
            texts.append(text + (end if rng.random() < 0.7 else ""))
        calls = _spy_parse_lines(monkeypatch)
        fast = [_outcome(io.BytesIO(t.encode()), False) for t in texts]
        # the mix reaches both parsers, and gives both graphs and errors
        assert 1000 < len(texts) - len(calls) < len(texts) - 1000, len(calls)
        assert 1000 < sum(isinstance(o[0], type) for o in fast) < len(texts) - 1000
        monkeypatch.setattr(graph_mod, "_fast_parse", lambda data, weighted: None)
        for text, outcome in zip(texts, fast):
            assert _outcome(io.BytesIO(text.encode()), False) == outcome, repr(text)

    def test_unweighted_text_is_not_read_by_loadtxt(self, tmp_path, monkeypatch):
        calls = _spy_parse_lines(monkeypatch)
        loadtxt_calls = []

        def loadtxt(*args, **kwargs):
            loadtxt_calls.append(args)
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        text = "# header\n" + "".join(f"{i} {(i * 7 + 3) % 50}\n" for i in range(50))
        path = tmp_path / "g.txt"
        for data in (text.encode(), text.replace("\n", "\r\n").encode()):
            path.write_bytes(data)
            _assert_same_load(path, False)
        assert (calls, loadtxt_calls) == ([], [])

    def test_weights_read_as_float_does(self, monkeypatch):
        rng = np.random.default_rng(407)
        mantissas = rng.integers(1, 10**17, size=400).astype(str)
        exps = rng.integers(-330, 310, size=400)
        weights = [f"{m[:1]}.{m[1:]}e{e}" for m, e in zip(mantissas, exps)]
        weights += [f"{m}" for m in mantissas[:50]] + [f".{m}" for m in mantissas[50:100]]
        weights = [w for w in weights if 0.0 < float(w) < float("inf")]
        text = "".join(f"{i} {i + 1} {w}\n" for i, w in enumerate(weights))
        calls = _spy_parse_lines(monkeypatch)
        g = _assert_same_load(text, True)
        assert calls == []
        assert g.weights.tolist() == [float(w) for w in weights]


class TestRelabel:
    def test_matches_unique(self):
        rng = np.random.default_rng(408)
        span = graph_mod._BITMAP_SPAN
        for _ in range(300):
            size = int(rng.integers(1, 50))
            top = int(rng.choice([span * size - 1, span * size, 2 * size, 10**6]))
            flat = rng.integers(0, top + 1, size=size)
            flat[rng.integers(size)] = top
            if rng.random() < 0.2:
                flat[0] = -1
            ids, dense = graph_mod._relabel(flat)
            want_ids, want_dense = np.unique(flat, return_inverse=True)
            assert ids.dtype == want_ids.dtype and ids.tobytes() == want_ids.tobytes()
            assert dense.dtype == want_dense.dtype and dense.tobytes() == want_dense.tobytes()

    def test_loads_match_reference(self):
        # non-negative ids with gaps, the largest one just inside or just past
        # the range the bitmap covers (`_BITMAP_SPAN` times the endpoint count)
        rng = np.random.default_rng(409)
        span = graph_mod._BITMAP_SPAN
        for _ in range(200):
            m = int(rng.integers(1, 40))
            weighted = bool(rng.integers(2))
            top = span * 2 * m - int(rng.integers(2))
            pool = rng.choice(top, size=min(int(rng.integers(2, 12)), top), replace=False)
            edges = [rng.choice(pool, size=2, replace=False) for _ in range(m - 1)]
            edges.append((int(rng.choice(pool)), top))
            lines = [f"{a} {b}" + (f" {float(rng.uniform(0.5, 2.0))!r}" if weighted else "")
                     for a, b in edges]
            _assert_same_load("\n".join(lines) + "\n", weighted)


class TestUnweightedMerge:
    """The loader's one sort-and-mask merge, of unweighted and weighted pairs, against
    the reference's dict merge (the same graph ``np.unique`` of the keys gives)."""

    @staticmethod
    def _text(rng, weighted):
        # several components over disjoint ids, every pair in both orientations
        # a random number of times, and self-loops among them
        lines = []
        for comp in np.split(rng.permutation(300)[:60], [10, 25, 40]):
            for _ in range(int(rng.integers(1, 3 * comp.size))):
                u, v = (int(t) for t in rng.choice(comp, size=2))
                for _ in range(int(rng.integers(1, 4))):
                    lines.append((u, v) if rng.random() < 0.5 else (v, u))
        return "".join(f"{u} {v}" + (f" {float(rng.uniform(0.5, 2.0))!r}" if weighted else "")
                       + "\n" for u, v in lines)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_reference(self, weighted):
        rng = np.random.default_rng(411)
        for _ in range(60):
            g = _assert_same_load(self._text(rng, weighted), weighted)
            assert g is not None and (weighted or g.is_unweighted)

    def test_with_and_without_self_loops(self):
        for text in ("1 1\n1 2\n2 1\n2 2\n", "5 6\n6 5\n", "3 3\n3 4\n"):
            for weighted in (False, True):
                source = text if not weighted else "".join(
                    line + " 0.5\n" for line in text.splitlines())
                _assert_same_load(source, weighted)


def _merged_input(rng, weighted, cut, spread):
    """A seeded edge-list file and the graph it must load to: the kept ids, and
    the merged pairs over them with their file-order weight sums.

    One connected component, its ids ``spread`` apart, and, if ``cut``, a smaller
    one whose ids lie between its ids; every pair comes one to three times in
    either orientation, the lines shuffled, under a comment header and with one
    comment line among them.
    """
    n = int(rng.integers(20, 200))
    labels = rng.permutation(n) * spread + int(rng.integers(0, 3)) * spread
    pairs = {(min(u, v), max(u, v)) for u, v in zip(labels[:-1], labels[1:])}
    while len(pairs) < 3 * n:
        u, v = (int(t) for t in rng.choice(labels, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    lines = []
    for u, v in sorted(pairs):
        for _ in range(int(rng.integers(1, 4))):
            lines.append((u, v) if rng.random() < 0.5 else (v, u))
    others = []
    if cut:   # a path on ids between the kept ones, so the relabel reorders keys
        ids = labels + spread // 2 if spread > 1 else np.arange(n + 3, n + 8)
        others = [(int(a), int(b)) for a, b in zip(ids[:4], ids[1:5])]
    lines += others
    rng.shuffle(lines)
    weights = rng.choice([0.5, 1.0, 2.5], size=len(lines)) * rng.uniform(0.5, 2.0, len(lines))
    merged = {}
    for (u, v), w in zip(lines, weights):
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + float(w) if weighted else 1.0
    text = [f"{u} {v}" + (f" {float(w)!r}" if weighted else "")
            for (u, v), w in zip(lines, weights)]
    text.insert(int(rng.integers(len(text) + 1)), "% a comment among the lines")
    kept = np.unique(labels)
    inside = set(kept.tolist())
    merged = {key: w for key, w in merged.items() if key[0] in inside}
    return "# header\n" + "\n".join(text) + "\n", kept, merged


class TestOneBuild:
    """The loader builds each graph once, without ``from_edges``: bitwise the graph
    that ``from_edges`` builds from the merged, relabeled pairs, with the same
    array layout."""

    @pytest.mark.parametrize("spread", [1, 3, 79, 1000])
    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_matches_from_edges_of_merged_pairs(self, monkeypatch, weighted, cut, spread):
        rng = np.random.default_rng([412, weighted, cut, spread])
        from_edges = Graph.from_edges.__func__
        _refuse_from_edges(monkeypatch)
        for _ in range(10):
            text, kept, merged = _merged_input(rng, weighted, cut, spread)
            g = _load(text, weighted=weighted)
            index = {int(v): i for i, v in enumerate(kept)}
            want = from_edges(Graph, kept.size, [(index[u], index[v]) for u, v in merged],
                              list(merged.values()) if weighted else None, original_ids=kept)
            assert (g.n, g.m) == (want.n, want.m)
            for name in ("edges", "weights", "degree", "original_ids", "_scan"):
                a, b = getattr(g, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
                assert a.flags.writeable == b.flags.writeable == (name == "_scan"), name
            assert g._scan.flags.f_contiguous and np.shares_memory(g.edges, g._scan)


def _spread_file(path, spread):
    """A seeded file of about 1e5 edges over 1e4 vertices, ids ``spread`` apart."""
    rng = np.random.default_rng(413)
    ends = rng.integers(0, 10_000, size=(100_000, 2)) * spread
    path.write_text("# seeded\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist()))
    return path


class TestLoaderMemory:
    # tracemalloc sees numpy's buffers, so the peak is an exact count that repeats;
    # the file's own bytes are part of it
    @pytest.mark.parametrize("spread,most", [(1, 55), (79, 60)])
    def test_peak_bytes_per_edge(self, tmp_path, spread, most):
        path = _spread_file(tmp_path / "g.txt", spread)
        load_edge_list(path)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 90_000
        assert peak / g.m <= most, peak / g.m


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


def _assert_same_load(source, weighted):
    """Load ``source`` (text, or a file's ``Path``) with both loaders; the graphs,
    or the errors, must be identical. Where the reference fails to decode, the
    loader must name the line that holds the reference's bad byte."""
    outcomes = []
    for loader in (load_edge_list, load_edge_list_reference):
        try:
            outcomes.append(loader(
                source if isinstance(source, Path) else io.StringIO(source), weighted=weighted))
        except ValueError as exc:
            outcomes.append(exc)
    new, ref = outcomes
    assert isinstance(new, Exception) == isinstance(ref, Exception), outcomes
    if isinstance(ref, UnicodeDecodeError):
        lineno = ref.object.count(b"\n", 0, ref.start) + 1
        assert type(new) is EdgeListParseError
        assert (str(new), new.lineno) == (f"line {lineno}: invalid UTF-8", lineno)
        return None
    if isinstance(ref, Exception):
        assert type(new) is type(ref)
        assert str(new) == str(ref)
        assert getattr(new, "lineno", None) == getattr(ref, "lineno", None)
        return None
    assert (new.n, new.m) == (ref.n, ref.m)
    for name in ("edges", "weights", "degree", "original_ids"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return new


def _random_edge_set(rng, m=None):
    """A simple edge set over ``n`` vertices in shuffled order and random
    orientation, with float weights, dyadic weights or none."""
    n = int(rng.choice([2, 3, int(rng.integers(4, 40)), int(rng.integers(40, 5000))]))
    most = min(n * (n - 1) // 2, 300)
    if m is None:
        m = int(rng.integers(0, most + 1))
    seen = set()
    edges = []
    while len(edges) < m:
        u, v = (int(t) for t in rng.integers(0, n, size=2))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    kind = int(rng.integers(3))
    if kind == 0:
        weights = None
    elif kind == 1:
        weights = rng.uniform(1e-3, 3.0, size=m)
    else:
        weights = rng.integers(1, 2**21, size=m) * 2.0**-20
    return n, edges, weights


class TestFromEdges:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        # either orientation, not adjacent in the input
        for edges in ([(0, 1), (2, 3), (1, 0)], [(0, 1), (2, 3), (0, 1)],
                      [(3, 2), (0, 1), (1, 2), (2, 3)],
                      [(1, 3), (0, 2), (1, 2), (0, 3), (3, 1)]):
            with pytest.raises(ValueError, match="duplicate"):
                Graph.from_edges(4, edges)

    def test_rejects_random_duplicates(self):
        rng = np.random.default_rng(808)
        for _ in range(100):
            n, edges, weights = _random_edge_set(rng)
            if len(edges) < 2:
                continue
            u, v = edges[int(rng.integers(len(edges)))]
            spot = int(rng.integers(len(edges) + 1))
            edges = np.insert(edges, spot, (v, u) if rng.random() < 0.5 else (u, v), axis=0)
            if weights is not None:
                weights = np.insert(weights, spot, 1.0)
            with pytest.raises(ValueError, match="duplicate"):
                Graph.from_edges(n, edges, weights)

    def test_matches_reference_constructor(self):
        rng = np.random.default_rng(707)
        for trial in range(500):
            n, edges, weights = _random_edge_set(rng, m={0: 0, 1: 1}.get(trial % 25))
            ids = rng.permutation(n) - n if trial % 3 == 0 else None
            new = Graph.from_edges(n, edges, weights, original_ids=ids)
            ref = from_edges_reference(n, edges, weights, original_ids=ids)
            assert (new.n, new.m) == (ref.n, ref.m)
            for name in ("edges", "weights", "degree", "original_ids"):
                a, b = getattr(new, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("weights", [None, []], ids=["unweighted", "weighted"])
    def test_edgeless_degree_is_float(self, weights):
        g = Graph.from_edges(3, np.zeros((0, 2)), weights)
        assert g.degree.dtype == np.float64 and g.degree.tobytes() == np.zeros(3).tobytes()

    def test_edge_columns_contiguous(self):
        # bincount and the gathers read each column without a strided copy
        rng = np.random.default_rng(709)
        loaded = load_edge_list(io.StringIO("5 7\n7 9\n9 5\n5 11\n"))
        graphs = [loaded] + [Graph.from_edges(*_random_edge_set(rng)) for _ in range(50)]
        for g in graphs:
            assert g.edges[:, 0].flags.c_contiguous and g.edges[:, 1].flags.c_contiguous
            ref = from_edges_reference(g.n, g.edges, g.weights, original_ids=g.original_ids)
            assert g.edges.tobytes() == ref.edges.tobytes()

    def test_weights_not_aliased(self):
        w = np.array([2.0, 1.0])
        g = Graph.from_edges(3, [(1, 2), (0, 1)], w)
        w[0] = 5.0
        assert g.weights.tolist() == [1.0, 2.0]

    def test_rejects_vertex_count_beyond_edge_key(self):
        # the key (i + j) * n + i needs 2 * n * n to fit in int64; refused before
        # the length-n degree array is allocated
        for edges in ([(0, 1)], []):
            with pytest.raises(ValueError, match="vertex count"):
                Graph.from_edges(graph_mod._MAX_VERTICES + 1, edges)

    def test_edge_key_round_trips_at_the_vertex_limit(self):
        # scalar arrays only: a graph this size would need a 16 GB degree array
        n = graph_mod._MAX_VERTICES
        assert n == 2**31 - 1
        a, b = np.array([n - 2, 1, 0, n - 1]), np.array([n - 1, 0, 1, n - 2])
        key = graph_mod._edge_key(a, b, n)
        # the exact keys, in Python integers, so a wrapped int64 would differ
        assert key.tolist() == [(int(u) + int(v)) * n + min(int(u), int(v)) for u, v in zip(a, b)]
        assert key.max() <= np.iinfo(np.int64).max
        i, j = graph_mod._edge_ends(key, n)
        assert i.tolist() == [n - 2, 0, 0, n - 2] and j.tolist() == [n - 1, 1, 1, n - 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], weights=[-1.0])

    def test_rejects_weights_whose_total_overflows(self):
        # degrees and subgraph weights are partial sums of twice the total
        # weight; refused without a numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, weights in ((2, [1e308]), (3, [1e308, 1e308, 1e308])):
                with pytest.raises(ValueError, match="total edge weight overflows"):
                    Graph.from_edges(n, list(itertools.combinations(range(n), 2)), weights)
            assert Graph.from_edges(2, [(0, 1)], [5e307]).degree.tolist() == [5e307, 5e307]

    def test_arrays_immutable(self, k3):
        with pytest.raises(ValueError):
            k3.weights[0] = 5.0

    def test_ascending_keys_are_not_sorted_again(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(a) or argsort(*a, **kw))
        w = np.array([1.0, 2.0, 3.0])
        ascending = Graph.from_edges(4, [(0, 1), (3, 0), (2, 1)], w)   # keys 1, 3, 6
        assert calls == []
        w[0] = 5.0   # the caller's array is neither kept nor frozen
        assert w.flags.writeable and ascending.weights.tolist() == [1.0, 2.0, 3.0]
        unsorted = Graph.from_edges(4, [(2, 1), (0, 1), (3, 0)], [3.0, 1.0, 2.0])
        assert len(calls) == 1
        for name in ("edges", "weights", "degree", "original_ids"):
            assert getattr(unsorted, name).tobytes() == getattr(ascending, name).tobytes()
        for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)], [(0, 1), (1, 2), (0, 1)]):
            with pytest.raises(ValueError, match="duplicate"):
                Graph.from_edges(3, edges)


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
            edge_differences_adjoint(k3, np.zeros(3), at=np.array([0, 2]))
        with pytest.raises(ValueError):
            adjacency_matvec(k3, np.zeros(2))


def _log_uniform_graph(rng, n, p, unused=0):
    """G(n, p) with weights from 1e-12 to 1e8; the last ``unused`` ids get no edges."""
    g = random_graph(rng, n - unused, p)
    return Graph.from_edges(n, g.edges, 10.0 ** rng.uniform(-12, 8, size=g.m))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestSparseKernelsMatchFullScans:
    """The index-based kernels against the full-scan oracles, bit for bit."""

    def test_adjacency_matvec_random_supports(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            n = int(rng.integers(3, 120))
            g = _log_uniform_graph(rng, n, rng.uniform(0.02, 0.5), unused=min(trial % 3, n - 2))
            x = np.zeros(n)
            support = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            x[support] = rng.choice([1.0, -0.0, 1e-300, -1e-300, 0.5, -3.0, 1e300],
                                    size=support.size) * rng.uniform(0.5, 2.0, support.size)
            with np.errstate(over="ignore", invalid="ignore"):   # 1e300 * 1e8 is inf
                got, want = adjacency_matvec(g, x), adjacency_matvec_full_scan(g, x)
            assert _bits(got) == _bits(want)

    def test_adjacency_matvec_edge_supports(self):
        rng = np.random.default_rng(22)
        g = _log_uniform_graph(rng, 90, 0.1, unused=5)
        first, last = int(g.edges[:, 0].min()), int(g.edges[:, 1].max())
        cases = {
            "empty": [],
            "no tail edges": [first],                 # every edge at it is headed there
            "no head edges": [last],
            "no edges": [g.n - 1, g.n - 2],
            "signed zero": [first, last, 40],
        }
        for name, support in cases.items():
            x = np.zeros(g.n)
            x[support] = -0.0 if name == "signed zero" else 1e-300
            got = adjacency_matvec(g, x)
            assert got.dtype == np.float64, name
            assert _bits(got) == _bits(adjacency_matvec_full_scan(g, x)), name

    def test_adjacency_matvec_at_the_dispatch_size(self):
        rng = np.random.default_rng(23)
        n = 200
        edge = -(-n // graph_mod._SPARSE_FRACTION)   # the smallest support scanning every edge
        for size, indexed in ((edge - 1, True), (edge, False), (edge + 1, False)):
            g = _log_uniform_graph(rng, n, 0.1)
            x = np.zeros(n)
            x[rng.choice(n, size=size, replace=False)] = rng.normal(size=size)
            assert _bits(adjacency_matvec(g, x)) == _bits(adjacency_matvec_full_scan(g, x))
            assert ("incidence" in g.__dict__) == indexed

    def test_adjoint_random_supports(self):
        rng = np.random.default_rng(27)
        for trial in range(300):
            n = int(rng.integers(3, 120))
            g = _log_uniform_graph(rng, n, rng.uniform(0.02, 0.5), unused=min(trial % 3, n - 2))
            f = np.zeros(g.m)
            most = g.m if trial % 2 else g.m // graph_mod._SPARSE_FRACTION + 1
            support = rng.choice(g.m, size=int(rng.integers(0, most + 1)), replace=False)
            f[support] = rng.choice([1.0, 0.0, -0.0, 1e-300, -1e-300, 0.5, -3.0, 1e300],
                                    size=support.size) * rng.uniform(0.5, 2.0, support.size)
            at = np.sort(support)   # the ids given, zero entries among them
            with np.errstate(over="ignore", invalid="ignore"):   # 1e300 sums overflow
                got = edge_differences_adjoint(g, f)
                given = edge_differences_adjoint(g, f[at], at=at)
                want = edge_differences_adjoint_full_scan(g, f)
            assert _bits(got) == _bits(want) and _bits(given) == _bits(want)

    def test_adjoint_edge_supports(self):
        rng = np.random.default_rng(28)
        g = _log_uniform_graph(rng, 90, 0.1, unused=5)
        cases = {
            "empty": np.zeros(g.m),
            "negative zeros": np.full(g.m, -0.0),
            "one tiny entry": np.where(np.arange(g.m) == g.m - 1, -1e-300, 0.0),
            "all nonzero": rng.normal(size=g.m),
        }
        for name, f in cases.items():
            got = edge_differences_adjoint(g, f)
            assert got.dtype == np.float64, name
            assert _bits(got) == _bits(edge_differences_adjoint_full_scan(g, f)), name

    def test_adjoint_at_the_dispatch_size(self):
        rng = np.random.default_rng(29)
        g = _log_uniform_graph(rng, 60, 0.3)
        edge = -(-g.m // graph_mod._SPARSE_FRACTION)   # the fewest nonzeros scanning every edge
        for size, sparse in ((edge - 1, True), (edge, False)):
            f = np.zeros(g.m)
            f[rng.choice(g.m, size=size, replace=False)] = rng.normal(size=size)
            assert (graph_mod._sparse_support(f) is not None) == sparse
            assert _bits(edge_differences_adjoint(g, f)) == _bits(
                edge_differences_adjoint_full_scan(g, f))

    def test_subgraph_weight(self):
        rng = np.random.default_rng(24)
        for trial in range(300):
            n = int(rng.integers(2, 120))
            g = _log_uniform_graph(rng, n, rng.uniform(0.02, 0.6), unused=min(trial % 3, n - 2))
            members = rng.integers(0, n, size=int(rng.integers(0, n + 3)))   # repeats too
            assert (_bits(subgraph_weight(g, members))
                    == _bits(subgraph_weight_by_mask(g, members)))

    def test_topk(self):
        rng = np.random.default_rng(25)
        specials = [np.inf, -np.inf, 0.0, -0.0, 1e-300]
        for trial in range(400):
            n = int(rng.integers(1, 60))
            x = rng.integers(0, 4, size=n).astype(float)      # heavy ties
            spots = rng.random(n) < 0.3
            x[spots] = rng.choice(specials, size=int(spots.sum()))
            if trial % 4 == 0:
                x[rng.integers(0, n)] = np.nan
            for k in {1, max(n - 1, 1), n, int(rng.integers(1, n + 1))}:
                got = topk(x, k)
                assert got.tobytes() == topk_full_sort(x, k).tobytes(), (x, k)

    def test_index_matches_edges(self):
        rng = np.random.default_rng(26)
        g = _log_uniform_graph(rng, 50, 0.2, unused=3)
        head_order, head_ptr, tail_order, tail_ptr = g.incidence
        assert g.incidence is g.incidence
        for v in range(g.n):
            assert (head_order[head_ptr[v]:head_ptr[v + 1]]
                    == np.flatnonzero(g.edges[:, 0] == v)).all()
            assert (tail_order[tail_ptr[v]:tail_ptr[v + 1]]
                    == np.flatnonzero(g.edges[:, 1] == v)).all()
        assert not any(a.flags.writeable for a in g.incidence)


class TestStableOrder:
    """``_stable_order`` against numpy's stable argsort."""

    @staticmethod
    def assert_stable(key, bound):
        got, want = graph_mod._stable_order(key, bound), np.argsort(key, kind="stable")
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 9, 1000])
    def test_many_ties(self, m):
        rng = np.random.default_rng(60 + m)
        for bound in (1, 2, 3, m + 1, 2**40):
            self.assert_stable(rng.integers(0, bound, size=m), bound)

    def test_keys_at_the_bound(self):
        # the largest packed key, (bound - 1) * m + m - 1, is int64's largest
        rng = np.random.default_rng(61)
        m = 64
        bound = (np.iinfo(np.int64).max + 1) // m
        key = rng.choice([0, 1, bound - 2, bound - 1], size=m)
        key[-1] = bound - 1
        self.assert_stable(key, bound)

    def test_overflow_falls_back(self):
        # one past the bound, packing would wrap around and misorder these keys
        rng = np.random.default_rng(62)
        m = 64
        bound = (np.iinfo(np.int64).max + 1) // m + 1
        self.assert_stable(rng.choice([0, 1, bound - 2, bound - 1], size=m), bound)


def _wavefront_cases():
    """Random weighted graphs, some with isolated vertices, and stars."""
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(3, 90))
        g = _log_uniform_graph(rng, n, rng.uniform(0.03, 0.6), unused=min(trial % 4, n - 2))
        yield pytest.param(g, id=f"random-{trial}")
    for n in (2, 5, 40):   # vertex 0 heads every edge
        yield pytest.param(Graph.from_edges(n, [(0, i) for i in range(1, n)]), id=f"star-{n}")
    yield pytest.param(Graph.from_edges(30, [(i, 29) for i in range(29)], np.arange(1.0, 30.0)),
                       id="star-tails")   # vertex 29 is every edge's tail


class TestWavefront:
    """Every graph's one edge order, ascending ``(i + j, i)``, against the
    lexicographic order it replaced."""

    @pytest.mark.parametrize("g", _wavefront_cases())
    def test_scans_bitwise_alike(self, g):
        lex, perm = lexicographic_copy(g)
        w = np.concatenate([lex.weights, lex.weights])
        assert _bits(g.degree) == _bits(np.bincount(lex.edges.T.ravel(), weights=w,
                                                    minlength=g.n))
        rng = np.random.default_rng(g.m)
        x = rng.normal(size=g.n) * 10.0 ** rng.uniform(-200, 200, size=g.n)
        out = np.empty(g.m)
        assert _bits(edge_differences(g, x, out=out)[perm]) == _bits(edge_differences(lex, x))
        for count in (0, 1, max(1, g.n // 10), g.n):   # sparse and dense x
            y = np.zeros(g.n)
            y[rng.choice(g.n, size=count, replace=False)] = x[:count]
            assert _bits(adjacency_matvec(g, y)) == _bits(adjacency_matvec_full_scan(lex, y))
            members = rng.choice(g.n, size=count, replace=False)
            assert _bits(subgraph_weight(g, members)) == _bits(
                subgraph_weight_by_mask(lex, members))
        for count in (0, 1, max(1, g.m // 20), g.m // 2, g.m):   # sparse and dense f
            f = np.zeros(g.m)
            ids = rng.choice(g.m, size=count, replace=False)
            f[ids] = rng.choice([1.0, -0.0, 1e-300, -3.0, 0.5], size=count) * rng.uniform(
                0.5, 2.0, size=count)
            want = edge_differences_adjoint_full_scan(lex, f[perm])
            assert _bits(edge_differences_adjoint(g, f)) == _bits(want)
            at = np.flatnonzero(f != 0)
            assert _bits(edge_differences_adjoint(g, f[at], at=at)) == _bits(want)

    @pytest.mark.parametrize("g", _wavefront_cases())
    def test_from_shuffled_pairs_alike(self, g):
        rng = np.random.default_rng(g.m + 1)
        order = rng.permutation(g.m)
        pairs = g.edges[order]
        flip = rng.random(g.m) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        again = Graph.from_edges(g.n, pairs, g.weights[order])
        for name in ("edges", "weights", "degree", "_scan"):
            assert getattr(again, name).tobytes() == getattr(g, name).tobytes(), name

    @pytest.mark.parametrize("g", _wavefront_cases())
    def test_each_vertex_keeps_canonical_order(self, g):
        i, j = g.edges[:, 0], g.edges[:, 1]
        assert (i < j).all()
        # ascending (i + j, i)
        assert (np.lexsort((i, i + j)) == np.arange(g.m)).all()
        for v in range(g.n):
            assert (np.diff(j[i == v]) > 0).all()   # head edges: ascending (v, j)
            assert (np.diff(i[j == v]) > 0).all()   # tail edges: ascending (i, v)
        assert g.edges[:, 0].flags.c_contiguous and g.edges[:, 1].flags.c_contiguous

    @pytest.mark.parametrize("g", _wavefront_cases())
    def test_public_arrays_read_only(self, g):
        for arr in (g.edges, g.weights, g.degree, g.original_ids, *g.incidence):
            assert not arr.flags.writeable
        # the kernels scan the writeable array the graph's edges show
        assert g._scan.flags.writeable and g.edges.base is g._scan

    @pytest.mark.parametrize("g", _wavefront_cases())
    def test_full_matvec_matches_oracle(self, g):
        rng = np.random.default_rng(g.n + g.m)
        twin = Graph.from_edges(g.n, g.edges)   # unit weights, or g itself if it has them
        for graph in (g, twin):
            # no zero entry, so every edge is scanned
            x = rng.choice([-1.0, 1.0], size=g.n) * 10.0 ** rng.uniform(-100, 100, size=g.n)
            want = adjacency_matvec_full_scan(graph, x)
            assert _bits(adjacency_matvec(graph, x)) == _bits(want)
            assert "incidence" not in graph.__dict__

    def test_solve_and_sweep_leave_the_scan_index_alone(self, tmp_path, monkeypatch):
        import dks.cli as cli_mod
        from dks.oracles import generate_planted
        from dks.solver import solve_lovasz_relaxation

        path = tmp_path / "g.txt"
        write_edge_list(generate_planted(80, 8, 0.1, seed=5).graph, path)
        want = load_edge_list(path)._scan.tobytes()
        g = load_edge_list(path)
        incidence_norm_sq_upper(g)
        solve_lovasz_relaxation(g, 8)
        assert g._scan.tobytes() == want
        loaded = []
        monkeypatch.setattr(cli_mod, "load_edge_list",
                            lambda *a, **kw: loaded.append(load_edge_list(*a, **kw)) or loaded[-1])
        assert cli_mod.main(["sweep", "--graph", str(path), "--k-list", "4,8", "--threads", "1",
                             "--no-timing", "--out", str(tmp_path / "s.csv")]) == 0
        assert loaded[0]._scan.tobytes() == want


class TestIncidenceNormBound:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        lam = incidence_norm_sq_upper(g)
        assert 2.0 <= lam <= 2.02

    @pytest.mark.parametrize("n", [4, 8, 17])
    def test_star(self, n):
        g = Graph.from_edges(n, [(0, i) for i in range(1, n)])
        lam = incidence_norm_sq_upper(g)
        true = dense_cross_check(g).laplacian_eigenvalues[-1]
        assert true == pytest.approx(n, abs=1e-9)
        assert n - 1e-9 <= lam <= 1.01 * n + 1e-9

    def test_triangle(self, k3):
        lam = incidence_norm_sq_upper(k3)
        assert 3.0 - 1e-9 <= lam <= 1.01 * 3 + 1e-9

    def test_random_graphs_bracket(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "LAMBDA_TOL", 0.02)
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 60)), 0.2, weighted=True)
            lam = incidence_norm_sq_upper(g)
            true = dense_cross_check(g).laplacian_eigenvalues[-1]
            assert lam >= true - 1e-9
            counts = np.bincount(g.edges.ravel(), minlength=g.n)
            assert lam <= min(2.0 * counts.max(), (1 + 10 * 0.02) * true) + 1e-9

    # the fallback is max over edges of deg_i + deg_j: 4 on C6, as Gershgorin's
    # 2 max_degree; n on a star, against Gershgorin's 2 (n - 1)
    @pytest.mark.parametrize("n, edges, bound", [
        (6, [(i, (i + 1) % 6) for i in range(6)], 4.0),
        (5, [(0, i) for i in range(1, 5)], 5.0),
        (17, [(0, i) for i in range(1, 17)], 17.0),
    ], ids=["c6", "star5", "star17"])
    def test_iteration_cap_falls_back_to_anderson_morley(self, n, edges, bound, monkeypatch):
        g = Graph.from_edges(n, edges)
        monkeypatch.setattr(graph_mod, "LAMBDA_MAX_MATVECS", 0)
        lam = incidence_norm_sq_upper(g)
        assert lam == bound
        assert lam >= dense_cross_check(g).laplacian_eigenvalues[-1] - 1e-9


def _complete(n):
    return list(itertools.combinations(range(n), 2))


def _spectral_cases():
    """``(name, graph)`` pairs: seeded random graphs, then adversarial spectra."""
    rng = np.random.default_rng(12)
    cases = []
    for i in range(24):
        g = random_graph(rng, int(rng.integers(3, 60)), float(rng.uniform(0.05, 0.5)),
                         weighted=i % 2 == 1)
        cases.append((f"random{i}", g))
    sparse = random_graph(rng, 20, 0.2)
    cases += [
        ("isolated", Graph.from_edges(26, sparse.edges)),  # six more, all isolated
        ("K3,4", Graph.from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)])),
        ("path5", Graph.from_edges(5, [(i, i + 1) for i in range(4)])),
        ("C6", Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])),
        ("K3", Graph.from_edges(3, _complete(3))),
        ("K5", Graph.from_edges(5, _complete(5))),
        ("K9", Graph.from_edges(9, _complete(9))),
        ("star5", Graph.from_edges(5, [(0, i) for i in range(1, 5)])),
        ("star17", Graph.from_edges(17, [(0, i) for i in range(1, 17)])),
        ("path3", Graph.from_edges(3, [(0, 1), (1, 2)])),
        ("edge", Graph.from_edges(2, [(0, 1)])),
        ("2xK4+K2", Graph.from_edges(10, [(a + s, b + s) for s in (0, 4)
                                          for a, b in _complete(4)] + [(8, 9)])),
    ]
    return cases


SPECTRAL_CASES = _spectral_cases()


def _operators(g):
    """The two operators the library runs Lanczos on: W and the Laplacian of λ̂."""
    dense = dense_cross_check(g)
    return [
        ("W", lambda x: adjacency_matvec(g, x), dense.adjacency_eigenvalues),
        ("L", lambda x: edge_differences_adjoint(g, edge_differences(g, x)),
         dense.laplacian_eigenvalues),
    ]


class TestPowerIterationNorm:
    @pytest.mark.parametrize("name, g", SPECTRAL_CASES, ids=[c[0] for c in SPECTRAL_CASES])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_against_dense_and_block_reference(self, name, g, tol):
        for op, matvec, eigenvalues in _operators(g):
            true = float(np.abs(eigenvalues).max())
            sigma, vec, converged = power_iteration_norm(matvec, g.n, tol)
            assert converged, (name, op)
            assert abs(sigma - true) <= tol * true, (name, op, sigma, true)
            # the certificate, recomputed from scratch on the returned vector
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            image = matvec(vec)
            mu = float(vec @ image)
            assert mu == pytest.approx(sigma, rel=1e-12, abs=1e-15)
            assert np.linalg.norm(image - mu * vec) <= 0.5 * tol * sigma * (1 + 1e-9)
            ref_sigma, _, ref_converged = power_iteration_norm_reference(matvec, g.n, tol)
            ref_right = ref_converged and abs(ref_sigma - true) <= tol * true
            if name.startswith("random"):
                assert ref_right, (name, op)
            if ref_right:
                assert sigma == pytest.approx(ref_sigma, rel=2 * tol)

    @pytest.mark.parametrize("name, g", SPECTRAL_CASES, ids=[c[0] for c in SPECTRAL_CASES])
    def test_last_matvec_checks_the_returned_vector(self, name, g):
        # the certificate is an explicit product with the returned vector, not
        # the recurrence's residual estimate
        for _, matvec, _ in _operators(g):
            seen = []

            def recorded(x):
                seen.append(x.copy())
                return matvec(x)

            _, vec, converged = power_iteration_norm(recorded, g.n, 1e-6)
            assert converged
            assert any(np.array_equal(s * seen[-1], vec) for s in (1.0, -1.0))

    def test_near_invariant_start_stays_orthogonal(self):
        # a tight cluster far from one isolated eigenvalue: the Krylov space is
        # nearly invariant from the start, so one Gram-Schmidt pass leaves the
        # basis far from orthogonal (it then did not converge in 20000 matvecs)
        d = np.concatenate([np.linspace(90, 100, 1999), [-80.0]])
        sigma, vec, converged = power_iteration_norm(lambda x: d * x, d.size, 1e-6,
                                                     max_iter=20000)
        assert converged
        assert sigma == pytest.approx(100.0, rel=1e-6)
        mu = float(vec @ (d * vec))
        assert np.linalg.norm(d * vec - mu * vec) <= 0.5e-6 * sigma * (1 + 1e-9)

    def test_returns_the_top_signed_eigenvalue(self):
        # the top, not the eigenvalue of largest magnitude: ends nearly equal
        # in magnitude once gave either, each with converged=True
        rng = np.random.default_rng(0)
        bulk = rng.uniform(-4.86, 4.86, 1998)
        for d, top in ((np.concatenate([bulk, [5.0067, -5.0073]]), 5.0067),
                       (-np.arange(1.0, 6.0), -1.0), (-np.ones(4), -1.0)):
            for seed in range(5):
                sigma, _, converged = power_iteration_norm(lambda x: d * x, d.size, 1e-6,
                                                           max_iter=20000, seed=seed)
                assert converged and sigma == pytest.approx(top, rel=1e-6), (top, seed)

    def test_reference_certifies_a_subdominant_eigenvalue(self):
        # the defect Lanczos removes: on 2 x K4 plus a disjoint edge (n = 10)
        # the 4-vector start block meets the 7-dimensional eigenspace of -1,
        # and that Ritz pair has zero residual at the first iteration
        g = dict(SPECTRAL_CASES)["2xK4+K2"]
        matvec = lambda x: adjacency_matvec(g, x)  # noqa: E731
        assert power_iteration_norm_reference(matvec, g.n, 1e-6)[::2] == (
            pytest.approx(1.0), True)
        sigma, _, converged = power_iteration_norm(matvec, g.n, 1e-6)
        assert converged and sigma == pytest.approx(3.0, rel=1e-6)

    @pytest.mark.parametrize("name, g", SPECTRAL_CASES, ids=[c[0] for c in SPECTRAL_CASES])
    def test_repeat_calls_bitwise_equal(self, name, g):
        for _, matvec, _ in _operators(g):
            first = power_iteration_norm(matvec, g.n, 1e-6)
            second = power_iteration_norm(matvec, g.n, 1e-6)
            assert first[0] == second[0] and first[2] == second[2]
            assert first[1].tobytes() == second[1].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 0x5EED, 0xDEF1A7E, 2**64 - 1, 2**64 + 5, -3])
    def test_hashed_start_is_splitmix64(self, seed):
        # the reference generator in Python integers: state += golden gamma, then mix
        mask, state, want = 2**64 - 1, seed % 2**64, []
        for _ in range(40):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            want.append((z ^ (z >> 31)) >> 11)
        got = _hashed_start(40, seed)
        assert got.dtype == np.float64
        assert got.tobytes() == (np.array(want, dtype=np.float64) * 2.0**-53 - 0.5).tobytes()
        assert _hashed_start(0, seed).shape == (0,)

    def test_given_start_is_used_and_left_unchanged(self):
        d = np.linspace(1.0, 2.0, 50)
        start = np.zeros(50)
        start[-1] = 3.0
        calls = []
        sigma, vec, converged = power_iteration_norm(
            lambda x: calls.append(1) or d * x, d.size, 1e-6, start=start)
        assert converged and sigma == 2.0 and len(calls) == 2
        assert vec.tobytes() == (start / 3.0).tobytes()
        assert start[-1] == 3.0 and not start[:-1].any()

    def test_hashed_start_bytes_equal_across_processes(self):
        def digest(n, seed):
            return hashlib.sha256(_hashed_start(n, seed).tobytes()).hexdigest()

        cases = [(1, 0x5EED), (1000, 0x5EED), (100003, 0xDEF1A7E)]
        script = ("import hashlib\nfrom dks.graph import _hashed_start\n"
                  f"for n, seed in {cases!r}:\n"
                  "    print(hashlib.sha256(_hashed_start(n, seed).tobytes()).hexdigest())")
        src = os.path.dirname(os.path.dirname(graph_mod.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout.split() == [digest(n, seed) for n, seed in cases]

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3, 7, 13, 14, 30])
    def test_max_iter_counts_matvecs(self, max_iter):
        for name, g in SPECTRAL_CASES:
            calls = []

            def counted(x):
                calls.append(1)
                return adjacency_matvec(g, x)

            _, vec, converged = power_iteration_norm(counted, g.n, 1e-6, max_iter=max_iter)
            assert len(calls) <= max_iter, name
            assert np.linalg.norm(vec) == pytest.approx(1.0)
            if max_iter <= 2:
                # one matvec builds a one-vector basis and a second checks its
                # residual; a hashed start is no eigenvector
                assert not converged, name

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_cap_keeps_the_fallbacks(self, max_iter, monkeypatch):
        monkeypatch.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", max_iter)
        monkeypatch.setattr(graph_mod, "LAMBDA_MAX_MATVECS", max_iter)
        for name, g in SPECTRAL_CASES:
            sp = top_two_singular(g)
            assert not sp.converged, name
            assert sp.sigma1 == sp.sigma2 == g.degree.max()
            counts = np.bincount(g.edges.ravel(), minlength=g.n)
            edge_bound = float((counts[g.edges[:, 0]] + counts[g.edges[:, 1]]).max())
            assert incidence_norm_sq_upper(g) == edge_bound


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
        assert VertexSet.from_members(k3, {0, 1, 2}).density == 1.0
        assert VertexSet.from_members(k3, {0, 1}).density == 1.0

    def test_density_no_internal_edge(self, path3):
        assert VertexSet.from_members(path3, {0, 2}).density == 0.0

    def test_density_needs_two(self, k3):
        with pytest.raises(ValueError):
            VertexSet.from_members(k3, {0})


class TestVertexSet:
    def test_cached_fields(self, k4k2):
        vs = VertexSet.from_members(k4k2, [3, 0, 1, 2])
        assert vs.members == (0, 1, 2, 3)
        assert vs.k == 4
        assert vs.subgraph_weight == 12.0
        assert vs.density == 1.0
