"""Tests of the benchmark's own code: generator, output checks and tracer."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"name": "small", "n": 300, "m": 2000, "clique": 12}
SMALL_SWEEP = {
    "graph": SMALL,
    "argv": ["sweep", "--k-list", "8,12,16", "--methods", "ladmm-fw,ladmm-project,rank1,tpm",
             "--threads", "1", "--no-timing"],
    "ks": [8, 12, 16],
    "clique_methods": ["ladmm-fw"],
}


def read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "small.txt")
    gen.write_input(SMALL, 3, path)
    return path


def test_generator_same_seed_same_bytes(tmp_path):
    a, b, c = (str(tmp_path / f"small-{i}.txt") for i in range(3))
    gen.write_input(SMALL, 7, a)
    gen.write_input(SMALL, 7, b)
    gen.write_input(SMALL, 8, c)
    assert read(a) == read(b)
    assert read(a + ".sizes.json") == read(b + ".sizes.json")
    assert read(a) != read(c)


def test_generator_edge_counts(tmp_path):
    path = str(tmp_path / "p.txt")
    sizes = gen.write_input(SMALL, 1, path)
    lines = read(path).decode().splitlines()
    pairs = {tuple(sorted((int(u), int(v)))) for u, v in map(str.split, lines[1:])}
    assert sizes == json.loads(read(path + ".sizes.json"))
    assert sizes == {"n": 300, "pairs": len(pairs), "lines": len(lines)}
    assert len(pairs) == len(lines) - 1 and all(u != v for u, v in pairs)
    # the planted clique adds at most its 66 pairs to the m sampled ones
    assert SMALL["m"] <= sizes["pairs"] <= SMALL["m"] + 66


def test_self_times_on_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        [0, None, "cli.main", 0.0, 10.0],
        [1, 0, "solver.a", 1.0, 4.0],
        [2, 1, "graph.a1", 2.0, 3.0],
        [3, 0, "prox.b", 5.0, 9.0],
    ]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def traced_counts(dks, path, out):
    with layertrace.Tracer() as tracer:
        code, _, _ = tracer.span("cli.main", measure.call_cli, dks, SMALL_SWEEP, path, out)
    assert code == 0
    metrics = layertrace.layer_metrics(tracer, 0.0)
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def test_traced_counts_repeat_and_originals_restored(small_graph, tmp_path):
    path = small_graph
    dks = measure.import_library(os.path.join(os.path.dirname(HERE), "src"))
    out = str(tmp_path / "out.csv")
    before = layertrace.site_functions()
    first = traced_counts(dks, path, out)
    assert layertrace.site_functions() == before
    second = traced_counts(dks, path, out)
    assert first == second
    assert first["solver.iters"] > 0
    assert first["graph.edge_differences_adjoint.calls"] == 3 * first["solver.iters"]
    assert first["prox.cardinality_gap.calls"] > first["prox.prox_capped_simplex.calls"]

    # the untraced output passes every check
    res = measure.check_call(SMALL_SWEEP, *measure.call_cli(dks, SMALL_SWEEP, path, out))
    assert res.problems == [] and res.failed == 0 and res.attempted == 15
    assert not os.path.exists(out)


def test_tracer_restores_on_error():
    before = layertrace.site_functions()
    with pytest.raises(RuntimeError):
        with layertrace.Tracer():
            assert layertrace.site_functions() != before
            raise RuntimeError("boom")
    assert layertrace.site_functions() == before


def edit_row(csv_text, k, method, edit):
    """``csv_text`` with ``edit(fields)`` applied to the row of (k, method)."""
    lines = csv_text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[:2] == [str(k), method]:
            edit(fields)
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_broken_output_fails_every_row(small_graph, tmp_path):
    path = small_graph
    dks = measure.import_library(os.path.join(os.path.dirname(HERE), "src"))
    code, csv_text, wall = measure.call_cli(dks, SMALL_SWEEP, path, str(tmp_path / "out.csv"))

    def inflate(fields):  # a density past its bound
        fields[2] = repr(float(fields[4]) * 2)

    def miss_clique(fields):  # self-consistent and within the bound, one edge short
        fields[3] = repr(float(fields[3]) - 2.0)
        fields[2] = repr(float(fields[3]) / (12 * 11))

    def lower_bound(fields):  # a bound below the planted clique's density
        fields[4] = "0.9"

    for k, method, edit, problem in ((8, "tpm", inflate, "above bound"),
                                     (12, "ladmm-fw", miss_clique, "misses the planted"),
                                     (8, "bound", lower_bound, "below the planted")):
        broken = edit_row(csv_text, k, method, edit)
        assert broken != csv_text
        res = measure.check_call(SMALL_SWEEP, code, broken, wall)
        assert res.failed == res.attempted
        assert any(problem in p for p in res.problems), res.problems
    res = measure.check_call(SMALL_SWEEP, 1, csv_text, wall)
    assert res.failed == res.attempted


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        measure.E2E_UNITS.items())
    layers = layertrace.layer_metrics(layertrace.Tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_input_cache_name_follows_spec_and_generator(tmp_path, monkeypatch):
    name = "admm-sweep"
    first = run.input_path(name, 1)
    assert run.input_path(name, 1) == first != run.input_path(name, 2)
    monkeypatch.setitem(WORKLOADS[name], "graph", dict(WORKLOADS[name]["graph"], m=45001))
    assert run.input_path(name, 1) != first
    monkeypatch.undo()
    with open(os.path.join(HERE, "gen.py"), "rb") as f:
        (tmp_path / "gen.py").write_bytes(f.read() + b"# changed\n")
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    assert run.input_path(name, 1) != first
