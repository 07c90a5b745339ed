import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import near_bipartite, record_makes
import dks
import dks.baselines as baselines_mod
from dks.cli import CSV_HEADER, SOLVE_METHODS, main
from dks.graph import Graph, VertexSet, load_edge_list, write_edge_list
from dks.oracles import brute_force_dks


# the output contract: each golden CSV is the sweep, with the default methods and
# --no-timing, of the graph of `dks gen <gen flags>` over the k grid of its sweep flags
_GOLDEN_SWEEPS = {
    # dks gen --n 300 --k 12 --p 0.05 --seed 3, swept at k = 8..16 step 2
    "planted": (["--n", "300", "--k", "12", "--p", "0.05", "--seed", "3"],
                ["--k-min", "8", "--k-max", "16", "--k-step", "2"]),
    # dks gen --n 2000 --k 30 --p 0.002 --seed 1, swept at --k-list 20,30,45,60: a
    # sparse graph, where the relaxation is informative
    "sparse": (["--n", "2000", "--k", "30", "--p", "0.002", "--seed", "1"],
               ["--k-list", "20,30,45,60"]),
}
_GZIPPED = gzip.compress("".join(f"{i} {i + 1}\n" for i in range(500)).encode())


def _run_dks(args, entry=("-m", "dks"), **kwargs):
    """Run ``python -m dks`` (or ``python *entry``) in a subprocess that imports
    the same dks as this process."""
    src = os.path.dirname(os.path.dirname(dks.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


@pytest.fixture
def k4k2_file(tmp_path):
    """K4 on 0-3 plus a pendant path 3-4-5 (connected, so the loader keeps it all)."""
    path = tmp_path / "k4tail.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n")
    return str(path)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fix.txt"
    rc = main(["gen", "--n", "40", "--k", "6", "--p", "0.1", "--seed", "9",
               "--out", str(path)])
    assert rc == 0
    return str(path)


class TestSolve:
    def test_ladmm_fw_finds_clique(self, k4k2_file, capsys):
        rc = main(["solve", "--graph", k4k2_file, "--k", "4",
                   "--method", "ladmm-fw", "--bound"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == [0, 1, 2, 3]
        assert payload["density"] == 1.0
        assert payload["upper_bound"] == 1.0
        assert payload["bound_ratio"] == 1.0
        assert payload["bound_converged"] is True

    def test_relaxation_certificate_reported(self, k4k2_file, capsys):
        for method in ("ladmm-project", "ladmm-fw"):
            argv = ["solve", "--graph", k4k2_file, "--k", "4", "--method", method]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["converged"] is True
            assert payload["dual_bound"] <= -6.0   # min f_L <= -2 * weight of K4
            assert -1e-9 <= payload["gap"] <= 1e-3 * max(1.0, abs(payload["dual_bound"]))

    def test_ladmm_fw_converged_needs_frank_wolfe_to_finish(self, k4k2_file, fixture_file,
                                                            capsys):
        def solve(graph, method):
            assert main(["solve", "--graph", graph, "--k", "4", "--method", method]) == 0
            return json.loads(capsys.readouterr().out)

        relax_iters = solve(k4k2_file, "ladmm-project")["iters"]
        full = solve(k4k2_file, "ladmm-fw")
        assert full["iters"] - relax_iters > 1   # Frank-Wolfe takes more than one step here
        assert full["converged"] is True
        assert full["fw_stop_reason"] in ("stationary", "objective")
        assert full["integrality_gap"] == 0.0
        # inside the fixture's planted 6-clique Frank-Wolfe creeps toward a
        # fractional stationary point and uses up its cap of 100 steps
        relax = solve(fixture_file, "ladmm-project")
        capped = solve(fixture_file, "ladmm-fw")
        assert relax["converged"] is True
        assert capped["iters"] == relax["iters"] + 100
        assert capped["converged"] is False
        assert capped["fw_stop_reason"] == "max-iter"
        assert capped["integrality_gap"] > 0.0
        assert capped["density"] == 1.0

    def test_unconverged_bound_reported(self, fixture_file, capsys, monkeypatch):
        monkeypatch.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", 1)
        argv = ["solve", "--graph", fixture_file, "--k", "4", "--method", "greedy", "--bound"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_converged"] is False
        assert payload["upper_bound"] >= payload["density"]

    def test_brute_weight(self, k4k2_file, capsys):
        rc = main(["solve", "--graph", k4k2_file, "--k", "4",
                   "--method", "brute"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["weight"] == 12.0

    def test_text_report_mentions_original_ids(self, tmp_path, capsys):
        path = tmp_path / "shifted.txt"
        path.write_text("10 11\n10 12\n11 12\n")
        rc = main(["solve", "--graph", str(path), "--k", "2", "--method", "greedy"])
        assert rc == 0
        # dense ids would be [0, 1]
        assert json.loads(capsys.readouterr().out)["members"] == [10, 11]

    @pytest.mark.parametrize("method", SOLVE_METHODS)
    @pytest.mark.parametrize("bound", [False, True])
    def test_report_is_strict_json_in_documented_order(self, k4k2_file, capsys, method,
                                                        bound):
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        argv = ["solve", "--graph", k4k2_file, "--k", "4", "--method", method]
        assert main(argv + ["--bound"] * bound) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        # the key order the README's command-line section documents
        keys = ["method", "k", "n", "m", "members", "weight", "density", "iters",
                "converged", "runtime_ms"]
        if method in ("ladmm-project", "ladmm-fw"):
            keys += ["dual_bound", "gap"]
        if method == "ladmm-fw":
            keys += ["fw_stop_reason", "integrality_gap"]
        if bound:
            keys += ["upper_bound", "bound_ratio", "bound_converged"]
        assert list(payload) == keys
        assert payload["method"] == method and payload["members"] == [0, 1, 2, 3]

    def test_bound_violation_aborts(self, k4k2_file, capsys, monkeypatch):
        import dks.cli as cli_mod

        monkeypatch.setattr(cli_mod, "density_upper_bound", lambda g, k, sp: 1e-6)
        rc = main(["solve", "--graph", k4k2_file, "--k", "4", "--method", "greedy",
                   "--bound"])
        assert rc == 1
        assert "internal error: density 1.0 exceeds upper bound 1e-06" in (
            capsys.readouterr().err)

    def test_k_zero_is_usage_error(self, k4k2_file, capsys):
        rc = main(["solve", "--graph", k4k2_file, "--k", "0", "--method", "greedy"])
        assert rc == 2

    def test_bad_method_is_usage_error(self, k4k2_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", k4k2_file, "--k", "2", "--method", "magic"])
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, capsys):
        rc = main(["solve", "--graph", "/nonexistent/g.txt", "--k", "2",
                   "--method", "greedy"])
        assert rc == 1

    @pytest.mark.parametrize("data", [
        b"0 1\n1 2\n2 99999999999999999999999\n0 2\n",   # id beyond signed 64-bit
        _GZIPPED[:len(_GZIPPED) // 2],                      # truncated gzip
        b"",
        b"0 1\n1 2\n\xe9 3\n",                               # not UTF-8
    ], ids=["oversized-id", "truncated-gzip", "empty", "invalid-utf8"])
    def test_bad_input_exits_1_without_traceback(self, tmp_path, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        proc = _run_dks(["solve", "--graph", str(path), "--k", "2", "--method", "greedy"],
                        text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, command", [
        *((flag, command)
          for flag in ["--bisect-eps=1e-6", "--prox-scale=literal", "--thin=2",
                       "--fw-step=lipschitz", "--rho=0.1", "--alpha=1.8", "--fw-max-iter=100",
                       "--eps-abs=1e-3", "--eps-rel=1e-3", "--max-iter=3000"]
          for command in ["solve", "sweep"]),
        # solve's report is its JSON on stdout, in one format and to one sink
        ("--json", "solve"), ("--out x", "solve"),
        # a method's density and runtime series are its rows of the sweep CSV
        ("--csv x --out-dir y", "plotdata")])
    def test_removed_solver_flags_rejected(self, k4k2_file, tmp_path, capsys, monkeypatch,
                                           command, flag):
        monkeypatch.chdir(tmp_path)
        argv = {"solve": ["solve", "--k", "4", "--method", "greedy"],
                "sweep": ["sweep", "--k-list", "4", "--methods", "greedy", "--out", "x.csv"],
                "plotdata": ["plotdata"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--graph", k4k2_file, *flag.split()])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("invalid choice" if command == "plotdata" else "unrecognized arguments") in err
        assert os.listdir(tmp_path) == ["k4tail.txt"]

    def test_weight_total_overflow_exits_1_without_traceback(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n0 2 1e308\n2 3 1\n")
        proc = _run_dks(["solve", "--graph", str(path), "--weighted", "--k", "3",
                         "--method", "greedy"], text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_numpy_is_the_only_runtime_dependency(self, k4k2_file, tmp_path):
        entry = ("-c", "import sys; sys.modules['scipy'] = None\n"
                       "from dks.cli import main; sys.exit(main())")
        for argv in (["sweep", "--graph", k4k2_file, "--k-list", "2,3,4",
                      "--methods", ",".join(SOLVE_METHODS), "--out", str(tmp_path / "s.csv")],
                     ["solve", "--graph", k4k2_file, "--k", "4", "--bound"]):
            proc = _run_dks(argv, entry=entry, text=True)
            assert proc.returncode == 0, proc.stderr

    def test_stdin_dash(self, k4k2_file):
        with open(k4k2_file, "rb") as f:
            data = f.read()
        proc = _run_dks(["solve", "--graph", "-", "--k", "4", "--method", "greedy"],
                        input=data)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["members"] == [0, 1, 2, 3]


class TestSweep:
    def test_schema_and_ordering(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-min", "3", "--k-max", "7",
                   "--k-step", "2", "--methods", "ladmm-fw,greedy", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 3  # 3 k values x (bound + 2 methods)
        keys = [(int(r[0]), r[1]) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            density, bound = float(r[2]), float(r[4])
            ratio = float(r[5])
            assert density <= bound * (1 + 1e-9)
            assert ratio <= 1 + 1e-9

    def test_densities_recomputed_from_members(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--graph", fixture_file, "--k-list", "6",
              "--methods", "brute", "--out", str(out)])
        g = load_edge_list(fixture_file)
        _, weight = brute_force_dks(g, 6)
        row = [l for l in out.read_text().splitlines() if ",brute," in l][0]
        assert float(row.split(",")[3]) == pytest.approx(weight)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_cell_stops_the_sweep(self, fixture_file, tmp_path, capsys, monkeypatch,
                                         threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)   # a real pool even on one CPU
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4,25", "--threads", threads,
                   "--methods", "brute,greedy", "--out", str(out)])
        assert rc == 1
        # the same line `solve --method brute` prints at k=25
        assert capsys.readouterr().err == ("error: C(37, 25) = 1852482996 subsets exceeds "
                                           "the enumeration limit 10000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("k_list, error", [
        ("4,25", "C(37, 25) = 1852482996 subsets exceeds the enumeration limit 10000000"),
        ("4,8,30", "C(37, 8) = 38608020 subsets exceeds the enumeration limit 10000000"),
        ("2,36", "C(37, 2) * 37^2 = 911754 multiply-adds exceeds the enumeration work "
                 "limit 100000"),
    ], ids=["subsets", "inner-k", "work"])
    def test_brute_limits_checked_before_any_cell(self, fixture_file, tmp_path, capsys,
                                                  monkeypatch, k_list, error):
        # brute's limits hang on n and k alone: the whole grid is checked after
        # the load, before k=4 is enumerated or any other method runs
        import dks.cli as cli_mod
        import dks.oracles as oracles_mod

        def no_cell(*args, **kwargs):
            pytest.fail("a cell ran before brute's limits were checked")

        if k_list == "2,36":
            monkeypatch.setattr(oracles_mod, "_MAX_MULTIPLY_ADDS", 100000)
        for name in ("brute_force_dks", "greedy_feige", "solve_lovasz_relaxation"):
            monkeypatch.setattr(cli_mod, name, no_cell)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-list", k_list,
                   "--methods", "brute,greedy,ladmm-fw", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/sweep.csv", "."])
    def test_unwritable_out_refused_before_load(self, fixture_file, tmp_path, capsys,
                                                monkeypatch, out):
        import dks.cli as cli_mod

        def load(*args, **kwargs):
            pytest.fail("the graph was read before --out was checked")

        monkeypatch.setattr(cli_mod, "load_edge_list", load)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4",
                   "--methods", "greedy", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(out) in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_byte_identical_reruns(self, fixture_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--graph", fixture_file, "--k-list", "4,6,8",
                "--methods", "ladmm-fw,ladmm-project,greedy,tpm,rank1",
                "--threads", "1", "--no-timing"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", _GOLDEN_SWEEPS)
    def test_matches_golden_sweep(self, name, tmp_path, capsys):
        gen_flags, sweep_flags = _GOLDEN_SWEEPS[name]
        graph, out = tmp_path / "graph.txt", tmp_path / "sweep.csv"
        assert main(["gen", *gen_flags, "--out", str(graph)]) == 0
        assert main(["sweep", "--graph", str(graph), *sweep_flags, "--no-timing",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        golden = Path(__file__).parent / "data" / f"golden_sweep_{name}.csv"
        got = [line.split(",") for line in out.read_text().splitlines()]
        want = [line.split(",") for line in golden.read_text().splitlines()]
        assert got[0] == want[0] == CSV_HEADER.split(",")
        assert len(got) == len(want)
        for row, ref in zip(got[1:], want[1:]):
            exact = (0, 1, 6, 7)   # k, method, iters, converged
            assert [row[i] for i in exact] == [ref[i] for i in exact]
            for i in (2, 3, 4, 5, 8):
                assert float(row[i]) == pytest.approx(float(ref[i]), rel=1e-12, abs=0.0)

    def test_threads_flag_same_rows(self, fixture_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)   # a real pool even on one CPU
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--graph", fixture_file, "--k-list", "4,6",
                "--methods", "ladmm-fw,ladmm-project,greedy,tpm,rank1", "--no-timing"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pool_no_larger_than_grid_or_cpus(self, fixture_file, tmp_path, capsys,
                                              monkeypatch):
        import dks.cli as cli_mod

        sizes = []

        class SerialPool:   # records the pool size and starts no thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli_mod, "ThreadPoolExecutor", SerialPool)
        base = ["sweep", "--graph", fixture_file, "--k-list", "3,4,5",
                "--methods", "ladmm-fw,greedy,tpm,rank1", "--no-timing"]
        paths = [tmp_path / f"{i}.csv" for i in range(4)]
        for cpus, threads, path in ((64, "1000000", paths[0]), (2, "1000000", paths[1]),
                                    (None, "1000000", paths[2]), (64, "1", paths[3])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert main(base + ["--threads", threads, "--out", str(path)]) == 0
        # one worker per k at most, one per CPU at most, and serial with no pool at one
        assert sizes == [3, 2]
        assert len({p.read_bytes() for p in paths}) == 1

    def test_graph_quantities_computed_once(self, fixture_file, tmp_path, capsys,
                                            monkeypatch):
        import dks.cli as cli_mod

        calls = {}

        def counted(name):
            original = getattr(cli_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cli_mod, name, wrapper)

        counted("top_two_singular")
        counted("rank1_dks")
        pairs, ranked = [], []
        top_two, topk = cli_mod.top_two_singular, baselines_mod.topk

        def kept_pair(g):
            pairs.append(top_two(g))
            return pairs[-1]

        def recorded_topk(x, k):
            ranked.append((np.array(x), k))
            return topk(x, k)
        monkeypatch.setattr(cli_mod, "top_two_singular", kept_pair)
        monkeypatch.setattr(baselines_mod, "topk", recorded_topk)

        # the incidence index and the estimate of ||B||^2: counted where made, and the
        # index looked for right after the load
        builds = record_makes(monkeypatch, "incidence")
        estimates = record_makes(monkeypatch, "_norm_sq_upper")
        load = cli_mod.load_edge_list
        loaded = []

        def checked_load(*args, **kwargs):
            g = load(*args, **kwargs)
            loaded.append("incidence" in g.__dict__)
            return g
        monkeypatch.setattr(cli_mod, "load_edge_list", checked_load)
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4,6,8",
                   "--methods", "ladmm-fw,rank1", "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        # the bound computes the rank-1 surrogate itself: one rank1_dks per k
        assert calls == {"top_two_singular": 1, "rank1_dks": 3}
        # loading does not build the index; every k and method shares one build, and
        # every relaxation one estimate
        assert loaded == [False]
        assert len(builds) == 1 and len(estimates) == 1
        # u1 and -u1 are each ranked by one rank1 row and one bound per k, for k entries, never n
        (sp,) = pairs
        for u in (sp.u1, -sp.u1):
            assert sorted(k for x, k in ranked if np.array_equal(x, u)) == [4, 4, 6, 6, 8, 8]

        for method in ("rank1", "ladmm-fw"):
            calls.clear()
            estimates.clear()
            rc = main(["solve", "--graph", fixture_file, "--k", "4", "--method", method,
                       "--bound"])
            assert rc == 0
            assert calls.get("top_two_singular") == 1
            assert calls.get("rank1_dks", 0) == (method == "rank1")
            assert len(estimates) == (method == "ladmm-fw")

    def test_unconverged_spectral_pair_reported(self, fixture_file, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", 1)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4,6",
                   "--methods", "greedy,rank1", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert {r[1]: r[7] for r in rows} == {"bound": "false", "rank1": "false",
                                              "greedy": "true"}

    def test_planted_sweep_hits_bound_at_planted_k(self, tmp_path, capsys):
        fixture = tmp_path / "planted.txt"
        assert main(["gen", "--n", "500", "--k", "20", "--p", "0.05", "--seed", "7",
                     "--out", str(fixture)]) == 0
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", str(fixture), "--k-list", "10,20,30",
                   "--methods", "ladmm-fw,greedy,tpm", "--out", str(out)])
        assert rc == 0
        row = [l for l in out.read_text().splitlines()
               if l.startswith("20,ladmm-fw,")][0].split(",")
        assert float(row[2]) == 1.0   # density
        assert float(row[5]) == 1.0   # bound_ratio

    def test_brute_rows_dominate_heuristics(self, tmp_path, capsys):
        fixture = tmp_path / "small.txt"
        assert main(["gen", "--n", "14", "--k", "4", "--p", "0.3", "--seed", "2",
                     "--out", str(fixture)]) == 0
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", str(fixture), "--k-list", "3,5,7",
                   "--methods", "brute,greedy,tpm,rank1,ladmm-fw", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        best = {int(r[0]): float(r[3]) for r in rows if r[1] == "brute"}
        for r in rows:
            if r[1] not in ("brute", "bound"):
                assert float(r[3]) <= best[int(r[0])] + 1e-9

    def test_complete_graph_every_method_saturates_bound(self, tmp_path, capsys):
        path = tmp_path / "k8.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(8)
                                  for j in range(i + 1, 8)) + "\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", str(path), "--k-min", "2", "--k-max", "7",
                   "--methods", "ladmm-project,ladmm-fw,greedy,tpm,rank1,brute",
                   "--out", str(out)])
        assert rc == 0
        for row in (l.split(",") for l in out.read_text().splitlines()[1:]):
            assert float(row[2]) == 1.0   # density
            assert float(row[4]) == 1.0   # upper_bound
            assert row[7] == "true"

    def test_bound_violation_aborts(self, fixture_file, tmp_path, capsys, monkeypatch):
        import dks.cli as cli_mod

        monkeypatch.setattr(cli_mod, "density_upper_bound",
                            lambda g, k, sp: 1e-6)
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4",
                   "--methods", "greedy", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "internal error" in capsys.readouterr().err

    def test_weighted_graph_sweep(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        path = tmp_path / "weighted.txt"
        lines = []
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.5:
                    lines.append(f"{i} {j} {rng.uniform(0.5, 2.0):.6f}")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", str(path), "--weighted", "--k-list", "3,5",
                   "--methods", "ladmm-fw,greedy,brute", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 4   # 2 k values x (bound + 3 methods)
        for r in rows:
            assert float(r[2]) <= float(r[4]) * (1 + 1e-9)

    def test_relaxation_failure_stops_the_sweep(self, fixture_file, tmp_path,
                                                capsys, monkeypatch):
        import dks.cli as cli_mod
        from dks.solver import NumericalDivergenceError

        def explode(*args, **kwargs):
            raise NumericalDivergenceError("synthetic solver failure")

        monkeypatch.setattr(cli_mod, "solve_lovasz_relaxation", explode)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4",
                   "--methods", "ladmm-fw,greedy", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: synthetic solver failure\n"
        assert not out.exists()

    @pytest.mark.parametrize("site", ["load_edge_list", "solve_lovasz_relaxation",
                                      "density_upper_bound", "greedy_feige"])
    def test_out_of_memory_exits_1_without_csv(self, fixture_file, tmp_path, capsys,
                                               monkeypatch, site):
        import dks.cli as cli_mod

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli_mod, site, exhausted)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4,6",
                   "--methods", "ladmm-fw,greedy", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate")
        assert "Traceback" not in err and "warning:" not in err
        assert not out.exists()

    def test_ladmm_fw_row_not_converged_at_fw_cap(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", fixture_file, "--k-list", "4", "--methods",
                     "ladmm-fw,ladmm-project", "--out", str(out)]) == 0
        rows = {r.split(",")[1]: r.split(",") for r in out.read_text().splitlines()[1:]}
        assert rows["ladmm-project"][7] == "true"
        assert rows["ladmm-fw"][7] == "false"
        assert int(rows["ladmm-fw"][6]) == int(rows["ladmm-project"][6]) + 100

    def test_tpm_not_converged_at_its_cap(self, tmp_path, capsys, monkeypatch):
        graph, out = tmp_path / "g.txt", tmp_path / "sweep.csv"
        assert main(["gen", "--n", "60", "--k", "8", "--p", "0.1", "--seed", "1",
                     "--out", str(graph)]) == 0
        solve = ["solve", "--graph", str(graph), "--k", "8", "--method", "tpm"]
        sweep = ["sweep", "--graph", str(graph), "--k-list", "8", "--methods", "ladmm-fw,tpm",
                 "--out", str(out)]
        for cap, converged in ((100, "true"), (1, "false")):
            monkeypatch.setattr(baselines_mod, "TPM_MAX_ITER", cap)
            capsys.readouterr()
            assert main(solve) == 0
            assert json.loads(capsys.readouterr().out)["converged"] is (converged == "true")
            assert main(sweep) == 0
            rows = {r.split(",")[1]: r.split(",") for r in out.read_text().splitlines()[1:]}
            assert rows["tpm"][7] == converged

    def test_single_solve_other_methods(self, k4k2_file, capsys):
        for method in ("tpm", "rank1", "ladmm-project"):
            rc = main(["solve", "--graph", k4k2_file, "--k", "4",
                       "--method", method])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["members"] == [0, 1, 2, 3]

    def test_bad_grid_usage_error(self, fixture_file, tmp_path, capsys):
        rc = main(["sweep", "--graph", fixture_file, "--methods", "greedy",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "1",
                   "--methods", "greedy", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["sweep", "--graph", fixture_file, "--k-list", "4",
                   "--methods", "wat", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        # the grid's ends are checked before the grid is listed
        rc = main(["sweep", "--graph", fixture_file, "--k-min", "2",
                   "--k-max", str(10**20), "--methods", "greedy",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "got 100000000000000000000" in capsys.readouterr().err
        # the thread flag, the methods and the grid's syntax are checked
        # before the graph is read; only the grid against n after it
        for flag in (["--threads", "0"], ["--methods", "bogus"],
                     ["--methods", ","], ["--k-list", "4,x"], ["--k-list", ","],
                     ["--k-list", "", "--k-min", "2"],
                     ["--k-list", "", "--k-min", "2", "--k-max", "4", "--k-step", "0"],
                     ["--k-list", "", "--k-min", "4", "--k-max", "2"]):
            for graph in (fixture_file, str(tmp_path / "missing.txt")):
                rc = main(["sweep", "--graph", graph, "--k-list", "4", "--methods", "ladmm-fw",
                           "--out", str(tmp_path / "x.csv"), *flag])
                assert rc == 2, flag


class TestNearlyEqualEnds:
    def test_bound_holds_on_near_bipartite_graph(self, tmp_path, capsys):
        # lambda_min = -2.9868830 against lambda_max = 3: a sigma1 certified on
        # the wrong end made both commands abort with an internal error, the
        # bound falling below greedy's density at k = 299
        graph, out = tmp_path / "near_bipartite.txt", tmp_path / "sweep.csv"
        write_edge_list(near_bipartite(150, 12, 5), str(graph))
        assert main(["sweep", "--graph", str(graph), "--k-list", "280,299",
                     "--methods", "greedy,tpm,rank1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 4
        assert all(float(r[4]) >= float(r[2]) for r in rows)
        capsys.readouterr()
        assert main(["solve", "--graph", str(graph), "--k", "299", "--method", "greedy",
                     "--bound"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper_bound"] >= payload["density"]


class TestGen:
    def test_fixture_reloads_with_planted_clique(self, tmp_path, capsys):
        path = tmp_path / "fix.txt"
        rc = main(["gen", "--n", "30", "--k", "5", "--p", "0.1", "--seed", "4",
                   "--out", str(path)])
        assert rc == 0
        header = path.read_text().splitlines()[1]
        members = [int(t) for t in header.split(":")[1].split()]
        g = load_edge_list(str(path))
        # map original ids back to dense ids before measuring density
        lookup = {orig: i for i, orig in enumerate(g.original_ids.tolist())}
        dense = [lookup[v] for v in members]
        assert VertexSet.from_members(g, dense).density == 1.0

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            main(["gen", "--n", "25", "--k", "4", "--p", "0.2", "--seed", "11",
                  "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_param_validation(self, tmp_path, capsys):
        # a million vertices would need about 12 bytes for each of 5e11 pairs
        for n, k, p in ((5, 9, 0.1), (5, 1, 0.1), (5, 3, 1.0), (2, 2, 0.1),
                        (1000000, 10, 0.00001)):
            rc = main(["gen", "--n", str(n), "--k", str(k), "--p", str(p), "--seed", "0",
                       "--out", str(tmp_path / "x.txt")])
            assert rc == 2, (n, k, p)
            assert capsys.readouterr().err.startswith("usage error:")
            assert not (tmp_path / "x.txt").exists()
