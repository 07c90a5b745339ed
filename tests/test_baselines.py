import itertools

import numpy as np
import pytest

from conftest import near_bipartite, random_graph
from dense_oracles import dense_cross_check
import dks.baselines as baselines_mod
from dks.baselines import (
    _rank1_surrogate,
    density_upper_bound,
    greedy_feige,
    rank1_dks,
    top_two_singular,
    truncated_power_method,
)
import dks.graph as graph_mod
from dks.cli import main as cli_main
from dks.graph import (
    Graph,
    adjacency_matvec,
    incidence_norm_sq_upper,
    load_edge_list,
    power_iteration_norm,
    subgraph_weight,
)
from dks.oracles import brute_force_dks


class TestGreedy:
    def test_star_k2(self, star5):
        vs = greedy_feige(star5, 2)
        assert vs.members == (0, 1)
        assert vs.density == 1.0

    def test_k4k2_recovers_clique(self, k4k2):
        assert greedy_feige(k4k2, 4).members == (0, 1, 2, 3)

    def test_k3_tie_rule(self, k3):
        vs = greedy_feige(k3, 2)
        assert vs.members == (0, 1)
        assert vs.density == 1.0

    def test_weighted_degrees_drive_phase1(self):
        # vertex 3 has the largest weighted degree despite fewer edges
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)],
                             weights=[1.0, 1.0, 1.0, 10.0])
        vs = greedy_feige(g, 2)
        assert vs.members == (3, 4)

    def test_feasible_output(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(4, 30)), 0.3, weighted=True)
            k = int(rng.integers(2, g.n - 1))
            vs = greedy_feige(g, k)
            assert vs.k == k
            assert all(0 <= v < g.n for v in vs.members)

    def test_k_range(self, k3):
        with pytest.raises(ValueError):
            greedy_feige(k3, 3)


class TestTruncatedPowerMethod:
    def test_k4k2_one_step(self, k4k2):
        vs, converged = truncated_power_method(k4k2, 4, np.full(6, 1.0))
        assert vs.members == (0, 1, 2, 3)
        assert converged

    def test_clique_indicator_fixed_point(self, k4k2):
        x0 = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        vs, converged = truncated_power_method(k4k2, 4, x0)
        assert vs.members == (0, 1, 2, 3)
        assert converged

    def test_c6_from_basis_vector(self, c6):
        vs, _ = truncated_power_method(c6, 3, np.eye(6)[0])
        _, best = brute_force_dks(c6, 3)
        assert vs.subgraph_weight == pytest.approx(best) == pytest.approx(4.0)

    def test_zero_start_rejected(self, c6):
        with pytest.raises(ValueError):
            truncated_power_method(c6, 3, np.zeros(6))

    def test_default_start_and_best_visited(self, monkeypatch):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(4, 25)), 0.3, weighted=True)
            k = int(rng.integers(2, g.n - 1))
            vs, converged = truncated_power_method(g, k)
            assert vs.k == k
            assert converged
            # best-visited dominates the first (degree top-k) candidate step
            with monkeypatch.context() as m:
                m.setattr(baselines_mod, "TPM_MAX_ITER", 1)
                first, stopped = truncated_power_method(g, k)
            assert not stopped   # one step never sees the weight stop rising
            assert vs.subgraph_weight >= first.subgraph_weight - 1e-12


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestTopTwoSingular:
    def test_triangle(self, k3):
        sp = top_two_singular(k3)
        assert sp.sigma1 == pytest.approx(2.0, rel=1e-4)
        assert sp.sigma2 == pytest.approx(1.0, rel=1e-4)

    def test_k4k2(self, k4k2):
        sp = top_two_singular(k4k2)
        assert sp.sigma1 == pytest.approx(3.0, rel=1e-4)
        assert sp.sigma2 == pytest.approx(1.0, rel=1e-4)

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        sp = top_two_singular(g)
        assert sp.sigma1 == pytest.approx(1.0, rel=1e-4)
        assert sp.sigma2 == pytest.approx(1.0, rel=1e-4)

    def test_random_vs_dense_svd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 25)), 0.4, weighted=True)
            sp = top_two_singular(g)
            svals = np.sort(np.abs(dense_cross_check(g).adjacency_eigenvalues))[::-1]
            assert sp.converged
            assert svals[0] * (1 - 1e-6) <= sp.sigma1 <= svals[0] * (1 + 1e-3)
            assert sp.sigma2 == pytest.approx(svals[1], rel=1e-3, abs=1e-6)
            assert sp.sigma1 >= sp.sigma2 >= 0.0
            assert np.linalg.norm(sp.u1) == pytest.approx(1.0)

    def test_iteration_cap_falls_back_to_certified_bound(self, monkeypatch):
        monkeypatch.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", 1)
        rng = np.random.default_rng(6)
        for weighted in (False, True):
            g = random_graph(rng, 12, 0.4, weighted=weighted)
            sp = top_two_singular(g)
            assert not sp.converged
            assert sp.sigma1 == sp.sigma2 == g.degree.max()
            for k in range(2, g.n):
                bound = density_upper_bound(g, k, sp)
                assert bound == min(g.weights.max(), sp.sigma1 / (k - 1))
                best, _ = brute_force_dks(g, k)
                assert bound >= best.density - 1e-9

    @pytest.mark.parametrize("name", ["C11", "K5", "K4,4", "circulant30", "weighted C8"])
    def test_degree_start_is_an_eigenvector_of_a_regular_graph(self, name, monkeypatch):
        # W 1 = d 1: the first run's start is its answer, certified by the one
        # matvec after the basis's first; K4,4 also has -4, which only the
        # hashed start of the deflated run sees
        g = {"C11": lambda: cycle(11),
             "K5": lambda: Graph.from_edges(5, list(itertools.combinations(range(5), 2))),
             "K4,4": lambda: Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),
             "circulant30": lambda: Graph.from_edges(
                 30, [(i, (i + s) % 30) for i in range(30) for s in (1, 3, 7)]),
             "weighted C8": lambda: Graph.from_edges(
                 8, [(i, (i + 1) % 8) for i in range(8)], [2.5] * 8)}[name]()
        d = float(g.degree[0])
        assert (g.degree == d).all()
        runs = []

        def counting(matvec, n, *args, **kwargs):
            calls = []

            def counted(x):
                calls.append(1)
                return matvec(x)
            out = power_iteration_norm(counted, n, *args, **kwargs)
            runs.append((len(calls), out))
            return out

        monkeypatch.setattr(baselines_mod, "power_iteration_norm", counting)
        sp = top_two_singular(g)
        used, (sigma, u1, converged) = runs[0]
        assert converged and used <= 2
        assert sigma * g.weights.max() == pytest.approx(d, rel=1e-12)
        assert np.abs(u1 - 1 / np.sqrt(g.n)).max() <= 1e-12
        svals = np.sort(np.abs(dense_cross_check(g).adjacency_eigenvalues))[::-1]
        assert sp.converged
        assert svals[1] <= sp.sigma2 <= svals[1] * (1 + 1e-4)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_identical_components_give_sigma2_equal_sigma1(self, weighted):
        # one component's degrees overlap both copies' top eigenvectors alike;
        # the deflated run's hashed start finds the other copy
        rng = np.random.default_rng(9)
        for _ in range(5):
            one = random_graph(rng, 14, 0.3, weighted=weighted)
            g = Graph.from_edges(2 * one.n, np.concatenate([one.edges, one.edges + one.n]),
                                 np.concatenate([one.weights, one.weights]))
            sp = top_two_singular(g)
            top = float(np.abs(dense_cross_check(one).adjacency_eigenvalues).max())
            assert sp.converged
            assert top <= sp.sigma2 <= sp.sigma1 <= top * (1 + 1e-4)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 7, 13, 14, 30])
    def test_each_run_spends_at_most_max_iter_matvecs(self, max_iter, monkeypatch):
        # a D^2 product is two adjacency matvecs, so the deflated run gets
        # max_iter // 2 of them; on C201 neither run converges this early
        calls = []

        def counted(g, x):
            calls.append(1)
            return adjacency_matvec(g, x)

        monkeypatch.setattr(baselines_mod, "adjacency_matvec", counted)
        monkeypatch.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", max_iter)
        assert not top_two_singular(cycle(201)).converged
        assert len(calls) <= 2 * max_iter


class TestRank1:
    def test_k4k2(self, k4k2):
        sp = top_two_singular(k4k2)
        vs = rank1_dks(k4k2, 4, sp)
        _, _, q = _rank1_surrogate(k4k2, 4, sp)
        assert vs.members == (0, 1, 2, 3)
        assert vs.density == 1.0
        assert q == pytest.approx(12.0, rel=1e-4)

    def test_complete_graph_any_subset_optimal(self):
        # u1 is uniform up to solver noise, so members are tie-dependent;
        # every 3-subset of K5 has density 1 either way
        g = Graph.from_edges(5, list(itertools.combinations(range(5), 2)))
        sp = top_two_singular(g)
        vs = rank1_dks(g, 3, sp)
        _, _, q = _rank1_surrogate(g, 3, sp)
        assert vs.k == 3
        assert vs.density == 1.0
        assert q == pytest.approx(4.0 * 9 / 5, rel=1e-3)  # sigma1 (u1' 1_S)^2

    def test_star_k2(self, star5):
        vs = rank1_dks(star5, 2, top_two_singular(star5))
        assert 0 in vs.members
        assert vs.density == 1.0

    def test_surrogate_dominates_all_subsets(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            g = random_graph(rng, n, 0.4, weighted=True)
            k = int(rng.integers(2, n - 1))
            sp = top_two_singular(g)
            _, _, q = _rank1_surrogate(g, k, sp)
            best = max(
                sp.sigma1 * float(sp.u1[list(s)].sum()) ** 2
                for s in itertools.combinations(range(n), k))
            assert q >= best - 1e-9 * (1 + abs(best))


class TestDensityUpperBound:
    def test_complete_graph_saturates_cap(self):
        for n in (4, 6, 9):
            g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
            sp = top_two_singular(g)
            for k in range(2, n):
                assert density_upper_bound(g, k, sp) == 1.0

    def test_k4k2_hand_computation(self, k4k2):
        sp = top_two_singular(k4k2)
        _, _, q = _rank1_surrogate(k4k2, 4, sp)
        # middle term (12/4 + 1)/3 = 4/3, sigma1 term 3/3 = 1 -> capped at 1
        assert (q / 4 + sp.sigma2) / 3 == pytest.approx(4.0 / 3.0, rel=1e-3)
        assert density_upper_bound(k4k2, 4, sp) == 1.0

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(5, 14))
            g = random_graph(rng, n, 0.35)
            sp = top_two_singular(g)
            for k in range(2, n):
                bound = density_upper_bound(g, k, sp)
                best, _ = brute_force_dks(g, k)
                assert bound >= best.density - 1e-9

    def test_dominates_brute_force_weighted(self):
        # weights up to 2 push densities past 1; the cap must scale with them
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(5, 12))
            g = random_graph(rng, n, 0.5, weighted=True)
            sp = top_two_singular(g)
            for k in range(2, n):
                bound = density_upper_bound(g, k, sp)
                best, _ = brute_force_dks(g, k)
                assert bound >= best.density - 1e-9

    def test_matches_two_step_formula(self, monkeypatch):
        # the bound once took q from rank1_dks; computing q itself must not move a bit
        rng = np.random.default_rng(7)
        for weighted in (False, True):
            for max_iter in (baselines_mod.SPECTRAL_MAX_MATVECS, 1):
                g = random_graph(rng, 14, 0.4, weighted=weighted)
                with monkeypatch.context() as m:
                    m.setattr(baselines_mod, "SPECTRAL_MAX_MATVECS", max_iter)
                    sp = top_two_singular(g)
                u = np.asarray(sp.u1, dtype=np.float64)
                for k in range(2, g.n):
                    plus = np.argsort(-u, kind="stable")[:k]
                    minus = np.argsort(u, kind="stable")[:k]
                    q = float(sp.sigma1 * max(float(u[plus].sum()) ** 2,
                                              float(u[minus].sum()) ** 2))
                    expected = float(min(float(g.weights.max()),
                                         (q / k + sp.sigma2) / (k - 1), sp.sigma1 / (k - 1)))
                    assert density_upper_bound(g, k, sp) == expected

    def test_k_range(self, k3):
        sp = top_two_singular(k3)
        with pytest.raises(ValueError):
            density_upper_bound(k3, 1, sp)

    @pytest.mark.parametrize("c", [2.0**300, 2.0**-700], ids=["2**300", "2**-700"])
    def test_scale_equivariant(self, c):
        # W over its largest weight is the same matrix for every power-of-two
        # multiple of the weights, so the bound moves by exactly c; squaring
        # the deflated W itself overflows at 2**300 and underflows at 2**-700
        rng = np.random.default_rng(8)
        g = random_graph(rng, 30, 0.3, weighted=True)
        scaled = Graph.from_edges(g.n, g.edges, g.weights * c)
        sp, sp_c = top_two_singular(g), top_two_singular(scaled)
        assert sp.converged and sp_c.converged and (sp_c.u1 == sp.u1).all()
        for k in (2, 5, 10, 20, 29):
            assert density_upper_bound(scaled, k, sp_c) == c * density_upper_bound(g, k, sp)


def clique_union(copies, size, extra_edge):
    """``copies`` disjoint copies of K_size, plus one disjoint edge if ``extra_edge``."""
    edges = [(c * size + a, c * size + b) for c in range(copies)
             for a, b in itertools.combinations(range(size), 2)]
    n = copies * size
    if extra_edge:
        edges.append((n, n + 1))
        n += 2
    return Graph.from_edges(n, edges)


CLIQUE_UNIONS = [(c, s, e) for c in range(1, 9) for s in range(3, 7) for e in (False, True)]


class TestCliqueUnions:
    # Repeated eigenvalues everywhere: s - 1 once per copy and -1 with
    # multiplicity copies * (s - 1), plus +-1 from the extra edge. A block
    # start can meet the -1 eigenspace, and one Krylov sequence sees the
    # repeated top eigenvalue once; both once under-reported sigma1/sigma2
    # with converged=true (2 x K4: sigma2 = 1 against 3).
    @pytest.mark.parametrize("copies, size, extra_edge", CLIQUE_UNIONS,
                             ids=[f"{c}xK{s}{'+K2' if e else ''}" for c, s, e in CLIQUE_UNIONS])
    def test_spectral_pair_and_bound(self, copies, size, extra_edge):
        g = clique_union(copies, size, extra_edge)
        sp = top_two_singular(g)
        svals = np.sort(np.abs(dense_cross_check(g).adjacency_eigenvalues))[::-1]
        assert sp.converged
        assert svals[0] <= sp.sigma1 <= svals[0] * (1 + 1e-4)
        assert svals[1] <= sp.sigma2 <= svals[1] * (1 + 1e-4)
        if g.n <= 18:  # every case the block power iteration got wrong
            for k in range(2, g.n):
                best, _ = brute_force_dks(g, k)
                assert density_upper_bound(g, k, sp) >= best.density - 1e-9, k


NEARLY_EQUAL_ENDS = {
    **{f"C{n}": (lambda n=n: cycle(n)) for n in (51, 101, 201, 401)},
    "near_bipartite(150,12,5)": lambda: near_bipartite(150, 12, 5),
}


class TestNearlyEqualEnds:
    # lambda_min is within 1% of lambda_max in magnitude: the odd cycles have
    # 2 and -2cos(pi/n), near_bipartite 3 and -2.9868830. A Ritz pair chosen by
    # largest |theta| once certified lambda_min as sigma1 on all five (on the
    # near-bipartite graph the bound then fell below greedy's density at
    # k = 299), and a deflated run on D rather than D^2 certified the wrong
    # end for sigma2 (C201: 1.999023 against 1.999756).
    @pytest.mark.parametrize("name", list(NEARLY_EQUAL_ENDS))
    def test_spectral_pair_and_bound(self, name):
        g = NEARLY_EQUAL_ENDS[name]()
        sp = top_two_singular(g)
        svals = np.sort(np.abs(dense_cross_check(g).adjacency_eigenvalues))[::-1]
        assert sp.converged
        assert svals[0] <= sp.sigma1 <= svals[0] * (1 + 1e-4)
        assert svals[1] <= sp.sigma2 <= svals[1] * (1 + 1e-4)
        for k in range(2, g.n):
            bound = density_upper_bound(g, k, sp)
            for vs in (greedy_feige(g, k), truncated_power_method(g, k)[0],
                       rank1_dks(g, k, sp)):
                assert bound >= vs.density, (k, vs.members)


class TestMatvecCounts:
    def test_golden_graph(self, tmp_path, monkeypatch, capsys):
        # the block power iteration took 124 matvecs for lambda_hat and 240
        # for the spectral pair on this graph
        path = tmp_path / "planted.txt"
        assert cli_main(["gen", "--n", "300", "--k", "12", "--p", "0.05", "--seed", "3",
                         "--out", str(path)]) == 0
        g = load_edge_list(path)
        calls = []

        def counting(matvec, n, *args, **kwargs):
            def counted(x):
                calls.append(1)
                return matvec(x)
            return power_iteration_norm(counted, n, *args, **kwargs)

        monkeypatch.setattr(baselines_mod, "power_iteration_norm", counting)
        monkeypatch.setattr(graph_mod, "power_iteration_norm", counting)
        assert incidence_norm_sq_upper(g) > 0
        lambda_hat_calls, calls[:] = len(calls), []
        assert top_two_singular(g).converged
        assert lambda_hat_calls <= 30
        assert len(calls) <= 50
