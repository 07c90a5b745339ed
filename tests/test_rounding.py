import itertools

import numpy as np
import pytest

from conftest import random_feasible_point, random_graph
from dense_oracles import dense_cross_check
from dks.graph import Graph, adjacency_matvec, power_iteration_norm
from dks.oracles import generate_planted
from dks.rounding import frank_wolfe_refine, project_topk
from dks.solver import solve_lovasz_relaxation


class TestProjectTopk:
    def test_basic(self, k4k2):
        vs = project_topk(k4k2, np.array([0.9, 0.1, 0.8, 0.2, 0.0, 0.0]), 2)
        assert vs.members == (0, 2)

    def test_binary_fixed_point(self, k4k2):
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert project_topk(k4k2, x, 3).members == (0, 2, 4)

    def test_all_equal_tie_rule(self, k4k2):
        assert project_topk(k4k2, np.full(6, 0.5), 2).members == (0, 1)

    def test_monotone_transform_invariance(self, k4k2):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random(6)
            a = project_topk(k4k2, x, 3).members
            b = project_topk(k4k2, np.exp(4 * x) - 1, 3).members
            assert a == b

    def test_k_range(self, k3):
        with pytest.raises(ValueError):
            project_topk(k3, np.zeros(3), 1)
        with pytest.raises(ValueError):
            project_topk(k3, np.zeros(3), 3)


def adjacency_spectral_norm(g, tol):
    """``||W||_2`` as the ``lipschitz`` Frank-Wolfe step estimates it."""
    return power_iteration_norm(lambda x: adjacency_matvec(g, x), g.n, tol)


class TestAdjacencySpectralNorm:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_complete_graph(self, n):
        g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
        sigma, _, converged = adjacency_spectral_norm(g, 1e-6)
        assert converged
        assert sigma == pytest.approx(n - 1, rel=1e-4)

    def test_star(self, star5):
        sigma, vec, _ = adjacency_spectral_norm(star5, 1e-8)
        dense = np.abs(dense_cross_check(star5).adjacency_eigenvalues).max()
        assert dense == pytest.approx(2.0, abs=1e-12)  # sqrt(n-1), n=5
        assert sigma == pytest.approx(dense, rel=1e-4)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_path3(self, path3):
        sigma, _, _ = adjacency_spectral_norm(path3, 1e-8)
        assert sigma == pytest.approx(np.sqrt(2.0), rel=1e-4)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 30)), 0.3, weighted=True)
            sigma, _, _ = adjacency_spectral_norm(g, 1e-8)
            dense = np.abs(dense_cross_check(g).adjacency_eigenvalues).max()
            assert sigma == pytest.approx(dense, rel=1e-3)


class TestFrankWolfe:
    def test_strict_local_optimum_is_fixed_point(self, k4k2):
        x0 = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        res = frank_wolfe_refine(k4k2, 4, x0)
        assert res.stop_reason == "stationary"
        assert res.iters == 1 and len(res.objective_history) == 1  # one zero step
        assert (res.x == x0).all()

    def test_uniform_start_finds_clique(self, k4k2):
        res = frank_wolfe_refine(k4k2, 4, np.full(6, 4.0 / 6.0))
        assert res.selected.members == (0, 1, 2, 3)
        assert res.selected.density == 1.0

    def test_planted_clique_recovery(self):
        inst = generate_planted(200, 20, 0.05, seed=42)
        g = inst.graph
        # the clique is the unique density-1 subset with clear margin: no
        # outside vertex reaches 19 neighbors inside it
        inside = np.zeros(g.n)
        inside[list(inst.planted.members)] = 1.0
        attachment = adjacency_matvec(g, inside)
        outside = np.setdiff1d(np.arange(g.n), inst.planted.members)
        assert attachment[outside].max() < 19
        report = solve_lovasz_relaxation(g, 20)
        res = frank_wolfe_refine(g, 20, report.x_avg)
        assert res.selected.density == 1.0
        assert set(res.selected.members) == set(inst.planted.members)

    def test_objective_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(5, 25)), 0.4, weighted=True)
            k = int(rng.integers(2, g.n - 1))
            x0 = random_feasible_point(rng, g.n, k)
            res = frank_wolfe_refine(g, k, x0)
            hist = res.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_iterates_stay_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 15, 0.4)
            k = int(rng.integers(2, g.n - 1))
            res = frank_wolfe_refine(g, k, random_feasible_point(rng, g.n, k))
            assert res.x.min() >= -1e-12 and res.x.max() <= 1 + 1e-12
            assert abs(res.x.sum() - k) <= 1e-8 * g.n

    def test_lmo_matches_exhaustive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            g = random_graph(rng, n, 0.5, weighted=True)
            k = int(rng.integers(2, n - 1))
            x = random_feasible_point(rng, n, k)
            wx = adjacency_matvec(g, x)
            chosen = set(np.argsort(-wx, kind="stable")[:k])
            best = max(sum(wx[list(s)]) for s in itertools.combinations(range(n), k))
            assert sum(wx[list(chosen)]) == pytest.approx(best, rel=1e-12)

    def test_stationary_stop_implies_zero_gap(self):
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(30):
            g = random_graph(rng, 12, 0.4)
            k = 3
            res = frank_wolfe_refine(g, k, random_feasible_point(rng, g.n, k))
            if res.stop_reason == "stationary":
                seen += 1
                wx = adjacency_matvec(g, res.x)
                x_bar = np.zeros(g.n)
                x_bar[np.argsort(-wx, kind="stable")[:k]] = 1.0
                assert wx @ (x_bar - res.x) <= 1e-9
        assert seen > 0

    def test_integrality_gap_reported(self, k4k2):
        res = frank_wolfe_refine(k4k2, 4, np.full(6, 4.0 / 6.0))
        assert res.integrality_gap == pytest.approx(
            np.max(np.abs(res.x - np.round(res.x))))

    def test_rejects_infeasible_start(self, k4k2):
        with pytest.raises(ValueError):
            frank_wolfe_refine(k4k2, 4, np.full(6, 0.9))  # sum far from k
        with pytest.raises(ValueError):
            frank_wolfe_refine(k4k2, 4, np.array([2.0, 1, 1, 0, 0, 0]))
