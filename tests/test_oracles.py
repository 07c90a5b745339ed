import itertools
import math

import numpy as np
import pytest

from conftest import random_graph
from dks.baselines import greedy_feige, rank1_dks, top_two_singular, truncated_power_method
from dks.graph import Graph, subgraph_weight
from dks.oracles import (
    brute_force_dks,
    check_submodular,
    dense_cross_check,
    edmonds_lovasz,
    generate_planted,
)
from dks.rounding import frank_wolfe_refine, project_topk
from dks.solver import lovasz_objective, solve_lovasz_relaxation


class TestBruteForce:
    def test_k4k2(self, k4k2):
        vs, weight = brute_force_dks(k4k2, 4)
        assert vs.members == (0, 1, 2, 3)
        assert weight == 12.0

    def test_c6_tie_break(self, c6):
        vs, weight = brute_force_dks(c6, 3)
        assert weight == 4.0
        assert vs.members == (0, 1, 2)  # lexicographically smallest optimum

    def test_k3_whole_graph(self, k3):
        _, weight = brute_force_dks(k3, 3)
        assert weight == 6.0

    def test_refuses_large_instances(self):
        g = Graph.from_edges(40, [(i, i + 1) for i in range(39)])
        assert math.comb(40, 20) > 10**7
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_dks(g, 20)

    def test_matches_itertools_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            g = random_graph(rng, n, 0.5, weighted=True)
            k = int(rng.integers(2, n))
            vs, weight = brute_force_dks(g, k)
            best = max(subgraph_weight(g, s)
                       for s in itertools.combinations(range(n), k))
            assert weight == pytest.approx(best, rel=1e-12)


class TestEdmondsLovasz:
    def test_extension_property_at_binary_points(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_graph(rng, 15, 0.4, weighted=True)
            members = rng.choice(g.n, size=5, replace=False)
            x = np.zeros(g.n)
            x[members] = 1.0
            assert edmonds_lovasz(g, x) == pytest.approx(
                -subgraph_weight(g, members), rel=1e-12)

    def test_triangle_hand_case(self, k3):
        # prefixes {0}, {0,1}, {0,1,2}; marginals 0, -2, -4 -> value -1
        assert edmonds_lovasz(k3, np.array([1.0, 0.5, 0.0])) == pytest.approx(-1.0)
        assert lovasz_objective(k3, np.array([1.0, 0.5, 0.0])) == pytest.approx(-1.0)

    def test_is_oracle_for_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(3, 40)), 0.3, weighted=True)
            x = rng.random(g.n)
            a = edmonds_lovasz(g, x)
            b = lovasz_objective(g, x)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError):
            edmonds_lovasz(k3, np.zeros(2))


class TestCheckSubmodular:
    def test_small_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5, weighted=True)
            assert check_submodular(g)

    def test_supermodular_mutation_caught(self, k3):
        assert not check_submodular(k3, f=lambda s: subgraph_weight(k3, s))

    def test_edgeless_graph_is_modular(self):
        g = Graph.from_edges(5, np.zeros((0, 2), dtype=int))
        assert check_submodular(g)

    def test_sampled_mode(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 30, 0.2, weighted=True)
        assert check_submodular(g, sample_pairs=500, seed=7)
        assert not check_submodular(
            g, f=lambda s: subgraph_weight(g, s), sample_pairs=500, seed=7)


class TestGeneratePlanted:
    def test_p_zero_is_clique_plus_isolated(self):
        inst = generate_planted(10, 4, 0.0, seed=5)
        assert inst.graph.n == 10
        assert inst.graph.m == 6
        assert inst.planted.density == 1.0
        outside = set(range(10)) - set(inst.planted.members)
        assert all(inst.graph.degree[v] == 0 for v in outside)

    def test_p_zero_k_equals_n(self):
        inst = generate_planted(6, 6, 0.0, seed=5)
        assert inst.graph.m == 15  # K6

    def test_deterministic(self):
        a = generate_planted(50, 8, 0.1, seed=123)
        b = generate_planted(50, 8, 0.1, seed=123)
        assert (a.graph.edges == b.graph.edges).all()
        assert a.planted.members == b.planted.members

    def test_planted_density_always_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(6, 60))
            k = int(rng.integers(2, min(n, 12)))
            inst = generate_planted(n, k, float(rng.uniform(0, 0.4)), int(rng.integers(1e6)))
            assert inst.planted.density == 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate_planted(5, 7, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_planted(5, 3, 1.0, seed=0)


class TestDenseCrossCheck:
    def test_refusal_above_cap(self):
        g = generate_planted(501, 5, 0.0, seed=0).graph
        with pytest.raises(ValueError):
            dense_cross_check(g)

    def test_incidence_matches_edges(self, k3):
        forms = dense_cross_check(k3)
        assert forms.incidence.shape == (3, 3)
        assert forms.laplacian.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert forms.adjacency_eigenvalues[-1] == pytest.approx(2.0)
        assert forms.laplacian_eigenvalues[-1] == pytest.approx(3.0)

    def test_dense_operators_match_matrix_free(self):
        from dks.graph import adjacency_matvec, edge_differences
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 30)), 0.4, weighted=True)
            forms = dense_cross_check(g)
            x = rng.normal(size=g.n)
            assert (edge_differences(g, x) == forms.incidence.T @ x).all()
            assert np.abs(adjacency_matvec(g, x) - forms.adjacency @ x).max() <= 1e-12


class TestOracleDominance:
    def test_brute_force_dominates_heuristics(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            g = random_graph(rng, n, 0.4)
            k = int(rng.integers(2, n - 1))
            _, best = brute_force_dks(g, k)
            report = solve_lovasz_relaxation(g, k)
            sp = top_two_singular(g)
            candidates = [
                greedy_feige(g, k),
                truncated_power_method(g, k, report.x_avg),
                rank1_dks(g, k, sp),
                project_topk(g, report.x_avg, k),
                frank_wolfe_refine(g, k, report.x_avg).selected,
            ]
            for vs in candidates:
                assert vs.subgraph_weight <= best + 1e-9
