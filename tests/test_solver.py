import io

import numpy as np
import pytest

import dks.solver as solver_mod
from conftest import random_feasible_batch, random_graph, record_makes
from dense_oracles import edmonds_lovasz, lexicographic_copy, solve_lovasz_relaxation_unbuffered
from dks.graph import (
    Graph,
    edge_differences,
    edge_differences_adjoint,
    incidence_norm_sq_upper,
    load_edge_list,
    subgraph_weight,
    write_edge_list,
)
from dks.oracles import brute_force_dks, generate_planted
from dks.rounding import project_topk
from dks.solver import (
    NumericalDivergenceError,
    lovasz_objective,
    solve_lovasz_relaxation,
)


class TestLovaszObjective:
    def test_binary_pair_on_triangle(self, k3):
        assert lovasz_objective(k3, [1.0, 1.0, 0.0]) == -2.0

    def test_all_ones(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 15, 0.4, weighted=True)
        assert lovasz_objective(g, np.ones(g.n)) == pytest.approx(
            -2.0 * g.weights.sum(), rel=1e-12)

    def test_matches_edmonds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 30)), 0.4, weighted=True)
            x = rng.random(g.n)
            a = lovasz_objective(g, x)
            b = edmonds_lovasz(g, x)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_binary_equals_negative_subgraph_weight(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(rng, 20, 0.3, weighted=True)
            members = rng.choice(g.n, size=int(rng.integers(2, 10)), replace=False)
            x = np.zeros(g.n)
            x[members] = 1.0
            assert lovasz_objective(g, x) == pytest.approx(
                -subgraph_weight(g, members), rel=1e-12)

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError):
            lovasz_objective(k3, np.zeros(5))


class TestBasePolytope:
    def test_support_function_dominance(self):
        # (-d + Bf)' x <= f_L(x), with equality at f = w * sign(B' x)
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 25)), 0.4, weighted=True)
            x = rng.random(g.n)
            f = rng.uniform(-1, 1, size=g.m) * g.weights
            value = (-g.degree + edge_differences_adjoint(g, f)) @ x
            fl = lovasz_objective(g, x)
            assert value <= fl + 1e-9
            f_star = g.weights * np.sign(edge_differences(g, x))
            tight = (-g.degree + edge_differences_adjoint(g, f_star)) @ x
            assert abs(tight - fl) <= 1e-9 * (1 + abs(fl))


class TestSolveRelaxation:
    def test_k3_relaxation_dominates_binary_optimum(self, k3):
        report = solve_lovasz_relaxation(k3, 2)
        assert -lovasz_objective(k3, report.x_avg) >= 2.0 - 1e-6

    def test_k4k2_rounds_to_clique(self, k4k2):
        report = solve_lovasz_relaxation(k4k2, 4)
        vs = project_topk(k4k2, report.x_avg, 4)
        assert vs.members == (0, 1, 2, 3)
        assert vs.density == 1.0

    def test_c6_converges_and_rounds_to_optimum(self, c6):
        report = solve_lovasz_relaxation(c6, 3)
        assert report.converged and report.iters <= 3000
        vs = project_topk(c6, report.x_avg, 3)
        _, best = brute_force_dks(c6, 3)
        assert vs.subgraph_weight == pytest.approx(best)
        assert vs.density == pytest.approx(2.0 / 3.0)

    def test_iterate_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, 20, 0.3, weighted=True)
            k = int(rng.integers(2, g.n - 1))
            report = solve_lovasz_relaxation(g, k)
            for x in (report.x_avg, report.x_last):
                assert x.min() >= -1e-12 and x.max() <= 1 + 1e-12
                assert abs(x.sum() - k) <= 1e-6 + 1e-9

    def test_residual_stopping_criterion(self, c6):
        report = solve_lovasz_relaxation(c6, 3)
        assert report.converged
        assert report.r_norm_final <= report.eps_pri_final
        assert report.s_norm_final <= report.eps_dual_final
        assert report.gap <= solver_mod.EPS_REL * max(1.0, abs(report.dual_bound))

    def test_deterministic(self, k4k2):
        a = solve_lovasz_relaxation(k4k2, 4)
        b = solve_lovasz_relaxation(k4k2, 4)
        assert a.iters == b.iters
        assert (a.x_avg == b.x_avg).all()
        assert (a.x_last == b.x_last).all()
        assert (a.r_norm_final, a.s_norm_final) == (b.r_norm_final, b.s_norm_final)

    def test_boundary_k(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12, 0.4, weighted=True)
        for k in (2, g.n - 1):
            report = solve_lovasz_relaxation(g, k)
            assert abs(report.x_last.sum() - k) <= 1e-6 + 1e-9

    def test_k_out_of_range(self, k3):
        for k in (0, 1, 3, 7):
            with pytest.raises(ValueError):
                solve_lovasz_relaxation(k3, k)

    def test_edgeless_graph_rejected(self):
        g = Graph.from_edges(4, np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError):
            solve_lovasz_relaxation(g, 2)

    def test_divergence_detected(self, k3):
        # NaN enters where arithmetic puts it: a forward scan, or a prox output
        for site in ("edge_differences", "prox_capped_simplex"):
            original = getattr(solver_mod, site)

            def poisoned(*args, **kwargs):
                result = original(*args, **kwargs)
                if site == "prox_capped_simplex":
                    result[0][0] = np.nan
                elif "out" in kwargs:   # the iteration's scan, not the starting point's
                    result[0] = np.nan
                return result

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver_mod, site, poisoned)
                with pytest.raises(NumericalDivergenceError, match="iteration 1$"):
                    solve_lovasz_relaxation(k3, 2)

    def test_nan_off_the_support_joins_it(self, monkeypatch):
        # a NaN at an edge that left z's support, or never was in it, raises at
        # the iteration that makes it
        g = generate_planted(120, 10, 0.05, seed=0).graph
        adjoint, scan = solver_mod.edge_differences_adjoint, solver_mod.edge_differences
        moved, scans, shrunk = [], [], []
        poison_at = 6

        def recording_adjoint(graph, f, at=None):
            if at is not None:
                moved.append(np.array(at))   # the old support and the new
            return adjoint(graph, f, at)

        def poisoning_scan(graph, x, out=None, scratch=None):
            result = scan(graph, x, out=out, scratch=scratch)
            scans.append(None)
            if len(scans) == poison_at + 1:   # the forward scan of iteration poison_at
                off = np.setdiff1d(np.arange(graph.m), moved[-1])
                result[off[0]] = np.nan
            return result

        def recording_shrinkage(v, w, rho):
            shrunk.append(np.isnan(v).sum())
            return shrink(v, w, rho)

        shrink = solver_mod.shrinkage
        monkeypatch.setattr(solver_mod, "edge_differences_adjoint", recording_adjoint)
        monkeypatch.setattr(solver_mod, "edge_differences", poisoning_scan)
        monkeypatch.setattr(solver_mod, "shrinkage", recording_shrinkage)
        with pytest.raises(NumericalDivergenceError, match=f"iteration {poison_at}$"):
            solve_lovasz_relaxation(g, 10)
        assert len(moved) == poison_at - 1 and shrunk == [0] * (poison_at - 1) + [1]

    def test_norm_estimate_kept_on_the_graph(self, monkeypatch):
        # two solves on one graph estimate ||B||^2 once, and both equal, bit for
        # bit, the solve on a fresh copy, which makes its own estimate
        g = generate_planted(120, 10, 0.05, seed=0).graph
        made = record_makes(monkeypatch, "_norm_sq_upper")
        first, second = solve_lovasz_relaxation(g, 10), solve_lovasz_relaxation(g, 10)
        assert made == [g]
        fresh = Graph.from_edges(g.n, g.edges)
        want = solve_lovasz_relaxation(fresh, 10)
        assert made == [g, fresh]
        for got in (first, second):
            TestMatchesUnbufferedLoop().assert_same(got, want)

    @pytest.mark.parametrize("c", [2.0**70, 2.0**-700], ids=["2**70", "2**-700"])
    def test_scale_equivariant(self, c):
        # the iteration sees the weights over their largest, the same for every
        # power-of-two multiple: the same steps, and the certificate times c
        rng = np.random.default_rng(9)
        g = random_graph(rng, 25, 0.3, weighted=True)
        scaled = Graph.from_edges(g.n, g.edges, g.weights * c)
        for k in (3, 8, 15):
            a, b = solve_lovasz_relaxation(g, k), solve_lovasz_relaxation(scaled, k)
            assert b.iters == a.iters and (b.x_avg == a.x_avg).all()
            assert b.dual_bound == c * a.dual_bound and b.gap == c * a.gap


class TestDualityGap:
    def test_dual_bound_below_every_feasible_objective(self, monkeypatch):
        rng = np.random.default_rng(6)
        cap = solver_mod.MAX_ITER
        for trial in range(30):
            g = random_graph(rng, int(rng.integers(10, 40)), 0.3, weighted=True)
            k = int(rng.integers(2, g.n - 1))
            monkeypatch.setattr(solver_mod, "MAX_ITER", 5 if trial % 2 else cap)
            report = solve_lovasz_relaxation(g, k)
            if trial % 2:
                assert not report.converged
            else:
                assert report.converged
                assert report.gap <= solver_mod.EPS_REL * max(float(g.weights.max()),
                                                              abs(report.dual_bound))
            assert report.gap == pytest.approx(
                lovasz_objective(g, report.x_last) - report.dual_bound, rel=1e-9, abs=1e-9)
            points = [report.x_avg, report.x_last, *random_feasible_batch(rng, 20, g.n, k)]
            for x in points:
                value = lovasz_objective(g, x)
                assert report.dual_bound <= value + 1e-9 * (1.0 + abs(value))

    def test_mu_stays_certified_while_rho_moves(self, monkeypatch):
        taus, rhos = [], []
        prox, shrink = solver_mod.prox_capped_simplex, solver_mod.shrinkage

        def recording_prox(v, params, start=None):
            taus.append(params.tau)
            return prox(v, params, start)

        def recording_shrinkage(v, w, rho):
            rhos.append(rho)
            return shrink(v, w, rho)

        monkeypatch.setattr(solver_mod, "prox_capped_simplex", recording_prox)
        monkeypatch.setattr(solver_mod, "shrinkage", recording_shrinkage)
        g = generate_planted(120, 10, 0.05, seed=0).graph
        # tolerances no solve meets, so the run goes past the freeze
        monkeypatch.setattr(solver_mod, "EPS_ABS", 1e-12)
        monkeypatch.setattr(solver_mod, "EPS_REL", 1e-12)
        max_iter = solver_mod.BALANCE_UNTIL + 100
        monkeypatch.setattr(solver_mod, "MAX_ITER", max_iter)
        report = solve_lovasz_relaxation(g, 25)
        lambda_hat = incidence_norm_sq_upper(g)
        assert not report.converged and len(taus) == len(rhos) == report.iters == max_iter
        # iteration t (from 1) runs the x-prox, then the shrinkage, at one rho
        assert all(tau == rho * lambda_hat for tau, rho in zip(taus, rhos))
        assert rhos[0] == solver_mod.RHO_START
        assert report.mu == 1.0 / (rhos[-1] * lambda_hat)
        changes = [(t, rhos[t] / rhos[t - 1]) for t in range(1, len(rhos))
                   if rhos[t] != rhos[t - 1]]
        assert changes
        for t, factor in changes:
            # rho moves only after an iteration t that is a multiple of
            # BALANCE_EVERY and no later than BALANCE_UNTIL
            assert factor in (2.0, 0.5)
            assert t % solver_mod.BALANCE_EVERY == 0 and t <= solver_mod.BALANCE_UNTIL


class TestMatchesUnbufferedLoop:
    """The support-tracking loop, its sparse scans and warm prox against the plain loop,
    bit for bit, both on the graph's own wavefront edge order."""

    FIELDS = ("x_avg", "x_last", "iters", "converged", "r_norm_final", "s_norm_final",
              "eps_pri_final", "eps_dual_final", "dual_bound", "gap", "mu")

    @staticmethod
    def graphs():
        rng = np.random.default_rng(41)
        for seed in range(3):
            g = generate_planted(120, 10, 0.05, seed=seed).graph
            yield g
            yield Graph.from_edges(g.n, g.edges, 10.0 ** rng.uniform(-3, 3, size=g.m))

    def assert_same(self, got, want, fields=FIELDS):
        for name in fields:
            assert (np.asarray(getattr(got, name)).tobytes()
                    == np.asarray(getattr(want, name)).tobytes()), name

    def test_solves(self, monkeypatch):
        partial = []
        adjoint = solver_mod.edge_differences_adjoint

        def recording_adjoint(g, f, at=None):
            if at is not None:
                partial.append(len(at) < g.m)
            return adjoint(g, f, at)

        monkeypatch.setattr(solver_mod, "edge_differences_adjoint", recording_adjoint)
        rho_moved = False
        iters = 0
        for g in self.graphs():
            lambda_hat = incidence_norm_sq_upper(g)
            for k in (2, 10, 25, g.n - 1):
                got = solve_lovasz_relaxation(g, k)
                self.assert_same(got, solve_lovasz_relaxation_unbuffered(g, k, lambda_hat))
                rho_moved |= got.mu != 1.0 / (solver_mod.RHO_START * lambda_hat)
                iters += got.iters
        # one scan of the moved edges per iteration, and it skips some
        assert rho_moved and len(partial) == iters and all(partial)

    def test_capped_past_the_freeze(self, monkeypatch):
        # tolerances no solve meets: every rho change, then the fixed-rho tail
        monkeypatch.setattr(solver_mod, "EPS_ABS", 1e-12)
        monkeypatch.setattr(solver_mod, "EPS_REL", 1e-12)
        past_the_freeze = 0
        for g in self.graphs():
            # a cap at a multiple of BALANCE_EVERY certifies before its rho change
            for max_iter in (1, 7, 2 * solver_mod.BALANCE_EVERY, solver_mod.BALANCE_UNTIL + 30):
                monkeypatch.setattr(solver_mod, "MAX_ITER", max_iter)
                got = solve_lovasz_relaxation(g, 25)
                self.assert_same(got, solve_lovasz_relaxation_unbuffered(g, 25))
                past_the_freeze += got.iters > solver_mod.BALANCE_UNTIL
        assert past_the_freeze >= 3   # the unweighted graphs run into the fixed-rho tail

    def test_equal_weights_take_the_array_levels(self, monkeypatch):
        # all weights 2.0 is not unweighted: shrinkage's levels stay an array, while the
        # unit-weight twin's are one scalar; both match the plain loop, and each other
        # up to the scale, a power of two, z's supports included
        scaled_fields = ("dual_bound", "gap")
        supports = []
        shrink = solver_mod.shrinkage
        monkeypatch.setattr(solver_mod, "shrinkage",
                            lambda v, w, rho: supports[-1].append(v.size) or shrink(v, w, rho))
        for seed in range(2):
            g = generate_planted(120, 10, 0.05, seed=seed).graph
            twin = Graph.from_edges(g.n, g.edges, np.full(g.m, 2.0))
            assert g.is_unweighted and not twin.is_unweighted
            for k in (2, 10, 25):
                reports = []
                for h in (g, twin):
                    supports.append([])
                    reports.append(solve_lovasz_relaxation(h, k))
                unit, doubled = reports
                assert supports[-1] == supports[-2]
                for h, got in ((g, unit), (twin, doubled)):
                    want = solve_lovasz_relaxation_unbuffered(h, k, incidence_norm_sq_upper(h))
                    self.assert_same(got, want)
                self.assert_same(doubled, unit, [f for f in self.FIELDS if f not in scaled_fields])
                for name in scaled_fields:
                    assert getattr(doubled, name) == 2.0 * getattr(unit, name)

    # sums over edges follow the edge order and may move in their last bit
    VERTEX_FIELDS = ("x_avg", "x_last", "iters", "converged", "s_norm_final", "eps_dual_final",
                     "dual_bound", "mu")

    def test_vertex_fields_match_the_canonical_order(self, monkeypatch):
        # the plain loop on the lexicographic (i, j) order the edges had before
        for g in self.graphs():
            lex = lexicographic_copy(g)[0]
            for k in (2, 10, 25, g.n - 1):
                got = solve_lovasz_relaxation(g, k)
                want = solve_lovasz_relaxation_unbuffered(lex, k, incidence_norm_sq_upper(g))
                self.assert_same(got, want, self.VERTEX_FIELDS)
        monkeypatch.setattr(solver_mod, "EPS_ABS", 1e-12)
        monkeypatch.setattr(solver_mod, "EPS_REL", 1e-12)
        for g in self.graphs():
            lex = lexicographic_copy(g)[0]
            for max_iter in (1, 7, 2 * solver_mod.BALANCE_EVERY, solver_mod.BALANCE_UNTIL + 30):
                monkeypatch.setattr(solver_mod, "MAX_ITER", max_iter)
                want = solve_lovasz_relaxation_unbuffered(lex, 25, incidence_norm_sq_upper(g))
                self.assert_same(solve_lovasz_relaxation(g, 25), want, self.VERTEX_FIELDS)


class TestInformativeRegime:
    """The sparse golden sweep's graph (``dks gen --n 2000 --k 30 --p 0.002 --seed 1``,
    loaded), where the relaxation's bound is far above the uniform point's ``2Wk/n``."""

    KS = (20, 30, 45, 60)

    @pytest.fixture(scope="class")
    def solved(self):
        text = io.StringIO()
        write_edge_list(generate_planted(2000, 30, 0.002, seed=1).graph, text)
        text.seek(0)
        g = load_edge_list(text)
        return g, {k: solve_lovasz_relaxation(g, k) for k in self.KS}

    def test_average_and_last_iterate_round_alike(self, solved):
        g, reports = solved
        for k, report in reports.items():
            avg, last = (project_topk(g, x, k).density for x in (report.x_avg, report.x_last))
            assert abs(avg - last) <= 0.01, k

    def test_bound_is_tight_at_the_clique(self, solved):
        report = solved[1][30]
        assert -report.dual_bound / (30 * 29) == pytest.approx(1.0, rel=1e-9, abs=0.0)

    def test_bound_above_the_uniform_point(self, solved):
        g, reports = solved
        k = 60
        assert -reports[k].dual_bound >= 3 * 2 * g.weights.sum() * k / g.n
