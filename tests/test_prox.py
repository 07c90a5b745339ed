import numpy as np
import pytest

import dks.prox as prox_mod
from conftest import capped_simplex_exact, random_feasible_point
from dense_oracles import prox_capped_simplex_bisection, shrinkage_max_form
from dks.prox import CappedSimplexParams, cardinality_gap, prox_capped_simplex, shrinkage


def _random_params(rng, n=None, tau=None, k=None, integer=False):
    """Random prox instance; ``integer`` rounds degrees and v so breakpoints tie."""
    n = n if n is not None else int(rng.integers(3, 40))
    k = k if k is not None else int(rng.integers(2, n))
    tau = tau if tau is not None else float(np.exp(rng.uniform(-3, 3)))
    d = rng.normal(size=n) * 3.0
    v = rng.normal(size=n)
    if integer:
        d, v = np.round(d), np.round(v)
    return CappedSimplexParams(d, float(k), tau), v


def _roundoff(p):
    return 1e-12 * p.degrees.shape[0]


class TestCardinalityGap:
    @pytest.mark.parametrize("tau", [0.3, 1.0, 7.5])
    def test_bracket_endpoint_values(self, tau):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p, v = _random_params(rng, tau=tau)
            shifted = p.degrees + p.tau * v
            nu_lo = shifted.min() - p.tau
            nu_hi = shifted.max()
            n = p.degrees.shape[0]
            assert cardinality_gap(nu_lo, v, p) == pytest.approx(n - p.k, abs=1e-12)
            assert cardinality_gap(nu_hi, v, p) == pytest.approx(-p.k, abs=1e-12)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, v = _random_params(rng)
            nus = np.sort(rng.normal(size=8) * 10)
            gaps = [cardinality_gap(nu, v, p) for nu in nus]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestProxCappedSimplex:
    def test_symmetric_instance(self):
        p = CappedSimplexParams(np.zeros(4), 2.0, 1.0)
        x, nu = prox_capped_simplex(np.zeros(4), p)
        assert np.abs(x - 0.5).max() <= 1e-6
        assert nu == pytest.approx(-0.5, abs=1e-6)

    def test_feasible_binary_fixed_by_large_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 20))
            k = int(rng.integers(2, n))
            v = np.zeros(n)
            v[rng.choice(n, size=k, replace=False)] = 1.0
            p = CappedSimplexParams(rng.random(n), float(k), 1e6)
            x, _ = prox_capped_simplex(v, p)
            assert np.abs(x - v).max() <= 1e-3

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(4)
        cases = [_random_params(rng) for _ in range(200)]
        for _ in range(50):
            n = int(rng.integers(3, 40))
            cases += [
                _random_params(rng, n=n, tau=float(rng.choice([0.5, 1.0, 2.0])), integer=True),
                _random_params(rng, n=n, tau=float(10 ** rng.uniform(-3, 6))),
                _random_params(rng, n=n, tau=float(10 ** rng.uniform(-3, 6)), integer=True),
                _random_params(rng, n=n, k=2),
                _random_params(rng, n=n, k=n - 1),
            ]
        for p, v in cases:
            x, _ = prox_capped_simplex(v, p)
            x_star, _ = capped_simplex_exact(v, p.degrees, p.k, p.tau)
            assert np.abs(x - x_star).max() <= _roundoff(p)

    def test_spec_example_dimensions(self):
        rng = np.random.default_rng(5)
        p, v = _random_params(rng, n=12)
        p = CappedSimplexParams(p.degrees, 4.0, p.tau)
        x, _ = prox_capped_simplex(v, p)
        x_star, _ = capped_simplex_exact(v, p.degrees, 4.0, p.tau)
        assert np.abs(x - x_star).max() <= _roundoff(p)

    def test_kkt_certificate(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p, v = _random_params(rng)
            x, nu = prox_capped_simplex(v, p)
            assert x.min() >= 0.0 and x.max() <= 1.0
            assert abs(x.sum() - p.k) <= _roundoff(p)
            clamp = np.clip(v + (p.degrees - nu) / p.tau, 0.0, 1.0)
            assert (x == clamp).all()

    def test_objective_beats_random_feasible(self):
        rng = np.random.default_rng(7)

        def objective(p, v, x):
            return -p.degrees @ x + 0.5 * p.tau * ((x - v) ** 2).sum()

        for _ in range(30):
            p, v = _random_params(rng)
            x, _ = prox_capped_simplex(v, p)
            fx = objective(p, v, x)
            for _ in range(20):
                y = random_feasible_point(rng, p.degrees.shape[0], p.k)
                assert fx <= objective(p, v, y) + 1e-9

    def test_step_count_logarithmic(self, monkeypatch):
        calls = {"n": 0}
        original = prox_mod.cardinality_gap

        def counting(nu, v, p, out=None):
            calls["n"] += 1
            return original(nu, v, p, out)

        monkeypatch.setattr(prox_mod, "cardinality_gap", counting)
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, v = _random_params(rng)
            calls["n"] = 0
            prox_capped_simplex(v, p)
            assert calls["n"] <= int(np.ceil(np.log2(2 * p.degrees.shape[0])))

    def test_warm_start_matches_cold_bisection(self):
        # the result is the cold search's to the bit, wherever the gallop starts
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(3, 40))
            k = (2, n - 1, int(rng.integers(2, n)))[trial % 3]
            tied = trial % 2 == 0   # integer degrees, v and tau: many equal breakpoints
            p, v = _random_params(rng, n=n, k=k, integer=tied,
                                  tau=float(rng.integers(1, 4)) if tied else None)
            want_x, want_nu = prox_capped_simplex_bisection(v, p)
            shifted = p.degrees + p.tau * v
            breaks = np.sort(np.concatenate([shifted - p.tau, shifted]))
            starts = (breaks[0] - 1.0, breaks[0], breaks[1], breaks[-2], breaks[-1],
                      breaks[-1] + 1.0, want_nu, float(rng.uniform(breaks[0], breaks[-1])),
                      -np.inf, np.inf, None)
            for start in starts:
                x, nu = prox_capped_simplex(v, p, start)
                assert x.tobytes() == want_x.tobytes(), (trial, start)
                assert np.float64(nu).tobytes() == np.float64(want_nu).tobytes(), (trial, start)

    def test_warm_start_at_the_root_takes_two_gap_evaluations(self, monkeypatch):
        calls = {"n": 0}
        original = prox_mod.cardinality_gap

        def counting(nu, v, p, out=None):
            calls["n"] += 1
            return original(nu, v, p, out)

        monkeypatch.setattr(prox_mod, "cardinality_gap", counting)
        rng = np.random.default_rng(12)
        for _ in range(100):
            p, v = _random_params(rng, n=int(rng.integers(3, 400)))
            _, nu = prox_capped_simplex(v, p)
            calls["n"] = 0
            prox_capped_simplex(v, p, nu)
            assert calls["n"] <= 2

    def test_non_finite_input_rejected(self):
        p = CappedSimplexParams(np.zeros(4), 2.0, 1.0)
        with pytest.raises(ValueError):
            prox_capped_simplex(np.array([0.0, np.nan, 0.0, 0.0]), p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CappedSimplexParams(np.zeros(4), 2.0, -1.0)
        with pytest.raises(ValueError):
            CappedSimplexParams(np.zeros(4), 4.0, 1.0)  # k > n-1
        with pytest.raises(ValueError):
            CappedSimplexParams(np.zeros(4), 1.0, 1.0)  # k < 2


class TestShrinkage:
    def test_at_the_kink(self):
        assert shrinkage(np.array([0.5]), np.array([1.0]), 2.0)[0] == 0.0

    def test_above_threshold(self):
        assert shrinkage(np.array([2.0]), np.array([1.0]), 1.0)[0] == 1.0

    def test_sign_symmetry(self):
        assert shrinkage(np.array([-3.0]), np.array([2.0]), 2.0)[0] == -2.0

    def test_matches_max_form(self):
        # signed zeros, the kink itself, tiny and huge entries, and levels that underflow
        rng = np.random.default_rng(13)
        specials = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324]
        for trial in range(300):
            m = int(rng.integers(1, 60))
            w = 10.0 ** rng.uniform(-12, 8, size=m)
            w[rng.random(m) < 0.1] = 1e-305
            rho = float(10.0 ** rng.uniform(-3, 3)) if trial % 3 else 1e300
            t = w / rho
            v = rng.normal(size=m) * 10.0 ** rng.uniform(-14, 10, size=m)
            spots = rng.random(m)
            v[spots < 0.3] = rng.choice(specials, size=int((spots < 0.3).sum()))
            v[spots > 0.8] = (np.sign(rng.normal(size=m)) * t)[spots > 0.8]
            got = shrinkage(v, w, rho)
            assert got.tobytes() == shrinkage_max_form(v, w, rho).tobytes(), trial

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            shrinkage(np.zeros(3), np.ones(3), 0.0)

    def test_subgradient_optimality(self):
        # 0 in w * sign(z) + rho (z - v), with |subgradient| <= w at z = 0
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            v = rng.normal(size=m) * 3
            w = rng.uniform(0.1, 2.0, size=m)
            rho = float(rng.uniform(0.1, 5.0))
            z = shrinkage(v, w, rho)
            residual = rho * (z - v)
            at_zero = z == 0.0
            assert (np.abs(residual[at_zero]) <= w[at_zero] + 1e-12).all()
            assert np.abs(w[~at_zero] * np.sign(z[~at_zero]) + residual[~at_zero]).max(
                initial=0.0) <= 1e-12

    def test_odd_and_nonexpansive(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            w = rng.uniform(0.1, 2.0, size=m)
            rho = float(rng.uniform(0.1, 5.0))
            a = rng.normal(size=m) * 2
            b = rng.normal(size=m) * 2
            assert np.allclose(shrinkage(-a, w, rho), -shrinkage(a, w, rho))
            diff = np.linalg.norm(shrinkage(a, w, rho) - shrinkage(b, w, rho))
            assert diff <= np.linalg.norm(a - b) + 1e-12
