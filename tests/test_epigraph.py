import math

import mpmath
import numpy as np
import pytest

from robust_oco.core import norm
from robust_oco.epigraph import (
    EpigraphLearner,
    EpigraphPoint,
    QuadWeights,
    correction_direction,
    weighted_project,
)
from robust_oco.mirror_descent import SolverError


class TestWeightedProject:
    def test_interior_point_unchanged(self):
        pt = EpigraphPoint(np.array([0.0]), 1.0)
        assert weighted_project(pt, h=2.0, gamma=0.5) is pt

    def test_zero_direction_below_floor(self):
        pt = EpigraphPoint(np.array([0.0, 0.0]), -3.0)
        out = weighted_project(pt, h=1.0, gamma=7.0)
        assert np.array_equal(out.w, [0.0, 0.0])
        assert out.y == 0.0

    def test_cubic_root_example(self):
        # minimizing (s-2)^2 + (s^2)^2 puts the radius at the real root of
        # 2s^3 + s - 2; cross-check against an independent polynomial solver
        pt = EpigraphPoint(np.array([2.0]), 0.0)
        out = weighted_project(pt, h=1.0, gamma=1.0)
        s = float(out.w[0])
        roots = np.roots([2.0, 0.0, 1.0, -2.0])
        oracle = float(roots[np.isclose(roots.imag, 0)].real[0])
        assert math.isclose(s, oracle, rel_tol=1e-9)
        assert math.isclose(s, 0.83514, rel_tol=1e-4)
        assert math.isclose(out.y, 0.69746, rel_tol=1e-4)
        assert math.isclose(out.y, s * s, rel_tol=1e-12)

    def test_feasibility_and_stationarity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            dim = int(rng.integers(1, 5))
            pt = EpigraphPoint(rng.standard_normal(dim) * 3, float(rng.standard_normal() * 3))
            h = float(np.exp(rng.uniform(-2, 2)))
            gamma = float(np.exp(rng.uniform(-2, 2)))
            out = weighted_project(pt, h, gamma)
            assert out.y >= float(out.w @ out.w)
            if pt.y < float(pt.w @ pt.w) and norm(pt.w) > 0:
                s = norm(out.w)
                target = h * h * norm(pt.w)
                resid = abs(s * (h * h + 2 * gamma * gamma * (s * s - pt.y)) - target)
                assert resid <= 1e-9 * max(1.0, target)

    def test_projection_shrinks_radius(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pt = EpigraphPoint(rng.standard_normal(2) * 4, float(rng.uniform(-5, 1)))
            out = weighted_project(pt, 1.3, 0.6)
            assert norm(out.w) <= norm(pt.w) + 1e-12


    def test_collapsed_bracket_stops_at_the_root(self):
        # the residual's rounding (an ulp of the cubic term 2 gamma^2 s^3,
        # about 3e-12 here) never meets the 1e-12 * target stop rule, so the
        # bisection must stop on the collapsed bracket instead of aborting
        w_hat, y_hat, h, gamma = 2.0338438752003833, 4.020070730557359, 1.0, 31.0
        out = weighted_project(EpigraphPoint(np.array([w_hat]), y_hat), h, gamma)
        with mpmath.workdps(50):
            g2, nw, y = 2 * mpmath.mpf(gamma) ** 2, mpmath.mpf(w_hat), mpmath.mpf(y_hat)
            roots = mpmath.polyroots([g2, 0, h * h - g2 * y, -h * h * nw], extraprec=200)
            root = max(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** -30)
            assert abs(mpmath.mpf(float(out.w[0])) - root) <= 5e-16 * root
        assert out.y >= float(out.w @ out.w)

    def test_failure_names_the_weights(self):
        pt = EpigraphPoint(np.array([math.nan]), 0.0)
        with pytest.raises(SolverError, match=r"h=2\.0, gamma=3\.0"):
            weighted_project(pt, 2.0, 3.0)


class TestCorrectionDirection:
    def test_interior_zero(self):
        pt = EpigraphPoint(np.array([0.3]), 2.0)
        dw, dy = correction_direction(pt, pt, 1.0, 1.0, np.array([0.5]), 0.5)
        assert np.array_equal(dw, [0.0]) and dy == 0.0

    def test_unit_dual_form_of_direction(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            hat = EpigraphPoint(rng.standard_normal(dim) * 3, float(rng.uniform(-4, 0)))
            if hat.y >= float(hat.w @ hat.w):
                continue
            h = float(np.exp(rng.uniform(-1, 1)))
            gamma = float(np.exp(rng.uniform(-1, 1)))
            proj = weighted_project(hat, h, gamma)
            # scale with unit fed pair: direction alone has unit dual form
            g = np.zeros(dim)
            dw, dy = correction_direction(hat, proj, h, gamma, g, gamma)
            dual = float(dw @ dw) / (h * h) + dy * dy / (gamma * gamma)
            assert math.isclose(dual, 1.0, rel_tol=1e-9)

    def test_scale_bounds_at_full_magnitude(self):
        # fed pair at (||g||, a) = (h, gamma) gives dual form 2, so the
        # correction components stay within twice the weights
        rng = np.random.default_rng(29)
        sqrt2_failures = 0
        for _ in range(300):
            hat = EpigraphPoint(rng.standard_normal(2) * 3, float(rng.uniform(-4, 0)))
            if hat.y >= float(hat.w @ hat.w):
                continue
            h, gamma = 1.4, 0.8
            proj = weighted_project(hat, h, gamma)
            g = rng.standard_normal(2)
            g *= h / norm(g)
            dw, dy = correction_direction(hat, proj, h, gamma, g, gamma)
            assert norm(dw) <= 2 * h * (1 + 1e-12)
            assert abs(dy) <= 2 * gamma * (1 + 1e-12)
            if norm(dw) > math.sqrt(2) * h or abs(dy) > math.sqrt(2) * gamma:
                sqrt2_failures += 1
        # record how often the stricter sqrt(2) factors would have failed
        print(f"\nsqrt(2)-factor exceedances: {sqrt2_failures}/300")


class TestQuadWeights:
    def test_no_doublings_no_weights(self):
        qw = QuadWeights(gamma_alpha=2.0, gamma_beta=6.0)
        assert qw.step(False, False) == (0.0, 0.0)

    def test_first_tracker_doubling_halves_beta(self):
        qw = QuadWeights(gamma_alpha=2.0, gamma_beta=6.0)
        alpha_t, beta_t = qw.step(False, True)
        assert alpha_t == 0.0 and beta_t == 3.0

    def test_filter_doubling_full_alpha_regardless_of_history(self):
        qw = QuadWeights(gamma_alpha=2.0, gamma_beta=6.0)
        for _ in range(5):
            qw.step(False, True)
        alpha_t, _ = qw.step(True, False)
        assert alpha_t == 2.0

    def test_beta_attenuates(self):
        qw = QuadWeights(gamma_alpha=0.0, gamma_beta=12.0)
        betas = [qw.step(False, True)[1] for _ in range(4)]
        assert betas == [6.0, 4.0, 3.0, 2.4]

    def test_weight_ceilings(self):
        rng = np.random.default_rng(3)
        qw = QuadWeights(gamma_alpha=1.5, gamma_beta=4.0)
        for _ in range(200):
            a, b = qw.step(bool(rng.integers(2)), bool(rng.integers(2)))
            assert 0 <= a <= 1.5 and 0 <= b <= 4.0
            assert a + b <= qw.gamma


class TestEpigraphLearner:
    def make(self, dim=1, gamma=1.0, tau_G=1.0, c=1.0, T=1000):
        return EpigraphLearner(
            dim, epsilon=1.0, gamma=gamma, tau_G=tau_G, c=c,
            p=math.log(T), alpha=1.0,
        )

    def test_first_prediction_origin(self):
        learner = self.make(dim=3)
        assert np.array_equal(learner.predict(), np.zeros(3))

    def test_zero_gradients_zero_weights_stay_at_origin(self):
        learner = self.make()
        for _ in range(30):
            learner.observe(np.zeros(1), 1.0)
            assert np.array_equal(learner.predict(), np.zeros(1))

    def test_determinism(self):
        rng = np.random.default_rng(41)
        gs = rng.uniform(-1, 1, 60)
        l1, l2 = self.make(), self.make()
        for g in gs:
            l1.observe(np.array([g]), 1.0)
            l2.observe(np.array([g]), 1.0)
            assert np.array_equal(l1.predict(), l2.predict())

    def test_played_points_feasible_over_long_run(self):
        rng = np.random.default_rng(47)
        learner = self.make(T=10_000)
        for t in range(10_000):
            hat = EpigraphPoint(
                learner.learner_w.predict(), float(learner.learner_y.predict()[0])
            )
            pt = weighted_project(hat, learner.h, learner.gamma)
            assert np.array_equal(pt.w, learner.predict())
            assert pt.y >= float(pt.w @ pt.w)
            learner.observe(np.array([rng.uniform(-1, 1)]), 1.0)

    def test_fed_magnitudes_within_sublearner_hints(self):
        rng = np.random.default_rng(53)
        gamma = 2.0
        learner = self.make(gamma=gamma)
        for t in range(500):
            hat = EpigraphPoint(
                learner.learner_w.predict(), float(learner.learner_y.predict()[0])
            )
            proj = weighted_project(hat, learner.h, gamma)
            g = np.array([rng.uniform(-1, 1)])
            a_t = float(rng.uniform(0, gamma))
            dw, dy = correction_direction(hat, proj, learner.h, gamma, g, a_t)
            assert norm(0.5 * (g + dw)) <= 1.5 * learner.h * (1 + 1e-12)
            assert abs(0.5 * (a_t + dy)) <= 1.5 * gamma * (1 + 1e-12)
            learner.observe(g, 1.0, a_t)

    def test_penalty_weight_above_gamma_rejected(self):
        learner = self.make(gamma=1.0)
        with pytest.raises(ValueError):
            learner.observe(np.zeros(1), 1.0, 0.8 + 0.4)

    def test_composite_regret_envelope(self):
        # composite regret on uncorrupted streams, normalized by
        # (eps h_T + |u| h_T sqrt(T) + u^2 (gamma_a (k+1) + gamma_b)) polylog^2,
        # stays below one constant across horizons and comparators
        from robust_oco.protocol import ProtocolConfig, RobustProtocol

        k = 5
        for T in (100, 1000, 10000):
            for u in (0.0, 1.0, -1.0):
                cfg = ProtocolConfig(mode="unknown_g_case1", T=T, k=k, tau_G=0.5)
                protocol = RobustProtocol(cfg, comparator=[u])
                rng = np.random.default_rng(7)
                for _ in range(T):
                    g = np.array([rng.uniform(-1, 1)])
                    protocol.round(g, g_true=g)
                h_T = protocol.filter.h
                weights = protocol.weights
                denom = (
                    h_T + abs(u) * h_T * math.sqrt(T)
                    + u * u * (weights.gamma_alpha * (k + 1) + weights.gamma_beta)
                ) * (1 + math.log(1 + max(abs(u), 1) * T)) ** 2
                assert protocol.decomposition.composite_term / denom <= 1.0

    def test_iterate_growth_cap(self):
        # worst-case sign-flipping stream for 40 rounds stays under (eps/2)*2^T
        learner = self.make(T=40)
        cap = 0.5 * 2.0**40
        for t in range(40):
            w = learner.predict()
            g = np.array([1.0 if w[0] <= 0 else -1.0])
            learner.observe(g, 1.0)
            assert norm(learner.predict()) <= cap
