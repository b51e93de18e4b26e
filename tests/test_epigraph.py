import math
import re
import sys

import mpmath
import numpy as np
import pytest

from robust_oco import epigraph, mirror_descent
from robust_oco.core import ARRAY, NonFiniteError, as_vector, kernels, norm
from robust_oco.epigraph import (
    EpigraphLearner,
    EpigraphPoint,
    correction_direction,
    weighted_project,
)
from robust_oco.mirror_descent import SolverError
from link_oracle import mp_project_root
from snapshot import state_bits


# weighted_project's nested residual, whose calls are the projection's evaluations
RESIDUAL = next(c for c in epigraph.weighted_project.__code__.co_consts
                if getattr(c, "co_name", None) == "residual")


def residuals_in(call):
    """call()'s result and how many times it evaluated the projection's residual."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is RESIDUAL

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = call()
    finally:
        sys.setprofile(previous)
    return out, count


class TestWeightedProject:
    # a NaN or infinite weight ran 300 bisection steps, then raised SolverError
    @pytest.mark.parametrize("h, gamma", [
        (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_nonpositive_weights_rejected(self, h, gamma):
        pt = EpigraphPoint(np.array([2.0]), 0.0)
        with pytest.raises(ValueError, match=re.escape(
            f"projection weights must be positive and finite: h={h}, gamma={gamma}"
        ) + "$"):
            weighted_project(pt, h, gamma, 2.0)

    def test_interior_point_unchanged(self):
        pt = EpigraphPoint(np.array([0.0]), 1.0)
        assert weighted_project(pt, 2.0, 0.5, norm(pt.w)) is pt

    def test_zero_direction_below_floor(self):
        pt = EpigraphPoint(np.array([0.0, 0.0]), -3.0)
        out = weighted_project(pt, 1.0, 7.0, norm(pt.w))
        assert np.array_equal(out.w, [0.0, 0.0])
        assert out.y == 0.0

    def test_cubic_root_example(self):
        # minimizing (s-2)^2 + (s^2)^2 puts the radius at the real root of
        # 2s^3 + s - 2; cross-check against an independent polynomial solver
        pt = EpigraphPoint(np.array([2.0]), 0.0)
        out = weighted_project(pt, 1.0, 1.0, norm(pt.w))
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
            out = weighted_project(pt, h, gamma, norm(pt.w))
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
            out = weighted_project(pt, 1.3, 0.6, norm(pt.w))
            assert norm(out.w) <= norm(pt.w) + 1e-12


    def test_collapsed_bracket_stops_at_the_root(self):
        # the residual's rounding (an ulp of the cubic term 2 gamma^2 s^3,
        # about 3e-12 here) never meets the 1e-12 * target stop rule, so the
        # bisection must stop on the collapsed bracket instead of aborting
        w_hat, y_hat, h, gamma = 2.0338438752003833, 4.020070730557359, 1.0, 31.0
        pt = EpigraphPoint(np.array([w_hat]), y_hat)
        out = weighted_project(pt, h, gamma, norm(pt.w))
        with mpmath.workdps(50):
            root = mp_project_root(w_hat, y_hat, h, gamma)
            assert abs(mpmath.mpf(float(out.w[0])) - root) <= 5e-16 * root
        assert out.y >= float(out.w @ out.w)

    # (w_hat, y_hat, h, gamma, w bits, y bits) of calls without a start; the
    # first is the round-1 boundary call of the first dro_highdim case1 cell,
    # whose target h^2 ||w_hat|| is 6e-6, below 1
    COLD_BITS = [
        ([2.4067862516745284e-05], 0.0, 0.5, 51.0, ["0x1.93c96ce1da524p-16"],
         "0x1.3e71e5a59f2b9p-31"),
        ([2.0], 0.0, 1.0, 1.0, ["0x1.ab95280dc5800p-1"], "0x1.65157542cb92ap-1"),
        ([2.0338438752003833], 4.020070730557359, 1.0, 31.0, ["0x1.00a4465adbbb8p+1"],
         "0x1.0148f61fef366p+2"),
        ([0.3, -1.2, 2.0], -0.5, 1.3, 0.6,
         ["0x1.46d955c598d90p-3", "-0x1.46d955c598d90p-1", "0x1.105fc779ff5f8p+0"],
         "0x1.90a474722f822p+0"),
    ]

    @pytest.mark.parametrize("w_hat, y_hat, h, gamma, w_bits, y_bits", COLD_BITS,
                             ids=["dro_round_1", "cubic_example", "collapse", "d3"])
    def test_cold_call_keeps_the_bisection_bits(self, w_hat, y_hat, h, gamma, w_bits, y_bits):
        # a call without a start runs the bisection alone, with the bits it
        # gave before the projection took a start
        pt = EpigraphPoint(np.array(w_hat), y_hat)
        out = weighted_project(pt, h, gamma, norm(pt.w))
        assert [float(x).hex() for x in out.w] == w_bits and out.y.hex() == y_bits

    @pytest.mark.parametrize("dim", [1, 3])
    def test_warm_start_matches_fifty_digit_root(self, dim):
        # from a start off the root by 1e-12 to 1e-1 (relative), either way,
        # the radius is within the residual tolerance of the 50-digit root:
        # |s - root| <= 1e-12 * max(1, target) / slope, plus a few ulps. Up
        # to 1e-3 off, Newton accepts an iterate within six residuals
        rng = np.random.default_rng(11 + dim)
        checked = 0
        for _ in range(40):
            w_hat = rng.standard_normal(dim) * 2.0
            w_norm = norm(w_hat)
            y_hat = float(rng.uniform(-2.0, 0.9 * w_norm * w_norm))
            h, gamma = (float(np.exp(rng.uniform(-1.0, 1.0))) for _ in range(2))
            pt = EpigraphPoint(w_hat if dim > 1 else float(w_hat[0]), y_hat)
            with mpmath.workdps(50):
                root = mp_project_root(w_norm, y_hat, h, gamma)
                slope = h * h + 2 * gamma * gamma * (3 * root * root - y_hat)
                bound = 1e-12 * max(1.0, h * h * w_norm) / slope + 4 * math.ulp(float(root))
                for rel in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
                    for sign in (-1.0, 1.0):
                        start = float(root * (1 + sign * rel))
                        out, residuals = residuals_in(
                            lambda: weighted_project(pt, h, gamma, w_norm, start))
                        w = np.atleast_1d(out.w)
                        assert abs(norm(w) - root) <= bound, (rel, sign)
                        assert out.y >= float(w @ w)
                        if rel <= 1e-3:
                            assert residuals <= 6, (rel, sign)
                        checked += 1
        assert checked == 400

    @pytest.mark.parametrize("start", [0.0, -1.0, math.nan, math.inf, 4.0, 0.1, 1.6, 2.1],
                             ids=["zero", "negative", "nan", "inf", "upper_end",
                                  "slope_negative", "step_leaves", "not_accepted"])
    def test_start_that_newton_cannot_use_runs_the_bisection(self, start):
        # w_hat = 3, y_hat = 8, h = gamma = 1: the residual 2s^3 - 15s - 3 has
        # its root near 2.834 in (0, 4) and a nonpositive slope below
        # s = 1.58; from 1.6 the first step lands past 4, from 2.1 no iterate
        # passes the residual test within six evaluations. Each falls back to
        # the bisection from [0, 4], bit for bit the call without a start
        pt = EpigraphPoint(np.array([3.0]), 8.0)
        cold, bisection = residuals_in(lambda: weighted_project(pt, 1.0, 1.0, 3.0))
        out, residuals = residuals_in(lambda: weighted_project(pt, 1.0, 1.0, 3.0, start))
        assert out.w.tobytes() == cold.w.tobytes() and out.y.hex() == cold.y.hex()
        assert residuals >= bisection

    def test_failure_names_the_weights(self):
        pt = EpigraphPoint(np.array([math.nan]), 0.0)
        with pytest.raises(SolverError, match=r"h=2\.0, gamma=3\.0"):
            weighted_project(pt, 2.0, 3.0, norm(pt.w))

    @pytest.mark.xfail(strict=True, raises=(NonFiniteError, RuntimeWarning), reason=(
        "the bisection's stop rule is absolute for a target below 1: at the "
        "target h^2||w_hat|| ~ 7e-322 its first midpoint, about 1e309 times "
        "||w_hat||, passes, and s / ||w_hat|| overflows"))
    @pytest.mark.parametrize("dim", [1, 3])
    def test_tiny_target_projection_stays_inside_the_prediction(self, dim):
        # d = 1 raises NonFiniteError (array([-inf])); d = 3 warns "invalid
        # value encountered in multiply" in weighted_project
        learner = EpigraphLearner(dim, 1.0, 2.0, 0.5, c=1.0, p=math.log(100))
        g = np.zeros(dim)
        g[-1] = 2.5994818525531546e-159
        learner.observe(g[0] if dim == 1 else g, 0.5, 1.0)
        assert np.isfinite(learner.w).all()
        assert learner.w_norm <= norm(np.atleast_1d(learner._hat.w))


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
            proj = weighted_project(hat, h, gamma, norm(hat.w))
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
            proj = weighted_project(hat, h, gamma, norm(hat.w))
            g = rng.standard_normal(2)
            g *= h / norm(g)
            dw, dy = correction_direction(hat, proj, h, gamma, g, gamma)
            assert norm(dw) <= 2 * h * (1 + 1e-12)
            assert abs(dy) <= 2 * gamma * (1 + 1e-12)
            if norm(dw) > math.sqrt(2) * h or abs(dy) > math.sqrt(2) * gamma:
                sqrt2_failures += 1
        # record how often the stricter sqrt(2) factors would have failed
        print(f"\nsqrt(2)-factor exceedances: {sqrt2_failures}/300")


class AlwaysCorrected(EpigraphLearner):
    """The epigraph round without the interior shortcut: every round builds
    the correction (zero for an interior prediction) and adds it, and the
    projection takes a fresh norm of the lifted iterate. The vector side and
    the lifted point are float64 arrays at every dimension, d = 1 included,
    where the learner itself runs on floats. A boundary projection starts,
    as the learner's does, from last round's boundary radius."""

    def __init__(self, dim, **kw):
        super().__init__(dim, **kw)
        md = self.learner_w
        md.kernels = ARRAY
        md.w, md.mirror_grad = np.zeros(dim), np.zeros(dim)
        self._project()

    def _project(self):
        start = 0.0 if self._played is self._hat else norm(self._played.w)
        self._hat = EpigraphPoint(self.learner_w.w, self.learner_y.w)
        self._played = weighted_project(
            self._hat, self.h, self.gamma, norm(self._hat.w), start
        )
        self.w = self._played.w

    def observe(self, gradient, hint, a_t=0.0):
        g = as_vector(gradient, self.learner_w.dim)
        delta_w, delta_y = correction_direction(
            self._hat, self._played, self.h, self.gamma, g, a_t
        )
        self.learner_w.observe(0.5 * (g + delta_w), 2.0 * hint)
        self.learner_y.observe(0.5 * (a_t + delta_y), 1.5 * self.gamma)
        self.h = hint
        self._project()


def learner_bits(learner):
    """Every float of an epigraph learner's state, and its rounds, as bytes."""
    parts = [learner._hat.w, learner._played.w,
             [learner._hat.y, learner._played.y, learner.h]]
    for md in (learner.learner_w, learner.learner_y):
        reg = md.penalty
        parts += [md.w, md.mirror_grad,
                  [md.w_norm, md.h, md.C, md.N, md.B, md.t,
                   reg.log_S, reg.last_iterate_norm, reg.log_knot]]
    return b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in parts)


class TestEpigraphLearner:
    def make(self, dim=1, gamma=1.0, tau_G=1.0, c=1.0, T=1000):
        return EpigraphLearner(
            dim, epsilon=1.0, gamma=gamma, tau_G=tau_G, c=c,
            p=math.log(T), alpha=1.0,
        )

    def test_first_prediction_origin(self):
        learner = self.make(dim=3)
        assert np.array_equal(np.atleast_1d(learner.w), np.zeros(3))

    def test_zero_gradients_zero_weights_stay_at_origin(self):
        learner = self.make()
        for _ in range(30):
            learner.observe(np.zeros(1), 1.0)
            assert np.array_equal(np.atleast_1d(learner.w), np.zeros(1))

    def test_determinism(self):
        rng = np.random.default_rng(41)
        gs = rng.uniform(-1, 1, 60)
        l1, l2 = self.make(), self.make()
        for g in gs:
            l1.observe(np.array([g]), 1.0)
            l2.observe(np.array([g]), 1.0)
            assert np.array_equal(np.atleast_1d(l1.w), np.atleast_1d(l2.w))

    def test_played_points_feasible_over_long_run(self):
        rng = np.random.default_rng(47)
        learner = self.make(T=10_000)
        for t in range(10_000):
            hat = EpigraphPoint(
                np.atleast_1d(learner.learner_w.w), learner.learner_y.w
            )
            pt = weighted_project(hat, learner.h, learner.gamma, norm(hat.w))
            assert np.array_equal(pt.w, np.atleast_1d(learner.w))
            assert pt.y >= float(pt.w @ pt.w)
            learner.observe(np.array([rng.uniform(-1, 1)]), 1.0)

    def test_fed_magnitudes_within_sublearner_hints(self):
        rng = np.random.default_rng(53)
        gamma = 2.0
        learner = self.make(gamma=gamma)
        for t in range(500):
            hat = EpigraphPoint(
                np.atleast_1d(learner.learner_w.w), learner.learner_y.w
            )
            proj = weighted_project(hat, learner.h, gamma, norm(hat.w))
            g = np.array([rng.uniform(-1, 1)])
            a_t = float(rng.uniform(0, gamma))
            dw, dy = correction_direction(hat, proj, learner.h, gamma, g, a_t)
            assert norm(0.5 * (g + dw)) <= 1.5 * learner.h * (1 + 1e-12)
            assert abs(0.5 * (a_t + dy)) <= 1.5 * gamma * (1 + 1e-12)
            learner.observe(g, 1.0, a_t)

    @pytest.mark.parametrize(
        "dim, tiny", [(1, 0), (3, 0), (17, 0), (2, 100)],
        ids=["d1", "d3", "d17", "d2_underflow"],
    )
    def test_matches_the_always_corrected_round_bit_for_bit(self, dim, tiny):
        # gradients and weights carry signed zeros; in the first `tiny`
        # rounds the gradients are scaled by 1e-170, so the solve's root
        # underflows, its mirror part is 0 and 0 * theta leaves -0.0 entries
        # in learner_w's mirror-map gradient, where 0.5 * g without the
        # added 0.0 would flip the sign of a zero
        rng = np.random.default_rng(dim)
        kw = dict(epsilon=1.0, gamma=2.0, tau_G=1.0, c=1.0, p=math.log(500), alpha=1.0)
        fast, ref = EpigraphLearner(dim, **kw), AlwaysCorrected(dim, **kw)
        interior = 0
        for t in range(500):
            g = np.where(rng.uniform(size=dim) < 0.4, 0.0, rng.standard_normal(dim))
            g = np.copysign(g, rng.choice([-1.0, 1.0], size=dim))
            if norm(g) > fast.h:
                g *= fast.h * rng.uniform() / norm(g)
            # mostly a zero weight (of either sign), which keeps the
            # prediction inside the set in about half the rounds
            a_t = float(rng.uniform(0.0, 2.0)) if t % 25 == 0 else [0.0, -0.0][t % 2]
            if t < tiny:
                g *= 1e-170
                a_t = [0.0, -0.0][t % 2]
            hint = fast.h * (2.0 if rng.uniform() < 0.02 else 1.0)
            interior += fast._played is fast._hat
            fast.observe(g, hint, a_t)
            ref.observe(g.copy(), hint, a_t)
            assert learner_bits(fast) == learner_bits(ref), t
        assert 100 < interior < 400

    @pytest.mark.parametrize("dim", [1, 3])
    def test_given_norm_skips_only_the_coercion(self, dim):
        # the protocol passes its checked gradient, in the learner's form,
        # with its norm; the round without the norm coerces it on entry
        rng = np.random.default_rng(dim)
        given, coerced = self.make(dim=dim, gamma=2.0), self.make(dim=dim, gamma=2.0)
        k = kernels(dim)
        interior = 0
        for t in range(300):
            g = rng.standard_normal(dim)
            if norm(g) > given.h:
                g *= given.h * rng.uniform() / norm(g)
            a_t = float(rng.uniform(0.0, 2.0)) if t % 25 == 0 else 0.0
            hint = given.h * (2.0 if rng.uniform() < 0.02 else 1.0)
            interior += given._played is given._hat
            g_form, g_norm = k.coerce(g, dim)
            given.observe(g_form, hint, a_t, g_norm)
            coerced.observe(g.copy(), hint, a_t)
            assert state_bits(given) == state_bits(coerced), t
        assert 50 < interior < 250

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_gradient_reported_as_given(self, bad):
        learner = self.make(dim=2)
        assert learner._played is learner._hat  # the origin is interior
        g = np.array([bad, 0.75])
        with pytest.raises(NonFiniteError) as info:
            learner.observe(g, 1.0)
        with pytest.raises(NonFiniteError) as direct:
            as_vector(g, 2)
        assert "vector input" in str(info.value)
        assert str(info.value) == str(direct.value)
        assert learner.learner_w.t == 0 and learner.learner_y.t == 0

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("kind", [list, tuple])
    def test_sequence_gradient_taken_as_the_vector_learner_takes_it(self, dim, kind):
        # the interior round added 0.0 to the gradient before any coercion,
        # so a list or a tuple raised TypeError
        fast, ref = self.make(dim=dim), self.make(dim=dim)
        assert fast._played is fast._hat  # the origin is interior
        for g in ([0.5, -0.0, -0.25], [-0.75, 0.25, 0.0], [0.0, -0.0, 0.5]):
            fast.observe(kind(g[:dim]), 1.0)
            ref.observe(g[0] if dim == 1 else np.array(g[:dim]), 1.0)
            assert state_bits(fast) == state_bits(ref)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_missing_gradient_named(self, dim):
        # the interior round raised TypeError for None
        learner = self.make(dim=dim)
        assert learner._played is learner._hat
        before = state_bits(learner)
        with pytest.raises(ValueError, match="^missing vector input: got None$"):
            learner.observe(None, 1.0)
        assert state_bits(learner) == before

    def test_penalty_weight_above_gamma_rejected(self):
        learner = self.make(gamma=1.0)
        with pytest.raises(ValueError):
            learner.observe(np.zeros(1), 1.0, 0.8 + 0.4)

    @pytest.mark.parametrize(
        "a_t", [math.nan, math.inf, -0.25, 2.5], ids=["nan", "inf", "negative", "above"]
    )
    @pytest.mark.parametrize("dim", [1, 3])
    def test_rejected_penalty_weight_moves_no_state(self, dim, a_t):
        rng = np.random.default_rng(dim)
        learner = self.make(dim=dim, gamma=2.0)
        for _ in range(40):
            learner.observe(rng.uniform(-1.0, 1.0, dim) / math.sqrt(dim), 1.0,
                            float(rng.uniform(0.0, 2.0)))
        before = state_bits(learner)
        rounds = (learner.learner_w.t, learner.learner_y.t)
        with pytest.raises(ValueError, match=r"penalty weight .* outside \[0, gamma 2\.0\]"):
            learner.observe(np.full(dim, 0.1), 1.0, a_t)
        assert state_bits(learner) == before
        assert (learner.learner_w.t, learner.learner_y.t) == rounds

    @pytest.mark.parametrize("hint", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_hint_moves_no_state(self, hint):
        learner = self.make(dim=2)
        learner.observe(np.array([0.5, -0.5]), 1.0, 0.5)
        before = state_bits(learner)
        with pytest.raises(ValueError, match="hint must be finite"):
            learner.observe(np.array([0.1, 0.2]), hint, 0.5)
        assert state_bits(learner) == before
        assert learner.learner_w.t == learner.learner_y.t == 1

    @pytest.mark.parametrize("d", [1, 3, 17])
    def test_kept_iterate_norm_is_the_norm_of_the_iterate(self, d):
        # interior rounds keep the vector side's norm, boundary rounds take
        # the projected point's; the protocol reads this norm as the played one
        rng = np.random.default_rng(d)
        learner = self.make(dim=d, gamma=2.0, tau_G=0.5, T=100)
        assert learner.w_norm == norm(np.atleast_1d(learner.w)) == 0.0
        h, boundary = 0.5, 0
        for t in range(60):
            g = rng.standard_normal(d)
            g *= rng.uniform(0.0, 1.0) * h / norm(g)
            h *= 2.0 if t % 7 == 3 else 1.0
            a_t = float(rng.uniform(0.0, 2.0)) if t % 5 == 0 else 0.0
            learner.observe(g if d > 1 else float(g[0]), h, a_t)
            assert learner.w_norm == norm(np.atleast_1d(learner.w)), t
            boundary += learner._played is not learner._hat
        assert 10 <= boundary <= 50  # both kinds of round, several times

    @pytest.mark.parametrize("interior", [True, False], ids=["interior", "corrected"])
    @pytest.mark.parametrize("failing", ["scalar_solve", "projection"])
    def test_failure_after_the_vector_solve_moves_no_state(
        self, monkeypatch, failing, interior
    ):
        # learner_w's update has succeeded when learner_y's solve or the
        # projection raises: neither sub-learner may have committed
        rng = np.random.default_rng(3)
        learner = self.make(dim=2, gamma=2.0)
        while (learner._played is learner._hat) is not interior:
            a_t = float(rng.uniform(0.0, 2.0))
            learner.observe(rng.uniform(-0.7, 0.7, 2), 1.0, a_t)
        before = state_bits(learner)
        hat, played = learner._hat, learner._played
        solve, project = mirror_descent.link_inverse_solve, epigraph.weighted_project

        def scalar_solve(theta_norm, V, h, a, reg, offset):
            if reg is learner.learner_y.penalty:
                raise SolverError("scalar solve failed")
            return solve(theta_norm, V, h, a, reg, offset)

        def projection(*args):
            project(*args)
            raise SolverError("projection failed")

        if failing == "scalar_solve":
            monkeypatch.setattr(mirror_descent, "link_inverse_solve", scalar_solve)
        else:
            monkeypatch.setattr(epigraph, "weighted_project", projection)
        with pytest.raises(SolverError, match="failed"):
            learner.observe(np.array([0.6, -0.3]), 1.0, 0.5)
        assert state_bits(learner) == before
        assert learner._hat is hat and learner._played is played

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field, name", [("gamma", "gamma"),
                                             ("tau_G", "initial threshold tau_G")])
    def test_constructor_rejects_non_positive_or_non_finite(self, field, name, bad):
        kw = dict(epsilon=1.0, gamma=1.0, tau_G=1.0, c=1.0, p=2.0)
        kw[field] = bad
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            EpigraphLearner(2, **kw)

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
                denom = (
                    h_T + abs(u) * h_T * math.sqrt(T)
                    + u * u * (protocol.gamma_alpha * (k + 1) + protocol.gamma_beta)
                ) * (1 + math.log(1 + max(abs(u), 1) * T)) ** 2
                assert protocol.decomposition.composite_term / denom <= 1.0

    def test_iterate_growth_cap(self):
        # worst-case sign-flipping stream for 40 rounds stays under (eps/2)*2^T
        learner = self.make(T=40)
        cap = 0.5 * 2.0**40
        for t in range(40):
            w = np.atleast_1d(learner.w)
            g = np.array([1.0 if w[0] <= 0 else -1.0])
            learner.observe(g, 1.0)
            assert norm(np.atleast_1d(learner.w)) <= cap
