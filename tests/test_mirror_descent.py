import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from robust_oco import mirror_descent
from robust_oco.core import ARRAY, NonFiniteError, norm
from robust_oco.epigraph import EpigraphLearner
from robust_oco.mirror_descent import (
    MirrorDescentLearner,
    SolverError,
    _mirror_part_inverse,
    link_inverse_solve,
    link_terms,
    link_value,
)
from robust_oco.regularizer import HuberRegularizer
from link_oracle import mp_link, mp_link_root
from snapshot import state_bits


def random_state(rng, allow_zero_scale=True):
    h = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    V = h * h * float(rng.uniform(1.0, 50.0))
    a = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
    c = 0.0 if (allow_zero_scale and rng.uniform() < 0.25) else float(rng.uniform(0.05, 10.0))
    reg = HuberRegularizer(c=c, p=float(rng.uniform(1.5, 10.0)), alpha=float(rng.uniform(0.05, 5.0)))
    for w in rng.uniform(0.0, 3.0, size=int(rng.integers(0, 4))):
        reg.advance(float(w))
    return V, h, a, reg


def round_trip_samples(samples=1000, seed=2027):
    """The md_inversion check's sampling: (V, h, a, reg, x0, theta = L(x0))."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        V, h, a, reg = random_state(rng)
        x0 = float(np.exp(rng.uniform(math.log(1e-6), math.log(1e3))))
        yield V, h, a, reg, x0, link_value(x0, V, h, a, reg)


def mirror_part(x, V, h, a):
    """The link's mirror part 3 psi'(x), read off link_terms with no penalty."""
    u = math.log(x) if x > 0.0 else -math.inf
    return link_terms(u, x, V, h, a, HuberRegularizer(c=0.0, p=2.0, alpha=1.0))[0]


class TestPsiPrime:
    """The mirror part of the link, three times the mirror map's radial derivative."""

    def test_zero(self):
        assert mirror_part(0.0, V=4.0, h=2.0, a=1.0) == 0.0

    def test_branch_equality_point(self):
        # F = 1 at x = e - 1; with V = 4, h = 2 both forms give 3 * 4
        x = math.e - 1.0
        assert math.isclose(mirror_part(x, V=4.0, h=2.0, a=1.0), 12.0, rel_tol=1e-12)

    def test_constrained_branch(self):
        # F = 3 > V/h^2 = 1: value 3 (h*F + V/h) = 3 (2*3 + 2) = 24
        x = math.exp(3.0) - 1.0
        assert math.isclose(mirror_part(x, V=4.0, h=2.0, a=1.0), 24.0, rel_tol=1e-12)

    def test_continuous_and_nondecreasing(self):
        V, h, a = 3.0, 1.2, 0.7
        xs = np.linspace(0, 100, 2000)
        vals = [mirror_part(float(x), V, h, a) for x in xs]
        assert np.all(np.diff(vals) >= -1e-12)
        # continuity across the constraint boundary x_b where h*sqrt(F) = sqrt(V)
        x_b = a * math.expm1(V / (h * h))
        left = mirror_part(x_b * (1 - 1e-12), V, h, a)
        right = mirror_part(x_b * (1 + 1e-12), V, h, a)
        assert math.isclose(left, right, rel_tol=1e-9)

    def test_matches_quadrature_derivative(self):
        # the map's radial derivative is the integrand of its radial integral
        # (trapezoid rule by hand: np.trapezoid needs NumPy 2)
        V, h, a = 5.0, 1.5, 0.4
        for x in (0.3, 2.0, 40.0):
            delta = 1e-4 * max(1.0, x)
            grid = np.linspace(x - delta, x + delta, 2001)
            vals = np.array([mirror_part(float(s), V, h, a) for s in grid])
            integral = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)))
            assert math.isclose(integral / (2 * delta), mirror_part(x, V, h, a), rel_tol=1e-6)


class TestLinkInverse:
    def test_zero_maps_to_zero(self):
        reg = HuberRegularizer(c=1.0, p=2.0, alpha=1.0)
        assert link_inverse_solve(0.0, V=2.0, h=1.0, a=0.5, reg=reg) == (0.0, 0.0, 0.0)

    def test_round_trip_thousand_states(self):
        worst = 0.0
        for V, h, a, reg, x0, y in round_trip_samples():
            back = link_inverse_solve(y, V, h, a, reg)[0]
            worst = max(worst, abs(back - x0) / x0)
        assert worst <= 1e-8

    def test_matches_fifty_digit_root(self):
        # the oracle solves the piecewise link (branch chosen by x against
        # x*) at 50 digits, independently of the solver's branch decision
        worst = 0.0
        with mpmath.workdps(50):
            for V, h, a, reg, x0, theta in round_trip_samples():
                got = link_inverse_solve(theta, V, h, a, reg)[0]
                root = mp_link_root(theta, V, h, a, reg, x0)
                worst = max(worst, float(abs(got - root) / root))
        assert worst <= 1e-8

    def test_warm_start_matches_fifty_digit_root(self):
        # the learner starts each solve at its last root's offset from the
        # upper end. From any offset, near that root, far below it,
        # positive (a cold start) or below the log of the smallest double,
        # the stop rule is the cold solve's: the root is within 1e-10
        worst = {}
        with mpmath.workdps(50):
            for V, h, a, reg, x0, theta in round_trip_samples():
                if reg.c == 0.0:  # the closed form takes no start
                    continue
                root = mp_link_root(theta, V, h, a, reg, x0)
                offset = link_inverse_solve(theta, V, h, a, reg)[2]
                for start, warm in (("near", offset - 1e-3), ("far", offset - 20.0),
                                    ("positive", 0.5),
                                    ("below_log_tiny", mirror_descent._LOG_TINY - 1.0)):
                    got = link_inverse_solve(theta, V, h, a, reg, warm)[0]
                    worst[start] = max(worst.get(start, 0.0), float(abs(got - root) / root))
        assert max(worst.values()) <= 1e-10, worst

    @pytest.mark.parametrize("offset", [0.0, -0.5 * math.sqrt(mirror_descent._SOLVE_UTOL),
                                        0.5, math.inf, math.nan])
    def test_offset_above_the_warm_threshold_is_the_cold_solve(self, offset):
        # a root within sqrt(1e-10) of the upper end is one Newton step from
        # it: such an offset, and one that is no offset at all, starts there
        for V, h, a, reg, _, theta in round_trip_samples():
            warm = link_inverse_solve(theta, V, h, a, reg, offset)
            cold = link_inverse_solve(theta, V, h, a, reg)
            assert list(map(float.hex, warm)) == list(map(float.hex, cold))

    def test_warm_start_past_the_unread_upper_end_goes_there(self, monkeypatch):
        # a root that the cold solve takes at the upper end, where rounding
        # can leave it just above: from 1e-3 below, Newton aims past that
        # end, and the midpoint fallback halved its way up in up to 13
        # evaluations. The first such step goes to the upper end instead
        us = []
        monkeypatch.setattr(mirror_descent, "link_terms",
                            lambda u, *rest: us.append(u) or link_terms(u, *rest))
        most = 0
        for V, h, a, reg, _, theta in round_trip_samples():
            if reg.c == 0.0:
                continue
            us.clear()
            offset = link_inverse_solve(theta, V, h, a, reg)[2]
            cold = len(us)
            us.clear()
            link_inverse_solve(theta, V, h, a, reg, offset - 1e-3)
            most = max(most, len(us) - cold)
        assert most == 2

    def test_slope_matches_fifty_digit_derivative(self):
        # Newton still converges on a wrong slope, only more slowly, so the
        # slope gets its own oracle: d/du of the piecewise link at 50 digits
        worst = 0.0
        with mpmath.workdps(50):
            for V, h, a, reg, x0, _ in round_trip_samples():
                u = math.log(x0)
                _, _, slope = link_terms(u, math.exp(u), V, h, a, reg)
                exact = mpmath.diff(lambda v: mp_link(v, V, h, a, reg), mpmath.mpf(u))
                worst = max(worst, float(abs(slope - exact) / exact))
        assert worst <= 1e-12

    def test_underflowing_bracket_returns_zero(self):
        # at p = ln 3 the penalty inverse of a 1e-40 dual norm underflows to
        # 0.0; the solve must return the rounded root 0.0, not loop forever.
        # A subprocess with a timeout keeps a regression from hanging the suite.
        code = (
            "import numpy as np\n"
            "from robust_oco.protocol import ProtocolConfig, RobustProtocol\n"
            "p = RobustProtocol(ProtocolConfig(mode='known_g', T=3, k=1, G=1.0))\n"
            "p.round(np.array([1e-40]))\n"
            "assert p.w == 0.0\n"
        )
        src = str(Path(mirror_descent.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_branch_continuity_at_threshold(self):
        # the radius picks the piece; at x* = a(e^(V/h^2) - 1) the pieces
        # meet with mirror part 6V/h and equal slope
        rng = np.random.default_rng(55)
        for _ in range(200):
            V, h, a, reg = random_state(rng)
            z = V / (h * h)
            if z >= 700:
                continue
            u_star = math.log(a * math.expm1(z))
            below = link_terms(u_star - 1e-12, math.exp(u_star - 1e-12), V, h, a, reg)
            above = link_terms(u_star + 1e-12, math.exp(u_star + 1e-12), V, h, a, reg)
            for left, right in zip(below, above):
                assert math.isclose(left, right, rel_tol=1e-9)
            assert math.isclose(below[0], 6.0 * V / h, rel_tol=1e-9)
            assert math.isclose(_mirror_part_inverse(6.0 * V / h, V, h, a),
                                math.exp(u_star), rel_tol=1e-9)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            V, h, a, reg = random_state(rng)
            theta = float(np.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
            try:
                x, mirror, _ = link_inverse_solve(theta, V, h, a, reg)
            except SolverError:
                # only legitimate when no double-precision radius reaches
                # theta even after crediting the penalty its full asymptote
                floor = _mirror_part_inverse(max(theta - reg.c * reg.p, 0.0), V, h, a)
                assert not math.isfinite(floor)
                continue
            got = link_value(x, V, h, a, reg)
            assert abs(got - theta) <= 1e-9 * max(1.0, theta)
            # the returned mirror part is the link's, at the returned radius
            at_x = link_terms(math.log(x), x, V, h, a, reg)[0] if x > 0.0 else 0.0
            assert abs(mirror - at_x) <= 1e-9 * max(1.0, theta)

    def test_short_upper_end_moves_up(self, monkeypatch):
        # the closed-form upper end is exact only in reals; one that falls
        # short of the root moves up inside the Newton loop, and one that
        # would have to leave float range raises
        reg = HuberRegularizer(c=1.0, p=3.0, alpha=1.0)
        exact = link_inverse_solve(50.0, 4.0, 2.0, 1.0, reg)
        inverse = mirror_descent._mirror_part_inverse
        monkeypatch.setattr(mirror_descent, "_mirror_part_inverse",
                            lambda y, *rest: min(inverse(y, *rest) / 16.0, 1e300))
        x, mirror, _ = link_inverse_solve(50.0, 4.0, 2.0, 1.0, reg)
        assert math.isclose(x, exact[0], rel_tol=1e-9)
        assert math.isclose(mirror, exact[1], rel_tol=1e-9)
        with pytest.raises(SolverError, match="no representable radius"):
            link_inverse_solve(1e4, 4.0, 2.0, 1.0, reg)

    @pytest.mark.parametrize("alpha, theta, calls", [(1e6, 5.0, 1), (1.0, 50.0, 2)])
    def test_lower_end_only_when_the_upper_end_misses(self, monkeypatch, alpha, theta,
                                                      calls):
        # a large alpha leaves the penalty negligible, so the first Newton
        # evaluation, at the upper end, converges and the lower end (one more
        # subgradient inverse) is never computed
        reg = HuberRegularizer(c=1.0, p=3.0, alpha=alpha)
        inverse = reg.radial_subgradient_inverse
        seen = []
        monkeypatch.setattr(reg, "radial_subgradient_inverse",
                            lambda y: seen.append(y) or inverse(y))
        x = link_inverse_solve(theta, 4.0, 2.0, 1.0, reg)[0]
        assert seen == [theta, 0.5 * theta][:calls]
        assert abs(link_value(x, 4.0, 2.0, 1.0, reg) - theta) <= 1e-9 * theta

    def test_infinite_bracket_expands_by_doubling(self, monkeypatch):
        # theta is past both summands' float-range inverses (the mirror
        # part's is e^q at q = 711.2), so the upper end starts at the mirror
        # part's inverse at theta - c*p, 2.6e307, and doubles once: an alpha
        # near that radius keeps the penalty there below 0.93 c*p
        reg = HuberRegularizer(c=5.0, p=2.0, alpha=1e307)
        reg.advance(1.0)
        V = h = a = 1.0
        theta = 3.0 * V / h + 3.0 * 709.5 * h + 0.5 * reg.c * reg.p  # 2136.5
        calls = []
        monkeypatch.setattr(mirror_descent, "link_value",
                            lambda x, *rest: calls.append(x) or link_value(x, *rest))
        x = link_inverse_solve(theta, V, h, a, reg)[0]
        assert len(calls) == 2 and calls[1] == 2.0 * calls[0]
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
        assert float(abs(x - root) / root) <= 1e-12

    def test_sampled_root_returns_on_the_collapsed_bracket(self):
        # a sampled solve near 5.2e220 whose residual meets the tolerance but
        # never the Newton error bound: it returns once its bracket in u has
        # collapsed, within 4e-13 of the 50-digit root
        reg = HuberRegularizer(c=133796778.08689891, p=18.062983282960843,
                               alpha=1.514085707700108e+193)
        reg.advance(6.5834103654405644e-282)
        theta, V, h, a = (5126077153.844593, 196722340899667.9, 128741.55945776633,
                          3.809417993434546e-230)
        x, mirror, _ = link_inverse_solve(theta, V, h, a, reg)
        at_x, penalty, slope = link_terms(math.log(x), x, V, h, a, reg)
        resid = abs(at_x + penalty - theta)
        assert resid <= 1e-9 * theta and resid > mirror_descent._SOLVE_UTOL * slope
        assert mirror == at_x
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
        assert float(abs(x - root) / root) <= 1e-12

    def test_subnormal_root_returns_on_a_repeated_radius(self):
        # the root, 1e-318, is subnormal: neighbouring radii are 5e-324 apart,
        # so no iterate's residual meets the Newton error bound, and the
        # solve returns once an iterate repeats the last one's radius
        reg = HuberRegularizer(c=1.0, p=2.0, alpha=1.0)
        theta, V, h, a = 6e-9, 1.0, 1.0, 1e-300
        x, mirror, _ = link_inverse_solve(theta, V, h, a, reg)
        at_x, penalty, slope = link_terms(math.log(x), x, V, h, a, reg)
        resid = abs(at_x + penalty - theta)
        assert resid <= 1e-9 and resid > mirror_descent._SOLVE_UTOL * slope
        assert mirror == at_x
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
            assert abs(x - root) <= mpmath.mpf(5e-324) / 2  # the double nearest the root

    @pytest.mark.parametrize("dim", [1, 3])
    def test_subnormal_root_returns_once_the_iterate_repeats(self, dim, monkeypatch):
        # a case2 round on a 5.8e-160 gradient solves for a root near 3.5e-323:
        # the upper end overshoots it, each Newton step from the lower end
        # moves u by about 2.4e-4, too little to change exp(u) on the
        # subnormal grid, so neither the Newton bound nor the bracket exit
        # holds. The solve returns once the iterate repeats its radius
        from robust_oco.protocol import ProtocolConfig, RobustProtocol

        solves = []

        def spy(*args):
            solves.append((args, link_inverse_solve(*args)))
            return solves[-1][1]

        monkeypatch.setattr(mirror_descent, "link_inverse_solve", spy)
        g = np.zeros(dim)
        g[-1] = 5.820092518061877e-160
        protocol = RobustProtocol(
            ProtocolConfig(mode="unknown_g_case2", T=100, k=3, dim=dim, tau_G=0.5),
            comparator=np.full(dim, 0.5) if dim > 1 else 0.5,
        )
        protocol.round(g if dim > 1 else g[0], g_true=np.zeros(dim) if dim > 1 else 0.0)
        (theta, V, h, a, reg, _), (x, _, _) = solves[-1]
        assert 0.0 < x < 1e-320
        assert np.array_equal(np.atleast_1d(protocol.w), -x * (g > 0.0))
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
            assert abs(x - root) <= mpmath.mpf(5e-324)  # within one double

    @pytest.mark.parametrize("theta, V, h, a, c, p, alpha, log_S", [
        (1148.2550801639795, 3.0731043368909766e+17, 18032027.481079053, 1.2447334472658608e-304,
         2.464111538706531e+16, 1.11527032780601, 1.3917243738533338e+234, 601.2817759593927),
        (35.511318207676325, 7.898566846855617e+20, 20354158.33928757, 2.5725505326759642e-301,
         0.003811924363662937, 16.858739551028663, 3.053760314156737e+98, 3823.0515267390483),
        (6.883598345908578, 3.7933068384614973e+18, 9035836.180198992, 2.6037669629254523e-303,
         1.1230494352678972e+16, 1.6104052510925058, 4.189159093800124e+205, 993.5009476955048),
        (1.7141846836997763e-05, 7449512991244.575, 1167252.6638654827, 2.704322386700231e-299,
         1816007575938.9165, 20.070955990467883, 5.2902397396069244e+66, 3083.631022626178),
        (0.07036459787926394, 7.333225819164046e+17, 758825.2789491389, 1.5833826108981364e-300,
         91465.98151798986, 1.0855361813518614, 5.8701365262336355e-09, 573.8991925805223),
    ], ids=["root_1.48e-317", "root_1.14e-320", "root_9.04e-322", "root_2.96e-323",
            "root_2.96e-322"])
    def test_root_pinned_between_neighbouring_doubles(self, theta, V, h, a, c, p, alpha,
                                                      log_S):
        # five sampled solves (tools/link_sampler.py) with subnormal roots that
        # raised "link inversion did not converge": one subnormal step of the
        # radius moves the link by more than the tolerance, so no double meets
        # it. Once the bracket has closed to two neighbouring doubles, the solve
        # returns the one with the smaller |residual|
        reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        reg.log_S = log_S  # the state the sampled advances left; the link reads no other
        x, mirror, _ = link_inverse_solve(theta, V, h, a, reg)
        assert mirror == link_terms(math.log(x), x, V, h, a, reg)[0]
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
            assert math.nextafter(x, 0.0) <= root <= math.nextafter(x, math.inf)
            other = math.nextafter(x, math.inf if root > x else 0.0)
        resid = abs(link_value(x, V, h, a, reg) - theta)
        assert resid <= abs(link_value(other, V, h, a, reg) - theta)

    def test_subnormal_return_within_one_double_of_its_root(self):
        # the worst of tools/link_sampler.py's subnormal returns: the solve
        # returned 1.12627e-319, 15 doubles above the 50-digit root
        # 1.1255118715026011e-319. At that radius x / a is about 2.1e-321,
        # rounded to the subnormal grid, and log1p(x / a) read the link
        # 5.7e-4 (relative) below the exact one; link_terms now takes
        # sqrt(x / a) from logs there
        reg = HuberRegularizer(c=3.921766281519324e-09, p=15.528912539763363,
                               alpha=2.2758144236121477e+193)
        theta, V, h, a = (4.397663020908031e-152, 2.5215960734826616e+16, 21867960.973380487,
                          52.83043724638845)
        x = link_inverse_solve(theta, V, h, a, reg)[0]
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
            assert abs(x - root) <= mpmath.mpf(math.ulp(0.0))  # within one double

    def test_link_steeper_than_the_log_radius_grid_does_not_converge(self, monkeypatch):
        # at p = 1e5 and u = log x near 709, adjacent doubles of u move the
        # link by about 1e-8 of itself, more than the 1e-9 tolerance: no
        # iterate meets it. The bracket collapses in u with hundreds of doubles
        # of x inside it, and the solve raises as soon as no step moves u
        # (it used to run all 200 iterations)
        reg = HuberRegularizer(c=1e3, p=1e5, alpha=1e308)
        theta, V, h, a = 1e7, 1.0, 1.0, 1.0

        def resid(u):
            mirror, penalty, _ = link_terms(u, math.exp(u), V, h, a, reg)
            return mirror + penalty - theta

        lo, hi = 700.0, 709.7
        assert resid(lo) < 0.0 < resid(hi)
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if resid(mid) < 0.0 else (lo, mid)
        assert resid(lo) < -1e-9 * theta and resid(hi) > 1e-9 * theta
        us = []
        monkeypatch.setattr(mirror_descent, "link_terms",
                            lambda u, *rest: us.append(u) or link_terms(u, *rest))
        with pytest.raises(SolverError, match="^link inversion did not converge"):
            link_inverse_solve(theta, V, h, a, reg)
        assert len(us) < 20

    @pytest.mark.parametrize("theta, V, h, a, c, p, alpha", [
        # with a = 1e-60, x/a leaves float range above x = 1.8e248; the root
        # is near 1.009e250
        (5000.0, 1.0, 1.0, 1e-60, 40.0, 100.0, 1e250),
        # a sampled solve whose root, near 3.5745671e28, is 3e318 wealth scales
        (2526.1595710141028, 6.120236230280743e-05, 0.0020223939465063754,
         1.2082947959107499e-290, 8882868113633.084, 32.357089728429095, 8.050708176600356e+28),
    ], ids=["root_1e250", "root_3.6e28"])
    def test_root_where_x_over_a_leaves_float_range(self, theta, V, h, a, c, p, alpha):
        # log1p(x/a) read inf there, and the mirror part's inverse inf for
        # every q >= 709, so both solves raised "link inversion did not
        # converge"; F is now log x - log a, the radius e^(log a + q)
        reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        x, mirror, _ = link_inverse_solve(theta, V, h, a, reg)
        assert x / a == math.inf
        assert mirror == link_terms(math.log(x), x, V, h, a, reg)[0]
        with mpmath.workdps(50):
            root = mp_link_root(theta, V, h, a, reg, x)
        assert float(abs(x - root) / root) <= 1e-9

    @pytest.mark.parametrize("q", [709.0, 800.0, 1400.0, 1409.0])
    def test_mirror_part_inverse_past_q_709(self, q):
        # a * expm1(q) overflows at q = 709.8 for a = 1, but at a = 1e-300
        # the radius is representable up to q = 1400.5; the constrained
        # piece maps y = 3hq + 3V/h to q
        a, V, h = 1e-300, 1.0, 1.0
        x = _mirror_part_inverse(3.0 * h * q + 3.0 * V / h, V, h, a)
        with mpmath.workdps(50):
            exact = mpmath.mpf(a) * mpmath.expm1(q)
        if exact > sys.float_info.max:
            assert x == math.inf
        else:
            assert float(abs(x - exact) / exact) <= 1e-12
        # below q = 709 the bits are a * expm1(q)
        assert _mirror_part_inverse(3.0 * 708.5 + 3.0, V, h, a) == a * math.expm1(708.5)

    def test_link_is_zero_at_the_origin(self):
        # both summands vanish at x = 0, where log x is not taken
        reg = HuberRegularizer(c=1.0, p=2.0, alpha=1.0)
        assert link_value(0.0, 4.0, 2.0, 1.0, reg) == 0.0

    # a NaN dual norm raised SolverError, "the iterate has left float range"
    @pytest.mark.parametrize("theta_norm", [-1.0, math.nan])
    def test_negative_dual_norm_rejected(self, theta_norm):
        reg = HuberRegularizer(c=1.0, p=2.0, alpha=1.0)
        with pytest.raises(ValueError, match=f"^dual norm must be nonnegative, got {theta_norm}$"):
            link_inverse_solve(theta_norm, 1.0, 1.0, 1.0, reg)

    def test_strictly_increasing_link(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            V, h, a, reg = random_state(rng, allow_zero_scale=False)
            xs = np.exp(np.linspace(math.log(1e-6), math.log(1e4), 300))
            vals = [link_value(float(x), V, h, a, reg) for x in xs]
            assert all(b > a_ for a_, b in zip(vals, vals[1:]))


class TestMirrorDescentLearner:
    @pytest.mark.parametrize("dim", [2.5, 0, True, "3", None, -1, math.nan, 2**53])
    @pytest.mark.parametrize("build", [
        lambda dim: MirrorDescentLearner(dim, 1.0, 1.0, p=2.0),
        lambda dim: EpigraphLearner(dim, 1.0, 2.0, 0.5, c=1.0, p=2.0),
    ], ids=["mirror_descent", "epigraph"])
    def test_dim_refused_naming_it(self, build, dim):
        # dim was taken unchecked: 2.5, "3" and None raised numpy's errors,
        # 0 built a learner whose every observe failed, True a d = 1 learner
        with pytest.raises(ValueError, match=re.escape(
            f"dim must be an integer in [1, 2**53), got {dim!r}") + "$"):
            build(dim)

    def test_first_prediction_is_origin(self):
        md = MirrorDescentLearner(3, epsilon=1.0, initial_hint=1.0, p=2.0)
        assert np.array_equal(np.atleast_1d(md.w), np.zeros(3))

    def test_zero_gradient_keeps_origin(self):
        md = MirrorDescentLearner(2, epsilon=1.0, initial_hint=1.0, p=2.0)
        md.observe(np.zeros(2), 1.0)
        assert np.array_equal(np.atleast_1d(md.w), np.zeros(2))

    def test_iterates_oppose_constant_gradient(self):
        md = MirrorDescentLearner(1, epsilon=1.0, initial_hint=1.0, c=0.0, p=math.log(10))
        for _ in range(10):
            md.observe(np.array([1.0]), 1.0)
            assert np.atleast_1d(md.w)[0] <= 0.0

    def test_determinism_across_instances(self):
        rng = np.random.default_rng(6)
        gs = rng.uniform(-1, 1, 50)
        md1 = MirrorDescentLearner(1, 1.0, 1.0, c=2.0, p=3.0, alpha=0.5)
        md2 = MirrorDescentLearner(1, 1.0, 1.0, c=2.0, p=3.0, alpha=0.5)
        for g in gs:
            md1.observe(np.array([g]), 1.0)
            md2.observe(np.array([g]), 1.0)
            assert np.array_equal(np.atleast_1d(md1.w), np.atleast_1d(md2.w))

    def test_interleaved_learners_match_each_alone(self):
        # the warm start's offset is each learner's own state, with no cache
        # shared between learners: two learners on different streams, stepped
        # in turn, give each one's lone run bit for bit
        rng = np.random.default_rng(8)
        streams = [rng.uniform(-1.0, 0.2, 300), rng.uniform(-0.55, 0.05, (300, 3))]

        def build(i):
            return MirrorDescentLearner(1 + 2 * i, 1.0, 1.0, c=70.0 / (1 + i),
                                        p=math.log(4900), alpha=1.0 / 70.0)

        alone = []
        for i, stream in enumerate(streams):
            md, bits = build(i), []
            for g in stream:
                md.observe(g, 1.0)
                bits.append(state_bits(md))
            alone.append(bits)
        pair, warm = [build(0), build(1)], [0, 0]
        for t, gs in enumerate(zip(*streams)):
            for i, md in enumerate(pair):
                warm[i] += md.root_offset < mirror_descent._WARM_OFFSET
                md.observe(gs[i], 1.0)
                assert state_bits(md) == alone[i][t]
        assert min(warm) >= 50  # each learner warm-starts in at least 50 rounds

    def test_warm_start_cuts_link_evaluations(self, monkeypatch):
        # the known_g preset at T = 4,900 and k = 70 on a constant gradient:
        # the root settles about 2e-2 below the upper end in log radius, and
        # a solve started there takes one Newton step instead of three
        calls = []
        monkeypatch.setattr(mirror_descent, "link_terms",
                            lambda *args: calls.append(None) or link_terms(*args))

        def run(warm):
            md = MirrorDescentLearner(1, 1.0, 1.0, c=70.0, p=math.log(4900), alpha=1.0 / 70.0)
            path = []
            for t in range(400):
                if t == 200:
                    calls.clear()
                if not warm:
                    md.root_offset = 0.0
                md.observe(-1.0, 1.0)
                path.append(md.w)
            return len(calls) / 200, path

        (warm, warm_path), (cold, cold_path) = run(True), run(False)
        assert warm <= 2.5 and cold == 4.0
        assert max(abs(x - y) / abs(y) for x, y in zip(warm_path, cold_path) if y) <= 1e-9

    def test_rejects_oversized_gradient(self):
        md = MirrorDescentLearner(1, 1.0, 1.0, p=2.0)
        with pytest.raises(ValueError):
            md.observe(np.array([1.5]), 1.0)

    def test_near_overflow_gradient_rejected_without_warning(self):
        md = MirrorDescentLearner(1, epsilon=1.0, initial_hint=1.0, p=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the promised hint"):
                md.observe(np.array([1e200]), 1.0)
        assert md.t == 0

    def test_subnormal_epsilon_rejected_at_construction(self):
        # the wealth scale epsilon / (sqrt(B) ln(B)^2) underflows to 0 and
        # the link takes log(a): a clean error, not a math domain error
        with pytest.raises(ValueError, match="wealth scale underflows"):
            MirrorDescentLearner(1, epsilon=5e-324, initial_hint=1.0, p=2.0)

    def test_wealth_scale_underflow_after_growth_leaves_state_unchanged(self):
        # a = 1e-322 / 30.7 still rounds to one subnormal at B = 16, but
        # not at B = 32 after the first round
        md = MirrorDescentLearner(1, epsilon=1e-322, initial_hint=1.0, p=2.0)
        assert md._wealth_scale(md.B) == 5e-324
        before = state_bits(md)
        with pytest.raises(ValueError, match="wealth scale underflows"):
            md.observe(np.array([-1.0]), 1.0)
        assert state_bits(md) == before
        assert np.array_equal(np.atleast_1d(md.w), [0.0])

    def test_rejects_decreasing_hints(self):
        md = MirrorDescentLearner(1, 1.0, 2.0, p=2.0)
        with pytest.raises(ValueError):
            md.observe(np.array([0.5]), 1.0)

    def test_exponential_growth_never_emits_non_finite(self):
        # constant gradient drives the iterate exponentially; the learner
        # must either keep producing finite iterates or raise the clean
        # solver error, never leak NaN/Inf
        md = MirrorDescentLearner(1, epsilon=1.0, initial_hint=1.0, c=0.0,
                                  p=math.log(50_000))
        for _ in range(50_000):
            try:
                md.observe(np.array([-1.0]), 1.0)
            except SolverError:
                assert norm(np.atleast_1d(md.w)) > 1e250  # died of genuine overflow
                break
            assert np.isfinite(np.atleast_1d(md.w)).all()

    @pytest.mark.parametrize("corrupt", [math.nan, math.inf], ids=["nan_entry", "inf_entry"])
    def test_non_finite_dual_accumulator_leaves_state_unchanged(self, corrupt):
        # the dual accumulator is checked through its norm; a NaN or Inf
        # entry in the stored mirror-map gradient must still raise before
        # any scalar state moves
        md = MirrorDescentLearner(2, epsilon=1.0, initial_hint=1.0, c=1.0, p=3.0)
        md.observe(np.array([0.3, -0.4]), 1.0)
        md.observe(np.array([0.1, 0.2]), 1.5)
        md.mirror_grad = np.array([corrupt, -2.0])
        before = state_bits(md)
        with pytest.raises(NonFiniteError, match="dual accumulator"):
            md.observe(np.array([0.5, 0.5]), 2.0)
        assert state_bits(md) == before

    @pytest.mark.parametrize("d", [1, 16, 17, 256])
    def test_kept_iterate_norm_is_the_norm_of_the_iterate(self, d):
        rng = np.random.default_rng(d)
        md = MirrorDescentLearner(d, epsilon=1.0, initial_hint=1.0, c=2.0,
                                  p=math.log(100))
        assert md.w_norm == norm(np.atleast_1d(md.w)) == 0.0
        for t in range(60):
            if t == 1:
                # theta = mirror_grad - g = 0: the zero-dual branch, from a
                # nonzero iterate
                g = np.atleast_1d(md.mirror_grad).copy()
            else:
                g = rng.standard_normal(d)
                g *= rng.uniform(0.0, 1.0) / norm(g)
            md.observe(g, 1.0)
            assert md.w_norm == norm(np.atleast_1d(md.w))
            assert (md.w_norm == 0.0) is (t == 1)

    @pytest.mark.parametrize("radius, gradient, error, message", [
        (math.inf, [0.3, -0.4], NonFiniteError, "mirror descent iterate"),
        (math.nan, [0.3, -0.4], NonFiniteError, "mirror descent iterate"),
        (sys.float_info.max, [-1.5 / math.sqrt(26)] * 26, SolverError,
         "no representable radius"),
    ], ids=["inf", "nan", "overflowing_norm"])
    def test_non_finite_iterate_names_the_learner(
        self, monkeypatch, radius, gradient, error, message
    ):
        # the iterate is checked through its norm; a radius that leaves float
        # range still raises the entrywise check's message. The largest
        # double along a dual norm of 1.5 at d = 26 gives finite entries
        # whose norm overflows: the entrywise check passes them, and the
        # learner raises its float-range SolverError
        monkeypatch.setattr(
            mirror_descent, "link_inverse_solve", lambda theta, *args: (radius, theta, 0.0)
        )
        md = MirrorDescentLearner(len(gradient), epsilon=1.0, initial_hint=2.0, c=1.0, p=3.0)
        before = state_bits(md)
        with pytest.raises(error, match=message):
            md.observe(np.array(gradient), 2.0)
        assert state_bits(md) == before

    def test_penalty_caps_exponential_growth(self):
        # same stream with the composite penalty active: the run completes
        # and the iterate stays far below float range
        md = MirrorDescentLearner(1, epsilon=1.0, initial_hint=1.0, c=2.0,
                                  p=math.log(20_000), alpha=0.5)
        for _ in range(20_000):
            md.observe(np.array([-1.0]), 1.0)
        assert np.isfinite(np.atleast_1d(md.w)).all()

    def test_given_gradient_norm_skips_the_coercion_bit_for_bit(self):
        rng = np.random.default_rng(21)
        coerced = MirrorDescentLearner(17, 1.0, 1.0, c=2.0, p=math.log(300))
        given_norm = MirrorDescentLearner(17, 1.0, 1.0, c=2.0, p=math.log(300))
        for _ in range(300):
            g = rng.standard_normal(17)
            g *= rng.uniform(0.0, 1.0) / norm(g)
            coerced.observe(g, 1.0)
            given_norm.observe(g, 1.0, norm(g))
            assert state_bits(coerced) == state_bits(given_norm)

    @pytest.mark.parametrize("hint", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_hint_rejected_before_any_state_moves(self, hint):
        rng = np.random.default_rng(5)
        md = MirrorDescentLearner(3, epsilon=1.0, initial_hint=1.0, c=1.0, p=3.0)
        for _ in range(20):
            md.observe(rng.uniform(-0.5, 0.5, 3), 1.0)
        before = state_bits(md)
        with pytest.raises(ValueError, match=f"hint must be finite, got {hint}"):
            md.observe(np.array([0.3, -0.2, 0.1]), hint)
        assert state_bits(md) == before


def shared_bits(md) -> bytes:
    """The state both forms of a mirror descent learner keep, as bytes: its
    floats and 1-entry arrays alike, its round and its penalty's state."""
    reg = md.reg
    values = [md.w, md.mirror_grad, md.w_norm, md.h, md.C, md.N, md.B,
              reg.log_S, reg.last_iterate_norm, reg.t]
    return b"".join(
        np.asarray(v, dtype=np.float64).tobytes() for v in values
    ) + md.t.to_bytes(8, "little")


def on_arrays(md):
    """A fresh d = 1 learner switched to 1-entry float64 arrays, the form it used to run on."""
    md.kernels = ARRAY
    md.w, md.mirror_grad = np.zeros(1), np.zeros(1)
    return md


def scalar_pair(epsilon=0.7, hint=1.5, c=0.0, p=2.0):
    """The d = 1 learner on floats and the same learner on 1-entry arrays."""
    return (
        MirrorDescentLearner(1, epsilon, hint, c=c, p=p),
        on_arrays(MirrorDescentLearner(1, epsilon, hint, c=c, p=p)),
    )


def raised(observe, *args):
    with pytest.raises(Exception) as info:
        observe(*args)
    return type(info.value), str(info.value)


class TestFloatRepresentation:
    """The d = 1 learner on Python floats against the same learner on 1-entry arrays."""

    @pytest.mark.parametrize("c, p", [(0.0, 2.0), (2.0, math.log(2500))],
                             ids=["penalty_off", "penalty_p_ln_T"])
    def test_matches_the_vector_learner_bit_for_bit(self, c, p):
        # signed zeros, exact zero duals (g equal to the mirror-map gradient,
        # from the origin and from a nonzero iterate) and doubling hints
        rng = np.random.default_rng(15)
        fast, ref = scalar_pair(c=c, p=p)
        zero_duals = nonzero_before_zero = 0
        for t in range(2500):
            u = rng.uniform()
            if u < 0.15:
                # walk the dual back to exactly zero: theta = mirror_grad - g
                # vanishes once |mirror_grad| is within the hint
                g = math.copysign(min(abs(fast.mirror_grad), fast.h), fast.mirror_grad)
            elif u < 0.2:
                g = [0.0, -0.0][t % 2]
            else:
                g = float(rng.uniform(-1.0, 1.0)) * fast.h
            hint = 2.0 * fast.h if t % 250 == 249 else fast.h
            if fast.mirror_grad - g == 0.0:
                zero_duals += 1
                nonzero_before_zero += fast.w != 0.0
            fast.observe(g, hint)
            ref.observe(np.array([g]), hint)
            assert shared_bits(fast) == shared_bits(ref), t
            assert type(fast.w) is float and type(fast.mirror_grad) is float
            assert np.atleast_1d(fast.w).tobytes() == np.atleast_1d(ref.w).tobytes()
        assert zero_duals > 50 and nonzero_before_zero > 50, zero_duals
        assert fast.h == 1.5 * 2.0**10

    @pytest.mark.parametrize(
        "g, hint",
        [(math.nan, 1.5), (math.inf, 1.5), (-math.inf, 1.5), (1.6, 1.5),
         (-1e200, 1.5), (0.5, 1.0), (0.5, math.nan), (0.5, math.inf)],
        ids=["nan", "inf", "-inf", "above_hint", "near_overflow",
             "decreasing_hint", "nan_hint", "inf_hint"],
    )
    def test_rejects_what_the_vector_learner_rejects(self, g, hint):
        fast, ref = scalar_pair()
        fast.observe(-0.75, 1.5)
        ref.observe(np.array([-0.75]), 1.5)
        before = state_bits(fast)
        assert raised(fast.observe, g, hint) == raised(ref.observe, np.array([g]), hint)
        assert state_bits(fast) == before

    @pytest.mark.parametrize("corrupt", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_dual_accumulator_raises_as_the_vector_learner(self, corrupt):
        fast, ref = scalar_pair()
        fast.mirror_grad, ref.mirror_grad = corrupt, np.array([corrupt])
        before = state_bits(fast)
        assert raised(fast.observe, 0.5, 1.5) == raised(ref.observe, np.array([0.5]), 1.5)
        assert state_bits(fast) == before

    @pytest.mark.parametrize("radius", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_iterate_raises_as_the_vector_learner(self, monkeypatch, radius):
        monkeypatch.setattr(
            mirror_descent, "link_inverse_solve", lambda theta, *args: (radius, theta, 0.0)
        )
        fast, ref = scalar_pair()
        before = state_bits(fast), state_bits(ref)
        assert raised(fast.observe, -0.5, 1.5) == raised(ref.observe, np.array([-0.5]), 1.5)
        assert (state_bits(fast), state_bits(ref)) == before

    @pytest.mark.parametrize("scalar", [False, True], ids=["vector", "scalar"])
    def test_float_range_exit_leaves_state_unchanged(self, scalar):
        # a constant gradient with the penalty off drives the iterate past
        # float range at round 26,152, after an iterate of norm 1.789e308;
        # the failed solve moves no state. It raised at round 25,525, after
        # 5.03e300, while the closed form read inf for every q >= 709
        fast, ref = scalar_pair(epsilon=1.0, hint=1.0)
        md, g = (fast, -1.0) if scalar else (ref, np.array([-1.0]))
        for _ in range(26_151):
            md.observe(g, 1.0)
        assert md.w_norm > 1.789e308
        before = state_bits(md)
        message = "no representable radius reaches dual norm 26152.0"
        with pytest.raises(SolverError, match=message):
            md.observe(g, 1.0)
        assert state_bits(md) == before

    def test_solves_through_the_closed_form(self, monkeypatch):
        calls = []
        solve = mirror_descent.link_inverse_solve

        def counted(theta_norm, V, h, a, reg, offset):
            calls.append(reg.c)
            return solve(theta_norm, V, h, a, reg, offset)

        monkeypatch.setattr(mirror_descent, "link_inverse_solve", counted)
        fast = MirrorDescentLearner(1, 1.0, 1.5, c=0.0, p=2.0)
        for g in (0.5, -0.25, 0.0):
            fast.observe(g, 1.5)
        assert calls == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["epsilon", "initial_hint"])
@pytest.mark.parametrize("cls", ["vector", "scalar"])
def test_constructor_rejects_non_positive_or_non_finite(cls, field, bad):
    kw = {"epsilon": 1.0, "initial_hint": 1.0, field: bad}
    name = "wealth scale epsilon" if field == "epsilon" else "initial hint"
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        MirrorDescentLearner(2 if cls == "vector" else 1, p=2.0, **kw)


@pytest.mark.parametrize("setting, stem", [
    ({"p": math.nan}, "power p must be above 1"),
    ({"p": math.inf}, "power p must be above 1"),
    ({"alpha": math.inf}, "offset alpha must be positive"),
    ({"c": math.inf}, "scale c must be nonnegative"),
    ({"c": math.nan}, "scale c must be nonnegative"),
])
def test_constructor_rejects_non_finite_penalty_setting(setting, stem):
    # each used to construct: p = nan, alpha = inf and c = inf then ran
    # silently (the iterate stuck at 0, or log_S NaN or inf), c = nan and
    # p = inf ended in an unrelated SolverError from the link inversion
    kw = {"c": 1.0, "p": 2.0, "alpha": 1.0, **setting}
    with pytest.raises(ValueError, match=f"^{stem}"):
        MirrorDescentLearner(1, 1.0, 1.0, **kw)


def composite_regret(T, u, G, seed, epsilon=1.0, k=5, origin_adversarial=False):
    """Run the learner on a bounded stream, returning its composite regret."""
    rng = np.random.default_rng(seed)
    p = math.log(T)
    c, alpha = k * G, epsilon / k
    md = MirrorDescentLearner(1, epsilon, initial_hint=G, c=c, p=p, alpha=alpha)
    reg = HuberRegularizer(c=c, p=p, alpha=alpha)
    total = 0.0
    for _ in range(T):
        w = np.atleast_1d(md.w)
        if origin_adversarial:
            g = np.array([G if w[0] > 0 else -G])
        else:
            g = np.array([rng.uniform(-G, G)])
        w_norm = abs(float(w[0]))
        reg.advance(w_norm)
        total += float(g[0] * (w[0] - u)) + reg.evaluate(w_norm) - reg.evaluate(abs(u))
        md.observe(g, G)
    return total


class TestCompositeRegret:
    def test_normalized_bound_across_grid(self):
        # composite regret / (eps*G + |u| G sqrt(T) polylog^2) stays below one
        # fixed constant over horizons, comparators, and gradient scales
        for T in (100, 1000, 10000):
            for u in (0.0, 1.0, -1.0, 100.0, -100.0):
                for G in (1.0, 10.0):
                    comp = composite_regret(T, u, G, seed=42)
                    denom = G + abs(u) * G * math.sqrt(T) * (
                        1 + math.log(1 + abs(u) * T)
                    ) ** 2
                    assert comp / denom <= 1.0, (T, u, G, comp / denom)

    def test_origin_regret_constant_in_horizon(self):
        for T in (200, 2000):
            for G in (1.0, 10.0):
                comp = composite_regret(T, 0.0, G, seed=1, origin_adversarial=True)
                assert comp <= 8.0 * G  # 8 * epsilon * h_T with epsilon = 1
