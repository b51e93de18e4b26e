import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_oco.harness.checks import check_sum_bounds
from robust_oco.regularizer import HuberRegularizer, _logaddexp


def make_state(c=1.0, p=2.0, alpha=1.0, norms=()):
    reg = HuberRegularizer(c=c, p=p, alpha=alpha)
    for n in norms:
        reg.advance(n)
    return reg


def S(reg):
    """The running power sum, from the log_S the formulas read."""
    return math.exp(reg.log_S)


def subgradient(reg, x):
    """The penalty subgradient norm at radius x > 0, as the link evaluates it."""
    return reg.radial_subgradient_log(math.log(x))[0]


@pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_power_at_most_one_rejected_by_name(c, p):
    # p > 1 is the one regime (the protocol's p = ln T, T >= 3), also when
    # the penalty is off
    with pytest.raises(ValueError, match=f"^power p must be above 1 and finite, got {p}$"):
        HuberRegularizer(c=c, p=p, alpha=1.0)


class TestAdvance:
    def test_fresh_state_holds_offset_power(self):
        reg = make_state(alpha=1.0, p=2.0, norms=[0.0])
        assert math.isclose(S(reg), 1.0)

    def test_accumulates_powers(self):
        reg = make_state(alpha=1.0, p=2.0, norms=[2.0, 3.0])
        assert math.isclose(S(reg), 1.0 + 4.0 + 9.0)

    def test_zero_norm_is_noop_on_sum(self):
        reg = make_state(alpha=1.0, p=2.0, norms=[2.0])
        s = S(reg)
        reg.advance(0.0)
        assert S(reg) == s
        assert reg.last_iterate_norm == 0.0

    def test_sum_nondecreasing_and_floored_at_offset_power(self):
        rng = np.random.default_rng(0)
        reg = make_state(alpha=0.5, p=3.0, norms=[0.1])
        prev = S(reg)
        for n in rng.uniform(0, 2, 100):
            reg.advance(float(n))
            assert S(reg) >= prev
            assert S(reg) >= 0.5**3
            prev = S(reg)


    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf], ids=["nan", "neg", "inf"])
    def test_invalid_norm_rejected(self, c, bad):
        # c = 0 skips the log-space fold, not the input check
        reg = make_state(c=c)
        with pytest.raises(ValueError, match="invalid iterate norm"):
            reg.advance(bad)
        assert reg.t == 0 and reg.last_iterate_norm == 0.0

    def test_disabled_penalty_reads_zero_after_advances(self):
        reg = make_state(c=0.0, p=3.0, norms=[0.5, 2.0, 1e300])
        assert reg.t == 3 and reg.last_iterate_norm == 1e300
        assert reg.evaluate(4.0) == 0.0
        assert reg.radial_subgradient_log(math.log(4.0)) == (0.0, 0.0)
        assert reg.radial_subgradient_inverse(0.5) == math.inf


class TestEvaluate:
    def test_zero_point(self):
        reg = make_state(c=3.0, p=4.0, alpha=0.7, norms=[1.0, 2.0])
        assert reg.evaluate(0.0) == 0.0

    def test_zero_while_last_iterate_is_origin(self):
        # the linear branch's slope carries 0^(p-1) = 0 at p > 1; it was
        # computed as c * lin * 0.0 * exp(-log_denom), which raised
        # OverflowError here, where log_denom = 3 ln(1e-300) < -709
        reg = make_state(c=3.0, p=4.0, alpha=1e-300, norms=[0.0])
        for w in (0.0, 1e-300, 1.0, 1e300):
            assert reg.evaluate(w) == 0.0

    def test_branch_continuity_at_knot(self):
        reg = make_state(c=1.5, p=3.0, alpha=0.4, norms=[0.9, 1.3])
        wt = reg.last_iterate_norm
        below = reg.evaluate(wt * (1 - 1e-9))
        at = reg.evaluate(wt)
        above = reg.evaluate(wt * (1 + 1e-9))
        assert math.isclose(below, at, rel_tol=1e-6)
        assert math.isclose(above, at, rel_tol=1e-6)
        assert math.isclose(at, 1.5 * wt**3.0 / S(reg) ** (1 - 1 / 3.0), rel_tol=1e-12)

    # a NaN subgradient norm returned a NaN radius
    @pytest.mark.parametrize("y", [-1.0, math.nan])
    def test_negative_subgradient_norm_rejected(self, y):
        with pytest.raises(ValueError, match=f"^subgradient norm must be nonnegative, got {y}$"):
            make_state().radial_subgradient_inverse(y)

    # a NaN norm gave a NaN penalty, and -1.0 "math domain error"
    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["c0", "c1"])
    @pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "neg"])
    def test_invalid_norm_rejected(self, c, bad):
        reg = make_state(c=c, norms=[1.0])
        with pytest.raises(ValueError, match=f"^invalid iterate norm {bad}$"):
            reg.evaluate(bad)

    def test_requires_one_advance(self):
        reg = make_state()
        with pytest.raises(ValueError):
            reg.evaluate(1.0)

    @given(
        st.floats(0.1, 5.0), st.floats(1.0, 8.0, exclude_min=True), st.floats(0.05, 3.0),
        st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_midpoint_convexity_along_rays(self, c, p, alpha, x, y, lam):
        reg = make_state(c=c, p=p, alpha=alpha, norms=[1.0, 0.7])
        mid = lam * x + (1 - lam) * y
        lhs = reg.evaluate(mid)
        rhs = lam * reg.evaluate(x) + (1 - lam) * reg.evaluate(y)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    def test_lipschitz_on_linear_branch(self):
        # beyond the knot the slope is exactly c*p*||w_t||^(p-1)/S^(1-1/p)
        reg = make_state(c=2.0, p=3.0, alpha=0.5, norms=[0.6, 1.1])
        wt = reg.last_iterate_norm
        slope_bound = 2.0 * 3.0 * wt ** 2.0 / S(reg) ** (1 - 1 / 3.0)
        x = 2.0
        fd = (reg.evaluate(x + 1e-6) - reg.evaluate(x)) / 1e-6
        assert fd <= slope_bound * (1 + 1e-6)


class TestRadialSubgradient:
    def test_closed_form_value(self):
        # c=1, p=2, S=1, x=1 -> 2 / sqrt(2)
        reg = make_state(c=1.0, p=2.0, alpha=1.0)
        assert math.isclose(subgradient(reg, 1.0), math.sqrt(2.0), rel_tol=1e-12)

    def test_monotone_and_bounded(self):
        reg = make_state(c=2.0, p=4.0, alpha=0.5, norms=[1.0, 3.0])
        xs = np.linspace(0, 50, 500)[1:]
        vals = [subgradient(reg, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= 2.0 * 4.0 + 1e-12 for v in vals)

    def test_matches_derivative_of_power_branch(self):
        # the next-round slope at x equals the derivative of the penalty
        # whose running sum has absorbed x^p, taken at the knot; the knot is
        # only C1, so Richardson extrapolation removes the O(h) error of the
        # central difference there
        reg = make_state(c=1.3, p=3.0, alpha=0.8, norms=[1.0, 2.0])
        x = 0.5
        reg2 = make_state(c=1.3, p=3.0, alpha=0.8, norms=[1.0, 2.0, x])

        def central(h):
            return (reg2.evaluate(x + h) - reg2.evaluate(x - h)) / (2 * h)

        fd = 2.0 * central(5e-7) - central(1e-6)
        assert math.isclose(fd, subgradient(reg, x), rel_tol=1e-6)


class TestRadialSubgradientInverse:
    def test_zero(self):
        reg = make_state(c=2.0, p=3.0, alpha=1.0)
        assert reg.radial_subgradient_inverse(0.0) == 0.0

    def test_asymptote_is_unbounded(self):
        reg = make_state(c=2.0, p=3.0, alpha=1.0)
        assert reg.radial_subgradient_inverse(2.0 * 3.0) == math.inf
        assert reg.radial_subgradient_inverse(100.0) == math.inf

    @pytest.mark.parametrize("y", [5e-324, 1e-310, 3e-308])
    def test_subnormal_norm_matches_fifty_digit_inverse(self, y):
        # y / (c p) underflows for a subnormal y; the radius does not
        reg = make_state(c=20.0, p=math.log(1e6), alpha=0.05, norms=[0.5])
        with mpmath.workdps(50):
            p = mpmath.mpf(reg.p)
            r = (mpmath.mpf(y) / (mpmath.mpf(reg.c) * p)) ** (p / (p - 1))
            x = (mpmath.exp(mpmath.mpf(reg.log_S)) * r / (1 - r)) ** (1 / p)
        got = reg.radial_subgradient_inverse(y)
        assert got > 0.0
        assert math.isclose(got, float(x), rel_tol=1e-12)

    @given(
        st.floats(0.05, 10.0), st.floats(1.2, 9.0), st.floats(0.05, 4.0),
        st.floats(-6.0, 6.0),
    )
    @settings(max_examples=500)
    def test_round_trip(self, c, p, alpha, log_x):
        reg = make_state(c=c, p=p, alpha=alpha, norms=[0.5, 1.5])
        x = math.exp(log_x)
        y = subgradient(reg, x)
        if y >= c * p * (1.0 - 1e-5):
            return  # within float epsilon of the asymptote the map is singular
        back = reg.radial_subgradient_inverse(y)
        assert math.isclose(back, x, rel_tol=1e-9)


class TestAgainstNaiveFormulas:
    """Log-space arithmetic must agree with direct evaluation where both work."""

    @given(
        st.floats(0.1, 5.0), st.floats(1.1, 6.0), st.floats(0.1, 3.0),
        st.lists(st.floats(0.01, 4.0), min_size=1, max_size=5),
        st.floats(0.001, 8.0),
    )
    @settings(max_examples=300)
    def test_evaluate_matches_direct_formula(self, c, p, alpha, norms, w):
        reg = make_state(c=c, p=p, alpha=alpha, norms=norms)
        S = alpha**p + sum(n**p for n in norms)
        wt = norms[-1]
        if w <= wt:
            sigma = w**p
        else:
            sigma = (p * w - (p - 1) * wt) * wt ** (p - 1)
        assert math.isclose(reg.evaluate(w), c * sigma / S ** (1 - 1 / p), rel_tol=1e-12)

    @given(
        st.floats(0.1, 5.0), st.floats(1.1, 6.0), st.floats(0.1, 3.0),
        st.floats(0.001, 50.0),
    )
    @settings(max_examples=300)
    def test_radial_subgradient_matches_direct_formula(self, c, p, alpha, x):
        reg = make_state(c=c, p=p, alpha=alpha, norms=[0.5, 2.0])
        S = alpha**p + 0.5**p + 2.0**p
        direct = c * p * x ** (p - 1) / (S + x**p) ** (1 - 1 / p)
        assert math.isclose(subgradient(reg, x), direct, rel_tol=1e-12)


def uncached_radial_subgradient_log(reg, log_x):
    """radial_subgradient_log with log(c*p) and 1 - 1/p computed on the call."""
    if reg.c == 0.0:
        return 0.0, 0.0
    p, log_S = reg.p, reg.log_S
    ls = _logaddexp(log_S, p * log_x)
    r = math.exp(math.log(reg.c * p) + (p - 1.0) * log_x - (1.0 - 1.0 / p) * ls)
    return r, r * (p - 1.0) * math.exp(log_S - ls)


def uncached_evaluate(reg, w_norm):
    """evaluate with 1 - 1/p computed on the call."""
    c, p, wt = reg.c, reg.p, reg.last_iterate_norm
    if c == 0.0 or w_norm == 0.0 or wt == 0.0:
        return 0.0
    log_denom = (1.0 - 1.0 / p) * reg.log_S
    if w_norm <= wt:
        return c * math.exp(p * math.log(w_norm) - log_denom)
    lin = p * w_norm - (p - 1.0) * wt
    return c * lin * math.exp((p - 1.0) * math.log(wt) - log_denom)


def outcome_bits(fn, *args):
    """fn's floats as bytes, NaNs included, or the type of its OverflowError."""
    try:
        return np.array(fn(*args), dtype=np.float64).tobytes()
    except OverflowError as exc:
        return type(exc)


class TestConstantsComputedOnce:
    """The constructor computes log(c*p) and 1 - 1/p once; the formulas keep their bits."""

    # c*p runs from the smallest subnormals (5e-324 * p) past the largest double
    EDGE_C = (0.0, 5e-324, 1e-310, 1e-300, 1e300, 1.7976931348623157e308)

    def samples(self, count=3000, seed=30):
        rng = np.random.default_rng(seed)
        for i in range(count):
            if i % 3 == 0:
                c = self.EDGE_C[i // 3 % len(self.EDGE_C)]
            else:
                c = float(10.0 ** rng.uniform(-320.0, 308.0))
            p = 1.0 + float(10.0 ** rng.uniform(-9.0, 6.0))
            alpha = float(10.0 ** rng.uniform(-300.0, 300.0))
            norms = [0.0 if u < 0.1 else float(10.0 ** (300.0 * u - 150.0))
                     for u in rng.uniform(size=int(rng.integers(1, 4)))]
            yield make_state(c=c, p=p, alpha=alpha, norms=norms), rng

    def test_radial_subgradient_keeps_the_bits_of_the_uncached_formula(self):
        for reg, rng in self.samples():
            for log_x in (-math.inf, *rng.uniform(-800.0, 800.0, size=4)):
                assert outcome_bits(reg.radial_subgradient_log, log_x) == outcome_bits(
                    uncached_radial_subgradient_log, reg, log_x), (reg, log_x)

    def test_evaluate_keeps_the_bits_of_the_uncached_formula(self):
        for reg, rng in self.samples():
            for w in (0.0, reg.last_iterate_norm, *10.0 ** rng.uniform(-300.0, 300.0, size=3)):
                assert outcome_bits(reg.evaluate, float(w)) == outcome_bits(
                    uncached_evaluate, reg, float(w)), (reg, w)


class TestLogAddExp:
    """log(e^a + e^b); the one guard is for a smaller argument of -inf."""

    @pytest.mark.parametrize("b", [-745.0, -1.0, -0.0, 0.0, 3.5, 709.0, math.inf])
    def test_one_sided_minus_inf_is_the_other_argument(self, b):
        for args in ((-math.inf, b), (b, -math.inf)):
            got = _logaddexp(*args)
            assert math.copysign(1.0, got) == math.copysign(1.0, b) and got == b
            # the general formula gives the same value; only at b = -0.0
            # does it differ, in the sign of the zero
            assert got == b + math.log1p(math.exp(-math.inf - b))

    def test_both_minus_inf_is_minus_inf(self):
        assert _logaddexp(-math.inf, -math.inf) == -math.inf
        # where the general formula gives NaN
        assert math.isnan(-math.inf + math.log1p(math.exp(-math.inf - -math.inf)))

    def test_finite_arguments_use_the_formula(self):
        for a, b in ((0.0, 0.0), (-3.0, 2.0), (700.0, -700.0), (1e300, 1e300)):
            hi, lo = max(a, b), min(a, b)
            assert _logaddexp(a, b) == _logaddexp(b, a) == hi + math.log1p(math.exp(lo - hi))


class TestSumBounds:
    def test_horizon_below_3_refused(self):
        with pytest.raises(ValueError, match="^the envelope is stated for horizons T >= 3$"):
            check_sum_bounds([1.0, 2.0], 1.0, c=1.0, alpha=0.1, T=2)

    def test_all_zero_iterates(self):
        ok_lower, ok_upper = check_sum_bounds([0.0] * 10, 1.0, c=1.0, alpha=0.1, T=10)
        assert ok_lower and ok_upper

    def test_random_trace(self):
        rng = np.random.default_rng(8)
        norms = rng.uniform(0, 3, 100).tolist()
        ok_lower, ok_upper = check_sum_bounds(norms, 2.0, c=1.0, alpha=0.1, T=100)
        assert ok_lower and ok_upper

    def test_zero_comparator(self):
        norms = [1.0, 2.0, 0.5] * 4
        ok_lower, ok_upper = check_sum_bounds(norms, 0.0, c=1.0, alpha=0.5, T=12)
        assert ok_lower and ok_upper

    def test_huge_comparator_power_is_stable(self):
        # (u/alpha)^p overflows naive pow at p = ln(1000); log-space must hold
        norms = [1.0] * 1000
        ok_lower, ok_upper = check_sum_bounds(norms, 1e40, c=2.0, alpha=1e-3, T=1000)
        assert ok_lower and ok_upper
