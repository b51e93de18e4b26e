import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_oco.core import (
    SMALL_DIM,
    CorruptionLedger,
    NonFiniteError,
    RegretLedger,
    as_vector,
    as_vector_norm,
    clip_gradient,
    dot,
    ensure_finite,
    norm,
)

# both sides of the small-vector gate
GATE_DIMS = (1, 2, SMALL_DIM, SMALL_DIM + 1, 256)
TINY = 2.0**-1074  # smallest subnormal
ULP = 2.0**-53


def clip(g, h):
    """clip_gradient as its callers use it: with the norm of g."""
    return clip_gradient(g, h, norm(g))


def exact_norm(v) -> float:
    """The Euclidean norm to 50 digits, rounded once to a double."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in v)))


def log_uniform_vector(rng, d, lo_exp, hi_exp) -> np.ndarray:
    """Random signs, magnitudes log-uniform over [2**lo_exp, 2**hi_exp]."""
    mags = np.exp2(rng.uniform(lo_exp, hi_exp, d))
    return np.where(rng.uniform(size=d) < 0.5, -mags, mags)


MAGNITUDE_FAMILIES = {
    "subnormal": (-1074, -1022),
    "near_overflow": (1000, 1023.9),
    "mixed": (-1074, 1023.9),
    "unit": (-4, 4),
}


class TestClip:
    def test_within_threshold_unchanged(self):
        g = np.array([3.0, 4.0])
        assert np.array_equal(clip(g, 5.0), g)

    def test_rescaled_to_threshold(self):
        out = clip(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8])
        assert math.isclose(norm(out), 1.0)

    def test_zero_vector_guard(self):
        out = clip(np.array([0.0, 0.0]), 1.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            clip(np.array([1.0]), 0.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
        st.floats(1e-6, 1e6),
    )
    def test_idempotent(self, coords, h):
        g = np.asarray(coords)
        once = clip(g, h)
        twice = clip(once, h)
        assert np.array_equal(once, twice)

    def test_contraction_toward_truth(self):
        # clipping can only reduce the distance to any truth inside the ball
        rng = np.random.default_rng(5)
        n = 100_000
        g_tilde = rng.standard_normal((n, 3)) * rng.lognormal(0, 2, (n, 1))
        h = rng.uniform(0.1, 10.0, n)
        g_true = rng.standard_normal((n, 3))
        g_true *= (h * rng.uniform(0, 1, n) / np.linalg.norm(g_true, axis=1))[:, None]
        scale = np.minimum(1.0, h / np.maximum(np.linalg.norm(g_tilde, axis=1), 1e-300))
        clipped = g_tilde * scale[:, None]
        d_before = np.linalg.norm(g_tilde - g_true, axis=1)
        d_after = np.linalg.norm(clipped - g_true, axis=1)
        assert np.all(d_after <= d_before * (1 + 1e-12) + 1e-12)


class TestNormOracle:
    @pytest.mark.parametrize("family", sorted(MAGNITUDE_FAMILIES))
    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_matches_fifty_digit_root(self, d, family):
        # hypot (d <= SMALL_DIM) is within an ulp; the vdot and rescaled
        # paths within (d/2 + 2) ulps; results in the subnormal range carry
        # one subnormal unit of absolute rounding on top
        rng = np.random.default_rng(d * 31 + len(family))
        lo, hi = MAGNITUDE_FAMILIES[family]
        rel = 2 * ULP if d <= SMALL_DIM else (d / 2 + 2) * ULP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                v = log_uniform_vector(rng, d, lo, hi)
                exact = exact_norm(v)
                got = norm(v)
                if math.isinf(exact):
                    assert got == math.inf
                else:
                    assert abs(got - exact) <= rel * exact + TINY, (v, got, exact)

    @pytest.mark.parametrize("d", GATE_DIMS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_finite_floats(self, d, data):
        v = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=d, max_size=d)))
        exact = exact_norm(v)
        rel = 2 * ULP if d <= SMALL_DIM else (d / 2 + 2) * ULP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norm(v)
        if math.isinf(exact):
            assert got == math.inf
        else:
            assert abs(got - exact) <= rel * exact + TINY

    def test_underflow_reproducers_exact(self):
        assert norm(np.array([1e-170])) == 1e-170
        assert norm(np.array([3e-162, 4e-162])) == 5e-162
        out = clip(np.array([1e-170]), 1e-300)
        assert 0.0 < norm(out) <= 1e-300

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_non_finite_entries(self, d):
        for bad in (math.nan, math.inf, -math.inf):
            v = np.ones(d)
            v[d // 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = norm(v)
            assert math.isnan(got) if math.isnan(bad) else got == math.inf

    @pytest.mark.parametrize("d", GATE_DIMS[1:])
    def test_norm_past_float_range_is_inf(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(np.full(d, 1.7e308)) == math.inf
            assert norm(np.zeros(d)) == 0.0


class TestAsVectorNorm:
    """The fused coercion: as_vector and norm from one reduction."""

    @pytest.mark.parametrize("d", (1, SMALL_DIM, SMALL_DIM + 1, 256))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_as_vector_then_norm(self, d, data):
        # finite floats of any size, plus log-uniform subnormal and
        # near-overflow magnitudes
        scaled = st.builds(
            lambda e, sign: sign * 2.0**e,
            st.floats(-1074, 1023.9), st.sampled_from([-1.0, 1.0]),
        )
        entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False), scaled)
        x = data.draw(st.lists(entries, min_size=d, max_size=d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, n = as_vector_norm(x, d)
            ref = as_vector(x, d)
            assert v.dtype == np.float64 and np.array_equal(v, ref)
            assert n.hex() == norm(ref).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("d", (1, SMALL_DIM, SMALL_DIM + 1, 256))
    def test_non_finite_entry_raises(self, d, bad):
        x = np.ones(d)
        x[d // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite value in vector input"):
                as_vector_norm(x)

    @pytest.mark.parametrize("d", (2, SMALL_DIM + 1))
    def test_finite_norm_past_float_range_is_inf(self, d):
        x = np.full(d, 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, n = as_vector_norm(x)
        assert v is x and n == math.inf


class TestDot:
    @pytest.mark.parametrize("family", sorted(MAGNITUDE_FAMILIES))
    def test_equals_vdot_at_d1(self, family):
        rng = np.random.default_rng(7 + len(family))
        lo, hi = MAGNITUDE_FAMILIES[family]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(200):
                a = log_uniform_vector(rng, 1, lo, hi)
                b = log_uniform_vector(rng, 1, lo, hi)
                # == rather than bits: the sign of a zero may differ
                assert dot(a, b) == float(np.vdot(a, b)), (a, b)

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_matches_fifty_digit_sum(self, d):
        # the products stay normal, so each rounding is relative
        rng = np.random.default_rng(d * 13)
        for _ in range(40):
            a = log_uniform_vector(rng, d, -300, 300)
            b = log_uniform_vector(rng, d, -300, 300)
            got = dot(a, b)
            assert type(got) is float
            with mpmath.workdps(50):
                products = [mpmath.mpf(float(x)) * mpmath.mpf(float(y)) for x, y in zip(a, b)]
                exact = mpmath.fsum(products)
                bound = d * ULP * mpmath.fsum(abs(p) for p in products)
                assert abs(mpmath.mpf(got) - exact) <= bound, (a, b, got)

    @pytest.mark.parametrize("d", GATE_DIMS[1:])
    def test_past_float_range_is_inf(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dot(np.full(d, 1e308), np.ones(d)) == math.inf
            assert dot(np.full(d, -1e308), np.ones(d)) == -math.inf

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_nan_propagates(self, d):
        a = np.ones(d)
        a[d // 2] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(dot(a, np.ones(d)))
            assert math.isnan(dot(np.ones(d), a))


class TestClipInvariant:
    @pytest.mark.parametrize("d", GATE_DIMS)
    @given(
        data=st.data(),
        h=st.floats(min_value=5e-324, max_value=1.7e308, allow_subnormal=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_clipped_norm_within_threshold(self, d, data, h):
        g = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=d, max_size=d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = clip(g, h)
            assert norm(out) <= h
        # direction is kept: no sign flips, zero entries stay zero
        assert np.all(np.sign(out) * np.sign(g) >= 0)

    @pytest.mark.parametrize(
        "g, h",
        [([1e30], 1e-300), ([1.7e308, 1.7e308], 1.0), ([3.0, -4.0], 1e-310)],
        ids=["scale_underflows", "norm_overflows", "subnormal_threshold"],
    )
    def test_extreme_ratio_still_reaches_threshold(self, g, h):
        # the scale h / ||g|| is not representable, yet the clipped vector is
        g = np.array(g)
        out = clip(g, h)
        assert h * (1 - 4 * ULP) - TINY <= norm(out) <= h
        u = g / np.max(np.abs(g))
        assert np.allclose(out / h, u / norm(u))


    @pytest.mark.parametrize(
        "g, h",
        [([1.0] * 3, 3e-308), ([1e300] * 3, 3e-308), ([3.0, -4.0] * 8 + [1.0], 1.5e-323)],
        ids=["unit", "huge", "d17_three_subnormal_units"],
    )
    def test_subnormal_result_terminates(self, g, h):
        # rescaling by h / n leaves these subnormal entries where they are;
        # the clip must still finish within h and stay idempotent
        out = clip(np.array(g), h)
        assert norm(out) <= h
        assert np.array_equal(clip(out, h), out)


class TestCorruptionLedger:
    def test_uncorrupted_round_changes_nothing(self):
        led = CorruptionLedger(lipschitz_G=1.0)
        assert led.update(np.array([0.3]), np.array([0.3])) is False
        assert (led.count_corrupted, led.big_rounds, led.deviation_sum) == (0, 0, 0.0)

    def test_big_round(self):
        led = CorruptionLedger(lipschitz_G=1.0)
        assert led.update(np.array([1.0]), np.array([-1.0])) is True
        assert led.count_corrupted == 1
        assert led.big_rounds == 1
        assert led.deviation_sum == 1.0  # min(2, G)

    def test_small_round(self):
        led = CorruptionLedger(lipschitz_G=1.0)
        assert led.update(np.array([1.0]), np.array([1.5])) is True
        assert led.count_corrupted == 1
        assert led.big_rounds == 0
        assert led.deviation_sum == 0.5

    def test_dominance_invariants_random(self):
        rng = np.random.default_rng(11)
        led = CorruptionLedger(lipschitz_G=2.0)
        for _ in range(500):
            g = rng.standard_normal(2)
            gt = g if rng.uniform() < 0.5 else g + rng.standard_normal(2) * 3
            assert led.update(g, gt) is (not np.array_equal(g, gt))
            assert led.big_rounds <= led.count_corrupted
            assert led.deviation_sum / 2.0 <= led.count_corrupted + 1e-12

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_signed_zero_is_uncorrupted(self, d):
        led = CorruptionLedger(lipschitz_G=1.0)
        pos, neg = np.zeros(d), -np.zeros(d)
        neg[0] = 0.25
        pos[0] = 0.25
        assert led.update(pos, neg) is False
        assert led.count_corrupted == 0

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_nan_is_never_equal(self, d):
        led = CorruptionLedger(lipschitz_G=1.0)
        g = np.ones(d)
        g[-1] = math.nan
        assert led.update(g, g) is True
        assert led.update(g, g.copy()) is True
        assert led.count_corrupted == 2

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_matches_array_equal(self, d):
        rng = np.random.default_rng(d)
        led = CorruptionLedger(lipschitz_G=1.0)
        for _ in range(200):
            g = rng.standard_normal(d)
            gt = g.copy()
            if rng.uniform() < 0.5:
                i = rng.integers(d)
                gt[i] = np.nextafter(gt[i], math.inf)
            assert led.update(g, gt) is (not np.array_equal(g, gt))


class TestRegretLedger:
    def test_direct_inner_product(self):
        led = RegretLedger(comparator=np.array([0.0]))
        led.update(np.array([2.0]), np.array([1.0]), np.array([1.0]))
        assert led.true_regret_linear == 2.0

    def test_comparator_identity(self):
        u = np.array([1.5, -2.0])
        led = RegretLedger(comparator=u)
        led.update(u - u, np.array([3.0, 4.0]), np.array([3.0, 4.0]))
        assert led.true_regret_linear == 0.0

    def test_orthogonality(self):
        led = RegretLedger(comparator=np.array([0.0, 0.0]))
        led.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert led.true_regret_linear == 0.0

    @pytest.mark.parametrize("d", GATE_DIMS)
    def test_update_returns_the_observed_increment(self, d):
        rng = np.random.default_rng(d)
        led = RegretLedger(comparator=rng.standard_normal(d))
        for _ in range(100):
            diff, g, g_obs = (
                rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3) for _ in range(3)
            )
            g_obs[rng.uniform(size=d) < 0.3] = -0.0
            expected = dot(g_obs, diff)
            got = led.update(diff, g, g_obs)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_dimension_mismatch_is_error(self):
        led = RegretLedger(comparator=np.array([0.0]))
        with pytest.raises(ValueError):
            led.update(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_loss_regret_below_linear_regret_on_absolute_loss(self):
        # convexity: l(w) - l(u) <= <g, w - u> for subgradients of |w - c|
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = np.array([rng.uniform(-3, 3)])
            led = RegretLedger(comparator=u)
            for _ in range(50):
                w = np.array([rng.uniform(-5, 5)])
                g = np.array([1.0 if w[0] > 1.0 else -1.0])
                gap = abs(w[0] - 1.0) - abs(u[0] - 1.0)
                led.update(w - u, g, g, loss_gap=gap)
            assert led.loss_regret <= led.true_regret_linear + 1e-9


class TestFiniteness:
    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            ensure_finite(np.array([1.0, math.nan]), "test")

    def test_inf_rejected_by_as_vector(self):
        with pytest.raises(NonFiniteError):
            as_vector([math.inf])

    def test_dim_check(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["entry", "scalar"])
    @pytest.mark.parametrize(
        "check", [lambda x: ensure_finite(x, "test"), as_vector],
        ids=["ensure_finite", "as_vector"],
    )
    def test_non_finite_rejected(self, check, shape, bad):
        x = np.array([1.0, bad, -2.0]) if shape == "entry" else bad
        with pytest.raises(NonFiniteError):
            check(x)

    @pytest.mark.parametrize(
        "values",
        [[1.7e308, -1.7e308], [5e-324, -2.2e-308, 1e-310]],
        ids=["squared_norm_overflows", "subnormal"],
    )
    def test_finite_extremes_accepted_without_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ensure_finite(np.array(values), "test")
            assert np.array_equal(as_vector(values), values)

    @pytest.mark.parametrize("x", [3.5, np.float64(3.5), np.array(3.5), np.int64(3)])
    def test_scalar_becomes_length_one(self, x):
        v = as_vector(x)
        assert v.shape == (1,) and v.dtype == np.float64
        assert v[0] == float(x)

    @pytest.mark.parametrize(
        "x",
        [[], np.zeros(0), [[1.0, 2.0]], np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((0, 3))],
        ids=["empty_list", "empty_array", "row", "square", "one_by_one", "empty_2d"],
    )
    def test_non_vector_shape_rejected(self, x):
        with pytest.raises(ValueError):
            as_vector(x)

    @pytest.mark.parametrize("d", GATE_DIMS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ensure_finite_matches_entrywise_check(self, d, data):
        special = st.sampled_from(
            [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -0.0]
        )
        entries = st.one_of(special, st.floats())
        arr = np.array(data.draw(st.lists(entries, min_size=d, max_size=d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(arr).all():
                ensure_finite(arr, "test")
            else:
                with pytest.raises(NonFiniteError, match="non-finite value in test"):
                    ensure_finite(arr, "test")

    @pytest.mark.parametrize(
        "x",
        [np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0], dtype=np.float32),
         np.array([math.nan], dtype=np.float32), np.array([[1.0, math.inf]])],
        ids=["int", "float32", "float32_nan", "row"],
    )
    def test_ensure_finite_other_inputs_use_entrywise_check(self, x):
        if np.isfinite(x).all():
            ensure_finite(x, "test")
        else:
            with pytest.raises(NonFiniteError):
                ensure_finite(x, "test")

    def test_float64_vector_is_not_copied(self):
        v = np.array([1.0, -2.0, 3.0])
        assert as_vector(v) is v
        assert as_vector(v, dim=3) is v
