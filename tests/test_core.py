import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_oco.core import (
    ARRAY,
    FLOAT,
    SMALL_DIM,
    CorruptionLedger,
    NonFiniteError,
    RegretLedger,
    as_vector,
    as_vector_norm,
    clip_gradient,
    dot,
    ensure_finite,
    kernels,
    kernels_of,
    norm,
)
from snapshot import state_bits

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

    @pytest.mark.parametrize("g, clip_of", [
        (np.array([1.0]), clip_gradient), (1.0, FLOAT.clip),
    ], ids=["array", "float"])
    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_requires_positive_threshold(self, g, clip_of, h):
        with pytest.raises(ValueError, match=f"^clipping threshold must be positive, got {h}$"):
            clip_of(g, h, 1.0)

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

    def test_past_float_range_by_less_than_an_ulp_is_inf(self):
        # the exact norm passes the overflow threshold by a relative 1.5e-33;
        # rescaling by the largest magnitude, m * sqrt(vdot(u, u)), rounded
        # it to the largest double
        v = np.zeros(SMALL_DIM + 1)
        v[-2:] = 1.8941775056029057e300, 1.7976931348623157e308
        assert exact_norm(v) == math.inf
        assert norm(v) == math.inf

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
    @pytest.mark.parametrize("G", [0.0, -1.0])
    def test_nonpositive_bound_rejected(self, G):
        with pytest.raises(ValueError, match="^lipschitz_G must be positive$"):
            CorruptionLedger(lipschitz_G=G)

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


@st.composite
def ledger_pairs(draw, d):
    """(g_true, g_tilde): a copy of g_true with signs of zeros flipped, then
    a few entries nudged by an ulp or redrawn, or none (an equal pair).

    Entries are signed zeros, subnormals (whose differences underflow) and
    moderate floats, plus, as drawn per example, near-overflow values,
    infinities and NaN.
    """
    huge, inf, nan = (draw(st.booleans()) for _ in range(3))
    pool = [0.0, -0.0, TINY, -TINY, 2.0**-1022, 1.5, -1.5]
    pool += [1.7e308, -1.7e308] * huge + [math.inf, -math.inf] * inf + [math.nan] * nan
    bound = None if huge else 1e100
    entries = st.one_of(st.sampled_from(pool), st.floats(
        min_value=None if huge else -bound, max_value=bound,
        allow_nan=False, allow_infinity=False,
    ))
    g_true = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    g_tilde = np.where(g_true == 0.0, -g_true, g_true)
    for i in draw(st.lists(st.integers(0, d - 1), max_size=3)):
        if draw(st.booleans()):
            # math.nextafter: the step from the largest double to inf does
            # not warn, as numpy's overflow does
            toward = draw(st.sampled_from([0.0, math.inf]))
            g_tilde[i] = math.nextafter(g_tilde[i], toward)
        else:
            g_tilde[i] = draw(entries)
    return g_true, g_tilde


def rule_deviation(g_true, g_tilde) -> float:
    """The ledger's documented deviation of an unequal pair, from the rule.

    Equal entries contribute 0; an unequal NaN or Inf entry, or a difference
    past float range, makes it inf.
    """
    unequal = g_true != g_tilde
    a, b = g_true[unequal], g_tilde[unequal]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    diff = np.zeros(g_true.shape)
    # Python float subtraction: an overflow is inf, without a warning
    diff[unequal] = [x - y for x, y in zip(a.tolist(), b.tolist())]
    return norm(diff)


# the d = 1 pair's hostile entries, beside any float st.floats() draws
FLOAT_PAIR_POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, TINY, -TINY,
                   2.0**-1022, 1.7e308, -1.7e308, 1.5]
float_entries = st.one_of(st.sampled_from(FLOAT_PAIR_POOL), st.floats())


class TestCorruptionLedgerDefinition:
    @given(data=st.data(), G=st.sampled_from([TINY, 1.0, 3.0, 1.7e308]))
    @settings(max_examples=300, deadline=None)
    def test_float_pair_follows_the_one_entry_array_rule(self, data, G):
        # the d = 1 run loop hands the ledger floats: each pair must count
        # as the same pair of 1-entry arrays does, to the bit
        g_true = data.draw(float_entries)
        g_tilde = data.draw(st.one_of(
            st.just(g_true), st.just(-g_true), float_entries,
            st.sampled_from([math.nextafter(g_true, 0.0), math.nextafter(g_true, math.inf)]),
        ))
        of_floats, of_arrays = CorruptionLedger(lipschitz_G=G), CorruptionLedger(lipschitz_G=G)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corrupted = of_floats.update(g_true, g_tilde)
            assert corrupted is of_arrays.update(np.array([g_true]), np.array([g_tilde]))
        assert (of_floats.count_corrupted, of_floats.big_rounds) == (
            of_arrays.count_corrupted, of_arrays.big_rounds
        )
        assert repr(of_floats.deviation_sum) == repr(of_arrays.deviation_sum)

    @pytest.mark.parametrize("d", [2, SMALL_DIM + 1, 256])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_array_equal_and_the_deviation(self, d, data):
        g_true, g_tilde = data.draw(ledger_pairs(d))
        led = CorruptionLedger(lipschitz_G=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corrupted = led.update(g_true, g_tilde)
        if np.array_equal(g_true, g_tilde):
            assert corrupted is False
            assert (led.count_corrupted, led.big_rounds, led.deviation_sum) == (0, 0, 0.0)
            return
        dev = rule_deviation(g_true, g_tilde)
        assert corrupted is True
        assert led.count_corrupted == 1
        assert led.big_rounds == int(dev >= 1.0)
        assert repr(led.deviation_sum) == repr(0.0 + min(dev, 1.0))

    @pytest.mark.parametrize("d", [2, SMALL_DIM + 1])
    def test_equal_infinities_of_an_unequal_pair_contribute_zero(self, d):
        g_true = np.ones(d)
        g_true[0] = math.inf
        g_tilde = g_true.copy()
        g_tilde[1] = 2.0
        led = CorruptionLedger(lipschitz_G=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert led.update(g_true, g_tilde) is True
        assert (led.count_corrupted, led.big_rounds, led.deviation_sum) == (1, 0, 1.0)

    @pytest.mark.parametrize("d", [2, SMALL_DIM + 1])
    def test_overflowing_or_non_finite_difference_is_a_big_round(self, d):
        nan, inf = np.ones(d), np.ones(d)
        nan[-1], inf[-1] = math.nan, -math.inf
        pairs = [(np.full(d, 1.7e308), np.full(d, -1.7e308)), (nan, nan.copy()),
                 (inf, np.ones(d)), (inf, nan)]
        led = CorruptionLedger(lipschitz_G=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g_true, g_tilde in pairs:
                assert led.update(g_true, g_tilde) is True
        assert (led.count_corrupted, led.big_rounds, led.deviation_sum) == (4, 4, 8.0)

    @pytest.mark.parametrize("d", [SMALL_DIM + 1, 256])
    def test_subnormal_difference_is_a_corruption(self, d):
        g = np.full(d, TINY)
        g[0] = 0.0
        led = CorruptionLedger(lipschitz_G=1.0)
        assert led.update(g, np.where(g == TINY, 2 * TINY, -0.0)) is True
        assert led.deviation_sum == norm(np.full(d - 1, TINY)) > 0.0


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
    def test_update_adds_the_observed_increment(self, d):
        rng = np.random.default_rng(d)
        led = RegretLedger(comparator=rng.standard_normal(d))
        for _ in range(100):
            diff, g, g_obs = (
                rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3) for _ in range(3)
            )
            g_obs[rng.uniform(size=d) < 0.3] = -0.0
            expected = led.observed_regret_linear + dot(g_obs, diff)
            led.update(diff, g, g_obs)
            got = led.observed_regret_linear
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_dimension_mismatch_is_error(self):
        led = RegretLedger(comparator=np.array([0.0]))
        with pytest.raises(ValueError):
            led.update(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("comparator, round_, given", [
        # floats or lists against an array comparator raised AttributeError
        (np.array([1.0]), (0.5, 1.0, 1.0), "w - u float (), g float (), g_obs float ()"),
        (np.array([1.0]), ([0.5], [1.0], [1.0]), "w - u list (1,), g list (1,), g_obs list (1,)"),
        # an array against a float comparator raised TypeError (a 1-entry one
        # too, where numpy no longer converts it to a float)
        (1.0, (np.array([0.5, 0.5]), 1.0, 1.0), "w - u ndarray (2,), g float (), g_obs float ()"),
        (1.0, (0.5, np.array([1.0, 1.0]), 1.0), "g ndarray (2,), g_obs float ()"),
        (1.0, (0.5, 1.0, [1.0]), "g_obs list (1,)"),
    ])
    def test_round_in_the_wrong_form_is_a_value_error(self, comparator, round_, given):
        led = RegretLedger(comparator=comparator)
        good = (0.25, 1.0, -1.0) if type(comparator) is float else (
            np.array([0.25]), np.array([1.0]), np.array([-1.0]))
        led.update(*good)
        before = state_bits(led)
        expected = "float ()" if type(comparator) is float else "ndarray (1,)"
        with pytest.raises(ValueError, match=f"^regret ledger round in the wrong form: "
                                             f"comparator {re.escape(expected)}, "
                                             f".*{re.escape(given)}$"):
            led.update(*round_)
        assert state_bits(led) == before


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

    @pytest.mark.parametrize(
        "coerce",
        [as_vector, lambda x: FLOAT.coerce(x, 1), lambda x: as_vector(x, 3),
         lambda x: as_vector_norm(x, 3)],
        ids=["as_vector", "float_coerce", "as_vector_d3", "as_vector_norm_d3"],
    )
    def test_missing_vector_named(self, coerce):
        # numpy reads None as NaN: it was reported as "non-finite value in
        # vector input: array([nan])", and with a dimension above 1 as
        # "dimension mismatch: expected 3, got 1"
        with pytest.raises(ValueError, match="^missing vector input: got None$"):
            coerce(None)

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


class TestFloatKernels:
    """The d = 1 representation against the 1-entry and zero-padded arrays."""

    def draws(self, n=300_000, seed=18):
        rng = np.random.default_rng(seed)
        mags = np.exp2(rng.uniform(-1074, 1023.9, n))
        mags[: n // 3] = np.exp2(rng.uniform(-8, 8, n // 3))
        return (mags * rng.choice([-1.0, 1.0], n)).tolist()

    def test_padded_norm_and_inner_product(self):
        # a d = 2 vector with a zero second entry reduces as the float does
        xs, ys = self.draws(), self.draws(seed=19)
        assert all(math.hypot(x, 0.0) == abs(x) for x in xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(
                np.vdot([x, 0.0], [y, 0.0]) == x * y for x, y in zip(xs, ys)
            )

    def test_kernels_pick_the_form_from_dim(self):
        assert kernels(1) is FLOAT and kernels(2) is kernels(256) is ARRAY
        assert kernels_of(0.5) is FLOAT and kernels_of(np.zeros(1)) is ARRAY

    @pytest.mark.parametrize("family", sorted(MAGNITUDE_FAMILIES))
    def test_norm_dot_clip_match_the_one_entry_array(self, family):
        rng = np.random.default_rng(len(family))
        lo, hi = MAGNITUDE_FAMILIES[family]
        for _ in range(400):
            a, b = (float(log_uniform_vector(rng, 1, lo, hi)[0]) for _ in range(2))
            va, vb = np.array([a]), np.array([b])
            assert FLOAT.norm(a).hex() == norm(va).hex()
            assert FLOAT.dot(a, b).hex() == dot(va, vb).hex()
            assert FLOAT.squared_norm(a).hex() == float(np.vdot(va, va)).hex()
            h = abs(b) if b != 0.0 else 1.0
            out = FLOAT.clip(a, h, abs(a))
            ref = clip_gradient(va, h, norm(va))
            assert type(out) is float and out.hex() == float(ref[0]).hex()
            assert (out is a) is (ref is va)

    def test_signed_zero_product_is_positive_zero(self):
        # sum() from int 0 turned -0.0 into 0.0; the float dot adds 0.0
        assert math.copysign(1.0, FLOAT.dot(-0.0, 1.0)) == 1.0
        assert math.copysign(1.0, dot(np.array([-0.0]), np.array([1.0]))) == 1.0

    @pytest.mark.parametrize("x", [[math.nan], [math.inf], 0.5, [1.0, 2.0], [[1.0]], None],
                             ids=["nan", "inf", "scalar", "two_entries", "two_d", "none"])
    def test_coerce_checks_as_as_vector_norm(self, x):
        try:
            expected = as_vector_norm(x, 1)
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                FLOAT.coerce(x, 1)
            assert str(info.value) == str(exc)
        else:
            g, n = FLOAT.coerce(x, 1)
            assert type(g) is float and (g, n) == (float(expected[0][0]), expected[1])
