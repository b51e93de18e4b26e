import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robust_oco.core import clip_gradient
from robust_oco.harness.checks import check_filter_properties, check_tracker_properties
from robust_oco.protocol import ProtocolConfig, RobustProtocol
from robust_oco.thresholds import GradientFilter, MagnitudeTracker
from snapshot import state_bits


def step(f, n):
    """Clip the 1-d gradient [n], whose norm is n >= 0, at the filter's threshold.

    The filter counts the clip and commits the round; returns the clipped
    gradient with the filter's (threshold for the next round, doubled flag).
    """
    g = np.array([n])
    out = clip_gradient(g, f.h, n)
    h_next, doubled = f.step(out is not g)
    f.commit(out is not g, doubled)
    return out, h_next, doubled


def track(tr, n):
    """Feed the tracker one iterate norm and commit the round."""
    z_next, doubled = tr.step(n)
    tr.commit(z_next, doubled)
    return z_next, doubled


def feed_norms(f, norms):
    """Run 1-d gradients of the given norms through a filter, recording a trace."""
    out_norms, h_per_round, trace = [], [], []
    for n in norms:
        h_t = f.h
        out, h_next, doubled = step(f, float(n))
        out_norms.append(abs(float(out[0])))
        h_per_round.append(h_t)
        trace.append((float(n), abs(float(out[0])), h_t, h_next))
    return out_norms, h_per_round, trace


class TestGradientFilter:
    def test_hand_trace_with_lag_one(self):
        f = GradientFilter(k=1, tau_G=1.0)
        out, hs, _ = feed_norms(f, [0.5, 2.0, 3.0, 0.5, 5.0])
        assert hs == [1.0, 1.0, 1.0, 2.0, 2.0]
        assert out == [0.5, 1.0, 1.0, 0.5, 2.0]
        assert f.doublings == 1

    def test_zero_lag_doubles_immediately(self):
        f = GradientFilter(k=0, tau_G=1.0)
        out, h_next, doubled = step(f, 4.0)
        assert abs(float(out[0])) == 1.0
        assert h_next == 2.0
        assert doubled

    def test_no_exceedance_means_constant_threshold(self):
        f = GradientFilter(k=2, tau_G=1.0)
        _, hs, _ = feed_norms(f, [0.2, 0.9, 1.0, 0.5] * 10)
        assert all(h == 1.0 for h in hs)
        assert f.clip_rounds == 0

    def test_tie_counts_as_pass(self):
        f = GradientFilter(k=0, tau_G=1.0)
        out, h_next, doubled = step(f, 1.0)
        assert h_next == 1.0 and not doubled
        assert f.pass_rounds == 1

    def test_doubling_needs_exactly_lag_plus_one_exceedances(self):
        f = GradientFilter(k=3, tau_G=1.0)
        for i in range(3):
            _, _, doubled = step(f, 2.0)
            assert not doubled
        _, h_next, doubled = step(f, 2.0)
        assert doubled and h_next == 2.0
        assert f.n == 0  # counter resets

    def test_threshold_is_power_of_two_multiple(self):
        rng = np.random.default_rng(4)
        f = GradientFilter(k=2, tau_G=0.3)
        for n in rng.lognormal(0, 2, 300):
            step(f, float(n))
        assert f.h == 0.3 * 2.0**f.doublings

    def test_constant_memory(self):
        f = GradientFilter(k=5, tau_G=1.0)
        for n in np.random.default_rng(1).lognormal(0, 2, 2000):
            step(f, float(n))
        assert not any(
            isinstance(v, (list, dict, set, np.ndarray)) for v in vars(f).values()
        )


class TestFilterPropertyChecker:
    def test_empty_trace_violates_nothing(self):
        assert check_filter_properties([], tau_G=1.0, k=2, G=1.0) == (True, None)

    def test_clean_stream_all_properties(self):
        f = GradientFilter(k=2, tau_G=1.0)
        _, _, trace = feed_norms(f, [0.5] * 50)
        ok, violated = check_filter_properties(trace, tau_G=1.0, k=2, G=1.0)
        assert ok, violated

    def test_budgeted_spikes_respect_cap(self):
        # k huge-corruption rounds among small ones: final h <= max(tau, 4G)
        G, k = 1.0, 3
        tau = G / 8.0
        f = GradientFilter(k=k, tau_G=tau)
        rng = np.random.default_rng(7)
        norms = rng.uniform(0, G, 400)
        spikes = rng.choice(400, size=k, replace=False)
        norms[spikes] = 10.0 * G
        _, _, trace = feed_norms(f, norms)
        ok, violated = check_filter_properties(trace, tau_G=tau, k=k, G=G)
        assert ok, violated
        assert f.h <= max(tau, 4.0 * G)

    def test_budget_violation_may_break_properties(self):
        # 10(k + 1) huge rounds declared as budget k: the guarantee's
        # precondition fails, and the threshold doubles past max(tau, 4G)
        G, k = 1.0, 1
        f = GradientFilter(k=k, tau_G=G / 8.0)
        norms = [10.0 * G] * (10 * (k + 1)) + [0.5 * G] * 20
        _, _, trace = feed_norms(f, norms)
        ok, violated = check_filter_properties(trace, tau_G=G / 8.0, k=k, G=G)
        assert (ok, violated) == (False, "final_threshold_cap")

    # hand-built (input_norm, output_norm, h_t, h_next) rows at tau_G = G = 1
    # and k = 0, each breaking one property: the cap on the final threshold
    # is 4 and the clip budget 3 rounds
    @pytest.mark.parametrize("trace, violated", [
        ([(0.5, 0.5, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0)], "threshold_continuity"),
        ([(0.5, 0.5, 1.0, 1.0), (0.5, 0.5, 1.0, 0.5)], "threshold_nondecreasing"),
        ([(2.0, 2.0, 1.0, 1.0)], "output_within_threshold"),
        ([(0.5, 0.5, 2.0, 2.0)], "initial_threshold"),
        ([(0.5, 0.5, 1.0, 8.0)], "final_threshold_cap"),
        ([(2.0, 1.0, 1.0, 1.0)] * 4, "clip_round_budget"),
    ], ids=["threshold_continuity", "threshold_nondecreasing", "output_within_threshold",
            "initial_threshold", "final_threshold_cap", "clip_round_budget"])
    def test_each_property_can_reject(self, trace, violated):
        assert check_filter_properties(trace, tau_G=1.0, k=0, G=1.0) == (False, violated)


def test_step_assigns_nothing():
    # a round whose learner raises after the steps must leave both automata
    # as they were; only commit() moves them
    f, tr = GradientFilter(k=0, tau_G=1.0), MagnitudeTracker(tau_D=1.0)
    assert f.step(True) == f.step(True) == (2.0, True)
    assert tr.step(5.0) == tr.step(5.0) == (10.0, True)
    assert (f.h, f.n, f.clip_rounds, f.doublings) == (1.0, 0, 0, 0)
    assert (tr.z, tr.epoch_index) == (1.0, 0)


# NaN and inf passed the old `<= 0` tests: GradientFilter(tau_G=nan) built
# with h = nan and MagnitudeTracker(tau_D=inf) with z = inf
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("build, name", [
    (lambda v: GradientFilter(k=1, tau_G=v), "initial threshold tau_G"),
    (lambda v: MagnitudeTracker(tau_D=v), "initial magnitude guess tau_D"),
])
def test_setting_outside_zero_to_inf_is_rejected(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
        build(value)


@pytest.mark.parametrize("k", [-1, 2.5, math.nan, math.inf, 10**400],
                         ids=["negative", "fraction", "nan", "inf", "past_float_range"])
def test_budget_outside_the_exact_integers_is_rejected(k):
    # a fractional k never equals the clip count n, so the threshold never
    # doubled; 10**400 has no float, and 2**53 bounds the exact ones
    with pytest.raises(ValueError, match=re.escape(
        f"corruption budget k must be an integer in [0, 2**53), got {k!r}"
    ) + "$"):
        GradientFilter(k=k, tau_G=1.0)


@pytest.mark.parametrize("w_norm", [math.nan, math.inf, -1.0])
def test_tracker_rejects_an_invalid_norm(w_norm):
    tr = MagnitudeTracker(tau_D=1.0)
    with pytest.raises(ValueError, match=f"^invalid iterate norm {w_norm}$"):
        tr.step(w_norm)


class TestMagnitudeTracker:
    def test_hand_trace(self):
        tr = MagnitudeTracker(tau_D=1.0)
        zs, flags = [], []
        for n in [0.5, 1.5, 2.0, 5.0]:
            z, doubled = track(tr, n)
            zs.append(z)
            flags.append(doubled)
        assert zs == [1.0, 3.0, 3.0, 10.0]
        assert flags == [False, True, False, True]
        assert tr.epoch_index == 2

    def test_all_below_initial_guess(self):
        tr = MagnitudeTracker(tau_D=2.0)
        for n in [0.1, 1.9, 0.0, 2.0]:
            z, doubled = track(tr, n)
            assert z == 2.0 and not doubled
        assert tr.epoch_index == 0

    def test_boundary_is_strict(self):
        tr = MagnitudeTracker(tau_D=1.0)
        z, doubled = track(tr, 1.0)
        assert z == 1.0 and not doubled

    def test_update_values_are_hold_or_double(self):
        rng = np.random.default_rng(9)
        tr = MagnitudeTracker(tau_D=0.5)
        for n in rng.lognormal(0, 1.5, 500):
            z_before = tr.z
            z, doubled = track(tr, float(n))
            assert z == z_before or z == 2.0 * float(n)


class TestTrackerPropertyChecker:
    def run_trace(self, norms, tau_D):
        tr = MagnitudeTracker(tau_D=tau_D)
        trace = []
        for n in norms:
            z_t = tr.z
            z_next, doubled = track(tr, float(n))
            trace.append((float(n), z_t, z_next, doubled))
        return trace, tr

    def test_empty_trace_violates_nothing(self):
        assert check_tracker_properties([], tau_D=1.0) == (True, None)

    def test_four_step_trace(self):
        trace, tr = self.run_trace([0.5, 1.5, 2.0, 5.0], 1.0)
        ok, violated = check_tracker_properties(trace, tau_D=1.0)
        assert ok, violated
        assert tr.epoch_index == 2
        assert tr.epoch_index <= np.log2(2 * 5.0 / 1.0)

    def test_all_zero_norms(self):
        trace, tr = self.run_trace([0.0] * 20, 1.0)
        ok, violated = check_tracker_properties(trace, tau_D=1.0)
        assert ok, violated
        assert tr.epoch_index == 0

    def test_geometric_growth(self):
        norms = [2.0**t for t in range(20)]
        trace, tr = self.run_trace(norms, 1.0)
        ok, violated = check_tracker_properties(trace, tau_D=1.0)
        assert ok, violated
        assert tr.epoch_index <= np.log2(2 * max(norms))

    def test_epoch_partition_reconstruction(self):
        rng = np.random.default_rng(13)
        norms = np.abs(np.cumsum(rng.standard_normal(300)))
        trace, _ = self.run_trace(norms.tolist(), 0.7)
        # every round in exactly one epoch; boundaries are the doubled rounds
        epoch_of_round = []
        epoch = 0
        for _, _, _, doubled in trace:
            if doubled:
                epoch += 1
            epoch_of_round.append(epoch)
        assert len(epoch_of_round) == len(trace)
        assert epoch == sum(1 for r in trace if r[3])
        ok, violated = check_tracker_properties(trace, tau_D=0.7)
        assert ok, violated

    # hand-built (w_norm, z_t, z_next, doubled) rows at tau_D = 1, each
    # breaking one property; the final threshold's cap is not among them,
    # since z only holds or becomes 2 ||w_t||, which the cap admits
    @pytest.mark.parametrize("trace, violated", [
        ([(1.5, 1.0, 3.0, True), (1.5, 3.0, 3.0, True)], "epoch_count_bound"),
        ([(0.0, 1.0, 0.0, True)], "epoch_count_bound"),
        ([(0.5, 1.0, 1.0, False), (0.5, 0.5, 0.5, False)], "threshold_continuity"),
        ([(1.5, 1.0, 2.5, True)], "doubling_value"),
        ([(0.5, 1.0, 0.75, False)], "hold_value"),
        ([(1.5, 1.0, 1.0, False)], "epoch0_norm_bound"),
        ([(1.5, 1.0, 3.0, True), (3.5, 3.0, 3.0, False)], "epoch_norm_bound"),
        ([(0.5, 0.75, 0.75, False)], "initial_threshold"),
    ], ids=["epoch_count_bound", "epoch_count_bound_at_zero_norms",
            "threshold_continuity", "doubling_value", "hold_value",
            "epoch0_norm_bound", "epoch_norm_bound", "initial_threshold"])
    def test_each_property_can_reject(self, trace, violated):
        assert check_tracker_properties(trace, tau_D=1.0) == (False, violated)


class ReferenceAutomata:
    """The filter, the tracker and the penalty weights as one object whose
    round moves its state in place.

    The filter clips the gradient itself, and the weights keep their own
    copy of the tracker's epoch count (beta_denominator, one more than the
    count of tracker doublings).
    """

    def __init__(self, k, tau_G, tau_D, gamma_alpha, gamma_beta):
        self.k, self.h, self.n = k, tau_G, 0
        self.z = tau_D
        self.gamma_alpha, self.gamma_beta = gamma_alpha, gamma_beta
        self.beta_denominator = 1

    def round(self, g_tilde, g_norm, w_norm):
        """(clipped gradient, h_next, filter doubled, z_next, tracker doubled, alpha_t, beta_t)."""
        out = clip_gradient(g_tilde, self.h, g_norm)
        filter_doubled = False
        if out is not g_tilde:
            if self.n == self.k:
                self.h, self.n, filter_doubled = 2.0 * self.h, 0, True
            else:
                self.n += 1
        tracker_doubled = w_norm > self.z
        if tracker_doubled:
            self.z = 2.0 * w_norm
        alpha_t = self.gamma_alpha if filter_doubled else 0.0
        beta_t = 0.0
        if tracker_doubled:
            beta_t = self.gamma_beta / (self.beta_denominator + 1)
            self.beta_denominator += 1
        return out, self.h, filter_doubled, self.z, tracker_doubled, alpha_t, beta_t


positive = st.floats(1e-3, 1e3, allow_nan=False)
# a norm drawn freely, or tied with the current threshold, or one ulp above it
norm_draw = st.tuples(st.sampled_from(["free", "tie", "above"]), st.floats(0.0, 1e4))


def pick(draw, threshold):
    mode, x = draw
    if mode == "tie":
        return threshold
    return math.nextafter(threshold, math.inf) if mode == "above" else x


@given(
    mode=st.sampled_from(["unknown_g_case1", "unknown_g_case2"]),
    k=st.integers(0, 4), tau_G=positive,
    # mostly large: a case2 iterate then outgrows the tracker's fixed guess of 1
    epsilon=st.floats(1e-3, 1e6),
    rounds=st.lists(st.tuples(norm_draw, st.booleans()), min_size=1, max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_automata_match_the_in_place_reference(mode, k, tau_G, epsilon, rounds):
    # the protocol's round steps its filter and tracker and reads its
    # weights; the reference is fed the norm the protocol plays
    assume(k >= 1 or mode == "unknown_g_case2")
    protocol = RobustProtocol(
        ProtocolConfig(mode=mode, T=100, epsilon=epsilon, k=k, tau_G=tau_G)
    )
    f, tr = protocol.filter, protocol.tracker
    ref = ReferenceAutomata(k, tau_G, tr.tau_D, protocol.gamma_alpha, protocol.gamma_beta)
    for g_draw, negative in rounds:
        g_norm = pick(g_draw, f.h)
        g = np.array([-g_norm if negative else g_norm])
        expected = ref.round(g, g_norm, protocol.learner.w_norm)
        doublings, epochs = f.doublings, tr.epoch_index
        rec = protocol.round(g)
        got = (f.h, f.doublings > doublings, rec.z, tr.epoch_index > epochs, rec.alpha, rec.beta)
        assert rec.g_clipped_norm == abs(expected[0][0])
        assert np.array(got).tobytes() == np.array(expected[1:]).tobytes()
        assert (f.h, f.n, tr.z) == (ref.h, ref.n, ref.z)
        assert tr.epoch_index + 1 == ref.beta_denominator
