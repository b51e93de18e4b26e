import numpy as np

from robust_oco.harness.checks import check_filter_properties, check_tracker_properties
from robust_oco.thresholds import GradientFilter, MagnitudeTracker


def step(f, n):
    """Feed the filter the 1-d gradient [n], whose norm is n >= 0, and commit the round."""
    g = np.array([n])
    out, h_next, doubled = f.step(g, n)
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
        # 2k huge rounds declared as budget k: the guarantee's precondition
        # fails, and the checker is allowed to report a violation
        G, k = 1.0, 1
        f = GradientFilter(k=k, tau_G=G / 8.0)
        norms = [10.0 * G] * (10 * (k + 1)) + [0.5 * G] * 20
        _, _, trace = feed_norms(f, norms)
        ok, violated = check_filter_properties(trace, tau_G=G / 8.0, k=k, G=G)
        # not asserted either way; the run simply documents the outcome
        assert ok in (True, False)


def test_step_assigns_nothing():
    # a round whose learner raises after the steps must leave both automata
    # as they were; only commit() moves them
    f, tr = GradientFilter(k=0, tau_G=1.0), MagnitudeTracker(tau_D=1.0)
    g = np.array([3.0])
    assert f.step(g, 3.0)[1:] == f.step(g, 3.0)[1:] == (2.0, True)
    assert tr.step(5.0) == tr.step(5.0) == (10.0, True)
    assert (f.h, f.n, f.clip_rounds, f.doublings) == (1.0, 0, 0, 0)
    assert (tr.z, tr.epoch_index) == (1.0, 0)


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
