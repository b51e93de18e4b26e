import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robust_oco import epigraph, mirror_descent
from robust_oco.adversaries import KTBettor
from robust_oco.core import NonFiniteError, RegretLedger, norm
from robust_oco.epigraph import EpigraphLearner, EpigraphPoint, weighted_project
from robust_oco.mirror_descent import MirrorDescentLearner, SolverError
from robust_oco.protocol import (
    ALGORITHMS, MODES, DecompositionLedger, ProtocolConfig, RobustProtocol,
)
from robust_oco.regularizer import HuberRegularizer
from snapshot import state_bits

# how each layer names itself in the errors it raises
LAYER_MESSAGE = re.compile(
    "vector input|dual accumulator|mirror descent iterate|epigraph iterate"
    "|link inversion|no representable radius|epigraph projection|wealth scale"
    "|regret ledger"
)
# log2 magnitude ranges of the finite hostile gradients
MAGNITUDES = {
    "unit": (-2, 2),
    "subnormal": (-1074, -1022),
    "near_overflow": (1000, 1023.9),
    "mixed": (-1074, 1023.9),
}
GRADIENT_KINDS = tuple(MAGNITUDES) + ("nan", "inf")


def hostile_gradient(rng, kind: str, dim: int) -> np.ndarray:
    """A gradient of the given kind; nan and inf poison one entry of a unit one."""
    lo, hi = MAGNITUDES.get(kind, MAGNITUDES["unit"])
    g = np.exp2(rng.uniform(lo, hi, dim)) * rng.choice([-1.0, 1.0], dim)
    if kind == "nan":
        g[rng.integers(dim)] = math.nan
    elif kind == "inf":
        g[rng.integers(dim)] = rng.choice([-math.inf, math.inf])
    return g


def play(protocol, regret, g_tilde, g_true):
    """protocol.round, then the caller's regret ledger, as the runner keeps it.

    regret is a RegretLedger on protocol.comparator; it is updated in the
    protocol's form, with the played point and the coerced gradients.
    """
    w, coerce, dim = protocol.w, protocol.kernels.coerce, protocol.config.dim
    rec = protocol.round(g_tilde, g_true=g_true)
    regret.update(w - regret.comparator, coerce(g_true, dim)[0], coerce(g_tilde, dim)[0])
    return rec


def _penalty(protocol):
    """The learner's Huber penalty, whose c, p and alpha the presets set."""
    if protocol.filter is None:
        return protocol.learner.penalty
    return protocol.learner.learner_w.penalty


class TestPresets:
    def test_known_g_parameters(self):
        cfg = ProtocolConfig(mode="known_g", T=400, epsilon=2.0, k=20, G=3.0)
        protocol = RobustProtocol(cfg)
        reg = _penalty(protocol)
        assert protocol.filter is None
        assert protocol.G == 3.0
        assert reg.c == 20 * 3.0
        assert reg.alpha == 2.0 / 20
        assert math.isclose(reg.p, math.log(400))

    def test_known_g_zero_budget_disables_penalty(self):
        protocol = RobustProtocol(ProtocolConfig(mode="known_g", T=100, k=0, G=1.0))
        assert _penalty(protocol).c == 0.0

    def test_known_g_needs_bound(self):
        with pytest.raises(ValueError):
            RobustProtocol(ProtocolConfig(mode="known_g", T=100, k=0))

    def test_case1_parameters(self):
        cfg = ProtocolConfig(mode="unknown_g_case1", T=900, epsilon=2.0, k=30, tau_G=0.5)
        protocol = RobustProtocol(cfg)
        reg = _penalty(protocol)
        assert protocol.filter is not None
        assert reg.c == 30 * 0.5
        assert protocol.gamma_beta == 30.0
        assert protocol.gamma_alpha == 1.0
        assert protocol.learner.gamma == protocol.gamma_alpha + protocol.gamma_beta
        assert protocol.tracker.tau_D == 2.0 / 30
        assert math.isclose(reg.alpha, 2.0 * 0.5 / reg.c)

    def test_case1_needs_positive_budget(self):
        with pytest.raises(ValueError):
            RobustProtocol(ProtocolConfig(mode="unknown_g_case1", T=100, k=0))

    def test_case2_parameters(self):
        cfg = ProtocolConfig(mode="unknown_g_case2", T=900, epsilon=1.5, k=4, tau_G=0.7)
        protocol = RobustProtocol(cfg)
        reg = _penalty(protocol)
        assert reg.c == 0.7
        assert protocol.gamma_beta == 16.0
        assert protocol.gamma_alpha == 5.0
        assert protocol.tracker.tau_D == 1.0
        assert math.isclose(reg.alpha, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("mode, field", [
        ("known_g", "epsilon"), ("known_g", "G"), ("known_g", "tau_G"),
        ("unknown_g_case1", "epsilon"), ("unknown_g_case1", "tau_G"),
        ("unknown_g_case2", "tau_G"),
    ])
    def test_setting_outside_the_positive_floats_names_itself(self, mode, field, bad):
        # the config checks its ranges as it is built, in every mode: known_g
        # reads no tau_G, and it ran with a NaN one
        kw = {"G": 1.0} if mode == "known_g" else {}
        kw[field] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"[protocol] {field} must be positive and finite, got")):
            ProtocolConfig(mode=mode, T=100, k=2, **kw)

    @pytest.mark.parametrize("settings, message", [
        ({"mode": "sgd", "T": 100},
         f"[experiment] algorithm: unknown algorithm 'sgd'; expected one of {ALGORITHMS}"),
        ({"mode": "known_g", "T": 2, "G": 1.0},
         "[adversary] T must be an integer in [3, 2**53), got 2"),
        ({"mode": "unknown_g_case2", "T": 2},
         "[adversary] T must be an integer in [3, 2**53), got 2"),
        ({"mode": "known_g", "T": 100}, "[protocol] G: known_g needs the gradient bound"),
        ({"mode": "unknown_g_case1", "T": 100, "k": 2, "G": 1.0},
         "[protocol] G: unknown_g_case1 must not be given the gradient bound"),
        ({"mode": "unknown_g_case2", "T": 100, "G": 1.0},
         "[protocol] G: unknown_g_case2 must not be given the gradient bound"),
        ({"mode": "unknown_g_case1", "T": 100, "k": 0},
         "[protocol] k must be an integer in [1, 2**53), got 0"),
    ], ids=["mode", "T", "case2_T", "known_g_G", "case1_G", "case2_G", "case1_k"])
    def test_mode_rule_rejected_by_the_protocol(self, settings, message):
        # RobustProtocol used to check these once the runner had drawn the stream
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(**settings)

    @pytest.mark.parametrize("T", [1, 2, 3, 100])
    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("G", [None, 1.0])
    @pytest.mark.parametrize("mode", ALGORITHMS)
    def test_config_refuses_what_the_protocol_refused(self, mode, G, k, T):
        # the mode rules RobustProtocol stated until they moved into the
        # config; kt_bettor reads only epsilon, so it takes every cell
        refused = mode != "kt_bettor" and (
            T < 3 or (G is None) == (mode == "known_g") or (mode == "unknown_g_case1" and k < 1))
        if refused:
            with pytest.raises(ValueError):
                ProtocolConfig(mode=mode, T=T, k=k, G=G)
        else:
            config = ProtocolConfig(mode=mode, T=T, k=k, G=G)
            if mode != "kt_bettor":
                RobustProtocol(config)

    def test_protocol_refuses_a_kt_config(self):
        # a kt_bettor config would otherwise take unknown_g_case2's presets
        with pytest.raises(ValueError, match=re.escape(
                f"RobustProtocol runs one of {MODES}, not 'kt_bettor'") + "$"):
            RobustProtocol(ProtocolConfig(mode="kt_bettor", T=100, k=5))

    @pytest.mark.parametrize("settings, message", [
        ({"mode": "known_g", "T": 100, "G": 1.0, "k": -1},
         "[protocol] k must be an integer in [0, 2**53), got -1"),
        # k = 2.5 ran, and its filter never doubled (the clip count n never
        # equals it); 10**400 raised OverflowError from the presets
        ({"mode": "unknown_g_case2", "T": 100, "k": 2.5},
         "[protocol] k must be an integer in [0, 2**53), got 2.5"),
        ({"mode": "unknown_g_case1", "T": 100, "k": math.nan},
         "[protocol] k must be an integer in [1, 2**53), got nan"),
        ({"mode": "known_g", "T": 100, "G": 1.0, "k": math.inf},
         "[protocol] k must be an integer in [0, 2**53), got inf"),
        ({"mode": "unknown_g_case1", "T": 100, "k": 2**53},
         f"[protocol] k must be an integer in [1, 2**53), got {2**53}"),
        ({"mode": "unknown_g_case2", "T": 100, "k": 10**400},
         f"[protocol] k must be an integer in [0, 2**53), got {10**400}"),
        ({"mode": "known_g", "T": 100, "G": 1.0, "dim": 0},
         "[adversary] dim must be an integer in [1, 2**53), got 0"),
    ], ids=["k", "k_fraction", "k_nan", "k_inf", "k_bound", "k_past_float_range", "dim"])
    def test_setting_out_of_range_rejected(self, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProtocolConfig(**settings)

    def test_unknown_modes_refuse_the_bound(self):
        for mode in ("unknown_g_case1", "unknown_g_case2"):
            with pytest.raises(ValueError):
                RobustProtocol(ProtocolConfig(mode=mode, T=100, k=5, G=1.0))

    def test_a_varied_config_is_checked_again(self):
        # configs were mutable: c.G = None on a known_g config built a
        # protocol whose first round raised TypeError, and c.k = 0 on a case1
        # config raised ZeroDivisionError in RobustProtocol. They are frozen,
        # and dataclasses.replace runs every rule again
        known_g = ProtocolConfig(mode="known_g", T=100, k=2, G=1.0)
        case1 = ProtocolConfig(mode="unknown_g_case1", T=100, k=2)
        for config, field, value in ((known_g, "G", None), (case1, "k", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field, value)
        with pytest.raises(ValueError, match=re.escape(
                "[protocol] G: known_g needs the gradient bound") + "$"):
            dataclasses.replace(known_g, G=None)
        with pytest.raises(ValueError, match=re.escape(
                "[protocol] k must be an integer in [1, 2**53), got 0") + "$"):
            dataclasses.replace(case1, k=0)


def weighted_rounds(protocol, stream):
    """Play the 1-d stream; yield each record with its filter and tracker doubled flags."""
    for g in stream:
        doublings, epochs = protocol.filter.doublings, protocol.tracker.epoch_index
        rec = protocol.round(g, g_true=g)
        yield rec, protocol.filter.doublings > doublings, protocol.tracker.epoch_index > epochs


# at tau_G = 1 the clips double the threshold past 1e6 (20 doublings), then
# the iterate outgrows the tracker's guess: in both unknown-bound modes at
# k <= 12 the tracker doubles at least four times, in rounds without a clip
GROWTH = [-1e6] * 700
# then clips of the other sign: the filter doubles again after the tracker did
SPIKES = [1e9] * 40


class TestPenaltyWeights:
    """The round's alpha is gamma_alpha on a filter doubling, its beta is
    gamma_beta / (n + 1) on the tracker's n-th doubling, and both are 0
    otherwise."""

    @pytest.mark.parametrize("mode, k", [("unknown_g_case1", 3), ("unknown_g_case2", 2)])
    def test_no_doublings_no_weights(self, mode, k):
        protocol = RobustProtocol(ProtocolConfig(mode=mode, T=100, k=k))
        flags = set()
        for rec, filter_doubled, tracker_doubled in weighted_rounds(protocol, GROWTH + SPIKES):
            flags.add((filter_doubled, tracker_doubled))
            assert (rec.alpha > 0.0) is filter_doubled
            assert (rec.beta > 0.0) is tracker_doubled
        assert flags == {(False, False), (True, False), (False, True)}

    def test_first_tracker_doubling_halves_beta(self):
        protocol = RobustProtocol(ProtocolConfig(mode="unknown_g_case1", T=100, k=6))
        for rec, _, tracker_doubled in weighted_rounds(protocol, GROWTH):
            if tracker_doubled:
                break
            assert rec.beta == 0.0
        assert protocol.tracker.epoch_index == 1
        assert rec.beta == protocol.gamma_beta / 2 == 3.0

    def test_filter_doubling_full_alpha_regardless_of_history(self):
        # case2 at k = 1: gamma_alpha = 2
        protocol = RobustProtocol(ProtocolConfig(mode="unknown_g_case2", T=100, k=1))
        alphas = [(rec.alpha, protocol.tracker.epoch_index)
                  for rec, filter_doubled, _ in weighted_rounds(protocol, GROWTH + SPIKES)
                  if filter_doubled]
        assert len(alphas) == protocol.filter.doublings
        assert {alpha for alpha, _ in alphas} == {2.0}
        assert alphas[0][1] == 0 and alphas[-1][1] >= 4

    def test_beta_attenuates(self):
        # case1 at k = 12: gamma_beta = 12, over 2, 3, 4, 5 epochs
        protocol = RobustProtocol(ProtocolConfig(mode="unknown_g_case1", T=100, k=12))
        betas = [rec.beta for rec, _, tracker_doubled in weighted_rounds(protocol, GROWTH)
                 if tracker_doubled]
        assert betas[:4] == [6.0, 4.0, 3.0, 2.4]

    @pytest.mark.parametrize("mode, k", [("unknown_g_case1", 3), ("unknown_g_case2", 2)])
    def test_weight_ceilings(self, mode, k):
        protocol = RobustProtocol(ProtocolConfig(mode=mode, T=100, k=k))
        rng = np.random.default_rng(3)
        noise = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(0, 12, 200)
        stream = GROWTH + SPIKES + list(noise)
        for rec, _, _ in weighted_rounds(protocol, stream):
            assert rec.alpha in (0.0, protocol.gamma_alpha)
            assert 0.0 <= rec.beta <= protocol.gamma_beta / 2
            assert rec.alpha + rec.beta <= protocol.learner.gamma


class _PoisonedBound:
    """Raises on any numeric use; proves a code path never touches the value."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the adversary's gradient bound was read")

    __float__ = __int__ = __mul__ = __rmul__ = __add__ = __radd__ = _refuse
    __sub__ = __rsub__ = __truediv__ = __rtruediv__ = __pow__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse


class TestUnknownModesAreBlindToTheBound:
    def test_instrumented_run(self):
        cfg = ProtocolConfig(mode="unknown_g_case1", T=200, k=3, tau_G=0.5)
        protocol = RobustProtocol(cfg, comparator=[1.0])
        assert cfg.G is None
        # plant a poisoned value where the bound would live; any numeric read
        # of it during the run raises
        object.__setattr__(protocol.config, "G", _PoisonedBound())  # the config is frozen
        protocol.G = _PoisonedBound()
        rng = np.random.default_rng(0)
        for t in range(1, 201):
            w = np.atleast_1d(protocol.w)
            g = np.array([1.0 if w[0] > 1 else -1.0])
            g_tilde = g * 30.0 if t % 67 == 0 else g
            protocol.round(g_tilde, g_true=g)
        assert protocol.t == 200


class TestProtocolRound:
    def test_degenerate_preset_passes_gradients_through(self):
        cfg = ProtocolConfig(mode="known_g", T=50, k=0, G=1.0)
        protocol = RobustProtocol(cfg, comparator=[0.0])
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = np.array([rng.uniform(-1, 1)])
            rec = protocol.round(g, g_true=g)
            assert math.isclose(rec.g_clipped_norm, abs(float(g[0])))
        # with the penalty disabled the correction ledger stays at zero
        assert protocol.decomposition.correction_term == 0.0

    def test_clipping_bounds_observed_norm(self):
        cfg = ProtocolConfig(mode="known_g", T=10, k=1, G=1.0)
        protocol = RobustProtocol(cfg)
        rec = protocol.round(np.array([100.0]), g_true=np.array([1.0]))
        assert math.isclose(rec.g_clipped_norm, 1.0)

    def test_decomposition_identity_long_corrupted_run(self):
        cfg = ProtocolConfig(mode="known_g", T=1000, k=10, G=1.0)
        protocol = RobustProtocol(cfg, comparator=[2.0])
        regret = RegretLedger(comparator=protocol.comparator)
        rng = np.random.default_rng(10)
        corrupt = set(rng.choice(1000, size=10, replace=False))
        for t in range(1000):
            g = np.array([rng.uniform(-1, 1)])
            g_tilde = np.array([rng.uniform(-40, 40)]) if t in corrupt else g
            play(protocol, regret, g_tilde, g)
            assert protocol.decomposition.gap(regret.true_regret_linear) <= 1e-6

    def test_unknown_mode_tracks_thresholds_in_records(self):
        cfg = ProtocolConfig(mode="unknown_g_case2", T=100, k=2, tau_G=0.25)
        protocol = RobustProtocol(cfg, comparator=[0.5])
        rng = np.random.default_rng(12)
        saw_filter_double = False
        for t in range(100):
            g = np.array([rng.uniform(-1, 1)])
            rec = protocol.round(g, g_true=g)
            assert rec.h >= 0.25 and rec.z > 0
            if rec.alpha > 0:
                saw_filter_double = True
        assert saw_filter_double  # tau_G = 0.25 < typical norms forces doubling

    def test_non_finite_input_rejected(self):
        cfg = ProtocolConfig(mode="known_g", T=10, k=0, G=1.0)
        protocol = RobustProtocol(cfg)
        with pytest.raises(Exception):
            protocol.round(np.array([math.nan]))

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("mode", ["unknown_g_case1", "unknown_g_case2"])
    def test_non_finite_projected_iterate_moves_no_state(self, monkeypatch, mode, dim):
        # the protocol used to check the learner's iterate only after the
        # round had committed, naming the round: a NaN projection left the
        # learner, the automata and t (0 -> 1) moved. The epigraph learner
        # now checks its played point's norm before either sub-learner
        # commits. Round 1 projects on the boundary in both modes
        protocol = RobustProtocol(ProtocolConfig(mode=mode, T=10, k=1, dim=dim))
        g = np.full(dim, -1.0 / math.sqrt(dim))
        project = epigraph.weighted_project

        def nan_on_the_boundary(point, h, gamma, w_norm, start):
            out = project(point, h, gamma, w_norm, start)
            return out if out is point else EpigraphPoint(out.w * math.nan, out.y)

        monkeypatch.setattr(epigraph, "weighted_project", nan_on_the_boundary)
        before = state_bits(protocol)
        with pytest.raises(NonFiniteError, match="^non-finite value in epigraph iterate"):
            protocol.round(g, g_true=g)
        assert state_bits(protocol) == before
        assert protocol.t == 0
        monkeypatch.undo()
        rec = protocol.round(g)
        assert rec.g_norm is None  # no true gradient given
        assert protocol.t == 1 and np.isfinite(protocol.w).all()

    @pytest.mark.parametrize("mode", ["known_g", "unknown_g_case1"])
    def test_non_finite_true_gradient_moves_no_state(self, mode):
        # g_true used to be coerced in the ledger update, after the learner
        # had committed: protocol.t, the learner's t, the ledger penalty's t
        # and the filter's pass_rounds went 1 -> 2, and _w_norm went stale
        cfg = ProtocolConfig(mode=mode, T=10, k=1, G=1.0 if mode == "known_g" else None)
        protocol = RobustProtocol(cfg, comparator=np.array([0.5]))
        protocol.round(np.array([-0.5]), g_true=np.array([-0.5]))
        before = state_bits(protocol)
        with pytest.raises(NonFiniteError, match="vector input"):
            protocol.round([-0.5], g_true=[math.nan])
        assert state_bits(protocol) == before
        assert protocol.t == 1

    def test_constant_stream_completes_past_the_projection_collapse(self):
        # a constant -1 stream pushes case2's iterate out to where the
        # projection's bisection collapses before its residual meets the
        # stop rule; the run used to abort at round 4,204
        cfg = ProtocolConfig(mode="unknown_g_case2", T=4900, k=5)
        protocol = RobustProtocol(cfg)
        g = np.array([-1.0])
        for _ in range(4900):
            protocol.round(g)
        learner = protocol.learner
        hat = EpigraphPoint(
            np.atleast_1d(learner.learner_w.w), learner.learner_y.w
        )
        point = weighted_project(hat, learner.h, learner.gamma, norm(hat.w))
        assert np.array_equal(point.w, np.atleast_1d(protocol.w))
        assert protocol.t == 4900
        assert point.y >= float(point.w @ point.w) and point.w[0] > 0

    def test_boundary_projection_starts_from_the_last_radius(self):
        # the benchmark's long-horizon case2 cell: the sign-flip stream at
        # T = 4,900 with its window of k = 70 flips from 0.75 T. A boundary
        # projection that follows another starts Newton from that round's
        # radius: at most 8 residual evaluations per boundary projection,
        # where the bisection alone took 52
        T, k, flipped = 4900, 70, range(3675, 3745)
        protocol = RobustProtocol(ProtocolConfig(mode="unknown_g_case2", T=T, k=k, tau_G=0.5))
        project = epigraph.weighted_project.__code__
        residual = next(c for c in project.co_consts if getattr(c, "co_name", None) == "residual")
        counts = dict(boundary=0, residuals=0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is residual:
                counts["residuals"] += 1
            elif event == "return" and frame.f_code is project:
                counts["boundary"] += arg is not frame.f_locals["point"]

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for t in range(T):
                g = 1.0 if protocol.w > 1.0 else -1.0
                protocol.round(-g if t in flipped else g, g_true=g)
        finally:
            sys.setprofile(previous)
        assert counts["boundary"] >= T // 2
        assert counts["residuals"] <= 8 * counts["boundary"]


class TestHostileInputContract:
    @given(
        mode=st.sampled_from(["known_g", "unknown_g_case1"]),
        dim=st.one_of(st.sampled_from([1, 2, 16, 17]), st.integers(1, 1000)),
        T=st.integers(3, 10**6),
        k=st.integers(1, 50),
        G=st.floats(1e-3, 1e3),
        kinds=st.lists(st.sampled_from(GRADIENT_KINDS), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_leaves_finite_iterate_or_names_its_layer(
        self, mode, dim, T, k, G, kinds, seed
    ):
        # a hostile observed gradient (subnormal, near overflow, NaN, Inf)
        # either plays out to a finite iterate or raises a typed error that
        # names the layer; the true gradient is a bounded one, as the
        # corruption model has it; p = ln T
        rng = np.random.default_rng(seed)
        cfg = ProtocolConfig(
            mode=mode, T=T, k=k, dim=dim, G=G if mode == "known_g" else None
        )
        protocol = RobustProtocol(cfg, comparator=np.full(dim, 0.5))
        regret = RegretLedger(comparator=protocol.comparator)
        assert _penalty(protocol).p == math.log(T)
        for kind in kinds:
            g_true = rng.uniform(-1.0, 1.0, dim) * (min(G, 1.0) / math.sqrt(dim))
            try:
                rec = play(protocol, regret, hostile_gradient(rng, kind, dim), g_true)
            except (NonFiniteError, SolverError, ValueError) as exc:
                assert LAYER_MESSAGE.search(str(exc)), exc
                if kind in ("nan", "inf"):
                    assert isinstance(exc, NonFiniteError)
                    assert "vector input" in str(exc)
                return
            assert kind not in ("nan", "inf")
            assert np.isfinite(protocol.w).all()
            assert rec.g_clipped_norm <= rec.h
            assert math.isfinite(regret.true_regret_linear)
            assert math.isfinite(regret.observed_regret_linear)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dim, u", [(1, 0.0), (1, 1e-3), (3, 0.0)])
    def test_overflowing_bias_accumulator_raises_before_any_ledger_moves(self, mode, dim, u):
        # 30 clean rounds of g~ = g = -1, then g~ = -1 against g = 1.7e308:
        # round 32 overflows the bias gradient accumulator. Without its
        # check, at d = 1 bias_term and the gap read NaN (u = 0) or -inf and
        # inf (u = 1e-3) without a raise, and at d = 3 the in-place sum
        # warned of the overflow. The check used to run after the learner:
        # the raise left the learner, the automata and t (31 -> 32) moved
        cfg = ProtocolConfig(mode=mode, T=100, k=2, dim=dim,
                             G=1.0 if mode == "known_g" else None)
        protocol = RobustProtocol(cfg, comparator=np.full(dim, u))
        regret = RegretLedger(comparator=protocol.comparator)
        g_tilde, g_true = np.zeros(dim), np.zeros(dim)
        g_tilde[0], g_true[0] = -1.0, 1.7e308
        for _ in range(30):
            play(protocol, regret, g_tilde, g_tilde)
        play(protocol, regret, g_tilde, g_true)
        d = protocol.decomposition

        def totals():
            return repr((regret.true_regret_linear, regret.observed_regret_linear,
                         d.error_term, d.correction_term, d.composite_term,
                         d.bias_reg_sum, d.bias_term))

        before = totals(), state_bits(protocol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NonFiniteError, match="^non-finite value in decomposition ledger"
            ):
                protocol.round(g_tilde, g_true=g_true)
        assert (totals(), state_bits(protocol)) == before
        assert protocol.t == 31
        assert math.isfinite(d.bias_term)
        assert math.isfinite(d.gap(regret.true_regret_linear))


class TestStochasticOptimizationEndToEnd:
    def test_averaged_iterate_approaches_optimum_despite_corruption(self):
        # minimize |w - 0.7| from corrupted subgradient evaluations: the
        # uniform iterate average lands near the optimum at the usual
        # online-to-batch rate
        rng = np.random.default_rng(0)
        T, k, target = 10_000, 2, 0.7
        cfg = ProtocolConfig(mode="known_g", T=T, epsilon=1.0, k=k, G=1.0)
        protocol = RobustProtocol(cfg, comparator=[target])
        corrupt = set(rng.choice(T, size=k, replace=False))
        iterates = []
        for t in range(T):
            w = np.atleast_1d(protocol.w)
            iterates.append(w)
            g = np.array([1.0 if w[0] > target else -1.0])
            protocol.round(-g if t in corrupt else g, g_true=g)
        gap = abs(np.mean(iterates, axis=0)[0] - target)
        assert gap <= 0.05



class TestFailedRoundMovesNothing:
    def test_raising_learner_leaves_the_automata_and_the_round_count(self, monkeypatch):
        # the filter, the tracker and the weights used to step, and the round
        # to be counted, before learner.observe: a solve that raised left
        # them one round ahead (clip_rounds 3 -> 4, protocol.t 4 -> 5, with
        # learner_w.t still 4)
        cfg = ProtocolConfig(mode="unknown_g_case1", T=100, k=2, tau_G=0.25)
        protocol = RobustProtocol(cfg, comparator=np.array([1.0]))
        solve = mirror_descent.link_inverse_solve

        def solve_until_round_five(*args):
            if protocol.learner.learner_w.t == 4:
                raise SolverError("planted at round 5")
            return solve(*args)

        monkeypatch.setattr(mirror_descent, "link_inverse_solve", solve_until_round_five)
        # two passes, then clips; the fifth round's clip is the third since
        # the last doubling, so it would double the threshold
        stream = [0.1, -0.1, 1.0, -1.0, 1.0]
        for g in stream[:4]:
            protocol.round(np.array([g]), g_true=np.array([g]))
        parts = (protocol.filter, protocol.tracker, (protocol.gamma_alpha, protocol.gamma_beta))
        before = [state_bits(part) for part in parts], protocol.t, state_bits(protocol)
        with pytest.raises(SolverError, match="planted at round 5"):
            protocol.round(np.array([stream[4]]), g_true=np.array([stream[4]]))
        after = [state_bits(part) for part in parts], protocol.t, state_bits(protocol)
        assert after == before
        assert protocol.t == protocol.learner.learner_w.t == 4
        assert (protocol.filter.clip_rounds, protocol.filter.n) == (2, 2)

    # a link solve that returns the largest double, in the learner whose
    # penalty is on, at d = 26: the new iterate's norm leaves float range.
    # One round of g = -0.5/sqrt(26) * 1 first: in known_g the iterate's
    # entries stayed finite, so the learner and the end-of-round check let
    # it through, and the next round's ledger penalty raised ValueError
    # ("invalid iterate norm inf") at round 3 with t gone 1 -> 3. Three
    # rounds of 0.9 * a unit vector first: known_g played a norm just below
    # the largest double, and the ledger penalty's exp raised an untyped
    # OverflowError at round 5 with t gone 3 -> 5; the epigraph modes
    # committed a NaN projection at round 4 and raised after it
    @pytest.mark.parametrize("mode, stream, accepted, error, message, t", [
        ("known_g", "uniform", 0, SolverError, "no representable radius", 1),
        ("unknown_g_case1", "uniform", 0, NonFiniteError, "mirror descent iterate", 1),
        ("unknown_g_case2", "uniform", 0, NonFiniteError, "mirror descent iterate", 1),
        ("known_g", "random", 1, NonFiniteError, "decomposition ledger$", 4),
        ("unknown_g_case1", "random", 0, SolverError, "no representable radius", 3),
        ("unknown_g_case2", "random", 0, SolverError, "no representable radius", 3),
    ])
    def test_iterate_norm_past_float_range_moves_nothing(
        self, monkeypatch, mode, stream, accepted, error, message, t
    ):
        cfg = ProtocolConfig(mode=mode, T=100, k=2, dim=26,
                             G=1.0 if mode == "known_g" else None)
        protocol = RobustProtocol(cfg)
        if stream == "uniform":
            g, clean = np.full(26, -0.5 / math.sqrt(26)), 1
        else:
            g, clean = np.random.default_rng(1).standard_normal(26), 3
            g *= 0.9 / norm(g)
        for _ in range(clean):
            protocol.round(g, g_true=g)
        solve = mirror_descent.link_inverse_solve

        def largest_radius(theta_norm, V, h, a, reg, offset):
            if reg.c == 0.0:
                return solve(theta_norm, V, h, a, reg, offset)
            return sys.float_info.max, theta_norm, 0.0

        monkeypatch.setattr(mirror_descent, "link_inverse_solve", largest_radius)
        for _ in range(accepted):
            protocol.round(g, g_true=g)
        before = state_bits(protocol)
        with pytest.raises(error, match=message) as info:
            protocol.round(g, g_true=g)
        assert state_bits(protocol) == before
        assert protocol.t == t
        if message == "decomposition ledger$":
            # the played norm is finite, and the penalty at it overflows
            assert isinstance(info.value.__cause__, OverflowError)


def _drawn_vector(data, dim: int, bound: float) -> np.ndarray:
    """A drawn vector of norm at most bound."""
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    return v * (bound / max(norm(v), 1.0))


def _poisoned(v: np.ndarray, value: float) -> np.ndarray:
    v = v.copy()
    v[-1] = value
    return v


def _rejected(call, *args, **kwargs) -> None:
    with pytest.raises((ValueError, TypeError, RuntimeError)):
        call(*args, **kwargs)


ROUNDS = st.integers(0, 12)


class TestRaiseMovesNothing:
    """Each layer, driven through drawn valid rounds, then given one input it
    rejects: every state float, the round counts included, is byte-identical
    after the raise."""

    @given(data=st.data(), dim=st.sampled_from([1, 3]), c=st.sampled_from([0.0, 2.0]),
           rounds=ROUNDS,
           reject=st.sampled_from(["nan", "inf", "above_hint", "decreasing_hint",
                                   "nan_hint", "inf_hint"]))
    @settings(max_examples=40, deadline=None)
    def test_mirror_descent_learner(self, data, dim, c, rounds, reject):
        md = MirrorDescentLearner(dim, 1.0, 1.0, c=c, p=math.log(100))
        for _ in range(rounds):
            hint = md.h * data.draw(st.sampled_from([1.0, 2.0]))
            md.observe(_drawn_vector(data, dim, md.h), hint)
        g, hint = _drawn_vector(data, dim, md.h), md.h
        if reject in ("nan", "inf"):
            g = _poisoned(g, math.nan if reject == "nan" else -math.inf)
        elif reject == "above_hint":
            g = np.full(dim, 2.0 * md.h)
        else:
            hint = {"decreasing_hint": 0.5 * hint, "nan_hint": math.nan,
                    "inf_hint": math.inf}[reject]
        before = state_bits(md)
        _rejected(md.observe, g, hint)
        assert state_bits(md) == before
        assert md.t == rounds

    @pytest.mark.parametrize("reject", ["nan", "above_hint", "decreasing_hint", "solver",
                                        "iterate"])
    def test_mirror_descent_learner_solver_offset(self, monkeypatch, reject):
        # the known_g preset at T = 4,900 and k = 70 on a constant gradient
        # holds a warm-start offset after 250 rounds; a rejected round, a
        # raise inside the solve or on the iterate after it included, leaves
        # it as it was, and the snapshot reads it
        md = MirrorDescentLearner(1, 1.0, 1.0, c=70.0, p=math.log(4900), alpha=1.0 / 70.0)
        for _ in range(250):
            md.observe(-1.0, 1.0)
        offset, earlier = md.root_offset, md.earlier_offsets
        assert max(offset, *earlier) < mirror_descent._WARM_OFFSET  # the next start extrapolates
        g, hint = {"nan": (math.nan, 1.0), "above_hint": (-2.0, 1.0),
                   "decreasing_hint": (-1.0, 0.5)}.get(reject, (-1.0, 1.0))
        if reject == "solver":
            def solve(*args):
                raise SolverError("planted")
            monkeypatch.setattr(mirror_descent, "link_inverse_solve", solve)
        elif reject == "iterate":  # a solve that returns a new offset and no finite iterate
            monkeypatch.setattr(mirror_descent, "link_inverse_solve",
                                lambda theta, *args: (math.inf, theta, -0.5))
        before = state_bits(md)
        _rejected(md.observe, g, hint)
        assert state_bits(md) == before and md.root_offset == offset
        assert md.earlier_offsets == earlier
        md.root_offset = 0.0
        assert state_bits(md) != before
        md.root_offset, md.earlier_offsets = offset, (0.0,) + earlier[1:]
        assert state_bits(md) != before

    @pytest.mark.parametrize("reject", ["nan", "a_t_above_gamma", "decreasing_hint",
                                        "projection"])
    def test_epigraph_learner_boundary_radius(self, monkeypatch, reject):
        # case2 on a constant stream projects on the boundary every round, and
        # each projection starts from the last one's radius, the played norm.
        # A rejected round, a raise in the projection included, leaves that
        # start as it was: the next round passes it and plays what a twin
        # that never saw the rejected round plays
        cfg = ProtocolConfig(mode="unknown_g_case2", T=4900, k=5)
        protocol, twin = RobustProtocol(cfg), RobustProtocol(cfg)
        for p in (protocol, twin):
            for _ in range(300):
                p.round(-1.0)
        learner = protocol.learner
        assert learner._played is not learner._hat
        radius, h = learner.w_norm, learner.h
        g, hint, a_t = {"nan": (math.nan, h, 0.0), "a_t_above_gamma": (-0.1, h, 2 * learner.gamma),
                        "decreasing_hint": (-0.1, 0.5 * h, 0.0)}.get(reject, (-0.1, h, 0.0))
        project, starts = epigraph.weighted_project, []
        if reject == "projection":
            def failing(*args):
                project(*args)
                raise SolverError("planted")
            monkeypatch.setattr(epigraph, "weighted_project", failing)
        before = state_bits(learner)
        _rejected(learner.observe, g, hint, a_t)
        assert state_bits(learner) == before
        assert learner._played is not learner._hat and learner.w_norm == radius
        monkeypatch.setattr(epigraph, "weighted_project",
                            lambda *args: starts.append(args[4]) or project(*args))
        protocol.round(-1.0)
        monkeypatch.undo()
        twin.round(-1.0)
        assert starts == [radius]
        assert state_bits(protocol) == state_bits(twin)

    @given(data=st.data(), dim=st.sampled_from([1, 3]), rounds=ROUNDS,
           reject=st.sampled_from(["nan", "inf", "above_hint", "decreasing_hint",
                                   "nan_hint", "a_t_above_gamma"]))
    @settings(max_examples=40, deadline=None)
    def test_epigraph_learner(self, data, dim, rounds, reject):
        gamma = 2.0
        learner = EpigraphLearner(dim, 1.0, gamma, 0.5, c=1.0, p=math.log(100))
        for _ in range(rounds):
            hint = learner.h * data.draw(st.sampled_from([1.0, 2.0]))
            a_t = data.draw(st.sampled_from([0.0, 0.5 * gamma, gamma]))
            learner.observe(_drawn_vector(data, dim, learner.h), hint, a_t)
        g, hint, a_t = _drawn_vector(data, dim, learner.h), learner.h, 0.0
        if reject in ("nan", "inf"):
            g = _poisoned(g, math.nan if reject == "nan" else math.inf)
        elif reject == "above_hint":
            # an interior prediction feeds its vector side half the gradient,
            # under twice the threshold: past 4h it is above that hint
            assume(learner._played is learner._hat)
            g = np.full(dim, 5.0 * learner.h)
        elif reject == "a_t_above_gamma":
            a_t = 1.5 * gamma
        else:
            hint = 0.5 * hint if reject == "decreasing_hint" else math.nan
        before = state_bits(learner)
        _rejected(learner.observe, g, hint, a_t)
        assert state_bits(learner) == before
        assert learner.learner_w.t == learner.learner_y.t == rounds

    @given(data=st.data(), mode=st.sampled_from(MODES), dim=st.sampled_from([1, 3]),
           rounds=ROUNDS,
           reject=st.sampled_from(["nan", "inf", "nan_g_true", "inf_g_true"]))
    @settings(max_examples=40, deadline=None)
    def test_protocol(self, data, mode, dim, rounds, reject):
        cfg = ProtocolConfig(mode=mode, T=100, k=2, dim=dim, tau_G=0.5,
                             G=1.0 if mode == "known_g" else None)
        protocol = RobustProtocol(cfg, comparator=np.full(dim, 0.5))
        for _ in range(rounds):
            # observed gradients up to 3: the filter clips and doubles
            g_tilde = _drawn_vector(data, dim, 3.0)
            g_true = data.draw(st.sampled_from([g_tilde, _drawn_vector(data, dim, 1.0)]))
            protocol.round(g_tilde, g_true=g_true)
        g_tilde, g_true = _drawn_vector(data, dim, 3.0), _drawn_vector(data, dim, 1.0)
        bad = math.nan if reject.startswith("nan") else -math.inf
        if reject.endswith("g_true"):
            g_true = _poisoned(g_true, bad)
        else:
            g_tilde = _poisoned(g_tilde, bad)
        before = state_bits(protocol)
        _rejected(protocol.round, g_tilde, g_true=g_true)
        assert state_bits(protocol) == before
        assert protocol.t == rounds

    @given(data=st.data(), rounds=ROUNDS,
           reject=st.sampled_from(["above_bound", "nan", "nan_g_true", "inf_g_true",
                                   "missing_g_true"]))
    @settings(max_examples=40, deadline=None)
    def test_kt_player(self, data, rounds, reject):
        player = KTBettor(1.0)
        unit = st.floats(-1.0, 1.0)
        for _ in range(rounds):
            g_tilde = data.draw(unit)
            g_true = data.draw(st.sampled_from([g_tilde, data.draw(unit)]))
            player.round(np.array([g_tilde]), g_true=np.array([g_true]))
        g_tilde, g_true = np.array([data.draw(unit)]), np.array([data.draw(unit)])
        if reject == "above_bound":
            g_tilde = np.array([math.copysign(1.5, g_tilde[0])])
        elif reject == "nan":
            g_tilde = np.array([math.nan])
        elif reject != "missing_g_true":
            g_true = np.array([math.nan if reject == "nan_g_true" else math.inf])
        before = state_bits(player)
        if reject == "missing_g_true":
            _rejected(player.round, g_tilde)
        else:
            _rejected(player.round, g_tilde, g_true=g_true)
        assert state_bits(player) == before
        assert player.t == rounds


def _record_bits(rec) -> list[bytes]:
    return [np.float64(x).tobytes() for x in rec]


def _run_pair(mode, stream, T=300, k=3):
    """The same stream at d = 1 (floats inside) and zero-padded at d = 2 (arrays).

    Each protocol comes with its caller's regret ledger.
    """
    protocols = [
        RobustProtocol(
            ProtocolConfig(mode=mode, T=T, k=k, G=1.0 if mode == "known_g" else None,
                           tau_G=0.5, dim=dim),
            comparator=np.array([1.0, 0.0][:dim]),
        )
        for dim in (1, 2)
    ]
    regrets = [RegretLedger(comparator=p.comparator) for p in protocols]
    for t in range(1, T + 1):
        w1, w2 = (np.atleast_1d(p.w) for p in protocols)
        assert w1.dtype == w2.dtype == np.float64 and w1.shape == (1,)
        assert w1[0].tobytes() == w2[0].tobytes() and w2[1] == 0.0, t
        g_true, g_tilde = stream(t, float(w1[0]))
        recs = [
            play(p, regret, np.array([g_tilde, 0.0][:dim]), np.array([g_true, 0.0][:dim]))
            for dim, p, regret in zip((1, 2), protocols, regrets)
        ]
        assert _record_bits(recs[0]) == _record_bits(recs[1]), t
    return list(zip(protocols, regrets))


def _sign_flip(t, w):
    g = 1.0 if w > 1.0 else -1.0
    return g, (-g if 40 <= t < 60 else g)


def _hidden_zeros(t, w, signs=np.random.default_rng(4).choice([-1.0, 1.0], 300)):
    g = float(signs[t - 1])
    return g, (0.0 if t <= 8 or t % 17 == 0 else g)


def _clipping(t, w, draws=np.random.default_rng(5).uniform(-1.0, 1.0, 300)):
    g = float(draws[t - 1])
    return g, (30.0 * g if t % 7 == 0 else g)


class TestFloatPathMatchesArrayPath:
    """d = 1 runs on floats; padded with a zero coordinate it runs on arrays."""

    @pytest.mark.parametrize("stream", [_sign_flip, _hidden_zeros, _clipping],
                             ids=["sign_flip", "hidden_zeros", "clipping"])
    @pytest.mark.parametrize("mode", ["known_g", "unknown_g_case1", "unknown_g_case2"])
    def test_every_record_and_total_bit_for_bit(self, mode, stream):
        (one, _), (two, _) = pairs = _run_pair(mode, stream)
        totals = [
            [regret.true_regret_linear, regret.observed_regret_linear,
             p.decomposition.error_term, p.decomposition.correction_term,
             p.decomposition.bias_term, p.decomposition.composite_term]
            for p, regret in pairs
        ]
        assert _record_bits(totals[0]) == _record_bits(totals[1])
        assert type(one.learner.w) is float and type(two.learner.w) is np.ndarray
        if one.filter is not None:
            # the stream reached the paths that differ by representation
            assert one.filter.clip_rounds > 0


class CopyLedger(DecompositionLedger):
    """The split on a second copy of the learner's penalty, advanced with the played
    norm |w| in its own commit: the split as it was kept before it read the
    learner's penalty."""

    def __init__(self, protocol):
        own = protocol.learner.penalty
        copy = HuberRegularizer(c=own.c, p=own.p, alpha=own.alpha)
        copy.advance(protocol.learner.w_norm)
        super().__init__(protocol.comparator, copy)
        self.learner = protocol.learner

    def commit(self, step):
        super().commit(step)
        self.penalty.advance(self.learner.w_norm)


class TestOnePenaltyState:
    """The split reads the penalty its learner's played point pays and advances none."""

    @pytest.mark.parametrize("mode", MODES)
    def test_the_ledger_holds_the_learners_penalty(self, mode):
        protocol = RobustProtocol(ProtocolConfig(mode=mode, T=100, k=2,
                                                 G=1.0 if mode == "known_g" else None))
        penalty = protocol.decomposition.penalty
        assert penalty is protocol.learner.penalty
        if mode != "known_g":  # the played point's penalty, not the unprojected one's
            assert penalty is not protocol.learner.learner_w.penalty
        assert penalty.last_iterate_norm == 0.0 and penalty.log_knot == -math.inf

    @pytest.mark.parametrize("mode", MODES)
    def test_commit_advances_nothing(self, mode):
        protocol = RobustProtocol(ProtocolConfig(mode=mode, T=100, k=2,
                                                 G=1.0 if mode == "known_g" else None),
                                  comparator=[0.5])
        for g in (-1.0, -1.0, 0.5):
            protocol.round([g], g_true=[g])
        d = protocol.decomposition
        step = d.step(protocol.w, protocol.learner.w_norm, -1.0, 1.0, 0.0, -1.0, 1.0)
        penalty = state_bits(d.penalty)
        d.commit(step)
        assert state_bits(d.penalty) == penalty
        assert (d.error_term, d._bias_grad_accum, d._bias_grad_bound, d.composite_term,
                d.correction_term, d.bias_reg_sum) == step

    @pytest.mark.parametrize("stream", [_sign_flip, _hidden_zeros, _clipping],
                             ids=["sign_flip", "hidden_zeros", "clipping"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("dim", [1, 3])
    def test_split_matches_a_copy_advanced_with_the_played_norm(self, mode, stream, dim):
        # every round's four terms, bit for bit, against a twin protocol whose
        # ledger keeps its own penalty copy. The epigraph learner advances
        # its played-point penalty with that same norm; known_g's learner
        # advances its penalty with the solved radius, which is an ulp from
        # |w| on 18 to 34 of these rounds: the terms agree all the same
        protocols = [RobustProtocol(
            ProtocolConfig(mode=mode, T=300, k=3, G=1.0 if mode == "known_g" else None,
                           tau_G=0.5, dim=dim),
            comparator=np.array([1.0, -0.5, 0.25][:dim])) for _ in range(2)]
        protocols[1].decomposition = CopyLedger(protocols[1])
        ulp_apart = 0
        for t in range(1, 301):
            g_true, g_tilde = stream(t, float(np.atleast_1d(protocols[0].w)[0]))
            for p in protocols:
                p.round(np.array([g_tilde, 0.0, 0.0][:dim]),
                        g_true=np.array([g_true, 0.0, 0.0][:dim]))
            terms = [[p.decomposition.error_term, p.decomposition.correction_term,
                      p.decomposition.bias_term, p.decomposition.composite_term]
                     for p in protocols]
            assert _record_bits(terms[0]) == _record_bits(terms[1]), t
            norms = [p.decomposition.penalty.last_iterate_norm for p in protocols]
            ulp_apart += norms[0] != norms[1]
        assert (ulp_apart > 0) == (mode == "known_g")

