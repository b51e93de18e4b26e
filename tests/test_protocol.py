import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_oco.core import NonFiniteError, norm
from robust_oco.epigraph import EpigraphPoint, weighted_project
from robust_oco.mirror_descent import SolverError
from robust_oco.protocol import ProtocolConfig, RobustProtocol

# how each layer names itself in the errors it raises
LAYER_MESSAGE = re.compile(
    "vector input|dual accumulator|mirror descent iterate|iterate after round"
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


def _penalty(protocol):
    """The learner's Huber penalty, whose c, p and alpha the presets set."""
    if protocol.filter is None:
        return protocol.learner.reg
    return protocol.learner.learner_w.reg


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
        assert protocol.weights.gamma_beta == 30.0
        assert protocol.weights.gamma_alpha == 1.0
        assert protocol.learner.gamma == protocol.weights.gamma
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
        assert protocol.weights.gamma_beta == 16.0
        assert protocol.weights.gamma_alpha == 5.0
        assert protocol.tracker.tau_D == 1.0
        assert math.isclose(reg.alpha, 1.5)

    def test_unknown_modes_refuse_the_bound(self):
        for mode in ("unknown_g_case1", "unknown_g_case2"):
            with pytest.raises(ValueError):
                RobustProtocol(ProtocolConfig(mode=mode, T=100, k=5, G=1.0))



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
        protocol.config.G = _PoisonedBound()
        protocol.G = _PoisonedBound()
        rng = np.random.default_rng(0)
        for t in range(1, 201):
            w = protocol.predict()
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
        rng = np.random.default_rng(10)
        corrupt = set(rng.choice(1000, size=10, replace=False))
        for t in range(1000):
            w = protocol.predict()
            g = np.array([rng.uniform(-1, 1)])
            g_tilde = np.array([rng.uniform(-40, 40)]) if t in corrupt else g
            protocol.round(g_tilde, g_true=g)
            assert protocol.decomposition_gap() <= 1e-6

    def test_unknown_mode_tracks_thresholds_in_records(self):
        cfg = ProtocolConfig(mode="unknown_g_case2", T=100, k=2, tau_G=0.25)
        protocol = RobustProtocol(cfg, comparator=[0.5])
        rng = np.random.default_rng(12)
        saw_filter_double = False
        for t in range(100):
            g = np.array([rng.uniform(-1, 1)])
            rec = protocol.round(g, g_true=g)
            assert rec.h >= 0.25 and rec.z > 0
            if rec.alpha_t > 0:
                saw_filter_double = True
        assert saw_filter_double  # tau_G = 0.25 < typical norms forces doubling

    def test_non_finite_input_rejected(self):
        cfg = ProtocolConfig(mode="known_g", T=10, k=0, G=1.0)
        protocol = RobustProtocol(cfg)
        with pytest.raises(Exception):
            protocol.round(np.array([math.nan]))

    def test_non_finite_iterate_after_round_names_the_round(self):
        # the end-of-round norm is the protocol's own finiteness check: an
        # iterate its learner let through still stops the run, naming the round
        cfg = ProtocolConfig(mode="known_g", T=10, k=1, G=1.0, dim=2)
        protocol = RobustProtocol(cfg)
        rec = protocol.round(np.array([0.5, 0.5]))
        assert rec.g_norm is None  # no true gradient given
        learner = protocol.learner
        observe = learner.observe

        def observe_then_poison(gradient, hint):
            observe(gradient, hint)
            learner.w = np.array([math.nan, 0.0])

        learner.observe = observe_then_poison
        with pytest.raises(NonFiniteError, match="non-finite value in iterate after round 2"):
            protocol.round(np.array([0.5, 0.5]))


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
            learner.learner_w.predict(), float(learner.learner_y.predict()[0])
        )
        point = weighted_project(hat, learner.h, learner.gamma, norm(hat.w))
        assert np.array_equal(point.w, protocol.predict())
        assert protocol.t == 4900
        assert point.y >= float(point.w @ point.w) and point.w[0] > 0


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
        assert _penalty(protocol).p == math.log(T)
        for kind in kinds:
            g_true = rng.uniform(-1.0, 1.0, dim) * (min(G, 1.0) / math.sqrt(dim))
            try:
                rec = protocol.round(hostile_gradient(rng, kind, dim), g_true=g_true)
            except (NonFiniteError, SolverError, ValueError) as exc:
                assert LAYER_MESSAGE.search(str(exc)), exc
                if kind in ("nan", "inf"):
                    assert isinstance(exc, NonFiniteError)
                    assert "vector input" in str(exc)
                return
            assert kind not in ("nan", "inf")
            assert np.isfinite(protocol.predict()).all()
            assert rec.g_clipped_norm <= rec.h
            assert math.isfinite(protocol.regret.true_regret_linear)
            assert math.isfinite(protocol.regret.observed_regret_linear)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_observed_regret_raises_and_keeps_the_totals(self, sign):
        # <g, w - u> overflows for a finite near-overflow observed gradient:
        # the observed regret used to go to -inf and then NaN while the
        # round succeeded
        cfg = ProtocolConfig(mode="known_g", T=10, k=1, G=1.0, dim=2)
        protocol = RobustProtocol(cfg, comparator=np.full(2, 2.0))
        g_true = np.array([0.5, -0.25])
        protocol.round(g_true, g_true=g_true)
        ledger = protocol.regret
        before = (ledger.true_regret_linear, ledger.observed_regret_linear)
        with pytest.raises(NonFiniteError, match="regret ledger"):
            protocol.round(sign * np.full(2, 1.7e308), g_true=g_true)
        assert (ledger.true_regret_linear, ledger.observed_regret_linear) == before


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
            w = protocol.predict()
            iterates.append(w)
            g = np.array([1.0 if w[0] > target else -1.0])
            protocol.round(-g if t in corrupt else g, g_true=g)
        gap = abs(np.mean(iterates, axis=0)[0] - target)
        assert gap <= 0.05

