import dataclasses
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_oco.adversaries import (
    STREAMS,
    AdversarySpec,
    DROReweightAdversary,
    IIDRandomAdversary,
    KTBettor,
    LBOriginAdversary,
    LBTheorem2Adversary,
    SignFlipAdversary,
    _NORM_BLOCK,
    make_adversary,
)
from robust_oco.core import FLOAT, CorruptionLedger, NonFiniteError, norm
from robust_oco.harness.checks import random_sign_expectation
from snapshot import state_bits


# one row, a block of rows and either side of it, and the dro_highdim horizon
STREAM_LENGTHS = [1, _NORM_BLOCK - 1, _NORM_BLOCK, _NORM_BLOCK + 1, 2000]


def full_array_stream(T, G, seed, dim):
    """The iid ball stream as a (T, dim) array, its row norms from np.linalg.norm over the draw."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((T, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = G * rng.uniform(0.0, 1.0, size=(T, 1))
    directions /= norms
    directions *= radii
    return directions


def stream(cls, seed=0, **fields):
    """The stream of class cls, built as make_adversary builds it: from a checked spec."""
    kind = next(kind for kind, stream_class in STREAMS.items() if stream_class is cls)
    return cls(AdversarySpec(kind=kind, **fields), seed)


def stream_bytes(adversary) -> bytes:
    """The bytes of an iid stream's true gradients, kept as floats at dim = 1."""
    return np.asarray(adversary._g, dtype=np.float64).tobytes()


def replay_budget(adversary, T, dim=1, w_source=None):
    led = CorruptionLedger(lipschitz_G=adversary.lipschitz_bound)
    count = 0
    w = 0.0 if dim == 1 else np.zeros(dim)  # a d = 1 stream trades floats
    for t in range(1, T + 1):
        g, g_tilde = adversary.round(t, w)
        led.update(g, g_tilde)
        count += int(not np.array_equal(g, g_tilde))
        if w_source is not None:
            w = w_source(t, g)
    return led, count


def test_every_kind_is_one_class_built_from_its_spec():
    # make_adversary is one lookup in STREAMS, and every stream class takes (spec, seed)
    for cls in STREAMS.values():
        assert list(inspect.signature(cls).parameters) == ["spec", "seed"]
    # a class, not the spec, says whether its stream constructs a comparator
    assert not hasattr(AdversarySpec, "constructs_comparator")
    assert [kind for kind, cls in STREAMS.items() if not cls.constructs_comparator] == [
        "dro_reweight", "iid_random"]


@pytest.mark.parametrize("kind", STREAMS)
def test_a_d1_stream_trades_floats(kind):
    # the run loop passes the played float and gets the gradients as floats
    k = 0 if kind == "iid_random" else 4  # the iid stream takes no budget
    adversary = make_adversary(AdversarySpec(kind=kind, T=20, k=k, window_start=5), seed=2)
    for t in range(1, 21):
        pair = adversary.round(t, 0.5)
        assert (type(pair[0]), type(pair[1])) == (float, float)
    assert type(adversary.loss_gap(0.5, 1.0)) is float


@pytest.mark.parametrize("fields, message", [
    ({"kind": "sign_flip", "T": 10}, "[adversary] kind: unknown adversary kind 'sign_flip'"),
    ({"kind": "lb_theorem2", "T": 8, "k": 8},
     "[adversary] k: the budget must be smaller than the horizon T"),
    ({"kind": "lb_origin", "T": 8, "k": 9},
     "[adversary] k: the budget cannot exceed the horizon T"),
], ids=["unknown_kind", "lb_theorem2_budget", "lb_origin_budget"])
def test_out_of_range_stream_rejected(fields, message):
    # the spec checks every rule of its kind; the stream constructors check nothing
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AdversarySpec(**fields)


@pytest.mark.parametrize("T, k, window_start", [
    (12, 3, 0), (12, 3, 11), (12, 12, 2), (1, 1, 0),
])
def test_sign_flip_window_must_fit_inside_the_horizon(T, k, window_start):
    message = (f"[adversary] window_start: the corruption window must fit inside the horizon, "
               f"so 1 to {T - k + 1}; got {window_start}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AdversarySpec(kind="sign_flip_window", T=T, k=k, window_start=window_start)
    # the widest window that fits, and any window_start with no corrupted round
    widest = AdversarySpec(kind="sign_flip_window", T=T, k=k, window_start=T - k + 1)
    assert make_adversary(widest).flipped == range(T - k + 1, T + 1)
    make_adversary(AdversarySpec(kind="sign_flip_window", T=T, k=0, window_start=window_start))


@pytest.mark.parametrize("kind, field, value", [
    ("iid_random", "T", 10.5),
    ("iid_random", "T", math.inf),
    ("sign_flip_window", "k", 2.5),
    ("sign_flip_window", "window_start", 1.5),
    ("dro_reweight", "dim", 2.5),
    ("dro_reweight", "k", math.nan),
])
def test_spec_rejects_a_size_that_is_not_an_integer(kind, field, value):
    # unchecked, it reaches numpy or range() as a TypeError inside the stream builder
    sizes = {"T": 12, "k": 0 if kind == "iid_random" else 2, "window_start": 5, "dim": 1}
    sizes[field] = value
    low = {"T": 1, "k": 0, "window_start": 0, "dim": 1}[field]
    with pytest.raises(ValueError, match=re.escape(
        f"[adversary] {field} must be an integer in [{low}, 2**53), got {value!r}") + "$"):
        AdversarySpec(kind=kind, **sizes)


def test_spec_keeps_an_integral_float_size_as_an_int():
    spec = AdversarySpec(kind="sign_flip_window", T=12.0, k=np.float64(3.0),
                         window_start=5.0, dim=np.int64(1))
    assert [(type(v), v) for v in (spec.T, spec.k, spec.window_start, spec.dim)] == [
        (int, 12), (int, 3), (int, 5), (int, 1)]
    make_adversary(spec)


def test_spec_cannot_change_after_its_check():
    # make_adversary and the stream constructors trust the checked spec
    spec = AdversarySpec(kind="sign_flip_window", T=12, k=3, window_start=5)
    for field, value in (("kind", "sign_flip"), ("k", 13), ("D", 2.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, value)
    assert (spec.kind, spec.k, spec.D) == ("sign_flip_window", 3, 1.0)


# settings around each kind's rules: T and k within a few of each other,
# T about lb_origin's horizon cap, epsilon about its comparator's overflow
_NEAR_OVERFLOW = 1.7976931348623157e308 / (2.0 * math.exp(30))


@st.composite
def spec_fields(draw):
    kind = draw(st.sampled_from(tuple(STREAMS)))
    T = draw(st.integers(1, 34))
    k = max(0, draw(st.sampled_from([0, T // 2, T])) + draw(st.integers(-2, 2)))
    return dict(
        kind=kind, T=T, k=k,
        window_start=draw(st.integers(T - k - 2, T - k + 3)),
        D=draw(st.sampled_from([1.0, -1.0, 0.0, 2.5])),
        dim=draw(st.integers(1, 3)),
        G=draw(st.sampled_from([1.0, 0.5, 1e300])),
        epsilon=draw(st.one_of(
            st.sampled_from([1.0, 1e-300, 8e294, 9e294]),
            st.floats(0.5, 2.0).map(lambda x: x * _NEAR_OVERFLOW * math.exp(30 - T)),
        )),
    )


@settings(max_examples=400, deadline=None)
@given(spec_fields())
def test_every_spec_that_constructs_builds_its_stream(fields):
    try:
        spec = AdversarySpec(**fields)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adversary = make_adversary(spec, seed=0)
    # the kind's class in STREAMS builds the stream and declares whether it
    # constructs a comparator
    assert type(adversary) is STREAMS[spec.kind]
    assert (adversary.comparator is not None) == STREAMS[spec.kind].constructs_comparator
    if adversary.comparator is not None:
        assert np.isfinite(adversary.comparator).all()
    # and the stream is the one the spec declares
    if spec.kind == "sign_flip_window":
        assert set(adversary.flipped) <= set(range(1, spec.T + 1))
    if spec.kind == "dro_reweight":
        assert (adversary.weights >= 0.0).all()
    if spec.kind in ("lb_theorem2", "lb_origin"):
        assert replay_budget(adversary, spec.T, spec.dim)[1] == spec.k


class TestSignFlip:
    def test_exact_window(self):
        adv = stream(SignFlipAdversary, T=400, k=20, window_start=300)
        corrupted = []
        for t in range(1, 401):
            g, g_tilde = adv.round(t, 0.5)
            if g != g_tilde:
                corrupted.append(t)
            assert abs(g_tilde) == 1.0
        assert corrupted == list(range(300, 320))

    def test_zero_budget_streams_identical(self):
        adv = stream(SignFlipAdversary, T=50, k=0, window_start=10)
        for t in range(1, 51):
            g, g_tilde = adv.round(t, 2.0)
            assert g == g_tilde

    def test_subgradient_convention_at_kink(self):
        adv = stream(SignFlipAdversary, T=1, k=0, window_start=1)
        g, _ = adv.round(1, 1.0)
        assert g == -1.0

    def test_loss_gap_matches_absolute_loss(self):
        adv = stream(SignFlipAdversary, T=1, k=0, window_start=1)
        assert adv.loss_gap(3.0, 1.0) == abs(3.0 - 1.0) - 0.0

    @pytest.mark.parametrize("D", [-3.0, 0.0, 100.0])
    def test_offset_other_than_one_rejected(self, D):
        # the stream is |w - 1|: [adversary] D used to be silently ignored
        message = f"[adversary] D: sign_flip_window is centred at 1, not at {D}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdversarySpec(kind="sign_flip_window", T=12, k=3, window_start=5, D=D)
        spec = AdversarySpec(kind="sign_flip_window", T=12, k=3, window_start=5, D=1.0)
        assert np.array_equal(make_adversary(spec).comparator, [1.0])

    def test_dimension_other_than_one_rejected(self):
        # the float stream used to reach its first round, which failed there
        message = "[adversary] dim = 3: sign_flip_window is one-dimensional"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdversarySpec(kind="sign_flip_window", T=12, k=3, window_start=5, dim=3)


class TestLBTheorem2:
    def test_exactly_k_corrupted(self):
        adv = stream(LBTheorem2Adversary, 3, T=64, k=8, D=1.0, dim=2)
        _, count = replay_budget(adv, 64, dim=2)
        assert count == 8

    def test_hidden_rounds_pay_full_price(self):
        for seed in range(20):
            adv = stream(LBTheorem2Adversary, seed, T=32, k=5, D=2.5)
            for t in range(1, 6):
                g, g_tilde = adv.round(t, 0.0)
                assert g_tilde == 0.0
                assert math.isclose(float(g * adv.comparator[0]), -2.5)

    def test_monte_carlo_mean_matches_enumeration_oracle(self):
        # seed-mean of sum_t <g_t, -u*> should approach D*(k + E|S_{T-k}|)
        T, k, D, seeds = 24, 4, 1.0, 4000
        total = 0.0
        for s in range(seeds):
            adv = stream(LBTheorem2Adversary, s, T=T, k=k, D=D)
            total += sum(
                -float(adv.round(t, 0.0)[0] * adv.comparator[0])
                for t in range(1, T + 1)
            )
        mc_mean = total / seeds
        exact = D * (k + random_sign_expectation(T - k))
        se = 3.0 * D * math.sqrt(T - k) / math.sqrt(seeds)
        assert abs(mc_mean - exact) <= se

    def test_norm_bounds(self):
        adv = stream(LBTheorem2Adversary, 11, T=40, k=6, D=1.0, dim=3)
        for t in range(1, 41):
            g, g_tilde = adv.round(t, np.zeros(3))
            assert norm(g) <= 1.0 and norm(g_tilde) <= 1.0


class TestRandomSignExpectation:
    def test_single_flip(self):
        assert random_sign_expectation(1) == 1.0

    def test_two_flips(self):
        assert random_sign_expectation(2) == 1.0

    def test_four_flips_exact(self):
        assert random_sign_expectation(4) == 1.5

    def test_floor_holds_through_twenty(self):
        for T in range(1, 21):
            assert random_sign_expectation(T) >= math.sqrt(T / 16.0)

    def test_refuses_beyond_enumeration_range(self):
        with pytest.raises(ValueError):
            random_sign_expectation(21)

    def test_matches_binomial_formula(self):
        # E|S_T| via binomial counts is an independent exact oracle
        for T in (3, 7, 12):
            exact = sum(
                math.comb(T, j) * abs(2 * j - T) for j in range(T + 1)
            ) / 2.0**T
            assert random_sign_expectation(T) == exact


class TestLBOrigin:
    def test_zero_budget_identical(self):
        adv = stream(LBOriginAdversary, T=10, k=0, epsilon=1.0)
        for t in range(1, 11):
            g, g_tilde = adv.round(t, 0.0)
            assert g == g_tilde

    def test_corrupted_round_gradient_vanishes(self):
        adv = stream(LBOriginAdversary, T=10, k=3, epsilon=1.0)
        for t in (8, 9, 10):
            g, g_tilde = adv.round(t, 0.0)
            assert abs(g) == 0.0
            assert g_tilde == 1.0

    def test_comparator_magnitude(self):
        adv = stream(LBOriginAdversary, T=5, k=1, epsilon=1.0)
        assert math.isclose(norm(adv.comparator), 2.0 * math.exp(5.0), rel_tol=1e-12)

    def test_horizon_guard(self):
        message = "[adversary] T = 31 exceeds the overflow guard 30"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdversarySpec(kind="lb_origin", T=31)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_comparator_overflow_rejected(self, dim):
        # epsilon = 1e300 left an inf comparator at d = 1 (a run failure,
        # exit 1) and, with a RuntimeWarning, a NaN one at d = 3
        for epsilon in (1e300, 9e294):
            message = f"[adversary] epsilon {epsilon} overflows the comparator 2*epsilon*e^30"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                AdversarySpec(kind="lb_origin", T=30, k=3, epsilon=epsilon, dim=dim)
        adv = make_adversary(AdversarySpec(kind="lb_origin", T=30, k=3, epsilon=8e294, dim=dim))
        assert np.isfinite(adv.comparator).all()
        assert norm(adv.comparator) == 2.0 * 8e294 * math.exp(30)

    @pytest.mark.parametrize("k", [0, 10, 30])
    def test_origin_safety_streams_build_as_before(self, k):
        # check_origin_safety's lb_origin cases: epsilon 1 at the horizon cap
        adv = make_adversary(AdversarySpec(kind="lb_origin", T=30, k=k, window_start=22))
        assert np.array_equal(adv.comparator, [2.0 * math.exp(30)])
        assert [adv.round(t, 0.0) for t in range(1, 31)] == (
            [(1.0, 1.0)] * (30 - k) + [(0.0, 1.0)] * k)


class TestIIDRandom:
    @pytest.mark.parametrize("dim", [1, 3, 256])
    def test_stream_matches_out_of_place_formula(self, dim):
        for seed in range(3):
            adv = stream(IIDRandomAdversary, seed, T=50, G=2.0, dim=dim)
            rng = np.random.default_rng(seed)
            directions = rng.standard_normal((50, dim))
            norms = np.linalg.norm(directions, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = 2.0 * rng.uniform(0.0, 1.0, size=(50, 1))
            expected = directions / norms * radii
            # at dim = 1 the stream is kept as the column's floats
            assert np.array_equal(np.reshape(adv._g, (50, dim)), expected)

    @pytest.mark.parametrize("dim", [1, 3, 256])
    @pytest.mark.parametrize("T", STREAM_LENGTHS)
    def test_stream_bits_match_the_full_array_norm(self, T, dim):
        # the row norms are taken a block of rows at a time; the oracle takes
        # them over the whole draw with np.linalg.norm
        for seed in (0, 1):
            adv = stream(IIDRandomAdversary, seed, T=T, G=1.5, dim=dim)
            assert stream_bytes(adv) == full_array_stream(T, 1.5, seed, dim).tobytes()

    def test_stream_build_keeps_one_full_size_array(self):
        # np.linalg.norm over the whole draw would square it into a second
        # (T, dim) array, 8.23 MB here; block by block, only the stream and one block
        spec = AdversarySpec(kind="iid_random", T=2000, G=1.0, dim=256)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            adv = IIDRandomAdversary(spec, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= adv._g.nbytes + 1e6

    @pytest.mark.parametrize("k", [1, 10])
    def test_budget_other_than_zero_rejected(self, k):
        # the stream corrupts nothing: [adversary] k used to be silently ignored
        message = f"[adversary] k: iid_random is uncorrupted, so k must be 0, got {k}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdversarySpec(kind="iid_random", T=20, k=k)
        spec = AdversarySpec(kind="iid_random", T=20, k=0)
        assert spec.budget == 0
        make_adversary(spec)


_NO_ROOM_TO_REWEIGHT = f"^{re.escape('[adversary] k: the reweighting construction needs T >= 2k')}$"


class TestDROReweight:
    def test_zero_budget_is_identity(self):
        adv = stream(DROReweightAdversary, 5, T=40, k=0, G=1.0)
        for t in range(1, 41):
            g, g_tilde = adv.round(t, 0.0)
            assert np.allclose(g, g_tilde)

    def test_total_variation_budget_exact(self):
        for seed in range(30):
            adv = stream(DROReweightAdversary, seed, T=100, k=7, G=2.0)
            tv = 0.5 * float(np.abs(adv.weights - 1.0 / 100).sum())
            assert math.isclose(tv, 7 / 100, rel_tol=1e-12)

    def test_weights_form_a_distribution(self):
        adv = stream(DROReweightAdversary, 2, T=64, k=10, G=1.0)
        assert math.isclose(adv.weights.sum(), 1.0, rel_tol=1e-12)
        assert np.all(adv.weights >= 0)

    def test_deviation_budget(self):
        G = 1.5
        adv = stream(DROReweightAdversary, 9, T=200, k=11, G=G)
        led, _ = replay_budget(adv, 200)
        assert led.deviation_sum / G <= 2 * 11 + 1e-9
        assert AdversarySpec(kind="dro_reweight", T=200, k=11, G=G).budget == 22

    @pytest.mark.parametrize("dim", [1, 3])
    def test_is_the_iid_stream_reweighted(self, dim):
        # the root seed's first child draws the iid gradients, its second the weights
        adv = make_adversary(AdversarySpec(kind="dro_reweight", T=30, k=4, G=1.5, dim=dim), seed=6)
        gradient_stream, _ = np.random.default_rng(6).spawn(2)
        iid = stream(IIDRandomAdversary, gradient_stream, T=30, G=1.5, dim=dim)
        assert "loss_gap" not in vars(DROReweightAdversary)
        assert adv.lipschitz_bound == 1.5 and adv.comparator is None
        w = 0.0 if dim == 1 else np.zeros(dim)
        for t in range(1, 31):
            g, g_tilde = adv.round(t, w)
            g_iid, _ = iid.round(t, w)
            assert np.array_equal(g, g_iid)
            assert np.array_equal(g_tilde, 30 * adv.weights[t - 1] * g_iid)

    @pytest.mark.parametrize("dim", [1, 3, 256])
    @pytest.mark.parametrize("T", STREAM_LENGTHS)
    def test_stream_bits_match_the_full_array_norm(self, T, dim):
        for seed in (0, 1):
            adv = stream(DROReweightAdversary, seed, T=T, k=T // 2, G=1.5, dim=dim)
            gradient_stream, _ = np.random.default_rng(seed).spawn(2)
            assert stream_bytes(adv) == full_array_stream(T, 1.5, gradient_stream, dim).tobytes()

    def test_needs_room_for_reweighting(self):
        with pytest.raises(ValueError, match=_NO_ROOM_TO_REWEIGHT):
            AdversarySpec(kind="dro_reweight", T=10, k=6)
        weights = make_adversary(AdversarySpec(kind="dro_reweight", T=10, k=5)).weights
        assert weights.sum() == pytest.approx(1.0)

    def test_no_stream_without_its_checked_spec(self):
        # DROReweightAdversary(T=10, k=8, G=1.0, seed=0) took raw arguments no
        # spec rule had seen, and its 2 unboosted rounds got the weight
        # 1/T - k/(T(T - k)) = -0.3: observed gradients the true ones times -3.
        # A stream is now built only from a spec, which refuses these settings
        with pytest.raises(TypeError):
            DROReweightAdversary(T=10, k=8, G=1.0, seed=0)
        with pytest.raises(ValueError, match=_NO_ROOM_TO_REWEIGHT):
            AdversarySpec(kind="dro_reweight", T=10, k=8, G=1.0)


class TestBudgetReplay:
    def test_every_generator_matches_declared_budget(self):
        specs = [
            AdversarySpec(kind="sign_flip_window", T=100, k=9, window_start=30),
            AdversarySpec(kind="lb_theorem2", T=64, k=8, seed=4),
            AdversarySpec(kind="lb_origin", T=20, k=5),
            AdversarySpec(kind="dro_reweight", T=120, k=10, seed=7),
            AdversarySpec(kind="iid_random", T=50, seed=8),
        ]
        for spec in specs:
            adv = make_adversary(spec)
            led, _ = replay_budget(
                adv, spec.T,
                dim=spec.dim,
                w_source=lambda t, g: 0.5,
            )
            assert led.big_rounds <= spec.budget
            assert led.deviation_sum / adv.lipschitz_bound <= spec.budget + 1e-9
            assert not hasattr(adv, "budget")  # the spec is its only statement
        assert [spec.budget for spec in specs] == [9, 8, 5, 20, 0]


class TestLowerBoundFloorAcrossLearners:
    @pytest.mark.parametrize("algorithm", ["kt_bettor", "known_g", "unknown_g_case1"])
    def test_seed_mean_regret_floor(self, algorithm):
        # no learner in this package escapes the matched stream's floor
        from robust_oco.harness.config import ExperimentConfig
        from robust_oco.harness.runner import run_experiment
        from robust_oco.protocol import ProtocolConfig

        T, k, D, seeds = 64, 8, 1.0, 200
        mode = algorithm if algorithm != "kt_bettor" else "known_g"
        regrets = np.empty(seeds)
        for s in range(seeds):
            cfg = ExperimentConfig(
                algorithm=algorithm,
                adversary=AdversarySpec(kind="lb_theorem2", T=T, k=k, D=D, seed=s),
                protocol=ProtocolConfig(
                    mode=mode, T=T, k=k,
                    G=1.0 if mode == "known_g" else None, tau_G=0.5,
                ),
                comparator="adversary",
            )
            regrets[s] = run_experiment(cfg, seed=s).summary["final_true_regret"]
        mean = regrets.mean()
        se = regrets.std(ddof=1) / math.sqrt(seeds)
        floor = D * (k + math.sqrt((T - k) / 16.0))
        assert mean >= floor - 3.0 * se


class TestKTBettor:
    def test_first_prediction_zero(self):
        assert KTBettor(1.0).w == 0.0

    def test_hand_traced_update(self):
        kt = KTBettor(1.0)
        kt.observe(np.array([-1.0]))
        assert kt.w == 0.5

    def test_monotone_growth_under_constant_gradient(self):
        kt = KTBettor(1.0)
        prev = 0.0
        for t in range(1, 40):
            kt.observe(np.array([-1.0]))
            cur = kt.w
            if t >= 2:
                assert cur > prev
            prev = cur

    def test_rejects_oversized_gradient(self):
        kt = KTBettor(1.0)
        with pytest.raises(ValueError):
            kt.observe(np.array([1.5]))

    def test_float_trajectory_matches_exact_rational_arithmetic(self):
        # the KT recursion on unit gradients is exactly representable in
        # rationals; the float implementation must reproduce it, so the
        # trajectory (and everything downstream of its phase) is canonical
        from fractions import Fraction

        one = Fraction(1)
        sum_neg, reward, w_exact = Fraction(0), Fraction(0), Fraction(0)
        kt = KTBettor(1.0)
        for t in range(1, 401):
            w_float = kt.w
            assert abs(w_float - float(w_exact)) <= 1e-12 * max(1.0, abs(float(w_exact)))
            g = one if w_exact > 1 else -one
            kt.observe(np.array([float(g)]))
            reward += -g * w_exact
            sum_neg += -g
            w_exact = sum_neg / (t + 1) * (1 + reward)

    def test_wealth_stays_positive_on_adversarial_signs(self):
        rng = np.random.default_rng(21)
        kt = KTBettor(0.5)
        for _ in range(5000):
            w = kt.w
            g = np.array([math.copysign(1.0, w) if w != 0 else 1.0])
            kt.observe(g)
            assert kt.epsilon + kt.reward > 0

    def test_given_norm_skips_only_the_coercion(self):
        # round() passes its coerced observed gradient with its norm; the
        # observe without the norm coerces the gradient itself
        rng = np.random.default_rng(5)
        given, coerced = KTBettor(1.0), KTBettor(1.0)
        for t in range(300):
            g = float(rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]))
            given.observe(*FLOAT.coerce(g, 1))
            coerced.observe(np.array([g]))
            assert state_bits(given) == state_bits(coerced), t

    @pytest.mark.parametrize(
        "bad, error, message",
        [(math.nan, NonFiniteError, "non-finite value in vector input"),
         (None, ValueError, "missing vector input: got None"),
         ([0.5, 0.5], ValueError, "dimension mismatch: expected 1, got 2")],
        ids=["nan", "none", "list"],
    )
    def test_observe_without_norm_rejects(self, bad, error, message):
        kt = KTBettor(1.0)
        kt.observe(-0.5)
        before = state_bits(kt)
        with pytest.raises(error, match=message):
            kt.observe(bad)
        assert state_bits(kt) == before

    def test_nonpositive_wealth_moves_no_state(self):
        # reward, sum_neg_grad and t used to move before the wealth check
        # raised; a bet past the wealth is planted to reach that check
        kt = KTBettor(1.0)
        kt.observe(np.array([-0.5]))
        kt.w = 10.0
        before = state_bits(kt)
        with pytest.raises(RuntimeError, match="KT wealth went nonpositive"):
            kt.observe(np.array([1.0]))
        assert state_bits(kt) == before

    def test_iterate_past_float_range_moves_no_state(self):
        # the 1152nd iterate on this stream is past float range; it used to
        # be assigned (w = inf), and the run aborted in the regret ledger
        stream = make_adversary(
            AdversarySpec(kind="sign_flip_window", T=2050, k=2000, window_start=51), seed=0)
        kt = KTBettor(1.0)
        for t in range(1, 1152):
            g_true, g_tilde = stream.round(t, kt.w)
            kt.round(g_tilde, g_true)
        g_true, g_tilde = stream.round(1152, kt.w)
        before = state_bits(kt)
        with pytest.raises(NonFiniteError, match=r"^non-finite value in KT iterate at t=1152: inf$"):
            kt.round(g_tilde, g_true)
        assert state_bits(kt) == before
        assert math.isfinite(kt.w) and kt.t == 1151
