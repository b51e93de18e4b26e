"""The benchmark's span tracer sees every call of the kernels it counts.

perfbench/layers.py wraps a traced function at every module attribute bound
to it. A call that reaches the function another way (a class attribute or a
default argument bound at import, say) runs untimed and uncounted, and the
per-layer metrics under-report it. Here each kernel's code object is counted
under sys.setprofile while the tracer is installed: the two counts must agree.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_oco import core, mirror_descent
from robust_oco.adversaries import AdversarySpec, KTBettor
from robust_oco.core import NonFiniteError
from robust_oco.harness.config import ExperimentConfig
from robust_oco.harness.runner import run_experiment
from robust_oco.protocol import MODES, ProtocolConfig, RobustProtocol

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
KERNELS = {
    "core.norm": core.norm,
    "core.as_vector": core.as_vector,
    "core.ensure_finite": core.ensure_finite,
    "mirror_descent.solve": mirror_descent.link_inverse_solve,
}


def span_recorder():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SpanRecorder()


def run_cell(mode: str) -> None:
    """One small d = 3 reweighting cell, then a NaN round that must raise."""
    protocol = ProtocolConfig(
        mode=mode, T=80, k=3, G=1.0 if mode == "known_g" else None, dim=3
    )
    config = ExperimentConfig(
        algorithm=mode,
        adversary=AdversarySpec(kind="dro_reweight", T=80, k=3, seed=2, dim=3),
        protocol=protocol,
        comparator=(0.5, -0.5, 0.25),
        seeds=(2,),
    )
    trace = run_experiment(config)
    assert len(trace.rows) == 80 and trace.summary["count_corrupted"] > 0
    with pytest.raises(NonFiniteError, match="vector input"):
        RobustProtocol(protocol).round(np.array([math.nan, 0.0, 0.0]))


@pytest.mark.parametrize("mode", MODES)
def test_span_counts_equal_code_object_calls(mode):
    recorder = span_recorder()
    names = {fn.__code__: name for name, fn in KERNELS.items()}
    calls = dict.fromkeys(KERNELS, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    with recorder.installed():
        sys.setprofile(hook)
        try:
            run_cell(mode)
        finally:
            sys.setprofile(None)
    totals = recorder.totals()
    assert {name: totals.get(name, (0,))[0] for name in KERNELS} == calls
    # the package no longer calls as_vector (the runner coerces the
    # comparator with the player's kernels); every other kernel runs
    assert calls.pop("core.as_vector") == 0 and all(calls.values()), calls


def test_kt_round_opens_one_observe_span():
    # the KT round is the bettor's observe(): a round that moved the bettor
    # another way left adversaries.kt_observe at 0 spans
    recorder = span_recorder()
    observe = KTBettor.observe.__code__  # the method's own, before the tracer wraps it
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is observe:
            calls += 1

    config = ExperimentConfig(
        algorithm="kt_bettor",
        adversary=AdversarySpec(kind="sign_flip_window", T=50, k=5, window_start=20),
        protocol=ProtocolConfig(mode="kt_bettor", T=50, k=5),
        comparator=(1.0,),
    )
    with recorder.installed():
        sys.setprofile(hook)
        try:
            trace = run_experiment(config)
        finally:
            sys.setprofile(None)
    spans = recorder.totals().get("adversaries.kt_observe", (0,))[0]
    assert spans == len(trace.rows) == calls == 50
