import configparser
import dataclasses
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_oco import core, epigraph, mirror_descent
from robust_oco.harness import checks, cli, runner

from robust_oco.adversaries import (
    STREAMS, Adversary, AdversarySpec, KTBettor, SignFlipAdversary, make_adversary,
)
from robust_oco.core import CorruptionLedger, NonFiniteError, RegretLedger, kernels
from robust_oco.harness.checks import CHECKS, CheckReport
from robust_oco.harness.cli import main
from robust_oco.harness.config import (
    ExperimentConfig,
    SweepConfig,
    from_ini,
    sweep_from_ini,
    sweep_to_ini,
    to_ini,
)
from robust_oco.harness.runner import (
    ExperimentTrace,
    _sweep_cell_configs,
    make_player,
    run_experiment,
    run_sweep,
    trace_columns,
)
from robust_oco.mirror_descent import SolverError
from robust_oco.protocol import ALGORITHMS, MODES, DecompositionLedger, ProtocolConfig, RoundRecord
from robust_oco.thresholds import GradientFilter
from snapshot import state_bits

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def figure_config(algorithm="known_g", T=12, k=3, start=5, comparator=(1.0,)):
    """A sign-flip cell for any player: the stream |w - 1| with k flipped rounds."""
    return ExperimentConfig(
        algorithm=algorithm,
        adversary=AdversarySpec(kind="sign_flip_window", T=T, k=k, window_start=start),
        protocol=ProtocolConfig(mode=algorithm, T=T, epsilon=1.0, k=k,
                                G=1.0 if algorithm == "known_g" else None),
        comparator=comparator,
        seeds=(0,),
    )


def edited_figure1(tmp_path, edits):
    """configs/figure1.ini with each (section, key) of edits set to its value, or
    deleted at None, written to tmp_path; the path."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string((CONFIGS / "figure1.ini").read_text())
    for (section, key), value in edits.items():
        if value is None:
            parser.remove_option(section, key)
        else:
            parser[section][key] = value
    path = tmp_path / "exp.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def comparator_config(kind, dim, comparator):
    """A T = 20 known_g cell of kind at dim against comparator, k = 4 where the stream takes one."""
    k = 0 if kind == "iid_random" else 4
    return ExperimentConfig(
        algorithm="known_g",
        adversary=AdversarySpec(kind=kind, T=20, k=k, dim=dim),
        protocol=ProtocolConfig(mode="known_g", T=20, k=k, G=1.0, dim=dim),
        comparator=comparator,
    )


# the comparator's rules, (kind, dim, comparator, message): each is a config
# error raised as ExperimentConfig is built, before any stream is drawn. They
# used to raise in run_experiment, after make_adversary had drawn the stream
COMPARATOR_RULES = pytest.mark.parametrize("kind, dim, comparator, message", [
    ("iid_random", 1, "adversary",
     "[experiment] comparator: adversary kind 'iid_random' constructs no comparator; "
     "set one explicitly"),
    ("dro_reweight", 1, "adversary",
     "[experiment] comparator: adversary kind 'dro_reweight' constructs no comparator; "
     "set one explicitly"),
    ("lb_theorem2", 1, (1.0, 2.0),
     "[experiment] comparator has 2 coordinates, but [adversary] dim = 1"),
    ("lb_theorem2", 3, (1.0, 2.0),
     "[experiment] comparator has 2 coordinates, but [adversary] dim = 3"),
], ids=["iid_random_adversary", "dro_reweight_adversary", "d1_two_coordinates",
        "d3_two_coordinates"])


def reweight_config():
    """The unknown-bound reweighting cell of the byte-level rerun checks."""
    return ExperimentConfig(
        algorithm="unknown_g_case1",
        adversary=AdversarySpec(kind="dro_reweight", T=60, k=4, seed=5),
        protocol=ProtocolConfig(mode="unknown_g_case1", T=60, k=8, tau_G=0.5),
        comparator=(0.5,),
        seeds=(5,),
    )


def highdim_config():
    """A d = 8 known_g reweighting cell: its trace has the w_norm column."""
    return ExperimentConfig(
        algorithm="known_g",
        adversary=AdversarySpec(kind="dro_reweight", T=60, k=4, seed=5, dim=8),
        protocol=ProtocolConfig(mode="known_g", T=60, k=8, G=1.0, dim=8),
        comparator=(0.5, -0.25, 0.0, 1.0, -1.0, 0.25, 0.5, -0.5),
        seeds=(5,),
    )


def case2_config():
    """An unknown_g_case2 sign-flip cell: it projects on the boundary and inside."""
    return ExperimentConfig(
        algorithm="unknown_g_case2",
        adversary=AdversarySpec(kind="sign_flip_window", T=300, k=5, window_start=225),
        protocol=ProtocolConfig(mode="unknown_g_case2", T=300, k=5, tau_G=0.5),
        comparator=(1.0,),
        seeds=(0,),
    )


def epigraph_d3_config():
    """A d = 3 unknown_g_case1 cell whose gradients carry -0.0 entries.

    Its trace prints the iterate's entries, so it shows the sign of a zero.
    """
    return ExperimentConfig(
        algorithm="unknown_g_case1",
        adversary=AdversarySpec(kind="lb_theorem2", T=64, k=8, seed=3, dim=3),
        protocol=ProtocolConfig(mode="unknown_g_case1", T=64, k=8, dim=3),
        comparator="adversary",
        seeds=(3,),
    )


def kt_reweight_config():
    """The KT baseline on a reweighted stream whose observed gradients exceed 1."""
    return ExperimentConfig(
        algorithm="kt_bettor",
        adversary=AdversarySpec(kind="dro_reweight", T=200, k=20, seed=0),
        protocol=ProtocolConfig(mode="kt_bettor", T=200, k=20),
        comparator=(1.0,),
    )


def d1_config(kind, algorithm):
    """A d = 1 cell of any kind for any player, KT included: |g~| <= 1.

    The reweighted stream's observed gradients stay within twice G = 0.5.
    """
    T = 20 if kind == "lb_origin" else 60  # lb_origin's horizon cap is 30
    k = 0 if kind == "iid_random" else 4  # the iid stream takes no budget
    spec = AdversarySpec(kind=kind, T=T, k=k, window_start=30, G=0.5)
    return ExperimentConfig(
        algorithm=algorithm, adversary=spec,
        protocol=ProtocolConfig(mode=algorithm, T=T, k=8, tau_G=0.25,
                                G=1.0 if algorithm == "known_g" else None),
        comparator=(0.5,) if kind in ("iid_random", "dro_reweight") else "adversary",
    )


def array_loop(config, seed):
    """run_experiment's d = 1 rows and summary from an outside caller's loop.

    A fresh player's w is read as a 1-entry array, the player is driven
    with 1-entry arrays built from the adversary's floats, and the caller
    keeps the regret score on those arrays; the summary leaves out the wall
    time. KT has no decomposition: its four terms are 0.0.
    """
    adversary = make_adversary(config.adversary, seed=seed)
    from_stream = config.comparator == "adversary"
    comparator = np.asarray(adversary.comparator if from_stream else config.comparator)
    player = make_player(config, comparator)
    budget = CorruptionLedger(lipschitz_G=adversary.lipschitz_bound)
    regret = RegretLedger(comparator=comparator)
    rows, loss_regret = [], 0.0
    for t in range(1, config.adversary.T + 1):
        w = np.atleast_1d(player.w)
        g_true, g_tilde = (np.array([g]) for g in adversary.round(t, float(w[0])))
        corrupted = budget.update(g_true, g_tilde)
        rec = player.round(g_tilde, g_true=g_true)
        regret.update(w - comparator, g_true, g_tilde)
        loss_regret += adversary.loss_gap(float(w[0]), float(comparator[0]))
        rows.append([t, *w.tolist(), *rec[1:], int(corrupted),
                     regret.true_regret_linear, regret.observed_regret_linear])
    d = player.decomposition
    split = (0.0,) * 4 if d is None else (
        d.error_term, d.correction_term, d.bias_term, d.composite_term)
    summary = {
        "final_true_regret": regret.true_regret_linear,
        "final_observed_regret": regret.observed_regret_linear,
        "loss_regret": loss_regret, "error_term": split[0],
        "correction_term": split[1], "bias_term": split[2],
        "composite_term": split[3], "count_corrupted": budget.count_corrupted,
        "big_rounds": budget.big_rounds, "deviation_sum": budget.deviation_sum,
    }
    return rows, summary


def assert_golden(tmp_path, config, seed, golden):
    run_experiment(config, seed=seed, out_dir=tmp_path)
    stem = f"{config.algorithm}_{config.adversary.kind}_seed{seed}"
    produced = (tmp_path / f"trace_{stem}.csv").read_text()
    assert produced == (DATA / golden).read_text()


class TestConfigRoundTrip:
    def test_identity_on_full_config(self):
        cfg = ExperimentConfig(
            algorithm="unknown_g_case2",
            adversary=AdversarySpec(
                kind="dro_reweight", T=120, k=6, window_start=2, D=2.5,
                seed=17, dim=3, G=1.5, epsilon=0.25,
            ),
            protocol=ProtocolConfig(
                mode="unknown_g_case2", T=120, epsilon=0.25, k=6,
                tau_G=0.125, dim=3,
            ),
            comparator=(0.5, -1.25, 3.0),
            seeds=(3, 1, 4),
            output_path="results/run1",
        )
        assert from_ini(to_ini(cfg)) == cfg

    def test_identity_with_adversary_comparator(self):
        cfg = ExperimentConfig(
            algorithm="known_g",
            adversary=AdversarySpec(kind="lb_theorem2", T=64, k=8, D=1.0, seed=9),
            protocol=ProtocolConfig(mode="known_g", T=64, k=8, G=1.0),
            comparator="adversary",
            seeds=(0, 1),
        )
        assert from_ini(to_ini(cfg)) == cfg

    def test_float_fields_round_trip_exactly(self):
        cfg = figure_config()
        cfg = dataclasses.replace(cfg, protocol=dataclasses.replace(
            cfg.protocol, epsilon=0.1 + 0.2))  # not exactly representable as 0.3
        assert from_ini(to_ini(cfg)).protocol.epsilon == cfg.protocol.epsilon

    def test_sweep_identity_on_full_config(self):
        sweep = SweepConfig(
            ks=(3, 5, 8), algorithms=("known_g", "unknown_g_case2"),
            tau_G=0.1 + 0.2, output_path="results/sweep",
        )
        assert sweep_from_ini(sweep_to_ini(sweep)) == sweep

    def test_sweep_defaults_from_an_empty_section(self):
        assert sweep_from_ini("[sweep]\n") == SweepConfig()

    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name
    )
    def test_shipped_configs_round_trip(self, path):
        text = path.read_text()
        if "[sweep]" in text:
            load, dump = sweep_from_ini, sweep_to_ini
        else:
            load, dump = from_ini, to_ini
        config = load(text)
        assert load(dump(config)) == config
        # every shipped config spells out every key, in field order
        assert dump(config) == text

    @pytest.mark.parametrize("key, value, source, needed, more", [
        # case2 refuses a G itself, so that row drops figure1's G = 1.0 too
        ("mode", "unknown_g_case2", "[experiment] algorithm", "'known_g'", {"G": None}),
        ("mode", "kt_bettor", "[experiment] algorithm", "'known_g'", {}),
        ("T", 50, "[adversary] T", "12", {}),
        ("dim", 2, "[adversary] dim", "1", {}),
    ])
    def test_hand_built_protocol_must_agree(self, key, value, source, needed, more):
        # the INI reader derives these fields; a library caller's
        # ProtocolConfig is checked against the same sources
        cfg = figure_config()
        protocol = dataclasses.replace(cfg.protocol, **{key: value}, **more)
        with pytest.raises(ValueError) as info:
            ExperimentConfig(algorithm=cfg.algorithm, adversary=cfg.adversary,
                             protocol=protocol)
        assert str(info.value) == (
            f"[protocol] {key} = {value!r} disagrees with {source}, which needs {needed}"
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                algorithm="sgd",
                adversary=AdversarySpec(kind="iid_random", T=10),
                protocol=ProtocolConfig(mode="known_g", T=10, G=1.0),
            )

    def test_comparator_string_other_than_adversary_rejected(self):
        # the INI reader parses any other text as coordinates, so only a
        # library caller can pass one
        cfg = figure_config()
        message = "[experiment] comparator must be coordinates or 'adversary'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(algorithm=cfg.algorithm, adversary=cfg.adversary,
                             protocol=cfg.protocol, comparator="adversry")

    @COMPARATOR_RULES
    def test_comparator_rule_raises_as_the_config_is_built(self, kind, dim, comparator, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            comparator_config(kind, dim, comparator)

    @pytest.mark.parametrize("kind, k, budget", [
        ("dro_reweight", 25, 50), ("sign_flip_window", 20, 20),
    ])
    def test_protocol_budget_defaults_to_the_streams(self, kind, k, budget):
        # reweighting k rounds deviates by up to 2k, so the protocol needs 2k
        text = (CONFIGS / "reweight_unknown_bound.ini").read_text()
        text = text.replace("k = 50\n", "").replace("dro_reweight", kind)
        text = text.replace("k = 25\n", f"k = {k}\n")
        text = text.replace("window_start = 1", "window_start = 300")
        config = from_ini(text)
        assert (config.adversary.kind, config.adversary.k) == (kind, k)
        assert config.protocol.k == budget


class TestRunExperiment:
    def test_record_count_and_summary_consistency(self):
        trace = run_experiment(figure_config(T=40, k=5, start=10), seed=0)
        assert len(trace.rows) == 40
        # summary regret equals last-row cumulative regret exactly
        col = trace.columns.index("true_regret")
        assert trace.summary["final_true_regret"] == trace.rows[-1][col]

    def test_golden_trace(self, tmp_path):
        assert_golden(tmp_path, figure_config(), 0, "golden_trace.csv")

    def test_kt_trace_is_the_same_under_the_benchmark_spelling(self, tmp_path, monkeypatch):
        # perfbench/cells.py builds its KT cells with a known_g [protocol]
        # (G = 1.0); KT reads only epsilon, so they write kt_bettor's bytes
        spec = importlib.util.spec_from_file_location("perfbench_cells", PERFBENCH / "cells.py")
        cells = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, cells)  # its dataclasses look it up
        spec.loader.exec_module(cells)
        config = cells.long_horizon_cell("kt_bettor", 0).config
        own = dataclasses.replace(config, protocol=ProtocolConfig(
            mode="kt_bettor", T=config.adversary.T, k=config.protocol.k, tau_G=0.5))
        assert own.protocol != config.protocol
        traces = _trace_files(config, tmp_path / "cells")
        assert traces and traces == _trace_files(own, tmp_path / "own")

    @pytest.mark.parametrize(
        "config, seed, golden",
        [
            (figure_config(algorithm="kt_bettor"), 0, "golden_trace_kt_bettor.csv"),
            (reweight_config(), 5, "golden_trace_unknown_g_case1.csv"),
            (highdim_config(), 5, "golden_trace_highdim.csv"),
            (case2_config(), 0, "golden_trace_unknown_g_case2.csv"),
            (epigraph_d3_config(), 3, "golden_trace_epigraph_d3.csv"),
        ],
        ids=["kt_bettor", "unknown_g_case1", "highdim", "unknown_g_case2",
             "epigraph_d3"],
    )
    def test_golden_trace_of_other_players(self, tmp_path, config, seed, golden):
        assert_golden(tmp_path, config, seed, golden)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = reweight_config()
        run_experiment(cfg, seed=5, out_dir=tmp_path / "a")
        run_experiment(cfg, seed=5, out_dir=tmp_path / "b")
        name = "trace_unknown_g_case1_dro_reweight_seed5.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_solver_abort_names_its_round(self, monkeypatch):
        # known_g solves the link once per round on the sign-flip stream
        solve = mirror_descent.link_inverse_solve
        calls = []

        def failing_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise SolverError("link inversion did not converge")
            return solve(*args)

        monkeypatch.setattr(mirror_descent, "link_inverse_solve", failing_third_call)
        with pytest.raises(SolverError, match=r"run aborted at round 3: link inversion") as info:
            run_experiment(figure_config(), seed=0)
        assert isinstance(info.value.__cause__, SolverError)
        assert str(info.value.__cause__) == "link inversion did not converge"

    def test_rejected_gradient_names_its_round(self):
        # the reweighted stream's 15th observed gradient breaks the KT
        # bettor's |g| <= 1 contract
        with pytest.raises(
            ValueError, match=r"run aborted at round 15: KT bettor requires \|g\| <= 1"
        ) as info:
            run_experiment(kt_reweight_config(), seed=0)
        assert type(info.value) is ValueError and info.value.aborted_at_round == 15
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__).startswith("KT bettor requires")

    def test_kt_iterate_past_float_range_names_the_bettor(self):
        # the run used to abort one step later, in the regret ledger ("true
        # inf, observed -inf"), after the bettor had played w = inf
        cfg = ExperimentConfig(
            "kt_bettor", AdversarySpec(kind="sign_flip_window", T=2050, k=2000, window_start=51),
            ProtocolConfig(mode="kt_bettor", T=2050, k=2000), comparator=(1.0,))
        with pytest.raises(NonFiniteError, match=re.escape(
            "run aborted at round 1152: non-finite value in KT iterate at t=1152: inf") + "$"
        ) as info:
            run_experiment(cfg)
        assert info.value.aborted_at_round == 1152

    def test_kt_rejected_gradient_leaves_the_ledger(self):
        # the player's own regret ledger used to be updated before the
        # bettor's checks: true regret 0.5 -> 0.875 and observed 0.5 -> 2.0
        # with t still 1; the caller's ledger, updated after the round as
        # the runner does, sees no round that raised
        player, ledger = KTBettor(1.0), RegretLedger(comparator=1.0)
        player.round(np.array([-0.5]), g_true=np.array([-0.5]))
        ledger.update(0.0 - 1.0, -0.5, -0.5)
        before = state_bits(ledger), state_bits(player)
        with pytest.raises(ValueError, match=r"KT bettor requires \|g\| <= 1"):
            player.round(np.array([-2.0]), g_true=np.array([-0.5]))
        assert (state_bits(ledger), state_bits(player)) == before
        after = (ledger.true_regret_linear, ledger.observed_regret_linear, player.t, player.w)
        assert after == (0.5, 0.5, 1, 0.25)

    def test_kt_round_without_true_gradient_names_it(self):
        # g_true defaulted to None, which the coercion reported as
        # "non-finite value in vector input: array([nan])"
        player, ledger = KTBettor(1.0), RegretLedger(comparator=1.0)
        player.round(np.array([-0.5]), g_true=np.array([-0.5]))
        ledger.update(0.0 - 1.0, -0.5, -0.5)
        before = state_bits(ledger), state_bits(player)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'g_true'"):
            player.round(np.array([0.5]))
        assert (state_bits(ledger), state_bits(player)) == before
        after = (ledger.true_regret_linear, ledger.observed_regret_linear, player.t, player.w)
        assert after == (0.5, 0.5, 1, 0.25)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_observed_regret_aborts_the_run(self, monkeypatch, sign):
        # <g~, w - u> overflows for a finite near-overflow observed gradient:
        # the observed regret used to go to -inf and then NaN while the
        # round succeeded. The runner's ledger raises at round 2 and keeps
        # the totals of round 1: <g, 0 - u> = -0.5 for both
        class NearOverflow(Adversary):
            def round(self, t, w):
                g_true = np.array([0.5, -0.25])
                return g_true, g_true if t == 1 else sign * np.full(2, 1.7e308)

        ledgers = []

        class KeptLedger(RegretLedger):
            def __post_init__(self):
                super().__post_init__()
                ledgers.append(self)

        monkeypatch.setattr(runner, "make_adversary", lambda spec, seed=None: NearOverflow())
        monkeypatch.setattr(runner, "RegretLedger", KeptLedger)
        config = ExperimentConfig(
            algorithm="known_g",
            adversary=AdversarySpec(kind="iid_random", T=10, dim=2),
            protocol=ProtocolConfig(mode="known_g", T=10, k=1, G=1.0, dim=2),
            comparator=(2.0, 2.0),
        )
        with pytest.raises(
            NonFiniteError, match="^run aborted at round 2: non-finite value in regret ledger"
        ) as info:
            run_experiment(config, seed=0)
        assert info.value.aborted_at_round == 2
        (ledger,) = ledgers
        assert (ledger.true_regret_linear, ledger.observed_regret_linear) == (-0.5, -0.5)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_far_comparator_aborts_every_player(self, algorithm):
        # the regret against u = 1e308 leaves float range at round 7 of this
        # uncorrupted stream, and the runner keeps the score for every
        # player. A protocol player's split leaves it first: its penalty
        # term at u overflows at round 2, where the split used to read inf
        # and -inf while the run went on. Each abort names its round and ledger
        config = ExperimentConfig(
            algorithm=algorithm,
            adversary=AdversarySpec(kind="iid_random", T=20),
            protocol=ProtocolConfig(mode=algorithm, T=20, k=2,
                                    G=1.0 if algorithm == "known_g" else None),
            comparator=(1e308,),
        )
        t, ledger = (7, "regret") if algorithm == "kt_bettor" else (2, "decomposition")
        with pytest.raises(
            NonFiniteError, match=f"^run aborted at round {t}: non-finite value in {ledger} ledger"
        ) as info:
            run_experiment(config, seed=0)
        assert info.value.aborted_at_round == t

    @pytest.mark.parametrize("algorithm", ["unknown_g_case1", "unknown_g_case2"])
    def test_far_comparator_split_aborts_at_the_filter_doubling(self, algorithm):
        # at u = 1e160 the regret stays in float range, but a_t * |u|^2
        # overflows at round 3, where the filter first doubles and a_t turns
        # on: the run used to complete with bias_term = inf, composite_term
        # = -inf and a NaN split
        config = ExperimentConfig(
            algorithm=algorithm,
            adversary=AdversarySpec(kind="sign_flip_window", T=400, k=0),
            protocol=ProtocolConfig(mode=algorithm, T=400, k=2, tau_G=0.5),
            comparator=(1e160,),
        )
        with pytest.raises(
            NonFiniteError,
            match="^run aborted at round 3: non-finite value in decomposition ledger$",
        ) as info:
            run_experiment(config, seed=0)
        assert info.value.aborted_at_round == 3

    def test_kt_comparator_of_another_dimension_rejected(self, tmp_path, capsys):
        # rejected as the config is built, as for every player: a config
        # error (exit 2). It used to be found only once the player was built
        message = "[experiment] comparator has 2 coordinates, but [adversary] dim = 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            figure_config(algorithm="kt_bettor", comparator=(1.0, 2.0))
        path = tmp_path / "kt.ini"
        text = to_ini(figure_config(algorithm="kt_bettor"))
        path.write_text(text.replace("comparator = 1.0\n", "comparator = 1.0 2.0\n"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, dim", [("lb_theorem2", 3), ("lb_origin", 1),
                                           ("sign_flip_window", 1)])
    def test_stream_comparator_runs_as_its_coordinates(self, kind, dim):
        # comparator = "adversary" takes the stream's own comparator
        config = comparator_config(kind, dim, "adversary")
        coordinates = np.atleast_1d(make_adversary(config.adversary, seed=2).comparator)
        explicit = comparator_config(kind, dim, tuple(coordinates.tolist()))
        assert explicit.comparator != "adversary"
        ran, ran_explicit = run_experiment(config, seed=2), run_experiment(explicit, seed=2)
        assert repr(ran.rows) == repr(ran_explicit.rows)
        assert ran.summary["final_true_regret"] == ran_explicit.summary["final_true_regret"]

    @pytest.mark.parametrize("algorithm, dim", [("kt_bettor", 1), ("known_g", 1),
                                                ("unknown_g_case1", 3)])
    def test_one_comparator_for_the_player_and_the_score(self, monkeypatch, algorithm, dim):
        # run_experiment coerces the comparator once, to the player's form,
        # and hands that one object to the player and to the regret ledger;
        # a protocol's coercion of it returns it as it is, and nothing in the
        # run calls as_vector
        seen = {}

        def player_of(config, u):
            seen["player"], seen["u"] = make_player(config, u), u
            return seen["player"]

        def ledger_of(comparator):
            seen["scored"] = comparator
            return RegretLedger(comparator)

        monkeypatch.setattr(runner, "make_player", player_of)
        monkeypatch.setattr(runner, "RegretLedger", ledger_of)
        config = ExperimentConfig(
            algorithm=algorithm,
            adversary=AdversarySpec(kind="lb_theorem2", T=20, k=4, dim=dim),
            protocol=ProtocolConfig(mode=algorithm, T=20, k=4, dim=dim,
                                    G=1.0 if algorithm == "known_g" else None),
            comparator=(0.5,) * dim,
        )
        calls = []
        as_vector_code = core.as_vector.__code__
        sys.setprofile(lambda frame, event, arg: event == "call"
                       and frame.f_code is as_vector_code and calls.append(frame))
        try:
            run_experiment(config, seed=0)
        finally:
            sys.setprofile(None)
        assert calls == []
        u = seen["u"]
        assert u is seen["scored"] and type(u) is (float if dim == 1 else np.ndarray)
        assert np.array_equal(np.atleast_1d(u), [0.5] * dim)
        if algorithm != "kt_bettor":  # the KT baseline keeps no comparator
            assert seen["player"].comparator is u
            assert seen["player"].decomposition.comparator is u

    def test_trace_bytes_of_each_value_type(self, tmp_path):
        # one number rule for both files: an int above 2**53 (which "%.17g"
        # would round), a bool and a float32 read the same in each
        unusual = {"big": 2**53 + 1, "flag": True, "single": np.float32(0.1)}
        trace = ExperimentTrace(
            columns=["a", "b", "c", "d", "e", "f", *unusual],
            rows=[[3, np.int64(-7), 0.1, np.float64(-2.5e-300), math.inf, math.nan,
                   *unusual.values()]],
            summary={"algorithm": "known_g", "T": 3, "x": 0.1, "y": math.nan, **unusual},
        )
        trace.write(tmp_path / "trace.csv", tmp_path / "summary.csv")
        unusual_bytes = b"9007199254740993,1,0.10000000149011612\r\n"
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"a,b,c,d,e,f,big,flag,single\r\n3,-7,0.10000000000000001,-2.5e-300,inf,nan,"
            + unusual_bytes
        )
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"algorithm,T,x,y,big,flag,single\r\nknown_g,3,0.10000000000000001,nan,"
            + unusual_bytes
        )

    def test_sweep_csv_bytes(self, monkeypatch, tmp_path):
        # each cell's regrets in grid order: corrupted, then clean
        regrets = iter([0.1, 0.0, -2.5e-300, 3.0, 1.0, 2.0, -1.0, 0.5])
        monkeypatch.setattr(runner, "run_experiment", lambda config: ExperimentTrace(
            columns=[], rows=[], summary={"final_true_regret": next(regrets)}))
        sweep = SweepConfig(ks=(4, 5), algorithms=("known_g", "kt_bettor"))
        run_sweep(sweep, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"algorithm,k,T,regret_corrupted,regret_uncorrupted,ratio\r\n"
            b"known_g,4,16,0.10000000000000001,0,inf\r\n"
            b"known_g,5,25,-2.5e-300,3,-8.3333333333333327e-301\r\n"
            b"kt_bettor,4,16,1,2,0.5\r\n"
            b"kt_bettor,5,25,-1,0.5,-2\r\n"
        )

    def test_trace_rows_of_unusual_types_keep_their_bytes(self, tmp_path):
        # the first row has the usual types (int t and corrupted, float
        # elsewhere); the second has an int h, a bool flag and an int above
        # 2**53 in a float column, which "%.17g" would round
        columns = trace_columns(1)
        rows = [
            [1, 0.5, 0.25, 0.25, 0.25, 1.0, 0.0, 0.0, 0.0, 0, 0.1, -0.0],
            [2, 0.5, 0.25, 0.25, 0.25, 1, 0.0, 0.0, 0.0, True, 2**53 + 1, math.nan],
        ]
        ExperimentTrace(columns, rows, {}).write(tmp_path / "t.csv", tmp_path / "s.csv")
        assert (tmp_path / "t.csv").read_bytes() == (
            ",".join(columns).encode() + b"\r\n"
            b"1,0.5,0.25,0.25,0.25,1,0,0,0,0,0.10000000000000001,-0\r\n"
            b"2,0.5,0.25,0.25,0.25,1,0,0,0,1,9007199254740993,nan\r\n"
        )

    @pytest.mark.parametrize(
        "algorithm, dim",
        [("kt_bettor", 1), ("known_g", 1), ("known_g", 20),
         ("unknown_g_case1", 20), ("unknown_g_case2", 3)],
    )
    def test_round_record_norms_are_the_rounds_vector_norms(self, algorithm, dim):
        # the trace takes these norms from the record instead of computing them
        if algorithm == "kt_bettor":
            config = figure_config(algorithm="kt_bettor", T=30, k=3, start=5)
        else:
            config = ExperimentConfig(
                algorithm=algorithm,
                adversary=AdversarySpec(kind="dro_reweight", T=40, k=4, seed=1, dim=dim),
                protocol=ProtocolConfig(
                    mode=algorithm, T=40, k=8, tau_G=0.25, dim=dim,
                    G=1.0 if algorithm == "known_g" else None,
                ),
                comparator=(0.5,) * dim,
            )
        adversary = make_adversary(config.adversary, seed=1)
        player = make_player(config, config.comparator)
        vector_norm = kernels(dim).norm  # abs for the d = 1 floats
        for t in range(1, config.adversary.T + 1):
            w = player.w
            g_true, g_tilde = adversary.round(t, w)
            rec = player.round(g_tilde, g_true=g_true)
            assert (rec.w_norm, rec.g_norm, rec.g_tilde_norm) == (
                vector_norm(w), vector_norm(g_true), vector_norm(g_tilde)
            )

    def test_schema_stability(self):
        assert trace_columns(1) == [
            "t", "w1", "g_norm", "g_tilde_norm", "g_clipped_norm",
            "h", "z", "alpha", "beta", "corrupted",
            "true_regret", "observed_regret",
        ]
        assert trace_columns(5)[1] == "w_norm"

    def test_budget_counters_in_summary(self):
        trace = run_experiment(figure_config(T=40, k=5, start=10), seed=0)
        assert trace.summary["count_corrupted"] == 5
        assert trace.summary["big_rounds"] == 5  # sign flips deviate by 2 >= G

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_loss_regret_below_linear_regret_on_absolute_loss(self, algorithm):
        # convexity: l(w) - l(u) <= <g, w - u> for subgradients of |w - 1|
        rng = np.random.default_rng(3)
        for _ in range(12):
            u = float(rng.uniform(-3, 3))
            config = figure_config(algorithm, T=50, k=5, start=int(rng.integers(1, 46)),
                                   comparator=(u,))
            summary = run_experiment(config, seed=0).summary
            assert summary["loss_regret"] <= summary["final_true_regret"] + 1e-9

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_loss_regret_sums_the_loss_oracle_left_to_right(self, algorithm):
        config = figure_config(algorithm, T=80, k=6, start=20, comparator=(1.5,))
        trace = run_experiment(config, seed=0)
        adversary = make_adversary(config.adversary, seed=0)
        total = 0.0
        for row in trace.rows:  # the played point is the w1 column
            total += adversary.loss_gap(row[1], 1.5)
        assert np.float64(trace.summary["loss_regret"]).tobytes() == np.float64(total).tobytes()
        assert total != 0.0

    def test_loss_regret_is_zero_without_a_loss_oracle(self):
        assert run_experiment(reweight_config(), seed=5).summary["loss_regret"] == 0.0

    def test_kt_baseline_runs(self):
        trace = run_experiment(figure_config(algorithm="kt_bettor", T=50, k=0), seed=0)
        assert len(trace.rows) == 50
        assert trace.summary["final_true_regret"] > 0

    def test_uncorrupted_random_stream_regret_envelope(self):
        # pinned from the first passing run of this configuration: the
        # normalized values observed were <= 0.016, pinned with margin at 0.1
        pinned_C = 0.1
        for T in (300, 1000, 3000):
            for seed in (0, 1, 2):
                cfg = ExperimentConfig(
                    algorithm="known_g",
                    adversary=AdversarySpec(kind="iid_random", T=T, k=0, seed=seed),
                    protocol=ProtocolConfig(mode="known_g", T=T, epsilon=1.0, k=0, G=1.0),
                    comparator=(1.0,),
                )
                regret = run_experiment(cfg, seed=seed).summary["final_true_regret"]
                envelope = pinned_C * math.sqrt(T) * (1 + math.log(1 + T)) ** 2
                assert regret <= envelope


class TestFloatRunLoop:
    """At d = 1 the run loop trades Python floats, not 1-entry arrays."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("kind", STREAMS)  # every kind runs at d = 1
    def test_rows_and_summary_match_the_array_loop_bit_for_bit(self, kind, algorithm):
        config = d1_config(kind, algorithm)
        trace = run_experiment(config, seed=3)
        rows, summary = array_loop(config, seed=3)
        assert repr(trace.rows) == repr(rows)
        assert repr({key: trace.summary[key] for key in summary}) == repr(summary)

    def test_overflowing_decomposition_ledger_aborts_the_run(self, monkeypatch):
        # the protocol's overflowing bias accumulator, met in a run: round 2
        # of g~ = -1 against g = 1.5e308
        class Overflowing(SignFlipAdversary):
            def round(self, t, w):
                return 1.5e308, -1.0

        monkeypatch.setattr(
            runner, "make_adversary", lambda spec, seed=None: Overflowing(spec, seed)
        )
        with pytest.raises(
            NonFiniteError,
            match="^run aborted at round 2: non-finite value in decomposition ledger",
        ) as info:
            run_experiment(figure_config(T=100, k=2, comparator=(0.0,)), seed=0)
        assert info.value.aborted_at_round == 2


class TestRoundPathRecords:
    """The package builds its records with tuple.__new__, never through the
    namedtuples' Python-level __new__, and a round still returns a RoundRecord."""

    RECORD_NEWS = {
        cls.__new__.__code__: cls.__name__
        for cls in (RoundRecord, mirror_descent.Update, epigraph.EpigraphPoint)
    }
    # weighted_project's nested residual runs only on a boundary projection
    RESIDUAL = next(c for c in epigraph.weighted_project.__code__.co_consts
                    if getattr(c, "co_name", None) == "residual")

    def calls_in(self, config):
        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            trace = run_experiment(config, seed=3)
        finally:
            sys.setprofile(previous)
        return trace, called

    @pytest.mark.parametrize("dim, algorithm", [(1, a) for a in ALGORITHMS]
                             + [(3, mode) for mode in MODES])
    def test_no_call_enters_a_namedtuple_new(self, dim, algorithm):
        if dim == 1:
            config = d1_config("sign_flip_window", algorithm)
        else:
            known = algorithm == "known_g"
            config = ExperimentConfig(
                algorithm=algorithm,
                adversary=AdversarySpec(kind="dro_reweight", T=60, k=4, seed=5, dim=3),
                protocol=ProtocolConfig(mode=algorithm, T=60, k=8, tau_G=0.25, dim=3,
                                        G=1.0 if known else None),
                comparator=(0.5, -0.25, 1.0),
            )
        trace, called = self.calls_in(config)
        assert [self.RECORD_NEWS[c] for c in called if c in self.RECORD_NEWS] == []
        assert len(trace.rows) == config.adversary.T
        if algorithm.startswith("unknown_g"):
            assert self.RESIDUAL in called  # the projection's boundary return ran
        g = 0.5 if dim == 1 else np.full(dim, 0.25)
        record = make_player(config, np.zeros(dim)).round(g, g)
        assert type(record) is RoundRecord and record.g_norm == record.g_tilde_norm


class TestSweep:
    def test_row_count_and_order(self):
        sweep = SweepConfig(ks=(4, 5), algorithms=("kt_bettor", "known_g"))
        rows = run_sweep(sweep)
        assert len(rows) == 2 * 2
        keys = [(r["algorithm"], r["k"]) for r in rows]
        assert keys == sorted(keys, key=lambda x: (x[0] != "kt_bettor", x))

    def test_ratio_column(self):
        rows = run_sweep(SweepConfig(ks=(5,), algorithms=("known_g",)))
        row = rows[0]
        assert row["T"] == 25
        assert math.isclose(
            row["ratio"], row["regret_corrupted"] / row["regret_uncorrupted"]
        )

    @pytest.mark.parametrize("ks, named", [
        ((20, 1), "[sweep] ks must be an integer in [2, 2**53), got 1"),
        ((0,), "[sweep] ks must be an integer in [2, 2**53), got 0"),
        ((20, -1), "[sweep] ks must be an integer in [2, 2**53), got -1"),
        ((4, 94906266), "[sweep] ks = 94906266 puts T = k**2 past 2**53"),
    ], ids=["one", "zero", "negative", "square_past_two_to_53"])
    def test_bad_ks_refused_as_built(self, ks, named):
        # k = 1 (T = 1) fits no window, and a k**2 past 2**53 is no integer
        # setting T; TestIntegerSettings has the values check_integer refuses
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            SweepConfig(ks=ks)

    @pytest.mark.parametrize("tau_G", [0.0, -1.0, math.nan, math.inf])
    def test_tau_G_refused_as_built(self, tau_G):
        with pytest.raises(ValueError, match=re.escape(
            f"[sweep] tau_G must be positive and finite, got {tau_G}") + "$"):
            SweepConfig(tau_G=tau_G)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("k", [2, 3, 4, 70, 94906265])
    def test_every_cell_builds_in_the_one_design(self, algorithm, k):
        # T = k**2 with the flips from int(0.75 * T); epsilon = 1, and G = 1
        # in known_g mode alone; the clean cell has no flips. 94906265 is the
        # largest k with k**2 < 2**53
        T = k * k
        corrupted, clean = _sweep_cell_configs(SweepConfig(ks=(k,), tau_G=0.5), algorithm, k)
        for config, budget in ((corrupted, k), (clean, 0)):
            assert config.adversary == AdversarySpec(
                kind="sign_flip_window", T=T, k=budget, window_start=int(0.75 * T))
            assert config.protocol == ProtocolConfig(
                mode=algorithm, T=T, k=k, tau_G=0.5,
                G=1.0 if algorithm == "known_g" else None)
        make_player(corrupted, corrupted.comparator)  # and each player builds


def _trace_files(config, out):
    """The trace CSVs, by file name, of config's run at its first seed."""
    run_experiment(config, out_dir=out)
    return {path.name: path.read_bytes() for path in out.glob("trace_*.csv")}


def _run_adversary(spec, out):
    protocol = ProtocolConfig(mode="known_g", T=spec.T, k=spec.budget, G=1.0, dim=spec.dim)
    return _trace_files(ExperimentConfig("known_g", spec, protocol), out)


def _run_protocol(protocol, out):
    spec = AdversarySpec(kind="lb_theorem2", T=protocol.T, k=2, dim=protocol.dim)
    return _trace_files(ExperimentConfig(protocol.mode, spec, protocol, comparator="adversary"), out)


def _run_filter(f, out):
    steps = []
    for clipped in [True, False] + [True] * 9:
        steps.append(f.step(clipped))
        f.commit(clipped, steps[-1][1])
    return steps


def _run_sweep(sweep, out):
    run_sweep(sweep, out_path=out / "sweep.csv")
    return (out / "sweep.csv").read_bytes()


def _setting(owner, key, low, make, read, run):
    return pytest.param(key, low, make, read, run, id=f"{owner}.{key}")


# every integer setting: (the key its message names, its lower bound, the
# owner built with the setting at v, the stored setting, the owner's run)
INTEGER_SETTINGS = pytest.mark.parametrize("key, low, make, read, run", [
    _setting("AdversarySpec", "[adversary] T", 1,
             lambda v: AdversarySpec(kind="sign_flip_window", T=v, k=1, window_start=2),
             lambda spec: spec.T, _run_adversary),
    _setting("AdversarySpec", "[adversary] k", 0,
             lambda v: AdversarySpec(kind="sign_flip_window", T=12, k=v, window_start=5),
             lambda spec: spec.k, _run_adversary),
    _setting("AdversarySpec", "[adversary] window_start", 0,
             lambda v: AdversarySpec(kind="sign_flip_window", T=12, k=2, window_start=v),
             lambda spec: spec.window_start, _run_adversary),
    _setting("AdversarySpec", "[adversary] dim", 1,
             lambda v: AdversarySpec(kind="lb_theorem2", T=12, k=2, dim=v),
             lambda spec: spec.dim, _run_adversary),
    _setting("ProtocolConfig", "[protocol] k", 1,
             lambda v: ProtocolConfig(mode="unknown_g_case1", T=12, k=v),
             lambda protocol: protocol.k, _run_protocol),
    _setting("ProtocolConfig", "[adversary] dim", 1,
             lambda v: ProtocolConfig(mode="unknown_g_case1", T=12, k=2, dim=v),
             lambda protocol: protocol.dim, _run_protocol),
    _setting("ProtocolConfig", "[adversary] T", 3,
             lambda v: ProtocolConfig(mode="unknown_g_case1", T=v, k=2),
             lambda protocol: protocol.T, _run_protocol),
    _setting("GradientFilter", "corruption budget k", 0,
             lambda v: GradientFilter(k=v, tau_G=1.0), lambda f: f.k, _run_filter),
    _setting("SweepConfig", "[sweep] ks", 2,
             lambda v: SweepConfig(ks=(v,)), lambda sweep: sweep.ks[0], _run_sweep),
    _setting("ExperimentConfig", "[experiment] seeds", 0,
             lambda v: ExperimentConfig("known_g", AdversarySpec(kind="lb_theorem2", T=12, k=2),
                                        ProtocolConfig(mode="known_g", T=12, k=2, G=1.0),
                                        seeds=(v,)),
             lambda config: config.seeds[0], _trace_files),
])


class TestIntegerSettings:
    """Every integer setting passes core.check_integer, where its owner declares it."""

    @INTEGER_SETTINGS
    @pytest.mark.parametrize("value", [
        2.5, math.nan, math.inf, -math.inf, True, "3", None, "low - 1", 2**53,
    ])
    def test_refused_naming_the_key(self, key, low, make, read, run, value):
        # these used to be kept (AdversarySpec and SweepConfig took True, and
        # ProtocolConfig dim = 2.5 and T = 100.5), truncated (seeds = 2.7) or
        # raised a TypeError ("3"), each owner by its own hand-written check
        value = low - 1 if value == "low - 1" else value
        with pytest.raises(ValueError, match=re.escape(
            f"{key} must be an integer in [{low}, 2**53), got {value!r}"
        ) + "$"):
            make(value)

    @INTEGER_SETTINGS
    @pytest.mark.parametrize("value", [3.0, np.int64(3)], ids=["float", "np_int64"])
    def test_integral_value_stored_as_int_and_runs_alike(
        self, tmp_path, key, low, make, read, run, value
    ):
        owner = make(value)
        assert type(read(owner)) is int and read(owner) == 3
        (tmp_path / "int").mkdir()
        (tmp_path / "value").mkdir()
        assert run(owner, tmp_path / "value") == run(make(3), tmp_path / "int")


def _spec(**fields):
    return AdversarySpec(**{"kind": "sign_flip_window", "T": 12, "k": 3, "window_start": 5,
                            **fields})


def _experiment(**fields):
    return dataclasses.replace(figure_config(), **fields)


# every refusal of AdversarySpec and ExperimentConfig, each with the INI key
# its message starts with
REFUSALS = pytest.mark.parametrize("make, key", [
    (lambda: _spec(kind="sign_flip"), "[adversary] kind"),
    (lambda: _spec(T=0), "[adversary] T"),
    (lambda: _spec(k=-1), "[adversary] k"),
    (lambda: _spec(window_start=-1), "[adversary] window_start"),
    (lambda: _spec(dim=0), "[adversary] dim"),
    (lambda: _spec(G=math.nan), "[adversary] G"),
    (lambda: _spec(epsilon=0.0), "[adversary] epsilon"),
    (lambda: _spec(D=math.inf), "[adversary] D"),
    (lambda: _spec(D=2.0), "[adversary] D"),
    (lambda: _spec(dim=2), "[adversary] dim"),
    (lambda: _spec(window_start=11), "[adversary] window_start"),
    (lambda: _spec(kind="lb_theorem2", k=12), "[adversary] k"),
    (lambda: _spec(kind="lb_origin", T=31), "[adversary] T"),
    (lambda: _spec(kind="lb_origin", k=13), "[adversary] k"),
    (lambda: _spec(kind="lb_origin", T=30, epsilon=1e300), "[adversary] epsilon"),
    (lambda: _spec(kind="dro_reweight", k=7), "[adversary] k"),
    (lambda: _spec(kind="iid_random"), "[adversary] k"),
    (lambda: _experiment(algorithm="sgd"), "[experiment] algorithm"),
    (lambda: _experiment(algorithm="kt_bettor", adversary=_spec(kind="lb_theorem2", dim=3),
                         protocol=ProtocolConfig(mode="kt_bettor", T=12, dim=3)),
     "[adversary] dim"),
    (lambda: _experiment(algorithm="unknown_g_case1"), "[protocol] mode"),
    (lambda: _experiment(adversary=_spec(T=13)), "[protocol] T"),
    (lambda: _experiment(adversary=_spec(kind="lb_theorem2", dim=2)), "[protocol] dim"),
    (lambda: _experiment(comparator="adversry"), "[experiment] comparator"),
    (lambda: _experiment(adversary=_spec(kind="dro_reweight", k=0), comparator="adversary"),
     "[experiment] comparator"),
    (lambda: _experiment(comparator=(math.nan,)), "[experiment] comparator"),
    (lambda: _experiment(comparator=(1.0, 2.0)), "[experiment] comparator"),
    (lambda: _experiment(seeds=(-1,)), "[experiment] seeds"),
    (lambda: _experiment(seeds=()), "[experiment] seeds"),
])


class TestConfigsAreFrozen:
    @pytest.mark.parametrize("config", [
        ProtocolConfig(mode="known_g", T=12, k=3, G=1.0), figure_config(), SweepConfig(),
    ], ids=lambda c: type(c).__name__)
    def test_no_field_can_be_assigned(self, config):
        # a config is checked once, as it is built; dataclasses.replace is
        # the one way to vary it, and it runs every rule again
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))


class TestRefusalsNameTheirKey:
    @REFUSALS
    def test_every_refusal_names_its_key(self, make, key):
        # "[adversary] D = nan" used to read "D must be finite, got nan"
        with pytest.raises(ValueError, match=f"^{re.escape(key)}[ :=]"):
            make()


class TestChecksRegistry:
    def test_registered_names(self):
        assert set(CHECKS) == {
            "filter_lemma", "tracker_lemma", "regularizer_sums", "md_inversion",
            "epigraph_feasibility", "random_seq", "lb_theorem2_floor",
            "origin_safety", "decomposition_identity",
        }

    def test_random_seq_check_passes(self):
        report = CHECKS["random_seq"]()
        assert report.passed
        assert len(report.lines) == 21


def _unclipped(monkeypatch):
    monkeypatch.setattr(checks, "clip_gradient", lambda g, h, g_norm: g)


def _tracker_never_doubles(monkeypatch):
    monkeypatch.setattr(checks.MagnitudeTracker, "step", lambda self, w_norm: (self.z, False))


def _penalty_reads_zero(monkeypatch):
    monkeypatch.setattr(checks.HuberRegularizer, "evaluate", lambda self, w_norm: 0.0)


def _inverse_doubled(monkeypatch):
    solve = checks.link_inverse_solve
    monkeypatch.setattr(checks, "link_inverse_solve", lambda y, *args: (2.0 * solve(y, *args)[0], 0.0))


def _projection_skipped(monkeypatch):
    monkeypatch.setattr(checks, "weighted_project", lambda point, h, gamma, w_norm: point)


def _projection_to_the_axis(monkeypatch):
    # feasible, but it moves an interior point and is no stationary point
    monkeypatch.setattr(checks, "weighted_project", lambda point, h, gamma, w_norm: (
        epigraph.EpigraphPoint(0.0 * point.w, abs(point.y))))


def _bias_term_dropped(monkeypatch):
    monkeypatch.setattr(DecompositionLedger, "bias_term", property(lambda self: 0.0))


class TestSuitesFail:
    """Each suite, its dependency broken, logs a FAIL line and fails."""

    @pytest.mark.parametrize("name, broken, fails", [
        ("filter_lemma", _unclipped, ["stream violated output_within_threshold"]),
        ("tracker_lemma", _tracker_never_doubles, ["trace violated epoch0_norm_bound"]),
        ("regularizer_sums", _penalty_reads_zero, ["envelope failed (lower=False, upper=True)"]),
        ("md_inversion", _inverse_doubled, ["round-trip error 1.00e+00"]),
        ("epigraph_feasibility", _projection_skipped, ["infeasible projection"]),
        ("epigraph_feasibility", _projection_to_the_axis,
         ["interior point was moved by projection", "stationarity residual"]),
        ("decomposition_identity", _bias_term_dropped, ["config 0 (known_g, "]),
    ], ids=["filter_lemma", "tracker_lemma", "regularizer_sums", "md_inversion",
            "epigraph_infeasible", "epigraph_not_stationary", "decomposition_identity"])
    def test_broken_dependency_fails_the_suite(self, monkeypatch, name, broken, fails):
        broken(monkeypatch)
        report = CHECKS[name]()
        assert report.passed is False
        for text in fails:
            assert any(line.startswith(f"[FAIL] {text}") for line in report.lines), text

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        _inverse_doubled(monkeypatch)
        assert main(["verify", "--check", "md_inversion"]) == 1
        assert capsys.readouterr().out.endswith("=> FAIL\n")


class TestCLI:
    def test_run_subcommand(self, tmp_path):
        cfg = figure_config()
        path = tmp_path / "exp.ini"
        path.write_text(to_ini(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace_known_g_sign_flip_window_seed0.csv").exists()

    def test_run_seed_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(to_ini(figure_config()))
        code = main(["run", "--config", str(path), "--seed", "7",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace_known_g_sign_flip_window_seed7.csv").exists()

    def test_run_abort_exits_1(self, tmp_path, capsys):
        # the reweighted stream's 15th gradient breaks the KT bettor's
        # contract after the run has started: a run failure, not a usage error
        path = tmp_path / "kt.ini"
        path.write_text(to_ini(kt_reweight_config()))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "run failed: run aborted at round 15: KT bettor requires |g| <= 1"
        ), err

    @COMPARATOR_RULES
    def test_comparator_rule_exits_2(self, tmp_path, capsys, monkeypatch,
                                     kind, dim, comparator, message):
        # a config error: no stream is drawn and nothing is written
        monkeypatch.setattr(runner, "make_adversary",
                            lambda *args, **kwargs: pytest.fail("a stream was drawn"))
        text = to_ini(comparator_config(kind, dim, (0.5,) * dim))
        bad = comparator if isinstance(comparator, str) else " ".join(map(repr, comparator))
        edited = text.replace("comparator = " + " ".join(["0.5"] * dim), "comparator = " + bad)
        assert "comparator = " + bad + "\n" in edited
        path = tmp_path / "exp.ini"
        path.write_text(edited)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algorithm, edits, message", [
        ("known_g", {("protocol", "G"): "none"},
         "[protocol] G: known_g needs the gradient bound"),
        ("unknown_g_case1", {},
         "[protocol] G: unknown_g_case1 must not be given the gradient bound"),
        ("unknown_g_case1", {("protocol", "G"): "none", ("protocol", "k"): "0"},
         "[protocol] k must be an integer in [1, 2**53), got 0"),
        ("unknown_g_case2", {},
         "[protocol] G: unknown_g_case2 must not be given the gradient bound"),
        ("known_g", {("adversary", "T"): "2", ("adversary", "k"): "1",
                     ("adversary", "window_start"): "1"},
         "[adversary] T must be an integer in [3, 2**53), got 2"),
    ], ids=["known_g_without_G", "case1_with_G", "case1_k_0", "case2_with_G", "known_g_T_2"])
    def test_mode_rule_exits_2_before_the_stream(self, tmp_path, capsys, monkeypatch,
                                                 algorithm, edits, message):
        # figure1.ini under another algorithm: RobustProtocol used to refuse
        # these after run_experiment had drawn the stream, naming no key
        monkeypatch.setattr(runner, "make_adversary",
                            lambda *args, **kwargs: pytest.fail("a stream was drawn"))
        path = edited_figure1(tmp_path, {("experiment", "algorithm"): algorithm, **edits})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits", [
        {("protocol", "G"): None},
        {("adversary", "T"): "2", ("adversary", "k"): "1", ("adversary", "window_start"): "1"},
    ], ids=["without_G", "T_2"])
    def test_kt_runs_without_the_robust_rules(self, tmp_path, edits):
        # KT reads only [protocol] epsilon: it needs no G, and no T >= 3
        path = edited_figure1(tmp_path, edits)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trace_kt_bettor_sign_flip_window_seed0.csv").exists()

    @pytest.mark.parametrize("section, algorithm, key, value, stem", [
        ("protocol", "known_g", "G", "nan", "[protocol] G must be positive and finite"),
        ("protocol", "known_g", "epsilon", "nan", "[protocol] epsilon must be positive and finite"),
        ("protocol", "unknown_g_case2", "tau_G", "inf",
         "[protocol] tau_G must be positive and finite"),
        # a k of 401 digits has no float: the presets raised an untyped
        # OverflowError, exit 1 with a traceback, in every mode
        *[("protocol", algorithm, "k", "1" + "0" * 400,
           f"[protocol] k must be an integer in [{low}, 2**53)")
          for algorithm, low in (("known_g", 0), ("unknown_g_case1", 1), ("unknown_g_case2", 0))],
        # the [protocol] section is checked as it is built, whichever player
        # reads it: these ran with exit 0 under known_g and the KT baseline,
        # and the KT baseline's epsilon was named by KTBettor, not by its key
        ("protocol", "kt_bettor", "epsilon", "nan",
         "[protocol] epsilon must be positive and finite"),
        ("protocol", "known_g", "tau_G", "nan", "[protocol] tau_G must be positive and finite"),
        ("protocol", "known_g", "tau_G", "-1.0", "[protocol] tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "tau_G", "nan", "[protocol] tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "tau_G", "-1.0", "[protocol] tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "G", "nan", "[protocol] G must be positive and finite"),
        # the same key in [adversary] is told apart from its [protocol] twin
        ("adversary", "unknown_g_case1", "G", "nan", "[adversary] G must be positive and finite"),
        ("adversary", "unknown_g_case1", "G", "inf", "[adversary] G must be positive and finite"),
        ("adversary", "unknown_g_case1", "G", "-1.0", "[adversary] G must be positive and finite"),
        ("adversary", "known_g", "G", "nan", "[adversary] G must be positive and finite"),
        ("adversary", "known_g", "D", "nan", "[adversary] D must be finite"),
        ("adversary", "known_g", "D", "inf", "[adversary] D must be finite"),
        ("adversary", "known_g", "epsilon", "nan",
         "[adversary] epsilon must be positive and finite"),
        ("experiment", "kt_bettor", "comparator", "nan", "[experiment] comparator must be finite"),
        ("experiment", "kt_bettor", "comparator", "inf", "[experiment] comparator must be finite"),
        ("experiment", "known_g", "comparator", "nan", "[experiment] comparator must be finite"),
        ("experiment", "known_g", "comparator", "inf", "[experiment] comparator must be finite"),
    ])
    def test_non_finite_setting_exits_2_naming_it(self, tmp_path, capsys,
                                                   section, algorithm, key, value, stem):
        # figure1.ini with one value replaced: a config error before round 1,
        # whatever the stream. It used to be an abort later, a run that
        # stays at the origin (tau_G = inf), or, for the [adversary] keys
        # under the streams that read them, an abort at round 1 (dro_reweight,
        # G = nan or inf), a message naming the corruption ledger's
        # lipschitz_G (G = -1), or a NaN or Inf comparator (lb_theorem2's D,
        # lb_origin's epsilon). A NaN or Inf [experiment] comparator was a
        # run failure before round 1, exit 1 ("non-finite value in vector
        # input"), where a comparator of the wrong size is a config error
        edits = {("experiment", "algorithm"): algorithm}
        if algorithm.startswith("unknown_g"):
            edits["protocol", "G"] = "none"
        path = edited_figure1(tmp_path, {**edits, (section, key): value})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stem}, got {value}"), err

    @pytest.mark.parametrize("dim", [1, 3])
    def test_lb_origin_comparator_overflow_exits_2(self, tmp_path, capsys, dim):
        # 2*epsilon*e^30 past float range: at d = 1 a run failure (exit 1,
        # "non-finite value in vector input"), at d = 3 a RuntimeWarning and
        # a NaN comparator
        cfg = ExperimentConfig(
            algorithm="known_g",
            adversary=AdversarySpec(kind="lb_origin", T=30, k=3, dim=dim),
            protocol=ProtocolConfig(mode="known_g", T=30, k=3, G=1.0, dim=dim),
        )
        text = to_ini(cfg).replace("epsilon = 1.0\n\n[protocol]", "epsilon = 1e300\n\n[protocol]")
        path = tmp_path / "origin.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: [adversary] epsilon 1e+300 overflows the comparator 2*epsilon*e^30\n"), err
        assert not (tmp_path / "out").exists()

    def test_sweep_subcommand(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(
            "[sweep]\nks = 4 5\nalgorithms = known_g\n"
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    def test_verify_pass_and_fail_codes(self, capsys):
        assert main(["verify", "--check", "random_seq"]) == 0
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--check", "not_a_check"])
        assert exit_.value.code == 2
        assert "invalid choice: 'not_a_check'" in capsys.readouterr().err

    def test_verify_runs_every_suite_in_order(self, monkeypatch, capsys):
        def suite(name, passed):
            report = CheckReport(name)
            report.line(passed, f"{name} ran")
            return lambda: report

        monkeypatch.setattr(cli, "CHECKS", {
            "first": suite("first", True), "second": suite("second", False),
            "third": suite("third", True),
        })
        assert main(["verify"]) == 1
        assert capsys.readouterr().out == (
            "check first:\n  [ok] first ran\n=> PASS\n"
            "check second:\n  [FAIL] second ran\n=> FAIL\n"
            "check third:\n  [ok] third ran\n=> PASS\n"
        )

    def test_verify_help_lists_every_suite(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in CHECKS)

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2

    @pytest.mark.parametrize(
        "command, edit, named",
        [
            ("run", lambda text: text.replace("T = 12\n", "", 1),
             ("[adversary]", "'T'")),
            ("run", lambda text: text.replace("window_start", "windw_start"),
             ("[adversary]", "'windw_start'")),
            ("run", lambda text: text.replace("[protocol]", "[protocl]"),
             ("[protocl]",)),
            ("sweep", lambda text: text + "wrkers = 2\n", ("[sweep]", "'wrkers'")),
            ("sweep", lambda text: text + "algorithms = known_g knwon_g\n",
             ("[sweep]", "'knwon_g'")),
            ("run", lambda text: text.replace("algorithm = known_g", "algorithm = knwon_g"),
             ("[experiment] algorithm", "'knwon_g'")),
            # mode, T and dim are derived, so restating them is an error even
            # when the value agrees
            ("run", lambda text: text.replace("[protocol]\n", "[protocol]\nT = 12\n"),
             ("[protocol] has unknown key 'T'; expected: epsilon, k, G, tau_G",)),
            ("run", lambda text: text.replace("[protocol]\n", "[protocol]\nmode = known_g\n"),
             ("[protocol] has unknown key 'mode'; expected: epsilon, k, G, tau_G",)),
            ("run", lambda text: text.replace("[protocol]\n", "[protocol]\ndim = 1\n"),
             ("[protocol] has unknown key 'dim'; expected: epsilon, k, G, tau_G",)),
            ("run", lambda text: text.replace("tau_G = 1.0\n", "tau_G = 1.0\np = 2.0\n"),
             ("[protocol]", "'p'")),
            ("run", lambda text: text.replace("sign_flip_window", "iid_random"),
             ("[adversary] k: iid_random is uncorrupted, so k must be 0, got 3",)),
            ("sweep", lambda text: text.replace("ks = 4", "ks = 4 1"),
             ("[sweep] ks must be an integer in [2, 2**53), got 1\n",)),
            ("sweep", lambda text: text.replace("ks = 4", "ks = 4 94906266"),
             ("[sweep] ks = 94906266 puts T = k**2 past 2**53\n",)),
            # the sweep's design is fixed: epsilon = 1, G = 1 and the flips
            # from 0.75 T are no keys
            ("sweep", lambda text: text + "window_frac = 0.5\n",
             ("[sweep] has unknown key 'window_frac'; expected: ks, algorithms, tau_G, "
              "output_path\n",)),
            ("sweep", lambda text: text.replace("ks = 4", "ks ="), ("[sweep] ks is empty",)),
            ("sweep", lambda text: text + "algorithms =\n", ("[sweep] algorithms is empty",)),
            ("sweep", lambda text: text + "epsilon = 1.0\n",
             ("[sweep] has unknown key 'epsilon'",)),
            ("sweep", lambda text: text + "G = 1.0\n", ("[sweep] has unknown key 'G'",)),
            ("sweep", lambda text: text + "tau_G = -1\n",
             ("[sweep] tau_G must be positive and finite, got -1.0",)),
        ],
        ids=["missing_T", "misspelled_window_start", "misspelled_section",
             "misspelled_workers", "misspelled_algorithm",
             "misspelled_experiment_algorithm", "protocol_T_restated",
             "mode_restated_in_protocol", "protocol_dim_restated", "protocol_p",
             "iid_random_budget",
             "sweep_k_too_small", "sweep_k_squared_too_large", "sweep_window_frac_key",
             "sweep_ks_empty", "sweep_algorithms_empty", "sweep_epsilon_key", "sweep_G_key",
             "sweep_tau_G_negative"],
    )
    def test_bad_key_is_usage_error_naming_it(self, tmp_path, capsys, command,
                                              edit, named):
        text = to_ini(figure_config()) if command == "run" else "[sweep]\nks = 4\n"
        path = tmp_path / "bad.ini"
        path.write_text(edit(text))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert all(fragment in err for fragment in named), err
        assert not (tmp_path / "out").exists()

    def test_runtime_abort_exits_1(self, tmp_path, capsys):
        # a far comparator overflows the decomposition ledger after the run
        # has started: a NonFiniteError, which is a RuntimeError
        cfg = ExperimentConfig(
            algorithm="unknown_g_case1",
            adversary=AdversarySpec(kind="sign_flip_window", T=400, k=0, window_start=300),
            protocol=ProtocolConfig(mode="unknown_g_case1", T=400, k=2, tau_G=0.5),
            comparator=(1e160,),
        )
        path = tmp_path / "far.ini"
        path.write_text(to_ini(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "run failed: run aborted at round 3: non-finite value in decomposition ledger"
        ), err

    @pytest.mark.parametrize("kind", STREAMS)
    @pytest.mark.parametrize("seed_from", ["cli", "ini"])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, kind, seed_from):
        # --seed -1 skipped the seeds check: a stream that draws no random
        # numbers ran and wrote *_seed-1.csv, and a random one exited 2 with
        # numpy's "expected non-negative integer", which names no key
        text = to_ini(comparator_config(kind, 1, (0.5,)))
        argv = ["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out")]
        if seed_from == "cli":
            argv += ["--seed", "-1"]
        else:
            text = text.replace("seeds = 0\n", "seeds = -1\n")
            assert "seeds = -1\n" in text
        (tmp_path / "exp.ini").write_text(text)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [experiment] seeds must be an integer in [0, 2**53), got -1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, prefix", [
        (lambda text: text.replace("T = 12\n", "T = ten\n"),
         "error: [adversary] T: invalid literal for int() with base 10: 'ten'\n"),
        (lambda text: "k = 1\n" + text, "error: File contains no section headers."),
        (lambda text: text.replace("[adversary]\n", "[adversary]\ngarbage\n"),
         "error: Source contains parsing errors"),
        (lambda text: text.replace("seeds = 0", "seeds ="),
         "error: [experiment] seeds: at least one seed is required\n"),
        (lambda text: text.replace("algorithm = known_g", "algorithm = kt_bettor")
         .replace("sign_flip_window", "lb_theorem2").replace("dim = 1", "dim = 3")
         .replace("comparator = 1.0", "comparator = adversary"),
         "error: [adversary] dim: the KT baseline is one-dimensional\n"),
    ], ids=["unparsable_value", "no_section_header", "malformed_line", "empty_seeds",
            "kt_bettor_dim_3"])
    def test_config_error_exits_2_with_its_message(self, tmp_path, capsys, edit, prefix):
        path = tmp_path / "bad.ini"
        path.write_text(edit(to_ini(figure_config())))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert not (tmp_path / "out").exists()
