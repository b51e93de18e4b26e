import configparser
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_oco import epigraph, mirror_descent
from robust_oco.harness import runner

from robust_oco.adversaries import (
    ADVERSARY_KINDS, Adversary, AdversarySpec, KTBettor, SignFlipAdversary, make_adversary,
)
from robust_oco.core import CorruptionLedger, NonFiniteError, RegretLedger, kernels
from robust_oco.harness.checks import CHECKS, run_check
from robust_oco.harness.cli import main
from robust_oco.harness.config import (
    ALGORITHMS,
    ExperimentConfig,
    from_ini,
    protocol_mode,
    sweep_from_ini,
    sweep_to_ini,
    to_ini,
)
from robust_oco.harness.runner import (
    ExperimentTrace,
    SweepConfig,
    make_player,
    resolve_comparator,
    run_experiment,
    run_sweep,
    trace_columns,
)
from robust_oco.mirror_descent import SolverError
from robust_oco.protocol import MODES, ProtocolConfig, RoundRecord
from snapshot import state_bits

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def figure_config(algorithm="known_g", T=12, k=3, start=5, comparator=(1.0,)):
    """A sign-flip cell for any player: the stream |w - 1| with k flipped rounds."""
    mode = protocol_mode(algorithm)
    return ExperimentConfig(
        algorithm=algorithm,
        adversary=AdversarySpec(kind="sign_flip_window", T=T, k=k, window_start=start),
        protocol=ProtocolConfig(mode=mode, T=T, epsilon=1.0, k=k,
                                G=1.0 if mode == "known_g" else None),
        comparator=comparator,
        seeds=(0,),
    )


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
        protocol=ProtocolConfig(mode="known_g", T=200, k=20),
        comparator=(1.0,),
    )


def d1_config(kind, algorithm):
    """A d = 1 cell of any kind for any player, KT included: |g~| <= 1.

    The reweighted stream's observed gradients stay within twice G = 0.5.
    """
    mode = protocol_mode(algorithm)
    T = 20 if kind == "lb_origin" else 60  # lb_origin's horizon cap is 30
    k = 0 if kind == "iid_random" else 4  # the iid stream takes no budget
    spec = AdversarySpec(kind=kind, T=T, k=k, window_start=30, G=0.5)
    return ExperimentConfig(
        algorithm=algorithm, adversary=spec,
        protocol=ProtocolConfig(mode=mode, T=T, k=8, tau_G=0.25,
                                G=1.0 if mode == "known_g" else None),
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
    comparator = resolve_comparator(config, adversary)
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
        cfg.protocol.epsilon = 0.1 + 0.2  # not exactly representable as 0.3
        assert from_ini(to_ini(cfg)).protocol.epsilon == cfg.protocol.epsilon

    def test_sweep_identity_on_full_config(self):
        sweep = SweepConfig(
            ks=(3, 5, 8), algorithms=("known_g", "unknown_g_case2"),
            epsilon=0.1 + 0.2, G=2.5, tau_G=0.125,
            window_frac=0.5, output_path="results/sweep",
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

    @pytest.mark.parametrize("key, value, source, needed", [
        ("mode", "unknown_g_case2", "[experiment] algorithm", "'known_g'"),
        ("T", 50, "[adversary] T", "12"),
        ("dim", 2, "[adversary] dim", "1"),
    ])
    def test_hand_built_protocol_must_agree(self, key, value, source, needed):
        # the INI reader derives these fields; a library caller's
        # ProtocolConfig is checked against the same sources
        cfg = figure_config()
        setattr(cfg.protocol, key, value)
        with pytest.raises(ValueError) as info:
            ExperimentConfig(algorithm=cfg.algorithm, adversary=cfg.adversary,
                             protocol=cfg.protocol)
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
        with pytest.raises(ValueError, match="^comparator must be coordinates or 'adversary'$"):
            ExperimentConfig(algorithm=cfg.algorithm, adversary=cfg.adversary,
                             protocol=cfg.protocol, comparator="adversry")

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
        mode = protocol_mode(algorithm)
        config = ExperimentConfig(
            algorithm=algorithm,
            adversary=AdversarySpec(kind="iid_random", T=20),
            protocol=ProtocolConfig(mode=mode, T=20, k=2,
                                    G=1.0 if mode == "known_g" else None),
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
        # rejected when the player is built, as RobustProtocol rejects one:
        # a config error (exit 2), not a run abort
        cfg = figure_config(algorithm="kt_bettor")
        cfg.comparator = (1.0, 2.0)
        with pytest.raises(ValueError, match="^dimension mismatch: expected 1, got 2") as info:
            run_experiment(cfg, seed=0)
        assert not hasattr(info.value, "aborted_at_round")
        path = tmp_path / "kt.ini"
        path.write_text(to_ini(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dimension mismatch: expected 1, got 2"), err

    def test_trace_bytes_of_each_value_type(self, tmp_path):
        trace = ExperimentTrace(
            columns=["a", "b", "c", "d", "e", "f"],
            rows=[[3, np.int64(-7), 0.1, np.float64(-2.5e-300), math.inf, math.nan]],
            summary={"algorithm": "known_g", "T": 3, "x": 0.1, "y": math.nan},
        )
        trace.write(tmp_path / "trace.csv", tmp_path / "summary.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"a,b,c,d,e,f\r\n3,-7,0.10000000000000001,-2.5e-300,inf,nan\r\n"
        )
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"algorithm,T,x,y\r\nknown_g,3,0.10000000000000001,nan\r\n"
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
        player = make_player(config, resolve_comparator(config, adversary))
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
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)  # every kind runs at d = 1
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
            runner, "make_adversary", lambda spec, seed=None: Overflowing(spec.T, 0, 1)
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

    @pytest.mark.parametrize("ks, window_frac, named", [
        ((20, 1), 0.75, "[sweep] ks = 1 with window_frac = 0.75: corruption window"),
        ((0,), 0.75, "[sweep] ks = 0 with window_frac = 0.75: T must be >= 1"),
        ((4,), math.nan, "[sweep] ks = 4 with window_frac = nan: cannot convert"),
        ((4,), math.inf, "[sweep] ks = 4 with window_frac = inf: cannot convert"),
        ((4,), 1.0, "[sweep] ks = 4 with window_frac = 1.0: corruption window"),
    ])
    def test_bad_cell_raises_before_any_cell_runs(self, monkeypatch, ks, window_frac, named):
        # ks = 20 1 ran every k = 20 cell, then failed naming no key
        ran = []
        monkeypatch.setattr(runner, "run_experiment", lambda config: ran.append(config))
        with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
            run_sweep(SweepConfig(ks=ks, window_frac=window_frac))
        assert ran == []


class TestChecksRegistry:
    def test_registered_names(self):
        assert set(CHECKS) == {
            "filter_lemma", "tracker_lemma", "regularizer_sums", "md_inversion",
            "epigraph_feasibility", "random_seq", "lb_theorem2_floor",
            "origin_safety", "decomposition_identity",
        }

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(KeyError) as err:
            run_check("nonexistent")
        assert "random_seq" in str(err.value)

    def test_random_seq_check_passes(self):
        report = run_check("random_seq")
        assert report.passed
        assert len(report.lines) == 21


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

    def test_config_error_before_round_1_exits_2(self, tmp_path, capsys):
        # a ValueError run_experiment raises before its first round is still
        # a config error
        cfg = reweight_config()
        cfg.comparator = "adversary"  # a reweighted iid stream constructs none
        path = tmp_path / "exp.ini"
        path.write_text(to_ini(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: adversary kind 'dro_reweight' constructs no"), err

    @pytest.mark.parametrize("section, algorithm, key, value, stem", [
        ("protocol", "known_g", "G", "nan", "G must be positive and finite"),
        ("protocol", "known_g", "epsilon", "nan", "epsilon must be positive and finite"),
        ("protocol", "unknown_g_case2", "tau_G", "inf", "tau_G must be positive and finite"),
        # a k of 401 digits has no float: the presets raised an untyped
        # OverflowError, exit 1 with a traceback, in every mode
        *[("protocol", algorithm, "k", "1" + "0" * 400, "k must be an integer in [0, 2**53)")
          for algorithm in ("known_g", "unknown_g_case1", "unknown_g_case2")],
        # the [protocol] section is checked as it is built, whichever player
        # reads it: these ran with exit 0 under known_g and the KT baseline,
        # and the KT baseline's epsilon was named by KTBettor, not by its key
        ("protocol", "kt_bettor", "epsilon", "nan", "epsilon must be positive and finite"),
        ("protocol", "known_g", "tau_G", "nan", "tau_G must be positive and finite"),
        ("protocol", "known_g", "tau_G", "-1.0", "tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "tau_G", "nan", "tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "tau_G", "-1.0", "tau_G must be positive and finite"),
        ("protocol", "kt_bettor", "G", "nan", "G must be positive and finite"),
        ("adversary", "unknown_g_case1", "G", "nan", "G must be positive and finite"),
        ("adversary", "unknown_g_case1", "G", "inf", "G must be positive and finite"),
        ("adversary", "unknown_g_case1", "G", "-1.0", "G must be positive and finite"),
        ("adversary", "known_g", "D", "nan", "D must be finite"),
        ("adversary", "known_g", "D", "inf", "D must be finite"),
        ("adversary", "known_g", "epsilon", "nan", "epsilon must be positive and finite"),
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
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_string((CONFIGS / "figure1.ini").read_text())
        parser["experiment"]["algorithm"] = algorithm
        if algorithm.startswith("unknown_g"):
            parser["protocol"]["G"] = "none"
        parser[section][key] = value
        path = tmp_path / "exp.ini"
        with open(path, "w") as fh:
            parser.write(fh)
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
        assert err == "error: epsilon 1e+300 overflows the comparator 2*epsilon*e^30\n", err
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

    def test_verify_pass_and_fail_codes(self):
        assert main(["verify", "--check", "random_seq"]) == 0
        assert main(["verify", "--check", "not_a_check"]) == 2

    def test_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        assert "md_inversion" in out and "origin_safety" in out

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
             ("iid_random is uncorrupted: k must be 0, got 3",)),
            ("sweep", lambda text: text.replace("ks = 4", "ks = 4 1"),
             ("[sweep] ks = 1", "window_frac = 0.75")),
            ("sweep", lambda text: text + "window_frac = nan\n",
             ("[sweep] ks = 4", "window_frac = nan")),
            ("sweep", lambda text: text.replace("ks = 4", "ks ="), ("[sweep] ks is empty",)),
            ("sweep", lambda text: text + "algorithms =\n", ("[sweep] algorithms is empty",)),
            ("sweep", lambda text: text + "epsilon = 0\n",
             ("[sweep] epsilon must be positive and finite, got 0.0",)),
            ("sweep", lambda text: text + "G = nan\n",
             ("[sweep] G must be positive and finite, got nan",)),
            ("sweep", lambda text: text + "tau_G = -1\n",
             ("[sweep] tau_G must be positive and finite, got -1.0",)),
        ],
        ids=["missing_T", "misspelled_window_start", "misspelled_section",
             "misspelled_workers", "misspelled_algorithm",
             "misspelled_experiment_algorithm", "protocol_T_restated",
             "protocol_mode_restated", "protocol_dim_restated", "protocol_p",
             "iid_random_budget",
             "sweep_k_too_small", "sweep_window_frac_nan", "sweep_ks_empty",
             "sweep_algorithms_empty", "sweep_epsilon_zero", "sweep_G_nan",
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

    @pytest.mark.parametrize("edit, prefix", [
        (lambda text: text.replace("T = 12\n", "T = ten\n"),
         "error: [adversary] T: invalid literal for int() with base 10: 'ten'\n"),
        (lambda text: "k = 1\n" + text, "error: File contains no section headers."),
        (lambda text: text.replace("[adversary]\n", "[adversary]\ngarbage\n"),
         "error: Source contains parsing errors"),
        (lambda text: text.replace("seeds = 0", "seeds ="),
         "error: at least one seed is required\n"),
        (lambda text: text.replace("algorithm = known_g", "algorithm = kt_bettor")
         .replace("sign_flip_window", "lb_theorem2").replace("dim = 1", "dim = 3")
         .replace("comparator = 1.0", "comparator = adversary"),
         "error: the KT baseline is one-dimensional\n"),
    ], ids=["unparsable_value", "no_section_header", "malformed_line", "empty_seeds",
            "kt_bettor_dim_3"])
    def test_config_error_exits_2_with_its_message(self, tmp_path, capsys, edit, prefix):
        path = tmp_path / "bad.ini"
        path.write_text(edit(to_ini(figure_config())))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert not (tmp_path / "out").exists()
