import math
from pathlib import Path

import numpy as np
import pytest

from robust_oco import mirror_descent

from robust_oco.adversaries import AdversarySpec, make_adversary
from robust_oco.core import norm
from robust_oco.harness.checks import CHECKS, run_check
from robust_oco.harness.cli import main
from robust_oco.harness.config import (
    ExperimentConfig,
    from_ini,
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
from robust_oco.protocol import ProtocolConfig

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"


def figure_config(algorithm="known_g", T=12, k=3, start=5):
    return ExperimentConfig(
        algorithm=algorithm,
        adversary=AdversarySpec(kind="sign_flip_window", T=T, k=k, window_start=start),
        protocol=ProtocolConfig(mode="known_g", T=T, epsilon=1.0, k=k, G=1.0),
        comparator=(1.0,),
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
            seeds=(2, 7), epsilon=0.1 + 0.2, G=2.5, tau_G=0.125,
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

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                algorithm="sgd",
                adversary=AdversarySpec(kind="iid_random", T=10),
                protocol=ProtocolConfig(mode="known_g", T=10, G=1.0),
            )


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

    def test_kt_comparator_of_another_dimension_rejected(self):
        cfg = figure_config(algorithm="kt_bettor")
        cfg.comparator = (1.0, 2.0)
        with pytest.raises(ValueError, match="run aborted at round 1: dimension mismatch"):
            run_experiment(cfg, seed=0)

    def test_trace_bytes_of_each_value_type(self, tmp_path):
        trace = ExperimentTrace(
            columns=["a", "b", "c", "d", "e", "f"],
            rows=[[3, np.int64(-7), 0.1, np.float64(-2.5e-300), math.inf, math.nan]],
            summary={"algorithm": "known_g", "T": 3, "x": 0.5},
        )
        trace.write(tmp_path / "trace.csv", tmp_path / "summary.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"a,b,c,d,e,f\r\n3,-7,0.10000000000000001,-2.5e-300,inf,nan\r\n"
        )
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"algorithm,T,x\r\nknown_g,3,0.5\r\n"
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
        for t in range(1, config.adversary.T + 1):
            w = player.predict()
            g_true, g_tilde = adversary.round(t, w)
            rec = player.round(g_tilde, g_true=g_true)
            assert (rec.w_norm, rec.g_norm, rec.g_tilde_norm) == (
                norm(w), norm(g_true), norm(g_tilde)
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


class TestSweep:
    def test_row_count_and_order(self):
        sweep = SweepConfig(ks=(4, 5), algorithms=("kt_bettor", "known_g"), seeds=(0, 1, 2))
        rows = run_sweep(sweep)
        assert len(rows) == 2 * 2 * 3
        keys = [(r["algorithm"], r["k"], r["seed"]) for r in rows]
        assert keys == sorted(keys, key=lambda x: (x[0] != "kt_bettor", x))

    def test_ratio_column(self):
        rows = run_sweep(SweepConfig(ks=(5,), algorithms=("known_g",), seeds=(0,)))
        row = rows[0]
        assert row["T"] == 25
        assert math.isclose(
            row["ratio"], row["regret_corrupted"] / row["regret_uncorrupted"]
        )


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

    def test_sweep_subcommand(self, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text(
            "[sweep]\nks = 4 5\nalgorithms = known_g\nseeds = 0\n"
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
            ("run", lambda text: text.replace("[protocol]\nmode = known_g\nT = 12\n",
                                              "[protocol]\nmode = known_g\nT = 50\n"),
             ("[protocol] T", "50")),
            ("run", lambda text: text.replace("mode = known_g", "mode = unknown_g_case2"),
             ("[protocol] mode", "'unknown_g_case2'")),
            ("run", lambda text: text.replace("tau_G = 1.0\ndim = 1", "tau_G = 1.0\ndim = 2"),
             ("[protocol] dim", "[adversary] dim")),
            ("run", lambda text: text.replace("tau_G = 1.0\n", "tau_G = 1.0\np = 2.0\n"),
             ("[protocol]", "'p'")),
        ],
        ids=["missing_T", "misspelled_window_start", "misspelled_section",
             "misspelled_workers", "misspelled_algorithm",
             "misspelled_experiment_algorithm", "protocol_T_disagrees",
             "protocol_mode_disagrees", "protocol_dim_disagrees", "protocol_p"],
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
