import math
from pathlib import Path

import pytest

from robust_oco.adversaries import AdversarySpec
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
    SweepConfig,
    run_experiment,
    run_sweep,
    trace_columns,
)
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
            window_frac=0.5, output_path="results/sweep", workers=2,
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
        ],
        ids=["kt_bettor", "unknown_g_case1"],
    )
    def test_golden_trace_of_other_players(self, tmp_path, config, seed, golden):
        assert_golden(tmp_path, config, seed, golden)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = reweight_config()
        run_experiment(cfg, seed=5, out_dir=tmp_path / "a")
        run_experiment(cfg, seed=5, out_dir=tmp_path / "b")
        name = "trace_unknown_g_case1_dro_reweight_seed5.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_worker_pool_matches_sequential(self):
        sweep = SweepConfig(ks=(4, 5), algorithms=("known_g",), seeds=(0,))
        seq = run_sweep(sweep)
        par = run_sweep(SweepConfig(**{**sweep.__dict__, "workers": 2}))
        assert seq == par


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
        ],
        ids=["missing_T", "misspelled_window_start", "misspelled_section",
             "misspelled_workers", "misspelled_algorithm"],
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
