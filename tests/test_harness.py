import json
import re

import numpy as np
import pytest

from fedsim import engine
from fedsim.cli import main
from fedsim.config import load_config, parse_config
from fedsim.errors import ConfigError, ReportError
from fedsim.harness import (
    GRADCHECK_TOLERANCE,
    build_dataset,
    cmd_partition,
    cmd_report,
    cmd_run,
    enumerate_settings,
    gradient_check,
)
from fedsim.partition import build_views, export_partition


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


BLOBS_SMALL = {
    "type": "blobs", "n_classes": 3, "n_per_class": 40, "dim": 4,
    "spread": 0.2, "seed": 9, "test_fraction": 0.25,
}


def small_run_config(**overrides):
    cfg = {
        "dataset": BLOBS_SMALL,
        "partition": {"type": "iid"},
        "arch": {"hidden": [8]},
        "fed": {
            "algorithms": ["fedavg"], "rounds": 2, "parties": 3,
            "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5,
        },
        "trials": 1,
    }
    cfg.update(overrides)
    return cfg


class TestLoadConfig:
    def test_defaults_for_bare_fcube(self, tmp_path):
        config = load_config(write_config(tmp_path, {"dataset": {"type": "fcube"}}))
        assert config.fed.rounds == 50
        assert config.fed.local_epochs == 10
        assert config.fed.batch_size == 64
        assert config.fed.momentum == 0.9
        assert config.fed.local_lr == 0.01
        assert config.fed.n_parties == 4  # cube default
        assert config.fed.sample_fraction == 1.0
        assert config.fed.server_lr == 1.0
        assert config.hidden == (32, 16, 8)
        assert config.partition.kind == "iid"
        assert config.algorithms == ("fedavg",)
        assert config.trials == 1

    def test_default_parties_ten_elsewhere(self):
        config = parse_config({"dataset": BLOBS_SMALL})
        assert config.fed.n_parties == 10

    def test_rcv1_gets_higher_default_lr(self):
        config = parse_config(
            {
                "dataset": {
                    "type": "libsvm", "name": "rcv1", "train_path": "x.svm",
                    "n_features": 4, "n_classes": 2, "label_map": {"-1": 0, "1": 1},
                }
            }
        )
        assert config.fed.local_lr == 0.1

    def test_mu_sweep_accepted_verbatim(self):
        config = parse_config(
            small_run_config(sweeps={"mu": [0.001, 0.01, 0.1, 1]})
        )
        assert config.mu_sweep == (0.001, 0.01, 0.1, 1.0)

    def test_epoch_sweep_accepted(self):
        config = parse_config(
            small_run_config(sweeps={"local_epochs": [10, 20, 40, 80]})
        )
        assert config.epoch_sweep == (10, 20, 40, 80)

    def test_negative_beta_rejected_with_key_path(self):
        with pytest.raises(ConfigError, match=r"partition\.beta"):
            parse_config(
                small_run_config(partition={"type": "label_dirichlet", "beta": -0.5})
            )

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"fed\.learning_rate: unknown"):
            parse_config(small_run_config(fed={"learning_rate": 0.1}))

    def test_type_mismatch_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"fed\.rounds"):
            parse_config(small_run_config(fed={"rounds": "fifty"}))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config(small_run_config(fed={"algorithms": ["sgd"]}))

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config({})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestBuildDataset:
    def test_fcube_sizes(self):
        config = parse_config({"dataset": {"type": "fcube", "n_train": 256, "n_test": 64}})
        train, test = build_dataset(config)
        assert (train.n, test.n) == (256, 64)
        assert train.group_ids is not None

    def test_blobs_split(self):
        config = parse_config(small_run_config())
        train, test = build_dataset(config)
        assert train.n + test.n == 120
        assert test.n == 30

    def test_container_round_trip(self, tmp_path):
        from fedsim.datasets import LabeledDataset, save_container

        rng = np.random.default_rng(0)
        train = LabeledDataset(rng.normal(size=(30, 4)), rng.integers(0, 3, 30), 3)
        test = LabeledDataset(rng.normal(size=(10, 4)), rng.integers(0, 3, 10), 3)
        save_container(train, tmp_path / "train.bin")
        save_container(test, tmp_path / "test.bin")
        config = parse_config(
            {
                "dataset": {
                    "type": "container",
                    "train_path": str(tmp_path / "train.bin"),
                    "test_path": str(tmp_path / "test.bin"),
                }
            }
        )
        loaded_train, loaded_test = build_dataset(config)
        assert loaded_train.features.tobytes() == train.features.tobytes()
        assert loaded_test.n == 10

    def test_libsvm_with_split(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("".join(f"+1 1:{i}.0\n-1 2:{i}.0\n" for i in range(10)))
        config = parse_config(
            {
                "dataset": {
                    "type": "libsvm", "train_path": str(path), "n_features": 3,
                    "n_classes": 2, "label_map": {"-1": 0, "1": 1},
                    "test_fraction": 0.25,
                }
            }
        )
        train, test = build_dataset(config)
        assert train.n == 15 and test.n == 5


class TestSettings:
    def test_mu_sweep_only_applies_to_fedprox(self):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "fedprox"]},
                sweeps={"mu": [0.01, 0.1]},
            )
        )
        settings = enumerate_settings(config)
        labels = [(s.algorithm, s.mu) for s in settings]
        assert labels == [("fedavg", None), ("fedprox", 0.01), ("fedprox", 0.1)]

    def test_epoch_sweep_applies_to_all(self):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "fednova"]},
                sweeps={"local_epochs": [1, 2]},
            )
        )
        settings = enumerate_settings(config)
        assert [(s.algorithm, s.local_epochs) for s in settings] == [
            ("fedavg", 1), ("fedavg", 2), ("fednova", 1), ("fednova", 2),
        ]


class TestCmdPartition:
    def test_fcube_octant_pairs(self, tmp_path, capsys):
        config = parse_config(
            {
                "dataset": {"type": "fcube", "n_train": 400, "n_test": 64, "seed": 3},
                "partition": {"type": "fcube_pairs"},
            }
        )
        paths = cmd_partition(config, tmp_path / "out")
        lines = (tmp_path / "out" / "partition.txt").read_text().splitlines()
        assert lines[0] == "4 400"
        assert len(lines) == 5
        assert "4 parties" in capsys.readouterr().out

    def test_stats_csv_column_sums(self, tmp_path):
        config = parse_config(small_run_config(partition={"type": "label_dirichlet", "beta": 0.5}))
        cmd_partition(config, tmp_path / "out")
        lines = (tmp_path / "out" / "partition_stats.csv").read_text().strip().splitlines()
        body = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        train, _ = build_dataset(config)
        assert np.array_equal(body.sum(axis=0), np.bincount(train.labels, minlength=3))

    def test_partition_is_the_one_run_trains_on(self, tmp_path, monkeypatch):
        config = parse_config(
            small_run_config(partition={"type": "label_dirichlet", "beta": 0.5})
        )
        cmd_partition(config, tmp_path / "part")
        trained = []

        def recording_build_views(*args):
            pmap, views = build_views(*args)
            trained.append(pmap)
            return pmap, views

        monkeypatch.setattr(engine, "build_views", recording_build_views)
        cmd_run(config, tmp_path / "run")
        train, _ = build_dataset(config)
        export_partition(trained[0], train.n, tmp_path / "trial0.txt")
        assert len(trained) == config.trials
        assert (tmp_path / "part" / "partition.txt").read_bytes() == (
            tmp_path / "trial0.txt"
        ).read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        config = parse_config(small_run_config())
        cmd_partition(config, tmp_path / "a")
        cmd_partition(config, tmp_path / "b")
        for name in ("partition.txt", "partition_stats.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestCmdRun:
    def test_jsonl_line_count(self, tmp_path):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "fednova"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "seed": 5},
                trials=2,
            )
        )
        paths = cmd_run(config, tmp_path / "out")
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        # trials * settings * (rounds + 1)
        assert len(records) == 2 * 2 * 3

    def test_summary_mean_and_sample_std(self, tmp_path):
        config = parse_config(small_run_config(trials=3))
        cmd_run(config, tmp_path / "out")
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        finals = [r["test_accuracy"] for r in records if r["round"] == 2]
        assert len(finals) == 3
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        _, _, _, trials, mean_txt, std_txt = lines[1].split(",")
        assert int(trials) == 3
        # Recomputing from the JSONL reproduces the CSV exactly.
        assert float(mean_txt) == np.asarray(finals).mean()
        assert float(std_txt) == np.asarray(finals).std(ddof=1)

    def test_fedprox_mu_zero_matches_fedavg_columns(self, tmp_path):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "fedprox"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "seed": 5},
                sweeps={"mu": [0.0]},
            )
        )
        cmd_run(config, tmp_path / "out")
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        by_algorithm = {}
        for record in records:
            by_algorithm.setdefault(record["algorithm"], []).append(record["test_accuracy"])
        assert by_algorithm["fedavg"] == by_algorithm["fedprox"]

    def test_round_zero_has_null_loss_and_zero_bytes(self, tmp_path):
        config = parse_config(small_run_config())
        cmd_run(config, tmp_path / "out")
        first = read_jsonl(tmp_path / "out" / "results.jsonl")[0]
        assert first["round"] == 0
        assert first["mean_train_loss"] is None
        assert first["bytes"] == 0


class TestServerOverflow:
    def test_sweep_completes_and_flags_rounds(self, tmp_path):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "scaffold"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "server_lr": 1.7e308,
                     "seed": 5},
            )
        )
        cmd_run(config, tmp_path / "out")
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        assert len(records) == 2 * 3
        assert [r["diverged"] for r in records] == [False, True, True] * 2
        # A rejected aggregate keeps the previous model.
        assert len({r["test_accuracy"] for r in records[:3]}) == 1
        assert all(r["bytes"] > 0 for r in records if r["round"] > 0)
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["fedavg", "scaffold"]


def mask_wall(text):
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


class TestDeterminism:
    def test_rerun_and_thread_count_byte_identical(self, tmp_path):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "scaffold"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "seed": 5},
            )
        )
        cmd_run(config, tmp_path / "a", n_threads=1)
        cmd_run(config, tmp_path / "b", n_threads=4)
        a = mask_wall((tmp_path / "a" / "results.jsonl").read_text())
        b = mask_wall((tmp_path / "b" / "results.jsonl").read_text())
        assert a == b
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()


class TestCmdReport:
    def test_single_algorithm_wins_every_row(self, tmp_path):
        config = parse_config(small_run_config())
        cmd_run(config, tmp_path / "out")
        cmd_report(tmp_path / "out")
        wins = (tmp_path / "out" / "wins.csv").read_text().strip().splitlines()
        assert wins == ["algorithm,wins", "fedavg,1"]

    def test_fixture_wins_tally(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        rows = []
        # two sources; alpha wins the first, beta the second and third rows
        for source, winner in (("s1", "alpha"), ("s2", "beta")):
            for algorithm in ("alpha", "beta"):
                for round_idx, acc in ((0, 0.1), (1, 0.9 if algorithm == winner else 0.5)):
                    rows.append(
                        (source, {
                            "trial": 0, "round": round_idx, "algorithm": algorithm,
                            "mu": None, "local_epochs": 1, "test_accuracy": acc,
                            "mean_train_loss": 0.5, "bytes": 8, "wall_ms": 1,
                            "diverged": False,
                        })
                    )
        for source in ("s1", "s2"):
            with open(out / f"{source}.jsonl", "w") as fh:
                for src, record in rows:
                    if src == source:
                        fh.write(json.dumps(record) + "\n")
        cmd_report(out)
        wins = dict(
            line.split(",") for line in
            (out / "wins.csv").read_text().strip().splitlines()[1:]
        )
        assert wins == {"alpha": "1", "beta": "1"}

    def test_curves_have_t_plus_one_rows(self, tmp_path):
        config = parse_config(small_run_config())
        cmd_run(config, tmp_path / "out")
        cmd_report(tmp_path / "out")
        curve_files = sorted((tmp_path / "out" / "curves").glob("*.csv"))
        assert len(curve_files) == 1
        lines = curve_files[0].read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + (rounds + 1)

    def test_fedprox_best_mu_selected(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with open(out / "runs.jsonl", "w") as fh:
            for mu, acc in ((0.001, 0.6), (0.1, 0.8)):
                fh.write(json.dumps({
                    "trial": 0, "round": 1, "algorithm": "fedprox", "mu": mu,
                    "local_epochs": 1, "test_accuracy": acc, "mean_train_loss": 1.0,
                    "bytes": 8, "wall_ms": 0, "diverged": False,
                }) + "\n")
        cmd_report(out)
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "source,local_epochs,fedprox,best"
        assert report[1].split(",")[2] == repr(0.8)

    def test_empty_results_rejected(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(ReportError):
            cmd_report(empty)


class TestGradcheck:
    def test_fresh_build_passes(self):
        worst = gradient_check(n_cases=25, seed=3)
        assert worst < GRADCHECK_TOLERANCE

    def test_sign_flip_sabotage_detected(self):
        worst = gradient_check(n_cases=5, seed=3, sign_flip_layer=0)
        assert worst > GRADCHECK_TOLERANCE

    def test_error_value_deterministic(self):
        a = gradient_check(n_cases=5, seed=4)
        b = gradient_check(n_cases=5, seed=4)
        assert a == b


class TestCli:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        config_path = write_config(tmp_path, small_run_config())
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "results.jsonl").exists()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert "wins" in capsys.readouterr().out

    def test_partition_command(self, tmp_path):
        config_path = write_config(tmp_path, small_run_config())
        out = tmp_path / "part_out"
        assert main(["partition", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "partition.txt").exists()

    def test_seed_override_changes_results(self, tmp_path):
        config_path = write_config(tmp_path, small_run_config())
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "s5"), "--seed", "5"])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "s6"), "--seed", "6"])
        a = read_jsonl(tmp_path / "s5" / "results.jsonl")
        b = read_jsonl(tmp_path / "s6" / "results.jsonl")
        assert [r["test_accuracy"] for r in a] != [r["test_accuracy"] for r in b]

    def test_gradcheck_exit_code(self, capsys):
        assert main(["gradcheck", "--cases", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"dataset": {"type": "fcube"}, "bogus": 1})
        assert main(["run", "--config", str(config_path)]) == 2
        assert "bogus" in capsys.readouterr().err
