import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedsim import engine
from fedsim.cli import main
from fedsim.config import (
    DATASET_OPTIONS,
    FED_FIELDS,
    PARTITION_OPTIONS,
    load_config,
    override_seed,
    parse_config,
)
from fedsim.datasets import FcubeSpec
from fedsim.engine import FedRunConfig
from fedsim.errors import ConfigError, ReportError
from fedsim.harness import (
    GRADCHECK_TOLERANCE,
    build_dataset,
    cmd_partition,
    cmd_report,
    cmd_run,
    gradient_check,
)
from fedsim.partition import PartitionSpec, build_views, export_partition


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


BLOBS_SMALL = {
    "type": "blobs", "n_classes": 3, "n_per_class": 40, "dim": 4,
    "spread": 0.2, "seed": 9, "test_fraction": 0.25,
}


IDX_OPTIONS = {
    "type": "idx", "train_images": "a.idx3", "train_labels": "a.idx1",
    "test_images": "b.idx3", "test_labels": "b.idx1",
}
LIBSVM_OPTIONS = {
    "type": "libsvm", "train_path": "x.svm", "n_features": 4, "n_classes": 2,
    "label_map": {"-1": 0, "1": 1},
}
CONTAINER_OPTIONS = {"type": "container", "train_path": "a.bin", "test_path": "b.bin"}


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
        assert [cell.algorithm for cell in config.cells] == ["fedavg"]
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
            small_run_config(
                fed={"algorithms": ["fedprox"]}, sweeps={"mu": [0.001, 0.01, 0.1, 1]}
            )
        )
        assert [cell.prox_mu for cell in config.cells] == [0.001, 0.01, 0.1, 1.0]

    def test_epoch_sweep_accepted(self):
        config = parse_config(
            small_run_config(sweeps={"local_epochs": [10, 20, 40, 80]})
        )
        assert [cell.local_epochs for cell in config.cells] == [10, 20, 40, 80]

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

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"fed": {"algorithms": ["fedavg", "fedavg"]}}, r"fed\.algorithms"),
            ({"sweeps": {"mu": [1, 0.5, 1.0]}}, r"sweeps\.mu"),
            ({"sweeps": {"local_epochs": [2, 3, 2]}}, r"sweeps\.local_epochs"),
            ({"sweeps": {"local_epochs": [True]}}, r"sweeps\.local_epochs"),
            ({"arch": {"hidden": [True]}}, r"arch\.hidden"),
        ],
    )
    def test_sweep_that_would_misreport_rejected(self, overrides, path):
        # A repeated entry would run its cells twice and a boolean would be
        # recorded as `true`: either way the output files misdescribe the run.
        with pytest.raises(ConfigError, match=rf"config\.{path}"):
            parse_config(small_run_config(**overrides))

    @pytest.mark.parametrize(
        "dataset, key",
        [
            ({**BLOBS_SMALL, "n_per_class": "ten"}, "n_per_class"),
            ({**BLOBS_SMALL, "n_classes": 2.5}, "n_classes"),
            ({**BLOBS_SMALL, "dim": True}, "dim"),
            ({**BLOBS_SMALL, "seed": None}, "seed"),
            ({**BLOBS_SMALL, "spread": "wide"}, "spread"),
            ({**BLOBS_SMALL, "test_fraction": [0.2]}, "test_fraction"),
            ({"type": "fcube", "n_train": "256"}, "n_train"),
            ({"type": "idx", "train_images": 7}, "train_images"),
            ({"type": "libsvm", "n_features": 4.0}, "n_features"),
            ({"type": "container", "test_path": ["a"]}, "test_path"),
        ],
    )
    def test_dataset_option_type_rejected_with_path(self, dataset, key):
        with pytest.raises(ConfigError, match=rf"config\.dataset\.{key}: expected"):
            parse_config({"dataset": dataset})

    @pytest.mark.parametrize(
        "label_map, cause",
        [
            ({"-1": 0, "1": 0.7}, r"\.1: expected int, got float"),
            ({"-1": 0, "1": True}, r"\.1: expected int, got bool"),
            ({"-1": 0, "1": "1"}, r"\.1: expected int, got str"),
            ({"-1": 0, "1": 2}, r"\.1: class id must be in \[0, 2\), got 2"),
            ({"-1": -1, "1": 1}, r"\.-1: class id must be in \[0, 2\), got -1"),
            ({"1.5": 0}, r": label '1\.5' is not an integer"),
            ({"1": 0, "01": 1}, r": label '01' repeats label 1"),
        ],
    )
    def test_label_map_must_map_integers_to_class_ids(self, label_map, cause):
        # int() used to truncate 0.7 and True to a class id without a word.
        dataset = {**LIBSVM_OPTIONS, "label_map": label_map}
        with pytest.raises(ConfigError, match=rf"^config\.dataset\.label_map{cause}$"):
            parse_config({"dataset": dataset})

    def test_dataset_float_option_accepts_integer(self):
        config = parse_config({"dataset": {**BLOBS_SMALL, "spread": 1}})
        assert config.dataset.options["spread"] == 1.0

    @pytest.mark.parametrize(
        "dataset, overrides",
        [
            ({"type": "fcube"}, {"n_parties": 4}),
            ({"type": "blobs"}, {}),
            (IDX_OPTIONS, {}),
            (LIBSVM_OPTIONS, {}),
            ({**LIBSVM_OPTIONS, "name": "rcv1"}, {"local_lr": 0.1}),
            (CONTAINER_OPTIONS, {}),
        ],
    )
    def test_bare_config_takes_library_defaults(self, dataset, overrides):
        # The fed and partition sections take FedRunConfig's and
        # PartitionSpec's own defaults; only two come from the dataset.
        config = parse_config({"dataset": dataset})
        assert config.fed == FedRunConfig(algorithm="fedavg", **overrides)
        assert config.partition == PartitionSpec("iid")
        assert config.cells == (config.fed,)

    def test_dataset_defaults_filled(self):
        config = parse_config({"dataset": {"type": "fcube"}})
        assert config.dataset.options == {
            "n_train": FcubeSpec.n_train, "n_test": FcubeSpec.n_test, "seed": None,
        }
        assert config.dataset_seed == config.fed.master_seed == 0
        assert override_seed(config, 6).dataset_seed == 6
        seeded = parse_config({"dataset": {"type": "fcube", "seed": 3}, "fed": {"seed": 4}})
        assert override_seed(seeded, 6).dataset_seed == 3
        libsvm = parse_config({"dataset": LIBSVM_OPTIONS}).dataset.options
        assert (libsvm["test_path"], libsvm["test_fraction"]) == (None, 0.2)

    @pytest.mark.parametrize(
        "dataset, key",
        [(IDX_OPTIONS, key) for key in IDX_OPTIONS if key != "type"]
        + [(LIBSVM_OPTIONS, key) for key in LIBSVM_OPTIONS if key != "type"]
        + [(CONTAINER_OPTIONS, key) for key in CONTAINER_OPTIONS if key != "type"],
    )
    def test_missing_required_option_rejected(self, dataset, key):
        bare = {k: v for k, v in dataset.items() if k != key}
        with pytest.raises(
            ConfigError, match=rf"^config\.dataset\.{key}: required for {dataset['type']} datasets$"
        ):
            parse_config({"dataset": bare})

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"partition": {"noise_sigma": NaN}}', r"partition\.noise_sigma"),
            ('{"partition": {"type": "label_dirichlet", "beta": NaN}}', r"partition\.beta"),
            ('{"fed": {"server_lr": Infinity}}', r"fed\.server_lr"),
            ('{"fed": {"prox_mu": NaN}}', r"fed\.prox_mu"),
            ('{"fed": {"lr": -Infinity}}', r"fed\.lr"),
            ('{"fed": {"sample_fraction": NaN}}', r"fed\.sample_fraction"),
            ('{"sweeps": {"mu": [0.1, Infinity]}}', r"sweeps\.mu"),
            ('{"sweeps": {"mu": [NaN]}}', r"sweeps\.mu"),
            ('{"dataset": {"type": "blobs", "spread": Infinity}}', r"dataset\.spread"),
            ('{"dataset": {"type": "blobs", "spread": 1' + "0" * 400 + "}}", r"dataset\.spread"),
        ],
    )
    def test_non_finite_number_rejected_with_path(self, text, path):
        raw = {"dataset": {"type": "fcube"}, **json.loads(text)}
        with pytest.raises(ConfigError, match=rf"^config\.{path}: expected a finite number"):
            parse_config(raw)

    def test_readme_config_example_parses(self):
        # The README documents the config schema by example and by a table of
        # every key; both must follow the schema parse_config accepts.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert examples
        for example in examples:
            parse_config(json.loads(example))
        config_section = readme.split("## Config", 1)[1].split("\n## ", 1)[0]
        keys = {f"fed.{key}" for key in (*FED_FIELDS, "algorithms")}
        keys.update(f"partition.{key}" for key in (*PARTITION_OPTIONS, "type"))
        for kind, options in DATASET_OPTIONS.items():
            keys.update((kind, *options))
        for key in sorted(keys):
            assert f"`{key}`" in config_section, key

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
                fed={"algorithms": ["fedavg", "fedprox"], "prox_mu": 0.5},
                sweeps={"mu": [0.01, 0.1]},
            )
        )
        labels = [(c.algorithm, c.mu, c.prox_mu) for c in config.cells]
        assert labels == [
            ("fedavg", None, 0.5), ("fedprox", 0.01, 0.01), ("fedprox", 0.1, 0.1),
        ]

    def test_epoch_sweep_applies_to_all(self):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "fednova"]},
                sweeps={"local_epochs": [1, 2]},
            )
        )
        assert [(c.algorithm, c.local_epochs) for c in config.cells] == [
            ("fedavg", 1), ("fedavg", 2), ("fednova", 1), ("fednova", 2),
        ]

    def test_cells_share_every_other_setting(self):
        # Cells run in order algorithm, local epochs, mu; each is the base
        # fed section with only those three changed, and --seed reaches all.
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["scaffold", "fedprox"], "rounds": 4, "seed": 3},
                sweeps={"mu": [0.2, 0.1], "local_epochs": [2, 1]},
            )
        )
        assert [(c.algorithm, c.local_epochs, c.mu) for c in config.cells] == [
            ("scaffold", 2, None), ("scaffold", 1, None),
            ("fedprox", 2, 0.2), ("fedprox", 2, 0.1),
            ("fedprox", 1, 0.2), ("fedprox", 1, 0.1),
        ]
        base = FedRunConfig(algorithm="scaffold", rounds=4, master_seed=3)
        for cell in config.cells:
            assert cell == replace(
                base, algorithm=cell.algorithm, local_epochs=cell.local_epochs,
                prox_mu=cell.prox_mu,
            )
        reseeded = override_seed(config, 9).cells
        assert reseeded == tuple(replace(c, master_seed=9) for c in config.cells)


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
    def test_sweep_completes_and_flags_rounds(self, tmp_path, capsys):
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
        progress = capsys.readouterr().err.splitlines()
        assert len(progress) == 2
        assert all(" diverged_rounds=2 " in line for line in progress)


def mask_wall(text):
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        config = parse_config(
            small_run_config(
                fed={"algorithms": ["fedavg", "scaffold"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "seed": 5},
            )
        )
        cmd_run(config, tmp_path / "a")
        cmd_run(config, tmp_path / "b")
        a = mask_wall((tmp_path / "a" / "results.jsonl").read_text())
        b = mask_wall((tmp_path / "b" / "results.jsonl").read_text())
        assert a == b
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()


class TestProgress:
    # SHA-256 of the masked results.jsonl, recorded from the code before
    # cmd_run printed progress: the progress lines must not reach the file.
    RESULTS_SHA256 = "155f399292126176e51d06780c3e7d20615321a3870c1238f3598ed6698f05de"

    def test_one_stderr_line_per_cell(self, tmp_path, capsys):
        config = parse_config(
            small_run_config(
                partition={"type": "iid", "noise_sigma": 0.1},
                fed={"algorithms": ["fedavg", "fedprox"], "rounds": 2, "parties": 3,
                     "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5},
                sweeps={"mu": [0.01, 0.1]},
                trials=2,
            )
        )
        cmd_run(config, tmp_path / "out")
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        cells = [
            (algorithm, mu, trial)
            for algorithm, mu in (("fedavg", "-"), ("fedprox", "0.01"), ("fedprox", "0.1"))
            for trial in (0, 1)
        ]
        assert len(lines) == len(cells)
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        finals = [r["test_accuracy"] for r in records if r["round"] == 2]
        for i, (line, (algorithm, mu, trial), final) in enumerate(zip(lines, cells, finals)):
            assert re.fullmatch(
                rf"cell {i + 1}/6: {algorithm} mu={re.escape(mu)} E=1 trial={trial} "
                rf"final_accuracy={final:.4f} diverged_rounds=0 \d+\.\d\ds",
                line,
            ), line
        masked = mask_wall((tmp_path / "out" / "results.jsonl").read_text())
        assert hashlib.sha256(masked.encode("ascii")).hexdigest() == self.RESULTS_SHA256


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

    RECORD = {
        "trial": 0, "round": 1, "algorithm": "fedavg", "mu": None, "local_epochs": 1,
        "test_accuracy": 0.5, "mean_train_loss": 1.0, "bytes": 8, "wall_ms": 0,
        "diverged": False,
    }

    @pytest.mark.parametrize(
        "bad_line, cause",
        [
            (b'{"trial": 0,', "line 2: not valid JSON"),
            (
                json.dumps({k: v for k, v in RECORD.items() if k != "local_epochs"}).encode(),
                "line 2: record lacks local_epochs",
            ),
            (
                json.dumps({**RECORD, "algorithm": "f\u00e9davg"}, ensure_ascii=False).encode(),
                "line 2: non-ASCII bytes",
            ),
            (None, "cannot read"),
            (json.dumps({**RECORD, "test_accuracy": "high"}).encode(),
             'line 2: test_accuracy cannot be "high"'),
            (json.dumps({**RECORD, "test_accuracy": None}).encode(),
             "line 2: test_accuracy cannot be null"),
            (json.dumps({**RECORD, "local_epochs": [1]}).encode(),
             r"line 2: local_epochs cannot be \[1\]"),
            (json.dumps({**RECORD, "algorithm": 3}).encode(), "line 2: algorithm cannot be 3"),
            (json.dumps({**RECORD, "round": "1"}).encode(), 'line 2: round cannot be "1"'),
            (json.dumps({**RECORD, "trial": True}).encode(), "line 2: trial cannot be true"),
        ],
    )
    def test_unusable_results_file_named(self, tmp_path, capsys, bad_line, cause):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "runs.jsonl"
        if bad_line is None:
            path.mkdir()  # listed as a results file, but cannot be opened as one
        else:
            path.write_bytes(json.dumps(self.RECORD).encode() + b"\n" + bad_line + b"\n")
        with pytest.raises(ReportError, match=cause) as raised:
            cmd_report(out)
        assert str(path) in str(raised.value)
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"

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

        # On a sweep, --seed reaches every cell: the run equals the same
        # config with that seed written in.
        fed = {"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 2, "parties": 3,
               "local_epochs": 1, "batch_size": 16, "lr": 0.05}
        sweeps = {"mu": [0.01, 0.1], "local_epochs": [1, 2]}
        outputs = []
        for name, seed, argv in [("flag", 1, ["--seed", "5"]), ("written", 5, [])]:
            raw = small_run_config(fed={**fed, "seed": seed}, sweeps=sweeps, trials=2)
            path = write_config(tmp_path, raw, name=f"{name}.json")
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out), *argv]) == 0
            results = mask_wall((out / "results.jsonl").read_text())
            outputs.append((results, (out / "summary.csv").read_text()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 8 * 2 * 3  # cells x trials x records

    def test_gradcheck_exit_code(self, capsys):
        assert main(["gradcheck", "--cases", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["--cases", "0"], "needs at least 1 case, got 0", id="0"),
            pytest.param(["--cases", "-3"], "needs at least 1 case, got -3", id="-3"),
            pytest.param(["--seed", "-1"], "seed must be >= 0, got -1", id="seed=-1"),
        ],
    )
    def test_gradcheck_refuses_fewer_than_one_case(self, capsys, argv, message):
        # Also a negative seed, which numpy's SeedSequence would refuse with
        # a traceback.
        assert main(["gradcheck", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gradcheck {message}\n"

    def test_missing_dataset_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "absent-images.idx"
        dataset = {"type": "idx", "train_images": str(missing), "train_labels": str(missing),
                   "test_images": str(missing), "test_labels": str(missing)}
        config_path = write_config(tmp_path, small_run_config(dataset=dataset))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and "absent-images.idx" in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"dataset": {"type": "fcube"}, "bogus": 1})
        assert main(["run", "--config", str(config_path)]) == 2
        assert "bogus" in capsys.readouterr().err
