import hashlib
import json
import os
import re
import shutil
import signal
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedsim import engine, harness
from fedsim.cli import main
from fedsim.config import (
    DATASET_OPTIONS,
    FED_FIELDS,
    PARTITION_OPTIONS,
    load_config,
    override_seed,
    parse_config,
)
from fedsim.datasets import LabeledDataset
from fedsim.engine import FedRunConfig
from fedsim.errors import ConfigError, PartitionError, ReportError
from fedsim.nn import MlpArch, layer_slices
from fedsim.harness import (
    GRADCHECK_TOLERANCE,
    build_dataset,
    cmd_partition,
    cmd_report,
    cmd_run,
    gradient_check,
)
from fedsim.partition import PartitionSpec, build_views, export_partition

from helpers import (
    assert_no_child_process,
    deadline,  # noqa: F401 (a fixture)
    mask_wall,
    needs_fork,
    use_cpus,
    write_idx,
)


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
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg"]}, sweeps={"local_epochs": [10, 20, 40, 80]}
        ))
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
            ({"fed": {"algorithms": ["fedavg", "scaffold"]}, "sweeps": {"mu": [0.1, 1.0]}},
             r"sweeps\.mu: no algorithm in fed\.algorithms trains with a mu"),
        ],
    )
    def test_sweep_that_would_misreport_rejected(self, overrides, path):
        # A repeated entry would run its cells twice and a boolean would be
        # recorded as `true`: either way the output files misdescribe the run.
        with pytest.raises(ConfigError, match=rf"config\.{path}"):
            parse_config(small_run_config(**overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"partition": {"type": "iid", "beta": 0.5}},
             r"partition\.beta: not read by iid partitions, "
             r"only by label_dirichlet and quantity_dirichlet$"),
            ({"partition": {"type": "iid", "labels_per_party": 3}},
             r"partition\.labels_per_party: not read by iid partitions, "
             r"only by label_quantity$"),
            ({"partition": {"type": "by_group", "min_size": 50}},
             r"partition\.min_size: not read by by_group partitions"),
            ({"partition": {"type": "label_quantity", "labels_per_party": 2, "beta": 0.5}},
             r"partition\.beta: not read by label_quantity partitions"),
            ({"partition": {"type": "label_dirichlet", "beta": 0.5, "labels_per_party": 2}},
             r"partition\.labels_per_party: not read by label_dirichlet partitions"),
            ({"fed": {"algorithms": ["fedavg", "scaffold"], "prox_mu": 0.1}},
             r"fed\.prox_mu: only fedprox reads it, and "
             r"config\.fed\.algorithms \['fedavg', 'scaffold'\] has no fedprox$"),
            ({"fed": {"algorithms": ["fedprox", "fednova"], "scaffold_c_option": "i"}},
             r"fed\.scaffold_c_option: only scaffold reads it"),
            ({"partition": {"type": "by_group"}},
             r"partition\.type: by_group partitions deal out group ids, which only fcube "
             r"datasets carry, and config\.dataset\.type is blobs$"),
            ({"partition": {"type": "fcube_pairs"}, "dataset": IDX_OPTIONS},
             r"partition\.type: fcube_pairs partitions deal out group ids, which only fcube "
             r"datasets carry, and config\.dataset\.type is idx$"),
            ({"partition": {"type": "by_group"}, "dataset": LIBSVM_OPTIONS},
             r"partition\.type: by_group partitions deal out group ids, .* is libsvm$"),
            ({"partition": {"type": "fcube_pairs"}, "dataset": {"type": "fcube"}},
             r"fed\.parties: fcube_pairs partitions deal to 4 parties, got 3$"),
        ],
        ids=["iid-beta", "iid-labels_per_party", "by_group-min_size", "label_quantity-beta",
             "label_dirichlet-labels_per_party", "prox_mu", "scaffold_c_option",
             "by_group-blobs", "fcube_pairs-idx", "by_group-libsvm", "fcube_pairs-3-parties"],
    )
    def test_option_no_run_reads_rejected(self, overrides, message):
        # Such an option would be accepted and silently change nothing.
        with pytest.raises(ConfigError, match=rf"^config\.{message}"):
            parse_config(small_run_config(**overrides))

    @pytest.mark.parametrize("sweep_key, fed_key, fed_value, swept", [
        ("mu", "prox_mu", 0.5, [0.1]),
        ("local_epochs", "local_epochs", 3, [7]),
    ])
    def test_fed_key_beside_its_sweep_rejected(self, sweep_key, fed_key, fed_value, swept):
        # The sweep replaces the fed key in every cell, so the fed value was
        # accepted and silently never read.
        raw = {"dataset": {"type": "fcube"},
               "fed": {"algorithms": ["fedprox"], fed_key: fed_value},
               "sweeps": {sweep_key: swept}}
        with pytest.raises(ConfigError, match=(
                rf"^config\.fed\.{fed_key}: config\.sweeps\.{sweep_key} replaces it in every "
                rf"cell; set one of the two$")):
            parse_config(raw)
        del raw["fed"][fed_key]
        assert [getattr(cell, fed_key) for cell in parse_config(raw).cells] == swept

    @pytest.mark.parametrize("kind", [
        "iid", "label_quantity", "label_dirichlet", "quantity_dirichlet", "by_group",
        "fcube_pairs"])
    def test_options_accepted_for_the_kinds_that_read_them(self, kind):
        options = {"label_quantity": {"labels_per_party": 2},
                   "label_dirichlet": {"beta": 0.5, "min_size": 2},
                   "quantity_dirichlet": {"beta": 0.5, "min_size": 2}}.get(kind, {})
        partition = {"type": kind, "noise_sigma": 0.1, **options}
        raw = small_run_config(partition=partition)
        if kind in ("by_group", "fcube_pairs"):
            # Only fcube's samples carry the group ids these deal out, to
            # fcube_pairs' 4 parties.
            raw.update(dataset={"type": "fcube"}, fed={**raw["fed"], "parties": 4})
        config = parse_config(raw)
        assert config.partition == PartitionSpec(kind, **{**options, "noise_sigma": 0.1})

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
            ({"type": "libsvm", "test_path": ["a"]}, "test_path"),
        ],
    )
    def test_dataset_option_type_rejected_with_path(self, dataset, key):
        with pytest.raises(ConfigError, match=rf"config\.dataset\.{key}: expected"):
            parse_config({"dataset": dataset})

    @pytest.mark.parametrize("dataset", [{"type": "fcube"}, BLOBS_SMALL])
    def test_negative_dataset_seed_rejected_with_path(self, dataset):
        with pytest.raises(
            ConfigError, match=r"^config\.dataset\.seed: must be >= 0, got -3$"
        ):
            parse_config({"dataset": {**dataset, "seed": -3}})

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
            "n_train": 4000, "n_test": 1000, "seed": None,
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
        + [(LIBSVM_OPTIONS, key) for key in LIBSVM_OPTIONS if key != "type"],
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

    def test_readme_library_example_runs(self, capsys):
        # The README's "Library use" block must run as written.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        example = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
        exec(compile(example, "README.md", "exec"), {})
        assert 0.0 <= float(capsys.readouterr().out) <= 1.0

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
        labels = [(c.algorithm, c.mu, c.prox_mu) for c in config.cells]
        assert labels == [
            ("fedavg", None, 0.01), ("fedprox", 0.01, 0.01), ("fedprox", 0.1, 0.1),
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


def fail_trial(config, trial, error):
    """A harness.run_group that raises error(message) for trial's group.
    It is keyed on the group's run seed, so it fires in a forked worker too."""
    seed = harness._trial_seed(config.fed.master_seed, trial)
    real_run_group = harness.run_group

    def failing(*args):
        if args[4][0].master_seed == seed:
            raise error(f"trial {trial} stopped")
        return real_run_group(*args)

    return failing


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

    def test_a_failed_trial_keeps_the_records_of_finished_runs(self, tmp_path, monkeypatch):
        # The cells of a trial train as one group. Trial 0's group finishes,
        # then the sweep is interrupted as trial 1's group starts: trial 0's
        # records stay on disk, in the order they trained, and no summary is
        # written. An interrupt before any group finishes leaves no results
        # file at all.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 2, "parties": 3,
                 "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5},
            sweeps={"mu": [0.01, 0.1]},
            trials=3,
        ))
        # started counts calls in this process, so every group must train
        # here: a forked worker's calls would not reach it.
        use_cpus(monkeypatch, 1)
        cmd_run(config, tmp_path / "whole")
        whole = mask_wall((tmp_path / "whole" / "results.jsonl").read_text()).splitlines()
        real_run_group = harness.run_group
        for fail_at in (1, 0):
            started = []

            def failing(*args):
                if len(started) == fail_at:
                    raise KeyboardInterrupt
                started.append(args)
                return real_run_group(*args)

            monkeypatch.setattr(harness, "run_group", failing)
            out = tmp_path / f"stopped{fail_at}"
            with pytest.raises(KeyboardInterrupt):
                cmd_run(config, out)
            assert not (out / "summary.csv").exists()
            if fail_at == 0:
                assert list(out.iterdir()) == []
                continue
            kept = mask_wall((out / "results.jsonl").read_text()).splitlines()
            assert kept == [line for line in whole if json.loads(line)["trial"] == 0]
            assert len(kept) == 4 * 3

    @needs_fork
    @pytest.mark.parametrize("error", [KeyboardInterrupt, PartitionError])
    def test_a_trial_that_fails_in_a_worker_keeps_the_records_of_finished_runs(
            self, tmp_path, deadline, monkeypatch, error):
        # The sweep above on two CPUs: trial 0 trains in this process and
        # trial 1 in a worker, where its failure arrives with its type and
        # message once trial 0's records are written; the worker still
        # training, if any, is stopped and reaped. A failure in trial 0
        # leaves no results file at all.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 2, "parties": 3,
                 "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5},
            sweeps={"mu": [0.01, 0.1]},
            trials=3,
        ))
        use_cpus(monkeypatch, 2)
        cmd_run(config, tmp_path / "whole")
        whole = mask_wall((tmp_path / "whole" / "results.jsonl").read_text()).splitlines()
        for trial in (1, 0):
            monkeypatch.setattr(harness, "run_group", fail_trial(config, trial, error))
            out = tmp_path / f"stopped{trial}"
            with pytest.raises(error, match=f"^trial {trial} stopped$"):
                cmd_run(config, out)
            assert_no_child_process()
            assert not (out / "summary.csv").exists()
            if trial == 0:
                assert list(out.iterdir()) == []
                continue
            kept = mask_wall((out / "results.jsonl").read_text()).splitlines()
            assert kept == [line for line in whole if json.loads(line)["trial"] == 0]
            assert len(kept) == 4 * 3

    @needs_fork
    def test_a_worker_ignores_sigint_and_the_caller_stops_its_workers_on_one(
            self, tmp_path, deadline, monkeypatch):
        # A Ctrl-C goes to the whole process group. A worker ignores it, so
        # the sweep it lands in writes what a quiet sweep writes; the caller
        # raises KeyboardInterrupt and stops and reaps its workers first.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox"], "rounds": 2, "parties": 3,
                 "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5},
            trials=3,
        ))
        use_cpus(monkeypatch, 3)
        cmd_run(config, tmp_path / "quiet")
        caller = os.getpid()
        real_run_group = harness.run_group
        for target in ("worker", "caller"):

            def interrupting(*args):
                if (os.getpid() == caller) == (target == "caller"):
                    (tmp_path / f"{target}-{os.getpid()}").touch()
                    os.kill(os.getpid(), signal.SIGINT)
                return real_run_group(*args)

            monkeypatch.setattr(harness, "run_group", interrupting)
            out = tmp_path / target
            if target == "worker":
                cmd_run(config, out)
                assert len(list(tmp_path.glob("worker-*"))) == 2
                for name in ("results.jsonl", "summary.csv"):
                    assert mask_wall((out / name).read_text()) == mask_wall(
                        (tmp_path / "quiet" / name).read_text())
            else:
                with pytest.raises(KeyboardInterrupt):
                    cmd_run(config, out)
                assert not (out / "summary.csv").exists()
            assert_no_child_process()

    def test_a_batch_above_every_party_trains_full_batch(self, tmp_path, monkeypatch):
        # A batch size above every party's size trains each party on one
        # full batch, as a batch of the largest party's size does: the local
        # trainer sizes its buffers from the parties, not from the config.
        raw = small_run_config(
            partition={"type": "quantity_dirichlet", "beta": 1.0},
            fed={"algorithms": list(engine.ALGORITHMS), "rounds": 2, "parties": 3,
                 "local_epochs": 2, "batch_size": 2**31 - 1, "lr": 0.05, "seed": 5})
        largest = []

        def recording_build_views(*args):
            pmap, views = build_views(*args)
            largest.append(max(view.n_samples for view in views))
            return pmap, views

        monkeypatch.setattr(engine, "build_views", recording_build_views)
        use_cpus(monkeypatch, 1)
        cmd_run(parse_config(raw), tmp_path / "huge")
        raw["fed"]["batch_size"] = largest[0]
        cmd_run(parse_config(raw), tmp_path / "largest")
        assert largest == [largest[0]] * 2
        for name in ("results.jsonl", "summary.csv"):
            huge, full = ((tmp_path / run / name).read_text() for run in ("huge", "largest"))
            assert mask_wall(huge) == mask_wall(full)

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


class TestDeterminism:
    @needs_fork
    def test_any_number_of_cpus_writes_the_same_files(self, tmp_path, deadline, capsys,
                                                      monkeypatch):
        # Three trials with feature noise, 3 of 5 parties sampled per round
        # and a scaffold cell that diverges: one CPU, two, and more CPUs than
        # trials write byte-identical files and the same progress lines, up
        # to their seconds, trial by trial. A worker trains each trial that
        # this process does not, and none is left when cmd_run returns.
        config = parse_config({
            "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 30, "dim": 32,
                        "spread": 0.3, "seed": 3},
            "partition": {"type": "quantity_dirichlet", "beta": 0.5, "noise_sigma": 0.1},
            "arch": {"hidden": [32, 16, 8]},
            "fed": {"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 10,
                    "parties": 5, "sample_fraction": 0.6, "local_epochs": 5,
                    "batch_size": 64, "lr": 0.3, "seed": 1},
            "sweeps": {"mu": [0.01, 0.1]},
            "trials": 3,
        })
        real_run_group = harness.run_group

        def recording(*args):
            (tmp_path / f"pid-{os.getpid()}").touch()
            return real_run_group(*args)

        monkeypatch.setattr(harness, "run_group", recording)
        outputs, processes = {}, {}
        for cpus in (1, 2, 5):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            cmd_run(config, out)
            assert_no_child_process()
            progress = [re.sub(r" \d+\.\d\ds$", "", line)
                        for line in capsys.readouterr().err.splitlines()]
            outputs[cpus] = (mask_wall((out / "results.jsonl").read_text()),
                             (out / "summary.csv").read_bytes(), progress)
            # The cell-major results.jsonl was staged and renamed: no .tmp is left.
            assert sorted(path.name for path in out.iterdir()) == [
                "results.jsonl", "summary.csv"]
            pids = list(tmp_path.glob("pid-*"))
            processes[cpus] = len(pids)
            for pid in pids:
                pid.unlink()
        assert outputs[2] == outputs[1] and outputs[5] == outputs[1]
        assert processes == {1: 1, 2: 2, 5: 3}
        progress = outputs[1][2]
        assert [int(re.search(r"trial=(\d)", line)[1]) for line in progress] == [
            trial for trial in range(3) for _ in config.cells]
        records = read_jsonl(tmp_path / "cpus1" / "results.jsonl")
        diverged = {record["algorithm"] for record in records if record["diverged"]}
        assert diverged == {"scaffold"}

    @pytest.mark.parametrize("why", ["objective replaced", "no os.fork", "off the main thread"])
    def test_every_group_trains_in_the_caller_when_it_cannot_fork(
            self, tmp_path, monkeypatch, why):
        # Two CPUs would train trial 1 in a worker, but an objective that
        # does not stack may keep its counts here, a platform may lack
        # os.fork, and only on the main thread does a Ctrl-C raise the
        # KeyboardInterrupt that stops the workers.
        config = parse_config(small_run_config(trials=2))
        use_cpus(monkeypatch, 1)
        cmd_run(config, tmp_path / "cpus1")
        use_cpus(monkeypatch, 2)
        real_run_group, real_run_experiment = harness.run_group, harness.run_experiment
        pids = []
        monkeypatch.setattr(harness, "run_group",
                            lambda *args: pids.append(os.getpid()) or real_run_group(*args))
        monkeypatch.setattr(harness, "run_experiment",
                            lambda *args: pids.append(os.getpid()) or real_run_experiment(*args))
        if why == "objective replaced":
            monkeypatch.setattr(engine, "MlpObjective", Alone)
        elif why == "no os.fork":
            monkeypatch.delattr(os, "fork", raising=False)
        out = tmp_path / "cpus2"
        if why == "off the main thread":
            thread = threading.Thread(target=cmd_run, args=(config, out))
            thread.start()
            thread.join(60)
            assert not thread.is_alive()
        else:
            cmd_run(config, out)
        assert pids == [os.getpid()] * 2
        for name in ("results.jsonl", "summary.csv"):
            assert mask_wall((out / name).read_text()) == mask_wall(
                (tmp_path / "cpus1" / name).read_text())

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


class Alone(engine.MlpObjective):
    """MlpObjective with loss_grad overridden, so it does not stack and
    cmd_run trains each (cell, trial) run alone."""

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        return super().loss_grad(params, features, labels, prox_mu, prox_anchor)


class TestLockstep:
    def test_diverging_cell_matches_cells_run_alone(self, tmp_path, monkeypatch):
        # A mu of 1e300 is far too large for lr 0.05: from a party's second
        # step on, its proximal pull overshoots until the model overflows,
        # so that fedprox cell diverges while its group trains on. Scaffold
        # refreshes its controls with option "i", a full-data gradient.
        config = parse_config(small_run_config(
            partition={"type": "quantity_dirichlet", "beta": 1.0},
            fed={"algorithms": list(engine.ALGORITHMS), "rounds": 3, "parties": 3,
                 "batch_size": 8, "lr": 0.05, "scaffold_c_option": "i", "seed": 5},
            sweeps={"mu": [0.01, 1e300], "local_epochs": [1, 2]},
            trials=2,
        ))
        assert engine.trains_in_lockstep(engine.MlpObjective(MlpArch((4, 8, 3))))
        cmd_run(config, tmp_path / "lockstep")
        monkeypatch.setattr(engine, "MlpObjective", Alone)
        assert not engine.trains_in_lockstep(engine.MlpObjective(MlpArch((4, 8, 3))))
        cmd_run(config, tmp_path / "alone")
        for name in ("results.jsonl", "summary.csv"):
            lockstep, alone = (mask_wall((tmp_path / run / name).read_text())
                               for run in ("lockstep", "alone"))
            assert lockstep == alone
        records = read_jsonl(tmp_path / "lockstep" / "results.jsonl")
        assert len(records) == 10 * 2 * 4
        for record in records:
            assert record["diverged"] == (record["mu"] == 1e300 and record["round"] > 0)

    def test_one_kernel_call_per_party_step_for_the_group(self, tmp_path, monkeypatch):
        # Five cells of equal E on three parties whose sizes differ and
        # whose batches hold all their rows: one cell alone never stacks
        # two parties, so five cells run one by one make five times the
        # calls that a lockstep group makes.
        config = parse_config(small_run_config(
            partition={"type": "quantity_dirichlet", "beta": 1.0},
            fed={"algorithms": list(engine.ALGORITHMS), "rounds": 2, "parties": 3,
                 "local_epochs": 2, "batch_size": 128, "lr": 0.05, "seed": 5},
            sweeps={"mu": [0.01, 0.1]},
        ))
        assert len(config.cells) == 5
        train, _ = build_dataset(config)
        _, views = build_views(train, config.partition, 3,
                               engine.partition_seed(config.cells[0].master_seed))
        sizes = [view.n_samples for view in views]
        assert len(set(sizes)) == 3 and max(sizes) <= 128
        cell = config.cells[0]
        party_steps = cell.rounds * cell.local_epochs * len(sizes)
        calls = []
        real_loss_grad = engine._loss_grad

        def counting(layers, w, *args):
            calls.append(w.shape[:-1])
            return real_loss_grad(layers, w, *args)

        monkeypatch.setattr(engine, "_loss_grad", counting)
        # calls counts calls in this process, so every cohort must train
        # here: a shard worker's calls would not reach it.
        use_cpus(monkeypatch, 1)
        cmd_run(config, tmp_path / "out")
        assert calls == [(5,)] * party_steps
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        assert not any(record["diverged"] for record in records)

    def test_equal_parties_that_outnumber_the_cells_train_cell_by_cell(
            self, tmp_path, monkeypatch):
        # Six iid parties of 15 samples, batches of 8: every party's batches
        # hold 8 then 7 samples, so each cell steps all six parties in one
        # call, two calls per epoch, as it does alone. One party at a time
        # would take six calls of two rows each.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox"], "rounds": 2, "parties": 6,
                 "local_epochs": 2, "batch_size": 8, "lr": 0.05, "seed": 5},
        ))
        cell = config.cells[0]
        train, _ = build_dataset(config)
        _, views = build_views(train, config.partition, 6,
                               engine.partition_seed(cell.master_seed))
        assert [view.n_samples for view in views] == [15] * 6
        calls = []
        real_loss_grad = engine._loss_grad

        def counting(layers, w, *args):
            calls.append(w.shape[:-1])
            return real_loss_grad(layers, w, *args)

        monkeypatch.setattr(engine, "_loss_grad", counting)
        # As above, every cohort must train in this process.
        use_cpus(monkeypatch, 1)
        cmd_run(config, tmp_path / "lockstep")
        assert calls == [(6,)] * (2 * cell.rounds * cell.local_epochs * 2)
        monkeypatch.setattr(engine, "MlpObjective", Alone)
        cmd_run(config, tmp_path / "alone")
        for name in ("results.jsonl", "summary.csv"):
            lockstep, alone = (mask_wall((tmp_path / run / name).read_text())
                               for run in ("lockstep", "alone"))
            assert lockstep == alone


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
        # The three cells of a trial train as one lockstep group, so the
        # lines come trial by trial, and a group's lines share its time.
        cells = [
            (algorithm, mu, trial)
            for trial in (0, 1)
            for algorithm, mu in (("fedavg", "-"), ("fedprox", "0.01"), ("fedprox", "0.1"))
        ]
        assert len(lines) == len(cells)
        records = read_jsonl(tmp_path / "out" / "results.jsonl")
        finals = {(r["algorithm"], "-" if r["mu"] is None else repr(r["mu"]), r["trial"]):
                  r["test_accuracy"] for r in records if r["round"] == 2}
        seconds = []
        for i, (line, cell) in enumerate(zip(lines, cells)):
            algorithm, mu, trial = cell
            match = re.fullmatch(
                rf"cell {i + 1}/6: {algorithm} mu={re.escape(mu)} E=1 trial={trial} "
                rf"final_accuracy={finals[cell]:.4f} diverged_rounds=0 (\d+\.\d\d)s",
                line,
            )
            assert match, line
            seconds.append(match[1])
        assert seconds[0] == seconds[1] == seconds[2] and seconds[3] == seconds[4] == seconds[5]
        masked = mask_wall((tmp_path / "out" / "results.jsonl").read_text())
        assert hashlib.sha256(masked.encode("ascii")).hexdigest() == self.RESULTS_SHA256

    def test_runs_trained_one_by_one_go_trial_by_trial_and_write_lockstep_files(
            self, tmp_path, capsys, monkeypatch):
        # An objective that overrides loss_grad, as the traced benchmark's
        # does, trains each run alone, in the trial-major order lockstep
        # trains in; results.jsonl is then rewritten into cell-major order.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 2, "parties": 3,
                 "local_epochs": 1, "batch_size": 16, "lr": 0.05, "seed": 5},
            trials=2,
        ))
        progress = {}
        for run in ("lockstep", "alone"):
            if run == "alone":
                monkeypatch.setattr(engine, "MlpObjective", Alone)
            cmd_run(config, tmp_path / run)
            progress[run] = [re.match(r"cell \d+/6: (\S+) mu=\S+ E=1 trial=(\d)", line).groups()
                             for line in capsys.readouterr().err.splitlines()]
        assert progress["alone"] == progress["lockstep"] == [
            (algorithm, trial) for trial in "01" for algorithm in ("fedavg", "fedprox", "scaffold")]
        lockstep, alone = (mask_wall((tmp_path / run / "results.jsonl").read_text())
                           for run in ("lockstep", "alone"))
        assert alone == lockstep
        records = read_jsonl(tmp_path / "alone" / "results.jsonl")
        assert [(r["algorithm"], r["trial"]) for r in records if r["round"] == 0] == [
            (algorithm, trial) for algorithm in ("fedavg", "fedprox", "scaffold")
            for trial in (0, 1)]
        assert (tmp_path / "alone" / "summary.csv").read_bytes() == (
            tmp_path / "lockstep" / "summary.csv").read_bytes()


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
        # two sources; fedavg wins the first, fednova the second
        for source, winner in (("s1", "fedavg"), ("s2", "fednova")):
            for algorithm in ("fedavg", "fednova"):
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
        assert wins == {"fedavg": "1", "fednova": "1"}

    def test_report_rebuilds_curves_whole(self, tmp_path):
        # report owns curves/: a second report, after b.jsonl is deleted,
        # leaves only a's curves beside a report.csv that lists only a.
        config = parse_config(small_run_config())
        out = tmp_path / "out"
        cmd_run(config, out)
        (out / "results.jsonl").rename(out / "a.jsonl")
        shutil.copy(out / "a.jsonl", out / "b.jsonl")
        cmd_report(out)
        assert sorted(path.name for path in (out / "curves").iterdir()) == [
            "a__fedavg__E1__munone__t0.csv", "b__fedavg__E1__munone__t0.csv"]
        (out / "b.jsonl").unlink()
        cmd_report(out)
        assert sorted(path.name for path in (out / "curves").iterdir()) == [
            "a__fedavg__E1__munone__t0.csv"]
        assert [line.split(",")[0] for line in
                (out / "report.csv").read_text().splitlines()[1:]] == ["a"]
        assert not (out / ".curves.new").exists()

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
            # An unknown algorithm name would add a report column ("a,b") or
            # a curve file outside curves/ ("../../evil").
            (json.dumps({**RECORD, "algorithm": "a,b"}).encode(),
             'line 2: algorithm cannot be "a,b"'),
            (json.dumps({**RECORD, "algorithm": "../../evil"}).encode(),
             r'line 2: algorithm cannot be "\.\./\.\./evil"'),
            (json.dumps({**RECORD, "test_accuracy": float("nan")}).encode(),
             "line 2: test_accuracy cannot be NaN"),
            (json.dumps({**RECORD, "test_accuracy": float("-inf")}).encode(),
             "line 2: test_accuracy cannot be -Infinity"),
            (json.dumps({**RECORD, "mean_train_loss": float("inf")}).encode(),
             "line 2: mean_train_loss cannot be Infinity"),
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

    # A stem is a report.csv field and part of each curve's file name.
    @pytest.mark.parametrize("stem", ["caf\u00e9", "a,b", 'say"hi', "two\nlines"])
    def test_unusable_file_name_refused(self, tmp_path, capsys, stem):
        out = tmp_path / "out"
        out.mkdir()
        (out / "good.jsonl").write_text(json.dumps(self.RECORD) + "\n")
        path = out / f"{stem}.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n")
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert sorted(p.name for p in out.iterdir()) == sorted(["good.jsonl", path.name])

    def test_report_matches_summary(self, tmp_path):
        # Each report.csv cell is the best over mu of the per-cell means that
        # summary.csv gives for that algorithm and E.
        config = parse_config(small_run_config(
            fed={"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 2, "parties": 3,
                 "batch_size": 16, "lr": 0.05, "seed": 5},
            sweeps={"mu": [0.001, 0.1], "local_epochs": [1, 2]},
            trials=3,
        ))
        out = tmp_path / "out"
        cmd_run(config, out)
        cmd_report(out)
        best = {}
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            algorithm, _mu, epochs, _trials, mean, _std = line.split(",")
            key = (algorithm, epochs)
            best[key] = max(best.get(key, float("-inf")), float(mean))
        header, *rows = (out / "report.csv").read_text().splitlines()
        algorithms = header.split(",")[2:-1]
        assert algorithms == ["fedavg", "fedprox", "scaffold"]
        assert [row.split(",")[:2] for row in rows] == [["results", "1"], ["results", "2"]]
        for row in rows:
            _source, epochs, *cells, _winners = row.split(",")
            assert cells == [repr(best[algorithm, epochs]) for algorithm in algorithms]


class TestGradcheck:
    def test_fresh_build_passes(self):
        worst = gradient_check(n_cases=25, seed=3)
        assert worst < GRADCHECK_TOLERANCE

    def test_sign_flip_sabotage_detected(self, monkeypatch):
        # Backprop with layer 0's weight gradient negated: the check must
        # catch the broken gradient.
        real_backward = harness.backward

        def flipped(params, arch, features, labels):
            loss, grad = real_backward(params, arch, features, labels)
            start, stop, _, _ = layer_slices(arch)[0]
            grad[start:stop] *= -1.0
            return loss, grad

        monkeypatch.setattr(harness, "backward", flipped)
        worst = gradient_check(n_cases=5, seed=3)
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
               "batch_size": 16, "lr": 0.05}
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

    def test_test_set_width_exit_code(self, tmp_path, capsys):
        # 2x2 training images size the model's input at 4; 2x3 test images
        # do not fit it, so no accuracy could be scored on them.
        rng = np.random.default_rng(4)
        dataset = {"type": "idx"}
        for side, (rows, cols) in (("train", (2, 2)), ("test", (2, 3))):
            features = rng.uniform(size=(20, rows * cols))
            images, labels = tmp_path / f"{side}.idx3", tmp_path / f"{side}.idx1"
            write_idx(LabeledDataset(features, np.arange(20) % 10, 10), images, labels,
                      rows, cols)
            dataset.update({f"{side}_images": str(images), f"{side}_labels": str(labels)})
        config_path = write_config(tmp_path, small_run_config(dataset=dataset))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: test features have width 6, architecture input is 4\n"
        )

    @pytest.mark.parametrize("command, bad", [
        ("run", "missing file"), ("partition", "missing file"), ("run", "test width"),
        ("run", "empty training set"), ("partition", "empty training set"),
    ])
    def test_bad_inputs_leave_no_output_directory(self, tmp_path, capsys, command, bad):
        # The dataset is built, and checked against the model, before --out
        # is made; both commands used to leave an empty directory behind,
        # and run still did for a training file of 0 images.
        dataset = {"type": "idx"}
        for side, cols in (("train", 2), ("test", 3 if bad == "test width" else 2)):
            images, labels = tmp_path / f"{side}.idx3", tmp_path / f"{side}.idx1"
            n = 0 if side == "train" and bad == "empty training set" else 20
            features = np.random.default_rng(4).uniform(size=(n, 2 * cols))
            write_idx(LabeledDataset(features, np.arange(n) % 10, 10), images, labels, 2, cols)
            dataset.update({f"{side}_images": str(images), f"{side}_labels": str(labels)})
        if bad == "missing file":
            dataset["test_images"] = str(tmp_path / "absent.idx3")
        config_path = write_config(tmp_path, small_run_config(dataset=dataset))
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("fails", ["first group", "later trial"])
    def test_a_failed_sweep_leaves_no_earlier_outputs(self, tmp_path, capsys, monkeypatch,
                                                       fails):
        # An earlier sweep's results.jsonl and summary.csv in --out are
        # removed before the first group trains, so report cannot read them
        # as this sweep's. Here the first group's partition cannot give 5
        # labels per party from 3 classes, or the second trial's fails.
        out = tmp_path / "out"
        out.mkdir()
        for name in ("results.jsonl", "summary.csv"):
            (out / name).write_text("from an earlier sweep\n")
        partition = {"type": "label_quantity", "labels_per_party": 5}
        if fails == "later trial":
            partition = {"type": "iid"}
            real_run_group = harness.run_group
            started = []

            def failing(*args):
                started.append(args)
                if len(started) == 2:
                    raise PartitionError("cannot partition trial 1")
                return real_run_group(*args)

            monkeypatch.setattr(harness, "run_group", failing)
        config_path = write_config(tmp_path, small_run_config(partition=partition, trials=2))
        # started counts calls in this process: one CPU keeps every group here.
        use_cpus(monkeypatch, 1)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert not (out / "summary.csv").exists()
        if fails == "first group":
            assert list(out.iterdir()) == []
        else:
            kept = read_jsonl(out / "results.jsonl")
            assert [(r["trial"], r["round"]) for r in kept] == [(0, 0), (0, 1), (0, 2)]

    @needs_fork
    @pytest.mark.parametrize("error", [PartitionError, KeyboardInterrupt])
    def test_a_sweep_failed_in_a_worker_leaves_no_earlier_outputs(
            self, tmp_path, deadline, capsys, monkeypatch, error):
        # The later-trial case above on two CPUs: trial 1 fails in a
        # worker. A FedsimError ends the command with exit code 2 and its
        # message; an interrupt reaches the caller of main.
        out = tmp_path / "out"
        out.mkdir()
        for name in ("results.jsonl", "summary.csv"):
            (out / name).write_text("from an earlier sweep\n")
        raw = small_run_config(trials=2)
        monkeypatch.setattr(harness, "run_group", fail_trial(parse_config(raw), 1, error))
        use_cpus(monkeypatch, 2)
        argv = ["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt, match="^trial 1 stopped$"):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines()[-1] == "error: trial 1 stopped"
        assert_no_child_process()
        assert not (out / "summary.csv").exists()
        kept = read_jsonl(out / "results.jsonl")
        assert [(r["trial"], r["round"]) for r in kept] == [(0, 0), (0, 1), (0, 2)]

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_empty_training_set_exit_code(self, tmp_path, capsys, command):
        # A 0-image training file used to be reported as a party count bound
        # of 0 by the iid strategy.
        dataset = {"type": "idx"}
        for side, n in (("train", 0), ("test", 20)):
            features = np.random.default_rng(4).uniform(size=(n, 4))
            images, labels = tmp_path / f"{side}.idx3", tmp_path / f"{side}.idx1"
            write_idx(LabeledDataset(features, np.arange(n) % 10, 10), images, labels, 2, 2)
            dataset.update({f"{side}_images": str(images), f"{side}_labels": str(labels)})
        config_path = write_config(tmp_path, small_run_config(dataset=dataset))
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: training set is empty: there are no samples to partition\n"
        )

    @pytest.mark.parametrize("kind", ["fcube", "blobs"])
    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_negative_dataset_seed_exit_code(self, tmp_path, capsys, kind, command):
        # numpy used to refuse the seed with a raw ValueError and a traceback.
        config_path = write_config(tmp_path, {"dataset": {"type": kind, "seed": -1}})
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config.dataset.seed: must be >= 0, got -1\n"
        )

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_out_naming_a_file_exit_code(self, tmp_path, capsys, command):
        # os.makedirs used to end this in a raw FileExistsError traceback.
        config_path = write_config(tmp_path, small_run_config())
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([command, "--config", str(config_path), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"

    @pytest.mark.parametrize("command, name", [
        ("run", "results.jsonl"), ("run", "summary.csv"),
        ("partition", "partition.txt"), ("partition", "partition_stats.csv"),
        ("report", "report.csv"), ("report", "wins.csv"), ("report", "curves"),
    ])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, command, name):
        # A directory where an output file goes, or a file where the curves
        # directory goes, is refused with the path, not with a traceback.
        config_path = write_config(tmp_path, small_run_config())
        out = tmp_path / "out"
        if command == "report":
            assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
            assert main(["report", "--out", str(out)]) == 0
        blocked = out / name
        if blocked.is_dir():
            shutil.rmtree(blocked)
        blocked.unlink(missing_ok=True)
        blocked.parent.mkdir(parents=True, exist_ok=True)
        if name == "curves":
            blocked.write_text("")
        else:
            blocked.mkdir()
        capsys.readouterr()
        extra = [] if command == "report" else ["--config", str(config_path)]
        assert main([command, "--out", str(out), *extra]) == 2
        # A run prints its progress lines before it writes the summary.
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"error: cannot write {blocked}: ")

    def test_unwritable_curve_exit_code(self, tmp_path, capsys):
        # A curve whose file name is too long to make is refused with its
        # path, and the report leaves the earlier curves/ as it was and no
        # staging directory behind.
        config_path = write_config(tmp_path, small_run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in (out / "curves").iterdir()}
        (out / "results.jsonl").rename(out / f"{'a' * 240}.jsonl")
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        error = capsys.readouterr().err
        assert error.startswith(f"error: cannot write {out}{os.sep}")
        assert f"{'a' * 240}__fedavg__E1__munone__t0.csv: " in error
        assert {path.name: path.read_bytes() for path in (out / "curves").iterdir()} == before
        assert sorted(path.name for path in out.iterdir()) == [
            "a" * 240 + ".jsonl", "curves", "report.csv", "summary.csv", "wins.csv"]

    def test_group_partition_without_group_ids_exit_code(self, tmp_path, capsys):
        # A blobs dataset carries no group ids: the config is refused before
        # --out is made, with the key that is at fault.
        raw = small_run_config(partition={"type": "fcube_pairs"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config.partition.type: ")
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"dataset": {"type": "fcube"}, "bogus": 1})
        assert main(["run", "--config", str(config_path)]) == 2
        assert "bogus" in capsys.readouterr().err
