"""JSON experiment configuration: parsing, defaults, validation.

A config file selects a dataset, a partition strategy, a model architecture
and the federation hyperparameters, plus optional sweep lists and a trial
count; the sweep lists resolve to one FedRunConfig per cell. Unknown keys,
type mismatches, non-finite numbers and invariant violations are rejected
with the offending key path in the message.

Each default is declared once: FedRunConfig's and PartitionSpec's field
defaults, DATASET_OPTIONS and the two dataset-derived tables below, and the
rest where parse_config reads them. The parsed config is fully resolved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .datasets import GROUPED_DATASET_KINDS
from .engine import ALGORITHMS, FedRunConfig
from .errors import ConfigError
from .partition import FCUBE_PAIRS_PARTIES, GROUP_PARTITION_KINDS, PARTITION_KINDS, PartitionSpec

# Each "fed" key besides "algorithms": the FedRunConfig field it sets and its
# type. An absent key leaves the field's own default.
FED_FIELDS = {
    "rounds": ("rounds", int), "parties": ("n_parties", int),
    "sample_fraction": ("sample_fraction", float), "local_epochs": ("local_epochs", int),
    "batch_size": ("batch_size", int), "lr": ("local_lr", float),
    "momentum": ("momentum", float), "server_lr": ("server_lr", float),
    "prox_mu": ("prox_mu", float), "scaffold_c_option": ("scaffold_c_option", str),
    "seed": ("master_seed", int),
}

# The "fed" keys that only one algorithm's cells read, with that algorithm:
# a config that sets one but trains no such cell is refused.
FED_ALGORITHM_KEYS = {"prox_mu": "fedprox", "scaffold_c_option": "scaffold"}

# Each sweep list and the "fed" key whose value it replaces in every cell.
SWEPT_FED_KEYS = {"mu": "prox_mu", "local_epochs": "local_epochs"}

# Datasets whose conventional party count or learning rate replaces
# FedRunConfig's default.
PARTIES_BY_DATASET_KIND = {"fcube": 4}
LR_BY_DATASET_NAME = {"rcv1": 0.1}

# Each "partition" key besides "type": its type and the partition kinds that
# read it. Keys are PartitionSpec field names; an absent key leaves the
# field's own default, and a key set for a kind that does not read it is
# refused.
_DIRICHLET = ("label_dirichlet", "quantity_dirichlet")
PARTITION_OPTIONS = {"labels_per_party": (int, ("label_quantity",)), "beta": (float, _DIRICHLET),
                     "min_size": (int, _DIRICHLET), "noise_sigma": (float, PARTITION_KINDS)}

REQUIRED = object()  # marks a dataset option that has no default
_TEST_FRACTION = 0.2

# Each dataset kind's options besides "type" and "name": (type, default or
# REQUIRED). A "seed" of None follows fed.seed (ExperimentConfig.dataset_seed);
# a libsvm "test_path" of None splits test_fraction off the training file.
DATASET_OPTIONS = {
    "fcube": {"n_train": (int, 4000), "n_test": (int, 1000), "seed": (int, None)},
    "blobs": {
        "n_classes": (int, 10), "n_per_class": (int, 500), "dim": (int, 32),
        "spread": (float, 0.3), "seed": (int, None), "test_fraction": (float, _TEST_FRACTION),
    },
    "idx": dict.fromkeys(
        ("train_images", "train_labels", "test_images", "test_labels"), (str, REQUIRED)
    ),
    "libsvm": {
        "train_path": (str, REQUIRED), "test_path": (str, None), "n_features": (int, REQUIRED),
        "n_classes": (int, REQUIRED), "label_map": (dict, REQUIRED),
        "test_fraction": (float, _TEST_FRACTION),
    },
}
DATASET_KINDS = tuple(DATASET_OPTIONS)


@dataclass(frozen=True)
class DatasetSpec:
    """Dataset selector: a kind plus every one of its options, defaults filled."""

    kind: str
    name: str
    options: dict


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    partition: PartitionSpec
    hidden: tuple[int, ...]
    cells: tuple[FedRunConfig, ...]  # the sweep grid, in run order
    trials: int
    out_dir: str

    @property
    def fed(self) -> FedRunConfig:
        """The first cell. Cells differ only in algorithm, local_epochs and
        prox_mu, so this carries every setting they share, the seed too."""
        return self.cells[0]

    @property
    def dataset_seed(self) -> int:
        """The dataset's own "seed" option, or fed.seed where it sets none."""
        seed = self.dataset.options.get("seed")
        return self.fed.master_seed if seed is None else seed


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _section(obj, types: dict, path: str) -> dict:
    """The keys the object obj sets, each checked against its type in types;
    a key types does not list is refused."""
    for key in _require_mapping(obj, path):
        if key not in types:
            raise ConfigError(f"{path}.{key}: unknown key")
    return {key: _check(value, types[key], f"{path}.{key}") for key, value in obj.items()}


def _check(value, kinds, path: str):
    """value, if JSON gave it type kinds; a float may be written as an integer."""
    if kinds is float:
        ok = _is_number(value)
        value = _finite(value, path) if ok else value
    elif kinds is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, kinds)
    if not ok:
        raise ConfigError(f"{path}: expected {kinds.__name__}, got {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path: str) -> float:
    """A JSON number as a float. json accepts NaN and Infinity, and an integer
    literal may lie beyond float range; all of these are refused."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return value


def _reject_duplicates(values, path: str):
    """A sweep list names each setting once; a repeat would run it twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{path}: duplicate entries in {list(values)}")


def _sweep(values, kinds, minimum, path: str) -> list:
    """A sweep list: non-empty, each entry of type kinds and >= minimum, none twice."""
    values = [_check(value, kinds, path) for value in values]
    if not values or min(values) < minimum:
        raise ConfigError(f"{path}: must be a non-empty list of values >= {minimum}")
    _reject_duplicates(values, path)
    return values


def _parse_dataset(obj, path: str) -> DatasetSpec:
    kind = _require_mapping(obj, path).get("type")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"{path}.type: expected one of {DATASET_KINDS}, got {kind!r}")
    table = DATASET_OPTIONS[kind]
    types = {key: kinds for key, (kinds, _) in table.items()}
    options = _section(obj, {"type": str, "name": str, **types}, path)
    del options["type"]
    name = options.pop("name", kind)
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in options:
            raise ConfigError(f"{path}.{key}: required for {kind} datasets")
        options.setdefault(key, default)
    if options.get("seed") is not None and options["seed"] < 0:
        raise ConfigError(f"{path}.seed: must be >= 0, got {options['seed']}")
    if kind == "libsvm":
        options["label_map"] = _parse_label_map(
            options["label_map"], options["n_classes"], f"{path}.label_map"
        )
    return DatasetSpec(kind, name, options)


def _parse_label_map(obj: dict, n_classes: int, path: str) -> dict[int, int]:
    """A libsvm file's label -> class id map; JSON writes each label as a string."""
    label_map = {}
    for key, value in obj.items():
        try:
            label = int(key)
        except ValueError:
            raise ConfigError(f"{path}: label {key!r} is not an integer") from None
        if label in label_map:
            raise ConfigError(f"{path}: label {key!r} repeats label {label}")
        label_map[label] = _check(value, int, f"{path}.{key}")
        if not 0 <= value < n_classes:
            raise ConfigError(f"{path}.{key}: class id must be in [0, {n_classes}), got {value}")
    return label_map


def _parse_partition(obj, path: str) -> PartitionSpec:
    types = {key: kinds for key, (kinds, _) in PARTITION_OPTIONS.items()}
    options = _section(obj, {"type": str, **types}, path)
    kind = options.pop("type", "iid")
    if "beta" in options and options["beta"] <= 0:
        raise ConfigError(f"{path}.beta: must be > 0, got {options['beta']}")
    if "noise_sigma" in options and options["noise_sigma"] < 0:
        raise ConfigError(f"{path}.noise_sigma: must be >= 0, got {options['noise_sigma']}")
    try:
        spec = PartitionSpec(kind, **options)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for key in options:
        if kind not in PARTITION_OPTIONS[key][1]:
            readers = " and ".join(PARTITION_OPTIONS[key][1])
            raise ConfigError(f"{path}.{key}: not read by {kind} partitions, only by {readers}")
    return spec


def _parse_fed(obj, dataset: DatasetSpec, path: str) -> tuple[list, FedRunConfig]:
    types = {key: kinds for key, (_, kinds) in FED_FIELDS.items()}
    given = _section(obj, {"algorithms": list, **types}, path)
    algorithms = given.pop("algorithms", ["fedavg"])
    if not algorithms:
        raise ConfigError(f"{path}.algorithms: must not be empty")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"{path}.algorithms: unknown algorithm {algorithm!r}")
    _reject_duplicates(algorithms, f"{path}.algorithms")
    for key, reader in FED_ALGORITHM_KEYS.items():
        if key in given and reader not in algorithms:
            raise ConfigError(f"{path}.{key}: only {reader} reads it, and "
                              f"{path}.algorithms {algorithms} has no {reader}")
    fields = {}
    if dataset.kind in PARTIES_BY_DATASET_KIND:
        fields["n_parties"] = PARTIES_BY_DATASET_KIND[dataset.kind]
    if dataset.name in LR_BY_DATASET_NAME:
        fields["local_lr"] = LR_BY_DATASET_NAME[dataset.name]
    for key, value in given.items():
        fields[FED_FIELDS[key][0]] = value
    try:
        return algorithms, FedRunConfig(algorithm=algorithms[0], **fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(raw: dict, source: str = "config") -> ExperimentConfig:
    sections = dict.fromkeys(("dataset", "partition", "arch", "fed", "sweeps"), object)
    top = _section(raw, {**sections, "trials": int, "out_dir": str}, source)
    if "dataset" not in top:
        raise ConfigError(f"{source}.dataset: required")
    dataset = _parse_dataset(top["dataset"], f"{source}.dataset")
    partition = _parse_partition(top.get("partition", {}), f"{source}.partition")

    arch = _section(top.get("arch", {}), {"hidden": list}, f"{source}.arch")
    hidden = arch.get("hidden", [32, 16, 8])
    if not all(_is_int(h) and h >= 1 for h in hidden):
        raise ConfigError(f"{source}.arch.hidden: entries must be integers >= 1")

    algorithms, fed = _parse_fed(top.get("fed", {}), dataset, f"{source}.fed")
    # Refused here, before any run makes --out, rather than by the partition.
    if partition.kind in GROUP_PARTITION_KINDS and dataset.kind not in GROUPED_DATASET_KINDS:
        raise ConfigError(
            f"{source}.partition.type: {partition.kind} partitions deal out group ids, which "
            f"only {' and '.join(GROUPED_DATASET_KINDS)} datasets carry, and "
            f"{source}.dataset.type is {dataset.kind}"
        )
    if partition.kind == "fcube_pairs" and fed.n_parties != FCUBE_PAIRS_PARTIES:
        raise ConfigError(
            f"{source}.fed.parties: fcube_pairs partitions deal to {FCUBE_PAIRS_PARTIES} "
            f"parties, got {fed.n_parties}"
        )

    sweeps = _section(
        top.get("sweeps", {}), {"mu": list, "local_epochs": list}, f"{source}.sweeps"
    )
    mu_sweep = _sweep(sweeps.get("mu", [fed.prox_mu]), float, 0, f"{source}.sweeps.mu")
    epoch_sweep = _sweep(
        sweeps.get("local_epochs", [fed.local_epochs]), int, 1, f"{source}.sweeps.local_epochs"
    )
    # A sweep replaces its fed key in every cell, so a run that sets both
    # would not read the fed one.
    for sweep_key, fed_key in SWEPT_FED_KEYS.items():
        if sweep_key in sweeps and fed_key in top.get("fed", {}):
            raise ConfigError(
                f"{source}.fed.{fed_key}: {source}.sweeps.{sweep_key} replaces it in every "
                f"cell; set one of the two"
            )
    # Cell order: algorithm, then local epochs, then mu where a cell trains
    # with one.
    cells = []
    for algorithm in algorithms:
        for epochs in epoch_sweep:
            cell = replace(fed, algorithm=algorithm, local_epochs=epochs)
            mus = mu_sweep if cell.mu is not None else [cell.prox_mu]
            cells.extend(replace(cell, prox_mu=mu) for mu in mus)
    if "mu" in sweeps and all(cell.mu is None for cell in cells):
        raise ConfigError(
            f"{source}.sweeps.mu: no algorithm in fed.algorithms trains with a mu"
        )

    trials = top.get("trials", 1)
    if trials < 1:
        raise ConfigError(f"{source}.trials: must be >= 1, got {trials}")

    return ExperimentConfig(
        dataset=dataset,
        partition=partition,
        hidden=tuple(hidden),
        cells=tuple(cells),
        trials=trials,
        out_dir=top.get("out_dir", "results"),
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON config file, applying defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(raw, source="config")


def override_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(config, cells=tuple(replace(c, master_seed=seed) for c in config.cells))
