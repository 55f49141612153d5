"""JSON experiment configuration: parsing, defaults, validation.

A config file selects a dataset, a partition strategy, a model architecture
and the federation hyperparameters, plus optional sweep lists and a trial
count. Unknown keys, type mismatches and invariant violations are rejected
with the offending key path in the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .engine import ALGORITHMS, FedRunConfig
from .errors import ConfigError
from .partition import PartitionSpec

DEFAULT_ROUNDS = 50
DEFAULT_LOCAL_EPOCHS = 10
DEFAULT_BATCH_SIZE = 64
DEFAULT_MOMENTUM = 0.9
DEFAULT_LR = 0.01
DEFAULT_PROX_MU = 0.01
DEFAULT_PARTIES = 10
DEFAULT_PARTIES_FCUBE = 4

# Datasets whose conventional learning rate differs from the default.
LR_BY_DATASET_NAME = {"rcv1": 0.1}

# Each dataset kind's options besides "type" and "name", with their types.
DATASET_OPTIONS = {
    "fcube": {"n_train": int, "n_test": int, "seed": int},
    "blobs": {
        "n_classes": int, "n_per_class": int, "dim": int, "spread": float,
        "seed": int, "test_fraction": float,
    },
    "idx": dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels"), str),
    "libsvm": {
        "train_path": str, "test_path": str, "n_features": int, "n_classes": int,
        "label_map": dict, "test_fraction": float,
    },
    "container": {"train_path": str, "test_path": str},
}
DATASET_KINDS = tuple(DATASET_OPTIONS)


@dataclass(frozen=True)
class DatasetSpec:
    """Dataset selector: a kind plus its kind-specific options."""

    kind: str
    name: str
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    partition: PartitionSpec
    hidden: tuple[int, ...]
    algorithms: tuple[str, ...]
    fed: FedRunConfig  # base settings; algorithm/epochs/mu vary per sweep setting
    mu_sweep: tuple[float, ...]
    epoch_sweep: tuple[int, ...]
    trials: int
    out_dir: str


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _get(obj: dict, key: str, kinds, default, path: str):
    if key not in obj:
        return default
    value = obj[key]
    if kinds is bool:
        ok = isinstance(value, bool)
    elif kinds is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    elif kinds is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, kinds)
    if not ok:
        raise ConfigError(
            f"{path}.{key}: expected {getattr(kinds, '__name__', kinds)}, "
            f"got {type(value).__name__}"
        )
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_duplicates(values, path: str):
    """A sweep list names each setting once; a repeat would run it twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{path}: duplicate entries in {list(values)}")


def _parse_dataset(obj, path: str) -> DatasetSpec:
    obj = _require_mapping(obj, path)
    kind = _get(obj, "type", str, None, path)
    if kind not in DATASET_KINDS:
        raise ConfigError(f"{path}.type: expected one of {DATASET_KINDS}, got {kind!r}")
    types = DATASET_OPTIONS[kind]
    _reject_unknown(obj, {"type", "name", *types}, path)
    name = _get(obj, "name", str, kind, path)
    options = {key: _get(obj, key, types[key], None, path) for key in obj if key in types}
    if "label_map" in options:
        try:
            options["label_map"] = {int(k): int(v) for k, v in options["label_map"].items()}
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.label_map: keys and values must be integers") from None
    return DatasetSpec(kind, name, options)


def _parse_partition(obj, path: str) -> PartitionSpec:
    obj = _require_mapping(obj, path)
    _reject_unknown(
        obj, {"type", "labels_per_party", "beta", "min_size", "noise_sigma"}, path
    )
    kind = _get(obj, "type", str, "iid", path)
    beta = _get(obj, "beta", float, None, path)
    if beta is not None and beta <= 0:
        raise ConfigError(f"{path}.beta: must be > 0, got {beta}")
    labels_per_party = _get(obj, "labels_per_party", int, None, path)
    min_size = _get(obj, "min_size", int, 1, path)
    noise_sigma = _get(obj, "noise_sigma", float, 0.0, path)
    if noise_sigma < 0:
        raise ConfigError(f"{path}.noise_sigma: must be >= 0, got {noise_sigma}")
    try:
        return PartitionSpec(
            kind=kind,
            labels_per_party=labels_per_party,
            beta=beta,
            min_size=min_size,
            noise_sigma=noise_sigma,
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(raw: dict, source: str = "config") -> ExperimentConfig:
    raw = _require_mapping(raw, source)
    _reject_unknown(
        raw,
        {"dataset", "partition", "arch", "fed", "sweeps", "trials", "out_dir"},
        source,
    )
    if "dataset" not in raw:
        raise ConfigError(f"{source}.dataset: required")
    dataset = _parse_dataset(raw["dataset"], f"{source}.dataset")
    partition = _parse_partition(raw.get("partition", {}), f"{source}.partition")

    arch_obj = _require_mapping(raw.get("arch", {}), f"{source}.arch")
    _reject_unknown(arch_obj, {"hidden"}, f"{source}.arch")
    hidden = _get(arch_obj, "hidden", list, [32, 16, 8], f"{source}.arch")
    if not all(_is_int(h) and h >= 1 for h in hidden):
        raise ConfigError(f"{source}.arch.hidden: entries must be integers >= 1")

    fed_obj = _require_mapping(raw.get("fed", {}), f"{source}.fed")
    _reject_unknown(
        fed_obj,
        {
            "algorithms", "rounds", "parties", "sample_fraction", "local_epochs",
            "batch_size", "lr", "momentum", "server_lr", "prox_mu",
            "scaffold_c_option", "seed",
        },
        f"{source}.fed",
    )
    algorithms = _get(fed_obj, "algorithms", list, ["fedavg"], f"{source}.fed")
    if not algorithms:
        raise ConfigError(f"{source}.fed.algorithms: must not be empty")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ConfigError(
                f"{source}.fed.algorithms: unknown algorithm {algorithm!r}"
            )
    _reject_duplicates(algorithms, f"{source}.fed.algorithms")
    default_parties = (
        DEFAULT_PARTIES_FCUBE if dataset.kind == "fcube" else DEFAULT_PARTIES
    )
    default_lr = LR_BY_DATASET_NAME.get(dataset.name, DEFAULT_LR)
    try:
        fed = FedRunConfig(
            algorithm=algorithms[0],
            rounds=_get(fed_obj, "rounds", int, DEFAULT_ROUNDS, f"{source}.fed"),
            n_parties=_get(fed_obj, "parties", int, default_parties, f"{source}.fed"),
            sample_fraction=_get(fed_obj, "sample_fraction", float, 1.0, f"{source}.fed"),
            local_epochs=_get(
                fed_obj, "local_epochs", int, DEFAULT_LOCAL_EPOCHS, f"{source}.fed"
            ),
            batch_size=_get(fed_obj, "batch_size", int, DEFAULT_BATCH_SIZE, f"{source}.fed"),
            local_lr=_get(fed_obj, "lr", float, default_lr, f"{source}.fed"),
            momentum=_get(fed_obj, "momentum", float, DEFAULT_MOMENTUM, f"{source}.fed"),
            server_lr=_get(fed_obj, "server_lr", float, 1.0, f"{source}.fed"),
            prox_mu=_get(fed_obj, "prox_mu", float, DEFAULT_PROX_MU, f"{source}.fed"),
            scaffold_c_option=_get(fed_obj, "scaffold_c_option", str, "ii", f"{source}.fed"),
            master_seed=_get(fed_obj, "seed", int, 0, f"{source}.fed"),
        )
    except ConfigError as exc:
        raise ConfigError(f"{source}.fed: {exc}") from None

    sweeps_obj = _require_mapping(raw.get("sweeps", {}), f"{source}.sweeps")
    _reject_unknown(sweeps_obj, {"mu", "local_epochs"}, f"{source}.sweeps")
    mu_sweep = _get(sweeps_obj, "mu", list, [fed.prox_mu], f"{source}.sweeps")
    if not mu_sweep or not all(
        isinstance(m, (int, float)) and not isinstance(m, bool) and m >= 0
        for m in mu_sweep
    ):
        raise ConfigError(f"{source}.sweeps.mu: must be a non-empty list of values >= 0")
    mu_sweep = [float(m) for m in mu_sweep]
    _reject_duplicates(mu_sweep, f"{source}.sweeps.mu")
    epoch_sweep = _get(
        sweeps_obj, "local_epochs", list, [fed.local_epochs], f"{source}.sweeps"
    )
    if not epoch_sweep or not all(_is_int(e) and e >= 1 for e in epoch_sweep):
        raise ConfigError(
            f"{source}.sweeps.local_epochs: must be a non-empty list of integers >= 1"
        )
    _reject_duplicates(epoch_sweep, f"{source}.sweeps.local_epochs")

    trials = _get(raw, "trials", int, 1, source)
    if trials < 1:
        raise ConfigError(f"{source}.trials: must be >= 1, got {trials}")
    out_dir = _get(raw, "out_dir", str, "results", source)

    return ExperimentConfig(
        dataset=dataset,
        partition=partition,
        hidden=tuple(hidden),
        algorithms=tuple(algorithms),
        fed=fed,
        mu_sweep=tuple(mu_sweep),
        epoch_sweep=tuple(epoch_sweep),
        trials=trials,
        out_dir=out_dir,
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
    return replace(config, fed=replace(config.fed, master_seed=seed))
