"""Golden outputs: small runs whose results.jsonl must not change.

The SHA-256 values of the first two were recorded from the code before the
local-training loop moved onto raw arrays. Any change to the numbers a run
writes (losses, accuracies, bytes, divergence flags) changes a hash; only
`wall_ms` is masked. The scaffold run diverges in its last rounds and still
finishes. The sweep's results and summary hashes were recorded before the
sweep grid became a tuple of per-cell FedRunConfigs; they pin the cell order
and each cell's mu. The noisy run's hashes were recorded before party views
came to share one noise-shifted matrix and SCAFFOLD's client controls moved
into GlobalState; it is the one input with feature noise, partial
participation, fednova and SCAFFOLD's option "i".

The dataset pins hash what `build_dataset` returns for each dataset kind
(features, labels, class count and group ids of train and test); they were
recorded before fcube_generate lost its spec object and read_idx came to
check both headers through one reader.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from fedsim.config import parse_config
from fedsim.datasets import LabeledDataset, save_container
from fedsim.harness import build_dataset, cmd_run

from helpers import write_idx

FCUBE_FEDPROX = {
    "dataset": {"type": "fcube", "n_train": 400, "n_test": 100, "seed": 3},
    "partition": {"type": "fcube_pairs"},
    "arch": {"hidden": [16, 8]},
    "fed": {"algorithms": ["fedprox"], "rounds": 5, "parties": 4, "local_epochs": 3,
            "batch_size": 32, "prox_mu": 0.01, "seed": 7},
}
BLOBS_SCAFFOLD = {
    "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 40, "dim": 32,
                "spread": 0.3, "seed": 3},
    "partition": {"type": "quantity_dirichlet", "beta": 0.5},
    "arch": {"hidden": [32, 16, 8]},
    "fed": {"algorithms": ["scaffold"], "rounds": 12, "parties": 5, "local_epochs": 5,
            "batch_size": 64, "seed": 11},
}
# Three algorithms x two epoch counts, fedprox also x two mus, two trials.
BLOBS_SWEEP = {
    "dataset": {"type": "blobs", "n_classes": 4, "n_per_class": 40, "dim": 8,
                "spread": 0.3, "seed": 5},
    "partition": {"type": "label_dirichlet", "beta": 0.5},
    "arch": {"hidden": [8]},
    "fed": {"algorithms": ["fedavg", "fedprox", "scaffold"], "rounds": 3, "parties": 3,
            "lr": 0.1, "batch_size": 16, "seed": 13},
    "sweeps": {"mu": [0.01, 0.1], "local_epochs": [1, 2]},
    "trials": 2,
}
# Noise overlay, 3 of 5 parties per round, fednova and scaffold option "i".
BLOBS_NOISY = {
    "dataset": {"type": "blobs", "n_classes": 4, "n_per_class": 30, "dim": 6,
                "spread": 0.3, "seed": 17},
    "partition": {"type": "quantity_dirichlet", "beta": 0.5, "noise_sigma": 0.2},
    "arch": {"hidden": [8]},
    "fed": {"algorithms": ["fednova", "scaffold"], "rounds": 4, "parties": 5,
            "sample_fraction": 0.6, "local_epochs": 2, "lr": 0.1, "batch_size": 8,
            "scaffold_c_option": "i", "seed": 19},
    "trials": 2,
}
GOLDEN = {
    "fcube_fedprox": "91b918e67003feba26af7fad8e03458c6e0b95f272204dec1e5fdd00c452a161",
    "blobs_scaffold": "37399a744f6d81b5725e0e63a0db9e64a39c36ff25dd21960d8cb849219eb663",
    "blobs_sweep": "86bf9f9da52379db556bc231048302ba3f30e372c523633ab852d40460a9429a",
    "blobs_sweep_summary": "113d93709cbea7eefa3faa0c329075d4edbc5993935041769695fb381962b055",
    "blobs_noisy": "9093c9e3580cf68bff6c6014d80b9d58439311d2996d0cac3c29574e998df586",
    "blobs_noisy_summary": "d60d2e64808099671920c39170acf25c7cb05f9ecee2cacebea55a74db4a4a76",
}
DATASET_PINS = {
    "fcube": "b7321bfa03737835abb16f3180fd6502d516f2add3f08eae0de0c9531196d3ad",
    "blobs": "937c8a21f58f59f9c41532b11adfc875808242ec03c88a948196bc755e00e98e",
    "idx": "5512f699a85a54f3c0efbf929858ebeb45b72e3d30d773b24ed5cc8654219dbc",
    "libsvm": "d5304fa3f5de1f4cfc2d36bd97f56963b7306ceaef197f97f0f40a5ef4a85f73",
    "container": "565dd1f0e21367c132e31bca872f3085ad62560841e2d095d4aa84afd2d3acd1",
}


def masked_results(raw, out_dir):
    cmd_run(parse_config(raw), out_dir)
    text = (out_dir / "results.jsonl").read_text(encoding="ascii")
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


def test_fcube_fedprox_golden(tmp_path):
    text = masked_results(FCUBE_FEDPROX, tmp_path)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["fcube_fedprox"]


def test_blobs_scaffold_diverges_and_matches_golden(tmp_path):
    text = masked_results(BLOBS_SCAFFOLD, tmp_path)
    flags = [json.loads(line)["diverged"] for line in text.splitlines()]
    assert len(flags) == 13 and flags[-2:] == [True, True] and not any(flags[:-2])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["blobs_scaffold"]


def test_blobs_sweep_cells_golden(tmp_path):
    text = masked_results(BLOBS_SWEEP, tmp_path)
    summary = (tmp_path / "summary.csv").read_text(encoding="ascii")
    cells = [line.split(",")[:3] for line in summary.splitlines()[1:]]
    assert cells == [
        ["fedavg", "", "1"], ["fedavg", "", "2"],
        ["fedprox", "0.01", "1"], ["fedprox", "0.1", "1"],
        ["fedprox", "0.01", "2"], ["fedprox", "0.1", "2"],
        ["scaffold", "", "1"], ["scaffold", "", "2"],
    ]
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["blobs_sweep"]
    assert hashlib.sha256(summary.encode("ascii")).hexdigest() == GOLDEN["blobs_sweep_summary"]


def test_blobs_noisy_partial_participation_golden(tmp_path):
    text = masked_results(BLOBS_NOISY, tmp_path)
    summary = (tmp_path / "summary.csv").read_text(encoding="ascii")
    assert [line.split(",")[0] for line in summary.splitlines()[1:]] == ["fednova", "scaffold"]
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["blobs_noisy"]
    assert hashlib.sha256(summary.encode("ascii")).hexdigest() == GOLDEN["blobs_noisy_summary"]


def _dataset_config(kind, tmp_path):
    """A small dataset section of each kind; the file kinds get their files
    written under tmp_path from fixed data."""
    if kind == "fcube":
        return {"type": "fcube", "n_train": 40, "n_test": 12, "seed": 5}
    if kind == "blobs":
        return {"type": "blobs", "n_classes": 3, "n_per_class": 7, "dim": 4, "seed": 5}
    generator = np.random.default_rng(29)
    if kind == "idx":
        features = generator.uniform(0, 1, (30, 6))
        ds = LabeledDataset(features, generator.integers(0, 10, 30), 10)
        options = {"type": "idx"}
        for side, rows in (("train", range(20)), ("test", range(20, 30))):
            images, labels = tmp_path / f"{side}-images.idx", tmp_path / f"{side}-labels.idx"
            write_idx(ds.take(list(rows)), images, labels, rows=2, cols=3)
            options.update({f"{side}_images": str(images), f"{side}_labels": str(labels)})
        return options
    if kind == "libsvm":
        path = tmp_path / "data.svm"
        path.write_text("".join(
            f"{(-1, 1)[i % 2]:+d} {1 + i % 3}:{i / 8} 4:{-i / 4}\n" for i in range(12)
        ))
        return {"type": "libsvm", "train_path": str(path), "n_features": 4,
                "n_classes": 2, "label_map": {"-1": 0, "1": 1}}
    options = {"type": "container"}
    for side, n in (("train", 15), ("test", 6)):
        path = tmp_path / f"{side}.bin"
        features = generator.normal(size=(n, 5))
        save_container(LabeledDataset(features, generator.integers(0, 3, n), 3), path)
        options[f"{side}_path"] = str(path)
    return options


@pytest.mark.parametrize("kind", sorted(DATASET_PINS))
def test_build_dataset_pinned(tmp_path, kind):
    config = parse_config({"dataset": _dataset_config(kind, tmp_path), "fed": {"seed": 9}})
    digest = hashlib.sha256()
    for ds in build_dataset(config):
        digest.update(f"{ds.n_classes}|".encode("ascii"))
        for array in (ds.features, ds.labels, ds.group_ids):
            digest.update(b"-" if array is None else array.tobytes())
    assert digest.hexdigest() == DATASET_PINS[kind]
