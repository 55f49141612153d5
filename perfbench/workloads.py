"""Benchmark workloads and their seeded input generation.

Each workload is a fedsim experiment config plus, for `wide-idx`, a pair of
IDX files. Everything is derived from the workload seed with this file's own
code (numpy and the standard library only), so the program under test sees
nothing but the generated files and a change to fedsim cannot change its own
inputs. BENCHMARK.json records why each workload exists and which layers it
stresses and bypasses.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def sub_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _fcube_prox(seed: int, work_dir: str) -> dict:
    # Acceptance criterion 4's shape at 20 rounds instead of 50, so that one
    # run is a few seconds and a measured run holds several of them.
    return {
        "dataset": {"type": "fcube", "n_train": 4000, "n_test": 1000,
                    "seed": sub_seed(seed, "data")},
        "partition": {"type": "fcube_pairs"},
        "arch": {"hidden": [32, 16, 8]},
        "fed": {"algorithms": ["fedprox"], "rounds": 20, "parties": 4,
                "local_epochs": 10, "batch_size": 64, "prox_mu": 0.01,
                "seed": sub_seed(seed, "fed")},
    }


def _write_idx(features_u8: np.ndarray, labels: np.ndarray, images_path, labels_path):
    n, dim = features_u8.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, 28, dim // 28))
        fh.write(features_u8.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def _wide_blobs(generator, centers: np.ndarray, n: int):
    """n samples of 784-d Gaussian blobs, mapped into [0, 1] as 8-bit pixels."""
    labels = generator.integers(0, centers.shape[0], size=n)
    points = centers[labels] + generator.normal(0.0, 0.3, size=(n, centers.shape[1]))
    pixels = np.clip(np.rint((0.5 + 0.5 * points) * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels


def _wide_idx(seed: int, work_dir: str) -> dict:
    generator = np.random.default_rng(sub_seed(seed, "data"))
    # Centers of norm 3 against per-pixel noise 0.3: the 784-200-10 model
    # learns well above chance within the workload's 15 rounds.
    centers = generator.standard_normal((10, 784))
    centers *= 3.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    paths = {}
    for split, n in (("train", 5000), ("test", 1000)):
        pixels, labels = _wide_blobs(generator, centers, n)
        images = os.path.join(work_dir, f"{split}-images.idx3")
        label_file = os.path.join(work_dir, f"{split}-labels.idx1")
        _write_idx(pixels, labels, images, label_file)
        paths[f"{split}_images"] = images
        paths[f"{split}_labels"] = label_file
    return {
        "dataset": {"type": "idx", "name": "wide-blobs", **paths},
        "partition": {"type": "label_dirichlet", "beta": 0.5},
        "arch": {"hidden": [200]},
        "fed": {"algorithms": ["fednova"], "rounds": 15, "parties": 10,
                "local_epochs": 1, "batch_size": 64, "lr": 0.01,
                "seed": sub_seed(seed, "fed")},
    }


def _sweep_grid(seed: int, work_dir: str) -> dict:
    # Scaffold keeps its default control option "ii", which diverges on these
    # blobs; the benchmark keeps that visible rather than tuning it away.
    return {
        "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 100, "dim": 32,
                    "spread": 0.3, "seed": sub_seed(seed, "data")},
        "partition": {"type": "quantity_dirichlet", "beta": 0.5, "noise_sigma": 0.1},
        "arch": {"hidden": [32, 16, 8]},
        "fed": {"algorithms": ["fedavg", "fedprox", "scaffold", "fednova"],
                "rounds": 20, "parties": 10, "sample_fraction": 0.5,
                "local_epochs": 5, "batch_size": 64, "seed": sub_seed(seed, "fed")},
        "sweeps": {"mu": [0.01, 0.1]},
        "trials": 2,
    }


_BUILDERS = {"fcube-prox": _fcube_prox, "wide-idx": _wide_idx, "sweep-grid": _sweep_grid}
WORKLOADS = tuple(_BUILDERS)
# Workloads whose times are scaled by the calibration kernel (probe.calibrate),
# a loop of tiny-array numpy calls like their own steps. No kernel tried
# tracked wide-idx's BLAS-bound runs (scaling added noise), so its times are
# reported unscaled.
CALIBRATED = frozenset({"fcube-prox", "sweep-grid"})


def generate(workload: str, seed: int, work_dir: str) -> tuple[str, list[str]]:
    """Write the workload's config (and data files) under work_dir.

    Returns the config path and the list of data files the program reads.
    """
    raw = _BUILDERS[workload](seed, work_dir)
    raw["out_dir"] = os.path.join(work_dir, "results")
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
    data_files = [
        raw["dataset"][key]
        for key in ("train_images", "train_labels", "test_images", "test_labels")
        if key in raw["dataset"]
    ]
    return path, data_files
