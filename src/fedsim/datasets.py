"""Dataset generation and ingestion.

Produces LabeledDataset instances from synthetic generators (cube-corner
binary data, Gaussian blobs) and from on-disk formats (big-endian IDX image
files, LIBSVM sparse text, and a simple binary container for generated data).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .rng import stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Samples this close to the x1 = 0 plane are resampled: their label would be
# ambiguous.
_CUBE_PLANE_EPS = 1e-9

# Fixed salt so class centers depend only on (class id, dim), never on the
# dataset seed.
_CENTER_SALT = 0x5EED


@dataclass(frozen=True)
class LabeledDataset:
    """Dense feature matrix with integer class labels.

    group_ids optionally tags each sample with a source group (writer,
    octant, ...) that group-based partitioning can key on.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    group_ids: np.ndarray | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if features.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise DataError(
                f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        if self.n_classes < 1:
            raise DataError(f"n_classes must be >= 1, got {self.n_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise DataError(
                f"labels must lie in [0, {self.n_classes}), "
                f"found min={labels.min()}, max={labels.max()}"
            )
        group_ids = self.group_ids
        if group_ids is not None:
            group_ids = np.asarray(group_ids, dtype=np.int64).reshape(-1)
            if group_ids.shape[0] != labels.shape[0]:
                raise DataError("group_ids length does not match sample count")
            group_ids.setflags(write=False)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", int(self.n_classes))
        object.__setattr__(self, "group_ids", group_ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "LabeledDataset":
        """Row subset as a new dataset, preserving group ids."""
        indices = np.asarray(indices, dtype=np.int64)
        groups = self.group_ids[indices] if self.group_ids is not None else None
        return LabeledDataset(
            self.features[indices], self.labels[indices], self.n_classes, groups
        )


def octant_codes(points: np.ndarray) -> np.ndarray:
    """3-bit sign pattern per point: bit 2 = x1 > 0, bit 1 = x2 > 0, bit 0 = x3 > 0."""
    points = np.asarray(points, dtype=np.float64)
    return (
        4 * (points[:, 0] > 0).astype(np.int64)
        + 2 * (points[:, 1] > 0).astype(np.int64)
        + (points[:, 2] > 0).astype(np.int64)
    )


def _sample_cube_points(rng: np.random.Generator, n: int) -> np.ndarray:
    points = np.empty((n, 3))
    filled = 0
    while filled < n:
        candidates = rng.uniform(-1.0, 1.0, size=(n - filled, 3))
        keep = candidates[np.abs(candidates[:, 0]) >= _CUBE_PLANE_EPS]
        points[filled : filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return points


def fcube_generate(
    n_train: int, n_test: int, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Uniform points in [-1, 1]^3 labeled by the sign of the first axis.

    Label 0 for x1 > 0, label 1 for x1 < 0. Returns (train, test);
    train.group_ids holds the train points' 3-bit octant codes so
    partitioners can use them directly.
    """
    if n_train < 8 or n_test < 8:
        raise ConfigError(f"fcube needs n_train and n_test >= 8, got {n_train}/{n_test}")
    rng = np.random.default_rng(seed)
    train_points = _sample_cube_points(rng, n_train)
    test_points = _sample_cube_points(rng, n_test)
    train_labels = (train_points[:, 0] <= 0).astype(np.int64)
    test_labels = (test_points[:, 0] <= 0).astype(np.int64)
    octants = octant_codes(train_points)
    train = LabeledDataset(train_points, train_labels, 2, group_ids=octants)
    test = LabeledDataset(test_points, test_labels, 2)
    return train, test


def blob_center(class_id: int, dim: int) -> np.ndarray:
    """Fixed unit-norm center for a class, independent of the dataset seed."""
    rng = stream(_CENTER_SALT, class_id, dim)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def blobs_generate(
    n_classes: int, n_per_class: int, dim: int, spread: float, seed: int
) -> LabeledDataset:
    """Gaussian blobs around fixed unit-norm class centers.

    Samples for class k are center_k + N(0, spread^2 I); the stacked dataset
    is shuffled deterministically from the seed.
    """
    if n_classes < 1 or n_per_class < 1 or dim < 1:
        raise ConfigError("n_classes, n_per_class and dim must all be >= 1")
    if not spread >= 0:
        raise ConfigError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    feature_blocks = []
    label_blocks = []
    for k in range(n_classes):
        center = blob_center(k, dim)
        if spread > 0:
            block = center + rng.normal(0.0, spread, size=(n_per_class, dim))
        else:
            block = np.tile(center, (n_per_class, 1))
        feature_blocks.append(block)
        label_blocks.append(np.full(n_per_class, k, dtype=np.int64))
    features = np.concatenate(feature_blocks)
    labels = np.concatenate(label_blocks)
    perm = rng.permutation(features.shape[0])
    return LabeledDataset(features[perm], labels[perm], n_classes)


def read_input(path, text: bool = False):
    """An input file's bytes, or its lines if text (ASCII); FormatError
    naming the path if it cannot be read or decoded."""
    try:
        with open(path, "r" if text else "rb", encoding="ascii" if text else None) as fh:
            return fh.readlines() if text else fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text (byte {exc.start})") from None


def _read_exact(data: bytes, offset: int, count: int, path: str) -> bytes:
    if len(data) < offset + count:
        raise FormatError(
            f"{path}: truncated at byte offset {len(data)}, "
            f"need {offset + count} bytes"
        )
    return data[offset : offset + count]


def _read_idx_file(path, magic: int, noun: str) -> tuple[tuple[int, ...], np.ndarray]:
    """An IDX file's header dims and its uint8 payload.

    The magic's low byte is the number of big-endian u32 dims that follow it.
    The payload views the file's bytes, where slicing them would copy it.
    FormatError names the path if the header is truncated, the magic is not
    the expected one or the payload size is not the product of the dims.
    """
    data = read_input(path)
    n_dims = magic & 0xFF
    header = 4 * (1 + n_dims)
    found, *dims = struct.unpack(f">I{n_dims}I", _read_exact(data, 0, header, str(path)))
    if found != magic:
        raise FormatError(
            f"{path}: bad {noun} magic 0x{found:08x} at byte offset 0, "
            f"expected 0x{magic:08x}"
        )
    expected = math.prod(dims)  # Python ints: a huge header cannot wrap
    payload_bytes = len(data) - header
    if payload_bytes != expected:
        raise FormatError(
            f"{path}: {noun} payload is {payload_bytes} bytes at offset {header}, "
            f"header promises {expected}"
        )
    return tuple(dims), np.frombuffer(data, dtype=np.uint8, offset=header)


def read_idx(images_path, labels_path) -> LabeledDataset:
    """Read a big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1] by dividing by 255 and flattened row-major;
    n_classes is fixed at 10 (digit data).
    """
    (n_images, rows, cols), pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC, "image")
    (n_labels,), labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC, "label")
    if n_images != n_labels:
        raise FormatError(
            f"count mismatch: {images_path} has {n_images} images but "
            f"{labels_path} has {n_labels} labels"
        )
    features = pixels.astype(np.float64).reshape(n_images, rows * cols)
    features /= 255.0
    try:
        return LabeledDataset(features, labels.astype(np.int64), 10)
    except DataError as exc:  # a label byte of 10 or more
        raise FormatError(f"{labels_path}: {exc}") from None


def read_libsvm(path, n_features: int, n_classes: int, label_map: dict) -> LabeledDataset:
    """Read LIBSVM text lines ("label idx:val idx:val ...") into a dense matrix.

    Indices are 1-based, must not exceed n_features and may appear once per
    line; absent indices stay zero. Raw labels are remapped to class ids
    through label_map (keys are the integer label values as written, e.g.
    {-1: 0, 1: 1}).
    """
    rows = []
    labels = []
    for lineno, raw in enumerate(read_input(path, text=True), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: bad label token {tokens[0]!r}"
            ) from None
        if not raw_label.is_integer() or int(raw_label) not in label_map:
            raise FormatError(f"{path}: line {lineno}: unmapped label {tokens[0]!r}")
        labels.append(label_map[int(raw_label)])

        row = np.zeros(n_features)
        seen = set()
        for token in tokens[1:]:
            index_str, _, value_str = token.partition(":")
            try:
                index = int(index_str)
                value = float(value_str)
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: malformed pair {token!r}"
                ) from None
            if not 1 <= index <= n_features:
                raise FormatError(
                    f"{path}: line {lineno}: index {index} out of range 1..{n_features}"
                )
            if index in seen:
                raise FormatError(f"{path}: line {lineno}: index {index} repeated")
            if not np.isfinite(value):
                raise FormatError(f"{path}: line {lineno}: non-finite value in {token!r}")
            seen.add(index)
            row[index - 1] = value
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no data lines")
    return LabeledDataset(np.vstack(rows), np.array(labels), n_classes)


def split_train_test(
    ds: LabeledDataset, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint, exhaustive shuffle split; test side gets floor(n * fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(np.floor(ds.n * test_fraction))
    if n_test == 0 or n_test == ds.n:
        raise ConfigError(
            f"test_fraction {test_fraction} leaves an empty side for n={ds.n}"
        )
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.take(perm[n_test:]), ds.take(perm[:n_test])


def save_container(ds: LabeledDataset, path):
    """Self-describing binary dump: u64 LE header (n, d, n_classes), float64
    row-major features, u32 labels."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQQ", ds.n, ds.n_features, ds.n_classes))
        fh.write(ds.features.astype("<f8").tobytes())
        fh.write(ds.labels.astype("<u4").tobytes())


def load_container(path) -> LabeledDataset:
    data = read_input(path)
    n, d, n_classes = struct.unpack("<QQQ", _read_exact(data, 0, 24, str(path)))
    feat_bytes = 8 * n * d
    expected = 24 + feat_bytes + 4 * n
    if len(data) != expected:
        raise FormatError(
            f"{path}: container is {len(data)} bytes, header promises {expected}"
        )
    features = np.frombuffer(data, dtype="<f8", count=n * d, offset=24).reshape(n, d)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=24 + feat_bytes)
    try:
        return LabeledDataset(features, labels.astype(np.int64), int(n_classes))
    except DataError as exc:  # non-finite features, labels or n_classes out of range
        raise FormatError(f"{path}: {exc}") from None
