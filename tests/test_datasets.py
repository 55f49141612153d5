import re
import struct
import tracemalloc

import numpy as np
import pytest

from fedsim.datasets import (
    LabeledDataset,
    blob_center,
    blobs_generate,
    fcube_generate,
    octant_codes,
    read_idx,
    read_libsvm,
    split_train_test,
)
from fedsim.errors import ConfigError, DataError, FormatError

from helpers import write_idx


class TestLabeledDataset:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 3)), [0, 2], n_classes=2)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(DataError):
            LabeledDataset(np.array([[np.inf, 0.0]]), [0], n_classes=1)

    def test_rejects_group_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 1)), [0, 0], n_classes=1, group_ids=[1])

    def test_take_preserves_groups(self):
        ds = LabeledDataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], 2, group_ids=[5, 6, 7])
        sub = ds.take([2, 0])
        assert np.array_equal(sub.labels, [0, 0])
        assert np.array_equal(sub.group_ids, [7, 5])


class TestFcube:
    def test_octant_encoding(self):
        codes = octant_codes(np.array([[0.5, -0.2, 0.3]]))
        assert codes[0] == 5  # sign bits (1, 0, 1)

    def test_antipode_is_bit_complement(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
        assert np.array_equal(octant_codes(-points), 7 - octant_codes(points))

    def test_labels_follow_sign_of_first_axis(self):
        train, test = fcube_generate(4000, 1000, seed=4)
        for ds in (train, test):
            assert np.array_equal(ds.labels, (ds.features[:, 0] <= 0).astype(int))
        assert np.array_equal(train.group_ids, octant_codes(train.features))

    def test_class_counts_near_balanced(self):
        # Binomial(4000, 0.5): 3 sigma is about 95 samples.
        train, _ = fcube_generate(4000, 1000, seed=8)
        ones = int(train.labels.sum())
        assert abs(ones - 2000) <= 95

    def test_no_points_on_separating_plane(self):
        train, test = fcube_generate(4000, 1000, seed=1)
        assert np.abs(train.features[:, 0]).min() >= 1e-9
        assert np.abs(test.features[:, 0]).min() >= 1e-9

    def test_sizes_and_ranges(self):
        train, test = fcube_generate(128, 32, seed=2)
        assert train.n == 128 and test.n == 32
        assert train.features.min() >= -1.0 and train.features.max() <= 1.0

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ConfigError):
            fcube_generate(4, 1000, seed=0)


class TestBlobs:
    def test_zero_spread_collapses_to_centers(self):
        ds = blobs_generate(n_classes=3, n_per_class=5, dim=4, spread=0.0, seed=0)
        for k in range(3):
            rows = ds.features[ds.labels == k]
            assert np.array_equal(rows, np.tile(blob_center(k, 4), (5, 1)))

    def test_same_seed_identical(self):
        a = blobs_generate(4, 10, 6, 0.5, seed=3)
        b = blobs_generate(4, 10, 6, 0.5, seed=3)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_centers_unit_norm_and_seed_independent(self):
        assert np.linalg.norm(blob_center(2, 16)) == pytest.approx(1.0)
        assert np.array_equal(blob_center(1, 16), blob_center(1, 16))
        # Centers depend only on (class, dim): zero-spread datasets with
        # different seeds contain the same rows.
        a = blobs_generate(3, 4, 16, 0.0, seed=0)
        b = blobs_generate(3, 4, 16, 0.0, seed=999)
        assert np.array_equal(
            np.unique(a.features, axis=0), np.unique(b.features, axis=0)
        )

    def test_huge_spread_defeats_linear_probe(self):
        # Brute-force probe: project on the center difference and scan every
        # threshold for the best split.
        ds = blobs_generate(n_classes=2, n_per_class=500, dim=8, spread=100.0, seed=11)
        direction = blob_center(1, 8) - blob_center(0, 8)
        score = ds.features @ direction
        order = np.argsort(score)
        labels = ds.labels[order]
        ones_left = np.concatenate([[0], np.cumsum(labels == 1)])
        zeros_left = np.concatenate([[0], np.cumsum(labels == 0)])
        total_ones = ones_left[-1]
        total_zeros = zeros_left[-1]
        best = 0
        for cut in range(len(labels) + 1):
            # class 0 on the left of the cut, or the reverse
            acc_a = zeros_left[cut] + (total_ones - ones_left[cut])
            acc_b = ones_left[cut] + (total_zeros - zeros_left[cut])
            best = max(best, acc_a, acc_b)
        assert best / len(labels) < 0.6

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            blobs_generate(0, 5, 3, 0.1, 0)
        with pytest.raises(ConfigError):
            blobs_generate(2, 5, 3, -0.1, 0)


def _write_idx_pair(tmp_path, images, labels, rows=None, cols=None,
                    image_magic=0x803, label_magic=0x801, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    n, r, c = images.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows or r, cols or c))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, label_count if label_count is not None else len(labels)))
        fh.write(bytes(labels))
    return images_path, labels_path


class TestIdx:
    def test_header_drives_shape(self, tmp_path):
        images = np.zeros((10000, 28, 28), dtype=np.uint8)
        labels = [0] * 10000
        ds = read_idx(*_write_idx_pair(tmp_path, images, labels))
        assert ds.n == 10000
        assert ds.n_features == 784

    def test_pixel_scaling(self, tmp_path):
        images = np.array([[[255, 0], [128, 64]]], dtype=np.uint8)
        ds = read_idx(*_write_idx_pair(tmp_path, images, [7]))
        assert ds.features[0, 0] == 1.0
        assert ds.features[0, 1] == 0.0
        assert ds.features[0, 2] == pytest.approx(128 / 255)
        assert ds.labels[0] == 7

    def test_hand_crafted_two_image_fixture(self, tmp_path):
        images = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [0, 255]]], dtype=np.uint8
        )
        ds = read_idx(*_write_idx_pair(tmp_path, images, [3, 9]))
        expected = np.array(
            [[0, 51, 102, 153], [204, 255, 0, 255]], dtype=float
        ) / 255.0
        assert np.array_equal(ds.features, expected)
        assert np.array_equal(ds.labels, [3, 9])

    def test_bad_magic(self, tmp_path):
        paths = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0], image_magic=0x804)
        with pytest.raises(FormatError, match="magic"):
            read_idx(*paths)

    def test_truncated_payload(self, tmp_path):
        images_path, labels_path = _write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1]
        )
        data = images_path.read_bytes()
        images_path.write_bytes(data[:-3])
        with pytest.raises(FormatError, match="offset 16"):
            read_idx(images_path, labels_path)

    @pytest.mark.parametrize(
        "which, cut, message",
        [
            ("images", 3, "image payload is 5 bytes at offset 16, header promises 8"),
            ("images", -2, "image payload is 10 bytes at offset 16, header promises 8"),
            ("labels", 1, "label payload is 1 bytes at offset 8, header promises 2"),
        ],
    )
    def test_payload_length_message(self, tmp_path, which, cut, message):
        paths = dict(zip(("images", "labels"), _write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1]
        )))
        data = paths[which].read_bytes()
        paths[which].write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
        with pytest.raises(FormatError, match=re.escape(f"{paths[which]}: {message}")):
            read_idx(paths["images"], paths["labels"])

    @pytest.mark.parametrize(
        "which, magics, keep, message",
        [
            ("images", (0x804, 0x801), None,
             "bad image magic 0x00000804 at byte offset 0, expected 0x00000803"),
            ("labels", (0x803, 0x800), None,
             "bad label magic 0x00000800 at byte offset 0, expected 0x00000801"),
            ("images", (0x803, 0x801), 10, "truncated at byte offset 10, need 16 bytes"),
            ("labels", (0x803, 0x801), 5, "truncated at byte offset 5, need 8 bytes"),
        ],
    )
    def test_header_message(self, tmp_path, which, magics, keep, message):
        paths = dict(zip(("images", "labels"), _write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
            image_magic=magics[0], label_magic=magics[1],
        )))
        if keep is not None:
            paths[which].write_bytes(paths[which].read_bytes()[:keep])
        with pytest.raises(FormatError, match=re.escape(f"{paths[which]}: {message}")):
            read_idx(paths["images"], paths["labels"])

    def test_huge_header_dims_not_wrapped(self, tmp_path):
        # 2 * (2**32 - 1)**2 overflows int64; the promised size must not wrap.
        side = 2**32 - 1
        paths = _write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                                rows=side, cols=side)
        message = f"image payload is 8 bytes at offset 16, header promises {2 * side * side}"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_idx(*paths)

    def test_payload_not_copied(self, tmp_path):
        # Besides the file's bytes and the float64 matrix, loading allocates
        # about one pixel-sized temporary (the dataset's finiteness mask); a
        # sliced copy of the payload would be a second one.
        images = np.random.default_rng(0).integers(0, 256, (500, 28, 28), dtype=np.uint8)
        paths = _write_idx_pair(tmp_path, images, [0] * 500)
        tracemalloc.start()
        try:
            ds = read_idx(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes + 2.5 * images.nbytes

    def test_count_mismatch(self, tmp_path):
        images_path, labels_path = _write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1, 1], label_count=3
        )
        with pytest.raises(FormatError, match="mismatch"):
            read_idx(images_path, labels_path)

    def test_missing_file_names_path(self, tmp_path):
        images_path, _ = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        missing = tmp_path / "absent-labels.idx"
        with pytest.raises(FormatError, match="cannot read .*absent-labels.idx"):
            read_idx(images_path, missing)

    @pytest.mark.parametrize("label", [10, 12, 255])
    def test_out_of_range_label_names_file(self, tmp_path, label):
        paths = _write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, label, 3])
        message = f"{paths[1]}: labels must lie in [0, 10), found min=0, max={label}"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_idx(*paths)

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.uniform(0, 1, size=(20, 12)), rng.integers(0, 10, 20), 10)
        write_idx(ds, tmp_path / "im.idx", tmp_path / "lb.idx", rows=3, cols=4)
        back = read_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
        assert np.abs(back.features - ds.features).max() <= 1.0 / 255.0
        assert np.array_equal(back.labels, ds.labels)


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 3:0.5\n")
        ds = read_libsvm(path, n_features=4, n_classes=2, label_map={-1: 0, 1: 1})
        assert np.array_equal(ds.features, [[0.0, 0.0, 0.5, 0.0]])
        assert ds.labels[0] == 1

    def test_empty_feature_list(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("-1\n")
        ds = read_libsvm(path, n_features=3, n_classes=2, label_map={-1: 0, 1: 1})
        assert np.array_equal(ds.features, [[0.0, 0.0, 0.0]])
        assert ds.labels[0] == 0

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 1:1.5 2:-2.0\n-1 3:0.25\n+1 1:4 3:1\n")
        ds = read_libsvm(path, n_features=3, n_classes=2, label_map={-1: 0, 1: 1})
        expected = np.array([[1.5, -2.0, 0.0], [0.0, 0.0, 0.25], [4.0, 0.0, 1.0]])
        assert np.array_equal(ds.features, expected)
        assert np.array_equal(ds.labels, [1, 0, 1])

    def test_malformed_pair_reports_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 1:1.0\n+1 2:oops\n")
        with pytest.raises(FormatError, match="line 2"):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})

    def test_repeated_index_reports_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("-1 2:1.0\n1 1:0.5 1:0.7 3:1\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 2: index 1 repeated")):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})

    def test_index_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 5:1.0\n")
        with pytest.raises(FormatError, match="line 1.*out of range"):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "data.svm"
        path.write_text(f"+1 1:1.0\n-1 1:0.5 3:{value}\n")
        message = f"{path}: line 2: non-finite value in '3:{value}'"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})

    def test_unmapped_label(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 1:1.0\n2 1:1.0\n")
        with pytest.raises(FormatError, match="line 2.*unmapped"):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read .*absent.svm"):
            read_libsvm(tmp_path / "absent.svm", 3, 2, {1: 1, -1: 0})

    def test_non_ascii_names_path(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_bytes(b"+1 1:1.0\n-1 2:\xff\n")
        with pytest.raises(FormatError, match="data.svm: not ASCII"):
            read_libsvm(path, 3, 2, {1: 1, -1: 0})


class TestSplit:
    def _ds(self, n=10):
        return LabeledDataset(np.arange(n, dtype=float).reshape(n, 1), [0] * n, 1)

    def test_floor_rule(self):
        train, test = split_train_test(self._ds(10), 0.2, seed=0)
        assert (train.n, test.n) == (8, 2)

    def test_disjoint_and_exhaustive(self):
        train, test = split_train_test(self._ds(17), 0.3, seed=5)
        union = np.sort(np.concatenate([train.features[:, 0], test.features[:, 0]]))
        assert np.array_equal(union, np.arange(17.0))

    def test_deterministic(self):
        a = split_train_test(self._ds(12), 0.25, seed=7)
        b = split_train_test(self._ds(12), 0.25, seed=7)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_rejects_empty_side(self):
        with pytest.raises(ConfigError):
            split_train_test(self._ds(3), 0.1, seed=0)
        with pytest.raises(ConfigError):
            split_train_test(self._ds(3), 1.5, seed=0)

