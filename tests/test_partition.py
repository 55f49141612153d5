import hashlib
import tracemalloc

import numpy as np
import pytest

from fedsim.datasets import LabeledDataset, fcube_generate
from fedsim.errors import ConfigError, DataError, PartitionError
from fedsim.partition import (
    PARTITION_KINDS,
    PartitionMap,
    PartitionSpec,
    PartyView,
    apply_feature_noise,
    build_partition,
    build_views,
    check_partition,
    export_partition,
    export_stats_csv,
    label_distribution_tv,
    partition_by_group,
    partition_fcube_pairs,
    partition_iid,
    partition_label_dirichlet,
    partition_label_quantity,
    partition_quantity_dirichlet,
    partition_stats,
)


def synthetic_labels(n=1000, n_classes=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.normal(size=(n, 2))
    return LabeledDataset(features, labels, n_classes)


class TestIid:
    def test_even_split(self):
        pmap = partition_iid(synthetic_labels(10), 2, seed=0)
        assert sorted(pmap.sizes()) == [5, 5]

    def test_remainder_split(self):
        pmap = partition_iid(synthetic_labels(10), 3, seed=0)
        assert sorted(pmap.sizes()) == [3, 3, 4]

    def test_rejects_bad_party_count(self):
        ds = synthetic_labels(5)
        with pytest.raises(ConfigError):
            partition_iid(ds, 0, seed=0)
        with pytest.raises(ConfigError):
            partition_iid(ds, 6, seed=0)

    def test_class_proportions_hypergeometric(self):
        # Each party/class count should follow sampling without replacement;
        # across 100 seeds at least 99% of cells stay within 3 sigma.
        ds = synthetic_labels(n=1000, n_classes=10, seed=3)
        class_totals = np.bincount(ds.labels, minlength=10)
        n = ds.n
        inside = 0
        total = 0
        for seed in range(100):
            pmap = partition_iid(ds, 2, seed=seed)
            for assignment in pmap.assignments:
                size = assignment.shape[0]
                counts = np.bincount(ds.labels[assignment], minlength=10)
                mean = size * class_totals / n
                var = (
                    size
                    * (class_totals / n)
                    * (1 - class_totals / n)
                    * (n - size)
                    / (n - 1)
                )
                inside += int(np.sum(np.abs(counts - mean) <= 3 * np.sqrt(var) + 1e-9))
                total += 10
        assert inside / total >= 0.99


class TestLabelQuantity:
    def test_single_label_is_bijection(self):
        ds = synthetic_labels(n=500, n_classes=10)
        pmap = partition_label_quantity(ds, 10, 1, seed=4)
        owned = [np.unique(ds.labels[a]) for a in pmap.assignments]
        assert all(len(o) == 1 for o in owned)
        assert sorted(int(o[0]) for o in owned) == list(range(10))
        # Each party holds every sample of its class.
        for assignment, labels in zip(pmap.assignments, owned):
            assert assignment.shape[0] == int(np.sum(ds.labels == labels[0]))

    def test_full_support_equals_class_count(self):
        ds = synthetic_labels(n=400, n_classes=5)
        pmap = partition_label_quantity(ds, 3, 5, seed=1)
        for assignment in pmap.assignments:
            assert len(np.unique(ds.labels[assignment])) == 5

    def test_ownership_counting(self):
        ds = synthetic_labels(n=1000, n_classes=10)
        for seed in range(100):
            pmap = partition_label_quantity(ds, 4, 3, seed=seed)
            support = [set(np.unique(ds.labels[a])) for a in pmap.assignments]
            assert all(len(s) == 3 for s in support)
            owners_per_label = [
                sum(label in s for s in support) for label in range(10)
            ]
            assert all(1 <= o <= 4 for o in owners_per_label)
            assert sum(owners_per_label) == 12

    def test_infeasible_coverage_rejected(self):
        ds = synthetic_labels(n_classes=10)
        with pytest.raises(PartitionError):
            partition_label_quantity(ds, 3, 3, seed=0)

    def test_label_with_fewer_samples_than_owners_rejected(self):
        # Two labels per party over three labels: at seed 0 every party owns
        # label 0, which has one sample to give.
        labels = np.array([0] + [1] * 10 + [2] * 10)
        ds = LabeledDataset(np.zeros((21, 1)), labels, 3)
        with pytest.raises(PartitionError, match="label 0 has fewer samples than parties owning it"):
            partition_label_quantity(ds, 3, 2, seed=0)

    def test_k_out_of_range(self):
        ds = synthetic_labels(n_classes=4)
        with pytest.raises(ConfigError):
            partition_label_quantity(ds, 2, 5, seed=0)


class TestLabelDirichlet:
    def test_single_party_takes_everything(self):
        ds = synthetic_labels(200)
        pmap = partition_label_dirichlet(ds, 1, beta=0.3, min_size=1, seed=0)
        assert pmap.sizes()[0] == 200

    def test_per_class_conservation(self):
        ds = synthetic_labels(1000, 10)
        pmap = partition_label_dirichlet(ds, 7, beta=0.5, min_size=1, seed=3)
        counts = partition_stats(pmap, ds).class_counts
        assert np.array_equal(counts.sum(axis=0), np.bincount(ds.labels, minlength=10))

    def test_small_beta_produces_visible_skew(self):
        # For beta=0.5 over 10 parties most classes should concentrate: the
        # max/min party share of a class exceeds 5x for >= 8 of 10 classes
        # (empty party counts as infinite ratio), median over 20 seeds.
        ds = synthetic_labels(n=60000, n_classes=10, seed=12)
        skewed_class_counts = []
        for seed in range(20):
            pmap = partition_label_dirichlet(ds, 10, beta=0.5, min_size=1, seed=seed)
            counts = partition_stats(pmap, ds).class_counts
            skewed = 0
            for label in range(10):
                column = counts[:, label].astype(float)
                low = column.min()
                ratio = np.inf if low == 0 else column.max() / low
                skewed += ratio > 5
            skewed_class_counts.append(skewed)
        assert np.median(skewed_class_counts) >= 8

    def test_min_size_respected_or_error(self):
        ds = synthetic_labels(60, 3)
        pmap = partition_label_dirichlet(ds, 3, beta=5.0, min_size=5, seed=0)
        assert pmap.sizes().min() >= 5
        with pytest.raises(PartitionError):
            partition_label_dirichlet(ds, 30, beta=0.05, min_size=60, seed=0)


class TestQuantityDirichlet:
    def test_single_party_takes_everything(self):
        ds = synthetic_labels(100)
        pmap = partition_quantity_dirichlet(ds, 1, beta=0.5, min_size=1, seed=0)
        assert pmap.sizes()[0] == 100

    def test_sizes_sum_to_n(self):
        ds = synthetic_labels(997)
        pmap = partition_quantity_dirichlet(ds, 9, beta=0.5, min_size=1, seed=2)
        assert pmap.sizes().sum() == 997

    def test_size_dispersion_at_small_beta(self):
        # Dirichlet(0.5) over 10 parties has size CV well above 0.5.
        ds = synthetic_labels(10000, 10, seed=6)
        cvs = []
        for seed in range(20):
            pmap = partition_quantity_dirichlet(ds, 10, beta=0.5, min_size=1, seed=seed)
            sizes = pmap.sizes().astype(float)
            cvs.append(sizes.std() / sizes.mean())
        assert np.median(cvs) > 0.5


def _map_digest(pmap):
    digest = hashlib.sha256()
    for assignment in pmap.assignments:
        digest.update(np.asarray(assignment, dtype="<i8").tobytes() + b"|")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "strategy, beta, min_size, seed, expected",
    [
        (partition_label_dirichlet, 0.5, 1, 3,
         "823f7e726681a7580a9b71c360b77aef14914ce056bfa910bb2d09fbd9d6b316"),
        # Draws 0-12 leave some party below 12 samples; draw 13 is kept.
        (partition_label_dirichlet, 0.5, 12, 7,
         "8a1db702d962c63a7583f307ccc34647359d7ed5bdcbfda8aa3233b4c1f21167"),
        (partition_quantity_dirichlet, 0.5, 1, 3,
         "cd2c31bdf1e6f2b26be0e9639972858f39de73dfce3c716b9f82564c66ee2833"),
        # Draw 0 leaves some party below 8 samples; draw 1 is kept.
        (partition_quantity_dirichlet, 2.0, 8, 5,
         "3486609fac5a1f1c206edacd08950574e8da8b1df8e97dc7d6e89523abe6b875"),
    ],
)
def test_dirichlet_maps_pinned(strategy, beta, min_size, seed, expected):
    # Recorded before the two strategies shared one retry loop: each retry
    # must still draw from stream (seed, attempt) in the same order.
    ds = synthetic_labels(200, 5, seed=123)
    assert _map_digest(strategy(ds, 8, beta, min_size, seed)) == expected


class TestByGroup:
    def _grouped(self, n_groups, per_group=4):
        n = n_groups * per_group
        groups = np.repeat(np.arange(n_groups), per_group)
        return LabeledDataset(np.zeros((n, 1)), [0] * n, 1, group_ids=groups)

    def test_one_group_each(self):
        pmap = partition_by_group(self._grouped(4), 4, seed=0)
        for assignment in pmap.assignments:
            assert len(np.unique(self._grouped(4).group_ids[assignment])) == 1

    def test_no_group_spans_parties(self):
        ds = self._grouped(9)
        pmap = partition_by_group(ds, 4, seed=3)
        seen = {}
        for party, assignment in enumerate(pmap.assignments):
            for group in np.unique(ds.group_ids[assignment]):
                assert group not in seen
                seen[group] = party
        assert len(seen) == 9

    def test_round_robin_group_counts(self):
        ds = self._grouped(7)
        pmap = partition_by_group(ds, 3, seed=5)
        counts = sorted(
            len(np.unique(ds.group_ids[a])) for a in pmap.assignments
        )
        assert counts == [2, 2, 3]

    def test_requires_group_ids(self):
        ds = synthetic_labels(20)
        with pytest.raises(ConfigError):
            partition_by_group(ds, 2, seed=0)


class TestFcubePairs:
    def test_four_antipodal_pairs(self):
        train, _ = fcube_generate(4000, 1000, seed=9)
        pmap = partition_fcube_pairs(train)
        for party, assignment in enumerate(pmap.assignments):
            held = set(int(o) for o in np.unique(train.group_ids[assignment]))
            assert held == {party, 7 - party}
        check_partition(pmap, train.n)


class TestFeatureNoise:
    def test_sigma_zero_is_bit_identical(self):
        ds = synthetic_labels(100, 4)
        pmap = partition_iid(ds, 4, seed=0)
        views = apply_feature_noise(pmap, ds, 0.0, seed=1)
        for view, assignment in zip(views, pmap.assignments):
            assert view.features.tobytes() == ds.features[assignment].tobytes()
            assert np.array_equal(view.labels, ds.labels[assignment])

    def test_variance_schedule(self):
        # Party i (1-indexed) gets variance sigma * i / N; estimate from at
        # least 10^4 entries per party and allow 5% relative error.
        n_parties, sigma = 10, 0.1
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(size=(2000, 100)), [0] * 2000, 1)
        pmap = partition_iid(ds, n_parties, seed=0)
        views = apply_feature_noise(pmap, ds, sigma, seed=42)
        for view, assignment in zip(views, pmap.assignments):
            noise = view.features - ds.features[assignment]
            target = sigma * (view.party_id + 1) / n_parties
            assert noise.size >= 10_000
            assert float(noise.var()) == pytest.approx(target, rel=0.05)
        # Last party's variance parameter is exactly sigma.
        assert sigma * n_parties / n_parties == sigma

    @pytest.mark.parametrize("sigma", [-0.5, float("nan")])
    def test_bad_sigma_rejected(self, sigma):
        ds = synthetic_labels(60, 3)
        with pytest.raises(ConfigError, match="noise_sigma must be >= 0"):
            PartitionSpec("iid", noise_sigma=sigma)
        with pytest.raises(ConfigError, match="sigma must be >= 0"):
            apply_feature_noise(partition_iid(ds, 3, seed=1), ds, sigma, seed=2)

    def test_labels_untouched(self):
        ds = synthetic_labels(60, 3)
        pmap = partition_iid(ds, 3, seed=1)
        for view, assignment in zip(apply_feature_noise(pmap, ds, 0.5, seed=2), pmap.assignments):
            assert np.array_equal(view.labels, ds.labels[assignment])

    def test_sigma_zero_views_index_the_training_matrix(self):
        ds = synthetic_labels(100, 4)
        pmap = partition_iid(ds, 4, seed=0)
        for view, assignment in zip(apply_feature_noise(pmap, ds, 0.0, seed=1), pmap.assignments):
            assert np.shares_memory(view.source, ds.features)
            assert np.array_equal(view.rows, assignment)

    def test_noisy_views_share_one_noisy_copy(self):
        ds = synthetic_labels(100, 4)
        pmap = partition_iid(ds, 4, seed=0)
        views = apply_feature_noise(pmap, ds, 0.5, seed=1)
        for view, assignment in zip(views, pmap.assignments):
            assert view.source is views[0].source
            assert not np.shares_memory(view.source, ds.features)
            assert not view.source.flags.writeable
            assert np.array_equal(view.rows, assignment)

    def test_build_views_copies_no_features(self):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.uniform(size=(2000, 784)), rng.integers(0, 10, 2000), 10)
        tracemalloc.start()
        try:
            build_views(ds, PartitionSpec("label_dirichlet", beta=0.5), 10, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes / 4


class TestStats:
    def test_fixture_counts(self):
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        ds = LabeledDataset(np.zeros((8, 1)), labels, 2)
        pmap = PartitionMap((np.array([0, 1, 4, 5]), np.array([2, 3, 6, 7])), 2)
        stats = partition_stats(pmap, ds)
        assert np.array_equal(stats.class_counts, [[2, 2], [2, 2]])
        assert stats.size_cv == 0.0
        assert stats.mean_label_tv == 0.0

    def test_bijection_is_permutation_matrix(self):
        ds = synthetic_labels(400, 8)
        pmap = partition_label_quantity(ds, 8, 1, seed=2)
        counts = partition_stats(pmap, ds).class_counts
        assert np.all((counts > 0).sum(axis=1) == 1)

    def test_column_sums_are_class_totals(self):
        ds = synthetic_labels(321, 7)
        pmap = partition_iid(ds, 5, seed=1)
        counts = partition_stats(pmap, ds).class_counts
        assert np.array_equal(counts.sum(axis=0), np.bincount(ds.labels, minlength=7))
        assert np.array_equal(counts.sum(axis=1), pmap.sizes())


ALL_STRATEGIES = [
    PartitionSpec("iid"),
    PartitionSpec("label_quantity", labels_per_party=3),
    PartitionSpec("label_dirichlet", beta=0.5),
    PartitionSpec("quantity_dirichlet", beta=0.5),
    PartitionSpec("by_group"),
]


class TestInvariants:
    @pytest.mark.parametrize("spec", ALL_STRATEGIES, ids=lambda s: s.kind)
    def test_partition_invariants_over_seeds(self, spec):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(
            rng.normal(size=(1000, 2)),
            rng.integers(0, 10, size=1000),
            10,
            group_ids=rng.integers(0, 25, size=1000),
        )
        for seed in range(25):
            pmap = build_partition(ds, spec, 10, seed=seed)
            check_partition(pmap, ds.n)
            if spec.kind == "label_quantity":
                for assignment in pmap.assignments:
                    assert len(np.unique(ds.labels[assignment])) == min(3, 10)

    @pytest.mark.parametrize("spec", ALL_STRATEGIES, ids=lambda s: s.kind)
    def test_determinism(self, spec):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(
            rng.normal(size=(500, 2)),
            rng.integers(0, 10, size=500),
            10,
            group_ids=rng.integers(0, 20, size=500),
        )
        a = build_partition(ds, spec, 7, seed=99)
        b = build_partition(ds, spec, 7, seed=99)
        assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))

    def test_repeat_within_one_party_rejected(self):
        # Every sample is covered, but party 0 lists sample 0 twice.
        with pytest.raises(PartitionError, match="more than once"):
            check_partition(PartitionMap(([0, 0], [1]), 2), 2)

    def test_beta_monotone_skew(self):
        # Average total-variation distance to the global label mix must be
        # strictly larger at beta=0.1 than at beta=5, averaged over 50 seeds.
        ds = synthetic_labels(2000, 10, seed=9)
        gaps = {}
        for beta in (0.1, 5.0):
            values = []
            for seed in range(50):
                pmap = partition_label_dirichlet(ds, 10, beta=beta, min_size=1, seed=seed)
                values.append(float(label_distribution_tv(pmap, ds).mean()))
            gaps[beta] = float(np.mean(values))
        assert gaps[0.1] > gaps[5.0]


class TestExport:
    def test_partition_file_round_trip(self, tmp_path):
        ds = synthetic_labels(40, 4)
        pmap = partition_iid(ds, 3, seed=0)
        path = tmp_path / "partition.txt"
        export_partition(pmap, ds.n, path)
        header, *lines = path.read_text().splitlines()
        assert header == "3 40"
        assert len(lines) == 3
        for line, assignment in zip(lines, pmap.assignments):
            assert [int(tok) for tok in line.split()] == assignment.tolist()

    def test_stats_csv_layout(self, tmp_path):
        ds = synthetic_labels(60, 3)
        stats = partition_stats(partition_iid(ds, 2, seed=0), ds)
        path = tmp_path / "stats.csv"
        export_stats_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "party,class_0,class_1,class_2"
        body = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(body.sum(axis=0), np.bincount(ds.labels, minlength=3))


class TestBuildViews:
    def test_views_align_with_map(self):
        ds = synthetic_labels(200, 5)
        pmap, views = build_views(ds, PartitionSpec("iid", noise_sigma=0.0), 4, seed=3)
        for view, assignment in zip(views, pmap.assignments):
            assert np.array_equal(view.rows, assignment)
            assert view.n_samples == assignment.shape[0]

    def test_view_rows_must_fit_source(self):
        with pytest.raises(PartitionError, match="labels do not match"):
            PartyView(0, np.arange(3), np.zeros((5, 2)), np.zeros(3, dtype=int))
        with pytest.raises(PartitionError, match="outside"):
            PartyView(0, [1, 5], np.zeros((5, 2)), np.zeros(5, dtype=int))

    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_empty_training_set_refused_before_any_strategy(self, kind):
        # Each strategy used to fail its own way: a party count bound of 0,
        # 100 spent Dirichlet retries, or a label with too few samples.
        empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2,
                               group_ids=np.zeros(0, dtype=int))
        options = {"label_quantity": {"labels_per_party": 1}}.get(kind, {})
        if "dirichlet" in kind:
            options = {"beta": 0.5}
        spec = PartitionSpec(kind, **options)
        n_parties = 4 if kind == "fcube_pairs" else 2
        with pytest.raises(DataError, match="^training set is empty"):
            build_views(empty, spec, n_parties, seed=0)

    def test_fcube_pairs_requires_four_parties(self):
        train, _ = fcube_generate(4000, 1000, seed=0)
        with pytest.raises(ConfigError):
            build_views(train, PartitionSpec("fcube_pairs"), 5, seed=0)
