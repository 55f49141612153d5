"""Property tests: the compensated aggregate against exact rational
arithmetic, and the partitioners' invariants over random datasets and specs.

Examples are derandomized (see conftest.py), so a failure reproduces on
every run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from fedsim.compensated import combine_updates  # noqa: E402
from fedsim.datasets import LabeledDataset  # noqa: E402
from fedsim.errors import PartitionError  # noqa: E402
from fedsim.partition import (  # noqa: E402
    PARTITION_KINDS,
    PartitionSpec,
    build_partition,
    check_partition,
    export_partition,
    load_partition,
)

# Magnitudes stay well inside the normal range, where the error-free
# transforms are exact; the engine's models live there too.
magnitudes = st.floats(min_value=1e-30, max_value=1e3)
coordinates = st.one_of(
    st.just(0.0), st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([-1.0, 1.0]))
)


@st.composite
def combine_cases(draw):
    """(base, coeffs, targets, scale): 1-10 parties with normalized sample
    weights; each target is far from the base, a few relative ulps from it,
    or the negation of the previous target (heavy cancellation)."""
    n_parties = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 6))
    vectors = st.lists(coordinates, min_size=dim, max_size=dim).map(np.array)
    base = draw(vectors)
    weights = draw(st.lists(st.integers(1, 1000), min_size=n_parties, max_size=n_parties))
    coeffs = [w / sum(weights) for w in weights]
    targets = []
    for _ in range(n_parties):
        kind = draw(st.sampled_from(["far", "near", "negated"]))
        if kind == "far":
            targets.append(draw(vectors))
        elif kind == "near":
            rel = draw(st.lists(st.floats(-2.0**-40, 2.0**-40), min_size=dim, max_size=dim))
            targets.append(base * (1.0 + np.array(rel)))
        else:
            targets.append(-targets[-1] if targets else -base)
    scale = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
    return base, coeffs, targets, scale


class TestCombineUpdatesExact:
    @given(combine_cases())
    def test_within_half_ulp_plus_double_double_residue(self, case):
        base, coeffs, targets, scale = case
        out = combine_updates(base, coeffs, targets, scale)
        for j in range(base.shape[0]):
            b = Fraction(base[j])
            terms = [Fraction(c) * (b - Fraction(t[j])) for c, t in zip(coeffs, targets)]
            exact = b - Fraction(scale) * sum(terms)
            magnitude = abs(b) + abs(Fraction(scale)) * sum(abs(t) for t in terms)
            bound = Fraction(math.ulp(float(exact))) / 2 + magnitude / 2**100
            assert abs(Fraction(out[j]) - exact) <= bound, (j, float(exact))


@st.composite
def partition_cases(draw):
    """(dataset, spec, n_parties, seed) for any kind, with at least two
    samples per party and at least n_parties groups (by_group)."""
    kind = draw(st.sampled_from(PARTITION_KINDS))
    n_parties = 4 if kind == "fcube_pairs" else draw(st.integers(1, 8))
    n_classes = draw(st.integers(1, 6))
    class_sizes = draw(st.lists(st.integers(1, 40), min_size=n_classes, max_size=n_classes))
    labels = np.repeat(np.arange(n_classes), class_sizes)
    n = labels.shape[0]
    assume(n >= 2 * n_parties)
    shuffle_seed = draw(st.integers(0, 2**32 - 1))
    labels = np.random.default_rng(shuffle_seed).permutation(labels)
    if kind == "fcube_pairs":
        # Octant codes 0..7 with every antipodal pair {j, 7 - j} present.
        groups = np.arange(n) % 8
    else:
        n_groups = draw(st.integers(n_parties, max(n_parties, n // 2)))
        groups = np.arange(n) % n_groups
    groups = np.random.default_rng(shuffle_seed + 1).permutation(groups)
    ds = LabeledDataset(np.zeros((n, 1)), labels, n_classes, group_ids=groups)
    spec = PartitionSpec(
        kind,
        labels_per_party=draw(st.integers(1, n_classes)) if kind == "label_quantity" else None,
        beta=draw(st.floats(0.05, 10.0)) if "dirichlet" in kind else None,
        min_size=draw(st.integers(1, 3)),
    )
    return ds, spec, n_parties, draw(st.integers(0, 2**32 - 1))


def _build(ds, spec, n_parties, seed):
    """The map, or None where a kind can legitimately refuse the request:
    label_quantity when the parties cannot cover every label or a label may
    have fewer samples than owners, Dirichlet kinds when no draw meets
    min_size within the retry budget."""
    try:
        return build_partition(ds, spec, n_parties, seed)
    except PartitionError:
        if spec.kind == "label_quantity":
            coverable = n_parties * spec.labels_per_party >= ds.n_classes
            assert not coverable or np.bincount(ds.labels).min() < n_parties
        else:
            assert "dirichlet" in spec.kind
        return None


class TestPartitionInvariants:
    @given(partition_cases())
    def test_invariants(self, case):
        ds, spec, n_parties, seed = case
        pmap = _build(ds, spec, n_parties, seed)
        if pmap is None:
            return
        check_partition(pmap, ds.n)
        sizes = pmap.sizes()
        if spec.kind == "iid":
            assert sizes.max() - sizes.min() <= 1
        if spec.kind == "label_quantity":
            for assignment in pmap.assignments:
                assert len(np.unique(ds.labels[assignment])) == spec.labels_per_party
        if "dirichlet" in spec.kind:
            assert sizes.min() >= spec.min_size
        if spec.kind == "by_group":
            owner = {}
            for party, assignment in enumerate(pmap.assignments):
                for group in np.unique(ds.group_ids[assignment]):
                    assert owner.setdefault(int(group), party) == party

        again = build_partition(ds, spec, n_parties, seed)
        assert all(np.array_equal(a, b) for a, b in zip(pmap.assignments, again.assignments))

    @given(partition_cases())
    def test_export_load_round_trip(self, tmp_path_factory, case):
        ds, spec, n_parties, seed = case
        pmap = _build(ds, spec, n_parties, seed)
        if pmap is None:
            return
        path = tmp_path_factory.mktemp("export") / "partition.txt"
        export_partition(pmap, ds.n, path)
        back = load_partition(path)
        assert back.n_parties == pmap.n_parties
        assert all(np.array_equal(a, b) for a, b in zip(back.assignments, pmap.assignments))
