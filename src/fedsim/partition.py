"""Data partitioning strategies for simulating heterogeneous parties.

A PartitionMap assigns every sample index of a dataset to exactly one of N
parties. Strategies cover the usual heterogeneity axes:

- iid: shuffled near-equal split.
- label_quantity: each party holds samples of exactly k distinct labels.
- label_dirichlet: per-class Dirichlet(beta) proportions across parties.
- quantity_dirichlet: one Dirichlet(beta) draw over party sizes only.
- by_group: whole sample groups (writers, octants, ...) dealt round-robin.
- fcube_pairs: antipodal octant pairs of cube data to 4 parties.

A Gaussian feature-noise overlay with per-party variance sigma * i / N can be
applied after any split; build_views composes any strategy with it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import ConfigError, PartitionError
from .rng import derive_seed, stream

PARTITION_KINDS = (
    "iid",
    "label_quantity",
    "label_dirichlet",
    "quantity_dirichlet",
    "by_group",
    "fcube_pairs",
)

_MAX_DIRICHLET_RETRIES = 100


@dataclass(frozen=True)
class PartitionMap:
    """Per-party lists of sample indices; disjoint and exhaustive."""

    assignments: tuple
    n_parties: int

    def __post_init__(self):
        assignments = tuple(
            np.asarray(a, dtype=np.int64).reshape(-1) for a in self.assignments
        )
        for a in assignments:
            a.setflags(write=False)
        if len(assignments) != self.n_parties:
            raise PartitionError(
                f"{len(assignments)} assignment lists for {self.n_parties} parties"
            )
        object.__setattr__(self, "assignments", assignments)

    def sizes(self) -> np.ndarray:
        return np.array([a.shape[0] for a in self.assignments], dtype=np.int64)


@dataclass(frozen=True)
class PartitionSpec:
    """Strategy selector plus its parameters and optional noise overlay."""

    kind: str
    labels_per_party: int | None = None
    beta: float | None = None
    min_size: int = 1
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ConfigError(
                f"unknown partition kind {self.kind!r}, expected one of {PARTITION_KINDS}"
            )
        if self.kind == "label_quantity":
            if self.labels_per_party is None or self.labels_per_party < 1:
                raise ConfigError("label_quantity needs labels_per_party >= 1")
        if self.kind in ("label_dirichlet", "quantity_dirichlet"):
            if self.beta is None or not self.beta > 0:
                raise ConfigError(f"{self.kind} needs beta > 0, got {self.beta}")
        if self.min_size < 1:
            raise ConfigError(f"min_size must be >= 1, got {self.min_size}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class PartyView:
    """One party's local data: rows `rows` of the run's one training pair,
    features `source` and labels `source_labels`, which every view of the
    run shares. source is the training matrix or, under feature noise, one
    noise-shifted copy of it. Neither source nor rows is ever written.
    """

    party_id: int
    rows: np.ndarray
    source: np.ndarray
    source_labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        n_source = self.source.shape[0]
        if self.source_labels.shape[0] != n_source:
            raise PartitionError("view labels do not match its feature matrix")
        if rows.size and (rows.min() < 0 or rows.max() >= n_source):
            raise PartitionError("view rows lie outside its feature matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    @property
    def features(self) -> np.ndarray:
        """The party's feature rows, gathered into a new array on each access."""
        return self.source[self.rows]

    @property
    def labels(self) -> np.ndarray:
        """The party's labels, gathered into a new array on each access."""
        return self.source_labels[self.rows]


def check_partition(pmap: PartitionMap, n_samples: int):
    """Raise unless the map is disjoint, exhaustive and has no empty party."""
    for party, assignment in enumerate(pmap.assignments):
        if assignment.shape[0] == 0:
            raise PartitionError(f"party {party} received no samples")
        if assignment.min() < 0 or assignment.max() >= n_samples:
            raise PartitionError(f"party {party} holds an out-of-range index")
    indices = np.concatenate(pmap.assignments or (np.empty(0, dtype=np.int64),))
    counts = np.bincount(indices, minlength=n_samples)
    if np.any(counts > 1):
        raise PartitionError("partition assigns some sample more than once")
    if np.any(counts == 0):
        raise PartitionError("partition drops some samples")


def _finish(assignments, n_parties: int, n_samples: int) -> PartitionMap:
    pmap = PartitionMap(tuple(assignments), n_parties)
    check_partition(pmap, n_samples)
    return pmap


def partition_iid(ds: LabeledDataset, n_parties: int, seed: int) -> PartitionMap:
    """Deterministic shuffle into near-equal parts (sizes differ by <= 1)."""
    if n_parties < 1 or n_parties > ds.n:
        raise ConfigError(f"need 1 <= n_parties <= {ds.n}, got {n_parties}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return _finish(np.array_split(perm, n_parties), n_parties, ds.n)


def partition_label_quantity(
    ds: LabeledDataset, n_parties: int, labels_per_party: int, seed: int
) -> PartitionMap:
    """Each party owns samples of exactly `labels_per_party` distinct labels.

    Ownership starts with a round-robin sweep of the (shuffled) labels over
    parties, which guarantees every label at least one owner, then each
    party's remaining slots are filled with random labels it does not own
    yet. Each label's samples are then shuffled and divided near-equally
    among its owners, so no sample is dropped; a label with fewer samples
    than owners cannot give each owner one and is refused.
    """
    k = labels_per_party
    n_classes = ds.n_classes
    if not 1 <= k <= n_classes:
        raise ConfigError(f"labels_per_party must be in [1, {n_classes}], got {k}")
    if n_parties * k < n_classes:
        raise PartitionError(
            f"{n_parties} parties x {k} labels cannot cover {n_classes} classes"
        )
    rng = np.random.default_rng(seed)

    owners = [[] for _ in range(n_classes)]
    owned = [set() for _ in range(n_parties)]
    for slot, label in enumerate(rng.permutation(n_classes)):
        party = slot % n_parties
        owners[label].append(party)
        owned[party].add(int(label))
    for party in range(n_parties):
        missing = k - len(owned[party])
        if missing > 0:
            candidates = np.array(sorted(set(range(n_classes)) - owned[party]))
            for label in rng.choice(candidates, size=missing, replace=False):
                owners[label].append(party)
                owned[party].add(int(label))

    assignments = [[] for _ in range(n_parties)]
    for label in range(n_classes):
        label_indices = rng.permutation(np.flatnonzero(ds.labels == label))
        label_owners = np.array(owners[label])
        if len(label_indices) < len(label_owners):
            raise PartitionError(f"label {label} has fewer samples than parties owning it")
        rng.shuffle(label_owners)
        for owner, chunk in zip(label_owners, np.array_split(label_indices, len(label_owners))):
            assignments[owner].append(chunk)
    merged = [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64) for parts in assignments]
    return _finish(merged, n_parties, ds.n)


def _dirichlet_proportions(rng: np.random.Generator, beta: float, n: int) -> np.ndarray:
    # Normalized independent Gamma(beta, 1) draws.
    draws = rng.gamma(beta, 1.0, size=n)
    total = draws.sum()
    if total <= 0:
        raise PartitionError("degenerate Dirichlet draw (all-zero gamma variates)")
    return draws / total


def _split_by_proportions(indices: np.ndarray, proportions: np.ndarray) -> list:
    # Cumulative-boundary split: conserves every index without remainder
    # bookkeeping.
    boundaries = np.floor(np.cumsum(proportions)[:-1] * indices.shape[0]).astype(int)
    return np.split(indices, boundaries)


def _dirichlet_retry(draw, beta: float, min_size: int, seed: int) -> list:
    """The first draw(rng) -> party index arrays, over streams (seed, attempt),
    whose every party holds at least min_size samples. A draw that raises
    PartitionError (a degenerate Dirichlet sample) is retried too."""
    if not beta > 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    if min_size < 1:
        raise ConfigError(f"min_size must be >= 1, got {min_size}")
    for attempt in range(_MAX_DIRICHLET_RETRIES):
        rng = stream(seed, attempt)
        try:
            parts = draw(rng)
        except PartitionError:
            continue
        if min(part.shape[0] for part in parts) >= min_size:
            return parts
    raise PartitionError(
        f"no Dirichlet(beta={beta}) draw satisfied min_size={min_size} "
        f"within {_MAX_DIRICHLET_RETRIES} retries"
    )


def partition_label_dirichlet(
    ds: LabeledDataset, n_parties: int, beta: float, min_size: int, seed: int
) -> PartitionMap:
    """Per class, allocate Dirichlet(beta)-proportional shares to parties.

    Smaller beta concentrates each class on fewer parties. If any party ends
    up below min_size the whole draw is retried with the next derived seed.
    """

    def draw(rng):
        assignments = [[] for _ in range(n_parties)]
        for label in range(ds.n_classes):
            label_indices = rng.permutation(np.flatnonzero(ds.labels == label))
            proportions = _dirichlet_proportions(rng, beta, n_parties)
            for party, chunk in enumerate(_split_by_proportions(label_indices, proportions)):
                assignments[party].append(chunk)
        return [
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            for parts in assignments
        ]

    return _finish(_dirichlet_retry(draw, beta, min_size, seed), n_parties, ds.n)


def partition_quantity_dirichlet(
    ds: LabeledDataset, n_parties: int, beta: float, min_size: int, seed: int
) -> PartitionMap:
    """Dirichlet(beta) over party sizes only; class mix follows a global shuffle."""

    def draw(rng):
        perm = rng.permutation(ds.n)
        return _split_by_proportions(perm, _dirichlet_proportions(rng, beta, n_parties))

    return _finish(_dirichlet_retry(draw, beta, min_size, seed), n_parties, ds.n)


def partition_by_group(ds: LabeledDataset, n_parties: int, seed: int) -> PartitionMap:
    """Shuffle whole groups and deal them round-robin; no group is split."""
    if ds.group_ids is None:
        raise ConfigError("dataset has no group_ids; group partitioning needs them")
    groups = np.unique(ds.group_ids)
    if groups.shape[0] < n_parties:
        raise ConfigError(
            f"{groups.shape[0]} groups cannot cover {n_parties} parties"
        )
    shuffled = np.random.default_rng(seed).permutation(groups)
    assignments = [[] for _ in range(n_parties)]
    for slot, group in enumerate(shuffled):
        assignments[slot % n_parties].append(np.flatnonzero(ds.group_ids == group))
    merged = [np.concatenate(parts) for parts in assignments]
    return _finish(merged, n_parties, ds.n)


def partition_fcube_pairs(ds: LabeledDataset) -> PartitionMap:
    """Cube data to 4 parties: party j owns the antipodal octants {j, 7-j}."""
    if ds.group_ids is None:
        raise ConfigError("cube dataset must carry octant codes in group_ids")
    octants = ds.group_ids
    if octants.size and (octants.min() < 0 or octants.max() > 7):
        raise ConfigError("octant codes must lie in 0..7")
    assignments = [
        np.flatnonzero((octants == pair) | (octants == 7 - pair)) for pair in range(4)
    ]
    return _finish(assignments, 4, ds.n)


def apply_feature_noise(
    pmap: PartitionMap, ds: LabeledDataset, sigma: float, seed: int
) -> list[PartyView]:
    """Party views, with Gaussian noise of variance sigma*i/N added to features.

    Parties are 1-indexed for the variance schedule, so the last party gets
    variance exactly sigma; 0-based party p draws from stream (seed, p).
    Labels are untouched. sigma == 0 copies no features: every view indexes
    ds.features; otherwise every view indexes one noise-shifted copy of it.
    """
    if not sigma >= 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    source = ds.features
    if sigma > 0:
        source = ds.features.copy()
        for party, rows in enumerate(pmap.assignments):
            variance = sigma * (party + 1) / pmap.n_parties
            noise = stream(seed, party).normal(
                0.0, np.sqrt(variance), size=(rows.shape[0], ds.n_features)
            )
            source[rows] += noise
        source.setflags(write=False)
    return [
        PartyView(party, rows, source, ds.labels)
        for party, rows in enumerate(pmap.assignments)
    ]


def build_partition(
    ds: LabeledDataset, spec: PartitionSpec, n_parties: int, seed: int
) -> PartitionMap:
    """Dispatch a PartitionSpec to its strategy (noise overlay not applied)."""
    if spec.kind == "iid":
        return partition_iid(ds, n_parties, seed)
    if spec.kind == "label_quantity":
        return partition_label_quantity(ds, n_parties, spec.labels_per_party, seed)
    if spec.kind == "label_dirichlet":
        return partition_label_dirichlet(ds, n_parties, spec.beta, spec.min_size, seed)
    if spec.kind == "quantity_dirichlet":
        return partition_quantity_dirichlet(ds, n_parties, spec.beta, spec.min_size, seed)
    if spec.kind == "by_group":
        return partition_by_group(ds, n_parties, seed)
    if spec.kind == "fcube_pairs":
        if n_parties != 4:
            raise ConfigError(f"fcube_pairs is a 4-party strategy, got {n_parties}")
        return partition_fcube_pairs(ds)
    raise ConfigError(f"unknown partition kind {spec.kind!r}")


def build_views(
    ds: LabeledDataset, spec: PartitionSpec, n_parties: int, seed: int
) -> tuple[PartitionMap, list[PartyView]]:
    """Partition and build party views, applying the spec's noise overlay."""
    pmap = build_partition(ds, spec, n_parties, derive_seed(seed, 0))
    views = apply_feature_noise(pmap, ds, spec.noise_sigma, derive_seed(seed, 1))
    return pmap, views


@dataclass(frozen=True)
class PartitionStats:
    """Class-count matrix plus scalar imbalance summaries."""

    class_counts: np.ndarray  # (n_parties, n_classes)
    size_cv: float  # std/mean of party sizes
    mean_label_tv: float  # mean total-variation gap to the global label mix


def label_distribution_tv(pmap: PartitionMap, ds: LabeledDataset) -> np.ndarray:
    """Per-party total-variation distance to the global label distribution."""
    global_hist = np.bincount(ds.labels, minlength=ds.n_classes) / ds.n
    tvs = []
    for assignment in pmap.assignments:
        local = np.bincount(ds.labels[assignment], minlength=ds.n_classes)
        local = local / max(assignment.shape[0], 1)
        tvs.append(0.5 * np.abs(local - global_hist).sum())
    return np.array(tvs)


def partition_stats(pmap: PartitionMap, ds: LabeledDataset) -> PartitionStats:
    """Class-count matrix (row sums = party sizes, column sums = class totals)."""
    counts = np.zeros((pmap.n_parties, ds.n_classes), dtype=np.int64)
    for party, assignment in enumerate(pmap.assignments):
        counts[party] = np.bincount(ds.labels[assignment], minlength=ds.n_classes)
    sizes = pmap.sizes()
    size_cv = float(sizes.std() / sizes.mean()) if sizes.mean() > 0 else 0.0
    mean_tv = float(label_distribution_tv(pmap, ds).mean())
    return PartitionStats(counts, size_cv, mean_tv)


def export_partition(pmap: PartitionMap, n_samples: int, path):
    """Text export: "n_parties n_samples" header, then one index line per party."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{pmap.n_parties} {n_samples}\n")
        for assignment in pmap.assignments:
            fh.write(" ".join(str(int(i)) for i in assignment) + "\n")


def export_stats_csv(stats: PartitionStats, path):
    """CSV of the class-count matrix: one row per party, one column per class."""
    n_classes = stats.class_counts.shape[1]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["party"] + [f"class_{c}" for c in range(n_classes)])
        for party, row in enumerate(stats.class_counts):
            writer.writerow([party] + [int(v) for v in row])
