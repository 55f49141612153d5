"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime budget."""

import json
import re
import time

import numpy as np

from fedsim import harness, rng
from fedsim.config import parse_config
from fedsim.datasets import LabeledDataset, blobs_generate, fcube_generate, split_train_test
from fedsim.engine import (
    FedRunConfig,
    GlobalState,
    MlpObjective,
    aggregate_fednova,
    aggregate_weighted,
    local_train_scaffold,
    local_train_sgd,
    round_bytes,
    run_experiment,
    run_round,
)
from fedsim.harness import cmd_run, gradient_check
from fedsim.nn import MlpArch, backward
from fedsim.partition import (
    PartitionSpec,
    build_partition,
    build_views,
    check_partition,
    label_distribution_tv,
)
from helpers import make_update


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    worst = gradient_check(n_cases=100, seed=7)
    elapsed = time.perf_counter() - started
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"100 nets, max relative error {worst:.3e} (< 1e-4), {elapsed:.1f}s (< 10s)",
    )


def _fcube_setup(algorithm, n_parties=4, rounds=10, prox_mu=0.0, seed=31):
    train, test = fcube_generate(4000, 1000, seed=3)
    arch = MlpArch((3, 16, 8, 2))
    objective = MlpObjective(arch)
    cfg = FedRunConfig(
        algorithm=algorithm, rounds=rounds, n_parties=n_parties, local_epochs=2,
        batch_size=64, local_lr=0.01, momentum=0.9, prox_mu=prox_mu, master_seed=seed,
    )
    _, views = build_views(
        train, PartitionSpec("iid"), n_parties,
        rng.derive_seed(cfg.master_seed, rng.TAG_PARTITION),
    )
    params = objective.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT))
    control = np.zeros_like(params) if algorithm == "scaffold" else None
    state = GlobalState(params, control)
    return state, views, cfg, objective, test


def test_criterion_2_algorithm_identities():
    started = time.perf_counter()

    # (a) fedprox with mu = 0 walks bit-identically to fedavg for 10 rounds.
    state_a, views_a, cfg_a, objective, _ = _fcube_setup("fedavg")
    state_p, views_p, cfg_p, _, _ = _fcube_setup("fedprox", prox_mu=0.0)
    prox_identical = True
    for round_idx in range(10):
        state_a, _, _ = run_round(state_a, views_a, cfg_a, round_idx, objective)
        state_p, _, _ = run_round(state_p, views_p, cfg_p, round_idx, objective)
        prox_identical &= (
            state_a.params.tobytes() == state_p.params.tobytes()
        )

    # (b) fednova aggregation with equal step counts is bitwise weighted
    # averaging, for arbitrary updates.
    generator = np.random.default_rng(0)
    w_t = generator.normal(size=200)
    updates = [
        make_update(w_t, i, generator.normal(size=200), 6, size)
        for i, size in enumerate([17, 3, 29, 11])
    ]
    nova_identical = (
        aggregate_fednova(w_t, updates, 1.0).tobytes()
        == aggregate_weighted(w_t, updates, 1.0).tobytes()
    )

    # (c) scaffold with controls frozen at zero produces fedavg's local
    # trajectories bit for bit, round after round.
    state_s, views_s, cfg_s, _, _ = _fcube_setup("scaffold")
    state_f, views_f, cfg_f, _, _ = _fcube_setup("fedavg")
    zero = np.zeros_like(state_s.params)
    scaffold_identical = True
    for round_idx in range(3):
        for party in range(cfg_s.n_parties):
            update_s, _ = local_train_scaffold(
                state_f.params, zero, zero, views_s[party], cfg_s, round_idx, objective
            )
            update_f = local_train_sgd(
                state_f.params, views_f[party], cfg_f, round_idx, objective
            )
            scaffold_identical &= (
                update_s.final_params.tobytes()
                == update_f.final_params.tobytes()
            )
        state_f, _, _ = run_round(state_f, views_f, cfg_f, round_idx, objective)

    # (d) a single-party federation reproduces centralized SGD with the
    # velocity reset at round boundaries, bit for bit, for every
    # fedavg-family algorithm.
    train, test = fcube_generate(4000, 1000, seed=5)
    arch = MlpArch((3, 16, 8, 2))
    objective_c = MlpObjective(arch)
    central_identical = True
    for algorithm in ("fedavg", "fedprox", "fednova"):
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=5, n_parties=1, local_epochs=2,
            batch_size=64, local_lr=0.01, momentum=0.9, prox_mu=0.0, master_seed=77,
        )
        _, views = build_views(
            train, PartitionSpec("iid"), 1, rng.derive_seed(cfg.master_seed, rng.TAG_PARTITION)
        )
        view = views[0]
        state = GlobalState(
            objective_c.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT)), None
        )
        params = state.params
        for round_idx in range(cfg.rounds):
            state, _, _ = run_round(state, views, cfg, round_idx, objective_c)
            generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, 0)
            velocity = np.zeros_like(params)
            for _ in range(cfg.local_epochs):
                perm = generator.permutation(view.n_samples)
                for start in range(0, view.n_samples, cfg.batch_size):
                    idx = perm[start : start + cfg.batch_size]
                    _, grad = backward(params, arch, view.features[idx], view.labels[idx])
                    # Written out here, so this reference shares no code with
                    # the engine's in-place momentum_update.
                    velocity = cfg.momentum * velocity + grad
                    params = params - cfg.local_lr * velocity
            central_identical &= (
                state.params.tobytes() == params.tobytes()
            )

    elapsed = time.perf_counter() - started
    ok = (
        prox_identical and nova_identical and scaffold_identical
        and central_identical and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"fedprox(mu=0)={prox_identical}, fednova-equal-tau={nova_identical}, "
        f"scaffold-frozen={scaffold_identical}, N=1-centralized={central_identical}, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_partition_property_suite():
    started = time.perf_counter()
    generator = np.random.default_rng(123)
    ds = LabeledDataset(
        generator.normal(size=(1000, 2)),
        generator.integers(0, 10, size=1000),
        10,
        group_ids=generator.integers(0, 25, size=1000),
    )
    class_totals = np.bincount(ds.labels, minlength=10)
    strategies = [
        PartitionSpec("iid"),
        PartitionSpec("label_quantity", labels_per_party=3),
        PartitionSpec("label_dirichlet", beta=0.5),
        PartitionSpec("quantity_dirichlet", beta=0.5),
        PartitionSpec("by_group"),
    ]
    checked = 0
    for spec in strategies:
        for seed in range(100):
            pmap = build_partition(ds, spec, 10, seed=seed)
            check_partition(pmap, ds.n)  # disjoint, exhaustive, non-empty
            counts = np.zeros((10, 10), dtype=int)
            for party, assignment in enumerate(pmap.assignments):
                counts[party] = np.bincount(ds.labels[assignment], minlength=10)
            assert np.array_equal(counts.sum(axis=0), class_totals)
            if spec.kind == "label_quantity":
                supports = [
                    len(np.unique(ds.labels[a])) for a in pmap.assignments
                ]
                assert supports == [3] * 10
            checked += 1

    tv = {}
    for beta in (0.1, 5.0):
        values = []
        for seed in range(50):
            pmap = build_partition(
                ds, PartitionSpec("label_dirichlet", beta=beta), 10, seed=seed
            )
            values.append(float(label_distribution_tv(pmap, ds).mean()))
        tv[beta] = float(np.mean(values))
    monotone = tv[0.1] > tv[5.0]

    elapsed = time.perf_counter() - started
    report(
        3,
        checked == 500 and monotone and elapsed < 20.0,
        f"{checked} partitions validated, TV(beta=0.1)={tv[0.1]:.3f} > "
        f"TV(beta=5)={tv[5.0]:.3f}, {elapsed:.1f}s (< 20s)",
    )


def test_criterion_4_fcube_reproduction():
    started = time.perf_counter()
    train, test = fcube_generate(4000, 1000, seed=11)
    arch = MlpArch((3, 32, 16, 8, 2))
    finals = {}
    for algorithm, mu in (("fedavg", 0.0), ("fedprox", 0.01)):
        for kind in ("iid", "fcube_pairs"):
            cfg = FedRunConfig(
                algorithm=algorithm, rounds=50, n_parties=4, local_epochs=10,
                batch_size=64, local_lr=0.01, momentum=0.9, prox_mu=mu, master_seed=101,
            )
            records = run_experiment(train, test, PartitionSpec(kind), arch, cfg)
            finals[(algorithm, kind)] = records[-1].test_accuracy
    elapsed = time.perf_counter() - started
    ok = all(acc >= 0.99 for acc in finals.values()) and elapsed < 120.0
    detail = ", ".join(f"{a}/{k}={v:.3f}" for (a, k), v in finals.items())
    report(4, ok, f"{detail} (all >= 0.99), {elapsed:.0f}s (< 120s)")


BLOBS = dict(n_classes=10, n_per_class=500, dim=32, spread=0.3, seed=5)


def _blobs_run(partition_spec, rounds=20):
    ds = blobs_generate(**BLOBS)
    train, test = split_train_test(ds, 0.2, seed=99)
    arch = MlpArch((32, 32, 16, 8, 10))
    cfg = FedRunConfig(
        algorithm="fedavg", rounds=rounds, n_parties=10, local_epochs=10,
        batch_size=64, local_lr=0.01, momentum=0.9, master_seed=202,
    )
    records = run_experiment(train, test, partition_spec, arch, cfg)
    return records[-1].test_accuracy


def test_criterion_5_label_skew_dominates_quantity_skew():
    started = time.perf_counter()
    iid = _blobs_run(PartitionSpec("iid"))
    single_label = _blobs_run(PartitionSpec("label_quantity", labels_per_party=1))
    quantity = _blobs_run(PartitionSpec("quantity_dirichlet", beta=0.5))
    elapsed = time.perf_counter() - started
    label_gap = iid - single_label
    quantity_gap = iid - quantity
    ok = label_gap >= 0.30 and quantity_gap <= 0.05 and elapsed < 600.0
    report(
        5,
        ok,
        f"iid={iid:.3f}, one-label={single_label:.3f} (gap {label_gap:.3f} >= 0.30), "
        f"quantity-skew={quantity:.3f} (gap {quantity_gap:.3f} <= 0.05), "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_6_communication_accounting():
    train, test = fcube_generate(256, 64, seed=2)
    arch = MlpArch((3, 8, 2))
    per_round = {}
    for algorithm in ("fedavg", "fedprox", "fednova", "scaffold"):
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=2, n_parties=4, local_epochs=1,
            batch_size=64, local_lr=0.01, master_seed=3,
        )
        records = run_experiment(train, test, PartitionSpec("iid"), arch, cfg)
        per_round[algorithm] = {r.bytes for r in records[1:]}
        assert len(per_round[algorithm]) == 1
    plain = per_round["fedavg"].pop()
    scaffold = per_round["scaffold"].pop()
    ok = (
        scaffold == 2 * plain
        and per_round["fedprox"].pop() == plain
        and per_round["fednova"].pop() == plain
        and plain == round_bytes(4, arch.n_params(), "fedavg")
    )
    report(6, ok, f"scaffold {scaffold} bytes = 2 x fedavg {plain} bytes, exact")


def _mask_wall(text):
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


def test_criterion_7_run_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()
    raw = {
        "dataset": {"type": "blobs", "n_classes": 5, "n_per_class": 80,
                    "dim": 8, "spread": 0.3, "seed": 4, "test_fraction": 0.25},
        "partition": {"type": "label_dirichlet", "beta": 0.5},
        "arch": {"hidden": [16, 8]},
        "fed": {"algorithms": ["fedavg", "scaffold"], "rounds": 3, "parties": 5,
                "local_epochs": 2, "batch_size": 32, "lr": 0.05, "seed": 13},
        "trials": 2,
    }
    config = parse_config(raw)
    # The same grid without fedavg: scaffold's cells must not depend on
    # which cells ran before them.
    alone = parse_config({**raw, "fed": {**raw["fed"], "algorithms": ["scaffold"]}})
    # The rerun trains its two trials at once, the second in a forked
    # worker: the files must not depend on the number of processes either.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    cmd_run(config, tmp_path / "a")
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cmd_run(config, tmp_path / "b")
    cmd_run(alone, tmp_path / "c")
    a = _mask_wall((tmp_path / "a" / "results.jsonl").read_text())
    b = _mask_wall((tmp_path / "b" / "results.jsonl").read_text())
    same_summary = (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv").read_bytes()
    c = _mask_wall((tmp_path / "c" / "results.jsonl").read_text())
    elapsed = time.perf_counter() - started
    lines = a.splitlines()
    scaffold_lines = [line for line in lines if json.loads(line)["algorithm"] == "scaffold"]
    # trials x settings x (rounds + 1) = 2 x 2 x 4
    cell_independent = scaffold_lines == c.splitlines() and len(scaffold_lines) == 2 * 4
    ok = (a == b and same_summary and cell_independent and len(lines) == 2 * 2 * 4
          and elapsed < 300.0)
    report(
        7,
        ok,
        f"rerun identical (1 vs 2 processes)={a == b and same_summary}, "
        f"cell independent={cell_independent}, "
        f"{len(lines)} records, {elapsed:.0f}s (< 300s)",
    )


def test_criterion_8_feature_noise_barely_moves_accuracy():
    started = time.perf_counter()
    iid = _blobs_run(PartitionSpec("iid"))
    noisy = _blobs_run(PartitionSpec("iid", noise_sigma=0.1))
    elapsed = time.perf_counter() - started
    gap = abs(iid - noisy)
    ok = gap <= 0.03 and elapsed < 300.0
    report(
        8,
        ok,
        f"iid={iid:.3f}, gauss-noise(0.1)={noisy:.3f}, |gap|={gap:.3f} <= 0.03, "
        f"{elapsed:.0f}s (< 300s)",
    )
