"""Property tests: the compensated aggregate against exact rational
arithmetic, the partitioners' invariants over random datasets and specs, the
loss-gradient kernel against its out-of-place reference, and lockstep
training against per-party training.

Examples are derandomized (see conftest.py), so a failure reproduces on
every run.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from fedsim import engine, rng  # noqa: E402
from fedsim.compensated import combine_updates  # noqa: E402
from fedsim.datasets import LabeledDataset  # noqa: E402
from fedsim.engine import (  # noqa: E402
    ALGORITHMS, FedRunConfig, GlobalState, MlpObjective, run_round,
)
from fedsim.nn import MlpArch, Workspace, _loss_grad, layer_slices  # noqa: E402
from fedsim.errors import PartitionError, ShapeError  # noqa: E402
from fedsim.partition import (  # noqa: E402
    PARTITION_KINDS,
    PartitionSpec,
    PartyView,
    build_partition,
    build_views,
    check_partition,
)

from helpers import reference_local_loop, reference_loss_grad, train_cohort  # noqa: E402

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


@st.composite
def kernel_cases(draw):
    """Random layer widths (hidden widths include 1, classes 1-12, on both
    sides of the class-fold threshold), no stack or a stack of 1-7 models,
    1-64 samples per model and a proximal mu of 0 or 0.1."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(1, 12)))
    return (MlpArch(tuple(widths)), draw(st.integers(0, 7)), draw(st.integers(1, 64)),
            draw(st.sampled_from([0.0, 0.1])), draw(st.integers(0, 2**31 - 1)))


class TestLossGradKernel:
    @given(kernel_cases())
    def test_matches_out_of_place_reference_bitwise(self, case):
        arch, stack, m, mu, seed = case
        generator = np.random.default_rng(seed)
        layers, n_coords = layer_slices(arch), arch.n_params()
        lead = (stack,) if stack else ()
        anchor = generator.standard_normal(n_coords)
        # A workspace larger than the calls, so plans use leading parts of it.
        plan_of = Workspace(layers, max(stack, 1) + 1, m + 3).plan
        for _ in range(2):  # the second call reuses the first call's buffers
            w = anchor + generator.standard_normal(lead + (n_coords,))
            features = 2.0 * generator.standard_normal(lead + (m, arch.in_dim))
            labels = generator.integers(0, arch.out_dim, lead + (m,))
            loss, grad = reference_loss_grad(layers, w, features, labels, mu, anchor)
            for plan in (None, plan_of(w, m)):
                got_loss, got_grad = _loss_grad(layers, w, features, labels, mu, anchor, plan)
                assert np.asarray(got_loss).tobytes() == np.asarray(loss).tobytes()
                assert type(got_loss) is type(loss)
                assert got_grad.tobytes() == grad.tobytes()

    def test_plan_serves_only_its_own_array(self):
        arch = MlpArch((2, 3, 2))
        layers, w = layer_slices(arch), np.zeros((2, arch.n_params()))
        plan = Workspace(layers, 2, 4).plan(w, 4)
        features, labels = np.zeros((2, 4, 2)), np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ShapeError, match="plan"):
            _loss_grad(layers, w.copy(), features, labels, 0.0, None, plan)


@st.composite
def per_row_prox_cases(draw):
    """Random layer widths (classes 1-12), a stack of 2-7 models on 1-64
    samples each, and per-row mus: a run of rows with mus above 0, each
    its own, between rows with mu 0. The batch is either one per row or
    one (1, m, in) batch that every row trains on."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(1, 12)))
    stack = draw(st.integers(2, 7))
    lo = draw(st.integers(0, stack - 1))
    hi = draw(st.integers(lo + 1, stack))
    mus = [0.0] * stack
    mus[lo:hi] = draw(st.lists(st.sampled_from([0.01, 0.1, 1.5]),
                               min_size=hi - lo, max_size=hi - lo))
    return (MlpArch(tuple(widths)), draw(st.integers(1, 64)), mus, (lo, hi),
            draw(st.booleans()), draw(st.integers(0, 2**31 - 1)))


class TestPerRowProximalKernel:
    @given(per_row_prox_cases())
    def test_stacked_call_matches_lone_calls_bitwise(self, case):
        # A lockstep group's rows may be cells with different mus, or none:
        # only rows lo:hi enter the proximal branch, each toward its own
        # anchor, and each row must come out as its own call alone would.
        arch, m, mus, (lo, hi), shared, seed = case
        generator = np.random.default_rng(seed)
        layers, n_coords, stack = layer_slices(arch), arch.n_params(), len(mus)
        batches = 1 if shared else stack
        anchors = generator.standard_normal((stack, n_coords))
        w = anchors + generator.standard_normal((stack, n_coords))
        features = 2.0 * generator.standard_normal((batches, m, arch.in_dim))
        labels = generator.integers(0, arch.out_dim, (batches, m))
        wants = []
        for row, mu in enumerate(mus):
            batch = 0 if shared else row
            wants.append(_loss_grad(layers, w[row], features[batch], labels[batch], mu,
                                    anchors[row] if mu > 0 else None))
        plan = Workspace(layers, stack, m).plan(w, m)
        for plan in (None, plan):
            loss, grad = _loss_grad(layers, w, features, labels, np.array(mus[lo:hi]),
                                    anchors[lo:hi], plan, slice(lo, hi))
            for row, (want_loss, want_grad) in enumerate(wants):
                assert np.float64(loss[row]).tobytes() == np.float64(want_loss).tobytes()
                assert grad[row].tobytes() == want_grad.tobytes()


@st.composite
def lockstep_cases(draw):
    """A round of 1-6 parties with ragged sizes on one shared training
    matrix: random layer widths, batch size, epochs, momentum and algorithm.
    Optionally one party's data holds an infinite feature in a batch after
    its first, so that party diverges mid-epoch."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(1, 12)))
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    algorithm, c_option = draw(st.sampled_from([
        ("fedavg", "ii"), ("fedprox", "ii"), ("fednova", "ii"),
        ("scaffold", "i"), ("scaffold", "ii"),
    ]))
    cfg = FedRunConfig(
        algorithm=algorithm, rounds=1, n_parties=len(sizes),
        local_epochs=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, 8)),
        local_lr=0.05, momentum=draw(st.sampled_from([0.0, 0.9])), prox_mu=0.1,
        scaffold_c_option=c_option, master_seed=draw(st.integers(0, 2**31 - 1)),
    )
    diverging = draw(st.one_of(st.none(), st.integers(0, len(sizes) - 1)))
    return MlpArch(tuple(widths)), sizes, cfg, diverging, draw(st.integers(0, 2**31 - 1))


def _scaffold_reference(w_t, c, c_i, view, cfg, objective, final, tau):
    """local_train_scaffold's control refresh, out of place: (delta_control,
    new c_i, flagged)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.scaffold_c_option == "i":
            refreshed = objective.full_grad(w_t, view.features, view.labels)
        else:
            refreshed = c_i - c + (1.0 / (tau * cfg.local_lr)) * (w_t - final)
        delta = refreshed - c_i
    if np.isfinite(refreshed).all() and np.isfinite(delta).all():
        return delta, refreshed, False
    return np.zeros_like(c_i), c_i, True


class Alone(MlpObjective):
    """MlpObjective with loss_grad overridden, so each party trains alone."""

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        return super().loss_grad(params, features, labels, prox_mu, prox_anchor)


class TestLockstepTraining:
    @given(lockstep_cases())
    def test_round_matches_per_party_reference_bitwise(self, case):
        arch, sizes, cfg, diverging, seed = case
        generator = np.random.default_rng(seed)
        source = generator.standard_normal((sum(sizes), arch.in_dim))
        labels = generator.integers(0, arch.out_dim, sum(sizes))
        bounds = np.cumsum([0, *sizes])
        order = generator.permutation(sum(sizes))
        rows = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        if diverging is not None and sizes[diverging] > cfg.batch_size:
            # The first row of the party's second batch in its first epoch.
            perm = rng.stream(cfg.master_seed, rng.TAG_LOCAL, 0, diverging).permutation(
                sizes[diverging])
            source[rows[diverging][perm[cfg.batch_size]], 0] = np.inf
        else:
            diverging = None
        source.setflags(write=False)
        views = [PartyView(p, r, source, labels) for p, r in enumerate(rows)]
        objective = MlpObjective(arch)
        n_coords = arch.n_params()
        w_t = objective.init_params(seed)
        controls = c = None
        if cfg.algorithm == "scaffold":
            c = 0.01 * generator.standard_normal(n_coords)
            controls = tuple(0.01 * generator.standard_normal(n_coords) for _ in sizes)
        references = [
            reference_local_loop(
                w_t, view, cfg, 0, objective, prox_mu=cfg.mu or 0.0,
                correction=None if c is None else c - controls[view.party_id],
            )
            for view in views
        ]

        # The whole round stacks in one cohort; an objective that overrides
        # loss_grad trains every party in a cohort of one.
        for trained_by, n_cohorts in ((objective, 1), (Alone(arch), len(sizes))):
            cohorts = engine._row_cohorts(
                range(len(sizes)), views, [cfg], n_coords, engine._stacks(trained_by))
            assert len(cohorts) == n_cohorts
            new_state, updates, _ = run_round(
                GlobalState(w_t, c, controls), views, cfg, 0, trained_by
            )
            assert [u.party_id for u in updates] == list(range(len(sizes)))
            for update, view, reference in zip(updates, views, references):
                final, tau, mean_loss, diverged = reference
                assert diverged == (view.party_id == diverging)
                assert (update.tau, update.n_samples) == (tau, view.n_samples)
                assert np.float64(update.train_loss).tobytes() == (
                    np.float64(mean_loss).tobytes())
                assert update.final_params.tobytes() == final.tobytes()
                if c is None:
                    assert update.diverged == diverged
                    continue
                delta, refreshed, flagged = _scaffold_reference(
                    w_t, c, controls[view.party_id], view, cfg, objective, final, tau)
                assert update.diverged == (diverged or flagged)
                assert update.delta_control.tobytes() == delta.tobytes()
                if not new_state.diverged:
                    assert new_state.client_controls[view.party_id].tobytes() == (
                        refreshed.tobytes())



@st.composite
def reuse_cases(draw):
    """Three rounds of 2-6 parties with ragged sizes on one shared training
    matrix, each round sampling a fraction of them, so cohorts and the rows
    parties take change from round to round: random layer widths, batch
    size, epochs, momentum, algorithm, cohort cap (in parties) and trainer
    (stacking or not). At a learning rate of 1e300 a party that takes a
    second step overflows and leaves its cohort mid-round, with non-finite
    values left in its rows."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(1, 12)))
    sizes = draw(st.lists(st.integers(1, 20), min_size=2, max_size=6))
    algorithm, c_option = draw(st.sampled_from([
        ("fedavg", "ii"), ("fedprox", "ii"), ("fednova", "ii"),
        ("scaffold", "i"), ("scaffold", "ii"),
    ]))
    cfg = FedRunConfig(
        algorithm=algorithm, rounds=3, n_parties=len(sizes),
        sample_fraction=draw(st.sampled_from([0.5, 0.75, 1.0])),
        local_epochs=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, 8)),
        local_lr=draw(st.sampled_from([0.05, 1e300])),
        momentum=draw(st.sampled_from([0.0, 0.9])), prox_mu=0.1,
        scaffold_c_option=c_option, master_seed=draw(st.integers(0, 2**31 - 1)),
    )
    cap, stacks = draw(st.integers(1, 6)), draw(st.booleans())
    return MlpArch(tuple(widths)), sizes, cfg, cap, stacks, draw(st.integers(0, 2**31 - 1))


class TestRunTrainer:
    @given(reuse_cases())
    def test_shared_trainer_matches_fresh_ones_bitwise(self, case):
        # run_experiment trains every round of a run on one LocalTrainer;
        # each round must come out as it does on a trainer of its own.
        arch, sizes, cfg, cap, stacks, seed = case
        generator = np.random.default_rng(seed)
        source = generator.standard_normal((sum(sizes), arch.in_dim))
        labels = generator.integers(0, arch.out_dim, sum(sizes))
        source.setflags(write=False)
        bounds = np.cumsum([0, *sizes])
        order = generator.permutation(sum(sizes))
        views = [PartyView(p, order[lo:hi], source, labels)
                 for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        objective = MlpObjective(arch) if stacks else Alone(arch)
        n_coords = arch.n_params()
        state = GlobalState(objective.init_params(seed))
        if cfg.algorithm == "scaffold":
            state = GlobalState(
                state.params, 0.01 * generator.standard_normal(n_coords),
                tuple(0.01 * generator.standard_normal(n_coords) for _ in sizes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "COHORT_BYTES", cap * engine.BYTES_PER_COORD * n_coords)
            trainer = engine.LocalTrainer(objective)
            shared = fresh = state
            for round_idx in range(cfg.rounds):
                shared, shared_updates, _ = run_round(
                    shared, views, cfg, round_idx, objective, trainer=trainer)
                fresh, fresh_updates, _ = run_round(fresh, views, cfg, round_idx, objective)
                assert len(shared_updates) == len(fresh_updates)
                for got, want in zip(shared_updates, fresh_updates):
                    assert (got.party_id, got.tau, got.n_samples, got.diverged) == (
                        want.party_id, want.tau, want.n_samples, want.diverged)
                    assert np.float64(got.train_loss).tobytes() == (
                        np.float64(want.train_loss).tobytes())
                    assert got.final_params.tobytes() == want.final_params.tobytes()
                    assert np.asarray(got.delta_control).tobytes() == (
                        np.asarray(want.delta_control).tobytes())
                assert shared.diverged == fresh.diverged
                assert shared.params.tobytes() == fresh.params.tobytes()
                assert np.asarray(shared.control).tobytes() == (
                    np.asarray(fresh.control).tobytes())
                assert [np.asarray(c).tobytes() for c in shared.client_controls or ()] == [
                    np.asarray(c).tobytes() for c in fresh.client_controls or ()]


@st.composite
def trainer_sequences(draw):
    """A sequence of 2-5 cohorts for one LocalTrainer. A cohort has 1 to
    size (1-6) rows, each one of 4 parties (0-12 samples)
    trained as a plain, a proximal (with its own mu, 0 among them) or a
    scaffold row, with its own epochs; its rows start either all from one
    shared model or each from its own. Random layer widths, batch size,
    momentum, scaffold option and objective (stacking or not); at a
    learning rate of 1e300 a row that takes a second step overflows."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(1, 6)))
    size = draw(st.integers(1, 6))
    base = FedRunConfig(
        algorithm="fedavg", n_parties=4, batch_size=draw(st.integers(1, 8)),
        local_lr=draw(st.sampled_from([0.05, 0.05, 1e300])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        scaffold_c_option=draw(st.sampled_from(["i", "ii"])),
        master_seed=draw(st.integers(0, 2**31 - 1)),
    )
    row = st.tuples(
        st.integers(0, base.n_parties - 1),
        st.sampled_from([("fedavg", 0.0), ("fednova", 0.0), ("fedprox", 0.0),
                         ("fedprox", 0.01), ("fedprox", 0.1), ("scaffold", 0.0)]),
        st.integers(1, 3))
    cohorts = draw(st.lists(
        st.tuples(st.lists(row, min_size=1, max_size=size), st.booleans()),
        min_size=2, max_size=5))
    return (MlpArch(tuple(widths)), size, base, cohorts, draw(st.booleans()),
            draw(st.integers(0, 2**31 - 1)))


class TestLocalTrainerReuse:
    @given(trainer_sequences())
    def test_each_cohort_matches_a_fresh_trainer_bitwise(self, case):
        # A run's trainer serves its cohorts one after another: it grows
        # when a cohort needs more rows or a larger batch, makes its
        # corrections and anchors when a cohort first needs them and keeps
        # its plans per cohort layout. Each cohort must come out as on a
        # trainer of its own.
        arch, size, base, cohorts, stacks, seed = case
        generator = np.random.default_rng(seed)
        bounds = np.cumsum([0, *generator.integers(0, 13, base.n_parties)])
        source = generator.standard_normal((bounds[-1], arch.in_dim))
        labels = generator.integers(0, arch.out_dim, bounds[-1])
        source.setflags(write=False)
        views = [PartyView(p, np.arange(lo, hi), source, labels)
                 for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        objective = MlpObjective(arch) if stacks else Alone(arch)
        n_coords = arch.n_params()
        w_t = objective.init_params(seed)
        trainer = engine.LocalTrainer(objective)
        for round_idx, (specs, shared) in enumerate(cohorts):
            rows = []
            for party, (algorithm, mu), epochs in specs:
                cfg = replace(base, algorithm=algorithm, prox_mu=mu, local_epochs=epochs)
                start = w_t if shared else w_t + 0.1 * generator.standard_normal(n_coords)
                controls = None
                if algorithm == "scaffold":
                    controls = tuple(0.01 * generator.standard_normal((2, n_coords)))
                rows.append(engine._Row(views[party], cfg, start, controls))
            rows.sort(key=lambda row: engine._row_kind(row.cfg))
            got = trainer.train(rows, round_idx)
            want = train_cohort(rows, objective, round_idx)
            for (update, c_i), (fresh, fresh_c_i) in zip(got, want, strict=True):
                assert (update.party_id, update.tau, update.n_samples, update.diverged) == (
                    fresh.party_id, fresh.tau, fresh.n_samples, fresh.diverged)
                assert np.float64(update.train_loss).tobytes() == (
                    np.float64(fresh.train_loss).tobytes())
                assert update.final_params.tobytes() == fresh.final_params.tobytes()
                assert np.asarray(update.delta_control).tobytes() == (
                    np.asarray(fresh.delta_control).tobytes())
                assert np.asarray(c_i).tobytes() == np.asarray(fresh_c_i).tobytes()


@st.composite
def group_cases(draw):
    """A lockstep group of 2-6 cells of one trial: random algorithms, mus
    (0 among them), local epochs and cell order, on 2-6 parties with
    ragged sizes, random layer widths, batch size, party sampling,
    momentum and scaffold control option. At a learning rate of 1e300 a
    row that takes a second step overflows and leaves its cohort."""
    widths = [draw(st.integers(1, 5))]
    widths += draw(st.lists(st.integers(1, 8), max_size=2))
    widths.append(draw(st.integers(2, 6)))
    n_parties = draw(st.integers(2, 6))
    base = FedRunConfig(
        algorithm="fedavg", rounds=2, n_parties=n_parties,
        sample_fraction=draw(st.sampled_from([0.5, 1.0])),
        batch_size=draw(st.integers(1, 8)),
        local_lr=draw(st.sampled_from([0.05, 0.05, 1e300])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        scaffold_c_option=draw(st.sampled_from(["i", "ii"])),
        master_seed=draw(st.integers(0, 2**31 - 1)),
    )
    cell = st.builds(
        lambda algorithm, mu, epochs: replace(
            base, algorithm=algorithm, prox_mu=mu, local_epochs=epochs),
        st.sampled_from(ALGORITHMS), st.sampled_from([0.0, 0.01, 0.1]), st.integers(1, 3))
    cells = draw(st.lists(cell, min_size=2, max_size=6))
    return MlpArch(tuple(widths)), cells, draw(st.integers(0, 2**31 - 1))


def _group_data(arch, cells, seed, kind):
    """Train and test sets for a group case, and its partition spec: iid
    parties have equal sizes, quantity_dirichlet ones ragged sizes."""
    generator = np.random.default_rng(seed)
    n = 6 * cells[0].n_parties
    train = LabeledDataset(generator.standard_normal((n, arch.in_dim)),
                           generator.integers(0, arch.out_dim, n), arch.out_dim)
    test = LabeledDataset(generator.standard_normal((8, arch.in_dim)),
                          generator.integers(0, arch.out_dim, 8), arch.out_dim)
    return train, test, PartitionSpec(kind, beta=1.0)


class TestLockstepGroups:
    @given(group_cases(), st.sampled_from(["iid", "quantity_dirichlet"]))
    def test_group_matches_each_cell_alone_bitwise(self, case, kind):
        # Every (party, cell) row of a round trains in one cohort loop, each
        # from its own cell's model, with its own mu, correction and epochs;
        # each cell's records must be what it makes alone, whether the
        # rows train by party or by cell.
        arch, cells, seed = case
        train, test, spec = _group_data(arch, cells, seed, kind)
        together = engine.run_group(train, test, spec, arch, cells)
        for cfg, records in zip(cells, together):
            alone = engine.run_experiment(train, test, spec, arch, cfg)
            assert _masked(records) == _masked(alone)

    @given(group_cases(), st.sampled_from(["iid", "quantity_dirichlet"]))
    def test_kernel_calls_counts_the_calls_of_each_cohort(self, case, kind):
        # _row_cohorts picks its layout by _kernel_calls' count, which must
        # be what the cohort loop makes when no row diverges. (Option "i"
        # would add one full-data gradient call per scaffold row, in either
        # layout.)
        arch, cells, seed = case
        cells = [replace(cell, local_lr=0.05, scaffold_c_option="ii") for cell in cells]
        train, _, spec = _group_data(arch, cells, seed, kind)
        _, views = build_views(train, spec, cells[0].n_parties, seed)
        objective = MlpObjective(arch)
        w_t = objective.init_params(seed)
        zero = np.zeros_like(w_t)
        selected = engine.sample_parties(cells[0].n_parties, cells[0].sample_fraction, 0, seed)
        calls = []
        real_loss_grad = engine._loss_grad

        def counting(*args):
            calls.append(None)
            return real_loss_grad(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_loss_grad", counting)
            for cohort in engine._row_cohorts(selected, views, cells, w_t.size, True):
                rows = [engine._Row(views[p], cells[c], w_t,
                                    (zero, zero) if cells[c].algorithm == "scaffold" else None)
                        for p, c in cohort]
                calls.clear()
                results = train_cohort(rows, objective)
                assert not any(update.diverged for update, _ in results)
                assert len(calls) == engine._kernel_calls(
                    [[(row.view.n_samples, row.cfg.local_epochs) for row in rows]],
                    cells[0].batch_size)


def _masked(records):
    """The records without wall_ms, each loss as its bytes (nan included)."""
    return [(r.round, r.test_accuracy, np.float64(r.mean_train_loss).tobytes(), r.bytes,
             r.diverged) for r in records]
