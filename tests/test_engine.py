import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedsim.datasets import LabeledDataset, fcube_generate
from fedsim.engine import (
    ALGORITHMS,
    FedRunConfig,
    GlobalState,
    MlpObjective,
    aggregate_fednova,
    aggregate_scaffold,
    aggregate_weighted,
    local_train_scaffold,
    local_train_sgd,
    round_bytes,
    run_experiment,
    run_group,
    run_round,
    sample_parties,
)
from fedsim.errors import ConfigError, DataError, NumericError, ProtocolError, ShapeError
from fedsim.nn import MlpArch, backward
from fedsim.partition import PartitionSpec, PartyView, build_views
from fedsim import engine, rng
from helpers import (
    assert_no_child_process,
    deadline,  # noqa: F401 (a fixture)
    make_update,
    needs_fork,
    reference_local_loop,
    train_cohort,
)


def flat(*values):
    return np.array(values, dtype=float)


class QuadraticObjective:
    """Loss (w - target)^2 / 2 on a single scalar parameter; data is ignored.

    Like the engine's MlpObjective, loss_grad and full_grad take and return
    flat float64 arrays.
    """

    def __init__(self, target):
        self.target = target

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        w = params[0]
        loss = 0.5 * (w - self.target) ** 2
        grad = np.array([w - self.target])
        if prox_mu > 0:
            diff = params - prox_anchor
            loss += 0.5 * prox_mu * float(diff @ diff)
            grad = grad + prox_mu * diff
        return loss, grad

    def full_grad(self, params, features, labels):
        return self.loss_grad(params, features, labels)[1]

    def accuracy(self, params, dataset):
        return 0.0


class CenterObjective:
    """Loss |w - x|^2 / 2 on a model of any length, with x the mean of the
    batch's features. It does not stack, so one trainer can serve it
    models of several lengths."""

    def init_params(self, seed):
        return np.random.default_rng(seed).normal(size=4)

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        grad = params - features.mean()
        loss = 0.5 * float(grad @ grad)
        if prox_mu > 0:
            diff = params - prox_anchor
            loss += 0.5 * prox_mu * float(diff @ diff)
            grad = grad + prox_mu * diff
        return loss, grad

    def full_grad(self, params, features, labels):
        return self.loss_grad(params, features, labels)[1]


def one_sample_view(party_id=0):
    return PartyView(party_id, np.array([0]), np.zeros((1, 1)), np.zeros(1, dtype=int))


class TestSampleParties:
    def test_full_participation(self):
        for round_idx in range(5):
            assert sample_parties(10, 1.0, round_idx, master_seed=3) == list(range(10))

    def test_fraction_size(self):
        selected = sample_parties(100, 0.1, 0, master_seed=7)
        assert len(selected) == 10
        assert selected == sorted(selected)
        assert len(set(selected)) == 10

    def test_deterministic_per_round(self):
        a = sample_parties(50, 0.2, 4, master_seed=11)
        b = sample_parties(50, 0.2, 4, master_seed=11)
        assert a == b
        assert a != sample_parties(50, 0.2, 5, master_seed=11)


class TestLocalTrainSgd:
    def _cfg(self, **kw):
        base = dict(
            algorithm="fedavg", rounds=1, n_parties=1, local_epochs=1,
            batch_size=4, local_lr=0.1, momentum=0.0, master_seed=0,
        )
        base.update(kw)
        return FedRunConfig(**base)

    def test_single_step_delta_is_lr_times_gradient(self):
        # E=1 and n_i == batch size: exactly one step from w_t, so
        # delta = lr * (momentum*0 + g(w_t)).
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(5)
        features = np.random.default_rng(0).normal(size=(4, 2))
        labels = np.array([0, 1, 0, 1])
        view = PartyView(0, np.arange(4), features, labels)
        cfg = self._cfg(momentum=0.9)
        update = local_train_sgd(w_t, view, cfg, round_idx=0, objective=objective)
        _, grad = backward(w_t, arch, features, labels)
        assert update.tau == 1
        assert w_t - update.final_params == pytest.approx(
            cfg.local_lr * grad, rel=1e-12
        )

    def test_scalar_quadratic_hand_value(self):
        # loss (w-3)^2/2 from w=0: gradient -3, one step of lr 0.1 moves to
        # 0.3.
        update = local_train_sgd(
            flat(0.0), one_sample_view(), self._cfg(), 0, QuadraticObjective(3.0)
        )
        assert update.final_params[0] == pytest.approx(0.3, abs=1e-12)
        assert update.tau == 1

    def test_a_trainer_made_for_another_objective_is_refused(self):
        # A trainer keeps views and plans laid out for its own objective,
        # so every call that is handed one refuses it for another objective,
        # even an equal one or one whose models have the same size.
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        n = arch.n_params()
        assert MlpArch((2, 4, 1)).n_params() == n
        w_t = objective.init_params(5)
        view = PartyView(0, np.arange(4), np.zeros((4, 2)), np.zeros(4, dtype=int))
        cfg, zero = self._cfg(), np.zeros(n)
        for other in (MlpObjective(arch), MlpObjective(MlpArch((2, 4, 1))),
                      QuadraticObjective(0.0)):
            trainer = engine.LocalTrainer(other)
            with pytest.raises(ProtocolError, match="another objective"):
                local_train_sgd(w_t, view, cfg, 0, objective, trainer=trainer)
            with pytest.raises(ProtocolError, match="another objective"):
                local_train_scaffold(w_t, zero, zero, view, cfg, 0, objective, trainer=trainer)
            with pytest.raises(ProtocolError, match="another objective"):
                run_round(GlobalState(w_t), [view], cfg, 0, objective, trainer=trainer)

    def test_an_empty_cohort_is_refused(self):
        objective = MlpObjective(MlpArch((3, 4, 2)))
        trainer = engine.LocalTrainer(objective)
        with pytest.raises(ProtocolError, match="a cohort needs at least one row"):
            trainer.train([], 0)

    def test_a_reused_trainer_trains_as_a_fresh_one(self):
        # One trainer serves plain, proximal and scaffold parties in turn
        # (making its corrections when the first scaffold party comes), and
        # each comes out bit for bit as on a trainer of its own.
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        generator = np.random.default_rng(8)
        w_t = objective.init_params(5)
        view = PartyView(0, np.arange(6), generator.normal(size=(6, 2)),
                         generator.integers(0, 2, 6))
        c, c_i = 0.01 * generator.normal(size=(2, arch.n_params()))
        trainer = engine.LocalTrainer(objective)
        for algorithm in ("fedavg", "scaffold", "fedprox", "fedavg", "scaffold"):
            cfg = self._cfg(algorithm=algorithm, prox_mu=0.1, local_epochs=2, momentum=0.9)
            if algorithm == "scaffold":
                (got, got_c), (want, want_c) = (
                    local_train_scaffold(w_t, c, c_i, view, cfg, 0, objective, trainer=used)
                    for used in (trainer, None))
                assert got_c.tobytes() == want_c.tobytes()
                assert got.delta_control.tobytes() == want.delta_control.tobytes()
            else:
                got, want = (local_train_sgd(w_t, view, cfg, 0, objective, trainer=used)
                             for used in (trainer, None))
            assert got.final_params.tobytes() == want.final_params.tobytes()
            assert (got.tau, got.train_loss) == (want.tau, want.train_loss)
        assert trainer.corrections is not None

    @pytest.mark.parametrize("stacks", [True, False])
    def test_a_trainer_grows_to_fit_each_cohort(self, stacks):
        # A trainer holds no rows until its first cohort, and grows its
        # stacks and workspace when a cohort needs more rows, a larger batch
        # (the largest a row can draw: its batch size, or all of a smaller
        # party) or another model length; a smaller cohort keeps them.
        # Growing drops the anchors, corrections and cached steps that point
        # into the old stacks, so every cohort's updates are bit for bit
        # those of a fresh trainer.
        generator = np.random.default_rng(12)
        source, labels = generator.normal(size=(18, 2)), generator.integers(0, 2, 18)
        views = [PartyView(p, np.arange(6 * p, 6 * p + 6), source, labels) for p in range(3)]
        objective = MlpObjective(MlpArch((2, 3, 2))) if stacks else CenterObjective()
        w_t = objective.init_params(5)
        longer = np.append(w_t, generator.normal(size=3))
        cohorts = [  # (batch size, model, the rows' algorithms, rows held, batch held)
            (2, w_t, ["fedavg"], 1, 2),
            (2, w_t, ["fedavg", "fedprox", "scaffold"], 3, 2),
            (4, w_t, ["fedprox", "scaffold"], 3, 4),
            (2**31 - 1, w_t, ["fedavg", "fedprox", "scaffold"], 3, 6),
            (3, w_t, ["scaffold"], 3, 6),
        ]
        if not stacks:
            cohorts.append((4, longer, ["fedprox", "scaffold"], 3, 6))
        trainer = engine.LocalTrainer(objective)
        assert trainer.params.shape == (0, 0)
        for round_idx, (batch_size, start, algorithms, rows_held, batch_held) in enumerate(
                cohorts):
            rows = []
            for view, algorithm in zip(views, algorithms):
                cfg = self._cfg(algorithm=algorithm, prox_mu=0.1, batch_size=batch_size,
                                momentum=0.9, local_epochs=2)
                controls = None
                if algorithm == "scaffold":
                    controls = tuple(0.01 * generator.normal(size=(2, start.size)))
                rows.append(engine._Row(view, cfg, start, controls))
            got = trainer.train(rows, round_idx)
            assert trainer.params.shape == (rows_held, start.size)
            assert trainer.batch == batch_held
            for (update, c_i), (fresh, fresh_c_i) in zip(
                    got, train_cohort(rows, objective, round_idx), strict=True):
                assert (update.tau, update.diverged) == (fresh.tau, fresh.diverged)
                assert np.float64(update.train_loss).tobytes() == (
                    np.float64(fresh.train_loss).tobytes())
                assert update.final_params.tobytes() == fresh.final_params.tobytes()
                assert np.asarray(update.delta_control).tobytes() == (
                    np.asarray(fresh.delta_control).tobytes())
                assert np.asarray(c_i).tobytes() == np.asarray(fresh_c_i).tobytes()

    def test_rows_pull_toward_their_own_models(self):
        # Each mu row copies its w_t into its row of the trainer's anchors,
        # whether the rows start from one model, as one cell's do, or from
        # different ones; either way each row trains as it would alone.
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        generator = np.random.default_rng(3)
        source, labels = generator.normal(size=(8, 2)), generator.integers(0, 2, 8)
        views = [PartyView(p, np.arange(4 * p, 4 * p + 4), source, labels) for p in range(2)]
        cfg = self._cfg(algorithm="fedprox", prox_mu=0.5, local_epochs=2, batch_size=3)
        w_t = objective.init_params(5)
        other = 0.5 * w_t
        trainer = engine.LocalTrainer(objective)
        for starts in ((w_t, w_t), (w_t, other)):
            rows = [engine._Row(view, cfg, start) for view, start in zip(views, starts)]
            got = trainer.train(rows, 0)
            for (update, _), view, start in zip(got, views, starts):
                alone = local_train_sgd(start, view, cfg, 0, objective)
                assert update.final_params.tobytes() == alone.final_params.tobytes()
                assert update.train_loss == alone.train_loss

    @pytest.mark.parametrize("off", ["source", "labels", "batch_size", "lr", "momentum", "seed",
                                     "shorter", "longer", "2-d"])
    def test_a_cohort_off_its_training_pair_or_step_settings_is_refused(self, off):
        # Every row trains on rows[0]'s training matrix, labels and step
        # settings, so a row that has its own would silently train on
        # another's; and the rows stack, so every w_t must be 1-d with
        # rows[0]'s length. The cohort is refused before any step.
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        generator = np.random.default_rng(4)
        source, labels = generator.normal(size=(8, 2)), generator.integers(0, 2, 8)
        cfg = self._cfg(local_epochs=2, batch_size=3, local_lr=0.01, momentum=0.5)
        second_source = source.copy() if off == "source" else source
        second_labels = labels.copy() if off == "labels" else labels
        second_cfg = {
            "batch_size": replace(cfg, batch_size=4), "lr": replace(cfg, local_lr=0.5),
            "momentum": replace(cfg, momentum=0.9), "seed": replace(cfg, master_seed=1),
        }.get(off, cfg)
        w_t = objective.init_params(5)
        second_w_t = {"shorter": w_t[:-1], "longer": np.append(w_t, 0.0),
                      "2-d": w_t[None]}.get(off, w_t)
        rows = [engine._Row(PartyView(0, np.arange(4), source, labels), cfg, w_t),
                engine._Row(PartyView(1, np.arange(4, 8), second_source, second_labels),
                            second_cfg, second_w_t)]
        trainer = engine.LocalTrainer(objective)
        match = ("training pair" if off in ("source", "labels") else
                 "1-d of one length" if second_w_t is not w_t else "batch size, lr, momentum")
        with pytest.raises(ProtocolError, match=match):
            trainer.train(rows, 0)

    def test_a_cohort_may_mix_algorithm_mu_epochs_models_and_controls(self):
        # What the rows of one cohort may differ in: each still trains
        # bit for bit as it would alone.
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        generator = np.random.default_rng(6)
        source, labels = generator.normal(size=(12, 2)), generator.integers(0, 2, 12)
        views = [PartyView(p, np.arange(4 * p, 4 * p + 4), source, labels) for p in range(3)]
        cfg = self._cfg(n_parties=3, batch_size=3, local_lr=0.05, momentum=0.9)
        w_t = objective.init_params(5)
        controls = tuple(0.01 * generator.normal(size=(2, arch.n_params())))
        rows = [
            engine._Row(views[0], replace(cfg, algorithm="fednova"), w_t),
            engine._Row(views[1], replace(cfg, algorithm="fedprox", prox_mu=0.5,
                                          local_epochs=2), 0.5 * w_t),
            engine._Row(views[2], replace(cfg, algorithm="scaffold", local_epochs=3),
                        -w_t, controls),
        ]
        got = engine.LocalTrainer(objective).train(rows, 0)
        assert [update.tau for update, _ in got] == [2, 4, 6]
        for (update, c_i), row in zip(got, rows):
            if row.controls is None:
                alone, alone_c_i = local_train_sgd(
                    row.w_t, row.view, row.cfg, 0, objective), None
            else:
                alone, alone_c_i = local_train_scaffold(
                    row.w_t, *row.controls, row.view, row.cfg, 0, objective)
            assert update.final_params.tobytes() == alone.final_params.tobytes()
            assert update.train_loss == alone.train_loss
            assert np.asarray(c_i).tobytes() == np.asarray(alone_c_i).tobytes()

    def test_tau_counts_epochs_times_batches(self):
        arch = MlpArch((2, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(1)
        rng_ = np.random.default_rng(1)
        view = PartyView(0, np.arange(10), rng_.normal(size=(10, 2)), rng_.integers(0, 2, 10))
        cfg = self._cfg(local_epochs=3, batch_size=4)
        update = local_train_sgd(w_t, view, cfg, 0, objective)
        assert update.tau == 3 * 3  # ceil(10/4) = 3 batches per epoch

    def test_prox_zero_bit_identical(self):
        arch = MlpArch((3, 4, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(2)
        rng_ = np.random.default_rng(2)
        view = PartyView(0, np.arange(12), rng_.normal(size=(12, 3)), rng_.integers(0, 2, 12))
        cfg = self._cfg(local_epochs=2, momentum=0.9)
        a = local_train_sgd(w_t, view, cfg, 0, objective)
        b = local_train_sgd(
            w_t, view, replace(cfg, algorithm="fedprox", prox_mu=0.0), 0, objective
        )
        assert a.final_params.tobytes() == b.final_params.tobytes()

    def test_divergence_flag_and_last_finite_model(self):
        class ExplodingObjective(QuadraticObjective):
            def __init__(self):
                super().__init__(0.0)
                self.calls = 0

            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                self.calls += 1
                if self.calls >= 3:
                    return float("inf"), np.array([0.0])
                return super().loss_grad(params, features, labels, prox_mu, prox_anchor)

        cfg = self._cfg(local_epochs=5)
        update = local_train_sgd(
            flat(1.0), one_sample_view(), cfg, 0, ExplodingObjective()
        )
        assert update.diverged
        assert update.tau == 2
        assert np.all(np.isfinite(update.final_params))

    def test_overflow_on_last_minibatch_keeps_previous_model(self):
        # Two one-row batches, lr 0.1, momentum 0.9, gradient 1e308 with a
        # finite loss: step 1 lands on -1e307; step 2's velocity 1.9e308
        # overflows, so that last step is dropped and w_1 is returned.
        class HugeGradient(QuadraticObjective):
            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                return 0.0, np.array([1e308])

        view = PartyView(0, np.arange(2), np.zeros((2, 1)), np.zeros(2, dtype=int))
        cfg = self._cfg(batch_size=1, momentum=0.9)
        update = local_train_sgd(flat(0.0), view, cfg, 0, HugeGradient(0.0))
        assert update.diverged
        assert update.tau == 1
        assert update.final_params[0] == 0.0 - 0.1 * 1e308

    def test_finite_loss_nonfinite_gradient_flags_divergence(self):
        class NanGradient(QuadraticObjective):
            def __init__(self):
                super().__init__(3.0)
                self.calls = 0

            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                self.calls += 1
                if self.calls >= 3:
                    return 1.0, np.array([np.nan])
                return super().loss_grad(params, features, labels, prox_mu, prox_anchor)

        cfg = self._cfg(local_epochs=5)
        update = local_train_sgd(flat(0.0), one_sample_view(), cfg, 0, NanGradient())
        assert update.diverged
        assert update.tau == 2  # only the two finite steps count
        # Two plain steps on (w-3)^2/2 from 0 with lr 0.1: 0.3, then 0.57.
        assert update.final_params[0] == pytest.approx(0.57, abs=1e-12)
        assert update.train_loss == pytest.approx((4.5 + 0.5 * 2.7**2) / 2, abs=1e-12)

    def test_objective_raising_numeric_error_flags_divergence(self):
        class Raising(QuadraticObjective):
            def __init__(self):
                super().__init__(3.0)
                self.calls = 0

            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                self.calls += 1
                if self.calls >= 2:
                    raise NumericError("objective went non-finite")
                return super().loss_grad(params, features, labels, prox_mu, prox_anchor)

        cfg = self._cfg(local_epochs=4)
        update = local_train_sgd(flat(0.0), one_sample_view(), cfg, 0, Raising())
        assert update.diverged
        assert update.tau == 1
        assert update.final_params[0] == pytest.approx(0.3, abs=1e-12)

    def test_never_writes_global_model_or_view(self):
        arch = MlpArch((3, 4, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(8)
        rng_ = np.random.default_rng(8)
        features = rng_.normal(size=(12, 3))
        labels = rng_.integers(0, 2, 12)
        view = PartyView(0, np.arange(12), features.copy(), labels.copy())
        before = w_t.copy()
        cfg = self._cfg(algorithm="fedprox", prox_mu=0.01, local_epochs=2, momentum=0.9)
        local_train_sgd(w_t, view, cfg, 0, objective)
        assert w_t.tobytes() == before.tobytes()
        assert view.features.tobytes() == features.tobytes()
        assert view.labels.tobytes() == labels.tobytes()


class TestMlpObjective:
    def test_array_protocol_matches_backward_bitwise(self):
        arch = MlpArch((3, 5, 4, 2))
        objective = MlpObjective(arch)
        w = objective.init_params(9)
        anchor = w + 0.01
        rng_ = np.random.default_rng(9)
        features, labels = rng_.normal(size=(7, 3)), rng_.integers(0, 2, 7)
        for mu, prox in ((0.0, None), (0.1, anchor)):
            loss, grad = objective.loss_grad(w, features, labels, mu, prox)
            ref_loss, ref_grad = backward(w, arch, features, labels, mu, prox)
            assert isinstance(grad, np.ndarray)
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes()
        full = objective.full_grad(w, features, labels)
        assert full.tobytes() == backward(w, arch, features, labels)[1].tobytes()


class RecordingObjective(MlpObjective):
    """MlpObjective that keeps every gradient it returns with a copy."""

    def __init__(self, arch):
        super().__init__(arch)
        self.returned = []

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        loss, grad = super().loss_grad(params, features, labels, prox_mu, prox_anchor)
        self.returned.append((grad, grad.copy()))
        return loss, grad


class TestLocalLoopBuffers:
    """The buffer-owning loop against the out-of-place reference, on a
    784-200-10 model (159,010 coordinates, many combine_updates blocks)."""

    ARCH = MlpArch((784, 200, 10))

    def _party(self, algorithm, **kw):
        rng_ = np.random.default_rng(41)
        features = rng_.uniform(0.0, 1.0, size=(40, 784))
        labels = rng_.integers(0, 10, 40)
        view = PartyView(3, np.arange(40), features, labels)
        base = dict(
            algorithm=algorithm, rounds=1, n_parties=4, local_epochs=2,
            batch_size=16, local_lr=0.05, momentum=0.9, prox_mu=0.01, master_seed=41,
        )
        base.update(kw)
        w_t = MlpObjective(self.ARCH).init_params(41)
        return w_t, view, FedRunConfig(**base)

    def _check_inputs_untouched(self, w_t, w_before, view, features, labels, objective):
        assert w_t.tobytes() == w_before.tobytes()
        assert view.features.tobytes() == features.tobytes()
        assert view.labels.tobytes() == labels.tobytes()
        assert len(objective.returned) == 6  # 2 epochs x ceil(40 / 16) batches
        for grad, copy in objective.returned:
            assert grad.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
    def test_sgd_matches_out_of_place_reference_bitwise(self, algorithm):
        w_t, view, cfg = self._party(algorithm)
        prox_mu = cfg.prox_mu if algorithm == "fedprox" else 0.0
        w_before = w_t.copy()
        features, labels = view.features.copy(), view.labels.copy()
        objective = RecordingObjective(self.ARCH)
        update = local_train_sgd(w_t, view, cfg, 2, objective)
        final, tau, mean_loss, _ = reference_local_loop(
            w_t, view, cfg, 2, MlpObjective(self.ARCH), prox_mu=prox_mu
        )
        assert not update.diverged
        assert (update.tau, update.train_loss) == (tau, mean_loss)
        assert update.final_params.tobytes() == final.tobytes()
        self._check_inputs_untouched(w_t, w_before, view, features, labels, objective)

    def test_scaffold_matches_out_of_place_reference_bitwise(self):
        w_t, view, cfg = self._party("scaffold")
        rng_ = np.random.default_rng(42)
        c = 0.01 * rng_.standard_normal(len(w_t))
        c_i = 0.01 * rng_.standard_normal(len(w_t))
        w_before = w_t.copy()
        features, labels = view.features.copy(), view.labels.copy()
        objective = RecordingObjective(self.ARCH)
        update, new_control = local_train_scaffold(w_t, c, c_i, view, cfg, 2, objective)
        correction = c - c_i
        final, tau, mean_loss, _ = reference_local_loop(
            w_t, view, cfg, 2, MlpObjective(self.ARCH), correction=correction
        )
        refreshed = c_i - c + (1.0 / (tau * cfg.local_lr)) * (w_t - final)
        assert not update.diverged
        assert (update.tau, update.train_loss) == (tau, mean_loss)
        assert update.final_params.tobytes() == final.tobytes()
        assert new_control.tobytes() == refreshed.tobytes()
        assert update.delta_control.tobytes() == (refreshed - c_i).tobytes()
        self._check_inputs_untouched(w_t, w_before, view, features, labels, objective)


class TestIndexedView:
    """A party whose rows are a shuffled, non-contiguous subset of a larger
    matrix trains exactly like the same party built from its copied rows."""

    ARCH = MlpArch((784, 32, 10))

    def _views(self):
        rng_ = np.random.default_rng(43)
        source = rng_.uniform(0.0, 1.0, size=(120, 784))
        source.setflags(write=False)
        all_labels = rng_.integers(0, 10, 120)
        rows = rng_.permutation(120)[:45]
        indexed = PartyView(2, rows, source, all_labels)
        copied = PartyView(2, np.arange(45), source[rows].copy(), all_labels[rows])
        return indexed, copied

    @pytest.mark.parametrize(
        "algorithm, c_option",
        [("fedavg", "ii"), ("fedprox", "ii"), ("scaffold", "i"), ("scaffold", "ii")],
    )
    def test_matches_copied_rows_bitwise(self, algorithm, c_option):
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=1, n_parties=4, local_epochs=3, batch_size=16,
            local_lr=0.05, momentum=0.9, prox_mu=0.01, scaffold_c_option=c_option,
            master_seed=43,
        )
        objective = MlpObjective(self.ARCH)
        w_t = objective.init_params(43)
        rng_ = np.random.default_rng(44)
        c = 0.01 * rng_.standard_normal(len(w_t))
        c_i = 0.01 * rng_.standard_normal(len(w_t))
        results = []
        for view in self._views():
            if algorithm == "scaffold":
                update, control = local_train_scaffold(w_t, c, c_i, view, cfg, 1, objective)
                extra = (control.tobytes(), update.delta_control.tobytes())
            else:
                update = local_train_sgd(w_t, view, cfg, 1, objective)
                extra = ()
            assert not update.diverged
            results.append(
                (update.final_params.tobytes(), update.tau, update.train_loss, *extra)
            )
        assert results[0] == results[1]


class InfiniteFullGrad(QuadraticObjective):
    """Quadratic objective whose full-data gradient (scaffold option i's
    refreshed control) overflows."""

    def __init__(self):
        super().__init__(3.0)

    def full_grad(self, params, features, labels):
        return np.array([np.inf])

    def init_params(self, seed):
        return flat(0.0)


class TestScaffoldControlOverflow:
    def _cfg(self, **kw):
        base = dict(
            algorithm="scaffold", rounds=2, n_parties=3, local_epochs=1,
            batch_size=4, local_lr=0.1, momentum=0.0, master_seed=0,
            scaffold_c_option="i",
        )
        base.update(kw)
        return FedRunConfig(**base)

    def test_party_flagged_keeps_control_and_reports_zero_delta(self):
        c_i = flat(0.25)
        update, new_control = local_train_scaffold(
            flat(0.0), flat(1.0), c_i, one_sample_view(), self._cfg(), 0, InfiniteFullGrad()
        )
        assert update.diverged
        assert new_control is c_i
        assert update.delta_control.tolist() == [0.0]
        # The local steps themselves were finite: one step of lr 0.1 on the
        # corrected gradient -3 + (1 - 0.25) lands at 0.225.
        assert update.tau == 1
        assert update.final_params[0] == pytest.approx(0.225, abs=1e-12)

    def test_overflowing_control_difference_is_flagged(self):
        # c - c_i = -1e308 - 1e308 overflows: the first corrected step is
        # non-finite, and so is option ii's c* = c_i - c + ...
        c_i = flat(1e308)
        update, new_control = local_train_scaffold(
            flat(0.0), flat(-1e308), c_i, one_sample_view(),
            self._cfg(scaffold_c_option="ii"), 0, QuadraticObjective(0.0),
        )
        assert update.diverged
        assert new_control is c_i
        assert update.delta_control.tolist() == [0.0]
        assert update.final_params.tolist() == [0.0]

    def test_finite_control_with_overflowing_delta_is_flagged(self):
        # c = c_i = -1e308 (zero correction); one finite step with gradient
        # 1e308 lands at -1e307, so option ii gives c* = 0 + 10 * 1e307 =
        # 1e308, finite, but delta_control = c* - c_i overflows.
        class HugeGradient(QuadraticObjective):
            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                return 0.0, np.array([1e308])

        c_i = flat(-1e308)
        update, new_control = local_train_scaffold(
            flat(0.0), flat(-1e308), c_i, one_sample_view(),
            self._cfg(scaffold_c_option="ii"), 0, HugeGradient(0.0),
        )
        assert update.diverged
        assert new_control is c_i
        assert update.delta_control.tolist() == [0.0]
        assert update.final_params.tolist() == [0.0 - 0.1 * 1e308]

    def test_round_completes_and_keeps_client_controls(self):
        cfg = self._cfg()
        controls = tuple(flat(0.0) for _ in range(3))
        views = [one_sample_view(p) for p in range(3)]
        state = GlobalState(flat(0.0), flat(0.5), controls)
        new, updates, _ = run_round(state, views, cfg, 0, InfiniteFullGrad())
        assert not new.diverged
        assert all(u.diverged for u in updates)
        assert all(new.client_controls[p] is controls[p] for p in range(3))
        # Zero control deltas leave the server control where it was.
        assert new.control.tolist() == [0.5]
        assert np.isfinite(new.params).all()

    def test_run_continues_and_flags_rounds(self):
        train, test = fcube_generate(64, 16, seed=2)
        records = run_experiment(
            train, test, PartitionSpec("iid"), MlpArch((3, 2)), self._cfg(),
            objective=InfiniteFullGrad(),
        )
        assert len(records) == 3
        assert [r.diverged for r in records] == [False, True, True]


class TestLocalTrainScaffold:
    def _cfg(self, **kw):
        base = dict(
            algorithm="scaffold", rounds=1, n_parties=1, local_epochs=1,
            batch_size=4, local_lr=0.1, momentum=0.0, master_seed=0,
        )
        base.update(kw)
        return FedRunConfig(**base)

    def test_zero_controls_match_plain_sgd_bitwise(self):
        arch = MlpArch((3, 4, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(3)
        rng_ = np.random.default_rng(3)
        view = PartyView(0, np.arange(16), rng_.normal(size=(16, 3)), rng_.integers(0, 2, 16))
        cfg = self._cfg(local_epochs=3, momentum=0.9)
        update, _ = local_train_scaffold(
            w_t, np.zeros_like(w_t), np.zeros_like(w_t), view, cfg, 0, objective
        )
        plain = local_train_sgd(w_t, view, cfg, 0, objective)
        assert update.final_params.tobytes() == plain.final_params.tobytes()

    def test_option_ii_single_step_recovers_gradient_at_global(self):
        # With tau=1 and momentum 0: (w_t - w_1) / lr is exactly the corrected
        # gradient, so c* = c_i - c + corrected = g(w_t).
        arch = MlpArch((2, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(4)
        rng_ = np.random.default_rng(4)
        features = rng_.normal(size=(4, 2))
        labels = rng_.integers(0, 2, 4)
        view = PartyView(0, np.arange(4), features, labels)
        c = 0.05 * rng_.standard_normal(len(w_t))
        c_i = 0.05 * rng_.standard_normal(len(w_t))
        update, new_control = local_train_scaffold(
            w_t, c, c_i, view, self._cfg(), 0, objective
        )
        _, grad = backward(w_t, arch, features, labels)
        assert update.tau == 1
        assert new_control == pytest.approx(grad, rel=1e-9, abs=1e-12)

    def test_scalar_hand_values(self):
        # Quadratic (w-3)^2/2 at w_t=0 with c=1, c_i=0: corrected gradient is
        # -3 + 1 = -2, one lr=0.1 step lands at 0.2, and option ii gives
        # c* = 0 - 1 + (0 - 0.2)/0.1 = -3.
        update, new_control = local_train_scaffold(
            flat(0.0), flat(1.0), flat(0.0), one_sample_view(), self._cfg(), 0,
            QuadraticObjective(3.0),
        )
        assert update.final_params[0] == pytest.approx(0.2, abs=1e-12)
        assert new_control[0] == pytest.approx(-3.0, abs=1e-12)
        assert update.delta_control[0] == pytest.approx(-3.0, abs=1e-12)

    def test_option_i_uses_full_batch_gradient_at_global(self):
        arch = MlpArch((2, 3, 2))
        objective = MlpObjective(arch)
        w_t = objective.init_params(6)
        rng_ = np.random.default_rng(6)
        features = rng_.normal(size=(6, 2))
        labels = rng_.integers(0, 2, 6)
        view = PartyView(0, np.arange(6), features, labels)
        cfg = self._cfg(local_epochs=2, scaffold_c_option="i")
        _, new_control = local_train_scaffold(
            w_t, np.zeros_like(w_t), np.zeros_like(w_t), view, cfg, 0, objective
        )
        _, grad = backward(w_t, arch, features, labels)
        assert new_control.tobytes() == grad.tobytes()

    def test_requires_controls(self):
        with pytest.raises(ProtocolError):
            local_train_scaffold(
                flat(0.0), flat(0.0), None, one_sample_view(), self._cfg(), 0,
                QuadraticObjective(1.0),
            )


class TestAggregateWeighted:
    def test_single_party_telescopes_to_final_model(self):
        rng_ = np.random.default_rng(7)
        w_t = rng_.normal(size=20)
        final = rng_.normal(size=20) * 1e-6
        update = make_update(w_t, 0, w_t - final, 1, 10)
        out = aggregate_weighted(w_t, [update], server_lr=1.0)
        assert out.tobytes() == update.final_params.tobytes()

    def test_equal_sizes_plain_average(self):
        rng_ = np.random.default_rng(8)
        w_t = rng_.normal(size=16)
        d1 = rng_.normal(size=16)
        d2 = rng_.normal(size=16)
        u1 = make_update(w_t, 0, d1, 1, 25)
        u2 = make_update(w_t, 1, d2, 1, 25)
        out = aggregate_weighted(w_t, [u1, u2], 1.0)
        expected = (u1.final_params + u2.final_params) / 2.0
        assert np.array_equal(out, expected)

    def test_hand_weighted_case(self):
        # sizes (1, 3), scalar deltas (4, 0), w_t = 10: 10 - (1/4)*4 = 9.
        w_t = flat(10.0)
        u1 = make_update(w_t, 0, flat(4.0), 1, 1)
        u2 = make_update(w_t, 1, flat(0.0), 1, 3)
        out = aggregate_weighted(w_t, [u1, u2], 1.0)
        assert out[0] == 9.0

    def test_zero_deltas_leave_model_unchanged(self):
        rng_ = np.random.default_rng(9)
        w_t = rng_.normal(size=30)
        updates = [
            make_update(w_t, i, np.zeros(30), 1, size)
            for i, size in enumerate([1, 2, 4])
        ]
        out = aggregate_weighted(w_t, updates, 1.0)
        assert np.array_equal(out, w_t)

    def test_empty_updates_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_weighted(flat(1.0), [], 1.0)

    def test_updates_without_samples_rejected(self):
        # Weights are n_i / n; n = 0 used to raise ZeroDivisionError.
        w_t = flat(1.0)
        updates = [make_update(w_t, i, flat(0.5), 1, 0) for i in range(2)]
        with pytest.raises(ProtocolError, match="no samples to weight by"):
            aggregate_weighted(w_t, updates, 1.0)

    def test_order_independence_of_input_list(self):
        rng_ = np.random.default_rng(10)
        w_t = rng_.normal(size=8)
        updates = [
            make_update(w_t, i, rng_.normal(size=8), 1, i + 1)
            for i in range(3)
        ]
        a = aggregate_weighted(w_t, updates, 1.0)
        b = aggregate_weighted(w_t, list(reversed(updates)), 1.0)
        assert a.tobytes() == b.tobytes()


class TestAggregateFednova:
    def test_equal_tau_bitwise_matches_weighted(self):
        rng_ = np.random.default_rng(11)
        w_t = rng_.normal(size=40)
        updates = [
            make_update(w_t, i, rng_.normal(size=40), 7, size)
            for i, size in enumerate([3, 5, 11])
        ]
        nova = aggregate_fednova(w_t, updates, 1.0)
        weighted = aggregate_weighted(w_t, updates, 1.0)
        assert nova.tobytes() == weighted.tobytes()

    def test_single_party_telescopes(self):
        rng_ = np.random.default_rng(12)
        w_t = rng_.normal(size=10)
        update = make_update(w_t, 0, rng_.normal(size=10), 9, 4)
        out = aggregate_fednova(w_t, [update], 1.0)
        assert out.tobytes() == update.final_params.tobytes()

    def test_hand_two_party_case(self):
        # sizes (1, 1), tau (1, 2), deltas (1, 2), w_t = 10:
        # coeff = (1*1 + 1*2)/2 = 1.5; sum = 1/(2*1)*1 + 1/(2*2)*2 = 1.0
        # w' = 10 - 1.5*1.0 = 8.5, i.e. coefficients 0.75 and 0.375.
        w_t = flat(10.0)
        u1 = make_update(w_t, 0, flat(1.0), 1, 1)
        u2 = make_update(w_t, 1, flat(2.0), 2, 1)
        out = aggregate_fednova(w_t, [u1, u2], 1.0)
        assert out[0] == pytest.approx(10.0 - (0.75 * 1.0 + 0.375 * 2.0), abs=1e-12)

    def test_zero_deltas_conservative(self):
        rng_ = np.random.default_rng(13)
        w_t = rng_.normal(size=12)
        updates = [
            make_update(w_t, i, np.zeros(12), tau, 5)
            for i, tau in enumerate([2, 9])
        ]
        out = aggregate_fednova(w_t, updates, 1.0)
        assert np.array_equal(out, w_t)

    def test_rejects_zero_tau(self):
        w_t = flat(1.0)
        update = make_update(w_t, 0, flat(0.0), 1, 1)
        object.__setattr__(update, "tau", 0)
        with pytest.raises(ProtocolError):
            aggregate_fednova(w_t, [update], 1.0)

    def test_updates_without_samples_rejected(self):
        w_t = flat(1.0)
        updates = [make_update(w_t, i, flat(0.5), 3, 0) for i in range(2)]
        with pytest.raises(ProtocolError, match="no samples to weight by"):
            aggregate_fednova(w_t, updates, 1.0)


class TestAggregateScaffold:
    def _state(self, w, c):
        return GlobalState(w, c)

    def test_zero_delta_controls_keep_c(self):
        w = flat(1.0)
        state = self._state(w, flat(0.25))
        update = make_update(w, 0, flat(0.0), 1, 1, delta_control=flat(0.0))
        new = aggregate_scaffold(state, [update], n_parties=4, server_lr=1.0)
        assert new.control[0] == 0.25

    def test_opposite_controls_cancel(self):
        w = np.zeros(3)
        c = np.array([0.5, -0.5, 0.0])
        u = np.array([0.1, -0.2, 0.3])
        updates = [
            make_update(w, 0, np.zeros(3), 1, 1, delta_control=u),
            make_update(w, 1, np.zeros(3), 1, 1, delta_control=-u),
        ]
        new = aggregate_scaffold(self._state(w, c), updates, n_parties=2, server_lr=1.0)
        assert np.array_equal(new.control, c)

    def test_single_sampled_party_over_total_count(self):
        # One of N=10 parties reports delta_c = 5: c moves by 5/10.
        w = flat(0.0)
        update = make_update(w, 3, flat(0.0), 1, 1, delta_control=flat(5.0))
        new = aggregate_scaffold(self._state(w, flat(1.0)), [update], 10, 1.0)
        assert new.control[0] == pytest.approx(1.5, abs=1e-15)

    def test_missing_delta_control_rejected(self):
        w = flat(0.0)
        update = make_update(w, 0, flat(0.0), 1, 1)
        with pytest.raises(ProtocolError):
            aggregate_scaffold(self._state(w, flat(0.0)), [update], 2, 1.0)

    def test_updates_without_samples_rejected(self):
        w = flat(0.0)
        update = make_update(w, 0, flat(0.0), 1, 0, delta_control=flat(1.0))
        with pytest.raises(ProtocolError, match="no samples to weight by"):
            aggregate_scaffold(self._state(w, flat(0.0)), [update], 2, 1.0)


class TestRunRound:
    def _setup(self, algorithm, n_parties=4, seed=0):
        train, _ = fcube_generate(256, 64, seed=seed)
        arch = MlpArch((3, 4, 2))
        objective = MlpObjective(arch)
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=1, n_parties=n_parties, local_epochs=1,
            batch_size=32, local_lr=0.05, momentum=0.9, master_seed=seed,
        )
        _, views = build_views(train, PartitionSpec("iid"), n_parties, seed)
        params = objective.init_params(seed)
        if algorithm == "scaffold":
            state = GlobalState(
                params, np.zeros_like(params), tuple(np.zeros_like(params) for _ in views)
            )
        else:
            state = GlobalState(params)
        return state, views, cfg, objective

    def test_scaffold_bytes_exactly_double(self):
        state, views, cfg, objective = self._setup("fedavg")
        _, _, plain_bytes = run_round(state, views, cfg, 0, objective)
        state2, views2, cfg2, objective2 = self._setup("scaffold")
        _, _, scaffold_bytes = run_round(state2, views2, cfg2, 0, objective2)
        assert scaffold_bytes == 2 * plain_bytes
        assert plain_bytes == 2 * 4 * 8 * len(state.params)

    @pytest.mark.parametrize("n_views", [3, 5])
    def test_one_view_per_party_required(self, n_views):
        # Fewer views used to raise IndexError; more were ignored.
        state, views, cfg, objective = self._setup("fedavg")
        views = (views * 2)[:n_views]
        with pytest.raises(ProtocolError, match=f"4 parties needs as many views, got {n_views}"):
            run_round(state, views, cfg, 0, objective)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_party_order_independence(self, algorithm):
        # Each party's update depends only on its (seed, round, party) stream
        # and the round's global state, and aggregation sums in ascending
        # party id: training the sampled parties in reverse changes no bit.
        state, views, cfg, objective = self._setup(algorithm, n_parties=5)
        cfg = replace(
            cfg, rounds=2, sample_fraction=0.6,
            prox_mu=0.1 if algorithm == "fedprox" else 0.0,
        )
        # A first round leaves scaffold with nonzero server and client controls.
        state, _, _ = run_round(state, views, cfg, 0, objective)
        in_order, updates, _ = run_round(state, views, cfg, 1, objective)

        reversed_updates = []
        for party_id in reversed(sample_parties(5, 0.6, 1, cfg.master_seed)):
            if algorithm == "scaffold":
                update, _ = local_train_scaffold(
                    state.params, state.control, state.client_controls[party_id],
                    views[party_id], cfg, 1, objective,
                )
            else:
                update = local_train_sgd(state.params, views[party_id], cfg, 1, objective)
            reversed_updates.append(update)

        assert len(updates) == 3
        for ours, theirs in zip(updates, reversed(reversed_updates)):
            assert ours.party_id == theirs.party_id
            assert np.array_equal(
                ours.final_params.view(np.int64),
                theirs.final_params.view(np.int64),
            )
            assert ours.tau == theirs.tau
            assert np.float64(ours.train_loss).view(np.int64) == np.float64(
                theirs.train_loss
            ).view(np.int64)
            if algorithm == "scaffold":
                assert np.array_equal(
                    ours.delta_control.view(np.int64),
                    theirs.delta_control.view(np.int64),
                )

        if algorithm == "scaffold":
            out_of_order = aggregate_scaffold(state, reversed_updates, 5, cfg.server_lr)
            assert np.array_equal(
                in_order.control.view(np.int64),
                out_of_order.control.view(np.int64),
            )
            out_of_order = out_of_order.params
        elif algorithm == "fednova":
            out_of_order = aggregate_fednova(state.params, reversed_updates, cfg.server_lr)
        else:
            out_of_order = aggregate_weighted(state.params, reversed_updates, cfg.server_lr)
        assert np.array_equal(
            in_order.params.view(np.int64), out_of_order.view(np.int64)
        )

    def test_round_writes_to_none_of_its_arguments(self):
        # Two calls from one state give the same bits; the state keeps its
        # arrays, unchanged; an unsampled party keeps its control by identity.
        state, views, cfg, objective = self._setup("scaffold", n_parties=5)
        cfg = replace(cfg, rounds=2, sample_fraction=0.6)
        # A first round leaves nonzero server and client controls.
        state, _, _ = run_round(state, views, cfg, 0, objective)
        params, control, client_controls = state.params, state.control, state.client_controls
        given = [params, control, *client_controls]
        before = [array.tobytes() for array in given]
        first, _, _ = run_round(state, views, cfg, 1, objective)
        second, _, _ = run_round(state, views, cfg, 1, objective)
        assert not first.diverged and not second.diverged
        ours = [first.params, first.control, *first.client_controls]
        theirs = [second.params, second.control, *second.client_controls]
        assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]
        assert state.params is params and state.control is control
        assert state.client_controls is client_controls
        assert [array.tobytes() for array in given] == before
        selected = sample_parties(5, 0.6, 1, cfg.master_seed)
        assert len(selected) == 3
        for party in range(5):
            kept = first.client_controls[party] is client_controls[party]
            assert kept == (party not in selected)

    def test_scaffold_round_requires_client_controls(self):
        state, views, cfg, objective = self._setup("scaffold")
        with pytest.raises(ProtocolError, match="control variates"):
            run_round(replace(state, client_controls=None), views, cfg, 0, objective)

    def test_scaffold_round_arrays_are_read_only(self):
        # The engine shares models and controls instead of copying them, so
        # none it hands out may be writable.
        state, views, cfg, objective = self._setup("scaffold")
        new, updates, _ = run_round(state, views, cfg, 0, objective)
        assert not new.diverged
        handed_out = [new.params, new.control]
        handed_out += [u.final_params for u in updates]
        handed_out += [u.delta_control for u in updates]
        handed_out += list(new.client_controls)
        assert len(handed_out) == 2 + 3 * 4
        for array in handed_out:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @needs_fork
    def test_sharded_scaffold_round_arrays_are_read_only(self, deadline, monkeypatch):
        # The same holds on the shard path, where a shard worker's rows
        # come back through shared memory: a one-cell scaffold run whose
        # four parties each train in a cohort of their own, on two shards.
        arch = MlpArch((3, 8, 2))
        monkeypatch.setattr(engine, "COHORT_BYTES", engine.BYTES_PER_COORD * arch.n_params())
        train, test = fcube_generate(80, 20, seed=1)
        cfg = FedRunConfig(algorithm="scaffold", rounds=2, n_parties=4, local_epochs=1,
                           batch_size=8, local_lr=0.05, master_seed=3)
        real_run_round = engine.run_round
        handed_out = []

        def checking_run_round(*args, shards, **kwargs):
            assert shards is not None
            new, updates, n_bytes = real_run_round(*args, shards=shards, **kwargs)
            handed_out.extend([new.params, new.control, *new.client_controls])
            handed_out.extend(u.final_params for u in updates)
            handed_out.extend(u.delta_control for u in updates)
            return new, updates, n_bytes

        monkeypatch.setattr(engine, "run_round", checking_run_round)
        run_group(train, test, PartitionSpec("iid"), arch, [cfg], shards=2)
        assert_no_child_process()
        assert len(handed_out) == cfg.rounds * (2 + 4 + 2 * 4)
        for array in handed_out:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_full_participation_update_count(self):
        state, views, cfg, objective = self._setup("fedavg", n_parties=5)
        _, updates, _ = run_round(state, views, cfg, 0, objective)
        assert [u.party_id for u in updates] == list(range(5))

    def test_round_is_reproducible(self):
        state, views, cfg, objective = self._setup("fednova")
        new_a, _, _ = run_round(state, views, cfg, 0, objective)
        state_b, views_b, cfg_b, objective_b = self._setup("fednova")
        new_b, _, _ = run_round(state_b, views_b, cfg_b, 0, objective_b)
        assert new_a.params.tobytes() == new_b.params.tobytes()


class TestLockstep:
    """Which objectives train in lockstep cohorts, and what a traced run
    that swaps in a loss_grad-overriding objective still sees."""

    def _round(self, algorithm, objective, arch=MlpArch((3, 8, 4, 2))):
        # Four parties of ragged sizes on one shared training matrix, so
        # batch-size groups split and parties finish at different steps.
        rng_ = np.random.default_rng(5)
        source = rng_.standard_normal((200, arch.in_dim))
        labels = rng_.integers(0, arch.out_dim, 200)
        order = rng_.permutation(200)
        bounds = [0, 23, 63, 80, 111]
        views = [
            PartyView(p, order[lo:hi], source, labels)
            for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=2, n_parties=4, local_epochs=2, batch_size=16,
            local_lr=0.05, momentum=0.9, prox_mu=0.1, master_seed=3,
        )
        params = MlpObjective(arch).init_params(3)
        controls = None
        if algorithm == "scaffold":
            controls = tuple(_read_only_copy(0.01 * rng_.standard_normal(len(params)))
                             for _ in views)
        state = GlobalState(params, _read_only_copy(np.zeros_like(params))
                            if controls else None, controls)
        return run_round(state, views, cfg, 1, objective)

    def test_stacks_only_with_mlp_objectives_own_loss_grad(self, monkeypatch):
        arch = MlpArch((3, 4, 2))

        class Subclass(MlpObjective):
            pass

        patched = MlpObjective(arch)
        # A wrapper set on the instance may do anything per call.
        patched.loss_grad = lambda *args: MlpObjective.loss_grad(patched, *args)
        assert engine._stacks(MlpObjective(arch))
        assert engine._stacks(Subclass(arch))
        assert not engine._stacks(RecordingObjective(arch))
        assert not engine._stacks(QuadraticObjective(0.0))
        assert not engine._stacks(patched)
        # The traced benchmark replaces the module attribute MlpObjective;
        # the check does not look it up.
        monkeypatch.setattr(engine, "MlpObjective", RecordingObjective)
        assert engine._stacks(MlpObjective(arch))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_overriding_subclass_sees_every_step_and_same_updates(self, algorithm):
        arch = MlpArch((3, 8, 4, 2))
        recording = RecordingObjective(arch)
        new_r, updates_r, bytes_r = self._round(algorithm, recording, arch)
        new_m, updates_m, bytes_m = self._round(algorithm, MlpObjective(arch), arch)
        assert not any(u.diverged for u in updates_m)
        assert len(recording.returned) == sum(u.tau for u in updates_r)
        assert sum(u.tau for u in updates_r) == 2 * (2 + 3 + 2 + 2)
        assert bytes_r == bytes_m
        for ours, theirs in zip(updates_r, updates_m):
            assert (ours.party_id, ours.tau, ours.n_samples) == (
                theirs.party_id, theirs.tau, theirs.n_samples)
            assert np.float64(ours.train_loss).tobytes() == np.float64(
                theirs.train_loss).tobytes()
            assert ours.final_params.tobytes() == theirs.final_params.tobytes()
            if algorithm == "scaffold":
                assert ours.delta_control.tobytes() == theirs.delta_control.tobytes()
        assert new_r.params.tobytes() == new_m.params.tobytes()
        if algorithm == "scaffold":
            assert new_r.control.tobytes() == new_m.control.tobytes()
            for ours, theirs in zip(new_r.client_controls, new_m.client_controls):
                assert ours.tobytes() == theirs.tobytes()

    def test_wide_model_trains_in_cohorts_of_one(self, monkeypatch):
        # A 784-200-10 model is 1.2 MiB, so even two of them exceed the cap:
        # wide runs keep one party's stacks at a time.
        wide = MlpArch((784, 200, 10)).n_params()
        assert 2 * wide * 8 > engine.COHORT_BYTES
        source, labels = np.zeros((10, 784)), np.zeros(10, dtype=int)
        views = [PartyView(p, [p], source, labels) for p in range(10)]
        cfg = FedRunConfig(algorithm="fedavg", n_parties=10)
        assert engine._row_cohorts(range(10), views, [cfg], wide, True) == [
            [(p, 0)] for p in range(10)]

        # Each party trains alone through the module attribute the traced
        # benchmark wraps to time its engine.local_train spans.
        trained = []

        def counting(w_t, view, *args, **kwargs):
            trained.append(view.party_id)
            return local_train_sgd(w_t, view, *args, **kwargs)

        monkeypatch.setattr(engine, "local_train_sgd", counting)
        arch = MlpArch((784, 200, 10))
        wide_views = [PartyView(p, [2 * p, 2 * p + 1], source, labels) for p in range(3)]
        cfg = FedRunConfig(algorithm="fedavg", rounds=1, n_parties=3, local_epochs=1,
                           batch_size=2, master_seed=0)
        objective = MlpObjective(arch)
        _, updates, _ = run_round(
            GlobalState(objective.init_params(0)), wide_views, cfg, 0, objective
        )
        assert trained == [0, 1, 2]
        assert [u.tau for u in updates] == [1, 1, 1]

    @pytest.mark.parametrize("algorithm", ["fedprox", "scaffold"])
    def test_groups_are_contiguous_runs_of_rows(self, monkeypatch, algorithm):
        # Parties of 4, 4, 3 and 4 rows at batch size 4: each of the two
        # epochs is one iteration with batch sizes [4, 4, 3, 4]. Rows 0-1
        # make one stacked call; row 3 has row 2 between it and them, so it
        # steps alone on its own views rather than on a gathered copy.
        arch = MlpArch((3, 8, 4, 2))
        rng_ = np.random.default_rng(17)
        source = rng_.standard_normal((15, arch.in_dim))
        labels = rng_.integers(0, arch.out_dim, 15)
        bounds = [0, 4, 8, 11, 15]
        views = [PartyView(p, np.arange(lo, hi), source, labels)
                 for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        cfg = FedRunConfig(algorithm=algorithm, rounds=1, n_parties=4, local_epochs=2,
                           batch_size=4, local_lr=0.05, momentum=0.9, prox_mu=0.1,
                           master_seed=17)
        objective = MlpObjective(arch)
        w_t = objective.init_params(17)
        c = 0.01 * rng_.standard_normal(len(w_t))
        c_is = [0.01 * rng_.standard_normal(len(w_t)) for _ in views]
        depths = []

        def counting(layers, w, *args):
            depths.append(w.shape[:-1])
            return real_loss_grad(layers, w, *args)

        real_loss_grad = engine._loss_grad
        monkeypatch.setattr(engine, "_loss_grad", counting)
        scaffold = algorithm == "scaffold"
        rows = [engine._Row(view, cfg, w_t, (c, c_i) if scaffold else None)
                for view, c_i in zip(views, c_is)]
        results = train_cohort(rows, objective)
        assert depths == [(2,), (), ()] * 2
        for view, (update, _), c_i in zip(views, results, c_is):
            final, tau, mean_loss, diverged = reference_local_loop(
                w_t, view, cfg, 0, objective, prox_mu=cfg.mu or 0.0,
                correction=c - c_i if scaffold else None)
            assert (update.tau, update.diverged) == (tau, diverged) == (2, False)
            assert update.train_loss == mean_loss
            assert update.final_params.tobytes() == final.tobytes()

    def test_one_cells_cohorts_split_at_the_cap(self):
        source, labels = np.zeros((8, 3)), np.zeros(8, dtype=int)
        views = [PartyView(p, [p], source, labels) for p in range(8)]
        cfg = FedRunConfig(algorithm="fedavg", n_parties=8)
        per_party = engine.COHORT_BYTES // 8 // 3  # three parties fit
        assert engine._row_cohorts(range(8), views, [cfg], per_party, True) == [
            [(0, 0), (1, 0), (2, 0)], [(3, 0), (4, 0), (5, 0)], [(6, 0), (7, 0)]]
        assert engine._row_cohorts([1, 4, 6, 7], views, [cfg], per_party, True) == [
            [(1, 0), (4, 0), (6, 0)], [(7, 0)]]
        assert engine._row_cohorts([1, 4, 6], views, [cfg], per_party, False) == [
            [(1, 0)], [(4, 0)], [(6, 0)]]


class TestZeroRowParty:
    """A party that holds no rows takes no step, alone or in a stacked
    cohort: it hands back the global model bit for bit, with tau 1, a nan
    loss and no divergence flag."""

    ARCH = MlpArch((3, 4, 2))

    def _setup(self, algorithm):
        rng_ = np.random.default_rng(13)
        source = rng_.standard_normal((9, self.ARCH.in_dim))
        labels = rng_.integers(0, self.ARCH.out_dim, 9)
        rows = [np.arange(5), np.arange(0), np.arange(5, 9)]
        views = [PartyView(p, r, source, labels) for p, r in enumerate(rows)]
        cfg = FedRunConfig(
            algorithm=algorithm, rounds=1, n_parties=3, local_epochs=2, batch_size=2,
            local_lr=0.05, momentum=0.9, prox_mu=0.1, master_seed=13,
        )
        w_t = _read_only_copy(MlpObjective(self.ARCH).init_params(13))
        c = _read_only_copy(0.01 * rng_.standard_normal(len(w_t)))
        c_is = tuple(_read_only_copy(0.01 * rng_.standard_normal(len(w_t))) for _ in views)
        return views, cfg, w_t, c, c_is

    def _check(self, update, w_t):
        assert update.final_params.tobytes() == w_t.tobytes()
        assert (update.tau, update.n_samples) == (1, 0)
        assert np.isnan(update.train_loss)
        assert not update.diverged

    def test_alone(self):
        views, cfg, w_t, c, c_is = self._setup("fedprox")
        objective = MlpObjective(self.ARCH)
        self._check(local_train_sgd(w_t, views[1], cfg, 0, objective), w_t)
        cfg = replace(cfg, algorithm="scaffold")
        update, new_control = local_train_scaffold(
            w_t, c, c_is[1], views[1], cfg, 0, objective)
        self._check(update, w_t)
        refreshed = c_is[1] - c + (1.0 / cfg.local_lr) * (w_t - w_t)
        assert new_control.tobytes() == refreshed.tobytes()
        assert update.delta_control.tobytes() == (refreshed - c_is[1]).tobytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_in_stacked_cohort(self, algorithm):
        views, cfg, w_t, c, c_is = self._setup(algorithm)
        objective = MlpObjective(self.ARCH)
        assert engine._row_cohorts(range(3), views, [cfg], len(w_t), True) == [
            [(0, 0), (1, 0), (2, 0)]]
        state = GlobalState(w_t, c, c_is) if algorithm == "scaffold" else GlobalState(w_t)
        _, updates, _ = run_round(state, views, cfg, 0, objective)
        self._check(updates[1], w_t)
        assert [u.tau for u in updates] == [6, 1, 4]
        if algorithm == "scaffold":
            refreshed = c_is[1] - c + (1.0 / cfg.local_lr) * (w_t - w_t)
            assert updates[1].delta_control.tobytes() == (refreshed - c_is[1]).tobytes()


def _read_only_copy(array):
    array = np.array(array)
    array.setflags(write=False)
    return array


class TestRunExperiment:
    def _fcube(self, n=400):
        return fcube_generate(n, 100, seed=21)

    def _cfg(self, **kw):
        base = dict(
            algorithm="fedavg", rounds=3, n_parties=4, local_epochs=2,
            batch_size=32, local_lr=0.05, momentum=0.9, master_seed=17,
        )
        base.update(kw)
        return FedRunConfig(**base)

    def test_zero_rounds_single_record(self):
        train, test = self._fcube()
        records = run_experiment(
            train, test, PartitionSpec("iid"), MlpArch((3, 4, 2)), self._cfg(rounds=0)
        )
        assert len(records) == 1
        assert records[0].round == 0
        assert records[0].bytes == 0
        assert records[0].mean_train_loss is None

    @pytest.mark.parametrize("algorithm", ["fedavg", "scaffold"])
    def test_previous_round_updates_released(self, monkeypatch, algorithm):
        # Only one round of party models may be alive: when a round starts,
        # nothing may still hold the models the previous round returned.
        train, test = self._fcube()
        alive, rounds = [], []
        real_run_round = engine.run_round

        def tracking_run_round(state, views, cfg, round_idx, objective, **kwargs):
            gc.collect()
            assert not [ref for ref in alive if ref() is not None]
            new_state, updates, n_bytes = real_run_round(
                state, views, cfg, round_idx, objective, **kwargs
            )
            for update in updates:
                alive.append(weakref.ref(update.final_params))
            rounds.append(round_idx)
            return new_state, updates, n_bytes

        monkeypatch.setattr(engine, "run_round", tracking_run_round)
        run_experiment(
            train, test, PartitionSpec("iid"), MlpArch((3, 4, 2)),
            self._cfg(algorithm=algorithm),
        )
        assert rounds == [0, 1, 2]
        assert len(alive) == 3 * 4

    def test_trainer_lives_for_one_run(self, monkeypatch):
        # Every round of a run trains on one LocalTrainer, which fits
        # itself to the run's largest cohort (2 of 4 parties sampled) in its
        # first round, and it is freed, without waiting for the cycle
        # collector, when run_experiment returns: a sweep holds one run's
        # trainer at a time. A second run on the same objective gets its
        # own and the same records.
        train, test = self._fcube()
        arch = MlpArch((3, 4, 2))
        objective = MlpObjective(arch)
        cfg = self._cfg(algorithm="scaffold", sample_fraction=0.5)
        real_run_round = engine.run_round
        refs = []

        def tracking_run_round(*args, trainer, **kwargs):
            assert not refs or refs[0]() is trainer
            assert trainer.objective is objective
            refs.append(weakref.ref(trainer))
            outcome = real_run_round(*args, trainer=trainer, **kwargs)
            assert trainer.params.shape == (2, arch.n_params())
            return outcome

        monkeypatch.setattr(engine, "run_round", tracking_run_round)
        runs = []
        for _ in range(2):
            records = run_experiment(train, test, PartitionSpec("iid"), arch, cfg, objective)
            assert len(refs) == cfg.rounds and refs[0]() is None
            refs.clear()
            runs.append([replace(record, wall_ms=0) for record in records])
        assert runs[0] == runs[1]

    def test_record_count_and_fields(self):
        train, test = self._fcube()
        records = run_experiment(
            train, test, PartitionSpec("iid"), MlpArch((3, 4, 2)), self._cfg()
        )
        assert len(records) == 4
        for r in records[1:]:
            assert r.bytes > 0
            assert 0.0 <= r.test_accuracy <= 1.0
            assert np.isfinite(r.mean_train_loss)

    def test_fedprox_mu_zero_equals_fedavg_bitwise_accuracy(self):
        train, test = self._fcube()
        arch = MlpArch((3, 8, 2))
        a = run_experiment(train, test, PartitionSpec("iid"), arch, self._cfg())
        b = run_experiment(
            train, test, PartitionSpec("iid"), arch,
            self._cfg(algorithm="fedprox", prox_mu=0.0),
        )
        assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]
        assert [r.mean_train_loss for r in a[1:]] == [r.mean_train_loss for r in b[1:]]

    def test_single_party_equals_centralized_sgd_bitwise(self):
        # N=1 with server_lr 1: T rounds must reproduce T*E epochs of plain
        # minibatch SGD with the velocity reset at each round boundary.
        train, test = self._fcube()
        arch = MlpArch((3, 6, 2))
        objective = MlpObjective(arch)
        for algorithm in ("fedavg", "fedprox", "fednova"):
            cfg = self._cfg(algorithm=algorithm, n_parties=1, rounds=3, prox_mu=0.0)
            records = run_experiment(train, test, PartitionSpec("iid"), arch, cfg)

            params = objective.init_params(rng.derive_seed(cfg.master_seed, rng.TAG_INIT))
            pmap, views = build_views(
                train, PartitionSpec("iid"), 1,
                rng.derive_seed(cfg.master_seed, rng.TAG_PARTITION),
            )
            view = views[0]
            for round_idx in range(cfg.rounds):
                generator = rng.stream(cfg.master_seed, rng.TAG_LOCAL, round_idx, 0)
                velocity = np.zeros_like(params)
                for _ in range(cfg.local_epochs):
                    perm = generator.permutation(view.n_samples)
                    for start in range(0, view.n_samples, cfg.batch_size):
                        batch_idx = perm[start : start + cfg.batch_size]
                        _, grad = backward(
                            params, arch, view.features[batch_idx], view.labels[batch_idx]
                        )
                        velocity = cfg.momentum * velocity + grad
                        params = params - cfg.local_lr * velocity
            centralized_accuracy = objective.accuracy(params, test)
            assert records[-1].test_accuracy == centralized_accuracy

    def test_zero_gradient_objective_keeps_model_fixed(self):
        # If every local delta is zero the global model must not move, for
        # any algorithm.
        train, test = self._fcube(n=64)

        class FrozenObjective(QuadraticObjective):
            def __init__(self):
                super().__init__(0.0)

            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                return 0.5, np.zeros(len(params))

            def init_params(self, seed):
                return flat(1.25)

            def accuracy(self, params, dataset):
                return float(params[0])

        for algorithm in ("fedavg", "fedprox", "scaffold", "fednova"):
            cfg = self._cfg(algorithm=algorithm, rounds=2, n_parties=4)
            records = run_experiment(
                train, test, PartitionSpec("iid"), MlpArch((3, 2)), cfg,
                objective=FrozenObjective(),
            )
            assert [r.test_accuracy for r in records] == [1.25, 1.25, 1.25]

    def test_divergence_is_flagged_not_fatal(self):
        train, test = self._fcube(n=64)

        class BlowUpObjective(QuadraticObjective):
            def __init__(self):
                super().__init__(0.0)

            def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
                return float("nan"), np.zeros(len(params))

            def init_params(self, seed):
                return flat(2.0)

            def accuracy(self, params, dataset):
                return 0.5

        cfg = self._cfg(rounds=2)
        records = run_experiment(
            train, test, PartitionSpec("iid"), MlpArch((3, 2)), cfg,
            objective=BlowUpObjective(),
        )
        assert len(records) == 3
        assert all(r.diverged for r in records[1:])


class TestRunGroup:
    def test_cells_must_differ_only_in_algorithm_mu_and_epochs(self, monkeypatch):
        train, test = fcube_generate(64, 16, seed=1)
        cfg = FedRunConfig(algorithm="fedavg", rounds=1, n_parties=2, local_epochs=1,
                           batch_size=16, master_seed=0)
        same = [replace(cfg, algorithm="fedprox", prox_mu=0.5, local_epochs=3)]
        for other in (replace(cfg, batch_size=8), replace(cfg, master_seed=1)):
            monkeypatch.setattr(engine, "build_views", None)  # any call would raise
            with pytest.raises(ConfigError, match="differ at most in"):
                engine.run_group(train, test, PartitionSpec("iid"), MlpArch((3, 2)),
                                 [cfg, *same, other])
            monkeypatch.undo()
        records = engine.run_group(train, test, PartitionSpec("iid"), MlpArch((3, 2)),
                                   [cfg, *same])
        assert [len(cell_records) for cell_records in records] == [2, 2]

    def test_a_group_with_no_cells_is_refused(self):
        train, test = fcube_generate(64, 16, seed=1)
        with pytest.raises(ConfigError, match="at least one cell"):
            engine.run_group(train, test, PartitionSpec("iid"), MlpArch((3, 2)), [])


class TestRunExperimentChecks:
    def _cfg(self):
        return FedRunConfig(algorithm="fedavg", rounds=1, n_parties=2, local_epochs=1,
                            batch_size=16, master_seed=0)

    def test_feature_width_checked_once_with_shape_error(self):
        train, test = fcube_generate(64, 16, seed=1)
        with pytest.raises(ShapeError, match="architecture input"):
            run_experiment(train, test, PartitionSpec("iid"), MlpArch((4, 2)), self._cfg())

    def test_label_range_checked_with_data_error(self):
        train, test = fcube_generate(64, 16, seed=1)
        # fcube has two classes; a one-output net cannot hold label 1.
        with pytest.raises(DataError, match="label out of range"):
            run_experiment(train, test, PartitionSpec("iid"), MlpArch((3, 1)), self._cfg())

    @pytest.mark.parametrize(
        "test_set, error, message",
        [
            (LabeledDataset(np.zeros((4, 4)), [0, 1, 0, 1], 2), ShapeError,
             "test features have width 4, architecture input is 3"),
            (LabeledDataset(np.zeros((4, 3)), [0, 4, 3, 1], 5), DataError,
             "test set: label out of range [0, 2): min=0, max=4"),
        ],
    )
    def test_test_set_checked_before_partitioning(self, test_set, error, message, monkeypatch):
        train, _ = fcube_generate(64, 16, seed=1)
        monkeypatch.setattr(engine, "build_views", None)  # any call would raise
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(train, test_set, PartitionSpec("iid"), MlpArch((3, 2)), self._cfg())

    def test_empty_test_set_refused_before_partitioning(self, monkeypatch):
        train, _ = fcube_generate(64, 16, seed=1)
        empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        monkeypatch.setattr(engine, "build_views", None)  # any call would raise
        with pytest.raises(DataError, match="^test set is empty"):
            run_experiment(train, empty, PartitionSpec("iid"), MlpArch((3, 2)), self._cfg())


class TestServerOverflow:
    def test_non_finite_aggregate_keeps_model_and_flags_round(self):
        train, test = fcube_generate(128, 32, seed=4)
        arch = MlpArch((3, 4, 2))
        for algorithm in ("fedavg", "fednova", "scaffold"):
            cfg = FedRunConfig(
                algorithm=algorithm, rounds=2, n_parties=2, local_epochs=1,
                batch_size=32, server_lr=1.7e308, master_seed=4,
            )
            objective = MlpObjective(arch)
            _, views = build_views(train, PartitionSpec("iid"), 2, 4)
            params = objective.init_params(4)
            control = np.zeros_like(params) if algorithm == "scaffold" else None
            client_controls = None if control is None else (control, control)
            state = GlobalState(params, control, client_controls)
            new, updates, n_bytes = run_round(state, views, cfg, 0, objective)
            assert new.diverged
            assert new.params is params and new.control is control
            assert new.client_controls is client_controls
            assert n_bytes == round_bytes(2, len(params), algorithm)
            assert not any(u.diverged for u in updates)
            records = run_experiment(train, test, PartitionSpec("iid"), arch, cfg)
            assert len(records) == 3
            assert all(r.diverged for r in records[1:])
            assert records[1].test_accuracy == records[0].test_accuracy


class OverflowingControl(QuadraticObjective):
    """Zero gradients, so every party returns the global model, but a
    full-data gradient of 1e308: two parties' control deltas sum to inf."""

    def __init__(self):
        super().__init__(0.0)

    def loss_grad(self, params, features, labels, prox_mu=0.0, prox_anchor=None):
        return 0.0, np.zeros_like(params)

    def full_grad(self, params, features, labels):
        return np.full_like(params, 1e308)


class TestServerControlOverflow:
    def test_round_keeps_model_and_controls_and_flags_divergence(self):
        train, _ = fcube_generate(64, 16, seed=6)
        _, views = build_views(train, PartitionSpec("iid"), 2, 6)
        cfg = FedRunConfig(
            algorithm="scaffold", rounds=1, n_parties=2, local_epochs=1, batch_size=16,
            scaffold_c_option="i", master_seed=6,
        )
        params, control = flat(0.5, -0.25), np.zeros(2)
        client_controls = (np.zeros(2), np.zeros(2))
        state = GlobalState(params, control, client_controls)
        new, updates, _ = run_round(state, views, cfg, 0, OverflowingControl())
        # The parties and the parameter aggregate are finite; only the
        # server control c + (1e308 + 1e308) / 2 overflows.
        assert not any(u.diverged for u in updates)
        assert all(u.delta_control.tolist() == [1e308, 1e308] for u in updates)
        assert new.diverged
        assert new.params is params and new.control is control
        assert all(c is kept for c, kept in zip(new.client_controls, client_controls))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="sgd")
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", rounds=-1)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", momentum=1.0)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", local_lr=0.0)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", sample_fraction=0.0)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", n_parties=20, sample_fraction=0.01)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="scaffold", scaffold_c_option="iii")
        with pytest.raises(ConfigError, match="prox_mu"):
            FedRunConfig(algorithm="fedprox", prox_mu=float("nan"))

    def test_round_bytes_formula(self):
        assert round_bytes(3, 100, "fedavg") == 3 * 2 * 8 * 100
        assert round_bytes(3, 100, "scaffold") == 3 * 4 * 8 * 100
