import math

import numpy as np
import pytest

from fedsim.errors import ConfigError, DataError, NumericError, ShapeError
from fedsim.nn import (
    Batch,
    MlpArch,
    ParamVector,
    backward,
    cross_entropy_loss,
    finite_diff_grad,
    forward,
    init_mlp,
    momentum_update,
    predict_accuracy,
    sgd_momentum_step,
    zeros_like,
)


def rel_error(a, b):
    gap = np.abs(a - b)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((gap / scale).max())


class TestArchAndParams:
    def test_param_count_matches_shape_arithmetic(self):
        arch = MlpArch((784, 120, 84, 10))
        expected = 784 * 120 + 120 + 120 * 84 + 84 + 84 * 10 + 10
        assert expected == 105214
        assert arch.n_params() == expected
        assert len(init_mlp(arch, 0)) == expected

    def test_rejects_degenerate_arch(self):
        with pytest.raises(ConfigError):
            MlpArch((5,))
        with pytest.raises(ConfigError):
            MlpArch((5, 0, 2))

    def test_param_vector_rejects_bad_length_and_nan(self):
        with pytest.raises(ShapeError):
            ParamVector(np.zeros(5), ((2, 2),))
        with pytest.raises(NumericError):
            ParamVector(np.array([1.0, np.nan]), (2,))

    def test_param_vector_is_immutable(self):
        p = ParamVector(np.ones(3), (3,))
        with pytest.raises(ValueError):
            p.values[0] = 2.0


class TestInit:
    def test_biases_exactly_zero(self):
        params = init_mlp(MlpArch((3, 2)), seed=7)
        weight, bias = params.split()
        assert np.all(bias == 0.0)
        assert weight.shape == (3, 2)

    def test_same_seed_bit_identical(self):
        a = init_mlp(MlpArch((3, 2)), seed=123)
        b = init_mlp(MlpArch((3, 2)), seed=123)
        assert a.values.tobytes() == b.values.tobytes()

    def test_weights_within_glorot_bound(self):
        arch = MlpArch((10, 4))
        weight, _ = init_mlp(arch, seed=0).split()
        bound = math.sqrt(6.0 / (10 + 4))
        assert np.all(np.abs(weight) <= bound)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        arch = MlpArch((3, 4, 2))
        params = ParamVector.zeros(arch.param_shapes())
        logits = forward(params, arch, Batch(np.random.default_rng(0).normal(size=(5, 3)), [0] * 5))
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        arch = MlpArch((3, 3))
        params = ParamVector(
            np.concatenate([np.eye(3).reshape(-1), np.zeros(3)]), arch.param_shapes()
        )
        x = np.array([[0.5, -1.5, 2.0]])
        logits = forward(params, arch, Batch(x, [0]))
        assert np.array_equal(logits, x)

    def test_two_layer_hand_computation(self):
        # One sample through [2 -> 2 -> 2]; expected values worked out with
        # scalar arithmetic, not matrix code.
        arch = MlpArch((2, 2, 2))
        w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[0.5, 1.0], [-1.0, 2.0]])
        b2 = np.array([0.0, 1.0])
        params = ParamVector(
            np.concatenate([w1.reshape(-1), b1, w2.reshape(-1), b2]),
            arch.param_shapes(),
        )
        x1, x2 = 1.0, 2.0
        z1 = x1 * 1.0 + x2 * 2.0 + 0.1  # 5.1
        z2 = x1 * -1.0 + x2 * 0.5 + -0.2  # -0.2
        h1, h2 = max(z1, 0.0), max(z2, 0.0)  # 5.1, 0.0
        out1 = h1 * 0.5 + h2 * -1.0 + 0.0  # 2.55
        out2 = h1 * 1.0 + h2 * 2.0 + 1.0  # 6.1
        logits = forward(params, arch, Batch(np.array([[x1, x2]]), [0]))
        assert logits[0] == pytest.approx([out1, out2], abs=1e-12)

    def test_dimension_mismatch(self):
        arch = MlpArch((3, 2))
        params = init_mlp(arch, 0)
        with pytest.raises(ShapeError):
            forward(params, arch, Batch(np.zeros((2, 4)), [0, 1]))

    def test_forward_is_pure(self):
        arch = MlpArch((4, 3, 2))
        params = init_mlp(arch, 3)
        batch = Batch(np.random.default_rng(1).normal(size=(6, 4)), [0, 1] * 3)
        a = forward(params, arch, batch)
        b = forward(params, arch, batch)
        assert a.tobytes() == b.tobytes()


class TestCrossEntropy:
    def test_uniform_softmax_is_log_n_classes(self):
        loss = cross_entropy_loss(np.zeros((7, 10)), [3] * 7)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_saturated_correct_logit_is_near_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        assert cross_entropy_loss(logits, [2]) < 1e-9

    def test_two_class_closed_form(self):
        # softmax cross-entropy of logits [1, 2] with label 1 is ln(1 + e^-1)
        loss = cross_entropy_loss(np.array([[1.0, 2.0]]), [1])
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            cross_entropy_loss(np.zeros((2, 3)), [0, 3])

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(size=(4, 6)) * rng.uniform(0.1, 50)
            labels = rng.integers(0, 6, size=4)
            assert cross_entropy_loss(logits, labels) >= 0.0


class TestBackward:
    def test_mu_zero_bit_identical_to_plain(self):
        arch = MlpArch((4, 3, 2))
        params = init_mlp(arch, 9)
        anchor = init_mlp(arch, 10)
        batch = Batch(np.random.default_rng(2).normal(size=(5, 4)), [0, 1, 1, 0, 1])
        loss_a, grad_a = backward(params, arch, batch)
        loss_b, grad_b = backward(params, arch, batch, prox_mu=0.0, prox_anchor=anchor)
        assert loss_a == loss_b
        assert grad_a.values.tobytes() == grad_b.values.tobytes()

    def test_anchor_at_params_contributes_nothing(self):
        arch = MlpArch((4, 3, 2))
        params = init_mlp(arch, 9)
        batch = Batch(np.random.default_rng(2).normal(size=(5, 4)), [0, 1, 1, 0, 1])
        loss_plain, grad_plain = backward(params, arch, batch)
        loss_prox, grad_prox = backward(params, arch, batch, prox_mu=1.0, prox_anchor=params)
        assert loss_prox == loss_plain
        assert np.array_equal(grad_prox.values, grad_plain.values)

    def test_proximal_gradient_value(self):
        arch = MlpArch((2, 2))
        params = init_mlp(arch, 1)
        anchor = zeros_like(params)
        batch = Batch(np.array([[1.0, -1.0]]), [0])
        mu = 0.7
        _, grad_plain = backward(params, arch, batch)
        loss_plain, _ = backward(params, arch, batch)
        loss_prox, grad_prox = backward(params, arch, batch, prox_mu=mu, prox_anchor=anchor)
        assert grad_prox.values == pytest.approx(grad_plain.values + mu * params.values)
        assert loss_prox == pytest.approx(
            loss_plain + 0.5 * mu * float(params.values @ params.values)
        )

    def test_missing_anchor_rejected(self):
        arch = MlpArch((2, 2))
        params = init_mlp(arch, 1)
        batch = Batch(np.array([[1.0, -1.0]]), [0])
        with pytest.raises(ShapeError):
            backward(params, arch, batch, prox_mu=0.5)

    def test_matches_finite_differences_on_random_nets(self):
        for case in range(10):
            rng = np.random.default_rng(100 + case)
            arch = MlpArch((3, 5, 4, 2))
            params = init_mlp(arch, case)
            params = params.with_values(params.values + 0.1 * rng.standard_normal(len(params)))
            batch = Batch(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4))
            _, grad = backward(params, arch, batch)
            numeric = finite_diff_grad(params, arch, batch, 1e-5)
            assert rel_error(grad.values, numeric.values) < 1e-4

    def test_single_full_batch_step_never_increases_convex_loss(self):
        # Single-layer softmax is convex; a small step must descend.
        arch = MlpArch((4, 3))
        for case in range(20):
            rng = np.random.default_rng(200 + case)
            params = init_mlp(arch, case).with_values(
                rng.normal(scale=0.5, size=arch.n_params())
            )
            batch = Batch(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8))
            loss_before, grad = backward(params, arch, batch)
            stepped, _ = sgd_momentum_step(params, grad, zeros_like(params), 1e-3, 0.0)
            loss_after, _ = backward(stepped, arch, batch)
            assert loss_after <= loss_before + 1e-12


class TestSgdMomentum:
    def test_momentum_zero_is_plain_sgd(self):
        params = ParamVector(np.array([1.0, -2.0]), (2,))
        grad = ParamVector(np.array([0.5, 0.25]), (2,))
        new_params, _ = sgd_momentum_step(params, grad, zeros_like(params), 0.1, 0.0)
        assert np.array_equal(new_params.values, params.values - 0.1 * grad.values)

    def test_zero_gradient_is_fixed_point(self):
        params = ParamVector(np.array([3.0, 4.0]), (2,))
        new_params, new_velocity = sgd_momentum_step(
            params, zeros_like(params), zeros_like(params), 0.1, 0.9
        )
        assert np.array_equal(new_params.values, params.values)
        assert np.all(new_velocity.values == 0.0)

    def test_two_step_hand_recurrence(self):
        # w0=1, g=1, lr=0.1, momentum=0.9: w1 = 0.9, w2 = 0.9 - 0.19 = 0.71
        params = ParamVector(np.array([1.0]), (1,))
        grad = ParamVector(np.array([1.0]), (1,))
        velocity = zeros_like(params)
        params, velocity = sgd_momentum_step(params, grad, velocity, 0.1, 0.9)
        assert params.values[0] == pytest.approx(0.9, abs=1e-15)
        params, velocity = sgd_momentum_step(params, grad, velocity, 0.1, 0.9)
        assert params.values[0] == pytest.approx(0.71, abs=1e-15)

    def test_invalid_hyperparameters(self):
        params = ParamVector(np.array([1.0]), (1,))
        with pytest.raises(ConfigError):
            sgd_momentum_step(params, params, params, -0.1, 0.0)
        with pytest.raises(ConfigError):
            sgd_momentum_step(params, params, params, 0.1, 1.0)

    def test_step_matches_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(31)
        params, grad, velocity = (
            ParamVector(rng.normal(size=50), ((5, 10),)) for _ in range(3)
        )
        new_params, new_velocity = sgd_momentum_step(params, grad, velocity, 0.05, 0.9)
        expected_velocity = 0.9 * velocity.values + grad.values
        assert new_velocity.values.tobytes() == expected_velocity.tobytes()
        assert new_params.values.tobytes() == (
            params.values - 0.05 * expected_velocity
        ).tobytes()


class TestMomentumUpdate:
    def test_in_place_contract_matches_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(32)
        w, grad, velocity = (rng.normal(size=1000) * 10.0 ** rng.integers(-6, 6, 1000)
                             for _ in range(3))
        w_before, grad_before, velocity_before = w.copy(), grad.copy(), velocity.copy()
        out = np.full(1000, np.nan)
        assert momentum_update(w, grad, velocity, 0.05, 0.9, out) is None
        expected_velocity = 0.9 * velocity_before + grad_before
        expected_w = w_before - 0.05 * expected_velocity
        assert velocity.view(np.int64).tolist() == expected_velocity.view(np.int64).tolist()
        assert out.view(np.int64).tolist() == expected_w.view(np.int64).tolist()
        assert w.tobytes() == w_before.tobytes()
        assert grad.tobytes() == grad_before.tobytes()

    def test_repeated_steps_track_the_recurrence(self):
        # The buffers carry state from step to step: w0=1, g=1, lr=0.1,
        # momentum=0.9 gives w1 = 0.9, w2 = 0.71 (as sgd_momentum_step).
        w, velocity, out = np.array([1.0]), np.zeros(1), np.empty(1)
        grad = np.array([1.0])
        momentum_update(w, grad, velocity, 0.1, 0.9, out)
        w, out = out, w
        momentum_update(w, grad, velocity, 0.1, 0.9, out)
        assert out[0] == pytest.approx(0.71, abs=1e-15)
        assert velocity[0] == pytest.approx(1.9, abs=1e-15)


class _TinySet:
    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels)


class TestAccuracy:
    def test_perfect_predictions(self):
        arch = MlpArch((2, 2))
        params = ParamVector(
            np.concatenate([np.eye(2).reshape(-1), np.zeros(2)]), arch.param_shapes()
        )
        ds = _TinySet([[5.0, 0.0], [0.0, 5.0]], [0, 1])
        assert predict_accuracy(params, arch, ds) == 1.0

    def test_zero_params_tie_break_to_class_zero(self):
        arch = MlpArch((3, 10))
        params = ParamVector.zeros(arch.param_shapes())
        labels = np.repeat(np.arange(10), 4)
        ds = _TinySet(np.random.default_rng(0).normal(size=(40, 3)), labels)
        # Constant class-0 predictor scores exactly the class-0 frequency.
        assert predict_accuracy(params, arch, ds) == pytest.approx(0.1)

    def test_hand_counted_two_of_three(self):
        arch = MlpArch((2, 2))
        params = ParamVector(
            np.concatenate([np.eye(2).reshape(-1), np.zeros(2)]), arch.param_shapes()
        )
        ds = _TinySet([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 1])
        assert predict_accuracy(params, arch, ds) == pytest.approx(2.0 / 3.0)

    def test_empty_dataset_rejected(self):
        arch = MlpArch((2, 2))
        params = ParamVector.zeros(arch.param_shapes())
        with pytest.raises(DataError):
            predict_accuracy(params, arch, _TinySet(np.zeros((0, 2)), []))


class TestFiniteDiff:
    def test_matches_analytic_softmax_derivative(self):
        # d/dw of ln(1 + exp(-(w*x))) for 2-class logits [w*x, 0], label 0:
        # derivative wrt w is -x * sigmoid(-w*x).
        arch = MlpArch((1, 2))
        w = 0.8
        x = 1.3
        params = ParamVector(np.array([w, 0.0, 0.0, 0.0]), arch.param_shapes())
        batch = Batch(np.array([[x]]), [0])
        numeric = finite_diff_grad(params, arch, batch, 1e-5)
        analytic = -x * (1.0 / (1.0 + math.exp(w * x)))
        assert numeric.values[0] == pytest.approx(analytic, abs=1e-6)

    def test_near_zero_at_saturated_optimum(self):
        arch = MlpArch((1, 2))
        params = ParamVector(np.array([1000.0, -1000.0, 0.0, 0.0]), arch.param_shapes())
        batch = Batch(np.array([[1.0]]), [0])
        numeric = finite_diff_grad(params, arch, batch, 1e-5)
        assert np.all(np.abs(numeric.values) < 1e-9)

    def test_agrees_with_backward(self):
        rng = np.random.default_rng(77)
        arch = MlpArch((4, 6, 3))
        params = init_mlp(arch, 9).with_values(
            init_mlp(arch, 9).values + 0.05 * rng.standard_normal(arch.n_params())
        )
        batch = Batch(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        _, grad = backward(params, arch, batch)
        numeric = finite_diff_grad(params, arch, batch, 1e-5)
        assert rel_error(grad.values, numeric.values) < 1e-4

    def test_rejects_nonpositive_step(self):
        arch = MlpArch((1, 2))
        params = ParamVector.zeros(arch.param_shapes())
        with pytest.raises(ConfigError):
            finite_diff_grad(params, arch, Batch(np.array([[1.0]]), [0]), 0.0)
