import math

import numpy as np
import pytest

from fedsim.engine import FedRunConfig
from fedsim.errors import ConfigError, DataError, NumericError, ShapeError
from fedsim.nn import (
    MlpArch,
    backward,
    cross_entropy_loss,
    finite_diff_grad,
    forward,
    init_mlp,
    layer_slices,
    momentum_update,
    predict_accuracy,
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

    def test_layer_slices_tile_the_vector(self):
        # Each layer's weight block is followed by its bias, with no gaps.
        arch = MlpArch((4, 3, 2))
        assert layer_slices(arch) == ((0, 12, (4, 3), 15), (15, 21, (3, 2), 23))
        assert arch.n_params() == 23


class TestInit:
    def test_biases_exactly_zero(self):
        arch = MlpArch((3, 2))
        params = init_mlp(arch, seed=7)
        ((start, stop, shape, bias_stop),) = layer_slices(arch)
        assert params.shape == (bias_stop,) and shape == (3, 2)
        assert np.all(params[stop:bias_stop] == 0.0)
        assert np.all(params[start:stop] != 0.0)

    def test_same_seed_bit_identical(self):
        a = init_mlp(MlpArch((3, 2)), seed=123)
        b = init_mlp(MlpArch((3, 2)), seed=123)
        assert a.tobytes() == b.tobytes()

    def test_weights_within_glorot_bound(self):
        arch = MlpArch((10, 4))
        weight = init_mlp(arch, seed=0)[:40]
        bound = math.sqrt(6.0 / (10 + 4))
        assert np.all(np.abs(weight) <= bound)

    def test_model_is_read_only_float64(self):
        params = init_mlp(MlpArch((3, 4, 2)), seed=1)
        assert params.dtype == np.float64 and params.ndim == 1
        with pytest.raises(ValueError):
            params[0] = 2.0


class TestForward:
    def test_zero_params_give_zero_logits(self):
        arch = MlpArch((3, 4, 2))
        params = np.zeros(arch.n_params())
        logits = forward(params, arch, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        arch = MlpArch((3, 3))
        params = np.concatenate([np.eye(3).reshape(-1), np.zeros(3)])
        x = np.array([[0.5, -1.5, 2.0]])
        logits = forward(params, arch, x)
        assert np.array_equal(logits, x)

    def test_two_layer_hand_computation(self):
        # One sample through [2 -> 2 -> 2]; expected values worked out with
        # scalar arithmetic, not matrix code.
        arch = MlpArch((2, 2, 2))
        w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[0.5, 1.0], [-1.0, 2.0]])
        b2 = np.array([0.0, 1.0])
        params = np.concatenate([w1.reshape(-1), b1, w2.reshape(-1), b2])
        x1, x2 = 1.0, 2.0
        z1 = x1 * 1.0 + x2 * 2.0 + 0.1  # 5.1
        z2 = x1 * -1.0 + x2 * 0.5 + -0.2  # -0.2
        h1, h2 = max(z1, 0.0), max(z2, 0.0)  # 5.1, 0.0
        out1 = h1 * 0.5 + h2 * -1.0 + 0.0  # 2.55
        out2 = h1 * 1.0 + h2 * 2.0 + 1.0  # 6.1
        logits = forward(params, arch, np.array([[x1, x2]]))
        assert logits[0] == pytest.approx([out1, out2], abs=1e-12)

    def test_dimension_mismatch(self):
        arch = MlpArch((3, 2))
        params = init_mlp(arch, 0)
        with pytest.raises(ShapeError):
            forward(params, arch, np.zeros((2, 4)))

    def test_rejects_bad_length_and_non_finite_params(self):
        arch = MlpArch((2, 2))
        x, labels = np.zeros((1, 2)), [0]
        short = np.zeros(arch.n_params() - 1)
        with_nan = np.zeros(arch.n_params())
        with_nan[1] = np.nan
        with pytest.raises(ShapeError):
            forward(short, arch, x)
        with pytest.raises(ShapeError):
            backward(short, arch, x, labels)
        with pytest.raises(ShapeError):
            backward(np.zeros((2, 3)), arch, x, labels)
        with pytest.raises(NumericError):
            forward(with_nan, arch, x)
        with pytest.raises(NumericError):
            backward(with_nan, arch, x, labels)
        with pytest.raises(NumericError):
            backward(np.zeros(arch.n_params()), arch, x, labels, prox_mu=0.5, anchor=with_nan)

    def test_forward_is_pure(self):
        arch = MlpArch((4, 3, 2))
        params = init_mlp(arch, 3)
        features = np.random.default_rng(1).normal(size=(6, 4))
        a = forward(params, arch, features)
        b = forward(params, arch, features)
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
        features, labels = np.random.default_rng(2).normal(size=(5, 4)), [0, 1, 1, 0, 1]
        loss_a, grad_a = backward(params, arch, features, labels)
        loss_b, grad_b = backward(params, arch, features, labels, prox_mu=0.0, anchor=anchor)
        assert loss_a == loss_b
        assert grad_a.tobytes() == grad_b.tobytes()

    def test_anchor_at_params_contributes_nothing(self):
        arch = MlpArch((4, 3, 2))
        params = init_mlp(arch, 9)
        features, labels = np.random.default_rng(2).normal(size=(5, 4)), [0, 1, 1, 0, 1]
        loss_plain, grad_plain = backward(params, arch, features, labels)
        loss_prox, grad_prox = backward(
            params, arch, features, labels, prox_mu=1.0, anchor=params
        )
        assert loss_prox == loss_plain
        assert np.array_equal(grad_prox, grad_plain)

    def test_proximal_gradient_value(self):
        arch = MlpArch((2, 2))
        params = init_mlp(arch, 1)
        anchor = np.zeros_like(params)
        features, labels = np.array([[1.0, -1.0]]), [0]
        mu = 0.7
        loss_plain, grad_plain = backward(params, arch, features, labels)
        loss_prox, grad_prox = backward(
            params, arch, features, labels, prox_mu=mu, anchor=anchor
        )
        assert grad_prox == pytest.approx(grad_plain + mu * params)
        assert loss_prox == pytest.approx(loss_plain + 0.5 * mu * float(params @ params))

    def test_missing_anchor_rejected(self):
        arch = MlpArch((2, 2))
        params = init_mlp(arch, 1)
        with pytest.raises(ShapeError):
            backward(params, arch, np.array([[1.0, -1.0]]), [0], prox_mu=0.5)

    def test_matches_finite_differences_on_random_nets(self):
        for case in range(10):
            rng = np.random.default_rng(100 + case)
            arch = MlpArch((3, 5, 4, 2))
            params = init_mlp(arch, case) + 0.1 * rng.standard_normal(arch.n_params())
            features, labels = rng.normal(size=(4, 3)), rng.integers(0, 2, size=4)
            _, grad = backward(params, arch, features, labels)
            numeric = finite_diff_grad(params, arch, features, labels, 1e-5)
            assert rel_error(grad, numeric) < 1e-4

    def test_single_full_batch_step_never_increases_convex_loss(self):
        # Single-layer softmax is convex; a small step must descend.
        arch = MlpArch((4, 3))
        for case in range(20):
            rng = np.random.default_rng(200 + case)
            params = rng.normal(scale=0.5, size=arch.n_params())
            features, labels = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
            loss_before, grad = backward(params, arch, features, labels)
            stepped = np.empty_like(params)
            momentum_update(params, grad, np.zeros_like(params), 1e-3, 0.0, stepped)
            loss_after, _ = backward(stepped, arch, features, labels)
            assert loss_after <= loss_before + 1e-12


class TestSgdMomentum:
    """Hand cases of the rule v' = momentum*v + g; w' = w - lr*v'."""

    @staticmethod
    def _step(w, grad, velocity, lr, momentum):
        out = np.empty_like(w)
        momentum_update(w, grad, velocity, lr, momentum, out)
        return out

    def test_momentum_zero_is_plain_sgd(self):
        params, grad = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        new_params = self._step(params, grad, np.zeros(2), 0.1, 0.0)
        assert np.array_equal(new_params, params - 0.1 * grad)

    def test_zero_gradient_is_fixed_point(self):
        params, velocity = np.array([3.0, 4.0]), np.zeros(2)
        new_params = self._step(params, np.zeros(2), velocity, 0.1, 0.9)
        assert np.array_equal(new_params, params)
        assert np.all(velocity == 0.0)

    def test_two_step_hand_recurrence(self):
        # w0=1, g=1, lr=0.1, momentum=0.9: w1 = 0.9, w2 = 0.9 - 0.19 = 0.71
        params, grad, velocity = np.array([1.0]), np.array([1.0]), np.zeros(1)
        params = self._step(params, grad, velocity, 0.1, 0.9)
        assert params[0] == pytest.approx(0.9, abs=1e-15)
        params = self._step(params, grad, velocity, 0.1, 0.9)
        assert params[0] == pytest.approx(0.71, abs=1e-15)

    def test_invalid_hyperparameters(self):
        # The step itself is unchecked; its learning rate and momentum are
        # validated once, where a run is configured.
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", local_lr=-0.1, momentum=0.0)
        with pytest.raises(ConfigError):
            FedRunConfig(algorithm="fedavg", local_lr=0.1, momentum=1.0)

    def test_step_matches_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(31)
        params, grad, velocity = (rng.normal(size=50) for _ in range(3))
        velocity_before = velocity.copy()
        new_params = self._step(params, grad, velocity, 0.05, 0.9)
        expected_velocity = 0.9 * velocity_before + grad
        assert velocity.tobytes() == expected_velocity.tobytes()
        assert new_params.tobytes() == (params - 0.05 * expected_velocity).tobytes()


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
        # The buffers carry state from step to step, swapped as the local
        # loop swaps them: w0=1, g=1, lr=0.1, momentum=0.9 gives w2 = 0.71.
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
        params = np.concatenate([np.eye(2).reshape(-1), np.zeros(2)])
        ds = _TinySet([[5.0, 0.0], [0.0, 5.0]], [0, 1])
        assert predict_accuracy(params, arch, ds) == 1.0

    def test_zero_params_tie_break_to_class_zero(self):
        arch = MlpArch((3, 10))
        params = np.zeros(arch.n_params())
        labels = np.repeat(np.arange(10), 4)
        ds = _TinySet(np.random.default_rng(0).normal(size=(40, 3)), labels)
        # Constant class-0 predictor scores exactly the class-0 frequency.
        assert predict_accuracy(params, arch, ds) == pytest.approx(0.1)

    def test_hand_counted_two_of_three(self):
        arch = MlpArch((2, 2))
        params = np.concatenate([np.eye(2).reshape(-1), np.zeros(2)])
        ds = _TinySet([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 1])
        assert predict_accuracy(params, arch, ds) == pytest.approx(2.0 / 3.0)

    def test_empty_dataset_rejected(self):
        arch = MlpArch((2, 2))
        params = np.zeros(arch.n_params())
        with pytest.raises(DataError):
            predict_accuracy(params, arch, _TinySet(np.zeros((0, 2)), []))

    def test_chunked_scoring_matches_forward(self):
        # 9000 rows span three 4096-row chunks; each row's prediction must be
        # forward's argmax on the whole set.
        arch = MlpArch((5, 7, 3))
        params = init_mlp(arch, 2)
        rng = np.random.default_rng(3)
        ds = _TinySet(rng.normal(size=(9000, 5)), rng.integers(0, 3, 9000))
        hits = np.argmax(forward(params, arch, ds.features), axis=1) == ds.labels
        assert predict_accuracy(params, arch, ds) == int(hits.sum()) / 9000


class TestFiniteDiff:
    def test_matches_analytic_softmax_derivative(self):
        # d/dw of ln(1 + exp(-(w*x))) for 2-class logits [w*x, 0], label 0:
        # derivative wrt w is -x * sigmoid(-w*x).
        arch = MlpArch((1, 2))
        w = 0.8
        x = 1.3
        params = np.array([w, 0.0, 0.0, 0.0])
        numeric = finite_diff_grad(params, arch, np.array([[x]]), [0], 1e-5)
        analytic = -x * (1.0 / (1.0 + math.exp(w * x)))
        assert numeric[0] == pytest.approx(analytic, abs=1e-6)

    def test_near_zero_at_saturated_optimum(self):
        arch = MlpArch((1, 2))
        params = np.array([1000.0, -1000.0, 0.0, 0.0])
        numeric = finite_diff_grad(params, arch, np.array([[1.0]]), [0], 1e-5)
        assert np.all(np.abs(numeric) < 1e-9)

    def test_agrees_with_backward(self):
        rng = np.random.default_rng(77)
        arch = MlpArch((4, 6, 3))
        params = init_mlp(arch, 9) + 0.05 * rng.standard_normal(arch.n_params())
        features, labels = rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)
        _, grad = backward(params, arch, features, labels)
        numeric = finite_diff_grad(params, arch, features, labels, 1e-5)
        assert rel_error(grad, numeric) < 1e-4

    def test_rejects_nonpositive_step(self):
        arch = MlpArch((1, 2))
        params = np.zeros(arch.n_params())
        with pytest.raises(ConfigError):
            finite_diff_grad(params, arch, np.array([[1.0]]), [0], 0.0)
